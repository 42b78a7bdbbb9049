"""Per-entry reference implementations of the array kernels.

Each function here is the plain-Python specification one production
kernel is tested against; none of them runs in the library itself.

* :func:`reference_link_loads` — the static link-load estimator
  (:func:`repro.analysis.load.estimate_link_loads`);
* :func:`reference_dest_dependencies` — one destination's channel
  dependencies read off the tables
  (:func:`repro.ib.cdg.dest_dependencies_from_tables`);
* :func:`reference_max_min_fair_rates` — the max-min fair water-fill
  (:class:`repro.sim.fairness.FairnessProblem`).
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.ib.fabric import Fabric
from repro.sim.fairness import _EPS


def reference_link_loads(fabric: Fabric, dlids: list[int]) -> dict[int, int]:
    """Per-entry Kahn walk over the table mapping, one destination at a
    time: the specification of
    :func:`repro.analysis.load.estimate_link_loads`."""
    net = fabric.net
    loads: dict[int, int] = {
        link.id: 0
        for link in net.iter_links()
        if net.is_switch(link.src) and net.is_switch(link.dst)
    }
    attached: dict[int, int] = {
        sw: len(net.attached_terminals(sw)) for sw in net.switches
    }

    for dlid in dlids:
        dest_node = fabric.lidmap.node_of(dlid)
        # Sources: every terminal except the destination itself.  A
        # terminal's walk enters at its attached switch and follows the
        # destination tree, so seed each switch with its terminal count.
        seed = dict(attached)
        dsw = net.attached_switch(dest_node)
        seed[dsw] -= 1  # the destination does not send to itself

        next_sw: dict[int, tuple[int, int] | None] = {}
        indeg: dict[int, int] = dict.fromkeys(net.switches, 0)
        for sw in net.switches:
            entry = fabric.tables.get(sw, {}).get(dlid)
            hop: tuple[int, int] | None = None
            if entry is not None and 0 <= entry < len(net.links):
                link = net.link(entry)
                if link.enabled and net.is_switch(link.dst):
                    hop = (entry, link.dst)
                    indeg[link.dst] += 1
            next_sw[sw] = hop

        # Kahn's algorithm over the functional graph; switches on a
        # forwarding cycle never reach in-degree 0 and are skipped.
        total = seed
        queue = deque(sw for sw in net.switches if indeg[sw] == 0)
        while queue:
            sw = queue.popleft()
            hop = next_sw[sw]
            if hop is None:
                continue  # ejection at the destination, or a black hole
            link_id, succ = hop
            if total[sw] > 0:
                loads[link_id] += total[sw]
                total[succ] += total[sw]
            indeg[succ] -= 1
            if indeg[succ] == 0:
                queue.append(succ)
    return loads


def reference_dest_dependencies(net, table, dlid: int) -> set[tuple[int, int]]:
    """Per-entry CDG extraction over the table mapping: the
    specification of :func:`repro.ib.cdg.dest_dependencies_from_tables`."""
    deps: set[tuple[int, int]] = set()
    for u, entries in table.items():
        l_in = entries.get(dlid)
        if l_in is None:
            continue
        link_in = net.link(l_in)
        if not net.is_switch(link_in.dst):
            continue  # ejection hop: chain ends
        s = link_in.dst
        l_out = table.get(s, {}).get(dlid)
        if l_out is None:
            continue
        link_out = net.link(l_out)
        if net.is_switch(link_out.dst):
            deps.add((l_in, l_out))
    return deps


def reference_max_min_fair_rates(
    flow_links: Sequence[Sequence[int]],
    link_capacity: Mapping[int, float] | Sequence[float] | np.ndarray,
) -> np.ndarray:
    """The pre-incremental water-fill: the specification of
    :class:`repro.sim.fairness.FairnessProblem`.

    Rebuilds the scipy CSR incidence from Python lists on every call —
    exactly what :class:`FairnessProblem` exists to avoid.  The
    equivalence tests assert the incremental engine matches this
    function to 1e-9, and the perf benchmarks measure the speedup
    against it.
    """
    from scipy import sparse

    n_flows = len(flow_links)
    if n_flows == 0:
        return np.zeros(0)

    used_links: dict[int, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    empty_flows: list[int] = []
    for f, links in enumerate(flow_links):
        if not links:
            empty_flows.append(f)
            continue
        for lid in links:
            rows.append(used_links.setdefault(lid, len(used_links)))
            cols.append(f)
    n_links = len(used_links)
    rates = np.zeros(n_flows)
    if empty_flows:
        rates[empty_flows] = np.inf
    if n_links == 0:
        return rates

    if isinstance(link_capacity, Mapping):
        caps = np.array([link_capacity[lid] for lid in used_links], dtype=float)
    else:
        cap_arr = np.asarray(link_capacity, dtype=float)
        caps = np.array([cap_arr[lid] for lid in used_links], dtype=float)
    if np.any(caps <= 0):
        raise SimulationError("links must have positive capacity")

    a = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_links, n_flows)
    )
    at = a.T.tocsr()

    active = np.ones(n_flows, dtype=bool)
    active[empty_flows] = False
    cap_left = caps.copy()
    level = np.zeros(n_flows)

    for _ in range(n_links + 1):
        if not active.any():
            break
        n_active = a @ active.astype(float)
        crossed = n_active > 0
        if not crossed.any():
            break
        inc = np.min(cap_left[crossed] / n_active[crossed])
        level[active] += inc
        cap_left -= inc * n_active
        saturated = crossed & (cap_left <= _EPS * caps)
        if not saturated.any():
            idx = np.argmin(np.where(crossed, cap_left / np.maximum(n_active, 1), np.inf))
            saturated = np.zeros_like(crossed)
            saturated[idx] = True
        frozen = (at @ saturated.astype(float)) > 0
        newly = frozen & active
        if not newly.any():
            raise SimulationError("progressive filling failed to converge")
        rates[newly] = level[newly]
        active &= ~newly
    else:
        raise SimulationError("progressive filling exceeded its iteration bound")

    rates[active] = level[active]  # pathological leftovers (shouldn't occur)
    return rates
