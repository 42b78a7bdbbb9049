"""Exhaustive what-if vulnerability verification over the dense tables.

The paper's machine ran with missing cables from day one (section 2.3),
and criterion (4) of section 3.2 demands every routing stay "loop-free,
fault-tolerant and deadlock-free" on the degraded fabric.  The linter
certifies the fabric *as routed*; this module certifies it against every
failure it has not had yet: for each enabled switch-to-switch cable it
computes — statically, straight off the dense next-hop matrix and the
CSR switch-graph views, with no simulation and no re-routing —

* ``affected_pairs``: how many installed (source, destination) paths
  traverse the cable, i.e. the pairs that black-hole between the
  failure and the SM re-sweep (one frontier-wave pass per destination,
  shared kernel with the FAB011 load estimator),
* ``dests_affected``: how many destination LIDs have at least one
  forwarding entry over the cable — exactly the stale-destination
  count a re-sweep would report, hence the incremental re-sweep's
  work item count (one ``np.nonzero`` incidence pass over the matrix),
* ``pairs_disconnected``: whether the cable is a *bridge* of the
  switch graph and, if so, how many ordered terminal pairs lose every
  path (one Tarjan bridge pass for all cables together),
* ``credit_loop_exposed``: whether the surviving forwarding entries
  still contain a per-lane CDG cycle after the failure (residual-graph
  cycle search; trivially false for every cable when the base lanes
  are acyclic — removing entries only removes dependency edges),
* ``load_shift_bound``: a static bound on the post-failure load of the
  best surviving alternative link at each endpoint (displaced
  traversals must leave through *some* surviving port).

Cables rank by criticality — disconnection first, then affected pairs,
stale destinations and static load — and the four what-if lint rules
(FAB014 single point of failure, FAB015 post-failure credit-loop
exposure, FAB016 load shift beyond hot-link headroom, FAB017 re-sweep
blast radius) read their witnesses from the same
:class:`VulnerabilityReport`.

Agreement guarantee with the dynamic fault machinery (pinned by the
cross-check tests): on a clean fabric, failing cable ``c`` and
re-sweeping yields a ``RerouteReport`` whose ``pairs_affected`` equals
``affected_pairs`` (at the report's LID index), ``dests_affected``
equals ``dests_affected``, and — for engines that find every path on a
connected graph — ``num_unreachable`` equals ``pairs_disconnected``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.core.chunking import items_per_chunk
from repro.core.errors import TopologyError
from repro.core.rng import derive_seed, make_rng
from repro.ib.cdg import (
    dependency_cycle_exists,
    find_dependency_cycle,
    find_dependency_cycle_excluding,
    lane_dependency_edges,
)
from repro.core.parallel import run_loads_job, run_scan_job
from repro.ib.fabric import Fabric
from repro.routing.arrays import accumulate_column_loads, incidence_scan_block

if TYPE_CHECKING:
    from repro.topology.network import Link


@dataclass
class CableVulnerability:
    """Static fault certificate for one switch-to-switch cable."""

    #: Representative (lower-id) directed link of the cable, and its
    #: reverse direction.
    cable: int
    reverse: int
    #: Switch endpoints of the cable.
    src: int
    dst: int
    #: Installed (source terminal, destination) pairs whose table walk
    #: traverses the cable in either direction — the pairs that
    #: black-hole between the failure and the re-sweep.
    affected_pairs: int
    #: Destination LIDs with at least one forwarding entry over the
    #: cable: the re-sweep's stale-destination count.
    dests_affected: int
    #: Ordered terminal pairs with no surviving path if the cable fails
    #: (0 unless the cable is a bridge of the switch graph).
    pairs_disconnected: int
    #: Whether the cable is a bridge (single point of failure).
    is_bridge: bool
    #: FAB011-style static traversal count over both directions (all
    #: destination LIDs, LMC copies included).
    load: int
    #: Static post-failure bound: the heaviest "displaced load plus
    #: least-loaded surviving alternative" over the two endpoints.
    load_shift_bound: int
    #: Whether some virtual lane's residual CDG still has a cycle after
    #: the failure (only possible when a base lane is already cyclic).
    credit_loop_exposed: bool
    #: ``dests_affected`` as a fraction of all installed destinations.
    blast_fraction: float
    #: Criticality rank: 1 = most critical.  Filled by the report.
    rank: int = 0
    #: Ordered channel list of one surviving credit loop (None when not
    #: exposed) — the FAB015 witness certificate.
    credit_loop_witness: list[int] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "cable": self.cable,
            "reverse": self.reverse,
            "src": self.src,
            "dst": self.dst,
            "rank": self.rank,
            "affected_pairs": self.affected_pairs,
            "dests_affected": self.dests_affected,
            "pairs_disconnected": self.pairs_disconnected,
            "is_bridge": self.is_bridge,
            "load": self.load,
            "load_shift_bound": self.load_shift_bound,
            "credit_loop_exposed": self.credit_loop_exposed,
            "credit_loop_witness": self.credit_loop_witness,
            "blast_fraction": self.blast_fraction,
        }


@dataclass
class PairSample:
    """One seeded k=2 sample: joint failure of two cables."""

    cables: tuple[int, int]
    #: Distinct destination LIDs with entries over either cable.
    dests_affected: int
    #: Whether failing both disconnects the switch graph.
    disconnects: bool
    #: Ordered terminal pairs split across the components (0 while the
    #: graph stays connected).
    pairs_disconnected: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "cables": list(self.cables),
            "dests_affected": self.dests_affected,
            "disconnects": self.disconnects,
            "pairs_disconnected": self.pairs_disconnected,
        }


@dataclass
class VulnerabilityReport:
    """Criticality-ranked what-if audit of every enabled cable."""

    network: str = ""
    engine: str = ""
    lid_index: int = 0
    #: Ordered terminal pairs the pair counts are measured against.
    pairs_total: int = 0
    #: Destination LIDs with at least one installed forwarding entry.
    dests_total: int = 0
    #: Mean static traversal count over enabled switch cables (the
    #: FAB016 headroom baseline).
    load_mean: float = 0.0
    #: Per-cable certificates in criticality order (rank 1 first).
    cables: list[CableVulnerability] = field(default_factory=list)
    #: Seeded two-cable samples (empty unless requested).
    k2_samples: list[PairSample] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._by_link: dict[int, CableVulnerability] = {}
        for v in self.cables:
            self._by_link[v.cable] = v
            self._by_link[v.reverse] = v

    def by_cable(self, link_id: int) -> CableVulnerability | None:
        """Certificate of the cable owning ``link_id`` (either direction)."""
        return self._by_link.get(link_id)

    @property
    def bridges(self) -> list[CableVulnerability]:
        return [v for v in self.cables if v.is_bridge]

    def criticality_of(self, link_id: int) -> dict[str, Any] | None:
        """Compact criticality record for ledgers and reroute reports."""
        v = self.by_cable(link_id)
        if v is None:
            return None
        return {
            "cable": v.cable,
            "rank": v.rank,
            "of": len(self.cables),
            "affected_pairs": v.affected_pairs,
            "dests_affected": v.dests_affected,
            "pairs_disconnected": v.pairs_disconnected,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "fabric": {"network": self.network, "engine": self.engine},
            "summary": {
                "cables": len(self.cables),
                "bridges": len(self.bridges),
                "pairs_total": self.pairs_total,
                "dests_total": self.dests_total,
                "load_mean": self.load_mean,
                "lid_index": self.lid_index,
                "elapsed_seconds": self.elapsed_seconds,
            },
            "cables": [v.to_dict() for v in self.cables],
            "k2_samples": [s.to_dict() for s in self.k2_samples],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def audit_whatif(
    fabric: Fabric,
    *,
    k2_samples: int = 0,
    seed: int = 0,
    hot_threshold: float = 3.0,
    blast_threshold: float = 0.5,
    lid_index: int = 0,
) -> VulnerabilityReport:
    """Exhaustive k=1 (plus sampled k=2) static fault certification.

    Parameters
    ----------
    fabric:
        The routed plane to certify.
    k2_samples:
        Seeded two-cable samples to draw on top of the exhaustive
        single-cable audit (0 = none).
    seed:
        Seed for the k=2 sampling only; the k=1 audit is deterministic.
    hot_threshold:
        FAB016 headroom multiple (same meaning as the linter's
        ``hot_threshold`` for FAB011).
    blast_threshold:
        FAB017 fires when a cable's ``blast_fraction`` exceeds this.
    lid_index:
        Destination LID index the pair counts use (0 matches
        ``Fabric.resolve_paths`` and the re-sweep diff).
    """
    t_start = time.perf_counter()
    net = fabric.net
    tables = fabric.tables
    graph = net.switch_graph()
    cables = net.switch_cables()
    n_cables = len(cables)
    num_links = len(net.links)

    # Cable index over directed link ids (-1 = uplink or disabled).
    cable_of_link = np.full(num_links, -1, dtype=np.int64)
    for i, c in enumerate(cables):
        cable_of_link[c.id] = i
        cable_of_link[c.reverse_id] = i

    # --- per-link traversal loads (shared frontier-wave kernel) ----------
    terminals = net.terminals
    all_dlids = fabric.lidmap.terminal_lids(net)
    pair_dlids = []
    pair_roots = []
    for t in terminals:
        dlid = fabric.lidmap.lid(t, lid_index)
        col = tables.column_of(dlid)
        if col is None:
            raise TopologyError(
                f"what-if audit: destination LID {dlid} of terminal {t} "
                "is outside the table universe"
            )
        pair_dlids.append(col)
        pair_roots.append(graph.index[net.attached_switch(t)])

    # Destination-chunked so the per-chunk transient state stays bounded
    # on 10k-LID fabrics; the per-link sums are order-independent, so
    # any chunk size — and any worker sharding — produces the same bits.
    chunk = items_per_chunk(net.num_switches * 40)
    all_cols = np.asarray(
        [tables.column_of(d) for d in all_dlids], dtype=np.int64
    )
    all_roots = np.asarray(
        [
            graph.index[net.attached_switch(fabric.lidmap.node_of(d))]
            for d in all_dlids
        ],
        dtype=np.int64,
    )
    loads_all = np.zeros(num_links, dtype=np.int64)
    if not run_loads_job(
        tables.dense, graph, all_cols, all_roots, loads_all, chunk
    ):
        for lo in range(0, all_cols.size, chunk):
            accumulate_column_loads(
                tables.dense,
                graph,
                all_cols[lo : lo + chunk],
                all_roots[lo : lo + chunk],
                loads_all,
            )
    if fabric.lidmap.lids_per_port == 1:
        pair_loads = loads_all  # lid_index 0 is the only LID per port
    else:
        pair_cols = np.asarray(pair_dlids, dtype=np.int64)
        pair_rootsv = np.asarray(pair_roots, dtype=np.int64)
        pair_loads = np.zeros(num_links, dtype=np.int64)
        if not run_loads_job(
            tables.dense, graph, pair_cols, pair_rootsv, pair_loads, chunk
        ):
            accumulate_column_loads(
                tables.dense, graph, pair_cols, pair_rootsv, pair_loads
            )

    # --- cable -> destination incidence ----------------------------------
    # Column-block scan of the dense matrix instead of one full-matrix
    # nonzero: column ranges partition across blocks, so the union of
    # per-block unique keys is exactly the full-matrix unique key set.
    dense = tables.dense
    n_cols = dense.shape[1]
    scanned = run_scan_job(dense, cable_of_link, chunk)
    if scanned is not None:
        keys, dests_total = scanned
    else:
        key_parts: list[np.ndarray] = []
        dests_total = 0
        for lo in range(0, n_cols, chunk):
            blk_keys, blk_dests = incidence_scan_block(
                dense[:, lo : lo + chunk],
                cable_of_link, lo, n_cols, num_links,
            )
            key_parts.append(blk_keys)
            dests_total += blk_dests
        # Distinct (cable, column) pairs via a combined key; the sorted
        # unique key array doubles as the per-cable column sets for k=2.
        keys = (
            np.unique(np.concatenate(key_parts))
            if key_parts else np.empty(0, dtype=np.int64)
        )
    key_cables = keys // n_cols
    dests_affected = np.bincount(key_cables, minlength=n_cables)

    # --- bridges of the switch graph (Tarjan, one pass) -------------------
    sw_weights = graph.attached_counts.astype(np.int64)
    total_terminals = int(sw_weights.sum())
    cable_u = np.fromiter(
        (graph.index[c.src] for c in cables), dtype=np.int64, count=n_cables
    )
    cable_v = np.fromiter(
        (graph.index[c.dst] for c in cables), dtype=np.int64, count=n_cables
    )
    is_bridge, side_weight, comp_weight = _bridges(
        graph.num_switches, cable_u, cable_v, sw_weights
    )
    pairs_disconnected = np.where(
        is_bridge, 2 * side_weight * (comp_weight - side_weight), 0
    )

    # --- residual credit-loop exposure ------------------------------------
    exposed, loop_witness = _credit_loop_exposure(fabric, cables)

    # --- load-shift bound (FAB016) ----------------------------------------
    enabled_cable_links = [c.id for c in cables] + [c.reverse_id for c in cables]
    cable_loads_flat = loads_all[enabled_cable_links]
    load_mean = (
        float(cable_loads_flat.mean()) if len(enabled_cable_links) else 0.0
    )
    out_links_of: dict[int, list[int]] = {}
    for c in cables:
        out_links_of.setdefault(c.src, []).append(c.id)
        out_links_of.setdefault(c.dst, []).append(c.reverse_id)
    shift_bound = np.zeros(n_cables, dtype=np.int64)
    for i, c in enumerate(cables):
        bound = 0
        for link_id, u in ((c.id, c.src), (c.reverse_id, c.dst)):
            displaced = int(loads_all[link_id])
            if displaced == 0:
                continue
            alts = [l for l in out_links_of[u] if l != link_id]
            if not alts:
                continue  # endpoint isolated: the bridge rule owns this
            best = int(min(loads_all[l] for l in alts))
            bound = max(bound, best + displaced)
        shift_bound[i] = bound

    # --- assemble + rank ---------------------------------------------------
    n_terms = len(terminals)
    vulns: list[CableVulnerability] = []
    for i, c in enumerate(cables):
        vulns.append(CableVulnerability(
            cable=int(c.id),
            reverse=int(c.reverse_id),
            src=int(c.src),
            dst=int(c.dst),
            affected_pairs=int(pair_loads[c.id] + pair_loads[c.reverse_id]),
            dests_affected=int(dests_affected[i]),
            pairs_disconnected=int(pairs_disconnected[i]),
            is_bridge=bool(is_bridge[i]),
            load=int(loads_all[c.id] + loads_all[c.reverse_id]),
            load_shift_bound=int(shift_bound[i]),
            credit_loop_exposed=bool(exposed[i]),
            credit_loop_witness=loop_witness.get(i),
            blast_fraction=(
                round(float(dests_affected[i]) / dests_total, 4)
                if dests_total else 0.0
            ),
        ))
    vulns.sort(key=lambda v: (
        -v.pairs_disconnected, -v.affected_pairs, -v.dests_affected,
        -v.load, v.cable,
    ))
    for rank, v in enumerate(vulns, start=1):
        v.rank = rank

    report = VulnerabilityReport(
        network=net.name,
        engine=fabric.engine_name,
        lid_index=lid_index,
        pairs_total=n_terms * (n_terms - 1),
        dests_total=dests_total,
        load_mean=round(load_mean, 2),
        cables=vulns,
    )
    if k2_samples > 0:
        report.k2_samples = _sample_pairs(
            k2_samples, seed, cables, cable_u, cable_v, graph.num_switches,
            sw_weights, keys, key_cables, n_cols,
        )
    report.elapsed_seconds = round(time.perf_counter() - t_start, 4)
    return report


def _bridges(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bridge-find every cable of an undirected (multi)graph at once.

    Iterative Tarjan low-link DFS over dense switch indices.  Parallel
    cables between the same pair of switches are distinct edges (the
    DFS skips only the tree edge it entered on, by edge id), so neither
    of a trunked pair is ever a bridge.  Returns per-edge arrays:
    whether the edge is a bridge, the terminal weight of the subtree
    below its tree-child side, and the terminal weight of the connected
    component containing it.
    """
    m = len(edge_u)
    is_bridge = np.zeros(m, dtype=bool)
    side_weight = np.zeros(m, dtype=np.int64)
    comp_weight = np.zeros(m, dtype=np.int64)
    if n == 0 or m == 0:
        return is_bridge, side_weight, comp_weight

    # Adjacency: node -> list of (neighbour, edge index).
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in range(m):
        u, v = int(edge_u[e]), int(edge_v[e])
        adj[u].append((v, e))
        adj[v].append((u, e))

    disc = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    subtree = weights.astype(np.int64).copy()
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        comp_nodes = []
        comp_edges = []
        # Stack frames: (node, incoming edge id, iterator position).
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        comp_nodes.append(root)
        while stack:
            node, in_edge, idx = stack[-1]
            if idx < len(adj[node]):
                stack[-1] = (node, in_edge, idx + 1)
                nbr, e = adj[node][idx]
                if e == in_edge:
                    continue  # the tree edge we came in on (by id)
                if disc[nbr] >= 0:
                    low[node] = min(low[node], disc[nbr])
                    continue
                disc[nbr] = low[nbr] = timer
                timer += 1
                comp_nodes.append(nbr)
                comp_edges.append(e)
                stack.append((nbr, e, 0))
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    subtree[parent] += subtree[node]
                    if low[node] > disc[parent]:
                        is_bridge[in_edge] = True
                        side_weight[in_edge] = subtree[node]
        total = int(weights[comp_nodes].sum())
        for e in comp_edges:
            comp_weight[e] = total
        # Non-tree edges of this component never became bridges but
        # still need their component weight for completeness.
        # (covered: comp_edges holds tree edges; back edges keep 0 side
        # weight and is_bridge False, so comp_weight is irrelevant.)
    return is_bridge, side_weight, comp_weight


def _credit_loop_exposure(
    fabric: Fabric, cables: list["Link"]
) -> tuple[np.ndarray, dict[int, list[int]]]:
    """Per-cable: does some lane's residual CDG still cycle post-failure?

    Removing a cable only *removes* dependency edges, so a fabric whose
    per-lane CDGs are acyclic can never become deadlock-prone by losing
    a cable — the common case short-circuits to all-False without any
    per-cable work.  When a base lane is cyclic (e.g. plain SSSP on the
    HyperX), a cable is exposed iff some cycle survives without its two
    channels; cables outside a witness cycle are exposed immediately,
    only cables on the witness need the residual re-search.  Returns the
    per-cable exposure mask and, per exposed cable index, one surviving
    cycle as the ordered channel-list witness.
    """
    n_cables = len(cables)
    exposed = np.zeros(n_cables, dtype=bool)
    witnesses: dict[int, list[int]] = {}
    cyclic_lanes = [
        edges for edges in lane_dependency_edges(fabric).values()
        if dependency_cycle_exists(edges)
    ]
    for edges in cyclic_lanes:
        witness = find_dependency_cycle(edges)
        wset = set(witness or ())
        for i, c in enumerate(cables):
            if exposed[i]:
                continue
            if c.id in wset or c.reverse_id in wset:
                survivor = find_dependency_cycle_excluding(
                    edges, (c.id, c.reverse_id)
                )
                if survivor is not None:
                    exposed[i] = True
                    witnesses[i] = [int(ch) for ch in survivor]
            else:
                # The witness cycle shares no channel with this cable,
                # so it survives the failure untouched.
                exposed[i] = True
                witnesses[i] = [int(ch) for ch in witness or ()]
    return exposed, witnesses


def _sample_pairs(
    k2_samples: int,
    seed: int,
    cables: list["Link"],
    cable_u: np.ndarray,
    cable_v: np.ndarray,
    n_switches: int,
    weights: np.ndarray,
    keys: np.ndarray,
    key_cables: np.ndarray,
    n_cols: int,
) -> list[PairSample]:
    """Seeded sampling of two-cable failures (joint incidence + BFS)."""
    n_cables = len(cables)
    if n_cables < 2:
        return []
    rng = make_rng(derive_seed(seed, "whatif", "k2"))
    n_pairs = n_cables * (n_cables - 1) // 2
    count = min(k2_samples, n_pairs)
    picks = rng.choice(n_pairs, size=count, replace=False)

    # Columns per cable, sliced out of the sorted unique key array.
    bounds = np.searchsorted(key_cables, np.arange(n_cables + 1))
    cols_of = [keys[bounds[i]:bounds[i + 1]] % n_cols for i in range(n_cables)]

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_switches)]
    for e in range(n_cables):
        u, v = int(cable_u[e]), int(cable_v[e])
        adj[u].append((v, e))
        adj[v].append((u, e))

    samples: list[PairSample] = []
    for pick in np.sort(picks):
        a, b = _pair_from_index(int(pick), n_cables)
        dests = int(np.union1d(cols_of[a], cols_of[b]).size)
        disconnects, pairs_lost = _joint_disconnection(
            adj, n_switches, weights, (a, b)
        )
        samples.append(PairSample(
            cables=(int(cables[a].id), int(cables[b].id)),
            dests_affected=dests,
            disconnects=disconnects,
            pairs_disconnected=pairs_lost,
        ))
    return samples


def _pair_from_index(k: int, n: int) -> tuple[int, int]:
    """The k-th pair (i < j) in lexicographic order over n items."""
    i = 0
    remaining = k
    row = n - 1
    while remaining >= row:
        remaining -= row
        i += 1
        row -= 1
    return i, i + 1 + remaining


def _joint_disconnection(
    adj: list[list[tuple[int, int]]],
    n: int,
    weights: np.ndarray,
    dead: Iterable[int],
) -> tuple[bool, int]:
    """Connectivity and split-pair count with some cables removed."""
    dead_set = set(dead)
    label = np.full(n, -1, dtype=np.int64)
    comp_weights: list[int] = []
    for root in range(n):
        if label[root] >= 0:
            continue
        cid = len(comp_weights)
        label[root] = cid
        w = int(weights[root])
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for v, e in adj[u]:
                if e in dead_set or label[v] >= 0:
                    continue
                label[v] = cid
                w += int(weights[v])
                frontier.append(v)
        comp_weights.append(w)
    if len(comp_weights) <= 1:
        return False, 0
    total = int(sum(comp_weights))
    same = sum(w * (w - 1) for w in comp_weights)
    # Ordered pairs across components = all ordered pairs minus the
    # within-component ones.  Pre-existing disconnection is rare (the
    # fault injector keeps graphs connected); callers compare against
    # the base component count if they need the delta.
    return True, total * (total - 1) - same
