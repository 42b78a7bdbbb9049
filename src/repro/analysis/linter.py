"""The fabric linter: static verification of a routed :class:`Fabric`.

:func:`lint_fabric` audits forwarding state *before* any packet moves —
the OpenSM-style static pass the paper relied on to certify criterion
(4), "loop-free, fault-tolerant and deadlock-free", on the rewired
machine.  Every rule walks tables, LID maps or the topology itself; no
flow simulation is involved.  Findings carry stable codes and concrete
witnesses (see :mod:`repro.analysis.diagnostics`):

==========  ==============================================
``FAB001``  LFT reachability / black-hole detection
``FAB002``  forwarding-loop detection
``FAB003``  per-VL credit-loop (CDG cycle) certification
``FAB004``  duplicate LID / owner-table conflicts
``FAB005``  unassigned LIDs
``FAB006``  out-of-range LIDs
``FAB007``  invalid forwarding entries
``FAB008``  HyperX dimension regularity
``FAB009``  fat-tree level consistency
``FAB010``  port capacity / attachment invariants
``FAB011``  predicted hot links (static load estimator)
``FAB012``  virtual lanes outside the fabric/hardware budget
``FAB013``  stale forwarding entries over disabled links
==========  ==============================================

The per-destination forwarding function is a *functional graph* over
switches (destination-based forwarding: one out-edge per switch), so
reachability, black holes and loops for one destination LID all fall
out of a single O(switches) classification pass with memoisation —
O(switches x LIDs) for the whole fabric.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from repro.analysis.diagnostics import (
    ALL_RULES,
    CORE_RULES,
    RULES,
    WHATIF_RULES,
    Diagnostic,
    LintReport,
    Severity,
)
from repro.analysis.load import estimate_link_loads, hot_links, load_summary
from repro.analysis.whatif import audit_whatif
from repro.core.errors import FabricLintError, ReproError, TopologyError
from repro.ib.cdg import find_dependency_cycle, lane_dependency_edges
from repro.ib.deadlock import CreditLoop, find_credit_loop
from repro.ib.fabric import Fabric
from repro.ib.tables import walk_dest_columns
from repro.topology.hyperx import hyperx_shape_of

#: Largest unicast LID (InfiniBand reserves 0 and the multicast range).
MAX_UNICAST_LID = 0xBFFF

#: Virtual lanes available on the paper's QDR hardware.
HARDWARE_MAX_VLS = 8


class _Emitter:
    """Caps per-rule emission so mass corruption stays readable.

    Diagnostics past the cap are counted in ``report.suppressed`` —
    totals stay exact, only the witness list is bounded.
    """

    def __init__(self, report: LintReport, max_per_rule: int) -> None:
        self.report = report
        self.max_per_rule = max_per_rule
        self._counts: dict[str, int] = {}

    def add(self, code: str, message: str, **kwargs: Any) -> Diagnostic | None:
        n = self._counts.get(code, 0)
        self._counts[code] = n + 1
        if n >= self.max_per_rule:
            self.report.suppressed[code] = (
                self.report.suppressed.get(code, 0) + 1
            )
            return None
        return self.report.add(code, message, **kwargs)


def lint_fabric(
    fabric: Fabric,
    rules: Iterable[str] | None = None,
    *,
    hot_threshold: float = 3.0,
    blast_threshold: float = 0.5,
    max_per_rule: int = 16,
) -> LintReport:
    """Statically verify a routed fabric; returns a :class:`LintReport`.

    Parameters
    ----------
    fabric:
        The routed plane to verify.
    rules:
        Rule codes to run (default: every as-routed rule).  Pass
        :data:`~repro.analysis.diagnostics.CORE_RULES` for the cheap
        correctness-only preflight, or ``ALL_RULES | WHATIF_RULES`` to
        add the what-if fault certification (``repro lint --what-if``).
    hot_threshold:
        A link is reported hot when its predicted traversal count
        exceeds this multiple of the fabric mean (FAB011; FAB016 uses
        the same headroom multiple for post-failure bounds).
    blast_threshold:
        FAB017 fires when a single cable failure would invalidate more
        than this fraction of all installed destinations.
    max_per_rule:
        Emission cap per rule; excess findings are counted in
        ``report.suppressed``.
    """
    active = set(ALL_RULES if rules is None else rules)
    unknown = active - set(RULES)
    if unknown:
        raise ValueError(f"unknown lint rule codes: {sorted(unknown)}")
    report = LintReport(network=fabric.net.name, engine=fabric.engine_name)
    emit = _Emitter(report, max_per_rule)

    # The four table rules share one scan over the forwarding state —
    # entry verdicts come from vectorised masks and a single
    # walk_dest_columns pass instead of four independent re-walks.
    table_rules = active & {"FAB001", "FAB002", "FAB007", "FAB013"}
    scan = _TableScan(fabric) if table_rules else None

    if active & {"FAB004", "FAB005", "FAB006"}:
        _check_lids(fabric, emit, active)
    if "FAB007" in active:
        _check_table_hygiene(fabric, emit, scan)
    if "FAB013" in active:
        _check_stale_entries(fabric, emit, scan)
    if active & {"FAB001", "FAB002"}:
        _check_walks(fabric, emit, active, report.stats, scan)
    if active & {"FAB003", "FAB012"}:
        _check_credit_loops(fabric, emit, active)
    if active & {"FAB008", "FAB009", "FAB010"}:
        _check_topology(fabric, emit, active)
    if "FAB011" in active:
        _check_load(fabric, emit, hot_threshold, report.stats)
    if active & WHATIF_RULES:
        _check_whatif(
            fabric, emit, active, report.stats, hot_threshold,
            blast_threshold,
        )
    return report


def assert_fabric_clean(
    fabric: Fabric,
    context: str = "",
    rules: Iterable[str] | None = None,
) -> LintReport:
    """Preflight gate: lint and raise :class:`FabricLintError` on errors.

    Runs the cheap correctness rules by default (no load estimator, no
    shape warnings) — the hook :mod:`repro.experiments.runner` calls
    before every simulation.
    """
    report = lint_fabric(fabric, CORE_RULES if rules is None else rules)
    if not report.clean:
        where = f" ({context})" if context else ""
        first = "; ".join(str(d) for d in report.errors[:3])
        raise FabricLintError(
            f"fabric {fabric.net.name!r} engine={fabric.engine_name!r}"
            f"{where} failed static verification with "
            f"{len(report.errors)} error(s): {first}",
            report=report,
        )
    return report


# --- LID / LMC consistency (FAB004-FAB006) ---------------------------------
def _check_lids(fabric: Fabric, emit: _Emitter, active: set[str]) -> None:
    net = fabric.net
    lm = fabric.lidmap
    span = lm.lids_per_port

    if "FAB005" in active:
        for t in net.terminals:
            if t not in lm.base:
                emit.add(
                    "FAB005",
                    f"terminal {t} has no LID assigned",
                    witness={"node": t, "kind": "terminal"},
                )
        for sw in net.switches:
            if sw not in lm.base:
                emit.add(
                    "FAB005",
                    f"switch {sw} has no LID assigned",
                    severity=Severity.WARNING,
                    switch=sw,
                    witness={"node": sw, "kind": "switch"},
                )

    blocks: list[tuple[int, int, int]] = []  # (start, end_exclusive, node)
    for node, base in lm.base.items():
        width = span if net.is_terminal(node) else 1
        blocks.append((base, base + width, node))
        if "FAB006" in active and (base < 1 or base + width - 1 > MAX_UNICAST_LID):
            emit.add(
                "FAB006",
                f"node {node} LID block [{base}, {base + width - 1}] leaves "
                f"the unicast range [1, {MAX_UNICAST_LID}]",
                lid=base,
                witness={"node": node, "base": base, "width": width},
            )

    if "FAB004" in active:
        blocks.sort()
        for (s1, e1, n1), (s2, e2, n2) in zip(blocks, blocks[1:]):
            if s2 < e1:
                emit.add(
                    "FAB004",
                    f"nodes {n1} and {n2} claim overlapping LID blocks "
                    f"[{s1}, {e1 - 1}] and [{s2}, {e2 - 1}]",
                    lid=s2,
                    witness={"lid": s2, "nodes": [n1, n2]},
                )
        for lid, (node, index) in lm.owner.items():
            base = lm.base.get(node)
            if base is None or base + index != lid:
                emit.add(
                    "FAB004",
                    f"owner table maps LID {lid} to (node {node}, index "
                    f"{index}) but the node's base block disagrees",
                    lid=lid,
                    witness={"lid": lid, "node": node, "index": index,
                             "base": base},
                )


# --- the shared forwarding-state scan ---------------------------------------
class _TableScan:
    """One pass over the forwarding state, shared by the table rules.

    FAB007 and FAB013 read per-entry verdicts off vectorised masks over
    the dense matrix (one ``entry_coordinates`` gather instead of two
    independent per-entry Python loops), and FAB001/FAB002 get a
    :func:`~repro.ib.tables.walk_dest_columns` prefilter that clears
    defect-free destinations wholesale, so only broken destinations pay
    the per-switch Python classification that produces witnesses.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        net = fabric.net
        tables = fabric.tables
        self.num_links = len(net.links)
        self.graph = net.switch_graph()
        self.rows, self.cols, self.links = tables.entry_coordinates()
        self.switch_ids = np.asarray(tables.switch_ids, dtype=np.int64)
        self.dlids_arr = tables.dlids
        safe = np.clip(self.links, 0, max(self.num_links - 1, 0))
        #: Entry's link id exists in the network.
        self.known = (self.links >= 0) & (self.links < self.num_links)
        self.entry_src = np.where(
            self.known, self.graph.link_src_node[safe], -1
        )
        self.entry_enabled = self.known & self.graph.link_enabled[safe]
        self.entry_dst = np.where(
            self.known, self.graph.link_dst_node[safe], -1
        )
        #: Switch node id of each entry's row.
        self.entry_sw = self.switch_ids[self.rows]
        #: Entry's link actually leaves the switch it is installed at.
        self.local = self.known & (self.entry_src == self.entry_sw)

    def suspect_dlids(self, dlids: list[int]) -> set[int]:
        """Terminal dlids that may have a broken walk.

        A destination is *clean* exactly when every switch's matrix walk
        ejects at its terminal (``walk_dest_columns`` ok everywhere) and
        no non-local entry exists for it — the same verdicts
        ``_classify_switches`` reaches, wholesale.  A dlid with no table
        column (a LID map edited after routing) has no entries at all,
        so it is always suspect.
        """
        fabric = self.fabric
        tables = fabric.tables
        suspects: set[int] = set()
        walked: list[int] = []
        cols: list[int] = []
        nodes: list[int] = []
        for dlid in dlids:
            col = tables.column_of(dlid)
            if col is None:
                suspects.add(dlid)
                continue
            walked.append(dlid)
            cols.append(col)
            nodes.append(fabric.lidmap.node_of(dlid))
        if not cols:
            return suspects
        ok, _, _ = walk_dest_columns(
            tables.dense,
            self.graph,
            np.asarray(cols, dtype=np.int64),
            np.asarray(nodes, dtype=np.int64),
        )
        suspects.update(
            int(walked[i]) for i in np.flatnonzero(~ok.all(axis=0))
        )
        # walk_dest_columns follows entries regardless of which switch
        # they leave from; the classifier black-holes foreign/unknown
        # links, so their destinations must stay suspect too.
        nonlocal_cols = self.cols[~self.local]
        suspects.update(
            int(d) for d in self.dlids_arr[nonlocal_cols].tolist()
        )
        return suspects


# --- forwarding-table hygiene (FAB007) -------------------------------------
def _check_table_hygiene(
    fabric: Fabric, emit: _Emitter, scan: _TableScan
) -> None:
    # Unknown and foreign links straight off the scan masks.  Unknown
    # destination LIDs and non-switch rows cannot occur: the tables
    # refuse writes outside the matrix universe.
    for i in np.flatnonzero(~scan.known).tolist():
        sw = int(scan.entry_sw[i])
        dlid = int(scan.dlids_arr[scan.cols[i]])
        emit.add(
            "FAB007",
            f"switch {sw} routes dlid {dlid} via unknown link "
            f"{int(scan.links[i])}",
            switch=sw, lid=dlid,
            witness={"switch": sw, "dlid": dlid, "link": int(scan.links[i])},
        )
    for i in np.flatnonzero(scan.known & ~scan.local).tolist():
        sw = int(scan.entry_sw[i])
        dlid = int(scan.dlids_arr[scan.cols[i]])
        emit.add(
            "FAB007",
            f"switch {sw} routes dlid {dlid} via foreign link "
            f"{int(scan.links[i])} (leaves node {int(scan.entry_src[i])})",
            switch=sw, lid=dlid,
            witness={"switch": sw, "dlid": dlid, "link": int(scan.links[i]),
                     "link_src": int(scan.entry_src[i])},
        )


# --- stale entries over disabled links (FAB013) -----------------------------
def _check_stale_entries(
    fabric: Fabric, emit: _Emitter, scan: _TableScan
) -> None:
    """Forwarding entries whose out link has been disabled since routing.

    This is the static counterpart of the simulator's stale-path
    rejection: a table computed before a cable failure silently
    black-holes (or, in a naive model, simulates at line rate) every
    destination routed over the dead cable until the SM re-sweeps.
    """
    stale = scan.local & ~scan.entry_enabled
    for i in np.flatnonzero(stale).tolist():
        sw = int(scan.entry_sw[i])
        dlid = int(scan.dlids_arr[scan.cols[i]])
        link_id = int(scan.links[i])
        emit.add(
            "FAB013",
            f"switch {sw} routes dlid {dlid} via disabled link "
            f"{link_id}: stale LFT entry; re-sweep the fabric "
            "(repro.ib.subnet_manager.resweep) after cable events",
            switch=sw, lid=dlid,
            witness={"switch": sw, "dlid": dlid, "link": link_id,
                     "link_dst": int(scan.entry_dst[i])},
        )


# --- reachability, black holes, forwarding loops (FAB001/FAB002) -----------
def _check_walks(
    fabric: Fabric,
    emit: _Emitter,
    active: set[str],
    stats: dict[str, Any],
    scan: _TableScan,
) -> None:
    net = fabric.net
    attached = {sw: net.attached_terminals(sw) for sw in net.switches}
    pairs_total = 0
    blackholed_pairs = 0
    looped_pairs = 0

    dlids = fabric.lidmap.terminal_lids(net)
    # One vectorised walk clears defect-free destinations wholesale;
    # only suspects pay the per-switch classification below.
    suspects = scan.suspect_dlids(dlids)

    for dlid in dlids:
        dest_node = fabric.lidmap.node_of(dlid)
        try:
            dsw = net.attached_switch(dest_node)
        except TopologyError:
            continue  # detached destination: FAB010 reports it
        pairs_total += net.num_terminals - 1
        if dlid not in suspects:
            continue

        state, cycles = _classify_switches(fabric, dlid, dest_node, dsw)

        # Black holes: group the defect by the switch the packet dies at.
        by_hole: dict[int, list[int]] = {}
        for sw, st in state.items():
            if st[0] == "blackhole":
                by_hole.setdefault(st[1], []).append(sw)
        for hole in sorted(by_hole):
            sources = by_hole[hole]
            affected = sum(len(attached[s]) for s in sources)
            if dsw in sources:
                affected -= 1  # the destination does not send to itself
            blackholed_pairs += affected
            if "FAB001" not in active or affected == 0:
                continue
            sample_sw = next(
                (s for s in sources if attached[s] and s != dsw), sources[0]
            )
            sample_src = next(
                (t for t in attached[sample_sw] if t != dest_node), None
            )
            reason = state[hole][2]
            emit.add(
                "FAB001",
                f"dlid {dlid}: black hole at switch {hole} ({reason}); "
                f"{affected} (source, dlid) pair(s) dropped",
                switch=hole, lid=dlid,
                witness={
                    "dlid": dlid,
                    "switch": hole,
                    "reason": reason,
                    "affected_pairs": affected,
                    "source": sample_src,
                    "walk": _rewalk(fabric, dlid, sample_sw, hole),
                },
            )

        # Forwarding loops: one diagnostic per distinct cycle.
        for idx, cycle in enumerate(cycles):
            feeders = [
                s for s, st in state.items()
                if st[0] == "loop" and st[1] == idx
            ]
            affected = sum(len(attached[s]) for s in feeders)
            if dsw in feeders:
                affected -= 1
            looped_pairs += affected
            if "FAB002" not in active:
                continue
            links = [fabric.tables[s][dlid] for s in cycle]
            sample_sw = next((s for s in feeders if attached[s]), cycle[0])
            sample_src = next(
                (t for t in attached.get(sample_sw, []) if t != dest_node),
                None,
            )
            emit.add(
                "FAB002",
                f"dlid {dlid}: forwarding loop through switches "
                f"{' -> '.join(map(str, cycle + cycle[:1]))}; "
                f"{affected} (source, dlid) pair(s) trapped",
                switch=cycle[0], lid=dlid,
                witness={
                    "dlid": dlid,
                    "cycle": cycle,
                    "links": links,
                    "affected_pairs": affected,
                    "source": sample_src,
                },
            )

    stats["pairs_total"] = pairs_total
    stats["blackholed_pairs"] = blackholed_pairs
    stats["looped_pairs"] = looped_pairs


def _classify_switches(
    fabric: Fabric,
    dlid: int,
    dest_node: int,
    dsw: int,
) -> tuple[dict[int, tuple], list[list[int]]]:
    """Classify every switch's fate when forwarding toward ``dlid``.

    Returns ``(state, cycles)`` where ``state[sw]`` is ``("ok",)``,
    ``("blackhole", hole_switch, reason)`` — the walk dies at
    ``hole_switch`` — or ``("loop", cycle_index)``, and ``cycles`` lists
    each distinct forwarding cycle as an ordered switch sequence.
    Memoised walk over the functional graph: O(switches) per LID.
    """
    net = fabric.net
    state: dict[int, tuple] = {}
    cycles: list[list[int]] = []

    for start in net.switches:
        if start in state:
            continue
        path: list[int] = []
        onpath: dict[int, int] = {}
        cur = start
        verdict: tuple | None = None
        while True:
            if cur in state:
                verdict = state[cur]
                break
            if cur in onpath:
                cycle = path[onpath[cur]:]
                cycles.append(cycle)
                verdict = ("loop", len(cycles) - 1)
                break
            onpath[cur] = len(path)
            path.append(cur)
            entry = fabric.tables.get(cur, {}).get(dlid)
            if entry is None:
                verdict = ("blackhole", cur, "no forwarding entry")
                break
            if not 0 <= entry < len(net.links):
                verdict = (
                    "blackhole", cur, f"entry uses unknown link {entry}"
                )
                break
            link = net.link(entry)
            if not link.enabled:
                verdict = (
                    "blackhole", cur, f"entry uses disabled link {entry}"
                )
                break
            if link.src != cur:
                verdict = (
                    "blackhole", cur, f"entry uses foreign link {entry}"
                )
                break
            if net.is_terminal(link.dst):
                if link.dst == dest_node:
                    verdict = ("ok",)
                else:
                    verdict = (
                        "blackhole", cur,
                        f"ejects at wrong terminal {link.dst}",
                    )
                break
            cur = link.dst
        for sw in path:
            state[sw] = verdict
    return state, cycles


def _rewalk(fabric: Fabric, dlid: int, start: int, stop: int) -> list[int]:
    """Re-trace the switch walk from ``start`` until ``stop`` (witness)."""
    net = fabric.net
    walk = [start]
    cur = start
    for _ in range(net.num_switches):
        if cur == stop:
            break
        entry = fabric.tables.get(cur, {}).get(dlid)
        if entry is None or not 0 <= entry < len(net.links):
            break
        link = net.link(entry)
        if not link.enabled or not net.is_switch(link.dst):
            break
        cur = link.dst
        walk.append(cur)
    return walk


# --- credit loops and lane budgets (FAB003/FAB012) -------------------------
def _check_credit_loops(
    fabric: Fabric, emit: _Emitter, active: set[str]
) -> None:
    net = fabric.net

    if "FAB012" in active:
        for dlid, vl in sorted(fabric.vl_of_dlid.items()):
            if vl < 0 or vl >= fabric.num_vls:
                emit.add(
                    "FAB012",
                    f"dlid {dlid} assigned virtual lane {vl} outside the "
                    f"fabric's {fabric.num_vls} lane(s)",
                    lid=dlid, vl=vl,
                    witness={"dlid": dlid, "vl": vl,
                             "num_vls": fabric.num_vls},
                )
        if fabric.num_vls > HARDWARE_MAX_VLS:
            emit.add(
                "FAB012",
                f"fabric uses {fabric.num_vls} virtual lanes; the QDR "
                f"hardware offers {HARDWARE_MAX_VLS}",
                severity=Severity.WARNING,
                witness={"num_vls": fabric.num_vls,
                         "hardware_max": HARDWARE_MAX_VLS},
            )

    if "FAB003" not in active:
        return

    loop = _find_fabric_credit_loop(fabric)
    if loop is None:
        return
    channels = [
        {"link": lid, "src": net.link(lid).src, "dst": net.link(lid).dst}
        for lid in loop.channels
    ]
    emit.add(
        "FAB003",
        str(loop),
        vl=loop.vl,
        witness={"vl": loop.vl, "channels": list(loop.channels),
                 "endpoints": channels},
    )


def _find_fabric_credit_loop(fabric: Fabric) -> CreditLoop | None:
    """Per-lane CDG certification at the fabric's native granularity.

    LASH records a per-pair lane map (``vl_of_pair``); its deadlock
    freedom is invisible at destination granularity, so certify the
    exact per-pair dependencies instead.  Everything else uses the
    O(switches) per-destination extraction straight off the tables.
    """
    net = fabric.net
    vl_of_pair: Mapping[tuple[int, int], int] | None = getattr(
        fabric, "vl_of_pair", None
    )
    if vl_of_pair is not None:
        per_lane_paths: dict[int, dict[int, list[list[int]]]] = {}
        for dlid in fabric.lidmap.terminal_lids(net):
            for src in net.terminals:
                if src == fabric.lidmap.node_of(dlid):
                    continue
                try:
                    path = fabric.resolve(src, dlid)
                except ReproError:
                    continue  # walk rules report broken pairs
                lane = vl_of_pair.get((src, dlid), 0)
                per_lane_paths.setdefault(lane, {}).setdefault(
                    dlid, []
                ).append(path)
        for lane in sorted(per_lane_paths):
            loop = find_credit_loop(
                net, per_lane_paths[lane], dict.fromkeys(per_lane_paths[lane], lane)
            )
            if loop is not None:
                return loop
        return None

    per_lane = lane_dependency_edges(fabric)
    for vl in sorted(per_lane):
        cycle = find_dependency_cycle(per_lane[vl])
        if cycle is not None:
            return CreditLoop(vl=vl, channels=tuple(cycle))
    return None


# --- topology invariants (FAB008/FAB009/FAB010) ----------------------------
def _check_topology(fabric: Fabric, emit: _Emitter, active: set[str]) -> None:
    net = fabric.net

    if "FAB010" in active:
        for t in net.terminals:
            n_up = len(net.out_links(t))
            if n_up != 1:
                emit.add(
                    "FAB010",
                    f"terminal {t} has {n_up} enabled uplinks, expected 1",
                    witness={"terminal": t, "uplinks": n_up},
                )
        for sw in net.switches:
            if net.num_switches > 1 and not any(
                net.is_switch(link.dst) for link in net.out_links(sw)
            ):
                emit.add(
                    "FAB010",
                    f"switch {sw} has no enabled switch-to-switch link",
                    switch=sw,
                    witness={"switch": sw},
                )
        for link in net.iter_links():
            if link.capacity <= 0:
                emit.add(
                    "FAB010",
                    f"link {link.id} ({link.src} -> {link.dst}) has "
                    f"non-positive capacity {link.capacity}",
                    witness={"link": link.id, "capacity": link.capacity},
                )

    if not net.switches:
        return
    meta = net.node_meta(net.switches[0])
    if "FAB008" in active and "coord" in meta:
        _check_hyperx_regularity(fabric, emit)
    if "FAB009" in active and "level" in meta:
        _check_tree_levels(fabric, emit)


def _check_hyperx_regularity(fabric: Fabric, emit: _Emitter) -> None:
    net = fabric.net
    try:
        shape = hyperx_shape_of(net)
    except TopologyError as exc:
        emit.add(
            "FAB008",
            f"cannot recover HyperX shape: {exc}",
            severity=Severity.ERROR,
            witness={"error": str(exc)},
        )
        return

    coord_of = {
        sw: tuple(net.node_meta(sw).get("coord", ())) for sw in net.switches
    }
    for link in net.iter_links():
        if not (net.is_switch(link.src) and net.is_switch(link.dst)):
            continue
        if link.id > link.reverse_id >= 0:
            continue  # one representative direction per cable
        c1, c2 = coord_of[link.src], coord_of[link.dst]
        diff = [i for i, (a, b) in enumerate(zip(c1, c2)) if a != b]
        if len(c1) != len(shape) or len(c2) != len(shape) or len(diff) != 1:
            emit.add(
                "FAB008",
                f"link {link.id} connects coords {c1} and {c2}, which "
                "differ in != 1 dimension",
                severity=Severity.ERROR,
                witness={"link": link.id, "coords": [list(c1), list(c2)]},
            )
            continue
        if link.meta.get("dim") != diff[0]:
            emit.add(
                "FAB008",
                f"link {link.id} is annotated dim={link.meta.get('dim')} "
                f"but spans dimension {diff[0]}",
                severity=Severity.ERROR,
                witness={"link": link.id, "annotated": link.meta.get("dim"),
                         "actual": diff[0]},
            )

    for sw in net.switches:
        coord = coord_of[sw]
        per_dim: dict[int, set[int]] = {d: set() for d in range(len(shape))}
        for link in net.out_links(sw):
            if not net.is_switch(link.dst):
                continue
            other = coord_of[link.dst]
            diff = [i for i, (a, b) in enumerate(zip(coord, other)) if a != b]
            if len(diff) == 1:
                per_dim[diff[0]].add(link.dst)
        for dim, size in enumerate(shape):
            expected = size - 1
            actual = len(per_dim[dim])
            if actual < expected:
                emit.add(
                    "FAB008",
                    f"switch {sw} {coord} reaches {actual}/{expected} "
                    f"dimension-{dim} neighbours (missing cables)",
                    switch=sw,
                    witness={"switch": sw, "coord": list(coord), "dim": dim,
                             "expected": expected, "actual": actual},
                )


def _check_tree_levels(fabric: Fabric, emit: _Emitter) -> None:
    net = fabric.net
    for link in net.iter_links():
        if not (net.is_switch(link.src) and net.is_switch(link.dst)):
            continue
        if link.id > link.reverse_id >= 0:
            continue
        l1 = net.node_meta(link.src).get("level")
        l2 = net.node_meta(link.dst).get("level")
        if l1 is None or l2 is None or abs(int(l1) - int(l2)) != 1:
            emit.add(
                "FAB009",
                f"cable {link.id} connects tree levels {l1} and {l2} "
                "(must be adjacent)",
                witness={"link": link.id, "levels": [l1, l2],
                         "switches": [link.src, link.dst]},
            )


# --- static load estimation (FAB011) ---------------------------------------
def _check_load(
    fabric: Fabric,
    emit: _Emitter,
    hot_threshold: float,
    stats: dict[str, Any],
) -> None:
    loads = estimate_link_loads(fabric)
    stats["link_load"] = load_summary(fabric, loads)
    for witness in hot_links(fabric, loads, threshold=hot_threshold):
        emit.add(
            "FAB011",
            f"link {witness['link']} ({witness['src']} -> "
            f"{witness['dst']}) predicted to carry {witness['load']} "
            f"table walks, {witness['ratio']}x the fabric mean of "
            f"{witness['mean']}",
            witness=witness,
        )


# --- what-if fault certification (FAB014-FAB017) ----------------------------
def _check_whatif(
    fabric: Fabric,
    emit: _Emitter,
    active: set[str],
    stats: dict[str, Any],
    hot_threshold: float,
    blast_threshold: float,
) -> None:
    """Exhaustive single-cable audit feeding the four what-if rules.

    One :func:`~repro.analysis.whatif.audit_whatif` run per lint; every
    rule reads its verdicts off the shared
    :class:`~repro.analysis.whatif.VulnerabilityReport`, and every
    diagnostic's witness is the cable's full vulnerability certificate.
    Findings are emitted in criticality-rank order, so the per-rule cap
    keeps the *worst* cables when mass corruption overflows it.
    """
    try:
        report = audit_whatif(
            fabric,
            hot_threshold=hot_threshold,
            blast_threshold=blast_threshold,
        )
    except TopologyError as exc:
        emit.add(
            "FAB014",
            f"what-if audit not applicable: {exc}",
            severity=Severity.WARNING,
            witness={"error": str(exc)},
        )
        return

    stats["whatif"] = {
        "cables": len(report.cables),
        "bridges": sum(1 for v in report.cables if v.is_bridge),
        "credit_loop_exposed": sum(
            1 for v in report.cables if v.credit_loop_exposed
        ),
        "pairs_total": report.pairs_total,
        "dests_total": report.dests_total,
        "load_mean": report.load_mean,
        "elapsed_seconds": report.elapsed_seconds,
    }

    for v in report.cables:  # criticality-rank order
        cert = v.to_dict()
        if "FAB014" in active and v.is_bridge:
            emit.add(
                "FAB014",
                f"cable {v.cable} ({v.src} <-> {v.dst}) is a single point "
                f"of failure: losing it disconnects the switch graph and "
                f"strands {v.pairs_disconnected} terminal pair(s) "
                f"(criticality rank {v.rank}/{len(report.cables)})",
                witness={**cert, "pairs_total": report.pairs_total},
            )
        if "FAB015" in active and v.credit_loop_exposed:
            emit.add(
                "FAB015",
                f"cable {v.cable} ({v.src} <-> {v.dst}): surviving "
                f"virtual lanes keep a credit-loop cycle after this cable "
                f"fails — the pre-re-sweep fabric is deadlock-capable "
                f"(criticality rank {v.rank}/{len(report.cables)})",
                witness={**cert, "cycle": v.credit_loop_witness},
            )
        if (
            "FAB016" in active
            and report.load_mean > 0
            and v.load > 0
            and v.load_shift_bound > hot_threshold * report.load_mean
        ):
            emit.add(
                "FAB016",
                f"cable {v.cable} ({v.src} <-> {v.dst}): rerouting its "
                f"{v.load} table walks bounds some alternative link at "
                f"{v.load_shift_bound} walks, "
                f"{round(v.load_shift_bound / report.load_mean, 2)}x the "
                f"fabric mean of {report.load_mean} (headroom threshold "
                f"{hot_threshold}x)",
                witness={**cert, "load_mean": report.load_mean,
                         "hot_threshold": hot_threshold},
            )
        if "FAB017" in active and v.blast_fraction > blast_threshold:
            emit.add(
                "FAB017",
                f"cable {v.cable} ({v.src} <-> {v.dst}): failure "
                f"invalidates routes toward {v.dests_affected} of "
                f"{report.dests_total} destinations "
                f"({round(100 * v.blast_fraction, 1)}% re-sweep blast "
                f"radius, threshold "
                f"{round(100 * blast_threshold, 1)}%)",
                witness={**cert, "dests_total": report.dests_total,
                         "blast_threshold": blast_threshold},
            )
