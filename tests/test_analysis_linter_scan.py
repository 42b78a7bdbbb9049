"""Shared-scan linter equivalence: vectorised masks == per-entry loops.

The FAB001/FAB002/FAB007/FAB013 rules all read one :class:`_TableScan`
pass over the dense matrix (entry gathers + a single
``walk_dest_columns`` suspect prefilter).  These tests pin that the
refactor changed nothing observable: on randomly corrupted fabrics the
emitted diagnostics and pair counts equal an independent per-entry
reference that walks every destination with no prefilter at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lint_fabric
from repro.analysis.linter import _classify_switches
from repro.core.errors import TopologyError
from repro.core.rng import make_rng
from repro.ib.subnet_manager import OpenSM
from repro.routing import MinHopRouting
from repro.topology.hyperx import hyperx

SCAN_RULES = {"FAB001", "FAB002", "FAB007", "FAB013"}
UNCAPPED = 10**6


def _fresh_fabric():
    net = hyperx((3, 3), 2)
    return net, OpenSM(net).run(MinHopRouting())


def _corrupt(net, fabric, rng, n_defects):
    """Seed a random mix of the defects the scan-backed rules cover."""
    dlids = fabric.lidmap.terminal_lids(net)
    for _ in range(n_defects):
        kind = int(rng.integers(5))
        sw = net.switches[int(rng.integers(len(net.switches)))]
        dlid = dlids[int(rng.integers(len(dlids)))]
        if kind == 0:  # black hole: drop an entry
            fabric.tables[sw].pop(dlid, None)
        elif kind == 1:  # FAB007: entry leaves a different switch
            other = net.switches[
                (net.switches.index(sw) + 1) % len(net.switches)
            ]
            fabric.tables[sw][dlid] = net.out_links(other)[0].id
        elif kind == 2:  # FAB007: link id outside the fabric
            fabric.tables[sw][dlid] = len(net.links) + int(rng.integers(99))
        elif kind == 3:  # FAB013 (+ FAB001): cable dies after routing
            cables = net.switch_cables()
            if cables:
                net.disable_cable(
                    cables[int(rng.integers(len(cables)))].id
                )
        else:  # FAB002: splice a two-switch forwarding loop
            entry = fabric.tables[sw].get(dlid)
            if entry is None or not (0 <= entry < len(net.links)):
                continue
            succ = net.link(entry).dst
            if not net.is_switch(succ):
                continue
            back = next(
                (link.id for link in net.out_links(succ)
                 if link.dst == sw), None,
            )
            if back is not None:
                fabric.tables[succ][dlid] = back


def _reference_entry_findings(fabric):
    """FAB007/FAB013 keys from a plain loop over every table entry."""
    net = fabric.net
    num_links = len(net.links)
    fab007, fab013 = set(), set()
    for sw in net.switches:
        for dlid, link_id in fabric.tables.get(sw, {}).items():
            if not (0 <= link_id < num_links):
                fab007.add((sw, dlid, link_id))
                continue
            link = net.link(link_id)
            if link.src != sw:
                fab007.add((sw, dlid, link_id))
            elif not link.enabled:
                fab013.add((sw, dlid, link_id))
            if dlid not in fabric.lidmap.owner:
                fab007.add((sw, dlid, link_id))
    return fab007, fab013


def _reference_walk_findings(fabric):
    """FAB001/FAB002 keys and pair counts, classifying EVERY dlid."""
    net = fabric.net
    attached = {sw: net.attached_terminals(sw) for sw in net.switches}
    blackholed = looped = 0
    holes, loops = set(), set()
    for dlid in fabric.lidmap.terminal_lids(net):
        dest_node = fabric.lidmap.node_of(dlid)
        try:
            dsw = net.attached_switch(dest_node)
        except TopologyError:
            continue
        state, cycles = _classify_switches(fabric, dlid, dest_node, dsw)
        by_hole = {}
        for sw, verdict in state.items():
            if verdict[0] == "blackhole":
                by_hole.setdefault(verdict[1], []).append(sw)
        for hole, sources in by_hole.items():
            affected = sum(len(attached[s]) for s in sources)
            if dsw in sources:
                affected -= 1
            blackholed += affected
            if affected:
                holes.add((dlid, hole))
        for idx, cycle in enumerate(cycles):
            feeders = [
                s for s, verdict in state.items()
                if verdict[0] == "loop" and verdict[1] == idx
            ]
            affected = sum(len(attached[s]) for s in feeders)
            if dsw in feeders:
                affected -= 1
            looped += affected
            loops.add((dlid, frozenset(cycle)))
    return blackholed, looped, holes, loops


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), n_defects=st.integers(0, 6))
def test_scan_matches_per_entry_reference(seed, n_defects):
    net, fabric = _fresh_fabric()
    _corrupt(net, fabric, make_rng(seed), n_defects)

    want_007, want_013 = _reference_entry_findings(fabric)
    want_bh, want_lp, want_holes, want_loops = _reference_walk_findings(
        fabric
    )

    report = lint_fabric(fabric, rules=SCAN_RULES, max_per_rule=UNCAPPED)
    got_007 = {
        (d.switch, d.lid, d.witness["link"])
        for d in report.by_code("FAB007")
    }
    got_013 = {
        (d.switch, d.lid, d.witness["link"])
        for d in report.by_code("FAB013")
    }
    got_holes = {(d.lid, d.witness["switch"])
                 for d in report.by_code("FAB001")}
    got_loops = {(d.lid, frozenset(d.witness["cycle"]))
                 for d in report.by_code("FAB002")}

    assert got_007 == want_007
    assert got_013 == want_013
    assert got_holes == want_holes
    assert got_loops == want_loops
    assert report.stats["blackholed_pairs"] == want_bh
    assert report.stats["looped_pairs"] == want_lp
    if n_defects == 0:
        assert not report.diagnostics
