"""The what-if verifier: static certificates vs. actual fail+re-sweep.

The load-bearing contract: every number :func:`audit_whatif` predicts
statically must agree with what actually happens when the cable fails —
the linter's black-hole count before the re-sweep, and the re-sweep
report's stale-destination / dead-pair / unreachable counts after.
These cross-checks pin that agreement on small fabrics for every cable.
"""

import json

import pytest

from repro.analysis import audit_whatif, lint_fabric
from repro.analysis.diagnostics import ALL_RULES, WHATIF_RULES
from repro.core.errors import UnreachableError
from repro.ib.subnet_manager import OpenSM, resweep
from repro.routing import DfssspRouting, MinHopRouting
from repro.topology.faults import FabricEvent, inject_cable_faults
from repro.topology.hyperx import hyperx
from repro.topology.network import Network
from repro.topology.t2hx import t2hx_hyperx


def _hyperx_fabric(shape=(3, 3), terminals=2, engine=None):
    net = hyperx(shape, terminals)
    return net, OpenSM(net).run(engine or MinHopRouting())


def _chain_fabric(n_switches=3, terminals=2):
    """A path graph: every inter-switch cable is a bridge."""
    net = Network(f"chain{n_switches}")
    sws = [net.add_switch() for _ in range(n_switches)]
    for sw in sws:
        for _ in range(terminals):
            t = net.add_terminal()
            net.add_link(t, sw)
    for a, b in zip(sws, sws[1:]):
        net.add_link(a, b)
    return net, OpenSM(net).run(MinHopRouting())


class TestReportShape:
    def test_ranks_are_a_permutation(self):
        _, fabric = _hyperx_fabric()
        report = audit_whatif(fabric)
        assert len(report.cables) == 18  # 2 * C(3,2) * 3 rows/cols
        assert sorted(v.rank for v in report.cables) == list(
            range(1, len(report.cables) + 1)
        )
        assert [v.rank for v in report.cables] == list(
            range(1, len(report.cables) + 1)
        )

    def test_by_cable_resolves_both_directions(self):
        _, fabric = _hyperx_fabric()
        report = audit_whatif(fabric)
        v = report.cables[0]
        assert report.by_cable(v.cable) is v
        assert report.by_cable(v.reverse) is v
        assert report.by_cable(10**9) is None
        assert report.criticality_of(v.cable)["rank"] == v.rank

    def test_json_round_trips(self):
        _, fabric = _hyperx_fabric()
        report = audit_whatif(fabric, k2_samples=2, seed=5)
        payload = json.loads(report.to_json())
        assert payload["summary"]["cables"] == len(report.cables)
        assert len(payload["k2_samples"]) == 2
        assert payload["cables"][0]["rank"] == 1

    def test_clean_hyperx_has_no_bridges_or_credit_loops(self):
        _, fabric = _hyperx_fabric()
        report = audit_whatif(fabric)
        assert report.bridges == []
        assert not any(v.credit_loop_exposed for v in report.cables)
        # Symmetric topology under minhop: every cable carries load.
        assert all(v.load > 0 for v in report.cables)

    def test_k2_sampling_is_deterministic(self):
        _, fabric = _hyperx_fabric()
        a = audit_whatif(fabric, k2_samples=4, seed=9)
        b = audit_whatif(fabric, k2_samples=4, seed=9)
        c = audit_whatif(fabric, k2_samples=4, seed=10)
        assert [s.to_dict() for s in a.k2_samples] == [
            s.to_dict() for s in b.k2_samples
        ]
        assert [s.cables for s in a.k2_samples] != [
            s.cables for s in c.k2_samples
        ]


class TestBridges:
    def test_chain_cables_are_single_points_of_failure(self):
        net, fabric = _chain_fabric(n_switches=4, terminals=2)
        report = audit_whatif(fabric)
        assert len(report.cables) == 3
        assert all(v.is_bridge for v in report.cables)
        # Cutting the middle cable splits 4 terminals from 4: 2*4*4
        # ordered pairs die; the end cables strand 2 vs 6.
        middle = sorted(v.pairs_disconnected for v in report.cables)
        assert middle == [2 * 2 * 6, 2 * 2 * 6, 2 * 4 * 4]
        # The middle cable outranks the end cables.
        assert report.cables[0].pairs_disconnected == 32

    def test_k2_joint_disconnection_counts(self):
        net, fabric = _chain_fabric(n_switches=3, terminals=2)
        report = audit_whatif(fabric, k2_samples=1, seed=0)
        (sample,) = report.k2_samples
        # Any two distinct chain cables split the 6 terminals 2/2/2:
        # 30 ordered pairs minus 3 * (2*1) intra-component pairs.
        assert sample.disconnects
        assert sample.pairs_disconnected == 30 - 6


def _disconnected_pairs(net) -> int:
    """Ground truth: ordered terminal pairs with no enabled path."""
    reach = {}
    for start in net.switches:
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for link in net.out_links(u):
                if net.is_switch(link.dst) and link.dst not in seen:
                    seen.add(link.dst)
                    frontier.append(link.dst)
        reach[start] = seen
    count = 0
    for s in net.terminals:
        for d in net.terminals:
            if s != d and net.attached_switch(d) not in reach[
                net.attached_switch(s)
            ]:
                count += 1
    return count


class TestCrossCheck:
    """Static predictions == measured fail + re-sweep outcomes."""

    @pytest.mark.parametrize("engine_cls", [MinHopRouting, DfssspRouting])
    def test_every_cable_matches_resweep_on_small_hyperx(self, engine_cls):
        net, fabric = _hyperx_fabric(shape=(2, 3), terminals=2,
                                     engine=engine_cls())
        report = audit_whatif(fabric)
        for v in report.cables:
            net_f = hyperx((2, 3), 2)
            fab_f = OpenSM(net_f).run(engine_cls())
            cable = net_f.link(v.cable)
            net_f.disable_cable(cable.id)
            rr = resweep(
                fab_f, engine_cls(),
                events=[FabricEvent("fail_cable", phase=0, cable=cable.id)],
            )
            assert rr.dests_affected == v.dests_affected, v
            assert rr.pairs_affected == v.affected_pairs, v
            # (2,3)-HyperX stays connected after any single cable loss.
            assert rr.num_unreachable == v.pairs_disconnected == 0, v

    def test_bridge_disconnection_matches_ground_truth(self):
        """pairs_disconnected == BFS ground truth, and a re-sweep with a
        completeness-checking engine refuses exactly those fabrics."""
        net, fabric = _chain_fabric(n_switches=3, terminals=2)
        report = audit_whatif(fabric)
        for v in report.cables:
            net_f, fab_f = _chain_fabric(n_switches=3, terminals=2)
            net_f.disable_cable(v.cable)
            assert v.pairs_disconnected == _disconnected_pairs(net_f) > 0, v
            # Every shipped engine raises rather than leaving holes, so
            # a positive static count predicts re-sweep *refusal*.
            with pytest.raises(UnreachableError):
                resweep(
                    fab_f, MinHopRouting(),
                    events=[
                        FabricEvent("fail_cable", phase=0, cable=v.cable)
                    ],
                )

    def test_blackholed_pairs_match_linter_before_resweep(self):
        net, fabric = _hyperx_fabric(shape=(3, 3), terminals=2)
        report = audit_whatif(fabric)
        for v in report.cables[:6]:
            net_f = hyperx((3, 3), 2)
            fab_f = OpenSM(net_f).run(MinHopRouting())
            net_f.disable_cable(v.cable)
            lint = lint_fabric(fab_f, rules={"FAB001"})
            assert lint.stats["blackholed_pairs"] == v.affected_pairs, v

    def test_degraded_fabric_predictions_still_match(self):
        """Audit after prior faults: the baseline need not be pristine."""
        net = hyperx((3, 3), 2)
        inject_cable_faults(net, 3, seed=4)
        fabric = OpenSM(net).run(DfssspRouting())
        report = audit_whatif(fabric)
        for v in report.cables[:4]:
            net_f = hyperx((3, 3), 2)
            inject_cable_faults(net_f, 3, seed=4)
            fab_f = OpenSM(net_f).run(DfssspRouting())
            net_f.disable_cable(v.cable)
            rr = resweep(
                fab_f, DfssspRouting(),
                events=[FabricEvent("fail_cable", phase=0, cable=v.cable)],
            )
            assert rr.dests_affected == v.dests_affected, v
            assert rr.pairs_affected == v.affected_pairs, v


class TestWhatifLintRules:
    def test_default_lint_never_runs_whatif(self):
        _, fabric = _hyperx_fabric()
        report = lint_fabric(fabric)
        assert "whatif" not in report.stats

    def test_fab014_bridge_with_witness_certificate(self):
        _, fabric = _chain_fabric()
        report = lint_fabric(fabric, ALL_RULES | WHATIF_RULES)
        fab014 = [d for d in report.diagnostics if d.code == "FAB014"]
        assert len(fab014) == 2
        w = fab014[0].witness
        assert w["is_bridge"] is True
        assert w["rank"] == 1
        assert w["pairs_disconnected"] > 0
        json.dumps(w)  # certificate must be JSON-serialisable

    def test_fab017_blast_radius_threshold(self):
        _, fabric = _chain_fabric()
        loose = lint_fabric(fabric, WHATIF_RULES, blast_threshold=1.0)
        tight = lint_fabric(fabric, WHATIF_RULES, blast_threshold=0.1)
        assert not any(d.code == "FAB017" for d in loose.diagnostics)
        assert any(d.code == "FAB017" for d in tight.diagnostics)

    def test_clean_t2hx_emits_no_whatif_findings(self):
        net = t2hx_hyperx(scale=2)
        fabric = OpenSM(net).run(DfssspRouting())
        report = lint_fabric(fabric, ALL_RULES | WHATIF_RULES)
        assert report.clean
        assert report.stats["whatif"]["bridges"] == 0
