"""Tests for the SM re-sweep: incremental LFT recomputation after faults."""

import pytest

from repro.core.errors import SimulationError
from repro.core.units import MIB
from repro.experiments import RunSpec, run_capability
from repro.ib.subnet_manager import OpenSM, RerouteReport, resweep
from repro.mpi.job import Job
from repro.routing.dfsssp import DfssspRouting
from repro.sim.engine import FlowSimulator
from repro.topology.faults import FabricEvent
from repro.topology.hyperx import hyperx


@pytest.fixture()
def fabric():
    net = hyperx((3, 3), 2)
    return OpenSM(net).run(DfssspRouting())


def _used_cable(fabric):
    """A switch-to-switch link some terminal pair actually routes over."""
    net = fabric.net
    src = net.attached_terminals(net.switches[0])[0]
    dst = net.attached_terminals(net.switches[-1])[0]
    path = fabric.path(src, dst)
    return net.link(path[1])


class TestResweep:
    def test_recovers_every_pair_after_failure(self, fabric):
        net = fabric.net
        cable = _used_cable(fabric)
        net.disable_cable(cable.id)
        report = resweep(
            fabric, DfssspRouting(),
            events=[FabricEvent("fail_cable", phase=0, cable=cable.id)],
        )
        assert report.resweep_ran
        assert report.engine == "dfsssp"
        assert report.dests_affected > 0
        assert report.entries_changed > 0
        assert report.paths_changed > 0
        assert report.num_unreachable == 0
        assert report.pairs_total == len(net.terminals) * (
            len(net.terminals) - 1
        )
        # The rerouted fabric detours: surviving pairs pay >= the hops
        # they paid before.
        assert report.hops_delta >= 0
        assert report.events[0]["action"] == "fail_cable"
        # Resolving any pair on the new tables must avoid the dead cable.
        for src in net.terminals[:4]:
            for dst in net.terminals[-4:]:
                if src == dst:
                    continue
                assert cable.id not in fabric.path(src, dst)

    def test_incremental_skip_when_nothing_stale(self, fabric):
        """Degrades change capacity, not reachability: no engine run."""
        net = fabric.net
        cable = _used_cable(fabric)
        net.set_capacity(cable.id, cable.capacity / 2)
        report = resweep(fabric, DfssspRouting())
        assert not report.resweep_ran
        assert report.entries_changed == 0
        assert "skipped" in str(report)

    def test_restore_forces_a_resweep(self, fabric):
        """A restored cable can open better paths, so the skip is off."""
        net = fabric.net
        cable = _used_cable(fabric)
        net.disable_cable(cable.id)
        resweep(fabric, DfssspRouting())
        net.enable_cable(cable.id)
        report = resweep(
            fabric, DfssspRouting(),
            events=[FabricEvent("restore_cable", phase=0, cable=cable.id)],
        )
        assert report.resweep_ran
        assert report.hops_delta <= 0  # restoring never lengthens paths

    def test_opensm_method_and_notes(self, fabric):
        net = fabric.net
        cable = _used_cable(fabric)
        net.disable_cable(cable.id)
        sm = OpenSM(net)
        report = sm.resweep(fabric, DfssspRouting())
        assert isinstance(report, RerouteReport)
        assert any("resweep" in note for note in fabric.notes)

    def test_to_dict_is_complete(self, fabric):
        net = fabric.net
        cable = _used_cable(fabric)
        net.disable_cable(cable.id)
        payload = resweep(fabric, DfssspRouting()).to_dict()
        for key in ("engine", "events", "dests_affected", "entries_changed",
                    "paths_changed", "pairs_total", "hops_before",
                    "hops_after", "hops_delta", "unreachable_pairs",
                    "resweep_ran"):
            assert key in payload


class TestAcceptanceScenario:
    """The issue's scripted scenario: route, run with a mid-phase cable
    failure and SM re-sweep, compare against the pristine run, and check
    that skipping the re-sweep is refused."""

    def test_fail_resweep_reroute_end_to_end(self, fabric):
        net = fabric.net
        job = Job(fabric, net.terminals[:8])
        prog = job.alltoall(1 * MIB)
        assert len(prog.phases) > 1
        pristine = FlowSimulator(net, mode="static").run(prog).total_time

        cable = _used_cable(fabric)
        engine = DfssspRouting()
        reports = []

        def on_event(events, phase_index):
            report = resweep(fabric, engine, events=events)
            reports.append(report)
            return report

        sim = FlowSimulator(
            net, mode="static",
            timeline=[FabricEvent("fail_cable", phase=1, cable=cable.id)],
            on_fabric_event=on_event,
            reroute=lambda m: tuple(fabric.path(m.src, m.dst)),
        )
        res = sim.run(prog)
        assert res.events_applied == 1
        assert reports and reports[0].paths_changed > 0
        assert reports[0].num_unreachable == 0
        assert res.total_time >= pristine

    def test_stale_run_without_resweep_raises(self, fabric):
        net = fabric.net
        job = Job(fabric, net.terminals[:8])
        prog = job.alltoall(1 * MIB)
        # Kill a switch cable a phase-1 message actually crosses.
        victim = next(
            m.path[1] for m in prog.phases[1].messages if len(m.path) >= 3
        )
        sim = FlowSimulator(
            net, mode="static",
            timeline=[FabricEvent("fail_cable", phase=1, cable=victim)],
        )
        with pytest.raises(SimulationError, match="stale"):
            sim.run(prog)

    def test_runspec_timeline_round_trips_and_runs(self):
        spec = RunSpec(
            combo_key="hx-dfsssp-linear",
            benchmark="imb:Alltoall:65536",
            num_nodes=8,
            reps=1,
            scale=2,
            fault_timeline=(
                FabricEvent("fail_cable", phase=1, cable=None, seed=3),
            ),
        )
        assert spec.cell_id.endswith("/evt1")
        back = RunSpec.from_dict(spec.to_dict())
        assert back.fault_timeline == spec.fault_timeline
        from repro.campaign.engine import resolve_measure

        measure, profile, hib = resolve_measure(back)
        result = run_capability(
            back, measure,
            rank_phases_for_profile=profile, higher_is_better=hib,
        )
        assert result.events_applied == 1
        assert result.unreachable_pairs == 0
        assert result.best > 0
