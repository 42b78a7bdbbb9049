"""Unit tests for the flow simulator engine."""

import pytest

from repro.core.units import GIB, MIB, QDR_LINK_BANDWIDTH
from repro.ib.subnet_manager import OpenSM
from repro.routing.dfsssp import DfssspRouting
from repro.sim.engine import FlowSimulator
from repro.sim.flows import Message, Phase, Program, merge_concurrent, program_bytes
from repro.sim.latency import QDR_LATENCY
from repro.topology.hyperx import hyperx


@pytest.fixture(scope="module")
def plane():
    net = hyperx((4, 4), 2)
    fabric = OpenSM(net).run(DfssspRouting())
    return net, fabric


def _msg(net, fabric, a, b, size):
    return Message(a, b, size, tuple(fabric.path(a, b)))


class TestSingleMessage:
    def test_serialisation_dominates_large(self, plane):
        net, fabric = plane
        a, b = net.terminals[0], net.terminals[-1]
        sim = FlowSimulator(net)
        r = sim.run_phase(Phase([_msg(net, fabric, a, b, 1 * GIB)]))
        expected = 1 * GIB / QDR_LINK_BANDWIDTH
        assert r.duration == pytest.approx(expected, rel=0.01)

    def test_latency_dominates_small(self, plane):
        net, fabric = plane
        a, b = net.terminals[0], net.terminals[-1]
        sim = FlowSimulator(net)
        r = sim.run_phase(Phase([_msg(net, fabric, a, b, 8)]))
        hops = net.path_hops(fabric.path(a, b))
        floor = QDR_LATENCY.constant_time(hops)
        assert floor < r.duration < floor * 1.5

    def test_zero_byte_is_pure_latency(self, plane):
        net, fabric = plane
        a, b = net.terminals[0], net.terminals[1]
        sim = FlowSimulator(net)
        r = sim.run_phase(Phase([_msg(net, fabric, a, b, 0)]))
        hops = net.path_hops(fabric.path(a, b))
        assert r.duration == pytest.approx(QDR_LATENCY.constant_time(hops))

    def test_overhead_added(self, plane):
        net, fabric = plane
        a, b = net.terminals[0], net.terminals[1]
        sim = FlowSimulator(net)
        m = _msg(net, fabric, a, b, 0)
        base = sim.run_phase(Phase([m])).duration
        m2 = Message(a, b, 0, m.path, overhead=5e-6)
        assert sim.run_phase(Phase([m2])).duration == pytest.approx(base + 5e-6)


class TestSharing:
    def test_two_flows_one_cable_halve(self, plane):
        net, fabric = plane
        s0 = net.attached_terminals(net.switches[0])
        s1 = net.attached_terminals(net.switches[1])
        sim = FlowSimulator(net)
        solo = sim.run_phase(
            Phase([_msg(net, fabric, s0[0], s1[0], 64 * MIB)])
        ).duration
        both = sim.run_phase(
            Phase([
                _msg(net, fabric, s0[0], s1[0], 64 * MIB),
                _msg(net, fabric, s0[1], s1[1], 64 * MIB),
            ])
        ).duration
        assert both == pytest.approx(2 * solo, rel=0.02)

    def test_dynamic_faster_or_equal_to_static(self, plane):
        """Static mode never re-allocates freed bandwidth, so it is a
        conservative bound on the dynamic result."""
        net, fabric = plane
        s0 = net.attached_terminals(net.switches[0])
        s1 = net.attached_terminals(net.switches[1])
        phase = Phase([
            _msg(net, fabric, s0[0], s1[0], 64 * MIB),
            _msg(net, fabric, s0[1], s1[1], 16 * MIB),
        ])
        dyn = FlowSimulator(net, mode="dynamic").run_phase(phase).duration
        sta = FlowSimulator(net, mode="static").run_phase(phase).duration
        assert dyn <= sta * (1 + 1e-9)

    def test_dynamic_reallocates_freed_bandwidth(self, plane):
        net, fabric = plane
        s0 = net.attached_terminals(net.switches[0])
        s1 = net.attached_terminals(net.switches[1])
        phase = Phase([
            _msg(net, fabric, s0[0], s1[0], 64 * MIB),
            _msg(net, fabric, s0[1], s1[1], 16 * MIB),
        ])
        sim = FlowSimulator(net, mode="dynamic")
        r = sim.run_phase(phase, collect_messages=True)
        big, small = r.message_times
        # Small flow finishes at half rate, then big accelerates:
        # 16M at 1.7G/s ~ 9.4ms; big: 16M at 1.7 + 48M at 3.4 ~ 23.5ms.
        assert small < big
        solo_big = 64 * MIB / QDR_LINK_BANDWIDTH
        assert big < solo_big * 1.5  # much better than 2x (static)


class TestPrograms:
    def test_phases_serialize(self, plane):
        net, fabric = plane
        a, b = net.terminals[0], net.terminals[-1]
        m = _msg(net, fabric, a, b, 4 * MIB)
        one = FlowSimulator(net).run(Program([Phase([m])])).total_time
        two = FlowSimulator(net).run(
            Program([Phase([m]), Phase([m])])
        ).total_time
        assert two == pytest.approx(2 * one, rel=1e-6)

    def test_compute_gap_added(self, plane):
        net, fabric = plane
        a, b = net.terminals[0], net.terminals[-1]
        m = _msg(net, fabric, a, b, 0)
        prog = Program([Phase([m]), Phase([m])], compute_between_phases=0.1)
        t = FlowSimulator(net).run(prog).total_time
        assert t == pytest.approx(0.1 + 2 * QDR_LATENCY.constant_time(2), rel=0.2)

    def test_program_bytes(self, plane):
        net, fabric = plane
        a, b = net.terminals[0], net.terminals[-1]
        prog = Program([
            Phase([_msg(net, fabric, a, b, 100)]),
            Phase([_msg(net, fabric, b, a, 50)]),
        ])
        assert program_bytes(prog) == 150

    def test_merge_concurrent(self, plane):
        net, fabric = plane
        a, b, c, d = net.terminals[:4]
        p1 = Program([Phase([_msg(net, fabric, a, b, 10)])])
        p2 = Program([
            Phase([_msg(net, fabric, c, d, 20)]),
            Phase([_msg(net, fabric, d, c, 30)]),
        ])
        merged = merge_concurrent([p1, p2])
        assert len(merged) == 2
        assert len(merged.phases[0]) == 2
        assert len(merged.phases[1]) == 1

    def test_empty_phase(self, plane):
        net, _ = plane
        r = FlowSimulator(net).run_phase(Phase([]))
        assert r.duration == 0.0

    def test_pair_bandwidths(self, plane):
        net, fabric = plane
        a, b = net.terminals[0], net.terminals[-1]
        sim = FlowSimulator(net)
        [(m, bw)] = sim.pair_bandwidths(Phase([_msg(net, fabric, a, b, 16 * MIB)]))
        assert 0.8 * QDR_LINK_BANDWIDTH < bw <= QDR_LINK_BANDWIDTH


class TestEventSafetyValve:
    """The dynamic solver's event cap must be *visible*, not silent.

    When ``_MAX_EVENTS_PER_PHASE`` rate recomputations are exhausted,
    stragglers finish at their current rates — an approximation the
    caller must be able to detect via ``events_truncated``.
    """

    def _uneven_phase(self, net, fabric):
        # Two different-size flows on one cable: the small one completes
        # first (event 1), the big one needs a second event.
        s0 = net.attached_terminals(net.switches[0])
        s1 = net.attached_terminals(net.switches[1])
        return Phase([
            _msg(net, fabric, s0[0], s1[0], 64 * MIB),
            _msg(net, fabric, s0[1], s1[1], 16 * MIB),
        ])

    def test_untruncated_run_reports_zero(self, plane):
        net, fabric = plane
        sim = FlowSimulator(net, mode="dynamic")
        pr = sim.run_phase(self._uneven_phase(net, fabric))
        assert pr.events_truncated == 0
        assert sim.run(
            Program([self._uneven_phase(net, fabric)])
        ).events_truncated == 0

    def test_valve_trip_counts_stragglers(self, plane, monkeypatch):
        net, fabric = plane
        monkeypatch.setattr("repro.sim.engine._MAX_EVENTS_PER_PHASE", 1)
        sim = FlowSimulator(net, mode="dynamic")
        pr = sim.run_phase(
            self._uneven_phase(net, fabric), collect_messages=True
        )
        # One event retires the 16 MiB flow; the 64 MiB flow is cut off
        # and finished at its current rate.
        assert pr.events_truncated == 1
        big, small = pr.message_times
        assert 0 < small < big and pr.duration >= big

    def test_simresult_sums_phase_truncations(self, plane, monkeypatch):
        net, fabric = plane
        monkeypatch.setattr("repro.sim.engine._MAX_EVENTS_PER_PHASE", 1)
        sim = FlowSimulator(net, mode="dynamic")
        prog = Program([
            self._uneven_phase(net, fabric),
            self._uneven_phase(net, fabric),
        ])
        result = sim.run(prog)
        assert [p.events_truncated for p in result.phases] == [1, 1]
        assert result.events_truncated == 2

    def test_simulator_accumulates_truncations_across_runs(
        self, plane, monkeypatch
    ):
        net, fabric = plane
        monkeypatch.setattr("repro.sim.engine._MAX_EVENTS_PER_PHASE", 1)
        sim = FlowSimulator(net, mode="dynamic")
        sim.run(Program([self._uneven_phase(net, fabric)]))
        sim.run_phase(self._uneven_phase(net, fabric))
        assert sim.events_truncated == 2
        assert FlowSimulator(net, mode="dynamic").events_truncated == 0
