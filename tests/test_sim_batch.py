"""Equivalence suite for flat-array message batches (repro.sim.batch).

The batched phase pipeline must be a pure representation change: a
phase simulated through its prebuilt :class:`MessageBatch` produces
*bit-identical* timings to the same phase flattened per message (the
pre-batch inline arrays).  This file pins that — at the array level
(``concat`` / ``replace_paths`` vs ``from_messages``), at the simulator
level (random programs, static and dynamic, with and without fabric
events), and on the paper's 672-node t2hx cell via golden durations.
``tests/test_materialize_reference.py`` diffs the job layer's batches
against the per-message reference materialiser.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.units import MIB
from repro.ib.subnet_manager import OpenSM
from repro.mpi.job import Job
from repro.routing.dfsssp import DfssspRouting
from repro.sim.batch import MessageBatch, flatten_paths
from repro.sim.engine import FlowSimulator
from repro.sim.flows import Message, Phase, Program
from repro.topology.faults import FabricEvent
from repro.topology.hyperx import hyperx
from repro.workloads.patterns import rank_phase_arrays


@pytest.fixture(scope="module")
def env():
    net = hyperx((3, 3), 2)
    fabric = OpenSM(net).run(DfssspRouting())
    return net, fabric


# --- the shared flattening kernel -------------------------------------------

paths_strategy = st.lists(
    st.lists(st.integers(0, 99), max_size=8), max_size=12
)


class TestFlattenPaths:
    @given(paths=paths_strategy)
    def test_csr_invariants(self, paths):
        lens, ptr, flat = flatten_paths(paths)
        assert len(lens) == len(paths) and len(ptr) == len(paths) + 1
        assert ptr[0] == 0 and ptr[-1] == flat.size == sum(map(len, paths))
        for i, p in enumerate(paths):
            assert flat[ptr[i]:ptr[i + 1]].tolist() == list(p)

    def test_empty(self):
        lens, ptr, flat = flatten_paths([])
        assert lens.size == 0 and ptr.tolist() == [0] and flat.size == 0


# --- batch construction ------------------------------------------------------

def _assert_same_arrays(got, ref):
    for name in ("sizes", "overheads", "src", "dst", "lens", "ptr", "flat"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.tolist() == b.tolist(), name
        assert a.dtype == b.dtype, name


def _messages_from(paths, sizes, overhead):
    return [
        Message(src=2 * i, dst=2 * i + 1, size=float(s), path=tuple(p),
                overhead=overhead)
        for i, (p, s) in enumerate(zip(paths, sizes))
    ]


class TestMessageBatch:
    @given(
        data=st.lists(
            st.tuples(
                st.lists(st.integers(0, 49), max_size=6),
                st.floats(0.0, 1e9),
            ),
            max_size=10,
        ),
        overhead=st.floats(0.0, 1e-3),
    )
    def test_concat_identical_to_from_messages(self, data, overhead):
        paths = [p for p, _ in data]
        sizes = [s for _, s in data]
        msgs = _messages_from(paths, sizes, overhead)
        ref = MessageBatch.from_messages(msgs)
        half = len(msgs) // 2
        for got in (
            MessageBatch.concat([
                MessageBatch.from_messages(msgs[:half]),
                MessageBatch.from_messages(msgs[half:]),
            ]),
            MessageBatch.concat([ref]),
        ):
            _assert_same_arrays(got, ref)

    @given(
        data=st.lists(
            st.tuples(
                st.lists(st.integers(0, 49), max_size=6),
                st.lists(st.integers(0, 49), max_size=6),
                st.booleans(),
            ),
            max_size=10,
        ),
    )
    def test_replace_paths_identical_to_from_messages(self, data):
        old = [p for p, _, _ in data]
        new = [q if swap else p for p, q, swap in data]
        sizes = [float(i) for i in range(len(data))]
        got = MessageBatch.from_messages(_messages_from(old, sizes, 0.0))
        got = got.replace_paths(
            {i: tuple(q) for i, (_, q, swap) in enumerate(data) if swap}
        )
        ref = MessageBatch.from_messages(_messages_from(new, sizes, 0.0))
        _assert_same_arrays(got, ref)

    @given(
        data=st.lists(
            st.tuples(
                st.lists(st.integers(0, 19), max_size=5),
                st.floats(0.0, 1e6),
            ),
            max_size=8,
        )
    )
    def test_bytes_per_link_matches_python_loop(self, data):
        msgs = _messages_from([p for p, _ in data], [s for _, s in data], 0.0)
        batch = MessageBatch.from_messages(msgs)
        ref = np.zeros(20)
        for m in msgs:  # the accounting's old triple-nested loop
            for lid in m.path:
                ref[lid] += m.size
        assert np.array_equal(batch.bytes_per_link(20), ref)


class TestPhaseBatchStaleness:
    def test_attached_batch_is_used_while_counts_match(self):
        # The batch is the phase: its messages are read back from it.
        b = MessageBatch.from_messages([Message(0, 1, 1.0, (5,))])
        phase = Phase(batch=b, tag="t")
        assert phase.batch is b and len(phase.messages) == 1
        assert list(phase.messages) == [Message(0, 1, 1.0, (5,), 0.0, "t")]
        # Giving the phase a new batch changes its messages with it.
        phase.batch = MessageBatch.from_messages([Message(1, 0, 2.0, (6, 7))])
        assert phase.messages[0].path == (6, 7) and len(phase) == 1

    def test_append_to_messages_is_refused(self):
        phase = Phase(messages=[Message(0, 1, 1.0, (5,))])
        with pytest.raises(AttributeError):
            phase.messages.append(Message(1, 0, 2.0, (6,)))
        with pytest.raises((AttributeError, ValueError)):
            phase.batch.flat[0] = 6
        assert phase.batch.n == 1 and phase.batch.flat.tolist() == [5]

    def test_hand_built_phase_keeps_per_message_tags(self):
        msgs = [Message(0, 1, 1.0, (5,), tag="a"), Message(1, 0, 1.0, (6,), tag="b")]
        assert list(Phase(msgs).messages) == msgs

    def test_in_place_edit_of_hand_built_phase_is_refused(self, env):
        # Editing a message while keeping the count must not leave the
        # simulator running the batch of the unedited phase.
        net, fabric = env
        a, b = net.terminals[0], net.terminals[-1]
        path = tuple(fabric.path(a, b))
        phase = Phase(messages=[Message(a, b, 1.0 * MIB, path)])
        phase.batch = MessageBatch.from_messages(list(phase.messages))
        sim = FlowSimulator(net, mode="static")
        before = sim.run_phase(phase).duration
        with pytest.raises((AttributeError, TypeError)):
            phase.messages[0].size = 4.0 * MIB
        with pytest.raises((AttributeError, TypeError)):
            phase.messages[0] = Message(a, b, 1.0 * MIB, path[:1] + path)
        assert sim.run_phase(phase).duration == before

    def test_in_place_edit_of_materialized_phase_is_refused(self, env):
        net, fabric = env
        job = Job(fabric, net.terminals[:2])
        phase = job.send(0, 1, 1.0 * MIB).phases[0]
        before = FlowSimulator(net, mode="static").run_phase(phase).duration
        with pytest.raises((AttributeError, TypeError)):
            phase.messages[0].size = 4.0 * MIB
        assert FlowSimulator(net, mode="static").run_phase(phase).duration == before


# --- simulator-level equivalence ---------------------------------------------

def _strip_batches(program):
    """``program`` with every phase rebuilt from its ``Message`` objects:
    the per-message flattening the batched pipeline must match."""
    return Program(
        [Phase(list(p.messages), label=p.label) for p in program.phases],
        label=program.label,
        compute_between_phases=program.compute_between_phases,
    )


def _phase_fingerprint(result):
    return [
        (p.duration, p.transfer_time, p.bytes_moved, p.message_times)
        for p in result.phases
    ]


class TestBatchedRunEquivalence:
    """Batched vs per-message ``run_phase`` on the same programs."""

    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7),
                      st.integers(1, 4 * 1024 * 1024)),
            min_size=1, max_size=20,
        ),
        mode=st.sampled_from(["static", "dynamic"]),
    )
    def test_random_programs_bit_identical(self, env, pairs, mode):
        net, fabric = env
        job = Job(fabric, net.terminals[:8])
        rank_phase = [(a, b, float(s)) for a, b, s in pairs if a != b]
        prog = job.materialize([rank_phase], label="fuzz")
        assert all(p.batch is not None for p in prog.phases)

        batched = FlowSimulator(net, mode=mode).run(
            prog, collect_messages=True
        )
        stripped = FlowSimulator(net, mode=mode).run(
            _strip_batches(prog), collect_messages=True
        )
        assert batched.total_time == stripped.total_time
        assert _phase_fingerprint(batched) == _phase_fingerprint(stripped)

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_multi_phase_collective_bit_identical(self, env, mode):
        net, fabric = env
        job = Job(fabric, net.terminals[:8])
        prog = job.allreduce(1 * MIB, algorithm="ring")
        batched = FlowSimulator(net, mode=mode).run(prog)
        stripped = FlowSimulator(net, mode=mode).run(_strip_batches(prog))
        assert batched.total_time == stripped.total_time
        assert _phase_fingerprint(batched) == _phase_fingerprint(stripped)

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_with_fault_timeline_bit_identical(self, mode):
        # A degrade is persistent fabric state, so each run gets its own
        # freshly routed plane; equivalence is judged run-for-run.
        def one_run(strip):
            net = hyperx((3, 3), 2)
            fabric = OpenSM(net).run(DfssspRouting())
            job = Job(fabric, net.terminals[:6])
            prog = job.allgather(2 * MIB, algorithm="ring")
            if strip:
                prog = _strip_batches(prog)
            cable = prog.phases[1].messages[0].path[1]
            events = [
                FabricEvent("degrade_cable", phase=2, cable=cable,
                            capacity_factor=0.25),
            ]
            return FlowSimulator(net, mode=mode, timeline=events).run(prog)

        batched = one_run(strip=False)
        stripped = one_run(strip=True)
        assert batched.events_applied == stripped.events_applied == 1
        assert batched.total_time == stripped.total_time
        assert _phase_fingerprint(batched) == _phase_fingerprint(stripped)

    def test_utilisation_identical_batched_vs_not(self, env):
        net, fabric = env
        job = Job(fabric, net.terminals[:8])
        prog = job.alltoall(1 * MIB)
        sim = FlowSimulator(net, mode="static")
        batched = sim.link_utilization(prog)
        stripped = sim.link_utilization(_strip_batches(prog))
        assert batched == stripped

    def test_rank_phase_arrays_mirror_materialized_batch(self, env):
        # The rank-space arrays line up with the node-space batch through
        # the job's rank->node mapping (no self-sends in this pattern).
        net, fabric = env
        nodes = net.terminals[:8]
        job = Job(fabric, nodes)
        rank_phase = [(i, (i + 1) % 8, 1024.0 * (i + 1)) for i in range(8)]
        src_r, dst_r, sizes = rank_phase_arrays(rank_phase)
        batch = job.materialize([rank_phase]).phases[0].batch
        node_arr = np.asarray(nodes)
        assert batch.src.tolist() == node_arr[src_r].tolist()
        assert batch.dst.tolist() == node_arr[dst_r].tolist()
        assert batch.sizes.tolist() == sizes.tolist()


class TestGolden672:
    """Pinned durations on the paper's 672-node t2hx HyperX plane."""

    def test_golden_alltoall_durations(self):
        from repro.topology.t2hx import t2hx_hyperx

        net = t2hx_hyperx()
        fabric = OpenSM(net).run(DfssspRouting())
        assert net.num_terminals == 672
        job = Job(fabric, net.terminals[:64])
        prog = job.alltoall(1 * MIB)
        static = FlowSimulator(net, mode="static").run(prog)
        dynamic = FlowSimulator(net, mode="dynamic").run(prog)
        # Golden values recorded from the pre-batch per-message pipeline;
        # the batched run must reproduce them to the last ulp.
        assert static.total_time == pytest.approx(
            0.09664535294117646, rel=1e-12
        )
        assert static.transfer_time == pytest.approx(
            0.09650735294117649, rel=1e-12
        )
        assert dynamic.total_time == pytest.approx(
            0.09664535294117646, rel=1e-12
        )
        assert dynamic.transfer_time == pytest.approx(
            0.09650735294117649, rel=1e-12
        )
