"""The array-shaped ``Job.materialize`` against its per-message reference.

Every batch array must match :func:`tests.reference_materialize.
reference_materialize` value for value and dtype for dtype, with the
PML left in the same state (bfo counters, PARX random draws); a pair the
bulk walk refuses must raise the reference's error.  A guard run checks
that materialising and simulating a program builds no
:class:`~repro.sim.flows.Message` beyond the messages a cable failure
hands to the reroute callback.
"""

import copy

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.core.rng import make_rng
from repro.core.units import MIB
from repro.experiments import configs
from repro.ib.subnet_manager import OpenSM, resweep
from repro.mpi import collectives as coll
from repro.mpi.job import Job
from repro.mpi.pml import BfoPml, Ob1Pml, ParxBfoPml
from repro.routing.dfsssp import DfssspRouting
from repro.routing.parx import ParxRouting
from repro.sim import flows
from repro.sim.engine import FlowSimulator
from repro.topology.faults import FabricEvent
from repro.topology.t2hx import t2hx_hyperx
from tests.reference_materialize import reference_materialize

ARRAYS = ("sizes", "overheads", "src", "dst", "lens", "ptr", "flat")


def assert_programs_identical(got, ref):
    assert got.label == ref.label
    assert got.compute_between_phases == ref.compute_between_phases
    assert len(got.phases) == len(ref.phases)
    for g, r in zip(got.phases, ref.phases):
        assert (g.label, g.tag) == (r.label, r.tag)
        for name in ARRAYS:
            a, b = getattr(g.batch, name), getattr(r.batch, name)
            assert a.dtype == b.dtype, (g.label, name)
            assert np.array_equal(a, b), (g.label, name)


def _mixed_phases(p, seed):
    """Collective rounds plus random traffic with self-sends and sizes on
    both sides of PARX's 512-byte threshold, repeated so bfo's
    per-connection counters wrap."""
    rng = make_rng(seed)
    phases = coll.pairwise_alltoall(p, 4096.0)[:5]
    phases += coll.rabenseifner_allreduce(p, 1 * MIB)
    phases += coll.binomial_bcast(p, 100.0, root=3)
    phases += coll.dissemination_barrier(p)
    for _ in range(6):
        src = rng.integers(0, p, size=3 * p)
        dst = rng.integers(0, p, size=3 * p)
        size = rng.choice([0.0, 64.0, 511.0, 512.0, 1.0 * MIB], size=3 * p)
        phases.append(list(zip(src.tolist(), dst.tolist(), size.tolist())))
    phases.append([(i, i, 8.0) for i in range(p)])  # only self-sends
    phases.append([])
    return phases


@pytest.fixture(scope="module")
def faulted_plane():
    net = t2hx_hyperx(scale=2, with_faults=True, seed=0)
    return OpenSM(net, lmc=2).run(DfssspRouting())


@pytest.fixture(scope="module")
def faulted_parx_plane():
    net = t2hx_hyperx(scale=2, with_faults=True, seed=0)
    return OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())


class TestAgainstReference:
    @pytest.mark.parametrize("make_pml", [Ob1Pml, BfoPml], ids=["ob1", "bfo"])
    def test_pmls_on_faulted_plane(self, faulted_plane, make_pml):
        self._diff(faulted_plane, make_pml)

    def test_parx_bfo_on_faulted_plane(self, faulted_parx_plane):
        self._diff(faulted_parx_plane, lambda: ParxBfoPml(seed=7))

    @staticmethod
    def _diff(fabric, make_pml):
        nodes = make_rng(3).permutation(fabric.net.terminals)[:40].tolist()
        rank_phases = _mixed_phases(len(nodes), seed=5)
        got_job = Job(fabric, nodes, pml=make_pml())
        ref_job = Job(fabric, nodes, pml=make_pml())
        for label in ("mixed", ""):
            got = got_job.materialize(rank_phases, label=label,
                                      compute_between_phases=0.5)
            ref = reference_materialize(ref_job, rank_phases, label=label,
                                        compute_between_phases=0.5)
            assert_programs_identical(got, ref)
        assert vars_of(got_job.pml) == vars_of(ref_job.pml)

    def test_fresh_672_rank_alltoall(self):
        combo = configs.get_combination("hx-dfsssp-random")
        fabric = configs.build_fabric(combo, scale=1, with_faults=True, seed=0)
        job = configs.make_job(combo, fabric, fabric.net.num_terminals, seed=0)
        rank_phases = coll.pairwise_alltoall(job.num_ranks, 1 * MIB)
        got = job.materialize(rank_phases, label="alltoall")
        assert sum(len(p) for p in got.phases) == 671 * 672
        assert_programs_identical(
            got, reference_materialize(job, rank_phases, label="alltoall")
        )

    def test_empty_program(self, faulted_plane):
        job = Job(faulted_plane, faulted_plane.net.terminals[:4])
        assert_programs_identical(
            job.materialize([]), reference_materialize(job, [])
        )


def vars_of(pml):
    """Comparable PML state: bfo counters, PARX generator state."""
    state = dict(vars(pml))
    if "_rng" in state:
        state["_rng"] = state["_rng"].bit_generator.state
    return state


class TestRefusedPairs:
    """A pair the bulk walk refuses raises the per-pair diagnostic."""

    @staticmethod
    def _first_hop(fabric, a, b):
        path = fabric.path(a, b)
        return fabric.net.link(path[0]).dst, fabric.net.link(path[1]).dst

    def _assert_same_error(self, fabric, nodes):
        rank_phases = [[(0, 1, 1.0 * MIB), (1, 0, 1.0 * MIB)]]
        with pytest.raises(ReproError) as ref:
            reference_materialize(Job(fabric, nodes), rank_phases)
        with pytest.raises(type(ref.value)) as got:
            Job(fabric, nodes).materialize(rank_phases)
        assert str(got.value) == str(ref.value)
        assert type(got.value) is type(ref.value)

    def test_missing_entry(self, faulted_plane):
        fabric = copy.deepcopy(faulted_plane)
        a, b = fabric.net.terminals[0], fabric.net.terminals[-1]
        _, nxt = self._first_hop(fabric, a, b)
        del fabric.tables[nxt][fabric.lidmap.lid(b)]
        self._assert_same_error(fabric, [a, b])

    def test_forwarding_loop(self, faulted_plane):
        fabric = copy.deepcopy(faulted_plane)
        a, b = fabric.net.terminals[0], fabric.net.terminals[-1]
        sw, nxt = self._first_hop(fabric, a, b)
        back = fabric.net.links_between(nxt, sw)[0]
        fabric.set_route(nxt, fabric.lidmap.lid(b), back.id)
        self._assert_same_error(fabric, [a, b])


class TestNoMessageObjects:
    """Materialise and simulate a 56-rank Alltoall with ``Message``
    construction made to raise beyond a budget."""

    @pytest.fixture()
    def guard(self, monkeypatch):
        real_init = flows.Message.__init__
        budget = {"allowed": 0, "built": 0}

        def guarded_init(self, *args, **kwargs):
            budget["built"] += 1
            if budget["built"] > budget["allowed"]:
                raise AssertionError("a Message was constructed")
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(flows.Message, "__init__", guarded_init)
        return budget

    @pytest.fixture()
    def plane(self):
        net = t2hx_hyperx(scale=2)
        return OpenSM(net).run(DfssspRouting())

    def test_static_run(self, plane, guard):
        job = Job(plane, plane.net.terminals[:56])
        prog = job.alltoall(1 * MIB)
        res = FlowSimulator(plane.net, mode="static").run(prog)
        assert res.total_time > 0 and guard["built"] == 0

    def test_dynamic_run_with_cable_failure(self, plane, guard):
        net = plane.net
        job = Job(plane, net.terminals[:56])
        prog = job.alltoall(1 * MIB)
        first = prog.phases[1].batch
        i = int(np.flatnonzero(first.lens > 2)[0])  # leaves its switch
        cable = net.link(int(first.flat[first.ptr[i] + 1]))
        assert net.is_switch(cable.src) and net.is_switch(cable.dst)
        dead = np.zeros(len(net.links), dtype=bool)
        dead[[cable.id, cable.reverse_id]] = True
        # Exactly the messages crossing the cable from phase 1 on are
        # handed to the reroute callback: one Message each.
        crossing = sum(
            int(np.count_nonzero(
                np.add.reduceat(dead[p.batch.flat], p.batch.ptr[:-1])
            ))
            for p in prog.phases[1:]
        )
        assert crossing > 0
        guard["allowed"] = crossing
        engine = DfssspRouting()
        sim = FlowSimulator(
            net, mode="dynamic",
            timeline=[FabricEvent("fail_cable", phase=1, cable=cable.id)],
            on_fabric_event=lambda events, i: resweep(plane, engine, events=events),
            reroute=lambda m: tuple(plane.path(m.src, m.dst)),
        )
        res = sim.run(prog)
        assert res.events_applied == 1
        assert res.messages_rerouted == crossing == guard["built"]
