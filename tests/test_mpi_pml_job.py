"""Unit tests for PML policies and the Job facade."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.units import BFO_PML_OVERHEAD, MIB
from repro.ib.addressing import quadrant_of_lid
from repro.ib import fabric as fabric_module
from repro.ib.subnet_manager import OpenSM
from repro.mpi.job import Job
from repro.mpi.pml import BfoPml, Ob1Pml, ParxBfoPml
from repro.routing.dfsssp import DfssspRouting
from repro.routing.minhop import MinHopRouting
from repro.routing.parx import (
    LARGE_LID_CHOICE,
    SMALL_LID_CHOICE,
    ParxRouting,
)
from repro.sim.flows import program_bytes
from repro.topology.hyperx import hyperx
from repro.topology.t2hx import t2hx_hyperx


@pytest.fixture(scope="module")
def parx_plane():
    net = hyperx((4, 4), 2)
    fabric = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())
    return net, fabric


@pytest.fixture(scope="module")
def plain_plane():
    net = hyperx((4, 4), 2)
    fabric = OpenSM(net, lmc=2).run(DfssspRouting())
    return net, fabric


class TestOb1:
    def test_always_base_lid(self, plain_plane):
        _, fabric = plain_plane
        pml = Ob1Pml()
        t = fabric.net.terminals
        for size in (1, 512, 1 * MIB):
            assert pml.lid_index(fabric, t[0], t[1], size) == 0

    def test_no_overhead(self):
        assert Ob1Pml().overhead == 0.0


class TestBfo:
    def test_round_robin_per_connection(self, plain_plane):
        _, fabric = plain_plane
        pml = BfoPml()
        t = fabric.net.terminals
        seq = [pml.lid_index(fabric, t[0], t[1], 1) for _ in range(6)]
        assert seq == [0, 1, 2, 3, 0, 1]

    def test_connections_independent(self, plain_plane):
        _, fabric = plain_plane
        pml = BfoPml()
        t = fabric.net.terminals
        pml.lid_index(fabric, t[0], t[1], 1)
        assert pml.lid_index(fabric, t[0], t[2], 1) == 0

    def test_reset(self, plain_plane):
        _, fabric = plain_plane
        pml = BfoPml()
        t = fabric.net.terminals
        pml.lid_index(fabric, t[0], t[1], 1)
        pml.reset()
        assert pml.lid_index(fabric, t[0], t[1], 1) == 0

    def test_overhead_is_bfo_penalty(self):
        assert BfoPml().overhead == BFO_PML_OVERHEAD


class TestParxBfo:
    def test_choices_follow_table1(self, parx_plane):
        net, fabric = parx_plane
        pml = ParxBfoPml(seed=0)
        for src in net.terminals[:8]:
            for dst in net.terminals[-8:]:
                if src == dst:
                    continue
                sq = quadrant_of_lid(fabric.lidmap.base[src])
                dq = quadrant_of_lid(fabric.lidmap.base[dst])
                small = pml.lid_index(fabric, src, dst, 8)
                large = pml.lid_index(fabric, src, dst, 1 * MIB)
                assert small in SMALL_LID_CHOICE[(sq, dq)]
                assert large in LARGE_LID_CHOICE[(sq, dq)]

    def test_threshold_boundary(self, parx_plane):
        """512 bytes is already 'large' (paper: threshold 512 B)."""
        net, fabric = parx_plane
        pml = ParxBfoPml(seed=0)
        src, dst = net.terminals[0], net.terminals[1]
        sq = quadrant_of_lid(fabric.lidmap.base[src])
        dq = quadrant_of_lid(fabric.lidmap.base[dst])
        assert pml.lid_index(fabric, src, dst, 512) in LARGE_LID_CHOICE[(sq, dq)]
        assert pml.lid_index(fabric, src, dst, 511) in SMALL_LID_CHOICE[(sq, dq)]

    def test_requires_lmc2(self, parx_plane):
        net, _ = parx_plane
        fabric_lmc0 = OpenSM(net).run(DfssspRouting())
        with pytest.raises(ConfigurationError):
            ParxBfoPml().lid_index(fabric_lmc0, net.terminals[0], net.terminals[1], 1)

    def test_deterministic_after_reset(self, parx_plane):
        net, fabric = parx_plane
        pml = ParxBfoPml(seed=3)
        t = net.terminals
        seq1 = [pml.lid_index(fabric, t[0], t[1], 1) for _ in range(10)]
        pml.reset()
        seq2 = [pml.lid_index(fabric, t[0], t[1], 1) for _ in range(10)]
        assert seq1 == seq2


class TestJob:
    def test_rank_mapping(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:4])
        assert job.num_ranks == 4
        assert job.node_of_rank(2) == net.terminals[2]

    def test_duplicate_nodes_rejected(self, plain_plane):
        net, fabric = plain_plane
        with pytest.raises(ConfigurationError):
            Job(fabric, [net.terminals[0]] * 2)

    def test_switch_as_node_rejected(self, plain_plane):
        net, fabric = plain_plane
        with pytest.raises(ConfigurationError):
            Job(fabric, [net.switches[0]])

    def test_materialize_skips_self_sends(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:2])
        prog = job.materialize([[(0, 0, 100.0), (0, 1, 50.0)]])
        assert len(prog.phases[0]) == 1
        assert program_bytes(prog) == 50.0

    def test_collective_facades_produce_programs(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:6])
        assert len(job.bcast(1024)) == 3
        assert len(job.barrier()) == 3
        assert len(job.alltoall(8)) == 5
        assert len(job.allgather(8)) == 3  # Bruck for small blocks
        assert len(job.allgather(1 * MIB)) == 5  # ring for large
        assert len(job.allreduce(8)) > 0
        assert len(job.reduce(8)) == 3
        assert len(job.gather(8)) > 0
        assert len(job.scatter(8)) > 0
        assert len(job.send(0, 1, 8)) == 1

    def test_allreduce_algorithm_dispatch(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:4])
        assert len(job.allreduce(8, algorithm="ring")) == 6
        with pytest.raises(ConfigurationError):
            job.allreduce(8, algorithm="nope")

    def test_gather_switches_to_linear_for_large(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:8])
        small = job.gather(1024)
        large = job.gather(1 * MIB)
        assert len(small) == 3  # binomial rounds
        assert len(large) == 1  # linear incast

    def test_path_cache_reused(self, plain_plane, monkeypatch):
        # Per-destination walks are memoised on the fabric: repeating a
        # collective, or materialising it in a fresh job, walks nothing.
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:4])
        first = job.alltoall(8)
        walks = []
        real_walk = fabric_module.walk_dest_links
        monkeypatch.setattr(
            fabric_module, "walk_dest_links",
            lambda *args: walks.append(args) or real_walk(*args),
        )
        again = job.alltoall(8)
        fresh = Job(fabric, net.terminals[:4]).alltoall(8)
        assert walks == []
        for a, b, c in zip(first.phases, again.phases, fresh.phases):
            assert a.batch.flat.tolist() == b.batch.flat.tolist()
            assert a.batch.flat.tolist() == c.batch.flat.tolist()

    def test_table_rewrite_reaches_materialized_paths(self):
        # A forwarding-table write keeps the topology version; the job
        # must still resolve against the new table.
        net = t2hx_hyperx(scale=4)  # 2x2 switches
        fabric = OpenSM(net).run(MinHopRouting())
        a = net.terminals[0]
        sw = net.attached_switch(a)
        # A destination two hops away: both of sw's neighbours are on
        # a minimal path to it.
        b = next(
            t for t in net.terminals
            if net.attached_switch(t) != sw
            and not net.links_between(sw, net.attached_switch(t))
        )
        dsw = net.attached_switch(b)
        dlid = fabric.lidmap.lid(b)
        job = Job(fabric, [a, b])
        old_path = tuple(fabric.path(a, b))
        assert job.send(0, 1, 8).phases[0].messages[0].path == old_path
        detour = next(
            link for link in net.out_links(sw)
            if net.is_switch(link.dst) and link.id != old_path[1]
            and net.link(fabric.out_link(link.dst, dlid)).dst == dsw
        )
        fabric.set_route(sw, dlid, detour.id)
        new_path = tuple(fabric.path(a, b))
        assert new_path[1] == detour.id
        assert job.send(0, 1, 8).phases[0].messages[0].path == new_path

    def test_messages_carry_pml_overhead(self, parx_plane):
        net, fabric = parx_plane
        job = Job(fabric, net.terminals[:4], pml=ParxBfoPml())
        prog = job.bcast(1024)
        for phase in prog:
            for m in phase:
                assert m.overhead == BFO_PML_OVERHEAD
