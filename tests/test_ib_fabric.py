"""Unit tests for the Fabric forwarding model."""

import pytest

from repro.core.errors import RoutingError, UnreachableError
from repro.ib.addressing import assign_lids_sequential
from repro.ib.fabric import Fabric
from repro.ib.subnet_manager import OpenSM
from repro.routing.minhop import MinHopRouting
from repro.topology.hyperx import hyperx


@pytest.fixture
def routed():
    net = hyperx((3, 3), 2)
    fabric = OpenSM(net).run(MinHopRouting())
    return net, fabric


@pytest.fixture
def blank():
    net = hyperx((3,), 1)
    return net, Fabric(net, assign_lids_sequential(net))


class TestTableInstallation:
    def test_set_route_validates_link_origin(self, blank):
        net, fabric = blank
        foreign = net.out_links(net.switches[1])[0]
        with pytest.raises(RoutingError):
            fabric.set_route(net.switches[0], 1, foreign.id)

    def test_refused_dlid_leaves_tables_untouched(self):
        # A write refused for its DLID must not mark the switch present.
        net = hyperx((2, 2), 1)
        fabric = Fabric(net, assign_lids_sequential(net))
        sw = net.switches[0]
        link = net.out_links(sw)[0]
        before = list(fabric.tables)
        rows_before = fabric.to_payload(rows_file="x.npy")["tables"]["row_switches"]
        with pytest.raises(RoutingError, match="not in the fabric's LID map"):
            fabric.set_route(sw, 99999, link.id)
        assert list(fabric.tables) == before == []
        assert (
            fabric.to_payload(rows_file="x.npy")["tables"]["row_switches"]
            == rows_before
        )

    def test_terminal_hops_installed(self, blank):
        net, fabric = blank
        fabric.install_terminal_hops()
        for t in net.terminals:
            sw = net.attached_switch(t)
            for dlid in fabric.lidmap.lids_of(t):
                out = fabric.out_link(sw, dlid)
                assert net.link(out).dst == t

    def test_missing_route_raises_unreachable(self, blank):
        net, fabric = blank
        with pytest.raises(UnreachableError):
            fabric.out_link(net.switches[0], 9999)


class TestResolve:
    def test_self_send_is_empty(self, routed):
        net, fabric = routed
        t = net.terminals[0]
        assert fabric.resolve(t, fabric.lidmap.base[t]) == []

    def test_path_endpoints(self, routed):
        net, fabric = routed
        a, b = net.terminals[0], net.terminals[-1]
        path = fabric.path(a, b)
        nodes = net.path_nodes(path)
        assert nodes[0] == a and nodes[-1] == b

    def test_same_switch_two_hops(self, routed):
        net, fabric = routed
        t0, t1 = net.attached_terminals(net.switches[0])[:2]
        path = fabric.path(t0, t1)
        assert net.path_hops(path) == 0
        assert len(path) == 2  # up then down

    def test_hops_within_diameter(self, routed):
        net, fabric = routed
        for a in net.terminals[:4]:
            for b in net.terminals[-4:]:
                if a != b:
                    assert fabric.hops(a, b) <= 2

    def test_forwarding_loop_detected(self, blank):
        net, fabric = blank
        fabric.install_terminal_hops()
        s = net.switches
        dlid = fabric.lidmap.base[net.terminals[2]]
        # s0 -> s1 -> s0 ping-pong for a destination at s2.
        fabric.set_route(s[0], dlid, net.links_between(s[0], s[1])[0].id)
        fabric.set_route(s[1], dlid, net.links_between(s[1], s[0])[0].id)
        with pytest.raises(RoutingError, match="loop"):
            fabric.resolve(net.terminals[0], dlid)

    def test_disabled_link_in_route_detected(self, routed):
        net, fabric = routed
        a, b = net.terminals[0], net.terminals[-1]
        path = fabric.path(a, b)
        switch_hop = next(
            l for l in path
            if net.is_switch(net.link(l).src) and net.is_switch(net.link(l).dst)
        )
        net.disable_cable(switch_hop)
        with pytest.raises(UnreachableError):
            fabric.path(a, b)
        net.enable_cable(switch_hop)


class TestVl:
    def test_default_vl_zero(self, routed):
        _, fabric = routed
        assert fabric.vl(list(fabric.lidmap.owner)[0]) >= 0

    def test_iter_dest_paths_covers_sources(self, routed):
        net, fabric = routed
        dlid = fabric.lidmap.base[net.terminals[0]]
        pairs = list(fabric.iter_dest_paths(dlid))
        assert len(pairs) == net.num_terminals - 1
