"""The static link-load estimator: dense kernel == reference walk.

:func:`~repro.analysis.load.estimate_link_loads` runs the frontier-wave
numpy kernel over the dense matrix (shared with the what-if verifier
via :func:`repro.routing.arrays.accumulate_column_loads`); the per-entry
Kahn walk :func:`tests.reference_oracles.reference_link_loads` is its
specification.  They must agree to the integer on every fabric,
including degraded ones with stale entries over dead cables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.load import estimate_link_loads, load_summary
from repro.core.rng import make_rng
from repro.ib.subnet_manager import OpenSM
from repro.routing import DfssspRouting, MinHopRouting
from repro.topology.hyperx import hyperx
from repro.topology.t2hx import t2hx_hyperx
from tests.reference_oracles import reference_link_loads


def _small_fabric(dims, terminals, engine_cls):
    net = hyperx(dims, terminals)
    return net, OpenSM(net).run(engine_cls())


class TestDenseMatchesReference:
    @settings(max_examples=20, deadline=None)
    @given(
        a=st.integers(2, 3),
        b=st.integers(2, 3),
        terminals=st.integers(1, 3),
        engine_cls=st.sampled_from([MinHopRouting, DfssspRouting]),
    )
    def test_agrees_on_random_small_fabrics(self, a, b, terminals, engine_cls):
        net, fabric = _small_fabric((a, b), terminals, engine_cls)
        dlids = fabric.lidmap.terminal_lids(net)
        dense = estimate_link_loads(fabric)
        reference = reference_link_loads(fabric, dlids)
        assert dense == reference

    @settings(max_examples=15, deadline=None)
    @given(
        terminals=st.integers(1, 2),
        kills=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    def test_agrees_with_stale_entries_over_dead_cables(
        self, terminals, kills, seed
    ):
        """Disable cables *after* routing: both implementations must
        skip the dead hops identically (no re-sweep happens here)."""
        net, fabric = _small_fabric((3, 3), terminals, MinHopRouting)
        rng = make_rng(seed)
        cables = net.switch_cables()
        for idx in rng.choice(len(cables), size=kills, replace=False):
            net.disable_cable(cables[int(idx)].id)
        dlids = fabric.lidmap.terminal_lids(net)
        dense = estimate_link_loads(fabric)
        reference = reference_link_loads(fabric, dlids)
        assert dense == reference

    def test_agrees_with_masked_entries(self):
        """Missing forwarding entries (black holes) drop identically."""
        net, fabric = _small_fabric((3, 2), 2, MinHopRouting)
        tables = fabric.tables
        dlids = fabric.lidmap.terminal_lids(net)
        # Knock out a couple of entries straight in the dense matrix.
        tables.dense[0, 0] = -1
        tables.dense[2, tables.dense.shape[1] - 1] = -1
        dense = estimate_link_loads(fabric)
        reference = reference_link_loads(fabric, dlids)
        assert dense == reference


class TestPinnedGolden:
    def test_t2hx_scale2_dfsssp_summary(self):
        """Pinned against the first shipped implementation: any change
        to these integers is a routing or estimator regression."""
        net = t2hx_hyperx(scale=2)
        fabric = OpenSM(net).run(DfssspRouting())
        loads = estimate_link_loads(fabric)
        assert len(loads) == 192
        assert sum(loads.values()) == 44688
        summary = load_summary(fabric, loads)
        assert summary["mean"] == 232.75
        assert summary["max"] == 385
        assert summary["imbalance"] == 1.65
