"""Equivalence suite for destination-batched sweeps and chunked passes.

The batched sweep kernel (:func:`repro.routing.arrays.tree_core_batch`)
relaxes a whole block of destination columns per numpy pass; the
sequential :func:`repro.routing.dijkstra.tree_to_destination` stays
alongside as the executable specification.  This module pins them
together three ways:

* hypothesis-fuzzed kernel equivalence on random weights and random
  link masks, column by column against the sequential tree;
* whole-fabric bit-equality (dense matrix, notes, lanes) of
  the batched sweep of every destination-tree engine against the
  per-destination reference sweep (:mod:`tests.reference_sweep`), in
  process and on a two-worker pool — full sweeps, fallbacks, and
  incremental re-sweeps after cable faults — plus the tables a re-sweep
  leaves behind when a destination is unreachable;
* frozen 672-node golden LFT digests per batched engine.

The chunked dense passes (destination-chunked table walkers, load
estimator and what-if incidence scan) are pinned byte-identical against
themselves under a one-item chunk size, and the narrowed forwarding
dtype's overflow refusal and cache-format bump are covered at the end.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.load import estimate_link_loads
from repro.analysis.whatif import audit_whatif
from repro.core.chunking import (
    chunk_bytes,
    get_chunk_bytes,
    items_per_chunk,
    set_chunk_bytes,
)
from repro.core.errors import RoutingError, UnreachableError
from repro.core.parallel import (
    column_floor,
    parallel_stats,
    reset_parallel_stats,
    shutdown_sweep_pool,
    sweep_workers,
)
from repro.ib.fabric import Fabric
from repro.ib.subnet_manager import OpenSM, resweep
from repro.ib.tables import table_dtype_for
from repro.routing import create_engine, engine_names
from repro.routing.arrays import UNREACHED_HOPS, tree_core_batch
from repro.routing.base import DestinationTreeEngine, destination_block_width
from repro.routing.dijkstra import tree_to_destination
from repro.topology.hyperx import hyperx
from repro.topology.t2hx import t2hx_hyperx
from repro.topology.torus import torus
from tests.reference_sweep import reference_engine

BATCHED_ENGINES = [
    n for n in engine_names()
    if isinstance(create_engine(n), DestinationTreeEngine)
]

#: Sweep widths the batched sweep is checked at: in process, and on a pool.
WIDTHS = (1, 2)


def _engine(name, reference):
    return reference_engine(name) if reference else create_engine(name)


def _sweep(name, *, reference=False, width=1, net=None, scale=2, seed=1):
    with sweep_workers(width), column_floor(1):
        if net is None:
            net = t2hx_hyperx(with_faults=True, seed=seed, scale=scale)
        return OpenSM(net).run(_engine(name, reference))


def _assert_fabrics_equal(fa, fb):
    assert np.array_equal(fa.tables.dense, fb.tables.dense)
    assert fa.notes == fb.notes
    assert fa.vl_of_dlid == fb.vl_of_dlid
    assert fa.num_vls == fb.num_vls
    assert fa.dump_lft() == fb.dump_lft()


class TestBatchKernelEquivalence:
    """tree_core_batch column-by-column against tree_to_destination."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_weights_and_masks(self, data):
        shape = data.draw(st.sampled_from([(3, 3), (4, 2), (2, 2, 2)]))
        net = hyperx(shape, 1) if len(shape) == 2 else torus(shape, 1)
        graph = net.switch_graph()
        num_links = len(net.links)
        weights = data.draw(st.lists(
            st.floats(0.0, 8.0, allow_nan=False, width=32),
            min_size=num_links, max_size=num_links,
        ))
        cables = [
            l.id for l in net.iter_links()
            if net.is_switch(l.src) and net.is_switch(l.dst)
        ]
        masked = frozenset(data.draw(st.lists(
            st.sampled_from(cables), max_size=3, unique=True,
        )))
        roots = list(range(graph.num_switches))
        view = graph.masked(masked) if masked else graph
        plid, hops = tree_core_batch(view, roots, weights)
        for c, root_u in enumerate(roots):
            dsw = graph.switches[root_u]
            parent, ref_hops = tree_to_destination(net, dsw, weights, masked)
            for u in range(graph.num_switches):
                sw = graph.switches[u]
                if u == root_u:
                    assert plid[u, c] == -1 and hops[u, c] == 0
                elif sw in parent:
                    assert plid[u, c] == parent[sw]
                    assert hops[u, c] == ref_hops[sw]
                else:
                    assert plid[u, c] == -1
                    assert hops[u, c] == UNREACHED_HOPS

    def test_per_column_weight_matrix(self):
        net = hyperx((3, 3), 1)
        graph = net.switch_graph()
        rng = np.random.default_rng(7)
        k = graph.num_switches
        wts = rng.uniform(0.0, 4.0, size=(len(net.links), k))
        roots = list(range(k))
        plid, hops = tree_core_batch(graph, roots, wts)
        for c, root_u in enumerate(roots):
            dsw = graph.switches[root_u]
            parent, ref_hops = tree_to_destination(
                net, dsw, wts[:, c].tolist()
            )
            for u in range(k):
                sw = graph.switches[u]
                if u == root_u:
                    continue
                assert plid[u, c] == parent.get(sw, -1)




class TestBatchedSweepEquality:
    """Whole-fabric bit-equality, batched sweep vs per-destination oracle."""

    @pytest.fixture(autouse=True)
    def _no_pool_left(self):
        yield
        shutdown_sweep_pool()

    @pytest.mark.parametrize("name", BATCHED_ENGINES)
    def test_full_sweep_matches_sequential(self, name):
        reference = _sweep(name, reference=True)
        for width in WIDTHS:
            _assert_fabrics_equal(_sweep(name, width=width), reference)

    def test_fatpaths_fallback_notes_match(self):
        # scale=4 collapses the plane to 4 switches, where every layer
        # mask disconnects something: the fallback path must fire and
        # note identically in both routes.
        reference = _sweep("fatpaths", reference=True, scale=4, seed=0)
        for width in WIDTHS:
            fab = _sweep("fatpaths", width=width, scale=4, seed=0)
            assert fab.notes and any("fallback" in n for n in fab.notes)
            _assert_fabrics_equal(fab, reference)

    @staticmethod
    def _resweep_after_fault(name, reference, width):
        with sweep_workers(width), column_floor(1):
            net = t2hx_hyperx(with_faults=True, seed=1, scale=2)
            fab = OpenSM(net).run(_engine(name, reference))
            cable = next(
                l for l in net.iter_links()
                if net.is_switch(l.src) and net.is_switch(l.dst)
            )
            net.disable_cable(cable.id)
            reset_parallel_stats()
            report = resweep(fab, _engine(name, reference))
            if width > 1 and not reference:
                # The re-sweep itself sharded, not just the cold sweep.
                assert parallel_stats()["parallel_sweeps"] >= 1
        return fab, report

    @pytest.mark.parametrize("name", BATCHED_ENGINES)
    def test_resweep_after_fault_matches_sequential(self, name):
        # The oracle re-routes the same stale LIDs one heap at a time.
        ref_fab, rb = self._resweep_after_fault(name, True, 1)
        for width in WIDTHS:
            fab, ra = self._resweep_after_fault(name, False, width)
            _assert_fabrics_equal(fab, ref_fab)
            assert ra.dests_affected == rb.dests_affected
            assert ra.entries_changed == rb.entries_changed
            assert ra.pairs_affected == rb.pairs_affected
            assert ra.paths_changed == rb.paths_changed
            assert ra.num_unreachable == rb.num_unreachable
            assert ra.dests_recomputed == rb.dests_recomputed
        # Both routes must have taken the incremental path: only the
        # stale destinations recomputed, not the whole LID space.
        total = len(ref_fab.lidmap.terminal_lids(ref_fab.net))
        assert 0 < rb.dests_recomputed == rb.dests_affected < total

    @pytest.mark.parametrize("name", BATCHED_ENGINES)
    def test_unreachable_resweep_leaves_same_tables_at_any_width(self, name):
        # Cut every cable of one switch, then re-sweep every LID with
        # one column per kernel block: the UnreachableError must leave
        # the same tables in process and on the pool.
        fabrics = []
        for width in WIDTHS:
            net = hyperx((3, 3), 2)
            fab = OpenSM(net).run(create_engine(name))
            victim = net.switches[4]
            for link in list(net.iter_links()):
                if link.enabled and link.src == victim and net.is_switch(
                    link.dst
                ):
                    net.disable_cable(link.id)
            dlids = fab.lidmap.terminal_lids(net)
            with sweep_workers(width), column_floor(1), chunk_bytes(1):
                with pytest.raises(UnreachableError):
                    create_engine(name).recompute_destinations(fab, dlids)
            fabrics.append(fab)
        fa, fb = fabrics
        assert np.array_equal(fa.tables.dense, fb.tables.dense)
        assert fa.notes == fb.notes




#: sha256 of ``Fabric.dump_lft()`` (and the lane count) on the faulted
#: 672-node plane for every batched engine: the batched kernel must
#: keep producing the exact sequential-era bytes.
GOLDEN_672 = {
    "minhop": (
        "c9f7a3a243c4eafd39a766f891aebff7219d93b8705b73032777b3248ccb598f", 2),
    "fthx": (
        "919c279de2f76d641e3226d7e5361ca4c6d306e6ce59ec8946a846cb6b46eb33", 4),
    "fatpaths": (
        "1e674b9e34288f31c19d86f95af4fdd576fa59675f1ba029862bef84df0d3c5a", 7),
}


class TestGolden672Digests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_672))
    def test_full_plane_lft_bytes_are_frozen(self, name):
        fab = _sweep(name, scale=1)
        digest = hashlib.sha256(fab.dump_lft().encode()).hexdigest()
        want_digest, want_vls = GOLDEN_672[name]
        assert digest == want_digest
        assert fab.num_vls == want_vls


class TestChunkedPasses:
    """One-destination chunks must reproduce default-chunk bytes."""

    def test_chunk_knob_roundtrip(self):
        base = get_chunk_bytes()
        prev = set_chunk_bytes(123)
        assert prev == base
        assert get_chunk_bytes() == 123
        assert items_per_chunk(40) == 3
        assert items_per_chunk(10**9) == 1  # never zero items
        set_chunk_bytes(base)

    def test_chunk_context_manager_restores(self):
        base = get_chunk_bytes()
        with chunk_bytes(123):
            assert get_chunk_bytes() == 123
            with chunk_bytes(456):
                assert get_chunk_bytes() == 456
            assert get_chunk_bytes() == 123
        assert get_chunk_bytes() == base

    def test_load_estimate_chunk_invariant(self):
        fab = _sweep("fthx")
        with chunk_bytes(1):  # one destination per chunk everywhere
            loads_tiny = estimate_link_loads(fab)
        with chunk_bytes(64 * 1024 * 1024):
            assert estimate_link_loads(fab) == loads_tiny

    def test_whatif_report_chunk_invariant(self):
        fab = _sweep("fthx")
        with chunk_bytes(1):
            tiny = json.loads(audit_whatif(fab, k2_samples=4, seed=9).to_json())
        with chunk_bytes(64 * 1024 * 1024):
            big = json.loads(audit_whatif(fab, k2_samples=4, seed=9).to_json())
        tiny["summary"]["elapsed_seconds"] = 0
        big["summary"]["elapsed_seconds"] = 0
        assert tiny == big

    def test_resolve_paths_chunk_invariant(self):
        fab = _sweep("fthx")
        with chunk_bytes(1):
            tiny = fab.resolve_paths()
        with chunk_bytes(64 * 1024 * 1024):
            big = fab.resolve_paths()
        for f in tiny.__dataclass_fields__:
            a, b = getattr(tiny, f), getattr(big, f)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f
            else:
                assert a == b, f

    def test_destination_blocks_honour_chunk_bytes(self):
        fab = _sweep("minhop", scale=4, seed=0)
        with chunk_bytes(1):
            assert destination_block_width(fab) == 1
            tiny = _sweep("minhop", scale=4, seed=0)
        assert destination_block_width(fab) > 1
        _assert_fabrics_equal(fab, tiny)


class TestNarrowDtype:
    def test_dtype_for_link_space(self):
        assert table_dtype_for(100) == np.int16
        assert table_dtype_for(np.iinfo(np.int16).max) == np.int16
        assert table_dtype_for(np.iinfo(np.int16).max + 1) == np.int32

    def test_small_fabric_tables_are_int16(self):
        fab = _sweep("minhop", scale=4, seed=0)
        assert fab.tables.dense.dtype == np.int16

    def test_scalar_overflow_is_refused(self):
        fab = _sweep("minhop", scale=4, seed=0)
        tables = fab.tables
        sw = fab.net.switches[0]
        dlid = int(tables.dlids[0])
        with pytest.raises(RoutingError, match="dtype"):
            tables[sw][dlid] = int(np.iinfo(np.int16).max) + 1

    def test_row_array_overflow_is_refused(self):
        fab = _sweep("minhop", scale=4, seed=0)
        tables = fab.tables
        row = np.full(len(tables.dlids), np.iinfo(np.int16).max + 1,
                      dtype=np.int64)
        with pytest.raises(RoutingError, match="dtype"):
            tables.install_row_array(fab.net.switches[0], row)


class TestFormatV4Cache:
    def test_sidecar_records_rows_dtype(self, tmp_path):
        fab = _sweep("minhop", scale=4, seed=0)
        path = tmp_path / "fab.json"
        fab.save(path, arrays=True)
        payload = json.loads(path.read_text())
        assert payload["tables"]["rows_dtype"] == "int16"
        clone = Fabric.load(fab.net, path)
        assert np.array_equal(clone.tables.dense, fab.tables.dense)
        assert clone.tables.dense.dtype == fab.tables.dense.dtype

    def test_stale_sidecar_dtype_is_refused(self, tmp_path):
        fab = _sweep("minhop", scale=4, seed=0)
        path = tmp_path / "fab.json"
        fab.save(path, arrays=True)
        payload = json.loads(path.read_text())
        sidecar = tmp_path / payload["tables"]["rows_file"]
        np.save(sidecar, np.load(sidecar).astype(np.int32))
        with pytest.raises(RoutingError, match="dtype"):
            Fabric.load(fab.net, path)
