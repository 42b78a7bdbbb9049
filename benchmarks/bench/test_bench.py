"""Checks of the benchmark harness itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/bench -q
"""

from __future__ import annotations

import time

import pytest

import bench
import tracing
import workloads
from tracing import Span


def spans(*rows):
    """``(name, start, end, parent)`` rows as op-0 spans."""
    return [Span(name, start, end, parent, 0) for name, start, end, parent in rows]


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        got = tracing.self_times(spans(
            ("root", 0.0, 10.0, None),
            ("a", 1.0, 4.0, 0),
            ("a.x", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0),
        ))
        assert got == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_and_overhanging_children_count_their_union(self):
        got = tracing.self_times(spans(
            ("root", 0.0, 10.0, None),
            ("a", 1.0, 5.0, 0),
            ("b", 3.0, 7.0, 0),    # overlaps a: union is [1, 7]
            ("c", 9.0, 12.0, 0),   # clipped to the parent's end
        ))
        assert got[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_layer_metrics_split_self_time_and_unattributed(self):
        trace = spans(
            ("campaign.cell", 0.0, 6.0, None),
            ("job.materialize", 1.0, 4.0, 0),
            ("fabric.dest_paths", 2.0, 3.0, 1),
            ("ledger.append", 6.5, 7.0, None),
        )
        trace[1].attrs = {"messages": 100}
        ops = [{"wall": 8.0, "counters": {}}]
        got = tracing.layer_metrics(trace, ops)
        assert got["campaign.cell_s"] == pytest.approx(3.0)
        assert got["job.materialize_s"] == pytest.approx(2.0)
        assert got["fabric.dest_paths_s"] == pytest.approx(1.0)
        assert got["job.us_per_msg"] == pytest.approx(3e6 / 100)
        assert got["unattributed_s"] == pytest.approx(8.0 - 6.0 - 0.5)

    def test_setup_spans_are_not_op_spans(self):
        trace = spans(("cache.build", 0.0, 1.0, None))
        trace[0].op = "setup"
        got = tracing.layer_metrics(trace, [{"wall": 1.0, "counters": {}}])
        assert got["cache.build_s"] == 0.0


class TestTailPercentile:
    @pytest.mark.parametrize("n, want", [
        (9, None), (19, None), (20, 50), (40, 75), (66, 75), (67, 85),
        (75, 85), (100, 90), (199, 90), (200, 95), (1000, 99),
    ])
    def test_ten_samples_beyond(self, n, want):
        assert bench.tail_percentile(n) == want

    def test_percentile_interpolates_between_order_statistics(self):
        values = [4.0, 1.0, 3.0, 2.0, 5.0]
        assert bench.percentile(values, 50) == 3.0
        assert bench.percentile(values, 85) == pytest.approx(4.4)
        assert bench.percentile([7.0], 85) == 7.0


class TestCompareRule:
    def test_consistent_gain_is_better(self):
        a = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01]
        b = [x * 0.8 for x in a]
        assert bench.verdict(a, b, "lower", 0.1)[0] == "better"

    def test_small_drift_is_within_bound_and_large_is_worse(self):
        a = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01]
        assert bench.verdict(a, [x * 1.05 for x in a], "lower", 0.1)[0] \
            == "within bound"
        assert bench.verdict(a, [x * 1.2 for x in a], "lower", 0.1)[0] \
            == "worse"
        assert bench.verdict(a, [x * 0.8 for x in a], "higher", 0.1)[0] \
            == "worse"

    def test_spread_wider_than_bound_is_unresolved(self):
        a = [1.0, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
        b = [1.1, 1.2, 0.8, 1.4, 0.9, 1.3, 1.0, 1.2]
        assert bench.verdict(a, b, "lower", 0.1)[0] == "unresolved"

    def test_absolute_floor_covers_small_setups(self):
        a = [0.50, 0.51, 0.49, 0.50, 0.52, 0.50, 0.49, 0.51, 0.50, 0.50]
        b = [x + 0.08 for x in a]   # 16% worse, but under 0.1 s
        assert bench.verdict(a, b, "lower", 0.1)[0] == "worse"
        assert bench.verdict(a, b, "lower", 0.1, floor=0.1)[0] == "within bound"
        assert bench.verdict(a, [x + 0.12 for x in a], "lower", 0.1,
                             floor=0.1)[0] == "worse"

    def test_a_change_that_fails_more_ops_is_never_better(self, capsys):
        def result(failed, scale):
            samples = [scale * x for x in (1.0, 1.01, 0.99, 1.02, 1.0,
                                           0.98, 1.01, 1.0, 0.99, 1.01)]
            return {"workloads": {"w": {
                "attempted": 100, "failed": failed,
                "metrics": {"op_p50_s": {"samples": samples}},
            }}}

        assert bench.compare(result(0, 1.0), result(0, 0.8))
        assert "better" in capsys.readouterr().out
        assert not bench.compare(result(0, 1.0), result(3, 0.8))
        out = capsys.readouterr().out
        assert "not better: B fails more ops" in out


def _child(walls, problems=None):
    problems = problems or [None] * len(walls)
    return {"workload": "w", "peak_rss_mib": 100.0, "ops": [
        {"wall": w, "cal": bench.REFERENCE_S, "problem": p}
        for w, p in zip(walls, problems)
    ]}


class TestEndToEnd:
    def test_failed_ops_are_not_timed(self):
        got = bench.e2e_metrics(_child([1.0, 1.0, 1.0, 0.01],
                                       [None, None, None, "golden mismatch"]))
        assert got["op_p50_s"] == pytest.approx(1.0)
        assert got["ops_per_s"] == pytest.approx(1.0)

    def test_a_run_whose_ops_all_failed_has_no_times(self):
        with pytest.raises(RuntimeError, match="every op failed"):
            bench.e2e_metrics(_child([0.01], ["ValueError: boom"]))

    def test_p85_only_where_ten_samples_lie_beyond_it(self):
        assert "op_p85_s" not in bench.e2e_metrics(_child([1.0] * 66))
        assert "op_p85_s" in bench.e2e_metrics(_child([1.0] * 75))


def _sites_now():
    return {(id(s.owner), s.attr): s.owner.__dict__[s.attr]
            for s in tracing.layer_sites()}


class TestWrappers:
    def test_every_wrapper_is_restored_even_after_an_error(self):
        before = _sites_now()
        tracer = tracing.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.installed(tracing.layer_sites()):
                assert _sites_now() != before
                raise RuntimeError("boom")
        assert _sites_now() == before

    def test_classmethods_stay_classmethods(self):
        from repro.ib.fabric import Fabric

        tracer = tracing.Tracer()
        with tracer.installed(tracing.layer_sites()):
            assert isinstance(Fabric.__dict__["load"], classmethod)
        assert isinstance(Fabric.__dict__["load"], classmethod)


#: Each workload kind at t2hx scale 2 (168 nodes), one unit each.
SMALL = {
    "paper-grid": dict(scale=2, nodes=(56,)),
    "alltoall-672": dict(scale=2),
    "route-0.75": dict(scale=2),
    "fault-timeline": dict(scale=2, nodes=(56,)),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_one_small_unit_end_to_end(name, tmp_path):
    # Seed 5: golden.json pins seeds 0 and 1 at full size only.
    workload = workloads.WORKLOADS[name](5, tmp_path, **SMALL[name])
    before = _sites_now()
    out = bench.execute(workload, 1, time.monotonic(), trace=True)
    assert _sites_now() == before
    assert out["ops"] and all(op["problem"] is None for op in out["ops"])
    assert all(op["wall"] > 0 for op in out["ops"])
    layers = out["layers"]
    assert layers["unattributed_s"] >= 0
    if name == "alltoall-672":
        assert layers["job.materialize_s"] > 0
        assert layers["pool.parallel_sweeps"] == 0
    if name == "route-0.75":
        assert layers["job.materialize_s"] == 0
        assert layers["routing.sweep_s"] > 0
        assert layers["vl.layer_s"] > 0
    if name == "fault-timeline":
        assert layers["sm.resweeps"] > 0
        assert layers["whatif.audit_s"] > 0
        assert layers["cache.mmap_attaches"] > 0
    if name == "paper-grid":
        assert layers["campaign.cell_s"] > 0
        assert layers["cache.store_s"] > 0
        assert layers["cache.mmap_attaches"] == 0
