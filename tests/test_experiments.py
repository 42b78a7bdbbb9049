"""Integration tests for the experiment harness."""

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments import (
    BASELINE,
    THE_FIVE,
    RunSpec,
    build_fabric,
    get_combination,
    make_job,
    make_pml,
    relative_gain,
    run_capability,
    run_capacity,
    whisker_stats,
)
from repro.experiments.capacity import CAPACITY_APPS
from repro.mpi.pml import Ob1Pml, ParxBfoPml
from repro.workloads.proxyapps import PROXY_APPS


class TestCombinations:
    def test_exactly_the_papers_five(self):
        labels = [c.label for c in THE_FIVE]
        assert labels == [
            "Fat-Tree / ftree / linear",
            "Fat-Tree / SSSP / clustered",
            "HyperX / DFSSSP / linear",
            "HyperX / DFSSSP / random",
            "HyperX / PARX / clustered",
        ]

    def test_baseline_is_first(self):
        assert BASELINE.key == "ft-ftree-linear"

    def test_lookup(self):
        assert get_combination("hx-parx-clustered").uses_parx
        with pytest.raises(ConfigurationError):
            get_combination("hx-dal-magic")

    def test_pml_selection(self):
        assert isinstance(make_pml(BASELINE), Ob1Pml)
        assert isinstance(make_pml(get_combination("hx-parx-clustered")), ParxBfoPml)


class TestBuildFabric:
    @pytest.mark.parametrize("combo", THE_FIVE, ids=lambda c: c.key)
    def test_all_five_route_cleanly(self, combo):
        fabric = build_fabric(combo, scale=2, with_faults=True)
        from repro.routing.validate import audit_fabric

        audit = audit_fabric(fabric, sample_pairs=400)
        assert audit.unreachable == 0
        assert audit.loops == 0

    def test_cache_hit_returns_same_object(self):
        a = build_fabric(BASELINE, scale=2)
        b = build_fabric(BASELINE, scale=2)
        assert a is b

    def test_parx_with_demands_not_cached(self):
        combo = get_combination("hx-parx-clustered")
        t = build_fabric(combo, scale=2).net.terminals
        a = build_fabric(combo, scale=2, demands={t[0]: {t[1]: 255}})
        b = build_fabric(combo, scale=2, demands={t[0]: {t[1]: 255}})
        assert a is not b

    def test_make_job_applies_placement(self):
        fabric = build_fabric(BASELINE, scale=2)
        job = make_job(BASELINE, fabric, 8, seed=0)
        assert job.nodes == fabric.net.terminals[:8]  # linear
        combo = get_combination("hx-dfsssp-random")
        fabric2 = build_fabric(combo, scale=2)
        job2 = make_job(combo, fabric2, 8, seed=0)
        assert job2.nodes != fabric2.net.terminals[:8]


class TestMetrics:
    def test_gain_sign_latency(self):
        # New config twice as fast -> +1.0.
        assert relative_gain(2.0, 1.0) == pytest.approx(1.0)
        assert relative_gain(1.0, 2.0) == pytest.approx(-0.5)

    def test_gain_sign_throughput(self):
        assert relative_gain(1.0, 2.0, higher_is_better=True) == pytest.approx(1.0)

    def test_gain_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            relative_gain(0.0, 1.0)

    def test_whiskers(self):
        st = whisker_stats([3.0, 1.0, 2.0, 5.0, 4.0])
        assert st.minimum == 1.0
        assert st.maximum == 5.0
        assert st.median == 3.0
        assert st.q1 == 2.0 and st.q3 == 4.0
        assert st.best == 1.0
        assert st.n == 5

    def test_whiskers_empty(self):
        with pytest.raises(ConfigurationError):
            whisker_stats([])


class TestCapabilityRunner:
    def test_reps_and_noise(self):
        app = PROXY_APPS["CoMD"]
        spec = RunSpec(BASELINE.key, "CoMD", num_nodes=8, reps=4, scale=2,
                       seed=0, sim_mode="static")
        res = run_capability(
            spec, lambda job, sim: app.kernel_runtime(job, sim)
        )
        assert len(res.values) == 4
        spread = max(res.values) / min(res.values)
        assert 1.0 < spread < 1.15  # ~1% lognormal noise

    def test_deterministic_given_seed(self):
        app = PROXY_APPS["CoMD"]
        spec = RunSpec(BASELINE.key, "CoMD", num_nodes=8, reps=2, scale=2,
                       seed=7, sim_mode="static")
        measure = lambda job, sim: app.kernel_runtime(job, sim)  # noqa: E731
        a = run_capability(spec, measure)
        b = run_capability(spec, measure)
        assert a.values == b.values

    def test_parx_reroutes_with_profile(self):
        combo = get_combination("hx-parx-clustered")
        app = PROXY_APPS["MILC"]
        spec = RunSpec(combo.key, "MILC", num_nodes=8, reps=1, scale=2,
                       seed=0, sim_mode="static")
        res = run_capability(
            spec, lambda job, sim: app.kernel_runtime(job, sim),
            rank_phases_for_profile=app.rank_phases(8),
        )
        assert res.values[0] > 0

    def test_best_respects_direction(self):
        from repro.experiments.runner import CapabilityResult

        r = CapabilityResult("x", "y", 4, values=[1.0, 2.0])
        assert r.best == 1.0
        r2 = CapabilityResult("x", "y", 4, values=[1.0, 2.0], higher_is_better=True)
        assert r2.best == 2.0


class TestCapacity:
    def test_scaled_capacity_run(self):
        res = run_capacity(BASELINE, scale=2, sim_mode="static")
        assert set(res.runs) == {a for a, _ in CAPACITY_APPS}
        assert all(v > 0 for v in res.runs.values())
        assert res.total_runs == sum(res.runs.values())

    def test_interference_never_speeds_up(self):
        res = run_capacity(BASELINE, scale=2, sim_mode="static")
        for name in res.runs:
            assert (
                res.interfered_seconds[name]
                >= res.solo_seconds[name] * (1 - 1e-9)
            )

    def test_deterministic(self):
        a = run_capacity(BASELINE, scale=2, sim_mode="static", seed=1)
        b = run_capacity(BASELINE, scale=2, sim_mode="static", seed=1)
        assert a.runs == b.runs
