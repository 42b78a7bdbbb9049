"""Cold vs warm campaign-cell wall clock over the batched phase pipeline.

The tentpole claim of the batching + mmap-cache work, measured end to
end: a *warm* 672-node t2hx campaign cell — fabric attached zero-copy
from the shared ``.rows.npy`` sidecar, phases materialised through the
bulk per-destination path resolution, simulated from prebuilt
:class:`~repro.sim.batch.MessageBatch` arrays — completes in well under
a second of wall clock, and produces values bit-identical to the cold
(freshly routed) cell.

Two cells are pinned:

* ``imb:Allreduce:1048576`` — a Figure 4/5-style IMB cell; its warm
  wall clock is asserted against :data:`WARM_CELL_BUDGET` (default 1 s,
  relaxable via ``PERF_WARM_CELL_BUDGET`` for noisy CI runners).
* ``imb:Alltoall:1048576`` — the paper's heaviest collective (671
  phases x 671 messages); checked for cold/warm value identity and
  asserted against ``2 * WARM_CELL_BUDGET`` (2 s locally, 6 s under
  the CI perf-smoke job's relaxed budget).  ``Job.materialize`` builds
  each phase's :class:`~repro.sim.batch.MessageBatch` with array
  operations, so simulating the phases, not building them, is most of
  the cell: one fresh 672-rank Alltoall on a 2-core host took about
  0.2 s in ``job.alltoall`` against 0.9 s in ``FlowSimulator.run``
  (2.0-2.2 s and 0.9 s before the array-shaped materialize).

JSON artifacts land in ``benchmarks/out/`` for the perf-smoke upload.
"""

from __future__ import annotations

import json
import os
import time

from repro.campaign.engine import execute_cell
from repro.campaign.ledger import STATUS_COMPLETED
from repro.experiments.configs import (
    clear_fabric_cache,
    get_fabric_cache_dir,
    reset_fabric_cache_stats,
    set_fabric_cache_dir,
)
from repro.experiments.runner import RunSpec

import pytest

#: Wall-clock ceiling for the warm Allreduce cell (seconds).
WARM_CELL_BUDGET = float(os.environ.get("PERF_WARM_CELL_BUDGET", "1.0"))

#: The paper's full-machine scale: 672 terminals on the t2hx HyperX.
NUM_NODES = 672


@pytest.fixture()
def cache_dir(tmp_path_factory):
    """A fresh shared fabric-cache directory, worker-attached like a
    campaign's (:func:`repro.campaign.engine._init_worker` defaults).

    Function-scoped so each test's first cell really routes cold — a
    shared directory would let the second test's "cold" run attach to
    the first test's sidecar."""
    d = tmp_path_factory.mktemp("fabric-cache")
    previous = get_fabric_cache_dir()
    set_fabric_cache_dir(str(d))
    yield d
    set_fabric_cache_dir(previous)


def _spec(benchmark_name: str) -> RunSpec:
    return RunSpec(
        "hx-dfsssp-linear",
        benchmark_name,
        num_nodes=NUM_NODES,
        reps=1,
        scale=1,
        sim_mode="static",
        preflight=False,
    )


def _run_cell(benchmark_name: str) -> tuple[float, dict]:
    """One cell in this process, memory cache dropped first so the cell
    pays the disk/mmap path a fresh worker would."""
    clear_fabric_cache()
    reset_fabric_cache_stats()
    t0 = time.perf_counter()
    record = execute_cell({"spec": _spec(benchmark_name).to_dict()})
    elapsed = time.perf_counter() - t0
    assert record["status"] == STATUS_COMPLETED, record.get("error")
    return elapsed, record


def test_perf_warm_allreduce_cell(cache_dir, report_dir):
    """Warm 672-node Allreduce cell: mmap attach + batched phases < 1 s."""
    cold_s, cold = _run_cell("imb:Allreduce:1048576")
    assert cold["fabric_cache"]["routed"] == 1, cold["fabric_cache"]

    warm_times = []
    for _ in range(3):
        warm_s, warm = _run_cell("imb:Allreduce:1048576")
        fc = warm["fabric_cache"]
        assert fc["routed"] == 0 and fc["disk_hits"] == 1, fc
        assert fc["mmap_attaches"] == 1, fc
        assert warm["values"] == cold["values"]  # bit-identical
        warm_times.append(warm_s)

    payload = {
        "cell": "hx-dfsssp-linear/imb:Allreduce:1048576",
        "num_nodes": NUM_NODES,
        "cold_s": cold_s,
        "warm_s": min(warm_times),
        "warm_runs_s": warm_times,
        "warm_budget_s": WARM_CELL_BUDGET,
        "value": cold["best"],
    }
    (report_dir / "perf_phase_batch_cell.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert min(warm_times) < WARM_CELL_BUDGET, payload


def test_perf_warm_alltoall_cell(cache_dir, report_dir):
    """Warm 672-node Alltoall cell (671 phases): value-identical to the
    cold cell, within twice the Allreduce cell's budget."""
    cold_s, cold = _run_cell("imb:Alltoall:1048576")
    assert cold["fabric_cache"]["routed"] == 1, cold["fabric_cache"]
    warm_s, warm = _run_cell("imb:Alltoall:1048576")
    fc = warm["fabric_cache"]
    assert fc["routed"] == 0 and fc["mmap_attaches"] == 1, fc
    assert warm["values"] == cold["values"]  # bit-identical

    payload = {
        "cell": "hx-dfsssp-linear/imb:Alltoall:1048576",
        "num_nodes": NUM_NODES,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_budget_s": 2 * WARM_CELL_BUDGET,
        "value": cold["best"],
    }
    (report_dir / "perf_phase_batch_alltoall.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert warm_s < 2 * WARM_CELL_BUDGET, payload
