"""The benchmark's four workloads.

Each workload makes its inputs from ``seed`` alone, has a set-up step
(``setup_s``) and a unit of timed work that the harness repeats a fixed
number of times (``bench.UNITS``): one whole campaign pass for the two
grid workloads, one op for the two stream workloads.  The load is one
closed-loop client in one process issuing ops back to back; the only
parallelism is the routing sweep pool, and only ``route-0.75`` uses it.

Library callables the tracer wraps are reached through their module
(``configs.build_fabric``, ``t2hx.t2hx_hyperx``) so a traced run sees
these calls too.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.campaign import engine as campaign_engine
from repro.campaign.ledger import STATUS_COMPLETED
from repro.campaign.spec import (
    CampaignSpec,
    campaign_paths,
    capability_grid,
    engine_race_grid,
)
from repro.core import parallel
from repro.core.rng import derive_seed
from repro.core.units import MIB
from repro.experiments import configs
from repro.ib.subnet_manager import QDR_MAX_VLS, OpenSM
from repro.routing import create_engine
from repro.sim.engine import FlowSimulator
from repro.topology import t2hx
from repro.topology.faults import FabricEvent, inject_cable_faults
from repro.workloads.netbench import imb_latency


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_width() -> int:
    """Sweep pool width for ``route-0.75``: the host's cores, at most 2."""
    return min(2, nproc())


def reference_seconds() -> float:
    """Wall time of a fixed kernel that runs no library code: a Python
    dict walk and a numpy sort, the two kinds of work the ops do.

    The host's speed drifts by tens of percent over minutes (other
    tenants); this kernel, timed next to each op, measures that drift.
    """
    start = time.perf_counter()
    table = {i: i * 7 for i in range(20000)}
    total = 0
    for i in range(200000):
        total += table[i % 20000]
    np.sort(np.random.default_rng(0).random(200000))
    return time.perf_counter() - start


def calibrate(samples: int = 1) -> float:
    """One host-speed sample: the median of ``samples`` kernel runs.

    Between ops one run is enough: on recorded Alltoall ops, single runs
    bracketing each op tracked the host's speed as well as medians of
    three, at a third of the cost.
    """
    return statistics.median(reference_seconds() for _ in range(samples))


class OpLog:
    """Times ops back to back and reads the library's counters per op.

    The counters (sweep pool, fabric cache) are reset when an op starts
    and read when it stops; a campaign cell resets them itself, at the
    same point.  Between ops, outside the timing, the host speed is
    sampled whenever ``CALIBRATE_EVERY_S`` of op time has passed; an
    op's ``cal`` is the mean of the samples before and after it.
    """

    CALIBRATE_EVERY_S = 0.7

    def __init__(self, tracer: Any = None) -> None:
        self.ops: list[dict[str, Any]] = []
        self.tracer = tracer
        self._start: float | None = None
        self._cal: float | None = None
        self._cal_before = 0.0
        self._since_cal = 0.0

    def start(self) -> None:
        if self._cal is None:
            self._cal = calibrate()
        self._cal_before = self._cal
        parallel.reset_parallel_stats()
        configs.reset_fabric_cache_stats()
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        self._start = time.perf_counter()

    def stop(self, key: str) -> dict[str, Any]:
        wall = time.perf_counter() - self._start
        self._start = None
        if self.tracer is not None:
            self.tracer.op = None
        self._since_cal += wall
        if self._since_cal >= self.CALIBRATE_EVERY_S:
            self._cal = calibrate()
            self._since_cal = 0.0
        op = {
            "key": key,
            "wall": wall,
            "cal": (self._cal_before + self._cal) / 2,
            "counters": {
                **parallel.parallel_stats(),
                **configs.fabric_cache_stats(),
            },
            "output": None,
            "error": None,
        }
        self.ops.append(op)
        return op

    def abandon(self) -> None:
        """Drop an op started but never stopped (after a campaign's last
        cell)."""
        self._start = None
        if self.tracer is not None:
            self.tracer.op = None


def lft_digest(fabric: Any) -> str:
    """sha256 of the forwarding state: every switch's next hop to every
    LID and every LID's VL, in the tables' row and column order.

    It hashes the dense matrix as int64, so a change of the tables'
    storage dtype keeps the digest; ``dump_lft`` carries the same facts
    but takes about 0.4 s per x0.75 fabric to write.
    """
    tables = fabric.tables
    digest = hashlib.sha256()
    for part in (tables.switch_ids, tables.dlids, tables.dense,
                 [fabric.vl(int(dlid)) for dlid in tables.dlids]):
        digest.update(np.ascontiguousarray(part, dtype="<i8").tobytes())
    return digest.hexdigest()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _positive_values(values: Any, reps: int) -> str | None:
    if not isinstance(values, list) or len(values) != reps:
        return f"expected {reps} values, got {values!r}"
    if not all(isinstance(v, float) and math.isfinite(v) and v > 0
               for v in values):
        return f"values not finite and positive: {values!r}"
    return None


class Workload:
    """Set-up, timed units of work, and output checks for one workload."""

    name = ""
    SCALE: float = 1
    NODES: tuple[int, ...] = ()

    def __init__(self, seed: int, scratch: Path, scale: float | None = None,
                 nodes: tuple[int, ...] | None = None) -> None:
        self.seed = seed
        self.scale = self.SCALE if scale is None else scale
        self.nodes = self.NODES if nodes is None else nodes
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=scratch))

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, log: OpLog, index: int) -> None:
        """One timed unit: a campaign pass, or one op."""
        raise NotImplementedError

    def check(self, output: Any) -> str | None:
        """What is wrong with one op's output (``None``: nothing)."""
        raise NotImplementedError

    def close(self) -> None:
        configs.set_fabric_cache_dir(None)
        configs.clear_fabric_cache()
        shutil.rmtree(self.dir, ignore_errors=True)

    @property
    def width(self) -> int:
        return 1


class StreamWorkload(Workload):
    """A workload whose unit is one op on fresh inputs from ``(seed, i)``."""

    def op(self, index: int) -> Any:
        raise NotImplementedError

    def output(self, result: Any) -> Any:
        """The op's checked output, computed after its timer stopped."""
        raise NotImplementedError

    def unit(self, log: OpLog, index: int) -> None:
        key = f"op{index}"
        log.start()
        try:
            result = self.op(index)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            log.stop(key)["error"] = _error(exc)
            return
        op = log.stop(key)
        try:
            op["output"] = self.output(result)
        except Exception as exc:  # noqa: BLE001
            op["error"] = _error(exc)


class CampaignWorkload(Workload):
    """A workload whose unit is one pass over campaign grids.

    With ``ROUTE_IN_SETUP``, set-up routes the planes into the campaign's
    disk fabric cache, and each pass starts from an empty ledger and an
    empty in-memory cache, so each plane's first cell attaches it from
    disk and lints it, as a resumed campaign does.  Without it, set-up
    routes nothing and each pass also starts from an empty disk cache,
    so each plane's first cell routes and stores it, as a fresh campaign
    does.  Every op is one cell, timed from one ``progress`` callback to
    the next.
    """

    COMBOS: tuple[str, ...] = ()
    ROUTE_IN_SETUP = True

    def specs(self) -> list[tuple[str, CampaignSpec]]:
        """``(key prefix, spec)`` per campaign of a pass."""
        raise NotImplementedError

    def setup(self) -> None:
        self._specs = self.specs()
        if not self.ROUTE_IN_SETUP:
            return
        configs.set_fabric_cache_dir(campaign_paths(self.dir)["fabric_cache"])
        try:
            for key in self.COMBOS:
                configs.build_fabric(
                    configs.get_combination(key), scale=self.scale,
                    with_faults=True, seed=self.seed,
                )
        finally:
            configs.set_fabric_cache_dir(None)

    def cell_output(self, record: dict[str, Any]) -> dict[str, Any]:
        return {"values": record.get("values")}

    def unit(self, log: OpLog, index: int) -> None:
        configs.clear_fabric_cache()
        if not self.ROUTE_IN_SETUP:
            shutil.rmtree(campaign_paths(self.dir)["fabric_cache"],
                          ignore_errors=True)
        ledger = campaign_paths(self.dir)["ledger"]
        for prefix, spec in self._specs:
            ledger.unlink(missing_ok=True)

            def progress(record: dict[str, Any], prefix: str = prefix) -> None:
                op = log.stop(prefix + record["cell_id"])
                op["output"] = self.cell_output(record)
                if record["status"] != STATUS_COMPLETED:
                    op["error"] = "{type}: {message}".format(**record["error"])
                log.start()

            log.start()
            try:
                campaign_engine.run_campaign(
                    spec, self.dir, workers=1, progress=progress
                )
            finally:
                log.abandon()


class PaperGrid(CampaignWorkload):
    """Figures 4-6: the five combinations x five codes x three sizes, run
    as a fresh campaign.

    The planes are routed inside the pass, where a user waits for them,
    not in set-up: routing all five takes about 7 s (the Fat-Tree 4 s of
    it), and ``setup_s`` is the median of three set-ups per run.
    ``fault-timeline`` keeps the resumed-campaign path, which attaches
    planes from the disk cache.
    """

    name = "paper-grid"
    ROUTE_IN_SETUP = False
    COMBOS = ("ft-ftree-linear", "hx-dfsssp-linear", "hx-dfsssp-random",
              "hx-parx-clustered", "hx-fthx-linear")
    BENCHMARKS = ("imb:Allreduce:1048576", "imb:Bcast:65536", "CoMD",
                  "MILC", "FFT")
    NODES = (56, 224, 672)
    REPS = 3

    def specs(self) -> list[tuple[str, CampaignSpec]]:
        cells = capability_grid(
            self.COMBOS, self.BENCHMARKS, self.nodes, reps=self.REPS,
            scale=self.scale, seed=self.seed, sim_mode="static",
        )
        return [("", CampaignSpec(self.name, cells))]

    def check(self, output: Any) -> str | None:
        return _positive_values(output["values"], self.REPS)


class FaultTimelineGrid(CampaignWorkload):
    """Mid-run cable failures with live re-routing, three engines raced."""

    name = "fault-timeline"
    ENGINES = ("dfsssp", "fthx", "minhop")
    COMBOS = tuple(f"hx-{engine}-linear" for engine in ENGINES)
    BENCHMARK = "imb:Alltoall:1048576"
    NODES = (224,)
    TIMELINES = 5
    REPS = 3

    def timeline(self, index: int) -> tuple[FabricEvent, ...]:
        seed = derive_seed(self.seed, self.name, index)
        return (
            FabricEvent("fail_cable", 1, seed=seed),
            FabricEvent("fail_cable", 3, seed=seed),
            FabricEvent("degrade_cable", 5, seed=seed),
        )

    def specs(self) -> list[tuple[str, CampaignSpec]]:
        # One campaign per timeline: a cell id does not name its timeline.
        return [
            (f"t{t}/", CampaignSpec(
                f"{self.name}-{t}",
                engine_race_grid(
                    self.ENGINES, [self.BENCHMARK], self.nodes,
                    reps=self.REPS, scale=self.scale, seed=self.seed,
                    sim_mode="dynamic", fault_timeline=self.timeline(t),
                ),
            ))
            for t in range(self.TIMELINES)
        ]

    def cell_output(self, record: dict[str, Any]) -> dict[str, Any]:
        reroutes = record.get("reroutes", {})
        return {
            "values": record.get("values"),
            "reroutes": {
                key: reroutes.get(key)
                for key in ("events_applied", "messages_rerouted",
                            "paths_changed", "unreachable_pairs")
            },
        }

    def check(self, output: Any) -> str | None:
        reroutes = output["reroutes"]
        if reroutes["events_applied"] != 3:
            return f"expected 3 fabric events, got {reroutes}"
        if reroutes["unreachable_pairs"] != 0:
            return f"pairs left unreachable: {reroutes}"
        return _positive_values(output["values"], self.REPS)


class Alltoall(StreamWorkload):
    """The 672-rank IMB Alltoall: ``Job.materialize`` does most of it."""

    name = "alltoall-672"
    COMBO = "hx-dfsssp-random"
    SIZE = 1 * MIB

    def setup(self) -> None:
        self.combo = configs.get_combination(self.COMBO)
        self.fabric = configs.build_fabric(
            self.combo, scale=self.scale, with_faults=True, seed=self.seed
        )

    def op(self, index: int) -> float:
        job = configs.make_job(
            self.combo, self.fabric, self.fabric.net.num_terminals,
            seed=100 * self.seed + index,
        )
        sim = FlowSimulator(self.fabric.net, mode="static")
        return imb_latency(job, sim, "Alltoall", self.SIZE)

    def output(self, latency: float) -> dict[str, float]:
        return {"latency": latency}

    def check(self, output: Any) -> str | None:
        latency = output["latency"]
        if not (math.isfinite(latency) and latency > 0):
            return f"latency not finite and positive: {latency!r}"
        return None


class Route(StreamWorkload):
    """Cold routes of the t2hx x0.75 plane (16x10 switches, 1,120
    endpoints) missing the paper's 15 cables.

    x0.75, not x0.5: a x0.5 op takes about 5 s, so a run held two ops
    and their median moved by 24% with the host's speed.  The paper's
    count of missing cables, not its share: at the share, the route
    time changes by 20% from one fault set to the next.
    """

    name = "route-0.75"
    SCALE = 0.75
    ENGINES = ("minhop", "fthx")
    MISSING_CABLES = t2hx.T2HX_HYPERX_MISSING_CABLES

    @property
    def width(self) -> int:
        return sweep_width()

    def setup(self) -> None:
        parallel.set_sweep_workers(self.width)
        # Spawn the pool now, on a tiny plane, so the timed routes find
        # it running; the spawn is set-up a long-lived SM pays once.
        with parallel.column_floor(1):
            engine = create_engine("minhop")
            OpenSM(t2hx.t2hx_hyperx(scale=4)).run(engine)

    def op(self, index: int) -> dict[str, Any]:
        net = t2hx.t2hx_hyperx(scale=self.scale)
        inject_cable_faults(net, self.MISSING_CABLES,
                            seed=derive_seed(self.seed, self.name, index))
        fabrics = {}
        for name in self.ENGINES:
            fabrics[name] = OpenSM(net).run(create_engine(name))
        return fabrics

    def output(self, fabrics: dict[str, Any]) -> dict[str, Any]:
        return {
            name: {
                "lft_sha256": lft_digest(fabric),
                "num_vls": fabric.num_vls,
                "unreachable": fabric.resolve_paths().num_unreachable,
            }
            for name, fabric in fabrics.items()
        }

    def check(self, output: Any) -> str | None:
        for name, routed in output.items():
            if routed["unreachable"] or not 1 <= routed["num_vls"] <= QDR_MAX_VLS:
                return f"{name}: bad routing {routed}"
        return None

    def close(self) -> None:
        parallel.shutdown_sweep_pool()
        parallel.set_sweep_workers(1)
        super().close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperGrid, Alltoall, Route, FaultTimelineGrid)
}
