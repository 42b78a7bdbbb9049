"""End-to-end benchmark of the t2hx reproduction, with a per-layer trace.

Run every workload (or one) and print each metric by name and unit::

    python3 benchmarks/bench/bench.py run [--workload W] [--seed S]
        [--repeats N] [--trace]

Compare two result files, or run alternating pairs of two checkouts::

    python3 benchmarks/bench/bench.py compare A.json B.json
    python3 benchmarks/bench/bench.py compare --pairs 10 PARENT_ROOT CHANGE_ROOT

Every set-up and every repeat runs in its own fresh process (the
``child`` command), so ``setup_s`` and peak RSS belong to that workload
alone.  README.md documents the workloads and metrics; the metric names,
units, directions and bounds live in ``BENCHMARK.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("paper-grid", "alltoall-672", "route-0.75", "fault-timeline")
#: Seeds whose outputs ``golden.json`` pins (seed 1 is held out for
#: validating claims).
GOLDEN_SEEDS = (0, 1)
#: Units of work in one timed repeat: campaign passes for the grid
#: workloads, ops for the stream workloads.  Every run of a workload
#: does this same work, however fast the host is that minute, and
#: ``golden.json`` pins every op of it for the golden seeds.
UNITS = {"paper-grid": 1, "alltoall-672": 5, "route-0.75": 16,
         "fault-timeline": 1}
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 600
#: Set-ups per workload in an untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Nominal time of ``workloads.reference_seconds`` on this project's
#: 2-core x86_64 reference host.  Reported times are host-speed
#: adjusted: wall time x ``REFERENCE_S`` / the kernel time measured next
#: to it, so they read in seconds at the reference speed.
REFERENCE_S = 0.02
#: Pairs a gain needs before ``compare`` calls it better.
MIN_PAIRS = 10
#: Absolute slack ``compare`` allows beside a metric's relative bound.
ABSOLUTE_FLOOR = {"setup_s": 0.1}
#: The tail percentile reported where a run has the ops to support it
#: (``paper-grid`` only).  It is not in ``BENCHMARK.json``, whose
#: end-to-end metrics every workload reports.
TAIL_METRIC = {"name": "op_p85_s", "unit": "s", "better": "lower",
               "bound": 0.1}
#: Library settings that would change what a run measures.
SCRUBBED_ENV = ("REPRO_SWEEP_WORKERS", "REPRO_SWEEP_FLOOR", "REPRO_CHUNK_BYTES")


# --- statistics --------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int | None:
    """The highest of the usual percentiles with at least ten samples
    beyond it, or ``None`` when ``n`` samples support none."""
    supported = [q for q in (50, 75, 85, 90, 95, 99) if n * (100 - q) >= 1000]
    return supported[-1] if supported else None


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: list[float]) -> float:
    """Quartile distance over the median."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


# --- the child: one set-up, or one set-up plus the timed work ----------------


def child_main(args: argparse.Namespace) -> None:
    sys.path.insert(0, str(Path(args.src).resolve()))
    from importlib.metadata import version

    import workloads

    scratch = RESULTS / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    out = execute(workload, args.units, args.t0, trace=bool(args.trace))
    # From package metadata: importing scipy would add to set-up time,
    # and the workloads do not import it.
    out["versions"] = {"numpy": version("numpy"), "scipy": version("scipy")}
    out["nproc"] = workloads.nproc()
    if args.trace:
        write_trace(args.workload, out.pop("spans"))
    print(json.dumps(out))


def execute(workload, units: int, t0: float,
            trace: bool = False) -> dict[str, Any]:
    """Set up ``workload`` (timed from ``t0``, a ``time.monotonic``
    instant), then run and check ``units`` timed units of work."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    log = workloads.OpLog(tracer)
    out: dict[str, Any] = {"workload": workload.name, "seed": workload.seed,
                           "sweep_workers": workload.width}
    try:
        if tracer:
            tracer.op = "setup"
            tracer.install(tracing.layer_sites())
        workload.setup()
        out["setup_s"] = time.monotonic() - t0
        out["setup_cal"] = workloads.calibrate(samples=3)
        if tracer:
            tracer.op = None
        if units:
            for index in range(units):
                gc.collect()
                workload.unit(log, index)
            out["peak_rss_mib"] = peak_rss_mib()
    finally:
        if tracer:
            tracer.uninstall()
        workload.close()
    if not units:
        return out
    golden = load_golden().get(workload.name, {}).get(str(workload.seed), {})
    for op in log.ops:
        op["problem"] = op["error"] or judge(workload, golden, op)
    out["ops"] = [
        {"key": op["key"], "wall": op["wall"], "cal": op["cal"],
         "problem": op["problem"]}
        for op in log.ops
    ]
    out["outputs"] = {op["key"]: op["output"] for op in log.ops}
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer.spans, log.ops)
        out["spans"] = tracer.spans
    return out


def adjusted(wall: float, cal: float) -> float:
    """``wall`` seconds at the reference host speed (see REFERENCE_S)."""
    return wall * REFERENCE_S / cal


def judge(workload, golden: dict, op: dict) -> str | None:
    """The op's output against its golden, else against invariants."""
    if op["output"] is None:
        return "no output"
    want = golden.get(op["key"])
    if want is not None and json.loads(json.dumps(op["output"])) != want:
        return f"golden mismatch: got {op['output']!r}, want {want!r}"
    return workload.check(op["output"])


def peak_rss_mib() -> float:
    from repro.core.units import MIB, ru_maxrss_to_bytes

    return ru_maxrss_to_bytes(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ) / MIB


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def write_trace(workload: str, spans) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"trace-{workload}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op", "attrs", "error"],
        "spans": [span.to_list() for span in spans],
    }))


# --- the parent: children, aggregation, reporting ----------------------------


def spawn_child(workload: str, seed: int, src: Path, units: int,
                trace: bool = False) -> dict[str, Any]:
    """Run one child process to completion and return its report;
    ``units=0`` stops after set-up."""
    cmd = [sys.executable, str(HERE / "bench.py"), "child",
           "--workload", workload, "--seed", str(seed), "--src", str(src),
           "--units", str(units), "--trace", str(int(trace))]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    # CLOCK_MONOTONIC is system-wide on Linux and macOS, so the child can
    # time set-up from this instant: interpreter start and imports count.
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def benchmark_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, seed: int, src: Path, units: int, repeats: int,
            trace: bool) -> dict[str, Any]:
    """Set-ups and repeats of one workload, each in a fresh process.

    Untraced: ``SETUPS`` set-ups (all but ``repeats`` of them set-up
    only) and ``repeats`` timed passes.  Traced: per repeat, an untraced
    pass and then a traced one, whose mean op times give the tracing
    overhead.
    """
    setups: list[dict[str, Any]] = []
    fulls: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    if not trace:
        for _ in range(max(0, SETUPS - repeats)):
            setups.append(spawn_child(workload, seed, src, 0))
    for _ in range(repeats):
        full = spawn_child(workload, seed, src, units)
        fulls.append(full)
        setups.append(full)
        if trace:
            traced.append(spawn_child(workload, seed, src, units, trace=True))
            traced[-1]["layers"]["trace_overhead_frac"] = (
                mean_op_s(traced[-1]) / mean_op_s(full) - 1.0
            )
    spec = benchmark_spec()
    metrics: dict[str, dict[str, Any]] = {}
    per_repeat = [e2e_metrics(full) for full in fulls]
    for m in spec["end_to_end"] + [TAIL_METRIC]:
        if m["name"] == "setup_s":
            samples = [adjusted(c["setup_s"], c["setup_cal"]) for c in setups]
        elif all(m["name"] in r for r in per_repeat):
            samples = [r[m["name"]] for r in per_repeat]
        else:
            continue
        metrics[m["name"]] = summary(samples, m["unit"])
    for m in spec["per_layer"]:
        if traced:
            metrics[m["name"]] = summary(
                [t["layers"][m["name"]] for t in traced], m["unit"]
            )
    children = fulls + traced
    attempted = sum(len(c["ops"]) for c in children)
    failed = sum(1 for c in children for op in c["ops"] if op["problem"])
    metrics["error_rate"] = summary(
        [sum(1 for op in c["ops"] if op["problem"]) / len(c["ops"])
         for c in children], "fraction",
    )
    n_ops = [len(c["ops"]) for c in fulls]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": [op["key"] + ": " + op["problem"] for c in children
                     for op in c["ops"] if op["problem"]][:20],
        "ops_per_repeat": n_ops,
        "tail_percentile": tail_percentile(min(n_ops)),
        "child": {k: fulls[0][k] for k in ("versions", "nproc", "sweep_workers")},
        "raw": {
            "setup_s": [c["setup_s"] for c in setups],
            "setup_cal_s": [c["setup_cal"] for c in setups],
            "op_wall_s": [[op["wall"] for op in c["ops"]] for c in fulls],
            "op_cal_s": [[op["cal"] for op in c["ops"]] for c in fulls],
        },
    }


def op_times(child: dict[str, Any]) -> list[float]:
    """Adjusted times of the ops that succeeded: a failed op often stops
    early, and timing it would make a broken change look fast."""
    times = [adjusted(op["wall"], op["cal"])
             for op in child["ops"] if not op["problem"]]
    if not times:
        raise RuntimeError(f"{child['workload']}: every op failed")
    return times


def mean_op_s(child: dict[str, Any]) -> float:
    times = op_times(child)
    return sum(times) / len(times)


def e2e_metrics(full: dict[str, Any]) -> dict[str, float]:
    times = op_times(full)
    out = {
        "op_p50_s": percentile(times, 50),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mib": full["peak_rss_mib"],
    }
    tail = tail_percentile(len(times))
    if tail is not None and tail >= 85:
        out["op_p85_s"] = percentile(times, 85)
    return out


def summary(samples: list[float], unit: str) -> dict[str, Any]:
    return {"value": statistics.median(samples), "unit": unit,
            "samples": samples, "n": len(samples)}


def host_fingerprint(src: Path) -> dict[str, Any]:
    rev = None
    if (src.parent / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(src.parent), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        rev = done.stdout.strip() or None
    return {"git_rev": rev, "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


def run_main(args: argparse.Namespace) -> int:
    src = Path(args.src).resolve()
    if not (src / "repro").is_dir():
        print(f"bench: no repro package under {src}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    names = args.workload or list(WORKLOAD_NAMES)
    if args.update_golden:
        return update_golden(names, src)
    trace = bool(args.trace)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    result = {"host": host_fingerprint(src), "seed": args.seed,
              "units": {name: UNITS[name] for name in names},
              "repeats": args.repeats, "trace": trace, "workloads": {}}
    for name in names:
        measured = measure(name, args.seed, src, UNITS[name], args.repeats,
                           trace)
        result["workloads"][name] = measured
        print_workload(name, measured, wanted)
    first = result["workloads"][names[0]]
    result["host"].update(first["child"])
    out = Path(args.out) if args.out else RESULTS / (
        f"{'+'.join(names) if args.workload else 'all'}-s{args.seed}"
        f"{'-trace' if trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"# results: {out}")
    runs = result["workloads"].values()
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            (f"{name}/{m}" if prefix else m): {
                "value": r["metrics"][m]["value"],
                "unit": r["metrics"][m]["unit"],
            }
            for name, r in result["workloads"].items() for m in wanted
        },
    }))
    return 0


def print_workload(name: str, measured: dict[str, Any],
                   wanted: list[str]) -> None:
    n_ops = measured["ops_per_repeat"]
    tail = measured["tail_percentile"]
    print(f"# {name}: {sum(n_ops)} ops over {len(n_ops)} repeat(s), "
          f"{measured['failed']} failed of {measured['attempted']} attempted; "
          f"highest supported tail percentile: {f'p{tail}' if tail else 'none'}")
    for m in wanted + [TAIL_METRIC["name"], "error_rate"]:
        if m not in measured["metrics"]:
            continue
        v = measured["metrics"][m]
        print(f"{name:15s} {m:28s} {v['value']:14.6g} {v['unit']:9s} "
              f"(n={v['n']})")
    for problem in measured["problems"]:
        print(f"{name:15s} FAILED {problem}")


def update_golden(names: list[str], src: Path) -> int:
    golden = load_golden()
    for name in names:
        golden[name] = {}
        for seed in GOLDEN_SEEDS:
            full = spawn_child(name, seed, src, UNITS[name])
            bad = [op for op in full["ops"]
                   if op["problem"] and "golden" not in op["problem"]]
            if bad:
                print(f"bench: {name} seed {seed} failed: {bad[:3]}",
                      file=sys.stderr)
                return 1
            golden[name][str(seed)] = full["outputs"]
            print(f"# golden {name} seed {seed}: {len(full['outputs'])} ops")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


# --- compare -----------------------------------------------------------------


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None, floor: float = 0.0) -> tuple[str, int, int]:
    """The paired-runs rule for one metric: ``a`` is the parent's
    samples, ``b`` the change's, paired by index.  A metric may worsen
    by ``bound`` of the parent's median, or by ``floor`` in its own unit
    when that is more."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if bound is None:
        return "-", wins, len(pairs)
    ma, mb = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (mb - ma) > q3a - q1a):
        return "better", wins, len(pairs)
    everyone_better = all(sign * (y - x) > 0 for x in a for y in b)
    widest = max(spread(a) * abs(ma), spread(b) * abs(mb))
    if widest > max(bound * abs(ma), floor) and not everyone_better:
        return "unresolved", wins, len(pairs)
    if sign * (ma - mb) > max(bound * abs(ma), floor):
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def failure_rate(workload: dict[str, Any]) -> float:
    return workload["failed"] / workload["attempted"]


def compare(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Print the comparison; ``True`` when nothing is worse and the
    change fails no more of its ops than the parent."""
    spec = benchmark_spec()
    defs = {m["name"]: m
            for m in spec["end_to_end"] + [TAIL_METRIC] + spec["per_layer"]}
    ok = True
    print(f"{'workload':15s} {'metric':28s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B wins':>7s}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        fails_more = failure_rate(wb) > failure_rate(wa)
        ok &= not fails_more
        fa, fb = (f"{w['failed']} of {w['attempted']}" for w in (wa, wb))
        print(f"{workload:15s} {'failed ops':28s} {fa:>34s} {fb:>34s} "
              f"{'':7s}  {'worse' if fails_more else 'ok'}")
        ma, mb = wa["metrics"], wb["metrics"]
        for name, d in defs.items():
            if name not in ma or name not in mb:
                continue
            sa, sb = ma[name]["samples"], mb[name]["samples"]
            said, wins, pairs = verdict(sa, sb, d["better"], d.get("bound"),
                                        ABSOLUTE_FLOOR.get(name, 0.0))
            if said == "better" and fails_more:
                said = "not better: B fails more ops"
            ok &= said != "worse"
            print(f"{workload:15s} {name:28s} {_fmt(sa):>34s} {_fmt(sb):>34s} "
                  f"{wins:>3d}/{pairs:<3d}  {said}")
    return ok


def _fmt(samples: list[float]) -> str:
    q1, q3 = quartiles(samples)
    return f"{statistics.median(samples):.5g} [{q1:.5g}, {q3:.5g}]"


def merge(results: list[dict[str, Any]]) -> dict[str, Any]:
    """One result whose samples and op counts are every input result's."""
    merged = {"workloads": {}}
    for result in results:
        for workload, w in result["workloads"].items():
            into = merged["workloads"].setdefault(
                workload, {"metrics": {}, "attempted": 0, "failed": 0}
            )
            into["attempted"] += w["attempted"]
            into["failed"] += w["failed"]
            for name, m in w["metrics"].items():
                into["metrics"].setdefault(name, {**m, "samples": []})
                into["metrics"][name]["samples"] += m["samples"]
    return merged


def compare_main(args: argparse.Namespace) -> int:
    a_path, b_path = Path(args.a), Path(args.b)
    if args.pairs:
        sides: dict[str, list[dict[str, Any]]] = {"A": [], "B": []}
        roots = {"A": a_path, "B": b_path}
        for i in range(args.pairs):
            for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                out = RESULTS / "pairs" / f"{side}-{i}.json"
                cmd = [sys.executable, str(HERE / "bench.py"), "run",
                       "--src", str(roots[side] / "src"),
                       "--seed", str(args.seed + i), "--out", str(out)]
                for w in args.workload or ():
                    cmd += ["--workload", w]
                print(f"# pair {i}: {side} ({roots[side]})", flush=True)
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
                sides[side].append(json.loads(out.read_text()))
        a, b = merge(sides["A"]), merge(sides["B"])
    else:
        a = json.loads(a_path.read_text())
        b = json.loads(b_path.read_text())
    return 0 if compare(a, b) else 1


# --- command line ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                     help="repeatable; default: all four")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--repeats", type=int, default=1)
    # Accepted so that a caller of BENCHMARK.json's command line can
    # pass run_seconds; the work of a run is fixed by UNITS instead.
    run.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="report the per-layer metrics")
    run.add_argument("--out", help="result JSON path")
    run.add_argument("--src", default=str(ROOT / "src"),
                     help="source tree to benchmark (default: this checkout)")
    run.add_argument("--update-golden", action="store_true",
                     help="rewrite golden.json from seeds 0 and 1")

    cmp_ = sub.add_parser("compare", help="compare two result files, or "
                          "run --pairs of two checkouts and compare them")
    cmp_.add_argument("a", help="parent result JSON (checkout root with --pairs)")
    cmp_.add_argument("b", help="change result JSON (checkout root with --pairs)")
    cmp_.add_argument("--pairs", type=int, default=0)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)

    child = sub.add_parser("child")  # internal: one process of a run
    child.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--src", required=True)
    child.add_argument("--units", type=int, required=True)
    child.add_argument("--trace", type=int, default=0)
    child.add_argument("--t0", type=float, required=True)

    args = parser.parse_args(argv)
    if args.command == "child":
        child_main(args)
        return 0
    # Children run in their own sessions; exiting through SystemExit
    # runs spawn_child's cleanup, which kills a running child's group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.command == "compare":
        return compare_main(args)
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
