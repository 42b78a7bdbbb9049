"""Outside-in timing spans around the library's layer boundaries.

The benchmark never edits ``src/``: a traced run replaces each public
callable listed in :func:`layer_sites` *where it is looked up* (a class
attribute, or the module global its caller resolves at call time) with a
wrapper that records a :class:`Span`, and puts every original back
afterwards.  Spans are kept in memory and written out when the run ends.

A span's self time is its duration minus the part of it covered by its
child spans; the per-layer metrics are built from self times, so nested
layers (a routing sweep inside ``OpenSM.run`` inside ``build_fabric``)
are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: ``attrs(args, kwargs, result)`` -> extra fields recorded on a span.
AttrsFn = Callable[[tuple, dict, Any], dict]


@dataclass(slots=True)
class Span:
    """One timed call: what, when, under which span, in which op."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int | str | None
    attrs: dict | None = None
    error: bool = False

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op,
                self.attrs, self.error]


@dataclass(frozen=True)
class Site:
    """A callable to wrap: ``owner.attr`` (a class or a module)."""

    owner: Any
    attr: str
    span: str
    attrs: AttrsFn | None = None


class Tracer:
    """Records spans from the wrappers it installs; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Op id stamped on new spans (``None`` outside timed ops).
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str,
             attrs: AttrsFn | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, sites: list[Site]) -> None:
        for site in sites:
            raw = site.owner.__dict__[site.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new: Any = type(raw)(self.wrap(raw.__func__, site.span, site.attrs))
            else:
                new = self.wrap(raw, site.span, site.attrs)
            self._installed.append((site.owner, site.attr, raw))
            setattr(site.owner, site.attr, new)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, sites: list[Site]) -> Iterator["Tracer"]:
        try:
            self.install(sites)
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not subtracted
    twice."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


# --- the layers --------------------------------------------------------------


def _module(name: str) -> Any:
    return importlib.import_module(name)


def _messages(args, kwargs, program) -> dict:
    return {"messages": sum(len(phase.messages) for phase in program.phases)}


def _all_dests(args, kwargs, result) -> dict:
    fabric = args[1]
    return {"dests": len(fabric.lidmap.terminal_lids(fabric.net))}


def _some_dests(args, kwargs, result) -> dict:
    dlids = args[2] if len(args) > 2 else kwargs["dlids"]
    return {"dests": len(dlids)}


def _num_vls(args, kwargs, fabric) -> dict:
    return {"num_vls": fabric.num_vls}


def _truncated(args, kwargs, result) -> dict:
    return {"events_truncated": result.events_truncated}


def _reroute(args, kwargs, report) -> dict:
    fabric = args[0]
    total = len(fabric.lidmap.terminal_lids(fabric.net))
    return {
        "ran": report.resweep_ran,
        "dests": report.dests_recomputed,
        "incremental": report.resweep_ran and report.dests_recomputed < total,
    }


def _engine_classes() -> list[type]:
    """Every registered engine class and its bases below ``RoutingEngine``
    (importing the package imports every engine module)."""
    seen: list[type] = []
    todo = [_module("repro.routing").RoutingEngine]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def layer_sites() -> list[Site]:
    """Every wrapped call, named after the layer it belongs to.

    Module functions are wrapped in the namespace their caller looks
    them up in (``runner.resweep``, ``subnet_manager.assign_layers``);
    routing engines are wrapped on each class that defines its own
    ``compute`` / ``recompute_destinations``.
    """
    job = _module("repro.mpi.job")
    fabric = _module("repro.ib.fabric")
    engine = _module("repro.sim.engine")
    fairness = _module("repro.sim.fairness")
    sm = _module("repro.ib.subnet_manager")
    runner = _module("repro.experiments.runner")
    configs = _module("repro.experiments.configs")
    t2hx = _module("repro.topology.t2hx")
    campaign = _module("repro.campaign.engine")
    ledger = _module("repro.campaign.ledger")
    sites = [
        Site(job.Job, "materialize", "job.materialize", _messages),
        Site(fabric.Fabric, "dest_paths", "fabric.dest_paths"),
        Site(fabric.Fabric, "path", "fabric.path"),
        Site(fabric.Fabric, "load", "cache.load"),
        Site(fabric.Fabric, "save", "cache.store"),
        Site(engine.FlowSimulator, "run", "sim.run", _truncated),
        Site(engine.FlowSimulator, "run_phase", "sim.phase"),
        Site(fairness.FairnessProblem, "rates", "fairness.solve"),
        Site(fairness.FairnessProblem, "solve_classes", "fairness.solve"),
        Site(sm, "dest_dependencies_from_tables", "vl.cdg"),
        Site(sm, "assign_layers", "vl.layer"),
        Site(sm.OpenSM, "run", "sm.route", _num_vls),
        Site(runner, "resweep", "sm.resweep", _reroute),
        Site(runner, "audit_whatif", "whatif.audit"),
        Site(runner, "assert_fabric_clean", "lint.preflight"),
        Site(runner, "build_fabric", "cache.build"),
        Site(configs, "build_fabric", "cache.build"),
        Site(configs, "t2hx_hyperx", "topology.build"),
        Site(configs, "t2hx_fattree", "topology.build"),
        Site(t2hx, "t2hx_hyperx", "topology.build"),
        Site(t2hx, "t2hx_fattree", "topology.build"),
        Site(campaign, "execute_cell", "campaign.cell"),
        Site(ledger.Ledger, "append", "ledger.append"),
    ]
    for cls in _engine_classes():
        if "compute" in cls.__dict__:
            sites.append(Site(cls, "compute", "routing.sweep", _all_dests))
        if "recompute_destinations" in cls.__dict__:
            sites.append(
                Site(cls, "recompute_destinations", "routing.sweep", _some_dests)
            )
    return sites


# --- per-layer metrics -------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, in wall seconds.

    ``ops`` are the pass's op records (``wall`` seconds plus the
    ``counters`` read around the op).  Times (``*_s``) and counts are
    per op; fractions and rates are ratios of totals.  The harness adds
    ``trace_overhead_frac``, which needs an untraced run.
    """
    n = len(ops)
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    top_level = materialize_s = sweep_s = 0.0
    messages = slow_calls = dests = 0
    vls: list[int] = []
    resweeps_ran = incremental = resweep_dests = truncated = 0
    for i, span in enumerate(spans):
        if not isinstance(span.op, int):
            continue
        name = span.name
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        errors[name] = errors.get(name, 0) + span.error
        if span.parent is None:
            top_level += span.end - span.start
        attrs = span.attrs or {}
        if name == "job.materialize":
            messages += attrs.get("messages", 0)
            materialize_s += span.end - span.start
        elif name == "fabric.path" and _under(spans, i, "job.materialize"):
            slow_calls += 1
        elif name == "routing.sweep" and not _under(spans, i, "routing.sweep"):
            dests += attrs.get("dests", 0)
            sweep_s += span.end - span.start
        elif name == "sm.route" and "num_vls" in attrs:
            vls.append(attrs["num_vls"])
        elif name == "sm.resweep" and attrs:
            resweeps_ran += attrs["ran"]
            incremental += attrs["incremental"]
            resweep_dests += attrs["dests"]
        elif name == "sim.run" and attrs:
            truncated += attrs["events_truncated"]
    counters: dict[str, int] = {}
    for op in ops:
        for key, value in op["counters"].items():
            counters[key] = counters.get(key, 0) + value
    wall = sum(op["wall"] for op in ops)
    hits = counters.get("memory_hits", 0) + counters.get("disk_hits", 0)
    lookups = hits + counters.get("routed", 0)

    def per_op(value: float) -> float:
        return _ratio(value, n)

    def s(name: str) -> float:
        return per_op(self_s.get(name, 0.0))

    def c(name: str) -> float:
        return per_op(calls.get(name, 0))

    return {
        "job.materialize_s": s("job.materialize"),
        "job.messages": per_op(messages),
        "job.us_per_msg": _ratio(materialize_s * 1e6, messages),
        "fabric.dest_paths_s": s("fabric.dest_paths"),
        "fabric.slow_path_calls": per_op(slow_calls),
        "fabric.slow_path_frac": _ratio(slow_calls, messages),
        "sim.phase_s": s("sim.phase"),
        "sim.phases": c("sim.phase"),
        "fairness.solve_s": s("fairness.solve"),
        "fairness.solves": c("fairness.solve"),
        "sim.events_truncated": per_op(truncated),
        "routing.sweep_s": s("routing.sweep"),
        "routing.dests_per_s": _ratio(dests, sweep_s),
        "vl.cdg_s": s("vl.cdg"),
        "vl.layer_s": s("vl.layer"),
        "vl.num_vls": _ratio(sum(vls), len(vls)),
        "sm.route_s": s("sm.route"),
        "sm.resweep_s": s("sm.resweep"),
        "sm.resweeps": per_op(resweeps_ran),
        "sm.resweep_incremental_frac": _ratio(incremental, resweeps_ran),
        "routing.resweep_dests": per_op(resweep_dests),
        "whatif.audit_s": s("whatif.audit"),
        "lint.preflight_s": s("lint.preflight"),
        "cache.build_s": s("cache.build"),
        "cache.load_s": s("cache.load"),
        "cache.store_s": s("cache.store"),
        "cache.load_errors": per_op(errors.get("cache.load", 0)),
        "cache.hit_ratio": _ratio(hits, lookups),
        "cache.mmap_attaches": per_op(counters.get("mmap_attaches", 0)),
        "topology.build_s": s("topology.build"),
        "pool.parallel_sweeps": per_op(counters.get("parallel_sweeps", 0)),
        "pool.serial_fallbacks": per_op(counters.get("serial_fallbacks", 0)),
        "pool.spawns": per_op(counters.get("pool_spawns", 0)),
        "campaign.cell_s": s("campaign.cell"),
        "ledger.append_s": s("ledger.append"),
        "unattributed_s": per_op(wall - top_level),
    }


def _under(spans: list[Span], index: int, name: str) -> bool:
    """Whether span ``index`` has an ancestor called ``name``."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
