"""The phase-stepping flow simulator.

Executes a :class:`~repro.sim.flows.Program`: for every phase, its
messages become concurrent flows that share link bandwidth max-min
fairly; the phase ends when the last message lands.  Two fidelity modes:

* ``dynamic`` (default) — a discrete-event loop *within* each phase:
  when a flow finishes, the remaining flows' rates are recomputed, so
  late flows inherit freed bandwidth.  Exact for the flow model.
* ``static`` — one fairness computation per phase; each flow keeps its
  initial rate.  A conservative (never optimistic) approximation that
  is much cheaper on full-machine all-to-alls; benchmarks that sweep
  hundreds of configurations use it.

Both modes add the constant latency part (software overhead + per-hop
pipeline) on top of the serialisation time.

The simulator reads link capacities through a live
:class:`~repro.topology.state.FabricState` view, refreshed at every
phase boundary, so fault injection after construction is honoured.  A
:class:`~repro.topology.faults.FaultTimeline` schedules mid-run events
(cable failures, degrades, restores) at phase boundaries; paths that
cross a disabled link are rerouted through the ``reroute`` callback when
one is provided, and rejected with a stale-LFT diagnostic otherwise —
a dead cable must never simulate at line rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.sim.fairness import FairnessProblem
from repro.sim.flows import Message, Phase, Program
from repro.sim.latency import QDR_LATENCY, LatencyModel
from repro.topology.faults import FabricEvent, FaultTimeline
from repro.topology.network import Network
from repro.topology.state import FabricState

#: Dynamic-mode safety valve: after this many rate recomputations per
#: phase the remaining flows are finished at their current rates.
_MAX_EVENTS_PER_PHASE = 2000

#: Called after the simulator applies fabric events before a phase:
#: ``(events, phase_index) -> report or None``.  The usual hook is an SM
#: re-sweep (:func:`repro.ib.subnet_manager.resweep`); whatever it
#: returns is collected in :attr:`FlowSimulator.reroute_reports`.
FabricEventHook = Callable[[list[FabricEvent], int], Any]

#: Maps a message with a stale path to a fresh link-id path (after a
#: re-sweep), or ``None`` when the pair is unreachable.
RerouteFn = Callable[[Message], Sequence[int] | None]


@dataclass(slots=True)
class PhaseResult:
    """Timing of one executed phase."""

    label: str
    duration: float
    num_messages: int
    bytes_moved: float
    #: Serialisation time of the phase: when the last flow drained,
    #: excluding the constant latency part.  Utilisation accounting
    #: divides by this, not by wall time with compute gaps.
    transfer_time: float = 0.0
    #: Per-message completion times, aligned with the phase's message
    #: list; only populated when the simulator collects details.
    message_times: list[float] | None = None
    #: Link ids this phase moved bytes over, and the busy seconds each
    #: accumulated (bytes / capacity *in effect while the phase ran*).
    #: Utilisation accounting sums these per-phase snapshots, so a
    #: mid-run degrade/restore is charged against the right denominator.
    #: ``None`` only on hand-built results that predate the fields.
    link_ids: np.ndarray | None = None
    link_busy: np.ndarray | None = None
    #: Flows the dynamic mode's safety valve finished at their current
    #: rates after ``_MAX_EVENTS_PER_PHASE`` rate recomputations (0 in
    #: static mode and whenever the event loop converged).  Non-zero
    #: means the phase's late completions are approximate.
    events_truncated: int = 0


@dataclass(slots=True)
class SimResult:
    """Timing of a whole program."""

    label: str
    total_time: float
    phases: list[PhaseResult] = field(default_factory=list)
    #: Fabric events the simulator's timeline applied during this run.
    events_applied: int = 0
    #: Messages whose stale paths were healed via the reroute callback.
    messages_rerouted: int = 0
    #: Sum of the phases' :attr:`PhaseResult.events_truncated` — flows
    #: whose finish times the dynamic safety valve approximated.
    events_truncated: int = 0

    @property
    def bytes_moved(self) -> float:
        return sum(p.bytes_moved for p in self.phases)

    @property
    def transfer_time(self) -> float:
        """Total serialisation time across phases (no gaps, no latency)."""
        return sum(p.transfer_time for p in self.phases)

    def message_bandwidths(self, program: Program) -> list[tuple[Message, float]]:
        """Observable bandwidth of every message of ``program``.

        Pairs the per-message completion times collected during the run
        with the program's messages (the result stores only timings, not
        the messages themselves): bandwidth = payload / completion time,
        0.0 for zero-byte messages.  Requires the result to come from
        ``run(program, collect_messages=True)`` on the same program;
        raises :class:`SimulationError` otherwise.
        """
        if len(program.phases) != len(self.phases):
            raise SimulationError(
                f"program has {len(program.phases)} phases but this result "
                f"recorded {len(self.phases)}; pass the program this result "
                "was produced from"
            )
        out: list[tuple[Message, float]] = []
        for phase, pr in zip(program.phases, self.phases):
            if pr.message_times is None:
                raise SimulationError(
                    "per-message times were not collected; run with "
                    "collect_messages=True"
                )
            if len(pr.message_times) != len(phase.messages):
                raise SimulationError(
                    f"phase {pr.label!r} recorded {len(pr.message_times)} "
                    f"message times for {len(phase.messages)} messages"
                )
            for msg, t in zip(phase.messages, pr.message_times):
                bw = msg.size / t if msg.size > 0 and t > 0 else 0.0
                out.append((msg, bw))
        return out


class FlowSimulator:
    """Max-min fair flow simulator over one network plane.

    Parameters
    ----------
    timeline:
        Optional :class:`~repro.topology.faults.FaultTimeline`; its
        events are applied (once per simulator) at the phase boundary
        they name, before the phase runs.
    on_fabric_event:
        Hook invoked with ``(events, phase_index)`` right after events
        are applied — typically an SM re-sweep; a non-``None`` return is
        appended to :attr:`reroute_reports`.
    reroute:
        Given a message whose path crosses a disabled link, returns a
        fresh path (from the re-swept fabric) or ``None`` when the pair
        is unreachable.  Without it, stale paths raise.
    """

    def __init__(
        self,
        net: Network,
        latency: LatencyModel = QDR_LATENCY,
        mode: str = "dynamic",
        timeline: FaultTimeline | Sequence[FabricEvent] | None = None,
        on_fabric_event: FabricEventHook | None = None,
        reroute: RerouteFn | None = None,
    ) -> None:
        if mode not in ("dynamic", "static"):
            raise SimulationError(f"unknown mode {mode!r}")
        self.net = net
        self.latency = latency
        self.mode = mode
        self.state = FabricState(net)
        if timeline is not None and not isinstance(timeline, FaultTimeline):
            timeline = FaultTimeline(tuple(timeline))
        self.timeline = timeline or FaultTimeline()
        self.on_fabric_event = on_fabric_event
        self.reroute = reroute
        #: ``(event, representative link id)`` pairs, in firing order.
        self.events_applied: list[tuple[FabricEvent, int]] = []
        self.messages_rerouted = 0
        #: Flows the dynamic safety valve finished at their current rates,
        #: summed over every phase this simulator ran — non-zero means
        #: some completion times it reported are approximate.
        self.events_truncated = 0
        #: Whatever ``on_fabric_event`` returned, per event batch
        #: (RerouteReports when the hook is an SM re-sweep).
        self.reroute_reports: list[Any] = []
        self._fired: set[int] = set()  # timeline indices already applied
        # Per-link "joins two switches" mask for vectorised hop counts.
        # Link endpoints are immutable and links are append-only, so the
        # link count alone keys the cache (unlike capacities, which need
        # the version counter).
        self._swsw_mask: np.ndarray = np.empty(0, dtype=bool)

    @property
    def _capacity(self) -> np.ndarray:
        """Live per-link capacities (back-compat alias for the state view)."""
        return self.state.capacities

    # --- public API -----------------------------------------------------------
    def run(self, program: Program, collect_messages: bool = False) -> SimResult:
        """Execute a program; returns per-phase and total timing.

        Timeline events scheduled for phase ``i`` fire just before phase
        ``i`` is simulated (events past the last phase never fire); each
        event fires at most once per simulator, so repeated ``run`` calls
        do not compound degrades.
        """
        result = SimResult(label=program.label, total_time=0.0)
        events_before = len(self.events_applied)
        rerouted_before = self.messages_rerouted
        for i, phase in enumerate(program.phases):
            fired = self._apply_events(i)
            if fired and self.on_fabric_event is not None:
                report = self.on_fabric_event(fired, i)
                if report is not None:
                    self.reroute_reports.append(report)
            phase = self._heal_phase(phase)
            pr = self.run_phase(phase, collect_messages=collect_messages)
            result.phases.append(pr)
            result.total_time += pr.duration
            result.events_truncated += pr.events_truncated
            if i + 1 < len(program.phases):
                result.total_time += program.compute_between_phases
        result.events_applied = len(self.events_applied) - events_before
        result.messages_rerouted = self.messages_rerouted - rerouted_before
        return result

    def run_phase(self, phase: Phase, collect_messages: bool = False) -> PhaseResult:
        """Execute one synchronised round of messages.

        Reads only the phase's :class:`~repro.sim.batch.MessageBatch`;
        ``Message`` objects are built only to name a message in an
        error.
        """
        batch = phase.batch
        if not batch.n:
            return PhaseResult(
                label=phase.label,
                duration=0.0,
                num_messages=0,
                bytes_moved=0.0,
                transfer_time=0.0,
                message_times=[] if collect_messages else None,
                link_ids=np.empty(0, dtype=np.intp),
                link_busy=np.empty(0),
            )
        # Every mutation — including direct ``link.capacity = x`` field
        # writes, which bump the version via the Link setters — moves the
        # version counter, so the cheap version check suffices here.
        self.state.refresh()

        lens, ptr, flat = batch.lens, batch.ptr, batch.flat
        sizes = batch.sizes
        self._check_paths(phase, ptr, flat, sizes)

        # Switch-switch hops per message: cumsum-difference over the flat
        # link array — one pass, no per-path Python loop or cache.
        swsw = self._switch_switch_mask()
        hop_csum = np.concatenate(
            ([0], swsw[flat].cumsum())
        ).astype(np.intp)
        hops = hop_csum[ptr[1:]] - hop_csum[ptr[:-1]]
        const = self.latency.constant_times(hops, batch.overheads)

        caps = self.state.capacities
        problem = FairnessProblem(None, caps, prebuilt_flat=(lens, flat))
        truncated = 0
        if self.mode == "static":
            finish = self._static_finish(phase, problem, sizes)
        else:
            finish, truncated = self._dynamic_finish(phase, problem, sizes)
            self.events_truncated += truncated

        # Per-phase busy-seconds snapshot: bytes over each link divided
        # by the capacity in effect *now*, while the phase's bytes move.
        # ``_check_paths`` already refused flows over zero-capacity
        # links, so every touched link divides by a positive capacity.
        bytes_on = batch.bytes_per_link(len(caps))
        touched = np.flatnonzero(bytes_on)
        busy = bytes_on[touched] / caps[touched]

        times = const + finish
        duration = float(times.max())
        return PhaseResult(
            label=phase.label,
            duration=duration,
            num_messages=batch.n,
            bytes_moved=float(sizes.sum()),
            transfer_time=float(finish.max()),
            message_times=times.tolist() if collect_messages else None,
            link_ids=touched,
            link_busy=busy,
            events_truncated=truncated,
        )

    def link_utilization(
        self, program: Program, result: SimResult | None = None
    ) -> dict[int, float]:
        """Average utilisation (0..1) of every link a program touches.

        Utilisation = bytes carried / (capacity x transfer time), where
        transfer time is the sum of per-phase serialisation times —
        compute gaps and the constant latency floor carry no bytes, so
        counting them would under-report hot links in multi-phase
        programs.  This mirrors the paper's port-counter methodology
        (section 2.3's cable-filter criterion and the ibprof-based
        profiling both read hardware counters like this).

        Bytes are charged against the capacity *in effect while each
        phase ran* (the per-phase busy-seconds snapshots the run
        recorded), so a :class:`~repro.topology.faults.FaultTimeline`
        degrade or restore mid-run divides each phase's bytes by that
        phase's capacity — not by whatever the capacity happens to be
        after the run.

        Pass a ``result`` from a previous :meth:`run` of the *same*
        program to reuse its transfer time instead of simulating again —
        one run then yields both timing and utilisation.
        """
        if result is None:
            result = self.run(program)
        elif len(result.phases) != len(program.phases):
            raise SimulationError(
                f"program has {len(program.phases)} phases but the supplied "
                f"result recorded {len(result.phases)}; pass the result of "
                "running this same program"
            )
        transfer = result.transfer_time
        if transfer <= 0:
            return {}
        caps = self.state.capacities
        if all(pr.link_ids is not None for pr in result.phases):
            busy_total = np.zeros(len(caps))
            for pr in result.phases:
                busy_total[pr.link_ids] += pr.link_busy
            return {
                int(l): float(busy_total[l] / transfer)
                for l in np.flatnonzero(busy_total)
            }
        # Hand-built results without per-phase snapshots: accumulate
        # bytes via the shared batch kernel and divide by the current
        # capacities (the only view available after the fact).
        bytes_total = np.zeros(len(caps))
        for phase in program.phases:
            bytes_total += phase.batch.bytes_per_link(len(caps))
        return {
            int(l): float(bytes_total[l] / (caps[l] * transfer))
            for l in np.flatnonzero(bytes_total)
        }

    def hottest_links(
        self, program: Program, top: int = 5, result: SimResult | None = None
    ) -> list[tuple[int, float]]:
        """The ``top`` most utilised links of a program, hottest first.

        ``result`` is forwarded to :meth:`link_utilization`: supply the
        program's existing :class:`SimResult` to avoid a second run.
        """
        util = self.link_utilization(program, result=result)
        # Ties break on link id, so the cut at ``top`` never depends on
        # dict insertion order.
        return sorted(util.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    def pair_bandwidths(
        self, phase: Phase
    ) -> list[tuple[Message, float]]:
        """Observable bandwidth per message of a concurrent phase.

        The mpiGraph-style metric: payload divided by completion time
        (including the latency floor).  Zero-byte messages report 0.
        """
        pr = self.run_phase(phase, collect_messages=True)
        assert pr.message_times is not None
        out = []
        for msg, t in zip(phase.messages, pr.message_times):
            bw = msg.size / t if msg.size > 0 and t > 0 else 0.0
            out.append((msg, bw))
        return out

    # --- fault timeline ----------------------------------------------------------
    def _apply_events(self, phase_index: int) -> list[FabricEvent]:
        """Fire all not-yet-applied events due at or before ``phase_index``."""
        fired: list[FabricEvent] = []
        for idx, event in enumerate(self.timeline):
            if idx in self._fired or event.phase > phase_index:
                continue
            cable = event.apply(self.net)
            self._fired.add(idx)
            self.events_applied.append((event, cable.id))
            fired.append(event)
        return fired

    def _heal_phase(self, phase: Phase) -> Phase:
        """Replace stale paths over disabled links via the reroute callback.

        One mask gather over the phase's flat link array finds the
        messages that cross a disabled link; only those are built as
        :class:`~repro.sim.flows.Message` objects and handed to the
        callback, and the batch is rebuilt with their new paths in
        message order.  Without a callback the phase is returned
        untouched and :meth:`run_phase` raises the stale-LFT diagnostic
        instead.
        """
        if self.reroute is None:
            return phase
        self.state.refresh()
        if not self.state.disabled:
            return phase
        batch = phase.batch
        dead_csum = np.concatenate(
            ([0], self.state.disabled_mask[batch.flat].cumsum())
        )
        hit = np.flatnonzero(dead_csum[batch.ptr[1:]] > dead_csum[batch.ptr[:-1]])
        if not hit.size:
            return phase
        messages = phase.messages
        new_paths: dict[int, tuple[int, ...]] = {}
        for i in hit.tolist():
            m = messages[i]
            dead = self.state.disabled_on(m.path)
            new_path = self.reroute(m)
            if new_path is None:
                raise SimulationError(
                    f"message {m.src}->{m.dst} in phase {phase.label!r} "
                    f"cannot be rerouted: pair unreachable after cable "
                    f"failure (dead link(s) {dead})"
                )
            new_path = tuple(new_path)
            still_dead = self.state.disabled_on(new_path)
            if still_dead:
                raise SimulationError(
                    f"reroute for message {m.src}->{m.dst} still crosses "
                    f"disabled link(s) {still_dead}; the forwarding "
                    "tables were not re-swept after the failure"
                )
            new_paths[i] = new_path
            self.messages_rerouted += 1
        return Phase(
            label=phase.label,
            batch=batch.replace_paths(new_paths),
            tag=phase.tag,
        )

    def _check_paths(
        self,
        phase: Phase,
        ptr: np.ndarray,
        flat: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Refuse stale paths over dead links and flows that cannot progress.

        ``ptr``/``flat`` are the phase's flattened link-id paths (message
        ``i`` owns ``flat[ptr[i]:ptr[i+1]]``); the scan is a pair of mask
        gathers, and only the (cold) failure path walks messages in
        Python to name the offending links.
        """
        dis = self.state.disabled_mask
        npos = self.state.nonpositive_mask
        if not (dis.any() or npos.any()):
            return
        flat_dead = dis[flat]
        if flat_dead.any():
            first = int(
                np.searchsorted(
                    ptr, np.flatnonzero(flat_dead)[0], side="right"
                )
            ) - 1
            m = phase.messages[first]
            dead = self.state.disabled_on(m.path)
            raise SimulationError(
                f"message {m.src}->{m.dst} in phase {phase.label!r} uses "
                f"disabled link(s) {dead}: its path predates a cable "
                "failure, so the forwarding table entry is stale. "
                "Re-sweep the fabric (OpenSM.resweep) and rebuild the "
                "program's paths before simulating."
            )
        starve_csum = np.concatenate(
            ([0], npos[flat].cumsum())
        ).astype(np.intp)
        starved_msgs = (
            (starve_csum[ptr[1:]] - starve_csum[ptr[:-1]]) > 0
        ) & (sizes > 0)
        if starved_msgs.any():
            m = phase.messages[int(np.flatnonzero(starved_msgs)[0])]
            starved = self.state.nonpositive_on(m.path)
            raise SimulationError(
                f"message {m.src}->{m.dst} in phase {phase.label!r} is "
                f"starved: link(s) {starved} on its path have zero "
                "capacity, so the flow would never finish"
            )

    # --- internals ---------------------------------------------------------------
    def _switch_switch_mask(self) -> np.ndarray:
        """Per-link-id bool array: link connects two switches.

        Gathered from the cached switch graph's per-link endpoint
        arrays — two vectorised compares instead of a Python generator
        over every link.  Endpoint kinds are immutable, so any graph
        version yields the same mask.
        """
        n = len(self.net.links)
        if len(self._swsw_mask) != n:
            g = self.net.switch_graph()
            self._swsw_mask = (
                (g.index[g.link_src_node] >= 0) & (g.link_dst_index >= 0)
            )
        return self._swsw_mask

    def _raise_if_starved(
        self, phase: Phase, idx: np.ndarray, bad: np.ndarray
    ) -> None:
        """Turn a non-finite time-to-finish into a named error.

        A flow with max-min rate 0 has infinite time-to-finish; the old
        behaviour mapped that to 0.0, so starved flows "completed"
        instantly — the exact opposite of the truth.
        """
        first = phase.messages[int(idx[int(np.flatnonzero(bad)[0])])]
        raise SimulationError(
            f"flow {first.src}->{first.dst} ({first.size:.0f} B) is starved: "
            "its max-min fair rate is 0, so it would never finish"
        )

    def _static_finish(
        self, phase: Phase, problem: FairnessProblem, sizes: np.ndarray
    ) -> np.ndarray:
        rates = problem.rates()
        with np.errstate(invalid="ignore"):
            finish = np.where(sizes > 0, sizes / rates, 0.0)
        bad = ~np.isfinite(finish)
        if bad.any():
            self._raise_if_starved(phase, np.arange(len(sizes)), bad)
        return finish

    def _dynamic_finish(
        self, phase: Phase, problem: FairnessProblem, sizes: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Finish times plus the count of safety-valve-truncated flows."""
        n = len(sizes)
        finish = np.zeros(n)
        # The loop state lives in arrays aligned with the *active* flow
        # subset (``idx`` maps back to message order) and shrinks as
        # flows complete; the per-class multiplicities are maintained
        # incrementally, so one event is a handful of O(active) numpy
        # ops plus the class-level solve.
        idx = np.flatnonzero(sizes > 0)
        rem = sizes[idx]
        tol = 1e-6 * rem + 1e-9
        fc = problem.flow_class[idx]
        linked = fc >= 0
        all_linked = bool(linked.all())
        counts = np.bincount(
            fc if all_linked else fc[linked], minlength=problem.n_classes
        ).astype(float)
        now = 0.0

        def subset_rates() -> np.ndarray:
            crates = problem.solve_classes(counts)
            if all_linked:
                return crates[fc]
            return np.where(linked, crates[np.maximum(fc, 0)], np.inf)

        with np.errstate(invalid="ignore", divide="ignore"):
            for _ in range(_MAX_EVENTS_PER_PHASE):
                if idx.size == 0:
                    return finish, 0
                rates = subset_rates()
                ttf = rem / rates
                bad = ~np.isfinite(ttf)
                if bad.any():
                    self._raise_if_starved(phase, idx, bad)
                dt = float(ttf.min())
                now += dt
                rem = rem - rates * dt
                # Everything within a relative hair of zero lands now;
                # the tolerance batches symmetric flows into one event.
                done = rem <= tol
                if done.any():
                    finish[idx[done]] = now
                    dfc = fc[done]
                    counts -= np.bincount(
                        dfc if all_linked else dfc[dfc >= 0],
                        minlength=problem.n_classes,
                    )
                    keep = ~done
                    idx = idx[keep]
                    rem = rem[keep]
                    tol = tol[keep]
                    fc = fc[keep]
                    if not all_linked:
                        linked = linked[keep]
                        all_linked = bool(linked.all())
            # Safety valve: finish stragglers at their current rates,
            # and count them so callers can see the approximation.
            truncated = int(idx.size)
            if idx.size:
                rates = subset_rates()
                ttf = rem / rates
                bad = ~np.isfinite(ttf)
                if bad.any():
                    self._raise_if_starved(phase, idx, bad)
                finish[idx] = now + ttf
        return finish, truncated
