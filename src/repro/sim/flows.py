"""Traffic containers: messages, synchronised phases, programs.

The MPI layer lowers every operation into a :class:`Program` — an
ordered list of :class:`Phase` objects.  All messages of a phase start
together and the phase ends when the last one lands (the classic
bulk-synchronous approximation of collective rounds); successive phases
are dependency-ordered.  The simulator only ever sees these containers,
so workloads, collectives and benchmarks all speak one language.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.sim.batch import MessageBatch


@dataclass(frozen=True, slots=True)
class Message:
    """One point-to-point transfer, already resolved onto the fabric.

    Frozen: a phase stores its messages as one
    :class:`~repro.sim.batch.MessageBatch`, and a ``Message`` is a
    read-only record built from it, so an attribute write would edit
    nothing.  Use :func:`dataclasses.replace` for a changed copy.

    Attributes
    ----------
    src, dst:
        Terminal node ids (not MPI ranks — the job object did the
        rank-to-node mapping before building messages).
    size:
        Payload bytes.
    path:
        Link-id sequence the message travels (empty for self-sends).
    overhead:
        Per-message software latency (PML-dependent; this is where the
        bfo penalty of section 5.1 lives).
    tag:
        Free-form label for reporting (e.g. "bcast-round-2").
    """

    src: int
    dst: int
    size: float
    path: tuple[int, ...]
    overhead: float = 0.0
    tag: str = ""


class PhaseMessages(Sequence):
    """Read-only ``Message`` view of a phase's batch.

    ``len()`` is O(1); items are built on demand from the batch arrays,
    for the per-message consumers (bandwidth readouts, diagnostics,
    reroute callbacks).  There is no item assignment and no append: a
    phase's messages change only by giving the phase a new batch.
    """

    __slots__ = ("_phase",)

    def __init__(self, phase: "Phase") -> None:
        self._phase = phase

    def __len__(self) -> int:
        return self._phase.batch.n

    def __getitem__(self, i):  # type: ignore[override]
        n = len(self)
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("phase message index out of range")
        b = self._phase.batch
        return Message(
            src=int(b.src[i]),
            dst=int(b.dst[i]),
            size=float(b.sizes[i]),
            path=tuple(b.flat[b.ptr[i]:b.ptr[i + 1]].tolist()),
            overhead=float(b.overheads[i]),
            tag=self._phase.tag_of(i),
        )

    def __iter__(self) -> Iterator[Message]:
        b = self._phase.batch
        flat = b.flat.tolist()
        ptr = b.ptr.tolist()
        for i, (src, dst, size, overhead) in enumerate(zip(
            b.src.tolist(), b.dst.tolist(), b.sizes.tolist(),
            b.overheads.tolist(),
        )):
            yield Message(
                src, dst, size, tuple(flat[ptr[i]:ptr[i + 1]]), overhead,
                self._phase.tag_of(i),
            )

    def __repr__(self) -> str:
        return f"PhaseMessages({list(self)!r})"


class Phase:
    """A synchronised round of messages, stored as one
    :class:`~repro.sim.batch.MessageBatch`.

    The batch is the phase's only content: builders (the job layer)
    pass ``batch=`` directly, and a hand-built ``Phase(messages)`` is
    flattened once here.  :attr:`messages` is a read-only view built on
    demand from the batch, so there is no second copy to fall out of
    step with it.  ``tag`` is every message's tag (a tuple of per-message
    tags when they differ, as after merging phases of different
    programs).
    """

    __slots__ = ("batch", "label", "tag")

    def __init__(
        self,
        messages: Iterable[Message] = (),
        label: str = "",
        *,
        batch: MessageBatch | None = None,
        tag: str | tuple[str, ...] = "",
    ) -> None:
        if batch is None:
            msgs = list(messages)
            batch = MessageBatch.from_messages(msgs)
            tags = tuple(m.tag for m in msgs)
            if tags:
                tag = tags[0] if len(set(tags)) == 1 else tags
        elif messages:
            raise TypeError("pass a phase's messages or its batch, not both")
        self.batch = batch
        self.label = label
        self.tag = tag

    @property
    def messages(self) -> PhaseMessages:
        """The phase's messages as a read-only view of the batch."""
        return PhaseMessages(self)

    def tag_of(self, i: int) -> str:
        """Tag of message ``i``."""
        return self.tag if isinstance(self.tag, str) else self.tag[i]

    def __len__(self) -> int:
        return self.batch.n

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    def __repr__(self) -> str:
        return f"Phase(label={self.label!r}, messages={self.batch.n})"


@dataclass(slots=True)
class Program:
    """An ordered sequence of phases plus optional compute gaps.

    ``compute_between_phases`` seconds of pure computation separate
    consecutive phases (the EmDL benchmark's 0.1 s usleep, proxy-app
    compute sections); it is added once per gap by the simulator.
    """

    phases: list[Phase] = field(default_factory=list)
    label: str = ""
    compute_between_phases: float = 0.0

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def extend(self, other: "Program") -> None:
        """Append another program's phases (sequential composition)."""
        self.phases.extend(other.phases)


def program_bytes(program: Program) -> float:
    """Total payload bytes a program injects (tests: byte conservation)."""
    return sum(size for phase in program for size in phase.batch.sizes.tolist())


def merge_concurrent(programs: Iterable[Program], label: str = "") -> Program:
    """Zip programs phase-by-phase into one concurrently executing program.

    Phase ``i`` of the result holds every program's phase ``i`` messages;
    shorter programs simply stop contributing.  Used to model multiple
    applications sharing the fabric (the capacity evaluation).
    """
    progs = list(programs)
    out = Program(label=label)
    depth = max((len(p) for p in progs), default=0)
    for i in range(depth):
        parts = [p.phases[i] for p in progs if i < len(p)]
        tags = [ph.tag for ph in parts if len(ph)]
        if all(t == tags[0] and isinstance(t, str) for t in tags):
            tag: str | tuple[str, ...] = tags[0] if tags else ""
        else:
            tag = tuple(ph.tag_of(j) for ph in parts for j in range(len(ph)))
        out.phases.append(Phase(
            label=f"{label}[{i}]",
            batch=MessageBatch.concat([ph.batch for ph in parts]),
            tag=tag,
        ))
    return out
