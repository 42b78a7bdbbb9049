"""Per-message reference materialiser for :meth:`repro.mpi.job.Job.materialize`.

The job layer resolves all of a program's messages with array
operations.  This module is its executable specification, the loop it
replaced: per message, one :meth:`~repro.mpi.pml.Pml.lid_index` call,
one path resolution and one :class:`~repro.sim.flows.Message`; each
phase is then flattened by ``Phase(messages)``
(:meth:`~repro.sim.batch.MessageBatch.from_messages`).

A path is the source's uplink followed by the source switch's row of
the per-destination bulk walk (:func:`~repro.ib.tables.walk_dest_links`),
memoised per ``(src, dst, lid index)``; where the walk refuses a pair,
the per-pair :meth:`~repro.ib.fabric.Fabric.path` resolves it and
raises its diagnostic.
"""

from __future__ import annotations

from repro.ib.fabric import Fabric
from repro.ib.tables import walk_dest_links
from repro.mpi.collectives import RankPhase
from repro.mpi.job import Job
from repro.sim.flows import Message, Phase, Program


def _dest_rows(fabric: Fabric, dlid: int) -> list[tuple[int, ...] | None]:
    """Per-switch-row link tuples toward ``dlid`` (``None``: refused)."""
    n_rows = fabric.tables.dense.shape[0]
    col = fabric.tables.column_of(dlid)
    if col is None:
        return [None] * n_rows
    ok, lens, steps = walk_dest_links(
        fabric.tables.dense, fabric.net.switch_graph(), col,
        fabric.lidmap.node_of(dlid),
    )
    rows = steps.T.tolist()
    return [
        tuple(rows[r][:length]) if good else None
        for r, (good, length) in enumerate(zip(ok.tolist(), lens.tolist()))
    ]


def _bulk_path(
    fabric: Fabric, dest: dict, src: int, dst: int, lidx: int
) -> tuple[int, ...] | None:
    uplink = fabric.net.terminal_uplink(src)
    row = fabric.tables.row_of(uplink.dst)
    if row is None:
        return None
    dlid = fabric.lidmap.lid(dst, lidx)
    if dlid not in dest:
        dest[dlid] = _dest_rows(fabric, dlid)
    swpath = dest[dlid][row]
    return None if swpath is None else (uplink.id, *swpath)


def reference_materialize(
    job: Job,
    rank_phases: list[RankPhase],
    label: str = "",
    compute_between_phases: float = 0.0,
) -> Program:
    """``job.materialize(rank_phases, ...)``, one message at a time."""
    fabric, pml = job.fabric, job.pml
    paths: dict[tuple[int, int, int], tuple[int, ...]] = {}
    dest: dict = {}
    program = Program(label=label, compute_between_phases=compute_between_phases)
    for i, rp in enumerate(rank_phases):
        messages = []
        for s_rank, d_rank, size in rp:
            src, dst = job.nodes[s_rank], job.nodes[d_rank]
            if src == dst:
                continue  # local copy, no network traffic
            lidx = pml.lid_index(fabric, src, dst, size)
            key = (src, dst, lidx)
            if key not in paths:
                path = _bulk_path(fabric, dest, src, dst, lidx)
                if path is None:
                    path = tuple(fabric.path(src, dst, lidx))
                paths[key] = path
            messages.append(Message(
                src=src, dst=dst, size=float(size), path=paths[key],
                overhead=pml.overhead, tag=label,
            ))
        program.phases.append(Phase(
            messages, label=f"{label}[{i}]" if label else f"phase{i}",
            tag=label,
        ))
    return program
