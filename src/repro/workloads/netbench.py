"""Pure network benchmarks (paper section 4.1, plus the capacity pair).

* :func:`imb_collective` — Intel MPI Benchmarks single-mode collectives
  (Bcast, Gather, Scatter, Reduce, Allreduce, Alltoall, Barrier): the
  minimum latency over repetitions for a message-size sweep (Fig. 4/5b),
* :func:`mpigraph` — the all-shifts bandwidth matrix of Figure 1,
* :func:`effective_bisection_bandwidth` — Netgauge's eBB: random
  bisect-and-match patterns at 1 MiB (Fig. 5c),
* :func:`baidu_allreduce` — DeepBench's ring allreduce latency sweep
  (Fig. 5a),
* :func:`multi_pingpong` — IMB Multi-PingPong between node halves (the
  capacity benchmark MuPP, and the 512 B threshold calibration of
  section 3.2.4),
* :func:`emdl` — the paper's modified Allreduce alternating a 0.1 s
  compute phase with communication, mimicking deep-learning training.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng
from repro.core.units import MIB
from repro.mpi.job import Job
from repro.sim.engine import FlowSimulator
from repro.sim.flows import Phase, Program
from repro.workloads.patterns import bisection_pairs, shift_pattern

#: IMB collective name -> Job method builder (the paper's "single-mode
#: MPI-1 collectives (non-v version), meaning Barrier, Bcast, ...,
#: Alltoall").
IMB_COLLECTIVES = (
    "Bcast",
    "Gather",
    "Scatter",
    "Reduce",
    "Allreduce",
    "Reduce_scatter",
    "Allgather",
    "Alltoall",
    "Barrier",
)

#: IMB's default message-size sweep: powers of two, 1 B .. 4 MiB.
IMB_MESSAGE_SIZES = tuple(2**i for i in range(23))


def imb_collective(job: Job, op: str, size: float) -> Program:
    """Build one IMB collective as a program (latency measured by the
    caller via the simulator)."""
    if op == "Bcast":
        return job.bcast(size)
    if op == "Gather":
        return job.gather(size)
    if op == "Scatter":
        return job.scatter(size)
    if op == "Reduce":
        return job.reduce(size)
    if op == "Allreduce":
        return job.allreduce(size)
    if op == "Reduce_scatter":
        return job.reduce_scatter(size)
    if op == "Allgather":
        return job.allgather(size)
    if op == "Alltoall":
        return job.alltoall(size)
    if op == "Barrier":
        return job.barrier()
    raise ConfigurationError(f"unknown IMB collective {op!r}")


def imb_latency(
    job: Job, sim: FlowSimulator, op: str, size: float
) -> float:
    """One IMB data point: the operation's completion time in seconds.

    (IMB reports t_min over repetitions; the flow model is deterministic
    per configuration, so one run IS the minimum — run-to-run noise is
    added at the experiment-runner level.)
    """
    return sim.run(imb_collective(job, op, size)).total_time


def mpigraph(
    job: Job, sim: FlowSimulator, size: float = 1 * MIB
) -> np.ndarray:
    """The Figure 1 bandwidth heatmap: ``bw[src, dst]`` in bytes/second.

    mpiGraph measures one shift permutation at a time: for every shift
    ``k`` all pairs ``(i, i+k mod P)`` stream concurrently and each
    pair's observable bandwidth is recorded.  The diagonal stays 0.
    """
    p = job.num_ranks
    bw = np.zeros((p, p))
    node_rank = {n: r for r, n in enumerate(job.nodes)}
    for k in range(1, p):
        program = job.materialize([shift_pattern(p, size, k)], label=f"shift{k}")
        for msg, b in sim.pair_bandwidths(program.phases[0]):
            bw[node_rank[msg.src], node_rank[msg.dst]] = b
    return bw


def mpigraph_average(bw: np.ndarray) -> float:
    """Average off-diagonal bandwidth — the number the paper quotes for
    Figure 1 (2.26 / 0.84 / 1.39 GiB/s)."""
    p = bw.shape[0]
    off = bw[~np.eye(p, dtype=bool)]
    return float(off.mean())


def effective_bisection_bandwidth(
    job: Job,
    sim: FlowSimulator,
    samples: int = 100,
    size: float = 1 * MIB,
    seed: int = 0,
) -> float:
    """Netgauge eBB: mean per-pair bandwidth over random bisections.

    Each sample splits the ranks into random halves, matches them
    one-to-one, and streams ``size`` bytes both ways concurrently; the
    sample's value is the mean observable pair bandwidth.  The paper
    uses 1,000 samples of 1 MiB; benchmarks default to fewer for
    wallclock reasons (configurable).
    """
    p = job.num_ranks
    if p < 2:
        raise ConfigurationError("eBB needs at least two ranks")
    rng = make_rng(seed)
    values = []
    for _ in range(samples):
        phase_ranks = bisection_pairs(p, size, seed=rng)
        program = job.materialize([phase_ranks], label="ebb")
        bws = [b for _, b in sim.pair_bandwidths(program.phases[0])]
        values.append(float(np.mean(bws)))
    return float(np.mean(values))


def baidu_allreduce(
    job: Job, sim: FlowSimulator, num_floats: int
) -> float:
    """DeepBench ring-allreduce latency for an array of 4-byte floats.

    Figure 5a sweeps array lengths 0 .. 536M; the ring algorithm is the
    one Baidu's code implements (section 4.1).
    """
    size = float(num_floats) * 4.0
    if num_floats == 0:
        return sim.run(job.barrier()).total_time  # sync only
    return sim.run(job.allreduce(size, algorithm="ring")).total_time


def multi_pingpong(
    job: Job, sim: FlowSimulator, size: float, rounds: int = 1
) -> float:
    """IMB Multi-PingPong: concurrent pairs (i, i + P/2) ping-ponging.

    Returns the per-round round-trip completion time.  This is the
    benchmark the paper used to calibrate the 512-byte threshold: with
    several node pairs per switch pair the single inter-switch cable
    congests once messages carry real payload.
    """
    p = job.num_ranks
    if p < 2 or p % 2:
        raise ConfigurationError("Multi-PingPong needs an even rank count")
    half = p // 2
    ping = [(i, i + half, size) for i in range(half)]
    pong = [(i + half, i, size) for i in range(half)]
    program = job.materialize([ping, pong] * rounds, label="mupp")
    return sim.run(program).total_time / rounds


def emdl(
    job: Job,
    sim: FlowSimulator,
    size: float,
    steps: int = 4,
    compute_seconds: float = 0.1,
) -> float:
    """EmDL: Allreduce alternating with an 0.1 s compute phase.

    The paper's stand-in for data-parallel deep learning (footnote 12:
    "a modified IMB Allreduce ... alternating between communication and
    an 0.1 s compute phase simulated via usleep").
    """
    program = Program(label="emdl", compute_between_phases=0.0)
    one = job.allreduce(size, algorithm="ring")
    for step in range(steps):
        for ph in one.phases:
            program.phases.append(
                Phase(label=f"emdl{step}", batch=ph.batch, tag=ph.tag)
            )
    t = sim.run(program).total_time
    return t + steps * compute_seconds
