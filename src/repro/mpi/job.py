"""An MPI job: ranks placed on nodes, operations lowered to programs.

:class:`Job` is the main user-facing handle of the library::

    fabric = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())
    job = Job(fabric, nodes=placement, pml=ParxBfoPml())
    result = FlowSimulator(net).run(job.alltoall(1 * MIB))

It binds a routed fabric, a rank-to-node mapping (one rank per node,
the paper's execution model) and a PML, and materialises rank-level
phase lists into :class:`~repro.sim.flows.Program` objects whose phases
are :class:`~repro.sim.batch.MessageBatch` arrays.  Materialisation is
array-shaped: all phases' messages are resolved together, paths are
gathered from the fabric's per-destination walks
(:meth:`~repro.ib.fabric.Fabric.dest_paths`, memoised per destination
LID), and no per-message Python object is built.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.errors import ConfigurationError, ReproError
from repro.ib.fabric import Fabric
from repro.mpi import collectives as coll
from repro.mpi.collectives import RankPhase
from repro.mpi.pml import Ob1Pml, Pml
from repro.sim.batch import MessageBatch, segment_gather
from repro.sim.flows import Phase, Program


class Job:
    """Ranks on nodes over a routed fabric."""

    def __init__(
        self,
        fabric: Fabric,
        nodes: Sequence[int],
        pml: Pml | None = None,
    ) -> None:
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError("duplicate nodes in the allocation")
        for n in nodes:
            if not fabric.net.is_terminal(n):
                raise ConfigurationError(f"node {n} is not a terminal")
        self.fabric = fabric
        self.nodes = list(nodes)
        self.pml = pml or Ob1Pml()
        self._node_of_rank = np.asarray(self.nodes, dtype=np.int64)
        # Per-rank uplink id, host-switch table row and base LID, plus
        # the DLID -> table column lookup; rebuilt whenever the key
        # (topology version, tables identity and version) moves, like
        # the fabric's own path memos.
        self._rank_key: tuple[int, int, int] | None = None
        self._rank_uplink = np.empty(0, dtype=np.int64)
        self._rank_row = np.empty(0, dtype=np.int64)
        self._rank_base = np.empty(0, dtype=np.int64)
        self._col_of_dlid = np.empty(0, dtype=np.int64)

    @property
    def num_ranks(self) -> int:
        return len(self.nodes)

    def node_of_rank(self, rank: int) -> int:
        return self.nodes[rank]

    # --- lowering ---------------------------------------------------------------
    def materialize(
        self,
        rank_phases: list[RankPhase],
        label: str = "",
        compute_between_phases: float = 0.0,
    ) -> Program:
        """Resolve rank-level phases into a runnable program.

        Self-sends are dropped (a local copy moves no network bytes).
        The PML picks every message's LID index in message order, and
        each path is the source's uplink followed by the switch walk
        toward the chosen DLID.  Where the bulk walk refuses a pair,
        the per-pair :meth:`~repro.ib.fabric.Fabric.path` resolves it,
        raising its exact diagnostic.
        """
        fabric = self.fabric
        counts = [len(rp) for rp in rank_phases]
        triples = np.fromiter(
            chain.from_iterable(chain.from_iterable(rank_phases)),
            dtype=float,
            count=3 * sum(counts),
        ).reshape(-1, 3)
        s_rank = triples[:, 0].astype(np.int64)
        d_rank = triples[:, 1].astype(np.int64)
        remote = self._node_of_rank[s_rank] != self._node_of_rank[d_rank]
        s_rank, d_rank = s_rank[remote], d_rank[remote]
        sizes = triples[remote, 2]
        src = self._node_of_rank[s_rank]
        dst = self._node_of_rank[d_rank]
        lidx = self.pml.lid_indices(fabric, src, dst, sizes)
        batch = self._resolve_batch(s_rank, d_rank, src, dst, sizes, lidx)

        program = Program(
            label=label, compute_between_phases=compute_between_phases
        )
        bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
        ends = np.concatenate(([0], remote.cumsum()))[bounds].tolist()
        flat_ends = batch.ptr[ends].tolist()
        for i in range(len(counts)):
            a, b = ends[i], ends[i + 1]
            pa = flat_ends[i]
            part = MessageBatch(
                batch.sizes[a:b],
                batch.overheads[a:b],
                batch.src[a:b],
                batch.dst[a:b],
                batch.lens[a:b],
                batch.ptr[a:b + 1] - pa,
                batch.flat[pa:flat_ends[i + 1]],
            )
            program.phases.append(Phase(
                label=f"{label}[{i}]" if label else f"phase{i}",
                batch=part,
                tag=label,
            ))
        return program

    def _resolve_batch(
        self,
        s_rank: np.ndarray,
        d_rank: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        sizes: np.ndarray,
        lidx: np.ndarray,
    ) -> MessageBatch:
        """One batch of resolved messages (the body of :meth:`materialize`)."""
        fabric = self.fabric
        self._refresh_rank_arrays()
        n = len(src)
        lids_per_port = fabric.lidmap.lids_per_port
        bad_index = (lidx < 0) | (lidx >= lids_per_port)
        if bad_index.any():
            i = int(np.argmax(bad_index))
            fabric.lidmap.lid(int(dst[i]), int(lidx[i]))  # raises

        # DLID -> table column, then one bulk walk per distinct column.
        base = self._rank_base[d_rank]
        dlid = base + lidx
        lut = self._col_of_dlid
        in_lut = (base >= 0) & (dlid < len(lut))
        col = np.where(in_lut, lut[np.where(in_lut, dlid, 0)], -1)
        row = self._rank_row[s_rank]
        good = (col >= 0) & (row >= 0)
        n_cols = len(fabric.tables.dlids)
        used = np.zeros(n_cols, dtype=bool)
        used[col[good]] = True
        ucols = np.flatnonzero(used)
        walks = [
            fabric.dest_paths(int(d)) for d in fabric.tables.dlids[ucols]
        ]
        u_of_col = np.zeros(n_cols, dtype=np.intp)
        u_of_col[ucols] = np.arange(len(ucols))
        u = u_of_col[np.where(good, col, 0)]
        r = np.where(good, row, 0)

        # The walks' step matrices, transposed so each (row, DLID) path
        # is one contiguous segment of ``store``.
        n_rows = fabric.tables.dense.shape[0]
        if walks:
            depth = np.array([w[2].shape[0] for w in walks], dtype=np.intp)
            block = np.concatenate(([0], np.cumsum(depth * n_rows)))
            store = np.concatenate([w[2].T.ravel() for w in walks])
            good &= np.stack([w[0] for w in walks])[u, r]
            sw_lens = np.stack([w[1] for w in walks])[u, r].astype(np.intp)
            sw_lens[~good] = 0
            starts = block[u] + r * depth[u]
        else:
            store = np.empty(0, dtype=np.int32)
            sw_lens = starts = np.zeros(n, dtype=np.intp)
        lens = sw_lens + 1
        ptr = np.concatenate(([0], lens.cumsum())).astype(np.intp)
        flat = np.empty(int(ptr[-1]), dtype=np.intp)
        switch_part = np.ones(len(flat), dtype=bool)
        switch_part[ptr[:-1]] = False
        flat[ptr[:-1]] = self._rank_uplink[s_rank]
        flat[switch_part] = segment_gather(starts, sw_lens, store)
        batch = MessageBatch(
            sizes,
            np.full(n, float(self.pml.overhead)),
            src,
            dst,
            lens,
            ptr,
            flat,
        )
        if good.all():
            return batch
        # The bulk walk refused these pairs; the per-pair resolve raises
        # the precise diagnostic (or proves the walk wrong).
        return batch.replace_paths({
            i: fabric.path(int(src[i]), int(dst[i]), int(lidx[i]))
            for i in np.flatnonzero(~good).tolist()
        })

    def _refresh_rank_arrays(self) -> None:
        """Rebuild the per-rank resolution arrays if the fabric moved on."""
        fabric = self.fabric
        tables = fabric.tables
        key = (fabric.net.version, tables.uid, tables.version)
        if key == self._rank_key:
            return
        net = fabric.net
        uplink = np.full(len(self.nodes), -1, dtype=np.int64)
        row = np.full(len(self.nodes), -1, dtype=np.int64)
        for rank, node in enumerate(self.nodes):
            try:
                link = net.terminal_uplink(node)
            except ReproError:
                continue  # the per-pair fallback raises the diagnostic
            uplink[rank] = link.id
            r = tables.row_of(link.dst)
            if r is not None:
                row[rank] = r
        base = fabric.lidmap.base
        self._rank_uplink = uplink
        self._rank_row = row
        self._rank_base = np.fromiter(
            (base.get(node, -1) for node in self.nodes),
            dtype=np.int64,
            count=len(self.nodes),
        )
        dlids = tables.dlids
        lut = np.full(int(dlids[-1]) + 1 if len(dlids) else 0, -1, dtype=np.int64)
        lut[dlids] = np.arange(len(dlids))
        self._col_of_dlid = lut
        self._rank_key = key

    # --- MPI operations -----------------------------------------------------------
    def send(self, src_rank: int, dst_rank: int, size: float) -> Program:
        """A single point-to-point transfer."""
        return self.materialize([[(src_rank, dst_rank, size)]], label="send")

    #: Tuned-module switch point from binomial tree to segmented chain
    #: for Bcast/Reduce (Open MPI's decision for large payloads).
    PIPELINE_THRESHOLD: float = 32 * 1024

    def bcast(self, size: float, root: int = 0) -> Program:
        algo = (
            coll.pipeline_bcast
            if size >= self.PIPELINE_THRESHOLD
            else coll.binomial_bcast
        )
        return self.materialize(algo(self.num_ranks, size, root), label="bcast")

    def reduce(self, size: float, root: int = 0) -> Program:
        algo = (
            coll.pipeline_reduce
            if size >= self.PIPELINE_THRESHOLD
            else coll.binomial_reduce
        )
        return self.materialize(algo(self.num_ranks, size, root), label="reduce")

    def gather(self, size: float, root: int = 0, large: bool | None = None) -> Program:
        """Gather; ``large`` forces the linear (incast) algorithm the way
        tuned MPIs switch for big payloads (default: >= 32 KiB)."""
        use_linear = size >= 32 * 1024 if large is None else large
        algo = coll.linear_gather if use_linear else coll.binomial_gather
        return self.materialize(algo(self.num_ranks, size, root), label="gather")

    def scatter(self, size: float, root: int = 0, large: bool | None = None) -> Program:
        use_linear = size >= 32 * 1024 if large is None else large
        algo = coll.linear_scatter if use_linear else coll.binomial_scatter
        return self.materialize(algo(self.num_ranks, size, root), label="scatter")

    def allreduce(self, size: float, algorithm: str = "auto") -> Program:
        """Allreduce; ``algorithm`` in {"auto", "rdbl", "rabenseifner",
        "ring"}.  Auto follows the tuned heuristic: latency-bound
        recursive doubling below 64 KiB, Rabenseifner above."""
        p = self.num_ranks
        if algorithm == "auto":
            algorithm = "rdbl" if size < 64 * 1024 else "rabenseifner"
        if algorithm == "rdbl":
            phases = coll.recursive_doubling_allreduce(p, size)
        elif algorithm == "rabenseifner":
            phases = coll.rabenseifner_allreduce(p, size)
        elif algorithm == "ring":
            phases = coll.ring_allreduce(p, size)
        else:
            raise ConfigurationError(f"unknown allreduce algorithm {algorithm!r}")
        return self.materialize(phases, label=f"allreduce-{algorithm}")

    def allgather(self, size: float, algorithm: str = "auto") -> Program:
        """Allgather; ``algorithm`` in {"auto", "ring", "bruck"}.  Auto
        follows the tuned heuristic: Bruck for small blocks (latency,
        log rounds), ring for large (bandwidth, no payload doubling)."""
        if algorithm == "auto":
            algorithm = "bruck" if size < 32 * 1024 else "ring"
        if algorithm == "ring":
            phases = coll.ring_allgather(self.num_ranks, size)
        elif algorithm == "bruck":
            phases = coll.bruck_allgather(self.num_ranks, size)
        else:
            raise ConfigurationError(f"unknown allgather algorithm {algorithm!r}")
        return self.materialize(phases, label=f"allgather-{algorithm}")

    def reduce_scatter(self, size: float) -> Program:
        """Reduce-scatter of a ``size``-byte vector (each rank keeps its
        reduced ``size/p`` block)."""
        return self.materialize(
            coll.reduce_scatter(self.num_ranks, size), label="reduce_scatter"
        )

    def alltoall(self, size: float) -> Program:
        return self.materialize(
            coll.pairwise_alltoall(self.num_ranks, size), label="alltoall"
        )

    def alltoallv(self, sizes: list[list[float]]) -> Program:
        """Irregular all-to-all: ``sizes[i][j]`` bytes from rank i to j."""
        return self.materialize(
            coll.alltoallv(self.num_ranks, sizes), label="alltoallv"
        )

    def barrier(self) -> Program:
        return self.materialize(
            coll.dissemination_barrier(self.num_ranks), label="barrier"
        )
