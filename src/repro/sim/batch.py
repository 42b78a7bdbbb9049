"""Flat-array message batches: a phase as seven numpy arrays.

A :class:`~repro.sim.flows.Phase` stores its messages as one
:class:`MessageBatch` — parallel arrays

* ``sizes``/``overheads`` — float per message,
* ``src``/``dst`` — terminal node ids per message,
* ``lens``/``ptr``/``flat`` — the CSR flattening of the link-id paths
  (message ``i`` crosses ``flat[ptr[i]:ptr[i+1]]``).

The batch is the phase's only representation: the simulator's hot loop,
the fairness solver and the byte-per-link accounting read these arrays,
and :class:`~repro.sim.flows.Message` objects exist only when a
per-message consumer asks the phase's read-only ``messages`` view for
them.  The arrays are read-only, so a batch can be shared by several
phases (the EmDL program repeats one Allreduce) and no consumer can
edit a phase behind another's back.

Builders make batches three ways, all element-for-element identical
(values *and* dtypes) to :meth:`MessageBatch.from_messages` over the
same message list: ``Job.materialize`` gathers every phase's paths from
the fabric's per-destination walks with array operations,
:meth:`MessageBatch.concat` joins batches (concurrent programs), and
:meth:`MessageBatch.replace_paths` swaps rerouted paths in after a
cable failure.  ``tests/test_sim_batch.py`` and
``tests/test_materialize_reference.py`` pin these equivalences, which
keep every simulated duration bit-identical to the per-message
pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.flows import Message

__all__ = ["MessageBatch", "flatten_paths", "segment_gather"]


def flatten_paths(
    paths: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten link-id paths into ``(lens, ptr, flat)`` CSR arrays.

    ``lens[i] == len(paths[i])``, ``ptr`` is the exclusive prefix sum
    (``ptr[0] == 0``), and ``flat[ptr[i]:ptr[i+1]]`` holds path ``i``'s
    link ids in order.  The single shared flattening kernel behind
    :meth:`MessageBatch.from_messages`, the fairness solver's
    non-prebuilt constructor path, and the utilisation accounting.
    """
    n = len(paths)
    lens = np.fromiter((len(p) for p in paths), dtype=np.intp, count=n)
    ptr = np.concatenate(([0], lens.cumsum())).astype(np.intp)
    flat = np.fromiter(
        (lid for p in paths for lid in p), dtype=np.intp, count=int(ptr[-1])
    )
    return lens, ptr, flat


def segment_gather(
    starts: np.ndarray, lens: np.ndarray, flat_pool: np.ndarray
) -> np.ndarray:
    """Concatenate ``flat_pool[starts[i]:starts[i]+lens[i]]`` segments.

    One vectorised gather: no per-segment Python loop, one output
    element per gathered link id.
    """
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=flat_pool.dtype)
    seg_ends = lens.cumsum()
    within = np.arange(total) - np.repeat(seg_ends - lens, lens)
    return flat_pool[np.repeat(starts, lens) + within]


class MessageBatch:
    """A phase's messages as parallel flat arrays (see module docs)."""

    __slots__ = ("n", "sizes", "overheads", "src", "dst", "lens", "ptr", "flat")

    def __init__(
        self,
        sizes: np.ndarray,
        overheads: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        lens: np.ndarray,
        ptr: np.ndarray,
        flat: np.ndarray,
    ) -> None:
        for arr in (sizes, overheads, src, dst, lens, ptr, flat):
            arr.flags.writeable = False
        self.n = int(len(sizes))
        self.sizes = sizes
        self.overheads = overheads
        self.src = src
        self.dst = dst
        self.lens = lens
        self.ptr = ptr
        self.flat = flat

    @classmethod
    def from_messages(cls, messages: Sequence["Message"]) -> "MessageBatch":
        """Build a batch from message objects (hand-built phases).

        Reproduces exactly the arrays ``run_phase`` built inline before
        batching existed; a hand-built ``Phase(messages)`` pays this
        once, at construction.
        """
        n = len(messages)
        lens, ptr, flat = flatten_paths([m.path for m in messages])
        sizes = np.fromiter((m.size for m in messages), dtype=float, count=n)
        overheads = np.fromiter(
            (m.overhead for m in messages), dtype=float, count=n
        )
        src = np.fromiter((m.src for m in messages), dtype=np.int64, count=n)
        dst = np.fromiter((m.dst for m in messages), dtype=np.int64, count=n)
        return cls(sizes, overheads, src, dst, lens, ptr, flat)

    @classmethod
    def concat(cls, batches: Sequence["MessageBatch"]) -> "MessageBatch":
        """One batch holding ``batches``' messages in order.

        Identical to :meth:`from_messages` over the concatenated message
        lists; a single batch is returned as is (batches are read-only,
        so sharing one is safe).
        """
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.from_messages([])
        cat = np.concatenate
        lens = cat([b.lens for b in batches])
        return cls(
            cat([b.sizes for b in batches]),
            cat([b.overheads for b in batches]),
            cat([b.src for b in batches]),
            cat([b.dst for b in batches]),
            lens,
            np.concatenate(([0], lens.cumsum())).astype(np.intp),
            cat([b.flat for b in batches]),
        )

    def replace_paths(self, paths: Mapping[int, Sequence[int]]) -> "MessageBatch":
        """A copy with message ``i``'s path replaced by ``paths[i]``.

        Every other array is shared; the flat path array is rebuilt in
        message order, one slice per untouched run of messages.
        """
        lens = self.lens.copy()
        pieces = []
        prev = 0
        for i in sorted(paths):
            pieces.append(self.flat[self.ptr[prev]:self.ptr[i]])
            new = np.asarray(paths[i], dtype=np.intp)
            pieces.append(new)
            lens[i] = new.size
            prev = i + 1
        pieces.append(self.flat[self.ptr[prev]:])
        return MessageBatch(
            self.sizes, self.overheads, self.src, self.dst, lens,
            np.concatenate(([0], lens.cumsum())).astype(np.intp),
            np.concatenate(pieces),
        )

    def bytes_per_link(self, n_links: int) -> np.ndarray:
        """Payload bytes crossing each link id, as a dense array.

        The batched form of the utilisation accounting's old triple
        Python loop: one ``np.repeat`` + ``np.bincount`` pass.
        """
        if self.flat.size == 0:
            return np.zeros(n_links)
        return np.bincount(
            self.flat,
            weights=np.repeat(self.sizes, self.lens),
            minlength=n_links,
        )
