"""Point-to-point messaging layers: the LID choice per message.

With LMC > 0 a destination HCA owns several LIDs, each potentially
routed differently; Open MPI's PML decides which one a given message
addresses.  The paper (section 3.2.4) contrasts three behaviours:

* :class:`Ob1Pml` — the default layer: always the base LID (multi-LID
  only as failover, which the flow model never needs),
* :class:`BfoPml` — the multi-path layer: round-robins over all LIDs of
  a connection per message/segment,
* :class:`ParxBfoPml` — the paper's modification: pick the LID from
  Table 1 based on the (source quadrant, destination quadrant) pair and
  whether the message clears the 512-byte large-message threshold;
  where Table 1 offers two choices, pick randomly.

bfo is "less tuned compared to the ob1 default" (section 5.1, the
2.8x-6.9x Barrier regression) — modelled as the additive per-message
``BFO_PML_OVERHEAD``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng
from repro.core.units import BFO_PML_OVERHEAD, PARX_SIZE_THRESHOLD
from repro.ib.addressing import quadrant_of_lid
from repro.ib.fabric import Fabric


class Pml(ABC):
    """A messaging layer: chooses a destination LID index per message."""

    name: str = "abstract"
    #: Additional software latency per message relative to ob1.
    overhead: float = 0.0

    @abstractmethod
    def lid_index(self, fabric: Fabric, src: int, dst: int, size: float) -> int:
        """Destination LID index (0..2**lmc-1) for one message."""

    def lid_indices(
        self,
        fabric: Fabric,
        src: np.ndarray,
        dst: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """LID indices for a run of messages, as an int64 array.

        Calls :meth:`lid_index` once per message, in order, so stateful
        layers (bfo's per-connection counters, PARX's random draws)
        advance exactly as if the messages were chosen one by one.
        """
        return np.fromiter(
            (
                self.lid_index(fabric, s, d, z)
                for s, d, z in zip(src.tolist(), dst.tolist(), sizes.tolist())
            ),
            dtype=np.int64,
            count=len(src),
        )

    def reset(self) -> None:
        """Clear per-connection state (between independent runs)."""


class Ob1Pml(Pml):
    """Open MPI's default PML: single path via the base LID."""

    name = "ob1"
    overhead = 0.0

    def lid_index(self, fabric: Fabric, src: int, dst: int, size: float) -> int:
        return 0

    def lid_indices(
        self,
        fabric: Fabric,
        src: np.ndarray,
        dst: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        return np.zeros(len(src), dtype=np.int64)


class BfoPml(Pml):
    """The multi-path PML: LIDs round-robin per connection.

    "The bfo PML iterates through the 2**LMC LIDs in a round-robin
    fashion.  After transferring a message ... the layer increments x or
    resets to 0."  State is per (src, dst) connection, like the real
    per-BTL counters.
    """

    name = "bfo"
    overhead = BFO_PML_OVERHEAD

    def __init__(self) -> None:
        self._counter: dict[tuple[int, int], int] = {}

    def lid_index(self, fabric: Fabric, src: int, dst: int, size: float) -> int:
        n = fabric.lidmap.lids_per_port
        key = (src, dst)
        x = self._counter.get(key, 0)
        self._counter[key] = (x + 1) % n
        return x

    def reset(self) -> None:
        self._counter.clear()


class ParxBfoPml(Pml):
    """The paper's modified bfo: Table 1 selection by quadrant and size.

    Requires the fabric to use the quadrant LID policy (so quadrants are
    recoverable as ``lid // 1000``) and LMC = 2.  Messages of
    ``threshold`` bytes or more are "large" and take the detour LIDs of
    Table 1b; smaller ones take the minimal LIDs of Table 1a.  Where the
    table lists two alternatives one is chosen randomly (seeded).
    """

    name = "parx-bfo"
    overhead = BFO_PML_OVERHEAD

    def __init__(self, threshold: int = PARX_SIZE_THRESHOLD, seed: int = 0) -> None:
        self.threshold = threshold
        self._seed = seed
        self._rng = make_rng(seed)

    def lid_index(self, fabric: Fabric, src: int, dst: int, size: float) -> int:
        from repro.routing.parx import lid_choices

        if fabric.lidmap.lids_per_port != 4:
            raise ConfigurationError(
                "the PARX PML needs LMC=2 (four LIDs per port)"
            )
        sq = quadrant_of_lid(fabric.lidmap.base[src])
        dq = quadrant_of_lid(fabric.lidmap.base[dst])
        choices = lid_choices(sq, dq, large=size >= self.threshold)
        if len(choices) == 1:
            return choices[0]
        return int(choices[self._rng.integers(len(choices))])

    def reset(self) -> None:
        self._rng = make_rng(self._seed)
