"""MinHop routing: plain shortest paths, no balancing.

The simplest deterministic engine — routes every destination along a
minimal-hop tree with fixed unit weights, so equal-hop choices fall to
the deterministic tie-break rather than to load.  It exists as the
unbalanced baseline the SSSP family improves on, and (because it runs
fast) as the default engine in unit tests.

Like OpenSM's ``minhop``, it does not attempt deadlock freedom by
itself; the subnet manager's virtual-lane layering supplies it.
"""

from __future__ import annotations

from repro.core.parallel import TreeJob
from repro.ib.fabric import Fabric
from repro.routing.base import (
    DestinationTreeEngine,
    destination_switches,
    tree_job,
)


class MinHopRouting(DestinationTreeEngine):
    """Unit-weight shortest-path destination trees."""

    name = "minhop"
    provides_deadlock_freedom = True  # via the SM's VL layering

    def _tree_job(self, fabric: Fabric, dlids: list[int]) -> TreeJob:
        # Unit weights, shared by every column.
        return tree_job(
            fabric,
            destination_switches(fabric, dlids),
            {"kind": "unit", "num_links": len(fabric.net.links)},
        )
