"""Per-destination reference sweep for the destination-tree engines.

``minhop``, ``fthx`` and ``fatpaths`` route every sweep through one
batched sweep (:class:`repro.routing.base.DestinationTreeEngine`).
This module is their executable specification: one
:func:`~repro.routing.dijkstra.tree_to_destination` heap per LID, in
LID order, with that engine's weight column and layer mask, installed
with :func:`~repro.routing.base.install_tree` — FatPaths' layer-0
fallback and its notes included.

:func:`reference_engine` wraps it in an engine that keeps everything
else of the real one (LID settings, VL layering key, incremental
re-sweeps), so whole fabrics and re-sweep reports can be diffed.
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import UnreachableError
from repro.ib.fabric import Fabric
from repro.routing import create_engine
from repro.routing.base import DestinationTreeEngine, install_tree
from repro.routing.dijkstra import tree_to_destination
from repro.routing.fatpaths import layer_masks
from repro.routing.fthx import LinkProfile

#: ``(dest switch, dlid) -> (weights, masked links, layer)``.
ColumnSpec = Callable[[int, int], tuple[list[float], frozenset[int], int]]


def _column_spec(name: str, fabric: Fabric) -> ColumnSpec:
    """The engine's weight column and layer mask for one destination."""
    net = fabric.net
    if name == "minhop":
        ones = [1.0] * len(net.links)
        return lambda dsw, dlid: (ones, frozenset(), 0)
    profile = LinkProfile(net)
    if name == "fthx":
        return lambda dsw, dlid: (
            profile.weights_block([dsw], [dlid])[:, 0].tolist(), frozenset(), 0
        )
    if name == "fatpaths":
        masks = layer_masks(net, fabric.lidmap.lids_per_port)

        def column(dsw: int, dlid: int):
            layer = fabric.lidmap.index_of(dlid) % len(masks)
            weights = profile.weights_block([dsw], [dlid], rotations=[layer])
            return weights[:, 0].tolist(), masks[layer], layer

        return column
    raise KeyError(f"no reference sweep for engine {name!r}")


def _first_unreached(fabric: Fabric, parent: dict, dsw: int) -> int | None:
    graph = fabric.net.switch_graph()
    for u in graph.host_switches.tolist():
        sw = graph.switches[u]
        if sw != dsw and sw not in parent:
            return sw
    return None


def reference_route(
    fabric: Fabric, name: str, dlids, *, reset: bool = False
) -> None:
    """Route ``dlids`` one heap per LID, in the order given.

    ``reset`` drops each column (keeping its ejection hop) before it is
    routed, as an incremental re-sweep does.
    """
    net = fabric.net
    column = _column_spec(name, fabric)
    for dlid in dlids:
        if reset:
            DestinationTreeEngine._reset_column(fabric, dlid)
        dsw = net.attached_switch(fabric.lidmap.node_of(dlid))
        weights, mask, layer = column(dsw, dlid)
        parent, _ = tree_to_destination(net, dsw, weights, mask)
        if layer and _first_unreached(fabric, parent, dsw) is not None:
            parent, _ = tree_to_destination(net, dsw, weights)
            fabric.notes.append(
                f"fatpaths: fallback to layer 0 for lid {dlid} "
                f"(layer {layer} mask disconnects it)"
            )
        sw = _first_unreached(fabric, parent, dsw)
        if sw is not None:
            raise UnreachableError(
                f"switch {sw} cannot reach destination lid {dlid}"
            )
        install_tree(fabric, dlid, parent)


def reference_engine(name: str) -> DestinationTreeEngine:
    """The registered engine ``name``, routing through the reference sweep."""
    cls = type(create_engine(name))

    class Reference(cls):
        def compute(self, fabric: Fabric) -> None:
            reference_route(
                fabric, name, fabric.lidmap.terminal_lids(fabric.net)
            )

        def recompute_destinations(self, fabric: Fabric, dlids) -> None:
            reference_route(fabric, name, sorted(dlids), reset=True)

    return Reference()
