"""Routing-engine interface and shared helpers.

An engine's job is to fill the per-switch linear forwarding tables of a
:class:`~repro.ib.fabric.Fabric` — one out-link per (switch, destination
LID) pair, the only thing InfiniBand hardware can express.  Everything
else (LID assignment, terminal hops, VL layering) is the subnet
manager's business.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Collection, Mapping, Sequence

import numpy as np

from repro.core.chunking import items_per_chunk
from repro.core.errors import UnreachableError
from repro.core.parallel import TreeJob, TreeShard, run_tree_job
from repro.ib.fabric import Fabric

if TYPE_CHECKING:
    from repro.topology.network import Network


class RoutingEngine(ABC):
    """Base class for forwarding-table generators.

    Attributes
    ----------
    name:
        Engine identifier used in reports (mirrors OpenSM's
        ``--routing_engine`` values).
    provides_deadlock_freedom:
        If True the subnet manager runs the virtual-lane layering over
        this engine's output and guarantees (or refuses) deadlock
        freedom.  Plain SSSP sets this False — the paper's initial tests
        with it on the HyperX hit exactly that gap (section 3.2).
    """

    name: str = "abstract"
    provides_deadlock_freedom: bool = True
    #: Engines that install their own lane assignment during
    #: :meth:`compute` (LASH's per-pair layers, Nue's budgeted lanes)
    #: set this True and ``provides_deadlock_freedom`` False: the SM
    #: must not overwrite their lanes, yet the result is still
    #: deadlock-free — the catalogue reports the union of both flags.
    self_layering: bool = False
    #: Engines whose trees depend only on the current topology (no
    #: weight feedback between destinations) can recompute a subset of
    #: destination trees with bit-identical results; they set this True
    #: and implement :meth:`recompute_destinations`.
    supports_incremental_resweep: bool = False
    #: Subnet-manager settings this engine needs to operate (e.g. PARX
    #: declares ``{"lmc": 2, "lid_policy": "quadrant"}``).  Consumed by
    #: :meth:`repro.ib.subnet_manager.OpenSM.run` for every parameter
    #: the caller did not set explicitly — callers no longer re-supply
    #: the engine's tuple at each construction site.
    sm_defaults: Mapping[str, Any] = {}
    #: When True the subnet manager's virtual-lane layering processes
    #: destinations grouped by LID index (layer) instead of plain LID
    #: order, giving layered multi-LID engines (FatPaths) layer -> VL
    #: affinity: each layer's destinations pack into lanes together.
    vl_group_by_lid_index: bool = False

    def vl_layering_key(self, fabric: Fabric, dlid: int) -> tuple:
        """Sort key ordering destinations for the VL layering.

        Greedy first-fit layering is order-dependent: destinations whose
        trees share a path discipline should be processed contiguously
        so they pack into the same lanes before a differently-shaped
        family opens new ones.  The default honours
        :attr:`vl_group_by_lid_index` and otherwise keeps plain LID
        order; engines with their own tree families (e.g. per-
        destination dimension orders) override this.  The key must be a
        pure function of (fabric, dlid) — every re-layering of the same
        fabric must reproduce the same order.
        """
        if self.vl_group_by_lid_index:
            return (fabric.lidmap.index_of(dlid), dlid)
        return (0, dlid)

    def check_topology(self, net: "Network") -> None:
        """Validate the engine/topology pairing before any LID work.

        The subnet manager calls this at the start of :meth:`run` —
        before LIDs are resolved from :attr:`sm_defaults` — so an engine
        can refuse an unsupported topology with its own diagnostic
        (e.g. PARX raising :class:`~repro.core.errors.ConfigurationError`
        for an odd-shaped lattice) rather than the LID policy failing
        first with a less specific error.  The default accepts anything.
        """

    @abstractmethod
    def compute(self, fabric: Fabric) -> None:
        """Fill ``fabric.tables``.

        The terminal hops (switch -> owned terminal) are already
        installed when this is called; the engine must add an entry for
        every (other switch, terminal LID) pair it can serve.
        """

    def recompute_destinations(
        self, fabric: Fabric, dlids: Collection[int]
    ) -> None:
        """Recompute only the given destination LIDs' trees in place.

        Must leave every (switch, dlid) entry for ``dlids`` exactly as a
        full :meth:`compute` on the current topology would, and touch no
        other destination's entries.  Only meaningful when
        :attr:`supports_incremental_resweep` is True.
        """
        raise NotImplementedError(
            f"{self.name} does not support incremental re-sweeps"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class DestinationTreeEngine(RoutingEngine):
    """Engines whose destination trees are independent of each other.

    Every tree is a pure function of (topology, destination LID): no
    weight feedback couples destinations.  A sweep is then fully
    described by a :class:`~repro.core.parallel.TreeJob` — a declarative
    weight spec plus graph shards — and every sweep, cold or
    incremental, runs the same path: :func:`run_tree_job` routes the
    columns (on the worker pool when one is configured, in process
    otherwise) and the columns install in LID order.  Subclasses
    implement :meth:`_tree_job`, and :meth:`_after_kernel` when they
    post-process the kernel output.
    """

    # Nothing couples destinations, so recomputing a subset of trees
    # reproduces a full sweep bit for bit.
    supports_incremental_resweep = True

    @abstractmethod
    def _tree_job(self, fabric: Fabric, dlids: list[int]) -> TreeJob:
        """Describe the sweep over ``dlids`` (column ``j`` = ``dlids[j]``)."""

    def _after_kernel(
        self, fabric: Fabric, dlids: list[int], job: TreeJob, plid: np.ndarray
    ) -> None:
        """Adjust the kernel's ``(V, K)`` output before installation.

        Runs once per sweep, in the parent, before any column is reset
        or installed.  The default leaves the output as routed.
        """

    def _on_unreachable(self, fabric: Fabric, dlid: int, switch: int) -> None:
        """A terminal-hosting ``switch`` has no route to ``dlid``.

        Raises :class:`UnreachableError`; an override that returns
        instead lets the column install with that switch's entry unset.
        """
        raise UnreachableError(
            f"switch {switch} cannot reach destination lid {dlid}"
        )

    def compute(self, fabric: Fabric) -> None:
        self._sweep(fabric, fabric.lidmap.terminal_lids(fabric.net))

    def recompute_destinations(
        self, fabric: Fabric, dlids: Collection[int]
    ) -> None:
        """Rebuild only the given destination columns.

        Every column is reset (old entries dropped, ejection hop kept)
        once the kernel output is in hand and before any column
        installs, so a sweep that raises :class:`UnreachableError`
        leaves the same tables at any worker count.
        """
        self._sweep(fabric, sorted(dlids), reset=True)

    def _sweep(
        self, fabric: Fabric, dlids: list[int], *, reset: bool = False
    ) -> None:
        job = self._tree_job(fabric, dlids)
        result = run_tree_job(job)
        try:
            self._after_kernel(fabric, dlids, job, result.plid)
            if reset:
                for dlid in dlids:
                    self._reset_column(fabric, dlid)
            install_tree_columns(
                fabric, dlids, job.dest_switches, result.plid,
                lambda dlid, sw: self._on_unreachable(fabric, dlid, sw),
            )
        finally:
            result.release()

    @staticmethod
    def _reset_column(fabric: Fabric, dlid: int) -> None:
        net = fabric.net
        fabric.tables.clear_column(dlid)
        t = fabric.lidmap.node_of(dlid)
        down = net.terminal_uplink(t).reverse_id
        fabric.set_route(net.attached_switch(t), dlid, down)


def install_tree(fabric: Fabric, dlid: int, parent: dict[int, int]) -> None:
    """Install a destination tree into the tables.

    ``parent`` maps each switch to its out-link toward the destination
    (as produced by :func:`repro.routing.dijkstra.tree_to_destination`);
    the destination's own switch keeps its pre-installed terminal hop.

    Equivalent to ``fabric.set_route`` per entry — including the
    leaves-this-switch validation, done as one vectorised check — but
    writes the whole destination column with a single scatter.
    """
    tables = fabric.tables
    col = tables.column_of(dlid)
    if col is None or not parent:
        for switch, link_id in parent.items():
            fabric.set_route(switch, dlid, link_id)
        return
    graph = fabric.net.switch_graph()
    switches = np.fromiter(parent.keys(), np.int64, len(parent))
    links = np.fromiter(parent.values(), np.int64, len(parent))
    bad = np.flatnonzero(graph.link_src_node[links] != switches)
    if bad.size:
        # Same diagnostic set_route would raise for the first offender.
        fabric.set_route(int(switches[bad[0]]), dlid, int(links[bad[0]]))
    tables.install_column(col, graph.index[switches], links, switches)


def destination_block_width(fabric: Fabric) -> int:
    """Kernel block width under the shared chunk budget, never below 1.

    Each destination column costs one per-link weight column plus the
    kernel's per-switch state; the width keeps a block's transient
    working set under the :mod:`repro.core.chunking` budget regardless
    of fabric size.  Tree jobs carry this width *resolved* (spawned
    pool workers would otherwise miss runtime ``set_chunk_bytes``
    overrides), so every process routes the same sub-blocks.
    """
    net = fabric.net
    per_dlid = len(net.links) * 8 + net.num_switches * 32
    return items_per_chunk(per_dlid)


def destination_switches(fabric: Fabric, dlids: Sequence[int]) -> list[int]:
    """The switch each destination LID's terminal is attached to."""
    net = fabric.net
    return [net.attached_switch(fabric.lidmap.node_of(d)) for d in dlids]


def tree_job(
    fabric: Fabric,
    dest_switches: list[int],
    weights: dict[str, Any],
    shards: list[TreeShard] | None = None,
    extra: Any = None,
) -> TreeJob:
    """A :class:`TreeJob` over the fabric's switch graph.

    Without ``shards`` every column routes over the unmasked graph.
    """
    graph = fabric.net.switch_graph()
    if shards is None:
        cols = np.arange(len(dest_switches), dtype=np.int64)
        shards = [TreeShard(graph=graph, cols=cols)]
    return TreeJob(
        num_switches=graph.num_switches,
        num_links=len(fabric.net.links),
        roots=graph.index[np.asarray(dest_switches, dtype=np.int64)],
        dest_switches=dest_switches,
        weights=weights,
        shards=shards,
        block_cols=destination_block_width(fabric),
        extra=extra,
    )


def install_tree_columns(
    fabric: Fabric,
    dlids: Sequence[int],
    dest_switches: Sequence[int],
    plid: np.ndarray,
    on_unreachable: Callable[[int, int], None],
) -> None:
    """Check reach and install one kernel output block, column by column.

    ``plid`` is :func:`repro.routing.arrays.tree_core_batch` output for
    ``dlids`` (column ``j`` routes ``dlids[j]`` toward node id
    ``dest_switches[j]``).  Columns are checked *and* installed in
    ``dlids`` order: ``on_unreachable(dlid, switch)`` runs for the first
    terminal-hosting switch (in ``host_switches`` order) a column leaves
    unrouted, with every earlier column already installed.  When it
    returns instead of raising, the column installs with its unreached
    rows left unset.
    """
    graph = fabric.net.switch_graph()
    tables = fabric.tables
    switch_arr = np.asarray(graph.switches, dtype=np.int64)
    host = graph.host_switches
    for j, dlid in enumerate(dlids):
        dsw = dest_switches[j]
        column = plid[:, j]
        missing = host[column[host] < 0]
        for u in missing.tolist():
            sw = graph.switches[u]
            if sw != dsw:
                on_unreachable(dlid, sw)
                break
        rows = np.flatnonzero(column >= 0)
        links = column[rows]
        switches = switch_arr[rows]
        bad = np.flatnonzero(graph.link_src_node[links] != switches)
        if bad.size:
            # Same diagnostic set_route would raise for the offender.
            fabric.set_route(int(switches[bad[0]]), dlid, int(links[bad[0]]))
        tables.install_column(tables.column_of(dlid), rows, links, switches)
