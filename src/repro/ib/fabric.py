"""The routed fabric: network + LIDs + linear forwarding tables.

InfiniBand switches forward by destination LID only ("destination-based
forwarding scheme", paper section 3.2): every switch holds a linear
forwarding table mapping each LID to one output port.  :class:`Fabric`
mirrors that — ``tables[switch][dlid] -> out link id`` — and resolves
paths by walking the tables exactly like a packet would, which means a
routing bug shows up as the same forwarding loop it would cause on real
hardware (and is caught by the walk's loop guard).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.core.errors import RoutingError, UnreachableError
from repro.ib.addressing import LidMap
from repro.ib.tables import ForwardingTables, walk_dest_columns, walk_dest_links
from repro.topology.network import Network

#: On-disk fabric payload format.  Bump on any change to the payload
#: layout; loaders reject mismatched versions so a stale cache entry is
#: rebuilt instead of silently misread.  History:
#:
#: * 1 — dict-of-dicts ``tables`` (``{switch: {dlid: link}}``).
#: * 2 — dense ``tables`` (``{"dlids": [...], "rows": {switch: [link
#:   per dlid, -1 = absent]}, "overflow": {...}}``), matching the
#:   array-backed :class:`~repro.ib.tables.ForwardingTables`.  Version-1
#:   cache entries are rejected and rebuilt.
#: * 3 — the dense matrix may live in a ``.rows.npy`` sidecar instead of
#:   inline JSON: ``"rows"`` is replaced by ``"rows_file"`` (sidecar
#:   file name, relative to the payload), ``"row_switches"`` (present
#:   in-universe switches, first-write order) and ``"rows_shape"``.
#:   Sidecar payloads can be opened zero-copy with
#:   ``np.load(..., mmap_mode="c")`` — the campaign workers' shared
#:   fabric cache.  Inline ``"rows"`` remains valid version-3 output
#:   (``save(arrays=False)``); version-2 entries are rejected and
#:   rebuilt.
#: * 4 — the dense matrix uses the narrowest dtype that holds the
#:   link-id space (:func:`repro.ib.tables.table_dtype_for`, int16 on
#:   every pre-10k config) and sidecar payloads record it as
#:   ``"rows_dtype"``.  Version-3 entries (always int32) are rejected
#:   and rebuilt rather than silently widened.
#: * 5 — the dense matrix is the only store: the tables lose their
#:   out-of-universe keys (overflow entries and rows at non-switch
#:   nodes), every ``"rows"`` entry is a full row, and an inline payload
#:   whose ``"dlids"`` differ from the network's LID universe is refused
#:   like a sidecar one.  Version-4 entries are rejected and rebuilt.
FABRIC_FORMAT_VERSION = 5


@dataclass
class Fabric:
    """A network with installed LIDs and forwarding state.

    Attributes
    ----------
    net:
        The underlying topology.
    lidmap:
        LID assignment (see :mod:`repro.ib.addressing`).
    tables:
        Per-switch linear forwarding tables: ``tables[sw][dlid]`` is the
        id of the out link a packet for ``dlid`` takes at switch ``sw``.
    vl_of_dlid:
        Virtual lane assigned to each destination LID by the deadlock
        layering (DFSSSP granularity: whole destinations move between
        layers).  Empty until the subnet manager ran the layering.
    num_vls:
        Number of virtual lanes in use (1 if no layering ran).
    engine_name:
        Name of the routing engine that produced the tables.
    notes:
        Free-form diagnostics from the engine (e.g. PARX fallback events).
    cache_key:
        Content key of the configuration that produced this fabric
        (combination/scale/faults/seed, see
        :func:`repro.experiments.configs.fabric_cache_key`).  ``None``
        for hand-built fabrics; used by the preflight gate and the
        on-disk fabric cache.
    """

    net: Network
    lidmap: LidMap
    tables: ForwardingTables = field(default_factory=dict)  # type: ignore[assignment]
    vl_of_dlid: dict[int, int] = field(default_factory=dict)
    num_vls: int = 1
    engine_name: str = "unrouted"
    notes: list[str] = field(default_factory=list)
    cache_key: str | None = None
    #: Resolved-path memo keyed by ``(src, dst, lid_index)``; valid only
    #: while both the forwarding tables and the topology version stand
    #: still.  Table mutations bump ``tables.version`` and topology
    #: changes bump :attr:`Network.version`; both are compared on lookup.
    _path_cache: dict[tuple[int, int, int], list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Per-destination bulk memo (:meth:`dest_paths`): dlid -> the
    #: walk's ``(ok, lens, steps)`` arrays; shares the version triple
    #: with ``_path_cache``.
    _dest_path_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _path_cache_version: tuple[int, int, int] = field(
        default=(-1, -1, -1), init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value: Any) -> None:
        # Any mapping assigned to ``tables`` (engine code and tests
        # assign plain dicts) is wrapped into the dense array backing.
        # ``net`` and ``lidmap`` precede ``tables`` in field order, so
        # they are already set when dataclass ``__init__`` gets here.
        if name == "tables" and not isinstance(value, ForwardingTables):
            value = ForwardingTables(self.net, self.lidmap, value)
        object.__setattr__(self, name, value)

    # --- table installation -------------------------------------------------
    def set_route(self, switch: int, dlid: int, link_id: int) -> None:
        """Install one forwarding entry; the link must leave ``switch``,
        and ``dlid`` must be in the LID map (else :class:`RoutingError`)."""
        link = self.net.link(link_id)
        if link.src != switch:
            raise RoutingError(
                f"cannot install route at switch {switch} via link {link_id} "
                f"which leaves node {link.src}"
            )
        if self.tables.column_of(dlid) is None:
            raise RoutingError(
                f"cannot route dlid {dlid} at switch {switch}: the dlid is "
                "not in the fabric's LID map"
            )
        self.tables.setdefault(switch, {})[dlid] = link_id

    def install_terminal_hops(self) -> None:
        """Install the final switch -> terminal hop for every terminal LID.

        Every routing engine calls this first; it is the part of the
        table that is topology-determined (each LID's owning port).
        """
        for t in self.net.terminals:
            down = self.net.terminal_uplink(t).reverse_id
            sw = self.net.attached_switch(t)
            for dlid in self.lidmap.lids_of(t):
                self.set_route(sw, dlid, down)

    # --- resolution -----------------------------------------------------------
    def out_link(self, switch: int, dlid: int) -> int:
        """Forwarding lookup; raises :class:`UnreachableError` on a miss."""
        try:
            return self.tables[switch][dlid]
        except KeyError:
            raise UnreachableError(
                f"switch {switch} has no route for dlid {dlid}"
            ) from None

    def resolve(self, src_terminal: int, dlid: int) -> list[int]:
        """Walk the tables from a terminal to a destination LID.

        Returns the link-id path including the terminal uplink and the
        final switch->terminal hop.  Raises :class:`RoutingError` if the
        walk revisits a switch (forwarding loop — exactly the failure
        mode the paper's triangle example in section 3.2 describes).
        """
        dst_node = self.lidmap.node_of(dlid)
        if src_terminal == dst_node:
            return []
        uplink = self.net.terminal_uplink(src_terminal)
        path = [uplink.id]
        here = uplink.dst
        visited = {here}
        while True:
            link_id = self.out_link(here, dlid)
            link = self.net.link(link_id)
            if not link.enabled:
                raise UnreachableError(
                    f"route for dlid {dlid} at switch {here} uses disabled "
                    f"link {link_id}"
                )
            path.append(link_id)
            if link.dst == dst_node:
                return path
            here = link.dst
            if self.net.is_terminal(here):
                raise RoutingError(
                    f"route for dlid {dlid} exits at wrong terminal {here}"
                )
            if here in visited:
                raise RoutingError(
                    f"forwarding loop for dlid {dlid} at switch {here}"
                )
            visited.add(here)

    def path(self, src: int, dst: int, lid_index: int = 0) -> list[int]:
        """Terminal-to-terminal path via the destination's ``lid_index``.

        Memoised per ``(src, dst, lid_index)`` while the topology
        version and the tables stand still — collective builders resolve
        the same pairs once per phase, and a re-sweep (which installs
        new routes) or a cable event (which bumps the version) drops the
        whole memo.  Returns a fresh list each call; mutating it never
        corrupts the cache.
        """
        self._validate_memos()
        key = (src, dst, lid_index)
        cached = self._path_cache.get(key)
        if cached is None:
            cached = self.resolve(src, self.lidmap.lid(dst, lid_index))
            self._path_cache[key] = cached
        return cached.copy()

    def _validate_memos(self) -> None:
        """Drop the path memos if the topology or tables moved on."""
        version = (self.net.version, self.tables.uid, self.tables.version)
        if version != self._path_cache_version:
            self._path_cache.clear()
            self._dest_path_cache.clear()
            self._path_cache_version = version

    def dest_paths(
        self, dlid: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every switch's link path toward one destination LID, in bulk.

        The :func:`~repro.ib.tables.walk_dest_links` arrays
        ``(ok, lens, steps)`` for ``dlid``, indexed by switch row
        (``tables.switch_ids`` order): a packet entering the fabric at
        row ``r`` takes links ``steps[:lens[r], r]`` — the post-uplink
        portion of :meth:`resolve`'s path, ejection hop included — and
        ``ok[r]`` is false exactly where ``resolve`` would raise
        (missing entry, disabled link, wrong-terminal exit, forwarding
        loop).  A DLID outside the tables' universe is ``ok`` nowhere.
        Callers needing the exact diagnostic fall back to
        :meth:`resolve` / :meth:`path` for those rows.

        One vectorised walk per destination instead of a Python table
        walk per source terminal; memoised under the same version
        triple as :meth:`path`.  The arrays are shared by every caller:
        treat them as read-only.
        """
        self._validate_memos()
        cached = self._dest_path_cache.get(dlid)
        if cached is None:
            col = self.tables.column_of(dlid)
            if col is None:
                n_rows = len(self.tables.switch_ids)
                cached = (
                    np.zeros(n_rows, dtype=bool),
                    np.zeros(n_rows, dtype=np.int32),
                    np.zeros((0, n_rows), dtype=np.int32),
                )
            else:
                cached = walk_dest_links(
                    self.tables.dense,
                    self.net.switch_graph(),
                    col,
                    self.lidmap.node_of(dlid),
                )
            self._dest_path_cache[dlid] = cached
        return cached

    def hops(self, src: int, dst: int, lid_index: int = 0) -> int:
        """Switch-to-switch hop count between two terminals."""
        return self.net.path_hops(self.path(src, dst, lid_index))

    # --- bulk iteration ---------------------------------------------------------
    def resolve_paths(self, lid_index: int = 0) -> "PathResolution":
        """Resolve all ordered terminal pairs at once.

        Walks the dense next-hop matrix O(diameter) times with numpy
        gathers — one walk state per (switch, destination) instead of
        one Python table walk per pair — then expands switches to their
        attached terminals.  Verdicts match :meth:`path` exactly: a pair
        is unreachable precisely when ``path`` would raise (missing
        entry, disabled link, wrong-terminal exit, forwarding loop, or a
        detached source terminal), and ``hops`` equals
        ``net.path_hops(path(src, dst, lid_index))`` for reachable pairs.
        """
        ok, hops, _ = self._resolve_pair_matrices(
            self.tables.dense, None, lid_index
        )
        return PathResolution(
            terminals=list(self.net.terminals),
            lid_index=lid_index,
            ok=ok,
            hops=hops,
        )

    def _resolve_pair_matrices(
        self,
        matrix: "np.ndarray",
        old_matrix: "np.ndarray | None",
        lid_index: int = 0,
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray | None"]:
        """Pairwise ok/hops (+path-changed) over an arbitrary table matrix.

        The walk judges ``matrix`` under the *current* topology, which is
        what lets the re-sweep diff old tables against new ones on the
        degraded fabric.  All three results are ``(T, T)`` arrays over
        ordered terminal pairs; ``changed`` is None without
        ``old_matrix`` (see :func:`repro.ib.tables.walk_dest_columns`).
        """
        net = self.net
        graph = net.switch_graph()
        tables = self.tables
        terminals = net.terminals
        cols = []
        dest_nodes = []
        valid = []
        for t in terminals:
            col = tables.column_of(self.lidmap.lid(t, lid_index))
            cols.append(-1 if col is None else col)
            dest_nodes.append(t)
            valid.append(col is not None)
        cols_arr = np.asarray(cols, dtype=np.int64)
        ok_sw, hops_sw, changed_sw = walk_dest_columns(
            matrix,
            graph,
            np.where(cols_arr < 0, 0, cols_arr),
            np.asarray(dest_nodes, dtype=np.int64),
            old_matrix=old_matrix,
        )
        ok_sw = ok_sw & np.asarray(valid, dtype=bool)[None, :]
        # Expand to source terminals via their host switch; a detached
        # terminal (disabled uplink) reaches nothing.
        hosts = graph.host_index[np.asarray(terminals, dtype=np.int64)]
        attached = hosts >= 0
        hosts_safe = np.where(attached, hosts, 0)
        ok = ok_sw[hosts_safe] & attached[:, None]
        hops = np.where(ok, hops_sw[hosts_safe], -1).astype(np.int32)
        np.fill_diagonal(ok, False)
        np.fill_diagonal(hops, -1)
        changed = None if changed_sw is None else changed_sw[hosts_safe]
        return ok, hops, changed

    def iter_dest_paths(self, dlid: int) -> Iterator[tuple[int, list[int]]]:
        """All (source terminal, path) pairs toward one destination LID."""
        dst_node = self.lidmap.node_of(dlid)
        for t in self.net.terminals:
            if t != dst_node:
                yield t, self.resolve(t, dlid)

    def vl(self, dlid: int) -> int:
        """Virtual lane a packet for ``dlid`` travels on (0 by default)."""
        return self.vl_of_dlid.get(dlid, 0)

    # --- LFT export/import --------------------------------------------------
    def dump_lft(self) -> str:
        """Serialise the linear forwarding tables, ibdiagnet-style.

        One block per switch::

            Switch <id> lid <switch lid>
            <dlid> <out link id> <vl>

        The text round-trips through :meth:`load_lft`, letting users
        diff routings across engine versions or archive a deployment's
        tables — the workflow the paper's artifact supports with real
        OpenSM dumps.
        """
        lines: list[str] = [f"# LFT dump: {self.net.name} engine={self.engine_name}"]
        for sw in self.net.switches:
            entries = self.tables.get(sw, {})
            lines.append(f"Switch {sw} lid {self.lidmap.base.get(sw, 0)}")
            for dlid in sorted(entries):
                lines.append(f"{dlid} {entries[dlid]} {self.vl(dlid)}")
        return "\n".join(lines) + "\n"

    def load_lft(self, text: str) -> None:
        """Install tables from a :meth:`dump_lft` text (replaces all
        existing entries and per-destination lanes).  Raises
        :class:`RoutingError` on an entry via a link that does not leave
        its switch, at a node that is not a switch, or for a DLID
        outside the LID map."""
        tables: dict[int, dict[int, int]] = {}
        vl_of: dict[int, int] = {}
        current: int | None = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("Switch "):
                current = int(line.split()[1])
                tables[current] = {}
                continue
            if current is None:
                raise RoutingError(f"LFT entry before any switch header: {line!r}")
            dlid_s, link_s, vl_s = line.split()
            dlid, link_id = int(dlid_s), int(link_s)
            if self.net.link(link_id).src != current:
                raise RoutingError(
                    f"LFT entry routes dlid {dlid} at switch {current} via "
                    f"foreign link {link_id}"
                )
            tables[current][dlid] = link_id
            vl_of[dlid] = int(vl_s)
        self._path_cache.clear()
        self._dest_path_cache.clear()
        self.tables = tables
        self.vl_of_dlid = {d: v for d, v in vl_of.items() if v > 0}
        self.num_vls = max(vl_of.values(), default=0) + 1

    # --- full-state serialization --------------------------------------------
    def to_payload(self, *, rows_file: str | None = None) -> dict[str, Any]:
        """The fabric's routed state as a JSON-safe dict.

        Captures everything OpenSM + the routing engine computed — LID
        assignment, linear forwarding tables, and the virtual-lane
        layering — but *not* the topology itself: networks are cheap to
        regenerate deterministically, routing them is not.  The payload
        round-trips through :meth:`from_payload` byte-identically (same
        :meth:`dump_lft` text, same LID maps, same lanes).

        With ``rows_file`` the in-universe rows are *referenced* instead
        of inlined: the payload carries the sidecar's file name plus the
        present-switch list, and the caller is responsible for writing
        the dense matrix next to the JSON (:meth:`save` with
        ``arrays=True`` does both atomically).
        """
        if rows_file is None:
            rows: dict[str, Any] = {
                "rows": {
                    str(sw): self.tables.dense[self.tables.row_of(sw)].tolist()
                    for sw in self.tables
                },
            }
        else:
            rows = {
                "rows_file": rows_file,
                "row_switches": [int(sw) for sw in self.tables],
                "rows_shape": list(self.tables.dense.shape),
                "rows_dtype": str(self.tables.dense.dtype),
            }
        return {
            "format_version": FABRIC_FORMAT_VERSION,
            "net": self.net.name,
            "engine": self.engine_name,
            "cache_key": self.cache_key,
            "num_vls": self.num_vls,
            "notes": list(self.notes),
            "lidmap": {
                "lmc": self.lidmap.lmc,
                "base": {str(n): lid for n, lid in self.lidmap.base.items()},
                "owner": {
                    str(lid): [node, idx]
                    for lid, (node, idx) in self.lidmap.owner.items()
                },
            },
            "tables": {
                "dlids": [int(d) for d in self.tables.dlids],
                **rows,
            },
            "vl_of_dlid": {str(d): v for d, v in self.vl_of_dlid.items()},
        }

    @classmethod
    def from_payload(
        cls,
        net: Network,
        payload: dict[str, Any],
        *,
        dense_rows: "np.ndarray | None" = None,
    ) -> "Fabric":
        """Rebuild a routed fabric from :meth:`to_payload` output.

        ``net`` must be the same topology the payload was produced on
        (regenerated from the same generator/seed); the network name and
        every table entry's source switch are checked so a mismatched
        plane fails loudly instead of forwarding into nowhere.

        Sidecar payloads (``rows_file`` present) need ``dense_rows`` —
        the matrix from the ``.rows.npy`` next to the JSON, eagerly or
        memory-mapped (:meth:`load` handles both).  The matrix is
        adopted as-is via :meth:`ForwardingTables.attach_dense` after
        one vectorised foreign-link scan, so a memmap stays zero-copy.
        """
        version = payload.get("format_version")
        if version != FABRIC_FORMAT_VERSION:
            raise RoutingError(
                f"fabric payload format {version!r} != "
                f"{FABRIC_FORMAT_VERSION} (stale cache entry?)"
            )
        if payload["net"] != net.name:
            raise RoutingError(
                f"fabric payload is for network {payload['net']!r}, "
                f"not {net.name!r}"
            )
        lm = payload["lidmap"]
        lidmap = LidMap(
            lmc=int(lm["lmc"]),
            base={int(n): int(lid) for n, lid in lm["base"].items()},
            owner={
                int(lid): (int(node), int(idx))
                for lid, (node, idx) in lm["owner"].items()
            },
        )
        fabric = cls(
            net,
            lidmap,
            num_vls=int(payload["num_vls"]),
            engine_name=str(payload["engine"]),
            notes=list(payload.get("notes", ())),
            cache_key=payload.get("cache_key"),
        )
        tp = payload["tables"]
        link_src = net.switch_graph().link_src_node
        n_links = len(net.links)
        if [int(d) for d in tp["dlids"]] != fabric.tables.dlids.tolist():
            raise RoutingError(
                "fabric payload dlid universe does not match the "
                "network's (stale cache entry?)"
            )
        if "rows_file" in tp:
            if dense_rows is None:
                raise RoutingError(
                    "fabric payload references sidecar "
                    f"{tp['rows_file']!r}; load it through Fabric.load or "
                    "pass dense_rows"
                )
            m = dense_rows
            expect = tuple(tp.get("rows_shape", m.shape))
            if m.shape != expect or m.shape != fabric.tables.dense.shape:
                raise RoutingError(
                    f"fabric sidecar matrix shape {m.shape} != expected "
                    f"{expect} / universe {fabric.tables.dense.shape}"
                )
            expect_dtype = fabric.tables.dense.dtype
            if m.dtype != expect_dtype:
                raise RoutingError(
                    f"fabric sidecar matrix dtype {m.dtype} != "
                    f"{expect_dtype} (stale cache entry?)"
                )
            # Same foreign-link check as the inline path, one vector pass
            # over the whole matrix: every entry must leave its row's
            # switch.
            sw_arr = np.asarray(fabric.tables.switch_ids, dtype=np.int64)
            present = m >= 0
            clamped = np.where(present & (m < n_links), m, 0)
            bad = present & (
                (m >= n_links) | (link_src[clamped] != sw_arr[:, None])
            )
            if bad.any():
                r, c = np.argwhere(bad)[0]
                raise RoutingError(
                    f"fabric payload routes entries at switch "
                    f"{int(sw_arr[r])} via foreign link {int(m[r, c])}"
                )
            fabric.tables.attach_dense(
                m, [int(sw) for sw in tp.get("row_switches", sw_arr)]
            )
            inline_rows: dict[str, Any] = {}
        else:
            inline_rows = tp["rows"]
        for sw_s, row_values in inline_rows.items():
            sw = int(sw_s)
            arr = np.asarray(row_values, dtype=np.int32)
            present = arr >= 0
            entries = arr[present]
            if entries.size and (
                (entries >= n_links).any() or (link_src[entries] != sw).any()
            ):
                bad = next(
                    int(e)
                    for e in entries
                    if e >= n_links or link_src[e] != sw
                )
                raise RoutingError(
                    f"fabric payload routes entries at switch {sw} via "
                    f"foreign link {bad}"
                )
            fabric.tables.install_row_array(sw, arr)
        fabric.vl_of_dlid = {
            int(d): int(v) for d, v in payload.get("vl_of_dlid", {}).items()
        }
        return fabric

    @staticmethod
    def rows_sidecar(path: str | Path) -> Path:
        """The ``.rows.npy`` sidecar name for a payload at ``path``."""
        path = Path(path)
        return path.with_name(f"{path.stem}.rows.npy")

    def save(self, path: str | Path, *, arrays: bool = False) -> None:
        """Write the routed state to ``path`` as JSON (atomic rename so a
        killed writer never leaves a truncated cache entry).

        With ``arrays=True`` the dense forwarding matrix goes to a
        ``.rows.npy`` sidecar next to the JSON (written first, also via
        tmp + rename), and the JSON references it — the mmap-openable
        cache format campaign workers attach to zero-copy.
        """
        path = Path(path)
        rows_file: str | None = None
        if arrays:
            sidecar = self.rows_sidecar(path)
            tmp_npy = sidecar.with_name(f"{sidecar.name}.tmp{os.getpid()}")
            with open(tmp_npy, "wb") as f:
                np.save(f, np.ascontiguousarray(self.tables.dense))
            tmp_npy.replace(sidecar)
            rows_file = sidecar.name
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(
            json.dumps(self.to_payload(rows_file=rows_file), separators=(",", ":"))
        )
        tmp.replace(path)

    @classmethod
    def load(
        cls, net: Network, path: str | Path, *, mmap_mode: str | None = None
    ) -> "Fabric":
        """Read a routed state saved by :meth:`save` onto ``net``.

        ``mmap_mode`` applies to a ``.rows.npy`` sidecar, if the payload
        has one ("c" = copy-on-write: reads stay page-backed and shared
        across processes, a later re-sweep's writes land in private
        memory and never touch the cache file).  Inline payloads ignore
        it.
        """
        path = Path(path)
        payload = json.loads(path.read_text())
        dense = None
        rows_file = payload.get("tables", {}).get("rows_file")
        if rows_file is not None:
            dense = np.load(path.with_name(rows_file), mmap_mode=mmap_mode)
        return cls.from_payload(net, payload, dense_rows=dense)

    def __repr__(self) -> str:
        return (
            f"Fabric({self.net.name!r}, engine={self.engine_name!r}, "
            f"lmc={self.lidmap.lmc}, vls={self.num_vls})"
        )


@dataclass
class PathResolution:
    """Bulk all-pairs resolution result (:meth:`Fabric.resolve_paths`).

    Attributes
    ----------
    terminals:
        Terminal node ids, defining the row/column order of the arrays.
    lid_index:
        The destination LID index the walks used.
    ok:
        ``(T, T)`` bool; ``ok[i, j]`` iff terminal ``i`` can reach
        terminal ``j``'s LID.  The diagonal is always False.
    hops:
        ``(T, T)`` int32 switch-to-switch hop counts; -1 where not ok.
    """

    terminals: list[int]
    lid_index: int
    ok: np.ndarray
    hops: np.ndarray

    def __post_init__(self) -> None:
        self._pos = {t: i for i, t in enumerate(self.terminals)}

    def reachable(self, src: int, dst: int) -> bool:
        return bool(self.ok[self._pos[src], self._pos[dst]])

    def hop_count(self, src: int, dst: int) -> int:
        """Hops for a reachable pair; raises on unreachable ones."""
        h = int(self.hops[self._pos[src], self._pos[dst]])
        if h < 0:
            raise UnreachableError(f"no path {src} -> {dst}")
        return h

    @property
    def num_unreachable(self) -> int:
        """Ordered pairs (src != dst) with no resolvable path."""
        n = len(self.terminals)
        return n * (n - 1) - int(self.ok.sum())

    def unreachable_pairs(self, limit: int | None = None) -> list[tuple[int, int]]:
        """Unreachable ordered pairs in source-major order, up to ``limit``."""
        bad = ~self.ok
        np.fill_diagonal(bad, False)
        out: list[tuple[int, int]] = []
        for i, j in np.argwhere(bad):
            out.append((self.terminals[i], self.terminals[j]))
            if limit is not None and len(out) >= limit:
                break
        return out
