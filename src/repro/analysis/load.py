"""Static link-load estimation from forwarding tables alone.

The paper's core HyperX pathology (section 3.1): minimal routing on a
high-radix direct topology concentrates bisection traffic onto few
links, which is why PARX adds non-minimal detours.  This module
predicts that concentration *statically*: for an all-to-all unit demand
(every terminal sends one notional packet to every destination LID),
count how many (source, dlid) table walks traverse each
switch-to-switch link.  No flow simulation is involved — the counts
fall straight out of the destination trees encoded in the LFTs.

The per-destination forwarding function is a functional graph over
switches (each switch has at most one out-edge per dlid), so one
topological pass per destination accumulates all source counts in
O(switches) — O(switches x LIDs) overall, fast enough to run as a lint
rule on the full 12x8 plane.  Switches caught in forwarding loops or
black holes are skipped here; the walk rules report those defects.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.chunking import items_per_chunk
from repro.core.parallel import run_loads_job
from repro.ib.fabric import Fabric
from repro.routing.arrays import accumulate_column_loads


def estimate_link_loads(fabric: Fabric) -> dict[int, int]:
    """Table-walk traversal counts per enabled switch-to-switch link.

    Returns ``link id -> number of (source terminal, destination LID)
    pairs whose table walk crosses that link`` under uniform all-pairs
    demand.  Only switch-to-switch links accumulate load; injection and
    ejection hops are topology-determined and uninteresting.

    The per-destination successor function and in-degrees come from
    column gathers over the dense next-hop matrix, and the Kahn pass
    drains whole frontiers at a time through the shared
    :func:`repro.routing.arrays.accumulate_column_loads` kernel (the
    what-if verifier runs the same kernel over other column subsets).
    The drain order never affects the totals because every predecessor
    of a switch settles before it.
    """
    net = fabric.net
    tables = fabric.tables
    dlids = fabric.lidmap.terminal_lids(net)
    graph = net.switch_graph()
    loads_arr = np.zeros(len(net.links), dtype=np.int64)
    cols = np.asarray(
        [tables.column_of(dlid) for dlid in dlids], dtype=np.int64
    )
    roots = np.asarray(
        [
            graph.index[net.attached_switch(fabric.lidmap.node_of(dlid))]
            for dlid in dlids
        ],
        dtype=np.int64,
    )
    # Destination-chunked so the per-chunk transient state stays bounded
    # on 10k-LID fabrics; per-link sums are order-independent, so any
    # chunk size — and any worker sharding — produces the identical
    # count dict.
    chunk = items_per_chunk(net.num_switches * 40)
    if not run_loads_job(tables.dense, graph, cols, roots, loads_arr, chunk):
        for lo in range(0, cols.size, chunk):
            accumulate_column_loads(
                tables.dense,
                graph,
                cols[lo : lo + chunk],
                roots[lo : lo + chunk],
                loads_arr,
            )

    return {
        link.id: int(loads_arr[link.id])
        for link in net.iter_links()
        if net.is_switch(link.src) and net.is_switch(link.dst)
    }


def load_summary(fabric: Fabric, loads: dict[int, int]) -> dict[str, Any]:
    """Aggregate statistics of an :func:`estimate_link_loads` result."""
    if not loads:
        return {"links": 0, "mean": 0.0, "max": 0, "max_link": None,
                "imbalance": 0.0}
    mean = sum(loads.values()) / len(loads)
    max_link = max(loads, key=lambda lid: loads[lid])
    peak = loads[max_link]
    link = fabric.net.link(max_link)
    return {
        "links": len(loads),
        "mean": round(mean, 2),
        "max": peak,
        "max_link": {"link": max_link, "src": link.src, "dst": link.dst},
        "imbalance": round(peak / mean, 2) if mean else 0.0,
    }


def hot_links(
    fabric: Fabric,
    loads: dict[int, int],
    threshold: float = 3.0,
    limit: int = 8,
) -> list[dict[str, Any]]:
    """Links whose predicted load exceeds ``threshold`` x fabric mean.

    Returns witness dicts sorted by descending load, at most ``limit``
    of them (the linter caps emission; totals live in the summary).
    """
    if not loads:
        return []
    mean = sum(loads.values()) / len(loads)
    if mean <= 0:
        return []
    hot = [
        (lid, count) for lid, count in loads.items() if count > threshold * mean
    ]
    hot.sort(key=lambda item: -item[1])
    out: list[dict[str, Any]] = []
    for lid, count in hot[:limit]:
        link = fabric.net.link(lid)
        out.append({
            "link": lid,
            "src": link.src,
            "dst": link.dst,
            "load": count,
            "mean": round(mean, 2),
            "ratio": round(count / mean, 2),
            "meta": {k: v for k, v in link.meta.items()
                     if isinstance(v, (int, float, str))},
        })
    return out
