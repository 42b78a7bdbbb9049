"""Max-min fair bandwidth allocation by progressive filling.

Given flows (each a multiset of links) and per-link capacities,
progressive filling raises every unfrozen flow's rate uniformly until
some link saturates, freezes the flows crossing it, and repeats — the
textbook max-min water-filling (Bertsekas & Gallager).

Two entry points:

* :func:`max_min_fair_rates` — the one-shot call every routing/linter
  consumer uses; builds a :class:`FairnessProblem` and solves it once.
* :class:`FairnessProblem` — the reusable engine behind the dynamic
  flow simulator.  Construction compacts the link-id space, deduplicates
  flows with identical link multisets into weighted *flow classes*, and
  lays the link x class incidence out as flat numpy index arrays —
  once.  :meth:`FairnessProblem.rates` then re-solves under any boolean
  activity mask without rebuilding anything, which is what makes exact
  ``dynamic``-mode simulation of full-machine all-to-alls tractable
  (the event loop calls it once per completion event).

The incremental kernel is bit-for-bit equivalent to the original
scipy-CSR implementation (kept in the tests as
``reference_max_min_fair_rates``, the executable spec the equivalence
tests and perf baselines compare against): link occupancies are exact
small-integer sums however they are accumulated, so the water levels,
saturation order, and freezing order coincide exactly.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.errors import SimulationError

#: Relative tolerance for "link is saturated".
_EPS = 1e-9

#: Lazily bound ``scipy.linalg.lapack.dtrtrs`` (the hint fast path's
#: only scipy dependency; deferred so importing this module stays cheap,
#: and called raw because the high-level wrapper costs 5x the solve).
_dtrtrs: Callable[..., tuple[np.ndarray, int]] | None = None


def _get_dtrtrs() -> Callable[..., tuple[np.ndarray, int]]:
    global _dtrtrs
    if _dtrtrs is None:
        from scipy.linalg.lapack import dtrtrs

        _dtrtrs = dtrtrs
    return _dtrtrs


class _Hint(NamedTuple):
    """Bottleneck structure of a previous solve, reusable across masks.

    A max-min allocation is fully described by its *tiers*: the links
    that saturated and froze at least one class, in freezing order, plus
    the tier each class was frozen at (``toc``).  Given the same
    structure and new per-class weights, the tier rates solve a small
    triangular linear system (each tier's link is exactly exhausted by
    its own classes plus the load of earlier, slower tiers crossing it).
    The solution is then *verified* against the max-min optimality
    conditions; since the max-min allocation is unique, any verified
    solution is exact, and a failed verification just falls back to the
    full water-fill.
    """

    tiers: np.ndarray  # compact link id per tier, in freezing order
    toc: np.ndarray  # tier index per class, -1 = not covered
    covered: np.ndarray  # bool per class: toc >= 0
    all_covered: bool  # every class has a tier (skips the mask check)
    pair_idx: np.ndarray  # toc[c] * T + tier(l) per covered (c, l) crossing
    pair_class: np.ndarray  # class id per covered crossing
    pair_row: np.ndarray  # toc[c] per covered crossing
    pair_col: np.ndarray  # tier(l) per covered crossing
    diag_idx: np.ndarray  # indices of crossings with row == col
    diag_col: np.ndarray  # pair_col[diag_idx]
    off_idx: np.ndarray  # indices of crossings with row != col
    off_row: np.ndarray  # pair_row[off_idx]
    off_col: np.ndarray  # pair_col[off_idx]
    caps_tiers: np.ndarray  # capacity of each tier's link


def _segment_gather(ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Indices covering ``[ptr[i], ptr[i+1])`` for every ``i`` in ``ids``.

    The standard vectorised ragged-segment gather: no Python loop, one
    output element per gathered item.
    """
    starts = ptr[ids]
    lens = ptr[ids + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    # Offset of each output element within its segment, then add starts.
    seg_ends = lens.cumsum()
    within = np.arange(total) - np.repeat(seg_ends - lens, lens)
    return np.repeat(starts, lens) + within


class FairnessProblem:
    """Reusable max-min fairness solver over a fixed flow set.

    Parameters
    ----------
    flow_links:
        Per flow, the link ids it crosses (a path; duplicates allowed
        and counted, matching the reference CSR behaviour).  A flow
        with no links (self send) gets infinite rate when active.
        May be ``None`` when ``prebuilt_flat`` supplies the flattened
        form directly (the batched simulator path).
    link_capacity:
        Capacity per link id (mapping or dense indexable).  Only the
        links actually crossed are read; each must be positive.

    The constructor does all O(total links) work exactly once:

    * **compaction** — ``np.unique`` maps the sparse global link-id
      space onto ``0..n_links-1``;
    * **flow-class dedup** — flows with identical link multisets share
      one column; the solver weighs each class by its active
      multiplicity instead of materialising duplicate columns;
    * **incidence layout** — the link x class incidence and its
      transpose are stored as flat ``(ptr, indices)`` index arrays, so
      the water-filling loop is pure ``bincount``/gather numpy with no
      per-call sparse-matrix construction.

    :meth:`rates` solves for any boolean activity mask; masking only
    changes the per-class weights, never the arrays.
    """

    __slots__ = (
        "n_flows", "n_links", "n_classes", "_flow_class", "_has_links",
        "_caps", "_caps_tol", "_class_ptr", "_class_links", "_nnz_class",
        "_link_ptr", "_link_classes", "_full_counts", "_hint",
    )

    def __init__(
        self,
        flow_links: Sequence[Sequence[int]] | None,
        link_capacity: Mapping[int, float] | Sequence[float] | np.ndarray,
        *,
        prebuilt_flat: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if prebuilt_flat is not None:
            # Caller already flattened the paths (message batches carry
            # the CSR form); skip the Python-level pass entirely.
            lens, flat = prebuilt_flat
            n_flows = int(len(lens))
        else:
            if flow_links is None:
                raise SimulationError(
                    "FairnessProblem needs flow_links or prebuilt_flat"
                )
            from repro.sim.batch import flatten_paths

            n_flows = len(flow_links)
            lens, _, flat = flatten_paths(flow_links)
        self.n_flows = n_flows
        self._has_links = lens > 0

        # Link-id compaction: the global id space is sparse (a phase
        # touches a fraction of the fabric), the solver's isn't.
        used, flat_c = np.unique(flat, return_inverse=True)
        n_links = len(used)
        self.n_links = n_links
        if isinstance(link_capacity, Mapping):
            caps = np.array(
                [link_capacity[lid] for lid in used.tolist()], dtype=float
            )
        else:
            caps = np.asarray(link_capacity, dtype=float)[used]
        if np.any(caps <= 0):
            raise SimulationError("links must have positive capacity")
        self._caps = caps
        self._caps_tol = caps * (1.0 + _EPS)
        self._hint: _Hint | None = None

        # Canonicalise every flow (sort its links) so identical link
        # multisets compare equal, then dedup into classes.  The lexsort
        # gives all flows' sorted segments in one shot.
        ends = lens.cumsum()
        starts = ends - lens
        total = int(ends[-1]) if n_flows else 0
        flow_ids = np.repeat(np.arange(n_flows), lens)
        order = np.lexsort((flat_c, flow_ids))
        sorted_links = np.ascontiguousarray(flat_c[order])

        flow_class = np.full(n_flows, -1, dtype=np.intp)
        nonempty = np.flatnonzero(lens)
        lmax = int(lens.max()) if n_flows else 0
        if nonempty.size and n_flows * lmax <= 5_000_000:
            # Vectorised dedup: pad every sorted segment to a fixed-width
            # row (compacted ids are >= 0, so the -1 filler cannot
            # collide) and unique the rows as opaque byte strings.
            pad = np.full((n_flows, lmax), -1, dtype=sorted_links.dtype)
            within = np.arange(total, dtype=np.intp) - np.repeat(
                starts, lens
            )
            pad[flow_ids, within] = sorted_links
            rows = np.ascontiguousarray(pad[nonempty])
            key = rows.view(
                np.dtype((np.void, rows.dtype.itemsize * lmax))
            ).ravel()
            _, first, inverse = np.unique(
                key, return_index=True, return_inverse=True
            )
            flow_class[nonempty] = inverse
            reps = nonempty[first]
            rep_lens = lens[reps].astype(np.intp)
            rep_starts_arr = starts[reps].astype(np.intp)
            n_classes = int(first.size)
        else:
            # Fallback for degenerate shapes (a few very long paths)
            # where the padded matrix would not be worth its memory.
            key_to_class: dict[bytes, int] = {}
            rep_start: list[int] = []
            rep_len: list[int] = []
            for f in nonempty.tolist():
                s, e = int(starts[f]), int(ends[f])
                bkey = sorted_links[s:e].tobytes()
                c = key_to_class.get(bkey)
                if c is None:
                    c = len(key_to_class)
                    key_to_class[bkey] = c
                    rep_start.append(s)
                    rep_len.append(e - s)
                flow_class[f] = c
            n_classes = len(key_to_class)
            rep_lens = np.asarray(rep_len, dtype=np.intp)
            rep_starts_arr = np.asarray(rep_start, dtype=np.intp)
        self.n_classes = n_classes
        self._flow_class = flow_class

        # Incidence (class -> links) and transpose (link -> classes) as
        # flat index arrays.
        self._class_ptr = np.concatenate(
            ([0], rep_lens.cumsum())
        ).astype(np.intp)
        if n_classes:
            within = (
                np.arange(int(rep_lens.sum()))
                - np.repeat(rep_lens.cumsum() - rep_lens, rep_lens)
            )
            self._class_links = sorted_links[
                np.repeat(rep_starts_arr, rep_lens) + within
            ]
        else:
            self._class_links = np.empty(0, dtype=np.intp)
        self._nnz_class = np.repeat(np.arange(n_classes), rep_lens)
        t_order = np.argsort(self._class_links, kind="stable")
        self._link_classes = self._nnz_class[t_order]
        self._link_ptr = np.concatenate(
            ([0], np.bincount(self._class_links, minlength=n_links).cumsum())
        ).astype(np.intp)

        self._full_counts = np.bincount(
            flow_class[self._has_links], minlength=n_classes
        ).astype(float)

    # --- solving ----------------------------------------------------------
    def counts(self, active: np.ndarray | None = None) -> np.ndarray:
        """Per-class active flow multiplicity under ``active`` (float)."""
        if active is None:
            return self._full_counts.copy()
        sel = np.asarray(active, dtype=bool) & self._has_links
        return np.bincount(
            self._flow_class[sel], minlength=self.n_classes
        ).astype(float)

    def rates(self, active: np.ndarray | None = None) -> np.ndarray:
        """Max-min fair rate per flow, bytes/second.

        ``active`` is a boolean mask over the problem's flows (default:
        all active).  Inactive flows get rate 0 and contribute no load;
        active link-less flows get ``inf``.  Equivalent to solving the
        sub-problem restricted to the active flows — only the per-class
        weights change, the incidence arrays are reused as-is.

        Masked calls additionally reuse the *bottleneck structure* of
        the previous masked solve (see :class:`_Hint`): when the same
        links stay the bottlenecks — the overwhelmingly common case as a
        dynamic phase drains — the new rates come from a tiny triangular
        solve plus an O(nnz) optimality check instead of a full
        water-fill.  The fallback is automatic and the result is exact
        either way (max-min allocations are unique).
        """
        rates = np.zeros(self.n_flows)
        if active is None:
            act = np.ones(self.n_flows, dtype=bool)
            counts = self._full_counts
        else:
            act = np.asarray(active, dtype=bool)
            counts = self.counts(act)
        rates[act & ~self._has_links] = np.inf
        if self.n_classes:
            class_rates = None
            if active is not None:
                if self._hint is not None:
                    class_rates = self._rates_from_hint(counts)
                if class_rates is None:
                    class_rates, self._hint = self._water_fill(
                        counts, emit=True
                    )
            else:
                class_rates = self.class_rates(counts)
            sel = act & self._has_links
            rates[sel] = class_rates[self._flow_class[sel]]
        return rates

    @property
    def flow_class(self) -> np.ndarray:
        """Class index per flow (``-1`` for link-less flows)."""
        return self._flow_class

    def solve_classes(self, counts: np.ndarray) -> np.ndarray:
        """Class rates under explicit per-class weights.

        The dynamic event loop's entry point: tries the hint fast path
        (see :class:`_Hint`) and falls back to a full water-fill, which
        re-emits the hint for the next call.  Callers that track the
        active multiplicities incrementally skip the per-event
        ``bincount`` of :meth:`rates`.
        """
        crates = None
        if self._hint is not None:
            crates = self._rates_from_hint(counts)
        if crates is None:
            crates, self._hint = self._water_fill(counts, emit=True)
        return crates

    def rates_active(self, idx: np.ndarray) -> np.ndarray:
        """Rates for exactly the flows in ``idx`` (all others inactive).

        Returns an array aligned with ``idx`` — the dynamic event loop's
        shape — skipping the full per-flow expansion of :meth:`rates`.
        Uses the same hint fast path / water-fill fallback.
        """
        fc = self._flow_class[idx]
        linked = fc >= 0
        all_linked = bool(linked.all())
        counts = np.bincount(
            fc if all_linked else fc[linked], minlength=self.n_classes
        ).astype(float)
        crates = self.solve_classes(counts)
        if all_linked:
            return crates[fc]
        out = np.full(len(idx), np.inf)
        out[linked] = crates[fc[linked]]
        return out

    def class_rates(self, counts: np.ndarray) -> np.ndarray:
        """Water-fill the classes weighted by ``counts`` active flows each.

        The incremental kernel: per level it only touches the compacted
        per-link arrays; per-class work happens exactly once, when the
        class freezes (its load is subtracted from the link occupancy,
        which stays an exact integer-valued float throughout — this is
        what makes the kernel agree bit-for-bit with the reference).
        """
        return self._water_fill(counts, emit=False)[0]

    def _water_fill(
        self, counts: np.ndarray, emit: bool
    ) -> tuple[np.ndarray, _Hint | None]:
        """Progressive filling; with ``emit`` also records the hint.

        ``emit=False`` follows the exact arithmetic of the original
        kernel; ``emit=True`` additionally assigns every frozen class
        its *bottleneck tier* (the first saturated link it crosses, in
        link-id order within a level) — the structure
        :meth:`_rates_from_hint` re-solves under new weights.  Both
        paths produce identical rates: the dedup order only affects
        float summation of exact integers.
        """
        n_links = self.n_links
        crates = np.zeros(self.n_classes)
        alive = counts > 0
        n_alive = int(alive.sum())
        toc = np.full(self.n_classes, -1, dtype=np.intp) if emit else None
        tier_links: list[np.ndarray] = []
        tier_base = 0
        if n_alive == 0 or n_links == 0:
            return crates, (self._build_hint(tier_links, toc) if emit else None)
        link_classes = self._link_classes
        link_ptr = self._link_ptr
        class_links = self._class_links
        class_ptr = self._class_ptr
        n_active = np.bincount(
            class_links, weights=counts[self._nnz_class], minlength=n_links
        )
        cap_left = self._caps.copy()
        eps_caps = _EPS * self._caps
        # Links whose occupancy dropped to zero never come back (classes
        # only freeze), so the per-level arrays shrink as flows drain.
        live = np.flatnonzero(n_active > 0)
        level = 0.0
        for _ in range(n_links + 1):
            if n_alive == 0:
                break
            na = n_active[live]
            keep = na > 0
            if not keep.all():
                live = live[keep]
                na = na[keep]
                if live.size == 0:
                    break
            cl = cap_left[live]
            headroom = cl / na
            k = int(headroom.argmin())
            inc = float(headroom[k])
            level += inc
            cl = cl - inc * na
            cap_left[live] = cl
            sat = live[cl <= eps_caps[live]]
            if sat.size == 0:
                # Numerical corner: saturate the tightest link explicitly.
                sat = live[k:k + 1]
            # Freeze every still-alive class crossing a saturated link.
            srcs = None
            if sat.size == 1:
                s = int(sat[0])
                cand = link_classes[link_ptr[s]:link_ptr[s + 1]]
            else:
                cand = link_classes[_segment_gather(link_ptr, sat)]
                if emit:
                    srcs = np.repeat(sat, link_ptr[sat + 1] - link_ptr[sat])
            mask = alive[cand]
            cand = cand[mask]
            if cand.size == 0:
                raise SimulationError(
                    "progressive filling failed to converge"
                )
            if emit:
                assert toc is not None
                if srcs is not None:
                    srcs = srcs[mask]
                if cand.size > 1:
                    cand, first = np.unique(cand, return_index=True)
                    if srcs is None:
                        toc[cand] = tier_base
                    else:
                        toc[cand] = tier_base + np.searchsorted(
                            sat, srcs[first]
                        )
                elif srcs is None:
                    toc[cand] = tier_base
                else:
                    toc[cand] = tier_base + int(
                        np.searchsorted(sat, srcs[0])
                    )
                tier_links.append(sat)
                tier_base += int(sat.size)
            elif cand.size > 1:
                cand = np.sort(cand)
                cand = cand[
                    np.concatenate(([True], cand[1:] != cand[:-1]))
                ]
            crates[cand] = level
            alive[cand] = False
            n_alive -= int(cand.size)
            # Remove the frozen classes' load from the occupancies; on
            # the just-saturated links this lands on exactly zero
            # (integer-valued floats throughout).
            if cand.size == 1:
                c = int(cand[0])
                frozen_links = class_links[class_ptr[c]:class_ptr[c + 1]]
                n_active -= np.bincount(
                    frozen_links,
                    weights=None,
                    minlength=n_links,
                ) * counts[c]
            else:
                frozen_links = class_links[_segment_gather(class_ptr, cand)]
                n_active -= np.bincount(
                    frozen_links,
                    weights=np.repeat(
                        counts[cand], class_ptr[cand + 1] - class_ptr[cand]
                    ),
                    minlength=n_links,
                )
        else:
            raise SimulationError(
                "progressive filling exceeded its iteration bound"
            )
        crates[alive] = level  # pathological leftovers (shouldn't occur)
        return crates, (self._build_hint(tier_links, toc) if emit else None)

    def _build_hint(
        self, tier_links: list[np.ndarray], toc: np.ndarray | None
    ) -> _Hint:
        """Precompute the mask-independent arrays of the hint fast path."""
        assert toc is not None
        tiers = (
            np.concatenate(tier_links)
            if tier_links
            else np.empty(0, dtype=np.intp)
        )
        # Saturated links that froze no class (another link in the same
        # level got there first in link order) add dead rows/columns to
        # the triangular system; prune them so its size tracks the
        # classes, not the saturation count — symmetric phases saturate
        # hundreds of links in one level.
        if tiers.size:
            used = np.zeros(tiers.size, dtype=bool)
            used[toc[toc >= 0]] = True
            if not used.all():
                remap = np.concatenate(
                    (np.cumsum(used) - 1, [-1])
                ).astype(np.intp)
                toc = remap[toc]
                tiers = tiers[used]
        t = tiers.size
        tier_of_link = np.full(self.n_links, -1, dtype=np.intp)
        tier_of_link[tiers] = np.arange(t)
        nl = tier_of_link[self._class_links]
        nc = toc[self._nnz_class]
        valid = (nl >= 0) & (nc >= 0)
        covered = toc >= 0
        pair_row = nc[valid]
        pair_col = nl[valid]
        is_diag = pair_row == pair_col
        diag_idx = np.flatnonzero(is_diag)
        off_idx = np.flatnonzero(~is_diag)
        return _Hint(
            tiers=tiers,
            toc=toc,
            covered=covered,
            all_covered=bool(covered.all()),
            pair_idx=pair_row * t + pair_col,
            pair_class=self._nnz_class[valid],
            pair_row=pair_row,
            pair_col=pair_col,
            diag_idx=diag_idx,
            diag_col=pair_col[diag_idx],
            off_idx=off_idx,
            off_row=pair_row[off_idx],
            off_col=pair_col[off_idx],
            caps_tiers=self._caps[tiers],
        )

    def _rates_from_hint(self, counts: np.ndarray) -> np.ndarray | None:
        """Re-solve under the previous bottleneck structure, verified.

        Tier ``t``'s link is exactly exhausted by its own classes plus
        the load of earlier tiers crossing it, so the tier rates solve a
        lower-triangular system (no later-frozen class can cross an
        earlier-saturated link — it would have been frozen there).  The
        solution is accepted only if it passes the max-min optimality
        conditions: positive rates, every tier at least as fast as the
        earlier tiers crossing its link, and global feasibility.  Any
        failure returns ``None`` and the caller re-derives the structure
        with a full water-fill.
        """
        hint = self._hint
        assert hint is not None
        if not hint.all_covered and bool(
            ((counts > 0) & ~hint.covered).any()
        ):
            return None
        t = hint.tiers.size
        if t == 0:
            return np.zeros(self.n_classes)
        pw = counts[hint.pair_class]
        diag = np.bincount(
            hint.diag_col, weights=pw[hint.diag_idx], minlength=t
        )
        keep = diag > 0
        if keep.all():
            mc = np.bincount(
                hint.pair_idx, weights=pw, minlength=t * t
            ).reshape(t, t)
            caps_t = hint.caps_tiers
            kept = None
        else:
            # Tiers whose classes all completed drop out; a tier with an
            # active class always keeps a positive diagonal (the class
            # crosses its own bottleneck link).  Build the compact
            # matrix directly — crossings into dropped tiers carry load
            # on unsaturated links, covered by the feasibility check;
            # crossings *from* dropped tiers all have zero weight.
            kept = np.flatnonzero(keep)
            tc = kept.size
            if tc == 0:
                return np.zeros(self.n_classes)
            newidx = np.full(t, -1, dtype=np.intp)
            newidx[kept] = np.arange(tc)
            sel = keep[hint.pair_col]
            rows = np.maximum(newidx[hint.pair_row[sel]], 0)
            mc = np.bincount(
                rows * tc + newidx[hint.pair_col[sel]],
                weights=pw[sel],
                minlength=tc * tc,
            ).reshape(tc, tc)
            caps_t = hint.caps_tiers[kept]
        # mc is upper triangular (no later-frozen class crosses an
        # earlier-saturated link), so dtrtrs with trans solves the
        # transposed (lower) system without forming mc.T.
        r, info = _get_dtrtrs()(mc, caps_t, lower=0, trans=1)
        if info != 0 or bool((r <= 0).any()):
            return None
        if kept is None:
            r_full = r
            r_chk = r
        else:
            r_full = np.zeros(t)
            r_full[kept] = r
            # Dropped tiers impose no rate bound of their own.
            r_chk = np.where(keep, r_full, np.inf)
        # Bottleneck validity: no earlier tier crossing this tier's link
        # may be faster, else that link is not these classes' bottleneck.
        # Checked pairwise over the sparse crossings — the dense column
        # max is O(T^2) and dominates when whole levels saturate at once.
        bad = (pw[hint.off_idx] > 0) & (
            r_full[hint.off_row] > r_chk[hint.off_col] * (1.0 + _EPS)
        )
        if bool(bad.any()):
            return None
        if hint.all_covered:
            crates = r_full[hint.toc]
        else:
            crates = np.zeros(self.n_classes)
            cov = hint.covered
            crates[cov] = r_full[hint.toc[cov]]
        load = np.bincount(
            self._class_links,
            weights=(counts * crates)[self._nnz_class],
            minlength=self.n_links,
        )
        if bool((load > self._caps_tol).any()):
            return None
        return crates


def max_min_fair_rates(
    flow_links: Sequence[Sequence[int]],
    link_capacity: Mapping[int, float] | Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Max-min fair rate for each flow, bytes/second.

    Thin wrapper over :class:`FairnessProblem` (build once, solve once)
    keeping the historical one-shot signature every routing/linter
    caller and the property tests use.

    Parameters
    ----------
    flow_links:
        Per flow, the link ids it crosses.  A flow with no links (self
        send) gets infinite rate.
    link_capacity:
        Capacity per link id (mapping or dense indexable).

    Returns
    -------
    Array of per-flow rates.  Invariants (property-tested):

    * no link's summed rate exceeds its capacity,
    * every flow is bottlenecked — it crosses at least one saturated
      link whose other flows have no higher rate (max-min optimality).
    """
    if len(flow_links) == 0:
        return np.zeros(0)
    return FairnessProblem(flow_links, link_capacity).rates()


def link_loads(
    flow_links: Sequence[Sequence[int]],
    rates: np.ndarray,
) -> dict[int, float]:
    """Aggregate bytes/second crossing each link under the given rates."""
    loads: dict[int, float] = {}
    for links, rate in zip(flow_links, rates):
        if not np.isfinite(rate):
            continue
        for lid in links:
            loads[lid] = loads.get(lid, 0.0) + float(rate)
    return loads
