"""Columnar (CSR) store of piecewise linear functions: the batch kernel.

Every hot path of the paper's methods — scoring the ``m`` candidate
objects of a ``top-k(t1, t2)`` query, the BREAKPOINTS1/2 construction
sweeps, top-list materialization, instant ranking — ultimately asks the
same question of *every* object at once: "what is your cumulative mass
(or value) at time ``t``?".  Answering it through ``m`` separate
:class:`~repro.core.plf.PiecewiseLinearFunction` objects pays Python
attribute/``searchsorted`` overhead per object per operation.

:class:`PLFStore` packs all objects' knots into flat CSR-style NumPy
arrays (concatenated ``knot_times`` / ``knot_values``, per-object
``offsets``, precomputed concatenated ``prefix_masses`` and per-knot
chord slopes) and answers the question for all objects in a handful of
vectorized operations:

* :meth:`cumulative_at` — ``C_i(t)`` for every object: one batched
  binary search (``O(m log n)`` work, ~10 NumPy kernels),
* :meth:`integrals` / :meth:`integrals_many` — exact interval
  aggregates for one query or a whole workload,
* :meth:`masses_between` — per-object masses over a breakpoint grid
  (the ``P`` matrix of the QUERY1/QUERY2 constructions),
* :meth:`inverse_cumulative_many` — per-object crossing times
  ``F_i^{-1}(target_i)`` (the BREAKPOINTS2 reset step),
* :meth:`values_at` — ``g_i(t)`` for instant top-k,
* :meth:`top_k` / :meth:`top_k_many` — batched query answering.

Numerical contract
------------------
Every primitive replicates the *scalar* per-object arithmetic of
``PiecewiseLinearFunction`` operation for operation (same piece
selection, same trapezoid formula, same stable quadratic root), so
batch results are bit-identical to the per-object reference.  This is
what lets the breakpoint sweeps route through the kernel and still
produce byte-identical breakpoint sets.

When to use which
-----------------
Per-object PLFs remain the right interface for *single-object* work
(appends, restriction, one-off integrals) and for algorithms that
touch few objects per step (the segment-driven BREAKPOINTS2 sweep).
The store is for *object-parallel* work: anything that loops "for each
object" at query or construction time should go through it.  Stores
are immutable snapshots; after appending segments to the database,
build a fresh store (``TemporalDatabase`` caches and invalidates one
for you).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

import numpy as np

from repro.core import buildcount
from repro.core.errors import ReproError
from repro.core.plf import PiecewiseLinearFunction
from repro.core.results import TopKResult, top_k_from_arrays
from repro.parallel.executor import split_rows

#: Cap on temporary elements per chunk in batched many-query kernels;
#: bounds peak memory of (q, m) broadcasts to ~a few hundred MB.
_CHUNK_ELEMENTS = 4 << 20

#: Serializes :meth:`PLFStore.csr_view` creation across threads.
_VIEW_LOCK = threading.Lock()


def row_chunks(q: int, m: int) -> List[slice]:
    """Row slices covering ``q`` rows of a ``(q, m)`` computation, each
    holding at most ``_CHUNK_ELEMENTS`` elements (at least one row).

    Every batched many-query kernel iterates these, so results must
    not depend on the chunking; the cap is read at call time.
    """
    step = max(1, _CHUNK_ELEMENTS // max(m, 1))
    return [slice(lo, lo + step) for lo in range(0, q, step)]


def isin_sorted(sorted_values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact membership of each query in an ascending-sorted array.

    The batched query pipelines use this to detect knot-coincident
    query times (which the modeled stab arithmetic routes through the
    scalar path); one ``searchsorted`` replaces ``np.isin``'s per-call
    sort of the haystack.
    """
    queries = np.asarray(queries, dtype=np.float64)
    idx = np.searchsorted(sorted_values, queries)
    clamped = np.minimum(idx, sorted_values.size - 1)
    return (idx < sorted_values.size) & (sorted_values[clamped] == queries)


def interior_knot_index(
    knot_times: np.ndarray, offsets: np.ndarray
) -> tuple:
    """``(times, rows)``: every knot except each object's first and
    last, sorted by time, and the object row of each (int32).

    :meth:`CSRView.locate_many`'s index, built once per view by one
    unstable argsort (knots of equal time all land in the same row of
    the count, so their order is immaterial).
    """
    m = offsets.size - 1
    interior = np.ones(knot_times.size, dtype=bool)
    interior[offsets[:-1]] = False
    interior[offsets[1:] - 1] = False
    times = knot_times[interior]
    order = np.argsort(times)
    times = times[order]
    rows = np.repeat(
        np.arange(m, dtype=np.int32), np.diff(offsets) - 2
    )[order]
    return times, rows


class CSRView:
    """A shareable view of a store's CSR kernel arrays.

    The view bundles the seven flat arrays the batch kernels read — no
    ``m`` Python function objects — plus two derived per-knot arrays
    built once with it: :attr:`stab_slopes` and the time-sorted
    interior-knot index of :meth:`locate_many`.  The arithmetic here
    *is* the store's: :class:`PLFStore` delegates to its cached view.
    """

    __slots__ = (
        "knot_times",
        "knot_values",
        "offsets",
        "prefix_masses",
        "starts",
        "ends",
        "totals",
        "stab_slopes",
        "index_times",
        "index_rows",
    )

    def __init__(
        self,
        knot_times: np.ndarray,
        knot_values: np.ndarray,
        offsets: np.ndarray,
        prefix_masses: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        totals: np.ndarray,
    ) -> None:
        self.knot_times = knot_times
        self.knot_values = knot_values
        self.offsets = offsets
        self.prefix_masses = prefix_masses
        self.starts = starts
        self.ends = ends
        self.totals = totals
        # Chord slope (v[j+1] - v[j]) / (t[j+1] - t[j]) of the piece
        # starting at each knot j (0 for a zero-width piece; meaningless
        # at an object's last knot): elementwise the slope expression
        # of the EXACT3 stab and the cumulative kernels, so gathering it
        # is bit-identical to computing it per pair.
        width = np.diff(knot_times)
        self.stab_slopes = np.where(
            width > 0,
            np.diff(knot_values) / np.where(width > 0, width, 1.0),
            0.0,
        )
        self.index_times, self.index_rows = interior_knot_index(
            knot_times, offsets
        )

    @property
    def num_objects(self) -> int:
        """``m``."""
        return int(self.offsets.size - 1)

    def _locate(self, tc: np.ndarray) -> np.ndarray:
        """Flat knot index of the segment containing one clamped time.

        The kernel of the single-time entry points (``cumulative_at``,
        ``values_at``): ``tc`` is the ``(m,)`` clamp of one time into
        every object's span.  Returns, per object,
        the largest knot index ``j`` within its segment-left range
        with ``knot_times[j] <= tc`` — the same piece the scalar
        ``searchsorted(times, t, "right") - 1`` selects — by a shared
        bisection over the CSR arrays: ``O(m log max_n)`` work, where
        the time-grid kernel :meth:`locate_many` walks up to every
        interior knot per call.
        """
        shape = tc.shape
        low = np.broadcast_to(self.offsets[:-1], shape).copy()
        # Restrict to segment-left knots so ``j`` always names a piece
        # (times at an object's end map to its last piece with dt = 0
        # before the boundary masks take over).
        high = np.broadcast_to(self.offsets[1:] - 2, shape).copy()
        while True:
            active = low < high
            if not active.any():
                break
            mid = (low + high + 1) >> 1
            go_up = active & (self.knot_times[mid] <= tc)
            go_down = active & ~go_up
            low[go_up] = mid[go_up]
            high[go_down] = mid[go_down] - 1
        return low

    def locate_many(self, ts: np.ndarray) -> np.ndarray:
        """Piece location for a grid of ``q`` times x all ``m`` objects.

        ``located[r, i]`` is the flat index of the largest segment-left
        knot of object ``i`` with time ``<= ts[r]``, clamped to the
        object's piece range — ``clip(searchsorted(times_i, ts[r],
        "right") - 1, 0, n_i - 2)`` per pair, :meth:`_locate`'s
        selection — with no loop over objects and no ``(q, m)``
        bisection rounds.

        Every object has ``>= 2`` knots with strictly increasing times,
        so that clipped count equals ``offsets[i] + #{interior knots of
        i with time <= ts[r]}``: the first knot is always counted
        (before the span the clip lifts 0 back to it), the last never
        is (past the span the clip drops it).  The view's time-sorted
        interior-knot index answers every count at once: ``q`` binary
        searches cut it at the sorted times, the knots between two
        consecutive cuts are histogrammed per object into the row of
        the later time (the earliest time's row seeded with
        ``offsets[:-1]``), and summing the rows in time order, in
        place, turns counts into piece indices — ``O(q log K + L + q
        m)`` for the ``L <= K`` interior knots below the largest time,
        where ranking every knot into the times cost ``O(K log q)``.
        Rows are keyed by the caller's order throughout, so nothing is
        permuted back.  Out-of-span times land on the first/last
        piece, whose value the callers' boundary masks replace.  Every
        batched pipeline (EXACT3 stabs, the instant tree,
        ``cumulative_at_many``, ``values_at_many``, the top-list
        builders) locates through this one kernel.
        """
        q = ts.size
        m = self.num_objects
        order = np.argsort(ts)
        cuts = np.searchsorted(self.index_times, ts[order], side="right")
        below = int(cuts[-1]) if q else 0
        # Each knot below the largest time goes to the row of the first
        # time at or after it: cell = caller row * m + object row.
        cell = np.repeat(order * m, np.diff(cuts, prepend=0))
        cell += self.index_rows[:below]
        located = np.bincount(cell, minlength=q * m).reshape(q, m)
        del cell
        if q:
            previous = located[order[0]]
            previous += self.offsets[:-1]
            for row in order[1:].tolist():
                current = located[row]
                np.add(current, previous, out=current)
                previous = current
        return located

    def locate_grid(self, tc: np.ndarray) -> np.ndarray:
        """:meth:`locate_many` for a caller that holds only the clamped
        grid ``tc = clip(ts[:, None], starts, ends)``.

        A clamped row determines its time as far as piece selection
        goes: the largest entry above its object's start is ``ts[r]``
        itself (or the latest end below it, past which no knot lies),
        and a row with no such entry precedes every span.
        """
        ts = np.where(tc > self.starts, tc, -np.inf).max(axis=1)
        return self.locate_many(ts)

    def _cumulative_clamped(self, tc: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``C_i(tc)`` given located pieces; scalar-identical arithmetic.

        Mirrors ``prefix[j] + seg.integral(seg.t0, t)``: the trapezoid
        ``0.5 * dt * (v0 + v_t)`` with ``v_t`` from the segment's chord.
        """
        t0 = self.knot_times[j]
        v0 = self.knot_values[j]
        w = (self.knot_values[j + 1] - v0) / (self.knot_times[j + 1] - t0)
        dt = tc - t0
        v_t = v0 + w * dt
        return self.prefix_masses[j] + 0.5 * dt * (v0 + v_t)

    def cumulative_at(self, t: float) -> np.ndarray:
        """``C_i(t)`` for every object: an ``(m,)`` array.

        Clamped exactly like the scalar :meth:`PiecewiseLinearFunction.
        cumulative`: 0 before the object's span, total mass after it.
        """
        t = float(t)
        tc = np.clip(t, self.starts, self.ends)
        cum = self._cumulative_clamped(tc, self._locate(tc))
        return np.where(
            t <= self.starts,
            0.0,
            np.where(t >= self.ends, self.totals, cum),
        )

    def inverse_cumulative_many(self, targets: np.ndarray) -> np.ndarray:
        """Per-object smallest ``t`` with ``C_i(t) >= targets[i]``.

        The batched BREAKPOINTS2 reset step: one call replaces the
        scalar ``inverse_cumulative`` calls for every object, with
        identical piece selection (left-biased bisection on the
        prefix masses) and the same stable quadratic root, so results
        match bit for bit.  Requires nondecreasing cumulatives (run on
        the absolute store when scores may be negative).  Entries
        whose total mass never reaches the target come back ``inf``.
        """
        targets = np.asarray(targets, dtype=np.float64)
        low = self.offsets[:-1].copy()
        high = self.offsets[1:] - 2
        # Largest knot j in the object's segment-left range with
        # prefix[j] < target (prefix[start] = 0 < target holds whenever
        # the target is positive; nonpositive targets are masked below).
        while True:
            active = low < high
            if not active.any():
                break
            mid = (low + high + 1) >> 1
            go_up = active & (self.prefix_masses[mid] < targets)
            go_down = active & ~go_up
            low[go_up] = mid[go_up]
            high[go_down] = mid[go_down] - 1
        j = low
        v0 = self.knot_values[j]
        t0 = self.knot_times[j]
        max_dt = self.knot_times[j + 1] - t0
        w = (self.knot_values[j + 1] - v0) / max_dt
        need = targets - self.prefix_masses[j]
        # solve_linear_mass, vectorized with the same operation order.
        disc = np.maximum(v0 * v0 + 2.0 * w * need, 0.0)
        denom = v0 + np.sqrt(disc)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = 2.0 * need / denom
        dt = np.where(denom <= 0, max_dt, np.minimum(x, max_dt))
        crossing = t0 + dt
        out = np.where(targets <= 0.0, self.starts, crossing)
        return np.where(targets > self.totals, np.inf, out)

    def __repr__(self) -> str:
        return (
            f"CSRView(m={self.num_objects}, "
            f"knots={int(self.knot_times.size)})"
        )


class PLFStore:
    """An immutable columnar snapshot of ``m`` piecewise linear functions.

    Parameters
    ----------
    functions:
        The per-object PLFs, in storage order.
    object_ids:
        Optional ids parallel to ``functions`` (default ``0..m-1``).

    Attributes
    ----------
    knot_times, knot_values:
        All objects' knots concatenated (length ``K = sum_i (n_i+1)``).
    offsets:
        ``(m+1,)`` int64; object ``i`` owns knots
        ``[offsets[i], offsets[i+1])``.
    prefix_masses:
        Concatenated per-object cumulative integrals (``C_i`` at each
        knot, restarting at 0 for every object) — exactly each
        function's ``prefix_masses``, so values match the scalar path
        bit for bit.
    """

    __slots__ = (
        "functions",
        "object_ids",
        "knot_times",
        "knot_values",
        "offsets",
        "prefix_masses",
        "starts",
        "ends",
        "totals",
        "_seg_left_knot",
        "_seg_obj",
        "_absolute",
        "_csr",
        "_knot_set",
        "_segment",
    )

    def __init__(
        self,
        functions: Sequence[PiecewiseLinearFunction],
        object_ids: Optional[np.ndarray] = None,
    ) -> None:
        functions = list(functions)
        if not functions:
            raise ReproError("a PLFStore needs at least one function")
        self.functions: List[PiecewiseLinearFunction] = functions
        m = len(functions)
        if object_ids is None:
            object_ids = np.arange(m, dtype=np.int64)
        self.object_ids = np.asarray(object_ids, dtype=np.int64)
        if self.object_ids.size != m:
            raise ReproError("object_ids must parallel functions")
        counts = np.asarray([fn.times.size for fn in functions], dtype=np.int64)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.offsets = offsets
        self.knot_times = np.concatenate([fn.times for fn in functions])
        self.knot_values = np.concatenate([fn.values for fn in functions])
        # Reuse each function's own (lazily cached) prefix array so the
        # concatenated masses are bit-identical to the scalar path.
        self.prefix_masses = np.concatenate(
            [fn.prefix_masses for fn in functions]
        )
        self.starts = self.knot_times[offsets[:-1]]
        self.ends = self.knot_times[offsets[1:] - 1]
        self.totals = self.prefix_masses[offsets[1:] - 1]
        self._init_lazy(segment=None)
        buildcount.record("store")

    def _init_lazy(self, segment: Optional[str]) -> None:
        self._seg_left_knot: Optional[np.ndarray] = None
        self._seg_obj: Optional[np.ndarray] = None
        self._absolute: Optional["PLFStore"] = None
        self._csr: Optional[CSRView] = None
        self._knot_set: Optional[np.ndarray] = None
        self._segment = segment

    @classmethod
    def from_segments(
        cls, path, verify: bool = True
    ) -> "PLFStore":
        """Mount a store zero-copy from an on-disk segment.

        The seven kernel arrays (plus ``object_ids``) become read-only
        ``np.memmap`` views of the segment written by
        :func:`repro.storage.segments.write_store_segment`; per-object
        function objects are trusted zero-copy slices of the same
        arrays (each object's ``prefix_masses`` restarts at 0, so the
        slice *is* the function's own prefix array, bit for bit).
        Nothing is rebuilt and no build counter moves: answers from a
        mounted store are bit-identical to the store that was written.
        """
        from repro.storage.segments import open_segment

        segment = open_segment(path, verify=verify)
        times = segment["knot_times"]
        values = segment["knot_values"]
        offsets = segment["offsets"]
        prefix = segment["prefix_masses"]
        bounds = offsets.tolist()
        functions = [
            PiecewiseLinearFunction._trusted(
                times[lo:hi], values[lo:hi], prefix[lo:hi]
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self = cls.__new__(cls)
        self.functions = functions
        self.object_ids = segment["object_ids"]
        self.knot_times = times
        self.knot_values = values
        self.offsets = offsets
        self.prefix_masses = prefix
        self.starts = segment["starts"]
        self.ends = segment["ends"]
        self.totals = segment["totals"]
        self._init_lazy(segment=str(segment.path))
        return self

    @property
    def segment_path(self) -> Optional[str]:
        """The backing store segment's path (None for in-memory builds)."""
        return self._segment

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        """``m``."""
        return len(self.functions)

    @property
    def num_knots(self) -> int:
        """``K = sum_i (n_i + 1)``."""
        return int(self.knot_times.size)

    @property
    def num_segments(self) -> int:
        """``N = sum_i n_i``."""
        return self.num_knots - self.num_objects

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the columnar arrays."""
        total = (
            self.knot_times.nbytes
            + self.knot_values.nbytes
            + self.offsets.nbytes
            + self.prefix_masses.nbytes
            + self.starts.nbytes
            + self.ends.nbytes
            + self.totals.nbytes
        )
        if self._seg_left_knot is not None:
            total += self._seg_left_knot.nbytes + self._seg_obj.nbytes
        return total

    @property
    def sequential_total_mass(self) -> float:
        """``M = sum_i sigma_i(0, T)`` with the same left-to-right float
        summation order as ``sum(fn.total_mass for fn in ...)`` — kept
        sequential (not pairwise) so thresholds derived from ``M`` match
        the scalar constructions bit for bit."""
        return float(sum(self.totals.tolist()))

    # ------------------------------------------------------------------
    # segment view (lazy)
    # ------------------------------------------------------------------
    def _build_segments(self) -> None:
        keep = np.ones(self.num_knots, dtype=bool)
        keep[self.offsets[1:] - 1] = False  # drop each object's last knot
        self._seg_left_knot = np.flatnonzero(keep)
        counts = np.diff(self.offsets) - 1
        self._seg_obj = np.repeat(
            np.arange(self.num_objects, dtype=np.int64), counts
        )

    @property
    def seg_left_knot(self) -> np.ndarray:
        """Flat knot index of each segment's left endpoint (length ``N``)."""
        if self._seg_left_knot is None:
            self._build_segments()
        return self._seg_left_knot

    @property
    def seg_obj(self) -> np.ndarray:
        """Object *row* (0-based storage position) of each segment."""
        if self._seg_obj is None:
            self._build_segments()
        return self._seg_obj

    @property
    def seg_t0(self) -> np.ndarray:
        return self.knot_times[self.seg_left_knot]

    @property
    def seg_v0(self) -> np.ndarray:
        return self.knot_values[self.seg_left_knot]

    @property
    def seg_t1(self) -> np.ndarray:
        return self.knot_times[self.seg_left_knot + 1]

    @property
    def seg_v1(self) -> np.ndarray:
        return self.knot_values[self.seg_left_knot + 1]

    @property
    def seg_prefix_hi(self) -> np.ndarray:
        """``C_i`` at each segment's right endpoint (EXACT2/3 leaf data)."""
        return self.prefix_masses[self.seg_left_knot + 1]

    def segment_table(self, include_prefix: bool = False):
        """All ``N`` segments as index-builder inputs.

        Returns ``(lows, highs, rows)`` with ``rows[:, 0]`` the object
        id (as float64), ``rows[:, 1:3]`` the endpoint values, and —
        with ``include_prefix`` — ``rows[:, 3]`` the prefix mass at the
        right endpoint.  This is the one definition of the store→leaf
        layout shared by the EXACT3 and instant interval trees.
        """
        columns = 4 if include_prefix else 3
        rows = np.empty((self.num_segments, columns), dtype=np.float64)
        rows[:, 0] = self.object_ids[self.seg_obj].astype(np.float64)
        rows[:, 1] = self.seg_v0
        rows[:, 2] = self.seg_v1
        if include_prefix:
            rows[:, 3] = self.seg_prefix_hi
        return self.seg_t0, self.seg_t1, rows

    # ------------------------------------------------------------------
    # batched piece location
    # ------------------------------------------------------------------
    def csr_view(self) -> CSRView:
        """The kernel-array view (cached; arrays are shared).

        The store's own kernels delegate here, and the batched EXACT3
        answers read it directly — no function objects, same
        arithmetic.  Creating it builds the view's derived arrays
        (:attr:`CSRView.stab_slopes`, the :meth:`CSRView.locate_many`
        index) once, before any kernel temporaries exist; a mounted
        store builds them in memory and never persists them.
        """
        if self._csr is None:
            # One builder per view: concurrent first callers wait for
            # the first one's view (and its index sort) instead of
            # sorting again.
            with _VIEW_LOCK:
                if self._csr is None:
                    self._csr = CSRView(
                        self.knot_times,
                        self.knot_values,
                        self.offsets,
                        self.prefix_masses,
                        self.starts,
                        self.ends,
                        self.totals,
                    )
        return self._csr

    def knot_time_set(self) -> np.ndarray:
        """Ascending unique knot times over all objects (cached).

        The batched query pipelines test query times against this with
        :func:`isin_sorted`; stores are immutable, so the sort is paid
        once per snapshot.
        """
        cached = getattr(self, "_knot_set", None)
        if cached is None:
            cached = np.unique(self.knot_times)
            self._knot_set = cached
        return cached

    # ------------------------------------------------------------------
    # batch primitives
    # ------------------------------------------------------------------
    def cumulative_at(self, t: float) -> np.ndarray:
        """``C_i(t)`` for every object: ``(m,)`` array.

        Clamped exactly like the scalar :meth:`PiecewiseLinearFunction.
        cumulative`: 0 before the object's span, total mass after it.
        """
        return self.csr_view().cumulative_at(t)

    def cumulative_at_many(self, ts: np.ndarray) -> np.ndarray:
        """``C_i(t)`` for every object and every query time: ``(q, m)``.

        Row ``r`` is bit-identical to ``cumulative_at(ts[r])``.  A row
        whose time is ``<=`` every object's start is all zeros and one
        ``>=`` every end is :attr:`totals` — exactly what the boundary
        masks select — so only the remaining rows are located and
        evaluated (a time-partitioned shard, padded to its slice, meets
        such rows for every query that covers the whole slice).  Those
        rows split over two threads when the work pays for it
        (:func:`~repro.parallel.executor.split_rows`), each half
        writing its own rows of the result, and each half is chunked
        over rows (:func:`row_chunks`) to bound the transient ``(q,
        m)`` footprint; pieces come from :meth:`CSRView.locate_many`
        and the arithmetic is elementwise, so results depend on
        neither.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        view = self.csr_view()
        m = self.num_objects
        out = np.empty((ts.size, m), dtype=np.float64)
        after = ts >= self.ends.max()
        before = ts <= self.starts.min()
        out[after] = self.totals
        out[before] = 0.0
        inner = np.flatnonzero(~(before | after))

        def fill(part: slice) -> None:
            own = inner[part]
            for rows in row_chunks(own.size, m):
                out[own[rows]] = self._cumulative_chunk(view, ts[own[rows]])

        split_rows(fill, inner.size, m)
        return out

    def _cumulative_chunk(self, view: CSRView, ts: np.ndarray) -> np.ndarray:
        """One chunk of :meth:`cumulative_at_many`.

        Identical arithmetic to :meth:`CSRView._cumulative_clamped` —
        the chord slope is gathered from :attr:`CSRView.stab_slopes`
        (the very same ``(v1 - v0) / (t1 - t0)`` division, as knot
        times strictly increase within an object), so every float is
        bit-identical to the single-time path.
        """
        j = view.locate_many(ts)
        col = ts[:, None]
        tc = np.clip(col, self.starts, self.ends)
        t0 = self.knot_times[j]
        v0 = self.knot_values[j]
        w = view.stab_slopes[j]
        # In-place evaluation of prefix[j] + 0.5 * dt * (v0 + v_t),
        # v_t = v0 + w * dt — the same association order as
        # _cumulative_clamped, with the (q, m) temporaries reused.
        dt = np.subtract(tc, t0, out=tc)
        v_t = np.multiply(w, dt, out=w)
        v_t = np.add(v0, v_t, out=v_t)
        total = np.add(v0, v_t, out=v_t)
        half = np.multiply(0.5, dt, out=dt)
        cum = np.multiply(half, total, out=half)
        cum = np.add(self.prefix_masses[j], cum, out=cum)
        # The boundary masks, in place: totals after the span, then 0
        # before it (the 0 wins, as in cumulative_at's nested where).
        np.copyto(cum, self.totals, where=col >= self.ends)
        np.copyto(cum, 0.0, where=col <= self.starts)
        return cum

    def integrals(self, t1: float, t2: float) -> np.ndarray:
        """``sigma_i(t1, t2)`` for every object: ``(m,)`` array.

        Bit-identical to ``fn.integral(t1, t2)`` per object.
        """
        if t2 <= t1:
            return np.zeros(self.num_objects, dtype=np.float64)
        return self.cumulative_at(t2) - self.cumulative_at(t1)

    def integrals_many(self, queries: np.ndarray) -> np.ndarray:
        """``sigma_i`` for a whole workload: ``(q, m)`` from ``(q, 2)``.

        Row ``j`` holds every object's aggregate over ``queries[j] =
        (t1, t2)``; reversed intervals score 0, matching the scalar
        convention.  The ``t1`` and ``t2`` rows go through one
        :meth:`cumulative_at_many` call, so the knots are ranked
        against all ``2q`` times in one pass.
        """
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
        q = queries.shape[0]
        cums = self.cumulative_at_many(queries.T.ravel())
        scores = cums[q:] - cums[:q]
        reversed_rows = queries[:, 1] <= queries[:, 0]
        if reversed_rows.any():
            scores[reversed_rows] = 0.0
        return scores

    def masses_between(self, grid: np.ndarray) -> np.ndarray:
        """Per-object masses over consecutive grid cells: ``(m, r-1)``.

        ``masses_between(bp.times)[i, j]`` is ``sigma_i(b_j, b_{j+1})``
        — the quantity both breakpoint constructions bound by
        ``eps * M`` (Lemma 2) and the top-list builders difference.
        """
        cums = self.cumulative_at_many(grid)
        return np.diff(cums, axis=0).T

    def values_at(self, t: float) -> np.ndarray:
        """``g_i(t)`` for every object (0 outside each span): ``(m,)``."""
        t = float(t)
        tc = np.clip(t, self.starts, self.ends)
        j = self.csr_view()._locate(tc)
        t0 = self.knot_times[j]
        v0 = self.knot_values[j]
        w = (self.knot_values[j + 1] - v0) / (self.knot_times[j + 1] - t0)
        values = v0 + w * (tc - t0)
        # At an object's final knot the chord evaluation can be 1 ulp
        # off the stored value (every other knot falls on a segment
        # *start*, where dt = 0 gives the knot value exactly); return
        # the stored value so results match the scalar path bit for bit.
        values = np.where(
            t == self.ends, self.knot_values[self.offsets[1:] - 1], values
        )
        outside = (t < self.starts) | (t > self.ends)
        return np.where(outside, 0.0, values)

    def values_at_many(self, ts: np.ndarray) -> np.ndarray:
        """``g_i(t)`` for every object and every query time: ``(q, m)``.

        Row ``j`` is bit-identical to ``values_at(ts[j])`` — the same
        clamp, chord interpolation, final-knot exactness fix, and
        outside-span zeroing, broadcast over query times and chunked
        like :meth:`cumulative_at_many` to bound the transient
        ``(q, m)`` footprint.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        view = self.csr_view()
        out = np.empty((ts.size, self.num_objects), dtype=np.float64)
        last_values = self.knot_values[self.offsets[1:] - 1]
        for rows in row_chunks(ts.size, self.num_objects):
            chunk = ts[rows, None]
            tc = np.clip(chunk, self.starts, self.ends)
            j = view.locate_many(ts[rows])
            t0 = self.knot_times[j]
            v0 = self.knot_values[j]
            w = (self.knot_values[j + 1] - v0) / (self.knot_times[j + 1] - t0)
            values = v0 + w * (tc - t0)
            values = np.where(chunk == self.ends, last_values, values)
            outside = (chunk < self.starts) | (chunk > self.ends)
            out[rows] = np.where(outside, 0.0, values)
        return out

    def inverse_cumulative_many(self, targets: np.ndarray) -> np.ndarray:
        """Per-object smallest ``t`` with ``C_i(t) >= targets[i]``.

        The batched BREAKPOINTS2 reset step (see
        :meth:`CSRView.inverse_cumulative_many`; full object range).
        """
        return self.csr_view().inverse_cumulative_many(targets)

    # ------------------------------------------------------------------
    # query answering
    # ------------------------------------------------------------------
    def top_k(self, t1: float, t2: float, k: int) -> TopKResult:
        """Batched brute-force ``top-k(t1, t2, sum)`` over all objects."""
        return top_k_from_arrays(self.object_ids, self.integrals(t1, t2), k)

    def top_k_many(self, queries: np.ndarray, k: int) -> List[TopKResult]:
        """Answer a whole workload in one kernel pass.

        ``queries`` is ``(q, 2)``; all ``q * m`` scores come from two
        chunked :meth:`cumulative_at_many` calls, then each row is
        reduced to its top ``k``.
        """
        scores = self.integrals_many(queries)
        return [
            top_k_from_arrays(self.object_ids, row, k) for row in scores
        ]

    # ------------------------------------------------------------------
    # Section 4: negative scores
    # ------------------------------------------------------------------
    def absolute(self) -> "PLFStore":
        """The store over ``|g_i|`` (cached; knots split at crossings)."""
        if self._absolute is None:
            self._absolute = PLFStore(
                [fn.absolute() for fn in self.functions], self.object_ids
            )
        return self._absolute

    def __repr__(self) -> str:
        return (
            f"PLFStore(m={self.num_objects}, N={self.num_segments}, "
            f"knots={self.num_knots})"
        )
