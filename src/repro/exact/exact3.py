"""EXACT3: one external interval tree, two stabbing queries per query.

Paper Section 2 ("Using one interval tree"): take EXACT2's data entries
but key each by the *elementary* interval ``I^-_{i,l} = [t_{i,l-1},
t_{i,l}]`` instead of a time point, and put all ``N`` entries from all
objects into a single disk-based interval tree ``S``.  Because each
object's elementary intervals partition ``[0, T]``, a stabbing query at
any ``t`` returns exactly one entry per object; two stabbing queries
(at ``t1`` and ``t2``) supply everything Equation (2) needs for all
``m`` objects at once.

Query cost: ``O(log_B N + m/B)`` IOs for the stabs plus the size-``k``
priority queue — the best exact method in the paper's evaluation.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.aggregates import SUM, Aggregate
from repro.core.database import TemporalDatabase
from repro.core.plfstore import isin_sorted, row_chunks
from repro.core.queries import TopKQuery
from repro.core.results import TopKResult, top_k_from_arrays
from repro.exact.base import RankingMethod
from repro.parallel.executor import split_rows
from repro.storage.cache import LRUCache
from repro.storage.device import BlockDevice
from repro.storage.stats import IOStats
from repro.intervaltree.tree import ExternalIntervalTree

#: Value-row layout (after the implicit lo/hi columns): obj_id,
#: v_at_lo, v_at_hi, prefix mass at hi.
_VALUE_COLUMNS = 4


def stab_cumulatives_many(view, ts: np.ndarray) -> np.ndarray:
    """``C_i(t)`` for every object and query time: the batched stab.

    Replicates :meth:`Exact3._cumulatives_at`'s arithmetic bit for bit
    for query times that are not knot times of any object (the caller
    routes knot-coincident times through real stabs): the containing
    elementary segment is located on the CSR arrays, and the
    cumulative is the stab entry's ``prefix_hi`` minus the same
    clamped-trapezoid tail, in the same operation order (evaluated in
    place; the slope is gathered from :attr:`CSRView.stab_slopes`).
    Objects the stab would miss (``t`` outside their span) take the
    scalar path's fallback values — 0 before the span, the total mass
    after it.

    ``view`` is a :class:`~repro.core.plfstore.CSRView` of the store.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    m = view.num_objects
    slopes = view.stab_slopes
    # One knot ahead: gathering these at j reads knot j + 1.
    times_hi = view.knot_times[1:]
    values_hi = view.knot_values[1:]
    prefix_hi = view.prefix_masses[1:]
    out = np.empty((ts.size, m), dtype=np.float64)
    for rows in row_chunks(ts.size, m):
        col = ts[rows, None]
        j = view.locate_many(ts[rows])
        lo = view.knot_times[j]
        hi = times_hi[j]
        t_clamped = np.clip(col, lo, hi)
        # v_at_t = v_lo + slope * (t_clamped - lo)
        v_at_t = np.subtract(t_clamped, lo, out=lo)
        np.multiply(slopes[j], v_at_t, out=v_at_t)
        np.add(view.knot_values[j], v_at_t, out=v_at_t)
        # tail = 0.5 * (hi - t_clamped) * (v_at_t + v_hi)
        tail = np.subtract(hi, t_clamped, out=hi)
        np.multiply(0.5, tail, out=tail)
        np.add(v_at_t, values_hi[j], out=v_at_t)
        np.multiply(tail, v_at_t, out=tail)
        block = out[rows]
        np.subtract(prefix_hi[j], tail, out=block)
        # The scalar path fills stab-missed objects from the store
        # kernel, whose clamp yields exactly 0 / total outside the
        # span (non-knot t is never equal to a span endpoint).
        np.copyto(block, 0.0, where=col < view.starts)
        np.copyto(block, view.totals, where=col > view.ends)
    return out


def exact3_batch_answers(
    view,
    object_ids: np.ndarray,
    aggregate: Aggregate,
    t1s: np.ndarray,
    t2s: np.ndarray,
    ks: np.ndarray,
) -> List[TopKResult]:
    """Batched EXACT3 answers for non-knot query times.

    Pure function of the CSR view — no devices, no IO counters (the
    caller charges IO).  A large enough batch splits into two
    contiguous row chunks answered on two threads
    (:func:`~repro.parallel.executor.split_rows`), concatenated in
    order: the same elementwise arithmetic per row, hence identical
    bits.
    """
    parts = split_rows(
        lambda rows: _answers(view, object_ids, aggregate, t1s, t2s, ks, rows),
        t1s.size,
        view.num_objects,
    )
    return [answer for part in parts for answer in part]


def _answers(view, object_ids, aggregate, t1s, t2s, ks, rows: slice):
    """:func:`exact3_batch_answers` for one contiguous chunk of rows."""
    from repro.approximate.toplists import top_k_rows

    t1s, t2s = t1s[rows], t2s[rows]
    # One kernel pass over both endpoints (elementwise arithmetic, so
    # splitting afterwards is bit-identical to two separate passes).
    cums = stab_cumulatives_many(view, np.concatenate([t1s, t2s]))
    raw = cums[t1s.size :] - cums[: t1s.size]
    for row in range(t1s.size):
        raw[row] = aggregate.finalize_many(
            raw[row], float(t1s[row]), float(t2s[row])
        )
    return top_k_rows(object_ids, raw, ks[rows])


class Exact3(RankingMethod):
    """The EXACT3 method (single interval tree + stabbing queries)."""

    name = "EXACT3"

    def __init__(
        self,
        aggregate: Aggregate = SUM,
        block_bytes: int = 4096,
        cache_blocks: int = 0,
    ) -> None:
        super().__init__()
        self.aggregate = aggregate
        self._cache = LRUCache(cache_blocks) if cache_blocks > 0 else None
        self.device = BlockDevice(block_bytes=block_bytes, cache=self._cache, name="exact3")
        self.tree = ExternalIntervalTree(self.device, value_columns=_VALUE_COLUMNS)
        self._object_ids = np.empty(0, dtype=np.int64)
        self._slot_of = np.empty(0, dtype=np.int64)
        # Frontier metadata for appends: object -> (end time, end value,
        # total prefix).  Small (O(m)) and in memory, standing in for
        # the O(log_B N) frontier lookup the paper describes.
        self._frontier: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def _build(self, database: TemporalDatabase) -> None:
        store = database.store()
        self._object_ids = store.object_ids
        self._slot_of = np.full(int(self._object_ids.max()) + 1, -1, dtype=np.int64)
        self._slot_of[self._object_ids] = np.arange(self._object_ids.size)
        # All N leaf entries straight from the columnar store.
        lows, highs, rows = store.segment_table(include_prefix=True)
        for slot, object_id in enumerate(self._object_ids):
            self._frontier[int(object_id)] = (
                float(store.ends[slot]),
                float(store.knot_values[store.offsets[slot + 1] - 1]),
                float(store.totals[slot]),
            )
        self.tree.build(lows, highs, rows)

    def _cumulatives_at(self, t: float) -> np.ndarray:
        """``C_i(t)`` for every object, from one stabbing query.

        The stab returns rows ``(lo, hi, obj, v_lo, v_hi, prefix_hi)``;
        the cumulative is ``prefix_hi - sigma(t, hi)`` with the
        within-segment trapezoid.  When ``t`` coincides with a shared
        segment endpoint both adjacent entries are returned and agree,
        so duplicates are collapsed by keeping the first per object.
        """
        rows = self.tree.stab(t)
        obj = rows[:, 2].astype(np.int64)
        lo = rows[:, 0]
        hi = rows[:, 1]
        v_lo = rows[:, 3]
        v_hi = rows[:, 4]
        prefix_hi = rows[:, 5]
        width = hi - lo
        slope = np.where(width > 0, (v_hi - v_lo) / np.where(width > 0, width, 1.0), 0.0)
        t_clamped = np.clip(t, lo, hi)
        v_at_t = v_lo + slope * (t_clamped - lo)
        tail = 0.5 * (hi - t_clamped) * (v_at_t + v_hi)
        cumulative_rows = prefix_hi - tail
        out = np.full(self._object_ids.size, np.nan, dtype=np.float64)
        # Keep the first row per object (duplicates agree; see docstring).
        first = np.unique(obj, return_index=True)[1]
        out[self._slot_of[obj[first]]] = cumulative_rows[first]
        missing = np.isnan(out)
        if missing.any():
            # Objects missed by the stab lie entirely left/right of t;
            # a padded database never hits this, but stay correct.  Use
            # the kernel only when the store is already warm — forcing
            # an O(N) rebuild after every streaming append just to fill
            # a few slots would defeat the O(log N) incremental insert.
            if self.database.has_store:
                out[missing] = self.database.store().cumulative_at(t)[missing]
            else:
                for slot in np.flatnonzero(missing):
                    fn = self.database.get(int(self._object_ids[slot])).function
                    out[slot] = fn.cumulative(t)
        return out

    def _query(self, query: TopKQuery) -> TopKResult:
        low_cum = self._cumulatives_at(query.t1)
        high_cum = self._cumulatives_at(query.t2)
        raw = high_cum - low_cum
        raw = self.aggregate.finalize_many(raw, query.t1, query.t2)
        return top_k_from_arrays(self._object_ids, raw, query.k)

    def _query_many(
        self, t1s: np.ndarray, t2s: np.ndarray, ks: np.ndarray
    ) -> List[TopKResult]:
        """Batched EXACT3: one vectorized stab-arithmetic pass.

        Scores come from :func:`exact3_batch_answers` (bit-identical
        to the per-query stabs, split over two threads when the batch
        is large enough), and the IO model charges, per query,
        exactly the block reads its two stabbing walks would perform
        (:meth:`ExternalIntervalTree.modeled_stab_reads_many`).  Query
        times that coincide with a knot — where a stab returns two
        agreeing entries and the replicated arithmetic could pick the
        other one — take the real scalar path, as does the whole batch
        while preconditions for the model fail: a pending overflow
        buffer (appends) or a stale store.

        With an attached buffer pool (``cache_blocks > 0``) the batch
        stays on the kernel: the scalar loop's block access stream is
        *replayed*, in query order, through
        :meth:`~repro.storage.device.BlockDevice.replay_reads` using
        the modeled per-stab block sequences, so cache hits, read
        charges, and the final LRU contents are identical to the
        scalar loop's.
        """
        usable = not self.tree.has_overflow and self.database.wants_store
        if not usable:
            if not self.database.wants_store:
                self.database.note_scalar_fallback()
            return self._scalar_loop(t1s, t2s, ks)
        store = self.database.store()
        knots = store.knot_time_set()
        boundary = isin_sorted(knots, t1s) | isin_sorted(knots, t2s)
        results: List[TopKResult] = [None] * t1s.size
        if self.device.has_cache:
            # LRU replay: charge (and update the pool with) the exact
            # scalar access stream — per query, the t1 stab's block
            # sequence then the t2 stab's; knot-coincident queries run
            # the real scalar path in sequence, touching the pool the
            # same way.
            for idx in range(t1s.size):
                if boundary[idx]:
                    results[idx] = self._query(
                        TopKQuery(
                            float(t1s[idx]), float(t2s[idx]), int(ks[idx])
                        )
                    )
                else:
                    self.device.replay_reads(
                        self.tree.modeled_stab_blocks(t1s[idx])
                    )
                    self.device.replay_reads(
                        self.tree.modeled_stab_blocks(t2s[idx])
                    )
        else:
            for idx in np.flatnonzero(boundary):
                results[idx] = self._query(
                    TopKQuery(float(t1s[idx]), float(t2s[idx]), int(ks[idx]))
                )
        regular = np.flatnonzero(~boundary)
        if regular.size == 0:
            return results
        if not self.device.has_cache:
            reads = self.tree.modeled_stab_reads_many(
                t1s[regular]
            ) + self.tree.modeled_stab_reads_many(t2s[regular])
            self.device.stats.record_reads(int(reads.sum()))
        answers = exact3_batch_answers(
            store.csr_view(), self._object_ids, self.aggregate,
            t1s[regular], t2s[regular], ks[regular],
        )
        for pos, idx in enumerate(regular):
            results[idx] = answers[pos]
        return results

    def _append(self, object_id: int, t_next: float, v_next: float) -> None:
        """Insert the new elementary interval: amortized ``O(log N)``."""
        t_prev, v_prev, prefix_prev = self._frontier[object_id]
        area = 0.5 * (t_next - t_prev) * (v_prev + v_next)
        new_prefix = prefix_prev + area
        row = np.asarray([object_id, v_prev, v_next, new_prefix])
        self.tree.insert(t_prev, t_next, row)
        self._frontier[object_id] = (t_next, v_next, new_prefix)

    # ------------------------------------------------------------------
    @property
    def io_stats(self) -> IOStats:
        return self.device.stats

    @property
    def index_size_bytes(self) -> int:
        return self.device.size_bytes

    def drop_caches(self) -> None:
        self.device.drop_cache()
