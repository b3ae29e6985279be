"""EXACT2: a forest of per-object prefix-sum B+-trees.

Paper Section 2 ("A forest of B+-trees"): for each object ``o_i``,
precompute the prefix aggregates ``sigma_i(I_{i,l})`` over the nested
intervals ``I_{i,l} = [t_{i,0}, t_{i,l}]`` and index the leaf entries
``e_{i,l} = (t_{i,l}, (g_{i,l}, sigma_i(I_{i,l})))`` in a B+-tree
``T_i``.  An arbitrary interval aggregate then needs two successor
lookups and Equation (2)::

    sigma_i(t1, t2) = sigma_i(I_R) - sigma_i(I_L)
                      + sigma_i(t1, t_L) - sigma_i(t2, t_R)

Query cost is ``O(sum_i log_B n_i)`` IOs — *plus*, in practice, the
overhead of opening ``m`` separate disk files, which is exactly why the
paper then folds everything into one interval tree (EXACT3).  We model
each tree on its own device (file) and charge one IO per per-object
file touch per query, mirroring that observation.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.aggregates import SUM, Aggregate
from repro.core.database import TemporalDatabase
from repro.core.geometry import segment_integral
from repro.core.queries import TopKQuery
from repro.core.results import TopKResult, top_k_from_arrays
from repro.exact.base import RankingMethod
from repro.storage.device import BlockDevice
from repro.storage.stats import IOStats
from repro.btree.node import leaf_capacity
from repro.btree.tree import BPlusTree

#: Value-row layout for prefix entries: seg_t0, seg_v0, seg_t1, seg_v1,
#: prefix mass at seg_t1.
_PREFIX_COLUMNS = 5

#: IOs charged for opening one per-object tree file during a query.
FILE_OPEN_IOS = 1


def build_prefix_entries(times: np.ndarray, values: np.ndarray, prefix: np.ndarray):
    """Leaf entries ``e_{i,l}`` for one object.

    Returns ``(keys, rows)`` with keys = right endpoints ``t_{i,l}``
    (``l = 1..n``) and rows carrying the segment and its prefix mass.
    """
    keys = times[1:]
    rows = np.stack(
        [times[:-1], values[:-1], times[1:], values[1:], prefix[1:]], axis=1
    )
    return keys, rows


def cumulative_from_prefix_tree(tree: BPlusTree, t: float, total: float) -> float:
    """``C_i(t)``: prefix mass from the object's start to ``t``.

    Implements the Equation (2) arithmetic: find the successor entry
    ``e_L`` (first right endpoint >= t), subtract the within-segment
    part ``sigma_i(t, t_L)`` from the stored prefix.  Clamps to the
    object's span.
    """
    hit = tree.successor(t)
    if hit is None:
        # t is past the object's end: full mass.
        return total
    key, row = hit
    s0, v0, s1, v1, prefix_right = (
        float(row[0]), float(row[1]), float(row[2]), float(row[3]), float(row[4]),
    )
    if t <= s0:
        # t precedes this segment entirely (only possible for the first
        # entry, i.e. t before the object's start).
        return prefix_right - segment_integral(s0, v0, s1, v1, s0, s1)
    return prefix_right - segment_integral(s0, v0, s1, v1, t, s1)


def _eq2_cumulative_batch(
    store, rows: np.ndarray, t, totals: np.ndarray, leaf_cap: int
):
    """Vectorized :func:`cumulative_from_prefix_tree` over store rows.

    ``t`` is either one shared query time (a scalar: the per-query
    candidate rescoring) or one time per row (an array: the whole-
    workload triple rescoring of ``score_triples``) — every operation
    below is elementwise, so both shapes produce, row for row, the
    bits the scalar ``t`` path produces.

    Returns ``(cumulatives, extra_leaf_hops)``.  The arithmetic
    replicates the scalar path bit for bit: the successor segment is
    the first whose right endpoint is >= ``t`` (a shared lower-bound
    bisection over the CSR knot arrays), and the within-segment part
    subtracted from the stored prefix uses exactly the
    ``segment_integral``/``interpolate`` operation order.  The hop
    count is the number of next-leaf reads a bulk-loaded tree's
    successor walk pays beyond its root-to-leaf descent: the walk
    lands in the last leaf whose min key is <= ``t`` and hops once
    when the successor entry lives in the following leaf.
    """
    t = np.asarray(t, dtype=np.float64)
    off_lo = store.offsets[rows]
    off_hi = store.offsets[rows + 1]
    ends = store.knot_times[off_hi - 1]
    past = t > ends
    # Lower bound: first knot index in [off_lo + 1, off_hi - 1] whose
    # time is >= t (for past rows the bisection parks at the last
    # knot; the result is masked below).
    lo = off_lo + 1
    hi = off_hi - 1
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        less = active & (store.knot_times[mid] < t)
        stop = active & ~less
        lo[less] = mid[less] + 1
        hi[stop] = mid[stop]
    right = lo
    j = right - 1
    s0 = store.knot_times[j]
    v0 = store.knot_values[j]
    s1 = store.knot_times[right]
    v1 = store.knot_values[right]
    prefix_right = store.prefix_masses[right]
    # segment_integral(s0, v0, s1, v1, max(t, s0), s1), vectorized with
    # the same operation order (chord slope, interpolate both ends,
    # trapezoid; empty overlap contributes exactly 0).
    w = (v1 - v0) / (s1 - s0)
    t_left = np.maximum(t, s0)
    width = s1 - t_left
    v_left = v0 + w * (t_left - s0)
    v_right = v0 + w * (s1 - s0)
    area = 0.5 * width * (v_left + v_right)
    integral = np.where(width > 0, area, 0.0)
    cum = np.where(past, totals, prefix_right - integral)
    # IO model: successor position s among the tree's keys (the right
    # endpoints), and the leaf the descent lands in.
    succ = right - off_lo - 1
    has_successor = ~past
    ties = has_successor & (s1 == t)
    landed = np.maximum((succ + ties - 1) // leaf_cap, 0)
    hops = np.where(has_successor, succ // leaf_cap - landed, 0)
    return cum, hops


class Exact2(RankingMethod):
    """The EXACT2 method (one prefix-sum B+-tree per object)."""

    name = "EXACT2"

    def __init__(
        self,
        aggregate: Aggregate = SUM,
        block_bytes: int = 4096,
        stats: IOStats = None,
    ) -> None:
        super().__init__()
        self.aggregate = aggregate
        self.block_bytes = block_bytes
        # APPX2+ embeds an EXACT2 forest and accounts both under one
        # counter by passing a shared IOStats here.
        self._stats = stats if stats is not None else IOStats()
        self.trees: Dict[int, BPlusTree] = {}
        self._devices: List[BlockDevice] = []
        self._totals: Dict[int, float] = {}
        self._modeled_query_ios = 0
        # True while every tree is exactly its bulk-loaded form; the
        # batched candidate-rescoring IO model (score_many) relies on
        # the packed leaf layout, so any insert disables it.
        self._bulk_only = True
        self._row_cache = None

    # ------------------------------------------------------------------
    def _build(self, database: TemporalDatabase) -> None:
        # Prime the columnar store: construction shares the per-object
        # prefix arrays the forest needs anyway, and a warm store lets
        # _query take the batched kernel path from the first query.
        database.store()
        self._bulk_only = True
        self._row_cache = None
        for obj in database:
            fn = obj.function
            keys, rows = build_prefix_entries(fn.times, fn.values, fn.prefix_masses)
            device = BlockDevice(
                block_bytes=self.block_bytes,
                name=f"exact2-object-{obj.object_id}",
                stats=self._stats,
            )
            tree = BPlusTree(device, value_columns=_PREFIX_COLUMNS)
            tree.bulk_load(keys, rows)
            self.trees[obj.object_id] = tree
            self._devices.append(device)
            self._totals[obj.object_id] = fn.total_mass
        self._refresh_modeled_ios()

    def _refresh_modeled_ios(self) -> None:
        """Cache the per-query modeled IO charge (changes only on
        build/append, so recomputing the O(m) sum per query would cost
        as much as the batched scoring it accompanies)."""
        self._modeled_query_ios = sum(
            FILE_OPEN_IOS + 2 * tree.height for tree in self.trees.values()
        )

    def score(self, object_id: int, t1: float, t2: float) -> float:
        """``sigma_i(t1, t2)`` via Equation (2) (two successor lookups)."""
        tree = self.trees[object_id]
        total = self._totals[object_id]
        high = cumulative_from_prefix_tree(tree, t2, total)
        low = cumulative_from_prefix_tree(tree, t1, total)
        return high - low

    def score_many(
        self, object_ids: np.ndarray, t1: float, t2: float
    ) -> np.ndarray:
        """Batched :meth:`score` for a candidate subset (APPX2+).

        When the database's columnar store is warm and every tree is
        still in bulk-loaded form, all candidates are scored in one
        vectorized Equation-(2) pass that replicates the per-tree
        arithmetic operation for operation — results are bit-identical
        to the scalar loop — and the IO model charges exactly what the
        ``2 |K|`` successor walks would have read (two root-to-leaf
        descents per candidate plus any next-leaf hop the landed leaf
        would miss).  Otherwise the historical per-candidate loop
        answers (appends both invalidate the store and repack leaves).
        """
        ids = np.asarray(object_ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=np.float64)
        # getattr: forests unpickled from pre-batching index files have
        # no bulk-layout marker; treat them as insert-touched (scalar).
        usable = (
            getattr(self, "_bulk_only", False)
            and self.database is not None
            and self.database.wants_store
        )
        if not usable:
            if self.database is not None and not self.database.wants_store:
                self.database.note_scalar_fallback()
            return np.asarray(
                [self.score(int(i), t1, t2) for i in ids], dtype=np.float64
            )
        store = self.database.store()
        rows_lut, totals_lut, heights_lut = self._batch_lut(store)
        rows = rows_lut[ids]
        totals = totals_lut[ids]
        cap = leaf_capacity(_PREFIX_COLUMNS, self.block_bytes)
        high, hops_high = _eq2_cumulative_batch(store, rows, t2, totals, cap)
        low, hops_low = _eq2_cumulative_batch(store, rows, t1, totals, cap)
        heights = int(heights_lut[ids].sum())
        self._stats.reads += int(2 * heights + hops_high.sum() + hops_low.sum())
        return high - low

    def score_triples(
        self, object_ids: np.ndarray, t1s: np.ndarray, t2s: np.ndarray
    ) -> np.ndarray:
        """``sigma_i(t1, t2)`` for a whole workload's rescore triples.

        The batched-query analogue of :meth:`score_many`: row ``j``
        scores object ``object_ids[j]`` over ``[t1s[j], t2s[j]]``.
        APPX2+'s ``query_many`` concatenates every query's candidate
        set into one call, so the entire batch pays two vectorized
        Equation-(2) passes instead of two per query.  Scores and the
        modeled IO charge are bit-identical to calling
        :meth:`score_many` once per query with that query's candidate
        ids (the hop terms are computed per row either way).
        """
        ids = np.asarray(object_ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=np.float64)
        t1s = np.asarray(t1s, dtype=np.float64)
        t2s = np.asarray(t2s, dtype=np.float64)
        usable = (
            getattr(self, "_bulk_only", False)
            and self.database is not None
            and self.database.wants_store
        )
        if not usable:
            if self.database is not None and not self.database.wants_store:
                self.database.note_scalar_fallback()
            return np.asarray(
                [
                    self.score(int(i), float(a), float(b))
                    for i, a, b in zip(ids, t1s, t2s)
                ],
                dtype=np.float64,
            )
        store = self.database.store()
        rows_lut, totals_lut, heights_lut = self._batch_lut(store)
        rows = rows_lut[ids]
        totals = totals_lut[ids]
        cap = leaf_capacity(_PREFIX_COLUMNS, self.block_bytes)
        # Both endpoints in one kernel call (elementwise arithmetic:
        # splitting the halves afterwards is bit-identical to two
        # separate passes, at half the fixed NumPy dispatch cost).
        cum, hops = _eq2_cumulative_batch(
            store,
            np.concatenate([rows, rows]),
            np.concatenate([t2s, t1s]),
            np.concatenate([totals, totals]),
            cap,
        )
        heights = int(heights_lut[ids].sum())
        self._stats.reads += int(2 * heights + hops.sum())
        return cum[: ids.size] - cum[ids.size :]

    def _batch_lut(self, store):
        """Dense id -> (store row, total, tree height) tables.

        Cached per store snapshot so batched rescoring indexes with
        one fancy-gather per array instead of a Python dict lookup per
        candidate.  Totals and heights can only drift through appends,
        which clear ``_bulk_only`` and route around this path.
        """
        cache = self._row_cache
        if cache is None or cache[0] is not store:
            oids = np.fromiter(
                self.trees.keys(), dtype=np.int64, count=len(self.trees)
            )
            size = int(max(oids.max(), store.object_ids.max())) + 1
            rows_lut = np.full(size, -1, dtype=np.int64)
            rows_lut[store.object_ids] = np.arange(store.object_ids.size)
            totals_lut = np.zeros(size, dtype=np.float64)
            heights_lut = np.zeros(size, dtype=np.int64)
            for oid in oids:
                totals_lut[oid] = self._totals[int(oid)]
                heights_lut[oid] = self.trees[int(oid)].height
            cache = (store, rows_lut, totals_lut, heights_lut)
            self._row_cache = cache
        return cache[1], cache[2], cache[3]

    def _query(self, query: TopKQuery) -> TopKResult:
        """Batched Equation (2): score all ``m`` objects in one kernel pass.

        When the database's columnar store is warm (the build primes
        it), scores come from one batched kernel call and the IO model
        charges what the forest would have cost — one file open per
        object plus two root-to-leaf successor walks per tree — so the
        paper's "m file opens dominate" observation survives the fast
        scoring path.  When an append has invalidated the store
        (streaming ticks), the historical per-tree path answers the
        query instead: rebuilding the O(N) snapshot per tick would
        defeat EXACT2's O(log_B n_i) update cost.  A read burst with
        no further appends re-arms the rebuild after a few fallbacks
        (see TemporalDatabase.note_scalar_fallback).
        """
        ids = np.fromiter(self.trees.keys(), dtype=np.int64, count=len(self.trees))
        if self.database.wants_store:
            self._stats.reads += self._modeled_query_ios
            raw = self.database.store().integrals(query.t1, query.t2)
            scores = self.aggregate.finalize_many(raw, query.t1, query.t2)
            return top_k_from_arrays(ids, scores, query.k)
        self.database.note_scalar_fallback()
        scores = np.empty(ids.size, dtype=np.float64)
        for pos, object_id in enumerate(ids):
            tree = self.trees[int(object_id)]
            before = self._stats.reads
            raw = self.score(int(object_id), query.t1, query.t2)
            # Normalize to the modeled charge (file open + two
            # root-to-leaf walks): actual successor traversals pay an
            # occasional extra next-leaf hop, and reported IO figures
            # must not depend on which scoring path answered the query.
            self._stats.reads = before + FILE_OPEN_IOS + 2 * tree.height
            scores[pos] = self.aggregate.finalize(raw, query.t1, query.t2)
        return top_k_from_arrays(ids, scores, query.k)

    def _query_many(self, t1s, t2s, ks):
        """Batched EXACT2: one ``integrals_many`` pass over the workload.

        The scalar ``_query`` already answers from the store kernel
        with a cached modeled IO charge per query; the batch keeps
        both (``integrals_many`` rows are bit-identical to per-query
        ``integrals``) and only removes the per-query Python
        round-trips.  Falls back to the loop while the store is stale.
        """
        if not self.database.wants_store:
            return self._scalar_loop(t1s, t2s, ks)
        ids = np.fromiter(
            self.trees.keys(), dtype=np.int64, count=len(self.trees)
        )
        self._stats.reads += self._modeled_query_ios * int(t1s.size)
        raw = self.database.store().integrals_many(
            np.stack([t1s, t2s], axis=1)
        )
        results = []
        for row in range(t1s.size):
            scores = self.aggregate.finalize_many(
                raw[row], float(t1s[row]), float(t2s[row])
            )
            results.append(top_k_from_arrays(ids, scores, int(ks[row])))
        return results

    def _append(self, object_id: int, t_next: float, v_next: float) -> None:
        """Extend ``T_i`` with one entry: ``O(log_B n_i)`` IOs."""
        tree = self.trees[object_id]
        last_key, last_row = tree.last_entry()
        prev_prefix = float(last_row[4])
        t_prev = last_key
        v_prev = float(last_row[3])
        area = 0.5 * (t_next - t_prev) * (v_prev + v_next)
        new_prefix = prev_prefix + area
        row = np.asarray([t_prev, v_prev, t_next, v_next, new_prefix])
        height_before = tree.height
        self._bulk_only = False
        tree.insert(t_next, row)
        self._totals[object_id] = new_prefix
        # Only this tree's height can have changed; adjust the cached
        # modeled-IO charge by the delta (keeps appends O(log_B n_i)).
        self._modeled_query_ios += 2 * (tree.height - height_before)

    # ------------------------------------------------------------------
    @property
    def io_stats(self) -> IOStats:
        return self._stats

    @property
    def index_size_bytes(self) -> int:
        return sum(device.size_bytes for device in self._devices)
