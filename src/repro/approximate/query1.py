"""QUERY1: nested B+-trees over all breakpoint pairs (paper Section 3.2).

For every ordered breakpoint pair ``(b_j, b_j')`` the top ``k_max``
objects by ``sigma_i(b_j, b_j')`` are precomputed and stored.  A top
B+-tree indexes the left endpoint; each of its leaves points to a
lower B+-tree over the right endpoints, whose entries point to the
packed top-``k_max`` list.  A query snaps ``[t1, t2]`` to
``[B(t1), B(t2)]`` and reads one stored list:

* ``(eps, 1)``-approximation of scores and answers (Lemma 3),
* ``O(k/B + log_B r)`` query IOs,
* ``Theta(r^2 k_max / B)`` index size — the price QUERY2 then removes.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.errors import InvalidQueryError
from repro.core.results import TopKResult, top_k_from_arrays
from repro.storage.device import BlockDevice
from repro.btree.batch import modeled_successor_many, supports_model
from repro.btree.tree import BPlusTree
from repro.parallel.executor import (
    split_threads,
    thread_map,
    weighted_chunk_ranges,
)
from repro.approximate.breakpoints import Breakpoints
from repro.approximate.toplists import (
    StoredTopList,
    TopListBatcher,
    cumulative_matrix,
    cumulative_matrix_T,
    top_kmax_of_column,
)

#: The batched build splits its left endpoints over two threads when
#: (stored lists) x (objects) reaches this.  Measured on 2 vCPUs
#: (Temp data, two weighted chunks vs inline, best of 3, two runs):
#: 1.5-1.7x at m=10^4 (r=100 and r=229) and at m=1500 (r=230); at
#: m=1000 (k_max=200) 1.2-1.6x at r=201, 1.0-1.05x at r=101 and
#: 0.8-1.5x at r=51, so those builds stay inline.
SPLIT_WORK = 1 << 25


class NestedPairIndex:
    """The QUERY1 structure: all-pairs top lists behind nested B+-trees."""

    def __init__(
        self,
        device: BlockDevice,
        breakpoints: Breakpoints,
        kmax: int,
    ) -> None:
        self.device = device
        self.breakpoints = breakpoints
        self.kmax = kmax
        self.top_tree = BPlusTree(device, value_columns=1)
        self._subtrees: Dict[int, BPlusTree] = {}
        self._lists: Dict[Tuple[int, int], StoredTopList] = {}

    # ------------------------------------------------------------------
    def build(
        self,
        database: TemporalDatabase,
        batched: bool = True,
    ) -> "NestedPairIndex":
        """Materialize the ``r(r-1)/2`` interval lists and the trees.

        The batched path (default) processes each left endpoint's whole
        score matrix ``P[:, j+1:] - P[:, j:j+1]`` in one
        :class:`TopListBatcher` pass and bulk-packs the resulting
        family of lists through :meth:`StoredTopList.store_many`;
        ``batched=False`` keeps the historical one-column-at-a-time
        loop.  Both produce byte-identical stored lists on an
        identically laid-out device (the equivalence suite asserts
        this).

        A batched build with ``r(r-1)/2 * m >= SPLIT_WORK`` computes
        the independent per-left-endpoint batches on two threads
        (:func:`~repro.parallel.executor.split_threads`); device
        writes and tree wiring stay on the caller, in ``j`` order, so
        the index is byte-identical to the inline build.
        """
        times = self.breakpoints.times
        r = times.size
        if batched:
            ids, p_t = cumulative_matrix_T(database, times)
            nonneg = bool(database.store().knot_values.min() >= 0.0)
            threads = split_threads(r * (r - 1) // 2 * ids.size, SPLIT_WORK)
            if threads == 1:
                lists = self._top_lists(ids, p_t, nonneg, 0, r - 1)
            else:
                # Chunks are balanced by each left endpoint's list
                # count (``j`` owns ``r - 1 - j`` lists); results
                # flatten back in ``j`` order.
                chunks = weighted_chunk_ranges(
                    np.arange(r - 1, 0, -1, dtype=np.float64), threads
                )
                parts = thread_map(
                    lambda bounds: list(
                        self._top_lists(ids, p_t, nonneg, *bounds)
                    ),
                    chunks,
                    threads,
                )
                lists = chain.from_iterable(parts)
        else:
            ids, matrix = cumulative_matrix(database, times)
        for j in range(r - 1):
            if batched:
                top_ids, top_scores = next(lists)
                stored_lists = StoredTopList.store_many(
                    self.device, top_ids, top_scores
                )
                for offset, stored in enumerate(stored_lists):
                    self._lists[(j, j + 1 + offset)] = stored
            else:
                base = matrix[:, j]
                for j2 in range(j + 1, r):
                    scores = matrix[:, j2] - base
                    top_ids, top_scores = top_kmax_of_column(
                        ids, scores, self.kmax
                    )
                    self._lists[(j, j2)] = StoredTopList.store(
                        self.device, top_ids, top_scores
                    )
            right_keys = times[j + 1 :]
            right_rows = np.arange(j + 1, r, dtype=np.float64).reshape(-1, 1)
            subtree = BPlusTree(self.device, value_columns=1)
            subtree.bulk_load(np.asarray(right_keys), right_rows)
            self._subtrees[j] = subtree
        top_keys = times[:-1]
        top_rows = np.arange(r - 1, dtype=np.float64).reshape(-1, 1)
        self.top_tree.bulk_load(top_keys, top_rows)
        return self

    def _top_lists(
        self, ids: np.ndarray, p_t: np.ndarray, nonneg: bool, lo: int, hi: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """``(top_ids, top_scores)`` for left endpoints ``j`` in ``[lo, hi)``.

        One :class:`TopListBatcher` pass per ``j`` over the score
        matrix ``P_T[j] - P_T[j+1:]``; a chunk owns its batcher and
        scratch, so chunks run independently, and lazily when inline.
        """
        r, m = p_t.shape
        batcher = TopListBatcher(ids, r - 1 - lo, self.kmax, nonneg)
        neg_buffer = np.empty((r - 1 - lo, m), dtype=np.float64)
        for j in range(lo, hi):
            neg = neg_buffer[: r - 1 - j]
            np.subtract(p_t[j], p_t[j + 1 :], out=neg)
            top_ids, top_scores, _ = batcher.top_lists(neg)
            yield top_ids, top_scores

    # ------------------------------------------------------------------
    def query(self, t1: float, t2: float, k: int) -> TopKResult:
        """Top-k of the snapped interval ``[B(t1), B(t2)]``."""
        if k > self.kmax:
            raise InvalidQueryError(f"k={k} exceeds kmax={self.kmax}")
        pair = self._snap_pair(t1, t2)
        if pair is None:
            # Degenerate snap (B(t1) == B(t2)): the snapped interval is
            # empty and every approximate score is 0, which is within
            # eps*M of the truth.  Nothing meaningful to return.
            return TopKResult()
        j1, j2 = pair
        stored = self._lists[(j1, j2)]
        ids, scores = stored.read_top(self.device, k)
        return top_k_from_arrays(ids, scores, k)

    def _snap_pair(self, t1: float, t2: float) -> Optional[Tuple[int, int]]:
        """(j1, j2) with ``b_{j1} = B(t1)``, ``b_{j2} = B(t2)`` via the trees."""
        hit = self.top_tree.successor(t1)
        if hit is None:
            return None
        j1 = int(hit[1][0])
        if t2 <= self.breakpoints.times[j1]:
            # B(t2) == B(t1): the snapped interval is empty.
            return None
        subtree = self._subtrees[j1]
        hit2 = subtree.successor(t2)
        if hit2 is None:
            return None
        j2 = int(hit2[1][0])
        if j2 <= j1:
            return None
        return j1, j2

    def query_many(
        self, t1s: np.ndarray, t2s: np.ndarray, ks: np.ndarray
    ) -> List[TopKResult]:
        """Batched :meth:`query`: snap and read lists for a workload.

        Both snap walks (the top tree over left endpoints, then the
        matched subtree over right endpoints) are resolved with one
        vectorized pass each (:func:`repro.btree.batch.
        modeled_successor_many` arithmetic, inlined for the per-query
        subtrees); every distinct snapped pair's stored list is
        fetched once and answers are shared across queries that
        snapped to the same ``(pair, k)``.  Per query, the IO charge
        is exactly the scalar path's: both descents (the second only
        when the scalar path takes it) plus ``ceil(min(k, count)/B)``
        list-block reads.  With a buffer pool attached the batch keeps
        its deduped answer construction and *replays* the scalar
        loop's block access stream per query (see
        :meth:`_query_many_replay`); insert-touched trees fall back to
        the scalar loop.
        """
        if ks.size and int(ks.max()) > self.kmax:
            raise InvalidQueryError(
                f"k={int(ks.max())} exceeds kmax={self.kmax}"
            )
        if self.device.has_cache:
            return self._query_many_replay(t1s, t2s, ks)
        modelable = supports_model(self.top_tree) and all(
            supports_model(t) for t in self._subtrees.values()
        )
        if not modelable:
            return [
                self.query(float(t1), float(t2), int(k))
                for t1, t2, k in zip(t1s, t2s, ks)
            ]
        times = self.breakpoints.times
        r = times.size
        cap = self.top_tree.leaf_capacity
        j1s, exists1, reads1 = modeled_successor_many(
            times[:-1], t1s, cap, self.top_tree.height
        )
        total_reads = int(reads1.sum())
        # Scalar path stops before the subtree walk when B(t2) == B(t1).
        j1_clamped = np.minimum(j1s, r - 2)
        proceed = exists1 & (t2s > times[j1_clamped])
        # Subtree successor for t2, inlined: subtree j1 holds keys
        # times[j1+1:], so the global lower bound doubles as the local
        # one (t2 > times[j1] pins it past j1).
        s2 = np.searchsorted(times, t2s, side="left")
        exists2 = s2 < r
        tie2 = exists2 & (times[np.minimum(s2, r - 1)] == t2s)
        local = s2 - (j1s + 1)
        landed = np.maximum((local + tie2 - 1) // cap, 0)
        hops = np.where(exists2, local // cap - landed, 0)
        heights = self._subtree_heights()
        reads2 = heights[j1_clamped] + hops
        total_reads += int(reads2[proceed].sum())
        valid = proceed & exists2
        results: List[TopKResult] = [TopKResult()] * int(t1s.size)
        valid_idx = np.flatnonzero(valid)
        if valid_idx.size == 0:
            self.device.stats.record_reads(total_reads)
            return results
        list_cap = StoredTopList.capacity(self.device)
        answers: Dict[Tuple[int, int, int], TopKResult] = {}
        lists: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for idx in valid_idx:
            pair = (int(j1s[idx]), int(s2[idx]))
            k = int(ks[idx])
            stored = self._lists[pair]
            total_reads += max(1, -(-min(k, stored.count) // list_cap))
            key = pair + (k,)
            answer = answers.get(key)
            if answer is None:
                payload = lists.get(pair)
                if payload is None:
                    payload = self._peek_list(stored)
                    lists[pair] = payload
                ids, scores = payload
                answer = top_k_from_arrays(ids[:k], scores[:k], k)
                answers[key] = answer
            results[int(idx)] = answer
        self.device.stats.record_reads(total_reads)
        return results

    def _query_many_replay(
        self, t1s: np.ndarray, t2s: np.ndarray, ks: np.ndarray
    ) -> List[TopKResult]:
        """Cache-aware batch: shared answers, scalar block stream.

        Answers are still built once per distinct ``(pair, k)`` from
        payloads peeked off the device, but the IO and buffer-pool
        effects of every query are *replayed* in scalar order — both
        successor walks (simulated on the real nodes, so insert-grown
        trees are handled too) and the list-block reads — through
        :meth:`~repro.storage.device.BlockDevice.replay_reads`.  Hits,
        read charges, and the final LRU contents are identical to
        looping :meth:`query`.
        """
        times = self.breakpoints.times
        list_cap = StoredTopList.capacity(self.device)
        results: List[TopKResult] = []
        answers: Dict[Tuple[int, int, int], TopKResult] = {}
        lists: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for t1, t2, k in zip(t1s, t2s, ks):
            t1, t2, k = float(t1), float(t2), int(k)
            blocks, hit = self.top_tree.successor_with_blocks(t1)
            self.device.replay_reads(blocks)
            if hit is None:
                results.append(TopKResult())
                continue
            j1 = int(hit[1][0])
            if t2 <= times[j1]:
                results.append(TopKResult())
                continue
            blocks2, hit2 = self._subtrees[j1].successor_with_blocks(t2)
            self.device.replay_reads(blocks2)
            if hit2 is None:
                results.append(TopKResult())
                continue
            j2 = int(hit2[1][0])
            if j2 <= j1:
                results.append(TopKResult())
                continue
            pair = (j1, j2)
            stored = self._lists[pair]
            needed = max(1, -(-min(k, stored.count) // list_cap))
            self.device.replay_reads(stored.block_ids[:needed])
            key = (j1, j2, k)
            answer = answers.get(key)
            if answer is None:
                payload = lists.get(pair)
                if payload is None:
                    payload = self._peek_list(stored)
                    lists[pair] = payload
                ids, scores = payload
                answer = top_k_from_arrays(ids[:k], scores[:k], k)
                answers[key] = answer
            results.append(answer)
        return results

    def _subtree_heights(self) -> np.ndarray:
        """Per-left-endpoint subtree heights (cached for the batch)."""
        cached = getattr(self, "_heights_cache", None)
        if cached is None or cached.size != len(self._subtrees):
            cached = np.asarray(
                [
                    self._subtrees[j].height
                    for j in range(len(self._subtrees))
                ],
                dtype=np.int64,
            )
            self._heights_cache = cached
        return cached

    def _peek_list(
        self, stored: StoredTopList
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize a stored list without IO charges (modeled cost)."""
        return StoredTopList.decode_pieces(
            [self.device.peek(b) for b in stored.block_ids]
        )

    def approximate_score(self, object_id: int, t1: float, t2: float) -> float:
        """``sigma~_i``: the stored score if the object made the list, else 0.

        Only used by diagnostics; the query path returns scores inline.
        """
        pair = self._snap_pair(t1, t2)
        if pair is None:
            return 0.0
        ids, scores = self._lists[pair].read_top(self.device, self.kmax)
        match = np.flatnonzero(ids == object_id)
        if match.size == 0:
            return 0.0
        return float(scores[match[0]])
