"""QUERY2: dyadic-interval top lists (paper Section 3.2).

Instead of all ``O(r^2)`` breakpoint pairs, QUERY2 stores a top-
``k_max`` list only for every *dyadic* interval — the spans of the
nodes of a balanced binary tree over the ``r - 1`` elementary
breakpoint gaps (< ``2r`` intervals in total).  Any snapped query
interval decomposes into at most ``2 log r`` disjoint dyadic
intervals; the candidate set ``K`` is the union of their top lists,
with scores of repeated objects added.

Guarantees (Lemmas 4-5): an ``(eps, 2 log r)``-approximation, size
``Theta(r k_max / B)``, query ``O(k log r log_B k)`` IOs.  The score
returned for a candidate is a *lower bound* on its snapped-interval
aggregate (missing dyadic lists contribute 0), which is why APPX2+
re-scores candidates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.errors import InvalidQueryError
from repro.core.results import TopKResult, top_k_from_arrays
from repro.storage.device import BlockDevice
from repro.btree.batch import modeled_successor_many, supports_model
from repro.btree.tree import BPlusTree
from repro.approximate.breakpoints import Breakpoints
from repro.approximate.toplists import (
    StoredTopList,
    TopListBatcher,
    cumulative_matrix,
    cumulative_matrix_T,
    top_k_ragged,
    top_kmax_of_column,
)


@dataclass
class _DyadicNode:
    """One segment-tree node: an elementary-gap range and its top list.

    When the ``k_max`` list fits in the node's own block (16 bytes per
    entry), it is stored *inline* — reading the node yields the list
    with no extra IO and no second block, which keeps the structure at
    its ``Theta(r k_max / B)`` size with a small constant.  Larger
    lists fall back to a packed :class:`StoredTopList`.
    """

    lo: int
    hi: int
    top_list: Optional[StoredTopList] = None
    inline_rows: Optional[object] = None  # (ids, scores) ndarray pair
    left: Optional[int] = None
    right: Optional[int] = None


class DyadicIndex:
    """The QUERY2 structure: a segment tree of top-``k_max`` lists."""

    def __init__(
        self,
        device: BlockDevice,
        breakpoints: Breakpoints,
        kmax: int,
    ) -> None:
        self.device = device
        self.breakpoints = breakpoints
        self.kmax = kmax
        self.root_id: Optional[int] = None
        self.num_nodes = 0
        self.snap_tree = BPlusTree(device, value_columns=1)
        # Batched-query walk metadata (see _topology) and memoized
        # decompositions (snapped pairs repeat across workloads; the
        # cache is bounded by the O(r^2) distinct pairs).
        self._topo_cache: Optional[Dict[int, tuple]] = None
        self._decomp_cache: Dict[Tuple[int, int], Tuple[List[int], int]] = {}

    # ------------------------------------------------------------------
    def build(
        self, database: TemporalDatabase, batched: bool = True
    ) -> "DyadicIndex":
        """Materialize every dyadic node list and wire the segment tree.

        The batched path (default) first enumerates all node ``(lo,
        hi)`` ranges in the recursion's preorder, materializes every
        node's top list in one :class:`TopListBatcher` pass over the
        row differences ``P_T[lo] - P_T[hi]``, then wires the tree
        with the same allocation/write sequence as the recursive
        build — node lists, device layout, and IO charges are all
        byte-identical to ``batched=False`` (the historical per-frame
        recursion).
        """
        times = self.breakpoints.times
        num_gaps = times.size - 1
        self._topo_cache = None
        self._decomp_cache = {}
        if batched:
            ids, p_t = cumulative_matrix_T(database, times)
            los, his = self._enumerate_nodes(0, num_gaps)
            nonneg = bool(database.store().knot_values.min() >= 0.0)
            neg = np.ascontiguousarray(p_t[los] - p_t[his])
            batcher = TopListBatcher(ids, los.size, self.kmax, nonneg)
            top_ids, top_scores, _ = batcher.top_lists(neg)
            cursor = [0]
            self.root_id = self._wire_node(
                top_ids, top_scores, cursor, 0, num_gaps
            )
        else:
            ids, matrix = cumulative_matrix(database, times)
            self.root_id = self._build_node(ids, matrix, 0, num_gaps)
        self.snap_tree.bulk_load(
            times, np.arange(times.size, dtype=np.float64).reshape(-1, 1)
        )
        return self

    @staticmethod
    def _enumerate_nodes(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """All node ranges in recursion preorder: (los, his) arrays."""
        los: List[int] = []
        his: List[int] = []
        stack = [(lo, hi)]
        while stack:
            node_lo, node_hi = stack.pop()
            los.append(node_lo)
            his.append(node_hi)
            if node_hi - node_lo > 1:
                mid = (node_lo + node_hi) // 2
                # Push right first so the left subtree pops next
                # (preorder, matching the recursive build).
                stack.append((mid, node_hi))
                stack.append((node_lo, mid))
        return np.asarray(los, dtype=np.int64), np.asarray(his, dtype=np.int64)

    def _make_node(
        self, lo: int, hi: int, top_ids: np.ndarray, top_scores: np.ndarray
    ) -> Tuple[_DyadicNode, int]:
        """Allocate one node holding the given (already sorted) list."""
        # Inline when the list shares the node's block comfortably
        # (leave ~1/8 of the block for the node metadata).
        inline_budget = (StoredTopList.capacity(self.device) * 7) // 8
        if top_ids.size <= inline_budget:
            node = _DyadicNode(lo=lo, hi=hi, inline_rows=(top_ids, top_scores))
        else:
            stored = StoredTopList.store(self.device, top_ids, top_scores)
            node = _DyadicNode(lo=lo, hi=hi, top_list=stored)
        node_id = self.device.allocate(node)
        self.num_nodes += 1
        return node, node_id

    def _wire_node(
        self,
        top_ids: np.ndarray,
        top_scores: np.ndarray,
        cursor: List[int],
        lo: int,
        hi: int,
    ) -> int:
        """Wire the subtree over ``[lo, hi)`` from batch-built lists.

        ``cursor`` walks the preorder columns of the batched arrays;
        allocation order matches :meth:`_build_node` exactly.
        """
        column = cursor[0]
        cursor[0] += 1
        node, node_id = self._make_node(
            lo, hi, top_ids[column].copy(), top_scores[column].copy()
        )
        if hi - lo > 1:
            mid = (lo + hi) // 2
            node.left = self._wire_node(top_ids, top_scores, cursor, lo, mid)
            node.right = self._wire_node(top_ids, top_scores, cursor, mid, hi)
            self.device.write(node_id, node)
        return node_id

    def _build_node(
        self, ids: np.ndarray, matrix: np.ndarray, lo: int, hi: int
    ) -> int:
        """Create the node covering elementary gaps ``[lo, hi)``."""
        scores = matrix[:, hi] - matrix[:, lo]
        top_ids, top_scores = top_kmax_of_column(ids, scores, self.kmax)
        node, node_id = self._make_node(lo, hi, top_ids, top_scores)
        if hi - lo > 1:
            mid = (lo + hi) // 2
            node.left = self._build_node(ids, matrix, lo, mid)
            node.right = self._build_node(ids, matrix, mid, hi)
            self.device.write(node_id, node)
        return node_id

    # ------------------------------------------------------------------
    def snap_indices(self, t1: float, t2: float) -> Optional[Tuple[int, int]]:
        """``(j1, j2)`` with ``B(t1) = b_{j1}``, ``B(t2) = b_{j2}``.

        Uses the breakpoint B+-tree (charging its IOs); None when the
        snapped interval is empty.
        """
        hit1 = self.snap_tree.successor(t1)
        hit2 = self.snap_tree.successor(t2)
        if hit1 is None or hit2 is None:
            return None
        j1 = int(hit1[1][0])
        j2 = int(hit2[1][0])
        if j2 <= j1:
            return None
        return j1, j2

    def decompose(self, j1: int, j2: int) -> List[_DyadicNode]:
        """Canonical disjoint cover of elementary gaps ``[j1, j2)``.

        Walks the segment tree reading node blocks (IO-charged); at
        most ``2 log2(r)`` covered nodes are returned (Lemma 4's
        decomposition bound, asserted in tests).
        """
        covered: List[_DyadicNode] = []
        stack = [self.root_id]
        while stack:
            node_id = stack.pop()
            node: _DyadicNode = self.device.read(node_id)
            if node.hi <= j1 or node.lo >= j2:
                continue
            if j1 <= node.lo and node.hi <= j2:
                covered.append(node)
                continue
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return covered

    def candidates(self, t1: float, t2: float, k: int) -> Dict[int, float]:
        """The candidate set ``K``: object -> summed dyadic scores.

        Reads the top-``k`` prefix of each covered node's list (the
        paper inserts top-k objects per dyadic interval into ``K``).
        """
        if k > self.kmax:
            raise InvalidQueryError(f"k={k} exceeds kmax={self.kmax}")
        snapped = self.snap_indices(t1, t2)
        if snapped is None:
            return {}
        id_chunks: List[np.ndarray] = []
        val_chunks: List[np.ndarray] = []
        for node in self.decompose(*snapped):
            if node.inline_rows is not None:
                ids, vals = node.inline_rows
                ids, vals = ids[:k], vals[:k]
            else:
                ids, vals = node.top_list.read_top(self.device, k)
            id_chunks.append(ids)
            val_chunks.append(vals)
        if not id_chunks:
            return {}
        all_ids = np.concatenate(id_chunks)
        all_vals = np.concatenate(val_chunks)
        # Aggregate repeated objects with np.add.at: the unbuffered
        # accumulation adds contributions in stream order from 0.0,
        # exactly the float summation order of the historical
        # per-entry dict loop, so summed scores match bit for bit.
        unique_ids, inverse = np.unique(all_ids, return_inverse=True)
        sums = np.zeros(unique_ids.size, dtype=np.float64)
        np.add.at(sums, inverse, all_vals)
        # Present candidates in first-appearance order, matching the
        # historical dict's insertion order (consumers iterate it).
        first_seen = np.full(unique_ids.size, all_ids.size, dtype=np.int64)
        np.minimum.at(first_seen, inverse, np.arange(all_ids.size))
        order = np.argsort(first_seen)
        return {
            int(object_id): float(total)
            for object_id, total in zip(unique_ids[order], sums[order])
        }

    def query(self, t1: float, t2: float, k: int) -> TopKResult:
        """Top-k by summed candidate scores (the APPX2 answer)."""
        pool = self.candidates(t1, t2, k)
        if not pool:
            return TopKResult()
        ids = np.fromiter(pool.keys(), dtype=np.int64, count=len(pool))
        vals = np.fromiter(pool.values(), dtype=np.float64, count=len(pool))
        return top_k_from_arrays(ids, vals, k)

    # ------------------------------------------------------------------
    # batched query pipeline
    # ------------------------------------------------------------------
    def snap_indices_many(
        self, t1s: np.ndarray, t2s: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`snap_indices` for a whole workload.

        Returns ``(j1s, j2s, valid, reads)``: the snapped breakpoint
        indices, whether each snap is non-degenerate (both successors
        exist and ``j2 > j1``), and the block reads the scalar snap's
        two B+-tree walks charge per query (always both walks, like
        the scalar path).  Requires the snap tree's bulk layout
        (:func:`repro.btree.batch.supports_model`).
        """
        times = self.breakpoints.times
        cap = self.snap_tree.leaf_capacity
        height = self.snap_tree.height
        j1s, exists1, reads1 = modeled_successor_many(times, t1s, cap, height)
        j2s, exists2, reads2 = modeled_successor_many(times, t2s, cap, height)
        valid = exists1 & exists2 & (j2s > j1s)
        return j1s, j2s, valid, reads1 + reads2

    def _topology(self) -> Dict[int, tuple]:
        """The whole segment tree as in-memory walk metadata (cached).

        Maps each node block id to ``(lo, hi, left, right, ids, vals,
        stored_count, stored_blocks)`` where ``ids``/``vals`` are the
        node's *full* top list materialized once (inline rows or the
        concatenation of its packed list blocks) and ``stored_count``/
        ``stored_blocks`` are the stored list's length and block ids
        (``None`` for inline nodes, whose list costs no extra IO).
        Fetched with :meth:`BlockDevice.peek`: the batched pipeline
        dedups physical payload access across the workload and charges
        the scalar walk's IOs analytically (or replays them through
        the buffer pool) instead.
        """
        cached = getattr(self, "_topo_cache", None)
        if cached is not None:
            return cached
        topology: Dict[int, tuple] = {}
        stack = [self.root_id]
        while stack:
            node_id = stack.pop()
            node: _DyadicNode = self.device.peek(node_id)
            if node.inline_rows is not None:
                ids, vals = node.inline_rows
                stored_count = None
                stored_blocks = None
            else:
                ids, vals = StoredTopList.decode_pieces(
                    [self.device.peek(b) for b in node.top_list.block_ids]
                )
                stored_count = node.top_list.count
                stored_blocks = node.top_list.block_ids
            topology[node_id] = (
                node.lo, node.hi, node.left, node.right,
                ids, vals, stored_count, stored_blocks,
            )
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        self._topo_cache = topology
        return topology

    def _simulate_decompose(
        self, j1: int, j2: int
    ) -> Tuple[List[int], List[int]]:
        """Replay :meth:`decompose`'s walk on the cached topology.

        Returns the covered node ids in the exact order the walk
        appends them, plus every node id it reads in pop order
        (covered or not — the scalar walk charges each; the LRU
        replay path streams them through the pool in this order).
        Memoized per snapped pair: serving workloads revisit pairs.
        """
        cache = getattr(self, "_decomp_cache", None)
        if cache is None:
            cache = {}
            self._decomp_cache = cache
        hit = cache.get((j1, j2))
        if hit is not None:
            return hit
        topology = self._topology()
        covered: List[int] = []
        visited: List[int] = []
        stack = [self.root_id]
        while stack:
            node_id = stack.pop()
            visited.append(node_id)
            lo, hi, left, right = topology[node_id][:4]
            if hi <= j1 or lo >= j2:
                continue
            if j1 <= lo and hi <= j2:
                covered.append(node_id)
                continue
            if left is not None:
                stack.append(left)
            if right is not None:
                stack.append(right)
        cache[(j1, j2)] = (covered, visited)
        return covered, visited

    def decompose_many(
        self, j1s: np.ndarray, j2s: np.ndarray
    ) -> Tuple[List[List[int]], np.ndarray]:
        """Covered-node ids for many snapped pairs, without device IO.

        Returns ``(covered_lists, walk_reads)``; the caller charges
        ``walk_reads`` (the per-pair node reads :meth:`decompose`
        performs) against the device when it commits the batch's
        modeled cost.  Pairs are deduped internally.
        """
        j1s = np.asarray(j1s, dtype=np.int64)
        j2s = np.asarray(j2s, dtype=np.int64)
        span = int(self.breakpoints.times.size) + 1
        keys = j1s * span + j2s
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        covered_unique: List[List[int]] = []
        visited_unique = np.empty(unique_keys.size, dtype=np.int64)
        for pos, key in enumerate(unique_keys):
            covered, visited = self._simulate_decompose(
                int(key) // span, int(key) % span
            )
            covered_unique.append(covered)
            visited_unique[pos] = len(visited)
        return (
            [covered_unique[i] for i in inverse],
            visited_unique[inverse],
        )

    def candidates_many(
        self, t1s: np.ndarray, t2s: np.ndarray, ks: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Batched :meth:`candidates`: per-query candidate arrays.

        Returns one ``(object_ids, summed_scores)`` pair per query, in
        the scalar dict's first-appearance order with bit-identical
        sums: every query's top-list entries join one global
        ``(query, object, score)`` stream and a single ``np.add.at``
        pass accumulates per-(query, object) totals in stream order —
        float-associativity-identical to the per-query loop.  Node
        payloads are fetched once per touched node; the IO charge per
        query is exactly the scalar walk + list reads, committed in
        bulk — or, when a buffer pool is attached, replayed through
        the pool in scalar per-query order so hit counts and LRU
        state match the scalar loop exactly.  Falls back to the
        scalar loop when the snap tree left bulk form.
        """
        if ks.size and int(ks.max()) > self.kmax:
            raise InvalidQueryError(
                f"k={int(ks.max())} exceeds kmax={self.kmax}"
            )
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if not supports_model(self.snap_tree):
            pools = []
            for t1, t2, k in zip(t1s, t2s, ks):
                pool = self.candidates(float(t1), float(t2), int(k))
                if pool:
                    pools.append((
                        np.fromiter(pool.keys(), np.int64, len(pool)),
                        np.fromiter(pool.values(), np.float64, len(pool)),
                    ))
                else:
                    pools.append(empty)
            return pools
        replay = self.device.has_cache
        j1s, j2s, valid, snap_reads = self.snap_indices_many(t1s, t2s)
        total_reads = int(snap_reads.sum())
        pools = [empty] * int(t1s.size)
        valid_idx = np.flatnonzero(valid)
        if valid_idx.size == 0:
            if replay:
                self._replay_scalar_reads(t1s, t2s, j1s, j2s, valid, ks)
            else:
                self.device.stats.record_reads(total_reads)
            return pools
        covered_lists, walk_reads = self.decompose_many(
            j1s[valid_idx], j2s[valid_idx]
        )
        total_reads += int(walk_reads.sum())
        # Dedup identical (snapped pair, k) requests: their candidate
        # pools are the same arrays.
        span = int(self.breakpoints.times.size) + 1
        triple_keys = (
            j1s[valid_idx] * span + j2s[valid_idx]
        ) * np.int64(self.kmax + 1) + ks[valid_idx]
        unique_triples, first_of_triple, triple_inverse = np.unique(
            triple_keys, return_index=True, return_inverse=True
        )
        topology = self._topology()
        cap = StoredTopList.capacity(self.device)
        segment_ids: List[np.ndarray] = []
        segment_vals: List[np.ndarray] = []
        segment_triple: List[int] = []
        list_reads = np.zeros(unique_triples.size, dtype=np.int64)
        for tpos in range(unique_triples.size):
            rep = int(first_of_triple[tpos])
            k = int(ks[valid_idx[rep]])
            reads = 0
            for node_id in covered_lists[rep]:
                ids, vals, stored_count = topology[node_id][4:7]
                segment_ids.append(ids[:k])
                segment_vals.append(vals[:k])
                segment_triple.append(tpos)
                if stored_count is not None:
                    reads += max(1, -(-min(k, stored_count) // cap))
            list_reads[tpos] = reads
        total_reads += int(list_reads[triple_inverse].sum())
        if replay:
            self._replay_scalar_reads(t1s, t2s, j1s, j2s, valid, ks)
        else:
            self.device.stats.record_reads(total_reads)
        triple_pools = self._accumulate_streams(
            segment_ids, segment_vals, segment_triple, unique_triples.size
        )
        for pos, idx in enumerate(valid_idx):
            pools[int(idx)] = triple_pools[triple_inverse[pos]]
        return pools

    def _replay_scalar_reads(
        self,
        t1s: np.ndarray,
        t2s: np.ndarray,
        j1s: np.ndarray,
        j2s: np.ndarray,
        valid: np.ndarray,
        ks: np.ndarray,
    ) -> None:
        """Stream the scalar per-query block reads through the pool.

        Replays, for each query in workload order, exactly the block
        sequence the scalar :meth:`candidates` touches: both snap-tree
        successor walks (always), then — for non-degenerate snaps —
        every segment-tree node :meth:`decompose` pops (pop order) and
        the top-``k`` prefix blocks of each covered node's stored
        list.  :meth:`BlockDevice.replay_reads` charges misses and
        records hits exactly like :meth:`BlockDevice.read`, so IO
        totals, hit counts, and LRU pool state land identical to the
        scalar loop while answers still come from the peeked payloads.
        """
        topology = self._topology()
        cap = StoredTopList.capacity(self.device)
        for idx in range(int(t1s.size)):
            blocks1, _ = self.snap_tree.successor_with_blocks(float(t1s[idx]))
            self.device.replay_reads(blocks1)
            blocks2, _ = self.snap_tree.successor_with_blocks(float(t2s[idx]))
            self.device.replay_reads(blocks2)
            if not valid[idx]:
                continue
            covered, visited = self._simulate_decompose(
                int(j1s[idx]), int(j2s[idx])
            )
            self.device.replay_reads(visited)
            k = int(ks[idx])
            for node_id in covered:
                stored_count, stored_blocks = topology[node_id][6:8]
                if stored_count is None:
                    continue
                needed = max(1, -(-min(k, stored_count) // cap))
                self.device.replay_reads(stored_blocks[:needed])

    @staticmethod
    def _accumulate_streams(
        segment_ids: List[np.ndarray],
        segment_vals: List[np.ndarray],
        segment_triple: List[int],
        num_triples: int,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One ``np.add.at`` pass over the whole batch's streams.

        Composite keys ``triple * stride + object`` keep per-triple
        entries contiguous after ``np.unique`` while the accumulation
        still runs in global stream order — which, per key, is exactly
        the per-query stream order the scalar ``candidates`` loop
        sums in, so totals match bit for bit.
        """
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if not segment_ids:
            return [empty] * num_triples
        cat_ids = np.concatenate(segment_ids)
        if cat_ids.size == 0:
            return [empty] * num_triples
        cat_vals = np.concatenate(segment_vals)
        lengths = np.asarray([a.size for a in segment_ids], dtype=np.int64)
        entry_triple = np.repeat(
            np.asarray(segment_triple, dtype=np.int64), lengths
        )
        base = int(cat_ids.min())
        stride = np.int64(int(cat_ids.max()) - base + 1)
        keys = entry_triple * stride + (cat_ids - base)
        unique_keys, first_seen, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        # bincount's C loop adds weights in stream order — the same
        # per-key accumulation order as ``np.add.at`` (and the scalar
        # per-query loop), just without the ufunc dispatch.
        sums = np.bincount(
            inverse, weights=cat_vals, minlength=unique_keys.size
        )
        triple_of_key = unique_keys // stride
        bounds = np.searchsorted(
            triple_of_key, np.arange(num_triples + 1, dtype=np.int64)
        )
        pools: List[Tuple[np.ndarray, np.ndarray]] = []
        for tpos in range(num_triples):
            lo, hi = int(bounds[tpos]), int(bounds[tpos + 1])
            if lo == hi:
                pools.append(empty)
                continue
            order = np.argsort(first_seen[lo:hi])
            pools.append((
                (unique_keys[lo:hi] % stride)[order] + base,
                sums[lo:hi][order],
            ))
        return pools

    def query_many(
        self, t1s: np.ndarray, t2s: np.ndarray, ks: np.ndarray
    ) -> List[TopKResult]:
        """Batched :meth:`query` (the APPX2 answer per workload row)."""
        pools = self.candidates_many(t1s, t2s, ks)
        return top_k_ragged(pools, ks)
