"""Shared helpers for materializing top-k_max lists on the device.

Both QUERY1 and QUERY2 precompute, for a family of breakpoint
intervals, the ``k_max`` objects with the largest aggregate inside each
interval, and store those lists packed into blocks.  The construction
is a single pass over the per-object cumulative masses evaluated at
the breakpoints (the ``P`` matrix below), which corresponds to the
paper's "single linear sweep over all segments" with running integrals
per open interval.

Batched materialization
-----------------------
The batched builders select and sort *many* interval lists at once
through :class:`TopListBatcher`.  Per-lane ``argsort``/``argpartition``
calls pay NumPy's indirect-sort overhead per list, so the batcher
instead packs each ``(-score, id-rank)`` pair into a single 64-bit key
(the id rank replaces the low mantissa bits) and runs NumPy's
vectorized *value* ``partition``/``sort`` kernels in-place on a reused
scratch buffer.  Two distinct scores that collide in the surviving 54
high bits — or a collision straddling the ``k`` selection boundary —
are detected afterwards and those (astronomically rare) rows are
re-ranked exactly with the canonical ``lexsort``, so the produced
lists are always exactly the canonical top ``k``.

Tie canonicalization: both the scalar helper and the batcher resolve
*selection* ties at the k-th score boundary by ascending object id —
the same total order ``(-score, id)`` that already governs the sorted
output and every query answer — so scalar and batched builds are
byte-identical even on tie-heavy data.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.results import TopKResult
from repro.storage.device import BlockDevice, entries_per_block

#: One stored list entry: object id + score, two 8-byte words.
LIST_ENTRY_BYTES = 16


def cumulative_matrix(
    database: TemporalDatabase, breakpoint_times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``P[i, j] = C_i(b_j)`` for every object i and breakpoint j.

    The interval aggregate between any two breakpoints is then a
    column difference — the vectorized equivalent of maintaining one
    running integral per object during the sweep.  Returns
    ``(object_ids, P)``.
    """
    ids, transposed = cumulative_matrix_T(database, breakpoint_times)
    return ids, np.ascontiguousarray(transposed.T)


def cumulative_matrix_T(
    database: TemporalDatabase, breakpoint_times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``P_T[j, i] = C_i(b_j)``: the transposed cumulative matrix.

    Row ``j`` holds every object's cumulative at breakpoint ``j``, so
    batched builders difference whole *rows* (contiguous lanes).
    """
    store = database.store()
    return store.object_ids, store.cumulative_at_many(breakpoint_times)


def top_kmax_of_column(
    ids: np.ndarray, scores: np.ndarray, kmax: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Top ``kmax`` (ids, scores) sorted by descending score, id tiebreak.

    Selection at the k-th boundary is canonical: when tied scores
    straddle the boundary, the lowest object ids among the tied group
    are kept — the same ``(-score, id)`` total order as the output.
    """
    k = min(kmax, scores.size)
    if k == scores.size:
        chosen = np.arange(scores.size)
    else:
        neg = -scores
        chosen = np.argpartition(neg, k - 1)[:k]
        boundary = neg[chosen].max()
        tied_inside = int(np.count_nonzero(neg[chosen] == boundary))
        tied_total = int(np.count_nonzero(neg == boundary))
        if tied_total != tied_inside:
            below = np.flatnonzero(neg < boundary)
            tied = np.flatnonzero(neg == boundary)
            tied = tied[np.argsort(ids[tied], kind="stable")]
            chosen = np.concatenate([below, tied[: k - below.size]])
    order = np.lexsort((ids[chosen], -scores[chosen]))
    picked = chosen[order]
    return ids[picked], scores[picked]


# ----------------------------------------------------------------------
# batched top-list selection
# ----------------------------------------------------------------------
class TopListBatcher:
    """Selects + sorts many top-``k`` lists per call via packed keys.

    One instance serves one build: it owns the scratch buffers (reused
    across calls, no per-call allocation of the ``(c, m)`` temporaries)
    and the id-rank mapping.  ``rows_nonpositive=True`` promises every
    negated-score row handed to :meth:`top_ranks` is ``<= 0`` (true
    whenever the score functions are nonnegative, since interval
    aggregates are then nonnegative); that enables a 3-pass key build.
    """

    #: Low bits of each packed key carry the id rank.
    def __init__(
        self,
        ids: np.ndarray,
        num_rows_max: int,
        kmax: int,
        rows_nonpositive: bool,
    ) -> None:
        m = ids.size
        self.ids = ids
        self.m = m
        self.k = min(kmax, m)
        self.rank_bits = max(1, int(m - 1).bit_length()) if m > 1 else 1
        self.low = np.int64((1 << self.rank_bits) - 1)
        self.rest = np.int64(0x7FFFFFFFFFFFFFFF)
        self.nonpositive = rows_nonpositive
        # Rank of each storage position under ascending object id; for
        # the (usual) ascending id layout both maps are the identity.
        self.ids_ascending = bool(np.all(np.diff(ids) > 0))
        if self.ids_ascending:
            self.rank_row = np.arange(m, dtype=np.int64)
            self.pos_of_rank = None
        else:
            order = np.argsort(ids, kind="stable")
            self.rank_row = np.empty(m, dtype=np.int64)
            self.rank_row[order] = np.arange(m, dtype=np.int64)
            self.pos_of_rank = order
        self.scratch = np.empty((num_rows_max, m), dtype=np.int64)
        self.flip = (
            None if rows_nonpositive else np.empty((num_rows_max, m), np.int64)
        )
        self._row_base = (
            np.arange(num_rows_max, dtype=np.int64)[:, None] * m
        )
        self._last_neg_sel: Optional[np.ndarray] = None

    def top_ranks(self, neg: np.ndarray) -> np.ndarray:
        """Canonical top-``k`` storage positions for each row of ``neg``.

        ``neg`` holds *negated* scores (``(c, m)``, C-contiguous, left
        intact); row results are positions sorted by ``(neg, id)``
        ascending, i.e. descending score with ascending-id ties.
        """
        c, m = neg.shape
        k = self.k
        keys = self.scratch[:c]
        u = neg.view(np.int64)
        if self.nonpositive:
            # neg <= 0: the monotone float->uint64 order map reduces to
            # ~bits (with +0.0 mapping above every negative), so the
            # key is built in three passes and sorted as uint64.
            np.bitwise_or(u, self.low, out=keys)
            np.invert(keys, out=keys)
            np.bitwise_or(keys, self.rank_row, out=keys)
            sortable = keys.view(np.uint64)
        else:
            # General signs: normalize -0.0 to +0.0 first (lexsort
            # treats them as one tie group; the order map would not),
            # then the standard sign-flip order map, sorted as int64
            # (negative keys sort first).
            neg += 0.0
            flip = self.flip[:c]
            np.right_shift(u, 63, out=flip)
            np.bitwise_and(flip, self.rest, out=flip)
            np.bitwise_xor(u, flip, out=keys)
            np.bitwise_and(keys, ~self.low, out=keys)
            np.bitwise_or(keys, self.rank_row, out=keys)
            sortable = keys
        if k < m:
            sortable.partition(k - 1, axis=1)
        top = sortable[:, :k]
        top.sort(axis=1)
        ranks = np.bitwise_and(keys[:, :k], self.low)
        positions = (
            ranks if self.pos_of_rank is None else self.pos_of_rank[ranks]
        )
        self._repair(neg, keys, positions, k)
        return positions

    def _repair(
        self, neg: np.ndarray, keys: np.ndarray, positions: np.ndarray, k: int
    ) -> None:
        """Exactly re-rank rows where key truncation lost score order.

        Two distinct scores agreeing in the 54 surviving key bits sort
        by id rank instead of by score; such a collision inside the
        top ``k`` shows up as a strict inversion of the gathered true
        scores, and one straddling the selection boundary as the k-th
        selected key sharing its high bits with the smallest excluded
        key.  Affected rows (none, in practice) are redone with the
        canonical lexsort.
        """
        c, m = neg.shape
        neg_sel = neg.ravel()[self._row_base[:c] + positions]
        bad = np.any(neg_sel[:, :-1] > neg_sel[:, 1:], axis=1)
        if k < m:
            if self.nonpositive:
                next_key = keys[:, k:].view(np.uint64).min(axis=1)
                next_key = next_key.view(np.int64)
            else:
                next_key = keys[:, k:].min(axis=1)
            straddle = np.flatnonzero(
                (keys[:, k - 1] | self.low) == (next_key | self.low)
            )
            if straddle.size:
                # The colliding key group spans the selection boundary.
                # Selection among the group went by id rank, which is
                # only canonical when all its true scores are equal
                # (e.g. the ubiquitous all-zero ties); otherwise redo.
                high = keys[straddle, k - 1 : k] | self.low
                group = (keys[straddle] | self.low) == high
                group_neg = neg[straddle]
                gmin = np.where(group, group_neg, np.inf).min(axis=1)
                gmax = np.where(group, group_neg, -np.inf).max(axis=1)
                bad[straddle[gmin != gmax]] = True
        for row in np.flatnonzero(bad):
            exact = np.lexsort((self.ids, neg[row]))[:k]
            positions[row] = exact
            neg_sel[row] = neg[row][exact]
        self._last_neg_sel = neg_sel

    def top_lists(
        self, neg: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(top_ids, top_scores, positions)`` rows for each neg row.

        Scores are recovered as ``0.0 - neg`` (bit-identical to the
        forward difference whenever ``neg`` was itself produced by the
        opposite subtraction, which never yields ``-0.0``).
        """
        positions = self.top_ranks(neg)
        top_scores = np.subtract(0.0, self._last_neg_sel)
        return self.ids[positions], top_scores, positions


def top_kmax_of_columns(
    ids: np.ndarray, score_matrix: np.ndarray, kmax: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`top_kmax_of_column` for every column of ``(m, c)`` at once.

    Returns ``(top_ids, top_scores)`` of shape ``(k, c)`` with
    ``k = min(kmax, m)``: column ``j`` holds the canonical top list of
    ``score_matrix[:, j]``.  One packed-key batch pass replaces ``c``
    per-column selections; each column's output is byte-identical to
    the scalar helper's.
    """
    m, c = score_matrix.shape
    neg = np.empty((c, m), dtype=np.float64)
    np.subtract(0.0, score_matrix.T, out=neg)
    batcher = TopListBatcher(
        np.asarray(ids), c, kmax, rows_nonpositive=bool(np.all(neg <= 0.0))
    )
    positions = batcher.top_ranks(neg)
    # Gather the *original* scores (exact even for -0.0 inputs).
    flat = positions * c + np.arange(c, dtype=np.int64)[:, None]
    top_scores = score_matrix.ravel()[flat]
    return np.asarray(ids)[positions].T, top_scores.T


def top_k_rows(
    ids: np.ndarray, scores: np.ndarray, ks: Sequence[int]
) -> List[TopKResult]:
    """One canonical :class:`TopKResult` per row of a score matrix.

    The batched query pipelines' answer-construction kernel: row ``j``
    of ``scores`` holds every object's score for query ``j`` (use
    ``-inf`` for objects a query must not return), and the result is
    exactly ``top_k_from_arrays(ids, scores[j], ks[j])`` — the same
    ``(-score, id)`` total order, the same gathered original score
    bits — but selected for all rows in one packed-key
    :class:`TopListBatcher` pass instead of one sort per query.
    """
    scores = np.asarray(scores, dtype=np.float64)
    c, m = scores.shape
    ks = np.asarray(ks, dtype=np.int64)
    if c == 0:
        return []
    kcap = int(min(int(ks.max()), m))
    if kcap <= 0:
        return [TopKResult() for _ in range(c)]
    neg = np.subtract(0.0, scores)
    batcher = TopListBatcher(
        np.asarray(ids), c, kcap, rows_nonpositive=bool(np.all(neg <= 0.0))
    )
    positions = batcher.top_ranks(neg)
    top_ids = np.asarray(ids)[positions]
    # Gather the *original* score bits (exact even for -0.0 inputs).
    flat = positions + np.arange(c, dtype=np.int64)[:, None] * m
    top_scores = scores.ravel()[flat]
    results: List[TopKResult] = []
    for row in range(c):
        k = int(ks[row])
        if k <= 0:
            results.append(TopKResult())
            continue
        results.append(
            TopKResult.from_columns(
                top_ids[row, :k].tolist(), top_scores[row, :k].tolist()
            )
        )
    return results


def top_k_ragged(
    pools: Sequence[Tuple[np.ndarray, np.ndarray]], ks: Sequence[int]
) -> List[TopKResult]:
    """Canonical top-k answers for ragged per-query candidate pools.

    ``pools[j]`` is query ``j``'s ``(object_ids, scores)`` pair (ids
    unique within a pool).  Pools are scattered into one dense
    ``(q, distinct_ids)`` matrix — ``-inf`` marks objects absent from
    a query's pool, and per-row ``k`` is clamped to the pool size so
    a pad can never be selected — then answered with one
    :func:`top_k_rows` pass.  Row ``j`` equals
    ``top_k_from_arrays(*pools[j], ks[j])`` exactly.
    """
    counts = np.asarray([pool[0].size for pool in pools], dtype=np.int64)
    if counts.size == 0 or int(counts.sum()) == 0:
        return [TopKResult() for _ in pools]
    all_ids = np.concatenate([pool[0] for pool in pools])
    all_vals = np.concatenate([pool[1] for pool in pools])
    columns, col_of = np.unique(all_ids, return_inverse=True)
    dense = np.full((counts.size, columns.size), -np.inf)
    row_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    dense[row_of, col_of] = all_vals
    k_eff = np.minimum(np.asarray(ks, dtype=np.int64), counts)
    return top_k_rows(columns, dense, k_eff)


class StoredTopList:
    """A packed on-device top-``k_max`` list for one interval.

    Block payloads come in two equivalent shapes: the historical
    ``(n, 2)`` float rows (``StoredTopList.store``) and the
    ``(ids, scores)`` array pair written by the bulk
    :meth:`store_many` path (which skips the row-interleaving pass).
    Both occupy the same ``LIST_ENTRY_BYTES`` per entry — identical
    block counts, sizes, and IO charges — and :meth:`read_top` returns
    byte-identical arrays for either.
    """

    __slots__ = ("block_ids", "count")

    def __init__(self, block_ids: List[int], count: int) -> None:
        self.block_ids = block_ids
        self.count = count

    @staticmethod
    def capacity(device: BlockDevice) -> int:
        return entries_per_block(LIST_ENTRY_BYTES, device.block_bytes)

    @staticmethod
    def store(
        device: BlockDevice, ids: np.ndarray, scores: np.ndarray
    ) -> "StoredTopList":
        """Pack ``(id, score)`` rows into blocks on ``device``."""
        rows = np.stack([ids.astype(np.float64), scores], axis=1)
        cap = StoredTopList.capacity(device)
        block_ids = [
            device.allocate(rows[lo : lo + cap].copy())
            for lo in range(0, rows.shape[0], cap)
        ]
        if not block_ids:
            block_ids = [device.allocate(rows)]
        return StoredTopList(block_ids, int(rows.shape[0]))

    @staticmethod
    def store_many(
        device: BlockDevice, ids: np.ndarray, scores: np.ndarray
    ) -> List["StoredTopList"]:
        """Pack a whole family of equal-length lists in one pass.

        ``ids`` and ``scores`` are ``(c, k)``: row ``j`` is one list.
        Every block of every list is allocated through a single
        :meth:`BlockDevice.allocate_many` call, and payloads are
        ``(ids, scores)`` pair views — no per-list row interleaving,
        no per-block Python stats round-trips.  Block id sequence, IO
        charges, and :meth:`read_top` results are identical to calling
        :meth:`store` once per row in order.
        """
        c, k = ids.shape
        if k == 0:
            return [
                StoredTopList.store(device, ids[j], scores[j])
                for j in range(c)
            ]
        # One bulk copy per matrix: block payloads are views into these
        # device-owned snapshots, so callers may reuse or mutate their
        # arrays afterwards (store() copies per block for the same
        # reason).
        ids = ids.copy()
        scores = scores.copy()
        cap = StoredTopList.capacity(device)
        blocks_per_list = -(-k // cap)
        if blocks_per_list == 1:
            payloads = list(zip(ids, scores))
            block_ids = device.allocate_many(payloads)
            return [
                StoredTopList([block_id], k) for block_id in block_ids
            ]
        payloads = [
            (ids[j, lo : lo + cap], scores[j, lo : lo + cap])
            for j in range(c)
            for lo in range(0, k, cap)
        ]
        block_ids = device.allocate_many(payloads)
        return [
            StoredTopList(
                block_ids[j * blocks_per_list : (j + 1) * blocks_per_list], k
            )
            for j in range(c)
        ]

    @staticmethod
    def decode_pieces(pieces: List) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` from fetched block payloads (both shapes).

        The one decoder for the two equivalent payload layouts (see
        the class docstring), shared by the charged :meth:`read_top`
        path and the modeled-cost batched pipelines that fetch with
        :meth:`BlockDevice.peek` — so both decode identically by
        construction.
        """
        if isinstance(pieces[0], tuple):
            ids = np.concatenate([p[0] for p in pieces])
            scores = np.concatenate([p[1] for p in pieces])
            return ids.astype(np.int64), scores
        rows = np.concatenate(pieces, axis=0)
        return rows[:, 0].astype(np.int64), rows[:, 1]

    def read_top(self, device: BlockDevice, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read the first ``k`` entries (``ceil(k/B)`` block reads)."""
        cap = StoredTopList.capacity(device)
        needed_blocks = max(1, -(-min(k, self.count) // cap))
        pieces = device.read_many(self.block_ids[:needed_blocks])
        ids, scores = StoredTopList.decode_pieces(pieces)
        return ids[:k], scores[:k]
