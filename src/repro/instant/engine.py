"""Instant top-k queries: ``top-k(t)`` (Li, Yi, Le — the predecessor).

The paper positions the aggregate top-k query against the *instant*
top-k query of [15], where objects are ranked by their score **at a
single time instance** ``t``.  The aggregate query with ``t1 == t2``
degenerates to zero integrals, so instant ranking needs a value-based
engine of its own; having one in the library also lets users compare
the two semantics (the paper's Figure 2 example shows how they
disagree).

Two engines are provided:

* :class:`InstantBruteForce` — evaluate every object at ``t``.
* :class:`InstantIntervalTree` — EXACT3's interval tree already stores
  one segment per object per elementary interval, so a single stabbing
  query at ``t`` yields all object values in ``O(log N + m/B)`` IOs.
  This mirrors how the aggregate machinery subsumes the instant
  problem.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core import buildcount
from repro.core.database import TemporalDatabase
from repro.core.errors import IndexStateError, InvalidQueryError
from repro.core.plfstore import isin_sorted, row_chunks
from repro.core.queries import integral_ks
from repro.core.results import TopKResult, top_k_from_arrays
from repro.parallel.executor import split_rows
from repro.storage.device import BlockDevice
from repro.storage.stats import IOStats
from repro.intervaltree.tree import ExternalIntervalTree

#: Row layout behind lo/hi: obj_id, v_lo, v_hi.
_VALUE_COLUMNS = 3


def _validate_instant_batch(ts, ks) -> np.ndarray:
    """Reject a malformed instant workload (or one scalar ``(t, k)``);
    returns ``ks`` as int64 (non-integral ``k`` rejected, not truncated)."""
    ts, ks = np.asarray(ts), integral_ks(ks)
    if ts.size != ks.size:
        raise InvalidQueryError("instant workload arrays must align")
    if not np.isfinite(ts).all():
        raise InvalidQueryError("query times must be finite")
    if ks.size and int(ks.min()) < 1:
        raise InvalidQueryError("k must be >= 1")
    return ks


class InstantBruteForce:
    """Reference engine: evaluate ``g_i(t)`` for every object."""

    name = "INSTANT-BRUTE"

    def __init__(self) -> None:
        self.database: TemporalDatabase | None = None

    def build(self, database: TemporalDatabase) -> "InstantBruteForce":
        self.database = database
        return self

    def query(self, t: float, k: int) -> TopKResult:
        """``top-k(t)``: objects with the k highest scores at time t.

        All ``m`` evaluations run through the columnar kernel's
        :meth:`~repro.core.plfstore.PLFStore.values_at`.
        """
        if self.database is None:
            raise IndexStateError("engine not built")
        k = int(_validate_instant_batch(t, k))
        if self.database.wants_store:
            store = self.database.store()
            return top_k_from_arrays(store.object_ids, store.values_at(t), k)
        # Store invalidated by an append (streaming tick): the scalar
        # loop beats an O(N) snapshot rebuild per query.
        self.database.note_scalar_fallback()
        ids = self.database.object_ids()
        values = np.asarray(
            [obj.function.value(t) for obj in self.database]
        )
        return top_k_from_arrays(ids, values, k)

    def query_many(self, ts: np.ndarray, ks: np.ndarray) -> List[TopKResult]:
        """Batched ``top-k(t)``: one ``values_at_many`` kernel pass.

        Answers are identical to the per-query loop (the batched
        kernel replicates ``values_at`` bit for bit); the scalar loop
        itself answers while the store is append-stale.
        """
        if self.database is None:
            raise IndexStateError("engine not built")
        ts = np.asarray(ts, dtype=np.float64)
        ks = _validate_instant_batch(ts, ks)
        if not self.database.wants_store:
            return [self.query(float(t), int(k)) for t, k in zip(ts, ks)]
        store = self.database.store()
        values = store.values_at_many(ts)
        return [
            top_k_from_arrays(store.object_ids, values[row], int(ks[row]))
            for row in range(ts.size)
        ]


class InstantIntervalTree:
    """Interval-tree instant top-k: one stabbing query per ``top-k(t)``."""

    name = "INSTANT-ITREE"

    def __init__(self, block_bytes: int = 4096) -> None:
        self.device = BlockDevice(block_bytes=block_bytes, name="instant")
        self.tree = ExternalIntervalTree(self.device, value_columns=_VALUE_COLUMNS)
        self._object_ids = np.empty(0, dtype=np.int64)
        self._store = None
        self._built = False

    def build(self, database: TemporalDatabase) -> "InstantIntervalTree":
        buildcount.record("index")
        store = database.store()
        self._object_ids = store.object_ids
        # The build-time snapshot backs the batched query pipeline (the
        # tree is static, so it can never drift from this snapshot).
        self._store = store
        self.tree.build(*store.segment_table())
        self._built = True
        return self

    def query(self, t: float, k: int) -> TopKResult:
        """``top-k(t)`` via one stab: interpolate each returned segment."""
        if not self._built:
            raise IndexStateError("engine not built")
        k = int(_validate_instant_batch(t, k))
        rows = self.tree.stab(t)
        if rows.shape[0] == 0:
            return TopKResult()
        lo, hi = rows[:, 0], rows[:, 1]
        obj = rows[:, 2].astype(np.int64)
        v_lo, v_hi = rows[:, 3], rows[:, 4]
        width = hi - lo
        frac = np.where(width > 0, (t - lo) / np.where(width > 0, width, 1.0), 0.0)
        values = v_lo + frac * (v_hi - v_lo)
        # Shared-endpoint duplicates agree on the value; keep the first.
        first = np.unique(obj, return_index=True)[1]
        return top_k_from_arrays(obj[first], values[first], k)

    def query_many(self, ts: np.ndarray, ks: np.ndarray) -> List[TopKResult]:
        """Batched ``top-k(t)`` with the stab arithmetic vectorized.

        Non-knot query times locate each object's containing segment
        on the build-time store snapshot and interpolate with exactly
        the scalar stab's formula (bit-identical values), charging the
        modeled stab walk per query; knot-coincident times — where
        the stab returns two agreeing segment entries — go through
        the real scalar path, as does the whole batch when the
        snapshot or cost model is unavailable (old pickles).  With an
        attached buffer pool the modeled block sequences are replayed
        through the LRU in query order, so hits, charges, and final
        pool contents match the scalar loop's.  A large enough batch
        of non-knot times splits into two contiguous row chunks
        answered on two threads
        (:func:`~repro.parallel.executor.split_rows`): the same
        arithmetic per row, hence identical answers.
        """
        if not self._built:
            raise IndexStateError("engine not built")
        ts = np.asarray(ts, dtype=np.float64)
        ks = _validate_instant_batch(ts, ks)
        store = getattr(self, "_store", None)
        if store is None or self.tree.has_overflow:
            return [self.query(float(t), int(k)) for t, k in zip(ts, ks)]
        boundary = isin_sorted(store.knot_time_set(), ts)
        results: List[TopKResult] = [None] * int(ts.size)
        if self.device.has_cache:
            # LRU replay (see Exact3._query_many): the scalar loop's
            # per-query stab block sequence, in order.
            for idx in range(int(ts.size)):
                if boundary[idx]:
                    results[idx] = self.query(float(ts[idx]), int(ks[idx]))
                else:
                    self.device.replay_reads(
                        self.tree.modeled_stab_blocks(ts[idx])
                    )
        else:
            for idx in np.flatnonzero(boundary):
                results[idx] = self.query(float(ts[idx]), int(ks[idx]))
        regular = np.flatnonzero(~boundary)
        if regular.size == 0:
            return results
        if not self.device.has_cache:
            self.device.stats.record_reads(
                int(self.tree.modeled_stab_reads_many(ts[regular]).sum())
            )
        view = store.csr_view()
        rts, rks = ts[regular], ks[regular]
        parts = split_rows(
            lambda rows: self._stab_answers(view, rts[rows], rks[rows]),
            rts.size,
            store.num_objects,
        )
        answers = [answer for part in parts for answer in part]
        for pos, idx in enumerate(regular):
            results[int(idx)] = answers[pos]
        return results

    def _stab_answers(self, view, ts: np.ndarray, ks: np.ndarray):
        """:meth:`query_many`'s answers for non-knot times ``ts``: the
        scalar stab's interpolation, per object, on the located
        pieces."""
        from repro.approximate.toplists import top_k_rows

        m = view.num_objects
        k_eff = np.empty(ts.size, dtype=np.int64)
        value_chunks: List[np.ndarray] = []
        for rows in row_chunks(ts.size, m):
            col = ts[rows, None]
            j = view.locate_many(ts[rows])
            lo = view.knot_times[j]
            hi = view.knot_times[j + 1]
            v_lo = view.knot_values[j]
            v_hi = view.knot_values[j + 1]
            width = hi - lo
            frac = np.where(
                width > 0, (col - lo) / np.where(width > 0, width, 1.0), 0.0
            )
            values = v_lo + frac * (v_hi - v_lo)
            # Objects the stab would miss (t outside their span) may
            # not appear in the answer: -inf marks them, and k is
            # clamped to the hit count so a pad is never selected.
            hit = (view.starts <= col) & (col <= view.ends)
            np.copyto(values, -np.inf, where=~hit)
            k_eff[rows] = np.minimum(ks[rows], hit.sum(axis=1))
            value_chunks.append(values)
        matrix = value_chunks[0] if len(value_chunks) == 1 else np.vstack(value_chunks)
        return top_k_rows(self._object_ids, matrix, k_eff)

    @property
    def io_stats(self) -> IOStats:
        return self.device.stats

    @property
    def index_size_bytes(self) -> int:
        return self.device.size_bytes
