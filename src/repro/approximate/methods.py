"""The combined approximate methods (paper Section 3.3).

The paper crosses two breakpoint constructions with two query
structures (Figure 7) and adds an exact-rescoring variant:

=========  ==============  =========  =====================================
method     breakpoints     structure  guarantee on scores and answers
=========  ==============  =========  =====================================
APPX1-B    BREAKPOINTS1    QUERY1     (eps, 1)
APPX2-B    BREAKPOINTS1    QUERY2     (eps, 2 log r)
APPX1      BREAKPOINTS2    QUERY1     (eps, 1)
APPX2      BREAKPOINTS2    QUERY2     (eps, 2 log r)
APPX2+     BREAKPOINTS2    QUERY2     candidate set of APPX2, scores exact
=========  ==============  =========  =====================================

All take either an explicit ``epsilon`` or a breakpoint budget ``r``
(the experiments fix ``r`` so B1 and B2 are compared on equal space);
a prebuilt :class:`Breakpoints` can also be injected so benchmark
sweeps share one construction across methods.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.errors import ReproError
from repro.core.queries import TopKQuery
from repro.core.results import TopKResult, top_k_from_arrays
from repro.exact.base import RankingMethod
from repro.exact.exact2 import Exact2
from repro.storage.cache import LRUCache
from repro.storage.device import BlockDevice
from repro.storage.stats import IOStats
from repro.approximate.breakpoints import (
    Breakpoints,
    build_breakpoints1,
    build_breakpoints2,
    epsilon_for_budget,
)
from repro.approximate.dyadic import DyadicIndex
from repro.approximate.query1 import NestedPairIndex
from repro.approximate.toplists import top_k_ragged

#: Default maximum supported query k (paper Section 5 default).
DEFAULT_KMAX = 200


class _ApproximateBase(RankingMethod):
    """Shared plumbing for the five approximate methods."""

    #: "b1" or "b2".
    breakpoint_kind: str = "b2"

    def __init__(
        self,
        epsilon: Optional[float] = None,
        r: Optional[int] = None,
        kmax: int = DEFAULT_KMAX,
        breakpoints: Optional[Breakpoints] = None,
        block_bytes: int = 4096,
        cache_blocks: int = 0,
    ) -> None:
        super().__init__()
        if breakpoints is None and (epsilon is None) == (r is None):
            raise ReproError("give exactly one of epsilon / r (or prebuilt breakpoints)")
        self.epsilon = epsilon
        self.r_budget = r
        self.kmax = kmax
        self._prebuilt = breakpoints
        self._stats = IOStats()
        self._cache = LRUCache(cache_blocks) if cache_blocks > 0 else None
        self.device = BlockDevice(
            block_bytes=block_bytes,
            cache=self._cache,
            name=type(self).__name__,
            stats=self._stats,
        )
        self.breakpoints: Optional[Breakpoints] = None

    # ------------------------------------------------------------------
    def _build_breakpoints(self, database: TemporalDatabase) -> Breakpoints:
        if self._prebuilt is not None:
            return self._prebuilt
        if self.breakpoint_kind == "b1":
            if self.epsilon is not None:
                return build_breakpoints1(database, epsilon=self.epsilon)
            return build_breakpoints1(database, r=self.r_budget)
        epsilon = self.epsilon
        if epsilon is None:
            epsilon = epsilon_for_budget(database, self.r_budget)
        return build_breakpoints2(database, epsilon)

    @property
    def io_stats(self) -> IOStats:
        return self._stats

    @property
    def index_size_bytes(self) -> int:
        return self.device.size_bytes

    def drop_caches(self) -> None:
        self.device.drop_cache()

    def _append(self, object_id: int, t_next: float, v_next: float) -> None:
        """Amortized update: rebuild once appended mass doubles M.

        The paper handles updates by keeping the construction threshold
        ``tau = eps*M`` fixed and rebuilding when ``M`` doubles; between
        rebuilds the existing structure stays valid for the old data
        and new segments accumulate in the database.  We track the
        appended mass and rebuild at the doubling point.
        """
        obj = self.database.get(object_id)
        fn = obj.function
        if fn.times[-1] == t_next:
            # Database already updated (the documented order): the new
            # segment is the last one.
            t_prev, v_prev = fn.times[-2], fn.values[-2]
        else:
            t_prev, v_prev = fn.times[-1], fn.values[-1]
        seg_mass = 0.5 * (t_next - t_prev) * abs(v_next + v_prev)
        self._appended_mass = getattr(self, "_appended_mass", 0.0) + float(seg_mass)
        if self.breakpoints and self._appended_mass >= self.breakpoints.total_mass:
            self._appended_mass = 0.0
            self._rebuild()

    def _rebuild(self) -> None:
        self._stats = IOStats()
        self.device = BlockDevice(
            block_bytes=self.device.block_bytes,
            cache=self._cache,
            name=type(self).__name__,
            stats=self._stats,
        )
        self._prebuilt = None
        self._build(self.database)


class Appx1(_ApproximateBase):
    """APPX1: BREAKPOINTS2 + QUERY1 — the high-accuracy variant."""

    name = "APPX1"
    breakpoint_kind = "b2"

    def _build(self, database: TemporalDatabase) -> None:
        self.breakpoints = self._build_breakpoints(database)
        self.index = NestedPairIndex(self.device, self.breakpoints, self.kmax)
        self.index.build(database)

    def _query(self, query: TopKQuery) -> TopKResult:
        return self.index.query(query.t1, query.t2, query.k)

    def _query_many(self, t1s, t2s, ks):
        return self.index.query_many(t1s, t2s, ks)


class Appx1B(Appx1):
    """APPX1-B: BREAKPOINTS1 + QUERY1 (the basic variant)."""

    name = "APPX1-B"
    breakpoint_kind = "b1"


class Appx2(_ApproximateBase):
    """APPX2: BREAKPOINTS2 + QUERY2 — the small-footprint variant."""

    name = "APPX2"
    breakpoint_kind = "b2"

    def _build(self, database: TemporalDatabase) -> None:
        self.breakpoints = self._build_breakpoints(database)
        self.index = DyadicIndex(self.device, self.breakpoints, self.kmax)
        self.index.build(database)

    def _query(self, query: TopKQuery) -> TopKResult:
        return self.index.query(query.t1, query.t2, query.k)

    def _query_many(self, t1s, t2s, ks):
        return self.index.query_many(t1s, t2s, ks)

    def candidate_set(self, query: TopKQuery) -> Dict[int, float]:
        """The candidate pool ``K`` (diagnostics and APPX2+)."""
        return self.index.candidates(query.t1, query.t2, query.k)


class Appx2B(Appx2):
    """APPX2-B: BREAKPOINTS1 + QUERY2 (the basic variant)."""

    name = "APPX2-B"
    breakpoint_kind = "b1"


class Appx2Plus(Appx2):
    """APPX2+: APPX2's candidates, re-scored exactly via an EXACT2 forest.

    Index size grows by ``O(N/B)`` (it stores the full prefix data) and
    each query pays ``O(log_B n_i)`` extra IOs per candidate, in
    exchange for near-perfect empirical accuracy (paper Section 3.3
    and Figures 12, 15-17, 20).
    """

    name = "APPX2+"
    breakpoint_kind = "b2"

    def _build(self, database: TemporalDatabase) -> None:
        super()._build(database)
        self.rescorer = Exact2(
            block_bytes=self.device.block_bytes, stats=self._stats
        )
        self.rescorer.build(database)

    def _query(self, query: TopKQuery) -> TopKResult:
        pool = self.index.candidates(query.t1, query.t2, query.k)
        if not pool:
            return TopKResult()
        ids = np.fromiter(pool.keys(), dtype=np.int64, count=len(pool))
        # Batched multi-candidate Equation-(2) rescoring: bit-identical
        # scores and IO charges to per-candidate ``rescorer.score``.
        exact = self.rescorer.score_many(ids, query.t1, query.t2)
        return top_k_from_arrays(ids, exact, query.k)

    def _query_many(self, t1s, t2s, ks):
        """Batched APPX2+: one rescoring pass for the whole workload.

        Candidate pools come from the dyadic structure's batch
        pipeline; every query's ``(object, t1, t2)`` rescore triples
        are then concatenated into a *single*
        :meth:`Exact2.score_triples` call — two vectorized
        Equation-(2) passes for the entire workload instead of two
        per query — and split back per query for the final top-k.
        Scores, tie-breaks, and IO charges match the scalar loop
        exactly (the triples kernel is elementwise and the modeled
        tree-walk charge is summed per row either way).
        """
        pools = self.index.candidates_many(t1s, t2s, ks)
        counts = np.asarray([ids.size for ids, _ in pools], dtype=np.int64)
        if int(counts.sum()) == 0:
            return [TopKResult()] * int(t1s.size)
        all_ids = np.concatenate([ids for ids, _ in pools])
        exact = self.rescorer.score_triples(
            all_ids,
            np.repeat(t1s, counts),
            np.repeat(t2s, counts),
        )
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        return top_k_ragged(
            [
                (all_ids[bounds[row] : bounds[row + 1]],
                 exact[bounds[row] : bounds[row + 1]])
                for row in range(int(t1s.size))
            ],
            ks,
        )

    @property
    def index_size_bytes(self) -> int:
        return self.device.size_bytes + self.rescorer.index_size_bytes


#: Registry used by benchmarks and examples.
APPROXIMATE_METHODS = {
    "APPX1-B": Appx1B,
    "APPX2-B": Appx2B,
    "APPX1": Appx1,
    "APPX2": Appx2,
    "APPX2+": Appx2Plus,
}
