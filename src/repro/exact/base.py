"""Common interface for every ranking method (exact and approximate).

All six paper methods answer the same query (``top-k(t1, t2, sum)``)
and are compared on the same four axes: index size, construction cost,
query cost (IOs and time), and update cost.  :class:`RankingMethod`
fixes that contract so benchmarks can sweep methods uniformly.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core import buildcount
from repro.core.database import TemporalDatabase
from repro.core.queries import TopKQuery, workload_arrays
from repro.core.results import TopKResult
from repro.storage.stats import IOStats


@dataclass
class QueryCost:
    """Measured cost of one query."""

    ios: int
    seconds: float
    result: TopKResult


class RankingMethod(ABC):
    """A built index that answers aggregate top-k queries.

    Subclasses implement :meth:`_build` and :meth:`_query`; the public
    wrappers add timing, IO measurement, and state checks.
    """

    #: Paper name of the method ("EXACT1", "APPX2+", ...).
    name: str = "abstract"

    def __init__(self) -> None:
        self.database: Optional[TemporalDatabase] = None
        self.build_seconds: float = 0.0
        self._built = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def build(self, database: TemporalDatabase) -> "RankingMethod":
        """Construct the index over ``database``; returns self."""
        start = time.perf_counter()
        buildcount.record("index")
        self.database = database
        self._build(database)
        self.build_seconds = time.perf_counter() - start
        self._built = True
        return self

    def query(self, query: TopKQuery) -> TopKResult:
        """Answer ``top-k(t1, t2, sum)``."""
        self._check_built()
        return self._query(query)

    def measured_query(self, query: TopKQuery, cold: bool = True) -> QueryCost:
        """Answer a query and report its IOs and wall time.

        ``cold=True`` drops buffer pools first, so IO counts match the
        paper's uncached measurements.
        """
        self._check_built()
        if cold:
            self.drop_caches()
        stats = self.io_stats
        before = stats.snapshot()
        start = time.perf_counter()
        result = self._query(query)
        seconds = time.perf_counter() - start
        delta = stats.snapshot() - before
        return QueryCost(ios=delta.reads + delta.writes, seconds=seconds, result=result)

    def query_many(self, queries) -> List[TopKResult]:
        """Answer a whole workload of ``top-k(t1, t2, sum)`` queries.

        ``queries`` is anything :func:`repro.core.queries.
        workload_arrays` accepts — a ``(q, 3)`` array of ``(t1, t2,
        k)`` rows, a list of :class:`TopKQuery`, or a sampled
        workload batch.  Answers come back in query order and are
        guaranteed identical — scores, tie-breaks, and total IO
        charges — to looping :meth:`query` over the workload; methods
        with a vectorized pipeline override :meth:`_query_many` and
        fall back to the loop whenever a precondition for the modeled
        IO accounting fails (buffer pools, pending appends).
        """
        self._check_built()
        t1s, t2s, ks = workload_arrays(queries)
        return self._query_many(t1s, t2s, ks)

    def _query_many(
        self, t1s: np.ndarray, t2s: np.ndarray, ks: np.ndarray
    ) -> List[TopKResult]:
        """Default batched path: the scalar per-query loop."""
        return self._scalar_loop(t1s, t2s, ks)

    def _scalar_loop(
        self, t1s: np.ndarray, t2s: np.ndarray, ks: np.ndarray
    ) -> List[TopKResult]:
        """The reference loop every batched pipeline must reproduce."""
        return [
            self._query(TopKQuery(float(t1), float(t2), int(k)))
            for t1, t2, k in zip(t1s, t2s, ks)
        ]

    def append(self, object_id: int, t_next: float, v_next: float) -> None:
        """Apply a Section 4 update (append one segment to one object).

        The database itself must be updated separately (or first) via
        :meth:`TemporalDatabase.append_segment`; this method maintains
        the index.  Methods that cannot update incrementally rebuild.
        """
        self._check_built()
        self._append(object_id, t_next, v_next)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def io_stats(self) -> IOStats:
        """Combined IO counters across every device the method owns."""

    @property
    @abstractmethod
    def index_size_bytes(self) -> int:
        """On-"disk" footprint of the built index."""

    def drop_caches(self) -> None:
        """Clear any buffer pools (default: nothing to clear)."""

    # ------------------------------------------------------------------
    # subclass API
    # ------------------------------------------------------------------
    @abstractmethod
    def _build(self, database: TemporalDatabase) -> None: ...

    @abstractmethod
    def _query(self, query: TopKQuery) -> TopKResult: ...

    def _append(self, object_id: int, t_next: float, v_next: float) -> None:
        raise NotImplementedError(f"{self.name} does not support appends")

    def _check_built(self) -> None:
        if not self._built:
            from repro.core.errors import IndexStateError

            raise IndexStateError(f"{self.name} has not been built")

    def __repr__(self) -> str:
        state = "built" if self._built else "unbuilt"
        return f"{type(self).__name__}({state})"
