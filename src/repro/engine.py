"""A high-level engine bundling every ranking semantics in one object.

The individual method classes mirror the paper; a downstream
application usually wants one handle that answers

* aggregate top-k (exact or approximate, sum/avg),
* instant top-k (``top-k(t)``),
* quantile top-k (holistic), and
* append-style updates routed to every live index,

without re-deriving which index to build.  :class:`TemporalRankingEngine`
is that handle: it builds EXACT3 eagerly (the paper's best exact
method), an approximate index lazily on the first approximate query,
and an instant engine lazily on the first instant query.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.errors import InvalidQueryError
from repro.core.queries import TopKQuery, workload_arrays
from repro.core.results import TopKResult
from repro.datasets.workload import WorkloadBatch
from repro.exact.exact3 import Exact3
from repro.approximate.methods import Appx2Plus
from repro.holistic.quantile import QuantileRanker
from repro.instant.engine import InstantIntervalTree


class TemporalRankingEngine:
    """One-stop aggregate/instant/quantile ranking over a database.

    Parameters
    ----------
    database:
        The temporal database to index.
    epsilon:
        Error budget for the approximate index (APPX2+ by default:
        tiny candidate structure, exact returned scores).
    kmax:
        Largest ``k`` approximate queries may use.
    """

    def __init__(
        self,
        database: TemporalDatabase,
        epsilon: float = 1e-4,
        kmax: int = 50,
    ) -> None:
        self.database = database
        self.epsilon = epsilon
        self.kmax = kmax
        self.exact = Exact3().build(database)
        self._approximate: Optional[Appx2Plus] = None
        self._instant: Optional[InstantIntervalTree] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def top_k(
        self, t1: float, t2: float, k: int, approximate: bool = False
    ) -> TopKResult:
        """Aggregate ``top-k(t1, t2, sum)``.

        ``approximate=True`` uses APPX2+ (built lazily on first use):
        candidate selection from the tiny dyadic structure, scores
        re-computed exactly.
        """
        query = TopKQuery(t1, t2, k)
        if not approximate:
            return self.exact.query(query)
        if k > self.kmax:
            raise InvalidQueryError(
                f"approximate queries support k <= kmax ({self.kmax})"
            )
        if self._approximate is None:
            self._approximate = Appx2Plus(
                epsilon=self.epsilon, kmax=self.kmax
            ).build(self.database)
        return self._approximate.query(query)

    def top_k_many(
        self, queries, approximate: bool = False
    ) -> List[TopKResult]:
        """Batched :meth:`top_k`: answer a whole workload at once.

        ``queries`` is anything :func:`repro.core.queries.
        workload_arrays` accepts — a sampled
        :class:`~repro.datasets.workload.WorkloadBatch`, a ``(q, 3)``
        array of ``(t1, t2, k)`` rows, or a list of
        :class:`TopKQuery`.  Answers (scores, tie-breaks, IO charges)
        are identical to looping :meth:`top_k`, but the workload is
        served through the vectorized ``query_many`` pipelines; an
        exact batch large enough to pay for it splits over two threads
        on its own (:func:`repro.exact.exact3.exact3_batch_answers`).
        """
        # Normalize once; the array-attribute batch is forwarded
        # as-is (no float round-trip of ks, no (q, 3) copy).
        batch = WorkloadBatch(*workload_arrays(queries))
        if not approximate:
            return self.exact.query_many(batch)
        if len(batch) and int(batch.ks.max()) > self.kmax:
            raise InvalidQueryError(
                f"approximate queries support k <= kmax ({self.kmax})"
            )
        if self._approximate is None:
            self._approximate = Appx2Plus(
                epsilon=self.epsilon, kmax=self.kmax
            ).build(self.database)
        return self._approximate.query_many(batch)

    def instant_top_k(self, t: float, k: int) -> TopKResult:
        """Instant ``top-k(t)`` (scores at one time instance)."""
        if self._instant is None:
            self._instant = InstantIntervalTree().build(self.database)
        return self._instant.query(t, k)

    def instant_top_k_many(self, ts, ks) -> List[TopKResult]:
        """Batched :meth:`instant_top_k` over ``(ts, ks)`` arrays."""
        if self._instant is None:
            self._instant = InstantIntervalTree().build(self.database)
        return self._instant.query_many(np.asarray(ts, dtype=np.float64), ks)

    def prepare(
        self, approximate: bool = False, instant: bool = False
    ) -> int:
        """Eagerly build the requested lazy indexes; returns how many
        were built *by this call* (already-built indexes count zero).

        The serving pool calls this before snapshotting so every index
        its backend serves is recorded in the catalog (worker mounts
        then replay the recorded builds instead of paying a cold build
        on the first flush), and again worker-side so a mount is
        always query-ready.
        """
        built = 0
        if approximate and self._approximate is None:
            self._approximate = Appx2Plus(
                epsilon=self.epsilon, kmax=self.kmax
            ).build(self.database)
            built += 1
        if instant and self._instant is None:
            self._instant = InstantIntervalTree().build(self.database)
            built += 1
        return built

    def quantile_top_k(
        self, t1: float, t2: float, k: int, phi: float = 0.5
    ) -> TopKResult:
        """Holistic ranking by the phi-quantile of the score."""
        return QuantileRanker(self.database, phi=phi).query(t1, t2, k)

    # ------------------------------------------------------------------
    # scale-out
    # ------------------------------------------------------------------
    def cluster(
        self,
        num_nodes: int,
        partition: str = "object",
        method_factory=None,
        replicas: int = 1,
        fault_plan=None,
        retry_policy=None,
        allow_partial: bool = True,
    ):
        """A partitioned serving cluster over this engine's database.

        ``partition="object"`` hash-splits the objects (each node
        holds complete score functions; exact merges ship ``p * k``
        pairs); ``partition="time"`` slices the time domain (each
        node holds every object's restriction; scatter-gather or
        threshold protocols combine partials).  Both clusters answer
        whole workloads through ``query_many`` with answers, IO
        charges, and comm bytes bit-identical to their scalar
        protocols.  ``method_factory`` (object partitions) picks the
        per-node index — default EXACT3.
        """
        from repro.distributed import (
            ObjectPartitionedCluster,
            TimePartitionedCluster,
        )

        if partition == "object":
            return ObjectPartitionedCluster(
                self.database,
                num_nodes,
                method_factory=method_factory,
                replicas=replicas,
                fault_plan=fault_plan,
                retry_policy=retry_policy,
                allow_partial=allow_partial,
            )
        if partition == "time":
            return TimePartitionedCluster(
                self.database,
                num_nodes,
                replicas=replicas,
                fault_plan=fault_plan,
                retry_policy=retry_policy,
                allow_partial=allow_partial,
            )
        raise InvalidQueryError(
            f"unknown partition {partition!r}; choose object or time"
        )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def snapshot(self, path) -> "TemporalRankingEngine":
        """Write a durable snapshot of this engine to directory ``path``.

        The snapshot holds the kernel arrays as mmap-able segments,
        every *built* index (EXACT3 always; APPX2+ and the instant
        engine if they have been used) with its block payloads, and a
        WAL-mode SQLite catalog tying them together.  Reopen with
        :meth:`open` (or ``repro.open``): mounting is zero-copy and
        performs no index builds, and the mounted engine answers every
        query bit-identically — scores, tie-breaks, and IO charges.
        """
        from repro.storage.snapshot import snapshot_engine

        snapshot_engine(self, path)
        return self

    @classmethod
    def open(cls, path, verify: bool = True) -> "TemporalRankingEngine":
        """Mount an engine snapshot written by :meth:`snapshot`."""
        from repro.storage.snapshot import open_engine

        return open_engine(path, verify=verify)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def append(self, object_id: int, t_next: float, v_next: float) -> None:
        """Append a segment and maintain every live index."""
        self.database.append_segment(object_id, t_next, v_next)
        self.exact.append(object_id, t_next, v_next)
        if self._approximate is not None:
            self._approximate.append(object_id, t_next, v_next)
        if self._instant is not None:
            # The instant engine is static; rebuild lazily on next use.
            self._instant = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The database's append epoch (serving-cache invalidation key).

        Every :meth:`append` bumps it; between equal epochs the engine
        answers any fixed query identically, so the serving tier may
        cache results keyed on ``(query, epoch)``.
        """
        return self.database.epoch

    @property
    def index_size_bytes(self) -> int:
        """Combined footprint of every built index."""
        total = self.exact.index_size_bytes
        if self._approximate is not None:
            total += self._approximate.index_size_bytes
        if self._instant is not None:
            total += self._instant.index_size_bytes
        return total

    def __repr__(self) -> str:
        built = ["exact3"]
        if self._approximate is not None:
            built.append("appx2+")
        if self._instant is not None:
            built.append("instant")
        return (
            f"TemporalRankingEngine(m={self.database.num_objects}, "
            f"indexes={'+'.join(built)})"
        )
