"""Backend adapters: one micro-batch API over every query engine.

The coordinator (:mod:`repro.serving.coordinator`) speaks a single
narrow interface::

    backend.serve_many(t1s, t2s, ks) -> List[TopKResult]
    backend.epoch -> int   # append counter; result-cache guard

Adapters here bind that interface to each execution tier — the
single-node :class:`~repro.engine.TemporalRankingEngine` (exact,
approximate, or instant semantics) and both partitioned clusters.
Every adapter routes through the engine's *batched* pipeline
(``top_k_many`` / ``instant_top_k_many`` / cluster ``query_many``),
whose answers are bit-identical to the scalar per-query loops (the
repo-wide equivalence contract), so micro-batching requests changes
latency and throughput but never an answer.

Each adapter declares a ``cost_hint`` — the coordinator's result-cache
admission signal (relative recomputation cost of one answer).  The
instant path is a single fractional-cascading walk per query, cheap
enough that caching it mostly churns the LRU; the aggregate and
cluster paths pay real kernel work per answer.

Snapshot handles (the process pool's worker protocol)
-----------------------------------------------------
Every adapter also describes itself as a *snapshot handle* for the
process-backed serving pool (:mod:`repro.serving.pool`):

* ``snapshot_target()`` — the engine/cluster object
  :func:`repro.storage.snapshot.snapshot_any` should persist,
* ``prepare_for_pool()`` — eagerly builds the lazy indexes the
  adapter serves, so the snapshot records them and worker mounts
  replay recorded builds instead of paying a cold build,
* ``pool_spec()`` — a small picklable dict from which
  :func:`backend_from_snapshot` reconstructs an equivalent adapter
  over a *mounted* snapshot inside a worker process.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.results import TopKResult
from repro.datasets.workload import WorkloadBatch


class EngineBackend:
    """Aggregate ``top-k(t1, t2, k)`` over a single-node engine.

    ``approximate=True`` serves through APPX2+ (candidates from the
    tiny dyadic structure, scores exact) — the engine builds it
    lazily on the first batch.
    """

    #: Aggregate answers pay per-query kernel work: worth caching.
    cost_hint = 1.0

    def __init__(self, engine, approximate: bool = False) -> None:
        self.engine = engine
        self.approximate = approximate
        self.name = "engine-appx" if approximate else "engine-exact"

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    def serve_many(
        self,
        t1s: np.ndarray,
        t2s: np.ndarray,
        ks: np.ndarray,
    ) -> List[TopKResult]:
        batch = WorkloadBatch(
            np.asarray(t1s, dtype=np.float64),
            np.asarray(t2s, dtype=np.float64),
            np.asarray(ks, dtype=np.int64),
        )
        return self.engine.top_k_many(batch, approximate=self.approximate)

    def snapshot_target(self):
        return self.engine

    def prepare_for_pool(self) -> int:
        return self.engine.prepare(approximate=self.approximate)

    def pool_spec(self) -> dict:
        return {"kind": "engine", "approximate": bool(self.approximate)}


class InstantBackend:
    """Instant ``top-k(t)`` over a single-node engine.

    The serving request triple is ``(t, t, k)`` — ``t2`` is ignored
    (and canonically equal to ``t1``), matching the coordinator's
    cache key.
    """

    name = "engine-instant"
    #: One fractional-cascading walk per answer — cheaper to recompute
    #: than to let it evict aggregate answers (admission rejects it
    #: under a positive ``cache_min_cost``).
    cost_hint = 0.0

    def __init__(self, engine) -> None:
        self.engine = engine

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    def serve_many(
        self,
        t1s: np.ndarray,
        t2s: np.ndarray,
        ks: np.ndarray,
    ) -> List[TopKResult]:
        return self.engine.instant_top_k_many(
            np.asarray(t1s, dtype=np.float64),
            np.asarray(ks, dtype=np.int64),
        )

    def snapshot_target(self):
        return self.engine

    def prepare_for_pool(self) -> int:
        return self.engine.prepare(instant=True)

    def pool_spec(self) -> dict:
        return {"kind": "instant"}


class ClusterBackend:
    """Aggregate top-k over a partitioned cluster.

    Works for both :class:`~repro.distributed.ObjectPartitionedCluster`
    and :class:`~repro.distributed.TimePartitionedCluster` — extra
    keyword arguments are forwarded to the cluster's ``query_many``
    (``protocol=`` / ``batch_size=`` for time partitions).  The epoch is the sum of the shard
    databases' append counters: any shard mutation invalidates every
    cached answer (shards are immutable after construction in the
    current clusters, so this is effectively constant — but the guard
    stays correct if that ever changes).
    """

    #: Cluster answers cross the (modeled) network: worth caching.
    cost_hint = 1.0

    def __init__(self, cluster, name: Optional[str] = None, **query_kwargs):
        self.cluster = cluster
        self.name = name or type(cluster).__name__
        self._query_kwargs = query_kwargs

    @property
    def epoch(self) -> int:
        return sum(node.database.epoch for node in self.cluster.nodes)

    def serve_many(
        self,
        t1s: np.ndarray,
        t2s: np.ndarray,
        ks: np.ndarray,
    ) -> List[TopKResult]:
        batch = WorkloadBatch(
            np.asarray(t1s, dtype=np.float64),
            np.asarray(t2s, dtype=np.float64),
            np.asarray(ks, dtype=np.int64),
        )
        return self.cluster.query_many(batch, **self._query_kwargs)

    def snapshot_target(self):
        return self.cluster

    def prepare_for_pool(self) -> int:
        # Cluster shards build their indexes eagerly at construction;
        # there is nothing lazy left to force.
        return 0

    def pool_spec(self) -> dict:
        return {
            "kind": "cluster",
            "name": self.name,
            "query_kwargs": dict(self._query_kwargs),
        }


class DelayedBackend:
    """A backend that sleeps before serving — test/chaos instrumentation.

    The drain/close tests need pool batches that are reliably *in
    flight* when the coordinator shuts down; a worker-side sleep is
    the deterministic way to get one.  Reconstructed worker-side when
    a pool spec carries ``delay_s`` (see :func:`backend_from_snapshot`).
    """

    def __init__(self, inner, delay_s: float) -> None:
        self.inner = inner
        self.delay_s = float(delay_s)
        self.name = f"delayed({getattr(inner, 'name', '?')})"

    @property
    def cost_hint(self) -> float:
        return float(getattr(self.inner, "cost_hint", 1.0))

    @property
    def epoch(self) -> int:
        return self.inner.epoch

    def serve_many(self, t1s, t2s, ks) -> List[TopKResult]:
        import time

        time.sleep(self.delay_s)
        return self.inner.serve_many(t1s, t2s, ks)


def backend_from_snapshot(obj, spec: dict):
    """Rebuild a serving backend over a freshly mounted snapshot.

    The worker side of the serving pool's snapshot-handle protocol:
    ``obj`` is what :func:`repro.storage.snapshot.open_any` mounted,
    ``spec`` is the coordinator backend's ``pool_spec()``.  Returns
    ``(backend, warmups)`` where ``warmups`` counts the index
    structures made query-ready at mount time — replayed from the
    catalog's recorded ``index_builds`` rows, or (when the snapshot
    predates the index the spec serves) built eagerly here — so the
    worker's first flush never pays a cold-build stall.
    """
    kind = spec.get("kind")
    if kind == "engine":
        engine = obj
        approximate = bool(spec.get("approximate"))
        engine.prepare(approximate=approximate)
        # exact3 always mounts (or deterministically rebuilds) ready;
        # the approximate path adds APPX2+ when the spec serves it.
        warmups = 2 if approximate else 1
        backend = EngineBackend(engine, approximate=approximate)
    elif kind == "instant":
        engine = obj
        engine.prepare(instant=True)
        warmups = 2  # exact3 mount + the instant engine, both ready
        backend = InstantBackend(engine)
    elif kind == "cluster":
        kwargs = dict(spec.get("query_kwargs") or {})
        backend = ClusterBackend(obj, name=spec.get("name"), **kwargs)
        warmups = len(obj.nodes)
    else:
        raise ValueError(f"unknown pool spec kind {kind!r}")
    delay = float(spec.get("delay_s") or 0.0)
    if delay > 0.0:
        backend = DelayedBackend(backend, delay)
    return backend, warmups
