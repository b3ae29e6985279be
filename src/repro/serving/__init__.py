"""Async serving front-end over the batched query engines.

The repo's engines answer whole workloads an order of magnitude
faster than per-query loops (the ``query_many`` pipelines), but a
live service receives *single* requests.  This package closes that
gap: an asyncio coordinator queues per-request ``top_k(t1, t2, k)``
calls and flushes adaptive micro-batches through the batched
pipelines — with in-flight pipelining and an epoch-guarded result
cache — so request traffic inherits batched throughput while every
answer stays bit-identical to a direct ``query_many`` call.

* :class:`ServingCoordinator` — the front-end (micro-batching,
  pipelining, caching).
* :mod:`~repro.serving.backends` — adapters binding the coordinator
  to single-node engines (exact / approximate / instant) and both
  partitioned clusters.
* :class:`ResultCache` — the epoch-guarded answer cache (stale hits
  impossible by construction).
* :mod:`~repro.serving.loadgen` — seeded open-loop Poisson load
  generation and the batch=1 baseline client, behind ``repro
  loadgen``.
"""

from repro.serving.backends import (
    ClusterBackend,
    EngineBackend,
    InstantBackend,
    backend_from_snapshot,
)
from repro.serving.cache import ResultCache, ResultCacheStats
from repro.serving.coordinator import ServingCoordinator, ServingStats
from repro.serving.loadgen import (
    ArrivalPlan,
    DirectClient,
    LoadResult,
    plan_poisson_load,
    run_open_loop,
)
from repro.serving.pool import ServingProcessPool

__all__ = [
    "ArrivalPlan",
    "ClusterBackend",
    "DirectClient",
    "EngineBackend",
    "InstantBackend",
    "LoadResult",
    "ResultCache",
    "ResultCacheStats",
    "ServingCoordinator",
    "ServingProcessPool",
    "ServingStats",
    "backend_from_snapshot",
    "plan_poisson_load",
    "run_open_loop",
]
