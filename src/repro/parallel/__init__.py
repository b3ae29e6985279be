"""Opt-in thread fan-out and the serving tier's process pool.

See :mod:`repro.parallel.executor` for :class:`ParallelExecutor` and
:class:`WorkerPool`, and :mod:`repro.parallel.workers` for the
serving-pool tasks.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    WorkerPool,
    chunk_ranges,
    weighted_chunk_ranges,
    worker_state,
)

__all__ = [
    "ParallelExecutor",
    "WorkerPool",
    "chunk_ranges",
    "weighted_chunk_ranges",
    "worker_state",
]
