"""Automatic two-thread splits and the serving tier's process pool.

See :mod:`repro.parallel.executor` for :func:`split_rows`,
:func:`split_threads`, :func:`thread_map` and :class:`WorkerPool`, and
:mod:`repro.parallel.workers` for the serving-pool tasks.
"""

from repro.parallel.executor import (
    WorkerPool,
    chunk_ranges,
    split_rows,
    split_threads,
    thread_map,
    usable_cpus,
    weighted_chunk_ranges,
    worker_state,
)

__all__ = [
    "WorkerPool",
    "chunk_ranges",
    "split_rows",
    "split_threads",
    "thread_map",
    "usable_cpus",
    "weighted_chunk_ranges",
    "worker_state",
]
