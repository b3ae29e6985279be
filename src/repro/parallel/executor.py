"""Automatic two-thread splits, and the serving tier's process pool.

Two kernels split their work over a second core on their own: EXACT3's
batched stabs (:func:`repro.exact.exact3.exact3_batch_answers`) and
QUERY1's per-left-endpoint top-list batches.  Each splits only when its
work reaches the threshold measured to pay for the split
(:func:`split_threads`), into two contiguous chunks run by
:func:`thread_map` — the NumPy passes release the GIL for most of a
chunk.  Every chunk is a pure function of the arrays its closure
captured, results come back in chunk order, and the caller performs
all device writes and IO accounting itself, so split runs are
byte-identical to inline ones and concurrent splits share no state
(``tests/test_build_equivalence.py``).

:class:`WorkerPool` is the serving pool's long-lived process pool.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

_WORKER_STATE: Any = None


def _set_worker_state(state: Any) -> None:
    """Install a pool's shared state (the process initializer)."""
    global _WORKER_STATE
    _WORKER_STATE = state


def worker_state() -> Any:
    """The state installed in this :class:`WorkerPool` worker."""
    return _WORKER_STATE


# ----------------------------------------------------------------------
# chunk scheduling
# ----------------------------------------------------------------------
def chunk_ranges(
    n: int, parts: int, min_size: int = 1
) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``parts`` contiguous chunks.

    Chunk sizes differ by at most one and every chunk holds at least
    ``min_size`` items (fewer chunks are produced when ``n`` is
    small).  Contiguity keeps each worker streaming over one slice of
    the shared arrays — the shared-memory-friendly schedule.
    """
    if n <= 0:
        return []
    parts = max(1, min(int(parts), n // max(1, int(min_size)) or 1))
    base, extra = divmod(n, parts)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for index in range(parts):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def weighted_chunk_ranges(
    weights: Sequence[float], parts: int
) -> List[Tuple[int, int]]:
    """Contiguous chunks of near-equal total *weight*.

    The QUERY1 split uses this with weight ``r - 1 - j`` per left
    endpoint ``j``: early endpoints own quadratically more list rows
    than late ones, so equal-count chunks would put almost all the
    work in the first chunk.  Cuts are placed at the weight quantiles
    (deterministically), preserving order.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = int(weights.size)
    if n == 0:
        return []
    parts = max(1, min(int(parts), n))
    cumulative = np.cumsum(weights)
    total = float(cumulative[-1])
    if not np.isfinite(total) or total <= 0.0:
        return chunk_ranges(n, parts)
    targets = total * np.arange(1, parts + 1) / parts
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for cut in cuts:
        hi = min(max(int(cut), lo), n)
        if hi > lo:
            ranges.append((lo, hi))
            lo = hi
    if lo < n:
        ranges.append((lo, n))
    return ranges


def process_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context process pools should use.

    Prefer fork only where it is actually safe (Linux): macOS lists
    fork as available but its default moved to spawn because forking
    after threads exist can crash the Objective-C runtime / BLAS.
    Elsewhere, take the platform default (worker state then pickles
    once per worker instead of arriving copy-on-write).
    """
    methods = multiprocessing.get_all_start_methods()
    if sys.platform.startswith("linux") and "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ----------------------------------------------------------------------
# automatic splits
# ----------------------------------------------------------------------
def split_threads(
    work: int, threshold: float, cpus: Optional[int] = None
) -> int:
    """Threads (1 or 2) for a kernel of ``work`` elements: two when
    ``work`` reaches ``threshold`` (where a split was measured to pay)
    and two CPUs are usable.  ``cpus`` defaults to the host's count, or
    1 inside a :class:`WorkerPool` worker, whose pool already spreads
    batches over the cores."""
    if cpus is None:
        cpus = 1 if worker_state() is not None else (os.cpu_count() or 1)
    return 2 if cpus >= 2 and work >= threshold else 1


def thread_map(
    fn: Callable[[Any], Any], tasks: Sequence[Any], workers: int
) -> list:
    """``[fn(task) for task in tasks]`` on ``workers`` threads: the
    caller's and ``workers - 1`` per-call helpers (none idle when a
    serving pool forks).  The caller runs the first task on its own
    warm malloc arena; a fresh helper's arena starts cold.  Results
    come back in task order; a task's exception propagates after the
    helpers stop, so a failed split never commits partial results."""
    tasks = list(tasks)
    if workers < 2 or len(tasks) < 2:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helped = [pool.submit(fn, task) for task in tasks[1:]]
        first = fn(tasks[0])
        return [first] + [future.result() for future in helped]


class WorkerPool:
    """A long-lived, submit-oriented process pool with installed state.

    Serving workers *outlive* many dispatches (a mounted snapshot per
    worker, re-used across micro-batches).  ``state`` is installed in
    every worker by the pool initializer, so tasks read it back with
    :func:`worker_state`; workers spawn on demand as submissions
    arrive, which keeps an idle pool cheap.
    """

    def __init__(self, workers: int, state: Any = None) -> None:
        self.workers = int(workers)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=process_context(),
            initializer=_set_worker_state,
            initargs=(state,),
        )

    def submit(self, fn: Callable[..., Any], *args: Any):
        """Submit one task; returns its ``concurrent.futures.Future``."""
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)
