"""Adaptive micro-batching serving coordinator (asyncio front-end).

Per-request callers await ``top_k(t1, t2, k)``; the coordinator queues
requests and flushes **micro-batches** through the backend's batched
pipeline, which answers a whole batch far faster than the scalar loop
(the repo's vectorized ``query_many`` engines) while returning
bit-identical per-request answers.  Three mechanisms combine:

Adaptive micro-batching
    A flush fires when the queue reaches the *batch target* or when
    the oldest queued request has waited ``max_delay`` — whichever
    comes first, so an idle trickle is never held hostage to a size
    threshold.  The target adapts to the observed arrival rate (EWMA
    of inter-arrival gaps): roughly the number of arrivals expected
    within one ``max_delay`` window, clamped to
    ``[min_batch, max_batch]``.  Light load → small batches (latency
    bound by the deadline); heavy load → large batches (throughput
    bound by the batched kernels).

In-flight pipelining
    Execution runs on a worker thread; the event loop keeps accepting
    and queueing requests while a batch executes, so the *next*
    micro-batch forms during the current one's execution.
    ``pipeline_depth`` bounds how many flushed batches may be in
    flight (submitted, not yet finished) before the flusher itself
    waits.  The worker pool is single-threaded by default: the query
    engines are not thread-safe under concurrent mutation of their IO
    counters and pools, and a single worker already yields the
    overlap that matters (batch formation concurrent with execution)
    with strictly deterministic backend state.

Process-backed execution (``workers > 1``)
    With ``workers=N`` the coordinator dispatches flushed batches to a
    :class:`~repro.serving.pool.ServingProcessPool` instead: worker
    processes mount an immutable snapshot of the backend (zero-copy,
    zero builds — the PR 8 mmap tier) and concurrently dispatched
    batches genuinely overlap across cores.  Every dispatch carries
    the snapshot's epoch token; an append on the coordinator bumps
    the live epoch, the pool re-snapshots before the next flush
    (``stats.pool_resyncs``), and stale worker mounts re-mount on
    their next dispatch (``stats.pool_remounts``).  Answers,
    tie-breaks, and modeled IO charges stay bit-identical to the
    single-thread path because mounted snapshots answer
    bit-identically to the live backend.

Node-level result caching
    Answers are cached in an epoch-guarded LRU
    (:class:`~repro.serving.cache.ResultCache`) keyed on the exact
    ``(t1, t2, k)`` triple.  The guard epoch is the backend's append
    counter: a hit requires the entry's epoch to equal the *current*
    epoch, and entries are only inserted when the epoch did not move
    during execution — so a cached answer can never be stale, it is
    byte-for-byte the answer the backend would recompute.  Duplicate
    keys within one batch execute once (same determinism argument).

Answers are bit-identical to calling the backend's ``query_many``
directly — micro-batching, pipelining, and caching change *when* work
happens, never *what* is answered (asserted in
``tests/test_serving.py`` across engines and both cluster layouts).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import CoordinatorShutdown, DeadlineExceeded, ReproError
from repro.core.queries import TopKQuery
from repro.core.results import TopKResult
from repro.serving.cache import ResultCache

#: Query key: the exact request triple (cache / in-batch dedup unit).
Key = Tuple[float, float, int]


@dataclass
class ServingStats:
    """Counters describing how the coordinator served its traffic."""

    #: Requests accepted by :meth:`ServingCoordinator.top_k`.
    requests: int = 0
    #: Micro-batches flushed.
    batches: int = 0
    #: Flushes triggered by reaching the batch target.
    size_flushes: int = 0
    #: Flushes triggered by the oldest request's deadline (or drain).
    deadline_flushes: int = 0
    #: Unique query keys actually executed on the backend.
    executed: int = 0
    #: Requests answered from the result cache.
    cache_hits: int = 0
    #: Requests answered by an in-batch duplicate's execution.
    deduped: int = 0
    #: Largest micro-batch flushed.
    max_batch: int = 0
    #: Requests that failed structurally instead of being answered:
    #: per-request deadline blown (:class:`DeadlineExceeded`) or
    #: abandoned by a bounded :meth:`ServingCoordinator.close`
    #: (:class:`CoordinatorShutdown`).
    failed: int = 0
    #: Micro-batches dispatched to the process pool (``workers > 1``).
    pool_dispatches: int = 0
    #: Pool re-snapshots after a coordinator-side append moved the
    #: live epoch past the pool's mounted snapshot.
    pool_resyncs: int = 0
    #: Worker re-mounts triggered by a dispatch carrying a newer
    #: snapshot token than the worker's cached mount.
    pool_remounts: int = 0
    #: Index structures made query-ready by worker mounts (recorded
    #: builds replayed at pool start and after re-mounts), so the
    #: first flush never pays a cold-build stall.
    warmups: int = 0

    @property
    def mean_batch(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


@dataclass
class _Request:
    key: Key
    arrival: float
    future: "asyncio.Future[TopKResult]" = field(repr=False)


class ServingCoordinator:
    """Async serving front-end over one backend.

    Parameters
    ----------
    backend:
        Any adapter from :mod:`repro.serving.backends` — an object
        with ``serve_many(t1s, t2s, ks)`` and an ``epoch`` property.
    max_batch:
        Hard cap on micro-batch size (backend batches never exceed
        it).
    min_batch:
        Floor for the adaptive batch target.
    max_delay:
        Longest a queued request may wait before its batch is
        flushed, in seconds (the latency the coordinator may spend
        *accumulating* a batch; queueing behind in-flight batches can
        add more under overload).
    adaptive:
        When True (default) the flush target tracks the arrival
        rate; when False every flush waits for ``max_batch`` or the
        deadline.
    pipeline_depth:
        Maximum flushed-but-unfinished batches before the flusher
        blocks.  ``1`` disables pipelining (next batch forms only
        queue-side); ``None`` (default) resolves to ``2`` on the
        single-thread path (one batch forms and submits while one
        executes) and to ``workers + 1`` with a process pool (every
        worker busy plus one batch forming).
    workers:
        Execution worker *processes*.  ``1`` (default) keeps the
        single-thread path; ``N > 1`` snapshots the backend and
        dispatches batches to a
        :class:`~repro.serving.pool.ServingProcessPool` so pipelined
        batches overlap across cores — answers stay bit-identical.
    pool:
        A pre-built :class:`~repro.serving.pool.ServingProcessPool`
        to adopt instead of creating one (tests; the CLI's
        snapshot-reuse path).  The coordinator owns it from
        :meth:`start` on and closes it on shutdown; ``workers`` is
        taken from the pool.
    pool_dir:
        Directory for the pool's epoch snapshots (default: a private
        temporary directory).
    pool_snapshot:
        An existing snapshot directory of the backend's current state
        to reuse as the pool's first mount (skips the initial
        snapshot write; see :class:`ServingProcessPool`).
    cache_size:
        Result-cache capacity in answers; ``0`` disables result
        caching.
    cache_min_cost:
        Admission threshold for the result cache: answers whose
        backend-declared recomputation cost (the backend's
        ``cost_hint``, default 1.0) falls below this are *not*
        cached, so instant-cheap backends never churn the LRU.  The
        default 0.0 admits everything.
    request_deadline:
        Optional per-request wall-clock budget in seconds.  A request
        still unanswered when it expires fails with a structured
        :class:`~repro.core.errors.DeadlineExceeded` (counted in
        ``stats.failed``) instead of awaiting forever — the guard
        that keeps one wedged shard from wedging every caller.
        ``None`` (default) preserves unbounded awaits.
    clock:
        Injectable monotonic clock (tests).

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  :meth:`stop` drains: every accepted
    request is answered before it returns.  :meth:`close` is the
    bounded variant: after ``drain_timeout`` it fails whatever is
    still pending with :class:`CoordinatorShutdown` rather than hang.
    """

    def __init__(
        self,
        backend,
        max_batch: int = 64,
        min_batch: int = 1,
        max_delay: float = 0.002,
        adaptive: bool = True,
        pipeline_depth: Optional[int] = None,
        cache_size: int = 1024,
        cache_min_cost: float = 0.0,
        request_deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        workers: int = 1,
        pool=None,
        pool_dir=None,
        pool_snapshot=None,
    ) -> None:
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        if not 1 <= min_batch <= max_batch:
            raise ReproError(
                f"need 1 <= min_batch <= max_batch, got {min_batch}"
            )
        self.backend = backend
        self.max_batch = int(max_batch)
        self.min_batch = int(min_batch)
        self.max_delay = float(max_delay)
        self.adaptive = bool(adaptive)
        self.workers = pool.workers if pool is not None else int(workers)
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self._pool = pool
        self._pool_dir = pool_dir
        self._pool_snapshot = pool_snapshot
        if pipeline_depth is None:
            # One batch forming while every execution slot is busy.
            pipeline_depth = 2 if self.workers == 1 else self.workers + 1
        if pipeline_depth < 1:
            raise ReproError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
        self.pipeline_depth = int(pipeline_depth)
        if request_deadline is not None and request_deadline <= 0:
            raise ReproError(
                f"request_deadline must be positive, got {request_deadline}"
            )
        self.cache = ResultCache(
            capacity=int(cache_size), min_cost=float(cache_min_cost)
        )
        self.request_deadline = request_deadline
        self.stats = ServingStats()
        self._clock = clock
        self._queue: Deque[_Request] = deque()
        #: Futures of accepted-but-unanswered requests (for bounded
        #: shutdown: close() fails exactly these).
        self._outstanding: set = set()
        self._arrived: Optional[asyncio.Event] = None
        self._inflight: Optional[asyncio.Semaphore] = None
        self._flusher: Optional[asyncio.Task] = None
        self._exec_tasks: set = set()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closing = False
        # EWMA of inter-arrival gaps (seconds); None until two
        # arrivals have been seen.
        self._ewma_gap: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self._ewma_alpha = 0.2

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ServingCoordinator":
        """Spawn the flusher loop and the execution worker(s)."""
        if self._flusher is not None:
            raise ReproError("coordinator already started")
        self._closing = False
        self._arrived = asyncio.Event()
        self._inflight = asyncio.Semaphore(self.pipeline_depth)
        # Single worker thread: on the workers=1 path it serializes
        # backend execution (engines mutate IO counters and pools);
        # with a process pool it only runs pool construction, the
        # batches themselves go to the pool.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving"
        )
        if self._pool is None and self.workers > 1:
            from repro.serving.pool import ServingProcessPool

            loop = asyncio.get_running_loop()
            # Pool construction snapshots the backend and warms every
            # worker — real work; keep it off the event loop.
            self._pool = await loop.run_in_executor(
                self._executor,
                lambda: ServingProcessPool(
                    self.backend,
                    self.workers,
                    root=self._pool_dir,
                    initial_snapshot=self._pool_snapshot,
                ),
            )
        if self._pool is not None:
            self.stats.warmups += self._pool.startup_warmups
        self._flusher = asyncio.create_task(self._flush_loop())
        return self

    async def stop(self) -> None:
        """Drain the queue, finish in-flight batches, shut down.

        The unbounded form of :meth:`close`: every accepted request is
        answered before this returns.
        """
        await self.close(drain_timeout=None)

    async def close(self, drain_timeout: Optional[float] = None) -> None:
        """Shut down within ``drain_timeout`` seconds.

        Waits up to ``drain_timeout`` for the flusher and in-flight
        batches to finish (``None`` waits indefinitely — the
        :meth:`stop` behavior).  When the budget expires first, the
        remaining work is cancelled and **every still-pending request
        future is failed** with a structured
        :class:`~repro.core.errors.CoordinatorShutdown` (counted in
        ``stats.failed``) — callers get a clean error, never a
        forever-hanging await.
        """
        if self._flusher is None:
            return
        self._closing = True
        self._arrived.set()
        # Drain in rounds: the flusher keeps spawning execution tasks
        # while it empties the queue, so a single snapshot of
        # _exec_tasks would miss batches dispatched mid-drain (and a
        # pool makes that window real work, not an instant).  Re-poll
        # until nothing is left or the budget expires.
        deadline = (
            None if drain_timeout is None else self._clock() + drain_timeout
        )
        pending: set = set()
        while True:
            work = {
                task
                for task in {self._flusher} | set(self._exec_tasks)
                if not task.done()
            }
            if not work:
                pending = set()
                break
            timeout = (
                None
                if deadline is None
                else max(0.0, deadline - self._clock())
            )
            _, pending = await asyncio.wait(work, timeout=timeout)
            if pending:
                break
        if pending:
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        abandoned = [
            future for future in self._outstanding if not future.done()
        ]
        if abandoned:
            error = CoordinatorShutdown(
                f"coordinator closed with {len(abandoned)} requests "
                f"unanswered (drain_timeout={drain_timeout})"
            )
            for future in abandoned:
                future.set_exception(error)
                self.stats.failed += 1
        self._queue.clear()
        self._outstanding.clear()
        # A timed-out close must not block on the worker thread either;
        # anything still executing has no waiter left to deliver to.
        self._executor.shutdown(wait=not pending, cancel_futures=bool(pending))
        if self._pool is not None:
            # The coordinator owns the pool (built or adopted): worker
            # processes stop here.  A timed-out close abandons their
            # in-flight batches the same way it abandons the thread's.
            pool, self._pool = self._pool, None
            await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: pool.close(
                    wait=not pending, cancel_futures=bool(pending)
                ),
            )
        self._flusher = None
        self._executor = None

    async def __aenter__(self) -> "ServingCoordinator":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    async def top_k(self, t1: float, t2: float, k: int) -> TopKResult:
        """Serve one aggregate (or instant) top-k request.

        Queues the request and awaits its micro-batch's answer; the
        result is exactly what the backend's ``query_many`` returns
        for this triple.
        """
        if self._flusher is None or self._closing:
            raise ReproError("coordinator is not running (use start())")
        # Reject a bad triple here, to its caller alone: queued, it
        # would raise inside the batch and fail every batch-mate.
        query = TopKQuery(float(t1), float(t2), k)
        now = self._clock()
        self._observe_arrival(now)
        future: "asyncio.Future[TopKResult]" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.append(
            _Request((query.t1, query.t2, query.k), now, future)
        )
        self.stats.requests += 1
        self._outstanding.add(future)
        future.add_done_callback(self._outstanding.discard)
        self._arrived.set()
        if self.request_deadline is None:
            return await future
        try:
            return await asyncio.wait_for(future, self.request_deadline)
        except asyncio.TimeoutError:
            # wait_for cancelled the future; the executing batch (if
            # any) sees a done future and skips delivery.
            self.stats.failed += 1
            raise DeadlineExceeded(
                f"request exceeded its {self.request_deadline}s deadline",
                deadline=self.request_deadline,
            ) from None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Prometheus-style counters as one flat ``name -> value`` dict.

        Names follow the ``<namespace>_<subsystem>_<unit>_total``
        convention (counters monotone over the coordinator's
        lifetime; ``*_gauge`` entries are point-in-time values), so a
        scrape endpoint or the CLI's ``--stats-json`` dump can expose
        them without translation.
        """
        stats, cache = self.stats, self.cache.stats
        return {
            "repro_serving_requests_total": stats.requests,
            "repro_serving_batches_total": stats.batches,
            "repro_serving_size_flushes_total": stats.size_flushes,
            "repro_serving_deadline_flushes_total": stats.deadline_flushes,
            "repro_serving_executed_total": stats.executed,
            "repro_serving_cache_hits_total": stats.cache_hits,
            "repro_serving_deduped_total": stats.deduped,
            "repro_serving_failed_total": stats.failed,
            "repro_serving_pool_dispatches_total": stats.pool_dispatches,
            "repro_serving_pool_resyncs_total": stats.pool_resyncs,
            "repro_serving_pool_remounts_total": stats.pool_remounts,
            "repro_serving_warmups_total": stats.warmups,
            "repro_serving_max_batch_gauge": stats.max_batch,
            "repro_serving_mean_batch_gauge": stats.mean_batch,
            "repro_serving_workers_gauge": self.workers,
            "repro_serving_pipeline_depth_gauge": self.pipeline_depth,
            "repro_serving_backend_epoch_gauge": int(self.backend.epoch),
            "repro_serving_result_cache_hits_total": cache.hits,
            "repro_serving_result_cache_misses_total": cache.misses,
            "repro_serving_result_cache_stale_total": cache.stale,
            "repro_serving_result_cache_evictions_total": cache.evictions,
            "repro_serving_result_cache_rejected_total": cache.rejected,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _observe_arrival(self, now: float) -> None:
        last, self._last_arrival = self._last_arrival, now
        if last is None:
            return
        gap = max(now - last, 1e-9)
        if self._ewma_gap is None:
            self._ewma_gap = gap
        else:
            alpha = self._ewma_alpha
            self._ewma_gap = alpha * gap + (1.0 - alpha) * self._ewma_gap

    def batch_target(self) -> int:
        """Current flush-size target (adaptive unless disabled).

        The expected number of arrivals inside one ``max_delay``
        window at the EWMA-estimated rate, clamped to
        ``[min_batch, max_batch]``: waiting for more than that would
        blow the deadline anyway, flushing sooner wastes batching
        opportunity.
        """
        if not self.adaptive:
            return self.max_batch
        gap = self._ewma_gap
        if gap is None:
            return self.min_batch
        expected = int(round(self.max_delay / gap))
        return max(self.min_batch, min(self.max_batch, expected))

    async def _flush_loop(self) -> None:
        while True:
            if not self._queue:
                if self._closing:
                    return
                self._arrived.clear()
                # Re-check before sleeping: a request (or stop) may
                # have landed between the check and the clear.
                if not self._queue and not self._closing:
                    await self._arrived.wait()
                continue
            target = self.batch_target()
            deadline_hit = False
            while len(self._queue) < target and not self._closing:
                remaining = self.max_delay - (
                    self._clock() - self._queue[0].arrival
                )
                if remaining <= 0:
                    deadline_hit = True
                    break
                self._arrived.clear()
                try:
                    await asyncio.wait_for(self._arrived.wait(), remaining)
                except asyncio.TimeoutError:
                    deadline_hit = True
                    break
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), self.max_batch))
            ]
            self.stats.batches += 1
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            if deadline_hit or self._closing:
                self.stats.deadline_flushes += 1
            else:
                self.stats.size_flushes += 1
            # Pipelining bound: wait for an in-flight slot, then hand
            # the batch to the worker and immediately resume forming
            # the next one.
            await self._inflight.acquire()
            task = asyncio.create_task(self._execute(batch))
            self._exec_tasks.add(task)
            task.add_done_callback(self._exec_tasks.discard)

    async def _execute(self, batch: List[_Request]) -> None:
        try:
            epoch = self.backend.epoch
            pending: Dict[Key, List[_Request]] = {}
            for request in batch:
                cached = self.cache.get(request.key, epoch)
                if cached is not None:
                    # A done future here means the caller already gave
                    # up (deadline) — nothing to deliver.
                    if not request.future.done():
                        request.future.set_result(cached)
                    self.stats.cache_hits += 1
                    continue
                pending.setdefault(request.key, []).append(request)
            if pending:
                keys = list(pending)
                count = len(keys)
                t1s = np.fromiter((k[0] for k in keys), np.float64, count)
                t2s = np.fromiter((k[1] for k in keys), np.float64, count)
                ks = np.fromiter((k[2] for k in keys), np.int64, count)
                loop = asyncio.get_running_loop()
                if self._pool is not None:
                    # Re-sync the pool before dispatch when an append
                    # moved the live epoch past the mounted snapshot.
                    # The snapshot write runs *inline on the event
                    # loop*: dumping an index temporarily strips its
                    # live block payloads, so it must never interleave
                    # with a coordinator-side append (appends run on
                    # the loop thread too, hence serialized here).
                    if not self._pool.in_sync():
                        if self._pool.resync():
                            self.stats.pool_resyncs += 1
                    results, info = await asyncio.wrap_future(
                        self._pool.submit(t1s, t2s, ks)
                    )
                    self.stats.pool_dispatches += 1
                    self.stats.pool_remounts += int(info.get("remounts", 0))
                    self.stats.warmups += int(info.get("warmups", 0))
                else:
                    results = await loop.run_in_executor(
                        self._executor, self.backend.serve_many, t1s, t2s, ks
                    )
                self.stats.executed += count
                # Only cache when no append landed mid-execution: an
                # entry stamped with the pre-append epoch could
                # otherwise hold a post-append answer (or vice versa).
                fresh = self.backend.epoch == epoch
                cost = float(getattr(self.backend, "cost_hint", 1.0))
                for key, result in zip(keys, results):
                    if fresh:
                        self.cache.put(key, epoch, result, cost=cost)
                    waiters = pending[key]
                    self.stats.deduped += len(waiters) - 1
                    for request in waiters:
                        if not request.future.done():
                            request.future.set_result(result)
        except Exception as exc:  # propagate to every waiter
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        finally:
            self._inflight.release()
