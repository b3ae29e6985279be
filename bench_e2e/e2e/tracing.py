"""Benchmark-owned tracing: spans recorded around calls into each layer.

Nothing under ``src/`` is instrumented.  The proxies sit at injection
points the code already offers — a backend handed to the coordinator
(:class:`TracedBackend`), a pool passed as ``pool=``
(:class:`TracedPool`) — and `Tracer.span` brackets direct calls
(``engine.append``, ``repro.open``, ``snapshot``, the layer replays).
Spans stay in memory and are written out once, after the timed phases.

A span is ``(id, name, start, end, parent, key)``; spans of one
request or batch share ``key``.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import numpy as np

from e2e.loadgen import Phase, clock


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    key: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name, start, end, parent=None, key=None) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, key))
        return span_id

    @contextmanager
    def span(self, name: str, parent=None, key=None):
        start = clock()
        try:
            yield
        finally:
            self.add(name, start, clock(), parent, key)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the union of the parts of
    its interval that its direct children cover (overlapping children
    are not counted twice; a child is clipped to its parent)."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name (seconds)."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + own[span.id]
    return out


@dataclass
class BackendCall:
    """One batch the coordinator executed on its backend or pool.

    Four clock readings taken by three observers: ``dispatched`` on the
    event loop as the coordinator hands the batch over, ``start`` and
    ``end`` where the batch runs, ``resolved`` on the event loop once the
    coordinator has the results back and is about to deliver them.
    """

    dispatched: float
    start: float
    end: float
    #: CPU seconds the executing thread spent inside the call
    #: (``time.thread_time``): the span without its waits for the
    #: interpreter lock.  NaN for a pool dispatch, which runs elsewhere.
    cpu: float
    t1s: np.ndarray
    t2s: np.ndarray
    ks: np.ndarray
    span: int
    resolved: float = float("nan")

    @property
    def rows(self) -> int:
        return int(self.t1s.size)


def calls_within(calls: List[BackendCall], phase: Phase) -> List[BackendCall]:
    """The calls that ran inside ``phase``'s wall-clock interval."""
    if not phase.done.any():
        return []
    lo = float(phase.starts.min())
    hi = float(phase.ends[phase.done].max())
    return [call for call in calls if call.start >= lo and call.end <= hi]


class TracedBackend:
    """A serving backend that records every ``serve_many`` it runs.

    Delegates the whole backend protocol (``epoch``, the snapshot-handle
    methods) to the wrapped adapter, so the coordinator cannot tell the
    difference.  Two attribute reads the coordinator makes on the event
    loop double as clock readings: it looks ``serve_many`` up as it
    hands a batch to its executor, and reads ``cost_hint`` once per
    executed batch (pooled ones too) when the results are back.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.calls: List[BackendCall] = []
        #: One reading per executed batch, in completion order.
        self.resolved: List[float] = []

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    @property
    def epoch(self) -> int:
        return self.inner.epoch

    @property
    def cost_hint(self) -> float:
        self.resolved.append(clock())
        return getattr(self.inner, "cost_hint", 1.0)

    @property
    def serve_many(self):
        dispatched = clock()

        def serve_many(t1s, t2s, ks):
            start, cpu = clock(), time.thread_time()
            results = self.inner.serve_many(t1s, t2s, ks)
            cpu, end = time.thread_time() - cpu, clock()
            key = f"batch-{len(self.calls)}"
            span = self.tracer.add("backend.serve_many", start, end, key=key)
            self.calls.append(
                BackendCall(dispatched, start, end, cpu, np.array(t1s),
                            np.array(t2s), np.array(ks), span)
            )
            return results

        return serve_many


class TracedPool:
    """A ``ServingProcessPool`` stand-in that times every dispatch from
    ``submit`` to the moment its future resolves, and every resync."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        #: In completion order (one thread resolves the futures).
        self.calls: List[BackendCall] = []

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def submit(self, t1s, t2s, ks):
        start = clock()
        future = self.inner.submit(t1s, t2s, ks)
        batch = (np.array(t1s), np.array(t2s), np.array(ks))

        def done(_future) -> None:
            end = clock()
            key = f"dispatch-{len(self.calls)}"
            span = self.tracer.add("pool.submit", start, end, key=key)
            self.calls.append(
                BackendCall(start, start, end, float("nan"), *batch, span))

        future.add_done_callback(done)
        return future

    def resync(self) -> bool:
        with self.tracer.span("pool.resync"):
            return self.inner.resync()


def attach_resolved(calls: List[BackendCall], backend: TracedBackend) -> None:
    """Give each executed batch the coordinator's ``resolved`` reading.

    Both lists are in completion order — one executor thread runs the
    batches first in, first out; one thread resolves the pool's futures
    — so they pair up by position.  A count mismatch means the
    coordinator no longer reads ``cost_hint`` once per executed batch
    and the trace cannot be trusted.
    """
    if len(calls) != len(backend.resolved):
        raise RuntimeError(
            f"trace broken: {len(calls)} executed batches but "
            f"{len(backend.resolved)} resolved readings")
    for call, resolved in zip(calls, backend.resolved):
        if resolved < call.end:
            raise RuntimeError("trace broken: batch resolved before it ended")
        call.resolved = resolved


@dataclass
class RequestSplit:
    """Per-request latency split of one served phase, in ms.

    ``queue_wait``: due time to dispatch (in the coordinator's queue
    and flush).  ``executor_wait``: dispatch to the batch starting to
    run (behind the batch in flight).  ``backend``: the batch running.
    ``deliver``: results back on the event loop to the caller seeing
    its reply.  The four do not tile the request: the wake-up of the
    event loop between the batch's end and ``resolved`` is read by no
    one, which is what makes ``residual`` a measurement.
    """

    queue_wait: np.ndarray
    executor_wait: np.ndarray
    backend: np.ndarray
    deliver: np.ndarray
    latency: np.ndarray
    #: Requests answered with no backend call of their own (cache hits
    #: and in-flight duplicates): latency only.
    unlinked_latency: np.ndarray

    @property
    def residual(self) -> float:
        """Share of the linked requests' total latency that the four
        parts leave unexplained."""
        if not self.latency.size:
            return 0.0
        parts = (self.queue_wait + self.executor_wait + self.backend
                 + self.deliver)
        return float(abs(self.latency.sum() - parts.sum())
                     / self.latency.sum())


def split_requests(
    phase: Phase, table, calls: List[BackendCall], tracer: Tracer
) -> RequestSplit:
    """Attach each request to the backend call that computed its answer
    and split its latency (see :class:`RequestSplit`).

    A request belongs to a call when the call carried its key and is
    nested inside the request's own interval (dispatched after the
    request was due, resolved before the reply was seen).  Requests
    with no such call were answered from the result cache or by another
    request's execution.  Also records the ``request`` parent spans.
    """
    by_key: Dict[tuple, List[BackendCall]] = {}
    for call in calls:
        for key in zip(call.t1s.tolist(), call.t2s.tolist(), call.ks.tolist()):
            by_key.setdefault(key, []).append(call)
    t1s, t2s, ks = table.t1s.tolist(), table.t2s.tolist(), table.ks.tolist()
    parts, unlinked = [], []
    for i in np.flatnonzero(phase.done):
        row = int(phase.rows[i])
        start, end = float(phase.starts[i]), float(phase.ends[i])
        key = f"{phase.name}-req-{i}"
        request = tracer.add("request", start, end, key=key)
        owner = None
        for call in by_key.get((t1s[row], t2s[row], ks[row]), ()):
            if call.dispatched >= start and call.resolved <= end:
                owner = call
        if owner is None:
            unlinked.append((end - start) * 1e3)
            continue
        tracer.add("request.queue_wait", start, owner.dispatched, request, key)
        tracer.add("request.executor_wait", owner.dispatched, owner.start,
                   request, key)
        tracer.add("request.backend", owner.start, owner.end, request, key)
        tracer.add("request.deliver", owner.resolved, end, request, key)
        parts.append((owner.dispatched - start, owner.start - owner.dispatched,
                      owner.end - owner.start, end - owner.resolved,
                      end - start))
    columns = np.asarray(parts, dtype=np.float64).reshape(-1, 5).T * 1e3
    return RequestSplit(*columns, np.asarray(unlinked))
