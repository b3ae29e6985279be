"""Load generators: open loop, closed loop, and the single offline caller.

All three run on the benchmark's one asyncio loop (or, for the offline
caller, its main thread), so the load side never uses more than the
one core the system under test does not.  Every phase returns a
:class:`Phase` holding per-operation timestamps and answers; nothing
is aggregated until the phase is over.

Open-loop phases time each request from its *scheduled* send time, so
a stall is charged to every request it delays, and report how late the
generator itself ran.  Closed-loop phases state their client count.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

clock = time.perf_counter

#: A phase whose generator ran late by more than this share of its own
#: median latency did not offer the load it claims.
LATE_SHARE_LIMIT = 0.10
#: asyncio timers fire up to a millisecond late; lateness below this is
#: the loop's granularity, not a generator that fell behind.
TIMER_GRAIN_MS = 1.0


# repr=False: asyncio.run formats the finished main task — and with it
# the returned phases, tens of thousands of answers — when it restores
# the SIGINT handler.
@dataclass(repr=False)
class Phase:
    """Raw outcome of one timed phase (one entry per operation)."""

    name: str
    #: ``open`` (scheduled sends), ``closed`` (clients wait for their
    #: reply) or ``caller`` (one synchronous caller).
    mode: str
    #: Load description for the report: rate (1/s) or client count.
    load: float
    #: Row of the query table each operation asked for.
    rows: np.ndarray
    #: Time the operation was due (open) or issued (closed, caller).
    starts: np.ndarray
    #: Time the generator actually issued it.
    sent: np.ndarray
    #: Completion time; NaN for an operation that raised.
    ends: np.ndarray
    answers: list
    #: Queries answered per operation (1 served; round size offline).
    width: int = 1
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return int(self.rows.size)

    @property
    def done(self) -> np.ndarray:
        return ~np.isnan(self.ends)

    @property
    def latencies_ms(self) -> np.ndarray:
        ok = self.done
        return (self.ends[ok] - self.starts[ok]) * 1e3

    @property
    def wall(self) -> float:
        ok = self.done
        if not ok.any():
            return 0.0
        return float(self.ends[ok].max() - self.starts.min())

    @property
    def qps(self) -> float:
        """Queries answered per second of the phase's wall clock."""
        wall = self.wall
        return int(self.done.sum()) * self.width / wall if wall else 0.0

    @property
    def steady_qps(self) -> float:
        """The phase's throughput metric.  Served phases: answers over
        wall clock.  The single caller's few, long operations: answers
        per operation over the *median* operation, because one erratic
        call (EXACT3's 64-row batch takes 200-700 ms for the same shape)
        otherwise moves the whole phase.  Medians over sub-second
        windows were tried for the served phases and dropped: answers
        complete a batch at a time, so window counts are quantized."""
        if self.mode != "caller" or not self.done.any():
            return self.qps
        return self.width / (float(np.median(self.latencies_ms)) / 1e3)

    @property
    def late_ms(self) -> np.ndarray:
        return (self.sent - self.starts) * 1e3

    def quantile_ms(self, q: float) -> float:
        lat = self.latencies_ms
        return float(np.quantile(lat, q)) if lat.size else float("nan")

    @property
    def offered_load_valid(self) -> bool:
        """False when an open-loop generator fell behind its schedule."""
        if self.mode != "open" or not self.done.any():
            return True
        late = float(np.quantile(self.late_ms, 0.5))
        return late <= max(LATE_SHARE_LIMIT * self.quantile_ms(0.5),
                           TIMER_GRAIN_MS)


def _columns(table):
    # Native floats/ints once, not one numpy scalar conversion per send.
    return table.t1s.tolist(), table.t2s.tolist(), table.ks.tolist()


async def open_loop(
    top_k: Callable,
    table,
    rows: Sequence[int],
    arrivals: np.ndarray,
    name: str,
    rate: float,
) -> Phase:
    """Fire ``rows[i]`` at ``arrivals[i]`` regardless of replies."""
    count = min(len(rows), int(arrivals.size))
    rows = np.asarray(rows[:count], dtype=np.int64)
    t1s, t2s, ks = _columns(table)
    sent = np.full(count, np.nan)
    ends = np.full(count, np.nan)
    answers: list = [None] * count
    errors: List[str] = []

    async def fire(i: int, row: int) -> None:
        try:
            answer = await top_k(t1s[row], t2s[row], ks[row])
        except Exception as exc:  # a failed request, counted by the caller
            errors.append(repr(exc))
            return
        ends[i] = clock()
        answers[i] = answer

    origin = clock() + 0.005
    due = origin + arrivals[:count]
    due_list = due.tolist()
    row_list = rows.tolist()
    # Strong references to the requests in flight only: the loop holds
    # tasks weakly, and keeping every finished one would grow the heap
    # the collector has to walk during the phase.
    in_flight: set = set()
    i = 0
    while i < count:
        now = clock()
        if due_list[i] > now:
            # No busy-wait for sub-millisecond accuracy: a spinning
            # generator starves the serving thread of the interpreter
            # lock (tried: 4000 qps then overloads a system that
            # sustains 12k).  Timer lateness is charged to latency.
            await asyncio.sleep(due_list[i] - now)
            now = clock()
        # Catch up without pausing when behind: the open-loop property.
        while i < count and due_list[i] <= now:
            sent[i] = now
            task = asyncio.create_task(fire(i, row_list[i]))
            in_flight.add(task)
            task.add_done_callback(in_flight.discard)
            i += 1
    # ``fire`` catches a request's failure, so gather re-raises nothing
    # but a cancellation of the phase itself.
    await asyncio.gather(*in_flight)
    return Phase(name, "open", rate, rows, due, sent, ends, answers,
                 errors=errors)


async def closed_loop(
    top_k: Callable,
    table,
    rows: Sequence[int],
    clients: int,
    seconds: float,
    name: str,
) -> Phase:
    """``clients`` callers, each sending its next request on reply."""
    rows = np.asarray(rows, dtype=np.int64)
    t1s, t2s, ks = _columns(table)
    row_list = rows.tolist()
    starts = np.full(rows.size, np.nan)
    ends = np.full(rows.size, np.nan)
    answers: list = [None] * rows.size
    errors: List[str] = []
    cursor = 0
    deadline = clock() + seconds

    async def client() -> None:
        nonlocal cursor
        while cursor < rows.size:
            now = clock()
            if now >= deadline:
                return
            i = cursor
            cursor += 1
            starts[i] = now
            row = row_list[i]
            try:
                answer = await top_k(t1s[row], t2s[row], ks[row])
            except Exception as exc:
                errors.append(repr(exc))
                continue
            ends[i] = clock()
            answers[i] = answer

    await asyncio.gather(*(client() for _ in range(clients)))
    used = slice(0, cursor)
    return Phase(name, "closed", clients, rows[used], starts[used],
                 starts[used].copy(), ends[used], answers[:cursor],
                 errors=errors)


def caller_loop(
    call: Callable[[int], object],
    seconds: float,
    name: str,
    width: int,
    limit: int,
) -> Phase:
    """One synchronous caller issuing ``call(i)`` back to back, for
    ``seconds`` or until ``limit`` operations (the fresh inputs) ran."""
    starts, ends, answers = [], [], []
    errors: List[str] = []
    deadline = clock() + seconds
    for i in range(limit):
        begin = clock()
        if begin >= deadline:
            break
        starts.append(begin)
        try:
            answers.append(call(i))
            ends.append(clock())
        except Exception as exc:
            errors.append(repr(exc))
            answers.append(None)
            ends.append(float("nan"))
    starts = np.asarray(starts)
    return Phase(name, "caller", 1, np.arange(starts.size), starts,
                 starts.copy(), np.asarray(ends), answers, width=width,
                 errors=errors)


class GcWatch:
    """Counts full collections and their longest pause (gc.callbacks).

    GC stays enabled during timed phases: its pauses are part of what
    a user of the system sees, and these two numbers explain tails.
    """

    def __init__(self) -> None:
        self.gen2 = 0
        self.max_pause_ms = 0.0
        self._began: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = clock()
            return
        if self._began is not None:
            pause = (clock() - self._began) * 1e3
            self.max_pause_ms = max(self.max_pause_ms, pause)
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)
