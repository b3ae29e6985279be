"""Live dashboard, served: concurrent widgets over the serving tier.

The PR-6 demo client for ``repro.serving``: a dashboard page holds
many widgets ("top stations over the last hour / day / week" as of
page load), each an independent client polling ``top_k`` at its own
cadence.  All of
them talk to one :class:`~repro.serving.ServingCoordinator`, which
queues the single-query requests and flushes adaptive micro-batches
through the engine's batched pipeline — identical widgets hit the
epoch-guarded result cache, near-simultaneous distinct widgets share
a batch.  Meanwhile a feed task appends fresh readings; every append
bumps the engine epoch, so cached widget answers silently expire and
the next poll recomputes (never a stale frame).

Headless and offline by default (prints a transcript, seconds-scale,
no network, no display) so CI can smoke it.

``--workers N`` serves the same dashboard through the process-backed
execution pool (worker processes over mmap-mounted snapshots): every
feed append now also forces a pool re-snapshot and worker re-mounts,
exercised live while widgets keep polling — answers are unchanged.

Run:  PYTHONPATH=src python examples/live_dashboard.py [--workers 2]
"""

from __future__ import annotations

import argparse
import asyncio

import numpy as np

from repro import generate_temp
from repro.engine import TemporalRankingEngine
from repro.serving import EngineBackend, ServingCoordinator

#: (label, trailing-window fraction of the domain) per dashboard widget.
WIDGETS = [
    ("last-hour", 0.02),
    ("last-day", 0.10),
    ("last-week", 0.45),
    ("last-day-dup", 0.10),  # a second copy of the day widget: cache food
]

POLLS_PER_WIDGET = 12
K = 5


async def widget_client(
    coordinator, db, seed, label, fraction, log, polled, appended
):
    """One dashboard widget: poll top-k over its trailing window as of
    page load.

    The first poll caches the window's answer before the feed appends
    anything (``polled`` tells the feed); every later poll waits until
    the feed has appended once (``appended``), so the first of them
    meets a cached answer an append has expired, whatever the timing.
    """
    rng = np.random.default_rng(seed)
    t2 = db.t_max
    t1 = t2 - (db.t_max - db.t_min) * fraction
    for poll in range(POLLS_PER_WIDGET):
        if poll == 1:
            polled.set()
            await appended.wait()
        result = await coordinator.top_k(t1, t2, K)
        log[label] = list(result.object_ids)
        # Poisson-ish think time between polls (open UI, human pace).
        await asyncio.sleep(float(rng.exponential(0.004)))


async def feed_task(engine, db, polled, appended):
    """The live feed: appends keep arriving while widgets poll, from
    the moment every widget has polled once."""
    rng = np.random.default_rng(7)
    now = db.t_max
    step = (db.t_max - db.t_min) / 400
    for event in polled:
        await event.wait()
    for _ in range(8):
        await asyncio.sleep(0.006)
        now += step
        station = int(rng.integers(0, 10))
        reading = float(rng.uniform(380, 420))  # a heat wave
        engine.append(station, now, reading)
        appended.set()


async def main(workers: int = 1) -> None:
    db = generate_temp(num_objects=120, avg_readings=40, seed=23)
    engine = TemporalRankingEngine(db, kmax=50)
    coordinator = ServingCoordinator(
        EngineBackend(engine), max_batch=32, max_delay=0.002, workers=workers
    )
    print(f"database: {db}")
    mode = f"pool of {workers} worker processes" if workers > 1 else "inline"
    print(f"widgets: {[label for label, _ in WIDGETS]}, k = {K} ({mode})\n")

    log: dict = {}
    polled = [asyncio.Event() for _ in WIDGETS]
    appended = asyncio.Event()
    async with coordinator:
        await asyncio.gather(
            feed_task(engine, db, polled, appended),
            *[
                widget_client(
                    coordinator, db, seed, label, fraction, log,
                    polled[seed], appended,
                )
                for seed, (label, fraction) in enumerate(WIDGETS)
            ],
        )

    for label, _ in WIDGETS:
        print(f"{label:>14}: top-{K} = {log[label]}")
    stats = coordinator.stats
    cache = coordinator.cache.stats
    print(
        f"\nserved {stats.requests} widget polls in {stats.batches} "
        f"micro-batches (mean {stats.mean_batch:.1f}/batch)"
    )
    print(
        f"result cache: {cache.hits} hits, {cache.stale} expired by "
        f"appends (epoch bumps), {stats.deduped} deduped in-batch"
    )
    if stats.pool_dispatches:
        print(
            f"pool: {stats.pool_dispatches} dispatches, "
            f"{stats.pool_resyncs} re-snapshots after appends, "
            f"{stats.pool_remounts} worker re-mounts, "
            f"{stats.warmups} index warm-ups"
        )
    assert stats.requests == POLLS_PER_WIDGET * len(WIDGETS)
    # The feed appended mid-run, so epoch bumps must have expired
    # cached frames — observed directly (every widget re-polls its key
    # after the first append, which expired the answer its first poll
    # cached) or, in pooled mode, via the pool re-snapshotting after
    # appends.
    if workers > 1:
        assert cache.stale > 0 or stats.pool_resyncs > 0, (
            "expected append epochs to expire cached frames or "
            "force pool re-snapshots"
        )
    else:
        assert cache.stale > 0, "expected append epochs to expire cached frames"
    print("every answer recomputed-or-cached at the current epoch: OK")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="execution worker processes (N>1 uses the serving pool)",
    )
    asyncio.run(main(parser.parse_args().workers))
