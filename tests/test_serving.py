"""Serving-tier suite: micro-batching equivalence, flush mechanics,
epoch-guarded caching, and load-generator determinism.

The contract under test: routing per-request traffic through the
:class:`~repro.serving.coordinator.ServingCoordinator` (micro-batches,
in-flight pipelining, result cache, in-batch dedup) changes *when*
work executes but never *what* is answered — every answer is
bit-identical (ids, scores, tie-breaks) to one direct ``query_many``
call over the same workload, across single-node exact / approximate /
instant engines and both partitioned cluster layouts.
"""

import asyncio

import numpy as np
import pytest

from repro.core.errors import InvalidQueryError, ReproError
from repro.datasets import (
    sample_poisson_arrivals,
    sample_workload,
)
from repro.engine import TemporalRankingEngine
from repro.serving import (
    ClusterBackend,
    DirectClient,
    EngineBackend,
    InstantBackend,
    ResultCache,
    ServingCoordinator,
    plan_poisson_load,
    run_open_loop,
)

from _support import make_random_database

KMAX = 20


@pytest.fixture(scope="module")
def db():
    return make_random_database(num_objects=40, avg_segments=25, seed=31)


@pytest.fixture(scope="module")
def engine(db):
    eng = TemporalRankingEngine(db, kmax=KMAX)
    # Warm the lazy indexes so per-test timings are about serving.
    t1, t2 = db.span
    eng.top_k(t1, t2, 3, approximate=True)
    eng.instant_top_k(0.5 * (t1 + t2), 3)
    return eng


def serve_all(coordinator_factory, batch):
    """Run every query of ``batch`` through a coordinator, in order."""

    async def main():
        coordinator = coordinator_factory()
        async with coordinator:
            answers = await asyncio.gather(*[
                coordinator.top_k(float(a), float(b), int(k))
                for a, b, k in zip(batch.t1s, batch.t2s, batch.ks)
            ])
        return coordinator, list(answers)

    return asyncio.run(main())


# ----------------------------------------------------------------------
# equivalence: coordinator answers == direct query_many
# ----------------------------------------------------------------------
@pytest.mark.parametrize("approximate", [False, True], ids=["exact", "appx"])
def test_serving_matches_direct_engine(db, engine, approximate):
    backend = EngineBackend(engine, approximate=approximate)
    batch = sample_workload(db, count=80, kmax=KMAX, seed=5)
    direct = backend.serve_many(batch.t1s, batch.t2s, batch.ks)
    coordinator, answers = serve_all(
        lambda: ServingCoordinator(backend, max_batch=16, max_delay=0.001),
        batch,
    )
    assert all(a == b for a, b in zip(answers, direct))
    assert coordinator.stats.requests == len(batch)
    assert coordinator.stats.batches >= 1


def test_serving_matches_direct_instant(db, engine):
    backend = InstantBackend(engine)
    rng = np.random.default_rng(11)
    t_min, t_max = db.span
    ts = rng.uniform(t_min, t_max, 60)
    ks = rng.integers(1, KMAX, 60)
    direct = backend.serve_many(ts, ts, ks)

    async def main():
        async with ServingCoordinator(backend, max_batch=16) as coordinator:
            return await asyncio.gather(*[
                coordinator.top_k(float(t), float(t), int(k))
                for t, k in zip(ts, ks)
            ])

    answers = asyncio.run(main())
    assert all(a == b for a, b in zip(answers, direct))


@pytest.mark.parametrize(
    "partition,kwargs",
    [
        ("object", {}),
        ("time", {"protocol": "scatter"}),
        ("time", {"protocol": "threshold"}),
    ],
    ids=["object-partition", "time-partition", "time-threshold"],
)
def test_serving_matches_direct_cluster(db, engine, partition, kwargs):
    cluster = engine.cluster(3, partition=partition)
    backend = ClusterBackend(cluster, **kwargs)
    batch = sample_workload(db, count=40, kmax=KMAX, seed=6)
    direct = backend.serve_many(batch.t1s, batch.t2s, batch.ks)
    _, answers = serve_all(
        lambda: ServingCoordinator(backend, max_batch=8, max_delay=0.001),
        batch,
    )
    assert all(a == b for a, b in zip(answers, direct))


def test_open_loop_answers_match_direct(db, engine):
    """The loadgen path (both clients) returns the direct answers."""
    backend = EngineBackend(engine, approximate=True)
    plan = plan_poisson_load(db, count=50, rate=5000.0, kmax=10, seed=3)
    direct = backend.serve_many(plan.batch.t1s, plan.batch.t2s, plan.batch.ks)

    async def main():
        async with ServingCoordinator(backend, max_batch=32) as coordinator:
            micro = await run_open_loop(coordinator, plan)
        async with DirectClient(backend) as client:
            solo = await run_open_loop(client, plan)
        return micro, solo

    micro, solo = asyncio.run(main())
    assert all(a == b for a, b in zip(micro.answers, direct))
    assert all(a == b for a, b in zip(solo.answers, direct))
    assert micro.latencies.size == len(plan)
    assert micro.throughput > 0 and solo.throughput > 0


# ----------------------------------------------------------------------
# flush mechanics
# ----------------------------------------------------------------------
def test_single_request_flushes_on_deadline(db, engine):
    """A lone request is answered after max_delay, not held forever."""
    backend = EngineBackend(engine)
    t1, t2 = db.span

    async def main():
        coordinator = ServingCoordinator(
            backend, max_batch=64, min_batch=8, max_delay=0.005,
            adaptive=False,
        )
        async with coordinator:
            answer = await asyncio.wait_for(
                coordinator.top_k(t1, t2, 5), timeout=5.0
            )
        return coordinator, answer

    coordinator, answer = asyncio.run(main())
    assert answer == engine.top_k(t1, t2, 5)
    assert coordinator.stats.batches == 1
    assert coordinator.stats.deadline_flushes == 1
    assert coordinator.stats.size_flushes == 0


def test_burst_larger_than_max_batch_splits(db, engine):
    """A burst beyond max_batch splits into capped micro-batches."""
    backend = EngineBackend(engine)
    batch = sample_workload(db, count=50, kmax=KMAX, seed=8)
    direct = backend.serve_many(batch.t1s, batch.t2s, batch.ks)
    coordinator, answers = serve_all(
        lambda: ServingCoordinator(
            backend, max_batch=16, max_delay=0.05, cache_size=0
        ),
        batch,
    )
    assert all(a == b for a, b in zip(answers, direct))
    assert coordinator.stats.max_batch <= 16
    assert coordinator.stats.batches >= 4  # ceil(50 / 16)


def test_oversized_single_batch_executes_once(db, engine):
    """min_batch > queue length: the deadline still flushes everything."""
    backend = EngineBackend(engine)
    batch = sample_workload(db, count=5, kmax=KMAX, seed=9)
    direct = backend.serve_many(batch.t1s, batch.t2s, batch.ks)
    coordinator, answers = serve_all(
        lambda: ServingCoordinator(
            backend, max_batch=64, min_batch=64, max_delay=0.005,
        ),
        batch,
    )
    assert all(a == b for a, b in zip(answers, direct))
    assert coordinator.stats.deadline_flushes >= 1


def test_in_batch_duplicates_execute_once(db, engine):
    """Identical queued triples run once; every waiter gets the answer."""
    backend = EngineBackend(engine)
    t1, t2 = db.span
    expected = engine.top_k(t1, t2, 7)

    async def main():
        coordinator = ServingCoordinator(
            backend, max_batch=64, min_batch=8, max_delay=0.01,
            adaptive=False,
        )
        async with coordinator:
            answers = await asyncio.gather(
                *[coordinator.top_k(t1, t2, 7) for _ in range(8)]
            )
        return coordinator, answers

    coordinator, answers = asyncio.run(main())
    assert all(answer == expected for answer in answers)
    assert coordinator.stats.executed + coordinator.stats.cache_hits < 8
    assert coordinator.stats.deduped + coordinator.stats.cache_hits == 7


def test_adaptive_target_tracks_arrival_rate(db, engine):
    """The EWMA target clamps between min_batch and max_batch."""
    backend = EngineBackend(engine)
    fake_now = [0.0]
    coordinator = ServingCoordinator(
        backend, max_batch=32, min_batch=2, max_delay=0.01,
        clock=lambda: fake_now[0],
    )
    assert coordinator.batch_target() == 2  # no arrivals yet: floor
    for _ in range(50):  # 1 ms apart -> ~10 expected per window
        coordinator._observe_arrival(fake_now[0])
        fake_now[0] += 0.001
    assert coordinator.batch_target() == 10
    for _ in range(200):  # 1 us apart -> rate far beyond the cap
        coordinator._observe_arrival(fake_now[0])
        fake_now[0] += 0.000001
    assert coordinator.batch_target() == 32
    for _ in range(200):  # 1 s apart -> below the floor
        coordinator._observe_arrival(fake_now[0])
        fake_now[0] += 1.0
    assert coordinator.batch_target() == 2


def test_coordinator_rejects_requests_when_stopped(db, engine):
    backend = EngineBackend(engine)
    coordinator = ServingCoordinator(backend)
    t1, t2 = db.span

    async def main():
        with pytest.raises(ReproError):
            await coordinator.top_k(t1, t2, 3)

    asyncio.run(main())


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(lambda t1, t2: (t2, t1, 3), id="reversed"),
        pytest.param(lambda t1, t2: (t1, t2, 0), id="k0"),
        pytest.param(lambda t1, t2: (float("nan"), t2, 3), id="nan"),
        pytest.param(lambda t1, t2: (t1, float("inf"), 3), id="inf"),
        pytest.param(lambda t1, t2: (t1, t2, 2.5), id="k2.5"),
        pytest.param(lambda t1, t2: (t1, t2, float("nan")), id="knan"),
    ],
)
def test_invalid_request_fails_alone(db, engine, bad):
    """A malformed triple is rejected on arrival, to its caller only:
    the valid requests sharing its flush are all answered."""
    backend = EngineBackend(engine)
    batch = sample_workload(db, count=3, kmax=KMAX, seed=17)
    direct = backend.serve_many(batch.t1s, batch.t2s, batch.ks)

    async def main():
        coordinator = ServingCoordinator(
            backend, max_batch=64, min_batch=4, max_delay=0.01,
            adaptive=False,
        )
        async with coordinator:
            outcomes = await asyncio.gather(
                *[
                    coordinator.top_k(float(a), float(b), int(k))
                    for a, b, k in zip(batch.t1s, batch.t2s, batch.ks)
                ],
                coordinator.top_k(*bad(*db.span)),
                return_exceptions=True,
            )
        return coordinator, outcomes

    coordinator, outcomes = asyncio.run(main())
    assert outcomes[:3] == direct
    assert isinstance(outcomes[3], InvalidQueryError)
    assert coordinator.stats.requests == 3
    assert coordinator.stats.failed == 0


# ----------------------------------------------------------------------
# result cache and epoch invalidation
# ----------------------------------------------------------------------
def test_repeat_queries_hit_cache(db, engine):
    backend = EngineBackend(engine)
    t1, t2 = db.span
    expected = engine.top_k(t1, t2, 4)

    async def main():
        coordinator = ServingCoordinator(backend, max_delay=0.001)
        async with coordinator:
            first = await coordinator.top_k(t1, t2, 4)
            second = await coordinator.top_k(t1, t2, 4)
        return coordinator, first, second

    coordinator, first, second = asyncio.run(main())
    assert first == expected and second == expected
    assert coordinator.stats.cache_hits >= 1
    assert coordinator.cache.stats.hits >= 1


def test_append_epoch_invalidates_cached_answers():
    """An append between requests makes every cached answer a miss,
    and the re-executed answer reflects the new data."""
    database = make_random_database(num_objects=25, avg_segments=12, seed=2)
    engine = TemporalRankingEngine(database, kmax=KMAX)
    backend = EngineBackend(engine)
    t1, t2 = database.span
    # Query past the current end so the appended segment (a huge new
    # area on object 3) falls inside the interval and flips the top-k.
    t2q = t2 + 10.0

    async def main():
        coordinator = ServingCoordinator(backend, max_delay=0.001)
        async with coordinator:
            before = await coordinator.top_k(t1, t2q, 5)
            epoch_before = backend.epoch
            engine.append(3, t2 + 5.0, 500.0)
            assert backend.epoch == epoch_before + 1
            after = await coordinator.top_k(t1, t2q, 5)
            again = await coordinator.top_k(t1, t2q, 5)
        return coordinator, before, after, again

    coordinator, before, after, again = asyncio.run(main())
    assert before != after  # the append changed the answer...
    assert after == engine.top_k(t1, t2q, 5)  # ...to the fresh one
    assert again == after  # re-cached at the new epoch
    assert coordinator.cache.stats.stale >= 1


def test_result_cache_epoch_and_lru_mechanics():
    cache = ResultCache(capacity=2)
    assert cache.get(("a",), epoch=0) is None
    cache.put(("a",), 0, "A")
    assert cache.get(("a",), 0) == "A"
    assert cache.get(("a",), 1) is None  # epoch moved: stale drop
    assert cache.stats.stale == 1
    cache.put(("a",), 1, "A1")
    cache.put(("b",), 1, "B")
    cache.put(("c",), 1, "C")  # evicts the LRU entry ("a")
    assert cache.stats.evictions == 1
    assert cache.get(("a",), 1) is None
    assert cache.get(("b",), 1) == "B"
    assert len(cache) == 2
    disabled = ResultCache(capacity=0)
    disabled.put(("a",), 0, "A")
    assert disabled.get(("a",), 0) is None
    assert len(disabled) == 0


def test_result_cache_admission_by_cost():
    """Answers cheaper than min_cost are rejected, not cached."""
    cache = ResultCache(capacity=4, min_cost=0.5)
    cache.put(("cheap",), 0, "X", cost=0.1)
    assert cache.get(("cheap",), 0) is None
    assert cache.stats.rejected == 1
    assert len(cache) == 0
    cache.put(("dear",), 0, "Y", cost=1.0)
    assert cache.get(("dear",), 0) == "Y"
    assert cache.stats.rejected == 1
    # The default min_cost of 0.0 admits everything (cost default 1.0).
    default = ResultCache(capacity=4)
    default.put(("a",), 0, "A", cost=0.0)
    assert default.get(("a",), 0) == "A"
    assert default.stats.rejected == 0


def test_coordinator_admission_skips_instant_backend(db, engine):
    """With a positive cache_min_cost, InstantBackend answers
    (cost_hint 0.0 — a stab is trivially recomputable) are never
    cached, while EngineBackend answers (cost_hint 1.0) still are."""
    t1, t2 = db.span
    t_mid = 0.5 * (t1 + t2)

    async def run(backend, *query):
        coordinator = ServingCoordinator(
            backend, max_delay=0.001, cache_min_cost=0.5
        )
        async with coordinator:
            first = await coordinator.top_k(*query)
            second = await coordinator.top_k(*query)
        return coordinator, first, second

    instant = InstantBackend(engine)
    coordinator, first, second = asyncio.run(
        run(instant, t_mid, t_mid, 4)
    )
    assert first == second
    assert coordinator.cache.stats.rejected >= 1
    assert coordinator.cache.stats.hits == 0
    assert len(coordinator.cache) == 0

    ranked = EngineBackend(engine)
    coordinator, first, second = asyncio.run(run(ranked, t1, t2, 4))
    assert first == second == engine.top_k(t1, t2, 4)
    assert coordinator.cache.stats.rejected == 0
    assert coordinator.cache.stats.hits >= 1


# ----------------------------------------------------------------------
# load generator determinism
# ----------------------------------------------------------------------
def test_poisson_arrivals_deterministic():
    a = sample_poisson_arrivals(200, rate=1000.0, seed=4)
    b = sample_poisson_arrivals(200, rate=1000.0, seed=4)
    c = sample_poisson_arrivals(200, rate=1000.0, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0)
    # Mean inter-arrival gap tracks 1/rate.
    assert abs(np.diff(a).mean() - 0.001) < 0.0005
    with pytest.raises(ValueError):
        sample_poisson_arrivals(10, rate=0.0)


def test_sample_workload_deterministic(db):
    a = sample_workload(db, count=64, kmax=KMAX, seed=12)
    b = sample_workload(db, count=64, kmax=KMAX, seed=12)
    assert np.array_equal(a.t1s, b.t1s)
    assert np.array_equal(a.t2s, b.t2s)
    assert np.array_equal(a.ks, b.ks)


def test_plan_poisson_load_deterministic(db):
    a = plan_poisson_load(db, count=30, rate=500.0, seed=9)
    b = plan_poisson_load(db, count=30, rate=500.0, seed=9)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.batch.t1s, b.batch.t1s)
    assert len(a) == 30 and a.rate == 500.0


# ----------------------------------------------------------------------
# request deadlines and bounded shutdown
# ----------------------------------------------------------------------
class SlowBackend:
    """A backend whose every batch blocks until released (or a delay)."""

    def __init__(self, inner, delay=0.2):
        self.inner = inner
        self.delay = delay

    @property
    def epoch(self):
        return self.inner.epoch

    def serve_many(self, t1s, t2s, ks):
        import time

        time.sleep(self.delay)
        return self.inner.serve_many(t1s, t2s, ks)


def test_request_deadline_raises_structured(db, engine):
    from repro.core.errors import DeadlineExceeded

    backend = SlowBackend(EngineBackend(engine), delay=0.2)
    t1, t2 = db.span

    async def main():
        coordinator = ServingCoordinator(
            backend, max_delay=0.0, request_deadline=0.01
        )
        async with coordinator:
            with pytest.raises(DeadlineExceeded) as excinfo:
                await coordinator.top_k(t1, t2, 3)
        return coordinator, excinfo.value

    coordinator, error = asyncio.run(main())
    assert error.deadline == 0.01
    assert coordinator.stats.failed == 1


def test_request_deadline_is_validated(db, engine):
    with pytest.raises(ReproError):
        ServingCoordinator(EngineBackend(engine), request_deadline=0.0)


def test_deadline_generous_enough_answers_normally(db, engine):
    backend = EngineBackend(engine)
    t1, t2 = db.span

    async def main():
        coordinator = ServingCoordinator(backend, request_deadline=30.0)
        async with coordinator:
            return await coordinator.top_k(t1, t2, 4)

    assert asyncio.run(main()) == engine.top_k(t1, t2, 4)


def test_bounded_close_fails_pending_with_shutdown(db, engine):
    from repro.core.errors import CoordinatorShutdown

    backend = SlowBackend(EngineBackend(engine), delay=0.5)
    t1, t2 = db.span

    async def main():
        coordinator = ServingCoordinator(backend, max_delay=0.0)
        await coordinator.start()
        pending = asyncio.ensure_future(coordinator.top_k(t1, t2, 3))
        await asyncio.sleep(0.05)  # let the batch reach the executor
        await coordinator.close(drain_timeout=0.01)
        with pytest.raises(CoordinatorShutdown):
            await pending
        return coordinator

    coordinator = asyncio.run(main())
    assert coordinator.stats.failed >= 1


def test_unbounded_close_drains_everything(db, engine):
    backend = SlowBackend(EngineBackend(engine), delay=0.05)
    t1, t2 = db.span

    async def main():
        coordinator = ServingCoordinator(backend, max_delay=0.0)
        await coordinator.start()
        pending = asyncio.ensure_future(coordinator.top_k(t1, t2, 5))
        await asyncio.sleep(0.02)
        await coordinator.close(drain_timeout=None)
        return coordinator, await pending

    coordinator, answer = asyncio.run(main())
    assert answer == engine.top_k(t1, t2, 5)
    assert coordinator.stats.failed == 0
