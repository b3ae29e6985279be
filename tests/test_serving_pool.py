"""Process-pool serving suite: pooled execution is a pure *where* change.

The contract under test: dispatching the coordinator's micro-batches
to a :class:`~repro.serving.pool.ServingProcessPool` (worker processes
over mmap-mounted snapshots) changes which core executes a batch but
never what is answered — answers, tie-breaks, and modeled IO charges
are bit-identical to the direct single-thread path, across
engine/instant/cluster backends and worker counts, including mid-run
appends (epoch bump -> pool resync -> worker re-mount) and bounded
shutdown with pool batches in flight.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core.errors import CoordinatorShutdown, ReproError
from repro.core.queries import TopKQuery
from repro.datasets import sample_workload
from repro.engine import TemporalRankingEngine
from repro.parallel.executor import process_context
from repro.serving import (
    ClusterBackend,
    EngineBackend,
    InstantBackend,
    ServingCoordinator,
    ServingProcessPool,
)
from repro.storage.snapshot import open_served, snapshot_any

from _support import make_random_database

KMAX = 20


@pytest.fixture(scope="module")
def db():
    return make_random_database(num_objects=30, avg_segments=15, seed=31)


@pytest.fixture(scope="module")
def engine(db):
    eng = TemporalRankingEngine(db, kmax=KMAX)
    t1, t2 = db.span
    eng.top_k(t1, t2, 3, approximate=True)
    eng.instant_top_k(0.5 * (t1 + t2), 3)
    return eng


def serve_all(coordinator_factory, triples):
    async def main():
        coordinator = coordinator_factory()
        async with coordinator:
            answers = await asyncio.gather(*[
                coordinator.top_k(t1, t2, k) for t1, t2, k in triples
            ])
        return coordinator, list(answers)

    return asyncio.run(main())


def workload_triples(db, count=24, seed=5):
    batch = sample_workload(db, count=count, kmax=10, seed=seed)
    return [
        (float(a), float(b), int(k))
        for a, b, k in zip(batch.t1s, batch.t2s, batch.ks)
    ]


def arrays(triples):
    t1s = np.array([t[0] for t in triples])
    t2s = np.array([t[1] for t in triples])
    ks = np.array([t[2] for t in triples])
    return t1s, t2s, ks


# ----------------------------------------------------------------------
# equivalence: pooled answers == direct serve_many
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pool_matches_direct_engine_exact(db, engine, tmp_path, workers):
    backend = EngineBackend(engine)
    triples = workload_triples(db)
    direct = backend.serve_many(*arrays(triples))
    coordinator, answers = serve_all(
        lambda: ServingCoordinator(
            backend,
            max_batch=6,
            max_delay=0.001,
            cache_size=0,
            workers=workers,
            pool_dir=tmp_path,
        ),
        triples,
    )
    assert all(a == d for a, d in zip(answers, direct))
    if workers > 1:
        assert coordinator.stats.pool_dispatches >= 1
        # Startup warm: every worker mounts exact3 build-replay-ready.
        assert coordinator.stats.warmups >= workers
    else:
        # workers=1 must stay the single-thread path: no pool at all.
        assert coordinator.stats.pool_dispatches == 0
        assert coordinator.stats.warmups == 0


@pytest.mark.parametrize(
    "kind", ["engine-appx", "instant", "cluster-object", "cluster-time"]
)
def test_pool_matches_direct_across_backends(db, engine, tmp_path, kind):
    if kind == "engine-appx":
        backend = EngineBackend(engine, approximate=True)
        triples = workload_triples(db)
    elif kind == "instant":
        backend = InstantBackend(engine)
        rng = np.random.default_rng(7)
        ts = rng.uniform(db.t_min, db.t_max, 16)
        triples = [(float(t), float(t), 5) for t in ts]
    elif kind == "cluster-object":
        backend = ClusterBackend(engine.cluster(3))
        triples = workload_triples(db, count=16)
    else:
        backend = ClusterBackend(
            engine.cluster(3, partition="time"),
            protocol="threshold",
            batch_size=4,
        )
        triples = workload_triples(db, count=16)
    direct = backend.serve_many(*arrays(triples))
    coordinator, answers = serve_all(
        lambda: ServingCoordinator(
            backend,
            max_batch=6,
            max_delay=0.001,
            cache_size=0,
            workers=2,
            pool_dir=tmp_path,
        ),
        triples,
    )
    assert all(a == d for a, d in zip(answers, direct))
    assert coordinator.stats.pool_dispatches >= 1
    assert coordinator.stats.warmups >= 2


def test_pool_warmups_count_appx_indexes(db, engine, tmp_path):
    """An approximate spec warms two structures per mount (exact3 +
    APPX2+), replayed from the catalog's recorded index builds."""
    backend = EngineBackend(engine, approximate=True)
    pool = ServingProcessPool(backend, workers=2, root=tmp_path)
    try:
        assert pool.startup_warmups >= 2
        assert pool.startup_warmups % 2 == 0
    finally:
        pool.close()


def test_pool_start_warms_every_worker_once(db, engine, tmp_path):
    """Each worker takes exactly one startup warm task, so every
    worker mounts before traffic: none is left cold, none warms twice."""
    backend = EngineBackend(engine)
    backend.prepare_for_pool()
    snapshot_any(backend.snapshot_target(), tmp_path / "snap")
    _, per_mount = open_served(tmp_path / "snap", backend.pool_spec())
    assert per_mount >= 1
    pool = ServingProcessPool(backend, workers=4, root=tmp_path / "pool")
    try:
        assert pool.startup_warmups == 4 * per_mount
    finally:
        pool.close()


@pytest.mark.skipif(
    process_context().get_start_method() != "fork",
    reason="workers inherit the patched mount only under fork",
)
def test_pool_start_fails_fast_when_a_mount_fails(
    db, engine, tmp_path, monkeypatch
):
    """A failed worker mount breaks the warm barrier for every worker:
    the pool start raises at once instead of waiting out the timeout."""
    import repro.parallel.workers as workers_module

    def broken_mount(*args):
        raise RuntimeError("injected mount failure")

    monkeypatch.setattr(workers_module, "_serving_backend", broken_mount)
    monkeypatch.setattr(workers_module, "WARM_TIMEOUT_S", 30.0)
    start = time.perf_counter()
    with pytest.raises((RuntimeError, ReproError)):
        ServingProcessPool(EngineBackend(engine), workers=2, root=tmp_path)
    assert time.perf_counter() - start < 20.0


# ----------------------------------------------------------------------
# IO-charge equivalence: mounted serving backend == live engine
# ----------------------------------------------------------------------
def test_open_served_answers_and_io_charges_identical(db, engine, tmp_path):
    """The worker-side mount answers with bit-identical modeled IO.

    Worker processes' IO counters are not observable cross-process, so
    the IO half of the equivalence contract is asserted on the same
    mount path the workers use: ``open_served`` over the pool's
    snapshot, then per-query measured IO vs the live engine.
    """
    backend = EngineBackend(engine)
    backend.prepare_for_pool()
    snap = tmp_path / "snap"
    snapshot_any(backend.snapshot_target(), snap)
    served, warmups = open_served(snap, backend.pool_spec())
    assert warmups >= 1
    triples = workload_triples(db, count=12)
    direct = backend.serve_many(*arrays(triples))
    mounted = served.serve_many(*arrays(triples))
    assert all(a == b for a, b in zip(direct, mounted))
    for t1, t2, k in triples[:6]:
        query = TopKQuery(t1, t2, k)
        live = engine.exact.measured_query(query)
        mount = served.engine.exact.measured_query(query)
        assert live.result == mount.result
        assert live.ios == mount.ios


# ----------------------------------------------------------------------
# epoch protocol: append -> resync -> re-mount
# ----------------------------------------------------------------------
def test_pool_append_resyncs_and_remounts(tmp_path):
    database = make_random_database(num_objects=20, avg_segments=10, seed=3)
    engine = TemporalRankingEngine(database, kmax=KMAX)
    backend = EngineBackend(engine)
    t1, t2 = 10.0, 60.0

    async def main():
        coordinator = ServingCoordinator(
            backend,
            max_batch=4,
            max_delay=0.001,
            workers=2,
            pool_dir=tmp_path,
        )
        async with coordinator:
            before = await coordinator.top_k(t1, t2, 5)
            engine.append(3, database.t_max + 5.0, 500.0)
            after = await coordinator.top_k(t1, t2, 5)
        return before, after, coordinator

    before, after, coordinator = asyncio.run(main())
    # The post-append answer must match the live (post-append) engine.
    assert after == engine.top_k(t1, t2, 5)
    assert coordinator.stats.pool_resyncs == 1
    assert coordinator.stats.pool_remounts >= 1
    # Re-mounts re-warm: warmups grew past the two startup mounts.
    assert coordinator.stats.warmups > 2


def test_pool_resync_is_idempotent(db, engine, tmp_path):
    backend = EngineBackend(engine)
    epoch = engine.epoch
    pool = ServingProcessPool(backend, workers=2, root=tmp_path)
    try:
        assert pool.in_sync()
        assert pool.resync() is False
        assert pool.epoch == epoch
        results, info = pool.submit(
            np.array([10.0]), np.array([60.0]), np.array([5])
        ).result()
        assert results[0] == engine.top_k(10.0, 60.0, 5)
    finally:
        pool.close()


def test_pool_prunes_superseded_snapshots(tmp_path):
    database = make_random_database(num_objects=15, avg_segments=8, seed=9)
    engine = TemporalRankingEngine(database, kmax=KMAX)
    backend = EngineBackend(engine)
    pool = ServingProcessPool(backend, workers=1, root=tmp_path)
    try:
        for step in range(3):
            engine.append(step, database.t_max + 1.0 + step, 50.0)
            assert pool.resync() is True
        dirs = sorted(p.name for p in tmp_path.glob("epoch_*"))
        # Current + immediately previous survive; older epochs pruned.
        assert dirs == ["epoch_2", "epoch_3"]
        assert pool.resyncs == 3
    finally:
        pool.close()


# ----------------------------------------------------------------------
# drain / bounded shutdown with in-flight pool batches
# ----------------------------------------------------------------------
def test_pool_stop_drains_inflight_batches(db, engine, tmp_path):
    """Unbounded stop answers everything even with slow pool batches."""
    backend = EngineBackend(engine)
    pool = ServingProcessPool(
        backend, workers=2, root=tmp_path, worker_delay=0.05
    )
    triples = workload_triples(db, count=10)
    direct = backend.serve_many(*arrays(triples))

    async def main():
        coordinator = ServingCoordinator(
            backend, max_batch=2, max_delay=0.0, cache_size=0, pool=pool
        )
        await coordinator.start()
        futures = [
            asyncio.ensure_future(coordinator.top_k(t1, t2, k))
            for t1, t2, k in triples
        ]
        await asyncio.sleep(0)
        await coordinator.stop()
        return [future.result() for future in futures]

    answers = asyncio.run(main())
    assert all(a == d for a, d in zip(answers, direct))


def test_pool_bounded_close_fails_pending(db, engine, tmp_path):
    """A timed-out close fails unanswered requests instead of hanging,
    with a pool batch genuinely in flight on a worker process."""
    backend = EngineBackend(engine)
    pool = ServingProcessPool(
        backend, workers=1, root=tmp_path, worker_delay=0.5
    )

    async def main():
        coordinator = ServingCoordinator(
            backend, max_batch=1, max_delay=0.0, cache_size=0, pool=pool
        )
        await coordinator.start()
        future = asyncio.ensure_future(coordinator.top_k(10.0, 60.0, 5))
        await asyncio.sleep(0.05)  # let the batch dispatch to the pool
        await coordinator.close(drain_timeout=0.01)
        return future, coordinator

    future, coordinator = asyncio.run(main())
    assert isinstance(future.exception(), CoordinatorShutdown)
    assert coordinator.stats.failed == 1


# ----------------------------------------------------------------------
# metrics (Prometheus-style counters)
# ----------------------------------------------------------------------
def test_metrics_flat_dict(db, engine, tmp_path):
    backend = EngineBackend(engine)
    triples = workload_triples(db, count=8)
    coordinator, _ = serve_all(
        lambda: ServingCoordinator(
            backend,
            max_batch=4,
            max_delay=0.001,
            workers=2,
            pool_dir=tmp_path,
        ),
        triples,
    )
    metrics = coordinator.metrics()
    assert metrics["repro_serving_requests_total"] == len(triples)
    assert metrics["repro_serving_workers_gauge"] == 2
    assert metrics["repro_serving_pool_dispatches_total"] >= 1
    assert metrics["repro_serving_warmups_total"] >= 2
    assert all(key.startswith("repro_serving_") for key in metrics)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    assert (
        metrics["repro_serving_batches_total"] == coordinator.stats.batches
    )


def test_metrics_single_thread_pool_counters_zero(db, engine):
    backend = EngineBackend(engine)
    triples = workload_triples(db, count=6)
    coordinator, _ = serve_all(
        lambda: ServingCoordinator(backend, max_batch=4, max_delay=0.001),
        triples,
    )
    metrics = coordinator.metrics()
    assert metrics["repro_serving_pool_dispatches_total"] == 0
    assert metrics["repro_serving_pool_resyncs_total"] == 0
    assert metrics["repro_serving_pool_remounts_total"] == 0
    assert metrics["repro_serving_warmups_total"] == 0
    assert metrics["repro_serving_workers_gauge"] == 1
    assert metrics["repro_serving_pipeline_depth_gauge"] == 2


# ----------------------------------------------------------------------
# result cache composes with the pool
# ----------------------------------------------------------------------
def test_pool_serving_with_cache_hits(db, engine, tmp_path):
    backend = EngineBackend(engine)
    triples = workload_triples(db, count=6)
    repeated = triples + triples

    async def main():
        coordinator = ServingCoordinator(
            backend,
            max_batch=32,
            max_delay=0.001,
            cache_size=64,
            workers=2,
            pool_dir=tmp_path,
        )
        async with coordinator:
            first = [
                await coordinator.top_k(t1, t2, k) for t1, t2, k in triples
            ]
            second = [
                await coordinator.top_k(t1, t2, k) for t1, t2, k in triples
            ]
        return coordinator, first, second

    coordinator, first, second = asyncio.run(main())
    direct = backend.serve_many(*arrays(repeated))
    assert all(a == d for a, d in zip(first + second, direct))
    assert coordinator.stats.cache_hits >= 1
