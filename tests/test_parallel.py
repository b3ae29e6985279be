"""Executor subsystem tests: chunking, the thread map, the worker pool.

The byte-identity of split builds and batches lives in
``test_build_equivalence.py`` and ``test_query_many.py``; this module
covers the split machinery itself plus the device's
coordinator-ownership guard.
"""

import multiprocessing
import pickle
import threading

import numpy as np
import pytest

from repro.parallel import (
    WorkerPool,
    chunk_ranges,
    split_threads,
    thread_map,
    weighted_chunk_ranges,
    worker_state,
)
from repro.parallel import executor as executor_module
from repro.storage.cache import LRUCache
from repro.storage.device import BlockDevice, BlockDeviceError

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Worker counts every map-behavior test runs under.
MAP_WORKERS = [
    pytest.param(1, id="serial"),
    pytest.param(2, id="thread2"),
]


def _boom_task(task):
    raise RuntimeError(f"worker failure on task {task!r}")


def _mutate_device_task(task):
    device = worker_state()
    try:
        device.allocate(np.zeros(1))
    except BlockDeviceError:
        return "guarded"
    return "allocated"


class TestChunkRanges:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 1000])
    @pytest.mark.parametrize("parts", [1, 2, 3, 8, 64])
    def test_cover_contiguously_in_order(self, n, parts):
        ranges = chunk_ranges(n, parts)
        flat = [i for lo, hi in ranges for i in range(lo, hi)]
        assert flat == list(range(n))
        assert len(ranges) <= max(1, parts) or n == 0

    def test_sizes_differ_by_at_most_one(self):
        sizes = [hi - lo for lo, hi in chunk_ranges(103, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_min_size_limits_chunk_count(self):
        ranges = chunk_ranges(10, 8, min_size=4)
        assert len(ranges) == 2
        assert all(hi - lo >= 4 for lo, hi in ranges)

    def test_weighted_cover_and_balance(self):
        weights = np.arange(100, 0, -1, dtype=np.float64)
        ranges = weighted_chunk_ranges(weights, 4)
        flat = [i for lo, hi in ranges for i in range(lo, hi)]
        assert flat == list(range(100))
        loads = [float(weights[lo:hi].sum()) for lo, hi in ranges]
        target = float(weights.sum()) / 4
        assert max(loads) <= 2 * target

    def test_weighted_degenerate_weights_fall_back(self):
        assert weighted_chunk_ranges(np.zeros(6), 3) == chunk_ranges(6, 3)
        assert weighted_chunk_ranges([], 3) == []


class TestExecutorMap:
    @pytest.mark.parametrize("workers", MAP_WORKERS)
    def test_map_preserves_order_and_state(self, workers):
        state = np.arange(5, dtype=np.float64)
        tasks = list(range(20))
        results = thread_map(
            lambda task: (task, float(np.sum(state))), tasks, workers
        )
        assert [task for task, _ in results] == tasks
        assert all(total == 10.0 for _, total in results)

    @pytest.mark.parametrize("workers", MAP_WORKERS)
    def test_worker_exception_propagates(self, workers):
        with pytest.raises(RuntimeError, match="worker failure"):
            thread_map(_boom_task, [1, 2, 3], workers)

    def test_one_worker_runs_inline(self):
        caller = threading.get_ident()
        assert thread_map(lambda _: threading.get_ident(), [0, 1], 1) == [
            caller, caller,
        ]

    def test_caller_runs_the_first_task(self):
        caller = threading.get_ident()
        first, second = thread_map(
            lambda _: threading.get_ident(), [0, 1], 2
        )
        assert first == caller and second != caller


class TestSplitThreads:
    def test_two_only_at_the_threshold_with_two_cpus(self):
        assert split_threads(99, 100, cpus=2) == 1
        assert split_threads(100, 100, cpus=2) == 2
        assert split_threads(10**9, 100, cpus=8) == 2
        assert split_threads(10**9, 100, cpus=1) == 1

    def test_default_cpus_follow_the_host(self, monkeypatch):
        monkeypatch.setattr(
            executor_module.os, "sched_getaffinity", lambda pid: {0, 1},
            raising=False,
        )
        assert split_threads(100, 100) == 2
        # Without an affinity call, the host's count decides.
        monkeypatch.delattr(executor_module.os, "sched_getaffinity")
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        assert split_threads(100, 100) == 2
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: None)
        assert split_threads(100, 100) == 1

    def test_a_process_pinned_to_one_cpu_never_splits(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            executor_module.os, "sched_getaffinity", lambda pid: {3},
            raising=False,
        )
        assert executor_module.usable_cpus() == 1
        assert split_threads(10**9, 0) == 1

    def test_a_pool_worker_never_splits(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(executor_module, "_WORKER_STATE", ("pool",))
        assert split_threads(10**9, 0) == 1


class TestDeviceCoordinatorGuard:
    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork")
    def test_forked_worker_cannot_mutate_device(self):
        device = BlockDevice()
        device.allocate(np.zeros(2))
        before = (device.num_blocks, device.stats.writes)
        pool = WorkerPool(1, state=device)
        try:
            assert pool.submit(_mutate_device_task, 0).result() == "guarded"
        finally:
            pool.shutdown()
        assert (device.num_blocks, device.stats.writes) == before

    def test_thread_workers_share_the_coordinator(self):
        # Same process: threads are part of the coordinator and may
        # commit (the builders still funnel writes through one loop).
        device = BlockDevice()

        def allocate(task):
            if task:  # one allocating task; the other keeps the pool busy
                return None
            try:
                device.allocate(np.zeros(1))
            except BlockDeviceError:
                return "guarded"
            return "allocated"

        assert thread_map(allocate, [0, 1], 2) == ["allocated", None]

    def test_unpickled_device_is_owned_by_its_process(self):
        device = BlockDevice()
        device.allocate(np.ones(3))
        clone = pickle.loads(pickle.dumps(device))
        assert clone.allocate(np.ones(3)) == 1  # not guarded


class TestReadMany:
    @pytest.mark.parametrize("cache_blocks", [0, 2])
    def test_matches_read_loop_counts_and_payloads(self, cache_blocks):
        def fresh(cache_blocks):
            cache = LRUCache(cache_blocks) if cache_blocks else None
            device = BlockDevice(cache=cache)
            ids = [device.allocate(np.full(4, i)) for i in range(6)]
            device.drop_cache()
            return device, ids

        dev_loop, ids_loop = fresh(cache_blocks)
        dev_bulk, ids_bulk = fresh(cache_blocks)
        for _ in range(2):  # second pass exercises cache hits
            want = [dev_loop.read(b) for b in ids_loop]
            got = dev_bulk.read_many(ids_bulk)
            assert all(
                a.tobytes() == b.tobytes() for a, b in zip(want, got)
            )
        assert dev_loop.stats.reads == dev_bulk.stats.reads
        assert dev_loop.stats.cache_hits == dev_bulk.stats.cache_hits
