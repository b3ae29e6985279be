"""Equivalence suite for the batched index-build pipeline (PRs 2-3).

Every batched builder must produce *byte-identical* artifacts to the
historical scalar path it replaced:

* QUERY1 stored lists for every ``(j1, j2)`` pair (contents, block
  ids, device layout, IO charges),
* QUERY2 node lists (inline and packed) with identical tree wiring,
* BREAKPOINTS2 breakpoint sets, including ``max_r`` truncation and
  the absolute-value (Section 4) variant,
* APPX2+ rescored answers with unchanged IO counts,
* the dyadic candidate pools (scores and dict order).

The QUERY1 build and the EXACT3 batch also split over two threads
once their work pays for it: the split artifacts and answers must
equal the inline run's byte for byte (including a tie-heavy dataset
and two splits running at once), and a worker failure must propagate
without corrupting the device.
"""

import sys
import threading

import numpy as np
import pytest

from repro.approximate import build_breakpoints1, build_breakpoints2
from repro.approximate import query1 as query1_module
from repro.approximate.dyadic import DyadicIndex
from repro.approximate.methods import APPROXIMATE_METHODS, Appx2Plus
from repro.approximate.query1 import NestedPairIndex
from repro.approximate.toplists import (
    StoredTopList,
    TopListBatcher,
    top_kmax_of_column,
    top_kmax_of_columns,
)
from repro.core import PiecewiseLinearFunction, TemporalObject
from repro.core.database import TemporalDatabase
from repro.core.queries import TopKQuery
from repro.datasets import sample_workload
from repro.exact import Exact3
from repro.parallel import executor as executor_module
from repro.storage import BlockDevice

from _support import force_threads, make_random_database, random_intervals

#: Thread counts the splits must be exact under (inline, two threads).
EXECUTOR_MATRIX = [
    pytest.param(1, id="serial"),
    pytest.param(2, id="thread2"),
]


@pytest.fixture(scope="module")
def setup():
    db = make_random_database(num_objects=40, avg_segments=25, seed=17)
    bp = build_breakpoints1(db, r=21)
    return db, bp


def _device_state(device):
    return (
        device.num_blocks,
        device.stats.writes,
        device.stats.allocations,
    )


class TestTopKmaxOfColumns:
    def test_matches_scalar_per_column(self):
        rng = np.random.default_rng(3)
        ids = rng.permutation(200).astype(np.int64)
        matrix = rng.normal(size=(200, 37))
        for kmax in (1, 5, 50, 200, 500):
            batch_ids, batch_scores = top_kmax_of_columns(ids, matrix, kmax)
            for c in range(matrix.shape[1]):
                ref_ids, ref_scores = top_kmax_of_column(
                    ids, matrix[:, c], kmax
                )
                assert batch_ids[:, c].tobytes() == ref_ids.tobytes()
                assert batch_scores[:, c].tobytes() == ref_scores.tobytes()

    def test_matches_scalar_with_boundary_ties(self):
        """Zero-score ties at the k-th boundary (padded-object case)."""
        rng = np.random.default_rng(4)
        ids = np.arange(60, dtype=np.int64)
        matrix = np.zeros((60, 12))
        matrix[:5] = rng.uniform(1, 2, size=(5, 12))  # few positives
        for kmax in (3, 10, 30):
            batch_ids, batch_scores = top_kmax_of_columns(ids, matrix, kmax)
            for c in range(matrix.shape[1]):
                ref_ids, ref_scores = top_kmax_of_column(
                    ids, matrix[:, c], kmax
                )
                assert batch_ids[:, c].tobytes() == ref_ids.tobytes()
                assert batch_scores[:, c].tobytes() == ref_scores.tobytes()


class TestStoreMany:
    @pytest.mark.parametrize("block_bytes", [4096, 256])
    def test_matches_per_list_store(self, block_bytes):
        rng = np.random.default_rng(5)
        c, k = 9, 40
        ids = rng.integers(0, 1000, size=(c, k)).astype(np.int64)
        scores = rng.normal(size=(c, k))
        dev_a = BlockDevice(block_bytes=block_bytes)
        dev_b = BlockDevice(block_bytes=block_bytes)
        singles = [
            StoredTopList.store(dev_a, ids[j], scores[j]) for j in range(c)
        ]
        bulk = StoredTopList.store_many(dev_b, ids, scores)
        assert _device_state(dev_a) == _device_state(dev_b)
        for one, many in zip(singles, bulk):
            assert one.block_ids == many.block_ids
            assert one.count == many.count
            ids_a, scores_a = one.read_top(dev_a, k)
            ids_b, scores_b = many.read_top(dev_b, k)
            assert ids_a.tobytes() == ids_b.tobytes()
            assert scores_a.tobytes() == scores_b.tobytes()

    def test_store_many_snapshots_caller_arrays(self):
        """Mutating the input arrays after store_many must not change
        what read_top returns (block payloads are device-owned)."""
        rng = np.random.default_rng(8)
        ids = rng.integers(0, 99, size=(4, 10)).astype(np.int64)
        scores = rng.normal(size=(4, 10))
        device = BlockDevice()
        stored = StoredTopList.store_many(device, ids, scores)
        want = [list_.read_top(device, 10) for list_ in stored]
        ids[:] = -1
        scores[:] = np.nan
        for list_, (want_ids, want_scores) in zip(stored, want):
            got_ids, got_scores = list_.read_top(device, 10)
            assert got_ids.tobytes() == want_ids.tobytes()
            assert got_scores.tobytes() == want_scores.tobytes()

    def test_allocate_many_matches_allocate_loop(self):
        dev_a, dev_b = BlockDevice(), BlockDevice()
        payloads = [np.arange(i + 1) for i in range(7)]
        ids_a = [dev_a.allocate(p) for p in payloads]
        ids_b = dev_b.allocate_many(payloads)
        assert ids_a == ids_b
        assert _device_state(dev_a) == _device_state(dev_b)


class TestQuery1BuildEquivalence:
    @pytest.mark.parametrize("block_bytes", [4096, 512])
    def test_byte_identical_lists_and_layout(self, setup, block_bytes):
        db, bp = setup
        dev_s = BlockDevice(block_bytes=block_bytes)
        dev_b = BlockDevice(block_bytes=block_bytes)
        scalar = NestedPairIndex(dev_s, bp, kmax=15).build(db, batched=False)
        batched = NestedPairIndex(dev_b, bp, kmax=15).build(db, batched=True)
        assert _device_state(dev_s) == _device_state(dev_b)
        assert set(scalar._lists) == set(batched._lists)
        for key, stored_s in scalar._lists.items():
            stored_b = batched._lists[key]
            assert stored_s.block_ids == stored_b.block_ids
            ids_s, scores_s = stored_s.read_top(dev_s, 15)
            ids_b, scores_b = stored_b.read_top(dev_b, 15)
            assert ids_s.tobytes() == ids_b.tobytes(), key
            assert scores_s.tobytes() == scores_b.tobytes(), key

    def test_identical_query_results(self, setup):
        db, bp = setup
        scalar = NestedPairIndex(BlockDevice(), bp, kmax=15).build(
            db, batched=False
        )
        batched = NestedPairIndex(BlockDevice(), bp, kmax=15).build(
            db, batched=True
        )
        for t1, t2 in random_intervals(db, 25, seed=6):
            res_s = scalar.query(t1, t2, 10)
            res_b = batched.query(t1, t2, 10)
            assert res_s.object_ids == res_b.object_ids
            assert res_s.scores == res_b.scores  # exact float equality


class TestQuery2BuildEquivalence:
    @staticmethod
    def _walk(index):
        """Preorder nodes of the segment tree."""
        nodes = []
        stack = [index.root_id]
        while stack:
            node = index.device.read(stack.pop())
            nodes.append(node)
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)
        return nodes

    @pytest.mark.parametrize("block_bytes", [4096, 256])
    def test_byte_identical_node_lists(self, setup, block_bytes):
        # block_bytes=256 forces the non-inline StoredTopList path
        # (capacity 16, inline budget 14 < kmax).
        db, bp = setup
        dev_s = BlockDevice(block_bytes=block_bytes)
        dev_b = BlockDevice(block_bytes=block_bytes)
        scalar = DyadicIndex(dev_s, bp, kmax=15).build(db, batched=False)
        batched = DyadicIndex(dev_b, bp, kmax=15).build(db, batched=True)
        assert scalar.root_id == batched.root_id
        assert scalar.num_nodes == batched.num_nodes
        assert _device_state(dev_s) == _device_state(dev_b)
        for node_s, node_b in zip(self._walk(scalar), self._walk(batched)):
            assert (node_s.lo, node_s.hi) == (node_b.lo, node_b.hi)
            assert (node_s.left, node_s.right) == (node_b.left, node_b.right)
            if node_s.inline_rows is not None:
                assert node_b.inline_rows is not None
                ids_s, scores_s = node_s.inline_rows
                ids_b, scores_b = node_b.inline_rows
            else:
                assert node_b.top_list is not None
                assert node_s.top_list.block_ids == node_b.top_list.block_ids
                ids_s, scores_s = node_s.top_list.read_top(dev_s, 15)
                ids_b, scores_b = node_b.top_list.read_top(dev_b, 15)
            assert ids_s.tobytes() == ids_b.tobytes()
            assert scores_s.tobytes() == scores_b.tobytes()

    def test_candidates_match_historical_loop(self, setup):
        db, bp = setup
        index = DyadicIndex(BlockDevice(), bp, kmax=15).build(db)

        def reference(t1, t2, k):
            snapped = index.snap_indices(t1, t2)
            if snapped is None:
                return {}
            scores = {}
            for node in index.decompose(*snapped):
                if node.inline_rows is not None:
                    ids, vals = node.inline_rows
                    ids, vals = ids[:k], vals[:k]
                else:
                    ids, vals = node.top_list.read_top(index.device, k)
                for object_id, value in zip(ids, vals):
                    scores[int(object_id)] = scores.get(
                        int(object_id), 0.0
                    ) + float(value)
            return scores

        for t1, t2 in random_intervals(db, 30, seed=8):
            ref = reference(t1, t2, 10)
            got = index.candidates(t1, t2, 10)
            # Same keys in the same insertion order, same exact floats.
            assert list(ref.items()) == list(got.items())


class TestBreakpoints2Equivalence:
    @pytest.mark.parametrize("epsilon", [0.05, 0.01, 0.002, 0.0005])
    def test_byte_identical_breakpoint_sets(self, epsilon):
        for seed in (0, 7, 23):
            db = make_random_database(
                num_objects=35, avg_segments=20, seed=seed
            )
            scalar = build_breakpoints2(db, epsilon, batched=False)
            batched = build_breakpoints2(db, epsilon, batched=True)
            assert scalar.times.tobytes() == batched.times.tobytes()
            assert scalar.r == batched.r

    def test_max_r_truncation_identical(self):
        db = make_random_database(num_objects=30, avg_segments=20, seed=11)
        for cap in (5, 12, 40):
            scalar = build_breakpoints2(
                db, 1e-5, max_r=cap, batched=False
            )
            batched = build_breakpoints2(db, 1e-5, max_r=cap, batched=True)
            assert scalar.truncated == batched.truncated
            assert scalar.times.tobytes() == batched.times.tobytes()

    def test_absolute_variant_identical(self):
        db = make_random_database(
            num_objects=25, avg_segments=18, seed=13, negative=True
        )
        scalar = build_breakpoints2(
            db, 0.005, use_absolute=True, batched=False
        )
        batched = build_breakpoints2(
            db, 0.005, use_absolute=True, batched=True
        )
        assert scalar.times.tobytes() == batched.times.tobytes()


class TestAppx2PlusRescoring:
    def test_batched_scores_and_ios_match_scalar_walks(self):
        db = make_random_database(num_objects=37, avg_segments=22, seed=5)
        method = Appx2Plus(epsilon=0.004, kmax=12)
        method.build(db)
        checked = 0
        for t1, t2 in random_intervals(db, 25, seed=9):
            pool = method.index.candidates(t1, t2, 8)
            if not pool:
                continue
            ids = np.fromiter(pool.keys(), dtype=np.int64, count=len(pool))
            before = method.io_stats.reads
            scalar = np.asarray(
                [method.rescorer.score(int(i), t1, t2) for i in ids]
            )
            scalar_reads = method.io_stats.reads - before
            before = method.io_stats.reads
            batched = method.rescorer.score_many(ids, t1, t2)
            batched_reads = method.io_stats.reads - before
            assert scalar.tobytes() == batched.tobytes()
            assert scalar_reads == batched_reads
            checked += 1
        assert checked > 10

    def test_all_methods_answers_unchanged(self):
        """Each APPX method built batched answers exactly like a scalar
        rebuild of the same structures on the same breakpoints."""
        db = make_random_database(num_objects=30, avg_segments=20, seed=31)
        bp2 = build_breakpoints2(db, 0.004, batched=False)
        bp1 = build_breakpoints1(db, r=bp2.r)
        for name, cls in APPROXIMATE_METHODS.items():
            prebuilt = bp1 if name.endswith("-B") else bp2
            method = cls(kmax=12, breakpoints=prebuilt)
            method.build(db)
            if name.startswith("APPX1"):
                reference = NestedPairIndex(
                    BlockDevice(), prebuilt, kmax=12
                ).build(db, batched=False)
            else:
                reference = DyadicIndex(
                    BlockDevice(), prebuilt, kmax=12
                ).build(db, batched=False)
            for t1, t2 in random_intervals(db, 15, seed=12):
                got = method.query(TopKQuery(t1, t2, 8))
                if name == "APPX2+":
                    pool = reference.candidates(t1, t2, 8)
                    if not pool:
                        want_ids, want_scores = [], []
                    else:
                        ids = np.fromiter(
                            pool.keys(), dtype=np.int64, count=len(pool)
                        )
                        exact = np.asarray(
                            [
                                method.rescorer.score(int(i), t1, t2)
                                for i in ids
                            ]
                        )
                        from repro.core.results import top_k_from_arrays

                        want = top_k_from_arrays(ids, exact, 8)
                        want_ids, want_scores = want.object_ids, want.scores
                else:
                    want = reference.query(t1, t2, 8)
                    want_ids, want_scores = want.object_ids, want.scores
                assert got.object_ids == want_ids, name
                assert got.scores == want_scores, name


def _tie_heavy_database() -> TemporalDatabase:
    """A database where most objects tie exactly on every interval.

    25 identical constant-valued objects produce equal scores for
    every breakpoint pair (the canonical ``(-score, id)`` boundary
    ties the batcher must repair); a few varying objects keep the
    breakpoint constructions non-degenerate.
    """
    objects = [
        TemporalObject(
            i,
            PiecewiseLinearFunction(
                np.array([0.0, 100.0]), np.array([1.0, 1.0])
            ),
        )
        for i in range(25)
    ]
    rng = np.random.default_rng(99)
    for i in range(25, 30):
        times = np.unique(rng.uniform(0, 100, 12))
        objects.append(
            TemporalObject(
                i,
                PiecewiseLinearFunction(
                    times, rng.uniform(0, 5, times.size)
                ),
            )
        )
    return TemporalDatabase(objects, span=(0.0, 100.0), pad=True)


def _assert_same_query1(dev_a, idx_a, dev_b, idx_b, kmax):
    assert _device_state(dev_a) == _device_state(dev_b)
    assert set(idx_a._lists) == set(idx_b._lists)
    for key, stored_a in idx_a._lists.items():
        stored_b = idx_b._lists[key]
        assert stored_a.block_ids == stored_b.block_ids, key
        ids_a, scores_a = stored_a.read_top(dev_a, kmax)
        ids_b, scores_b = stored_b.read_top(dev_b, kmax)
        assert ids_a.tobytes() == ids_b.tobytes(), key
        assert scores_a.tobytes() == scores_b.tobytes(), key


@pytest.mark.parametrize("workers", EXECUTOR_MATRIX)
class TestExecutorBackendEquivalence:
    """Split determinism: the two-thread build reproduces the inline one."""

    def test_query1_byte_identical(self, setup, workers, monkeypatch):
        db, bp = setup
        dev_ref = BlockDevice()
        ref = NestedPairIndex(dev_ref, bp, kmax=15).build(db)
        ran = force_threads(monkeypatch, query1_module, workers)
        dev = BlockDevice()
        idx = NestedPairIndex(dev, bp, kmax=15).build(db)
        _assert_same_query1(dev_ref, ref, dev, idx, 15)
        assert ran == ([2] if workers == 2 else [])

    def test_tie_heavy_dataset_byte_identical(self, workers, monkeypatch):
        db = _tie_heavy_database()
        bp = build_breakpoints1(db, r=11)
        dev_ref = BlockDevice()
        ref = NestedPairIndex(dev_ref, bp, kmax=10).build(db)
        force_threads(monkeypatch, query1_module, workers)
        dev = BlockDevice()
        idx = NestedPairIndex(dev, bp, kmax=10).build(db)
        _assert_same_query1(dev_ref, ref, dev, idx, 10)


@pytest.mark.parametrize(
    "r, m, threads",
    [(51, 1000, 1), (201, 1000, 1), (230, 1500, 2), (100, 10**4, 2),
     (229, 10**4, 2)],
)
def test_query1_split_decision_at_measured_shapes(r, m, threads):
    from repro.parallel import split_threads

    assert query1_module.SPLIT_WORK == 1 << 25
    work = r * (r - 1) // 2 * m
    assert split_threads(work, query1_module.SPLIT_WORK, cpus=2) == threads


def _run_concurrently(jobs, timeout=120.0):
    """Run zero-argument callables on one thread each; results in order.

    A short switch interval makes the threads interleave finely, so
    state shared between them would be read by the wrong one.
    """
    results = [None] * len(jobs)
    errors = []

    def run(slot, job):
        try:
            results[slot] = job()
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(slot, job))
        for slot, job in enumerate(jobs)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


class TestConcurrentFanOut:
    """Two splits running at once share no state.

    Each thread splits its own index build (or query batch) over two
    worker threads, on a different database; every result must equal
    the same work run inline on its own.
    """

    @pytest.fixture(scope="class")
    def databases(self):
        return [
            make_random_database(num_objects=300, avg_segments=12, seed=61),
            make_random_database(num_objects=500, avg_segments=12, seed=62),
        ]

    def test_concurrent_query1_builds_match_inline(
        self, databases, monkeypatch
    ):
        bps = [build_breakpoints1(db, r=40) for db in databases]

        def build(db, bp):
            device = BlockDevice()
            index = NestedPairIndex(device, bp, kmax=10)
            return device, index.build(db)

        references = [build(db, bp) for db, bp in zip(databases, bps)]
        ran = force_threads(monkeypatch, query1_module, 2)
        for _ in range(3):
            split = _run_concurrently([
                lambda db=db, bp=bp: build(db, bp)
                for db, bp in zip(databases, bps)
            ])
            for (dev_ref, ref), (dev, idx) in zip(references, split):
                _assert_same_query1(dev_ref, ref, dev, idx, 10)
        assert ran == [2] * 6

    def test_concurrent_exact3_batches_match_inline(
        self, databases, monkeypatch
    ):
        methods = [Exact3().build(db) for db in databases]
        batches = [
            sample_workload(db, count=64, kmax=10, seed=7) for db in databases
        ]
        expected = [
            method.query_many(batch) for method, batch in zip(methods, batches)
        ]
        # Both batches above the (moved) threshold: each caller splits.
        ran = force_threads(monkeypatch, executor_module, 2)
        for _ in range(3):
            got = _run_concurrently([
                lambda method=method, batch=batch: method.query_many(batch)
                for method, batch in zip(methods, batches)
            ])
            assert got == expected
        assert ran == [2] * 6


    def test_concurrent_splits_on_a_cold_view_build_its_index_once(
        self, databases, monkeypatch
    ):
        """Two callers split ``cumulative_at_many`` on one store whose
        view does not exist yet: the view (and its knot-index sort) is
        built once, and both answers equal the inline one."""
        import repro.core.plfstore as plfstore
        from repro.core import PLFStore

        database = databases[1]
        ts = np.linspace(*database.span, 96)
        expected = database.store().cumulative_at_many(ts)
        sorts = []
        real = plfstore.interior_knot_index

        def counting(times, offsets):
            sorts.append(times.size)
            return real(times, offsets)

        monkeypatch.setattr(plfstore, "interior_knot_index", counting)
        ran = force_threads(monkeypatch, executor_module, 2)
        for _ in range(3):
            cold = PLFStore(
                [obj.function for obj in database], database.object_ids()
            )
            got = _run_concurrently([
                lambda: cold.cumulative_at_many(ts) for _ in range(2)
            ])
            assert all(np.array_equal(part, expected) for part in got)
        assert len(sorts) == 3
        assert ran == [2] * 6


class TestWorkerFaults:
    """A failed worker must propagate cleanly, device untouched."""

    @pytest.mark.parametrize("workers", [pytest.param(2, id="thread")])
    def test_query1_worker_failure_leaves_device_clean(
        self, setup, workers, monkeypatch
    ):
        db, bp = setup

        def boom(self, neg):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(TopListBatcher, "top_lists", boom)
        force_threads(monkeypatch, query1_module, workers)
        device = BlockDevice()
        before = (_device_state(device), device.stats.reads)
        with pytest.raises(RuntimeError, match="injected worker failure"):
            NestedPairIndex(device, bp, kmax=15).build(db)
        assert (_device_state(device), device.stats.reads) == before
        assert device.num_blocks == 0
