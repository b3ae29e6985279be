"""Equivalence suite for the batched query pipeline (`query_many`).

Every batched serving path must reproduce, for a mixed workload, the
scalar per-query loop *exactly*:

* answers — object ids, scores (bitwise), and tie-break order,
* total IO charges over the workload (the modeled-cost contract),
* inline and split over two threads (EXACT3),

for APPX1, APPX2, APPX2+, EXACT2, EXACT3, and both instant engines —
including degenerate snaps, knot-coincident endpoints, out-of-domain
intervals, tie-heavy data, duplicate queries, and append-staleness
fallbacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approximate.methods import Appx1, Appx2, Appx2Plus
from repro.btree.batch import modeled_successor_many
from repro.btree.tree import BPlusTree
from repro.core.errors import InvalidQueryError
from repro.core.plfstore import PLFStore
from repro.core.queries import TopKQuery, workload_arrays
from repro.datasets import sample_instant_workload, sample_workload
from repro.datasets.workload import WorkloadBatch
from repro.exact import Exact2, Exact3
from repro.exact import exact3 as exact3_module
from repro.exact.exact3 import SPLIT_WORK, stab_cumulatives_many
from repro.instant.engine import InstantBruteForce, InstantIntervalTree
from repro.parallel import executor as executor_module
from repro.parallel import split_threads
from repro.storage import BlockDevice

from _support import force_threads, make_random_database
from test_properties import plf_strategy

EXECUTOR_MATRIX = [
    pytest.param(1, id="serial"),
    pytest.param(2, id="thread2"),
]


KMAX = 24


def tricky_workload(database, method=None, count=64, seed=17):
    """A mixed workload spiked with every edge case the pipeline models.

    Returns ``(t1s, t2s, ks)`` including: knot-coincident endpoints,
    zero-length intervals, intervals fully outside the domain,
    breakpoint-exact snaps (when ``method`` has breakpoints), and an
    exact duplicate pair.
    """
    batch = sample_workload(database, count=count, kmax=KMAX, seed=seed)
    t1s, t2s, ks = batch.t1s.copy(), batch.t2s.copy(), batch.ks.copy()
    t_min, t_max = database.span
    knots = database.store().knot_times
    t1s[0], t2s[0] = float(knots[3]), float(knots[3]) + 7.0
    t1s[1], t2s[1] = float(knots[40]) - 5.0, float(knots[40])
    t2s[2] = t1s[2]  # zero-length interval
    t1s[3], t2s[3] = t_max + 1.0, t_max + 2.0  # fully past the end
    t1s[4], t2s[4] = t_min - 3.0, t_min - 1.0  # fully before the start
    t1s[5], t2s[5], ks[5] = t1s[6], t2s[6], ks[6]  # duplicate query
    if method is not None and getattr(method, "breakpoints", None) is not None:
        times = method.breakpoints.times
        t1s[7], t2s[7] = float(times[1]), float(times[-2])
        t1s[8], t2s[8] = float(times[2]), float(times[2])  # empty snap
    return t1s, t2s, ks


def assert_batch_equals_scalar(method, t1s, t2s, ks):
    """Scalar-loop answers and IO totals == query_many's, bit for bit."""
    before = method.io_stats.snapshot()
    expected = [
        method.query(TopKQuery(float(a), float(b), int(k)))
        for a, b, k in zip(t1s, t2s, ks)
    ]
    scalar = method.io_stats.snapshot() - before
    before = method.io_stats.snapshot()
    got = method.query_many(np.stack([t1s, t2s, ks], axis=1))
    batched = method.io_stats.snapshot() - before
    assert len(got) == len(expected)
    for row, (want, have) in enumerate(zip(expected, got)):
        assert want == have, f"answer diverged at row {row}"
    assert scalar.reads == batched.reads
    assert scalar.writes == batched.writes
    return expected


# ----------------------------------------------------------------------
# per-method equivalence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def db():
    return make_random_database(num_objects=60, avg_segments=24, seed=21)


@pytest.fixture(scope="module")
def tie_db():
    """Many equal scores: constant-value objects in two groups."""
    from repro.core import PiecewiseLinearFunction, TemporalObject
    from repro.core.database import TemporalDatabase

    objects = []
    for i in range(40):
        level = 2.0 if i % 2 else 5.0
        objects.append(
            TemporalObject(
                i,
                PiecewiseLinearFunction([0.0, 50.0, 100.0], [level] * 3),
            )
        )
    return TemporalDatabase(objects, span=(0.0, 100.0), pad=True)


@pytest.mark.parametrize("cls", [Appx1, Appx2, Appx2Plus])
def test_approximate_query_many_matches_scalar(db, cls):
    method = cls(r=18, kmax=KMAX).build(db)
    t1s, t2s, ks = tricky_workload(db, method)
    assert_batch_equals_scalar(method, t1s, t2s, ks)


@pytest.mark.parametrize("cls", [Exact2, Exact3])
def test_exact_query_many_matches_scalar(db, cls):
    method = cls().build(db)
    t1s, t2s, ks = tricky_workload(db, method)
    assert_batch_equals_scalar(method, t1s, t2s, ks)


@pytest.mark.parametrize("cls", [Appx2Plus, Exact3])
def test_query_many_tie_heavy(tie_db, cls):
    method = (
        cls(r=8, kmax=KMAX) if cls is Appx2Plus else cls()
    ).build(tie_db)
    t1s, t2s, ks = tricky_workload(tie_db, method, count=40, seed=3)
    assert_batch_equals_scalar(method, t1s, t2s, ks)


@pytest.mark.parametrize("workers", EXECUTOR_MATRIX)
def test_exact3_executor_matrix(db, workers, monkeypatch):
    ran = force_threads(monkeypatch, exact3_module, workers)
    method = Exact3().build(db)
    t1s, t2s, ks = tricky_workload(db, method)
    assert_batch_equals_scalar(method, t1s, t2s, ks)
    assert ran and set(ran) == {workers}


# ----------------------------------------------------------------------
# the automatic two-thread split
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rows, m, threads",
    [(8, 10**4, 1), (16, 10**4, 2), (64, 2500, 2), (64, 1000, 1),
     (32, 2500, 1)],
)
def test_exact3_split_decision_at_measured_shapes(rows, m, threads):
    assert SPLIT_WORK == 1 << 17
    assert split_threads(rows * m, SPLIT_WORK, cpus=2) == threads
    assert split_threads(rows * m, SPLIT_WORK, cpus=1) == 1


def test_exact3_split_answers_and_io_byte_identical(db, monkeypatch):
    method = Exact3().build(db)
    batch = np.stack(tricky_workload(db, method), axis=1)
    runs = []
    for threads in (1, 2):
        ran = force_threads(monkeypatch, exact3_module, threads)
        before = method.io_stats.reads
        got = method.query_many(batch)
        reads = method.io_stats.reads - before
        assert set(ran) == {threads}
        runs.append((
            [r.object_ids for r in got],
            [np.asarray(r.scores).tobytes() for r in got],
            reads,
        ))
    assert runs[0] == runs[1]


def test_exact3_pool_worker_never_splits(db, monkeypatch):
    method = Exact3().build(db)
    t1s, t2s, ks = tricky_workload(db, method)
    expected = method.query_many(np.stack([t1s, t2s, ks], axis=1))
    ran = force_threads(monkeypatch, exact3_module, 2)
    monkeypatch.setattr(executor_module, "_WORKER_STATE", ("pool",))
    assert method.query_many(np.stack([t1s, t2s, ks], axis=1)) == expected
    assert ran and set(ran) == {1}


def reference_stab_cumulatives(view, ts):
    """The batched stab's formula as first written: ``j + 1`` gathers
    and the slope, trapezoid and span masks as fresh temporaries."""
    col = ts[:, None]
    j = view.locate_many(ts)
    lo = view.knot_times[j]
    hi = view.knot_times[j + 1]
    v_lo = view.knot_values[j]
    v_hi = view.knot_values[j + 1]
    prefix_hi = view.prefix_masses[j + 1]
    width = hi - lo
    slope = np.where(
        width > 0, (v_hi - v_lo) / np.where(width > 0, width, 1.0), 0.0
    )
    t_clamped = np.clip(col, lo, hi)
    v_at_t = v_lo + slope * (t_clamped - lo)
    tail = 0.5 * (hi - t_clamped) * (v_at_t + v_hi)
    cum = prefix_hi - tail
    return np.where(
        col < view.starts, 0.0, np.where(col > view.ends, view.totals, cum)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        plf_strategy(min_knots=2, max_knots=6, nonnegative=False),
        min_size=1, max_size=6,
    ),
    st.lists(st.floats(-20.0, 120.0), min_size=1, max_size=9),
)
def test_lean_stab_kernel_is_bitwise_the_reference(functions, ts):
    """Unpadded objects with their own spans (times before, inside and
    after each; single-segment objects included): the in-place kernel
    returns the reference formula's bits."""
    view = PLFStore(functions).csr_view()
    ts = np.asarray(ts, dtype=np.float64)
    got = stab_cumulatives_many(view, ts)
    assert got.tobytes() == reference_stab_cumulatives(view, ts).tobytes()


def test_negative_scores_query_many():
    negative = make_random_database(seed=13, negative=True)
    method = Exact3().build(negative)
    t1s, t2s, ks = tricky_workload(negative, method)
    assert_batch_equals_scalar(method, t1s, t2s, ks)


# ----------------------------------------------------------------------
# instant engines
# ----------------------------------------------------------------------
def test_instant_engines_query_many(db):
    ts, ks = sample_instant_workload(db, count=50, kmax=KMAX, seed=5)
    knots = db.store().knot_times
    ts = np.concatenate([ts, knots[[4, 90]], [db.span[1] + 5.0]])
    ks = np.concatenate([ks, [3, 5, 2]])
    for engine in (InstantIntervalTree().build(db), InstantBruteForce().build(db)):
        expected = [engine.query(float(t), int(k)) for t, k in zip(ts, ks)]
        got = engine.query_many(ts, ks)
        assert all(a == b for a, b in zip(expected, got))


def assert_instant_tree_equals_scalar(db, seed):
    ts, ks = sample_instant_workload(db, count=50, kmax=KMAX, seed=seed)
    engine = InstantIntervalTree().build(db)
    before = engine.io_stats.snapshot()
    expected = [engine.query(float(t), int(k)) for t, k in zip(ts, ks)]
    scalar = engine.io_stats.snapshot() - before
    before = engine.io_stats.snapshot()
    got = engine.query_many(ts, ks)
    batched = engine.io_stats.snapshot() - before
    assert all(a == b for a, b in zip(expected, got))
    assert scalar.reads == batched.reads


def test_instant_tree_io_counts_match(db):
    assert_instant_tree_equals_scalar(db, seed=6)


# ----------------------------------------------------------------------
# chunking is invisible
# ----------------------------------------------------------------------
def test_forced_row_chunks_match_scalar(db, monkeypatch):
    """Under a 3-row chunk cap, EXACT3 and the instant tree still
    reproduce the scalar loop: answers and IO charges, bit for bit."""
    import repro.core.plfstore as plfstore

    monkeypatch.setattr(plfstore, "_CHUNK_ELEMENTS", db.num_objects * 3)
    assert len(plfstore.row_chunks(64, db.num_objects)) == 22
    method = Exact3().build(db)
    assert_batch_equals_scalar(method, *tricky_workload(db, method))
    assert_instant_tree_equals_scalar(db, seed=5)


# ----------------------------------------------------------------------
# fallbacks stay equivalent
# ----------------------------------------------------------------------
def test_query_many_after_append_falls_back_and_matches():
    database = make_random_database(num_objects=25, avg_segments=12, seed=2)
    method = Exact3().build(database)
    t_max = database.span[1]
    database.append_segment(3, t_max + 5.0, 4.0)
    method.append(3, t_max + 5.0, 4.0)
    assert method.tree.has_overflow
    t1s, t2s, ks = tricky_workload(database, method, count=20, seed=9)
    assert_batch_equals_scalar(method, t1s, t2s, ks)


def test_appx2plus_query_many_after_append_matches():
    database = make_random_database(num_objects=25, avg_segments=12, seed=4)
    method = Appx2Plus(r=10, kmax=KMAX).build(database)
    t_max = database.span[1]
    database.append_segment(1, t_max + 2.0, 1.0)
    method.append(1, t_max + 2.0, 1.0)
    t1s, t2s, ks = tricky_workload(database, method, count=20, seed=10)
    assert_batch_equals_scalar(method, t1s, t2s, ks)


def test_query_many_with_cache_matches_answers(db):
    """Buffer pools switch query_many to LRU replay; answers agree."""
    method = Appx2(r=14, kmax=KMAX, cache_blocks=16).build(db)
    t1s, t2s, ks = tricky_workload(db, method, count=24, seed=12)
    method.drop_caches()
    expected = [
        method.query(TopKQuery(float(a), float(b), int(k)))
        for a, b, k in zip(t1s, t2s, ks)
    ]
    method.drop_caches()
    got = method.query_many(np.stack([t1s, t2s, ks], axis=1))
    assert all(a == b for a, b in zip(expected, got))


@pytest.mark.parametrize("cache_blocks", [4, 32, 4096])
def test_exact3_query_many_replays_lru_cache(db, cache_blocks):
    """cache_blocks > 0 keeps batching: the scalar block access stream
    is replayed through the pool, so hits, charges, and the final LRU
    contents are identical to the scalar loop's."""
    scalar = Exact3(cache_blocks=cache_blocks).build(db)
    batched = Exact3(cache_blocks=cache_blocks).build(db)
    t1s, t2s, ks = tricky_workload(db, count=40, seed=14)
    expected = [
        scalar.query(TopKQuery(float(a), float(b), int(k)))
        for a, b, k in zip(t1s, t2s, ks)
    ]
    got = batched.query_many(np.stack([t1s, t2s, ks], axis=1))
    assert all(a == b for a, b in zip(expected, got))
    assert scalar.io_stats.reads == batched.io_stats.reads
    assert scalar.io_stats.cache_hits == batched.io_stats.cache_hits
    # Same blocks cached, in the same LRU recency order.
    assert list(scalar._cache._entries.keys()) == list(
        batched._cache._entries.keys()
    )
    # A follow-up scalar query therefore sees the same pool state.
    probe = TopKQuery(float(t1s[9]) + 0.613, float(t2s[9]) + 1.741, 5)
    before_a, before_b = scalar.io_stats.reads, batched.io_stats.reads
    assert scalar.query(probe) == batched.query(probe)
    assert (
        scalar.io_stats.reads - before_a == batched.io_stats.reads - before_b
    )


@pytest.mark.parametrize("cache_blocks", [4, 32, 4096])
def test_appx1_query_many_replays_lru_cache(db, cache_blocks):
    """QUERY1 under a buffer pool replays the scalar access stream."""
    scalar = Appx1(r=14, kmax=KMAX, cache_blocks=cache_blocks).build(db)
    batched = Appx1(r=14, kmax=KMAX, cache_blocks=cache_blocks).build(db)
    t1s, t2s, ks = tricky_workload(db, scalar, count=40, seed=21)
    expected = [
        scalar.query(TopKQuery(float(a), float(b), int(k)))
        for a, b, k in zip(t1s, t2s, ks)
    ]
    got = batched.query_many(np.stack([t1s, t2s, ks], axis=1))
    assert all(a == b for a, b in zip(expected, got))
    assert scalar.io_stats.reads == batched.io_stats.reads
    assert scalar.io_stats.cache_hits == batched.io_stats.cache_hits
    assert list(scalar._cache._entries.keys()) == list(
        batched._cache._entries.keys()
    )
    probe = TopKQuery(float(t1s[10]) + 0.421, float(t2s[10]) + 1.733, 5)
    before_a, before_b = scalar.io_stats.reads, batched.io_stats.reads
    assert scalar.query(probe) == batched.query(probe)
    assert (
        scalar.io_stats.reads - before_a == batched.io_stats.reads - before_b
    )


@pytest.mark.parametrize("cls", [Appx2, Appx2Plus], ids=["appx2", "appx2plus"])
@pytest.mark.parametrize("cache_blocks", [4, 32, 4096])
def test_appx2_query_many_replays_lru_cache(db, cls, cache_blocks):
    """QUERY2 under a buffer pool replays the scalar access stream."""
    scalar = cls(r=14, kmax=KMAX, cache_blocks=cache_blocks).build(db)
    batched = cls(r=14, kmax=KMAX, cache_blocks=cache_blocks).build(db)
    t1s, t2s, ks = tricky_workload(db, scalar, count=40, seed=22)
    expected = [
        scalar.query(TopKQuery(float(a), float(b), int(k)))
        for a, b, k in zip(t1s, t2s, ks)
    ]
    got = batched.query_many(np.stack([t1s, t2s, ks], axis=1))
    assert all(a == b for a, b in zip(expected, got))
    assert scalar.io_stats.reads == batched.io_stats.reads
    assert scalar.io_stats.cache_hits == batched.io_stats.cache_hits
    assert list(scalar._cache._entries.keys()) == list(
        batched._cache._entries.keys()
    )
    probe = TopKQuery(float(t1s[10]) + 0.421, float(t2s[10]) + 1.733, 5)
    before_a, before_b = scalar.io_stats.reads, batched.io_stats.reads
    assert scalar.query(probe) == batched.query(probe)
    assert (
        scalar.io_stats.reads - before_a == batched.io_stats.reads - before_b
    )


def test_instant_tree_query_many_replays_lru_cache(db):
    from repro.storage.cache import LRUCache

    ts, ks = sample_instant_workload(db, count=40, kmax=KMAX, seed=15)
    knots = db.store().knot_times
    ts = np.concatenate([ts, knots[[7, 33]]])
    ks = np.concatenate([ks, [4, 4]])
    scalar = InstantIntervalTree().build(db)
    scalar.device.set_cache(LRUCache(16))
    batched = InstantIntervalTree().build(db)
    batched.device.set_cache(LRUCache(16))
    expected = [scalar.query(float(t), int(k)) for t, k in zip(ts, ks)]
    got = batched.query_many(ts, ks)
    assert all(a == b for a, b in zip(expected, got))
    assert scalar.io_stats.reads == batched.io_stats.reads
    assert scalar.io_stats.cache_hits == batched.io_stats.cache_hits
    assert list(scalar.device._cache._entries.keys()) == list(
        batched.device._cache._entries.keys()
    )


# ----------------------------------------------------------------------
# workload plumbing and the successor model
# ----------------------------------------------------------------------
def test_workload_arrays_forms(db):
    batch = sample_workload(db, count=5, kmax=4, seed=0)
    a = workload_arrays(batch)
    b = workload_arrays(batch.as_queries())
    c = workload_arrays(batch.as_array())
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    for x, y in zip(a, c):
        assert np.array_equal(x, y)


def test_workload_arrays_validation():
    with pytest.raises(InvalidQueryError):
        workload_arrays(np.asarray([[2.0, 1.0, 3.0]]))
    with pytest.raises(InvalidQueryError):
        workload_arrays(np.asarray([[1.0, 2.0, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidQueryError):
            workload_arrays(np.asarray([[1.0, 2.0, 3.0], [bad, 2.0, 3.0]]))
        with pytest.raises(InvalidQueryError):
            workload_arrays(np.asarray([[1.0, bad, 3.0]]))
    # A non-integral k is rejected in every input shape, not truncated.
    for bad in (2.7, np.nan, np.inf):
        with pytest.raises(InvalidQueryError):
            workload_arrays(np.asarray([[1.0, 2.0, 3.0], [1.0, 2.0, bad]]))
        with pytest.raises(InvalidQueryError):
            workload_arrays([(1.0, 2.0, 3), (1.0, 2.0, bad)])
        with pytest.raises(InvalidQueryError):
            workload_arrays(
                WorkloadBatch(
                    np.asarray([1.0]), np.asarray([2.0]), np.asarray([bad])
                )
            )
    for good in (np.asarray([3.0]), np.asarray([3], dtype=np.int32)):
        batch = WorkloadBatch(np.asarray([1.0]), np.asarray([2.0]), good)
        ks = workload_arrays(batch)[2]
        assert ks.dtype == np.int64 and ks.tolist() == [3]


@pytest.mark.parametrize("cls", [Appx2Plus, Exact2, Exact3])
def test_query_many_rejects_non_finite_times(db, cls):
    method = (cls(r=12, kmax=KMAX) if cls is Appx2Plus else cls()).build(db)
    with pytest.raises(InvalidQueryError):
        method.query_many(np.asarray([[1.0, 9.0, 3.0], [np.nan, 9.0, 3.0]]))
    with pytest.raises(InvalidQueryError):
        method.query_many(np.asarray([[1.0, 9.0, 3.0], [1.0, 9.0, 2.5]]))


def test_query_many_rejects_k_above_kmax(db):
    method = Appx2(r=12, kmax=4).build(db)
    with pytest.raises(InvalidQueryError):
        method.query_many(np.asarray([[1.0, 9.0, 5.0]]))


def test_sample_workload_is_reproducible(db):
    a = sample_workload(db, count=32, kmax=9, seed=123)
    b = sample_workload(db, count=32, kmax=9, seed=123)
    assert np.array_equal(a.t1s, b.t1s)
    assert np.array_equal(a.t2s, b.t2s)
    assert np.array_equal(a.ks, b.ks)
    c = sample_workload(db, count=32, kmax=9, seed=124)
    assert not np.array_equal(a.t1s, c.t1s)
    assert a.ks.min() >= 1 and a.ks.max() <= 9
    assert np.all(a.t2s >= a.t1s)


def test_modeled_successor_matches_real_walks():
    rng = np.random.default_rng(0)
    device = BlockDevice()
    tree = BPlusTree(device, value_columns=1)
    keys = np.unique(rng.uniform(0.0, 100.0, 900))
    tree.bulk_load(keys, np.arange(keys.size, dtype=np.float64).reshape(-1, 1))
    lookups = np.concatenate(
        [rng.uniform(-5.0, 105.0, 200), keys[:7], keys[-2:]]
    )
    succ, exists, reads = modeled_successor_many(
        keys, lookups, tree.leaf_capacity, tree.height
    )
    for pos, key in enumerate(lookups):
        before = device.stats.reads
        hit = tree.successor(float(key))
        assert device.stats.reads - before == reads[pos]
        if hit is None:
            assert not exists[pos]
        else:
            assert exists[pos]
            assert int(hit[1][0]) == succ[pos]


def test_dyadic_decompose_many_matches_walks(db):
    method = Appx2(r=18, kmax=KMAX).build(db)
    index = method.index
    batch = sample_workload(db, count=30, kmax=KMAX, seed=8)
    j1s, j2s, valid, _ = index.snap_indices_many(batch.t1s, batch.t2s)
    idx = np.flatnonzero(valid)
    covered_lists, walk_reads = index.decompose_many(j1s[idx], j2s[idx])
    for pos, row in enumerate(idx):
        snapped = index.snap_indices(float(batch.t1s[row]), float(batch.t2s[row]))
        assert snapped == (int(j1s[row]), int(j2s[row]))
        before = index.device.stats.reads
        nodes = index.decompose(*snapped)
        assert index.device.stats.reads - before == walk_reads[pos]
        assert [(n.lo, n.hi) for n in nodes] == [
            (index._topology()[nid][0], index._topology()[nid][1])
            for nid in covered_lists[pos]
        ]
