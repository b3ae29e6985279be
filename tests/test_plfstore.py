"""Equivalence tests: PLFStore batch primitives vs per-object PLFs.

The columnar kernel's contract is that every batch primitive reproduces
the scalar per-object arithmetic (bit-for-bit where the consumers rely
on it — breakpoint sweeps — and to 1e-9 everywhere else).  Databases
are randomized, include negative scores, and are padded, per the ISSUE.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PiecewiseLinearFunction, PLFStore, TemporalObject
from repro.core.errors import ReproError
from repro.storage.segments import write_store_segment

from _support import make_random_database, random_intervals
from test_properties import plf_strategy


@pytest.fixture(scope="module", params=[False, True], ids=["positive", "negative"])
def db(request):
    return make_random_database(
        num_objects=40, avg_segments=25, seed=11, negative=request.param
    )


@pytest.fixture(scope="module")
def store(db):
    return db.store()


def probe_times(db, count=60, seed=5):
    rng = np.random.default_rng(seed)
    t_min, t_max = db.span
    pad = 0.1 * (t_max - t_min)
    ts = rng.uniform(t_min - pad, t_max + pad, count)
    knots = np.concatenate([obj.function.times for obj in db])
    # Include exact knot times: the piece-selection edge cases.
    return np.concatenate([ts, rng.choice(knots, 20, replace=False)])


class TestCumulative:
    def test_cumulative_at_bitwise(self, db, store):
        for t in probe_times(db):
            ref = np.asarray([obj.function.cumulative(t) for obj in db])
            got = store.cumulative_at(t)
            assert np.array_equal(ref, got)

    def test_cumulative_at_many_matches(self, db, store):
        ts = probe_times(db)
        got = store.cumulative_at_many(ts)
        for row, t in enumerate(ts):
            ref = np.asarray([obj.function.cumulative(t) for obj in db])
            assert np.array_equal(ref, got[row])

    def test_chunked_many_matches_unchunked(self, db, store, monkeypatch):
        import repro.core.plfstore as mod

        ts = probe_times(db)
        full = store.cumulative_at_many(ts)
        monkeypatch.setattr(mod, "_CHUNK_ELEMENTS", db.num_objects * 3)
        assert np.array_equal(store.cumulative_at_many(ts), full)


@st.composite
def store_and_grid(draw):
    """An unpadded store (uneven knot counts, single-segment objects,
    unaligned spans) and an adversarial time grid over it: exact knot
    times, span endpoints, out-of-span times, duplicates, q = 1..40."""
    functions = draw(
        st.lists(
            plf_strategy(min_knots=2, max_knots=9, nonnegative=False),
            min_size=1,
            max_size=7,
        )
    )
    knots = np.concatenate([fn.times for fn in functions]).tolist()
    times = draw(
        st.lists(
            st.one_of(
                st.sampled_from(knots),
                st.floats(-10.0, 110.0, allow_nan=False),
            ),
            min_size=1,
            max_size=32,
        )
    )
    times += draw(st.lists(st.sampled_from(times), max_size=8))
    return PLFStore(functions), np.asarray(times, dtype=np.float64)


def reference_locate(store, ts):
    """``locate_many`` by its definition: one ``searchsorted`` per
    object, clipped to the object's piece range."""
    bounds = store.offsets.tolist()
    reference = np.empty((ts.size, store.num_objects), np.int64)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        piece = np.searchsorted(store.knot_times[lo:hi], ts, "right") - 1
        reference[:, i] = np.clip(piece + lo, lo, hi - 2)
    return reference


def assert_locates_like_reference(store, ts):
    located = store.csr_view().locate_many(ts)
    assert located.dtype == np.int64
    assert located.shape == (ts.size, store.num_objects)
    assert np.array_equal(located, reference_locate(store, ts))


class TestGridLocationKernel:
    """The one time-grid piece-location kernel against its definition."""

    @settings(max_examples=60, deadline=None)
    @given(store_and_grid())
    def test_grid_kernel_matches_per_object_reference(self, case):
        built, ts = case
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "store.seg"
            write_store_segment(path, built)
            for store in (built, PLFStore.from_segments(path)):
                view = store.csr_view()
                reference = reference_locate(store, ts)
                assert np.array_equal(view.locate_many(ts), reference)
                clamped = np.clip(ts[:, None], view.starts, view.ends)
                assert np.array_equal(view.locate_grid(clamped), reference)
                cums = store.cumulative_at_many(ts)
                values = store.values_at_many(ts)
                for row, t in enumerate(ts):
                    assert np.array_equal(cums[row], store.cumulative_at(t))
                    assert np.array_equal(values[row], store.values_at(t))


class TestIntegrals:
    def test_integrals_bitwise(self, db, store):
        for t1, t2 in random_intervals(db, 40, seed=3):
            ref = np.asarray([obj.function.integral(t1, t2) for obj in db])
            assert np.array_equal(ref, store.integrals(t1, t2))

    def test_integrals_many(self, db, store):
        queries = np.asarray(random_intervals(db, 25, seed=9))
        got = store.integrals_many(queries)
        for row, (t1, t2) in enumerate(queries):
            ref = np.asarray([obj.function.integral(t1, t2) for obj in db])
            assert np.allclose(ref, got[row], atol=1e-9)

    def test_reversed_interval_scores_zero(self, store):
        assert np.all(store.integrals(50.0, 10.0) == 0.0)
        out = store.integrals_many(np.asarray([[50.0, 10.0], [10.0, 50.0]]))
        assert np.all(out[0] == 0.0)
        assert np.any(out[1] != 0.0)

    def test_masses_between(self, db, store):
        grid = np.linspace(*db.span, 17)
        masses = store.masses_between(grid)
        assert masses.shape == (db.num_objects, grid.size - 1)
        for row, obj in enumerate(db):
            cums = np.asarray([obj.function.cumulative(g) for g in grid])
            assert np.allclose(masses[row], np.diff(cums), atol=1e-9)


def unpadded_store():
    """Objects with different spans: a time can precede some starts
    (or follow some ends) but not all."""
    rng = np.random.default_rng(17)
    functions = []
    for lo, hi in [(0.0, 40.0), (10.0, 90.0), (25.0, 60.0), (5.0, 100.0)]:
        times = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, 6)]))
        functions.append(
            PiecewiseLinearFunction(times, rng.uniform(-2.0, 9.0, times.size))
        )
    return PLFStore(functions)


def edge_times(store):
    """Times before, on and after the span ends, with interior times
    and every object's own start and end, in a mixed order."""
    first, last = float(store.starts.min()), float(store.ends.max())
    inner = np.linspace(first, last, 7)[1:-1]
    return np.concatenate(
        [
            [first - 5.0, first, last, last + 5.0],
            inner,
            store.starts,
            store.ends,
            [last + 5.0, first - 5.0, first],
        ]
    )


def assert_many_matches_single_time(store, ts):
    cums = store.cumulative_at_many(ts)
    for row, t in enumerate(ts):
        assert np.array_equal(cums[row], store.cumulative_at(t))
        ref = [fn.cumulative(float(t)) for fn in store.functions]
        assert np.array_equal(cums[row], np.asarray(ref))
    queries = np.stack([ts, ts[::-1]], axis=1)
    scores = store.integrals_many(queries)
    for row, (t1, t2) in enumerate(queries):
        assert np.array_equal(scores[row], store.integrals(t1, t2))


class TestSpanBoundaryRows:
    """Rows at or past the span edges skip piece location; their bits
    must not change."""

    def test_padded_store(self, store):
        assert_many_matches_single_time(store, edge_times(store))

    def test_unpadded_store_with_different_spans(self):
        store = unpadded_store()
        assert np.unique(store.starts).size > 1
        assert_many_matches_single_time(store, edge_times(store))

    def test_tiny_chunks(self, store, monkeypatch):
        import repro.core.plfstore as mod

        ts = edge_times(store)
        full = store.cumulative_at_many(ts)
        monkeypatch.setattr(mod, "_CHUNK_ELEMENTS", store.num_objects * 2)
        assert np.array_equal(store.cumulative_at_many(ts), full)
        assert_many_matches_single_time(store, ts)

    def test_mounted_store(self, tmp_path):
        built = unpadded_store()
        write_store_segment(tmp_path / "store.seg", built)
        mounted = PLFStore.from_segments(tmp_path / "store.seg")
        ts = edge_times(built)
        assert_many_matches_single_time(mounted, ts)
        assert np.array_equal(
            mounted.cumulative_at_many(ts), built.cumulative_at_many(ts)
        )

    def test_node_message_covering_its_slice_locates_nothing(
        self, db, monkeypatch
    ):
        from repro.core.plfstore import CSRView
        from repro.distributed import TimePartitionedCluster

        calls = []
        locate = CSRView.locate_many

        def counting(view, ts):
            calls.append(ts.size)
            return locate(view, ts)

        monkeypatch.setattr(CSRView, "locate_many", counting)
        cluster = TimePartitionedCluster(db, num_nodes=4)
        node = cluster.nodes[1]
        lo, hi = cluster.boundaries[1], cluster.boundaries[2]
        covering = node.partial_scores_many(
            np.asarray([lo - 1.0, lo]), np.asarray([hi, hi + 1.0])
        )
        assert calls == []
        assert np.array_equal(covering[0], node.database.store().totals)
        # Rows that cut the slice: t1 and t2 located in one pass.
        mid = 0.5 * (lo + hi)
        node.partial_scores_many(np.asarray([lo, mid]), np.asarray([mid, hi]))
        assert calls == [2]


def two_knot_store():
    """Mixed knot counts, three objects with no interior knot at all."""
    functions = [
        PiecewiseLinearFunction([0.0, 100.0], [1.0, 3.0]),
        PiecewiseLinearFunction([10.0, 20.0, 30.0, 60.0], [2.0, 0.5, 4.0, 1.0]),
        PiecewiseLinearFunction([20.0, 30.0], [5.0, 5.0]),
        PiecewiseLinearFunction([30.0, 45.0, 70.0], [0.0, 8.0, 2.0]),
        PiecewiseLinearFunction([50.0, 90.0], [7.0, 1.0]),
    ]
    return PLFStore(functions)


def adversarial_times(store):
    """Knot-coincident times (every knot, some twice), times outside
    every span, and times strictly between knots, shuffled."""
    knots = store.knot_times
    rng = np.random.default_rng(4)
    first, last = float(store.starts.min()), float(store.ends.max())
    ts = np.concatenate([
        knots,
        knots[::3],
        [first - 10.0, first - 1.0, last + 1.0, last + 10.0, -np.inf],
        rng.uniform(first, last, 25),
    ])
    return rng.permutation(ts)


class TestSortedKnotIndex:
    """``locate_many`` reads a time-sorted index of the interior knots
    (every knot but each object's first and last); its output must be
    the per-object reference's, bit for bit."""

    @pytest.fixture(params=["two_knot", "unpadded", "padded"])
    def any_store(self, request, store):
        if request.param == "two_knot":
            return two_knot_store()
        if request.param == "unpadded":
            return unpadded_store()
        return store

    def test_index_holds_the_interior_knots_sorted(self, any_store):
        view = any_store.csr_view()
        interior = [
            (t, row)
            for row, fn in enumerate(any_store.functions)
            for t in fn.times[1:-1].tolist()
        ]
        assert view.index_times.size == len(interior)
        assert np.all(np.diff(view.index_times) >= 0)
        assert view.index_rows.dtype == np.int32
        indexed = zip(view.index_times.tolist(), view.index_rows.tolist())
        assert sorted(indexed) == sorted(interior)

    def test_two_knot_objects_have_no_interior_knots(self):
        store = PLFStore([
            PiecewiseLinearFunction([0.0, 5.0], [1.0, 2.0]),
            PiecewiseLinearFunction([2.0, 9.0], [3.0, 0.0]),
        ])
        assert store.csr_view().index_times.size == 0
        assert_locates_like_reference(store, adversarial_times(store))

    def test_adversarial_grids(self, any_store):
        ts = adversarial_times(any_store)
        assert_locates_like_reference(any_store, ts)
        # q = 1, one time repeated, and the sorted grid.
        for one in ts[:12]:
            assert_locates_like_reference(any_store, np.asarray([one]))
        assert_locates_like_reference(any_store, np.full(5, ts[0]))
        assert_locates_like_reference(any_store, np.sort(ts))

    def test_mounted_store(self, tmp_path):
        built = two_knot_store()
        write_store_segment(tmp_path / "store.seg", built)
        mounted = PLFStore.from_segments(tmp_path / "store.seg")
        ts = adversarial_times(built)
        assert_locates_like_reference(mounted, ts)
        assert np.array_equal(
            mounted.csr_view().index_times, built.csr_view().index_times
        )

    def test_tiny_chunks(self, any_store, monkeypatch):
        import repro.core.plfstore as mod

        ts = adversarial_times(any_store)
        ts = ts[np.isfinite(ts)]
        full = any_store.cumulative_at_many(ts)
        values = any_store.values_at_many(ts)
        monkeypatch.setattr(mod, "_CHUNK_ELEMENTS", any_store.num_objects)
        assert np.array_equal(any_store.cumulative_at_many(ts), full)
        assert np.array_equal(any_store.values_at_many(ts), values)
        for row, t in enumerate(ts):
            assert np.array_equal(full[row], any_store.cumulative_at(t))
            assert np.array_equal(values[row], any_store.values_at(t))


class TestValuesAndTopK:
    def test_values_at(self, db, store):
        for t in probe_times(db):
            ref = np.asarray([obj.function.value(t) for obj in db])
            assert np.allclose(ref, store.values_at(t), atol=1e-9)

    def test_top_k_matches_brute_force(self, db, store):
        for t1, t2 in random_intervals(db, 20, seed=21):
            ref = db.brute_force_top_k(t1, t2, 7)
            got = store.top_k(t1, t2, 7)
            assert got.object_ids == ref.object_ids
            assert np.allclose(got.scores, ref.scores, atol=1e-9)

    def test_top_k_many(self, db, store):
        queries = np.asarray(random_intervals(db, 10, seed=33))
        results = store.top_k_many(queries, 5)
        for (t1, t2), got in zip(queries, results):
            ref = db.brute_force_top_k(t1, t2, 5)
            assert got.object_ids == ref.object_ids


class TestInverseCumulative:
    def test_matches_scalar_bitwise(self, db):
        # Run on |g|: the inverse requires nondecreasing cumulatives.
        store = db.store(use_absolute=True)
        rng = np.random.default_rng(17)
        fractions = rng.uniform(-0.2, 1.3, store.num_objects)
        targets = fractions * store.totals
        ref = np.asarray(
            [
                fn.inverse_cumulative(float(t))
                for fn, t in zip(store.functions, targets)
            ]
        )
        got = store.inverse_cumulative_many(targets)
        assert np.array_equal(ref, got)

    def test_flat_runs_land_on_earliest_crossing(self):
        # Mass 2 accrues on [0, 2], is flat on [2, 5], then grows again.
        fn = PiecewiseLinearFunction(
            [0.0, 2.0, 5.0, 6.0], [2.0, 0.0, 0.0, 2.0]
        )
        store = PLFStore([fn])
        assert fn.inverse_cumulative(2.0) == pytest.approx(2.0)
        assert store.inverse_cumulative_many(np.asarray([2.0]))[0] == (
            fn.inverse_cumulative(2.0)
        )
        assert store.inverse_cumulative_many(np.asarray([2.5]))[0] == (
            fn.inverse_cumulative(2.5)
        )
        assert store.inverse_cumulative_many(np.asarray([10.0]))[0] == np.inf


class TestAbsolute:
    def test_vectorized_absolute_matches_reference_loop(self, db):
        for obj in db:
            fn = obj.function
            got = fn.absolute()
            # Reference: the historical per-segment Python loop.
            ref_times = [float(fn.times[0])]
            ref_values = [abs(float(fn.values[0]))]
            for seg in fn.segments():
                if (seg.v0 < 0 < seg.v1) or (seg.v1 < 0 < seg.v0):
                    t_cross = seg.t0 - seg.v0 / seg.slope
                    if seg.t0 < t_cross < seg.t1:
                        ref_times.append(t_cross)
                        ref_values.append(0.0)
                ref_times.append(seg.t1)
                ref_values.append(abs(seg.v1))
            assert np.array_equal(got.times, np.asarray(ref_times))
            assert np.array_equal(got.values, np.asarray(ref_values))

    def test_absolute_store_cached(self, store):
        assert store.absolute() is store.absolute()


class TestStoreLifecycle:
    def test_database_caches_store(self, db):
        assert db.store() is db.store()

    def test_append_invalidates_store(self):
        db = make_random_database(num_objects=6, avg_segments=8, seed=2)
        before = db.store()
        end = db.t_max + 1.0
        db.append_segment(0, end, 3.0)
        after = db.store()
        assert after is not before
        ref = np.asarray([obj.function.cumulative(end) for obj in db])
        assert np.array_equal(ref, after.cumulative_at(end))

    def test_staleness_clears_after_read_burst(self):
        """One append must not pin read-heavy workloads to scalar
        paths forever: a few fallback queries re-arm the rebuild."""
        db = make_random_database(num_objects=8, avg_segments=6, seed=4)
        db.store()
        db.append_segment(0, db.t_max + 1.0, 2.0)
        assert not db.wants_store
        for _ in range(3):
            assert not db.has_store
            db.scores(10.0, 40.0)  # scalar fallback, counts toward re-arm
        assert db.wants_store
        db.scores(10.0, 40.0)  # rebuilds and answers through the kernel
        assert db.has_store

    def test_empty_store_rejected(self):
        with pytest.raises(ReproError):
            PLFStore([])

    def test_padded_objects_score_zero_outside_original_span(self):
        # A padded object contributes 0 outside its true support.
        fn = PiecewiseLinearFunction([10.0, 20.0], [4.0, 4.0])
        obj = TemporalObject(0, fn)
        from repro.core import TemporalDatabase

        db = TemporalDatabase([obj], span=(0.0, 100.0), pad=True)
        store = db.store()
        assert store.integrals(0.0, 5.0)[0] == pytest.approx(0.0, abs=1e-6)
        assert store.integrals(12.0, 18.0)[0] == pytest.approx(24.0)

    def test_store_shape_counters(self, db, store):
        assert store.num_objects == db.num_objects
        assert store.num_segments == db.total_segments
        assert store.num_knots == db.total_segments + db.num_objects
        assert store.nbytes > 0
        assert store.sequential_total_mass == pytest.approx(db.total_mass)


class TestHarnessKernelModes:
    def test_kernel_microbenchmark_reports_speedup(self):
        from repro.bench.harness import kernel_microbenchmark

        db = make_random_database(num_objects=30, avg_segments=10, seed=5)
        report = kernel_microbenchmark(db, num_queries=3, repeats=1)
        assert report["m"] == 30
        assert report["scalar_seconds"] > 0
        assert report["batch_seconds"] > 0
        assert report["speedup"] > 0

    def test_evaluate_batched_matches_reference(self):
        from repro.bench.harness import evaluate_batched, exact_reference
        from repro.core.queries import TopKQuery

        db = make_random_database(num_objects=25, avg_segments=12, seed=6)
        queries = [
            TopKQuery(t1, t2, 5) for t1, t2 in random_intervals(db, 6, seed=8)
        ]
        exact = exact_reference(db, queries)
        report = evaluate_batched(db, queries, exact, measure_quality=True)
        assert report.method == "KERNEL-BATCH"
        assert report.precision == pytest.approx(1.0)
        assert report.ratio == pytest.approx(1.0)
        assert report.avg_query_ios == 0.0
        assert report.index_size_bytes > 0


class TestScoresRouting:
    def test_custom_finalize_survives_batched_paths(self):
        """A subclass overriding only scalar finalize() must stay
        correct on the kernel-batched Exact2/Exact3 paths (the base
        finalize_many delegates elementwise)."""
        from repro.core.aggregates import SumAggregate
        from repro.core.queries import TopKQuery
        from repro.exact import Exact2, Exact3

        class Doubled(SumAggregate):
            name = "sum2x"

            def finalize(self, raw, a, b):
                return 2.0 * raw

        small = make_random_database(num_objects=12, avg_segments=8, seed=13)
        t1, t2 = 20.0, 70.0
        ref = small.brute_force_top_k(t1, t2, 4, aggregate=Doubled())
        for cls in (Exact2, Exact3):
            got = cls(aggregate=Doubled()).build(small).query(
                TopKQuery(t1, t2, 4)
            )
            assert got.object_ids == ref.object_ids, cls.__name__
            assert np.allclose(got.scores, ref.scores, atol=1e-6), cls.__name__

    def test_database_scores_match_per_object_loop(self, db):
        from repro.core.aggregates import AVG, F2, SUM

        for t1, t2 in random_intervals(db, 15, seed=41):
            for agg in (SUM, AVG, F2):
                ref = np.asarray(
                    [agg.interval(obj.function, t1, t2) for obj in db]
                )
                assert np.allclose(
                    db.scores(t1, t2, agg), ref, atol=1e-9
                ), agg.name
