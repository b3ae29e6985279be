"""Tests for the instant top-k engines (top-k(t))."""

import numpy as np
import pytest

from repro.core import PiecewiseLinearFunction, TemporalDatabase, TemporalObject
from repro.core.errors import IndexStateError, InvalidQueryError
from repro.instant import InstantBruteForce, InstantIntervalTree

from _support import make_random_database


@pytest.fixture(scope="module")
def db():
    return make_random_database(num_objects=30, avg_segments=20, seed=55)


@pytest.fixture(scope="module")
def engines(db):
    return InstantBruteForce().build(db), InstantIntervalTree().build(db)


class TestAgreement:
    def test_engines_agree(self, db, engines):
        brute, tree = engines
        rng = np.random.default_rng(2)
        for t in rng.uniform(*db.span, 40):
            a = brute.query(float(t), 5)
            b = tree.query(float(t), 5)
            assert a.object_ids == b.object_ids
            assert np.allclose(a.scores, b.scores, atol=1e-9)

    def test_matches_direct_evaluation(self, db, engines):
        _, tree = engines
        res = tree.query(42.0, 3)
        for item in res:
            assert item.score == pytest.approx(
                db.get(item.object_id).function.value(42.0)
            )

    def test_at_knot_time(self, db, engines):
        brute, tree = engines
        # Exactly at an object's knot: shared-endpoint duplicates must
        # not corrupt the answer.
        knot = float(db.get(0).function.times[3])
        a = brute.query(knot, 6)
        b = tree.query(knot, 6)
        assert a.object_ids == b.object_ids


class TestSemanticsVsAggregate:
    def test_instant_differs_from_aggregate(self):
        """The paper's Figure 2 argument: an object can win the
        aggregate ranking without ever being the instant top-1."""
        # o1: steady medium; o2: one tall spike.
        o1 = TemporalObject(1, PiecewiseLinearFunction([0, 10], [5, 5]))
        o2 = TemporalObject(
            2, PiecewiseLinearFunction([0, 4.9, 5, 5.1, 10], [0, 0, 100, 0, 0])
        )
        db = TemporalDatabase([o1, o2], span=(0, 10), pad=True)
        tree = InstantIntervalTree().build(db)
        # At the spike instant, o2 wins.
        assert tree.query(5.0, 1).object_ids == [2]
        # Over the whole interval, o1's aggregate wins.
        assert db.brute_force_top_k(0, 10, 1).object_ids == [1]


class TestMechanics:
    def test_unbuilt_raises(self):
        with pytest.raises(IndexStateError):
            InstantIntervalTree().query(1.0, 1)
        with pytest.raises(IndexStateError):
            InstantBruteForce().query(1.0, 1)

    def test_bad_k(self, engines):
        for engine in engines:
            with pytest.raises(InvalidQueryError):
                engine.query(10.0, 0)
            # Non-integral k: rejected, never truncated to k=1 / k=2.
            for bad in (1.5, float("nan"), float("inf")):
                with pytest.raises(InvalidQueryError):
                    engine.query(10.0, bad)
                with pytest.raises(InvalidQueryError):
                    engine.query_many(np.asarray([10.0, 20.0]), [3, bad])
            want = engine.query(10.0, 3)
            assert engine.query(10.0, 3.0) == want
            assert engine.query_many([10.0], [np.float64(3.0)]) == [want]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, engines, bad):
        for engine in engines:
            with pytest.raises(InvalidQueryError):
                engine.query(bad, 3)
            with pytest.raises(InvalidQueryError):
                engine.query_many(np.asarray([10.0, bad]), np.asarray([3, 3]))

    def test_io_counted(self, db, engines):
        _, tree = engines
        tree.io_stats.reset()
        tree.query(50.0, 5)
        assert tree.io_stats.reads > 0
        assert tree.index_size_bytes > 0

    def test_outside_domain_empty_or_zero(self, db, engines):
        _, tree = engines
        res = tree.query(db.t_max + 100.0, 3)
        assert len(res) == 0
