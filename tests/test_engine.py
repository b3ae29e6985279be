"""Tests for the :class:`TemporalRankingEngine` facade.

The engine bundles EXACT3 (eager), APPX2+ (lazy), the instant engine
(lazy), and the quantile ranker behind one handle; these tests pin the
lazy-build contract, `kmax` validation, append routing, and the
batched `top_k_many` / `instant_top_k_many` entry points.
"""

import numpy as np
import pytest

from repro.core.errors import InvalidQueryError
from repro.datasets import sample_instant_workload, sample_workload
from repro.engine import TemporalRankingEngine

from _support import make_random_database


@pytest.fixture()
def db():
    return make_random_database(num_objects=30, avg_segments=14, seed=31)


@pytest.fixture()
def engine(db):
    return TemporalRankingEngine(db, kmax=12)


def test_lazy_builds(engine):
    assert engine._approximate is None
    assert engine._instant is None
    assert "exact3" in repr(engine)
    engine.top_k(10.0, 60.0, 5)
    assert engine._approximate is None  # exact queries never build APPX
    engine.top_k(10.0, 60.0, 5, approximate=True)
    assert engine._approximate is not None
    engine.instant_top_k(42.0, 3)
    assert engine._instant is not None
    assert "appx2+" in repr(engine) and "instant" in repr(engine)


def test_exact_matches_brute_force(engine, db):
    result = engine.top_k(15.0, 70.0, 4)
    brute = db.brute_force_top_k(15.0, 70.0, 4)
    assert result.object_ids == brute.object_ids
    np.testing.assert_allclose(result.scores, brute.scores, rtol=1e-12)


def test_kmax_validation(engine):
    with pytest.raises(InvalidQueryError):
        engine.top_k(0.0, 50.0, 13, approximate=True)
    with pytest.raises(InvalidQueryError):
        engine.top_k_many(
            np.asarray([[0.0, 50.0, 13.0]]), approximate=True
        )
    # Exact queries have no kmax cap.
    assert len(engine.top_k(0.0, 50.0, 13)) > 0


def test_non_integral_k_rejected_at_every_entry_point(engine):
    """k=2.5 used to escape as a numpy TypeError (scalar) or be
    truncated to k=2 (batched, instant); integral floats stay valid."""
    for bad in (2.5, float("nan"), float("inf")):
        for approximate in (False, True):
            with pytest.raises(InvalidQueryError):
                engine.top_k(10.0, 60.0, bad, approximate=approximate)
            with pytest.raises(InvalidQueryError):
                engine.top_k_many(
                    ([10.0], [60.0], [bad]), approximate=approximate
                )
        with pytest.raises(InvalidQueryError):
            engine.instant_top_k(42.0, bad)
        with pytest.raises(InvalidQueryError):
            engine.instant_top_k_many([42.0], [bad])
    want = engine.top_k(10.0, 60.0, 3)
    for good in (3.0, np.int64(3)):
        assert engine.top_k(10.0, 60.0, good) == want
        assert engine.top_k(10.0, 60.0, good, approximate=True) == (
            engine.top_k(10.0, 60.0, 3, approximate=True)
        )
        assert engine.top_k_many(([10.0], [60.0], [good])) == [want]
        assert engine.instant_top_k_many([42.0], [good]) == [
            engine.instant_top_k(42.0, 3)
        ]


def test_top_k_many_matches_scalar(engine, db):
    batch = sample_workload(db, count=40, kmax=12, seed=2)
    for approximate in (False, True):
        scalar = [
            engine.top_k(q.t1, q.t2, q.k, approximate=approximate)
            for q in batch.as_queries()
        ]
        batched = engine.top_k_many(batch, approximate=approximate)
        assert all(a == b for a, b in zip(scalar, batched))


def test_instant_top_k_many_matches_scalar(engine, db):
    ts, ks = sample_instant_workload(db, count=30, kmax=12, seed=4)
    scalar = [engine.instant_top_k(float(t), int(k)) for t, k in zip(ts, ks)]
    batched = engine.instant_top_k_many(ts, ks)
    assert all(a == b for a, b in zip(scalar, batched))


def test_append_routes_to_live_indexes(engine, db):
    engine.top_k(10.0, 60.0, 3, approximate=True)
    engine.instant_top_k(42.0, 3)
    assert engine._instant is not None
    t_max = db.span[1]
    engine.append(2, t_max + 4.0, 3.0)
    # The static instant engine is dropped for a lazy rebuild; the
    # exact and approximate indexes are maintained in place.
    assert engine._instant is None
    assert engine._approximate is not None
    # Answers after the append still match brute force on the new data.
    result = engine.top_k(t_max - 10.0, t_max + 4.0, 5)
    brute = db.brute_force_top_k(t_max - 10.0, t_max + 4.0, 5)
    assert result == brute
    # Instant queries rebuild lazily and see the appended segment.
    assert engine.instant_top_k(t_max + 3.0, 3) is not None
    assert engine._instant is not None


def test_quantile_path(engine, db):
    result = engine.quantile_top_k(10.0, 80.0, 3, phi=0.5)
    assert len(result) == 3


def test_index_size_accumulates(engine):
    exact_only = engine.index_size_bytes
    engine.top_k(10.0, 60.0, 3, approximate=True)
    with_appx = engine.index_size_bytes
    assert with_appx > exact_only
    engine.instant_top_k(42.0, 3)
    assert engine.index_size_bytes > with_appx
