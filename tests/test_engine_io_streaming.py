"""Tests for the engine facade and CSV IO."""

import numpy as np
import pytest

from repro.core.errors import InvalidQueryError, ReproError
from repro.datasets.io import load_csv, save_csv
from repro.engine import TemporalRankingEngine

from _support import make_random_database


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        db = make_random_database(num_objects=10, avg_segments=8, seed=31)
        path = tmp_path / "readings.csv"
        rows = save_csv(db, path)
        assert rows == sum(o.num_segments + 1 for o in db)
        loaded = load_csv(path, span=db.span)
        assert loaded.num_objects == db.num_objects
        assert loaded.total_mass == pytest.approx(db.total_mass, rel=1e-12)
        for obj in db:
            clone = loaded.get(obj.object_id)
            assert np.allclose(clone.function.times, obj.function.times)
            assert np.allclose(clone.function.values, obj.function.values)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ReproError):
            load_csv(path)

    def test_rejects_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("object_id,time,value\n1,notatime,3\n")
        with pytest.raises(ReproError):
            load_csv(path)

    def test_rejects_single_reading_object(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("object_id,time,value\n1,0.0,3.0\n")
        with pytest.raises(ReproError):
            load_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("object_id,time,value\n")
        with pytest.raises(ReproError):
            load_csv(path)

    def test_unsorted_readings_ok(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text(
            "object_id,time,value\n"
            "0,5.0,2.0\n0,1.0,1.0\n0,3.0,4.0\n"
            "1,2.0,1.0\n1,0.0,0.0\n"
        )
        db = load_csv(path, pad=False)
        assert db.get(0).function.value(3.0) == pytest.approx(4.0)


class TestEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        db = make_random_database(num_objects=25, avg_segments=15, seed=32)
        return TemporalRankingEngine(db, epsilon=1e-3, kmax=10)

    def test_exact_matches_bruteforce(self, engine):
        db = engine.database
        ref = db.brute_force_top_k(20, 80, 5)
        assert engine.top_k(20, 80, 5).object_ids == ref.object_ids

    def test_approximate_lazy_build(self, engine):
        assert engine._approximate is None
        result = engine.top_k(20, 80, 5, approximate=True)
        assert engine._approximate is not None
        assert len(result) == 5
        # APPX2+ scores are exact for returned objects.
        for item in result:
            assert item.score == pytest.approx(
                engine.database.exact_score(item.object_id, 20, 80), abs=1e-6
            )

    def test_approximate_k_limit(self, engine):
        with pytest.raises(InvalidQueryError):
            engine.top_k(0, 50, 11, approximate=True)

    def test_instant(self, engine):
        res = engine.instant_top_k(42.0, 3)
        values = [
            engine.database.get(i).function.value(42.0)
            for i in res.object_ids
        ]
        assert values == sorted(values, reverse=True)

    def test_quantile(self, engine):
        res = engine.quantile_top_k(20, 80, 3, phi=0.5)
        assert len(res) == 3

    def test_append_maintains_exact(self):
        db = make_random_database(num_objects=10, avg_segments=8, seed=33)
        engine = TemporalRankingEngine(db)
        end = db.t_max
        for i in range(5):
            end += 1.0
            engine.append(0, end, 20.0)
        ref = db.brute_force_top_k(95.0, end, 3)
        assert engine.top_k(95.0, end, 3).object_ids == ref.object_ids

    def test_repr_and_size(self, engine):
        assert "exact3" in repr(engine)
        assert engine.index_size_bytes > 0
