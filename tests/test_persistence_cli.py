"""Tests for index persistence and the command-line interface."""

import pytest

from repro.cli import main
from repro.core import TopKQuery
from repro.exact import Exact3
from repro.approximate import Appx2
from repro.storage.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    read_payload,
    write_payload,
)

from _support import make_random_database


class TestPersistence:
    def test_round_trip_exact3(self, tmp_path):
        db = make_random_database(num_objects=15, avg_segments=10, seed=70)
        method = Exact3().build(db)
        path = tmp_path / "exact3.idx"
        written = write_payload(path, method)
        assert written > 0
        loaded = read_payload(path)
        q = TopKQuery(10, 80, 5)
        assert loaded.query(q).object_ids == method.query(q).object_ids

    def test_round_trip_appx2(self, tmp_path):
        db = make_random_database(num_objects=15, avg_segments=10, seed=71)
        method = Appx2(epsilon=0.01, kmax=10).build(db)
        path = tmp_path / "appx2.idx"
        write_payload(path, method)
        loaded = read_payload(path)
        q = TopKQuery(10, 80, 5)
        assert loaded.query(q).object_ids == method.query(q).object_ids
        assert loaded.breakpoints.r == method.breakpoints.r

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"not an index at all")
        with pytest.raises(PersistenceError):
            read_payload(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "old.idx"
        payload = b"REPRO-IDX" + (FORMAT_VERSION + 1).to_bytes(2, "big") + b"x"
        path.write_bytes(payload)
        with pytest.raises(PersistenceError):
            read_payload(path)

    def test_database_round_trip(self, tmp_path):
        db = make_random_database(num_objects=8, avg_segments=6, seed=72)
        path = tmp_path / "db.bin"
        write_payload(path, db)
        loaded = read_payload(path)
        assert loaded.num_objects == db.num_objects
        assert loaded.total_mass == pytest.approx(db.total_mass)

    def test_canonical_payload_functions_do_not_warn(
        self, tmp_path, recwarn
    ):
        db = make_random_database(num_objects=6, avg_segments=5, seed=74)
        path = tmp_path / "payload.bin"
        write_payload(path, db)
        loaded = read_payload(path)
        assert loaded.num_objects == db.num_objects
        deprecations = [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]
        assert deprecations == []


class TestCli:
    def test_generate_info(self, tmp_path, capsys):
        out = tmp_path / "t.db"
        assert main([
            "generate", "temp", "--objects", "20", "--readings", "15",
            "-o", str(out),
        ]) == 0
        assert out.exists()
        assert main(["info", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "m=20" in captured

    def test_build_and_query(self, tmp_path, capsys):
        db_path = tmp_path / "t.db"
        idx_path = tmp_path / "t.idx"
        main(["generate", "temp", "--objects", "20", "--readings", "15",
              "-o", str(db_path)])
        assert main([
            "build", str(db_path), "--method", "exact3", "-o", str(idx_path),
        ]) == 0
        assert main([
            "query", str(idx_path), "--t1", "100", "--t2", "500000", "-k", "3",
        ]) == 0
        captured = capsys.readouterr().out
        assert "top-3" in captured
        assert "IOs" in captured

    def test_build_approximate(self, tmp_path, capsys):
        db_path = tmp_path / "t.db"
        idx_path = tmp_path / "a.idx"
        main(["generate", "temp", "--objects", "15", "--readings", "12",
              "-o", str(db_path)])
        assert main([
            "build", str(db_path), "--method", "appx2",
            "--epsilon", "0.01", "--kmax", "10", "-o", str(idx_path),
        ]) == 0
        assert main(["info", str(idx_path)]) == 0
        assert "breakpoints" in capsys.readouterr().out

    def test_compare(self, tmp_path, capsys):
        db_path = tmp_path / "t.db"
        main(["generate", "temp", "--objects", "15", "--readings", "12",
              "-o", str(db_path)])
        assert main([
            "compare", str(db_path), "-k", "3", "--queries", "2",
            "--epsilon", "0.01", "--kmax", "10",
        ]) == 0
        out = capsys.readouterr().out
        for name in ("EXACT1", "EXACT2", "EXACT3", "APPX1", "APPX2", "APPX2+"):
            assert name in out

    def test_unknown_method(self, tmp_path):
        db_path = tmp_path / "t.db"
        main(["generate", "temp", "--objects", "10", "--readings", "10",
              "-o", str(db_path)])
        with pytest.raises(SystemExit):
            main(["build", str(db_path), "--method", "nope", "-o",
                  str(tmp_path / "x.idx")])

    def test_snapshot_mount_verify(self, tmp_path, capsys):
        db_path = tmp_path / "t.db"
        snap = tmp_path / "snap"
        main(["generate", "temp", "--objects", "20", "--readings", "12",
              "-o", str(db_path)])
        assert main([
            "snapshot", str(db_path), "-o", str(snap), "--instant",
        ]) == 0
        assert (snap / "catalog.sqlite").exists()
        assert (snap / "dataset.seg").exists()
        assert (snap / "exact3.idx").exists()
        assert main(["mount", str(snap)]) == 0
        assert main([
            "mount", str(snap), "--verify", "--count", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "answers identical" in out
        assert "IO charges identical" in out

    def test_serve_from_catalog(self, tmp_path, capsys):
        db_path = tmp_path / "t.db"
        snap = tmp_path / "snap"
        main(["generate", "temp", "--objects", "15", "--readings", "10",
              "-o", str(db_path)])
        main(["snapshot", str(db_path), "-o", str(snap)])
        assert main([
            "serve", "--catalog", str(snap), "--demo", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 4 requests" in out

    def test_serve_needs_database_or_catalog(self):
        with pytest.raises(SystemExit, match="database file or --catalog"):
            main(["serve", "--demo", "1"])

    def test_mount_nonexistent_dir_fails_cleanly(self, tmp_path):
        from repro.storage.persistence import PersistenceError

        with pytest.raises(PersistenceError, match="no catalog"):
            main(["mount", str(tmp_path / "nothing")])


class TestAsciiPlot:
    def test_chart_renders(self):
        from repro.bench.ascii_plot import ascii_chart

        chart = ascii_chart(
            "demo",
            [1, 2, 3],
            {"EXACT3": [100, 200, 400], "APPX1": [3, 3, 3]},
        )
        assert "demo" in chart
        assert "o=EXACT3" in chart
        assert "x=APPX1" in chart

    def test_chart_empty(self):
        from repro.bench.ascii_plot import ascii_chart

        assert "(no data)" in ascii_chart("x", [], {})

    def test_linear_scale(self):
        from repro.bench.ascii_plot import ascii_chart

        chart = ascii_chart("lin", [0, 1], {"s": [0.5, 1.0]}, log_y=False)
        assert "lin" in chart
