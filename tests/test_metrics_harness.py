"""Tests for benchmark metrics, harness, and reporting."""

import copy
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import TopKQuery, TopKResult
from repro.bench import (
    approximation_ratio,
    evaluate_method,
    exact_reference,
    format_table,
    precision_recall,
    rank_score_errors,
    sweep,
)
from repro.exact import Exact3

from _support import make_random_database


def result_of(pairs):
    return TopKResult.from_pairs(pairs)


class TestPrecisionRecall:
    def test_perfect(self):
        a = result_of([(1, 3.0), (2, 2.0)])
        assert precision_recall(a, a) == 1.0

    def test_disjoint(self):
        a = result_of([(1, 3.0)])
        b = result_of([(2, 3.0)])
        assert precision_recall(a, b) == 0.0

    def test_partial(self):
        approx = result_of([(1, 3.0), (2, 2.0), (5, 1.0), (6, 0.5)])
        exact = result_of([(1, 3.0), (2, 2.0), (3, 1.5), (4, 1.0)])
        assert precision_recall(approx, exact) == 0.5

    def test_short_approx_penalized(self):
        approx = result_of([(1, 3.0)])
        exact = result_of([(1, 3.0), (2, 2.0)])
        assert precision_recall(approx, exact) == 0.5

    def test_empty_exact(self):
        assert precision_recall(result_of([]), result_of([])) == 1.0


class TestApproximationRatio:
    def test_exact_scores_give_one(self, small_db):
        exact = small_db.brute_force_top_k(10, 60, 5)
        assert approximation_ratio(exact, small_db, 10, 60) == pytest.approx(1.0)

    def test_underestimates_below_one(self, small_db):
        exact = small_db.brute_force_top_k(10, 60, 3)
        halved = result_of([(it.object_id, it.score / 2) for it in exact])
        assert approximation_ratio(halved, small_db, 10, 60) == pytest.approx(0.5)

    def test_skips_zero_truth(self, small_db):
        fake = result_of([(0, 0.0)])
        # Query interval where object 0 has zero mass: outside domain.
        value = approximation_ratio(fake, small_db, -5, -1)
        assert value == 1.0


class TestRankScoreErrors:
    def test_zero_for_identical(self):
        res = result_of([(1, 4.0), (2, 2.0)])
        errors = rank_score_errors(res, res, total_mass=10.0)
        assert np.allclose(errors, 0.0)

    def test_normalized_by_mass(self):
        a = result_of([(1, 5.0)])
        b = result_of([(1, 4.0)])
        assert rank_score_errors(a, b, total_mass=10.0)[0] == pytest.approx(0.1)


class TestHarness:
    def test_evaluate_method_fields(self):
        db = make_random_database(num_objects=15, avg_segments=10, seed=5)
        queries = [TopKQuery(10, 50, 5), TopKQuery(20, 80, 5)]
        exact = exact_reference(db, queries)
        report = evaluate_method(
            Exact3(), db, queries, exact, measure_quality=True
        )
        assert report.method == "EXACT3"
        assert report.index_size_bytes > 0
        assert report.avg_query_ios > 0
        assert report.precision == pytest.approx(1.0)
        assert report.ratio == pytest.approx(1.0)
        row = report.row()
        assert "query_ios" in row and "precision" in row

    def test_sweep_runs_all_values(self):
        def make_db(value):
            return make_random_database(num_objects=value, avg_segments=8, seed=6)

        def make_methods(db, value):
            return [Exact3()]

        def make_queries(db, value):
            return [TopKQuery(10, 60, 3)]

        results = sweep([8, 12], make_db, make_methods, make_queries)
        assert set(results) == {8, 12}
        assert results[8][0].method == "EXACT3"


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"method": "EXACT3", "ios": 120, "ratio": 1.0},
            {"method": "APPX1", "ios": 6, "ratio": 0.98765},
        ]
        table = format_table("demo", rows)
        assert "EXACT3" in table and "APPX1" in table
        assert table.splitlines()[1].startswith("method")

    def test_format_table_empty(self):
        assert "(no data)" in format_table("empty", [])

    def test_format_handles_nan_and_small(self):
        table = format_table("x", [{"a": float("nan"), "b": 1.5e-7}])
        assert "-" in table
        assert "e-07" in table


class TestBenchGating:
    """The shared BENCH baseline gate (repro.bench.gating)."""

    def test_find_baseline_entry_matches_config_latest_wins(self):
        from repro.bench.gating import find_baseline_entry

        history = [
            {"config": {"m": 10}, "results": {"x": 1.0}},
            {"config": {"m": 20}, "results": {"x": 2.0}},
            {"config": {"m": 10}, "results": {"x": 3.0}},
        ]
        assert find_baseline_entry(history, {"m": 10})["results"]["x"] == 3.0
        assert find_baseline_entry(history, {"m": 99}) is None
        single = {"config": {"m": 20}, "results": {}}
        assert find_baseline_entry(single, {"m": 20}) is single

    def test_compare_results_gates_timings_and_ratios(self):
        from repro.bench.gating import compare_results

        base = {"slow_s": 1.0, "tiny_s": 0.001, "speedup": 10.0}
        # Regressed timing, noise-floor timing, and lost ratio.
        current = {"slow_s": 2.5, "tiny_s": 1.0, "speedup": 4.0}
        failures = compare_results(
            base, current, ("slow_s", "tiny_s"), ("speedup",), 2.0,
            label="r=7 ",
        )
        assert len(failures) == 2  # tiny_s is below the noise floor
        assert any("slow_s" in line for line in failures)
        assert any("speedup" in line for line in failures)
        assert all(line.startswith("r=7 ") for line in failures)

    def test_compare_results_passes_within_budget(self):
        from repro.bench.gating import compare_results

        base = {"slow_s": 1.0, "speedup": 10.0}
        current = {"slow_s": 1.8, "speedup": 6.0, "extra": 5.0}
        assert not compare_results(
            base, current, ("slow_s", "missing"), ("speedup",), 2.0
        )


@pytest.fixture(scope="module")
def bench():
    """``scripts/bench.py`` as a module (it is a script, not a package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("scripts_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: One in-process run per suite, far below even ``--smoke``.
TINY = {
    "kernel": ["--queries", "2", "--r", "6", "--repeats", "1"],
    "build": ["--r-list", "8", "--kmax", "5", "--repeats", "1"],
    "chaos": ["--nodes", "2", "--batch", "6", "--qk", "3"],
}


class TestCheckBaseline:
    """The one gate: ``check_baseline(report, history, suite)``."""

    @staticmethod
    def _report(**config):
        points = [
            {"label": "r=8", "query1_batched_s": 1.0, "query1_speedup": 4.0},
            {"label": "r=16", "query1_batched_s": 2.0, "query1_speedup": 6.0},
        ]
        return {"bench": "build", "config": config, "results": points}

    def test_identical_baseline_passes_doctored_fails(self, bench, capsys):
        from repro.bench.gating import (
            GATE_OK, GATE_REGRESSED, check_baseline,
        )

        suite = bench.SUITES["build"]
        report = self._report(m=10)
        history = [copy.deepcopy(report)]
        assert check_baseline(report, history, suite) == GATE_OK
        # The committed point was twice as fast / twice the ratio.
        history[0]["results"][1]["query1_batched_s"] /= 2.5
        history[0]["results"][1]["query1_speedup"] *= 2.5
        assert check_baseline(report, history, suite) == GATE_REGRESSED
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("REGRESSION: r=16 ") for line in lines)
        assert check_baseline(report, history, suite, 3.0) == GATE_OK

    def test_points_are_matched_by_label_not_position(self, bench):
        from repro.bench.gating import GATE_OK, check_baseline

        suite = bench.SUITES["build"]
        report = self._report(m=10)
        baseline = copy.deepcopy(report)
        # Reversed order plus a label this run does not have: a
        # positional pairing would compare r=8 against r=16 and fail.
        baseline["results"].reverse()
        baseline["results"].append(
            {"label": "r=32", "query1_batched_s": 1e-3, "query1_speedup": 99.0}
        )
        assert check_baseline(report, baseline, suite) == GATE_OK

    def test_unmatched_config_is_a_failure(self, bench, capsys):
        from repro.bench.gating import GATE_NO_BASELINE, check_baseline

        suite = bench.SUITES["build"]
        history = [self._report(m=10), self._report(m=20)]
        code = check_baseline(self._report(m=99), history, suite)
        assert code == GATE_NO_BASELINE
        err = capsys.readouterr().err
        # Names the run's config and every recorded one.
        assert '{"m": 99}' in err
        assert '{"m": 10}' in err and '{"m": 20}' in err

    def test_drifted_flags_fail_the_command(self, bench, tmp_path, capsys):
        """``--baseline`` with no matching entry exits 2, not 0."""
        from repro.bench.gating import GATE_NO_BASELINE

        tiny = ["kernel", "--m", "40", "--navg", "8", *TINY["kernel"]]
        path = tmp_path / "BENCH_kernel.json"
        path.write_text(json.dumps([{"config": {"m": 41}, "results": []}]))
        assert bench.main([*tiny, "--baseline", str(path)]) == (
            GATE_NO_BASELINE
        )
        assert "NO BASELINE" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_every_gated_key_is_measured(self, bench, name):
        """``compare_results`` skips keys missing on either side, so a
        renamed metric would silently fall out of the gate: every
        registered key must show up in the suite's own report."""
        args = bench.parse_args([name, "--m", "40", "--navg", "8", *TINY[name]])
        report = bench.run_suite(name, args)
        assert sorted(report) == [
            "bench", "config", "git_sha", "host", "results",
        ]
        assert report["bench"] == name
        assert report["host"]["cpu_count"] == os.cpu_count()
        labels = [point["label"] for point in report["results"]]
        assert labels and len(set(labels)) == len(labels)
        suite = bench.SUITES[name]
        measured = set().union(*report["results"])
        for key in suite.gated_keys + suite.gated_ratios:
            # Split keys exist only where the host has the cores.
            if "parallel" in key and os.cpu_count() < 2:
                assert key not in measured
            else:
                assert key in measured, f"{name}: {key} is gated, not measured"

    def test_fanout_is_left_out_when_the_host_lacks_the_cores(
        self, bench, monkeypatch
    ):
        """Decided at measurement time: a 1-core host reports no
        fan-out point at all (nothing to skip-and-flag in the gate)."""
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
        args = bench.parse_args(
            ["build", "--m", "40", "--navg", "8", *TINY["build"]]
        )
        _, points = bench.run_build(args)
        assert not [key for p in points for key in p if "parallel" in key]
        assert "query1_batched_s" in points[0]
        assert "exact3_q64_s" in points[-1]

    def test_smoke_config_is_fixed(self, bench):
        for name, suite in bench.SUITES.items():
            args = bench.parse_args([name, "--smoke", "--m", "7"])
            assert args.smoke
            for key, value in suite.smoke.items():
                assert getattr(args, key) == value

    def test_chaos_contract_fails_a_doctored_run(self, bench):
        args = bench.parse_args(["chaos", "--rates", "0,0.2"])
        clean = [
            {"label": "object/rate=0", "rate": 0.0, "recall": 1.0,
             "silent_divergence": 0},
            {"label": "object/rate=0.2", "rate": 0.2, "recall": 0.6,
             "silent_divergence": 0},
        ]
        contract = bench.SUITES["chaos"].contract
        assert contract(clean, args) == []
        for index, doctored, needle in (
            (1, {"silent_divergence": 1}, "without a degraded flag"),
            (0, {"recall": 0.98}, "< 1.0"),
            (1, {"recall": 0.4}, "below the 0.5 floor"),
        ):
            points = [dict(point) for point in clean]
            points[index].update(doctored)
            failures = contract(points, args)
            assert len(failures) == 1 and needle in failures[0]
            assert failures[0].startswith(points[index]["label"])
