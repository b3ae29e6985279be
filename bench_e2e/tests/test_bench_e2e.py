"""Self-tests of the benchmark (smoke scale, a few seconds in total)."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts src/ and the e2e package on sys.path)
from e2e import inputs, layers  # noqa: E402
from e2e.metrics import (  # noqa: E402
    END_TO_END,
    EXACT_COUNTS,
    PER_LAYER,
    PHASE_LEVEL,
    applicable,
    manifest,
)
from e2e.setup import Context  # noqa: E402
from e2e.tracing import Span, Tracer, self_time_by_name, self_times  # noqa: E402
from e2e.workloads import BY_NAME, WORKLOADS, Outcome  # noqa: E402

SEED = 5


@pytest.fixture()
def ctx(tmp_path):
    return Context(inputs.SMOKE, SEED, 0.6, tmp_path)


def generated_inputs(seed):
    database = inputs.dataset(inputs.SMOKE, seed)
    table = inputs.queries(database, 512, seed + 1)
    appends = inputs.append_stream(database, 12, seed + 3)
    return (
        inputs.dataset_digest(database),
        inputs.digest(table.t1s, table.t2s, table.ks),
        inputs.digest(*inputs.instant_queries(database, 64, seed + 2)),
        inputs.digest(inputs.zipf_rows(4096, 1000, seed + 2)),
        inputs.digest(inputs.poisson_arrivals(4000, 0.5, seed + 3)),
        repr(appends),
    )


def test_same_seed_same_inputs():
    assert generated_inputs(SEED) == generated_inputs(SEED)
    assert generated_inputs(SEED) != generated_inputs(SEED + 1)


def test_exact_counts_repeat(ctx):
    """Modeled block reads, candidate counts, r, recall and comm bytes
    are pure functions of the seed: two independent set-ups agree
    exactly, whatever the timed phases did."""
    workload = BY_NAME["batch_offline_mixed"]
    counts = []
    for _ in range(2):
        state = workload.setup(ctx)
        batches = [inputs.take(state.table, slice(64 * i, 64 * i + 64))
                   for i in range(2)]
        live = [(1.0, 1.0)] * len(batches)  # timings do not matter here
        replayed = layers.replay_offline(Tracer(), ctx, state, batches, live)
        counts.append({name: replayed[name] for name in EXACT_COUNTS
                       if name in replayed})
    assert counts[0] == counts[1]
    assert len(counts[0]) == 8  # all but the snapshot ratio and index bytes
    assert all(value > 0 for value in counts[0].values())


def test_checker_catches_a_corrupted_answer(ctx):
    workload = BY_NAME["serve_appx_unique"]
    state = workload.setup(ctx)
    outcome = workload.measure(ctx, state, None)
    workload.check(ctx, state, outcome)
    assert outcome.attempted > 0 and outcome.failed == 0, outcome.notes
    main = outcome.phases["main"]
    main.answers[0] = main.answers[0].truncated(len(main.answers[0]) - 1) \
        if len(main.answers[0]) > 1 else main.answers[1]
    outcome.attempted = outcome.failed = 0
    workload.check(ctx, state, outcome)
    assert outcome.failed == 1, outcome.notes


def test_run_prints_every_end_to_end_metric(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    name = "serve_exact_hot_append"
    status = run.main(["--smoke", "--seconds", "0.6", "--seed", str(SEED),
                       "--workload", name])
    assert status == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_ in END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    # The workload's own end-to-end metrics, under the issue's names.
    printed = {line.split()[0] for line in lines[:-1]}
    assert {metric for metric, *_ in PHASE_LEVEL[name]} <= printed
    assert not any(tmp_path.iterdir())  # scratch removed


def test_traced_run_emits_the_metrics_that_apply(capsys, monkeypatch,
                                                 tmp_path):
    """``run_traced`` raises unless the workload emitted exactly the
    per-layer metrics declared for it; the result lists all of them."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    workload = BY_NAME["restart_pool_exact"]
    status = run.main(["--smoke", "--seconds", "1", "--seed", str(SEED),
                       "--workload", workload.name, "--trace", "1"])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert list(result["metrics"]) == [name for name, *_ in PER_LAYER]
    inapplicable = set(result["metrics"]) - applicable(workload.code)
    assert all(result["metrics"][name]["value"] == 0.0
               for name in inapplicable)
    assert result["metrics"]["trace.linked_frac"]["value"] == 1.0
    assert (tmp_path / f"trace-{workload.name}.jsonl").stat().st_size > 0


def test_an_exceeded_checked_reconciliation_fails_the_run():
    values = {"trace.request_residual": 0.01,
              "trace.batch_tiling_residual": 0.02,
              "trace.batch_residual": 0.40, "trace.batch_reconciled": 0.1}
    outcome = Outcome({}, "", "")
    run.reconcile(values, outcome)  # live residual: reported, not checked
    assert (outcome.attempted, outcome.failed) == (2, 0)
    for name in ("trace.request_residual", "trace.batch_tiling_residual"):
        outcome = Outcome({}, "", "")
        run.reconcile({**values, name: 0.16}, outcome)
        assert outcome.failed == 1, name


def test_self_time_is_parent_minus_covered_children():
    spans = [
        Span(0, "request", 0.0, 10.0, None, "r"),
        Span(1, "queue", 1.0, 4.0, 0, "r"),
        # Overlaps its sibling (counted once) and overruns its parent
        # (clipped): covers [3, 10] of which [4, 10] is new.
        Span(2, "backend", 3.0, 12.0, 0, "r"),
        Span(3, "kernel", 5.0, 6.5, 2, "r"),
        Span(4, "orphan", 20.0, 21.0, None, None),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (3.0 + 6.0))
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(9.0 - 1.5)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(1.0)
    assert self_time_by_name(spans)["backend"] == pytest.approx(7.5)


def test_manifest_matches_the_registry():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert declared == manifest(
        WORKLOADS, ["python3", "bench_e2e/run.py"], ["bench_e2e"],
        run.RUN_SECONDS,
    )
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["end_to_end"]) <= 16
    assert len(declared["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert [name for name, *_ in PER_LAYER] == \
        [m["name"] for m in declared["per_layer"]]
    codes = {workload.code for workload in WORKLOADS}
    assert all(set(where) <= codes for *_, where in PER_LAYER)
    assert set(PHASE_LEVEL) == {workload.name for workload in WORKLOADS}
