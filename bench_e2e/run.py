#!/usr/bin/env python3
"""bench_e2e: the repository's one benchmark.

    python3 bench_e2e/run.py [--workload NAME|all] [--seed S]
                             [--seconds T] [--trace 0|1] [--smoke]

Generates every input from the seed, drives the system through its
public entry points, checks the answers, and prints every metric by
name with its unit.  The last line of each workload's output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}`` — the
four gated end-to-end metrics with ``--trace 0`` (the workload's own
phase-level ones are printed above it), the per-layer metrics with
``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from e2e import inputs  # noqa: E402
from e2e.loadgen import GcWatch, clock  # noqa: E402
from e2e.metrics import (  # noqa: E402
    BATCH_TOLERANCE,
    END_TO_END,
    PER_LAYER,
    PHASE_LEVEL,
    REQUEST_TOLERANCE,
    applicable,
)
from e2e.setup import Context  # noqa: E402
from e2e.tracing import Tracer  # noqa: E402
from e2e.workloads import BY_NAME, WORKLOADS  # noqa: E402

RUN_SECONDS = 20
SMOKE_SECONDS = 1.5
OUT_DIR = BENCH_DIR / "out"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    finished worker process (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_setup(workload, ctx):
    start = clock()
    state = workload.setup(ctx)
    return state, clock() - start


def discard(workload, state) -> None:
    workload.teardown(state)
    del state
    gc.collect()


def run_untraced(workload, ctx):
    """The set-up, the timed phases, the checks: the gated end-to-end
    metrics and the workload's phase-level ones.  ``setup_s`` is the
    median of the workload's ``SETUPS`` set-ups; the extra ones run
    after peak memory is read, so that is one copy's."""
    state, took = timed_setup(workload, ctx)
    setups = [took]
    try:
        outcome = workload.measure(ctx, state, None)
        rss = peak_rss_mb()
        workload.check(ctx, state, outcome)
        phase_level = workload.phase_level(state, outcome)
        while len(setups) < workload.SETUPS:
            discard(workload, state)
            state = None
            state, took = timed_setup(workload, ctx)
            setups.append(took)
    finally:
        if state is not None:
            workload.teardown(state)
    gated = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "read_p50_ms": outcome.phases[outcome.latency_phase].quantile_ms(0.5),
        "qps": outcome.phases[outcome.throughput_phase].steady_qps,
    }
    return outcome, gated, phase_level


def run_traced(workload, ctx):
    """An untraced pass (the tracing-overhead baseline), then the same
    phases behind the tracing proxies, each on its own set-up and for
    half of ``--seconds``; then the replays, the checks and the
    reconciliations."""
    ctx = Context(ctx.scale, ctx.seed, ctx.seconds / 2, ctx.workdir)
    state, _ = timed_setup(workload, ctx)
    try:
        untraced = workload.measure(ctx, state, None)
        # Keep the one number, not the pass's answers.
        baseline = untraced.phases[untraced.latency_phase].quantile_ms(0.5)
        del untraced
        discard(workload, state)
        state = None
        state, _ = timed_setup(workload, ctx)
        tracer = Tracer()
        with GcWatch() as watch:
            outcome = workload.measure(ctx, state, tracer)
        # Replays first: the sooner after the live phases, the less the
        # host has moved in between.
        values = workload.layers(ctx, state, outcome, tracer)
        workload.check(ctx, state, outcome)
    finally:
        if state is not None:
            workload.teardown(state)
    traced = outcome.phases[outcome.latency_phase].quantile_ms(0.5)
    values["trace.overhead_frac"] = (traced - baseline) / baseline
    values["runtime.gc_gen2_count"] = watch.gen2
    values["runtime.gc_pause_ms_max"] = watch.max_pause_ms
    tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl")
    expected = applicable(workload.code)
    if set(values) != expected:
        raise KeyError(
            f"{workload.name}: per-layer metrics missing "
            f"{sorted(expected - set(values))}, unexpected "
            f"{sorted(set(values) - expected)}")
    verdicts = reconcile(values, outcome) if not ctx.scale.smoke else []
    return outcome, values, verdicts


def reconcile(values: dict, outcome) -> list:
    """Check the reconciliations of a full-scale traced run.  (At smoke
    scale a call takes microseconds, most of them in wrappers no
    replayed part covers.)

    Two are checked operations — exceeding the tolerance fails the run:
    per request, the four observed parts against the measured latency;
    per batch, the replayed parts against the whole call replayed right
    after them.  Both compare readings taken within milliseconds of
    each other.  The third, a batch's replayed parts against what it
    cost live, compares readings taken seconds apart, and on this host
    the same call's cost moves by 10-20 % over such a gap (README.md):
    a limit of 15 % on it would fail an unchanged tree every few runs.
    Its verdict is printed and reported (``trace.batch_residual``,
    ``trace.batch_reconciled``), no more."""
    lines = []

    def checked(what, name, tolerance):
        residual = values.get(name)
        if residual is None:
            return
        exceeded = residual > tolerance
        outcome.attempted += 1
        outcome.fail(int(exceeded), f"reconciliation {what}: "
                                    f"{residual:.3f} > {tolerance}")
        lines.append(f"   reconciliation {what}: {residual:.3f}, limit "
                     f"{tolerance}: {'EXCEEDED' if exceeded else 'ok'}")

    checked("per request, parts vs latency", "trace.request_residual",
            REQUEST_TOLERANCE)
    checked("per batch, replayed parts vs replayed call",
            "trace.batch_tiling_residual", BATCH_TOLERANCE)
    live = values["trace.batch_residual"]
    lines.append(
        f"   reconciliation per batch, replayed parts vs live (not "
        f"checked): {live:.3f}, limit {BATCH_TOLERANCE}: "
        f"{'ok' if live <= BATCH_TOLERANCE else 'exceeded'} "
        f"({values['trace.batch_reconciled']:.0%} of the batches within "
        f"it one by one)")
    return lines


def report_line(name, value, unit) -> str:
    return f"   {name:<48} {value:>16.6g} {unit}"


def run_workload(workload, scale, seed: int, seconds: float, trace: bool):
    """One run.  Returns the result object and human-readable lines."""
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(scale, seed, seconds, workdir)
    try:
        if trace:
            outcome, values, verdicts = run_traced(workload, ctx)
        else:
            outcome, values, phase_level = run_untraced(workload, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"== {workload.name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)} smoke={str(scale.smoke).lower()} "
             f"m={scale.num_objects} n_avg={scale.avg_readings}"]
    for phase in outcome.phases.values():
        load = (f"{phase.load:g} qps" if phase.mode == "open"
                else f"{phase.load:g} clients")
        flag = "" if phase.offered_load_valid else "  INVALID: generator late"
        lines.append(
            f"   phase {phase.name:<10} {phase.mode:<6} loop {load:<12} "
            f"ops={phase.attempted:<7} ok={int(phase.done.sum()):<7} "
            f"p50={phase.quantile_ms(0.5):9.3f} ms "
            f"p90={phase.quantile_ms(0.9):9.3f} ms "
            f"p99={phase.quantile_ms(0.99):9.3f} ms "
            f"qps={phase.qps:10.1f}{flag}"
        )
    if trace:
        metrics = {}
        for name, unit, _, _ in PER_LAYER:
            metrics[name] = {"value": float(values.get(name, 0.0)),
                             "unit": unit}
            lines.append(report_line(name, values[name], unit)
                         if name in values else f"   {name:<48} {'n/a':>16}")
        lines.extend(verdicts)
    else:
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit, _, _ in END_TO_END}
        lines.extend(report_line(name, entry["value"], entry["unit"])
                     for name, entry in metrics.items())
        lines.extend(report_line(name, phase_level[name], unit)
                     for name, unit, _ in PHASE_LEVEL[workload.name])
    lines.append(
        f"   operations attempted={outcome.attempted} "
        f"succeeded={outcome.attempted - outcome.failed} "
        f"failed={outcome.failed}"
    )
    lines.extend(f"   FAILED {note}" for note in outcome.notes)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[w.name for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed seconds per run (default {RUN_SECONDS}; "
                             f"{SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="m=400 and short phases: same code paths and "
                             "metric names, numbers not comparable")
    args = parser.parse_args(argv)
    scale = inputs.SMOKE if args.smoke else inputs.FULL
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    chosen = WORKLOADS if args.workload == "all" else [BY_NAME[args.workload]]
    status = 0
    for workload in chosen:
        result, lines = run_workload(workload, scale, args.seed, seconds,
                                     bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
