#!/usr/bin/env python3
"""Collect one run set: every workload on ten seeds, one process per
run, summarised the way the driver does.

    python3 bench_e2e/collect.py --out bench_e2e/results/full-2.json
                                 [--previous bench_e2e/results/full-1.json]

For each workload and end-to-end metric — the four gated ones and the
workload's own phase-level ones — the summary holds the ten values,
their median, and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  One traced run per workload adds the per-layer metrics.  The
file also records the host, the git commit and the configuration.

With ``--previous`` the set is compared with an earlier one of the same
commit: each end-to-end median against the earlier median (worse by
more than the metric's bound fails), each exact count for equality.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from e2e import inputs  # noqa: E402
from e2e.metrics import END_TO_END, EXACT_COUNTS, PHASE_LEVEL  # noqa: E402
from e2e.workloads import WORKLOADS  # noqa: E402
from run import RUN_SECONDS  # noqa: E402

SEEDS = tuple(range(1, 11))
TRACE_SEED = 1
#: A metric line of run.py's report: name, value, unit.
METRIC_LINE = re.compile(r"^   ([A-Za-z0-9_.-]+) +([-+0-9.eE]+|nan|inf) (\S+)$")


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    result["seed"] = seed
    # The report prints every metric; the result object holds only the
    # gated ones, so the phase-level values are read from the report.
    result["reported"] = {
        match[1]: float(match[2])
        for match in map(METRIC_LINE.match, lines) if match
    }
    if done.returncode != 0 or not result["correct"]:
        print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(name_better: str, now: float, before: float) -> float:
    """How much worse ``now`` is than ``before``, as a share of it."""
    change = (now - before) / before
    return change if name_better == "lower" else -change


def git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(BENCH_DIR), *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--previous",
                        help="an earlier run set of the same commit")
    args = parser.parse_args()
    previous = (json.loads(Path(args.previous).read_text())
                if args.previous else None)
    scale = inputs.FULL
    report = {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "note": "2 cores shared with the load generator; latencies "
                    "are the sandbox's, not a device's",
        },
        "git_commit": git("rev-parse", "HEAD"),
        # Non-empty when the measured tree differs from that commit.
        "git_uncommitted": git("status", "--short").splitlines(),
        "config": {
            "num_objects": scale.num_objects,
            "avg_readings": scale.avg_readings,
            "epsilon": scale.epsilon,
            "run_seconds": RUN_SECONDS,
            "setups": {w.name: w.SETUPS for w in WORKLOADS},
            "seeds": list(SEEDS),
        },
        "workloads": {},
    }
    worst = 0.0
    disagreements = []
    for workload in WORKLOADS:
        runs = [run_once(workload.name, seed, 0) for seed in SEEDS]
        before = previous["workloads"][workload.name] if previous else None
        summary = {}
        declared = [*END_TO_END,
                    *((*m, None) for m in PHASE_LEVEL[workload.name])]
        for name, unit, better, bound in declared:
            values = [run["reported"][name] if bound is None
                      else run["metrics"][name]["value"] for run in runs]
            entry = summary[name] = {
                "unit": unit, "better": better, "bound": bound,
                "median": statistics.median(values),
                "spread": spread(values), "values": values,
            }
            note = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, entry["spread"] / bound)
            if before:
                entry["worse_than_previous"] = worsening(
                    better, entry["median"],
                    before["end_to_end"][name]["median"])
                note = f" vs previous {entry['worse_than_previous']:+.1%}"
                if bound is not None and entry["worse_than_previous"] > bound:
                    disagreements.append(f"{workload.name} {name}")
            print(f"{workload.name:<24} {name:<18} "
                  f"median={entry['median']:<12.5g} "
                  f"spread={entry['spread']:6.1%} "
                  f"bound={'none' if bound is None else format(bound, '.0%')}"
                  f"{note}", flush=True)
        traced = run_once(workload.name, TRACE_SEED, 1)
        per_layer = {name: entry["value"]
                     for name, entry in traced["metrics"].items()}
        print(f"{workload.name:<24} traced: residual per request "
              f"{per_layer['trace.request_residual']:.3f}, per batch "
              f"{per_layer['trace.batch_tiling_residual']:.3f} vs replayed "
              f"call, {per_layer['trace.batch_residual']:.3f} vs live",
              flush=True)
        if before:
            disagreements.extend(
                f"{workload.name} {name}" for name in EXACT_COUNTS
                if per_layer[name] != before["per_layer"][name])
        report["workloads"][workload.name] = {
            "end_to_end": summary,
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "wall_s": [round(run["wall_s"], 1) for run in runs],
            "per_layer": per_layer,
            "per_layer_seed": TRACE_SEED,
            "traced_wall_s": round(traced["wall_s"], 1),
            "traced_failed": traced["failed"],
        }
    report["worst_spread_over_bound"] = worst
    if previous:
        report["previous"] = {"file": Path(args.previous).name,
                              "git_commit": previous["git_commit"],
                              "disagreements": disagreements}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"worst spread/bound {worst:.2f}; wrote {out}")
    for what in disagreements:
        print(f"DISAGREES with {args.previous}: {what}")
    failed = sum(sum(w["failed"]) + w["traced_failed"]
                 for w in report["workloads"].values())
    return 1 if failed or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
