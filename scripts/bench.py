#!/usr/bin/env python
"""The repo's micro-benchmark suites: one command, one schema, one gate.

``bench_e2e/`` is the end-to-end yardstick (served, pooled, restart,
offline-batched and clustered workloads at m=10^4, every answer
checked).  This script keeps only the three measurements it does not
cover, each on a generated Temp-like database:

* ``kernel`` — scalar-vs-batch scoring (``PLFStore.integrals_many``),
  BREAKPOINTS1, and BREAKPOINTS2 by the paper's efficient sweep vs the
  kernel-batched reset baseline;
* ``build``  — per breakpoint budget ``r``: QUERY1 / QUERY2 /
  BREAKPOINTS2 builds, scalar vs batched (inline), and the QUERY1
  build under its automatic two-thread split rule; plus 16- and
  64-row batches of the three kernels that split their rows — EXACT3
  ``top_k_many``, the instant tree's ``query_many`` and a 4-node
  time cluster's ``query_many`` — forced inline vs the automatic
  split (the ``q=16`` and ``q=64`` points);
* ``chaos``  — replicated object- and time-partitioned clusters served
  query by query at a sweep of per-call fault rates (transient rate
  ``x``, permanent crash rate ``x / 40``, fresh cluster per rate):
  latency, recall vs the healthy cluster, degraded count, and the
  resilience contract — **zero silent divergence**, recall 1 at rate
  0, recall >= ``--min-recall`` at the top rate.

Usage::

    PYTHONPATH=src python scripts/bench.py <suite> [--smoke]
        [--m 1000] [--navg 60] [--seed 0]
        [--baseline BENCH_<suite>.json] [--max-regression 2.0]
        [suite flags: see ``bench.py <suite> --help``]

Every suite prints one JSON object — ``bench``, ``config``, ``host``,
``git_sha`` and ``results``, a list of labelled points (``"kernel"``,
``"r=40"``, ``"object/rate=0.2"``) — which is what the committed
``BENCH_<suite>.json`` trajectories hold.  ``--smoke`` is the fixed
tiny config CI runs.  With ``--baseline`` the run is gated by
``repro.bench.gating.check_baseline`` against the newest committed
entry with the same config: exit 1 when a gated timing or ratio
regressed more than ``--max-regression`` x, exit 2 when no committed
entry has this config (a drifted CI flag must not silently stop
gating).  A failed contract check exits 1 whatever the baseline says.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time
from typing import Callable, List, NamedTuple, Tuple


def timed(fn, repeats: int = 1):
    """Best-of-``repeats`` wall time (and the last result)."""
    best, result = float("inf"), None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _database(args):
    from repro.datasets import generate_temp

    return generate_temp(
        num_objects=args.m, avg_readings=args.navg, seed=args.seed
    )


def _config(args, *names: str) -> dict:
    """The machine-independent workload shape baselines are matched on."""
    shared = ("m", "navg", "seed", "smoke")
    return {name: getattr(args, name) for name in shared + names}


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------
def run_kernel(args) -> Tuple[dict, List[dict]]:
    from repro.approximate.breakpoints import (
        build_breakpoints1,
        build_breakpoints2,
        build_breakpoints2_baseline,
        epsilon_for_budget,
    )
    from repro.bench.harness import kernel_microbenchmark

    database = _database(args)
    point = {
        "label": "kernel",
        **kernel_microbenchmark(
            database, num_queries=args.queries, seed=args.seed,
            repeats=args.repeats,
        ),
    }
    point["bp1_seconds"], bp1 = timed(
        lambda: build_breakpoints1(database, r=args.r), args.repeats
    )
    epsilon = epsilon_for_budget(
        database, args.r, tolerance=max(2, args.r // 20)
    )
    point["bp2_seconds"], bp2 = timed(
        lambda: build_breakpoints2(database, epsilon), args.repeats
    )
    point["bp2_baseline_seconds"], _ = timed(
        lambda: build_breakpoints2_baseline(database, epsilon), args.repeats
    )
    point["bp2_baseline_speedup"] = point["bp2_baseline_seconds"] / max(
        point["bp2_seconds"], 1e-12
    )
    point["bp1_r"], point["bp2_r"] = bp1.r, bp2.r
    return _config(args, "queries", "r", "repeats"), [point]


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
@contextlib.contextmanager
def inline():
    """The automatic two-thread splits (the row splits of EXACT3
    batches, the cumulative kernel and the instant tree; the QUERY1
    build) switched off: their thresholds moved out of reach."""
    from repro.approximate import query1
    from repro.parallel import executor

    saved = query1.SPLIT_WORK, executor.SPLIT_WORK
    query1.SPLIT_WORK = executor.SPLIT_WORK = float("inf")
    try:
        yield
    finally:
        query1.SPLIT_WORK, executor.SPLIT_WORK = saved


def build_point(database, r: int, kmax: int, repeats: int, split: bool) -> dict:
    """Scalar / batched / automatic-split build timings at one budget ``r``.

    Batched builds run inline, best-of-``repeats``; the scalar
    references (seconds each at r~200) run once and only feed the
    speedup columns.  With ``split`` the QUERY1 build runs again under
    its automatic split rule (``query1_parallel_*``, equal to inline
    below the rule's threshold); without it those keys are absent.
    """
    from repro.approximate.breakpoints import (
        build_breakpoints1,
        build_breakpoints2,
        epsilon_for_budget,
    )
    from repro.approximate.dyadic import DyadicIndex
    from repro.approximate.query1 import NestedPairIndex
    from repro.storage.device import BlockDevice

    bp1_s, bp1 = timed(lambda: build_breakpoints1(database, r=r), repeats)
    epsilon = epsilon_for_budget(database, r, tolerance=max(2, r // 20))
    builders = {
        "query1": lambda **how: NestedPairIndex(
            BlockDevice(), bp1, kmax
        ).build(database, **how),
        "query2": lambda **how: DyadicIndex(BlockDevice(), bp1, kmax).build(
            database, **how
        ),
        "bp2": lambda **how: build_breakpoints2(database, epsilon, **how),
    }
    point = {
        "label": f"r={r}",
        "bp1_s": bp1_s,
        "bp1_r": bp1.r,
        "bp2_epsilon": epsilon,
    }
    for name, build in builders.items():
        with inline():
            batched_s, built = timed(lambda: build(batched=True), repeats)
        scalar_s, _ = timed(lambda: build(batched=False))
        point[f"{name}_batched_s"] = batched_s
        point[f"{name}_scalar_s"] = scalar_s
        point[f"{name}_speedup"] = scalar_s / max(batched_s, 1e-12)
    if split:
        parallel_s, _ = timed(
            lambda: builders["query1"](batched=True), repeats
        )
        point["query1_parallel_s"] = parallel_s
        point["query1_parallel_speedup"] = point["query1_batched_s"] / max(
            parallel_s, 1e-12
        )
    point["bp2_r"] = built.r
    return point


def batch_point(
    engine, cluster, rows: int, kmax: int, repeats: int, seed: int,
    split: bool,
) -> dict:
    """``rows``-row batches of the kernels that split their rows —
    EXACT3 ``top_k_many``, the instant tree's and the time
    ``cluster``'s ``query_many`` — inline and (with ``split``) under
    the automatic split rule."""
    from repro.datasets import sample_instant_workload, sample_workload

    database = engine.database
    batch = sample_workload(database, count=rows, kmax=kmax, seed=seed)
    ts, ks = sample_instant_workload(database, count=rows, kmax=kmax, seed=seed)
    runs = {
        "exact3": lambda: engine.top_k_many(batch),
        "instant": lambda: engine.instant_top_k_many(ts, ks),
        "cluster_time": lambda: cluster.query_many(batch),
    }
    point = {"label": f"q={rows}"}
    for name, run in runs.items():
        key = f"{name}_q{rows}"
        with inline():
            point[f"{key}_s"], _ = timed(run, repeats)
        if split:
            parallel_s, _ = timed(run, repeats)
            point[f"{key}_parallel_s"] = parallel_s
            point[f"{key}_parallel_speedup"] = point[f"{key}_s"] / max(
                parallel_s, 1e-12
            )
    return point


def run_build(args) -> Tuple[dict, List[dict]]:
    from repro.engine import TemporalRankingEngine
    from repro.parallel import executor

    # Decided at measurement time: on one usable CPU the rule never
    # splits, so a split point would time the inline path twice; it is
    # left out of the report (and the gate skips keys absent on either
    # side) rather than recorded as a 1x "speedup".
    split = executor.usable_cpus() >= 2
    database = _database(args)
    points = [
        build_point(database, r, args.kmax, args.repeats, split)
        for r in args.r_list
    ]
    engine = TemporalRankingEngine(database)
    engine.prepare(instant=True)
    cluster = engine.cluster(4, partition="time")
    points.extend(
        batch_point(
            engine, cluster, rows, args.kmax, args.repeats, args.seed, split
        )
        for rows in (16, 64)
    )
    return _config(args, "r_list", "kmax", "repeats"), points


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
def chaos_point(make_cluster, batch, reference, rate: float, seed: int) -> dict:
    """Serve the workload query-by-query through one chaotic cluster."""
    import numpy as np

    from repro.bench.metrics import precision_recall
    from repro.datasets.workload import WorkloadBatch
    from repro.faults import INSTANT_RETRY_POLICY, FaultPlan

    plan = None
    if rate > 0.0:
        plan = FaultPlan(
            seed=seed, crash_rate=rate / 40.0, transient_rate=rate
        )
    cluster = make_cluster(
        fault_plan=plan, retry_policy=INSTANT_RETRY_POLICY
    )
    latencies = []
    results = []
    # One query per call: the latency distribution is per-request, the
    # way a serving tier would see it (batching would hide the tail).
    for t1, t2, k in zip(batch.t1s, batch.t2s, batch.ks):
        single = WorkloadBatch(t1s=t1[None], t2s=t2[None], ks=k[None])
        start = time.perf_counter()
        results.append(cluster.query_many(single)[0])
        latencies.append(time.perf_counter() - start)
    degraded = [r for r in results if r.degraded]
    # Recall vs healthy: the fraction of the healthy top-k recovered.
    recalls = [
        precision_recall(got, want) for got, want in zip(results, reference)
    ]
    return {
        "p50_ms": float(np.quantile(latencies, 0.50)) * 1e3,
        "p99_ms": float(np.quantile(latencies, 0.99)) * 1e3,
        "recall": sum(recalls) / len(recalls),
        "degraded": len(degraded),
        "mean_degraded_coverage": (
            sum(r.coverage for r in degraded) / len(degraded)
            if degraded
            else 1.0
        ),
        "silent_divergence": sum(
            1
            for got, want in zip(results, reference)
            if got != want and not got.degraded
        ),
        "dead_replicas": sum(
            1
            for group in cluster.groups
            for endpoint in group.endpoints
            if getattr(endpoint, "dead", False)
        ),
        "comm_degraded_queries": cluster.comm.degraded_queries,
    }


def run_chaos(args) -> Tuple[dict, List[dict]]:
    from functools import partial

    from repro.datasets import sample_workload
    from repro.distributed import (
        ObjectPartitionedCluster,
        TimePartitionedCluster,
    )

    database = _database(args)
    batch = sample_workload(
        database, count=args.batch, kmax=args.qk, seed=args.seed
    )
    points = []
    for kind, cluster_cls in (
        ("object", ObjectPartitionedCluster),
        ("time", TimePartitionedCluster),
    ):
        make_cluster = partial(
            cluster_cls, database, args.nodes, replicas=args.replicas
        )
        reference = make_cluster().query_many(batch)
        for rate in args.rates:
            points.append(
                {
                    "label": f"{kind}/rate={rate:g}",
                    "rate": rate,
                    **chaos_point(
                        make_cluster, batch, reference, rate, args.seed
                    ),
                }
            )
    config = _config(
        args, "nodes", "replicas", "batch", "qk", "rates", "min_recall"
    )
    return config, points


def chaos_contract(points: List[dict], args) -> List[str]:
    """The resilience contract, as failure lines (empty when it holds)."""
    failures = []
    top_rate = max(args.rates)
    for point in points:
        label, rate = point["label"], point["rate"]
        if point["silent_divergence"]:
            failures.append(
                f"{label}: {point['silent_divergence']} answers diverged "
                "from healthy without a degraded flag"
            )
        if rate == 0.0 and point["recall"] < 1.0:
            failures.append(f"{label}: recall {point['recall']:.3f} < 1.0")
        if rate == top_rate > 0.0 and point["recall"] < args.min_recall:
            failures.append(
                f"{label}: recall {point['recall']:.3f} below the "
                f"{args.min_recall} floor"
            )
    return failures


# ----------------------------------------------------------------------
# the suite table
# ----------------------------------------------------------------------
def no_contract(points: List[dict], args) -> List[str]:
    return []


class Suite(NamedTuple):
    """One registered suite: how to run it and what the gate holds.

    ``gated_keys`` are wall-clock keys (batched / efficient paths
    only — scalar references just feed the ratios) gated above the
    noise floor; ``gated_ratios`` compare two paths within one run, so
    they normalize away the recording machine's speed and are always
    gated.  ``contract`` returns hard failures that need no baseline.
    ``smoke`` is the fixed tiny config ``--smoke`` switches to.
    """

    run: Callable[[argparse.Namespace], Tuple[dict, List[dict]]]
    gated_keys: Tuple[str, ...]
    gated_ratios: Tuple[str, ...]
    smoke: dict
    contract: Callable[[List[dict], argparse.Namespace], List[str]] = (
        no_contract
    )


SUITES = {
    "kernel": Suite(
        run_kernel,
        gated_keys=("batch_seconds", "bp1_seconds", "bp2_seconds"),
        gated_ratios=("speedup", "bp2_baseline_speedup"),
        smoke=dict(m=120, navg=20, queries=4, r=12),
    ),
    "build": Suite(
        run_build,
        gated_keys=(
            "query1_batched_s", "query2_batched_s", "bp1_s", "bp2_batched_s",
            "query1_parallel_s",
        ),
        gated_ratios=(
            "query1_speedup", "bp2_speedup", "query1_parallel_speedup",
            "exact3_q16_parallel_speedup", "exact3_q64_parallel_speedup",
            "instant_q16_parallel_speedup", "instant_q64_parallel_speedup",
            "cluster_time_q16_parallel_speedup",
            "cluster_time_q64_parallel_speedup",
        ),
        # Every smoke shape sits below both split thresholds, so the
        # split points time the inline path (ratios ~1).
        smoke=dict(m=300, navg=30, kmax=60, r_list=[40], repeats=3),
    ),
    "chaos": Suite(
        run_chaos,
        gated_keys=(),
        gated_ratios=(),
        smoke=dict(m=200, navg=25, qk=10, batch=64),
        contract=chaos_contract,
    ),
}


def git_sha():
    """``git describe`` of the checkout (``-dirty`` marked), or None."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def run_suite(name: str, args) -> dict:
    """Run one registered suite; the report in the one schema."""
    from repro.bench.gating import host_metadata

    config, points = SUITES[name].run(args)
    return {
        "bench": name,
        "config": config,
        # Host facts and the commit live beside (not inside) config:
        # baseline matching keys on the workload shape only.
        "host": host_metadata(),
        "git_sha": git_sha(),
        "results": points,
    }


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def parse_args(argv=None) -> argparse.Namespace:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--m", type=int, default=1000, help="objects")
    shared.add_argument("--navg", type=int, default=60, help="avg readings")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument(
        "--smoke", action="store_true",
        help="the suite's fixed tiny config (what CI runs)",
    )
    shared.add_argument(
        "--baseline", default=None,
        help="committed BENCH_<suite>.json trajectory to gate this run on",
    )
    shared.add_argument("--max-regression", type=float, default=2.0)
    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument(
        "--repeats", type=int, default=3, help="best-of-N for each timing"
    )

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    suites = parser.add_subparsers(dest="suite", required=True)
    kernel = suites.add_parser("kernel", parents=[shared, timing])
    kernel.add_argument("--queries", type=int, default=8)
    kernel.add_argument("--r", type=int, default=40, help="breakpoint budget")

    build = suites.add_parser("build", parents=[shared, timing])
    build.add_argument(
        "--r-list", type=_int_list, default=[50, 100, 200],
        help="comma-separated breakpoint budgets",
    )
    build.add_argument("--kmax", type=int, default=200)

    chaos = suites.add_parser("chaos", parents=[shared])
    chaos.add_argument("--nodes", type=int, default=4)
    chaos.add_argument("--replicas", type=int, default=2)
    chaos.add_argument("--batch", type=int, default=256, help="workload size")
    chaos.add_argument(
        "--qk", type=int, default=20, help="max per-query k in the workload"
    )
    chaos.add_argument(
        "--rates", type=_float_list, default=[0.0, 0.05, 0.2],
        help="comma-separated per-call fault rates",
    )
    chaos.add_argument(
        "--min-recall", type=float, default=0.5,
        help="recall floor gated at the highest fault rate",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        vars(args).update(SUITES[args.suite].smoke)
    return args


def main(argv=None) -> int:
    from repro.bench.gating import check_baseline

    args = parse_args(argv)
    suite = SUITES[args.suite]
    report = run_suite(args.suite, args)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    failures = suite.contract(report["results"], args)
    for line in failures:
        print(f"CONTRACT: {line}", file=sys.stderr)
    if failures:
        return 1
    if args.baseline is None:
        return 0
    with open(args.baseline) as handle:
        history = json.load(handle)
    return check_baseline(report, history, suite, args.max_regression)


if __name__ == "__main__":
    sys.exit(main())
