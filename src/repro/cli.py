"""Command-line interface: generate data, build indexes, run queries.

Mirrors the workflow of the paper's experimental driver::

    repro generate temp --objects 500 --readings 80 -o temp.db
    repro build temp.db --method exact3 -o temp.exact3.idx
    repro query temp.exact3.idx --t1 1e5 --t2 3e5 -k 10
    repro compare temp.db --k 10            # all methods side by side
    repro info temp.exact3.idx

Also exposed as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.approximate import APPROXIMATE_METHODS
from repro.bench import evaluate_method, exact_reference, format_table
from repro.core import TopKQuery
from repro.core.database import TemporalDatabase
from repro.datasets import (
    generate_meme,
    generate_temp,
    random_queries,
    sample_workload,
)
from repro.exact import Exact1, Exact2, Exact3
from repro.parallel import ParallelExecutor
from repro.storage.persistence import read_payload, write_payload

_EXACT_METHODS = {"exact1": Exact1, "exact2": Exact2, "exact3": Exact3}


def _make_method(name: str, epsilon: float, kmax: int, executor=None):
    lower = name.lower()
    if lower in _EXACT_METHODS:
        return _EXACT_METHODS[lower]()
    upper = name.upper().replace("PLUS", "+")
    if upper in APPROXIMATE_METHODS:
        return APPROXIMATE_METHODS[upper](
            epsilon=epsilon, kmax=kmax, executor=executor
        )
    valid = sorted(_EXACT_METHODS) + sorted(APPROXIMATE_METHODS)
    raise SystemExit(f"unknown method {name!r}; choose from {valid}")


def cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "temp":
        db = generate_temp(
            num_objects=args.objects, avg_readings=args.readings, seed=args.seed
        )
    else:
        db = generate_meme(
            num_objects=args.objects, avg_records=args.readings, seed=args.seed
        )
    written = write_payload(args.output, db)
    print(f"wrote {db} to {args.output} ({written / 1e6:.1f} MB)")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    db = read_payload(args.database)
    if not isinstance(db, TemporalDatabase):
        raise SystemExit(f"{args.database} does not contain a database")
    method = _make_method(
        args.method, args.epsilon, args.kmax, ParallelExecutor(args.workers)
    )
    method.build(db)
    written = write_payload(args.output, method)
    print(
        f"built {method.name}: {method.index_size_bytes / 1e6:.2f} MB index, "
        f"{method.build_seconds:.2f}s; saved to {args.output} "
        f"({written / 1e6:.1f} MB)"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    method = read_payload(args.index)
    query = TopKQuery(args.t1, args.t2, args.k)
    cost = method.measured_query(query)
    print(f"{method.name} top-{args.k}({args.t1:g}, {args.t2:g}, sum):")
    for rank, item in enumerate(cost.result, start=1):
        print(f"  {rank:3d}. object {item.object_id:<8d} score {item.score:.6g}")
    print(f"cost: {cost.ios} IOs, {cost.seconds * 1e3:.2f} ms")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    db = read_payload(args.database)
    queries = random_queries(
        db, count=args.queries, interval_fraction=args.interval, k=args.k,
        seed=args.seed,
    )
    exact = exact_reference(db, queries)
    rows = []
    executor = ParallelExecutor(args.workers)
    methods = [Exact1(), Exact2(), Exact3()]
    for name in ("APPX1", "APPX2", "APPX2+"):
        methods.append(
            APPROXIMATE_METHODS[name](
                epsilon=args.epsilon, kmax=args.kmax, executor=executor
            )
        )
    for method in methods:
        report = evaluate_method(
            method, db, queries, exact, measure_quality=True
        )
        rows.append(report.row())
    print(format_table(f"all methods on {args.database}", rows))
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    """Serve a sampled batch through ``query_many`` (and verify it)."""
    import time

    method = read_payload(args.index)
    if not hasattr(method, "query_many"):
        raise SystemExit(f"{args.index} does not contain a ranking index")
    database = method.database
    batch = sample_workload(
        database, count=args.count, kmax=args.kmax, seed=args.seed
    )
    executor = ParallelExecutor(args.workers)
    start = time.perf_counter()
    results = method.query_many(batch, executor=executor)
    batched_seconds = time.perf_counter() - start
    print(
        f"{method.name}: {len(batch)} queries in {batched_seconds * 1e3:.1f} ms "
        f"({len(batch) / max(batched_seconds, 1e-12):,.0f} queries/s batched)"
    )
    if args.verify:
        start = time.perf_counter()
        expected = [method.query(query) for query in batch.as_queries()]
        scalar_seconds = time.perf_counter() - start
        agree = all(a == b for a, b in zip(expected, results))
        print(
            f"scalar loop: {scalar_seconds * 1e3:.1f} ms "
            f"({len(batch) / max(scalar_seconds, 1e-12):,.0f} queries/s); "
            f"speedup {scalar_seconds / max(batched_seconds, 1e-12):.1f}x; "
            f"answers {'identical' if agree else 'DIVERGED'}"
        )
        if not agree:
            return 1
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Serve a sampled batch through a partitioned cluster (and verify)."""
    import time

    from repro.distributed import (
        ObjectPartitionedCluster,
        TimePartitionedCluster,
    )

    db = read_payload(args.database)
    if not isinstance(db, TemporalDatabase):
        raise SystemExit(f"{args.database} does not contain a database")
    if args.protocol == "threshold" and args.partition != "time":
        raise SystemExit(
            "--protocol threshold requires --partition time "
            "(the TA runs over per-node partial aggregates)"
        )
    fault_plan = None
    retry_policy = None
    chaotic = args.fault_rate > 0.0 or args.crash_rate > 0.0
    if chaotic:
        from repro.faults import INSTANT_RETRY_POLICY, FaultPlan

        fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
        fault_plan = FaultPlan(
            seed=fault_seed,
            crash_rate=args.crash_rate,
            transient_rate=args.fault_rate,
        )
        retry_policy = INSTANT_RETRY_POLICY
    start = time.perf_counter()
    if args.partition == "object":
        cluster = ObjectPartitionedCluster(
            db,
            num_nodes=args.nodes,
            replicas=args.replicas,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )
    else:
        cluster = TimePartitionedCluster(
            db,
            num_nodes=args.nodes,
            replicas=args.replicas,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )
    build_seconds = time.perf_counter() - start
    batch = sample_workload(
        db, count=args.count, kmax=args.kmax, seed=args.seed
    )
    chaos_note = (
        f", replicas={args.replicas}, crash={args.crash_rate:g}, "
        f"transient={args.fault_rate:g}"
        if chaotic or args.replicas > 1
        else ""
    )
    print(
        f"{args.partition}-partitioned cluster: {cluster.num_nodes} nodes "
        f"over {db} (built in {build_seconds:.2f}s{chaos_note})"
    )
    cluster.comm.reset()
    start = time.perf_counter()
    if args.protocol == "threshold":
        # Lock-step batched TA: all queries advance rounds together.
        results = cluster.query_many(
            batch, protocol="threshold", batch_size=args.batch_size
        )
    else:
        results = cluster.query_many(batch)
    batched_seconds = time.perf_counter() - start
    batched_comm = cluster.comm.snapshot()
    rounds = (
        f", {len(cluster.comm.rounds)} TA rounds"
        if args.protocol == "threshold"
        else ""
    )
    print(
        f"query_many: {len(batch)} queries in {batched_seconds * 1e3:.1f} ms "
        f"({len(batch) / max(batched_seconds, 1e-12):,.0f} queries/s); "
        f"comm {batched_comm.messages} messages, {batched_comm.pairs} pairs "
        f"({batched_comm.bytes} bytes){rounds}"
    )
    if args.verify:
        cluster.comm.reset()
        if args.partition == "object":
            scalar_query = cluster.query
        elif args.protocol == "threshold":

            def scalar_query(t1, t2, k):
                return cluster.query_threshold(
                    t1, t2, k, batch_size=args.batch_size
                )

        else:
            scalar_query = cluster.query_scatter_gather
        start = time.perf_counter()
        expected = [
            scalar_query(float(t1), float(t2), int(k))
            for t1, t2, k in zip(batch.t1s, batch.t2s, batch.ks)
        ]
        scalar_seconds = time.perf_counter() - start
        # comm was reset before each run, so both snapshots count
        # from zero and compare directly.
        scalar_comm = cluster.comm.snapshot()
        if chaotic:
            # The scalar protocols talk to the bare shards (faults wrap
            # only the replica groups), so `expected` is the healthy
            # reference: a masked fault (retried transient, replica
            # failover) must still answer bit-for-bit identically, and
            # any divergence must be flagged degraded, never silent.
            degraded = sum(1 for r in results if r.degraded)
            agree = all(
                a == b or b.degraded for a, b in zip(expected, results)
            )
            exact = sum(1 for a, b in zip(expected, results) if a == b)
            print(
                f"verify vs healthy scalar protocol: {exact}/{len(results)} "
                f"bit-identical, {degraded} flagged degraded; "
                f"{'OK' if agree else 'SILENT DIVERGENCE'}"
            )
            if not agree:
                return 1
        else:
            agree = all(a == b for a, b in zip(expected, results))
            comm_agree = scalar_comm == batched_comm
            print(
                f"scalar protocol: {scalar_seconds * 1e3:.1f} ms "
                f"({len(batch) / max(scalar_seconds, 1e-12):,.0f} queries/s); "
                f"speedup {scalar_seconds / max(batched_seconds, 1e-12):.1f}x; "
                f"answers {'identical' if agree else 'DIVERGED'}; "
                f"comm bytes {'identical' if comm_agree else 'DIVERGED'}"
            )
            if not (agree and comm_agree):
                return 1
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Write a durable engine snapshot of a saved dataset.

    Builds EXACT3 (always; ``--approximate`` / ``--instant`` add the
    other indexes) and persists the whole engine as mmap-able segments
    plus a SQLite catalog.  Reopen with ``repro mount`` or
    ``repro serve --catalog`` — mounting rebuilds nothing.
    """
    import time

    from repro.engine import TemporalRankingEngine

    db = read_payload(args.database)
    if not isinstance(db, TemporalDatabase):
        raise SystemExit(f"{args.database} does not contain a database")
    start = time.perf_counter()
    engine = TemporalRankingEngine(db, epsilon=args.epsilon, kmax=args.kmax)
    t1, t2 = db.span
    if args.approximate:
        engine.top_k(t1, t2, 1, approximate=True)
    if args.instant:
        engine.instant_top_k((t1 + t2) / 2.0, 1)
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    engine.snapshot(args.output)
    snap_seconds = time.perf_counter() - start
    from pathlib import Path

    total = sum(f.stat().st_size for f in Path(args.output).iterdir())
    print(
        f"snapshotted {engine!r} to {args.output}: "
        f"{total / 1e6:.2f} MB in {snap_seconds:.2f}s "
        f"(indexes built in {build_seconds:.2f}s)"
    )
    return 0


def _rebuild_in_memory(mounted):
    """A fresh, fully in-memory copy of a mounted engine or cluster."""
    import numpy as np

    from repro.core import PiecewiseLinearFunction, TemporalObject
    from repro.distributed import (
        ObjectPartitionedCluster,
        TimePartitionedCluster,
    )
    from repro.engine import TemporalRankingEngine

    def fresh_db(database):
        objects = [
            TemporalObject(
                obj.object_id,
                PiecewiseLinearFunction(
                    np.array(obj.function.times, dtype=np.float64),
                    np.array(obj.function.values, dtype=np.float64),
                ),
                obj.label,
            )
            for obj in database
        ]
        return TemporalDatabase(
            objects, span=database.span, pad=database.padded
        )

    if isinstance(mounted, TemporalRankingEngine):
        engine = TemporalRankingEngine(
            fresh_db(mounted.database),
            epsilon=mounted.epsilon,
            kmax=mounted.kmax,
        )
        return engine, engine.database
    if isinstance(mounted, TimePartitionedCluster):
        db = fresh_db(mounted.database)
        return TimePartitionedCluster(db, mounted.num_nodes), db
    if isinstance(mounted, ObjectPartitionedCluster):
        objects = [obj for node in mounted.nodes for obj in node.database]
        objects.sort(key=lambda obj: obj.object_id)
        spans = [node.database.span for node in mounted.nodes]
        span = (min(s[0] for s in spans), max(s[1] for s in spans))
        db = TemporalDatabase(
            [
                TemporalObject(
                    obj.object_id,
                    PiecewiseLinearFunction(
                        np.array(obj.function.times, dtype=np.float64),
                        np.array(obj.function.values, dtype=np.float64),
                    ),
                    obj.label,
                )
                for obj in objects
            ],
            span=span,
            pad=mounted.nodes[0].database.padded,
        )
        return ObjectPartitionedCluster(db, mounted.num_nodes), db
    raise SystemExit(f"cannot verify a {type(mounted).__name__}")


def cmd_mount(args: argparse.Namespace) -> int:
    """Mount a snapshot directory (zero-copy, no index builds).

    ``--verify`` replays a full in-memory build of the same data and
    asserts the mounted answers are bit-identical.
    """
    import time

    from repro.engine import TemporalRankingEngine
    from repro.storage.snapshot import open_any

    start = time.perf_counter()
    mounted = open_any(args.path)
    open_seconds = time.perf_counter() - start
    print(f"mounted {mounted!r} from {args.path} in {open_seconds * 1e3:.1f} ms")
    if not args.verify:
        return 0
    rebuilt, db = _rebuild_in_memory(mounted)
    queries = random_queries(db, count=args.count, k=args.k, seed=args.seed)
    if isinstance(mounted, TemporalRankingEngine):
        expected = [rebuilt.exact.query(q) for q in queries]
        got = [mounted.exact.query(q) for q in queries]
        ios_expected = [rebuilt.exact.measured_query(q).ios for q in queries]
        ios_got = [mounted.exact.measured_query(q).ios for q in queries]
    else:
        expected = [rebuilt.query_many([q])[0] for q in queries]
        got = [mounted.query_many([q])[0] for q in queries]
        ios_expected = ios_got = []
    agree = all(a == b for a, b in zip(expected, got))
    ios_agree = ios_expected == ios_got
    print(
        f"verify against in-memory rebuild: answers "
        f"{'identical' if agree else 'DIVERGED'}, IO charges "
        f"{'identical' if ios_agree else 'DIVERGED'} "
        f"({len(queries)} queries)"
    )
    return 0 if agree and ios_agree else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve top-k requests through the micro-batching coordinator.

    The engine comes from ``--catalog <snapshot-dir>`` (mounted
    zero-copy, no index builds) or from a saved dataset file (indexes
    built on startup).  Requests come from ``--demo N`` (a seeded
    sampled workload) or from stdin, one ``t1 t2 k`` triple per line.
    Answers are printed per request; micro-batching statistics follow.
    """
    import asyncio

    from repro.engine import TemporalRankingEngine
    from repro.serving import EngineBackend, ServingCoordinator

    if args.catalog is not None:
        engine = TemporalRankingEngine.open(args.catalog)
        db = engine.database
    elif args.database is not None:
        db = read_payload(args.database)
        if not isinstance(db, TemporalDatabase):
            raise SystemExit(f"{args.database} does not contain a database")
        engine = TemporalRankingEngine(db, kmax=args.kmax)
    else:
        raise SystemExit("serve needs a database file or --catalog <dir>")
    backend = EngineBackend(engine, approximate=args.approximate)
    if args.demo:
        batch = sample_workload(
            db, count=args.demo, kmax=min(args.kmax, 10), seed=args.seed
        )
        requests = [
            (float(t1), float(t2), int(k))
            for t1, t2, k in zip(batch.t1s, batch.t2s, batch.ks)
        ]
    else:
        requests = []
        for line in sys.stdin:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise SystemExit(f"expected 't1 t2 k', got {line.rstrip()!r}")
            requests.append((float(parts[0]), float(parts[1]), int(parts[2])))
    if not requests:
        print("no requests")
        return 0

    deadline = args.deadline_ms / 1e3 if args.deadline_ms else None
    # With a process pool, a --catalog snapshot is reused as the
    # workers' first mount (no second snapshot write on startup).
    pool_snapshot = args.catalog if args.workers > 1 else None

    async def run():
        coordinator = ServingCoordinator(
            backend,
            max_batch=args.max_batch,
            max_delay=args.max_delay,
            request_deadline=deadline,
            workers=args.workers,
            pool_snapshot=pool_snapshot,
        )
        async with coordinator:
            answers = await asyncio.gather(
                *[coordinator.top_k(t1, t2, k) for t1, t2, k in requests],
                return_exceptions=True,
            )
        return coordinator, answers

    coordinator, answers = asyncio.run(run())
    from repro.core.errors import DeadlineExceeded

    for (t1, t2, k), result in zip(requests, answers):
        if isinstance(result, DeadlineExceeded):
            print(f"top-{k}({t1:g}, {t2:g}) -> DEADLINE EXCEEDED")
            continue
        if isinstance(result, BaseException):
            raise result
        tops = ", ".join(
            f"{item.object_id}:{item.score:.6g}" for item in result
        )
        print(f"top-{k}({t1:g}, {t2:g}) -> [{tops}]")
    stats = coordinator.stats
    failed = f", {stats.failed} failed" if stats.failed else ""
    pooled = (
        f", {stats.pool_dispatches} pool dispatches across "
        f"{args.workers} workers"
        if args.workers > 1
        else ""
    )
    print(
        f"served {stats.requests} requests in {stats.batches} micro-batches "
        f"(mean {stats.mean_batch:.1f}/batch, {stats.cache_hits} cache "
        f"hits, {stats.deduped} deduped{failed}{pooled})"
    )
    if args.stats_json:
        import json
        from pathlib import Path

        text = json.dumps(coordinator.metrics(), indent=2, sort_keys=True)
        if args.stats_json == "-":
            print(text)
        else:
            Path(args.stats_json).write_text(text + "\n")
            print(f"metrics -> {args.stats_json}")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop Poisson load against the serving tier (SLO numbers)."""
    import asyncio

    from repro.engine import TemporalRankingEngine
    from repro.serving import DirectClient, EngineBackend, ServingCoordinator
    from repro.serving.loadgen import plan_poisson_load, run_open_loop

    db = read_payload(args.database)
    if not isinstance(db, TemporalDatabase):
        raise SystemExit(f"{args.database} does not contain a database")
    engine = TemporalRankingEngine(db, kmax=args.kmax)
    backend = EngineBackend(engine, approximate=args.approximate)
    t1, t2 = db.span
    # Warm any lazily built index outside the measured runs.
    engine.top_k(t1, t2, 1, approximate=args.approximate)
    status = 0
    for rate_text in args.rates.split(","):
        rate = float(rate_text)
        plan = plan_poisson_load(
            db, count=args.count, rate=rate, kmax=args.qk, seed=args.seed
        )

        async def run():
            outcomes = {}
            if args.mode in ("micro", "both"):
                coordinator = ServingCoordinator(
                    backend,
                    max_batch=args.max_batch,
                    max_delay=args.max_delay,
                )
                async with coordinator:
                    outcomes["micro"] = await run_open_loop(coordinator, plan)
            if args.mode in ("direct", "both"):
                async with DirectClient(backend) as client:
                    outcomes["direct"] = await run_open_loop(client, plan)
            return outcomes

        outcomes = asyncio.run(run())
        for mode, result in outcomes.items():
            summary = result.summary()
            print(
                f"rate {rate:9,.0f}/s {mode:>6}: "
                f"{summary['throughput_qps']:10,.0f} qps  "
                f"p50 {summary['p50_ms']:8.2f} ms  "
                f"p99 {summary['p99_ms']:8.2f} ms"
            )
        if len(outcomes) == 2:
            speedup = outcomes["micro"].throughput / max(
                outcomes["direct"].throughput, 1e-12
            )
            print(f"  micro/direct speedup {speedup:.2f}x")
    return status


def cmd_info(args: argparse.Namespace) -> int:
    payload = read_payload(args.path)
    if isinstance(payload, TemporalDatabase):
        print(f"database: {payload}")
        print(f"  m={payload.num_objects} N={payload.total_segments} "
              f"navg={payload.avg_segments:.0f} M={payload.total_mass:.4g}")
    else:
        print(f"index: {payload!r}")
        if hasattr(payload, "index_size_bytes"):
            print(f"  size: {payload.index_size_bytes / 1e6:.2f} MB")
        if hasattr(payload, "breakpoints") and payload.breakpoints is not None:
            bp = payload.breakpoints
            print(f"  breakpoints: r={bp.r} eps={bp.epsilon:.3g} ({bp.method})")
    return 0


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads for the QUERY1 build and EXACT3 batches "
        "(default: 1, inline)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ranking Large Temporal Data — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    p_gen.add_argument("dataset", choices=["temp", "meme"])
    p_gen.add_argument("--objects", type=int, default=500)
    p_gen.add_argument("--readings", type=int, default=80)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_build = sub.add_parser("build", help="build an index over a dataset")
    p_build.add_argument("database")
    p_build.add_argument("--method", default="exact3")
    p_build.add_argument("--epsilon", type=float, default=1e-4)
    p_build.add_argument("--kmax", type=int, default=50)
    p_build.add_argument("-o", "--output", required=True)
    _add_workers_option(p_build)
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="run one aggregate top-k query")
    p_query.add_argument("index")
    p_query.add_argument("--t1", type=float, required=True)
    p_query.add_argument("--t2", type=float, required=True)
    p_query.add_argument("-k", type=int, default=10)
    p_query.set_defaults(func=cmd_query)

    p_cmp = sub.add_parser("compare", help="compare all methods on a dataset")
    p_cmp.add_argument("database")
    p_cmp.add_argument("-k", type=int, default=10)
    p_cmp.add_argument("--queries", type=int, default=10)
    p_cmp.add_argument("--interval", type=float, default=0.2)
    p_cmp.add_argument("--epsilon", type=float, default=1e-4)
    p_cmp.add_argument("--kmax", type=int, default=50)
    p_cmp.add_argument("--seed", type=int, default=0)
    _add_workers_option(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_load = sub.add_parser(
        "workload", help="serve a sampled query batch via query_many"
    )
    p_load.add_argument("index")
    p_load.add_argument("--count", type=int, default=256)
    p_load.add_argument("--kmax", type=int, default=10)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--verify",
        action="store_true",
        help="also run the scalar loop and check answers are identical",
    )
    _add_workers_option(p_load)
    p_load.set_defaults(func=cmd_workload)

    p_cluster = sub.add_parser(
        "cluster", help="serve a sampled batch through a partitioned cluster"
    )
    p_cluster.add_argument("database")
    p_cluster.add_argument("--nodes", type=int, default=4)
    p_cluster.add_argument(
        "--partition", choices=["object", "time"], default="object"
    )
    p_cluster.add_argument("--count", type=int, default=256)
    p_cluster.add_argument("--kmax", type=int, default=10)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument(
        "--protocol",
        choices=["scatter", "threshold"],
        default="scatter",
        help="time-partition protocol: scatter-gather (default) or the "
        "lock-step batched threshold algorithm",
    )
    p_cluster.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="TA sorted-access batch size (threshold protocol only)",
    )
    p_cluster.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="serving endpoints per shard (failover masks dead replicas)",
    )
    p_cluster.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-call transient fault probability (masked by retry)",
    )
    p_cluster.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="per-call replica crash probability (masked by failover "
        "while a replica survives; flagged degraded otherwise)",
    )
    p_cluster.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="fault-plan seed (default: --seed); same seed, same faults",
    )
    p_cluster.add_argument(
        "--verify",
        action="store_true",
        help="also run the scalar protocol and check answers and comm "
        "bytes are identical (under faults: check every non-degraded "
        "answer matches the healthy protocol bit-for-bit)",
    )
    p_cluster.set_defaults(func=cmd_cluster)

    p_snap = sub.add_parser(
        "snapshot",
        help="write a durable engine snapshot (segments + catalog)",
    )
    p_snap.add_argument("database", help="a saved dataset file (see generate)")
    p_snap.add_argument("-o", "--output", required=True, metavar="DIR")
    p_snap.add_argument(
        "--approximate", action="store_true", help="also build APPX2+"
    )
    p_snap.add_argument(
        "--instant", action="store_true", help="also build the instant engine"
    )
    p_snap.add_argument("--epsilon", type=float, default=1e-4)
    p_snap.add_argument("--kmax", type=int, default=50)
    p_snap.set_defaults(func=cmd_snapshot)

    p_mount = sub.add_parser(
        "mount", help="mount a snapshot directory (zero-copy, no builds)"
    )
    p_mount.add_argument("path", metavar="DIR")
    p_mount.add_argument(
        "--verify",
        action="store_true",
        help="replay a full in-memory build and assert bit-identical answers",
    )
    p_mount.add_argument("--count", type=int, default=32)
    p_mount.add_argument("-k", type=int, default=10)
    p_mount.add_argument("--seed", type=int, default=0)
    p_mount.set_defaults(func=cmd_mount)

    p_serve = sub.add_parser(
        "serve",
        help="serve top-k requests through the micro-batching coordinator",
    )
    p_serve.add_argument(
        "database", nargs="?", default=None,
        help="a saved dataset file (or use --catalog)",
    )
    p_serve.add_argument(
        "--catalog",
        default=None,
        metavar="DIR",
        help="mount this snapshot directory instead of building indexes",
    )
    p_serve.add_argument(
        "--demo",
        type=int,
        default=0,
        metavar="N",
        help="serve N sampled demo requests instead of reading stdin",
    )
    p_serve.add_argument(
        "--approximate", action="store_true", help="serve through APPX2+"
    )
    p_serve.add_argument("--kmax", type=int, default=50)
    p_serve.add_argument("--max-batch", type=int, default=64)
    p_serve.add_argument(
        "--max-delay", type=float, default=0.002,
        help="micro-batch accumulation deadline, seconds",
    )
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="per-request deadline in milliseconds (0: none); overruns "
        "fail with a structured DeadlineExceeded",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="execution worker processes; N>1 snapshots the engine and "
        "dispatches micro-batches to a process pool over mmap mounts "
        "(answers stay bit-identical)",
    )
    p_serve.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="dump Prometheus-style serving counters as JSON on exit "
        "('-' for stdout)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load against the serving tier",
    )
    p_loadgen.add_argument("database")
    p_loadgen.add_argument(
        "--rates",
        type=str,
        default="1000,4000",
        help="comma-separated offered loads (requests/second)",
    )
    p_loadgen.add_argument("--count", type=int, default=300)
    p_loadgen.add_argument(
        "--mode", choices=["micro", "direct", "both"], default="both"
    )
    p_loadgen.add_argument(
        "--approximate", action="store_true", help="serve through APPX2+"
    )
    p_loadgen.add_argument("--kmax", type=int, default=50)
    p_loadgen.add_argument(
        "--qk", type=int, default=10, help="max per-query k in the workload"
    )
    p_loadgen.add_argument("--max-batch", type=int, default=128)
    p_loadgen.add_argument(
        "--max-delay", type=float, default=0.002,
        help="micro-batch accumulation deadline, seconds",
    )
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.set_defaults(func=cmd_loadgen)

    p_info = sub.add_parser("info", help="inspect a saved dataset or index")
    p_info.add_argument("path")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
