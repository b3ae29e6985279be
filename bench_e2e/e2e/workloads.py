"""The four workloads.

Each workload is one class with the same five steps:

``setup``      build everything the workload needs from the seed (timed
               as a whole: ``setup_s``; per-component times in
               ``state.parts``),
``measure``    run the timed phases for ``--seconds`` in total, with or
               without the tracing proxies,
``check``      compare answers with direct calls; a wrong answer is a
               failed operation,
``layers``     (traced run) per-layer metrics from spans, counters and
               replays of the recorded batches,
``teardown``   stop what ``setup`` started.

Every workload reports the same four gated end-to-end metrics:
``read_p50_ms`` comes from its *latency phase*, ``qps`` from its
*throughput phase*; the docstrings say which phases those are and
whether they are open or closed loop.  ``phase_level`` adds the
workload's own end-to-end metrics under the issue's names
(``metrics.PHASE_LEVEL``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
from contextlib import suppress
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

import repro
from repro.serving import EngineBackend, ServingCoordinator, ServingProcessPool

from e2e import checks, inputs, layers
from e2e.loadgen import Phase, caller_loop, clock, closed_loop, open_loop
from e2e.setup import Context, build_engine, timed
from e2e.tracing import (
    TracedBackend,
    TracedPool,
    Tracer,
    attach_resolved,
    calls_within,
    split_requests,
)

#: Served answers checked per phase against a direct call.  The APPX
#: path answers ~20k q/s directly, EXACT3 ~300 q/s, so the caps differ.
CHECK_LIMIT_APPX = 20_000
CHECK_LIMIT_EXACT = 384


@dataclass(repr=False)
class Outcome:
    phases: Dict[str, Phase]
    latency_phase: str
    throughput_phase: str
    #: Workload-specific raw observations (counters, timestamps, the
    #: tracing proxies) consumed by ``check`` and ``layers``.
    extras: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{count} x {what}")


def stats_delta(after, before) -> dict:
    after, before = dataclasses.asdict(after), dataclasses.asdict(before)
    return {name: after[name] - before[name] for name in after}


def phase_failures(outcome: Outcome) -> None:
    """Count every timed operation, and those that raised."""
    for phase in outcome.phases.values():
        outcome.attempted += phase.attempted * phase.width
        outcome.fail(len(phase.errors) * phase.width,
                     f"{phase.name}: raised {phase.errors[:1]}")


def check_served(outcome, phase, table, reference_many, limit) -> None:
    """Served answers bit-identical to a direct batched call."""
    picks = checks.strided_sample(phase.attempted, limit)
    picks = picks[phase.done[picks]]
    references = []
    for lo in range(0, picks.size, 512):
        rows = phase.rows[picks[lo : lo + 512]]
        references.extend(reference_many(inputs.take(table, rows)))
    answers = [phase.answers[i] for i in picks]
    outcome.fail(checks.mismatches(answers, references),
                 f"{phase.name}: answer differs from the direct call")


def coordinator_layers(
    outcome: Outcome, table, calls, tracer: Tracer, stats: dict
) -> tuple:
    """The latency phase's request split, and ``serving.coordinator.*``
    from it (``stats``: the coordinator's counters over that phase) and
    from the throughput phase's non-backend time."""
    main = outcome.phases[outcome.latency_phase]
    sat = outcome.phases[outcome.throughput_phase]
    main_calls = calls_within(calls, main)
    split = split_requests(main, table, main_calls, tracer)
    busy = sum(call.end - call.start for call in main_calls)
    sat_busy = sum(call.end - call.start for call in calls_within(calls, sat))
    answered = max(int(sat.done.sum()), 1)
    linked = split.latency.size
    return split, {
        "serving.coordinator.queue_wait_ms_p50": layers.median(split.queue_wait),
        "serving.coordinator.executor_wait_ms_p50":
            layers.median(split.executor_wait),
        "serving.coordinator.deliver_ms_p50": layers.median(split.deliver),
        "serving.coordinator.mean_batch":
            stats["requests"] / max(stats["batches"], 1),
        "serving.coordinator.batches": stats["batches"],
        "serving.coordinator.size_flushes": stats["size_flushes"],
        "serving.coordinator.deadline_flushes": stats["deadline_flushes"],
        "serving.coordinator.backend_busy_frac": busy / max(main.wall, 1e-9),
        # With one execution thread, wall minus backend time is what the
        # serving layer itself costs per answered request at saturation
        # (with the pool, dispatches overlap and this goes negative).
        "serving.coordinator.overhead_us_per_req":
            (sat.wall - sat_busy) / answered * 1e6,
        "trace.linked_frac":
            linked / max(linked + split.unlinked_latency.size, 1),
        "trace.request_residual": split.residual,
    }


def common_layers(state, outcome: Outcome) -> dict:
    """``loadgen.*`` and ``setup.*``, which every workload has."""
    main = outcome.phases[outcome.latency_phase]
    sent = sum(p.attempted for p in outcome.phases.values())
    ok = sum(int(p.done.sum()) for p in outcome.phases.values())
    out = {
        **layers.setup_parts(state.parts),
        "loadgen.sent": sent,
        "loadgen.ok": ok,
        "loadgen.failed": sent - ok,
        "loadgen.read_p90_ms": main.quantile_ms(0.9),
        "loadgen.read_p99_ms": main.quantile_ms(0.99),
        "loadgen.read_samples": int(main.done.sum()),
        "loadgen.offered_load_valid": float(main.offered_load_valid),
    }
    if main.mode == "open":
        out["loadgen.late_ms_p99"] = layers.quantile(main.late_ms, 0.99)
    return out


class Workload:
    """The steps a workload may leave at their default."""

    #: The workload's letter in ``metrics.PER_LAYER``.
    code: str
    #: Set-ups per untraced run.  One, where a set-up takes seconds and
    #: averages over its own many steps; the run's time budget goes to
    #: the timed phases instead.
    SETUPS = 1

    def teardown(self, state) -> None:
        """Stop what ``setup`` started (nothing, unless overridden)."""


class ServeAppxUnique(Workload):
    """APPX2+ behind the coordinator, every key distinct.

    Phases (shares of ``--seconds``): open loop Poisson 1000 qps (25 %),
    open loop Poisson 4000 qps (40 %, the latency phase), closed loop
    64 clients (35 %, the throughput phase).  One coordinator at its
    defaults serves all three; a short closed-loop pass warms it first.
    """

    name = "serve_appx_unique"
    code = "A"
    why = (
        "APPX2+ answers ~20k q/s in batches and every key is distinct, so "
        "serving.coordinator does most of the work and cache/dedup never "
        "hit: a serving change shows here, an engine change should not"
    )
    LIGHT_QPS, MAIN_QPS, CLIENTS = 1000, 4000, 64
    LIGHT, MAIN, SATURATE = 0.25, 0.40, 0.35

    def setup(self, ctx: Context):
        state = SimpleNamespace(parts={})
        state.engine = build_engine(ctx, state.parts, approximate=True)
        open_rows = (self.LIGHT * self.LIGHT_QPS
                     + self.MAIN * self.MAIN_QPS) * ctx.seconds
        closed_rows = 40_000 * self.SATURATE * ctx.seconds
        state.table = inputs.queries(
            state.engine.database,
            int(1.3 * open_rows + closed_rows) + 4096,
            ctx.seed + 1,
        )
        return state

    def measure(self, ctx: Context, state, tracer: Optional[Tracer]):
        return asyncio.run(self._serve(ctx, state, tracer))

    async def _serve(self, ctx, state, tracer):
        backend = EngineBackend(state.engine, approximate=True)
        if tracer is not None:
            backend = TracedBackend(backend, tracer)
        table, seconds = state.table, ctx.seconds
        light_at = inputs.poisson_arrivals(
            self.LIGHT_QPS, self.LIGHT * seconds, ctx.seed + 2
        )
        main_at = inputs.poisson_arrivals(
            self.MAIN_QPS, self.MAIN * seconds, ctx.seed + 3
        )
        cursor = 2048
        rows = np.arange(len(table))
        async with ServingCoordinator(backend) as coordinator:
            await closed_loop(coordinator.top_k, table, rows[:cursor],
                              8, 0.05 * seconds, "warm")
            light = await open_loop(
                coordinator.top_k, table,
                rows[cursor : cursor + light_at.size], light_at,
                "light", self.LIGHT_QPS,
            )
            cursor += light_at.size
            before = dataclasses.replace(coordinator.stats)
            main = await open_loop(
                coordinator.top_k, table,
                rows[cursor : cursor + main_at.size], main_at,
                "main", self.MAIN_QPS,
            )
            cursor += main_at.size
            main_stats = stats_delta(coordinator.stats, before)
            sat = await closed_loop(coordinator.top_k, table, rows[cursor:],
                                    self.CLIENTS, self.SATURATE * seconds,
                                    "saturate")
            cache = dataclasses.replace(coordinator.cache.stats)
        return Outcome(
            {"light": light, "main": main, "saturate": sat},
            "main", "saturate",
            extras={"stats": main_stats, "cache": cache, "backend": backend},
        )

    def phase_level(self, state, outcome: Outcome) -> dict:
        phases = outcome.phases
        return {
            "light_p50_ms": phases["light"].quantile_ms(0.5),
            "read_p90_ms": phases["main"].quantile_ms(0.9),
            "sat_qps": phases["saturate"].steady_qps,
        }

    def check(self, ctx, state, outcome: Outcome) -> None:
        phase_failures(outcome)
        direct = EngineBackend(state.engine, approximate=True)

        def reference(batch):
            return direct.serve_many(batch.t1s, batch.t2s, batch.ks)

        for phase in outcome.phases.values():
            check_served(outcome, phase, state.table, reference,
                         CHECK_LIMIT_APPX)

    def layers(self, ctx, state, outcome: Outcome, tracer: Tracer) -> dict:
        backend = outcome.extras["backend"]
        cache = outcome.extras["cache"]
        attach_resolved(backend.calls, backend)
        _, out = coordinator_layers(outcome, state.table, backend.calls,
                                    tracer, outcome.extras["stats"])
        out.update(common_layers(state, outcome))
        out["loadgen.light_p50_ms"] = outcome.phases["light"].quantile_ms(0.5)
        out["serving.cache.hit_rate"] = cache.hit_rate
        out["serving.cache.stale"] = cache.stale
        out["serving.cache.evictions"] = cache.evictions
        # The saturated phase's batches: it is where the backend is
        # busiest, and its ~64-row batches cost live what they cost
        # replayed.  The 4000 qps phase forms ~3-row batches that run
        # 20-30 % above their replay, each starting on caches the event
        # loop has just used.
        busiest = calls_within(backend.calls, outcome.phases["saturate"])
        replay = layers.replay_served(tracer, "replay.appx",
                                      layers.replay_appx, state.engine,
                                      busiest)
        out.update(layers.appx_replayed(replay))
        out.update(layers.reconciliation(replay))
        out["serving.backend_inflation"] = replay.inflation()
        out.update(layers.appx_counts(ctx, state.engine))
        return out


class ServeExactHotAppend(Workload):
    """EXACT3 behind the coordinator, hot keys, writes beside reads.

    Keys are Zipf(1.1) draws from 4096 distinct queries (4x the result
    cache).  Phases: open loop 100 qps read-only (35 %, the latency
    phase), open loop 100 qps with a writer appending twice a second
    (40 %), closed loop 16 clients with one append per 50 reads — the
    same ratio (25 %, the throughput phase).  An untimed open-loop warm
    pass (10 %) precedes them.
    """

    name = "serve_exact_hot_append"
    code = "E"
    why = (
        "Zipf keys over 4x the result cache put serving.cache on hits and "
        "exact.exact3/core.plfstore on misses, with engine.append bumping "
        "the epoch beside the reads: a read gain that costs updates shows"
    )
    UNIVERSE, RATE, CLIENTS, APPEND_EVERY_S = 4096, 100, 16, 0.5
    READS_PER_APPEND = int(RATE * APPEND_EVERY_S)
    #: The shortest set-up (generate + EXACT3, ~1.5 s) is the noisiest.
    SETUPS = 3
    WARM, READONLY, READWRITE, SATURATE = 0.10, 0.35, 0.40, 0.25

    def setup(self, ctx: Context):
        state = SimpleNamespace(parts={})
        state.engine = build_engine(ctx, state.parts)
        database = state.engine.database
        state.table = inputs.queries(database, self.UNIVERSE, ctx.seed + 1)
        state.draws = inputs.zipf_rows(
            self.UNIVERSE, int(4000 * ctx.seconds) + 4096, ctx.seed + 2
        )
        # Enough for the clocked writer plus one append per
        # READS_PER_APPEND reads of a closed loop at 10x today's rate.
        state.appends = inputs.append_stream(
            database, int(ctx.seconds * 50) + 64, ctx.seed + 3
        )
        return state

    def measure(self, ctx: Context, state, tracer: Optional[Tracer]):
        return asyncio.run(self._serve(ctx, state, tracer))

    def _append(self, engine, appends, log, tracer) -> None:
        start = clock()
        engine.append(*next(appends))
        log.append((start, clock()))
        if tracer is not None:
            tracer.add("engine.append", *log[-1], key=f"append-{len(log)}")

    async def _writer(self, append) -> None:
        # First append half a period in, so no phase starts on one.
        await asyncio.sleep(self.APPEND_EVERY_S / 2)
        while True:
            append()
            await asyncio.sleep(self.APPEND_EVERY_S)

    async def _serve(self, ctx, state, tracer):
        direct = EngineBackend(state.engine)
        backend = direct if tracer is None else TracedBackend(direct, tracer)
        table, draws, seconds = state.table, state.draws, ctx.seconds
        arrivals = {
            name: inputs.poisson_arrivals(self.RATE, share * seconds,
                                          ctx.seed + salt)
            for name, share, salt in (("warm", self.WARM, 4),
                                      ("readonly", self.READONLY, 5),
                                      ("readwrite", self.READWRITE, 6))
        }
        cursor = 0

        def next_rows(count):
            nonlocal cursor
            cursor += count
            return draws[cursor - count : cursor]

        append_log: list = []
        async with ServingCoordinator(backend) as coordinator:

            async def open_phase(name):
                """The phase, and what it added to the coordinator's
                and the cache's counters."""
                at = arrivals[name]
                before = dataclasses.replace(coordinator.stats)
                cache_before = dataclasses.replace(coordinator.cache.stats)
                phase = await open_loop(coordinator.top_k, table,
                                        next_rows(at.size), at, name,
                                        self.RATE)
                return (phase, stats_delta(coordinator.stats, before),
                        stats_delta(coordinator.cache.stats, cache_before))

            await open_phase("warm")
            readonly, stats, cache = await open_phase("readonly")
            # Reference for the read-only answers, at their own epoch;
            # in 64-row calls, because a batched EXACT3 call allocates
            # rows x m matrices and this one must not set the peak RSS.
            asked = np.unique(readonly.rows)
            reference = {}
            for lo in range(0, asked.size, 64):
                batch = inputs.take(table, asked[lo : lo + 64])
                reference.update(zip(
                    asked[lo : lo + 64].tolist(),
                    direct.serve_many(batch.t1s, batch.t2s, batch.ks),
                ))
            appends = iter(state.appends)

            def append():
                self._append(state.engine, appends, append_log, tracer)

            writer = asyncio.create_task(self._writer(append))
            try:
                readwrite, _, rw_cache = await open_phase("readwrite")
            finally:
                writer.cancel()
                with suppress(asyncio.CancelledError):
                    await writer
            # Closed loop: the writer keeps the open-loop phase's ratio
            # of one append per READS_PER_APPEND reads instead of its
            # clock.  On a clock, a faster system fits more reads into
            # an epoch, hits its cache more and gets faster still, which
            # turns a little host noise into a lot of throughput noise.
            answered = 0

            async def read(t1, t2, k):
                nonlocal answered
                answer = await coordinator.top_k(t1, t2, k)
                answered += 1
                if answered % self.READS_PER_APPEND == 0:
                    append()
                return answer

            sat = await closed_loop(read, table, draws[cursor:], self.CLIENTS,
                                    self.SATURATE * seconds, "saturate")
        return Outcome(
            {"readonly": readonly, "readwrite": readwrite, "saturate": sat},
            "readonly", "saturate",
            extras={"stats": stats, "cache": cache, "rw_cache": rw_cache,
                    "backend": backend, "appends": append_log,
                    "readonly_reference": reference},
        )

    def phase_level(self, state, outcome: Outcome) -> dict:
        phases = outcome.phases
        return {
            "read_p90_ms": phases["readonly"].quantile_ms(0.9),
            "rw_read_p50_ms": phases["readwrite"].quantile_ms(0.5),
            "rw_read_p90_ms": phases["readwrite"].quantile_ms(0.9),
        }

    def check(self, ctx, state, outcome: Outcome) -> None:
        phase_failures(outcome)
        appends = outcome.extras["appends"]
        outcome.attempted += len(appends)
        engine, table = state.engine, state.table
        outcome.fail(int(engine.epoch != len(appends)),
                     "epoch does not equal the appends applied")
        readonly = outcome.phases["readonly"]
        reference = outcome.extras["readonly_reference"]
        outcome.fail(
            checks.mismatches(
                readonly.answers,
                [reference[row] for row in readonly.rows.tolist()],
            ),
            "readonly: answer differs from the direct call",
        )
        # Appends lie past the query span, so every in-span answer is
        # the same at every epoch: all append-phase answers to a sampled
        # key must equal the scalar answer at the final epoch.
        written = [outcome.phases["readwrite"], outcome.phases["saturate"]]
        asked = np.unique(np.concatenate([p.rows for p in written]))
        rng = np.random.default_rng(ctx.seed + 7)
        sample = rng.choice(asked, size=min(256, asked.size), replace=False)
        truth = {
            int(row): engine.top_k(float(table.t1s[row]),
                                   float(table.t2s[row]), int(table.ks[row]))
            for row in sample
        }
        num_objects = engine.database.num_objects
        for phase in written:
            outcome.fail(
                checks.count_malformed(phase.answers, table.ks[phase.rows],
                                       num_objects),
                f"{phase.name}: malformed answer",
            )
            outcome.fail(
                sum(1 for row, answer in zip(phase.rows.tolist(),
                                             phase.answers)
                    if row in truth and answer != truth[row]),
                f"{phase.name}: answer differs from scalar top_k",
            )

    def layers(self, ctx, state, outcome: Outcome, tracer: Tracer) -> dict:
        backend = outcome.extras["backend"]
        attach_resolved(backend.calls, backend)
        split, out = coordinator_layers(outcome, state.table, backend.calls,
                                        tracer, outcome.extras["stats"])
        out.update(common_layers(state, outcome))
        written = outcome.phases["readwrite"]
        out["loadgen.rw_read_p50_ms"] = written.quantile_ms(0.5)
        out["loadgen.rw_read_p90_ms"] = written.quantile_ms(0.9)
        # Hits while nothing is written, then beside the writer, whose
        # every append makes the whole cache stale.
        cache, rw_cache = outcome.extras["cache"], outcome.extras["rw_cache"]
        out["serving.cache.hit_rate"] = (
            cache["hits"] / max(cache["hits"] + cache["misses"], 1))
        out["serving.cache.rw_hit_rate"] = (
            rw_cache["hits"] / max(rw_cache["hits"] + rw_cache["misses"], 1))
        out["serving.cache.stale"] = rw_cache["stale"]
        out["serving.cache.evictions"] = (
            cache["evictions"] + rw_cache["evictions"])
        out["serving.cache.hit_wait_ms_p50"] = layers.median(
            split.unlinked_latency)
        appends = outcome.extras["appends"]
        out["engine.append_ms_p50"] = layers.median(
            [(end - start) * 1e3 for start, end in appends])
        # Latency of the first read due after each append returned.
        order = np.argsort(written.starts)
        starts = written.starts[order]
        firsts = []
        for _, end in appends:
            j = int(np.searchsorted(starts, end))
            if j < starts.size and written.done[order[j]]:
                i = order[j]
                firsts.append((written.ends[i] - written.starts[i]) * 1e3)
        out["engine.first_read_after_append_ms_p50"] = layers.median(firsts)
        # Replays run on the engine as the appends left it, which
        # answers through the scalar loop: only batches that ran after
        # the first append ran what their replay runs.  The batched
        # path of the read-only phase is probed on a fresh engine.
        first = appends[0][1] if appends else float("inf")
        scalar = [call for call in calls_within(backend.calls, written)
                  if call.start > first]
        replay = layers.replay_served(tracer, "replay.exact3",
                                      layers.replay_exact3, state.engine,
                                      scalar)
        out.update(layers.exact3_replayed(replay))
        out.update(layers.reconciliation(replay))
        out["serving.backend_inflation"] = replay.inflation()
        out.update(layers.probe_exact3(ctx, tracer))
        return out


class RestartPoolExact(Workload):
    """Snapshot, re-open, and serve the mounted engine from 2 processes.

    Phases: repeated ``repro.open`` + first 8-row batch (15 %, at least
    3 mounts), closed loop 48 clients on the mounted engine with
    ``workers=1`` (30 %), closed loop 48 clients with the 2-process pool
    (55 %, both the latency and the throughput phase).  Distinct keys,
    ``max_batch=16``, result cache off.
    """

    name = "restart_pool_exact"
    code = "P"
    why = (
        "the only workload where storage (segments, catalog, lazy block "
        "decode), serving.pool and parallel.workers do the work; the "
        "backend dominates, so pool dispatch cost and 2-core overlap show"
    )
    CLIENTS, MAX_BATCH, WORKERS, FIRST_ROWS = 48, 16, 2, 8
    MOUNTS, THREAD, POOL = 0.15, 0.30, 0.55

    def setup(self, ctx: Context):
        state = SimpleNamespace(parts={})
        state.engine = build_engine(ctx, state.parts)
        state.table = inputs.queries(
            state.engine.database, int(2000 * ctx.seconds) + 4096, ctx.seed + 1
        )
        state.root = ctx.workdir / "restart"  # removed by teardown
        state.snapshot_dir = state.root / "snapshot"
        with timed(state.parts, "snapshot_s"):
            state.engine.snapshot(state.snapshot_dir)
        with timed(state.parts, "open_s"):
            state.mounted = repro.open(state.snapshot_dir)
        with timed(state.parts, "pool_start_s"):
            state.pool = ServingProcessPool(
                EngineBackend(state.mounted), self.WORKERS,
                root=state.root / "pool",
                initial_snapshot=state.snapshot_dir,
            )
        return state

    def teardown(self, state) -> None:
        if state.pool is not None:
            state.pool.close()
            state.pool = None
        shutil.rmtree(state.root, ignore_errors=True)

    def measure(self, ctx: Context, state, tracer: Optional[Tracer]):
        first = inputs.take(state.table, slice(0, self.FIRST_ROWS))
        mounts, mount_answers = [], []
        deadline = clock() + self.MOUNTS * ctx.seconds
        while len(mounts) < 3 or clock() < deadline:
            start = clock()
            engine = repro.open(state.snapshot_dir)
            opened = clock()
            mount_answers.append(engine.top_k_many(first))
            mounts.append((start, opened, clock()))
            if tracer is not None:
                key = f"mount-{len(mounts)}"
                parent = tracer.add("restart", start, mounts[-1][2], key=key)
                tracer.add("repro.open", start, opened, parent, key)
                tracer.add("first_answer", opened, mounts[-1][2], parent, key)
        outcome = asyncio.run(self._serve(ctx, state, tracer))
        outcome.extras.update(mounts=mounts, mount_answers=mount_answers,
                              first=first)
        return outcome

    async def _serve(self, ctx, state, tracer):
        table = state.table
        rows = np.arange(self.FIRST_ROWS, len(table))
        cut = rows.size // 3  # the thread phase answers about half as fast
        backend = pool_backend = EngineBackend(state.mounted)
        pool = state.pool
        if tracer is not None:
            backend = TracedBackend(backend, tracer)
            # Executes nothing; reads the clock as pooled results return.
            pool_backend = TracedBackend(pool_backend, tracer)
            pool = TracedPool(pool, tracer)
        options = dict(max_batch=self.MAX_BATCH, cache_size=0)
        async with ServingCoordinator(backend, **options) as coordinator:
            await closed_loop(coordinator.top_k, table, rows[:256],
                              self.CLIENTS, 0.03 * ctx.seconds, "warm")
            thread = await closed_loop(
                coordinator.top_k, table, rows[256:cut], self.CLIENTS,
                self.THREAD * ctx.seconds, "thread",
            )
        # The coordinator owns an adopted pool and closes it on exit.
        state.pool = None
        async with ServingCoordinator(
            pool_backend, pool=pool, **options
        ) as coordinator:
            await closed_loop(coordinator.top_k, table,
                              rows[cut : cut + 256], self.CLIENTS,
                              0.03 * ctx.seconds, "warm")
            before = dataclasses.replace(coordinator.stats)
            pooled = await closed_loop(
                coordinator.top_k, table, rows[cut + 256 :], self.CLIENTS,
                self.POOL * ctx.seconds, "pool",
            )
            pool_stats = stats_delta(coordinator.stats, before)
        return Outcome(
            {"thread": thread, "pool": pooled}, "pool", "pool",
            extras={"stats": pool_stats, "backend": backend, "pool": pool,
                    "pool_backend": pool_backend},
        )

    def phase_level(self, state, outcome: Outcome) -> dict:
        mounts = np.asarray(outcome.extras["mounts"])
        return {
            "mount_s": layers.median(mounts[:, 2] - mounts[:, 0]),
            "thread_qps": outcome.phases["thread"].steady_qps,
            "pool2_qps": outcome.phases["pool"].steady_qps,
        }

    def check(self, ctx, state, outcome: Outcome) -> None:
        phase_failures(outcome)
        live = state.engine
        first = outcome.extras["first"]
        truth = live.top_k_many(first)
        for answers in outcome.extras["mount_answers"]:
            outcome.attempted += len(first)
            outcome.fail(checks.mismatches(answers, truth),
                         "mount: first answers differ from the live engine")
        for phase in outcome.phases.values():
            check_served(outcome, phase, state.table, live.top_k_many,
                         CHECK_LIMIT_EXACT)

    def layers(self, ctx, state, outcome: Outcome, tracer: Tracer) -> dict:
        pool, backend = outcome.extras["pool"], outcome.extras["backend"]
        attach_resolved(backend.calls, backend)
        attach_resolved(pool.calls, outcome.extras["pool_backend"])
        thread, pooled = outcome.phases["thread"], outcome.phases["pool"]
        _, out = coordinator_layers(outcome, state.table, pool.calls, tracer,
                                    outcome.extras["stats"])
        out.update(common_layers(state, outcome))
        mounts = np.asarray(outcome.extras["mounts"])
        snapshot_bytes = sum(
            f.stat().st_size for f in state.snapshot_dir.rglob("*")
            if f.is_file()
        )
        store = state.engine.database.store()
        user_bytes = store.knot_times.nbytes + store.knot_values.nbytes
        dispatch = [(c.end - c.start) * 1e3
                    for c in calls_within(pool.calls, pooled)]
        out.update({
            "storage.snapshot_s": state.parts["snapshot_s"],
            "storage.snapshot_bytes_per_user_byte":
                snapshot_bytes / user_bytes,
            "storage.open_s": layers.median(mounts[:, 1] - mounts[:, 0]),
            "storage.first_answer_s":
                layers.median(mounts[:, 2] - mounts[:, 1]),
            "storage.mount_s": layers.median(mounts[:, 2] - mounts[:, 0]),
            "serving.pool.start_s": state.parts["pool_start_s"],
            "serving.pool.submit_ms_p50": layers.median(dispatch),
            "serving.pool.resyncs": outcome.extras["stats"]["pool_resyncs"],
            "serving.pool.remounts": outcome.extras["stats"]["pool_remounts"],
            "serving.pool.thread_qps": thread.qps,
            "serving.pool.pool2_qps": pooled.qps,
            "serving.pool.speedup": pooled.qps / max(thread.qps, 1e-9),
        })
        # The thread phase's batches: they ran in this process, so their
        # CPU time is known, and have the pool's shape (16 rows).
        replay = layers.replay_served(
            tracer, "replay.exact3", layers.replay_exact3, state.mounted,
            calls_within(backend.calls, thread))
        out.update(layers.exact3_replayed(replay))
        out.update(layers.reconciliation(replay))
        out["serving.backend_inflation"] = replay.inflation()
        # What a dispatch costs beyond the batch itself: its round trip
        # minus such a batch replayed in this process.
        out["serving.pool.dispatch_overhead_ms_p50"] = (
            layers.median(dispatch) - replay.whole_ms())
        out["exact.exact3.blocks_read_per_q"] = layers.exact3_reads_per_q(
            ctx, state.mounted)
        return out


class BatchOfflineMixed(Workload):
    """No serving tier: one caller, fresh 64-row batches, five paths.

    One operation is a *round*: the same 64 fresh queries through
    ``engine.top_k_many`` (EXACT3), ``engine.top_k_many(approximate=
    True)``, ``cluster(4).query_many`` and ``cluster(4, partition=
    "time").query_many``, plus 64 fresh instants through
    ``engine.instant_top_k_many`` — 320 answers.  Closed loop, one
    caller, for all of ``--seconds``; the rounds are both the latency
    and the throughput phase.
    """

    name = "batch_offline_mixed"
    code = "O"
    why = (
        "the analyst's bulk path: per-call fixed costs amortise over "
        "64-row batches, distributed runs at all, and no serving code is "
        "involved, so a serving change must not move it"
    )
    ROWS, NODES = 64, 4
    PATHS = ("exact3", "appx2plus", "instant", "cluster_object",
             "cluster_time")
    #: Rounds whose batches the traced run replays one layer down.
    REPLAYED = 6

    def setup(self, ctx: Context):
        state = SimpleNamespace(parts={})
        state.engine = build_engine(ctx, state.parts, approximate=True,
                                    instant=True)
        with timed(state.parts, "cluster_object_build_s"):
            state.by_object = state.engine.cluster(self.NODES)
        with timed(state.parts, "cluster_time_build_s"):
            state.by_time = state.engine.cluster(self.NODES, partition="time")
        # A round costs ~0.8 s at full scale and a few ms at smoke scale.
        per_second = 400 if ctx.scale.smoke else 8
        state.rounds = int(ctx.seconds * per_second) + 8
        database = state.engine.database
        count = self.ROWS * (state.rounds + 1)
        state.table = inputs.queries(database, count, ctx.seed + 1)
        state.instants = inputs.instant_queries(database, count, ctx.seed + 2)
        return state

    def measure(self, ctx: Context, state, tracer: Optional[Tracer]):
        engine, table = state.engine, state.table
        ts, ks = state.instants
        marks: List[tuple] = []

        def one_round(i: int):
            rows = slice(i * self.ROWS, (i + 1) * self.ROWS)
            batch = inputs.take(table, rows)
            t0 = clock()
            exact = engine.top_k_many(batch)
            t1 = clock()
            appx = engine.top_k_many(batch, approximate=True)
            t2 = clock()
            instant = engine.instant_top_k_many(ts[rows], ks[rows])
            t3 = clock()
            by_object = state.by_object.query_many(batch)
            t4 = clock()
            by_time = state.by_time.query_many(batch)
            marks.append((t0, t1, t2, t3, t4, clock()))
            return exact, appx, instant, by_object, by_time

        one_round(state.rounds)  # warm pass on rows no timed round uses
        marks.clear()
        rounds = caller_loop(one_round, ctx.seconds, "rounds",
                             len(self.PATHS) * self.ROWS, state.rounds)
        if tracer is not None:
            for i, mark in enumerate(marks):
                key = f"round-{i}"
                parent = tracer.add("round", mark[0], mark[-1], key=key)
                for j, path in enumerate(self.PATHS):
                    tracer.add(f"path.{path}", mark[j], mark[j + 1],
                               parent, key)
        return Outcome({"rounds": rounds}, "rounds", "rounds",
                       extras={"marks": np.asarray(marks)})

    def path_qps(self, outcome: Outcome) -> dict:
        """Queries per second of each path: a batch over the median
        time the path took in a round (``Phase.steady_qps`` says why
        the median)."""
        spent = np.median(np.diff(outcome.extras["marks"], axis=1), axis=0)
        return {path: self.ROWS / max(float(spent[j]), 1e-9)
                for j, path in enumerate(self.PATHS)}

    def phase_level(self, state, outcome: Outcome) -> dict:
        return {f"{path}_qps": qps
                for path, qps in self.path_qps(outcome).items()}

    def check(self, ctx, state, outcome: Outcome) -> None:
        phase_failures(outcome)
        engine, table = state.engine, state.table
        rounds = outcome.phases["rounds"]
        bounds = layers.appx_bound(engine)
        for i, answer in enumerate(rounds.answers):
            if answer is None:
                continue
            exact, appx, instant, by_object, by_time = answer
            outcome.fail(checks.mismatches(by_object, exact),
                         "object cluster differs from EXACT3")
            outcome.fail(
                sum(0 if checks.close_answers(got, ref) else 1
                    for got, ref in zip(by_time, exact)),
                "time cluster differs from EXACT3",
            )
            outcome.fail(
                sum(0 if checks.within_appx2plus_bound(got, ref, *bounds)
                    else 1 for got, ref in zip(appx, exact)),
                "APPX2+ outside the (eps, 2 log r) bound",
            )
        # Bit-identity to the scalar entry points, on the first round.
        first = rounds.answers[0]
        if first is None:
            return
        batch = inputs.take(table, slice(0, self.ROWS))
        ts, ks = state.instants
        triples = list(zip(batch.t1s.tolist(), batch.t2s.tolist(),
                           batch.ks.tolist()))
        scalar = {
            "EXACT3": (first[0], [engine.top_k(*q) for q in triples]),
            "APPX2+": (first[1], [engine.top_k(*q, approximate=True)
                                  for q in triples]),
            "instant": (first[2], [
                engine.instant_top_k(float(t), int(k))
                for t, k in zip(ts[: self.ROWS], ks[: self.ROWS])
            ]),
            # Partial sums reorder floats, so the time cluster is
            # bit-identical to its own scalar protocol, not to EXACT3.
            "time cluster": (first[4][:16], [
                state.by_time.query_scatter_gather(*q) for q in triples[:16]
            ]),
        }
        for name, (batched, reference) in scalar.items():
            outcome.fail(checks.mismatches(batched, reference),
                         f"{name}: batched differs from scalar")

    def layers(self, ctx, state, outcome: Outcome, tracer: Tracer) -> dict:
        marks = outcome.extras["marks"]
        if len(marks) < self.REPLAYED:
            raise RuntimeError(f"only {len(marks)} rounds ran; the replay "
                               f"needs {self.REPLAYED}")
        out = common_layers(state, outcome)
        for path, qps in self.path_qps(outcome).items():
            out[f"offline.{path}_qps"] = qps
        batches = [inputs.take(state.table,
                               slice(i * self.ROWS, (i + 1) * self.ROWS))
                   for i in range(self.REPLAYED)]
        live = np.diff(marks[: self.REPLAYED, :3], axis=1)
        out.update(layers.replay_offline(tracer, ctx, state, batches, live))
        return out


WORKLOADS = (ServeAppxUnique(), ServeExactHotAppend(), RestartPoolExact(),
             BatchOfflineMixed())
BY_NAME = {workload.name: workload for workload in WORKLOADS}
