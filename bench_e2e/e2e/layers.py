"""Layer replay: split backend time into the layers below it.

The traced run records which batches the coordinator (or the offline
caller) executed.  After the timed phases those same batches are
replayed, one layer at a time, against the lower layers' public
functions; each replay is recorded as spans (a ``replay.parts`` parent
with one child per layer) so self times come from the same arithmetic
as everything else.  Each batch's parts are then compared twice — see
:func:`reconciliation`: with the public call they make up, replayed
right after them (do the parts tile the call?), and with what the batch
cost *live* (is the replay representative?): the CPU time of the
serving thread inside the backend call or, for the single offline
caller, the call's wall time.

Replays run after the load has stopped, so they measure the layer
itself.  The live wall-clock span also contains whatever the serving
thread waited for the interpreter lock the event loop held; the
replayed whole call gives that ratio (``serving.backend_inflation``).

Counts (block reads, candidates, recall, comm bytes) are taken on
fixed batches generated from the seed, not on the recorded ones, whose
composition depends on timing: they repeat exactly for a seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.approximate.toplists import top_k_ragged
from repro.core.aggregates import SUM
from repro.core.plfstore import PLFStore, isin_sorted
from repro.core.queries import TopKQuery
from repro.core.results import merge_top_k_many
from repro.datasets.workload import WorkloadBatch
from repro.exact.exact3 import exact3_batch_answers

from e2e import checks, inputs
from e2e.loadgen import clock
from e2e.metrics import BATCH_TOLERANCE
from e2e.setup import build_engine
from e2e.tracing import BackendCall, Tracer, self_time_by_name

#: Recorded batches replayed per traced run.
REPLAY_BATCHES = 48
#: Fixed queries for the counts: APPX2+ recall against EXACT3,
#: candidates and block reads per query.
FIXED_QUERIES = 256


def median(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def quantile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.quantile(values, q)) if values.size else 0.0


def built_indexes(engine):
    """The engine's lazily built APPX2+ and instant indexes.

    The one private read in the benchmark: the engine has no public
    accessor for the indexes ``prepare`` builds, and the replays need
    the very objects that served the traffic."""
    return engine._approximate, engine._instant


def appx_bound(engine) -> tuple:
    """``(r, eps * M)`` of the engine's breakpoints."""
    breakpoints = built_indexes(engine)[0].breakpoints
    return breakpoints.r, breakpoints.threshold


class Replay:
    """Times the parts and the whole of replayed batches, as spans."""

    def __init__(self, tracer: Tracer, prefix: str) -> None:
        self.tracer = tracer
        self.prefix = prefix
        self.batch_rows: List[int] = []
        #: Per batch: live CPU (or, offline, wall) seconds, live
        #: wall-clock span, summed replayed parts, replayed whole call.
        self.lives: List[float] = []
        self.spans_live: List[float] = []
        self.summed: List[float] = []
        self.wholes: List[float] = []
        self._spans: list = []

    def batch(self, call: BackendCall, parts: Sequence[tuple],
              whole: Callable) -> None:
        """Replay one recorded batch: each ``(name, fn)`` of ``parts``
        in order (a part receives the previous part's return value),
        then ``whole()``, the public call the parts make up."""
        key = f"{self.prefix}-{len(self.lives)}"
        begin = clock()
        parent = self.tracer.add(f"{self.prefix}.parts", begin, begin, key=key)
        value, summed = None, 0.0
        for name, fn in parts:
            t0 = clock()
            value = fn(value)
            t1 = clock()
            summed += t1 - t0
            self._spans.append(
                self.tracer.spans[
                    self.tracer.add(f"{self.prefix}.{name}", t0, t1, parent,
                                    key)
                ]
            )
        self.tracer.spans[parent].end = clock()
        self._spans.append(self.tracer.spans[parent])
        start = clock()
        whole()
        end = clock()
        self.tracer.add(f"{self.prefix}.whole", start, end, key=key)
        self.batch_rows.append(call.rows)
        self.lives.append(call.cpu)
        self.spans_live.append(call.end - call.start)
        self.summed.append(summed)
        self.wholes.append(end - start)

    def aside(self, name: str, fn: Callable) -> None:
        """Time ``fn`` as a span of its own, outside the parts' sum."""
        start = clock()
        fn()
        span = self.tracer.add(f"{self.prefix}.{name}", start, clock())
        self._spans.append(self.tracer.spans[span])

    @property
    def rows(self) -> int:
        return sum(self.batch_rows)

    def ms_per_q(self, name: str) -> float:
        """Self time of part ``name`` in ms per replayed query (0 when
        no replayed batch ran it)."""
        own = self_time_by_name(self._spans)
        return (own.get(f"{self.prefix}.{name}", 0.0) * 1e3
                / max(self.rows, 1))

    def whole_ms(self) -> float:
        return median(self.wholes) * 1e3

    def inflation(self) -> float:
        """Live wall-clock span over the same batch replayed without
        load: what the serving thread lost to the event loop."""
        return median(self.spans_live) / max(median(self.wholes), 1e-9)


def reconciliation(*replays: Replay) -> Dict[str, float]:
    """The per-batch reconciliation.  Several replays hold different
    paths of the same batches (the offline round); their times are
    added up batch by batch first.

    ``trace.batch_tiling_residual``: how far the typical batch's
    replayed parts are from the whole call replayed right after them,
    as a share of it.  The two are read back to back, so this one is
    checked: exceeding ``BATCH_TOLERANCE`` means the call does work no
    replayed part covers.  ``trace.batch_residual``: the same distance
    from the batch's *live* time, and ``trace.batch_reconciled``: the
    share of batches within the tolerance of it one by one.  A typical
    value is the median over batches, because on this host one batch
    replayed twice can differ by a factor of two."""
    replays = [replay for replay in replays if replay.lives]
    if not replays:  # nothing replayed, nothing disagreed
        return {"trace.batch_tiling_residual": 0.0,
                "trace.batch_residual": 0.0, "trace.batch_reconciled": 1.0}
    summed, wholes, lives = (
        np.sum([getattr(replay, column) for replay in replays], axis=0)
        for column in ("summed", "wholes", "lives"))
    ratios = summed / lives
    return {
        "trace.batch_tiling_residual": abs(median(summed / wholes) - 1.0),
        "trace.batch_residual": abs(median(ratios) - 1.0),
        "trace.batch_reconciled":
            float(np.mean(np.abs(ratios - 1.0) <= BATCH_TOLERANCE)),
    }


def replay_served(tracer, prefix, replay_one, engine, calls) -> Replay:
    """Replay at most ``REPLAY_BATCHES`` of a served phase's recorded
    batches, evenly spread, with ``replay_one`` (below)."""
    replay = Replay(tracer, prefix)
    for i in checks.strided_sample(len(calls), REPLAY_BATCHES):
        replay_one(replay, engine, calls[i])
    return replay


def _batch(call: BackendCall) -> WorkloadBatch:
    return WorkloadBatch(call.t1s, call.t2s, call.ks)


def replay_appx(replay: Replay, engine, call) -> None:
    """APPX2+ ``query_many`` = dyadic candidates, EXACT2 rescoring of
    the candidate triples, ragged top-k."""
    appx, _ = built_indexes(engine)
    t1s, t2s, ks = call.t1s, call.t2s, call.ks

    def rescore(pools):
        counts = np.asarray([ids.size for ids, _ in pools])
        ids = np.concatenate([ids for ids, _ in pools])
        scores = appx.rescorer.score_triples(
            ids, np.repeat(t1s, counts), np.repeat(t2s, counts))
        bounds = np.concatenate([[0], np.cumsum(counts)])
        return [(ids[lo:hi], scores[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    replay.batch(
        call,
        [
            ("candidates_many",
             lambda _: appx.index.candidates_many(t1s, t2s, ks)),
            ("score_triples", rescore),
            ("top_k_ragged", lambda pools: top_k_ragged(pools, ks)),
        ],
        lambda: engine.top_k_many(_batch(call), approximate=True),
    )


def appx_replayed(replay: Replay) -> dict:
    return {
        "approximate.dyadic.candidates_many_ms_per_q":
            replay.ms_per_q("candidates_many"),
        "exact.exact2.score_triples_ms_per_q": replay.ms_per_q("score_triples"),
        "approximate.toplists.top_k_ragged_ms_per_q":
            replay.ms_per_q("top_k_ragged"),
    }


def fixed_batches(ctx, database) -> List[WorkloadBatch]:
    """The seed's fixed queries for the counts, in 64-row batches."""
    fixed = inputs.queries(database, FIXED_QUERIES, ctx.seed + 11)
    return [inputs.take(fixed, slice(lo, lo + 64))
            for lo in range(0, FIXED_QUERIES, 64)]


def appx_counts(ctx, engine) -> dict:
    """APPX2+ on the fixed queries: breakpoints, candidates and
    rescoring block reads per query, recall against EXACT3."""
    appx, _ = built_indexes(engine)
    candidates = reads = 0
    answers, exacts = [], []
    for batch in fixed_batches(ctx, engine.database):
        pools = appx.index.candidates_many(batch.t1s, batch.t2s, batch.ks)
        counts = np.asarray([ids.size for ids, _ in pools])
        candidates += int(counts.sum())
        before = appx.io_stats.reads
        appx.rescorer.score_triples(
            np.concatenate([ids for ids, _ in pools]),
            np.repeat(batch.t1s, counts), np.repeat(batch.t2s, counts))
        reads += appx.io_stats.reads - before
        answers.extend(engine.top_k_many(batch, approximate=True))
        exacts.extend(engine.top_k_many(batch))
    return {
        "approximate.breakpoints.r": appx.breakpoints.r,
        "approximate.dyadic.candidates_per_q": candidates / FIXED_QUERIES,
        "exact.exact2.blocks_read_per_q": reads / FIXED_QUERIES,
        "approximate.appx2plus.recall_at_k":
            checks.recall_at_k(answers, exacts),
    }


def exact3_reads_per_q(ctx, engine) -> float:
    """Modeled EXACT3 block reads per query on the fixed queries."""
    exact = engine.exact
    before = exact.io_stats.reads
    for batch in fixed_batches(ctx, engine.database):
        exact.query_many(batch)
    return (exact.io_stats.reads - before) / FIXED_QUERIES


def setup_parts(parts: dict) -> dict:
    """``setup.*``: the set-up's component times (the kept set-up's)
    and the bytes of the indexes it built."""
    return {f"setup.{name}": value for name, value in parts.items()
            if name.endswith("_build_s")
            or name in ("generate_s", "index_bytes")}


def replay_exact3(replay: Replay, engine, call) -> None:
    """EXACT3 ``query_many``: while the batched path is usable, knot
    check + modeled IO charge + the stab-arithmetic kernel (of which
    ``CSRView.locate_grid``, timed on its own); after an append, the
    scalar loop."""
    exact, database = engine.exact, engine.database
    t1s, t2s, ks = call.t1s, call.t2s, call.ks
    if exact.tree.has_overflow or not database.wants_store:
        parts = [("scalar_loop", lambda _: [
            exact.query(TopKQuery(float(a), float(b), int(k)))
            for a, b, k in zip(t1s, t2s, ks)
        ])]
    else:
        store = database.store()
        view = store.csr_view()
        ids = database.object_ids()

        def knot_check(_):
            knots = store.knot_time_set()
            return isin_sorted(knots, t1s) | isin_sorted(knots, t2s)

        parts = [
            ("knot_check", knot_check),
            ("io_model", lambda _: (
                exact.tree.modeled_stab_reads_many(t1s)
                + exact.tree.modeled_stab_reads_many(t2s))),
            ("kernel", lambda _: exact3_batch_answers(
                view, ids, SUM, t1s, t2s, ks)),
        ]
    replay.batch(call, parts, lambda: exact.query_many(_batch(call)))
    if len(parts) > 1:
        ts = np.concatenate([t1s, t2s])[:, None]
        grid = np.clip(ts, view.starts, view.ends)
        replay.aside("locate_grid", lambda: view.locate_grid(grid))


def exact3_replayed(replay: Replay) -> dict:
    """A part that no replayed batch ran reads 0: the scalar loop
    before an append, the batched parts after one."""
    out = {f"exact.exact3.replay_{name}_ms_per_q": replay.ms_per_q(name)
           for name in ("knot_check", "io_model", "kernel", "scalar_loop")}
    out["core.plfstore.replay_locate_grid_ms_per_q"] = replay.ms_per_q(
        "locate_grid")
    return out


def probe_exact3(ctx, tracer) -> dict:
    """Fixed-size EXACT3 probes on a fresh engine: 8- and 64-row
    ``query_many``, the scalar ``query``, one ``locate_grid`` call for
    an 8-row batch, a columnar store rebuild, and the block reads of
    the fixed queries."""
    engine = build_engine(ctx, {})
    exact, database = engine.exact, engine.database
    table = inputs.queries(database, 64 * 3 + 8 * 3 + 32, ctx.seed + 12)

    def timed_ms(name, fn, repeats=3):
        samples = []
        for i in range(repeats):
            start = clock()
            fn(i)
            samples.append(clock() - start)
            tracer.add(name, start, start + samples[-1], key=f"{name}-{i}")
        return median(samples) * 1e3

    b64 = timed_ms("probe.exact3.query_many_b64", lambda i: exact.query_many(
        inputs.take(table, slice(64 * i, 64 * i + 64))))
    b8 = timed_ms("probe.exact3.query_many_b8", lambda i: exact.query_many(
        inputs.take(table, slice(192 + 8 * i, 200 + 8 * i))))
    tail = inputs.take(table, slice(216, 248))
    scalar = timed_ms("probe.exact3.query", lambda i: [
        exact.query(q) for q in tail.as_queries()], repeats=1)
    view = database.store().csr_view()
    ts = np.concatenate([table.t1s[:8], table.t2s[:8]])[:, None]
    grid = np.clip(ts, view.starts, view.ends)
    locate = timed_ms("probe.plfstore.locate_grid_b8",
                      lambda i: view.locate_grid(grid))
    functions = [obj.function for obj in database.objects]
    rebuild = timed_ms("probe.plfstore.store_rebuild", lambda i: PLFStore(
        functions, database.object_ids()), repeats=1)
    return {
        "exact.exact3.query_many_ms_per_q_b8": b8 / 8,
        "exact.exact3.query_many_ms_per_q_b64": b64 / 64,
        "exact.exact3.query_scalar_ms_per_q": scalar / 32,
        "exact.exact3.batched_vs_scalar": (b8 / 8) / max(scalar / 32, 1e-9),
        "core.plfstore.locate_grid_ms_b8": locate,
        "core.plfstore.store_rebuild_ms": rebuild,
        "exact.exact3.blocks_read_per_q": exact3_reads_per_q(ctx, engine),
    }


def replay_offline(tracer, ctx, state, batches, live) -> dict:
    """The five offline paths, one layer down, on the rounds' first
    batches (fixed rows of the seed's table).  ``live`` holds, per
    batch, what ``(exact3, appx2plus)`` took in the timed round.

    The paths are replayed round by round in the live order, so each
    starts on the caches the previous path left, as it did live;
    replayed back to back, EXACT3 runs a quarter faster than it did."""
    engine = state.engine
    _, instant = built_indexes(engine)
    by_object, by_time = state.by_object, state.by_time
    ts, ks = state.instants
    width = len(batches[0])
    rows = width * len(batches)
    nan = float("nan")
    exact = Replay(tracer, "replay.exact3")
    appx = Replay(tracer, "replay.appx")
    seconds = dict.fromkeys(
        ("instant", "object_nodes", "object_merge", "time", "time_nodes"),
        0.0)
    reads = instant.io_stats.reads
    comm = (by_object.comm.bytes, by_time.comm.bytes)

    def timed(name, fn):
        start = clock()
        value = fn()
        end = clock()
        tracer.add(f"replay.{name}", start, end)
        seconds[name] += end - start
        return value

    for i, (b, took) in enumerate(zip(batches, live)):
        replay_exact3(exact, engine, BackendCall(
            nan, nan, nan, took[0], b.t1s, b.t2s, b.ks, -1))
        replay_appx(appx, engine, BackendCall(
            nan, nan, nan, took[1], b.t1s, b.t2s, b.ks, -1))
        span = slice(i * width, (i + 1) * width)
        timed("instant", lambda: instant.query_many(ts[span], ks[span]))
        per_node = [
            timed("object_nodes",
                  lambda: node.local_top_k_many(b.t1s, b.t2s, b.ks))
            for node in by_object.nodes
        ]
        timed("object_merge", lambda: merge_top_k_many(per_node, b.ks))
        by_object.query_many(b)  # for its comm bytes
        timed("time", lambda: by_time.query_many(b))
        for node in by_time.nodes:
            lo = float(by_time.boundaries[node.node_id])
            hi = float(by_time.boundaries[node.node_id + 1])
            touched = np.flatnonzero((hi > b.t1s) & (lo < b.t2s))
            if touched.size:
                timed("time_nodes", lambda: node.partial_scores_many(
                    b.t1s[touched], b.t2s[touched]))
    return {
        **exact3_replayed(exact),
        **appx_replayed(appx),
        **reconciliation(exact, appx),
        **appx_counts(ctx, engine),
        "exact.exact3.blocks_read_per_q": exact3_reads_per_q(ctx, engine),
        "instant.query_many_ms_per_q": seconds["instant"] * 1e3 / rows,
        "instant.blocks_read_per_q": (instant.io_stats.reads - reads) / rows,
        "distributed.object.node_ms_per_q":
            seconds["object_nodes"] * 1e3 / rows,
        "distributed.object.merge_ms_per_q":
            seconds["object_merge"] * 1e3 / rows,
        "distributed.object.comm_bytes_per_q":
            (by_object.comm.bytes - comm[0]) / rows,
        "distributed.time.node_ms_per_q": seconds["time_nodes"] * 1e3 / rows,
        # The coordinator's share: accumulate partials, rank every row.
        "distributed.time.merge_ms_per_q":
            (seconds["time"] - seconds["time_nodes"]) * 1e3 / rows,
        "distributed.time.comm_bytes_per_q":
            (by_time.comm.bytes - comm[1]) / rows,
    }
