"""The metric registry: names, units and directions, in one place.

``BENCHMARK.json`` lists exactly ``END_TO_END`` and ``PER_LAYER`` (the
self-test compares them).  Three kinds of metric:

``END_TO_END``   gated; every workload reports all four from its
                 untraced run, because the driver wants one set.
``PHASE_LEVEL``  the issue's phase-specific end-to-end names, printed by
                 the untraced run of the workload they belong to, beside
                 the gated four, and collected over every seed; the
                 manifest has no place for a metric only one workload
                 has, so they carry no bound.
``PER_LAYER``    the traced run's; each names the workloads it applies
                 to, and a run raises when one of those is missing.
"""

from __future__ import annotations

#: ``(name, unit, better, bound)``.  ``read_p50_ms`` is the p50 of the
#: workload's latency phase and ``qps`` the throughput of its throughput
#: phase; ``Workload`` docstrings say which phases those are.  The
#: timing bounds are the widest the driver allows, not the issue's 10 %
#: (ceiling 15 %): with nothing else running this host changes speed by
#: 10 % for minutes at a time (FINDINGS.md), ten seeds of one commit
#: spread by up to 17 % (quartile distance over median, ``results/``),
#: and the driver rejects a benchmark whose spread exceeds its bound.
#: Memory spreads by under 3 % and keeps the 10 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
)

#: Workload -> ``(name, unit, better)``.
PHASE_LEVEL = {
    "serve_appx_unique": (
        ("light_p50_ms", "ms", "lower"),
        ("read_p90_ms", "ms", "lower"),
        ("sat_qps", "1/s", "higher"),
    ),
    "serve_exact_hot_append": (
        ("read_p90_ms", "ms", "lower"),
        ("rw_read_p50_ms", "ms", "lower"),
        ("rw_read_p90_ms", "ms", "lower"),
    ),
    "restart_pool_exact": (
        ("mount_s", "s", "lower"),
        ("thread_qps", "1/s", "higher"),
        ("pool2_qps", "1/s", "higher"),
    ),
    "batch_offline_mixed": (
        ("exact3_qps", "1/s", "higher"),
        ("appx2plus_qps", "1/s", "higher"),
        ("instant_qps", "1/s", "higher"),
        ("cluster_object_qps", "1/s", "higher"),
        ("cluster_time_qps", "1/s", "higher"),
    ),
}

#: ``(name, unit, better, workloads)``, grouped by layer (module under
#: src/repro).  ``workloads`` holds one letter per workload the metric
#: applies to (``Workload.code``): A serve_appx_unique, E
#: serve_exact_hot_append, P restart_pool_exact, O batch_offline_mixed.
#: Elsewhere it reads 0 in the result object and ``n/a`` in the report.
#: (An EXACT3 replay part reads 0 where it applies but never ran: the
#: scalar loop before an append, the batched parts after one.)
PER_LAYER = (
    ("serving.coordinator.queue_wait_ms_p50", "ms", "lower", "AEP"),
    ("serving.coordinator.executor_wait_ms_p50", "ms", "lower", "AEP"),
    ("serving.coordinator.deliver_ms_p50", "ms", "lower", "AEP"),
    ("serving.coordinator.mean_batch", "count", "higher", "AEP"),
    ("serving.coordinator.batches", "count", "lower", "AEP"),
    ("serving.coordinator.size_flushes", "count", "higher", "AEP"),
    ("serving.coordinator.deadline_flushes", "count", "lower", "AEP"),
    ("serving.coordinator.backend_busy_frac", "ratio", "lower", "AEP"),
    ("serving.coordinator.overhead_us_per_req", "us", "lower", "AEP"),
    ("serving.backend_inflation", "ratio", "lower", "AEP"),
    ("serving.cache.hit_rate", "ratio", "higher", "AE"),
    ("serving.cache.rw_hit_rate", "ratio", "higher", "E"),
    ("serving.cache.stale", "count", "lower", "AE"),
    ("serving.cache.evictions", "count", "lower", "AE"),
    ("serving.cache.hit_wait_ms_p50", "ms", "lower", "E"),
    ("serving.pool.start_s", "s", "lower", "P"),
    ("serving.pool.submit_ms_p50", "ms", "lower", "P"),
    ("serving.pool.dispatch_overhead_ms_p50", "ms", "lower", "P"),
    ("serving.pool.resyncs", "count", "lower", "P"),
    ("serving.pool.remounts", "count", "lower", "P"),
    ("serving.pool.thread_qps", "1/s", "higher", "P"),
    ("serving.pool.pool2_qps", "1/s", "higher", "P"),
    ("serving.pool.speedup", "ratio", "higher", "P"),
    ("engine.append_ms_p50", "ms", "lower", "E"),
    ("engine.first_read_after_append_ms_p50", "ms", "lower", "E"),
    ("exact.exact3.query_many_ms_per_q_b8", "ms", "lower", "E"),
    ("exact.exact3.query_many_ms_per_q_b64", "ms", "lower", "E"),
    ("exact.exact3.query_scalar_ms_per_q", "ms", "lower", "E"),
    ("exact.exact3.batched_vs_scalar", "ratio", "lower", "E"),
    ("exact.exact3.blocks_read_per_q", "count", "lower", "EPO"),
    ("exact.exact3.replay_knot_check_ms_per_q", "ms", "lower", "EPO"),
    ("exact.exact3.replay_io_model_ms_per_q", "ms", "lower", "EPO"),
    ("exact.exact3.replay_kernel_ms_per_q", "ms", "lower", "EPO"),
    ("exact.exact3.replay_scalar_loop_ms_per_q", "ms", "lower", "EPO"),
    ("core.plfstore.replay_locate_grid_ms_per_q", "ms", "lower", "EPO"),
    ("core.plfstore.locate_grid_ms_b8", "ms", "lower", "E"),
    ("core.plfstore.store_rebuild_ms", "ms", "lower", "E"),
    ("approximate.breakpoints.r", "count", "lower", "AO"),
    ("approximate.dyadic.candidates_many_ms_per_q", "ms", "lower", "AO"),
    ("approximate.dyadic.candidates_per_q", "count", "lower", "AO"),
    ("exact.exact2.score_triples_ms_per_q", "ms", "lower", "AO"),
    ("exact.exact2.blocks_read_per_q", "count", "lower", "AO"),
    ("approximate.toplists.top_k_ragged_ms_per_q", "ms", "lower", "AO"),
    ("approximate.appx2plus.recall_at_k", "ratio", "higher", "AO"),
    ("instant.query_many_ms_per_q", "ms", "lower", "O"),
    ("instant.blocks_read_per_q", "count", "lower", "O"),
    ("distributed.object.node_ms_per_q", "ms", "lower", "O"),
    ("distributed.object.merge_ms_per_q", "ms", "lower", "O"),
    ("distributed.object.comm_bytes_per_q", "bytes", "lower", "O"),
    ("distributed.time.node_ms_per_q", "ms", "lower", "O"),
    ("distributed.time.merge_ms_per_q", "ms", "lower", "O"),
    ("distributed.time.comm_bytes_per_q", "bytes", "lower", "O"),
    ("offline.exact3_qps", "1/s", "higher", "O"),
    ("offline.appx2plus_qps", "1/s", "higher", "O"),
    ("offline.instant_qps", "1/s", "higher", "O"),
    ("offline.cluster_object_qps", "1/s", "higher", "O"),
    ("offline.cluster_time_qps", "1/s", "higher", "O"),
    ("storage.snapshot_s", "s", "lower", "P"),
    ("storage.snapshot_bytes_per_user_byte", "ratio", "lower", "P"),
    ("storage.open_s", "s", "lower", "P"),
    ("storage.first_answer_s", "s", "lower", "P"),
    ("storage.mount_s", "s", "lower", "P"),
    ("setup.generate_s", "s", "lower", "AEPO"),
    ("setup.exact3_build_s", "s", "lower", "AEPO"),
    ("setup.appx2plus_build_s", "s", "lower", "AO"),
    ("setup.instant_build_s", "s", "lower", "O"),
    ("setup.cluster_object_build_s", "s", "lower", "O"),
    ("setup.cluster_time_build_s", "s", "lower", "O"),
    ("setup.index_bytes", "bytes", "lower", "AEPO"),
    ("loadgen.sent", "count", "higher", "AEPO"),
    ("loadgen.ok", "count", "higher", "AEPO"),
    ("loadgen.failed", "count", "lower", "AEPO"),
    ("loadgen.late_ms_p99", "ms", "lower", "AE"),
    ("loadgen.read_p90_ms", "ms", "lower", "AEPO"),
    ("loadgen.read_p99_ms", "ms", "lower", "AEPO"),
    ("loadgen.read_samples", "count", "higher", "AEPO"),
    ("loadgen.offered_load_valid", "ratio", "higher", "AEPO"),
    ("loadgen.light_p50_ms", "ms", "lower", "A"),
    ("loadgen.rw_read_p50_ms", "ms", "lower", "E"),
    ("loadgen.rw_read_p90_ms", "ms", "lower", "E"),
    ("runtime.gc_gen2_count", "count", "lower", "AEPO"),
    ("runtime.gc_pause_ms_max", "ms", "lower", "AEPO"),
    ("trace.overhead_frac", "ratio", "lower", "AEPO"),
    ("trace.linked_frac", "ratio", "higher", "AEP"),
    ("trace.request_residual", "ratio", "lower", "AEP"),
    ("trace.batch_tiling_residual", "ratio", "lower", "AEPO"),
    ("trace.batch_residual", "ratio", "lower", "AEPO"),
    ("trace.batch_reconciled", "ratio", "higher", "AEPO"),
)

#: Per-layer metrics that are functions of the seed alone: two run sets
#: of one commit must agree on them exactly (``collect.py --previous``).
#: They are counted on fixed, seed-generated batches, never on what the
#: timed phases happened to form.
EXACT_COUNTS = (
    "exact.exact3.blocks_read_per_q",
    "approximate.breakpoints.r",
    "approximate.dyadic.candidates_per_q",
    "exact.exact2.blocks_read_per_q",
    "approximate.appx2plus.recall_at_k",
    "instant.blocks_read_per_q",
    "distributed.object.comm_bytes_per_q",
    "distributed.time.comm_bytes_per_q",
    "storage.snapshot_bytes_per_user_byte",
    "setup.index_bytes",
)

#: Tolerances of the traced run's reconciliations, as shares: per
#: request, per batch.
REQUEST_TOLERANCE = 0.05
BATCH_TOLERANCE = 0.15


def applicable(code: str) -> set:
    """Names of the per-layer metrics workload ``code`` must emit."""
    return {name for name, _, _, codes in PER_LAYER if code in codes}


def manifest(workloads, command, paths, run_seconds) -> dict:
    """The ``BENCHMARK.json`` object for this registry."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
