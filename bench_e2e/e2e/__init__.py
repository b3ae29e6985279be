"""bench_e2e internals: seeded inputs, load generators, tracing proxies,
answer checks, layer replay, and the four workloads.

Everything here drives ``repro`` through its public entry points only;
nothing under ``src/`` imports this package.
"""
