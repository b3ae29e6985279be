"""Shared helpers for the test suite (importable, unlike conftest)."""

from __future__ import annotations

import numpy as np

from repro.core import PiecewiseLinearFunction, TemporalDatabase, TemporalObject


def make_random_database(
    num_objects: int = 30,
    avg_segments: int = 20,
    span: float = 100.0,
    seed: int = 0,
    negative: bool = False,
) -> TemporalDatabase:
    """A random PLF database with non-aligned knots across objects."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(num_objects):
        n = max(2, int(rng.integers(avg_segments // 2, avg_segments * 2)))
        times = np.unique(rng.uniform(0, span, n + 1))
        while times.size < 2:
            times = np.unique(rng.uniform(0, span, n + 3))
        low = -5.0 if negative else 0.0
        values = rng.uniform(low, 10.0, times.size)
        objects.append(TemporalObject(i, PiecewiseLinearFunction(times, values)))
    return TemporalDatabase(objects, span=(0.0, span), pad=True)



def random_intervals(database: TemporalDatabase, count: int, seed: int = 0):
    """Random (t1, t2) pairs inside the database's domain."""
    rng = np.random.default_rng(seed)
    t_min, t_max = database.span
    pairs = np.sort(rng.uniform(t_min, t_max, (count, 2)), axis=1)
    return [(float(a), float(b)) for a, b in pairs]


def breakpoints_equivalent(a, b, atol: float = 1e-6) -> bool:
    """True when two breakpoint sets agree up to one boundary point.

    The baseline and segment-driven BREAKPOINTS2 builds can disagree on
    a single breakpoint that sits exactly at a threshold boundary
    (last-ulp float differences decide whether the final eps*M crossing
    exists); both results satisfy Lemma 2, so tests treat them as
    equivalent.
    """
    short, long = (a, b) if a.r <= b.r else (b, a)
    if long.r - short.r > 1:
        return False
    # Every breakpoint of the shorter set must appear in the longer.
    for t in short.times:
        if np.min(np.abs(long.times - t)) > atol:
            return False
    return True


def force_threads(monkeypatch, module, threads: int) -> list:
    """Run ``module``'s automatic split (EXACT3 batches, the QUERY1
    build) inline (``threads=1``) or over two threads (``threads=2``)
    whatever the work and the host's CPUs, by moving the module's
    ``SPLIT_WORK`` threshold; returns the thread counts the split
    points then actually ran on."""
    from repro.parallel import executor

    monkeypatch.setattr(
        module, "SPLIT_WORK", 0 if threads == 2 else float("inf")
    )
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 2)
    ran = []
    real = module.thread_map

    def spy(fn, tasks, workers):
        ran.append(workers)
        return real(fn, tasks, workers)

    monkeypatch.setattr(module, "thread_map", spy)
    return ran
