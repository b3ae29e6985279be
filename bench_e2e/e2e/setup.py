"""What every workload's set-up shares: the run context, component
timing, and the engine build."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro import TemporalRankingEngine

from e2e import inputs
from e2e.loadgen import clock


@dataclass
class Context:
    scale: inputs.Scale
    seed: int
    seconds: float
    #: Scratch directory inside the checkout (snapshots, pool roots).
    workdir: Path


@contextmanager
def timed(parts: dict, name: str):
    start = clock()
    yield
    parts[name] = parts.get(name, 0.0) + clock() - start


def build_engine(ctx: Context, parts: dict, approximate=False, instant=False):
    """Dataset from the seed, EXACT3 eagerly, the lazy indexes on
    request; each step's time, and the size of what was built, lands
    in ``parts``."""
    with timed(parts, "generate_s"):
        database = inputs.dataset(ctx.scale, ctx.seed)
    with timed(parts, "exact3_build_s"):
        engine = TemporalRankingEngine(
            database, epsilon=ctx.scale.epsilon, kmax=inputs.ENGINE_KMAX
        )
    if approximate:
        with timed(parts, "appx2plus_build_s"):
            engine.prepare(approximate=True)
    if instant:
        with timed(parts, "instant_build_s"):
            engine.prepare(instant=True)
    parts["index_bytes"] = engine.index_size_bytes
    return engine
