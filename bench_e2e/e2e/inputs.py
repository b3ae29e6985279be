"""Seeded inputs: every byte a workload consumes derives from ``--seed``.

The program under test receives only what is generated here — the
dataset, the query tables, the key draws, the arrival schedules and
the append stream — so two runs with one seed replay identical inputs
(`digest` is what the self-test compares).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import generate_temp
from repro.datasets.workload import (
    WorkloadBatch,
    sample_instant_workload,
    sample_poisson_arrivals,
    sample_workload,
)

#: Largest k any generated query asks for (engine kmax is 50).
QUERY_KMAX = 20
ENGINE_KMAX = 50


@dataclass(frozen=True)
class Scale:
    """Dataset size and engine budget of one run."""

    num_objects: int
    avg_readings: int
    #: APPX2+ error budget.  6e-7 pins r ~ 230 breakpoints at the full
    #: scale without the ``epsilon_for_budget`` search that
    #: ``Appx2Plus(r=...)`` pays; the realised r is reported.
    epsilon: float
    smoke: bool


#: m = 10^4 is where the per-call costs that m = 10^3 hides dominate
#: (they scale with m, not with N); n_avg = 40 rather than the paper's
#: 100 keeps a set-up inside the driver's per-run budget.
FULL = Scale(num_objects=10_000, avg_readings=40, epsilon=6e-7, smoke=False)
#: Same code paths at a size the self-tests can afford; numbers are not
#: comparable with full runs and are flagged ``smoke: true``.
SMOKE = Scale(num_objects=400, avg_readings=40, epsilon=2e-5, smoke=True)


def dataset(scale: Scale, seed: int):
    return generate_temp(
        num_objects=scale.num_objects,
        avg_readings=scale.avg_readings,
        seed=seed,
    )


def queries(database, count: int, seed: int) -> WorkloadBatch:
    """``count`` aggregate queries; rows are distinct with probability 1
    (continuous ``t1``), which is what keeps cache and dedup cold."""
    return sample_workload(database, count=count, kmax=QUERY_KMAX, seed=seed)


def instant_queries(database, count: int, seed: int):
    return sample_instant_workload(
        database, count=count, kmax=QUERY_KMAX, seed=seed
    )


def take(table: WorkloadBatch, rows) -> WorkloadBatch:
    """The sub-table at ``rows`` (a slice or an index array)."""
    return WorkloadBatch(table.t1s[rows], table.t2s[rows], table.ks[rows])


def poisson_arrivals(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Open-loop send offsets (s) covering ``seconds`` at ``rate``/s."""
    count = int(rate * seconds * 1.2) + 64
    offsets = sample_poisson_arrivals(count, rate, seed=seed)
    return offsets[offsets < seconds]


def zipf_rows(universe: int, count: int, seed: int, s: float = 1.1):
    """``count`` row indices into a ``universe``-row table, Zipf(s)."""
    weights = 1.0 / np.arange(1, universe + 1, dtype=np.float64) ** s
    rng = np.random.default_rng(seed)
    return rng.choice(universe, size=count, p=weights / weights.sum())


def append_stream(
    database, count: int, seed: int
) -> List[Tuple[int, float, float]]:
    """``count`` appends, round-robin over objects, strictly past the
    current frontier so every one is a legal Section-4 update (and an
    epoch bump).  Appended segments lie beyond the sampled query span,
    so in-span answers are unchanged — which is what lets the checker
    verify append-phase answers at the final epoch."""
    rng = np.random.default_rng(seed)
    ids = database.object_ids()
    _, t_max = database.span
    step = (t_max - database.span[0]) / 1000.0
    out = []
    for j in range(count):
        object_id = int(ids[j % ids.size])
        last = float(database.get(object_id).function.values[-1])
        out.append(
            (
                object_id,
                float(t_max + step * (j + 1)),
                float(last + rng.normal(0.0, 1.0)),
            )
        )
    return out


def digest(*arrays) -> str:
    """Stable hex digest of generated inputs (determinism self-test)."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def dataset_digest(database) -> str:
    store = database.store()
    return digest(store.knot_times, store.knot_values, store.offsets)
