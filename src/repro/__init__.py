"""repro — Ranking Large Temporal Data (Jestes et al., VLDB 2012).

A complete reproduction of the paper's exact and approximate aggregate
top-k indexes over temporal data, including the external-memory
substrates (block device with IO accounting, B+-tree, interval tree,
external priority queue), synthetic stand-ins for the Temp and Meme
datasets, and a benchmark harness regenerating every figure of the
paper's evaluation.

Quickstart::

    from repro import generate_temp, random_queries, Exact3, Appx2

    db = generate_temp(num_objects=500, avg_readings=80, seed=1)
    exact = Exact3().build(db)
    approx = Appx2(epsilon=1e-4, kmax=50).build(db)
    query = random_queries(db, count=1, k=10)[0]
    print(exact.query(query).object_ids)
    print(approx.query(query).object_ids)
"""

from repro.core import (
    AVG,
    F2,
    SUM,
    Aggregate,
    CoordinatorShutdown,
    DeadlineExceeded,
    NodeUnavailable,
    PartialResultError,
    PiecewiseLinearFunction,
    PiecewisePolynomialFunction,
    RankedItem,
    ReproError,
    TemporalDatabase,
    TemporalObject,
    TopKQuery,
    TopKResult,
    from_samples,
)
from repro.datasets import generate_meme, generate_temp, random_queries
from repro.distributed import ObjectPartitionedCluster, TimePartitionedCluster
from repro.exact import Exact1, Exact2, Exact3, RankingMethod
from repro.holistic import QuantileRanker, interval_median, interval_quantile
from repro.instant import InstantBruteForce, InstantIntervalTree
from repro.engine import TemporalRankingEngine
from repro.storage.persistence import (
    PersistenceError,
    read_payload,
    write_payload,
)
from repro.approximate import (
    Appx1,
    Appx1B,
    Appx2,
    Appx2B,
    Appx2Plus,
    Breakpoints,
    build_breakpoints1,
    build_breakpoints2,
    epsilon_for_budget,
)

__version__ = "1.0.0"


def open(path, verify: bool = True):
    """Mount any snapshot directory (engine or cluster) zero-copy.

    Dispatches on the catalog's recorded kind: an engine snapshot
    returns a :class:`TemporalRankingEngine`, a cluster snapshot the
    matching cluster class.  Mounting performs no index builds — the
    kernel arrays come back as read-only ``np.memmap`` views and every
    persisted index re-attaches as built — and the mounted object
    answers queries bit-identically to the one that was snapshotted.
    """
    from repro.storage.snapshot import open_any

    return open_any(path, verify=verify)

__all__ = [
    "Aggregate",
    "SUM",
    "AVG",
    "F2",
    "PiecewiseLinearFunction",
    "PiecewisePolynomialFunction",
    "TemporalDatabase",
    "TemporalObject",
    "TopKQuery",
    "TopKResult",
    "RankedItem",
    "from_samples",
    "RankingMethod",
    "Exact1",
    "Exact2",
    "Exact3",
    "Appx1",
    "Appx1B",
    "Appx2",
    "Appx2B",
    "Appx2Plus",
    "Breakpoints",
    "build_breakpoints1",
    "build_breakpoints2",
    "epsilon_for_budget",
    "generate_temp",
    "generate_meme",
    "random_queries",
    "InstantBruteForce",
    "InstantIntervalTree",
    "QuantileRanker",
    "interval_quantile",
    "interval_median",
    "ObjectPartitionedCluster",
    "TimePartitionedCluster",
    "TemporalRankingEngine",
    "open",
    "ReproError",
    "NodeUnavailable",
    "DeadlineExceeded",
    "PartialResultError",
    "CoordinatorShutdown",
    "PersistenceError",
    "write_payload",
    "read_payload",
    "__version__",
]
