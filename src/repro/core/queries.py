"""Query descriptors for aggregate top-k queries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.errors import InvalidQueryError


def integral_k(k) -> int:
    """``k`` as an ``int``: ``3.0`` and ``np.int64(3)`` pass; ``2.5``,
    NaN and inf raise instead of being truncated by a later ``int()``."""
    try:
        if int(k) == k:
            return int(k)
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        pass
    raise InvalidQueryError(f"k must be an integer, got {k!r}")


def integral_ks(ks) -> np.ndarray:
    """Batch :func:`integral_k`, as int64.  Gated on dtype: integer
    input (all the serving paths pass) costs only a no-copy cast."""
    raw = np.asarray(ks)
    if raw.dtype.kind in "iu":
        return raw.astype(np.int64, copy=False)
    raw = raw.astype(np.float64)
    with np.errstate(invalid="ignore"):  # NaN/inf cast: caught below
        cast = raw.astype(np.int64)
    if (cast != raw).any():
        raise InvalidQueryError(
            f"k must be an integer, got {raw[cast != raw][0]}"
        )
    return cast


def workload_arrays(queries) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize a workload into ``(t1s, t2s, ks)`` arrays.

    Accepts anything the batched entry points advertise: a ``(q, 3)``
    array of ``(t1, t2, k)`` rows, a sequence of such tuples, a
    sequence of :class:`TopKQuery`, or an object exposing
    ``t1s``/``t2s``/``ks`` arrays (the workload sampler's batch).
    Validation matches ``TopKQuery.__post_init__`` — non-finite
    times, reversed intervals, non-integral ``k`` and ``k < 1`` raise
    :class:`InvalidQueryError` — so a batch is rejected up front
    instead of failing mid-workload the way a scalar loop would.
    """
    if hasattr(queries, "t1s") and hasattr(queries, "ks"):
        t1s = np.asarray(queries.t1s, dtype=np.float64)
        t2s = np.asarray(queries.t2s, dtype=np.float64)
        ks = integral_ks(queries.ks)
    elif len(queries) and isinstance(queries[0], TopKQuery):
        t1s = np.asarray([q.t1 for q in queries], dtype=np.float64)
        t2s = np.asarray([q.t2 for q in queries], dtype=np.float64)
        ks = integral_ks([q.k for q in queries])
    else:
        table = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        t1s = table[:, 0].copy()
        t2s = table[:, 1].copy()
        ks = integral_ks(table[:, 2])
    if t1s.size != t2s.size or t1s.size != ks.size:
        raise InvalidQueryError("workload arrays must align")
    # NaN compares False against everything, so it would pass the
    # interval check below and come back as a NaN-scored "answer".
    if not (np.isfinite(t1s).all() and np.isfinite(t2s).all()):
        raise InvalidQueryError("query times must be finite")
    reversed_rows = np.flatnonzero(t2s < t1s)
    if reversed_rows.size:
        row = int(reversed_rows[0])
        raise InvalidQueryError(
            f"query interval reversed: [{t1s[row]}, {t2s[row]}] (row {row})"
        )
    if ks.size and int(ks.min()) < 1:
        raise InvalidQueryError(f"k must be >= 1, got {int(ks.min())}")
    return t1s, t2s, ks


@dataclass(frozen=True)
class TopKQuery:
    """``top-k(t1, t2, sigma)``: the paper's aggregate top-k query.

    Attributes
    ----------
    t1, t2:
        The closed query interval, ``t1 <= t2``.  ``t1 == t2`` recovers
        the *instant* top-k query of Li et al. as a degenerate case
        (every sum score is then 0 under integration; use the value
        aggregate of an instant query engine for that semantics).
    k:
        Number of objects to return (``1 <= k <= kmax`` for approximate
        structures built with budget ``kmax``).
    """

    t1: float
    t2: float
    k: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise InvalidQueryError(
                f"query times must be finite: [{self.t1}, {self.t2}]"
            )
        if self.t2 < self.t1:
            raise InvalidQueryError(f"query interval reversed: [{self.t1}, {self.t2}]")
        # Frozen dataclass: store the validated int so ``k=3.0`` works
        # downstream (slicing, argpartition) exactly like ``k=3``.
        object.__setattr__(self, "k", integral_k(self.k))
        if self.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {self.k}")

    @property
    def length(self) -> float:
        """Interval length ``t2 - t1``."""
        return self.t2 - self.t1
