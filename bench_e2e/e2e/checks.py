"""Answer checks: every workload counts a wrong answer as a failed
operation.  References always come from a direct call at the same
epoch (or, where appends leave in-span answers unchanged, at the final
epoch) — never from the path being checked."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.bench.metrics import precision_recall


def mismatches(answers: Sequence, references: Sequence) -> int:
    """How many answers differ from their reference (bitwise on scores:
    ``TopKResult.__eq__`` compares the ranked id and score columns)."""
    return sum(
        1
        for answer, reference in zip(answers, references)
        if answer is None or answer != reference
    )


def well_formed(answer, k: int, num_objects: int) -> bool:
    """Structural check of one answer: ``min(k, m)`` distinct objects,
    scores non-increasing, ids ascending within equal scores."""
    if answer is None or len(answer) != min(int(k), num_objects):
        return False
    ids, scores = answer.object_ids, answer.scores
    if len(set(ids)) != len(ids):
        return False
    for j in range(1, len(ids)):
        if scores[j] > scores[j - 1]:
            return False
        if scores[j] == scores[j - 1] and ids[j] < ids[j - 1]:
            return False
    return True


def count_malformed(answers: Iterable, ks: Iterable, num_objects: int) -> int:
    return sum(
        0 if well_formed(answer, k, num_objects) else 1
        for answer, k in zip(answers, ks)
    )


def close_answers(answer, reference, rtol: float = 1e-9) -> bool:
    """Same ranked ids, scores equal up to float reassociation (the
    time-partitioned coordinator sums per-slice partials)."""
    if answer is None or answer.object_ids != reference.object_ids:
        return False
    return bool(
        np.allclose(answer.scores, reference.scores, rtol=rtol, atol=0.0)
    )


def within_appx2plus_bound(answer, exact, r: int, threshold: float) -> bool:
    """APPX2+ returns exact scores of a candidate subset, so rank j can
    never beat the true rank j, and the paper's (eps, 2 log r) guarantee
    of the candidate structure bounds it from below."""
    if answer is None or len(answer) != len(exact):
        return False
    alpha = 2.0 * math.log2(max(r, 2))
    for got, truth in zip(answer.scores, exact.scores):
        slack = 1e-9 * max(abs(truth), 1.0)
        if got > truth + slack:
            return False
        floor = truth / alpha if truth > 0 else truth
        if got < floor - 2.0 * threshold - slack:
            return False
    return True


def recall_at_k(answers: Sequence, exacts: Sequence) -> float:
    """Mean share of each exact answer's objects the approximate answer
    also returned."""
    return float(np.mean([precision_recall(answer, exact)
                          for answer, exact in zip(answers, exacts)]))


def strided_sample(count: int, limit: int) -> np.ndarray:
    """At most ``limit`` evenly spread positions out of ``count``."""
    if count <= limit:
        return np.arange(count)
    return np.unique(np.linspace(0, count - 1, limit).astype(np.int64))
