"""Breakpoint constructions (paper Section 3.1).

Both approximate methods discretize the time domain into breakpoints
``B = {b_0 = 0, ..., b_{r-1} = T}`` and snap query endpoints to them.
The two constructions differ in the threshold condition between
consecutive breakpoints:

* **BREAKPOINTS1** places ``b_{j+1}`` where the *summed* accumulated
  mass reaches the threshold: ``sum_i sigma_i(b_j, b_{j+1}) = eps*M``.
  Exactly ``r = ceil(1/eps) + 1`` breakpoints result.
* **BREAKPOINTS2** places ``b_{j+1}`` where the *maximum per-object*
  accumulated mass reaches it: ``max_i sigma_i(b_j, b_{j+1}) = eps*M``.
  At most ``1/eps + 1`` breakpoints result, and on heterogeneous real
  data far fewer — equivalently, for a fixed budget ``r`` the achieved
  ``eps`` is orders of magnitude smaller (paper Figure 11(a)).

Both guarantee the Lemma 2 property ``sigma_i(b_j, b_{j+1}) <= eps*M``
for every object, which is what the query structures' error bounds
rest on.

Negative scores (Section 4): pass ``use_absolute=True`` and all masses
are measured on ``|g_i|``; the guarantee then holds with ``M`` defined
on absolute values.

Both constructions route their object-parallel steps (event stream
assembly, the baseline's per-breakpoint reset, drift fallbacks,
verification) through the database's columnar
:class:`~repro.core.plfstore.PLFStore`; because the kernel reproduces
the scalar arithmetic bit for bit, the produced breakpoint sets are
byte-identical to the historical per-object implementation.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.errors import ReproError
from repro.core.geometry import solve_linear_mass


@dataclass(frozen=True)
class Breakpoints:
    """A built breakpoint set with its construction metadata."""

    times: np.ndarray
    epsilon: float
    total_mass: float
    method: str
    build_seconds: float = field(default=0.0, compare=False)
    #: True when construction was aborted at a breakpoint cap (only the
    #: budget search sets caps; capped sets must not be used to answer
    #: queries).
    truncated: bool = field(default=False, compare=False)

    @property
    def r(self) -> int:
        """Number of breakpoints (including both domain endpoints)."""
        return int(self.times.size)

    @property
    def threshold(self) -> float:
        """The mass threshold ``eps * M`` used during construction."""
        return self.epsilon * self.total_mass

    def snap(self, t: float) -> int:
        """Index of ``B(t)``: the smallest breakpoint >= ``t`` (clamped)."""
        idx = int(np.searchsorted(self.times, t, side="left"))
        return min(idx, self.r - 1)

    def snap_time(self, t: float) -> float:
        """``B(t)`` itself."""
        return float(self.times[self.snap(t)])

    def verify(self, database: TemporalDatabase, use_absolute: bool = False) -> float:
        """Max per-object mass between consecutive breakpoints (tests).

        For a correct construction this never exceeds ``threshold``
        (up to roundoff).  Returns the observed maximum, computed for
        all objects at once through the columnar kernel.
        """
        masses = database.store(use_absolute=use_absolute).masses_between(
            self.times
        )
        # Floor at 0 like the historical running-max loop: with signed
        # scores every gap can be negative, and callers read the result
        # as a nonnegative observed maximum.
        return max(float(masses.max()), 0.0)


# ----------------------------------------------------------------------
# BREAKPOINTS1: sum-threshold sweep
# ----------------------------------------------------------------------
def build_breakpoints1(
    database: TemporalDatabase,
    epsilon: Optional[float] = None,
    r: Optional[int] = None,
    use_absolute: bool = False,
) -> Breakpoints:
    """BREAKPOINTS1 via a single sweep over all segment endpoints.

    The sweep maintains the summed value ``V(t) = sum_i g_i(t)`` and
    summed slope ``W(t)``; between events the accumulated mass is the
    quadratic ``V dt + W dt^2 / 2``, so each breakpoint is found by a
    closed-form solve (the paper's construction, vectorized).

    Exactly one of ``epsilon`` / ``r`` must be given; with ``r`` the
    threshold is ``eps = 1/(r-1)`` (the paper's ``r = 1/eps + 1``).
    """
    start = time.perf_counter()
    epsilon = _resolve_epsilon1(epsilon, r)
    total = (
        database.absolute_total_mass if use_absolute else database.total_mass
    )
    if total <= 0:
        raise ReproError("breakpoints need positive total mass M")
    threshold = epsilon * total

    events = database.sweep_events(use_absolute=use_absolute)
    times = events[:, 0]
    # Piecewise-linear summed function: value/slope right after event j.
    w_after = np.cumsum(events[:, 2])
    dt = np.diff(times)
    v_jump = np.cumsum(events[:, 1])
    # V right after event j = jumps so far + slope-accumulated drift.
    drift = np.concatenate([[0.0], np.cumsum(w_after[:-1] * dt)])
    v_after = v_jump + drift
    # Mass accumulated inside each inter-event gap, then cumulatively.
    gap_mass = v_after[:-1] * dt + 0.5 * w_after[:-1] * dt * dt
    cum_mass = np.concatenate([[0.0], np.cumsum(gap_mass)])

    final_mass = float(cum_mass[-1])
    # Self-check: the sweep's running sums cancel very steep slopes
    # against long flat gaps; on adversarial data (microscopic bursts)
    # the cancellation error can reach the mass scale.  When the sweep
    # total disagrees with the exact total, recompute the cumulative
    # mass from per-object prefix sums (slower but exact).
    drifted = (
        not np.isfinite(final_mass)
        or abs(final_mass - total) > 1e-6 * max(total, 1e-300)
    )
    store = None
    if drifted:
        # Exact cumulative totals at the event times, and bisection for
        # the in-gap crossings.  The grid keeps the historical
        # per-function sequential accumulation (NOT a pairwise-summed
        # kernel call): byte-identity with the scalar construction
        # requires the same summation order, and this fallback was
        # always the slow-but-exact path.
        store = database.store(use_absolute=use_absolute)
        cum_mass = _exact_cumulative_grid(store, times)
        final_mass = float(cum_mass[-1])
    if not (np.isfinite(final_mass) and np.isfinite(threshold) and threshold > 0):
        raise ReproError("breakpoint sweep produced non-finite masses")

    def assemble(cum: np.ndarray, exact: bool) -> np.ndarray:
        count = int(np.floor((float(cum[-1]) - 1e-12 * max(total, 1.0)) / threshold))
        targets = threshold * np.arange(1, max(count, 0) + 1)
        pieces = np.searchsorted(cum, targets, side="left") - 1
        pieces = np.clip(pieces, 0, dt.size - 1)
        breakpoints = [database.t_min]
        for target, piece in zip(targets, pieces):
            lo_t, hi_t = float(times[piece]), float(times[piece + 1])
            if exact:
                breakpoints.append(
                    _bisect_total_mass(store, lo_t, hi_t, float(target))
                )
            else:
                need = float(target - cum[piece])
                x = solve_linear_mass(
                    float(v_after[piece]), float(w_after[piece]), need, float(dt[piece])
                )
                breakpoints.append(lo_t + x)
        breakpoints.append(database.t_max)
        return np.unique(np.asarray(breakpoints, dtype=np.float64))

    unique = assemble(cum_mass, drifted)
    if not drifted:
        # Post-build self-check (Lemma 2): mid-sweep cancellation can
        # overshoot one gap even when the final sweep mass agrees with
        # the exact total (so the drift gate above never fires).  One
        # kernel call measures every gap's exact summed mass; on
        # violation, rebuild on exact cumulatives via bisection.
        store = database.store(use_absolute=use_absolute)
        gap_totals = store.masses_between(unique).sum(axis=0)
        # Trip tolerance 1e-7: ~100x above the sweep's ordinary
        # accumulation roundoff even at r ~ 1000 (measured ~7e-10, and
        # growing with r), so benign inputs never pay the exact
        # rebuild, yet 10x stricter than the 1e-6 slack the Lemma 2
        # consumers and tests rely on.
        if gap_totals.size and float(gap_totals.max()) > threshold * (1.0 + 1e-7):
            unique = assemble(_exact_cumulative_grid(store, times), True)
    return Breakpoints(
        times=unique,
        epsilon=epsilon,
        total_mass=total,
        method="BREAKPOINTS1",
        build_seconds=time.perf_counter() - start,
    )


def _exact_cumulative_grid(store, times: np.ndarray) -> np.ndarray:
    """Summed exact cumulatives at the event times.

    The per-function sequential accumulation (NOT a pairwise-summed
    kernel call) is load-bearing: byte-identity with the historical
    scalar construction requires the same summation order.
    """
    cum = np.zeros(times.size, dtype=np.float64)
    for fn in store.functions:
        cum += fn.cumulative_many(times)
    return cum


def _bisect_total_mass(store, lo: float, hi: float, target: float) -> float:
    """Time in ``[lo, hi]`` where the exact summed cumulative hits target.

    Each probe evaluates every object's cumulative in one kernel call;
    the left-to-right scalar summation order is preserved so results
    match the historical per-object loop bit for bit.
    """
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        mass = sum(store.cumulative_at(mid).tolist())
        if mass < target:
            lo = mid
        else:
            hi = mid
    return hi


def _resolve_epsilon1(epsilon: Optional[float], r: Optional[int]) -> float:
    if (epsilon is None) == (r is None):
        raise ReproError("give exactly one of epsilon / r")
    if epsilon is None:
        if r < 2:
            raise ReproError("r must be at least 2")
        return 1.0 / (r - 1)
    if epsilon <= 0:
        raise ReproError("epsilon must be positive")
    return epsilon


# ----------------------------------------------------------------------
# BREAKPOINTS2: max-threshold sweep
# ----------------------------------------------------------------------
def build_breakpoints2_baseline(
    database: TemporalDatabase,
    epsilon: float,
    use_absolute: bool = False,
) -> Breakpoints:
    """Baseline BREAKPOINTS2: recompute every object at each breakpoint.

    After fixing ``b_j``, every object's next individual crossing time
    ``c_i = F_i^{-1}(F_i(b_j) + eps*M)`` is recomputed and the minimum
    taken — the O(r*m) reset cost the paper attributes to the naive
    construction (Figure 11(b) shows its build time growing with r).
    The per-breakpoint reset runs through the columnar kernel (one
    batched cumulative + one batched inverse per breakpoint), which
    keeps the O(r*m) work but removes the per-object Python overhead.
    """
    start = time.perf_counter()
    total, store = _prepare_store(database, use_absolute)
    threshold = epsilon * total
    t_end = database.t_max
    breakpoints = [database.t_min]
    current = database.t_min
    while True:
        crossings = store.inverse_cumulative_many(
            store.cumulative_at(current) + threshold
        )
        candidate = float(crossings.min())
        if candidate >= t_end or candidate == float("inf"):
            break
        breakpoints.append(candidate)
        current = candidate
    breakpoints.append(t_end)
    return Breakpoints(
        times=np.unique(np.asarray(breakpoints)),
        epsilon=epsilon,
        total_mass=total,
        method="BREAKPOINTS2",
        build_seconds=time.perf_counter() - start,
    )


def build_breakpoints2(
    database: TemporalDatabase,
    epsilon: float,
    use_absolute: bool = False,
    max_r: Optional[int] = None,
    batched: bool = True,
) -> Breakpoints:
    """Efficient BREAKPOINTS2 (paper Lemma 1): a segment-driven sweep.

    ``max_r`` aborts construction once that many breakpoints exist
    (returning a ``truncated`` result); the budget search uses it to
    reject too-small epsilons without paying for millions of
    breakpoints.

    The naive construction recomputes every object's next crossing
    time at every breakpoint (the ``O(r*m)`` reset term).  Following
    the paper's bookkeeping argument, this sweep instead touches an
    object only when:

    * one of **its own** segments arrives in the time-ordered segment
      stream — the object is then checked for becoming *dangerous*
      (its running mass since the current breakpoint would cross
      ``eps*M`` inside this segment), or
    * it sits in the dangerous heap and floats to the top.  Heap
      entries carry the breakpoint index they were computed against;
      since cumulatives are monotone, stale entries are lower bounds,
      so popping the minimum is safe: a fresh minimum IS the next
      breakpoint, a stale one is recomputed — and *dropped* when its
      crossing moved past the object's current segment (its next
      segment pop re-examines it for free).

    The drop rule is what removes the reset term: after a breakpoint,
    non-causing objects are not revisited until their own next segment
    appears, giving ``O((N + r) log)`` total work.

    ``batched`` (default) replaces the per-event Python danger check
    with a vectorized pre-pass over blocks of segments (see
    :func:`_sweep_segments_batched`); the heap and all crossing
    resolution stay scalar, and the produced breakpoint set is
    byte-identical to ``batched=False`` (the historical per-event
    loop, kept for the equivalence suite).
    """
    start = time.perf_counter()
    total, store = _prepare_store(database, use_absolute)
    threshold = epsilon * total
    t_end = database.t_max
    t_start = database.t_min

    # Time-ordered stream of all segments: (t_left, object, t_right,
    # cumulative mass at t_right) — straight out of the columnar store.
    order = np.argsort(store.seg_t0, kind="stable")
    seg_left = store.seg_t0[order]
    seg_right = store.seg_t1[order]
    seg_cum = store.seg_prefix_hi[order]
    seg_obj = store.seg_obj[order]

    sweep = _sweep_segments_batched if batched else _sweep_segments_scalar
    breakpoints, truncated = sweep(
        store, threshold, t_start, t_end, max_r,
        seg_left, seg_right, seg_cum, seg_obj,
    )
    return Breakpoints(
        times=np.unique(np.asarray(breakpoints)),
        epsilon=epsilon,
        total_mass=total,
        method="BREAKPOINTS2",
        build_seconds=time.perf_counter() - start,
        truncated=truncated,
    )


def _sweep_segments_scalar(
    store,
    threshold: float,
    t_start: float,
    t_end: float,
    max_r: Optional[int],
    seg_left: np.ndarray,
    seg_right: np.ndarray,
    seg_cum: np.ndarray,
    seg_obj: np.ndarray,
):
    """The historical per-event BREAKPOINTS2 loop (reference path)."""
    functions = store.functions
    num_segments = seg_left.size
    m = len(functions)
    breakpoints: List[float] = [t_start]
    current_index = 0
    current_time = t_start
    # Per-object cache of F_i(b_cur): (base index, value).
    base_index = np.full(m, -1, dtype=np.int64)
    base_mass = np.zeros(m, dtype=np.float64)
    # Right endpoint of each object's most recently seen segment.
    frontier = np.full(m, -np.inf, dtype=np.float64)

    def rebased_mass(i: int) -> float:
        if base_index[i] != current_index:
            base_mass[i] = functions[i].cumulative(current_time)
            base_index[i] = current_index
        return float(base_mass[i])

    heap: list = []  # (crossing time, object, base index)
    position = 0
    truncated = False
    while position < num_segments or heap:
        if max_r is not None and len(breakpoints) >= max_r:
            truncated = True
            break
        next_segment_t = seg_left[position] if position < num_segments else np.inf
        next_candidate_t = heap[0][0] if heap else np.inf
        if next_candidate_t >= t_end and next_segment_t == np.inf:
            break
        if next_candidate_t <= next_segment_t:
            candidate, i, base = heapq.heappop(heap)
            if candidate >= t_end:
                break
            fn = functions[i]
            if base != current_index:
                # Stale lower bound: recompute once against the newest
                # breakpoint; keep only if still inside the object's
                # current segment, else its next segment re-checks it.
                fresh = fn.inverse_cumulative(rebased_mass(i) + threshold)
                if fresh <= frontier[i]:
                    heapq.heappush(heap, (fresh, i, current_index))
                continue
            # Fresh minimum: this is b_{j+1}.
            breakpoints.append(candidate)
            current_index += 1
            current_time = candidate
            # The causing object rebases exactly at the threshold.
            base_mass[i] += threshold
            base_index[i] = current_index
            nxt = fn.inverse_cumulative(float(base_mass[i]) + threshold)
            if nxt <= frontier[i]:
                heapq.heappush(heap, (nxt, i, current_index))
        else:
            # A segment arrives: is its object dangerous inside it?
            i = int(seg_obj[position])
            frontier[i] = seg_right[position]
            if seg_cum[position] - rebased_mass(i) >= threshold:
                crossing = functions[i].inverse_cumulative(
                    float(base_mass[i]) + threshold
                )
                heapq.heappush(heap, (crossing, i, current_index))
            position += 1
    breakpoints.append(t_end)
    return breakpoints, truncated


#: Segments per vectorized danger-check block in the batched BP2 sweep.
_DANGER_BLOCK = 1 << 14

#: Relative slack (of the total mass M) added to the batched danger
#: pre-filter.  The pre-pass evaluates each block against base masses
#: snapshotted at block creation; bases only grow as breakpoints
#: advance, so a stale snapshot flags a *superset* of the truly
#: dangerous segments — except that a causing object's cached base
#: (``prev + eps*M`` exactly) can exceed its recomputed cumulative by
#: a few ulps.  The slack (~1e-9 M, vs ulp drift ~1e-16 M) makes the
#: filter conservatively wide; flagged segments always re-run the
#: exact scalar check, so extra flags cost time, never correctness.
_DANGER_SLACK = 1e-9


#: Rebuild the heap eagerly per breakpoint once it holds this many
#: entries (relative to m): below, stale entries are recomputed lazily
#: one pop at a time; above, one kernel pass refreshes every crossing.
_EAGER_RESET_FRACTION = 8


def _sweep_segments_batched(
    store,
    threshold: float,
    t_start: float,
    t_end: float,
    max_r: Optional[int],
    seg_left: np.ndarray,
    seg_right: np.ndarray,
    seg_cum: np.ndarray,
    seg_obj: np.ndarray,
):
    """BREAKPOINTS2 sweep with batched danger checks and crossings.

    Produces the same breakpoint sequence as
    :func:`_sweep_segments_scalar`, event for event, with the scalar
    per-event math replaced by per-breakpoint kernel passes:

    * "which objects become dangerous in this block of segments" is a
      vectorized pre-pass over ``_DANGER_BLOCK`` segments (a
      conservative superset — see ``_DANGER_SLACK``); unflagged
      segments are skipped in bulk,
    * exact bases and crossings are served from per-object memos
      (per breakpoint index) while the dangerous heap is small — the
      lazy sweep's O(touched) accounting, which keeps the Lemma 1
      advantage over the baseline's reset term — and from one
      ``cumulative_at`` + ``inverse_cumulative_many`` kernel pass per
      breakpoint once the heap grows past
      ``m / _EAGER_RESET_FRACTION`` entries (both sources are
      bit-identical to the scalar loop's per-object calls, with the
      causing object's exact-threshold rebase overriding its kernel
      value),
    * in that large-heap regime, a new breakpoint also rebuilds the
      heap outright from the cached crossings instead of letting each
      stale entry pop-recompute-push individually.  A rebuilt entry is
      dropped when its crossing lies past the object's current
      frontier — exactly the scalar drop rule; the object's own next
      segment re-discovers the crossing before its time, so the
      accepted breakpoint sequence is unchanged (the equivalence
      suite asserts byte-identity),
    * the per-object ``frontier`` array becomes a lazy lookup over the
      per-object stream positions.
    """
    functions = store.functions
    num_segments = seg_left.size
    m = len(functions)
    breakpoints: List[float] = [t_start]
    current_index = 0
    current_time = t_start
    base_index = np.full(m, -1, dtype=np.int64)
    base_mass = np.zeros(m, dtype=np.float64)

    # Frontier (right endpoint of each object's most recently seen
    # segment), synced lazily: bulk-skipped segment ranges are folded
    # in with one vectorized max-scatter right before any read, so the
    # total sync work is O(N) across the whole sweep.
    frontier = np.full(m, -np.inf, dtype=np.float64)
    synced_upto = 0
    position = 0

    def frontier_of(i: int) -> float:
        nonlocal synced_upto
        if synced_upto < position:
            window = slice(synced_upto, position)
            np.maximum.at(frontier, seg_obj[window], seg_right[window])
            synced_upto = position
        return float(frontier[i])

    def rebased_mass(i: int) -> float:
        if base_index[i] != current_index:
            base_mass[i] = functions[i].cumulative(current_time)
            base_index[i] = current_index
        return float(base_mass[i])

    # Exact bases and crossings come from one of two bit-identical
    # sources: per-object scalar computations memoized per breakpoint
    # index (the lazy sweep's O(touched) accounting), or — once an
    # eager reset has run for the current index — full kernel vectors.
    cache_index = -1
    base_vec: Optional[np.ndarray] = None
    crossings: Optional[np.ndarray] = None
    crossing_index = np.full(m, -1, dtype=np.int64)
    crossing_memo = np.zeros(m, dtype=np.float64)

    def full_refresh() -> None:
        nonlocal cache_index, base_vec, crossings
        if cache_index == current_index:
            return
        kernel = store.cumulative_at(current_time)
        base_vec = np.where(base_index == current_index, base_mass, kernel)
        crossings = store.inverse_cumulative_many(base_vec + threshold)
        cache_index = current_index

    def base_of(i: int) -> float:
        if cache_index == current_index:
            return float(base_vec[i])
        return rebased_mass(i)

    def crossing_of(i: int) -> float:
        if cache_index == current_index:
            return float(crossings[i])
        if crossing_index[i] != current_index:
            crossing_memo[i] = functions[i].inverse_cumulative(
                rebased_mass(i) + threshold
            )
            crossing_index[i] = current_index
        return float(crossing_memo[i])

    # Slack scales with the mass magnitude (base drift is ulps of the
    # per-object cumulatives, not of the threshold).
    slack = _DANGER_SLACK * max(
        float(np.abs(store.totals).max()), abs(threshold)
    )
    limit = threshold - slack
    block_end = 0
    flagged: List[int] = []
    flag_cursor = 0
    reset_min = max(64, m // _EAGER_RESET_FRACTION)
    kernel_index = -1
    kernel_base: Optional[np.ndarray] = None

    heap: list = []  # (crossing time, object, base index)
    truncated = False
    while position < num_segments or heap:
        if max_r is not None and len(breakpoints) >= max_r:
            truncated = True
            break
        next_segment_t = seg_left[position] if position < num_segments else np.inf
        next_candidate_t = heap[0][0] if heap else np.inf
        if next_candidate_t >= t_end and next_segment_t == np.inf:
            break
        if next_candidate_t <= next_segment_t:
            # ---- crossing resolution.
            candidate, i, base = heapq.heappop(heap)
            if candidate >= t_end:
                break
            if base != current_index:
                # Stale lower bound: recompute exactly against the newest
                # breakpoint; keep only if still inside the object's
                # current segment (the scalar drop rule).
                fresh = crossing_of(i)
                if fresh <= frontier_of(i):
                    heapq.heappush(heap, (fresh, i, current_index))
                continue
            # Fresh minimum: this is b_{j+1}.  The causing object rebases
            # exactly at the threshold on top of the base its accepted
            # crossing was computed from.
            caused_base = base_of(i)
            breakpoints.append(candidate)
            current_index += 1
            current_time = candidate
            base_mass[i] = caused_base + threshold
            base_index[i] = current_index
            if len(heap) >= reset_min:
                # Eager reset: every entry would pop stale against the
                # new breakpoint anyway; one kernel pass refreshes all
                # crossings and rebuilds the heap (duplicates collapse).
                # Entries past their object's frontier are dropped — the
                # scalar drop rule; the object's own next segment
                # re-discovers the crossing in time.
                full_refresh()
                live = {i} | {entry[1] for entry in heap}
                heap = []
                for obj in live:
                    fresh = float(crossings[obj])
                    if fresh <= frontier_of(obj):
                        heap.append((fresh, obj, current_index))
                heapq.heapify(heap)
            else:
                nxt = crossing_of(i)
                if nxt <= frontier_of(i):
                    heapq.heappush(heap, (nxt, i, current_index))
        else:
            # ---- segment arrivals: batched danger pre-pass.
            if position >= block_end:
                block_start = position
                block_end = min(position + _DANGER_BLOCK, num_segments)
                if kernel_index != current_index:
                    kernel_base = store.cumulative_at(current_time)
                    kernel_index = current_index
                snapshot = np.where(
                    base_index == current_index, base_mass, kernel_base
                )
                window = slice(block_start, block_end)
                danger = seg_cum[window] - snapshot[seg_obj[window]] >= limit
                flagged = (block_start + np.flatnonzero(danger)).tolist()
                flag_cursor = 0
            while flag_cursor < len(flagged) and flagged[flag_cursor] < position:
                flag_cursor += 1
            first = (
                flagged[flag_cursor] if flag_cursor < len(flagged) else num_segments
            )
            if first == position:
                # The exact danger check for the flagged segment (identical
                # compare and push value as the scalar loop, via the
                # cached bases/crossings).
                flag_cursor += 1
                i = int(seg_obj[position])
                if seg_cum[position] - base_of(i) >= threshold:
                    heapq.heappush(heap, (crossing_of(i), i, current_index))
                position += 1
                continue
            # A clean run up to the next flagged segment, the next heap
            # candidate's arrival, or the block end — skip it in bulk.
            target = min(first, block_end)
            if heap:
                target = min(
                    target, int(np.searchsorted(seg_left, next_candidate_t, "left"))
                )
            position = target
    breakpoints.append(t_end)
    return breakpoints, truncated


def _prepare_store(database: TemporalDatabase, use_absolute: bool):
    """The (cached) columnar store and the scalar-summed total mass M."""
    store = database.store(use_absolute=use_absolute)
    total = store.sequential_total_mass
    if total <= 0:
        raise ReproError("breakpoints need positive total mass M")
    return total, store


def epsilon_for_budget(
    database: TemporalDatabase,
    r_target: int,
    use_absolute: bool = False,
    tolerance: int = 0,
    max_iterations: int = 60,
) -> float:
    """Largest ``eps`` whose BREAKPOINTS2 has about ``r_target`` points.

    The paper's experiments fix the breakpoint *budget* r and compare
    the epsilon each construction achieves (Figure 11(a)); since
    ``r(eps)`` is monotone nonincreasing this is a binary search.
    """
    if r_target < 2:
        raise ReproError("r_target must be at least 2")
    lo, hi = 1e-14, 1.0  # eps=1 gives r=2; eps->0 gives r->max
    best = hi
    cap = 4 * r_target + 16  # abort hopeless (too-small eps) probes early
    for _ in range(max_iterations):
        mid = np.sqrt(lo * hi)  # geometric: eps spans many decades
        probe = build_breakpoints2(database, mid, use_absolute, max_r=cap)
        r_mid = cap if probe.truncated else probe.r
        if not probe.truncated and abs(r_mid - r_target) <= tolerance:
            return float(mid)
        if r_mid > r_target:
            lo = mid
        else:
            hi = mid
            best = mid
    return float(best)
