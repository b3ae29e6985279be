"""The temporal database: a collection of temporal objects on [0, T].

Holds the ``m`` objects, exposes the global quantities the paper's
analysis is written in (``N``, ``n_avg``, ``M = sum_i sigma_i(0, T)``),
provides the brute-force reference evaluator every exact method is
tested against, and implements the Section 4 append-style updates.

Padding: EXACT3's stabbing-query invariant and the breakpoint sweeps
assume each object's pieces cover ``[0, T]``.  ``TemporalDatabase``
optionally pads every object with zero-score pieces out to the global
span (default on); padding never changes any aggregate score.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.aggregates import SUM, Aggregate
from repro.core.errors import InvalidQueryError, ReproError
from repro.core.objects import TemporalObject
from repro.core.plfstore import PLFStore
from repro.core.results import TopKResult, top_k_from_arrays


#: Minimum consecutive scalar-path queries (with no intervening append)
#: before append staleness is cleared and the next batch consumer may
#: rebuild the columnar store (see ``note_scalar_fallback``).
_STALE_READS_BEFORE_REBUILD = 3

#: Approximate ratio between one object's per-query scalar-path cost
#: (Python-level searchsorted + arithmetic) and one knot's store-rebuild
#: cost (array packing).  Scales the re-arm threshold to ~n_avg / ratio
#: so a rebuild only happens once enough scalar work has accumulated to
#: pay for it (ski-rental): databases with few, very long objects stay
#: on their cheap scalar paths instead of thrashing O(N) rebuilds.
_SCALAR_VS_REBUILD_COST_RATIO = 100


class TemporalDatabase:
    """``m`` temporal objects with a shared temporal domain ``[0, T]``.

    Parameters
    ----------
    objects:
        The temporal objects.  Ids must be unique; they need not be
        dense, but generators produce ``0..m-1``.
    span:
        Optional ``(t_min, t_max)`` global domain; defaults to the
        tightest span covering all objects.
    pad:
        When true (default), every object is extended to the global
        span with zero-score pieces (see module docstring).
    """

    def __init__(
        self,
        objects: Iterable[TemporalObject],
        span: Optional[tuple] = None,
        pad: bool = True,
    ) -> None:
        object_list: List[TemporalObject] = list(objects)
        if not object_list:
            raise ReproError("a temporal database needs at least one object")
        ids = [obj.object_id for obj in object_list]
        if len(set(ids)) != len(ids):
            raise ReproError("object ids must be unique")
        if span is None:
            t_min = min(obj.function.start for obj in object_list)
            t_max = max(obj.function.end for obj in object_list)
        else:
            t_min, t_max = float(span[0]), float(span[1])
        if pad:
            object_list = [
                TemporalObject(
                    obj.object_id, obj.function.padded(t_min, t_max), obj.label
                )
                if (obj.function.start > t_min or obj.function.end < t_max)
                else obj
                for obj in object_list
            ]
        self._objects = object_list
        self._by_id = {obj.object_id: idx for idx, obj in enumerate(object_list)}
        self.t_min = t_min
        self.t_max = t_max
        self.padded = pad
        self._store: Optional[PLFStore] = None
        self._store_stale = False
        self._stale_reads = 0
        # Monotone append counter: every mutation that can change any
        # query answer bumps it, so result caches keyed on (query,
        # epoch) can never serve a stale answer (see repro.serving).
        self._epoch = 0
        # Maintained incrementally (appends add one segment each) so
        # N/n_avg reads are O(1) on hot paths.
        self._total_segments = sum(obj.num_segments for obj in object_list)

    # ------------------------------------------------------------------
    # mounting (storage/segments)
    # ------------------------------------------------------------------
    @classmethod
    def mounted(
        cls,
        store: PLFStore,
        labels: Optional[Sequence[str]] = None,
        span: Optional[tuple] = None,
        padded: bool = True,
        epoch: int = 0,
    ) -> "TemporalDatabase":
        """A database over an already-built (typically memmapped) store.

        The open-not-rebuild path of the durable storage tier: objects
        wrap the store's own per-object function views (zero-copy
        slices of the kernel arrays), the columnar cache is the store
        itself (warm, not stale), and the append ``epoch`` recorded at
        snapshot time is restored so serving-tier result caches keyed
        on ``(query, epoch)`` stay correct across a restart.  No
        validation or store construction happens here — the segment
        layer already checksummed the arrays.
        """
        ids = store.object_ids.tolist()
        if labels is None:
            labels = [""] * len(ids)
        objects = [
            TemporalObject(int(object_id), fn, label)
            for object_id, fn, label in zip(ids, store.functions, labels)
        ]
        self = cls.__new__(cls)
        self._objects = objects
        self._by_id = {obj.object_id: idx for idx, obj in enumerate(objects)}
        if span is None:
            span = (float(store.starts.min()), float(store.ends.max()))
        self.t_min = float(span[0])
        self.t_max = float(span[1])
        self.padded = bool(padded)
        self._store = store
        self._store_stale = False
        self._stale_reads = 0
        self._epoch = int(epoch)
        self._total_segments = store.num_segments
        return self

    # ------------------------------------------------------------------
    # pickling (storage/persistence)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The columnar store is a derived cache: dropping it keeps
        # persisted databases small and always-fresh on load.
        state = dict(self.__dict__)
        state["_store"] = None
        state["_store_stale"] = False
        state["_stale_reads"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        # Databases pickled before the columnar kernel existed lack
        # the cache attributes; fill them in so old files still load.
        self.__dict__.update(state)
        self.__dict__.setdefault("_store", None)
        self.__dict__.setdefault("_store_stale", False)
        self.__dict__.setdefault("_stale_reads", 0)
        self.__dict__.setdefault("_epoch", 0)
        if "_total_segments" not in self.__dict__:
            self._total_segments = sum(
                obj.num_segments for obj in self._objects
            )

    # ------------------------------------------------------------------
    # paper notation
    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        """``m``."""
        return len(self._objects)

    @property
    def total_segments(self) -> int:
        """``N = sum_i n_i`` (cached; maintained across appends)."""
        return self._total_segments

    @property
    def avg_segments(self) -> float:
        """``n_avg``."""
        return self.total_segments / self.num_objects

    @property
    def max_segments(self) -> int:
        """``n = max_i n_i``."""
        return max(obj.num_segments for obj in self._objects)

    @property
    def span(self) -> tuple:
        """The global temporal domain ``[0, T]`` as ``(t_min, t_max)``."""
        return self.t_min, self.t_max

    @property
    def epoch(self) -> int:
        """Monotone update counter (bumped by :meth:`append_segment`).

        Two reads of the same query between equal epochs are
        guaranteed identical, which is the invalidation contract the
        serving tier's result cache relies on.
        """
        return self._epoch

    @property
    def total_mass(self) -> float:
        """``M = sum_i sigma_i(0, T)`` (signed)."""
        return sum(obj.total_mass for obj in self._objects)

    @property
    def absolute_total_mass(self) -> float:
        """``M`` computed on ``|g_i|`` (Section 4, negative scores)."""
        return self.store(use_absolute=True).sequential_total_mass

    # ------------------------------------------------------------------
    # columnar kernel
    # ------------------------------------------------------------------
    def store(self, use_absolute: bool = False) -> PLFStore:
        """The cached columnar :class:`PLFStore` over all objects.

        Built lazily on first use and invalidated by
        :meth:`append_segment`; every object-parallel hot path (query
        scoring, breakpoint sweeps, top-list materialization) routes
        through it.  ``use_absolute`` returns the (also cached) store
        over ``|g_i|``.
        """
        if self._store is None:
            self._store = PLFStore(
                [obj.function for obj in self._objects], self.object_ids()
            )
            self._store_stale = False
        return self._store.absolute() if use_absolute else self._store

    @property
    def has_store(self) -> bool:
        """True when the columnar snapshot is built and current.

        Streaming consumers use this to choose between the batch
        kernel (store warm) and per-object scalar paths (store
        invalidated by an append): rebuilding the ``O(N)`` snapshot
        on every append-then-query tick would swamp the ``O(log n)``
        incremental index updates.
        """
        return self._store is not None

    @property
    def wants_store(self) -> bool:
        """True when batch consumers should (re)build the store.

        Either the store is already warm, or it has never been built
        (first use: the one-time build amortizes immediately).  False
        only while an append has invalidated a previously built store
        — the streaming tick pattern, where consumers with a scalar
        alternative should use it instead of rebuilding per tick.
        """
        return self._store is not None or not self._store_stale

    def note_scalar_fallback(self) -> None:
        """Record that a batch consumer answered on its scalar path.

        Prevents append staleness from pinning read-heavy workloads to
        scalar loops forever: once enough consecutive fallbacks (with
        no intervening append) have accumulated to pay for an O(N)
        rebuild — at least ``_STALE_READS_BEFORE_REBUILD``, scaled up
        with ``n_avg`` for databases whose rebuild dwarfs a scalar
        pass — staleness is cleared so the next batch consumer
        rebuilds the store, which then amortizes over the read burst.
        Streaming tick loops re-arm staleness on every append, so
        they keep their cheap scalar paths.
        """
        self._stale_reads += 1
        threshold = max(
            _STALE_READS_BEFORE_REBUILD,
            int(self.avg_segments / _SCALAR_VS_REBUILD_COST_RATIO),
        )
        if self._stale_reads >= threshold:
            self._store_stale = False
            self._stale_reads = 0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def objects(self) -> Sequence[TemporalObject]:
        return tuple(self._objects)

    def __len__(self) -> int:
        return self.num_objects

    def __iter__(self) -> Iterator[TemporalObject]:
        return iter(self._objects)

    def get(self, object_id: int) -> TemporalObject:
        """Fetch an object by id."""
        try:
            return self._objects[self._by_id[object_id]]
        except KeyError:
            raise ReproError(f"no object with id {object_id}") from None

    def object_ids(self) -> np.ndarray:
        return np.asarray([obj.object_id for obj in self._objects], dtype=np.int64)

    # ------------------------------------------------------------------
    # reference evaluation (EXACT ground truth for tests/metrics)
    # ------------------------------------------------------------------
    def scores(
        self, t1: float, t2: float, aggregate: Aggregate = SUM
    ) -> np.ndarray:
        """``sigma_i(t1, t2)`` for every object, in storage order.

        Aggregates that are finalizations of the plain integral (sum,
        avg) go through the columnar kernel in one batched pass; other
        aggregates (F2) fall back to the per-object loop.
        """
        if t2 < t1:
            raise InvalidQueryError(f"reversed interval [{t1}, {t2}]")
        if aggregate.linear_in_sum:
            if self.wants_store:
                raw = self.store().integrals(t1, t2)
                return aggregate.finalize_many(raw, t1, t2)
            self.note_scalar_fallback()
        return np.asarray(
            [aggregate.interval(obj.function, t1, t2) for obj in self._objects],
            dtype=np.float64,
        )

    def brute_force_top_k(
        self, t1: float, t2: float, k: int, aggregate: Aggregate = SUM
    ) -> TopKResult:
        """Reference answer ``A(k, t1, t2)`` by scoring every object.

        This is the semantics every method must reproduce (exactly for
        EXACT1-3, within ``(eps, alpha)`` for the approximations).
        """
        values = self.scores(t1, t2, aggregate)
        return top_k_from_arrays(self.object_ids(), values, k)

    def exact_score(self, object_id: int, t1: float, t2: float) -> float:
        """``sigma_{object_id}(t1, t2)`` for ``sigma = sum``."""
        return self.get(object_id).score(t1, t2)

    # ------------------------------------------------------------------
    # bulk views for index construction (numpy, sorted by time)
    # ------------------------------------------------------------------
    def all_segments(self) -> np.ndarray:
        """All ``N`` segments as an array sorted by left endpoint.

        Columns: ``obj_id, t0, v0, t1, v1`` — the tuple representation
        both EXACT1's B+-tree and the breakpoint sweeps consume.  The
        paper's setup likewise keeps "all line segments sorted by the
        time value of their left end-point".
        """
        st = self.store()
        segments = np.empty((st.num_segments, 5), dtype=np.float64)
        segments[:, 0] = st.object_ids[st.seg_obj].astype(np.float64)
        segments[:, 1] = st.seg_t0
        segments[:, 2] = st.seg_v0
        segments[:, 3] = st.seg_t1
        segments[:, 4] = st.seg_v1
        order = np.lexsort((segments[:, 0], segments[:, 1]))
        return segments[order]

    def sweep_events(self, use_absolute: bool = False) -> np.ndarray:
        """Knot events for the BREAKPOINTS1 total-sum sweep.

        Returns rows ``(t, dV, dW)`` sorted by time: at time ``t`` the
        summed value ``V(t) = sum_i g_i(t)`` jumps by ``dV`` and the
        summed slope ``W(t)`` changes by ``dW``.  Interior knots carry
        ``dV = 0`` and a slope change; span boundaries add/remove the
        object's value and slope, which handles objects that do not
        cover the full domain.
        """
        st = self.store(use_absolute=use_absolute)
        first = st.offsets[:-1]
        last = st.offsets[1:] - 1
        # One event per knot, in object-major knot order (the same order
        # the per-object construction emitted): a knot's slope change is
        # (slope of the segment starting here) - (slope of the segment
        # ending here), with zero contributions at the span boundaries —
        # which reduces to entry/exit events at first/last knots.
        delta_value = np.zeros(st.num_knots, dtype=np.float64)
        delta_value[first] += st.knot_values[first]
        delta_value[last] -= st.knot_values[last]
        slopes = st.csr_view().stab_slopes[st.seg_left_knot]
        delta_slope = np.zeros(st.num_knots, dtype=np.float64)
        delta_slope[st.seg_left_knot] += slopes
        delta_slope[st.seg_left_knot + 1] -= slopes
        events = np.stack([st.knot_times, delta_value, delta_slope], axis=1)
        order = np.argsort(events[:, 0], kind="stable")
        return events[order]

    # ------------------------------------------------------------------
    # updates (Section 4)
    # ------------------------------------------------------------------
    def append_segment(self, object_id: int, t_next: float, v_next: float) -> TemporalObject:
        """Append a segment to ``object_id`` at the current time frontier.

        Models the paper's update: a new segment extending ``g_i`` past
        its current right endpoint.  Returns the updated object.  Index
        structures built earlier are NOT updated automatically — their
        own ``append`` methods mirror this call.
        """
        idx = self._by_id.get(object_id)
        if idx is None:
            raise ReproError(f"no object with id {object_id}")
        updated = self._objects[idx].with_appended(t_next, v_next)
        self._objects[idx] = updated
        # The columnar snapshot is stale; drop it and remember why, so
        # batch consumers with a scalar alternative avoid per-tick
        # rebuilds (see wants_store / note_scalar_fallback).
        self._store = None
        self._store_stale = True
        self._stale_reads = 0
        self._epoch += 1
        self._total_segments += 1
        if t_next > self.t_max:
            self.t_max = t_next
        return updated

    # ------------------------------------------------------------------
    # sampling (scalability experiments)
    # ------------------------------------------------------------------
    def sample_objects(self, count: int, seed: int = 0) -> "TemporalDatabase":
        """A database over a random subset of ``count`` objects.

        Used by the "vary m" experiments (paper Figure 13), mirroring
        how the authors sampled subsets of Temp.
        """
        if count > self.num_objects:
            raise ReproError(f"cannot sample {count} of {self.num_objects} objects")
        rng = np.random.default_rng(seed)
        chosen = rng.choice(self.num_objects, size=count, replace=False)
        picked = [self._objects[i] for i in sorted(chosen)]
        return TemporalDatabase(picked, span=self.span, pad=self.padded)

    def __repr__(self) -> str:
        return (
            f"TemporalDatabase(m={self.num_objects}, N={self.total_segments}, "
            f"span=[{self.t_min:g}, {self.t_max:g}])"
        )
