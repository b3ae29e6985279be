"""Time-partitioned distributed ranking, with a threshold algorithm.

The harder distributed layout: the time domain is cut into ``p``
slices (:func:`~repro.distributed.partitioner.time_range_partition`) and
node ``i`` stores *every* object restricted to slice ``i``.  A query
interval now spans several nodes, each holding only a partial
aggregate per object, so the coordinator must combine per-node
partials.

Two protocols:

* :meth:`TimePartitionedCluster.query_scatter_gather` — every touched
  node ships **all** ``m`` partial scores; exact, one round, but
  ``O(m * p)`` pairs of communication.
* :meth:`TimePartitionedCluster.query_threshold` — Fagin-style
  Threshold Algorithm: nodes stream their partials in descending
  batches (sorted access); the coordinator random-access-probes the
  other nodes for every newly seen object and stops as soon as the
  running k-th best total reaches the threshold (the sum of the
  current batch frontiers).  Exact, and on skewed data it ships a
  small fraction of the pairs.  Every sorted-access-plus-probe round
  is recorded in :attr:`CommStats.rounds` (with sorted vs random
  splits), so convergence is observable per round, not just in final
  totals.  Sorted access streams from each node's **prefix-list TA
  index** (:mod:`repro.distributed.ta_index`): one CSR kernel pass
  materializes the partial-score row, and the descending order is an
  argpartition prefix extended lazily — a TA round never pays a full
  local top-``m`` sort.

:meth:`TimePartitionedCluster.query_many` serves whole workloads.
``protocol="scatter"`` replays the scatter-gather protocol batched:
per-node partial-score matrices through each shard's CSR kernel,
accumulated in node order (bit-identical float sequence to the scalar
coordinator) and reduced with one columnar top-k pass.  Only the
slices a query *cuts* cost arithmetic: a partial is ``C(t2) - C(t1)``,
and on a slice the query covers both cumulatives are stored values
(0 and the slice's total mass), so a node locates pieces only for the
one or two endpoints inside its slice.  A node holding every answer
column (the padded database's layout, :func:`column_layout`) adds its
partials row for row, with no gather/scatter.
``protocol="threshold"`` runs the **lock-step batched TA**: all live
queries advance their TA rounds together, so each round is one
vectorized sorted-access pass per node (every live query's next batch
from that node's prefix lists) and one batched random-access probe per
node (the union of newly seen ids, scattered back per query), with
per-query early termination masking finished queries out of later
rounds.  Answers, tie-breaks, per-round comm records, and round counts
are bit-identical to looping :meth:`query_threshold` — both paths read
the same canonical prefix streams and the same kernel score rows.

This realizes, at simulation level, the "distributed setting" the
paper's conclusion leaves open.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.errors import NodeUnavailable, PartialResultError
from repro.core.queries import workload_arrays
from repro.core.results import TopKResult, top_k_from_arrays
from repro.distributed.comm import CommStats
from repro.distributed.nodes import StorageNode, make_replica_groups
from repro.distributed.partitioner import time_boundaries, time_range_partition


class _DeadStream:
    """Stand-in stream for a slot whose node lost every replica.

    Size 0 reads as "exhausted": the TA charges it a 0.0 frontier (the
    same bound an exhausted healthy stream gets) and never slices or
    probes it, so the protocol keeps running over the survivors.
    """

    __slots__ = ()
    size = 0


_DEAD_STREAM = _DeadStream()


class _TAQueryState:
    """Per-query bookkeeping for the lock-step threshold protocol.

    Mirrors the scalar :meth:`TimePartitionedCluster.query_threshold`
    locals exactly — cursors, frontiers, totals dict, seen set, the
    bounded best-k min-heap — plus the per-round comm tallies that are
    replayed into :class:`CommStats` in query order once the whole
    batch has drained.
    """

    __slots__ = (
        "index",
        "t1",
        "t2",
        "k",
        "nodes",
        "streams",
        "cursors",
        "frontiers",
        "totals",
        "seen",
        "best_k",
        "rounds",
        "round_batches",
        "round_probes",
        "new_ids",
        "live",
        "lost",
    )

    def __init__(self, index, t1, t2, k, nodes):
        self.index = index
        self.t1 = t1
        self.t2 = t2
        self.k = k
        self.nodes = nodes
        self.streams = [None] * len(nodes)
        self.cursors = [0] * len(nodes)
        self.frontiers = [0.0] * len(nodes)
        self.totals: Dict[int, float] = {}
        self.seen: set = set()
        self.best_k: List[float] = []
        #: (sorted_msgs, sorted_pairs, random_msgs, random_pairs) per round.
        self.rounds: List[tuple] = []
        self.round_batches: Dict[int, tuple] = {}
        self.round_probes: List[tuple] = []
        self.new_ids: List[int] = []
        self.live = True
        #: Slots whose node lost every replica mid-protocol.
        self.lost: set = set()

    def mark_lost(self, slot: int) -> None:
        """Retire a slot whose node has no surviving replica.

        The slot reads as an exhausted stream from here on (0.0
        frontier, nothing left to slice), which keeps the TA exact
        over the *surviving* slices: the lost slice simply stops
        contributing, and the final answer is flagged with the
        query's coverage.
        """
        if slot in self.lost:
            return
        self.lost.add(slot)
        self.streams[slot] = _DEAD_STREAM
        self.cursors[slot] = 0
        self.frontiers[slot] = 0.0

    def coverage(self) -> float:
        """Fraction of this query's touched slices still serving."""
        return 1.0 - len(self.lost) / max(len(self.nodes), 1)

    def init_frontiers(self) -> None:
        # Guarded like the scalar path: a frontier below 0 is not a
        # valid bound for objects absent from the shard (they
        # contribute exactly 0), so frontiers are clamped at 0.
        self.frontiers = [
            max(stream.score_at(0), 0.0) if stream.size else 0.0
            for stream in self.streams
        ]

    def threshold(self) -> float:
        return float(sum(self.frontiers))

    def kth_best(self) -> float:
        if len(self.best_k) < self.k:
            return -np.inf
        return self.best_k[0]

    def should_continue(self) -> bool:
        return self.kth_best() < self.threshold() and any(
            self.cursors[i] < self.streams[i].size
            for i in range(len(self.nodes))
        )

    def finalize(self) -> TopKResult:
        if not self.totals:
            return TopKResult()
        ids = np.fromiter(
            self.totals.keys(), dtype=np.int64, count=len(self.totals)
        )
        vals = np.fromiter(
            self.totals.values(), dtype=np.float64, count=len(self.totals)
        )
        return top_k_from_arrays(ids, vals, self.k)


def column_layout(nodes: List[StorageNode]):
    """The batched coordinator's answer columns and scatter positions.

    Returns ``(columns, node_cols)``: the union of the shards' object
    ids, ascending, and per node the column of each of its objects in
    storage order — or ``None`` when the node holds exactly every
    column in that order (the padded database's layout), in which
    case its partials accumulate row for row with no scatter.  The
    node layout is immutable, so this is computed once per cluster.
    """
    columns = np.unique(np.concatenate([node.object_ids for node in nodes]))
    node_cols = [
        None
        if np.array_equal(node.object_ids, columns)
        else np.searchsorted(columns, node.object_ids)
        for node in nodes
    ]
    return columns, node_cols


class TimePartitionedCluster:
    """A cluster whose shards partition the *time domain*."""

    def __init__(
        self,
        database: TemporalDatabase,
        num_nodes: int,
        replicas: int = 1,
        fault_plan=None,
        retry_policy=None,
        allow_partial: bool = True,
    ) -> None:
        self.comm = CommStats()
        self.database = database
        self.boundaries = time_boundaries(database, num_nodes)
        partitions = time_range_partition(database, num_nodes, self.boundaries)
        self.nodes: List[StorageNode] = [
            StorageNode(partition.node_id, partition.database)
            for partition in partitions
        ]
        self.allow_partial = allow_partial
        self.groups = make_replica_groups(
            self.nodes, replicas, fault_plan, retry_policy
        )
        self._columns, self._node_cols = column_layout(self.nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def snapshot(self, path) -> "TimePartitionedCluster":
        """Write a durable per-shard snapshot (see the storage tier)."""
        from repro.storage.snapshot import snapshot_cluster

        snapshot_cluster(self, path)
        return self

    @classmethod
    def open(cls, path, verify: bool = True) -> "TimePartitionedCluster":
        """Mount a snapshot written by :meth:`snapshot`: no rebuilds."""
        from repro.storage.snapshot import open_cluster

        cluster = open_cluster(path, verify=verify)
        if not isinstance(cluster, cls):
            raise TypeError(f"{path} does not hold a {cls.__name__} snapshot")
        return cluster

    def _touched_nodes(self, t1: float, t2: float) -> List[StorageNode]:
        touched = []
        for node in self.nodes:
            lo = float(self.boundaries[node.node_id])
            hi = float(self.boundaries[node.node_id + 1])
            if hi > t1 and lo < t2:
                touched.append(node)
        return touched

    # ------------------------------------------------------------------
    def query_scatter_gather(self, t1: float, t2: float, k: int) -> TopKResult:
        """Exact one-round protocol: ship all partials from all nodes."""
        totals: Dict[int, float] = {}
        for node in self._touched_nodes(t1, t2):
            partials = node.partial_scores(t1, t2)
            self.comm.record(len(partials))
            for object_id, score in partials.items():
                totals[object_id] = totals.get(object_id, 0.0) + score
        if not totals:
            return TopKResult()
        ids = np.fromiter(totals.keys(), dtype=np.int64, count=len(totals))
        vals = np.fromiter(totals.values(), dtype=np.float64, count=len(totals))
        return top_k_from_arrays(ids, vals, k)

    # ------------------------------------------------------------------
    # batched serving
    # ------------------------------------------------------------------
    def query_many(
        self,
        queries,
        protocol: str = "scatter",
        batch_size: int = 8,
    ) -> List[TopKResult]:
        """Answer a whole workload through the partitioned layout.

        ``protocol="scatter"`` (default) replays
        :meth:`query_scatter_gather` batched: each touched node
        computes the partial scores of its query slice in one CSR
        kernel pass, the coordinator accumulates per-node partials in
        ascending node order (the scalar coordinator's float-addition
        sequence, so totals are bit-identical), and one columnar top-k
        pass produces every answer.  Answers, tie-breaks, and comm
        totals equal the scalar loop exactly.

        ``protocol="threshold"`` runs the lock-step batched TA: all
        live queries advance their rounds together — one sorted-access
        pass and one batched probe per node per round — with per-query
        early termination.  Answers, per-round comm records, and round
        counts are bit-identical to looping :meth:`query_threshold`
        with the same ``batch_size``.
        """
        t1s, t2s, ks = workload_arrays(queries)
        if t1s.size == 0:
            return []
        if protocol == "threshold":
            return self._threshold_many(t1s, t2s, ks, batch_size)
        if protocol != "scatter":
            from repro.core.errors import ReproError

            raise ReproError(
                f"unknown protocol {protocol!r}; choose scatter or threshold"
            )
        return self._scatter_gather_many(t1s, t2s, ks)

    def _scatter_gather_many(
        self, t1s: np.ndarray, t2s: np.ndarray, ks: np.ndarray
    ) -> List[TopKResult]:
        from repro.approximate.toplists import top_k_rows
        from repro.core.plfstore import row_chunks

        # Global answer columns (precomputed): the canonical top-k
        # order makes the column order irrelevant to answers;
        # ascending ids keep the per-node scatter an exact position
        # array.
        columns = self._columns
        ks = np.asarray(ks, dtype=np.int64)
        # Queries are processed in fixed-size blocks so the dense
        # (block, m) coordinator matrices stay within a bounded
        # footprint (the scalar protocol peaks at O(m)); per-query
        # accumulation order and comm totals are block-invariant.
        results: List[TopKResult] = []
        for block in row_chunks(int(t1s.size), int(columns.size)):
            results.extend(
                self._scatter_gather_block(
                    t1s[block], t2s[block], ks[block], columns, top_k_rows
                )
            )
        return results

    def _scatter_gather_block(
        self,
        t1s: np.ndarray,
        t2s: np.ndarray,
        ks: np.ndarray,
        columns: np.ndarray,
        top_k_rows,
    ) -> List[TopKResult]:
        q = int(t1s.size)
        totals = np.zeros((q, columns.size), dtype=np.float64)
        present = np.zeros((q, columns.size), dtype=bool)
        touched = np.zeros(q, dtype=np.int64)
        served = np.zeros(q, dtype=np.int64)
        for group, cols in zip(self.groups, self._node_cols):
            node = group.inner
            lo = float(self.boundaries[node.node_id])
            hi = float(self.boundaries[node.node_id + 1])
            rows = np.flatnonzero((hi > t1s) & (lo < t2s))
            if rows.size == 0:
                continue
            touched[rows] += 1
            try:
                partials = group.call(
                    "partial_scores_many", t1s[rows], t2s[rows]
                )
            except NodeUnavailable:
                # No surviving replica for this slice: the queries it
                # touches lose its contribution and are answered
                # best-effort from the remaining slices.
                continue
            served[rows] += 1
            # Ascending-node accumulation: object totals see the same
            # float-addition sequence as the scalar coordinator's
            # ``totals[id] = totals.get(id, 0.0) + score`` dict walk.
            if cols is None:
                totals[rows] += partials
                present[rows] = True
            else:
                totals[np.ix_(rows, cols)] += partials
                present[np.ix_(rows, cols)] = True
            self.comm.record_messages(
                int(rows.size), int(rows.size) * node.num_objects
            )
        # Objects absent from every served node are not candidates
        # (the scalar coordinator never sees them): -inf marks them
        # and per-query k is clamped so a pad can never be selected.
        scores = np.where(present, totals, -np.inf)
        k_eff = np.minimum(ks, present.sum(axis=1))
        results = top_k_rows(columns, scores, k_eff)
        if np.array_equal(served, touched):
            return results
        coverage = np.where(touched > 0, served / np.maximum(touched, 1), 1.0)
        degraded_rows = np.flatnonzero(served < touched)
        for row in degraded_rows:
            results[row] = results[row].with_coverage(float(coverage[row]))
            self.comm.record_degraded(float(coverage[row]))
        if not self.allow_partial:
            worst = float(coverage[degraded_rows].min())
            raise PartialResultError(
                f"{degraded_rows.size} queries lost time slices "
                "(no surviving replica)",
                result=results,
                coverage=worst,
            )
        return results

    # ------------------------------------------------------------------
    def query_threshold(
        self, t1: float, t2: float, k: int, batch_size: int = 8
    ) -> TopKResult:
        """Exact TA protocol: sorted access in batches + random probes.

        Sorted access streams from each node's prefix-list TA index —
        no node ever sorts past the prefix the coordinator actually
        consumes — and random-access probes gather from the same
        cached score rows, so stream and probe values are mutually
        consistent (and bit-identical to ``obj.score``).

        Frontier guard: a batch frontier is ``max(last served score,
        0.0)``.  The raw last-score frontier assumes nonnegative
        partials — an object *absent* from a shard contributes exactly
        0 to its total, which would exceed a negative frontier and
        break the threshold's upper-bound property; the clamp keeps
        the TA exact when score functions go negative (Section 4) and
        is a bitwise no-op on nonnegative data.
        """
        nodes = self._touched_nodes(t1, t2)
        if not nodes or k <= 0:
            return TopKResult()
        streams = [node.ta_stream(t1, t2) for node in nodes]
        cursors = [0] * len(nodes)
        frontiers = [
            max(stream.score_at(0), 0.0) if stream.size else 0.0
            for stream in streams
        ]
        totals: Dict[int, float] = {}
        seen: set = set()
        # Bounded min-heap of the k best running totals.  A total is
        # final the round it is resolved (random access probes every
        # node for a newly seen object exactly once), so the k-th best
        # is maintained in O(log k) per object instead of re-sorting
        # all totals on every batch round.
        best_k: List[float] = []

        def threshold() -> float:
            return float(sum(frontiers))

        def kth_best() -> float:
            if len(best_k) < k:
                return -np.inf
            return best_k[0]

        while kth_best() < threshold() and any(
            cursors[i] < streams[i].size for i in range(len(nodes))
        ):
            # One TA round: a sorted-access batch from every stream
            # plus the random-access probes it triggers, recorded as
            # one CommStats round.
            self.comm.start_round()
            new_ids: List[int] = []
            for i, stream in enumerate(streams):
                lo = cursors[i]
                hi = min(lo + batch_size, stream.size)
                if hi > lo:
                    ids, scores = stream.slice(lo, hi)
                    self.comm.record_sorted(hi - lo)
                    for object_id in ids:
                        if object_id not in seen:
                            seen.add(object_id)
                            new_ids.append(object_id)
                    cursors[i] = hi
                    frontiers[i] = max(scores[-1], 0.0)
                else:
                    # Exhausted stream: every shard object was already
                    # streamed, and objects absent from the shard
                    # contribute exactly 0 — so 0.0 is the tight bound
                    # regardless of sign.
                    frontiers[i] = 0.0
            # Random access: resolve full totals for newly seen objects.
            if new_ids:
                arr = np.asarray(new_ids, dtype=np.int64)
                for stream in streams:
                    present, values = stream.probe(new_ids)
                    self.comm.record_random(int(values.size))
                    for object_id, score in zip(
                        arr[present].tolist(), values.tolist()
                    ):
                        totals[object_id] = (
                            totals.get(object_id, 0.0) + score
                        )
                for object_id in new_ids:
                    if object_id not in totals:
                        continue
                    value = totals[object_id]
                    if len(best_k) < k:
                        heapq.heappush(best_k, value)
                    elif value > best_k[0]:
                        heapq.heapreplace(best_k, value)
            self.comm.end_round()
        if not totals:
            return TopKResult()
        ids = np.fromiter(totals.keys(), dtype=np.int64, count=len(totals))
        vals = np.fromiter(totals.values(), dtype=np.float64, count=len(totals))
        return top_k_from_arrays(ids, vals, k)

    # ------------------------------------------------------------------
    # lock-step batched TA
    # ------------------------------------------------------------------
    def _threshold_many(
        self,
        t1s: np.ndarray,
        t2s: np.ndarray,
        ks: np.ndarray,
        batch_size: int,
    ) -> List[TopKResult]:
        """All queries' TA rounds in lock-step, batched per node.

        Each global round performs (a) **one sorted-access pass per
        node** — :meth:`StorageNode.sorted_access_many` serves every
        live query's next batch from that node's prefix lists — and
        (b) **one batched random-access probe per node** —
        :meth:`StorageNode.probe_partials_many` resolves the union of
        newly seen ids in a single vectorized lookup, scattered back
        per query.  Per-query state then advances with exactly the
        scalar :meth:`query_threshold` logic (same cursors, frontier
        clamps, heap updates, termination test), so each query's round
        sequence is bit-identical to its scalar run; finished queries
        drop out of later rounds.

        Comm accounting: rounds for different queries interleave in
        wall time, so per-query round tallies are buffered and
        replayed into :attr:`comm` in query order afterwards — the
        rounds list (with sorted/random splits) and the totals equal
        the scalar per-query loop exactly.
        """
        num_queries = int(t1s.size)
        results: List[Optional[TopKResult]] = [None] * num_queries
        states: List[_TAQueryState] = []
        # Vectorized _touched_nodes: same boundary comparisons, one
        # (q, nodes) pass instead of a Python scan per query.
        bounds = np.asarray(self.boundaries, dtype=np.float64)
        touched_matrix = (bounds[None, 1:] > t1s[:, None]) & (
            bounds[None, :-1] < t2s[:, None]
        )
        for j in range(num_queries):
            t1, t2, k = float(t1s[j]), float(t2s[j]), int(ks[j])
            groups = [self.groups[i] for i in np.flatnonzero(touched_matrix[j])]
            if not groups or k <= 0:
                results[j] = TopKResult()
                continue
            states.append(_TAQueryState(j, t1, t2, k, groups))
        if states:
            # Membership lists per node, built once: which (state,
            # stream slot) pairs read from each node's replica group.
            per_node: Dict[int, tuple] = {}
            for state in states:
                for slot, group in enumerate(state.nodes):
                    per_node.setdefault(group.node_id, (group, []))[1].append(
                        (state, slot)
                    )
            # Stream creation: one kernel pass per node covering every
            # query that touches it, served through the replica group
            # (retry + failover); a node with no surviving replica
            # retires its slot in every touching query.
            for group, members in per_node.values():
                try:
                    streams = group.call(
                        "ta_streams",
                        [state.t1 for state, _ in members],
                        [state.t2 for state, _ in members],
                    )
                except NodeUnavailable:
                    for state, slot in members:
                        state.mark_lost(slot)
                    continue
                for (state, slot), stream in zip(members, streams):
                    state.streams[slot] = stream
            for state in states:
                state.init_frontiers()
                state.live = state.should_continue()
            live = [state for state in states if state.live]
            for state in states:
                if not state.live:
                    results[state.index] = self._finish_state(state)
            while live:
                self._threshold_round(live, per_node, batch_size)
                still = []
                for state in live:
                    if state.should_continue():
                        still.append(state)
                    else:
                        state.live = False
                        results[state.index] = self._finish_state(state)
                live = still
            # Replay per-query round tallies in query order: the comm
            # log reads exactly as if the scalar loop had run.
            for state in states:
                for s_msgs, s_pairs, r_msgs, r_pairs in state.rounds:
                    self.comm.start_round()
                    if s_msgs:
                        self.comm.record_sorted_messages(s_msgs, s_pairs)
                    if r_msgs:
                        self.comm.record_random_messages(r_msgs, r_pairs)
                    self.comm.end_round()
            if not self.allow_partial:
                lost_states = [state for state in states if state.lost]
                if lost_states:
                    raise PartialResultError(
                        f"{len(lost_states)} queries lost time slices "
                        "(no surviving replica)",
                        result=results,
                        coverage=min(
                            state.coverage() for state in lost_states
                        ),
                    )
        return results

    def _finish_state(self, state: _TAQueryState) -> TopKResult:
        """Finalize one TA query, annotating lost-slice degradation."""
        result = state.finalize()
        if state.lost:
            result = result.with_coverage(state.coverage())
            self.comm.record_degraded(state.coverage())
        return result

    def _threshold_round(
        self,
        live: List[_TAQueryState],
        per_node: Dict[int, tuple],
        batch_size: int,
    ) -> None:
        """One lock-step round over all live queries."""
        # (a) one sorted-access pass per node, through its replica
        # group.  A group whose last replica dies mid-round retires
        # its slot in every live query (the batch it failed to serve
        # reads as an exhausted stream) and the round carries on over
        # the survivors.
        for group, members in per_node.values():
            served = [
                (state, slot)
                for state, slot in members
                if state.live
                and state.cursors[slot] < state.streams[slot].size
            ]
            if not served:
                continue
            try:
                batches = group.call(
                    "sorted_access_many",
                    [state.t1 for state, _ in served],
                    [state.t2 for state, _ in served],
                    [state.cursors[slot] for state, slot in served],
                    batch_size,
                )
            except NodeUnavailable:
                for state, slot in members:
                    if state.live:
                        state.mark_lost(slot)
                continue
            for (state, slot), batch in zip(served, batches):
                state.round_batches[slot] = batch
        # Per-query new-id scan and frontier updates, in each query's
        # own stream order — the scalar loop's iteration exactly.
        for state in live:
            state.new_ids = []
            s_msgs = 0
            s_pairs = 0
            for slot in range(len(state.nodes)):
                batch = state.round_batches.pop(slot, None)
                if batch is not None:
                    ids, scores, hi = batch
                    s_msgs += 1
                    s_pairs += hi - state.cursors[slot]
                    for object_id in ids:
                        if object_id not in state.seen:
                            state.seen.add(object_id)
                            state.new_ids.append(object_id)
                    state.cursors[slot] = hi
                    state.frontiers[slot] = max(scores[-1], 0.0)
                else:
                    state.frontiers[slot] = 0.0
            state.round_probes = [None] * len(state.nodes)
            state.rounds.append((s_msgs, s_pairs, 0, 0))
        # (b) one batched random-access probe per node over the union
        # of newly seen ids (every touched node is probed, as in the
        # scalar protocol).  Lost slots are skipped — a dead slice
        # contributes nothing to any total from here on.
        for group, members in per_node.values():
            probing = [
                (state, slot)
                for state, slot in members
                if state.live and state.new_ids and slot not in state.lost
            ]
            if not probing:
                continue
            try:
                probes = group.call(
                    "probe_partials_many",
                    [state.t1 for state, _ in probing],
                    [state.t2 for state, _ in probing],
                    [state.new_ids for state, _ in probing],
                )
            except NodeUnavailable:
                for state, slot in members:
                    if state.live:
                        state.mark_lost(slot)
                continue
            for (state, slot), probe in zip(probing, probes):
                state.round_probes[slot] = probe
        # Scatter probe results back per query: accumulate totals in
        # ascending node order (the scalar float-addition sequence)
        # and update the best-k heap in new-id order.
        for state in live:
            if not state.new_ids:
                continue
            arr = np.asarray(state.new_ids, dtype=np.int64)
            acc = np.zeros(arr.size, dtype=np.float64)
            any_present = np.zeros(arr.size, dtype=bool)
            r_msgs = 0
            r_pairs = 0
            for probe in state.round_probes:
                if probe is None:
                    # Lost slot (or a node retired this round): no
                    # probe was served, no comm is charged.
                    continue
                present, values = probe
                r_msgs += 1
                r_pairs += int(values.size)
                if values.size:
                    acc[present] += values
                    any_present |= present
            state.totals.update(
                zip(arr[any_present].tolist(), acc[any_present].tolist())
            )
            for object_id in state.new_ids:
                if object_id not in state.totals:
                    continue
                value = state.totals[object_id]
                if len(state.best_k) < state.k:
                    heapq.heappush(state.best_k, value)
                elif value > state.best_k[0]:
                    heapq.heapreplace(state.best_k, value)
            s_msgs, s_pairs, _, _ = state.rounds[-1]
            state.rounds[-1] = (s_msgs, s_pairs, r_msgs, r_pairs)
