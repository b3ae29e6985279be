"""Storage nodes for the distributed aggregate top-k setting.

A :class:`StorageNode` owns a shard of the data — a per-partition
:class:`~repro.core.database.TemporalDatabase` together with its
columnar :class:`~repro.core.plfstore.CSRView` slice — and a local
ranking index (EXACT3 by default).  Coordinators (see
``object_partition`` / ``time_partition``) talk to nodes only through
the narrow message-like API here, so communication can be accounted
faithfully.

Both the scalar handlers and their vectorized ``*_many`` counterparts
are provided: the batched coordinators slice whole
:class:`~repro.datasets.workload.WorkloadBatch`\\ es per node and call
the vectorized handlers, whose answers, tie-breaks, and modeled IO
charges are bit-identical to looping the scalar ones (the kernel
contract of ``PLFStore``/``query_many``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.plfstore import CSRView
from repro.core.queries import TopKQuery
from repro.core.results import TopKResult
from repro.datasets.workload import WorkloadBatch
from repro.distributed.ta_index import SortedPrefixList, TANodeIndex
from repro.exact.base import RankingMethod
from repro.exact.exact3 import Exact3


class StorageNode:
    """One shard: a sub-database, its CSR kernel slice, a local index."""

    def __init__(
        self,
        node_id: int,
        database: TemporalDatabase,
        method: Optional[RankingMethod] = None,
    ) -> None:
        self.node_id = node_id
        self.database = database
        self.method = method if method is not None else Exact3()
        # Adopt a prebuilt method only when it was built on this very
        # shard database; anything else is (re)built here, preserving
        # the constructor's invariant that the node answers from its
        # own shard.
        if (
            not getattr(self.method, "_built", False)
            or self.method.database is not database
        ):
            self.method.build(database)
        # Warm the shard's columnar store eagerly so serving never
        # pays a first-query snapshot build.
        database.store()
        self._ta_index: Optional[TANodeIndex] = None

    @property
    def ta_index(self) -> TANodeIndex:
        """The node's prefix-list TA index (built lazily, cached)."""
        if self._ta_index is None:
            self._ta_index = TANodeIndex(self.database.store())
        return self._ta_index

    @property
    def view(self) -> CSRView:
        """The shard's CSR kernel slice (cached on the store)."""
        return self.database.store().csr_view()

    @property
    def num_objects(self) -> int:
        return self.database.num_objects

    @property
    def object_ids(self) -> np.ndarray:
        """The shard's object ids, in storage order."""
        return self.database.store().object_ids

    # ------------------------------------------------------------------
    # message handlers (scalar: the preserved reference protocol)
    # ------------------------------------------------------------------
    def local_top_k(self, t1: float, t2: float, k: int) -> TopKResult:
        """Answer a local aggregate top-k over this shard."""
        k = min(k, self.database.num_objects)
        return self.method.query(TopKQuery(t1, t2, k))

    def partial_scores(
        self, t1: float, t2: float, object_ids: Optional[Sequence[int]] = None
    ) -> Dict[int, float]:
        """Per-object partial aggregates over this shard's time slice.

        With ``object_ids`` the node scores only those objects (the
        random-access probe of the threshold algorithm).
        """
        if object_ids is None:
            ids = self.database.object_ids()
        else:
            ids = np.asarray(object_ids, dtype=np.int64)
        out: Dict[int, float] = {}
        for object_id in ids:
            try:
                obj = self.database.get(int(object_id))
            except Exception:
                continue
            out[int(object_id)] = obj.score(t1, t2)
        return out

    def sorted_partials(self, t1: float, t2: float) -> TopKResult:
        """All local partial scores, descending (the TA's sorted access).

        The eager full-sort form, kept as a reference handler; the TA
        protocols stream from :meth:`ta_stream` instead, which never
        sorts past the consumed prefix.
        """
        return self.method.query(
            TopKQuery(t1, t2, self.database.num_objects)
        )

    def ta_stream(self, t1: float, t2: float) -> SortedPrefixList:
        """The node's sorted-access stream for one interval.

        Served from the prefix-list TA index: the partial-score row
        comes from one CSR kernel pass (bit-identical to
        ``obj.score``), and descending order is materialized only as
        far as the TA actually reads.
        """
        return self.ta_index.stream(t1, t2)

    def ta_streams(
        self, t1s: Sequence[float], t2s: Sequence[float]
    ) -> List[SortedPrefixList]:
        """Batched :meth:`ta_stream`: one stream per query interval.

        One CSR kernel pass covers every missing score row
        (:meth:`TANodeIndex.streams`); stream ``j`` is the same
        canonical prefix list :meth:`ta_stream` returns for
        ``(t1s[j], t2s[j])``.  This is the lock-step TA's stream-setup
        message — routing it through the node (rather than reaching
        into ``ta_index`` from the coordinator) keeps it on the remote
        API, where fault injection and failover apply.
        """
        return self.ta_index.streams(t1s, t2s)

    # ------------------------------------------------------------------
    # message handlers (batched: whole workload slices per message)
    # ------------------------------------------------------------------
    def local_top_k_many(
        self,
        t1s: np.ndarray,
        t2s: np.ndarray,
        ks: np.ndarray,
    ) -> List[TopKResult]:
        """Batched :meth:`local_top_k`: one vectorized pass per shard.

        Answers (scores, tie-breaks) and the shard index's modeled IO
        charges are identical to looping :meth:`local_top_k` — the
        ``query_many`` equivalence contract, applied per node.
        """
        local_ks = np.minimum(
            np.asarray(ks, dtype=np.int64), self.database.num_objects
        )
        batch = WorkloadBatch(
            np.asarray(t1s, dtype=np.float64),
            np.asarray(t2s, dtype=np.float64),
            local_ks,
        )
        return self.method.query_many(batch)

    def partial_scores_many(
        self, t1s: np.ndarray, t2s: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`partial_scores`: a ``(q, num_objects)`` matrix.

        Row ``j`` holds, in shard storage order, exactly the values the
        scalar handler's dict would (``C_i(t2) - C_i(t1)`` through the
        CSR kernel is bit-identical to ``obj.score``), so coordinators
        can accumulate per-node partials with identical float bits.
        On a time shard (every object padded to the slice) only a
        ``t1`` or ``t2`` strictly inside the slice costs piece
        location: an endpoint at or before the slice start reads 0,
        one at or after its end reads the stored totals, and the
        rest are located in one kernel pass
        (:meth:`PLFStore.integrals_many`).
        """
        queries = np.stack(
            [
                np.asarray(t1s, dtype=np.float64),
                np.asarray(t2s, dtype=np.float64),
            ],
            axis=1,
        )
        return self.database.store().integrals_many(queries)

    def sorted_access_many(
        self,
        t1s: Sequence[float],
        t2s: Sequence[float],
        cursors: Sequence[int],
        batch_size: int,
    ):
        """One sorted-access pass serving every live query's next batch.

        The lock-step TA's per-round node message: for query ``j`` the
        node returns ``(ids, scores, hi)`` — stream items
        ``[cursors[j], hi)`` with ``hi = min(cursors[j] + batch_size,
        stream size)`` — from its prefix-list index.  All missing
        score rows are materialized in one CSR kernel pass
        (:meth:`TANodeIndex.streams`); per-query slices are exactly
        what the scalar TA reads at the same cursor, so lock-step
        sorted-access order is bit-identical by construction.
        """
        streams = self.ta_index.streams(t1s, t2s)
        out = []
        for stream, cursor in zip(streams, cursors):
            lo = int(cursor)
            hi = min(lo + int(batch_size), stream.size)
            if hi > lo:
                ids, scores = stream.slice(lo, hi)
            else:
                ids, scores = [], []
            out.append((ids, scores, hi))
        return out

    def probe_partials_many(
        self,
        t1s: Sequence[float],
        t2s: Sequence[float],
        id_lists: Sequence[Sequence[int]],
    ):
        """Batched random-access probe over each query's newly seen ids.

        One node message per query (the scalar probe's unit); the
        lookup of the *union* of all queries' ids against the shard's
        object table runs as a single vectorized pass, and scores are
        gathered from the cached TA rows — bit-identical to
        ``partial_scores`` / ``obj.score``.  Returns, per query,
        ``(present_mask, scores_of_present)`` aligned to
        ``id_lists[j]``.
        """
        streams = self.ta_index.streams(t1s, t2s)
        lengths = [len(ids) for ids in id_lists]
        if not lengths:
            return []
        flat = np.concatenate(
            [np.asarray(ids, dtype=np.int64) for ids in id_lists]
        )
        sorted_ids, sorted_rows = self.ta_index._lookup
        pos = np.searchsorted(sorted_ids, flat)
        clamped = np.minimum(pos, sorted_ids.size - 1)
        present_flat = (pos < sorted_ids.size) & (
            sorted_ids[clamped] == flat
        )
        rows_flat = sorted_rows[clamped]
        out = []
        offset = 0
        for stream, length in zip(streams, lengths):
            present = present_flat[offset : offset + length]
            rows = rows_flat[offset : offset + length][present]
            out.append((present, stream.row[rows]))
            offset += length
        return out


# ----------------------------------------------------------------------
# replication (fault-tolerant serving)
# ----------------------------------------------------------------------
class ReplicaGroup:
    """The ``k`` serving endpoints of one shard, with failover.

    A group owns one logical partition.  Its endpoints all answer from
    the *same* shard state (in-process replication replicates the
    serving endpoint, not the bytes), so any live endpoint's answer is
    bit-identical to any other's — which is what makes failover
    invisible in the results.  :meth:`call` is the cluster→node
    chokepoint: each endpoint attempt runs under the group's
    :class:`~repro.faults.retry.RetryPolicy` (transient faults retried
    with backoff); a permanent endpoint failure rotates to the next
    replica; when every replica is gone the group raises a permanent
    :class:`~repro.core.errors.NodeUnavailable` and the coordinator's
    degradation path takes over.
    """

    __slots__ = ("node_id", "endpoints", "retry", "primary", "failovers")

    def __init__(self, node_id: int, endpoints, retry=None) -> None:
        self.node_id = node_id
        self.endpoints = list(endpoints)
        if not self.endpoints:
            raise ValueError("a replica group needs at least one endpoint")
        self.retry = retry
        #: Index of the endpoint currently serving (sticky: a failover
        #: promotes the survivor so later calls skip the corpse).
        self.primary = 0
        self.failovers = 0

    @property
    def inner(self) -> StorageNode:
        """The underlying shard node (unwrap a fault endpoint)."""
        endpoint = self.endpoints[0]
        return getattr(endpoint, "inner", endpoint)

    @property
    def replicas(self) -> int:
        return len(self.endpoints)

    @property
    def alive(self) -> bool:
        """True while at least one endpoint still serves."""
        return any(
            not getattr(endpoint, "dead", False) for endpoint in self.endpoints
        )

    def call(self, name: str, *args, **kwargs):
        """Serve one remote call with retry and replica failover.

        Raises a non-transient :class:`NodeUnavailable` only when
        every replica has failed permanently.
        """
        from repro.core.errors import DeadlineExceeded, NodeUnavailable

        count = len(self.endpoints)
        last = None
        for offset in range(count):
            idx = (self.primary + offset) % count
            endpoint = self.endpoints[idx]
            if getattr(endpoint, "dead", False):
                continue
            func = getattr(endpoint, name)
            try:
                if self.retry is not None:
                    result = self.retry.call(func, *args, **kwargs)
                else:
                    result = func(*args, **kwargs)
            except (NodeUnavailable, DeadlineExceeded) as exc:
                last = exc
                continue
            if idx != self.primary:
                self.failovers += 1
                self.primary = idx
            return result
        raise NodeUnavailable(
            f"node {self.node_id}: all {count} replicas failed",
            node_id=self.node_id,
            transient=False,
        ) from last


def make_replica_groups(
    nodes: Sequence[StorageNode],
    replicas: int = 1,
    fault_plan=None,
    retry_policy=None,
    sleep=None,
) -> List[ReplicaGroup]:
    """One :class:`ReplicaGroup` per shard node.

    The healthy fast path — one replica, no fault plan — serves the
    bare node through a trivial group (no wrapper in the call path),
    so an unfaulted cluster's behavior and accounting are unchanged.
    """
    import time as _time

    from repro.faults.injection import wrap_cluster_nodes

    endpoint_lists = wrap_cluster_nodes(
        nodes,
        fault_plan,
        replicas=replicas,
        sleep=sleep if sleep is not None else _time.sleep,
    )
    return [
        ReplicaGroup(node.node_id, endpoints, retry=retry_policy)
        for node, endpoints in zip(nodes, endpoint_lists)
    ]
