"""Object-partitioned distributed ranking.

Each object lives on exactly one node (hash partitioning via
:func:`~repro.distributed.partitioner.hash_partition`), so every node
holds *complete* score functions for its shard.  The coordinator then
needs only each node's local top-k: the global answer is the k best of
the union, exactly — communication is ``p * k`` pairs, one round.
This is the easy half of the paper's distributed open problem and the
baseline any cleverer protocol must beat.

Serving tier
------------
:meth:`ObjectPartitionedCluster.query` is the preserved scalar
protocol; :meth:`ObjectPartitionedCluster.query_many` serves a whole
:class:`~repro.datasets.workload.WorkloadBatch` by handing each node
its full query slice (answered through the node's vectorized
``query_many``) and merging with the columnar k-way merge in
:mod:`repro.core.results`.  Answers, tie-breaks, per-node modeled IO
charges, and :class:`~repro.distributed.comm.CommStats` totals are
bit-identical to looping the scalar protocol.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.database import TemporalDatabase
from repro.core.errors import NodeUnavailable, PartialResultError
from repro.core.queries import workload_arrays
from repro.core.results import TopKResult, merge_top_k_many, select_top_k
from repro.exact.base import RankingMethod
from repro.exact.exact3 import Exact3
from repro.distributed.comm import CommStats
from repro.distributed.nodes import StorageNode, make_replica_groups
from repro.distributed.partitioner import hash_partition


class ObjectPartitionedCluster:
    """A cluster whose shards partition the *objects*.

    Fault tolerance: ``replicas`` endpoints serve each shard
    (failover between them is answer-invisible — same shard state),
    ``fault_plan`` injects deterministic chaos, ``retry_policy``
    governs every coordinator→node call in :meth:`query_many`.  When
    every replica of some shard is gone, the batched path degrades:
    with ``allow_partial`` (the default) it answers best-effort over
    the surviving shards, annotating each result with its coverage
    (fraction of objects still reachable); otherwise it raises
    :class:`~repro.core.errors.PartialResultError`.
    """

    def __init__(
        self,
        database: TemporalDatabase,
        num_nodes: int,
        method_factory: Optional[Callable[[], RankingMethod]] = None,
        replicas: int = 1,
        fault_plan=None,
        retry_policy=None,
        allow_partial: bool = True,
    ) -> None:
        self.comm = CommStats()
        partitions = hash_partition(database, num_nodes)
        factory = method_factory if method_factory is not None else Exact3
        self.nodes = [
            StorageNode(partition.node_id, partition.database, factory())
            for partition in partitions
        ]
        self.allow_partial = allow_partial
        self.groups = make_replica_groups(
            self.nodes, replicas, fault_plan, retry_policy
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def snapshot(self, path) -> "ObjectPartitionedCluster":
        """Write a durable per-shard snapshot (see the storage tier)."""
        from repro.storage.snapshot import snapshot_cluster

        snapshot_cluster(self, path)
        return self

    @classmethod
    def open(cls, path, verify: bool = True) -> "ObjectPartitionedCluster":
        """Mount a snapshot written by :meth:`snapshot`: no rebuilds."""
        from repro.storage.snapshot import open_cluster

        cluster = open_cluster(path, verify=verify)
        if not isinstance(cluster, cls):
            raise TypeError(f"{path} does not hold a {cls.__name__} snapshot")
        return cluster

    def query(self, t1: float, t2: float, k: int) -> TopKResult:
        """Exact global top-k: merge each node's local top-k."""
        candidates = []
        for node in self.nodes:
            local = node.local_top_k(t1, t2, k)
            self.comm.record(len(local))
            candidates.extend((item.object_id, item.score) for item in local)
        return select_top_k(candidates, k)

    def query_many(self, queries) -> List[TopKResult]:
        """Batched :meth:`query`: answer a whole workload at once.

        Each node receives the full batch (one logical request message
        per query, as in the scalar protocol) and answers it through
        its vectorized ``query_many``; per-query local answers are
        merged columnar (:func:`~repro.core.results.merge_top_k_many`)
        into the canonical global top-k.  Equivalence contract:
        answers, tie-breaks, per-node IO charges, and comm totals are
        bit-identical to looping :meth:`query` over the workload.

        Every node call goes through the shard's
        :class:`~repro.distributed.nodes.ReplicaGroup` — transient
        faults are retried, a dead replica fails over (the survivor's
        answer is bit-identical, so the merged results equal the
        healthy run's).  A shard with no surviving replica is skipped;
        the merged answers then carry ``coverage`` = the fraction of
        objects still reachable, each query is charged to
        :meth:`CommStats.record_degraded`, and with
        ``allow_partial=False`` the batch raises
        :class:`PartialResultError` carrying the best-effort results.
        """
        t1s, t2s, ks = workload_arrays(queries)
        if t1s.size == 0:
            return []
        per_node: List[List[TopKResult]] = []
        lost_objects = 0
        total_objects = 0
        for group in self.groups:
            total_objects += group.inner.num_objects
            try:
                local = group.call("local_top_k_many", t1s, t2s, ks)
            except NodeUnavailable:
                lost_objects += group.inner.num_objects
                continue
            self.comm.record_messages(
                len(local), sum(len(result) for result in local)
            )
            per_node.append(local)
        if per_node:
            results = merge_top_k_many(per_node, ks)
        else:
            results = [TopKResult() for _ in range(int(t1s.size))]
        if not lost_objects:
            return results
        coverage = 1.0 - lost_objects / max(total_objects, 1)
        results = [result.with_coverage(coverage) for result in results]
        for _ in results:
            self.comm.record_degraded(coverage)
        if not self.allow_partial:
            raise PartialResultError(
                f"{lost_objects}/{total_objects} objects unreachable "
                "(no surviving replica)",
                result=results,
                coverage=coverage,
            )
        return results
