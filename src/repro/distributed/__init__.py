"""Distributed aggregate top-k (the paper's open direction)."""

from repro.distributed.comm import (
    PAIR_BYTES,
    CommSnapshot,
    CommStats,
    RoundRecord,
)
from repro.distributed.nodes import (
    ReplicaGroup,
    StorageNode,
    make_replica_groups,
)
from repro.distributed.object_partition import ObjectPartitionedCluster
from repro.distributed.partitioner import (
    Partition,
    hash_partition,
    replica_placement,
    time_boundaries,
    time_range_partition,
)
from repro.distributed.ta_index import SortedPrefixList, TANodeIndex
from repro.distributed.time_partition import TimePartitionedCluster

__all__ = [
    "CommSnapshot",
    "CommStats",
    "PAIR_BYTES",
    "Partition",
    "RoundRecord",
    "SortedPrefixList",
    "StorageNode",
    "TANodeIndex",
    "ObjectPartitionedCluster",
    "ReplicaGroup",
    "TimePartitionedCluster",
    "hash_partition",
    "make_replica_groups",
    "replica_placement",
    "time_boundaries",
    "time_range_partition",
]
