"""Partition construction for the distributed serving tier.

The clusters' two shard layouts — object-hash and time-range
partitioning (paper Section 7's scale-out discussion; the LSST
multi-petabyte partitioning playbook in PAPERS.md) — used to be built
inline by each cluster constructor.  This module is the one place
partitions come from, so the splitters can be tested directly for the
properties the serving tier relies on:

* the shards are a **disjoint cover** of the database (every object /
  every unit of mass lands on exactly one node),
* the split is **deterministic** — a pure function of the database
  contents, so re-partitioning a regenerated (same-seed) database
  yields identical shards on every host, and
* the ``num_nodes`` edge cases hold (one node degenerates to the
  centralized database; empty shards are dropped rather than built).

Each splitter returns :class:`Partition` records carrying the shard
database plus the metadata the coordinator needs (node id, time
range).  The shard databases are plain :class:`~repro.core.database.
TemporalDatabase` objects, so every piece of the shared kernel —
``PLFStore``/``CSRView`` and the batched ``query_many`` pipelines —
applies per node unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.database import TemporalDatabase
from repro.core.errors import ReproError
from repro.core.objects import TemporalObject


@dataclass(frozen=True)
class Partition:
    """One shard: its node id, database, and (for time splits) range."""

    node_id: int
    database: TemporalDatabase
    #: The shard's time slice ``[lo, hi)`` — the full span for object
    #: partitions.
    time_range: Tuple[float, float]


def hash_partition(
    database: TemporalDatabase, num_nodes: int
) -> List[Partition]:
    """Object-hash split: object ``i`` lives on node ``i % num_nodes``.

    Every node holds *complete* score functions for its shard, so a
    local index answers local top-k exactly.  Shards that receive no
    objects are dropped (their node ids simply never appear).
    """
    if num_nodes < 1:
        raise ReproError("need at least one node")
    if num_nodes > database.num_objects:
        raise ReproError("more nodes than objects")
    shards: List[List[TemporalObject]] = [[] for _ in range(num_nodes)]
    for obj in database:
        shards[obj.object_id % num_nodes].append(obj)
    partitions: List[Partition] = []
    for node_id, objects in enumerate(shards):
        if not objects:
            continue
        shard_db = TemporalDatabase(
            objects, span=database.span, pad=database.padded
        )
        partitions.append(Partition(node_id, shard_db, database.span))
    return partitions


def replica_placement(
    num_partitions: int, replicas: int, num_hosts: Optional[int] = None
) -> List[List[int]]:
    """Chained-declustering placement of ``replicas`` copies per shard.

    Returns, per partition, the ``replicas`` host ids serving it:
    partition ``i``'s copies land on hosts ``(i + r) % num_hosts`` for
    ``r in range(replicas)``.  The properties the fault-tolerant
    serving tier relies on (and the tests assert):

    * a partition's replicas occupy **distinct hosts** (requires
      ``replicas <= num_hosts``), so one host death loses at most one
      copy of any shard;
    * the placement is **balanced** — every host serves exactly
      ``num_partitions * replicas / num_hosts`` copies when hosts
      divide evenly (and within one otherwise);
    * losing any single host leaves every partition covered whenever
      ``replicas >= 2``.

    ``num_hosts`` defaults to ``num_partitions`` (the in-process
    clusters' layout: one primary host per shard, replicas chained
    onto neighbors).
    """
    if num_partitions < 1:
        raise ReproError("need at least one partition")
    if num_hosts is None:
        num_hosts = num_partitions
    if replicas < 1:
        raise ReproError("need at least one replica")
    if replicas > num_hosts:
        raise ReproError(
            f"cannot place {replicas} replicas on {num_hosts} hosts "
            "without co-locating copies of a shard"
        )
    return [
        [(i + r) % num_hosts for r in range(replicas)]
        for i in range(num_partitions)
    ]


def time_boundaries(database: TemporalDatabase, num_nodes: int) -> np.ndarray:
    """The ``num_nodes + 1`` equal-width slice boundaries over the span."""
    if num_nodes < 1:
        raise ReproError("need at least one node")
    t_min, t_max = database.span
    return np.linspace(t_min, t_max, num_nodes + 1)


def time_range_partition(
    database: TemporalDatabase,
    num_nodes: int,
    boundaries: Optional[np.ndarray] = None,
) -> List[Partition]:
    """Time-range split: node ``i`` stores every object clipped to slice ``i``.

    Each object's function is restricted (boundary knots interpolated,
    so integrals over any subinterval are conserved) to the slice;
    objects whose span is disjoint from a slice are absent from that
    node.  Slices that end up with no objects are dropped.
    """
    if boundaries is None:
        boundaries = time_boundaries(database, num_nodes)
    partitions: List[Partition] = []
    for node_id in range(num_nodes):
        lo = float(boundaries[node_id])
        hi = float(boundaries[node_id + 1])
        objects = []
        for obj in database:
            sliced = obj.function.restricted(lo, hi)
            if sliced is not None:
                objects.append(TemporalObject(obj.object_id, sliced, obj.label))
        if objects:
            shard = TemporalDatabase(objects, span=(lo, hi), pad=True)
            partitions.append(Partition(node_id, shard, (lo, hi)))
    return partitions
