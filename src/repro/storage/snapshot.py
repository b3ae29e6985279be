"""Snapshot/open orchestration: one durable API over the whole stack.

``snapshot(path)`` turns a live engine or cluster into a directory::

    path/
      catalog.sqlite     WAL-mode catalog (datasets, partitions,
                         segments, index builds, epochs)
      dataset.seg        the CSR kernel arrays, mmap-able zero-copy
      exact3.idx         pickled index state (arrays stripped out)
      exact3.blocks.seg  the index's BlockDevice payloads
      node_<i>.seg/.idx/.blocks.seg   per-shard files (clusters)

``open(path)`` mounts it back: the kernel arrays become read-only
``np.memmap`` views, function objects are trusted zero-copy slices,
indexes unpickle and re-attach their device blocks, and every
``database`` back-reference is re-bound to the mounted database — so
opening performs **zero** index or store builds (asserted via
:mod:`repro.core.buildcount`) and answers, tie-breaks, and modeled IO
charges are bit-identical to the engine that was snapshotted.  The
persisted append epoch rides along, keeping serving-tier result caches
honest across restarts.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any, List, Tuple

import numpy as np

from repro.storage.catalog import Catalog
from repro.storage.persistence import (
    PersistenceError,
    read_payload,
    write_payload,
)
from repro.storage.segments import (
    read_device_blocks,
    write_device_blocks,
    write_store_segment,
)

#: Snapshot flavors recorded in the catalog's ``kind`` meta row.
KIND_ENGINE = "engine"
KIND_CLUSTER_OBJECT = "cluster-object"
KIND_CLUSTER_TIME = "cluster-time"


# ----------------------------------------------------------------------
# method (index) persistence: pickle minus databases, arrays, payloads
# ----------------------------------------------------------------------
def _collect_devices(method: Any) -> List[Any]:
    """Every BlockDevice a method owns, in deterministic probe order.

    The same order is recovered on the unpickled object, so block
    groups written by :func:`write_device_blocks` zip straight back.
    """
    devices: List[Any] = []
    seen = set()

    def add(device: Any) -> None:
        if device is not None and id(device) not in seen:
            seen.add(id(device))
            devices.append(device)

    add(getattr(method, "device", None))
    for device in getattr(method, "_devices", None) or []:
        add(device)
    rescorer = getattr(method, "rescorer", None)
    if rescorer is not None:
        add(getattr(rescorer, "device", None))
        for device in getattr(rescorer, "_devices", None) or []:
            add(device)
    return devices


def _dump_method(method: Any, idx_path: Path, blocks_path: Path) -> dict:
    """Persist one built index as ``.idx`` (pickle) + ``.blocks.seg``.

    The pickle ships *structure only*: database back-references, the
    instant engine's store snapshot, buffer pools, and every device's
    block payloads are stripped first (and restored afterwards — the
    live method is left exactly as found).  Payloads go to the blocks
    segment; databases/stores are re-bound to mounted objects on open;
    buffer pools restart cold (their capacity is recorded), matching a
    real process restart.
    """
    devices = _collect_devices(method)
    targets = [method]
    rescorer = getattr(method, "rescorer", None)
    if rescorer is not None:
        targets.append(rescorer)
    saved_attrs: List[Tuple[Any, str, Any]] = []
    saved_blocks: List[Tuple[Any, Any, Any]] = []
    try:
        blocks_info = write_device_blocks(
            blocks_path, devices, meta={"method": getattr(method, "name", "?")}
        )
        for obj in targets:
            # _row_cache and _store hold references to the whole
            # columnar store; _cache is a buffer pool full of block
            # payloads.  None of them belongs in the pickle.
            for attr in ("database", "_store", "_cache", "_row_cache"):
                if getattr(obj, attr, None) is not None:
                    saved_attrs.append((obj, attr, getattr(obj, attr)))
                    setattr(obj, attr, None)
        for device in devices:
            saved_blocks.append((device, device._blocks, device._cache))
            device._blocks = {}
            device._cache = None
        idx_bytes = write_payload(idx_path, method)
    finally:
        for device, blocks, cache in saved_blocks:
            device._blocks = blocks
            device._cache = cache
        for obj, attr, value in reversed(saved_attrs):
            setattr(obj, attr, value)
    return {
        "idx_bytes": idx_bytes,
        "idx_crc32": zlib.crc32(idx_path.read_bytes()) & 0xFFFFFFFF,
        "blocks_bytes": blocks_info.file_bytes,
    }


def _load_method(
    idx_path: Path,
    blocks_path: Path,
    database,
    verify: bool = True,
) -> Any:
    """Reload a dumped index and re-attach it to a mounted database."""
    method = read_payload(idx_path)
    devices = _collect_devices(method)
    groups = read_device_blocks(blocks_path, verify=verify)
    if len(groups) != len(devices):
        raise PersistenceError(
            f"{blocks_path}: {len(groups)} block groups for "
            f"{len(devices)} devices"
        )
    from repro.storage.cache import LRUCache

    for device, (meta, blocks) in zip(devices, groups):
        if (
            meta["name"] != device.name
            or int(meta["block_bytes"]) != device.block_bytes
        ):
            raise PersistenceError(
                f"{blocks_path}: block group {meta['name']!r} does not "
                f"match device {device.name!r}"
            )
        device._blocks = blocks
        device._next_id = int(meta["next_id"])
        capacity = int(meta.get("cache_blocks", 0))
        device.set_cache(LRUCache(capacity) if capacity > 0 else None)
    device = getattr(method, "device", None)
    if hasattr(method, "_cache") and device is not None:
        method._cache = device._cache
    if hasattr(method, "database"):
        method.database = database
    if hasattr(method, "_store"):
        method._store = database.store()
    rescorer = getattr(method, "rescorer", None)
    if rescorer is not None:
        rescorer.database = database
    return method


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------
def _store_meta(database) -> dict:
    labels = [obj.label for obj in database]
    return {
        "kind": "plfstore",
        "labels": labels if any(labels) else None,
        "span": [float(database.t_min), float(database.t_max)],
        "padded": bool(database.padded),
        "epoch": int(database.epoch),
    }


def _write_dataset(
    catalog: Catalog,
    root: Path,
    database,
    name: str,
    filename: str,
    node_id: int,
    partition_kind: str,
    t_lo: float,
    t_hi: float,
) -> Tuple[int, int]:
    """Persist one database's store segment + catalog rows."""
    store = database.store()  # post-append state: rebuilds if stale
    dataset_id = catalog.add_dataset(
            name,
            database.num_objects,
            database.total_segments,
            database.t_min,
            database.t_max,
            database.padded,
            database.epoch,
        )
    partition_id = catalog.add_partition(
        dataset_id,
        node_id,
        partition_kind,
        t_lo,
        t_hi,
        database.num_objects,
        database.epoch,
    )
    info = write_store_segment(root / filename, store, _store_meta(database))
    catalog.add_segment(partition_id, "csr", filename, info)
    return dataset_id, partition_id


def _mount_dataset(root: Path, catalog: Catalog, partition_id: int, verify: bool):
    """Mount one partition's store segment as a TemporalDatabase.

    A checksum failure here is fatal: the CSR segment *is* the source
    data, so there is nothing to rebuild it from.  The segment is
    quarantined in the catalog before the error propagates, so repair
    tooling can see exactly which file went bad.
    """
    from repro.core.database import TemporalDatabase
    from repro.core.plfstore import PLFStore
    from repro.storage.segments import read_header

    rows = catalog.segments(partition_id, role="csr")
    if not rows:
        raise PersistenceError(
            f"{catalog.path}: partition {partition_id} has no CSR segment"
        )
    seg_path = root / rows[0]["path"]
    try:
        meta = read_header(seg_path).meta
        store = PLFStore.from_segments(seg_path, verify=verify)
    except PersistenceError as exc:
        catalog.quarantine_segment(rows[0]["path"], str(exc))
        raise PersistenceError(
            f"{seg_path} is corrupt and quarantined; the CSR segment is "
            f"the source data, so it cannot be rebuilt: {exc}"
        ) from exc
    span = meta.get("span")
    return TemporalDatabase.mounted(
        store,
        labels=meta.get("labels"),
        span=tuple(span) if span else None,
        padded=bool(meta.get("padded", True)),
        epoch=int(meta.get("epoch", 0)),
    )


def _dump_indexes(
    catalog: Catalog, root: Path, partition_id: int, methods: dict, prefix: str = ""
) -> None:
    for kind, method in methods.items():
        if method is None:
            continue
        idx_name = f"{prefix}{kind}.idx"
        blocks_name = f"{prefix}{kind}.blocks.seg"
        sizes = _dump_method(method, root / idx_name, root / blocks_name)
        catalog.add_index(
            partition_id,
            kind,
            idx_name,
            blocks_name,
            sizes["idx_bytes"],
            sizes["idx_crc32"],
            float(getattr(method, "build_seconds", 0.0)),
            {"name": getattr(method, "name", "?")},
        )


def _load_indexes(
    catalog: Catalog, root: Path, partition_id: int, database, verify: bool
) -> Tuple[dict, dict]:
    """Load every index build for a partition, quarantining corruption.

    Returns ``(indexes, quarantined)``: loaded methods keyed by kind,
    and — for builds whose payloads failed their checksums — the
    recorded method *name* keyed by kind, so callers can rebuild from
    the mounted source database instead of crashing.  Failed builds
    have both their files marked bad in the catalog's quarantine table.
    """
    out: dict = {}
    quarantined: dict = {}
    for row in catalog.indexes(partition_id):
        idx_path = root / row["path"]
        try:
            if verify:
                actual = zlib.crc32(idx_path.read_bytes()) & 0xFFFFFFFF
                if actual != int(row["crc32"]):
                    raise PersistenceError(
                        f"{idx_path}: index payload checksum mismatch "
                        f"(stored {int(row['crc32']):#010x}, "
                        f"computed {actual:#010x})"
                    )
            out[row["kind"]] = _load_method(
                idx_path,
                root / row["blocks_path"],
                database,
                verify=verify,
            )
        except PersistenceError as exc:
            catalog.quarantine_segment(row["path"], str(exc))
            if row["blocks_path"]:
                catalog.quarantine_segment(
                    row["blocks_path"], f"sibling of quarantined {row['path']}"
                )
            quarantined[row["kind"]] = json.loads(row["params"]).get(
                "name", "?"
            )
    return out, quarantined


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
def snapshot_engine(engine, path: str | Path) -> Path:
    """Write a :class:`~repro.engine.TemporalRankingEngine` snapshot."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with Catalog.create(root / Catalog.FILENAME, KIND_ENGINE) as catalog:
        database = engine.database
        _, partition_id = _write_dataset(
            catalog,
            root,
            database,
            name="dataset",
            filename="dataset.seg",
            node_id=0,
            partition_kind="full",
            t_lo=database.t_min,
            t_hi=database.t_max,
        )
        _dump_indexes(
            catalog,
            root,
            partition_id,
            {
                "exact3": engine.exact,
                "appx2plus": engine._approximate,
                "instant": engine._instant,
            },
        )
        catalog.set_meta(
            "engine_params",
            json.dumps(
                {"epsilon": engine.epsilon, "kmax": engine.kmax},
                sort_keys=True,
            ),
        )
    return root


def open_engine(path: str | Path, verify: bool = True):
    """Mount an engine snapshot: zero builds, bit-identical answers."""
    from repro.engine import TemporalRankingEngine

    root = Path(path)
    with Catalog.open(root / Catalog.FILENAME) as catalog:
        if catalog.kind != KIND_ENGINE:
            raise PersistenceError(
                f"{root} holds a {catalog.kind!r} snapshot, not an engine; "
                "use repro.open"
            )
        datasets = catalog.datasets()
        if not datasets:
            raise PersistenceError(f"{root}: catalog lists no datasets")
        partition = catalog.partitions(datasets[0]["dataset_id"], "full")[0]
        database = _mount_dataset(
            root, catalog, partition["partition_id"], verify
        )
        indexes, quarantined = _load_indexes(
            catalog, root, partition["partition_id"], database, verify
        )
        params = json.loads(catalog.get_meta("engine_params") or "{}")
    if "exact3" not in indexes and "exact3" not in quarantined:
        raise PersistenceError(f"{root}: snapshot has no exact3 index")
    engine = TemporalRankingEngine.__new__(TemporalRankingEngine)
    engine.database = database
    engine.epsilon = float(params.get("epsilon", 1e-4))
    engine.kmax = int(params.get("kmax", 50))
    engine.exact = indexes.get("exact3")
    if engine.exact is None:
        # Quarantined exact3 payload: rebuild from the mounted dataset.
        # The build is deterministic per database, so the recovered
        # index answers bit-identically to the snapshotted one.
        from repro.exact.exact3 import Exact3

        engine.exact = Exact3().build(database)
    # A quarantined approximate/instant payload simply stays None here:
    # both are lazy in TemporalRankingEngine and rebuild (again
    # deterministically, from engine_params) on their first query.
    engine._approximate = indexes.get("appx2plus")
    engine._instant = indexes.get("instant")
    return engine


# ----------------------------------------------------------------------
# clusters
# ----------------------------------------------------------------------
def snapshot_cluster(cluster, path: str | Path) -> Path:
    """Write an object- or time-partitioned cluster snapshot.

    One partition row + store segment + index dump per shard, so a
    node can mount exactly its slice from the catalog; time clusters
    also persist the unsharded dataset (their coordinator keeps it)
    and the shard boundaries.
    """
    from repro.distributed import (
        ObjectPartitionedCluster,
        TimePartitionedCluster,
    )

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    is_time = isinstance(cluster, TimePartitionedCluster)
    if not is_time and not isinstance(cluster, ObjectPartitionedCluster):
        raise PersistenceError(
            f"cannot snapshot {type(cluster).__name__}: not a cluster"
        )
    kind = KIND_CLUSTER_TIME if is_time else KIND_CLUSTER_OBJECT
    with Catalog.create(root / Catalog.FILENAME, kind) as catalog:
        if is_time:
            database = cluster.database
            _write_dataset(
                catalog,
                root,
                database,
                name="dataset",
                filename="dataset.seg",
                node_id=-1,
                partition_kind="full",
                t_lo=database.t_min,
                t_hi=database.t_max,
            )
            catalog.set_meta(
                "boundaries",
                json.dumps([float(b) for b in cluster.boundaries]),
            )
        for node in cluster.nodes:
            shard = node.database
            if is_time:
                t_lo = float(cluster.boundaries[node.node_id])
                t_hi = float(cluster.boundaries[node.node_id + 1])
                partition_kind = "time"
            else:
                t_lo, t_hi = shard.t_min, shard.t_max
                partition_kind = "object"
            _, partition_id = _write_dataset(
                catalog,
                root,
                shard,
                name=f"node_{node.node_id}",
                filename=f"node_{node.node_id}.seg",
                node_id=node.node_id,
                partition_kind=partition_kind,
                t_lo=t_lo,
                t_hi=t_hi,
            )
            _dump_indexes(
                catalog,
                root,
                partition_id,
                {"method": node.method},
                prefix=f"node_{node.node_id}.",
            )
        catalog.set_meta("num_nodes", str(cluster.num_nodes))
    return root


def open_cluster(path: str | Path, verify: bool = True):
    """Mount a cluster snapshot: every shard opens, nothing rebuilds."""
    from repro.distributed import (
        ObjectPartitionedCluster,
        TimePartitionedCluster,
    )
    from repro.distributed.comm import CommStats
    from repro.distributed.nodes import StorageNode, make_replica_groups
    from repro.distributed.time_partition import column_layout

    root = Path(path)
    with Catalog.open(root / Catalog.FILENAME) as catalog:
        kind = catalog.kind
        if kind not in (KIND_CLUSTER_OBJECT, KIND_CLUSTER_TIME):
            raise PersistenceError(
                f"{root} holds a {kind!r} snapshot, not a cluster; "
                "use repro.open"
            )
        is_time = kind == KIND_CLUSTER_TIME
        nodes = []
        full_database = None
        for dataset in catalog.datasets():
            for partition in catalog.partitions(dataset["dataset_id"]):
                database = _mount_dataset(
                    root, catalog, partition["partition_id"], verify
                )
                if partition["kind"] == "full":
                    full_database = database
                    continue
                indexes, quarantined = _load_indexes(
                    catalog, root, partition["partition_id"], database, verify
                )
                method = indexes.get("method")
                if method is None:
                    name = quarantined.get("method")
                    if name is None:
                        raise PersistenceError(
                            f"{root}: shard {partition['node_id']} "
                            "has no index"
                        )
                    if name not in ("EXACT3", "?"):
                        raise PersistenceError(
                            f"{root}: shard {partition['node_id']}'s "
                            f"{name!r} index is quarantined and has no "
                            "rebuild recipe; rebuild the snapshot"
                        )
                    # Quarantined default index: StorageNode rebuilds
                    # EXACT3 deterministically from the mounted shard.
                    nodes.append(
                        StorageNode(int(partition["node_id"]), database)
                    )
                    continue
                # method.database is the mounted shard, so StorageNode
                # adopts it as prebuilt — no rebuild on mount.
                nodes.append(
                    StorageNode(int(partition["node_id"]), database, method)
                )
        boundaries_text = catalog.get_meta("boundaries")
    nodes.sort(key=lambda node: node.node_id)
    if not nodes:
        raise PersistenceError(f"{root}: catalog lists no shards")
    if is_time:
        if full_database is None or boundaries_text is None:
            raise PersistenceError(
                f"{root}: time-cluster snapshot is missing the full "
                "dataset or its boundaries"
            )
        cluster = TimePartitionedCluster.__new__(TimePartitionedCluster)
        cluster.comm = CommStats()
        cluster.database = full_database
        cluster.boundaries = np.asarray(
            json.loads(boundaries_text), dtype=np.float64
        )
        cluster.nodes = nodes
        cluster.allow_partial = True
        cluster.groups = make_replica_groups(nodes)
        cluster._columns, cluster._node_cols = column_layout(nodes)
        return cluster
    cluster = ObjectPartitionedCluster.__new__(ObjectPartitionedCluster)
    cluster.comm = CommStats()
    cluster.nodes = nodes
    cluster.allow_partial = True
    cluster.groups = make_replica_groups(nodes)
    return cluster


# ----------------------------------------------------------------------
# the one entry point
# ----------------------------------------------------------------------
def open_any(path: str | Path, verify: bool = True):
    """Open any snapshot directory; dispatches on the catalog's kind."""
    root = Path(path)
    with Catalog.open(root / Catalog.FILENAME) as catalog:
        kind = catalog.kind
    if kind == KIND_ENGINE:
        return open_engine(root, verify=verify)
    if kind in (KIND_CLUSTER_OBJECT, KIND_CLUSTER_TIME):
        return open_cluster(root, verify=verify)
    raise PersistenceError(f"{root} holds an unknown snapshot kind {kind!r}")


def snapshot_any(obj, path: str | Path) -> Path:
    """Snapshot a live engine or cluster; dispatches on type.

    The writer half of :func:`open_any` — the serving pool uses the
    pair to hand a coordinator's backend to worker processes as a
    directory instead of a pickle.
    """
    from repro.distributed import (
        ObjectPartitionedCluster,
        TimePartitionedCluster,
    )
    from repro.engine import TemporalRankingEngine

    if isinstance(obj, TemporalRankingEngine):
        return snapshot_engine(obj, path)
    if isinstance(obj, (ObjectPartitionedCluster, TimePartitionedCluster)):
        return snapshot_cluster(obj, path)
    raise PersistenceError(
        f"cannot snapshot {type(obj).__name__}: not an engine or cluster"
    )


def open_served(path: str | Path, spec: dict, verify: bool = True):
    """Worker-side open of a served snapshot.

    Mounts the snapshot with :func:`open_any`, then rebuilds the
    serving backend the coordinator described with ``spec`` (a
    picklable dict from the backend's ``pool_spec()``) over the
    mounted object.  Returns ``(backend, warmups)`` — see
    :func:`repro.serving.backends.backend_from_snapshot` for the
    warm-up accounting.
    """
    from repro.serving.backends import backend_from_snapshot

    return backend_from_snapshot(open_any(path, verify=verify), spec)
