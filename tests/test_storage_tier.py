"""The durable zero-copy storage tier: segments, catalog, snapshot/open.

The contract under test: ``snapshot(path)`` then ``open(path)`` mounts
the kernel arrays zero-copy (np.memmap), performs **zero** index or
store builds, and answers every query bit-identically to the original
engine — scores, tie-breaks, and modeled IO charges — inline and on
the thread fan-out.  Durability failures (truncation, corruption,
incompatible versions) surface as clean PersistenceError.
"""

import multiprocessing
import pickle
import sqlite3

import numpy as np
import pytest

import repro
from repro.core import buildcount
from repro.core.queries import TopKQuery
from repro.engine import TemporalRankingEngine
from repro.exact import exact3 as exact3_module
from repro.parallel import WorkerPool
from repro.storage.catalog import SCHEMA_VERSION, Catalog
from repro.storage.device import BlockDevice, BlockDeviceError
from repro.storage.persistence import PersistenceError
from repro.storage.segments import (
    open_segment,
    read_header,
    write_segment,
    write_store_segment,
)

from _support import force_threads, make_random_database

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

EXECUTORS = [
    pytest.param(1, id="serial"),
    pytest.param(2, id="thread"),
]


def _queries(db, count=20, k=5, seed=3):
    return repro.random_queries(db, count=count, k=k, seed=seed)


def _results_equal(a, b):
    return a.object_ids == b.object_ids and a.scores == b.scores


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
class TestSegments:
    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "arrays.seg"
        arrays = [
            ("floats", np.linspace(0, 1, 1001)),
            ("ints", np.arange(-5, 500, dtype=np.int64)),
            ("matrix", np.arange(12, dtype=np.float32).reshape(3, 4)),
            ("empty", np.empty(0, dtype=np.float64)),
        ]
        info = write_segment(path, arrays, meta={"note": "hi"})
        assert info.file_bytes == path.stat().st_size
        segment = open_segment(path)
        for name, array in arrays:
            got = segment[name]
            assert got.dtype == array.dtype
            assert got.shape == array.shape
            assert np.array_equal(got, array)
        assert segment.meta["note"] == "hi"
        # Mounted arrays are read-only views of the mapped file.
        with pytest.raises(ValueError):
            segment["floats"][0] = 99.0

    def test_arrays_are_aligned(self, tmp_path):
        path = tmp_path / "aligned.seg"
        write_segment(
            path, [("a", np.arange(3.0)), ("b", np.arange(7.0))]
        )
        info = read_header(path)
        for entry in info.arrays:
            assert entry["abs_offset"] % 64 == 0

    def test_store_segment_round_trips_the_kernel(self, tmp_path):
        from repro.core.plfstore import PLFStore

        db = make_random_database(num_objects=12, avg_segments=8, seed=10)
        store = db.store()
        path = tmp_path / "store.seg"
        write_store_segment(path, store)
        mounted = PLFStore.from_segments(path)
        for name in (
            "knot_times", "knot_values", "offsets", "prefix_masses",
            "starts", "ends", "totals", "object_ids",
        ):
            assert np.array_equal(getattr(mounted, name), getattr(store, name))
        # The mounted functions' prefix arrays ARE memmap slices — the
        # bit-identity guarantee rests on this.
        for orig, fn in zip(store.functions, mounted.functions):
            assert np.array_equal(fn.times, orig.times)
            assert np.array_equal(fn.prefix_masses, orig.prefix_masses)
        assert mounted.segment_path == str(path)

    def test_truncated_segment_is_refused(self, tmp_path):
        path = tmp_path / "trunc.seg"
        write_segment(path, [("a", np.arange(1000.0))])
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(PersistenceError, match="truncated"):
            open_segment(path)

    def test_corrupted_array_fails_its_checksum(self, tmp_path):
        path = tmp_path / "corrupt.seg"
        write_segment(path, [("a", np.arange(1000.0))])
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF  # flip a bit inside the array data
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="checksum"):
            open_segment(path)

    def test_bad_magic_is_refused(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"definitely not a segment file" * 4)
        with pytest.raises(PersistenceError, match="not a repro segment"):
            open_segment(path)

    def test_future_version_is_refused(self, tmp_path):
        from repro.storage.segments import SEGMENT_VERSION

        path = tmp_path / "future.seg"
        write_segment(path, [("a", np.arange(4.0))])
        raw = bytearray(path.read_bytes())
        raw[8:10] = (SEGMENT_VERSION + 1).to_bytes(2, "big")
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="version"):
            open_segment(path)


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_missing_catalog_is_refused(self, tmp_path):
        with pytest.raises(PersistenceError, match="no catalog"):
            Catalog.open(tmp_path / "nope.sqlite")

    def test_garbage_file_is_refused(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not sqlite at all" * 10)
        with pytest.raises(PersistenceError):
            Catalog.open(path)

    def test_schema_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        Catalog.create(path, "engine").close()
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute(
                "UPDATE catalog_meta SET value = ? WHERE key = ?",
                (str(SCHEMA_VERSION + 1), "schema_version"),
            )
        conn.close()
        with pytest.raises(PersistenceError, match="schema version"):
            Catalog.open(path)

    def test_snapshot_with_tampered_schema_refuses_to_open(self, tmp_path):
        db = make_random_database(num_objects=6, avg_segments=5, seed=1)
        TemporalRankingEngine(db).snapshot(tmp_path / "snap")
        conn = sqlite3.connect(str(tmp_path / "snap" / "catalog.sqlite"))
        with conn:
            conn.execute(
                "UPDATE catalog_meta SET value = '999' "
                "WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(PersistenceError, match="schema version"):
            repro.open(tmp_path / "snap")


# ----------------------------------------------------------------------
# engine snapshot / open
# ----------------------------------------------------------------------
class TestEngineSnapshot:
    def _snapshot_engine(self, tmp_path, seed=20, with_lazy=True):
        db = make_random_database(num_objects=25, avg_segments=10, seed=seed)
        engine = TemporalRankingEngine(db, kmax=15)
        if with_lazy:
            engine.top_k(5.0, 90.0, 3, approximate=True)
            engine.instant_top_k(50.0, 3)
        engine.snapshot(tmp_path / "snap")
        return engine, tmp_path / "snap"

    def test_open_performs_zero_builds(self, tmp_path):
        self._snapshot_engine(tmp_path)
        before = dict(buildcount.counts())
        mounted = repro.open(tmp_path / "snap")
        assert dict(buildcount.counts()) == before
        assert isinstance(mounted, TemporalRankingEngine)
        assert mounted._approximate is not None
        assert mounted._instant is not None

    def test_answers_and_io_charges_bit_identical(self, tmp_path):
        engine, snap = self._snapshot_engine(tmp_path)
        mounted = repro.open(snap)
        for q in _queries(engine.database):
            a = engine.exact.measured_query(q)
            b = mounted.exact.measured_query(q)
            assert _results_equal(a.result, b.result)
            assert a.ios == b.ios
            assert _results_equal(
                engine.top_k(q.t1, q.t2, min(q.k, 15), approximate=True),
                mounted.top_k(q.t1, q.t2, min(q.k, 15), approximate=True),
            )
            assert _results_equal(
                engine.instant_top_k(q.t1, 3), mounted.instant_top_k(q.t1, 3)
            )

    @pytest.mark.parametrize("workers", EXECUTORS)
    def test_mounted_workload_identical_on_every_executor(
        self, tmp_path, workers, monkeypatch
    ):
        engine, snap = self._snapshot_engine(tmp_path, with_lazy=False)
        mounted = repro.open(snap)
        batch = np.asarray(
            [(q.t1, q.t2, q.k) for q in _queries(engine.database, count=30)]
        )
        expected = engine.top_k_many(batch)
        ran = force_threads(monkeypatch, exact3_module, workers)
        got = mounted.top_k_many(batch)
        assert ran and set(ran) == {workers}
        for a, b in zip(expected, got):
            assert _results_equal(a, b)

    def test_snapshot_after_append_captures_post_append_state(self, tmp_path):
        db = make_random_database(num_objects=10, avg_segments=6, seed=30)
        engine = TemporalRankingEngine(db)
        engine.append(3, 101.0, 7.5)
        engine.append(5, 102.0, 1.25)
        assert engine.epoch == 2
        engine.snapshot(tmp_path / "snap")
        mounted = repro.open(tmp_path / "snap")
        assert mounted.epoch == 2
        q = TopKQuery(10.0, 100.0, 5)
        assert _results_equal(engine.exact.query(q), mounted.exact.query(q))
        # The appended knots made it into the mounted kernel arrays.
        times = mounted.database.store().knot_times
        assert 101.0 in times and 102.0 in times

    def test_engine_open_classmethod_rejects_cluster_dirs(self, tmp_path):
        db = make_random_database(num_objects=8, avg_segments=5, seed=31)
        repro.ObjectPartitionedCluster(db, 2).snapshot(tmp_path / "snap")
        with pytest.raises(PersistenceError, match="not an engine"):
            TemporalRankingEngine.open(tmp_path / "snap")


# ----------------------------------------------------------------------
# worker-side mounting and the owner-pid guard
# ----------------------------------------------------------------------
def _unpickle_then_mutate(blob):
    """Worker task: unpickle a device and try to allocate on it."""
    device = pickle.loads(blob)
    try:
        device.allocate(np.zeros(1))
    except BlockDeviceError:
        return "guarded"
    return "allocated"


def _unpickle_then_read(blob):
    """Worker task: unpickle a device and read its first block."""
    device = pickle.loads(blob)
    return float(np.sum(device.read(0)))


class TestWorkerGuard:
    @pytest.mark.skipif(not _HAS_FORK, reason="needs fork")
    def test_worker_unpickle_keeps_the_coordinator_guard(self):
        # Snapshot-mounting inside a pool worker must NOT trip the
        # "unpickle takes ownership" reset: inside a multiprocessing
        # child the device stays read-only.
        device = BlockDevice()
        device.allocate(np.full(4, 2.5))
        blob = pickle.dumps(device)
        pool = WorkerPool(1)
        try:
            assert pool.submit(_unpickle_then_mutate, blob).result() == "guarded"
            assert pool.submit(_unpickle_then_read, blob).result() == 10.0
        finally:
            pool.shutdown()

    def test_main_process_unpickle_takes_ownership(self):
        device = BlockDevice()
        device.allocate(np.zeros(2))
        clone = pickle.loads(pickle.dumps(device))
        assert clone.allocate(np.zeros(2)) == 1  # not guarded


# ----------------------------------------------------------------------
# cluster snapshots
# ----------------------------------------------------------------------
class TestClusterSnapshot:
    @pytest.mark.parametrize("partition", ["object", "time"])
    def test_round_trip_zero_builds_and_identical_protocols(
        self, tmp_path, partition
    ):
        db = make_random_database(num_objects=18, avg_segments=8, seed=50)
        if partition == "object":
            cluster = repro.ObjectPartitionedCluster(db, 3)
        else:
            cluster = repro.TimePartitionedCluster(db, 3)
        cluster.snapshot(tmp_path / "snap")
        before = dict(buildcount.counts())
        mounted = repro.open(tmp_path / "snap")
        assert dict(buildcount.counts()) == before
        assert type(mounted) is type(cluster)
        assert mounted.num_nodes == cluster.num_nodes
        cluster.comm.reset()
        mounted.comm.reset()
        for q in _queries(db, count=12):
            if partition == "object":
                a = cluster.query(q.t1, q.t2, q.k)
                b = mounted.query(q.t1, q.t2, q.k)
            else:
                a = cluster.query_scatter_gather(q.t1, q.t2, q.k)
                b = mounted.query_scatter_gather(q.t1, q.t2, q.k)
            assert _results_equal(a, b)
        assert cluster.comm.snapshot() == mounted.comm.snapshot()

    def test_time_cluster_threshold_protocol_survives_mounting(self, tmp_path):
        db = make_random_database(num_objects=15, avg_segments=8, seed=51)
        cluster = repro.TimePartitionedCluster(db, 3)
        cluster.snapshot(tmp_path / "snap")
        mounted = repro.open(tmp_path / "snap")
        for q in _queries(db, count=8):
            a = cluster.query_threshold(q.t1, q.t2, q.k)
            b = mounted.query_threshold(q.t1, q.t2, q.k)
            assert _results_equal(a, b)

    def test_cluster_open_classmethods_check_kind(self, tmp_path):
        db = make_random_database(num_objects=8, avg_segments=5, seed=52)
        repro.TimePartitionedCluster(db, 2).snapshot(tmp_path / "snap")
        mounted = repro.TimePartitionedCluster.open(tmp_path / "snap")
        assert isinstance(mounted, repro.TimePartitionedCluster)
        with pytest.raises(TypeError):
            repro.ObjectPartitionedCluster.open(tmp_path / "snap")
