"""Equivalence suite for the partition-native distributed serving tier.

The batched cluster paths must reproduce, for a mixed workload, the
preserved scalar protocols *exactly*:

* answers — object ids, scores (bitwise), and tie-break order,
* per-node modeled IO charges over the workload,
* :class:`~repro.distributed.comm.CommStats` totals (messages, pairs,
  hence bytes).

Also covers: the partitioners' disjoint-cover/determinism properties,
``num_nodes`` edge cases, the threshold algorithm's per-round comm
records on tie-heavy data, and the columnar k-way merge.
"""

from functools import partial

import numpy as np
import pytest

from repro.approximate.methods import Appx2Plus
from repro.core import PiecewiseLinearFunction, TemporalObject
from repro.core.database import TemporalDatabase
from repro.core.results import TopKResult, merge_top_k, select_top_k
from repro.datasets import sample_workload
from repro.distributed import (
    ObjectPartitionedCluster,
    TimePartitionedCluster,
    hash_partition,
    time_range_partition,
)
from repro.engine import TemporalRankingEngine

from _support import make_random_database, unpadded_database

@pytest.fixture(scope="module")
def db():
    return make_random_database(num_objects=50, avg_segments=20, seed=33)


@pytest.fixture(scope="module")
def batch(db):
    return sample_workload(db, count=40, kmax=12, seed=7)


def tie_heavy_database(num_objects=30):
    """Constant-level objects in two groups: maximal score ties."""
    objects = []
    for i in range(num_objects):
        level = 2.0 if i % 2 else 5.0
        objects.append(
            TemporalObject(
                i, PiecewiseLinearFunction([0.0, 50.0, 100.0], [level] * 3)
            )
        )
    return TemporalDatabase(objects, span=(0.0, 100.0), pad=True)


def node_io_snapshots(cluster):
    return [node.method.io_stats.snapshot() for node in cluster.nodes]


def assert_cluster_batch_equals_scalar(make_cluster, scalar_name, batch):
    """Answers, per-node IO, and comm of query_many == the scalar loop.

    Two independently built clusters (identical by construction) run
    the two paths, so buffer-free IO counters and comm stats are
    directly comparable from zero.
    """
    scalar_cluster = make_cluster()
    batched_cluster = make_cluster()
    rows = list(zip(batch.t1s, batch.t2s, batch.ks))

    scalar_io = node_io_snapshots(scalar_cluster)
    scalar_query = getattr(scalar_cluster, scalar_name)
    expected = [
        scalar_query(float(t1), float(t2), int(k)) for t1, t2, k in rows
    ]
    scalar_io = [
        after - before
        for after, before in zip(node_io_snapshots(scalar_cluster), scalar_io)
    ]

    batched_io = node_io_snapshots(batched_cluster)
    got = batched_cluster.query_many(batch)
    batched_io = [
        after - before
        for after, before in zip(
            node_io_snapshots(batched_cluster), batched_io
        )
    ]

    assert len(got) == len(expected)
    for row, (want, have) in enumerate(zip(expected, got)):
        assert want == have, f"answer diverged at row {row}"
    assert scalar_cluster.comm == batched_cluster.comm
    for node_idx, (want, have) in enumerate(zip(scalar_io, batched_io)):
        assert want == have, f"node {node_idx} IO diverged"
    return expected


# ----------------------------------------------------------------------
# object-partitioned serving
# ----------------------------------------------------------------------
class TestObjectPartitionedBatch:
    def test_query_many_matches_scalar(self, db, batch):
        assert_cluster_batch_equals_scalar(
            lambda: ObjectPartitionedCluster(db, num_nodes=4), "query", batch
        )

    def test_query_many_matches_brute_force(self, db, batch):
        # EXACT3's stab arithmetic agrees with the kernel brute force
        # to float tolerance (the bitwise contract is scalar-protocol
        # vs batched, asserted elsewhere).
        cluster = ObjectPartitionedCluster(db, num_nodes=4)
        got = cluster.query_many(batch)
        for j, result in enumerate(got):
            ref = db.brute_force_top_k(
                float(batch.t1s[j]), float(batch.t2s[j]), int(batch.ks[j])
            )
            assert result.object_ids == ref.object_ids
            assert np.allclose(result.scores, ref.scores, atol=1e-6)

    def test_single_node_cluster(self, db, batch):
        assert_cluster_batch_equals_scalar(
            lambda: ObjectPartitionedCluster(db, num_nodes=1), "query", batch
        )

    def test_appx2plus_nodes(self, db, batch):
        factory = partial(Appx2Plus, epsilon=1e-3, kmax=20)
        assert_cluster_batch_equals_scalar(
            lambda: ObjectPartitionedCluster(
                db, num_nodes=3, method_factory=factory
            ),
            "query",
            batch,
        )

    def test_tie_heavy_answers(self):
        tie_db = tie_heavy_database()
        tie_batch = sample_workload(tie_db, count=24, kmax=10, seed=5)
        assert_cluster_batch_equals_scalar(
            lambda: ObjectPartitionedCluster(tie_db, num_nodes=3),
            "query",
            tie_batch,
        )

    def test_empty_workload(self, db):
        cluster = ObjectPartitionedCluster(db, num_nodes=3)
        assert cluster.query_many(np.empty((0, 3))) == []


# ----------------------------------------------------------------------
# time-partitioned serving
# ----------------------------------------------------------------------
class TestTimePartitionedBatch:
    def test_scatter_gather_matches_scalar(self, db, batch):
        assert_cluster_batch_equals_scalar(
            lambda: TimePartitionedCluster(db, num_nodes=5),
            "query_scatter_gather",
            batch,
        )

    def test_scatter_gather_matches_brute_force(self, db, batch):
        cluster = TimePartitionedCluster(db, num_nodes=5)
        got = cluster.query_many(batch)
        for j, result in enumerate(got):
            ref = db.brute_force_top_k(
                float(batch.t1s[j]), float(batch.t2s[j]), int(batch.ks[j])
            )
            assert result.object_ids == ref.object_ids
            assert np.allclose(result.scores, ref.scores, atol=1e-6)

    def test_out_of_domain_and_degenerate_queries(self, db):
        t_min, t_max = db.span
        t1s = np.asarray([t_max + 1.0, t_min - 3.0, 40.0])
        t2s = np.asarray([t_max + 2.0, t_min - 1.0, 40.0])
        ks = np.asarray([4, 4, 4])
        cluster = TimePartitionedCluster(db, num_nodes=4)
        expected = [
            cluster.query_scatter_gather(float(a), float(b), int(k))
            for a, b, k in zip(t1s, t2s, ks)
        ]
        got = cluster.query_many(np.stack([t1s, t2s, ks], axis=1))
        assert expected == got
        # Fully out-of-domain queries have no touched nodes: empty.
        assert len(got[0]) == 0 and len(got[1]) == 0

    def test_threshold_protocol_replay(self, db, batch):
        cluster = TimePartitionedCluster(db, num_nodes=4)
        small = sample_workload(db, count=8, kmax=6, seed=9)
        expected = [
            cluster.query_threshold(float(a), float(b), int(k))
            for a, b, k in zip(small.t1s, small.t2s, small.ks)
        ]
        got = cluster.query_many(small, protocol="threshold")
        assert expected == got

    def test_unknown_protocol_rejected(self, db, batch):
        from repro.core.errors import ReproError

        cluster = TimePartitionedCluster(db, num_nodes=2)
        with pytest.raises(ReproError):
            cluster.query_many(batch, protocol="gossip")

    def test_tie_heavy_answers(self):
        tie_db = tie_heavy_database()
        tie_batch = sample_workload(tie_db, count=24, kmax=10, seed=6)
        assert_cluster_batch_equals_scalar(
            lambda: TimePartitionedCluster(tie_db, num_nodes=3),
            "query_scatter_gather",
            tie_batch,
        )

    def test_query_blocking_is_invariant(self, db, batch, monkeypatch):
        """Tiny coordinator blocks produce the same answers and comm."""
        import repro.core.plfstore as plfstore

        cluster = TimePartitionedCluster(db, num_nodes=5)
        cluster.comm.reset()
        reference = cluster.query_many(batch)
        reference_comm = cluster.comm.snapshot()
        monkeypatch.setattr(plfstore, "_CHUNK_ELEMENTS", db.num_objects * 3)
        cluster.comm.reset()
        blocked = cluster.query_many(batch)
        assert blocked == reference
        assert cluster.comm.snapshot() == reference_comm


# ----------------------------------------------------------------------
# time cluster over an unpadded database: nodes lacking objects
# ----------------------------------------------------------------------
def assert_bitwise(got, expected):
    for row, (have, want) in enumerate(zip(got, expected)):
        assert have.object_ids == want.object_ids, f"ids diverged at row {row}"
        assert (
            np.asarray(have.scores).tobytes()
            == np.asarray(want.scores).tobytes()
        ), f"score bits diverged at row {row}"
        assert have.coverage == want.coverage
    assert len(got) == len(expected)


class TestTimeClusterUnpadded:
    @pytest.fixture(scope="class")
    def unpadded(self):
        return unpadded_database()

    @pytest.fixture(scope="class")
    def unpadded_batch(self, unpadded):
        return sample_workload(unpadded, count=48, kmax=12, seed=8)

    def test_layout_mixes_full_and_scattered_nodes(self, unpadded):
        from repro.distributed.time_partition import column_layout

        cluster = TimePartitionedCluster(unpadded, num_nodes=4)
        columns, node_cols = column_layout(cluster.nodes)
        assert columns.size == unpadded.num_objects
        assert [cols is None for cols in node_cols] == [
            False, True, True, False
        ]

    @pytest.mark.parametrize(
        "dead", [None, 0, 1], ids=["healthy", "dead-partial", "dead-full"]
    )
    def test_batched_equals_scatter_gather(
        self, unpadded, unpadded_batch, dead
    ):
        from repro.faults import CRASH, INSTANT_RETRY_POLICY, FaultPlan

        plan = None
        if dead is not None:
            plan = FaultPlan(seed=0).schedule(CRASH, node_id=dead, at_call=1)
        cluster = TimePartitionedCluster(
            unpadded,
            num_nodes=4,
            fault_plan=plan,
            retry_policy=INSTANT_RETRY_POLICY,
        )
        # The scalar protocol over the surviving slices is the oracle.
        reference = TimePartitionedCluster(unpadded, num_nodes=4)
        reference.nodes = [n for n in reference.nodes if n.node_id != dead]
        expected = []
        for t1, t2, k in zip(
            unpadded_batch.t1s, unpadded_batch.t2s, unpadded_batch.ks
        ):
            t1, t2, k = float(t1), float(t2), int(k)
            bounds = reference.boundaries
            touched = int(np.sum((bounds[1:] > t1) & (bounds[:-1] < t2)))
            served = len(reference._touched_nodes(t1, t2))
            answer = reference.query_scatter_gather(t1, t2, k)
            if served < touched:
                answer = answer.with_coverage(served / touched)
            expected.append(answer)
        got = cluster.query_many(unpadded_batch)
        assert_bitwise(got, expected)
        assert cluster.comm.snapshot() == reference.comm.snapshot()
        degraded = sum(1 for answer in expected if answer.degraded)
        assert cluster.comm.degraded_queries == degraded
        assert (degraded > 0) == (dead is not None)

    @pytest.mark.xfail(
        strict=True,
        reason="zero-score ties are filled only from objects the touched "
        "slices hold (ROADMAP item 11)",
    )
    @pytest.mark.parametrize(
        "query", [(1.0, 3.0, 20), (101.0, 102.0, 3)], ids=["ties", "outside"]
    )
    def test_zero_score_ties_match_exact3(self, unpadded, query):
        from repro.exact import Exact3

        exact3 = Exact3()
        exact3.build(unpadded)
        cluster = TimePartitionedCluster(unpadded, num_nodes=4)
        got = cluster.query_many(np.asarray([query]))
        want = exact3.query_many(np.asarray([query]))
        assert got[0].object_ids == want[0].object_ids


# ----------------------------------------------------------------------
# threshold rounds (satellite: per-round comm records)
# ----------------------------------------------------------------------
class TestThresholdRounds:
    def test_rounds_partition_the_totals(self, db):
        cluster = TimePartitionedCluster(db, num_nodes=4)
        cluster.comm.reset()
        cluster.query_threshold(10.0, 80.0, 5, batch_size=4)
        assert cluster.comm.rounds, "TA recorded no rounds"
        assert (
            sum(record.pairs for record in cluster.comm.rounds)
            == cluster.comm.pairs
        )
        assert (
            sum(record.messages for record in cluster.comm.rounds)
            == cluster.comm.messages
        )

    def test_tie_heavy_kth_best_threshold(self):
        """Maximal ties at the k-th score: TA still exact, rounds sane."""
        tie_db = tie_heavy_database(num_objects=40)
        cluster = TimePartitionedCluster(tie_db, num_nodes=4)
        for k in (1, 2, 19, 20, 21, 40):
            cluster.comm.reset()
            got = cluster.query_threshold(5.0, 95.0, k, batch_size=4)
            ref = tie_db.brute_force_top_k(5.0, 95.0, k)
            assert got.object_ids == ref.object_ids
            assert np.allclose(got.scores, ref.scores, atol=1e-9)
            assert sum(r.pairs for r in cluster.comm.rounds) == (
                cluster.comm.pairs
            )

    def test_reset_clears_rounds(self, db):
        cluster = TimePartitionedCluster(db, num_nodes=3)
        cluster.query_threshold(10.0, 60.0, 3)
        cluster.comm.reset()
        assert cluster.comm.rounds == []
        assert cluster.comm.pairs == 0

    def test_round_records_split_by_access_kind(self, db):
        """Each round's sorted/random split partitions its totals."""
        cluster = TimePartitionedCluster(db, num_nodes=4)
        cluster.comm.reset()
        cluster.query_threshold(10.0, 80.0, 5, batch_size=4)
        assert cluster.comm.rounds
        for record in cluster.comm.rounds:
            assert record.messages == (
                record.sorted_messages + record.random_messages
            )
            assert record.pairs == record.sorted_pairs + record.random_pairs
        # Sorted access happens every round; random access at least in
        # the first (everything streamed there is newly seen).
        assert all(r.sorted_messages > 0 for r in cluster.comm.rounds)
        assert cluster.comm.rounds[0].random_messages > 0


# ----------------------------------------------------------------------
# lock-step batched TA (tentpole: one kernel pass per node per round)
# ----------------------------------------------------------------------
def assert_lockstep_equals_scalar(db, num_nodes, batch, batch_size=8):
    """query_many(protocol="threshold") == the scalar TA loop, exactly.

    Two independently built clusters run the two paths from zero, so
    answers, comm totals, *and the per-round records* (with their
    sorted/random splits) are directly comparable.
    """
    from repro.core.queries import workload_arrays

    scalar_cluster = TimePartitionedCluster(db, num_nodes=num_nodes)
    batched_cluster = TimePartitionedCluster(db, num_nodes=num_nodes)
    rows = list(zip(*workload_arrays(batch)))
    expected = [
        scalar_cluster.query_threshold(
            float(t1), float(t2), int(k), batch_size=batch_size
        )
        for t1, t2, k in rows
    ]
    got = batched_cluster.query_many(
        batch, protocol="threshold", batch_size=batch_size
    )
    assert len(got) == len(expected)
    for row, (want, have) in enumerate(zip(expected, got)):
        assert want == have, f"answer diverged at row {row}"
    # CommStats equality covers totals and the full rounds list.
    assert scalar_cluster.comm == batched_cluster.comm
    return expected


class TestThresholdLockStep:
    @pytest.mark.parametrize("num_nodes", [1, 2, 4, 8])
    def test_matches_scalar_across_node_counts(self, db, batch, num_nodes):
        assert_lockstep_equals_scalar(db, num_nodes, batch)

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    def test_matches_scalar_across_batch_sizes(self, db, batch, batch_size):
        assert_lockstep_equals_scalar(db, 4, batch, batch_size=batch_size)

    def test_matches_brute_force(self, db, batch):
        cluster = TimePartitionedCluster(db, num_nodes=4)
        got = cluster.query_many(batch, protocol="threshold")
        for j, result in enumerate(got):
            ref = db.brute_force_top_k(
                float(batch.t1s[j]), float(batch.t2s[j]), int(batch.ks[j])
            )
            assert result.object_ids == ref.object_ids
            assert np.allclose(result.scores, ref.scores, atol=1e-6)

    def test_tie_heavy_totals(self):
        """Maximal score ties: tie-break order still scalar-identical."""
        tie_db = tie_heavy_database(num_objects=40)
        tie_batch = sample_workload(tie_db, count=24, kmax=20, seed=5)
        assert_lockstep_equals_scalar(tie_db, 4, tie_batch, batch_size=4)

    def test_k_exceeds_num_objects(self, db):
        t1s = np.asarray([10.0, 20.0])
        t2s = np.asarray([80.0, 90.0])
        ks = np.asarray([db.num_objects + 5, db.num_objects * 3])
        batch = np.stack([t1s, t2s, ks], axis=1)
        expected = assert_lockstep_equals_scalar(db, 4, batch)
        for j, result in enumerate(expected):
            ref = db.brute_force_top_k(
                float(t1s[j]), float(t2s[j]), int(ks[j])
            )
            assert result.object_ids == ref.object_ids

    def test_empty_touched_sets_in_batch(self, db):
        """Out-of-domain intervals answer empty and never join the
        lock-step rounds of live queries."""
        t_min, t_max = db.span
        t1s = np.asarray([10.0, t_max + 1.0, t_min - 5.0])
        t2s = np.asarray([70.0, t_max + 2.0, t_min - 1.0])
        ks = np.asarray([5, 4, 3])
        batch = np.stack([t1s, t2s, ks], axis=1)
        results = assert_lockstep_equals_scalar(db, 4, batch)
        assert len(results[1]) == 0  # past the span: no touched nodes
        assert len(results[2]) == 0  # before the span
        assert len(results[0]) == 5

    def test_nonpositive_k_scalar_guard(self, db):
        """k <= 0 is answered empty before any stream is opened (the
        batched entry point rejects k < 1 at workload validation)."""
        cluster = TimePartitionedCluster(db, num_nodes=3)
        cluster.comm.reset()
        assert cluster.query_threshold(10.0, 70.0, 0) == TopKResult()
        assert cluster.query_threshold(10.0, 70.0, -2) == TopKResult()
        assert cluster.comm.pairs == 0 and cluster.comm.rounds == []

    def test_one_node_cluster(self, db, batch):
        assert_lockstep_equals_scalar(db, 1, batch)

    def test_batch_size_larger_than_any_stream(self, db, batch):
        """One sorted-access round drains every stream completely."""
        expected = assert_lockstep_equals_scalar(
            db, 3, batch, batch_size=10 * db.num_objects
        )
        cluster = TimePartitionedCluster(db, num_nodes=3)
        got = cluster.query_many(
            batch, protocol="threshold", batch_size=10 * db.num_objects
        )
        assert got == expected

    def test_all_streams_exhausted_terminates_exactly(self):
        """Regression: k = m forces the TA to drain every stream; the
        exhausted-stream frontier (0.0, not the last served score)
        lets the threshold drop so the run terminates with the full
        exact answer."""
        tiny = make_random_database(num_objects=8, avg_segments=10, seed=21)
        t1, t2 = tiny.span
        batch = np.asarray([[t1, t2, tiny.num_objects]], dtype=np.float64)
        results = assert_lockstep_equals_scalar(tiny, 4, batch, batch_size=3)
        ref = tiny.brute_force_top_k(t1, t2, tiny.num_objects)
        assert results[0].object_ids == ref.object_ids
        assert np.allclose(results[0].scores, ref.scores, atol=1e-9)

    def test_negative_partials_frontier_clamp(self):
        """Negative score functions: the nonnegative frontier guard
        keeps the TA exact (an object absent from a shard contributes
        0, which exceeds any negative frontier)."""
        objects = []
        for i in range(12):
            level = float(i - 8)  # levels -8 .. 3: mostly negative
            objects.append(
                TemporalObject(
                    i,
                    PiecewiseLinearFunction([0.0, 50.0, 100.0], [level] * 3),
                )
            )
        negative_db = TemporalDatabase(objects, span=(0.0, 100.0), pad=True)
        cluster = TimePartitionedCluster(negative_db, num_nodes=3)
        for k in (1, 3, 12):
            got = cluster.query_threshold(5.0, 95.0, k, batch_size=4)
            ref = negative_db.brute_force_top_k(5.0, 95.0, k)
            assert got.object_ids == ref.object_ids
            assert np.allclose(got.scores, ref.scores, atol=1e-9)
        batch = np.asarray(
            [[5.0, 95.0, 1], [5.0, 95.0, 3], [5.0, 95.0, 12]],
            dtype=np.float64,
        )
        assert_lockstep_equals_scalar(negative_db, 3, batch, batch_size=4)

    def test_serving_backend_threshold_protocol(self, db, batch):
        """ClusterBackend forwards protocol="threshold" to query_many."""
        from repro.serving import ClusterBackend

        cluster = TimePartitionedCluster(db, num_nodes=3)
        backend = ClusterBackend(cluster, protocol="threshold")
        reference = TimePartitionedCluster(db, num_nodes=3)
        expected = reference.query_many(batch, protocol="threshold")
        got = backend.serve_many(batch.t1s, batch.t2s, batch.ks)
        assert got == expected


# ----------------------------------------------------------------------
# partitioners (satellite: disjoint cover, determinism, edge cases)
# ----------------------------------------------------------------------
class TestPartitioners:
    @pytest.mark.parametrize("num_nodes", [1, 3, 7])
    def test_hash_partition_disjoint_cover(self, db, num_nodes):
        partitions = hash_partition(db, num_nodes)
        seen = []
        for partition in partitions:
            ids = partition.database.object_ids().tolist()
            assert all(
                int(i) % num_nodes == partition.node_id for i in ids
            )
            seen.extend(ids)
        assert sorted(seen) == sorted(db.object_ids().tolist())
        assert len(seen) == len(set(seen))

    def test_hash_partition_deterministic_under_seed(self):
        a = make_random_database(num_objects=30, avg_segments=10, seed=11)
        b = make_random_database(num_objects=30, avg_segments=10, seed=11)
        parts_a = hash_partition(a, 4)
        parts_b = hash_partition(b, 4)
        assert [p.node_id for p in parts_a] == [p.node_id for p in parts_b]
        for pa, pb in zip(parts_a, parts_b):
            assert np.array_equal(
                pa.database.object_ids(), pb.database.object_ids()
            )
            assert np.array_equal(
                pa.database.store().knot_times,
                pb.database.store().knot_times,
            )

    def test_hash_partition_edge_cases(self, db):
        from repro.core.errors import ReproError

        single = hash_partition(db, 1)
        assert len(single) == 1
        assert single[0].database.num_objects == db.num_objects
        with pytest.raises(ReproError):
            hash_partition(db, 0)
        with pytest.raises(ReproError):
            hash_partition(db, db.num_objects + 1)

    @pytest.mark.parametrize("num_nodes", [1, 4, 6])
    def test_time_partition_conserves_mass(self, db, num_nodes):
        partitions = time_range_partition(db, num_nodes)
        # Slices form a disjoint cover of the span.
        assert partitions[0].time_range[0] == db.t_min
        assert partitions[-1].time_range[1] == db.t_max
        for prev, cur in zip(partitions, partitions[1:]):
            assert prev.time_range[1] == cur.time_range[0]
        # Every object's mass is conserved across its slices.
        rng = np.random.default_rng(3)
        for _ in range(6):
            t1, t2 = np.sort(rng.uniform(*db.span, 2))
            whole = db.scores(float(t1), float(t2))
            sliced = np.zeros_like(whole)
            id_to_row = {
                int(object_id): row
                for row, object_id in enumerate(db.object_ids())
            }
            for partition in partitions:
                for obj in partition.database:
                    sliced[id_to_row[obj.object_id]] += obj.score(
                        float(t1), float(t2)
                    )
            assert np.allclose(sliced, whole, atol=1e-6)

    def test_time_partition_more_nodes_than_objects(self):
        tiny = make_random_database(num_objects=3, avg_segments=8, seed=2)
        partitions = time_range_partition(tiny, 10)
        cluster = TimePartitionedCluster(tiny, num_nodes=10)
        assert cluster.num_nodes == len(partitions)
        ref = tiny.brute_force_top_k(*tiny.span, 3)
        got = cluster.query_scatter_gather(*tiny.span, 3)
        assert got.object_ids == ref.object_ids

    def test_time_partition_deterministic_under_seed(self):
        a = make_random_database(num_objects=20, avg_segments=12, seed=8)
        b = make_random_database(num_objects=20, avg_segments=12, seed=8)
        for pa, pb in zip(time_range_partition(a, 5), time_range_partition(b, 5)):
            assert pa.node_id == pb.node_id
            assert pa.time_range == pb.time_range
            assert np.array_equal(
                pa.database.store().knot_times,
                pb.database.store().knot_times,
            )


# ----------------------------------------------------------------------
# columnar merge + engine facade
# ----------------------------------------------------------------------
class TestMergeAndFacade:
    def test_merge_top_k_matches_select_top_k(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            shards = []
            pairs = []
            next_id = 0
            for _ in range(int(rng.integers(1, 5))):
                size = int(rng.integers(0, 8))
                ids = list(range(next_id, next_id + size))
                next_id += size
                scores = rng.integers(0, 5, size).astype(float).tolist()
                shards.append(
                    TopKResult.from_pairs(list(zip(ids, scores)))
                )
                pairs.extend(zip(ids, scores))
            k = int(rng.integers(1, 8))
            assert merge_top_k(shards, k) == select_top_k(pairs, k)

    def test_engine_cluster_entry_point(self, db, batch):
        engine = TemporalRankingEngine(db)
        obj_cluster = engine.cluster(3)
        ref = [
            engine.top_k(float(a), float(b), int(k))
            for a, b, k in zip(batch.t1s, batch.t2s, batch.ks)
        ]
        assert obj_cluster.query_many(batch) == ref
        time_cluster = engine.cluster(3, partition="time")
        got = time_cluster.query_many(batch)
        for want, have in zip(ref, got):
            assert want.object_ids == have.object_ids
            assert np.allclose(want.scores, have.scores, atol=1e-6)

    def test_engine_cluster_rejects_unknown_partition(self, db):
        from repro.core.errors import InvalidQueryError

        engine = TemporalRankingEngine(db)
        with pytest.raises(InvalidQueryError):
            engine.cluster(2, partition="rack")
