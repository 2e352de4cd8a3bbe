"""Incremental cross-shard re-merge and MVCC snapshot-read suite.

Covers the prefix/suffix partial-product merge engine (incremental vs
from-scratch parity across models, partitioners, shard counts, backends
and executors), version-pinned snapshot readers staying 1e-9-identical
across concurrent shard swaps, the bounded snapshot history actually
evicting, the memoized general (BID) hot loop of the from-scratch merge,
and the seeded update-heavy / bursty traffic streams.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

import repro
from conftest import small_bid
from repro.engine import get_backend, numpy_available, use_backend
from repro.exceptions import SnapshotTooOldError
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.query import Query
from repro.serving import ServingExecutor
from repro.session import QuerySession
from repro.sharding import ShardedQuerySession
from repro.sharding.merge import merge_from_scratch
from repro.workloads.traffic import (
    bursty_traffic,
    generate_traffic,
    traffic_signature,
    update_heavy_traffic,
)

BACKENDS = ["python", "numpy"]
TOLERANCE = 1e-9
K = 5


def _backend_or_skip(backend_name):
    if backend_name == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")
    return backend_name


def _ti_tuples(seed, count):
    rng = random.Random(seed)
    scores = rng.sample(range(10, 9000), count)
    return [
        (f"t{i + 1}", float(scores[i]), float(scores[i]),
         round(rng.uniform(0.05, 0.95), 3))
        for i in range(count)
    ]


def _bid_spec(seed, blocks):
    rng = random.Random(seed)
    scores = iter(rng.sample(range(10, 9000), blocks * 3))
    spec = []
    for index in range(blocks):
        count = rng.randint(1, 3)
        raw = [rng.uniform(0.1, 1.0) for _ in range(count)]
        norm = sum(raw) / 0.8
        alternatives = []
        for j in range(count):
            score = float(next(scores))
            alternatives.append((score, score, raw[j] / norm))
        spec.append((f"t{index + 1}", alternatives))
    return spec


def _rows(matrix):
    return {key: list(matrix.row(key)) for key in matrix.keys()}


def _matrix_rows(session, max_rank):
    return _rows(session.rank_matrix(max_rank))


def _rebuilt_matrix(sharded, max_rank):
    """The from-scratch merge of the coordinator's current summaries."""
    summaries = [
        summary
        for _, summary, _ in sharded.shard_provider().summaries_with_tokens(
            max_rank
        )
    ]
    return merge_from_scratch(summaries, max_rank, get_backend())


def assert_rows_close(left, right, tolerance=TOLERANCE):
    assert set(left) == set(right)
    for key, row in left.items():
        other = right[key]
        assert len(row) == len(other)
        for a, b in zip(row, other):
            assert abs(a - b) < tolerance


class TestIncrementalVsRebuildParity:
    """The merge engine answers exactly like a from-scratch merge."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_parity_after_update(
        self, model, shard_count, partitioner, executor, backend_name
    ):
        with use_backend(_backend_or_skip(backend_name)):
            if model == "ti":
                source = _ti_tuples(shard_count + 17, 14)
            else:
                spec = _bid_spec(shard_count + 29, 7)
                source = BlockIndependentDatabase(spec)
            sharded = ShardedDatabase(
                source, shard_count,
                partitioner=partitioner, executor=executor,
            )
            with sharded:
                incremental = sharded.coordinator()
                assert_rows_close(
                    _matrix_rows(incremental, K),
                    _rows(_rebuilt_matrix(sharded, K)),
                )
                # A single-shard swap: the coordinator re-merges through
                # cached partial products, the oracle from scratch;
                # answers must still match to 1e-9.
                if model == "ti":
                    sharded.update_tuple("t3", probability=0.42)
                    updated = TupleIndependentDatabase(
                        [
                            (key, value, score, 0.42 if key == "t3" else p)
                            for key, value, score, p in source
                        ]
                    )
                else:
                    replacement = [
                        (value, score, min(1.0, probability * 0.7))
                        for value, score, probability in spec[2][1]
                    ]
                    sharded.update_block(spec[2][0], replacement)
                    updated = BlockIndependentDatabase(
                        spec[:2] + [(spec[2][0], replacement)] + spec[3:]
                    )
                rebuilt = _rebuilt_matrix(sharded, K)
                assert_rows_close(_matrix_rows(incremental, K), _rows(rebuilt))
                membership = rebuilt.membership()
                for key, value in incremental.top_k_membership(K).items():
                    assert abs(membership[key] - value) < TOLERANCE
                # The mean answer and its expected distance match an
                # unsharded session over the updated data.
                oracle = QuerySession(updated.tree)
                mean_keys, objective = (
                    incremental.mean_topk_symmetric_difference(K)
                )
                oracle_keys, oracle_objective = (
                    oracle.mean_topk_symmetric_difference(K)
                )
                assert mean_keys == oracle_keys
                assert abs(objective - oracle_objective) < TOLERANCE


class TestConvolutionBudget:
    def test_single_shard_update_is_linear_in_shards(self):
        """One shard swap costs O(S) convolutions, not O(S^2)."""
        sharded = ShardedDatabase(_ti_tuples(5, 48), 4, partitioner="hash")
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        shard_count = sum(
            1 for shard in sharded.shards() if not shard.is_empty
        )
        before = coordinator.merge_stats()
        sharded.update_tuple("t7", probability=0.31)
        coordinator.rank_matrix(K)
        delta = coordinator.merge_stats() - before
        assert delta.incremental_merges == 1
        assert delta.full_merges == 0
        # Incremental re-merge: own rank rows + the partial-product rows
        # containing the swapped shard -- at most 3S convolutions, far
        # under the S*(S-1) of the pairwise legacy merge.
        assert delta.convolutions <= 3 * shard_count
        assert delta.convolutions < shard_count * (shard_count - 1) or (
            shard_count <= 3
        )
        assert delta.partials_reused >= 1

    def test_layout_patch_on_probability_update(self):
        sharded = ShardedDatabase(_ti_tuples(11, 30), 4)
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        before = coordinator.merge_stats()
        sharded.update_tuple("t5", probability=0.5)
        coordinator.rank_matrix(K)
        delta = coordinator.merge_stats() - before
        # A probability-only update keeps every score in place: the merged
        # layout is patched, not rebuilt.
        assert delta.layout_patches == 1
        assert delta.layout_rebuilds == 0

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_layout_patch_on_served_probability_update(self, executor):
        """The serving executor reads only through pinned readers; the
        reader at the new vector patches the layout the previous one
        built."""
        sharded = ShardedDatabase(_ti_tuples(11, 30), 4, executor=executor)
        coordinator = sharded.coordinator()

        async def drive():
            async with ServingExecutor(sharded, result_cache=False) as served:
                await served.execute(Query.membership(K))
                before = coordinator.merge_stats()
                await served.update("t5", probability=0.5)
                await served.execute(Query.membership(K))
                await served.execute(Query.topk(K))
                return coordinator.merge_stats() - before

        with sharded:
            delta = asyncio.run(drive())
        assert delta.layout_patches >= 1
        assert delta.layout_rebuilds == 0


class TestPinnedSnapshotReads:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_pinned_reader_identical_across_swap(self, executor):
        sharded = ShardedDatabase(
            _ti_tuples(23, 24), 4, executor=executor
        )
        with sharded:
            coordinator = sharded.coordinator()
            coordinator.rank_matrix(K)
            snapshot = sharded.snapshot()
            pinned = snapshot.session()
            before = _matrix_rows(pinned, K)
            membership_before = dict(pinned.top_k_membership(K))
            sharded.update_tuple("t2", probability=0.11)
            assert not snapshot.is_current
            # The pinned reader keeps answering at its version vector.
            assert_rows_close(before, _matrix_rows(pinned, K))
            membership_after = dict(pinned.top_k_membership(K))
            for key, value in membership_before.items():
                assert abs(membership_after[key] - value) < TOLERANCE
            # The live coordinator sees the new state.
            live = _matrix_rows(coordinator, K)
            assert any(
                abs(a - b) >= TOLERANCE
                for key in before
                for a, b in zip(before[key], live[key])
            )

    def test_pinned_reader_during_concurrent_swaps(self):
        sharded = ShardedDatabase(_ti_tuples(31, 24), 4, snapshot_history=8)
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        pinned = coordinator.at()
        expected = _matrix_rows(pinned, K)
        errors = []

        def writer():
            try:
                for step in range(6):
                    sharded.update_tuple(
                        f"t{step + 1}", probability=0.15 + 0.1 * step
                    )
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(10):
                assert_rows_close(expected, _matrix_rows(pinned, K))
        finally:
            thread.join()
        assert not errors
        assert_rows_close(expected, _matrix_rows(pinned, K))

    def test_read_racing_an_update_answers_at_one_vector(self, monkeypatch):
        """An update that lands inside a coordinator read moves neither
        that read nor what it memoizes off the vector the read began at."""
        sharded = ShardedDatabase(_ti_tuples(53, 24), 4)
        coordinator = sharded.coordinator()
        reference = ShardedDatabase(_ti_tuples(53, 24), 4).coordinator()
        first = sharded.versions()
        key = coordinator.keys()[0]
        merge = ShardedQuerySession._merged_rank_matrix

        def racing(session, max_rank):
            if sharded.versions() == first:
                sharded.update_tuple(key, probability=0.99)
            return merge(session, max_rank)

        monkeypatch.setattr(ShardedQuerySession, "_merged_rank_matrix", racing)
        membership = coordinator.top_k_membership(K)
        monkeypatch.undo()
        expected = reference.top_k_membership(K)
        for name, value in expected.items():
            assert abs(membership[name] - value) < TOLERANCE
        assert_rows_close(
            _matrix_rows(reference, K), _matrix_rows(coordinator.at(first), K)
        )
        assert abs(coordinator.rank_matrix(K).row(key)[0] - 0.99) < TOLERANCE

    def test_fused_seeds_racing_an_update_stay_at_their_vector(
        self, monkeypatch
    ):
        """An update that lands between the fused sweep and the seeding
        leaves no slice of the old vector's sweep in the new vector's
        entry."""
        sharded = ShardedDatabase(_ti_tuples(61, 24), 4)
        coordinator = sharded.coordinator()
        before = ShardedDatabase(_ti_tuples(61, 24), 4).coordinator()
        after_db = ShardedDatabase(_ti_tuples(61, 24), 4)
        first = sharded.versions()
        key = coordinator.keys()[0]
        after_db.update_tuple(key, probability=0.99)
        after = after_db.coordinator()
        connection = repro.connect(sharded, result_cache=False)
        plans = [connection.plan(Query.membership(k)) for k in (3, 6)]
        merge = ShardedQuerySession._merged_rank_matrix

        def racing(session, max_rank):
            matrix = merge(session, max_rank)
            if sharded.versions() == first:
                sharded.update_tuple(key, probability=0.99)
            return matrix

        monkeypatch.setattr(ShardedQuerySession, "_merged_rank_matrix", racing)
        assert connection.planner.fuse_plans(coordinator, plans) == 2
        monkeypatch.undo()
        assert sharded.versions() != first
        assert_rows_close(_matrix_rows(after, 3), _matrix_rows(coordinator, 3))
        assert_rows_close(
            _matrix_rows(before, 3), _matrix_rows(coordinator.at(first), 3)
        )

    def test_batch_racing_an_update_answers_and_caches_at_one_vector(
        self, monkeypatch
    ):
        """A connection batch reads through one pinned reader: an update
        landing mid-batch changes none of its answers, and they are cached
        under the vector they were computed at."""
        sharded = ShardedDatabase(_ti_tuples(67, 24), 4)
        before = ShardedDatabase(_ti_tuples(67, 24), 4).coordinator()
        after_db = ShardedDatabase(_ti_tuples(67, 24), 4)
        first = sharded.versions()
        key = before.keys()[0]
        after_db.update_tuple(key, probability=0.99)
        after = after_db.coordinator()
        connection = repro.connect(sharded)
        queries = [Query.membership(k) for k in (3, 6)]
        merge = ShardedQuerySession._merged_rank_matrix

        def racing(session, max_rank):
            matrix = merge(session, max_rank)
            if sharded.versions() == first:
                sharded.update_tuple(key, probability=0.99)
            return matrix

        monkeypatch.setattr(ShardedQuerySession, "_merged_rank_matrix", racing)
        answers = connection.execute_many(queries)
        monkeypatch.undo()
        assert sharded.versions() != first
        for query, answer in zip(queries, answers):
            expected = before.top_k_membership(query.k)
            for name, value in expected.items():
                assert abs(answer.value[name] - value) < TOLERANCE
        for query in queries:
            again = connection.execute(query)
            assert not again.cached
            expected = after.top_k_membership(query.k)
            for name, value in expected.items():
                assert abs(again.value[name] - value) < TOLERANCE

    def test_snapshot_readers_share_memoized_artifacts(self):
        sharded = ShardedDatabase(_ti_tuples(37, 20), 3)
        coordinator = sharded.coordinator()
        snapshot = sharded.snapshot()
        first = snapshot.session()
        first.rank_matrix(K)
        second = snapshot.session()
        hits_before = second.cache_hits
        second.rank_matrix(K)
        assert second.cache_hits > hits_before


class TestVersionToken:
    def test_ingress_key_survives_reads_and_misses_after_invalidate(self):
        """Reads at any vector leave the coordinator's token alone; only
        an update (a new vector) or invalidate() moves it."""
        sharded = ShardedDatabase(_ti_tuples(47, 24), 4)
        coordinator = sharded.coordinator()
        query = Query.membership(K)

        async def drive():
            async with ServingExecutor(sharded) as served:
                first = sharded.versions()
                await served.execute(query)
                await served.update("t2", probability=0.35)
                assert not (await served.execute(query)).cached
                coordinator.at(first).rank_matrix(K)
                assert (await served.execute(query)).cached
                coordinator.rank_matrix(K)
                assert (await served.execute(query)).cached
                coordinator.invalidate()
                assert not (await served.execute(query)).cached

        asyncio.run(drive())

    @pytest.mark.skipif(not numpy_available(), reason="numpy backend only")
    def test_backend_switch_rebuilds_the_vector_entry(self):
        sharded = ShardedDatabase(_ti_tuples(59, 20), 3)
        coordinator = sharded.coordinator()
        with use_backend("numpy"):
            coordinator.rank_matrix(K)
        with use_backend("python"):
            assert coordinator.rank_matrix(K).backend.name == "python"
            assert coordinator.at().rank_matrix(K).backend.name == "python"


class TestBoundedSnapshotHistory:
    def test_old_pins_evict(self):
        sharded = ShardedDatabase(
            _ti_tuples(41, 20), 2, snapshot_history=2
        )
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        stale = sharded.snapshot()
        pinned = stale.session()
        pinned.rank_matrix(K)
        # Push the pinned shard versions far beyond the bounded history.
        target = "t1"
        for step in range(4):
            sharded.update_tuple(target, probability=0.2 + 0.1 * step)
        fresh_reader = coordinator.at()
        fresh_reader.rank_matrix(K)  # current pins always resolve
        assert not stale.is_current
        # Drop the memoized artifacts so the stale pin must re-resolve its
        # archived shard state -- which the bounded history has evicted.
        reader = stale.session()
        reader.invalidate()
        with pytest.raises(SnapshotTooOldError):
            reader.rank_matrix(K)

    def test_recent_pin_still_resolves(self):
        sharded = ShardedDatabase(
            _ti_tuples(43, 20), 2, snapshot_history=4
        )
        coordinator = sharded.coordinator()
        coordinator.rank_matrix(K)
        snapshot = sharded.snapshot()
        reference = _matrix_rows(snapshot.session(), K)
        sharded.update_tuple("t1", probability=0.77)
        # A fresh reader at the superseded vector rebuilds from the
        # archived shard state and matches the pre-update answer.
        reader = coordinator.at(snapshot.versions)
        assert_rows_close(reference, _matrix_rows(reader, K))


class TestMergeGeneralMemo:
    """The memoized others-product hot loop answers like the unsharded
    session (the general/BID path of the from-scratch merge that stale
    readers take)."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_general_merge_parity(self, backend_name):
        with use_backend(_backend_or_skip(backend_name)):
            database = small_bid(13, blocks=7)
            reference = QuerySession(database.tree)
            sharded = ShardedDatabase(database, 3, partitioner="hash")
            rebuilt = _rebuilt_matrix(sharded, K)
            assert_rows_close(_matrix_rows(reference, K), _rows(rebuilt))
            membership_ref = reference.top_k_membership(K)
            membership_merged = rebuilt.membership()
            assert set(membership_ref) == set(membership_merged)
            for key, value in membership_ref.items():
                assert abs(membership_merged[key] - value) < TOLERANCE


class TestTrafficStreams:
    def test_default_stream_unchanged_and_stable(self):
        events = generate_traffic(
            [f"t{i}" for i in range(20)], 60, rng=random.Random(123),
            update_ratio=0.2,
        )
        replay = generate_traffic(
            [f"t{i}" for i in range(20)], 60, rng=random.Random(123),
            update_ratio=0.2,
        )
        assert traffic_signature(events) == traffic_signature(replay)
        # Default streams carry no arrival process: signatures (and the
        # RNG draw sequence) are byte-compatible with the steady era.
        assert all(event.gap is None for event in events)

    def test_update_heavy_mix_is_update_heavy_and_skewed(self):
        keys = [f"t{i}" for i in range(40)]
        events = update_heavy_traffic(keys, 400, rng=random.Random(7))
        updates = [event for event in events if event.is_update]
        assert 0.25 < len(updates) / len(events) < 0.55
        counts = {}
        for event in updates:
            counts[event.key] = counts.get(event.key, 0) + 1
        top = max(counts.values())
        # Zipfian popularity: the hottest key dominates far beyond the
        # uniform expectation of len(updates)/len(keys).
        assert top > 2 * (len(updates) / len(keys))
        assert traffic_signature(events) == traffic_signature(
            update_heavy_traffic(keys, 400, rng=random.Random(7))
        )

    def test_bursty_stream_gaps_and_signature(self):
        keys = [f"t{i}" for i in range(10)]
        events = bursty_traffic(
            keys, 80, rng=random.Random(5), mean_gap=0.02, burst_length=6
        )
        assert all(event.gap is not None for event in events)
        gaps = [event.gap for event in events]
        small = sum(1 for gap in gaps if gap < 0.02 * 0.05)
        large = sum(1 for gap in gaps if gap >= 0.02 * 0.5)
        # Clustered arrivals: most gaps are tiny, separated by pauses
        # roughly every burst_length events.
        assert small > large >= 80 // 6 - 2
        assert traffic_signature(events) == traffic_signature(
            bursty_traffic(
                keys, 80, rng=random.Random(5),
                mean_gap=0.02, burst_length=6,
            )
        )
        # The gap participates in the signature: same queries at a
        # different pacing fingerprint differently.
        repaced = bursty_traffic(
            keys, 80, rng=random.Random(5), mean_gap=0.04, burst_length=6
        )
        assert traffic_signature(events) != traffic_signature(repaced)
