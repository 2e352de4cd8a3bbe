"""Columnar shard state suite.

A shard of a :class:`~repro.models.ShardedDatabase` is a
:class:`~repro.sharding.summary.ShardLayout` built straight from its
partition units; an update derives the next columns from the current ones
and re-sweeps each prefix table only from the first changed row.  This
suite holds that path to a from-scratch build:

* a seeded run of 200+ updates -- probabilities 0 and 1 included, score
  moves, BID block replacements -- under both executors, comparing every
  shard's columns and prefix tables with ``==`` after every step, then the
  ``ti_mixed`` query kinds against an unsharded connection to 1e-9;
* the columns built from units equal the ones read off the shard's tree;
* no shard tree is built on the tuple-independent update and query path;
* cached answers do not keep superseded shard state alive, and superseded
  columns, summaries, snapshot readers and footrule tables are freed by
  reference counting alone (no reference cycle holds them).
"""

from __future__ import annotations

import asyncio
import gc
import random
import weakref

import pytest

import repro
import repro.models.sharded as sharded_module
from repro.consensus.topk.footrule import FootruleStatistics
from repro.engine import get_backend, numpy_available, use_backend
from repro.exceptions import ModelError
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.query import PlanSummary, Query, ResultCache, answer_key
from repro.query.compat import query_for_kind
from repro.serving import ServingExecutor
from repro.session import QuerySession
from repro.sharding import SnapshotReader
from repro.sharding.summary import ShardLayout, ShardRankSummary
from repro.workloads.generators import (
    random_bid_database,
    random_tuple_independent_database,
)

TOLERANCE = 1e-9
K = 10
#: A second truncation, read only every few steps so its tables resume
#: across several updates at once.
K_SPARSE = 3
STEPS = 200
BACKENDS = ["python", "numpy"]

#: The popular-query kinds of the benchmark's ``ti_mixed`` workload.
POOL_KINDS = (
    "approximate_topk_intersection",
    "approximate_topk_kendall",
    "mean_topk_footrule",
    "mean_topk_symmetric_difference",
    "top_k_membership",
    "median_topk_symmetric_difference",
)

COLUMNS = (
    "independent",
    "keys",
    "scores",
    "probabilities",
    "presence",
    "alternatives",
    "best_score",
    "block_of",
    "triples",
    "key_triples",
)


def _backend_or_skip(backend_name):
    if backend_name == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")
    return backend_name


def _rows(table):
    return [[float(value) for value in row] for row in table]


def _merged_trees(coordinator):
    """The merged trees built in any of the coordinator's vector entries."""
    return [
        entry.merged_tree
        for entry in coordinator._shared.store.values()
        if entry.merged_tree is not None
    ]


def assert_same_columns(layout, reference):
    for name in COLUMNS:
        assert getattr(layout, name) == getattr(reference, name), name


def assert_same_summary(summary, reference):
    assert_same_columns(summary.layout, reference.layout)
    if reference.is_independent:
        assert _rows(summary.prefix_table) == _rows(reference.prefix_table)
    else:
        assert _rows(summary.count_table()) == _rows(reference.count_table())


def assert_values_close(left, right):
    if isinstance(left, dict):
        assert set(left) == set(right)
        for key in left:
            assert_values_close(left[key], right[key])
    elif isinstance(left, (tuple, list)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_values_close(a, b)
    elif isinstance(left, float):
        assert abs(left - right) < TOLERANCE
    else:
        assert left == right


# ----------------------------------------------------------------------
# Seeded update streams
# ----------------------------------------------------------------------
class _Stream:
    """Seeded updates over a sharded table, with a distinct-score pool."""

    def __init__(self, sharded, seed):
        self.sharded = sharded
        self.rng = random.Random(seed)
        self.keys = sorted(sharded.keys())
        self.used = set()
        for shard in sharded.shards():
            for unit in shard.units:
                if unit[0] == "independent":
                    self.used.add(unit[3])
                else:
                    self.used.update(score for _, score, _ in unit[2])

    def fresh_score(self):
        while True:
            score = float(self.rng.randint(10, 10 ** 6))
            if score not in self.used:
                self.used.add(score)
                return score

    def probability(self):
        roll = self.rng.random()
        if roll < 0.15:
            return 0.0
        if roll < 0.3:
            return 1.0
        return round(self.rng.uniform(0.01, 0.99), 4)

    def unit_of(self, key):
        shard = self.sharded.shards()[self.sharded.shard_of(key)]
        return next(unit for unit in shard.units if unit[1] == key)

    def ti_step(self):
        """A probability change, a score move, or a one-alternative
        block replacement of one tuple-independent tuple."""
        key = self.rng.choice(self.keys)
        roll = self.rng.random()
        if roll < 0.5:
            self.sharded.update_tuple(key, probability=self.probability())
        elif roll < 0.8:
            old = self.unit_of(key)[3]
            self.sharded.update_tuple(key, score=self.fresh_score())
            self.used.discard(old)
        else:
            old = self.unit_of(key)[3]
            score = self.fresh_score()
            self.sharded.update_block(
                key, [(score, score, self.probability())]
            )
            self.used.discard(old)

    def bid_step(self):
        """A BID block replacement: 0-3 alternatives, mass up to one."""
        key = self.rng.choice(self.keys)
        old = [score for _, score, _ in self.unit_of(key)[2]]
        count = self.rng.randint(0, 3)
        masses = [self.rng.random() + 0.01 for _ in range(count)]
        total = sum(masses) / (1.0 if self.rng.random() < 0.3 else 0.8)
        block = []
        for mass in masses:
            score = self.fresh_score()
            block.append((score, score, mass / total))
        self.sharded.update_block(key, block)
        self.used.difference_update(old)


def _from_scratch(shard, max_rank):
    return ShardLayout.from_units(shard.units).summary(max_rank)


def _check_shards(sharded, step):
    """Every shard's columns and prefix tables == a from-scratch build."""
    sparse = step % 5 == 0
    for shard in sharded.shards():
        if shard.is_empty:
            continue
        assert_same_columns(
            shard.layout(), ShardLayout.from_units(shard.units)
        )
    if sharded.executor == "processes":
        pool = sharded.process_pool()
        truncations = (K, K_SPARSE) if sparse else (K,)
        for max_rank in truncations:
            for index, summary in zip(
                pool.shard_indices(), pool.summaries(max_rank)
            ):
                shard = sharded.shards()[index]
                assert_same_summary(summary, _from_scratch(shard, max_rank))
        return
    for shard in sharded.shards():
        if shard.is_empty:
            continue
        truncations = (K, K_SPARSE) if sparse else (K,)
        for max_rank in truncations:
            assert_same_summary(
                shard.layout().summary(max_rank),
                _from_scratch(shard, max_rank),
            )


def _final_table(sharded):
    """The unsharded table holding every shard's current units."""
    units = [unit for shard in sharded.shards() for unit in shard.units]
    if all(unit[0] == "independent" for unit in units):
        return TupleIndependentDatabase(
            [(key, value, score, p) for _, key, value, score, p in units]
        )
    return BlockIndependentDatabase(
        [(unit[1], list(unit[2])) for unit in units]
    )


class TestColumnarParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_tuple_independent_stream(self, executor, backend_name):
        with use_backend(_backend_or_skip(backend_name)):
            database = random_tuple_independent_database(48, rng=17)
            with ShardedDatabase(database, 4, executor=executor) as sharded:
                stream = _Stream(sharded, seed=23)
                for step in range(STEPS):
                    stream.ti_step()
                    _check_shards(sharded, step)
                final = repro.connect(
                    _final_table(sharded), result_cache=False
                )
                coordinator = sharded.coordinator()
                for kind in POOL_KINDS:
                    query = query_for_kind(kind, K)
                    assert_values_close(
                        query.execute(coordinator).value,
                        final.execute(query).value,
                    )

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_block_independent_stream(self, executor):
        database = random_bid_database(24, rng=29)
        with ShardedDatabase(database, 4, executor=executor) as sharded:
            stream = _Stream(sharded, seed=31)
            for step in range(STEPS):
                stream.bid_step()
                _check_shards(sharded, step)
            final = repro.connect(_final_table(sharded), result_cache=False)
            coordinator = sharded.coordinator()
            for kind in (
                "top_k_membership",
                "mean_topk_symmetric_difference",
                "mean_topk_footrule",
            ):
                query = query_for_kind(kind, K)
                assert_values_close(
                    query.execute(coordinator).value,
                    final.execute(query).value,
                )


class TestColumnsFromUnits:
    @pytest.mark.parametrize("model", ["ti", "bid"])
    def test_units_and_tree_give_the_same_columns(self, model):
        if model == "ti":
            database = random_tuple_independent_database(40, rng=3)
        else:
            database = random_bid_database(20, rng=3)
        sharded = ShardedDatabase(database, 4)
        for shard in sharded.shards():
            if shard.is_empty:
                continue
            from_tree = ShardLayout(QuerySession(shard.database.tree))
            assert_same_columns(ShardLayout.from_units(shard.units), from_tree)

    def test_columns_survive_pickling(self):
        import pickle

        for database in (
            random_tuple_independent_database(12, rng=4),
            random_bid_database(6, rng=4),
        ):
            layout = ShardedDatabase(database, 1).shards()[0].layout()
            layout.summary(K)
            copy = pickle.loads(pickle.dumps(layout))
            assert_same_columns(copy, layout)
            assert copy.cache_info().entries == 0

    def test_resumed_table_is_bit_identical(self):
        backend = get_backend()
        rng = random.Random(5)
        probabilities = [rng.random() for _ in range(30)]
        full = backend.prefix_count_polynomials(probabilities, 6)
        for row in (0, 7, 29):
            changed = list(probabilities)
            changed[row] = 1.0 - changed[row]
            resumed = backend.prefix_count_polynomials(changed, 6, full, row)
            assert _rows(resumed) == _rows(
                backend.prefix_count_polynomials(changed, 6)
            )
        assert _rows(full) == _rows(
            backend.prefix_count_polynomials(probabilities, 6)
        )

    def test_in_shard_score_tie_is_rejected(self):
        sharded = ShardedDatabase(
            [("a", 3.0, 0.5), ("b", 2.0, 0.5)], 1, validate_scores=False
        )
        with pytest.raises(ModelError):
            sharded.update_tuple("a", score=2.0)


class TestNoShardTrees:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_update_and_pool_queries_build_no_shard_tree(
        self, executor, monkeypatch
    ):
        built = []
        original = sharded_module.build_shard_database

        def counting(name, index, units):
            built.append(index)
            return original(name, index, units)

        monkeypatch.setattr(sharded_module, "build_shard_database", counting)
        database = random_tuple_independent_database(60, rng=11)
        with ShardedDatabase(database, 4, executor=executor) as sharded:
            key = sorted(sharded.keys())[7]

            async def drive():
                async with ServingExecutor(sharded) as served:
                    await served.update(key, probability=0.3)
                    for kind in POOL_KINDS:
                        await served.execute(query_for_kind(kind, K))

            asyncio.run(drive())
            assert built == []
            assert _merged_trees(sharded.coordinator()) == []

    def test_median_after_update_leaves_merged_tree_unset(self):
        database = random_tuple_independent_database(40, rng=19)
        sharded = ShardedDatabase(database, 4)
        coordinator = sharded.coordinator()
        query = query_for_kind("median_topk_symmetric_difference", K)
        query.execute(coordinator)
        sharded.update_tuple(sorted(sharded.keys())[3], probability=0.9)
        answer = query.execute(coordinator)
        assert _merged_trees(coordinator) == []
        unsharded = repro.connect(_final_table(sharded), result_cache=False)
        assert_values_close(answer.value, unsharded.execute(query).value)


class TestSupersededStateIsReleased:
    def test_cached_answer_does_not_pin_a_superseded_shard_session(self):
        database = random_tuple_independent_database(12, rng=5)
        sharded = ShardedDatabase(database, 2, snapshot_history=1)
        key = sorted(sharded.keys())[0]
        owner = sharded.shard_of(key)
        reader = sharded.snapshot().session()
        sharded.update_tuple(key, probability=0.25)
        # The reader now answers from the owner's archived generation; a
        # tree query builds that generation's shard session.
        cache = ResultCache()
        connection = repro.connect(reader, result_cache=cache)
        query = Query.world("symmetric_difference")
        answer = connection.execute(query)
        archive = sharded.coordinator()._shared.history[owner][0]
        session = archive.state._session
        assert session is not None
        ref = weakref.ref(session)
        value = answer.value
        objective = answer.expected_distance
        provenance = answer.provenance()
        store_key = answer_key(query, reader.version_token(), get_backend().name)
        del session, archive, answer, connection, reader
        # Age version 0 out of the shard history, and the coordinator's
        # bounded version store past its vector.
        sharded.update_tuple(key, probability=0.5)
        sharded.coordinator().rank_matrix(2)
        gc.collect()
        assert ref() is None
        cached = cache.get(store_key)
        assert cached is not None
        assert isinstance(cached.plan, PlanSummary)
        assert cached.value == value
        assert cached.expected_distance == objective
        assert cached.provenance() == provenance

    @pytest.mark.parametrize("front", ["connect", "executor"])
    def test_superseded_state_is_freed_by_reference_counting(self, front):
        """With the cycle collector off, an update plus the ``ti_mixed``
        kinds leave no superseded columns, summaries or footrule tables
        alive: none of them sits on a reference cycle."""
        database = random_tuple_independent_database(60, rng=13)
        sharded = ShardedDatabase(database, 4, snapshot_history=1)
        coordinator = sharded.coordinator()
        key = sorted(sharded.keys())[5]
        owner = sharded.shards()[sharded.shard_of(key)]
        refs = []

        def capture():
            layout = owner.layout()
            reader = coordinator.at()
            refs.extend(
                weakref.ref(item)
                for item in (
                    layout,
                    layout.summary(K),
                    reader,
                    reader.footrule_statistics(K),
                )
            )

        async def drive_executor():
            async with ServingExecutor(sharded) as served:
                for step, probability in enumerate((0.3, 0.6, 0.9)):
                    if step:
                        await served.update(key, probability=probability)
                    for kind in POOL_KINDS:
                        await served.execute(query_for_kind(kind, K))
                    if step == 0:
                        capture()

        def drive_connection():
            connection = repro.connect(sharded, result_cache=False)
            for step, probability in enumerate((0.3, 0.6, 0.9)):
                if step:
                    sharded.update_tuple(key, probability=probability)
                for kind in POOL_KINDS:
                    connection.execute(query_for_kind(kind, K))
                if step == 0:
                    capture()

        first = sharded.versions()
        gc.collect()
        gc.disable()
        try:
            # Two updates of one shard: with a history of one, the
            # second evicts the first generation's archive.
            if front == "executor":
                asyncio.run(drive_executor())
            else:
                drive_connection()
            alive = [type(ref()).__name__ for ref in refs if ref() is not None]
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [
                type(item).__name__
                for item in gc.garbage
                if isinstance(
                    item,
                    (
                        ShardLayout,
                        ShardRankSummary,
                        SnapshotReader,
                        FootruleStatistics,
                    ),
                )
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert len(refs) == 4
        assert alive == []
        assert cyclic == []
        # No session stays bound to the first vector: the store is a plain
        # LRU over the vectors read, at most ``snapshot_history`` deep.
        store = coordinator._shared.store
        assert len(store) <= 1
        assert first not in store

    def test_executor_stores_detached_answers(self):
        database = random_tuple_independent_database(20, rng=7)
        sharded = ShardedDatabase(database, 2)
        query = query_for_kind("mean_topk_symmetric_difference", 3)

        async def drive():
            async with ServingExecutor(sharded) as served:
                fresh = await served.execute(query)
                replayed = await served.execute(query)
                return served, fresh, replayed

        served, fresh, replayed = asyncio.run(drive())
        assert not isinstance(fresh.plan, PlanSummary)
        assert replayed.cached
        assert isinstance(replayed.plan, PlanSummary)
        assert replayed.value == fresh.value
        stored, _ = served._last_answers[query]
        assert isinstance(stored.plan, PlanSummary)
        assert stored.provenance()["route"] == fresh.provenance()["route"]
