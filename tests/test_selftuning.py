"""The planner's performance layers: fixed routes, result cache, fused plans.

Each layer has a correctness contract:

* **Fixed routes** -- the exact-vs-sampling choice comes from named
  constants, so no file left on disk can move a query's route.
* **Cross-session result cache** -- completed answers replay only at an
  unchanged version token and backend: any invalidation, re-scoring,
  shard version bump or backend switch must miss.  Cached answers are
  1e-9-identical to cold execution on both backends; the LRU bound
  holds under tiny capacities.
* **Fused multi-query plans** -- a batch wanting the rank-matrix
  artifact at several depths computes one ``k_max`` sweep; the
  column-prefix slices must equal per-``k`` recomputation exactly.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import os
import subprocess
import sys

import pytest

from tests.conftest import small_tuple_independent
from repro.consensus.topk.kendall import brute_force_mean_topk_kendall

from repro.engine import numpy_available, use_backend
from repro.models import ShardedDatabase
from repro.query import (
    Planner,
    Query,
    ResultCache,
    answer_key,
    connect,
    query_for_kind,
    result_cache_for,
)
from repro.query.calibration import DEFAULT_CALIBRATION_PATH, host_fingerprint
from repro.serving import ServingExecutor
from repro.session import QuerySession
from repro.workloads.generators import random_tuple_independent_database

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

K = 4
SHARDS = 4
TOLERANCE = 1e-9

EXACT_KINDS = (
    "mean_topk_symmetric_difference",
    "mean_topk_footrule",
    "top_k_membership",
    "expected_rank_topk",
)


def _database(n=14, rng=1234):
    return random_tuple_independent_database(n, rng=rng)


def _close(left, right, tolerance=TOLERANCE):
    if isinstance(left, float) or isinstance(right, float):
        return abs(float(left) - float(right)) <= tolerance
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(_close(left[key], right[key]) for key in left)
        )
    if isinstance(left, (tuple, list)):
        return (
            isinstance(right, (tuple, list))
            and len(left) == len(right)
            and all(_close(a, b) for a, b in zip(left, right))
        )
    return left == right


# ----------------------------------------------------------------------
# Result cache: parity, invalidation, bounds
# ----------------------------------------------------------------------
class TestResultCache:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_cached_answer_identical_to_cold(self, backend, kind):
        database = _database()
        query = query_for_kind(kind, K)
        with use_backend(backend):
            conn = connect(QuerySession(database.tree))
            cold = conn.execute(query)
            warm = conn.execute(query)
            reference = connect(
                QuerySession(database.tree), result_cache=False
            ).execute(query)
        assert not cold.cached and warm.cached
        assert warm.value is cold.value  # the very answer, replayed
        assert _close(warm.value, reference.value), f"{kind}/{backend}"
        assert warm.cache_hits == 0 and warm.cache_misses == 0
        assert warm.provenance()["cached"] is True

    def test_invalidate_misses_then_recaches(self):
        conn = connect(QuerySession(_database().tree))
        query = Query.topk(K)
        conn.execute(query)
        assert conn.execute(query).cached
        conn.session.invalidate()
        refreshed = conn.execute(query)
        assert not refreshed.cached
        assert conn.execute(query).cached

    def test_set_scoring_misses(self):
        conn = connect(QuerySession(_database().tree))
        query = Query.topk(K)
        first = conn.execute(query)
        assert conn.execute(query).cached
        conn.session.set_scoring(
            lambda alternative: -alternative.effective_score()
        )
        rescored = conn.execute(query)
        assert not rescored.cached
        assert rescored.value != first.value  # the re-scoring really ran

    def test_shard_version_bump_misses(self):
        database = _database()
        sharded = ShardedDatabase(database, SHARDS)
        conn = connect(sharded)
        query = Query.topk(K)
        conn.execute(query)
        assert conn.execute(query).cached
        key = sharded.keys()[0]
        sharded.update_tuple(key, probability=0.123)
        updated = conn.execute(query)
        assert not updated.cached
        assert conn.execute(query).cached

    def test_rng_override_bypasses_the_cache(self):
        conn = connect(QuerySession(_database().tree))
        query = Query.topk(K)
        conn.execute(query)
        assert conn.execute(query).cached
        assert not conn.execute(query, rng=7).cached

    def test_lru_evicts_under_tiny_capacity(self):
        tiny = ResultCache(capacity=2)
        conn = connect(QuerySession(_database().tree), result_cache=tiny)
        queries = [Query.topk(k) for k in (2, 3, 4)]
        for query in queries:
            conn.execute(query)
        assert len(tiny) == 2
        assert tiny.stats().evictions == 1
        # k=2 was the least recently used entry: it is gone, the newest
        # two replay.
        assert not conn.execute(queries[0]).cached
        assert conn.execute(queries[2]).cached

    def test_ttl_expires_hot_entries(self):
        cache = ResultCache(capacity=8, ttl_s=1e-6)
        conn = connect(QuerySession(_database().tree), result_cache=cache)
        query = Query.topk(K)
        conn.execute(query)
        import time

        time.sleep(0.01)
        assert not conn.execute(query).cached
        assert cache.stats().expirations >= 1

    def test_connections_share_the_sessions_cache(self):
        session = QuerySession(_database().tree)
        first = connect(session)
        second = connect(session)
        assert first.result_cache is second.result_cache
        assert first.result_cache is result_cache_for(session)
        first.execute(Query.topk(K))
        assert second.execute(Query.topk(K)).cached

    def test_answer_key_separates_backends_and_versions(self):
        session = QuerySession(_database().tree)
        query = Query.topk(K)
        base = answer_key(query, session.version_token(), "numpy")
        assert base != answer_key(query, session.version_token(), "python")
        session.invalidate()
        assert base != answer_key(query, session.version_token(), "numpy")


# ----------------------------------------------------------------------
# Backend switch: rebuild path (regression)
# ----------------------------------------------------------------------
class TestBackendSwitch:
    @pytest.mark.skipif(not numpy_available(), reason="numpy backend only")
    def test_switch_rebuilds_artifacts_and_misses_the_cache(self):
        database = _database()
        conn = connect(QuerySession(database.tree))
        query = Query.membership(K)
        with use_backend("numpy"):
            numpy_answer = conn.execute(query)
            assert conn.execute(query).cached
            generation = conn.session.generation
        with use_backend("python"):
            switched = conn.execute(query)
            # The warm numpy-shaped artifact cache was rebuilt, not
            # reused: the switch bumps the session generation, so the
            # result cache misses and the matrices recompute for the
            # pure backend.
            assert not switched.cached
            assert conn.session.generation > generation
            assert switched.cache_misses > 0
            assert _close(switched.value, numpy_answer.value)
            matrix = conn.session.rank_matrix(K)
            assert matrix.backend.name == "python"
        with use_backend("numpy"):
            back = conn.execute(query)
            assert not back.cached  # python-backend entry cannot replay
            assert _close(back.value, numpy_answer.value)

    @pytest.mark.skipif(not numpy_available(), reason="numpy backend only")
    def test_fused_seeds_do_not_survive_a_switch(self):
        database = _database(n=16)
        conn = connect(QuerySession(database.tree), result_cache=False)
        queries = [Query.membership(k) for k in (3, 6, 9)]
        with use_backend("numpy"):
            conn.execute_many(queries)
            assert ("rank_matrix", (3,)) in conn.session._cache
        with use_backend("python"):
            answers = conn.execute_many(queries)
            reference = connect(
                QuerySession(database.tree), result_cache=False
            ).execute_many(queries)
            for got, want in zip(answers, reference):
                assert _close(got.value, want.value)
            matrix = conn.session._cache[("rank_matrix", (3,))]
            assert matrix.backend.name == "python"


# ----------------------------------------------------------------------
# Fused multi-query plans
# ----------------------------------------------------------------------
class TestFusedPlans:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncated_slices_equal_recomputation(self, backend):
        database = _database(n=18)
        with use_backend(backend):
            base = QuerySession(database.tree)
            full = base.rank_matrix(9)
            for k in (2, 5, 7):
                sliced = full.truncated(k)
                recomputed = QuerySession(database.tree).rank_matrix(k)
                assert sliced.keys() == recomputed.keys()
                assert sliced.max_rank == recomputed.max_rank == k
                for key in sliced.keys():
                    got = sliced.row(key)
                    want = recomputed.row(key)
                    assert len(got) == len(want) == k
                    assert all(
                        abs(a - b) <= TOLERANCE for a, b in zip(got, want)
                    )

    def test_fuse_plans_seeds_the_artifact_cache(self):
        database = _database(n=16)
        conn = connect(QuerySession(database.tree), result_cache=False)
        queries = [Query.membership(k) for k in (3, 6, 9)]
        plans = [conn.plan(query) for query in queries]
        fused = conn.planner.fuse_plans(conn.session, plans)
        assert fused == len(queries)
        for k in (3, 6, 9):
            assert ("rank_matrix", (k,)) in conn.session._cache

    def test_fuse_plans_noop_on_single_depth(self):
        conn = connect(QuerySession(_database().tree), result_cache=False)
        plans = [conn.plan(Query.membership(K))]
        assert conn.planner.fuse_plans(conn.session, plans) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_execute_many_matches_sequential(self, backend):
        database = _database(n=16)
        queries = [Query.membership(k) for k in (2, 4, 8)] + [
            Query.topk(3),
            Query.expected_ranks(),
        ]
        with use_backend(backend):
            fused = connect(
                QuerySession(database.tree), result_cache=False
            ).execute_many(queries)
            sequential = [
                connect(
                    QuerySession(database.tree), result_cache=False
                ).execute(query)
                for query in queries
            ]
        for got, want in zip(fused, sequential):
            assert _close(got.value, want.value), got.query.kind

    def test_execute_many_sharded_parity(self):
        database = _database(n=16)
        queries = [Query.membership(k) for k in (2, 4, 8)]
        fused = connect(
            ShardedDatabase(database, SHARDS), result_cache=False
        ).execute_many(queries)
        local = [
            connect(QuerySession(database.tree), result_cache=False).execute(
                query
            )
            for query in queries
        ]
        for got, want in zip(fused, local):
            assert _close(got.value, want.value), got.query.k

    def test_executor_micro_batch_fuses_and_counts(self):
        database = _database(n=16)
        queries = [Query.membership(k) for k in (2, 4, 8)]

        async def main():
            async with ServingExecutor(
                ShardedDatabase(database, SHARDS)
            ) as executor:
                answers = await asyncio.gather(
                    *(executor.execute(query) for query in queries)
                )
                return answers, executor.metrics()

        answers, metrics = asyncio.run(main())
        assert metrics.fused_plans > 0
        local = [
            connect(QuerySession(database.tree), result_cache=False).execute(
                query
            )
            for query in queries
        ]
        for got, want in zip(answers, local):
            assert _close(got.value, want.value)


# ----------------------------------------------------------------------
# Serving executor: counters and cache behaviour
# ----------------------------------------------------------------------
class TestServedResultCache:
    def test_hits_misses_and_snapshot_delta(self):
        database = _database()
        query = Query.topk(K)

        async def main():
            async with ServingExecutor(
                ShardedDatabase(database, SHARDS)
            ) as executor:
                await executor.execute(query)
                before = executor.metrics()
                first = await executor.execute(query)
                second = await executor.execute(query)
                after = executor.metrics()
                return first, second, after - before

        first, second, delta = asyncio.run(main())
        assert first.cached and second.cached
        assert delta.result_cache_hits == 2
        assert delta.result_cache_misses == 0
        assert delta.queries == 2
        assert delta.fused_plans == 0

    def test_update_invalidates_served_answers(self):
        database = _database()
        query = Query.topk(K)

        async def main():
            sharded = ShardedDatabase(database, SHARDS)
            async with ServingExecutor(sharded) as executor:
                await executor.execute(query)
                assert (await executor.execute(query)).cached
                await executor.update(
                    sharded.keys()[0], probability=0.321
                )
                refreshed = await executor.execute(query)
                assert not refreshed.cached
                assert not refreshed.stale and not refreshed.degraded
                assert (await executor.execute(query)).cached

        asyncio.run(main())

    def test_executor_and_connection_share_answers(self):
        database = _database()
        sharded = ShardedDatabase(database, SHARDS)
        query = Query.topk(K)

        async def main():
            async with ServingExecutor(sharded) as executor:
                await executor.execute(query)
                return executor.result_cache

        cache = asyncio.run(main())
        assert cache is result_cache_for(sharded)
        assert len(cache) == 1

    def test_disabled_cache_records_nothing(self):
        database = _database()
        query = Query.topk(K)

        async def main():
            async with ServingExecutor(
                ShardedDatabase(database, SHARDS), result_cache=False
            ) as executor:
                await executor.execute(query)
                answer = await executor.execute(query)
                return answer, executor.metrics()

        answer, metrics = asyncio.run(main())
        assert not answer.cached
        assert metrics.result_cache_hits == 0
        assert metrics.result_cache_misses == 0


# ----------------------------------------------------------------------
# Fixed routes
# ----------------------------------------------------------------------
class TestCalibration:
    def test_host_fingerprint_shape(self):
        fingerprint = host_fingerprint()
        assert set(fingerprint) == {"cpu_count", "platform", "python"}

    def test_explicit_kendall_limit_wins(self):
        planner = Planner(kendall_exact_limit=9)
        assert planner.kendall_exact_limit == 9
        assert planner.kendall_limit_note is None

    def test_planner_has_four_settable_values(self):
        parameters = inspect.signature(Planner.__init__).parameters
        assert list(parameters) == [
            "self",
            "kendall_exact_limit",
            "default_samples",
            "max_samples",
            "batch_size",
        ]
        # No auto modes: every default is a concrete number.
        for name, parameter in parameters.items():
            if name != "self":
                assert isinstance(parameter.default, int), name

    def test_defaults_are_the_named_constants(self):
        planner = Planner()
        assert planner.kendall_exact_limit == Planner.KENDALL_LIMIT_DEFAULT == 6
        assert planner.batch_size == Planner.BATCH_SIZE_DEFAULT == 2048

    def test_calibration_hooks_always_return_none(self):
        planner = Planner()
        session = QuerySession(_database().tree)
        planner.plan_for(Query.topk(K).distance("kendall"), session, "local")
        assert planner.calibration_table() is None
        assert planner.kendall_limit_note is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kendall_route_switches_exactly_at_the_limit(self, backend):
        limit = Planner.KENDALL_LIMIT_DEFAULT
        query = Query.topk(3).distance("kendall")
        with use_backend(backend):
            at_limit = QuerySession(small_tuple_independent(3, limit).tree)
            above = QuerySession(small_tuple_independent(3, limit + 1).tree)
            assert Planner().plan_for(query, at_limit, "local").route == "exact"
            assert Planner().plan_for(query, above, "local").route == "sample"

    @pytest.mark.parametrize(
        "query",
        [
            Query.topk(K),
            Query.topk(K).distance("footrule"),
            Query.topk(K).distance("kendall"),
            Query.set_consensus(),
            Query.membership(K),
        ],
        ids=lambda query: query.kind,
    )
    def test_explain_reports_operation_counts_only(self, query):
        session = QuerySession(_database().tree)
        plan = Planner().plan_for(query, session, "local")
        text = plan.explain()
        assert "est. cost:" in text and "ops" in text
        assert "est. time" not in text
        assert not hasattr(plan, "cost_seconds")
        assert not hasattr(plan, "cost_source")

    @pytest.mark.parametrize("batch_size", [300, Planner.BATCH_SIZE_DEFAULT])
    def test_batch_size_sets_the_ci_check_interval(self, batch_size):
        # A loose epsilon is met by the first batch, so exactly one
        # batch of the configured size is drawn.
        planner = Planner(batch_size=batch_size)
        session = QuerySession(_database().tree)
        query = Query.topk(K).distance("kendall").epsilon(100.0)
        plan = planner.plan_for(query, session, "local")
        assert plan.route == "sample"
        result = plan.execute(rng=5)
        assert result.estimate.samples == batch_size

    def test_same_route_and_answer_in_fresh_processes(self, tmp_path):
        import repro

        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "from tests.conftest import small_tuple_independent\n"
            "from repro.query import Planner, Query\n"
            "from repro.session import QuerySession\n"
            "tree = small_tuple_independent(3, count=6).tree\n"
            "plan = Planner().plan_for(\n"
            "    Query.topk(3).distance('kendall'), QuerySession(tree), 'local'\n"
            ")\n"
            "answer, objective = plan.run()\n"
            "print(plan.route, list(answer), repr(objective))\n"
        )
        tests_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([source_root, tests_root]),
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                cwd=str(tmp_path),
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("exact ")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_leftover_calibration_file_does_not_move_kendall_route(
        self, backend, tmp_path, monkeypatch
    ):
        # A same-host kernel-rate table claiming exhaustive enumeration is
        # slow, left where benchmark runs wrote one, must not send this
        # 6-tuple query to sampling.
        document = {
            "experiment": "calibration",
            "host": host_fingerprint(),
            "source": "measured",
            "calibration": [
                {
                    "backend": name,
                    "layout": "tuple-independent",
                    "kernel": "kendall_enumeration",
                    "bucket": 3,
                    "rates": [1.0],
                }
                for name in BACKENDS
            ],
        }
        path = tmp_path / DEFAULT_CALIBRATION_PATH
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(document))
        monkeypatch.chdir(tmp_path)
        tree = small_tuple_independent(3, count=6).tree
        with use_backend(backend):
            plan = Planner().plan_for(
                Query.topk(3).distance("kendall"), QuerySession(tree), "local"
            )
            assert plan.route == "exact"
            answer, objective = plan.run()
            expected_answer, expected = brute_force_mean_topk_kendall(
                QuerySession(tree), 3
            )
        assert answer == expected_answer
        assert abs(objective - expected) <= TOLERANCE
