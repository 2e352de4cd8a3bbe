"""Public-API surface snapshot.

``repro.__all__`` is the compatibility surface downstream code imports
from; this suite pins it exactly (additions require updating the snapshot
here, removals are API breaks).  The pre-declarative module-level
consensus functions are gone from the top level: queries go through
``repro.connect(...).execute(Query...)``.
"""

from __future__ import annotations

import random
import warnings

import pytest

import repro
from repro.query import Query, connect
from tests.conftest import small_bid, small_tuple_independent

#: The exact public surface.  Keep sorted-by-section in repro/__init__ but
#: compared as a set here so reordering is not an API event.
EXPECTED_ALL = {
    "__version__",
    # core model
    "TupleAlternative",
    "PossibleWorld",
    "WorldDistribution",
    "AndXorTree",
    "Leaf",
    "XorNode",
    "AndNode",
    "tuple_independent_tree",
    "bid_tree",
    "x_tuple_tree",
    "from_explicit_worlds",
    "coexistence_group_tree",
    "enumerate_worlds",
    # statistics / engine
    "RankStatistics",
    "RankMatrix",
    "PairwisePreferenceMatrix",
    "MonteCarloSampler",
    "WorldBatch",
    "Estimate",
    "QuerySession",
    "CacheInfo",
    "as_session",
    "get_backend",
    "set_backend",
    "use_backend",
    # declarative query API
    "Query",
    "ConsensusQuery",
    "QueryAnswer",
    "Connection",
    "connect",
    "Planner",
    "ExecutionPlan",
    # models / deployments
    "ProbabilisticRelation",
    "TupleIndependentDatabase",
    "BlockIndependentDatabase",
    "XTupleDatabase",
    "ShardedDatabase",
    "ShardedQuerySession",
    "ServingExecutor",
    "QueryRequest",
    # consensus helpers
    "expected_symmetric_difference_to_world",
    "expected_jaccard_distance_to_world",
    "GroupByCountConsensus",
    "consensus_clustering",
}

#: The removed top-level consensus functions (their implementations stay in
#: :mod:`repro.consensus`).
REMOVED_SHIMS = (
    "mean_topk_symmetric_difference",
    "median_topk_symmetric_difference",
    "mean_topk_footrule",
    "mean_topk_intersection",
    "approximate_topk_intersection",
    "approximate_topk_kendall",
    "mean_world_symmetric_difference",
    "median_world_symmetric_difference",
    "mean_world_jaccard_tuple_independent",
    "median_world_jaccard_bid",
)


class TestApiSurface:
    def test_all_matches_snapshot(self):
        assert set(repro.__all__) == EXPECTED_ALL

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    @pytest.mark.parametrize("name", REMOVED_SHIMS)
    def test_removed_shims_are_gone(self, name):
        assert not hasattr(repro, name), name

    def test_consensus_module_functions_are_not_shimmed(self):
        # The algorithm implementations stay warning-free: sessions and
        # the planner call them directly.
        from repro.consensus.topk import footrule

        database = small_tuple_independent(1, count=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            footrule.mean_topk_footrule(database.tree, 2)


#: The declarative query answering each removed top-level function.
REPLACEMENT_QUERIES = {
    "mean_topk_symmetric_difference": Query.topk(3),
    "median_topk_symmetric_difference": Query.topk(3).median(),
    "mean_topk_footrule": Query.topk(3).distance("footrule"),
    "mean_topk_intersection": Query.topk(3).distance("intersection"),
    "approximate_topk_intersection": (
        Query.topk(3).distance("intersection").approximate()
    ),
    "approximate_topk_kendall": Query.topk(3).distance("kendall").approximate(),
    "mean_world_symmetric_difference": Query.set_consensus(),
    "median_world_symmetric_difference": Query.set_consensus("median"),
    "mean_world_jaccard_tuple_independent": Query.jaccard(),
    "median_world_jaccard_bid": Query.jaccard("median"),
}


class TestQueriesReplaceShims:
    @pytest.mark.parametrize("name", REMOVED_SHIMS)
    def test_query_matches_consensus_implementation(self, name):
        # Each removed name still has its implementation in
        # repro.consensus, and the declarative query answering it returns
        # exactly what that implementation returns, without warnings.
        import repro.consensus

        if name.endswith("_bid"):
            tree = small_bid(5, blocks=3).tree
        else:
            tree = small_tuple_independent(5, count=6).tree
        direct = getattr(repro.consensus, name)
        args = (tree,) if "world" in name else (tree, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            answer = connect(tree).execute(REPLACEMENT_QUERIES[name])
            expected = direct(*args)
        assert answer.value == expected, name

    def test_kendall_query_forwards_pool_and_rng(self):
        from repro.consensus.topk.kendall import approximate_topk_kendall

        tree = small_tuple_independent(6, count=6).tree
        query = (
            Query.topk(2)
            .distance("kendall")
            .approximate()
            .with_params(candidate_pool_size=4)
        )
        answer = connect(tree).execute(query, rng=random.Random(9))
        direct = approximate_topk_kendall(
            tree, 2, candidate_pool_size=4, rng=random.Random(9)
        )
        assert answer.value == direct
