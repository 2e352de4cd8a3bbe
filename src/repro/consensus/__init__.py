"""Consensus answers: the paper's core algorithms (Sections 4-6).

These are the algorithm implementations the query planner
(:mod:`repro.query.planner`) routes to; call them through
``repro.connect(...)`` and declarative :class:`~repro.query.ConsensusQuery`
objects, which pick exact / approximate / Monte-Carlo execution from the
paper's hardness map.  The functions here stay importable directly (the
sessions and the planner use them).

Sub-modules
-----------
``set_consensus``
    Mean and median consensus *worlds* under the symmetric difference
    distance (Theorem 2, Corollary 1) plus an exact tree DP for the median.
``jaccard``
    Mean and median worlds under the Jaccard distance (Lemmas 1-2).
``hardness``
    The MAX-2-SAT reduction showing NP-hardness of median worlds under
    arbitrary correlations (Section 4.1).
``topk``
    Consensus Top-k answers under the symmetric difference, intersection,
    Spearman footrule and Kendall tau metrics (Section 5).
``aggregates``
    Consensus group-by count answers (Section 6.1).
``clustering``
    Consensus clustering (Section 6.2).
"""

from repro.consensus.set_consensus import (
    expected_symmetric_difference_to_world,
    mean_world_symmetric_difference,
    median_world_symmetric_difference,
)
from repro.consensus.jaccard import (
    expected_jaccard_distance_to_world,
    mean_world_jaccard_tuple_independent,
    median_world_jaccard_bid,
)
from repro.consensus.aggregates import GroupByCountConsensus
from repro.consensus.clustering import (
    consensus_clustering,
    expected_clustering_distance,
    co_clustering_probabilities,
)
from repro.consensus.topk import (
    mean_topk_symmetric_difference,
    median_topk_symmetric_difference,
    mean_topk_intersection,
    approximate_topk_intersection,
    mean_topk_footrule,
    approximate_topk_kendall,
)
from repro.consensus.evaluation import (
    AnswerEvaluation,
    compare_topk_answers,
    evaluate_topk_answer,
)

__all__ = [
    "mean_world_symmetric_difference",
    "median_world_symmetric_difference",
    "expected_symmetric_difference_to_world",
    "mean_world_jaccard_tuple_independent",
    "median_world_jaccard_bid",
    "expected_jaccard_distance_to_world",
    "GroupByCountConsensus",
    "consensus_clustering",
    "expected_clustering_distance",
    "co_clustering_probabilities",
    "mean_topk_symmetric_difference",
    "median_topk_symmetric_difference",
    "mean_topk_intersection",
    "approximate_topk_intersection",
    "mean_topk_footrule",
    "approximate_topk_kendall",
    "AnswerEvaluation",
    "evaluate_topk_answer",
    "compare_topk_answers",
]
