"""Consensus Top-k answers (Section 5 of the paper).

Sub-modules
-----------
``common``
    Shared plumbing: coercing trees into cached rank statistics, and
    ``top_keys``, the one selection rule (largest value first, ties by
    ``repr``) every Top-k answer is picked with.
``symmetric_difference``
    Theorem 3 (mean answer = the ``k`` tuples with largest ``Pr(r(t) <= k)``,
    i.e. a probabilistic-threshold / Global-Top-k answer) and Theorem 4 (the
    median answer via dynamic programming over the and/xor tree).
``intersection``
    The exact mean answer under the intersection metric via an assignment
    problem, and the ``H_k``-approximation via the ``Υ_H`` ranking function.
``footrule``
    The exact mean answer under the Spearman footrule distance ``F^(k+1)``
    via the assignment formulation derived in Figure 2.
``kendall``
    Approximations for the Kendall tau distance: the footrule-based
    2-approximation and pivot aggregation on ``Pr(r(t_i) < r(t_j))``.
``ranking_functions``
    The parameterized ranking function family ``Υ_ω`` (including ``Υ_H``).
"""

from repro.consensus.topk.symmetric_difference import (
    expected_topk_symmetric_difference,
    mean_topk_symmetric_difference,
    median_topk_symmetric_difference,
)
from repro.consensus.topk.intersection import (
    approximate_topk_intersection,
    expected_topk_intersection_distance,
    mean_topk_intersection,
)
from repro.consensus.topk.footrule import (
    expected_topk_footrule_distance,
    mean_topk_footrule,
)
from repro.consensus.topk.kendall import (
    approximate_topk_kendall,
    expected_topk_kendall_distance,
    footrule_topk_for_kendall,
)
from repro.consensus.topk.ranking_functions import (
    harmonic_number,
    parameterized_ranking_function,
    upsilon_h,
)

__all__ = [
    "mean_topk_symmetric_difference",
    "median_topk_symmetric_difference",
    "expected_topk_symmetric_difference",
    "mean_topk_intersection",
    "approximate_topk_intersection",
    "expected_topk_intersection_distance",
    "mean_topk_footrule",
    "expected_topk_footrule_distance",
    "approximate_topk_kendall",
    "footrule_topk_for_kendall",
    "expected_topk_kendall_distance",
    "parameterized_ranking_function",
    "upsilon_h",
    "harmonic_number",
]
