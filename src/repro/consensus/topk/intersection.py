"""Top-k consensus under the intersection metric (Section 5.3).

The intersection metric averages the (normalised) symmetric differences of
all prefixes, so the expected distance of a candidate answer
``τ = (τ(1), ..., τ(k))`` is

``E[d_I(τ, τ_pw)] = (1/k) Σ_{i=1..k} (i + Σ_t Pr(r(t)<=i)
                      - 2 Σ_{t in τ^i} Pr(r(t)<=i)) / (2 i)``

Only the last sum depends on ``τ``; maximising

``A(τ) = Σ_{i=1..k} (1/i) Σ_{t in τ^i} Pr(r(t) <= i)
       = Σ_t Σ_{j=1..k} δ(t = τ(j)) Σ_{i=j..k} Pr(r(t) <= i) / i``

is an assignment problem between tuples and positions, solved exactly with
the Hungarian algorithm.  The whole ``n × k`` profit table is one product
of the cumulative rank matrix with the ``k × k`` suffix-harmonic grid, and
the solver sees only the union of each position's ``k`` most profitable
tuples (all tuples when ``n <= k²``): a position holding a tuple outside
its own ``k`` best can always move to one of them that no other position
uses, at no loss, so the pruned problem keeps the exact optimum
(:func:`~repro.matching.minimize_position_assignment`).

The paper also proves that ranking tuples by the ``Υ_H`` parameterized
ranking function gives an answer ``τ_H`` with ``A(τ_H) >= A(τ*) / H_k``,
i.e. an ``H_k``-approximation; both are provided and the benchmark harness
measures the empirical gap.  ``Υ_H`` is one matrix-vector product, and its
``k`` best tuples are selected with
:func:`~repro.consensus.topk.common.top_keys`, not sorted.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    rank_matrix_view,
    top_keys,
)
from repro.consensus.topk.ranking_functions import upsilon_h_weights
from repro.engine import RankMatrix
from repro.exceptions import ConsensusError
from repro.matching import minimize_position_assignment


def _answer_rows(
    cumulative: RankMatrix, answer: Sequence[Hashable]
) -> Dict[Hashable, List[float]]:
    """The cumulative rows of the answer's own tuples."""
    return {key: cumulative.row(key) for key in set(answer)}


def expected_topk_intersection_distance(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> float:
    """Expected intersection distance between ``answer`` and the random Top-k."""
    answer = tuple(answer)
    if len(answer) != k:
        raise ConsensusError(
            f"the candidate answer must have exactly k = {k} items"
        )
    cumulative = rank_matrix_view(source, k, cumulative=True)
    totals = cumulative.column_totals()
    rows = _answer_rows(cumulative, answer)
    total = 0.0
    for i in range(1, k + 1):
        prefix = set(answer[:i])
        value = i + totals[i - 1]
        value -= 2.0 * sum(rows[key][i - 1] for key in prefix)
        total += value / (2.0 * i)
    return total / k


def intersection_objective(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> float:
    """The objective ``A(τ)`` maximised by the mean intersection answer."""
    rows = _answer_rows(rank_matrix_view(source, k, cumulative=True), answer)
    total = 0.0
    for i in range(1, k + 1):
        prefix = answer[:i]
        total += sum(rows[key][i - 1] for key in prefix) / i
    return total


def mean_topk_intersection(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The exact mean Top-k answer under the intersection metric.

    Solved as an assignment problem: placing tuple ``t`` at position ``j``
    earns profit ``Σ_{i=j..k} Pr(r(t) <= i) / i``.  The negated profits
    ``cost[t][j - 1]`` are one product with the grid ``-1/i`` (``i >= j``,
    else 0).  Returns the optimal answer and its expected intersection
    distance.
    """
    session = as_session(source)
    cumulative = rank_matrix_view(session, k, cumulative=True)
    grid = [
        [-1.0 / i if i >= j else 0.0 for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    cost = cumulative.backend.matrix_product(cumulative.native, grid)
    rows = minimize_position_assignment(cost, k, cumulative.backend)
    keys = cumulative.keys()
    answer = tuple(keys[row] for row in rows)
    return answer, expected_topk_intersection_distance(session, answer, k)


def approximate_topk_intersection(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The ``Υ_H``-based ``H_k``-approximation of the mean intersection answer.

    Returns the ``k`` tuples with the largest ``Υ_H`` values, ordered by
    decreasing value, and the expected intersection distance of that answer.
    """
    session = as_session(source)
    matrix = rank_matrix_view(session, k)
    values = matrix.weighted_vector(upsilon_h_weights(k))
    answer = tuple(top_keys(matrix.keys(), values, k))
    return answer, expected_topk_intersection_distance(session, answer, k)
