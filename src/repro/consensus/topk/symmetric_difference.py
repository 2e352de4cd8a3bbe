"""Top-k consensus under the symmetric difference metric (Section 5.2).

* **Theorem 3 (mean answer)** -- the expected distance decomposes as
  ``E[d_Δ(τ, τ_pw)] = (k + Σ_t Pr(r(t)<=k) - 2 Σ_{t in τ} Pr(r(t)<=k)) / 2k``,
  so the mean answer is simply the ``k`` tuples with the largest
  ``Pr(r(t) <= k)``.  This coincides with the Global-Top-k answer and with a
  probabilistic-threshold (PT-k) answer whose threshold is tuned to return
  exactly ``k`` tuples.  The answer is *selected*, not sorted: the
  membership column of the rank matrix goes through
  :func:`~repro.consensus.topk.common.top_keys` (a linear-time partition
  down to the boundary candidates, then an ordering of only those), and the
  expected distance reads ``Σ_t Pr(r(t)<=k)`` as an array total plus the
  ``k`` answer rows.
* **Theorem 4 (median answer)** -- the median answer is the Top-k answer of a
  possible world maximising ``Σ_{t in τ} Pr(r(t) <= k)``.  For every score
  threshold ``a`` the candidate answers are exactly the size-``k`` possible
  worlds of the restricted tree ``T^a`` (all leaves with score at least
  ``a``); a knapsack-style dynamic program over the tree finds the best one,
  and the best over all thresholds is the median answer.

For tuple-independent databases (tuple-level uncertainty only) the median
answer additionally admits an ``O(n log k)`` sweep: fixing the lowest-scored
member of the answer, the remaining ``k-1`` members must be chosen among the
higher-scored tuples, certain tuples (probability one) are forced in, and the
rest greedily maximise ``Pr(r(t) <= k)``.  Both routes are implemented and
cross-checked; the generic DP handles every and/xor tree.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.andxor.nodes import AndNode, Leaf, Node, XorNode
from repro.andxor.tree import AndXorTree
from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    membership_top_keys,
    order_by_score,
    rank_matrix_view,
)
from repro.core.tuples import TupleAlternative
from repro.exceptions import ConsensusError, InfeasibleAnswerError, ModelError

_NEG_INF = float("-inf")


# ----------------------------------------------------------------------
# Expected distance and the mean answer (Theorem 3)
# ----------------------------------------------------------------------
def expected_topk_symmetric_difference(
    source: TreeOrStatistics,
    answer: Sequence[Hashable],
    k: int,
    normalized: bool = True,
) -> float:
    """Expected symmetric difference between ``answer`` and the random Top-k.

    Uses the closed form of Theorem 3's proof; the normalised version divides
    by ``2k``.  ``Σ_t Pr(r(t) <= k)`` is the sum of the rank matrix's
    column totals; only the answer's own rows are read per key.
    """
    matrix = rank_matrix_view(source, k)
    chosen = 0.0
    for key in set(answer):
        if key not in matrix:
            raise ConsensusError(f"answer mentions unknown tuple {key!r}")
        chosen += sum(matrix.row(key))
    total = k + sum(matrix.column_totals()) - 2.0 * chosen
    if normalized:
        return total / (2.0 * k)
    return total


def mean_topk_symmetric_difference(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The mean Top-k answer under ``d_Δ`` (Theorem 3).

    Returns the ``k`` tuples with the largest ``Pr(r(t) <= k)`` (presented in
    decreasing score order; the metric ignores order) and the expected
    normalised distance.
    """
    session = as_session(source)
    answer = order_by_score(session, membership_top_keys(session, k, k))
    return answer, expected_topk_symmetric_difference(session, answer, k)


# ----------------------------------------------------------------------
# Median answer (Theorem 4): dynamic program over restricted trees
# ----------------------------------------------------------------------
def _merge_size_tables(
    left: List[Tuple[float, Tuple[TupleAlternative, ...]]],
    right: List[Tuple[float, Tuple[TupleAlternative, ...]]],
    k: int,
) -> List[Tuple[float, Tuple[TupleAlternative, ...]]]:
    """Knapsack combination of two children's size-indexed best tables."""
    merged: List[Tuple[float, Tuple[TupleAlternative, ...]]] = [
        (_NEG_INF, ()) for _ in range(k + 1)
    ]
    for size_left, (value_left, world_left) in enumerate(left):
        if value_left == _NEG_INF:
            continue
        for size_right, (value_right, world_right) in enumerate(right):
            if value_right == _NEG_INF:
                continue
            size = size_left + size_right
            if size > k:
                break
            value = value_left + value_right
            if value > merged[size][0]:
                merged[size] = (value, world_left + world_right)
    return merged


def _best_worlds_by_size(
    node: Node, weight: Dict[Hashable, float], k: int
) -> List[Tuple[float, Tuple[TupleAlternative, ...]]]:
    """For each size ``0..k``: the best-weight possible world of that size.

    Entries are ``(total weight, witness world)`` with ``-inf`` marking
    infeasible sizes.  Weights are per tuple key (``Pr(r(t) <= k)``).
    """
    empty_only: List[Tuple[float, Tuple[TupleAlternative, ...]]] = [
        (_NEG_INF, ()) for _ in range(k + 1)
    ]
    if isinstance(node, Leaf):
        table = list(empty_only)
        if k >= 1:
            table[1] = (weight[node.alternative.key], (node.alternative,))
        return table
    if isinstance(node, AndNode):
        table = list(empty_only)
        table[0] = (0.0, ())
        for child in node.children():
            table = _merge_size_tables(
                table, _best_worlds_by_size(child, weight, k), k
            )
        return table
    if isinstance(node, XorNode):
        table = list(empty_only)
        if node.none_probability > 0.0:
            table[0] = (0.0, ())
        for child, probability in node.edges():
            if probability <= 0.0:
                continue
            child_table = _best_worlds_by_size(child, weight, k)
            for size in range(k + 1):
                if child_table[size][0] > table[size][0]:
                    table[size] = child_table[size]
        return table
    raise ModelError(f"unsupported node type {type(node).__name__}")


def _median_topk_tuple_independent(
    rows: Sequence[Tuple[float, float, Hashable]],
    membership: Dict[Hashable, float],
    k: int,
) -> Optional[List[int]]:
    """O(n log k) median Top-k answer for tuple-independent databases.

    ``rows`` lists ``(score, presence probability, key)`` sorted by
    decreasing score.  Fixing the answer's lowest-scored member ``t_j``, the
    other ``k - 1`` members come from the higher-scored tuples: tuples with
    probability one are forced in (they cannot be absent from any world), the
    rest are chosen greedily by ``Pr(r(t) <= k)``.  Returns the members' row
    indices, or None when no possible world has ``k`` tuples.
    """
    import heapq

    best_value = _NEG_INF
    best_members: Optional[List[int]] = None
    forced: List[int] = []
    forced_value = 0.0
    # Min-heap over (membership value, row) of the currently selected
    # optional members; it always holds exactly min(slots, available) items.
    heap: List[Tuple[float, int]] = []
    heap_value = 0.0
    for j, (_, probability, key) in enumerate(rows):
        slots = k - 1 - len(forced)
        if slots < 0:
            break  # more certain higher-scored tuples than free slots
        # Shrink the optional selection if forced members ate its slots.
        while len(heap) > slots:
            value, _ = heapq.heappop(heap)
            heap_value -= value
        if probability > 0.0 and j >= k - 1 and len(heap) == slots:
            candidate_value = membership[key] + forced_value + heap_value
            if candidate_value > best_value + 1e-15:
                best_value = candidate_value
                best_members = [j] + forced + [row for _, row in heap]
        # Add the current tuple to the pool available to later thresholds.
        if probability >= 1.0 - 1e-12:
            forced.append(j)
            forced_value += membership[key]
        elif probability > 0.0:
            slots = k - 1 - len(forced)
            if len(heap) < slots:
                heapq.heappush(heap, (membership[key], j))
                heap_value += membership[key]
            elif heap and membership[key] > heap[0][0]:
                removed, _ = heapq.heapreplace(heap, (membership[key], j))
                heap_value += membership[key] - removed
    return best_members


def median_topk_symmetric_difference(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The median Top-k answer under ``d_Δ`` (Theorem 4).

    Iterates over every candidate score threshold ``a``; for each, restricts
    the tree to leaves scoring at least ``a`` and finds the possible world of
    size exactly ``k`` maximising ``Σ Pr(r(t) <= k)`` by dynamic programming.
    The best candidate over all thresholds is the Top-k answer of some
    possible world, and no possible world has a better Top-k answer.

    Tuple-independent databases are detected automatically and solved with
    the ``O(n log k)`` sweep described in the module docstring, straight
    over the session's score-sorted columns
    (:meth:`~repro.session.QuerySession.independent_tuple_rows`).
    """
    session = as_session(source)
    membership = session.top_k_membership(k)
    rows = session.independent_tuple_rows()
    if rows is not None:
        members = _median_topk_tuple_independent(rows, membership, k)
        if members is None:
            raise InfeasibleAnswerError(
                f"no possible world contains {k} tuples; the median Top-{k} "
                "answer does not exist"
            )
        # Rows run in decreasing score order, so row order is score order.
        ordered = tuple(rows[j][2] for j in sorted(members))
        return ordered, expected_topk_symmetric_difference(
            session, ordered, k
        )
    tree = session.tree  # the general route needs the (merged) tree
    thresholds = sorted(
        {
            session.score_of(alternative)
            for alternative in tree.alternatives()
        },
        reverse=True,
    )
    best_value = _NEG_INF
    best_world: Optional[Tuple[TupleAlternative, ...]] = None
    for threshold in thresholds:
        restricted = tree.restrict(
            lambda leaf: session.score_of(leaf.alternative) >= threshold
        )
        if len(restricted.leaves) < k:
            continue
        table = _best_worlds_by_size(restricted.root, membership, k)
        value, world = table[k]
        if value > best_value:
            best_value = value
            best_world = world
    if best_world is None:
        raise InfeasibleAnswerError(
            f"no possible world contains {k} tuples; the median Top-{k} "
            "answer does not exist"
        )
    ordered = tuple(
        alternative.key
        for alternative in sorted(
            best_world,
            key=lambda alternative: -session.score_of(alternative),
        )
    )
    return ordered, expected_topk_symmetric_difference(session, ordered, k)
