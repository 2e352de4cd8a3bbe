"""Prior Top-k ranking semantics for probabilistic databases.

These are the ranking functions surveyed in the paper's introduction and
related-work sections.  They are implemented over and/xor trees so that every
semantics can be evaluated on exactly the same databases as the consensus
answers:

* **U-Top-k** (Soliman et al.): the length-``k`` list most likely to be the
  *exact* Top-k answer of the random world.
* **U-Rank-k / URank** (Soliman et al.): position ``i`` is filled by the
  tuple maximising ``Pr(r(t) = i)`` (independently per position; the same
  tuple may win several positions, in which case later positions fall back to
  the next best tuple so that a valid list is produced).
* **PT-k** (Hua et al.): all tuples with ``Pr(r(t) <= k)`` above a threshold.
* **Global-Top-k** (Zhang & Chomicki): the ``k`` tuples with the largest
  ``Pr(r(t) <= k)`` -- identical to the paper's mean answer under the
  symmetric difference metric (Theorem 3).
* **Expected rank** (Cormode et al.): the ``k`` tuples with the smallest
  expected rank, where an absent tuple is charged rank ``|pw| + 1``.
* **Expected score**: the ``k`` tuples with the largest expected score
  ``E[score * presence]`` -- the naive baseline.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.andxor.enumeration import enumerate_worlds
from repro.andxor.sampling import sample_worlds
from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    membership_top_keys,
    rank_matrix_view,
    top_keys,
    validate_k,
)
from repro.exceptions import ConsensusError, EnumerationLimitError


def u_topk(
    source: TreeOrStatistics,
    k: int,
    method: str = "enumerate",
    samples: int = 5000,
    rng: random.Random | None = None,
    enumeration_limit: int = 1 << 16,
) -> TopKAnswer:
    """The U-Top-k answer: the most probable exact Top-k list.

    Exact evaluation enumerates the possible worlds (exponential; small
    databases only); ``method="sample"`` estimates the mode by Monte-Carlo
    sampling.
    """
    session = as_session(source)
    validate_k(session, k)
    tree = session.tree
    if method == "enumerate":
        distribution = enumerate_worlds(tree, limit=enumeration_limit)
        answers = distribution.answer_distribution(lambda world: world.top_k(k))
    elif method == "sample":
        rng = rng or random.Random(0)
        worlds = sample_worlds(tree, samples, rng)
        answers = {}
        for world in worlds:
            answer = world.top_k(k)
            answers[answer] = answers.get(answer, 0.0) + 1.0 / samples
    else:
        raise ConsensusError(f"unknown evaluation method {method!r}")
    if not answers:
        raise ConsensusError("the database has no possible worlds")
    return max(answers, key=lambda answer: (answers[answer], repr(answer)))


def u_rank_topk(source: TreeOrStatistics, k: int) -> TopKAnswer:
    """The U-Rank (U-kRanks) answer: per-position most probable tuples.

    Position ``i`` is filled with the tuple maximising ``Pr(r(t) = i)`` among
    the tuples not already used at earlier positions.
    """
    session = as_session(source)
    matrix = rank_matrix_view(session, k)
    position_probabilities: Dict[Hashable, List[float]] = matrix.to_dict()
    answer: List[Hashable] = []
    used = set()
    for position in range(1, k + 1):
        candidates = [key for key in session.keys() if key not in used]
        best = max(
            candidates,
            key=lambda key: (
                position_probabilities[key][position - 1],
                repr(key),
            ),
        )
        answer.append(best)
        used.add(best)
    return tuple(answer)


def probabilistic_threshold_topk(
    source: TreeOrStatistics, k: int, threshold: float
) -> TopKAnswer:
    """The PT-k answer: every tuple with ``Pr(r(t) <= k) >= threshold``.

    Unlike the other semantics the answer size is governed by the threshold,
    not by ``k``; tuples are returned in decreasing order of
    ``Pr(r(t) <= k)``.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConsensusError(
            f"the PT-k threshold must lie in (0, 1], got {threshold}"
        )
    session = as_session(source)
    membership = session.top_k_membership(k)
    selected = [
        key for key, probability in membership.items()
        if probability >= threshold
    ]
    return tuple(
        top_keys(
            selected, [membership[key] for key in selected], len(selected)
        )
    )


def global_topk(source: TreeOrStatistics, k: int) -> TopKAnswer:
    """The Global-Top-k answer: ``k`` tuples with largest ``Pr(r(t) <= k)``."""
    return tuple(membership_top_keys(source, k, k))


def expected_rank_topk(source: TreeOrStatistics, k: int) -> TopKAnswer:
    """The expected-rank answer: ``k`` tuples with the smallest expected rank."""
    session = as_session(source)
    validate_k(session, k)
    expected = session.expected_rank_table()
    keys = list(expected)
    return tuple(top_keys(keys, [-expected[key] for key in keys], k))


def expected_score_topk(source: TreeOrStatistics, k: int) -> TopKAnswer:
    """The expected-score answer: ``k`` tuples with the largest ``E[score]``.

    The expectation charges absent tuples a score of zero, i.e. it is
    ``Σ_a score(a) * Pr(alternative a present)``.
    """
    session = as_session(source)
    validate_k(session, k)
    tree = session.tree
    expected: Dict[Hashable, float] = {}
    for key in session.keys():
        expected[key] = sum(
            session.score_of(alternative)
            * tree.alternative_probability(alternative)
            for alternative in tree.alternatives_of(key)
        )
    keys = list(expected)
    return tuple(top_keys(keys, [expected[key] for key in keys], k))
