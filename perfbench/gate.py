"""Correctness checks for the benchmark's answers.

Two references:

* :func:`check_against_reference` -- a cold, unsharded, uncached
  ``repro.connect`` over the same table answers every query again; values
  must agree to :data:`TOLERANCE`.  Sharded and unsharded runs may break
  ties differently, so answers may differ only where nothing separates
  them: a consensus answer must then reach the reference's expected
  distance exactly (evaluated in closed form on the reference table), and
  a ranked answer may swap only members that tie on their ranking
  criterion (Top-k membership probability, or expected rank for the
  expected-rank semantics).
* :func:`check_against_oracle` -- possible-world enumeration with
  :mod:`repro.core.consensus_bruteforce`, for the tiny instances of the
  self-test (``run.py --oracle``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import repro
from repro.core.consensus_bruteforce import (
    best_candidate,
    brute_force_mean_topk,
    expected_distance,
)
from repro.consensus.topk.footrule import expected_topk_footrule_distance
from repro.consensus.topk.intersection import expected_topk_intersection_distance
from repro.consensus.topk.symmetric_difference import (
    expected_topk_symmetric_difference,
)
from repro.core.topk_distances import (
    topk_footrule_distance,
    topk_intersection_distance,
    topk_kendall_distance,
    topk_symmetric_difference,
)
from repro.query.compat import query_for_kind

#: Absolute and relative tolerance of every numeric comparison.
TOLERANCE = 1e-9

#: Kinds whose value is ``(answer, expected distance)``.
PAIR_KINDS = frozenset(
    {
        "mean_topk_symmetric_difference",
        "median_topk_symmetric_difference",
        "mean_topk_footrule",
        "mean_topk_intersection",
        "approximate_topk_intersection",
    }
)

#: Kinds whose value is a ranked answer alone.
RANKED_KINDS = frozenset(
    {"approximate_topk_kendall", "global_topk", "expected_rank_topk"}
)

#: Kinds whose value maps each key to a number.
TABLE_KINDS = frozenset({"top_k_membership", "expected_rank_table"})


def close(left: float, right: float) -> bool:
    return math.isclose(
        float(left), float(right), rel_tol=TOLERANCE, abs_tol=TOLERANCE
    )


def _compare_ranked(
    got: Sequence[Hashable],
    expected: Sequence[Hashable],
    criterion: Callable[[], Dict[Hashable, float]],
) -> Optional[str]:
    got, expected = tuple(got), tuple(expected)
    if got == expected:
        return None
    if len(got) != len(expected) or len(set(got)) != len(got):
        return f"answer {got} != {expected}"
    values = criterion()
    for mine, theirs in zip(got, expected):
        if mine == theirs:
            continue
        if mine not in values or theirs not in values:
            return f"answer {got} != {expected}"
        if not close(values[mine], values[theirs]):
            return (
                f"answer {got} != {expected}: {mine!r} ({values[mine]!r}) "
                f"and {theirs!r} ({values[theirs]!r}) do not tie"
            )
    return None


#: Closed-form expected distance of any answer, per consensus kind.
EVALUATORS: Dict[str, Callable[..., float]] = {
    "mean_topk_symmetric_difference": expected_topk_symmetric_difference,
    "median_topk_symmetric_difference": expected_topk_symmetric_difference,
    "mean_topk_footrule": expected_topk_footrule_distance,
    "mean_topk_intersection": expected_topk_intersection_distance,
    "approximate_topk_intersection": expected_topk_intersection_distance,
}


def compare_values(
    kind: str,
    got: Any,
    expected: Any,
    criterion: Callable[[], Dict[Hashable, float]],
    evaluate: Optional[Callable[[Sequence[Hashable]], float]] = None,
) -> Optional[str]:
    """None when ``got`` matches ``expected``, else a description.

    ``criterion`` gives the ranking criterion ranked answers tie on;
    ``evaluate`` gives the exact expected distance of a consensus answer.
    """
    if kind in PAIR_KINDS:
        (answer, value), (ref_answer, ref_value) = got, expected
        if not close(value, ref_value):
            return f"expected distance {value!r} != {ref_value!r}"
        if tuple(answer) == tuple(ref_answer) or evaluate is None:
            return _compare_ranked(answer, ref_answer, criterion)
        reached = evaluate(answer)
        if not close(reached, ref_value):
            return (
                f"answer {tuple(answer)} reaches {reached!r}, the reference "
                f"{tuple(ref_answer)} reaches {ref_value!r}"
            )
        return None
    if kind in RANKED_KINDS:
        return _compare_ranked(got, expected, criterion)
    if kind in TABLE_KINDS:
        if set(got) != set(expected):
            return "table keys differ"
        for key, value in expected.items():
            if not close(got[key], value):
                return f"{key!r}: {got[key]!r} != {value!r}"
        return None
    return f"no comparison rule for kind {kind!r}"


class Reference:
    """Cold answers from an unsharded, uncached connection per table."""

    def __init__(self) -> None:
        self._connections: Dict[int, Tuple[Any, Any]] = {}
        self._answers: Dict[Tuple[int, Any], Any] = {}

    def connection(self, database: Any) -> Any:
        entry = self._connections.get(id(database))
        if entry is None:
            entry = (database, repro.connect(database, result_cache=False))
            self._connections[id(database)] = entry
        return entry[1]

    def prefetch(self, database: Any, queries: Sequence[Any]) -> None:
        """Answer a table's queries in one fused batch (the rank matrix is
        built once, at the largest k, instead of once per k)."""
        missing = [q for q in queries if (id(database), q) not in self._answers]
        answers = self.connection(database).execute_many(missing)
        for query, answer in zip(missing, answers):
            self._answers[(id(database), query)] = answer.value

    def value(self, database: Any, query: Any) -> Any:
        key = (id(database), query)
        if key not in self._answers:
            self._answers[key] = self.connection(database).execute(query).value
        return self._answers[key]

    def criterion(self, database: Any, query: Any) -> Callable[[], Dict]:
        if query.kind == "expected_rank_topk":
            tie_query = query_for_kind("expected_rank_table", query.k)
        else:
            tie_query = query_for_kind("top_k_membership", query.k)
        return lambda: self.value(database, tie_query)

    def evaluator(self, database: Any, query: Any) -> Optional[Callable]:
        function = EVALUATORS.get(query.kind)
        if function is None:
            return None
        session = self.connection(database).session
        return lambda answer: function(session, answer, query.k)


def check_against_reference(
    answers: Sequence[Tuple[Any, Any, Any]],
) -> Tuple[int, List[str]]:
    """Compare every ``(table, query, value)``; returns (checked, errors)."""
    reference = Reference()
    tables: Dict[int, Tuple[Any, Dict[Any, None]]] = {}
    for database, query, _ in answers:
        tables.setdefault(id(database), (database, {}))[1][query] = None
    for database, queries in tables.values():
        reference.prefetch(database, list(queries))
    errors = []
    for database, query, value in answers:
        problem = compare_values(
            query.kind,
            value,
            reference.value(database, query),
            reference.criterion(database, query),
            reference.evaluator(database, query),
        )
        if problem is not None:
            errors.append(f"{query.kind} k={query.k}: {problem}")
    return len(answers), errors


# ----------------------------------------------------------------------
# Possible-world oracle
# ----------------------------------------------------------------------
_DISTANCES = {
    "mean_topk_symmetric_difference": ("symmetric_difference", topk_symmetric_difference),
    "median_topk_symmetric_difference": ("symmetric_difference", topk_symmetric_difference),
    "mean_topk_footrule": ("footrule", topk_footrule_distance),
    "mean_topk_intersection": ("intersection", topk_intersection_distance),
    "approximate_topk_intersection": ("intersection", topk_intersection_distance),
    "approximate_topk_kendall": ("kendall", topk_kendall_distance),
}


def _expected(distribution: Any, answer: Sequence, k: int, kind: str) -> float:
    metric, distance = _DISTANCES[kind]
    if metric == "kendall":
        measure = lambda a, b: distance(a, b)  # noqa: E731
    else:
        measure = lambda a, b: distance(a, b, k=k)  # noqa: E731
    return expected_distance(
        tuple(answer), distribution, lambda world: world.top_k(k), measure
    )


def _membership(distribution: Any, keys: Sequence, k: int) -> Dict:
    return {
        key: distribution.expectation(
            lambda world, key=key: 1.0 if key in world.top_k(k) else 0.0
        )
        for key in keys
    }


def _expected_ranks(distribution: Any, keys: Sequence) -> Dict:
    """E[rank], an absent tuple ranking just below a world's last one."""

    def rank(world: Any, key: Hashable) -> float:
        position = world.rank_of(key)
        return position if math.isfinite(position) else len(world) + 1.0

    return {
        key: distribution.expectation(lambda world, key=key: rank(world, key))
        for key in keys
    }


def _best_by(
    answer: Sequence, scores: Dict, k: int, larger: bool
) -> Optional[str]:
    """``answer`` holds k distinct keys none of which is beaten by a key
    left out (ties allowed)."""
    chosen = tuple(answer)
    if len(chosen) != min(k, len(scores)) or len(set(chosen)) != len(chosen):
        return f"answer {chosen} is not {k} distinct keys"
    left_out = [key for key in scores if key not in chosen]
    if not left_out:
        return None
    sign = 1.0 if larger else -1.0
    worst_in = min(sign * scores[key] for key in chosen)
    best_out = max(sign * scores[key] for key in left_out)
    if worst_in < best_out - TOLERANCE:
        return f"answer {chosen} leaves out a better key ({scores})"
    return None


def check_against_oracle(database: Any, query: Any, value: Any) -> Optional[str]:
    """None when ``value`` is what possible-world enumeration gives."""
    distribution = database.possible_worlds()
    keys = list(database.keys())
    kind, k = query.kind, query.k
    if kind in ("mean_topk_symmetric_difference", "mean_topk_footrule",
                "mean_topk_intersection"):
        answer, distance = value
        metric = _DISTANCES[kind][0]
        _, best = brute_force_mean_topk(
            distribution, k, distance=metric, candidate_items=keys
        )
        if not close(distance, best):
            return f"distance {distance!r} != optimum {best!r}"
        if not close(_expected(distribution, answer, k, kind), distance):
            return f"answer {answer} does not achieve {distance!r}"
        return None
    if kind == "median_topk_symmetric_difference":
        # The median ranges over Top-k answers of possible worlds holding
        # at least k tuples (Theorem 4's assumption |pw| >= k).
        answer, distance = value
        candidates = sorted(
            {
                world.top_k(k)
                for world, probability in distribution
                if probability > 0.0 and len(world) >= k
            },
            key=repr,
        )
        _, best = best_candidate(
            candidates,
            distribution,
            lambda world: world.top_k(k),
            lambda a, b: topk_symmetric_difference(a, b, k=k),
        )
        if frozenset(answer) not in {frozenset(c) for c in candidates}:
            return f"median answer {answer} is no world's Top-k"
        if not close(distance, best):
            return f"distance {distance!r} != optimum {best!r}"
        if not close(_expected(distribution, answer, k, kind), distance):
            return f"answer {answer} does not achieve {distance!r}"
        return None
    if kind in ("approximate_topk_intersection", "approximate_topk_kendall"):
        if kind == "approximate_topk_kendall":
            answer, distance = value, None
        else:
            answer, distance = value
        actual = _expected(distribution, answer, k, kind)
        if distance is not None and not close(actual, distance):
            return f"answer {answer} has distance {actual!r}, not {distance!r}"
        _, best = brute_force_mean_topk(
            distribution, k, distance=_DISTANCES[kind][0], candidate_items=keys
        )
        if actual < best - TOLERANCE:
            return f"distance {actual!r} beats the optimum {best!r}"
        return None
    if kind == "top_k_membership":
        exact = _membership(distribution, keys, k)
        return compare_values(kind, value, exact, lambda: exact)
    if kind == "expected_rank_table":
        exact = _expected_ranks(distribution, keys)
        return compare_values(kind, value, exact, lambda: exact)
    if kind == "global_topk":
        return _best_by(value, _membership(distribution, keys, k), k, True)
    if kind == "expected_rank_topk":
        return _best_by(value, _expected_ranks(distribution, keys), k, False)
    return f"no oracle for kind {kind!r}"
