"""Top-k consensus under the Spearman footrule distance (Section 5.4).

With the location parameter ``ℓ = k + 1`` the footrule distance between
Top-k lists has the closed form quoted in Section 5.1; Figure 2 of the paper
rewrites its expectation against the random Top-k answer as

``E[F*(τ, τ_pw)] = C + Σ_t Σ_{i=1..k} δ(t = τ(i)) f(t, i)``

where, writing ``Υ1(t) = Σ_{i<=k} Pr(r(t)=i)``,
``Υ2(t) = Σ_{i<=k} i Pr(r(t)=i)`` and
``Υ3(t, i) = Σ_{j<=k} Pr(r(t)=j) |i-j| - i Pr(r(t) > k)``,

* ``C = (k+1) k + Σ_t ((k+1) Υ1(t) - Υ2(t))`` is independent of ``τ``, and
* ``f(t, i) = Υ3(t, i) + Υ2(t) - 2 (k+1) Υ1(t)``.

Choosing which tuple occupies which position to minimise ``Σ_i f(τ(i), i)``
is an assignment problem, solved exactly with the Hungarian algorithm.
Only the union of each position's ``k`` cheapest tuples goes to the solver
(all tuples when ``n <= k²``): a position holding a tuple outside its own
``k`` cheapest can always move to one of them that no other position uses,
at no extra cost, so the pruned problem keeps the exact optimum
(:func:`~repro.matching.minimize_position_assignment`).

.. note::
   The paper prints ``Υ3`` with ``+ i Pr(r(t) > k)``, but its own derivation
   in Figure 2 subtracts the ``Σ_i δ(t = τ(i)) i Pr(r(t) > k)`` term (a tuple
   of the candidate answer that falls *outside* the random Top-k contributes
   ``(k+1) - τ(t)``, whose ``-τ(t)`` part is this term).  The minus sign used
   here is the one that makes the decomposition agree with the brute-force
   expected distance; ``tests/test_topk_footrule.py`` verifies this equality
   by exhaustive enumeration.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Sequence, Tuple

from repro.consensus.topk.common import (
    TopKAnswer,
    TreeOrStatistics,
    as_session,
    rank_matrix_view,
    validate_k,
)
from repro.engine import Backend
from repro.exceptions import ConsensusError
from repro.matching import minimize_position_assignment


class FootruleStatistics:
    """The Υ1 / Υ2 / Υ3 statistics of Section 5.4 for one database.

    Instances are memoized per ``k`` on the query session
    (:meth:`repro.session.QuerySession.footrule_statistics`), so evaluating
    several candidate answers reuses the same Υ tables.  Υ1 and Υ2 are
    native vectors aligned with :meth:`keys`, and the whole ``n × k`` cost
    table ``f(t, i)`` is produced by one backend kernel
    (:meth:`~repro.engine.backends.Backend.footrule_cost_matrix`: a matrix
    product of the truncated rank matrix against the ``k × k`` ``|i-j|``
    grid plus two rank-one updates) instead of the per-entry Υ3 loop.

    The statistics keep the rank matrix, not the session: sessions memoize
    them, and a back reference would make every session a reference cycle
    that only the cycle collector frees.
    """

    def __init__(self, source: TreeOrStatistics, k: int) -> None:
        session = as_session(source)
        self._k = validate_k(session, k)
        self._matrix = rank_matrix_view(session, k)
        backend = self._matrix.backend
        # Υ1 and Υ2 for all tuples: a row sum and one matrix-vector product.
        self._upsilon1 = self._matrix.membership_vector()
        self._upsilon2 = self._matrix.weighted_vector(
            [float(i) for i in range(1, k + 1)]
        )
        self._cost = backend.footrule_cost_matrix(self._matrix.native, k)
        # C = (k+1) k + Σ_t ((k+1) Υ1(t) - Υ2(t)), as two vector totals.
        self._constant = (k + 1.0) * k + (
            (k + 1.0) * backend.vector_sum(self._upsilon1)
            - backend.vector_sum(self._upsilon2)
        )

    @property
    def k(self) -> int:
        """The answer size."""
        return self._k

    def keys(self) -> List[Hashable]:
        """The tuple keys of the database, aligned with :attr:`cost_matrix`.

        ``keys()[row]`` is the tuple of row ``row`` of the cost table (the
        rank-matrix row order).
        """
        return self._matrix.keys()

    @property
    def cost_matrix(self) -> Any:
        """The native ``n × k`` cost table: cell ``(row, i - 1)`` is
        ``f(keys()[row], i)``.  Callers must not mutate it."""
        return self._cost

    @property
    def backend(self) -> Backend:
        """The backend holding :attr:`cost_matrix`."""
        return self._matrix.backend

    def upsilon1(self, key: Hashable) -> float:
        """``Υ1(t) = Pr(r(t) <= k)``."""
        return float(self._upsilon1[self._matrix.position(key)])

    def upsilon2(self, key: Hashable) -> float:
        """``Υ2(t) = Σ_{i<=k} i Pr(r(t) = i)``."""
        return float(self._upsilon2[self._matrix.position(key)])

    def upsilon3(self, key: Hashable, position: int) -> float:
        """``Υ3(t, i) = Σ_{j<=k} Pr(r(t)=j) |i-j| - i Pr(r(t) > k)``.

        See the module docstring for the sign of the second term.
        Recovered from the precomputed cost table via
        ``Υ3(t, i) = f(t, i) - Υ2(t) + 2 (k+1) Υ1(t)``.
        """
        return (
            self.position_cost(key, position)
            - self.upsilon2(key)
            + 2.0 * (self._k + 1.0) * self.upsilon1(key)
        )

    def constant_term(self) -> float:
        """The ``τ``-independent constant ``C`` of Figure 2."""
        return self._constant

    def position_cost(self, key: Hashable, position: int) -> float:
        """``f(t, i) = Υ3(t, i) + Υ2(t) - 2 (k+1) Υ1(t)``."""
        if not 1 <= position <= self._k:
            raise ConsensusError(
                f"position must lie in 1..{self._k}, got {position}"
            )
        return self._matrix.backend.matrix_cell(
            self._cost, self._matrix.position(key), position - 1
        )


def expected_topk_footrule_distance(
    source: TreeOrStatistics, answer: Sequence[Hashable], k: int
) -> float:
    """Expected footrule distance between ``answer`` and the random Top-k.

    Evaluates the Figure 2 decomposition ``C + Σ_i f(τ(i), i)`` exactly.
    """
    footrule = as_session(source).footrule_statistics(k)
    answer = tuple(answer)
    if len(answer) != k:
        raise ConsensusError(
            f"the candidate answer must have exactly k = {k} items"
        )
    if len(set(answer)) != k:
        raise ConsensusError("the candidate answer contains duplicates")
    total = footrule.constant_term()
    for position, key in enumerate(answer, start=1):
        total += footrule.position_cost(key, position)
    return total


def mean_topk_footrule(
    source: TreeOrStatistics, k: int
) -> Tuple[TopKAnswer, float]:
    """The exact mean Top-k answer under the footrule distance ``F^(k+1)``.

    Solved as a minimum-cost assignment of tuples to the ``k`` positions with
    cost ``f(t, i)``; returns the optimal answer and its expected distance.
    """
    session = as_session(source)
    footrule = session.footrule_statistics(k)
    rows = minimize_position_assignment(
        footrule.cost_matrix, k, footrule.backend
    )
    keys = footrule.keys()
    answer = tuple(keys[row] for row in rows)
    return answer, expected_topk_footrule_distance(session, answer, k)
