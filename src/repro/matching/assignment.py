"""Backend-aware dispatch for the assignment solvers.

The paper's footrule and intersection consensus answers both end in a
rectangular assignment problem.  Two exact solvers are available:

* the from-scratch Hungarian implementation
  (:mod:`repro.matching.hungarian`) -- the dependency-free reference;
* SciPy's ``linear_sum_assignment`` (a C implementation of the modified
  Jonker-Volgenant algorithm), used when SciPy is importable *and* the
  NumPy compute backend is active, mirroring how the engine treats NumPy
  itself: an optional accelerator, never a requirement.

Both solvers are exact, so any optimum they return has the same total
cost; ties between distinct optimal assignments may be broken differently.

Top-k assignments (:func:`minimize_position_assignment`) place ``k``
positions among ``n`` tuples, usually ``n >> k``.  They are pruned first,
by this lemma: let ``B_i`` be any ``k`` tuples of least cost for position
``i``.  If an optimal assignment gives position ``i`` a tuple outside
``B_i``, the other ``k - 1`` positions hold at most ``k - 1`` members of
``B_i``, so some member is free; it costs ``i`` no more than the tuple it
replaces (every member of ``B_i`` costs at most what any non-member
costs), so moving ``i`` there keeps the assignment optimal.  Repeating the
move for every position yields an optimum inside ``∪_i B_i``, at most
``k²`` tuples, so solving over that union reaches the exact optimal cost.
The dispatch preserves the reference contract (``rows <= cols``, every row
assigned to a distinct column, :class:`~repro.exceptions.MatchingError` on
malformed input) and is parity-tested against the Hungarian solver in
``tests/test_matching.py``.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.engine import Backend, get_backend
from repro.exceptions import MatchingError
from repro.matching import hungarian as _hungarian

try:  # SciPy is an optional accelerator, never a hard dependency.
    from scipy.optimize import linear_sum_assignment as _linear_sum_assignment
except ImportError:  # pragma: no cover - exercised on SciPy-free installs
    _linear_sum_assignment = None


def scipy_solver_available() -> bool:
    """True when ``scipy.optimize.linear_sum_assignment`` is importable."""
    return _linear_sum_assignment is not None


def _validate(cost: Sequence[Sequence[float]]) -> Tuple[int, int]:
    rows = len(cost)
    if rows == 0:
        return 0, 0
    cols = len(cost[0])
    if any(len(row) != cols for row in cost):
        raise MatchingError("cost matrix rows have inconsistent lengths")
    if rows > cols:
        raise MatchingError(
            f"assignment requires rows <= cols, got {rows} rows x {cols} cols"
        )
    return rows, cols


def minimize_cost_assignment(
    cost: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Solve the rectangular assignment problem (minimisation).

    Same contract as
    :func:`repro.matching.hungarian.minimize_cost_assignment`; routed to
    SciPy's ``linear_sum_assignment`` when it is importable and the NumPy
    engine backend is active, and to the Hungarian reference otherwise.
    """
    rows, _ = _validate(cost)
    if rows == 0:
        return [], 0.0
    if _linear_sum_assignment is not None and get_backend().name == "numpy":
        row_indices, column_indices = _linear_sum_assignment(cost)
        assignment: List[int] = [-1] * rows
        total = 0.0
        for row, column in zip(row_indices, column_indices):
            assignment[int(row)] = int(column)
            total += cost[int(row)][int(column)]
        return assignment, total
    return _hungarian.minimize_cost_assignment(cost)


def maximize_profit_assignment(
    profit: Sequence[Sequence[float]],
) -> Tuple[List[int], float]:
    """Solve the rectangular assignment problem (maximisation).

    Negates the matrix and dispatches through
    :func:`minimize_cost_assignment`.
    """
    negated = [[-value for value in row] for row in profit]
    assignment, negative_total = minimize_cost_assignment(negated)
    return assignment, -negative_total


def minimize_position_assignment(
    cost: Any, positions: int, backend: Backend
) -> List[int]:
    """Optimal Top-k assignment over a native ``n × positions`` cost table.

    ``cost[t][i]`` is the cost of placing tuple row ``t`` at position
    ``i + 1``; the result lists the row placed at each position.  When
    ``n > positions²`` only the union of each position's ``positions``
    cheapest rows reaches the solver (the pruning lemma in the module
    docstring), which keeps the optimal cost exact while the solver sees
    at most ``positions²`` columns; candidate rows keep their relative
    order.
    """
    count = len(cost)
    if count > positions * positions:
        rows = backend.smallest_rows_per_column(cost, positions)
        cost = backend.take_rows(cost, rows)
    else:
        rows = list(range(count))
    table = backend.matrix_to_lists(backend.transpose(cost))
    assignment, _ = minimize_cost_assignment(table)
    return [rows[column] for column in assignment]
