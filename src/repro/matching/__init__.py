"""Assignment-problem and bipartite-matching substrate.

Section 5 of the paper reduces the exact mean Top-k answer under the
intersection metric and under the Spearman footrule distance to a
maximum-weight bipartite matching ("assignment") problem between tuples and
Top-k positions.  This package implements the Hungarian algorithm from
scratch (the dependency-free reference) together with small bipartite-graph
helpers; the package-level :func:`minimize_cost_assignment` /
:func:`maximize_profit_assignment` entry points additionally route through
SciPy's ``linear_sum_assignment`` when it is importable and the NumPy
compute backend is active (see :mod:`repro.matching.assignment`).
:func:`minimize_position_assignment` is the Top-k form the consensus
kernels call: a native ``n × k`` cost table, pruned to the few tuples that
can appear in an optimum before either solver runs.
"""

from repro.matching.assignment import (
    maximize_profit_assignment,
    minimize_cost_assignment,
    minimize_position_assignment,
    scipy_solver_available,
)
from repro.matching.bipartite import (
    BipartiteGraph,
    maximum_cardinality_matching,
)

__all__ = [
    "minimize_cost_assignment",
    "maximize_profit_assignment",
    "minimize_position_assignment",
    "scipy_solver_available",
    "BipartiteGraph",
    "maximum_cardinality_matching",
]
