"""Selection and pruned-assignment kernels of the Top-k consensus answers.

The Top-k kernels pick ``k`` of ``n`` tuples without sorting ``n``:

* :func:`~repro.consensus.topk.common.top_keys` must equal the sorted slice
  ``sorted(keys, key=(-value, repr(key)))[:count]`` on both backends,
  including heavy ties (exact 0.0 / 1.0 memberships) and ``count`` at
  ``1``, ``n - 1`` and ``n``;
* the footrule and intersection assignments solve over the union of each
  position's ``k`` best tuples once ``n > k²``, which must reach the full
  assignment's optimum, ties included;
* sharded and unsharded answers of the ``ti_mixed`` kinds agree.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.consensus.topk.common import top_keys
from repro.consensus.topk.footrule import expected_topk_footrule_distance
from repro.consensus.topk.intersection import (
    expected_topk_intersection_distance,
    intersection_objective,
)
from repro.engine import get_backend, numpy_available, use_backend
from repro.matching import (
    maximize_profit_assignment,
    minimize_cost_assignment,
    minimize_position_assignment,
)
from repro.models import ShardedDatabase, TupleIndependentDatabase
from repro.query.compat import query_for_kind
from repro.session import QuerySession
from repro.workloads.generators import random_tuple_independent_database

TOLERANCE = 1e-9
BACKENDS = ["python", "numpy"]

#: The popular-query kinds of the benchmark's ``ti_mixed`` workload.
POOL_KINDS = (
    "approximate_topk_intersection",
    "approximate_topk_kendall",
    "mean_topk_footrule",
    "mean_topk_symmetric_difference",
    "top_k_membership",
    "median_topk_symmetric_difference",
)


def _backend_or_skip(backend_name):
    if backend_name == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")


def _sorted_slice(keys, values, count):
    value = dict(zip(keys, values))
    return sorted(keys, key=lambda key: (-value[key], repr(key)))[:count]


def _tied_table(seed, count):
    """A tuple-independent table whose memberships tie heavily:
    probabilities drawn from {0, 1, 1/2} and a few free values."""
    rng = random.Random(seed)
    scores = rng.sample(range(10, 10 * count + 10), count)
    rows = []
    for index, score in enumerate(scores):
        probability = rng.choice((0.0, 1.0, 0.5, 0.5, rng.uniform(0.05, 0.95)))
        rows.append((f"t{index + 1}", score, float(score), probability))
    return TupleIndependentDatabase(rows)


# ----------------------------------------------------------------------
# top_keys
# ----------------------------------------------------------------------
distinct_keys = st.lists(
    st.one_of(st.integers(-50, 50), st.text(max_size=3)),
    min_size=1,
    max_size=40,
    unique=True,
)


class TestTopKeys:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @given(data=st.data(), keys=distinct_keys)
    @settings(max_examples=80, deadline=None)
    def test_equals_the_sorted_slice(self, backend_name, data, keys):
        _backend_or_skip(backend_name)
        n = len(keys)
        values = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, 1.0, 0.5]),
                    st.floats(0.0, 1.0),
                ),
                min_size=n,
                max_size=n,
            )
        )
        count = data.draw(
            st.one_of(st.sampled_from([0, 1, max(n - 1, 0), n]),
                      st.integers(0, n + 2))
        )
        expected = _sorted_slice(keys, values, count)
        with use_backend(backend_name):
            backend = get_backend()
            native = backend.row_sums(
                backend.matrix_from_rows([[value] for value in values])
            )
            assert top_keys(keys, values, count) == expected
            assert top_keys(keys, native, count) == expected

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_boundary_ties_stay_in(self, backend_name):
        _backend_or_skip(backend_name)
        # Many keys tie at the count-th value; repr decides among them.
        keys = [f"k{index:02d}" for index in range(30)][::-1]
        values = [1.0] * 3 + [0.0] * 27
        with use_backend(backend_name):
            for count in (1, 3, 4, 10, 29, 30):
                assert top_keys(keys, values, count) == _sorted_slice(
                    keys, values, count
                )


# ----------------------------------------------------------------------
# Pruned Top-k assignments
# ----------------------------------------------------------------------
def _full_cost(table_rows, positions):
    """Optimal total of the unpruned assignment over ``n × positions`` rows."""
    columns = [list(column) for column in zip(*table_rows)]
    assert len(columns) == positions
    _, total = minimize_cost_assignment(columns)
    return total


class TestPrunedAssignment:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("positions", [2, 3, 4])
    def test_tied_costs_reach_the_full_optimum(self, backend_name, positions):
        _backend_or_skip(backend_name)
        rng = random.Random(positions)
        with use_backend(backend_name):
            backend = get_backend()
            for trial in range(25):
                count = positions * positions + 1 + rng.randrange(20)
                rows = [
                    [float(rng.randrange(3)) for _ in range(positions)]
                    for _ in range(count)
                ]
                chosen = minimize_position_assignment(
                    backend.matrix_from_rows(rows), positions, backend
                )
                assert len(set(chosen)) == positions
                total = sum(
                    rows[row][position] for position, row in enumerate(chosen)
                )
                assert abs(total - _full_cost(rows, positions)) < TOLERANCE

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_footrule_reaches_the_full_optimum(self, backend_name, seed):
        _backend_or_skip(backend_name)
        k = 3 + seed % 2
        database = _tied_table(seed, k * k + 15)
        with use_backend(backend_name):
            session = QuerySession(database.tree)
            answer, value = session.mean_topk_footrule(k)
            footrule = session.footrule_statistics(k)
            rows = get_backend().matrix_to_lists(footrule.cost_matrix)
            full = footrule.constant_term() + _full_cost(rows, k)
            assert abs(value - full) < TOLERANCE
            assert abs(
                expected_topk_footrule_distance(session, answer, k) - value
            ) < TOLERANCE

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_intersection_reaches_the_full_optimum(self, backend_name, seed):
        _backend_or_skip(backend_name)
        k = 3 + seed % 2
        database = _tied_table(100 + seed, k * k + 15)
        with use_backend(backend_name):
            session = QuerySession(database.tree)
            answer, value = session.mean_topk_intersection(k)
            # The unpruned profit table, one weighted row sum per position.
            cumulative = session.cumulative_rank_matrix(k)
            keys = cumulative.keys()
            profit = []
            for j in range(1, k + 1):
                weights = [0.0] * (j - 1) + [1.0 / i for i in range(j, k + 1)]
                row_sums = cumulative.weighted_sums(weights)
                profit.append([row_sums[key] for key in keys])
            assignment, best = maximize_profit_assignment(profit)
            full_answer = tuple(keys[column] for column in assignment)
            assert abs(
                intersection_objective(session, answer, k) - best
            ) < TOLERANCE
            assert abs(
                value
                - expected_topk_intersection_distance(session, full_answer, k)
            ) < TOLERANCE


# ----------------------------------------------------------------------
# Sharded vs unsharded
# ----------------------------------------------------------------------
class TestShardedParity:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("k", [5, 10, 20])
    def test_ti_mixed_kinds_agree(self, backend_name, k):
        _backend_or_skip(backend_name)
        database = random_tuple_independent_database(400, rng=41)
        with use_backend(backend_name):
            sharded = ShardedDatabase(database, 4)
            sharded_connection = repro.connect(sharded, result_cache=False)
            unsharded = repro.connect(database, result_cache=False)
            for kind in POOL_KINDS:
                query = query_for_kind(kind, k)
                got = sharded_connection.execute(query).value
                expected = unsharded.execute(query).value
                if kind == "top_k_membership":
                    assert set(got) == set(expected)
                    for key, probability in expected.items():
                        assert abs(got[key] - probability) < TOLERANCE
                elif kind == "approximate_topk_kendall":
                    assert tuple(got) == tuple(expected)
                else:
                    (answer, value), (ref_answer, ref_value) = got, expected
                    assert tuple(answer) == tuple(ref_answer)
                    assert abs(value - ref_value) < TOLERANCE
