"""Pluggable array backends for the hot numeric kernels.

Every probability the paper needs is a coefficient extraction from a
generating function, and the generating-function arithmetic reduces to a
handful of dense kernels: truncated polynomial convolution (univariate and
bivariate), multiply-accumulate products of many small factors, the
``Π (1 - p_i + p_i x)`` Bernoulli products of tuple-independent databases,
and the prefix-product sweep that yields every tuple's rank distribution in
one pass.  This module defines the :class:`Backend` interface for those
kernels and two implementations:

* :class:`PurePythonBackend` -- the reference semantics, dependency-free.
  It preserves exact arithmetic (``int`` and ``fractions.Fraction``
  coefficients stay exact).
* :class:`NumpyBackend` -- vectorized ``float64`` kernels.  Inputs with
  non-float coefficients (e.g. ``Fraction``) or very small operands are
  transparently routed to the pure-Python kernels, so exactness and
  small-case speed are never sacrificed.

Backend selection lives in :mod:`repro.engine` (``get_backend`` /
``set_backend`` / the ``REPRO_BACKEND`` environment variable); this module
deliberately imports nothing from the rest of the package so every layer can
depend on it without cycles.
"""

from __future__ import annotations

import heapq as _heapq
import random as _random
from bisect import bisect_right as _bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on NumPy-free installs
    _np = None

Number = Any  # int, float or fractions.Fraction
Exponents = Tuple[int, ...]


def numpy_available() -> bool:
    """True when NumPy could be imported."""
    return _np is not None


class Backend:
    """Interface of the vectorizable kernels.

    Matrix-valued results (``rank_probability_matrix``, ``matrix_from_rows``,
    ``cumulative_rows``) use a backend-native layout -- list-of-lists for the
    pure backend, a 2-D ``ndarray`` for NumPy -- and the row/aggregation
    accessors accept that same native layout, so batch consumers such as
    :class:`repro.engine.RankMatrix` never round-trip through Python lists.
    """

    name: str = "abstract"

    # -- instrumentation ----------------------------------------------------
    def count_kernel(self, kernel: str) -> None:
        """Bump the per-instance call counter for one named kernel.

        Only the shard-merge kernels currently report (``convolve_rows``):
        benchmarks assert the incremental coordinator merge issues O(S)
        row convolutions per update instead of the O(S²) of a full
        re-merge, and the counter is how they measure it.
        """
        counters = self.__dict__.setdefault("_kernel_calls", {})
        counters[kernel] = counters.get(kernel, 0) + 1

    def kernel_calls(self, kernel: str) -> int:
        """Lifetime number of calls recorded for one named kernel."""
        return self.__dict__.get("_kernel_calls", {}).get(kernel, 0)

    # -- polynomial kernels -------------------------------------------------
    def convolve(
        self, a: Sequence[Number], b: Sequence[Number], out_len: int
    ) -> List[Number]:
        """Truncated product of two dense coefficient lists.

        ``result[m] = Σ_i a[i] * b[m - i]`` for ``m < out_len``.
        """
        raise NotImplementedError

    def convolve2d(
        self,
        a: Sequence[Sequence[Number]],
        b: Sequence[Sequence[Number]],
        out_x: int,
        out_y: int,
    ) -> List[List[Number]]:
        """Truncated product of two dense coefficient matrices."""
        raise NotImplementedError

    def sparse_convolve(
        self,
        terms_a: Dict[Exponents, Number],
        terms_b: Dict[Exponents, Number],
        limit_vector: Sequence[Optional[int]],
    ) -> Dict[Exponents, Number]:
        """Product of two sparse exponent-vector term maps with truncation."""
        raise NotImplementedError

    def polynomial_product(
        self,
        factors: Sequence[Sequence[Number]],
        out_len: Optional[int] = None,
    ) -> List[Number]:
        """Multiply-accumulate product of many dense coefficient lists."""
        raise NotImplementedError

    def bernoulli_product(
        self,
        probabilities: Sequence[float],
        out_len: Optional[int] = None,
    ) -> List[float]:
        """Coefficients of ``Π_i (1 - p_i + p_i x)``, optionally truncated.

        Coefficient ``j`` is the probability that exactly ``j`` of the
        independent events occur (Example 1 of the paper for a
        tuple-independent database).
        """
        raise NotImplementedError

    # -- batched rank kernels ----------------------------------------------
    def rank_probability_matrix(
        self, probabilities: Sequence[float], max_rank: int
    ) -> Any:
        """Rank distributions of independent tuples sorted by score.

        ``probabilities`` lists the presence probabilities in decreasing
        score order; row ``i`` of the result holds
        ``[Pr(r(t_i) = 1), ..., Pr(r(t_i) = max_rank)]``.  Maintaining the
        truncated running product ``Π_{j<i} (1 - p_j + p_j x)``, row ``i`` is
        ``p_i`` times its coefficients -- one sweep for all tuples.
        """
        raise NotImplementedError

    def pairwise_preference_matrix(
        self, probabilities: Sequence[float], scores: Sequence[float]
    ) -> Any:
        """``Pr(r(t_i) < r(t_j))`` for independent tuples, any order.

        ``probabilities`` and ``scores`` are aligned per tuple.  Tuple ``i``
        beats tuple ``j`` exactly when ``i`` is present and either ``j`` is
        absent or ``i`` scores higher, so the cell ``(i, j)`` of the native
        ``n × n`` result is ``p_i`` when ``s_i > s_j``, ``p_i (1 - p_j)``
        when ``s_i < s_j`` and 0 on the diagonal -- the whole grid is one
        outer product instead of ``n²`` scalar joint lookups, and rows stay
        aligned with the caller's key order.
        """
        raise NotImplementedError

    def jaccard_prefix_values(
        self, probabilities: Sequence[float]
    ) -> List[float]:
        """Expected Jaccard distance of every probability-ordered prefix.

        ``probabilities`` lists the presence probabilities of independent
        tuples in decreasing probability order.  Entry ``m`` of the result is
        ``E[d_J(W_m, pw)]`` for the prefix ``W_m`` of the first ``m`` tuples
        (Lemma 2 of the paper).  Writing ``j = |pw \\ W_m|`` and using that
        the distance ``(m - i + j) / (m + j)`` is linear in ``i = |pw ∩ W_m|``
        for fixed ``j``,

        ``E[d_J] = Σ_j Pr(j) (m - μ_m + j) / (m + j)``

        with ``μ_m = Σ_{t in W_m} p_t``; the distribution of ``j`` is the
        Bernoulli product over the suffix, maintained incrementally from
        ``m = n`` down to ``0`` so the whole scan is one ``O(n²)`` sweep.
        """
        raise NotImplementedError

    # -- batched Monte-Carlo sampling kernels -------------------------------
    def sample_bernoulli_presence(
        self, probabilities: Sequence[float], samples: int, seed: int
    ) -> Any:
        """``samples × n`` native boolean presence matrix of independent events.

        Cell ``(s, i)`` is True when event ``i`` occurred in sample ``s``.
        This is the fast path for flattened trees whose leaves are pairwise
        independent (every xor node feeds exactly one leaf): one uniform
        draw per cell, compared against the event's probability.  The draws
        are fully determined by ``seed``, so a run is reproducible per
        backend (the two backends consume different generators and need not
        produce identical streams).
        """
        raise NotImplementedError

    def sample_xor_presence(
        self,
        cumulatives: Sequence[Sequence[float]],
        constraints: Sequence[Sequence[Tuple[int, int]]],
        leaf_count: int,
        samples: int,
        seed: int,
    ) -> Any:
        """``samples × leaf_count`` presence matrix of a general and/xor tree.

        ``cumulatives[x]`` holds the cumulative edge probabilities of xor
        node ``x`` (a uniform draw ``u`` selects the child with the smallest
        index whose cumulative value exceeds ``u``; ``u`` beyond the last
        value selects nothing).  ``constraints[l]`` lists the
        ``(xor index, child index)`` pairs leaf ``l`` requires on its root
        path; a leaf with no constraints is always present.  One categorical
        draw per xor node covers all leaves of a sample (Definition 1's
        generative process), vectorized across the whole batch.
        """
        raise NotImplementedError

    # -- shard-merge kernels -------------------------------------------------
    def prefix_count_polynomials(
        self,
        probabilities: Sequence[float],
        out_len: int,
        base: Any = None,
        start: int = 0,
    ) -> Any:
        """Truncated prefix products ``Π_{i<m} (1 - p_i + p_i x)``.

        ``probabilities`` lists independent presence probabilities in
        decreasing score order.  Row ``m`` of the ``(n + 1) × out_len``
        native result holds the coefficients of the count distribution of
        the first ``m`` events -- the *partial rank generating function* a
        database shard exports so a coordinator can recover exact global
        rank probabilities by convolving shard partials
        (:meth:`convolve_rows`).  Row 0 is the unit polynomial.

        Row ``m`` depends only on the first ``m`` probabilities, so after a
        change at index ``start`` pass the previous table as ``base``: rows
        ``0 .. start`` are copied from it and the sweep resumes from row
        ``start``.  The result is bit-identical to a full sweep, and
        ``base`` is never modified.
        """
        raise NotImplementedError

    def convolve_rows(self, a: Any, b: Any, out_len: int) -> Any:
        """Row-aligned truncated convolution of two native matrices.

        ``result[r][m] = Σ_i a[r][i] * b[r][m - i]`` for ``m < out_len`` --
        one polynomial product per row, batched.  This is the coordinator's
        merge kernel: convolving the per-tuple local rank polynomials of one
        shard against the gathered count-above-threshold partials of another
        shard merges the two shards' contributions for every tuple at once.
        """
        raise NotImplementedError

    def take_rows(self, matrix: Any, indices: Sequence[int]) -> Any:
        """Gather rows of a native matrix (callers must not mutate them)."""
        raise NotImplementedError

    def index_vector(self, indices: Sequence[int]) -> Sequence[int]:
        """Pre-convert row indices to the backend's native gather form.

        Callers that reuse one index list across many :meth:`take_rows` /
        :meth:`sum_rows_by_group` calls (the merge engine's grid positions
        live across every incremental re-merge) convert it once through
        this hook instead of paying a python-list conversion per call.
        """
        return list(indices)

    def factor_vector(self, factors: Sequence[float]) -> Sequence[float]:
        """Pre-convert per-row scale factors for reuse across
        :meth:`scale_rows` calls (same contract as :meth:`index_vector`)."""
        return [float(value) for value in factors]

    def descending_prefix_lengths(
        self,
        scores_desc: Sequence[float],
        thresholds_desc: Sequence[float],
    ) -> List[int]:
        """Per threshold, how many scores are strictly greater than it.

        Both sequences are sorted in decreasing order; the result maps each
        threshold to the length of the score prefix lying above it.  The
        coordinator uses this to look one shard's score column up in
        another shard's prefix polynomial table.
        """
        raise NotImplementedError

    def scale_rows(self, matrix: Any, factors: Sequence[float]) -> Any:
        """Multiply row ``r`` of a native matrix by ``factors[r]``."""
        raise NotImplementedError

    def stack_matrices(self, matrices: Sequence[Any]) -> Any:
        """Concatenate native matrices with equal column counts row-wise."""
        raise NotImplementedError

    def sum_rows_by_group(
        self, matrix: Any, groups: Sequence[int], group_count: int
    ) -> Any:
        """Sum rows of a native matrix into ``group_count`` output rows.

        ``result[groups[r]] += matrix[r]`` for every row ``r``.  The merge
        engine uses this to collapse per-alternative rank contributions of
        a block-independent shard into per-key rows.
        """
        raise NotImplementedError

    # -- consensus cost kernels --------------------------------------------
    def footrule_cost_matrix(self, matrix: Any, k: int) -> Any:
        """The footrule assignment cost table ``f(t, i)`` of Section 5.4.

        ``matrix`` is the native ``n × k`` rank matrix (cell ``(t, j-1)`` is
        ``Pr(r(t) = j)``).  Writing ``Υ1(t) = Σ_j Pr(r(t)=j)`` and
        ``Υ2(t) = Σ_j j Pr(r(t)=j)``, the result's cell ``(t, i-1)`` is

        ``f(t, i) = Σ_j Pr(r(t)=j) |i-j| - i (1 - Υ1(t))
                    + Υ2(t) - 2 (k+1) Υ1(t)``

        -- one matrix product against the ``k × k`` ``|i-j|`` grid plus two
        rank-one updates instead of the per-entry Υ3 loop.
        """
        raise NotImplementedError

    def matrix_product(
        self, matrix: Any, grid: Sequence[Sequence[float]]
    ) -> Any:
        """``matrix @ grid`` for a native ``n × k`` matrix and a small
        ``k × m`` grid given as rows; the result is native ``n × m``.

        The intersection consensus builds its whole assignment profit
        table this way: one product of the cumulative rank matrix with
        the ``k × k`` suffix-harmonic grid.
        """
        raise NotImplementedError

    # -- selection kernels ---------------------------------------------------
    def top_candidates(
        self, values: Sequence[float], count: int
    ) -> Sequence[int]:
        """Indices that may be among the ``count`` largest ``values``.

        Every index whose value is at least the ``count``-th largest value
        is returned, so ties at the boundary stay in and the caller's tie
        rule (:func:`repro.consensus.topk.common.top_keys`) decides among
        them.  ``values`` is a native vector or any float sequence.
        """
        raise NotImplementedError

    def smallest_rows_per_column(self, matrix: Any, count: int) -> List[int]:
        """Increasing row indices: the union over the columns of a native
        matrix of the ``count`` rows holding each column's smallest values
        (ties broken arbitrarily).  Candidate generation for the pruned
        Top-k assignment (:func:`repro.matching.minimize_position_assignment`).
        """
        raise NotImplementedError

    # -- native matrix helpers ----------------------------------------------
    def matrix_from_rows(self, rows: Sequence[Sequence[float]]) -> Any:
        """Pack per-key coefficient rows into the backend-native layout."""
        raise NotImplementedError

    def transpose(self, matrix: Any) -> Any:
        """The transposed view/copy of a native matrix."""
        raise NotImplementedError

    def cumulative_rows(self, matrix: Any) -> Any:
        """Row-wise running sums (``Pr(r(t) = i)`` -> ``Pr(r(t) <= i)``)."""
        raise NotImplementedError

    def truncate_columns(self, matrix: Any, count: int) -> Any:
        """The first ``count`` columns of a native matrix.

        Rank probabilities do not depend on the truncation bound, so a
        prefix slice of an ``n x K`` rank matrix *is* the exact ``n x k``
        matrix for every ``k <= K`` -- the kernel behind fused
        multi-query plans that answer many Top-k sizes from one sweep.
        """
        raise NotImplementedError

    def matrix_row(self, matrix: Any, index: int) -> List[float]:
        """One row of a native matrix as a Python list."""
        raise NotImplementedError

    def matrix_column(self, matrix: Any, index: int) -> List[float]:
        """One column of a native matrix as a Python list."""
        raise NotImplementedError

    def matrix_cell(self, matrix: Any, row: int, column: int) -> float:
        """One scalar cell of a native matrix."""
        raise NotImplementedError

    def dot(self, a: Sequence[float], b: Sequence[float]) -> float:
        """Inner product of two equal-length vectors."""
        raise NotImplementedError

    def vector_sum(self, values: Sequence[float]) -> float:
        """Sum of a vector's entries."""
        raise NotImplementedError

    def row_sums(self, matrix: Any) -> Any:
        """Per-row totals of a native matrix, as a native vector."""
        raise NotImplementedError

    def column_sums(self, matrix: Any) -> List[float]:
        """Per-column totals of a native matrix."""
        raise NotImplementedError

    def matvec(self, matrix: Any, weights: Sequence[float]) -> Any:
        """Per-row weighted sums ``Σ_j matrix[i][j] * weights[j]``, as a
        native vector."""
        raise NotImplementedError

    def vector_to_list(self, vector: Any) -> List[float]:
        """A native vector as a list of Python floats."""
        raise NotImplementedError

    def matrix_to_lists(self, matrix: Any) -> List[List[float]]:
        """Convert a native matrix into a list of row lists."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


# ----------------------------------------------------------------------
# Pure-Python reference backend
# ----------------------------------------------------------------------
class PurePythonBackend(Backend):
    """Reference implementation; exact on ``int`` / ``Fraction`` inputs."""

    name = "python"

    def convolve(
        self, a: Sequence[Number], b: Sequence[Number], out_len: int
    ) -> List[Number]:
        result: List[Number] = [0] * out_len
        for i, coeff_a in enumerate(a):
            if coeff_a == 0 or i >= out_len:
                continue
            limit = min(len(b), out_len - i)
            for j in range(limit):
                coeff_b = b[j]
                if coeff_b != 0:
                    result[i + j] += coeff_a * coeff_b
        return result

    def convolve2d(
        self,
        a: Sequence[Sequence[Number]],
        b: Sequence[Sequence[Number]],
        out_x: int,
        out_y: int,
    ) -> List[List[Number]]:
        rows: List[List[Number]] = [[0] * out_y for _ in range(out_x)]
        for i, row_a in enumerate(a):
            if i >= out_x:
                break
            for j, coeff_a in enumerate(row_a):
                if coeff_a == 0 or j >= out_y:
                    continue
                max_p = min(len(b), out_x - i)
                for p in range(max_p):
                    row_b = b[p]
                    max_q = min(len(row_b), out_y - j)
                    target = rows[i + p]
                    for q in range(max_q):
                        coeff_b = row_b[q]
                        if coeff_b != 0:
                            target[j + q] += coeff_a * coeff_b
        return rows

    def sparse_convolve(
        self,
        terms_a: Dict[Exponents, Number],
        terms_b: Dict[Exponents, Number],
        limit_vector: Sequence[Optional[int]],
    ) -> Dict[Exponents, Number]:
        limits = tuple(limit_vector)
        terms: Dict[Exponents, Number] = {}
        for exp_a, coeff_a in terms_a.items():
            for exp_b, coeff_b in terms_b.items():
                combined = tuple(x + y for x, y in zip(exp_a, exp_b))
                skip = False
                for value, limit in zip(combined, limits):
                    if limit is not None and value > limit:
                        skip = True
                        break
                if skip:
                    continue
                terms[combined] = terms.get(combined, 0) + coeff_a * coeff_b
        return terms

    def polynomial_product(
        self,
        factors: Sequence[Sequence[Number]],
        out_len: Optional[int] = None,
    ) -> List[Number]:
        result: List[Number] = [1]
        for factor in factors:
            length = len(result) + len(factor) - 1
            if out_len is not None:
                length = min(length, out_len)
            result = self.convolve(result, factor, length)
        return result

    def bernoulli_product(
        self,
        probabilities: Sequence[float],
        out_len: Optional[int] = None,
    ) -> List[float]:
        length = len(probabilities) + 1
        if out_len is not None:
            length = min(length, out_len)
        if length < 1:
            return []
        coefficients = [0.0] * length
        coefficients[0] = 1.0
        degree = 0
        for probability in probabilities:
            degree = min(degree + 1, length - 1)
            previous = 0.0
            for index in range(degree + 1):
                current = coefficients[index]
                coefficients[index] = (
                    current * (1.0 - probability) + previous * probability
                )
                previous = current
        return coefficients

    def rank_probability_matrix(
        self, probabilities: Sequence[float], max_rank: int
    ) -> List[List[float]]:
        if max_rank < 1:
            return [[] for _ in probabilities]
        coefficients = [1.0] + [0.0] * (max_rank - 1)
        rows: List[List[float]] = []
        for probability in probabilities:
            rows.append([probability * c for c in coefficients])
            previous = 0.0
            for index in range(max_rank):
                current = coefficients[index]
                coefficients[index] = (
                    current * (1.0 - probability) + previous * probability
                )
                previous = current
        return rows

    def pairwise_preference_matrix(
        self, probabilities: Sequence[float], scores: Sequence[float]
    ) -> List[List[float]]:
        rows: List[List[float]] = []
        for i, (p_i, s_i) in enumerate(zip(probabilities, scores)):
            row: List[float] = []
            for j, (p_j, s_j) in enumerate(zip(probabilities, scores)):
                if i == j:
                    row.append(0.0)
                elif s_j > s_i:  # strict: ties mean j cannot outrank i
                    row.append(p_i * (1.0 - p_j))
                else:
                    row.append(p_i)
            rows.append(row)
        return rows

    def jaccard_prefix_values(
        self, probabilities: Sequence[float]
    ) -> List[float]:
        n = len(probabilities)
        prefix_mass = [0.0] * (n + 1)
        for m, probability in enumerate(probabilities):
            prefix_mass[m + 1] = prefix_mass[m] + probability
        values = [0.0] * (n + 1)
        outside = [1.0]  # distribution of |pw \ W_m|, starting at m = n
        for m in range(n, -1, -1):
            mu = prefix_mass[m]
            total = 0.0
            for j, probability in enumerate(outside):
                union = m + j
                if union > 0:
                    total += probability * (m - mu + j) / union
            values[m] = total
            if m > 0:
                p = probabilities[m - 1]
                grown = [0.0] * (len(outside) + 1)
                for j, probability in enumerate(outside):
                    grown[j] += probability * (1.0 - p)
                    grown[j + 1] += probability * p
                outside = grown
        return values

    def sample_bernoulli_presence(
        self, probabilities: Sequence[float], samples: int, seed: int
    ) -> List[List[bool]]:
        rng = _random.Random(seed)
        return [
            [rng.random() < probability for probability in probabilities]
            for _ in range(samples)
        ]

    def sample_xor_presence(
        self,
        cumulatives: Sequence[Sequence[float]],
        constraints: Sequence[Sequence[Tuple[int, int]]],
        leaf_count: int,
        samples: int,
        seed: int,
    ) -> List[List[bool]]:
        rng = _random.Random(seed)
        rows: List[List[bool]] = []
        for _ in range(samples):
            choices = [
                _bisect_right(cumulative, rng.random())
                for cumulative in cumulatives
            ]
            rows.append(
                [
                    all(choices[x] == child for x, child in constraint)
                    for constraint in constraints
                ]
            )
        return rows

    def prefix_count_polynomials(
        self,
        probabilities: Sequence[float],
        out_len: int,
        base: Any = None,
        start: int = 0,
    ) -> List[List[float]]:
        if out_len < 1:
            return [[] for _ in range(len(probabilities) + 1)]
        if base is None:
            start = 0
            coefficients = [0.0] * out_len
            coefficients[0] = 1.0
            rows: List[List[float]] = [list(coefficients)]
        else:
            # Rows are shared read-only (the take_rows contract).
            rows = list(base[: start + 1])
            coefficients = list(rows[start])
        for probability in probabilities[start:]:
            previous = 0.0
            for index in range(out_len):
                current = coefficients[index]
                coefficients[index] = (
                    current * (1.0 - probability) + previous * probability
                )
                previous = current
            rows.append(list(coefficients))
        return rows

    def convolve_rows(
        self,
        a: List[List[float]],
        b: List[List[float]],
        out_len: int,
    ) -> List[List[float]]:
        self.count_kernel("convolve_rows")
        if len(a) != len(b):
            raise ValueError(
                f"row counts differ: {len(a)} vs {len(b)}"
            )
        return [
            self.convolve(row_a, row_b, out_len)
            for row_a, row_b in zip(a, b)
        ]

    def take_rows(
        self, matrix: List[List[float]], indices: Sequence[int]
    ) -> List[List[float]]:
        return [matrix[index] for index in indices]

    def descending_prefix_lengths(
        self,
        scores_desc: Sequence[float],
        thresholds_desc: Sequence[float],
    ) -> List[int]:
        count = len(scores_desc)
        out: List[int] = []
        position = 0
        for threshold in thresholds_desc:
            while position < count and scores_desc[position] > threshold:
                position += 1
            out.append(position)
        return out

    def scale_rows(
        self, matrix: List[List[float]], factors: Sequence[float]
    ) -> List[List[float]]:
        return [
            [value * factor for value in row]
            for row, factor in zip(matrix, factors)
        ]

    def stack_matrices(
        self, matrices: Sequence[List[List[float]]]
    ) -> List[List[float]]:
        stacked: List[List[float]] = []
        for matrix in matrices:
            stacked.extend(matrix)
        return stacked

    def sum_rows_by_group(
        self,
        matrix: List[List[float]],
        groups: Sequence[int],
        group_count: int,
    ) -> List[List[float]]:
        width = len(matrix[0]) if matrix else 0
        out = [[0.0] * width for _ in range(group_count)]
        for row, group in zip(matrix, groups):
            target = out[group]
            for index, value in enumerate(row):
                target[index] += value
        return out

    def footrule_cost_matrix(
        self, matrix: List[List[float]], k: int
    ) -> List[List[float]]:
        rows: List[List[float]] = []
        for row in matrix:
            upsilon1 = sum(row)
            upsilon2 = sum((j + 1) * p for j, p in enumerate(row))
            absent_or_low = 1.0 - upsilon1
            base = upsilon2 - 2.0 * (k + 1.0) * upsilon1
            rows.append(
                [
                    sum(
                        p * abs(i - (j + 1)) for j, p in enumerate(row)
                    )
                    - i * absent_or_low
                    + base
                    for i in range(1, k + 1)
                ]
            )
        return rows

    def matrix_product(
        self, matrix: List[List[float]], grid: Sequence[Sequence[float]]
    ) -> List[List[float]]:
        columns = list(zip(*grid))
        return [
            [sum(a * b for a, b in zip(row, column)) for column in columns]
            for row in matrix
        ]

    def top_candidates(
        self, values: Sequence[float], count: int
    ) -> Sequence[int]:
        # No cheap threshold without a selection kernel: every index is a
        # candidate and the caller's heap selection does the work.
        return range(len(values)) if count > 0 else range(0)

    def smallest_rows_per_column(
        self, matrix: List[List[float]], count: int
    ) -> List[int]:
        rows: set = set()
        for column in range(len(matrix[0]) if matrix else 0):
            rows.update(
                _heapq.nsmallest(
                    count, range(len(matrix)), key=lambda r: matrix[r][column]
                )
            )
        return sorted(rows)

    def matrix_from_rows(
        self, rows: Sequence[Sequence[float]]
    ) -> List[List[float]]:
        return [list(row) for row in rows]

    def transpose(
        self, matrix: List[List[float]]
    ) -> List[List[float]]:
        return [list(column) for column in zip(*matrix)]

    def cumulative_rows(
        self, matrix: List[List[float]]
    ) -> List[List[float]]:
        out: List[List[float]] = []
        for row in matrix:
            running = 0.0
            cumulative = []
            for value in row:
                running += value
                cumulative.append(running)
            out.append(cumulative)
        return out

    def truncate_columns(
        self, matrix: List[List[float]], count: int
    ) -> List[List[float]]:
        return [row[:count] for row in matrix]

    def matrix_row(self, matrix: List[List[float]], index: int) -> List[float]:
        return list(matrix[index])

    def matrix_column(
        self, matrix: List[List[float]], index: int
    ) -> List[float]:
        return [row[index] for row in matrix]

    def matrix_cell(
        self, matrix: List[List[float]], row: int, column: int
    ) -> float:
        return matrix[row][column]

    def dot(self, a: Sequence[float], b: Sequence[float]) -> float:
        return sum(x * y for x, y in zip(a, b))

    def vector_sum(self, values: Sequence[float]) -> float:
        return sum(values)

    def row_sums(self, matrix: List[List[float]]) -> List[float]:
        return [sum(row) for row in matrix]

    def column_sums(self, matrix: List[List[float]]) -> List[float]:
        if not matrix:
            return []
        totals = [0.0] * len(matrix[0])
        for row in matrix:
            for index, value in enumerate(row):
                totals[index] += value
        return totals

    def matvec(
        self, matrix: List[List[float]], weights: Sequence[float]
    ) -> List[float]:
        return [
            sum(value * weight for value, weight in zip(row, weights))
            for row in matrix
        ]

    def vector_to_list(self, vector: Sequence[float]) -> List[float]:
        return list(vector)

    def matrix_to_lists(
        self, matrix: List[List[float]]
    ) -> List[List[float]]:
        return [list(row) for row in matrix]


# ----------------------------------------------------------------------
# NumPy backend
# ----------------------------------------------------------------------
def _is_float_compatible(values: Sequence[Number]) -> bool:
    """True when every coefficient can be losslessly treated as float64.

    ``Fraction`` / ``Decimal`` coefficients must keep exact arithmetic, and
    general int coefficients could overflow 2**53 through the products and
    sums of a convolution, so both route to the pure-Python kernels.  Ints
    in {-1, 0, 1} are allowed: they arise from variable/one/zero
    polynomials mixed into float probability arithmetic and cannot lose
    precision.  (``numpy`` scalars subclass ``float``/``int`` or are
    rejected by the tuple check, both of which are correct.)
    """
    for value in values:
        if isinstance(value, float):
            continue
        if isinstance(value, int) and -1 <= value <= 1:
            continue
        return False
    return True


class NumpyBackend(Backend):
    """Vectorized float64 kernels on top of NumPy.

    Parameters
    ----------
    small_cutoff:
        Operand-size threshold below which the scalar kernels are used for
        ``convolve`` / ``convolve2d`` / ``sparse_convolve`` /
        ``polynomial_product`` -- for tiny polynomials the ``ndarray``
        round-trip costs more than it saves.  Set to 0 to force the vector
        path (used by the parity tests).
    """

    name = "numpy"

    def __init__(self, small_cutoff: int = 256) -> None:
        if _np is None:
            raise RuntimeError(
                "NumpyBackend requested but numpy is not importable; "
                "install the [fast] extra or set REPRO_BACKEND=python"
            )
        self._small_cutoff = small_cutoff
        self._fallback = PurePythonBackend()

    def convolve(
        self, a: Sequence[Number], b: Sequence[Number], out_len: int
    ) -> List[Number]:
        if (
            len(a) * len(b) < self._small_cutoff
            or not _is_float_compatible(a)
            or not _is_float_compatible(b)
        ):
            return self._fallback.convolve(a, b, out_len)
        full = _np.convolve(
            _np.asarray(a, dtype=_np.float64),
            _np.asarray(b, dtype=_np.float64),
        )[:out_len]
        if full.shape[0] < out_len:  # zero-pad to match the pure backend
            full = _np.pad(full, (0, out_len - full.shape[0]))
        return full.tolist()

    def convolve2d(
        self,
        a: Sequence[Sequence[Number]],
        b: Sequence[Sequence[Number]],
        out_x: int,
        out_y: int,
    ) -> List[List[Number]]:
        cells_a = len(a) * len(a[0]) if a else 0
        cells_b = len(b) * len(b[0]) if b else 0
        if (
            cells_a * cells_b < self._small_cutoff
            or not all(_is_float_compatible(row) for row in a)
            or not all(_is_float_compatible(row) for row in b)
        ):
            return self._fallback.convolve2d(a, b, out_x, out_y)
        matrix_a = _np.asarray(a, dtype=_np.float64)
        matrix_b = _np.asarray(b, dtype=_np.float64)
        out = _np.zeros((out_x, out_y), dtype=_np.float64)
        # 2-D truncated convolution as a sum of shifted 1-D convolutions
        # over the rows of the smaller operand.
        if matrix_b.shape[0] > matrix_a.shape[0]:
            matrix_a, matrix_b = matrix_b, matrix_a
        for p in range(min(matrix_b.shape[0], out_x)):
            row_b = matrix_b[p]
            limit_x = min(matrix_a.shape[0], out_x - p)
            for i in range(limit_x):
                segment = _np.convolve(matrix_a[i], row_b)[:out_y]
                out[i + p, : segment.shape[0]] += segment
        return out.tolist()

    def sparse_convolve(
        self,
        terms_a: Dict[Exponents, Number],
        terms_b: Dict[Exponents, Number],
        limit_vector: Sequence[Optional[int]],
    ) -> Dict[Exponents, Number]:
        if not terms_a or not terms_b:
            return {}
        if (
            len(terms_a) * len(terms_b) < self._small_cutoff
            or not _is_float_compatible(list(terms_a.values()))
            or not _is_float_compatible(list(terms_b.values()))
        ):
            return self._fallback.sparse_convolve(
                terms_a, terms_b, limit_vector
            )
        exps_a = _np.array(list(terms_a.keys()), dtype=_np.int64)
        exps_b = _np.array(list(terms_b.keys()), dtype=_np.int64)
        coeffs_a = _np.array(list(terms_a.values()), dtype=_np.float64)
        coeffs_b = _np.array(list(terms_b.values()), dtype=_np.float64)
        combined = (exps_a[:, None, :] + exps_b[None, :, :]).reshape(
            -1, exps_a.shape[1]
        )
        products = _np.multiply.outer(coeffs_a, coeffs_b).reshape(-1)
        mask = _np.ones(combined.shape[0], dtype=bool)
        for axis, limit in enumerate(limit_vector):
            if limit is not None:
                mask &= combined[:, axis] <= limit
        combined = combined[mask]
        products = products[mask]
        if combined.shape[0] == 0:
            return {}
        unique, inverse = _np.unique(combined, axis=0, return_inverse=True)
        totals = _np.zeros(unique.shape[0], dtype=_np.float64)
        _np.add.at(totals, inverse.reshape(-1), products)
        return {
            tuple(int(e) for e in exponents): float(total)
            for exponents, total in zip(unique, totals)
        }

    def polynomial_product(
        self,
        factors: Sequence[Sequence[Number]],
        out_len: Optional[int] = None,
    ) -> List[Number]:
        total_coefficients = sum(len(factor) for factor in factors)
        if total_coefficients < self._small_cutoff or not all(
            _is_float_compatible(factor) for factor in factors
        ):
            return self._fallback.polynomial_product(factors, out_len)
        result = _np.ones(1, dtype=_np.float64)
        for factor in factors:
            result = _np.convolve(
                result, _np.asarray(factor, dtype=_np.float64)
            )
            if out_len is not None and result.shape[0] > out_len:
                result = result[:out_len]
        return result.tolist()

    def bernoulli_product(
        self,
        probabilities: Sequence[float],
        out_len: Optional[int] = None,
    ) -> List[float]:
        length = len(probabilities) + 1
        if out_len is not None:
            length = min(length, out_len)
        if length < 1:
            return []
        coefficients = _np.zeros(length, dtype=_np.float64)
        coefficients[0] = 1.0
        for probability in _np.asarray(probabilities, dtype=_np.float64):
            shifted = _np.empty_like(coefficients)
            shifted[0] = 0.0
            shifted[1:] = coefficients[:-1]
            coefficients = (
                coefficients * (1.0 - probability) + shifted * probability
            )
        return coefficients.tolist()

    def rank_probability_matrix(
        self, probabilities: Sequence[float], max_rank: int
    ) -> Any:
        values = _np.asarray(probabilities, dtype=_np.float64)
        count = values.shape[0]
        if max_rank < 1:
            return _np.zeros((count, 0), dtype=_np.float64)
        coefficients = _np.zeros(max_rank, dtype=_np.float64)
        coefficients[0] = 1.0
        rows = _np.empty((count, max_rank), dtype=_np.float64)
        shifted = _np.empty_like(coefficients)
        for index in range(count):
            probability = values[index]
            _np.multiply(probability, coefficients, out=rows[index])
            shifted[0] = 0.0
            shifted[1:] = coefficients[:-1]
            coefficients *= 1.0 - probability
            coefficients += shifted * probability
        return rows

    def pairwise_preference_matrix(
        self, probabilities: Sequence[float], scores: Sequence[float]
    ) -> Any:
        values = _np.asarray(probabilities, dtype=_np.float64)
        ranks = _np.asarray(scores, dtype=_np.float64)
        # cell (i, j) = p_i * (1 - p_j * [tuple j scores higher than i])
        higher = (ranks[None, :] > ranks[:, None]).astype(_np.float64)
        matrix = values[:, None] * (1.0 - values[None, :] * higher)
        _np.fill_diagonal(matrix, 0.0)
        return matrix

    def jaccard_prefix_values(
        self, probabilities: Sequence[float]
    ) -> List[float]:
        values = _np.asarray(probabilities, dtype=_np.float64)
        count = values.shape[0]
        prefix_mass = _np.concatenate(([0.0], _np.cumsum(values)))
        results = _np.zeros(count + 1, dtype=_np.float64)
        outside = _np.ones(1, dtype=_np.float64)
        for m in range(count, -1, -1):
            sizes = m + _np.arange(outside.shape[0], dtype=_np.float64)
            weights = _np.divide(
                sizes - prefix_mass[m],
                sizes,
                out=_np.zeros_like(sizes),
                where=sizes > 0,
            )
            results[m] = outside @ weights
            if m > 0:
                p = values[m - 1]
                grown = _np.empty(outside.shape[0] + 1, dtype=_np.float64)
                grown[:-1] = outside * (1.0 - p)
                grown[-1] = 0.0
                grown[1:] += outside * p
                outside = grown
        return results.tolist()

    def sample_bernoulli_presence(
        self, probabilities: Sequence[float], samples: int, seed: int
    ) -> Any:
        rng = _np.random.default_rng(seed)
        values = _np.asarray(probabilities, dtype=_np.float64)
        count = values.shape[0]
        presence = _np.empty((samples, count), dtype=bool)
        # Chunk the uniform draws so the float64 scratch stays bounded even
        # for very large S × n batches (the bool result is 8x smaller).
        chunk = max(1, min(samples, 8_000_000 // max(1, count)))
        for start in range(0, samples, chunk):
            stop = min(samples, start + chunk)
            presence[start:stop] = rng.random((stop - start, count)) < values
        return presence

    def sample_xor_presence(
        self,
        cumulatives: Sequence[Sequence[float]],
        constraints: Sequence[Sequence[Tuple[int, int]]],
        leaf_count: int,
        samples: int,
        seed: int,
    ) -> Any:
        rng = _np.random.default_rng(seed)
        presence = _np.ones((samples, leaf_count), dtype=bool)
        targets_by_xor: Dict[int, List[Tuple[int, int]]] = {}
        for leaf, constraint in enumerate(constraints):
            for x, child in constraint:
                targets_by_xor.setdefault(x, []).append((leaf, child))
        for x, cumulative in enumerate(cumulatives):
            draws = rng.random(samples)
            targets = targets_by_xor.get(x)
            if not targets:
                continue
            choice = _np.searchsorted(
                _np.asarray(cumulative, dtype=_np.float64),
                draws,
                side="right",
            )
            for leaf, child in targets:
                presence[:, leaf] &= choice == child
        return presence

    def prefix_count_polynomials(
        self,
        probabilities: Sequence[float],
        out_len: int,
        base: Any = None,
        start: int = 0,
    ) -> Any:
        values = _np.asarray(probabilities, dtype=_np.float64)
        count = values.shape[0]
        if out_len < 1:
            return _np.zeros((count + 1, 0), dtype=_np.float64)
        rows = _np.empty((count + 1, out_len), dtype=_np.float64)
        if base is None:
            start = 0
            coefficients = _np.zeros(out_len, dtype=_np.float64)
            coefficients[0] = 1.0
            rows[0] = coefficients
        else:
            rows[: start + 1] = base[: start + 1]
            coefficients = rows[start].copy()
        shifted = _np.empty_like(coefficients)
        for index in range(start, count):
            probability = values[index]
            shifted[0] = 0.0
            shifted[1:] = coefficients[:-1]
            coefficients *= 1.0 - probability
            coefficients += shifted * probability
            rows[index + 1] = coefficients
        return rows

    def convolve_rows(self, a: Any, b: Any, out_len: int) -> Any:
        self.count_kernel("convolve_rows")
        a = _np.asarray(a, dtype=_np.float64)
        b = _np.asarray(b, dtype=_np.float64)
        if a.shape[0] != b.shape[0]:
            raise ValueError(
                f"row counts differ: {a.shape[0]} vs {b.shape[0]}"
            )
        rows = a.shape[0]
        width = min(a.shape[1], out_len)
        b_width = min(b.shape[1], out_len)
        if width <= 0 or out_len < 1:
            return _np.zeros((rows, max(out_len, 0)), dtype=_np.float64)
        # Per-row truncated polynomial product as one batched contraction:
        # out[r, m] = Σ_i a[r, i] · b[r, m - i].  A zero-padded copy of b
        # exposes every shifted window b[r, m - i] through a strided view
        # (stride -1 along i), so the whole product is a single einsum
        # instead of `width` shifted accumulation passes.
        padded = _np.empty((rows, width - 1 + out_len), dtype=_np.float64)
        padded[:, : width - 1] = 0.0
        padded[:, width - 1 : width - 1 + b_width] = b[:, :b_width]
        if out_len > b_width:
            padded[:, width - 1 + b_width :] = 0.0
        anchored = padded[:, width - 1 :]
        row_stride, col_stride = padded.strides
        windows = _np.lib.stride_tricks.as_strided(
            anchored,
            shape=(rows, out_len, width),
            strides=(row_stride, col_stride, -col_stride),
            writeable=False,
        )
        return _np.einsum(
            "rmi,ri->rm", windows, a[:, :width], optimize=True
        )

    def take_rows(self, matrix: Any, indices: Sequence[int]) -> Any:
        return matrix[_np.asarray(indices, dtype=_np.intp)]

    def index_vector(self, indices: Sequence[int]) -> Any:
        return _np.asarray(indices, dtype=_np.intp)

    def factor_vector(self, factors: Sequence[float]) -> Any:
        return _np.asarray(factors, dtype=_np.float64)

    def descending_prefix_lengths(
        self,
        scores_desc: Sequence[float],
        thresholds_desc: Sequence[float],
    ) -> List[int]:
        # "scores strictly greater than θ" on a descending list is a left
        # bisect on the negated (ascending) list.
        ascending = -_np.asarray(scores_desc, dtype=_np.float64)
        queries = -_np.asarray(thresholds_desc, dtype=_np.float64)
        return _np.searchsorted(ascending, queries, side="left").tolist()

    def scale_rows(self, matrix: Any, factors: Sequence[float]) -> Any:
        return matrix * _np.asarray(factors, dtype=_np.float64)[:, None]

    def stack_matrices(self, matrices: Sequence[Any]) -> Any:
        return _np.vstack([_np.asarray(m, dtype=_np.float64) for m in matrices])

    def sum_rows_by_group(
        self, matrix: Any, groups: Sequence[int], group_count: int
    ) -> Any:
        matrix = _np.asarray(matrix, dtype=_np.float64)
        out = _np.zeros((group_count, matrix.shape[1]), dtype=_np.float64)
        _np.add.at(out, _np.asarray(groups, dtype=_np.intp), matrix)
        return out

    def footrule_cost_matrix(self, matrix: Any, k: int) -> Any:
        positions = _np.arange(1, k + 1, dtype=_np.float64)
        # grid[j - 1, i - 1] = |i - j|
        grid = _np.abs(positions[None, :] - positions[:, None])
        upsilon1 = matrix.sum(axis=1)
        upsilon2 = matrix @ positions
        cost = matrix @ grid
        cost += _np.outer(upsilon1 - 1.0, positions)
        cost += (upsilon2 - 2.0 * (k + 1.0) * upsilon1)[:, None]
        return cost

    def matrix_product(
        self, matrix: Any, grid: Sequence[Sequence[float]]
    ) -> Any:
        return matrix @ _np.asarray(grid, dtype=_np.float64)

    def top_candidates(self, values: Sequence[float], count: int) -> Any:
        values = _np.asarray(values, dtype=_np.float64)
        size = len(values)
        if count <= 0:
            return range(0)
        if count >= size:
            return range(size)
        # The count-th largest value, found in O(n); every index at or
        # above it is a candidate, so boundary ties stay in.
        threshold = _np.partition(values, size - count)[size - count]
        return _np.flatnonzero(values >= threshold).tolist()

    def smallest_rows_per_column(self, matrix: Any, count: int) -> List[int]:
        if count >= matrix.shape[0]:
            return list(range(matrix.shape[0]))
        best = _np.argpartition(matrix, count - 1, axis=0)[:count]
        return _np.unique(best).tolist()

    def matrix_from_rows(self, rows: Sequence[Sequence[float]]) -> Any:
        return _np.asarray(rows, dtype=_np.float64)

    def transpose(self, matrix: Any) -> Any:
        return matrix.T

    def cumulative_rows(self, matrix: Any) -> Any:
        return _np.cumsum(matrix, axis=1)

    def truncate_columns(self, matrix: Any, count: int) -> Any:
        return _np.ascontiguousarray(matrix[:, :count])

    def matrix_row(self, matrix: Any, index: int) -> List[float]:
        return matrix[index].tolist()

    def matrix_column(self, matrix: Any, index: int) -> List[float]:
        return matrix[:, index].tolist()

    def matrix_cell(self, matrix: Any, row: int, column: int) -> float:
        return float(matrix[row, column])

    def dot(self, a: Sequence[float], b: Sequence[float]) -> float:
        return float(
            _np.asarray(a, dtype=_np.float64)
            @ _np.asarray(b, dtype=_np.float64)
        )

    def vector_sum(self, values: Sequence[float]) -> float:
        return float(_np.asarray(values, dtype=_np.float64).sum())

    def row_sums(self, matrix: Any) -> Any:
        return matrix.sum(axis=1)

    def column_sums(self, matrix: Any) -> List[float]:
        return matrix.sum(axis=0).tolist()

    def matvec(self, matrix: Any, weights: Sequence[float]) -> Any:
        return matrix @ _np.asarray(weights, dtype=_np.float64)

    def vector_to_list(self, vector: Any) -> List[float]:
        return _np.asarray(vector, dtype=_np.float64).tolist()

    def matrix_to_lists(self, matrix: Any) -> List[List[float]]:
        return matrix.tolist()
