"""Dense batched pairwise-preference matrices.

:class:`PairwisePreferenceMatrix` packages the ``n × n`` grid of
``Pr(r(t_i) < r(t_j))`` (Section 5.5 of the paper) together with a key
index.  It replaces the per-pair dictionary that
``RankStatistics.pairwise_preference_matrix`` used to assemble one scalar
joint-probability lookup at a time: on tuple-independent databases the whole
grid is produced by one backend kernel
(:meth:`~repro.engine.backends.Backend.pairwise_preference_matrix`) and the
Kendall pivoting consumes cells straight from the native layout.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Sequence, Tuple

from repro.engine.backends import Backend


class PairwisePreferenceMatrix:
    """An immutable ``n × n`` preference matrix with a key index.

    Cell ``(i, j)`` holds ``Pr(r(t_i) < r(t_j))`` -- the probability that
    tuple ``t_i`` is ranked strictly above ``t_j``; the diagonal is zero.
    Instances are produced by
    :meth:`repro.andxor.rank_probabilities.RankStatistics.preference_matrix`.
    """

    __slots__ = ("_keys", "_index", "_matrix", "_backend")

    def __init__(
        self,
        keys: Sequence[Hashable],
        matrix: Any,
        backend: Backend,
    ) -> None:
        self._keys: List[Hashable] = list(keys)
        self._index: Dict[Hashable, int] = {
            key: position for position, key in enumerate(self._keys)
        }
        if len(self._index) != len(self._keys):
            raise ValueError("preference matrix keys must be distinct")
        self._matrix = matrix
        self._backend = backend

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> Backend:
        """The backend holding the native matrix."""
        return self._backend

    @property
    def native(self) -> Any:
        """The backend-native matrix (callers must not mutate it)."""
        return self._matrix

    def keys(self) -> List[Hashable]:
        """The tuple keys, aligned with the matrix rows/columns."""
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _position(self, key: Hashable) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"unknown tuple key {key!r}") from None

    def value(self, first: Hashable, second: Hashable) -> float:
        """``Pr(r(first) < r(second))``; zero when the keys coincide."""
        row = self._position(first)
        column = self._position(second)
        if row == column:
            return 0.0
        return self._backend.matrix_cell(self._matrix, row, column)

    def row(self, key: Hashable) -> List[float]:
        """``Pr(r(key) < r(t_j))`` against every key, matrix order."""
        return self._backend.matrix_row(self._matrix, self._position(key))

    def borda_scores(self) -> Dict[Hashable, float]:
        """``Σ_j Pr(r(t_i) < r(t_j))`` per key -- the Borda-style totals
        used to pick deterministic pivots."""
        return dict(
            zip(
                self._keys,
                self._backend.vector_to_list(
                    self._backend.row_sums(self._matrix)
                ),
            )
        )

    def to_dict(self) -> Dict[Tuple[Hashable, Hashable], float]:
        """The matrix as the legacy per-ordered-pair dictionary."""
        rows = self._backend.matrix_to_lists(self._matrix)
        out: Dict[Tuple[Hashable, Hashable], float] = {}
        for first, row in zip(self._keys, rows):
            for second, probability in zip(self._keys, row):
                if first != second:
                    out[(first, second)] = probability
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PairwisePreferenceMatrix(n_tuples={len(self._keys)}, "
            f"backend={self._backend.name!r})"
        )
