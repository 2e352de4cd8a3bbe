"""Dense batched rank-probability matrices.

:class:`RankMatrix` packages the ``n_tuples × max_rank`` matrix of
rank-position probabilities ``Pr(r(t) = i)`` (or, after
:meth:`RankMatrix.cumulative`, ``Pr(r(t) <= i)``) together with a key index.
It replaces the repeated per-key ``Dict[key, List[float]]`` lookups that the
consensus algorithms used to assemble one dictionary entry at a time: the
matrix is produced in a single backend sweep and the aggregations the
algorithms need -- memberships, column totals, position-weighted sums --
stay inside the backend's native array layout.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.engine.backends import Backend


class RankMatrix:
    """An immutable ``n_tuples × max_rank`` probability matrix with key index.

    Rows are aligned with :meth:`keys`; column ``i - 1`` holds the
    probabilities for rank position ``i``.  Instances are produced by
    :meth:`repro.andxor.rank_probabilities.RankStatistics.rank_matrix`.
    """

    __slots__ = (
        "_keys", "_index", "_matrix", "_backend", "_max_rank", "_cumulative"
    )

    def __init__(
        self,
        keys: Sequence[Hashable],
        matrix: Any,
        backend: Backend,
        max_rank: int,
        cumulative: bool = False,
        key_index: Optional[Dict[Hashable, int]] = None,
    ) -> None:
        self._keys: List[Hashable] = list(keys)
        if key_index is not None:
            # Caller-supplied position index (already aligned with ``keys``):
            # producers that emit many matrices over one stable key order
            # (the sharded coordinator's incremental re-merges) share one
            # index instead of rebuilding an n-entry dict per matrix.
            self._index: Dict[Hashable, int] = key_index
        else:
            self._index = {
                key: position for position, key in enumerate(self._keys)
            }
        if len(self._index) != len(self._keys):
            raise ValueError("rank matrix keys must be distinct")
        self._matrix = matrix
        self._backend = backend
        self._max_rank = max_rank
        self._cumulative = cumulative

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def max_rank(self) -> int:
        """Number of rank positions (columns)."""
        return self._max_rank

    @property
    def backend(self) -> Backend:
        """The backend holding the native matrix."""
        return self._backend

    @property
    def native(self) -> Any:
        """The backend-native matrix (callers must not mutate it)."""
        return self._matrix

    def keys(self) -> List[Hashable]:
        """The tuple keys, aligned with the matrix rows."""
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def position(self, key: Hashable) -> int:
        """The row index of one tuple key (``KeyError`` if unknown)."""
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"unknown tuple key {key!r}") from None

    def row(self, key: Hashable) -> List[float]:
        """``[Pr(r(t) = 1), ..., Pr(r(t) = max_rank)]`` for one tuple key."""
        return self._backend.matrix_row(self._matrix, self.position(key))

    def column(self, position: int) -> List[float]:
        """Per-key probabilities of one rank position (1-based)."""
        if not 1 <= position <= self._max_rank:
            raise ValueError(
                f"position must lie in 1..{self._max_rank}, got {position}"
            )
        return self._backend.matrix_column(self._matrix, position - 1)

    def to_dict(self) -> Dict[Hashable, List[float]]:
        """The matrix as a per-key dictionary of row lists."""
        rows = self._backend.matrix_to_lists(self._matrix)
        return dict(zip(self._keys, rows))

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    @property
    def is_cumulative(self) -> bool:
        """True when cells hold ``Pr(r(t) <= i)`` rather than ``Pr(r(t) = i)``."""
        return self._cumulative

    def cumulative(self) -> "RankMatrix":
        """The matrix of running row sums: ``Pr(r(t) <= i)`` per cell."""
        if self._cumulative:
            return self
        return RankMatrix(
            self._keys,
            self._backend.cumulative_rows(self._matrix),
            self._backend,
            self._max_rank,
            cumulative=True,
        )

    def truncated(self, max_rank: int) -> "RankMatrix":
        """The exact ``n x max_rank`` matrix for a smaller rank bound.

        Cell values are ``Pr(r(t) = i)`` (or ``Pr(r(t) <= i)``), which do
        not depend on the truncation bound, so a column-prefix slice of a
        wider matrix is *identical* to recomputing at the smaller bound.
        Fused multi-query plans rely on this: one ``k_max`` sweep answers
        every smaller ``k`` in the batch by slicing.
        """
        if max_rank == self._max_rank:
            return self
        if not 1 <= max_rank <= self._max_rank:
            raise ValueError(
                f"truncation bound must lie in 1..{self._max_rank}, "
                f"got {max_rank}"
            )
        return RankMatrix(
            self._keys,
            self._backend.truncate_columns(self._matrix, max_rank),
            self._backend,
            max_rank,
            cumulative=self._cumulative,
            key_index=self._index,
        )

    def membership_vector(self) -> Any:
        """``Pr(r(t) <= max_rank)`` as a native vector aligned with
        :meth:`keys`.

        Row sums on a density matrix, the last column on a cumulative one
        (a unit-weight product, exact) -- both views answer the same
        question.
        """
        if self._cumulative and self._max_rank >= 1:
            weights = [0.0] * self._max_rank
            weights[-1] = 1.0
            return self._backend.matvec(self._matrix, weights)
        return self._backend.row_sums(self._matrix)

    def membership(self) -> Dict[Hashable, float]:
        """``Pr(r(t) <= max_rank)`` per key (:meth:`membership_vector`)."""
        return dict(
            zip(
                self._keys,
                self._backend.vector_to_list(self.membership_vector()),
            )
        )

    def column_totals(self) -> List[float]:
        """``Σ_t`` of every column (e.g. ``Σ_t Pr(r(t) <= i)``)."""
        return self._backend.column_sums(self._matrix)

    def weighted_vector(self, weights: Sequence[float]) -> Any:
        """``Σ_i weights[i-1] * matrix[t][i-1]`` as a native vector aligned
        with :meth:`keys`.

        This evaluates a parameterized ranking function ``Υ_ω`` for every
        tuple in one matrix-vector product.
        """
        if len(weights) != self._max_rank:
            raise ValueError(
                f"expected {self._max_rank} weights, got {len(weights)}"
            )
        return self._backend.matvec(self._matrix, weights)

    def weighted_sums(self, weights: Sequence[float]) -> Dict[Hashable, float]:
        """:meth:`weighted_vector` per key."""
        return dict(
            zip(
                self._keys,
                self._backend.vector_to_list(self.weighted_vector(weights)),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankMatrix(n_tuples={len(self._keys)}, "
            f"max_rank={self._max_rank}, backend={self._backend.name!r})"
        )
