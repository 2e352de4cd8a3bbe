"""Shared plumbing for the Top-k consensus algorithms."""

from __future__ import annotations

import heapq
from typing import Any, Hashable, List, Sequence, Tuple, Union

from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.tree import AndXorTree
from repro.engine import RankMatrix, get_backend
from repro.exceptions import ConsensusError
from repro.session import QuerySession
from repro.session import as_session as _as_session

TreeOrStatistics = Union[AndXorTree, RankStatistics, QuerySession]
TopKAnswer = Tuple[Hashable, ...]


def as_session(source: TreeOrStatistics) -> QuerySession:
    """Coerce a tree / statistics / session into a :class:`QuerySession`.

    This is the shared entry point of every consensus algorithm: passing an
    existing session (or a statistics object, whose attached session is
    reused) shares the memoized rank matrices, preference matrices and
    membership vectors across queries; passing a bare tree builds a
    throwaway session so the module-level API stays source-compatible.
    """
    try:
        return _as_session(source)
    except TypeError:
        raise ConsensusError(
            "expected an AndXorTree, RankStatistics or QuerySession, got "
            f"{type(source).__name__}"
        ) from None


def as_rank_statistics(source: TreeOrStatistics) -> RankStatistics:
    """Coerce a tree, session or statistics cache into rank statistics.

    Passing an existing :class:`~repro.andxor.rank_probabilities.RankStatistics`
    or :class:`~repro.session.QuerySession` avoids recomputing rank
    distributions when several consensus answers are requested for the same
    database.
    """
    return as_session(source).statistics


def validate_k(source: TreeOrStatistics, k: int) -> int:
    """Validate the requested answer size against the database size."""
    if k <= 0:
        raise ConsensusError(f"k must be positive, got {k}")
    n = as_session(source).number_of_tuples()
    if k > n:
        raise ConsensusError(
            f"k = {k} exceeds the number of tuples in the database ({n})"
        )
    return k


def rank_matrix_view(
    source: TreeOrStatistics, k: int, cumulative: bool = False
) -> RankMatrix:
    """The validated ``n_tuples × k`` rank matrix of a database.

    The shared entry point the Top-k consensus algorithms use instead of
    assembling per-key ``List[float]`` dictionaries one lookup at a time;
    ``cumulative=True`` returns the ``Pr(r(t) <= i)`` view.  Both views are
    memoized on the session, so a warm session serves them without
    recomputation.
    """
    session = as_session(source)
    validate_k(session, k)
    if cumulative:
        return session.cumulative_rank_matrix(k)
    return session.rank_matrix(k)


def top_keys(
    keys: Sequence[Hashable], values: Any, count: int
) -> List[Hashable]:
    """The ``count`` keys with the largest ``values``, ties by ``repr``.

    Exactly ``sorted(keys, key=lambda key: (-value[key], repr(key)))
    [:count]`` with ``values`` aligned to ``keys`` (a native backend vector
    or any float sequence) -- the one tie rule of every Top-k selection.
    The backend first narrows the ``n`` indices to those at or above the
    ``count``-th largest value (an ``O(n)`` partition on NumPy, so ties at
    the boundary stay in); ``heapq.nsmallest``, which the Python docs
    define as that sorted slice, orders only those candidates.
    """
    candidates = get_backend().top_candidates(values, count)
    chosen = heapq.nsmallest(
        count,
        candidates,
        key=lambda index: (-values[index], repr(keys[index])),
    )
    return [keys[index] for index in chosen]


def membership_top_keys(
    source: TreeOrStatistics, k: int, count: int
) -> List[Hashable]:
    """The ``count`` keys with the largest ``Pr(r(t) <= k)`` (:func:`top_keys`)."""
    matrix = rank_matrix_view(source, k)
    return top_keys(matrix.keys(), matrix.membership_vector(), count)


def order_by_score(
    source: TreeOrStatistics, keys: Sequence[Hashable]
) -> TopKAnswer:
    """Order keys by the maximum score of their alternatives (descending).

    This is the natural presentation order for order-insensitive answers such
    as the symmetric-difference consensus.
    """
    keys = list(keys)
    best_score = as_session(source).best_scores(keys)
    return tuple(
        top_keys(keys, [best_score[key] for key in keys], len(keys))
    )
