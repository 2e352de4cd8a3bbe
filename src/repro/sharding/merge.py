"""Incremental cross-shard merge: grid-aligned prefix/suffix partials.

The coordinator recovers exact global rank probabilities by convolving
per-shard count-above-threshold polynomials.  The from-scratch merge
(:func:`merge_from_scratch`) pairs every shard with every other shard --
O(S²) row convolutions -- and re-derives the gathers and sort order on
every call.  :class:`MergeEngine` restructures that around partial products on
one shared score grid:

* every shard's count table is gathered once onto the **global descending
  score grid** (the merged layout's alternative stream), so cross-shard
  ``prefix_indices`` lookups index a single shared grid;
* the engine keeps ``prefix[i] = shard_0 ⊛ … ⊛ shard_i`` and
  ``suffix[i] = shard_i ⊛ … ⊛ shard_{S-1}`` rows, keyed by the per-shard
  version tokens, and serves shard ``i``'s "all-others" factor as
  ``prefix[i-1] ⊛ suffix[i+1]`` gathered at the shard's own grid
  positions;
* a full merge costs O(S) row convolutions (≈ ``4·S``) instead of
  ``S·(S-1)``, and swapping one shard's summary recomputes only the
  partial-product rows containing that shard plus each shard's final rank
  rows -- index maps, grid positions, the stacked row order and every
  untouched prefix/suffix row are reused from cache.

Tuple-independent shards take the batched path (local rows are the shard's
own prefix table); block-independent shards build one row per alternative
(own block excluded) and collapse them per key with
:meth:`~repro.engine.backends.Backend.sum_rows_by_group`, so mixed
shardings merge on the same grid machinery.

:func:`merge_from_scratch` stays as the merge of superseded version
vectors (which must not disturb the engine's cached partials) and as the
engine's parity oracle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, Hashable, List, Sequence, Tuple

from repro.engine import RankMatrix
from repro.sharding.summary import ShardRankSummary


@dataclass(frozen=True)
class MergeStatsSnapshot:
    """Counters of the coordinator's merge engine at one instant.

    ``convolutions`` counts :meth:`~repro.engine.backends.Backend.\
convolve_rows` calls issued by the engine (the backend keeps its own
    independent ``kernel_calls`` tally); ``incremental_merges`` reused
    cached prefix/suffix partials, ``full_merges`` rebuilt the grid state,
    and ``rebuild_merges`` counts merges at superseded version vectors,
    which take :func:`merge_from_scratch` instead of the engine.
    Subtracting two snapshots gives the counters of the interval between
    them.
    """

    merges: int = 0
    full_merges: int = 0
    incremental_merges: int = 0
    rebuild_merges: int = 0
    convolutions: int = 0
    partials_reused: int = 0
    layout_patches: int = 0
    layout_rebuilds: int = 0
    snapshot_reads: int = 0
    snapshot_evictions: int = 0

    def __sub__(self, other: "MergeStatsSnapshot") -> "MergeStatsSnapshot":
        return MergeStatsSnapshot(
            **{
                field.name: getattr(self, field.name)
                - getattr(other, field.name)
                for field in fields(self)
            }
        )


class _GridState:
    """Cached partial products for one truncation (``max_rank``)."""

    __slots__ = (
        "backend_name",
        "tokens",
        "scores",
        "grid",
        "index_maps",
        "positions",
        "aligned",
        "prefix",
        "suffix",
        "others",
        "others_keys",
        "finals",
        "final_keys",
        "locals",
        "local_keys",
        "order",
        "keys",
    )

    def __init__(self, shard_count: int) -> None:
        self.backend_name: str = ""
        self.tokens: Tuple[Any, ...] = ()
        self.scores: List[List[float]] = []
        self.grid: List[float] = []
        self.index_maps: List[Any] = []
        self.positions: List[Any] = []
        self.aligned: List[Any] = [None] * shard_count
        self.prefix: List[Any] = [None] * shard_count
        self.suffix: List[Any] = [None] * shard_count
        self.others: List[Any] = [None] * shard_count
        self.others_keys: List[Any] = [None] * shard_count
        self.finals: List[Any] = [None] * shard_count
        self.final_keys: List[Any] = [None] * shard_count
        #: Per-shard ``(local_rows, scale_factors, groups)`` -- everything
        #: in the final-rows computation that depends only on the shard's
        #: own content, cached by version token.
        self.locals: List[Any] = [None] * shard_count
        self.local_keys: List[Any] = [None] * shard_count
        self.order: Any = []
        self.keys: List[Hashable] = []


class MergeEngine:
    """Versioned prefix/suffix partial-product cache behind a coordinator.

    One engine per coordinator, shared with its snapshot readers, and one
    :class:`_GridState` per requested truncation (bounded LRU).  The engine
    only ever merges the *current* version vector; reads at superseded
    vectors take :func:`merge_from_scratch`, so they cannot thrash the
    partials of current traffic.
    """

    def __init__(self, state_limit: int = 8) -> None:
        self._states: "OrderedDict[int, _GridState]" = OrderedDict()
        self._state_limit = max(1, state_limit)
        self.counters: Dict[str, int] = {
            field.name: 0 for field in fields(MergeStatsSnapshot)
        }

    def stats(self) -> MergeStatsSnapshot:
        """An immutable snapshot of the engine's counters."""
        return MergeStatsSnapshot(**self.counters)

    def clear(self) -> None:
        """Drop every cached grid state (explicit invalidation)."""
        self._states.clear()

    # ------------------------------------------------------------------
    # Merge entry point
    # ------------------------------------------------------------------
    def merge(
        self,
        summaries: Sequence[ShardRankSummary],
        tokens: Sequence[Any],
        max_rank: int,
        grid_scores: List[float],
        keys_order: List[Hashable],
        backend: Any,
    ) -> Tuple[List[Hashable], Any]:
        """Merge shard summaries into the global rank rows.

        ``tokens`` are per-shard version tokens aligned with ``summaries``;
        they key every cached partial, so an unchanged token means the
        shard's cached contribution is reused verbatim.  Returns
        ``(keys, native_matrix)`` with rows in merged decreasing-score
        order (``keys_order``).
        """
        self.counters["merges"] += 1
        tokens = tuple(tokens)
        count = len(summaries)
        state = self._states.get(max_rank)
        if state is not None and not self._compatible(
            state, summaries, tokens, backend
        ):
            state = None
        if state is None:
            state = self._build_grid(
                summaries, max_rank, grid_scores, keys_order, backend, count
            )
            self._states[max_rank] = state
            self.counters["full_merges"] += 1
        else:
            self._refresh_chains(state, summaries, tokens, max_rank, backend)
            self.counters["incremental_merges"] += 1
        self._states.move_to_end(max_rank)
        while len(self._states) > self._state_limit:
            self._states.popitem(last=False)
        state.tokens = tokens
        parts = [
            self._shard_final(state, index, summary, tokens, max_rank, backend)
            for index, summary in enumerate(summaries)
        ]
        native = backend.stack_matrices(parts)
        native = backend.take_rows(native, state.order)
        return state.keys, native

    # ------------------------------------------------------------------
    # Grid state construction / refresh
    # ------------------------------------------------------------------
    def _compatible(
        self,
        state: _GridState,
        summaries: Sequence[ShardRankSummary],
        tokens: Tuple[Any, ...],
        backend: Any,
    ) -> bool:
        """Whether the cached state's grid still describes these shards.

        A probability-only update keeps every score in place, so the grid,
        index maps and positions all stay valid; a score update (or a
        shard-count / backend change) moves grid rows and forces a full
        rebuild.
        """
        if state.backend_name != backend.name:
            return False
        if len(state.tokens) != len(tokens):
            return False
        for cached, summary in zip(state.scores, summaries):
            fresh = summary.layout.scores
            if fresh is not cached and fresh != cached:
                return False
        return True

    def _build_grid(
        self,
        summaries: Sequence[ShardRankSummary],
        max_rank: int,
        grid_scores: List[float],
        keys_order: List[Hashable],
        backend: Any,
        count: int,
    ) -> _GridState:
        state = _GridState(count)
        state.backend_name = backend.name
        state.grid = grid_scores
        state.scores = [summary.layout.scores for summary in summaries]
        state.index_maps = [
            backend.index_vector(summary.prefix_indices(grid_scores))
            for summary in summaries
        ]
        # A shard's own scores are a subsequence of the grid, so "grid
        # entries strictly above each score" is exactly each score's grid
        # position (scores are globally distinct).
        state.positions = [
            backend.index_vector(
                backend.descending_prefix_lengths(grid_scores, scores)
            )
            for scores in state.scores
        ]
        for index, summary in enumerate(summaries):
            state.aligned[index] = summary.aligned_count_table(
                grid_scores, state.index_maps[index]
            )
        self._chain(state, range(0, count - 1), range(count - 1, 0, -1),
                    max_rank, backend)
        stacked_keys: List[Hashable] = []
        for summary in summaries:
            stacked_keys.extend(summary.layout.keys)
        position_of = {key: row for row, key in enumerate(stacked_keys)}
        state.order = backend.index_vector(
            [position_of[key] for key in keys_order]
        )
        state.keys = list(keys_order)
        return state

    def _refresh_chains(
        self,
        state: _GridState,
        summaries: Sequence[ShardRankSummary],
        tokens: Tuple[Any, ...],
        max_rank: int,
        backend: Any,
    ) -> None:
        """Re-gather changed shards and recompute only the stale chain rows.

        ``prefix[i]`` contains shards ``0..i`` and is stale iff ``i ≥``
        the lowest changed shard; ``suffix[i]`` contains ``i..S-1`` and is
        stale iff ``i ≤`` the highest changed one.  Everything else is
        reused from cache.
        """
        changed = [
            index
            for index, token in enumerate(tokens)
            if token != state.tokens[index]
        ]
        if not changed:
            return
        for index in changed:
            state.aligned[index] = summaries[index].aligned_count_table(
                state.grid, state.index_maps[index]
            )
            # Re-anchor the identity check so the next merge's compatibility
            # probe hits on ``is`` instead of an O(n) list compare.
            state.scores[index] = summaries[index].layout.scores
        count = len(tokens)
        low, high = min(changed), max(changed)
        self._chain(
            state,
            range(low, count - 1),
            range(min(high, count - 1), 0, -1),
            max_rank,
            backend,
        )

    def _chain(
        self,
        state: _GridState,
        prefix_range: Any,
        suffix_range: Any,
        max_rank: int,
        backend: Any,
    ) -> None:
        """(Re)compute prefix rows over ``prefix_range`` ascending and
        suffix rows over ``suffix_range`` descending.

        ``prefix[S-1]`` / ``suffix[0]`` cover all shards and are never
        consumed, so the ranges stop one short of them.
        """
        count = len(state.aligned)
        for index in prefix_range:
            if index == 0:
                state.prefix[0] = state.aligned[0]
            else:
                state.prefix[index] = self._convolve(
                    state.prefix[index - 1],
                    state.aligned[index],
                    max_rank,
                    backend,
                )
        for index in suffix_range:
            if index == count - 1:
                state.suffix[index] = state.aligned[index]
            else:
                state.suffix[index] = self._convolve(
                    state.aligned[index],
                    state.suffix[index + 1],
                    max_rank,
                    backend,
                )

    # ------------------------------------------------------------------
    # Per-shard finals
    # ------------------------------------------------------------------
    def _shard_final(
        self,
        state: _GridState,
        index: int,
        summary: ShardRankSummary,
        tokens: Tuple[Any, ...],
        max_rank: int,
        backend: Any,
    ) -> Any:
        """Shard ``index``'s final rank rows, reused when nothing moved."""
        count = len(tokens)
        others_key = tokens[:index] + tokens[index + 1 :]
        if state.others_keys[index] != others_key:
            state.others[index] = self._others_rows(
                state, index, count, max_rank, backend
            )
            state.others_keys[index] = others_key
        else:
            self.counters["partials_reused"] += 1
        final_key = (tokens[index], others_key)
        if state.final_keys[index] != final_key:
            if state.local_keys[index] != tokens[index]:
                state.locals[index] = self._local_parts(summary, backend)
                state.local_keys[index] = tokens[index]
            state.finals[index] = self._final_rows(
                state.locals[index], state.others[index], max_rank, backend
            )
            state.final_keys[index] = final_key
        else:
            self.counters["partials_reused"] += 1
        return state.finals[index]

    def _others_rows(
        self,
        state: _GridState,
        index: int,
        count: int,
        max_rank: int,
        backend: Any,
    ) -> Any:
        """``prefix[index-1] ⊛ suffix[index+1]`` at the shard's positions."""
        positions = state.positions[index]
        left = (
            backend.take_rows(state.prefix[index - 1], positions)
            if index > 0
            else None
        )
        right = (
            backend.take_rows(state.suffix[index + 1], positions)
            if index < count - 1
            else None
        )
        if left is None:
            return right
        if right is None:
            return left
        return self._convolve(left, right, max_rank, backend)

    def _local_parts(
        self, summary: ShardRankSummary, backend: Any
    ) -> Tuple[Any, Any, Any]:
        """The shard-content-only inputs of :meth:`_final_rows`.

        ``(local_rows, scale_factors, groups)`` where ``groups`` is
        ``None`` for tuple-independent shards and ``(group_vector,
        group_count)`` for block-independent ones.  Depends only on the
        shard's own summary, so it is cached per version token and an
        incremental re-merge rebuilds it for the changed shard alone.
        """
        layout = summary.layout
        if layout.independent:
            local = backend.take_rows(
                summary.prefix_table, range(len(layout.keys))
            )
            factors = backend.factor_vector(layout.probabilities)
            return local, factors, None
        # Block-independent: one row per alternative (own block excluded),
        # scaled by the alternative's probability and summed per key.
        triples = layout.triples
        local = backend.matrix_from_rows(
            [
                summary.count_above_excluding(score, layout.keys[block])
                for score, _, block in triples
            ]
        )
        factors = backend.factor_vector(
            [probability for _, probability, _ in triples]
        )
        groups = (
            backend.index_vector([block for _, _, block in triples]),
            len(layout.keys),
        )
        return local, factors, groups

    def _final_rows(
        self,
        local_parts: Tuple[Any, Any, Any],
        others_rows: Any,
        max_rank: int,
        backend: Any,
    ) -> Any:
        """Local rank rows ⊛ all-others factor, collapsed to per-key rows."""
        local, factors, groups = local_parts
        rows = (
            self._convolve(local, others_rows, max_rank, backend)
            if others_rows is not None
            else local
        )
        rows = backend.scale_rows(rows, factors)
        if groups is None:
            return rows
        return backend.sum_rows_by_group(rows, groups[0], groups[1])

    def _convolve(
        self, a: Any, b: Any, out_len: int, backend: Any
    ) -> Any:
        self.counters["convolutions"] += 1
        return backend.convolve_rows(a, b, out_len)


# ----------------------------------------------------------------------
# From-scratch merge
# ----------------------------------------------------------------------
def merge_from_scratch(
    summaries: Sequence[ShardRankSummary], max_rank: int, backend: Any
) -> RankMatrix:
    """The global rank matrix of independent shards, merged from scratch.

    Pairs every shard with every other (``S·(S-1)`` row convolutions) and
    keeps no state between calls.  Empty summaries are skipped; rows come
    out in decreasing best-score order, like the engine's.
    """
    summaries = [
        summary for summary in summaries if summary.number_of_tuples() > 0
    ]
    if not summaries:
        return RankMatrix([], backend.matrix_from_rows([]), backend, max_rank)
    if all(summary.is_independent for summary in summaries):
        keys, native, row_scores = _merge_independent(
            summaries, max_rank, backend
        )
    else:
        keys, native, row_scores = _merge_general(summaries, max_rank, backend)
    order = sorted(range(len(keys)), key=lambda row: -row_scores[row])
    native = backend.take_rows(native, order)
    return RankMatrix([keys[row] for row in order], native, backend, max_rank)


def _merge_independent(
    summaries: List[ShardRankSummary], max_rank: int, backend: Any
) -> Tuple[List[Hashable], Any, List[float]]:
    """Batched merge: per shard, one row-gather + convolution per peer.

    For the ``m``-th tuple of shard ``s`` (decreasing score), the local
    rank polynomial is row ``m`` of the shard's prefix table; convolving
    it with every other shard's count-above partial at the tuple's score
    and scaling by the tuple's presence probability yields the exact
    global ``Pr(r(t) = ·)`` row.
    """
    parts: List[Any] = []
    keys: List[Hashable] = []
    row_scores: List[float] = []
    for i, summary in enumerate(summaries):
        count = summary.number_of_tuples()
        scores = summary.scores()
        acc = backend.take_rows(summary.prefix_table, list(range(count)))
        for j, other in enumerate(summaries):
            if j == i:
                continue
            indices = other.prefix_indices(scores)
            gathered = backend.take_rows(other.prefix_table, indices)
            acc = backend.convolve_rows(acc, gathered, max_rank)
        acc = backend.scale_rows(acc, summary.probabilities())
        parts.append(acc)
        keys.extend(summary.keys())
        row_scores.extend(scores)
    return keys, backend.stack_matrices(parts), row_scores


def _merge_general(
    summaries: List[ShardRankSummary], max_rank: int, backend: Any
) -> Tuple[List[Hashable], Any, List[float]]:
    """Scalar merge for block-independent shards.

    ``Pr(r(t) = i) = Σ_{a ∈ alts(t)} p_a · [own shard's count-above
    score(a), t's block excluded] ⊛ [⊛ other shards' count-above
    score(a)]`` -- the per-alternative threshold matters because a BID
    tuple's realized score is itself uncertain.
    """
    rows: List[List[float]] = []
    keys: List[Hashable] = []
    row_scores: List[float] = []
    for i, summary in enumerate(summaries):
        others = [s for j, s in enumerate(summaries) if j != i]
        # Scores are globally distinct, so memoizing the others-product
        # by raw score would never hit.  What *does* repeat across a
        # shard's alternatives is the vector of prefix indices their
        # thresholds induce in the other shards: two thresholds falling
        # in the same inter-score gaps share the exact same product.
        others_products: Dict[Tuple[int, ...], List[float]] = {}
        for key in summary.keys():
            row = [0.0] * max_rank
            pairs = summary.alternatives_of(key)
            for score, probability in pairs:
                if probability <= 0.0:
                    continue
                own = summary.count_above_excluding(score, key)
                if others:
                    signature = tuple(
                        other.prefix_index(score) for other in others
                    )
                    product = others_products.get(signature)
                    if product is None:
                        product = backend.polynomial_product(
                            [
                                other.prefix_polynomial(prefix)
                                for other, prefix in zip(others, signature)
                            ],
                            max_rank,
                        )
                        others_products[signature] = product
                    combined = backend.convolve(own, product, max_rank)
                else:
                    combined = own
                for index in range(min(len(combined), max_rank)):
                    row[index] += probability * combined[index]
            rows.append(row)
            keys.append(key)
            row_scores.append(max(score for score, _ in pairs))
    return keys, backend.matrix_from_rows(rows), row_scores
