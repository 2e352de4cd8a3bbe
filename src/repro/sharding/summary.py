"""Per-shard partial generating-function summaries.

A shard's contribution to any global rank statistic is fully captured by its
*count-above-threshold* distributions: for a threshold ``θ``, the univariate
generating function of the number of present tuples in the shard whose
realized score exceeds ``θ``.  Because scores are distinct, only the
``n_s + 1`` prefixes of the shard's score-sorted alternative list yield
different distributions, so the whole summary is a truncated
``(n_s + 1) × max_rank`` polynomial table -- one backend sweep for
tuple-independent shards (:meth:`~repro.engine.backends.Backend.\
prefix_count_polynomials`), one memoized Bernoulli product per requested
prefix for block-independent shards.

The ``max_rank``-independent part -- key/score/probability columns, block
structure, the decreasing-score alternative stream -- is a
:class:`ShardLayout`.  A partitioned database builds it straight from a
shard's partition units (:meth:`ShardLayout.from_units`) and keeps it as the
shard's whole state: summaries at several truncations and the coordinator's
merged key space all read it, and an update derives the next layout from
the current one (:meth:`ShardLayout.replaced`), re-sweeping prefix tables
only from the first changed row.  A standalone session extracts the same
layout from its tree (:func:`shard_layout`, memoized as a session artifact).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.engine import get_backend
from repro.exceptions import ModelError, ProbabilityError
from repro.session import ArtifactCounters, CacheInfo


class ShardLayout:
    """One shard's columnar state.

    Tuple-independent shards are three score-sorted columns -- keys,
    presence probabilities, scores; block-independent (BID) shards are
    their blocks plus the decreasing-score alternative stream with a block
    id per alternative.  The dictionaries and triple lists beside the
    columns are derived from them once per layout.  This is everything the
    coordinator reads of a shard: the merged key space, the score grid and,
    through :meth:`summary`, a :class:`ShardRankSummary` per truncation
    over tables memoized here (for tuple-independent shards, the prefix
    count-polynomial table).  The layout memoizes the tables, not the
    summaries: a summary references its layout, so caching summaries here
    would make every layout a reference cycle that outlives its
    supersession until the cycle collector runs.

    Layouts are immutable.  An update builds the next one with
    :meth:`replaced`; :meth:`adopt_tables` then lets it resume the previous
    layout's prefix tables from the first changed row instead of sweeping
    them again.
    """

    __slots__ = (
        "independent",
        "keys",
        "probabilities",
        "presence",
        "alternatives",
        "best_score",
        "block_of",
        "triples",
        "key_triples",
        "scores",
        "_lock",
        "_tables",
        "_bases",
        "_hits",
        "_misses",
        "__weakref__",
    )

    def __init__(self, session: Any) -> None:
        layout = session.independent_tuple_layout()
        if layout is not None:
            self._set_independent(
                [key for key, _, _ in layout],
                [score for _, _, score in layout],
                [probability for _, probability, _ in layout],
            )
        else:
            self._set_blocks(*_tree_blocks(session))

    @classmethod
    def from_units(cls, units: Sequence[Any]) -> "ShardLayout":
        """The layout of a shard's partition units, built without a tree.

        Field for field what :class:`ShardLayout` reads off the shard's
        and/xor tree, with the same validation: probabilities in range,
        block masses at most one, numeric scores, and no two tuples sharing
        a score.
        """
        blocks = [
            (unit[1], _unit_alternatives(unit)) for unit in units
        ]
        self = cls.__new__(cls)
        if all(len(alternatives) == 1 for _, alternatives in blocks):
            rows = sorted(
                (
                    (_score_of(key, value, score), probability, key)
                    for key, [(value, score, probability)] in blocks
                ),
                key=lambda row: -row[0],
            )
            _reject_ties(rows)
            self._set_independent(
                [key for _, _, key in rows],
                [score for score, _, _ in rows],
                [probability for _, probability, _ in rows],
            )
            return self
        keys = []
        alternatives: Dict[Hashable, List[Tuple[float, float]]] = {}
        for key, block in blocks:
            if not block:
                continue  # an empty block never produces a tuple
            keys.append(key)
            alternatives[key] = [
                (_score_of(key, value, score), probability)
                for value, score, probability in block
            ]
        self._set_blocks(keys, alternatives)
        _reject_ties(self.key_triples)
        return self

    def _set_independent(
        self,
        keys: List[Hashable],
        scores: List[float],
        probabilities: List[float],
    ) -> None:
        self.independent = True
        self.keys = keys
        self.scores = scores
        self.probabilities = probabilities
        self.block_of = {key: index for index, key in enumerate(keys)}
        self.alternatives = {
            key: [(score, probability)]
            for key, score, probability in zip(keys, scores, probabilities)
        }
        self.triples = [
            (score, probability, index)
            for index, (score, probability) in enumerate(
                zip(scores, probabilities)
            )
        ]
        self.key_triples = list(zip(scores, probabilities, keys))
        self.presence = dict(zip(keys, probabilities))
        self.best_score = dict(zip(keys, scores))
        self._init_caches()

    def _set_blocks(
        self,
        keys: List[Hashable],
        alternatives: Dict[Hashable, List[Tuple[float, float]]],
    ) -> None:
        self.independent = False
        self.keys = keys
        self.alternatives = alternatives
        self.block_of = {key: index for index, key in enumerate(keys)}
        triples = [
            (score, probability, block)
            for block, key in enumerate(keys)
            for score, probability in alternatives[key]
        ]
        triples.sort(key=lambda item: -item[0])
        self.triples = triples
        self.key_triples = [
            (score, probability, keys[block])
            for score, probability, block in triples
        ]
        self.scores = [score for score, _, _ in triples]
        self.probabilities = [
            sum(p for _, p in alternatives[key]) for key in keys
        ]
        self.presence = dict(zip(keys, self.probabilities))
        self.best_score = {
            key: max(score for score, _ in alternatives[key]) for key in keys
        }
        self._init_caches()

    def _init_caches(self) -> None:
        self._lock = threading.Lock()
        #: (backend name, max_rank) -> memoized summary tables.
        self._tables: Dict[Tuple[str, int], _SummaryTables] = {}
        #: (backend name, max_rank) -> (earlier table, first stale row).
        self._bases: Dict[Tuple[str, int], Tuple[Any, int]] = {}
        self._hits = 0
        self._misses = 0

    # -- pickling: columns only, caches are per process -----------------
    def __getstate__(self) -> Tuple[Any, ...]:
        if self.independent:
            return (True, self.keys, self.scores, self.probabilities)
        return (False, self.keys, self.alternatives)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        if state[0]:
            self._set_independent(*state[1:])
        else:
            self._set_blocks(*state[1:])

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def replaced(
        self, units: Sequence[Any], key: Hashable, unit: Any
    ) -> "ShardLayout":
        """The layout after ``key``'s unit became ``unit``.

        ``units`` is the shard's full replacement unit list.  A
        tuple-independent tuple that keeps its score changes one
        probability entry; one whose score moved is deleted and re-inserted
        at its new position.  Everything else (BID blocks) rebuilds this
        shard's columns from ``units``.  Unchanged columns are shared with
        this layout, never copied.
        """
        alternatives = _unit_alternatives(unit)
        if not self.independent or len(alternatives) != 1:
            return ShardLayout.from_units(units)
        (value, score, probability), = alternatives
        score = _score_of(key, value, score)
        row = self.block_of[key]
        layout = ShardLayout.__new__(ShardLayout)
        if score == self.scores[row]:
            probabilities = list(self.probabilities)
            probabilities[row] = probability
            layout.independent = True
            layout.keys = self.keys
            layout.scores = self.scores
            layout.probabilities = probabilities
            layout.block_of = self.block_of
            layout.best_score = self.best_score
            layout.alternatives = dict(self.alternatives)
            layout.alternatives[key] = [(score, probability)]
            layout.presence = dict(self.presence)
            layout.presence[key] = probability
            layout.triples = list(self.triples)
            layout.triples[row] = (score, probability, row)
            layout.key_triples = list(self.key_triples)
            layout.key_triples[row] = (score, probability, key)
            layout._init_caches()
            return layout
        keys = self.keys[:row] + self.keys[row + 1:]
        scores = self.scores[:row] + self.scores[row + 1:]
        probabilities = (
            self.probabilities[:row] + self.probabilities[row + 1:]
        )
        position = bisect_left([-other for other in scores], -score)
        for neighbour in (position - 1, position):
            if 0 <= neighbour < len(scores) and scores[neighbour] == score:
                raise ModelError(
                    f"tuples {keys[neighbour]!r} and {key!r} share score "
                    f"{score}; ranking assumes distinct scores"
                )
        keys.insert(position, key)
        scores.insert(position, score)
        probabilities.insert(position, probability)
        layout._set_independent(keys, scores, probabilities)
        return layout

    def adopt_tables(self, previous: "ShardLayout") -> None:
        """Resume ``previous``'s prefix tables instead of re-sweeping them.

        Row ``m`` of a prefix table depends only on the first ``m``
        (score-sorted) probabilities, so every table ``previous`` holds --
        or was itself going to resume -- stays valid up to the first row
        where the two layouts' columns differ.  Each becomes a base that
        :meth:`summary` sweeps forward from that row, lazily, on the next
        request for its truncation.
        """
        if not (self.independent and previous.independent):
            return
        start = _first_change(previous, self)
        with previous._lock:
            bases = {
                key: (table, min(row, start))
                for key, (table, row) in previous._bases.items()
            }
            for key, tables in previous._tables.items():
                bases[key] = (tables.prefix, start)
        with self._lock:
            for key, base in bases.items():
                if key not in self._tables:
                    self._bases.setdefault(key, base)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self, max_rank: int) -> "ShardRankSummary":
        """The :class:`ShardRankSummary` at one truncation, over memoized
        tables (every call's summary shares them)."""
        backend = get_backend()
        max_rank = max(int(max_rank), 1)
        key = (backend.name, max_rank)
        with self._lock:
            tables = self._tables.get(key)
            if tables is not None:
                self._hits += 1
            else:
                self._misses += 1
                table = None
                if self.independent:
                    base = self._bases.pop(key, (None, 0))
                    table = backend.prefix_count_polynomials(
                        self.probabilities, max_rank, *base
                    )
                tables = self._tables[key] = _SummaryTables(table)
        return ShardRankSummary._over(self, max_rank, tables)

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the per-truncation summaries."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._tables),
                backend=get_backend().name,
                artifacts={
                    "rank_partials": ArtifactCounters(
                        self._hits, self._misses
                    )
                },
            )


def _tree_blocks(
    session: Any,
) -> Tuple[List[Hashable], Dict[Hashable, List[Tuple[float, float]]]]:
    """Read the block-independent (BID) layout off a session's tree."""
    root = session.tree.root
    if not isinstance(root, AndNode):
        raise ModelError(
            "shard summaries require a tuple-independent or "
            "block-independent database layout"
        )
    keys: List[Hashable] = []
    alternatives: Dict[Hashable, List[Tuple[float, float]]] = {}
    for child in root.children():
        if not isinstance(child, XorNode):
            raise ModelError(
                "shard summaries require xor blocks directly under the "
                "and root (tuple-independent or BID layout)"
            )
        block_key: Optional[Hashable] = None
        block: List[Tuple[float, float]] = []
        for leaf, probability in child.edges():
            if not isinstance(leaf, Leaf):
                raise ModelError(
                    "shard summaries require leaf-only xor blocks "
                    "(tuple-independent or BID layout)"
                )
            if block_key is None:
                block_key = leaf.alternative.key
            elif leaf.alternative.key != block_key:
                raise ModelError(
                    "shard summaries require same-key alternatives "
                    "within each block (BID layout)"
                )
            block.append(
                (session.score_of(leaf.alternative), float(probability))
            )
        if block_key is None:
            continue  # empty block: never produces a tuple
        if block_key in alternatives:
            raise ModelError(
                f"duplicate block key {block_key!r} in shard layout"
            )
        keys.append(block_key)
        alternatives[block_key] = block
    return keys, alternatives


def _unit_alternatives(unit: Any) -> List[Tuple[Any, Any, float]]:
    """A partition unit's validated ``(value, score, probability)`` list.

    The same checks the tree builders apply: an independent tuple's
    probability lies in [0, 1]; a block's are non-negative (tiny negative
    rounding is clamped to zero) and sum to at most one.
    """
    if unit[0] == "independent":
        _, _, value, score, probability = unit
        probability = float(probability)
        if not 0.0 <= probability <= 1.0 + 1e-12:
            raise ProbabilityError(
                f"tuple probability {probability} outside [0, 1]"
            )
        return [(value, score, probability)]
    block = []
    for value, score, probability in unit[2]:
        probability = float(probability)
        if probability < -1e-12:
            raise ProbabilityError(
                f"negative xor edge probability {probability}"
            )
        block.append((value, score, max(probability, 0.0)))
    total = sum(probability for _, _, probability in block)
    if total > 1.0 + 1e-9:
        raise ProbabilityError(
            f"xor node edge probabilities sum to {total} > 1"
        )
    return block


def _score_of(key: Hashable, value: Any, score: Any) -> float:
    """:meth:`~repro.core.tuples.TupleAlternative.effective_score`."""
    if score is not None:
        return float(score)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(
            f"alternative ({key!r}, {value!r}) has no numeric score; "
            "provide an explicit score for ranking queries"
        )
    return float(value)


def _reject_ties(rows: Sequence[Tuple[float, float, Hashable]]) -> None:
    """Reject two tuples sharing a score in a decreasing-score stream."""
    for first, second in zip(rows, rows[1:]):
        if first[0] == second[0] and first[2] != second[2]:
            raise ModelError(
                f"tuples {first[2]!r} and {second[2]!r} share score "
                f"{first[0]}; ranking assumes distinct scores"
            )


def _first_change(old: ShardLayout, new: ShardLayout) -> int:
    """First row at which two tuple-independent layouts' columns differ."""
    limit = min(len(old.keys), len(new.keys))
    first = limit
    pairs = [(old.probabilities, new.probabilities)]
    if old.scores is not new.scores:
        pairs.append((old.scores, new.scores))
    for before, after in pairs:
        for index in range(first):
            if before[index] != after[index]:
                first = index
                break
    return first


def shard_layout(session: Any) -> ShardLayout:
    """The session's memoized :class:`ShardLayout` (one per generation)."""
    return session._memoized("shard_layout", (), ShardLayout)


class _SummaryTables:
    """The memoized tables behind one truncation of one layout.

    Shared by every :class:`ShardRankSummary` the layout hands out at that
    truncation; holds no reference back to the layout or a summary.
    """

    __slots__ = ("prefix", "dense", "blocks", "excluding", "neg_scores")

    def __init__(self, prefix: Any = None) -> None:
        self.prefix = prefix
        self.dense: Any = None
        self.blocks: Dict[int, List[float]] = {}
        self.excluding: Dict[Tuple[int, int], List[float]] = {}
        # Ascending negated scores make "number of scores > θ" a bisect.
        self.neg_scores: Optional[List[float]] = None


class ShardRankSummary:
    """Truncated rank-polynomial summary of one database shard.

    Parameters
    ----------
    session:
        The shard's :class:`~repro.session.QuerySession` (tuple-independent
        or block-independent layout; anything else raises
        :class:`~repro.exceptions.ModelError`).
    max_rank:
        Number of coefficients kept per partial polynomial.  Convolving
        truncated partials is exact for every coefficient below the
        truncation point, so ``max_rank = k`` suffices for Top-k answers.
    """

    def __init__(self, session: Any, max_rank: int) -> None:
        self._bind(shard_layout(session), max_rank, _SummaryTables())

    @classmethod
    def from_layout(
        cls,
        layout: ShardLayout,
        max_rank: int,
        prefix_table: Any = None,
    ) -> "ShardRankSummary":
        """Rebuild a summary from exported state, without a session.

        Used by the process-backed execution layer: a shard worker ships
        its (picklable) :class:`ShardLayout` plus, for tuple-independent
        shards, the dense prefix polynomial table (over a pipe or a
        shared-memory segment); the coordinator reconstructs an equivalent
        summary against the parent's active backend.  A missing
        ``prefix_table`` is recomputed lazily from the layout's
        probabilities -- identical coefficients, just without reusing the
        worker's sweep.
        """
        return cls._over(layout, max_rank, _SummaryTables(prefix_table))

    @classmethod
    def _over(
        cls, layout: ShardLayout, max_rank: int, tables: _SummaryTables
    ) -> "ShardRankSummary":
        self = cls.__new__(cls)
        self._bind(layout, max_rank, tables)
        return self

    def _bind(
        self, layout: ShardLayout, max_rank: int, tables: _SummaryTables
    ) -> None:
        self._max_rank = max(int(max_rank), 1)
        self._backend = get_backend()
        self._layout = layout
        self._tables = tables

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def layout(self) -> ShardLayout:
        """The shared truncation-independent shard layout."""
        return self._layout

    @property
    def is_independent(self) -> bool:
        """True for tuple-independent shards (enables the batched merge)."""
        return self._layout.independent

    @property
    def max_rank(self) -> int:
        """Number of coefficients kept per partial polynomial."""
        return self._max_rank

    def keys(self) -> List[Hashable]:
        """Tuple keys of the shard (decreasing score for independent shards)."""
        return list(self._layout.keys)

    def number_of_tuples(self) -> int:
        return len(self._layout.keys)

    def presence_probability(self, key: Hashable) -> float:
        """``Pr(t present)`` for one tuple key of the shard."""
        return self._layout.presence[key]

    def probabilities(self) -> List[float]:
        """Per-key presence probabilities aligned with :meth:`keys`."""
        return list(self._layout.probabilities)

    def scores(self) -> List[float]:
        """Alternative scores in decreasing order."""
        return list(self._layout.scores)

    def alternatives_of(self, key: Hashable) -> List[Tuple[float, float]]:
        """``(score, probability)`` pairs of one tuple's alternatives."""
        return list(self._layout.alternatives[key])

    def alternative_triples(self) -> List[Tuple[float, float, Hashable]]:
        """All ``(score, probability, key)`` triples, decreasing score."""
        return list(self._layout.key_triples)

    # ------------------------------------------------------------------
    # Partial generating functions
    # ------------------------------------------------------------------
    def prefix_index(self, threshold: float) -> int:
        """Number of shard alternatives scoring strictly above ``threshold``."""
        tables = self._tables
        if tables.neg_scores is None:
            tables.neg_scores = [-score for score in self._layout.scores]
        return bisect_left(tables.neg_scores, -threshold)

    def prefix_indices(self, thresholds_desc: List[float]) -> List[int]:
        """:meth:`prefix_index` for a decreasing threshold sequence.

        One backend sweep (two-pointer merge / vectorized bisect) instead
        of a bisect per threshold -- the coordinator calls this with
        another shard's score column.
        """
        return self._backend.descending_prefix_lengths(
            self._layout.scores, thresholds_desc
        )

    @property
    def prefix_table(self) -> Any:
        """The native ``(n_s + 1) × max_rank`` prefix polynomial table.

        Row ``m`` holds the count distribution of the first ``m``
        (score-sorted) tuples; only defined for independent shards, where
        it is produced by one backend sweep.
        """
        if not self._layout.independent:
            raise ModelError(
                "the dense prefix table exists only for tuple-independent "
                "shards; use count_above() on block-independent shards"
            )
        tables = self._tables
        if tables.prefix is None:
            tables.prefix = self._backend.prefix_count_polynomials(
                self._layout.probabilities, self._max_rank
            )
        return tables.prefix

    def _block_masses(self, prefix: int) -> Dict[int, float]:
        """Per-block probability mass among the first ``prefix`` alternatives."""
        masses: Dict[int, float] = {}
        for score, probability, block in self._layout.triples[:prefix]:
            masses[block] = masses.get(block, 0.0) + probability
        return masses

    def prefix_polynomial(self, prefix: int) -> List[float]:
        """Count distribution of the first ``prefix`` alternatives.

        The prefix-indexed form of :meth:`count_above`: two thresholds with
        the same prefix index have identical distributions, so callers that
        already hold prefix indices (the coordinator's per-threshold
        memoization, the grid-aligned tables) skip the bisect.
        """
        if self._layout.independent:
            return self._backend.matrix_row(self.prefix_table, prefix)
        cached = self._tables.blocks.get(prefix)
        if cached is None:
            masses = self._block_masses(prefix)
            cached = _pad(
                self._backend.bernoulli_product(
                    [mass for mass in masses.values() if mass > 0.0],
                    self._max_rank,
                ),
                self._max_rank,
            )
            self._tables.blocks[prefix] = cached
        return cached

    def count_above(self, threshold: float) -> List[float]:
        """Coefficients of the count-above-``threshold`` distribution.

        This is the partial univariate generating function the coordinator
        convolves across shards: coefficient ``j`` is the probability that
        exactly ``j`` tuples of this shard are present with realized score
        above ``threshold`` (truncated at ``max_rank`` coefficients).
        """
        return self.prefix_polynomial(self.prefix_index(threshold))

    def count_table(self) -> Any:
        """The native ``(n_s + 1) × max_rank`` count-above table, both kinds.

        Row ``m`` is :meth:`prefix_polynomial` for prefix ``m``.  For
        tuple-independent shards this is exactly :attr:`prefix_table`; for
        block-independent shards the rows are the memoized Bernoulli
        products, densified once so the incremental merge engine can gather
        grid-aligned rows with one backend call per shard.
        """
        if self._layout.independent:
            return self.prefix_table
        tables = self._tables
        if tables.dense is None:
            tables.dense = self._backend.matrix_from_rows(
                [
                    self.prefix_polynomial(prefix)
                    for prefix in range(len(self._layout.scores) + 1)
                ]
            )
        return tables.dense

    def aligned_count_table(
        self, grid_scores_desc: List[float], indices: Optional[List[int]] = None
    ) -> Any:
        """Rows of :meth:`count_table` aligned with a shared score grid.

        ``grid_scores_desc`` is the coordinator's merged decreasing score
        grid; row ``g`` of the result is this shard's count-above
        distribution at threshold ``grid_scores_desc[g]``.  Pass cached
        ``indices`` (from :meth:`prefix_indices`) to skip the sweep when
        the grid and the shard's scores are both unchanged.
        """
        if indices is None:
            indices = self.prefix_indices(grid_scores_desc)
        return self._backend.take_rows(self.count_table(), indices)

    def count_above_excluding(
        self, threshold: float, key: Hashable
    ) -> List[float]:
        """:meth:`count_above`, with ``key``'s own block left out.

        Used for the shard that owns the query tuple: its other blocks are
        independent of the tuple's realization, but alternatives of the
        tuple's own block are mutually exclusive with it and must not be
        counted.
        """
        prefix = self.prefix_index(threshold)
        block = self._layout.block_of[key]
        if self._layout.independent:
            # With distinct scores a tuple never outscores its own
            # threshold, so the prefix cannot contain the excluded key.
            return self._backend.matrix_row(self.prefix_table, prefix)
        cache_key = (prefix, block)
        cached = self._tables.excluding.get(cache_key)
        if cached is None:
            masses = self._block_masses(prefix)
            masses.pop(block, None)
            cached = _pad(
                self._backend.bernoulli_product(
                    [mass for mass in masses.values() if mass > 0.0],
                    self._max_rank,
                ),
                self._max_rank,
            )
            self._tables.excluding[cache_key] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "independent" if self._layout.independent else "block"
        return (
            f"ShardRankSummary({len(self._layout.keys)} tuples, "
            f"kind={kind!r}, max_rank={self._max_rank})"
        )


def _pad(coefficients: List[float], length: int) -> List[float]:
    if len(coefficients) >= length:
        return coefficients[:length]
    return coefficients + [0.0] * (length - len(coefficients))


def table_delta_start(
    old_probabilities: List[float], new_probabilities: List[float]
) -> Optional[int]:
    """First prefix-table row invalidated by a probability change.

    Row ``m`` of a prefix count-polynomial table depends only on the first
    ``m`` probabilities, so when two same-score layouts differ first at
    probability index ``d``, rows ``0 .. d`` are identical and only rows
    ``d + 1 ..`` need to cross the process boundary.  Returns ``None``
    when the lists differ in length (no usable delta) and
    ``len + 1`` (an empty suffix) when nothing changed.
    """
    if len(old_probabilities) != len(new_probabilities):
        return None
    for index, (old, new) in enumerate(
        zip(old_probabilities, new_probabilities)
    ):
        if old != new:
            return index + 1
    return len(new_probabilities) + 1
