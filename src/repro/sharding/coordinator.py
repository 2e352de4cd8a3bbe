"""The cross-shard coordinator session.

:class:`ShardedQuerySession` is a :class:`~repro.session.QuerySession`
drop-in built over the per-shard sessions of a partitioned database.  It
never materializes a global tree for statistics: the rank generating
function of independent shards factorizes, so the coordinator recovers the
exact global ``Pr(r(t) = i)`` matrix by convolving each tuple's *local*
rank polynomial (its own shard, own block excluded) with the other shards'
count-above-threshold partials (:class:`~repro.sharding.summary.\
ShardRankSummary`).  For all-tuple-independent shardings the whole merge is
a handful of batched backend kernels (row gathers + row-aligned truncated
convolutions); block-independent shards take an equivalent scalar path.

Every consensus algorithm of :mod:`repro.consensus` then runs unchanged at
the coordinator -- the Top-k answers under the symmetric-difference,
intersection, footrule and (via the merged pairwise grid) Kendall metrics
are computed from merged statistics and are semantically identical to a
single unsharded session over the same data.

Two properties make the coordinator honest under sustained mixed traffic:

* **Incremental merging**: the merge at the current version vector runs
  through :class:`~repro.sharding.merge.MergeEngine`, which keeps
  prefix/suffix partial products of the per-shard count-above polynomials
  on one shared score grid, keyed by per-shard version tokens.  A full
  merge is O(S) row convolutions and a single-shard update recomputes only
  the partial-product rows containing that shard.
* **MVCC, one entry per vector**: every merged artifact (memoized
  answers, merged layout, merged tree and its statistics) lives in the
  entry of the version vector it was computed at, in a small bounded LRU
  store.  A shard still at the vector's version resolves to its live
  generation; a superseded one to the archive the owning database filed
  right before the update.  Updates publish a new vector, so in-flight
  readers keep answering from their pinned snapshot without blocking or
  racing the writer; a superseded vector merges from scratch
  (:func:`~repro.sharding.merge.merge_from_scratch`) so it never thrashes
  the engine's partials, and one whose shard versions left the bounded
  history raises :class:`~repro.exceptions.SnapshotTooOldError`.

A read fixes its vector one way: through the session it runs on.  A
:class:`SnapshotReader` (:meth:`ShardedQuerySession.at`) reads at its
pinned vector.  The coordinator reads each call at the vector current when
the call begins, and computes a memoized artifact it lacks on a reader
pinned there, so the whole computation reads one entry.  Several calls
that must agree on one vector go through one reader: the query connection
pins one per query or batch, the serving executor one per ingress vector.

Over a :class:`~repro.models.sharded.ShardedDatabase` the coordinator reads
shards through one path whichever executor runs them: the columns come
from the database (the parent holds every shard's columns), summaries
from its shard provider -- :class:`~repro.models.sharded.LocalShards`
in-process, the :class:`~repro.sharding.procpool.ShardProcessPool` under
``executor="processes"``.  Shard trees are built only for the tree-level
fallbacks (:attr:`ShardedQuerySession.tree`, world sampling, ...).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.andxor.nodes import AndNode
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.engine import PairwisePreferenceMatrix, RankMatrix, get_backend
from repro.exceptions import ModelError, SnapshotTooOldError
from repro.session import QuerySession, as_session
from repro.sharding.merge import (
    MergeEngine,
    MergeStatsSnapshot,
    merge_from_scratch,
)
from repro.sharding.summary import ShardLayout, ShardRankSummary, shard_layout


class _MergedLayout(NamedTuple):
    """Light per-coordinator index of the merged key/alternative space."""

    keys_order: List[Hashable]
    presence: Dict[Hashable, float]
    alternatives: Dict[Hashable, List[Tuple[float, float]]]
    best_score: Dict[Hashable, float]
    triples: List[Tuple[float, float, Hashable]]
    independent: bool
    #: Key -> position of its shard among the non-empty shards.
    key_to_shard: Dict[Hashable, int]
    grid_scores: List[float]


class _VersionEntry:
    """Memoized merged artifacts of one version vector."""

    __slots__ = (
        "vector", "cache", "layout", "sources", "statistics", "merged_tree"
    )

    def __init__(self, vector: Any) -> None:
        self.vector = vector
        self.cache: Dict[Any, Any] = {}
        self.clear()

    def clear(self) -> None:
        # Reads in flight may still hold the entry: empty it in place.
        self.cache.clear()
        self.layout: Optional[_MergedLayout] = None
        self.sources: Optional[List[Any]] = None
        self.statistics: Optional[RankStatistics] = None
        self.merged_tree: Optional[AndXorTree] = None


class _ShardArchive:
    """One shard's frozen generation at a historical version.

    Created by the owning database right before an update swaps the
    shard's generation, so readers pinned at the outgoing version can
    still resolve it: the generation keeps its columns (and their
    memoized summaries) and its units, for a tree consumer; the summaries
    the shard provider had already fetched for that version are adopted
    too.
    """

    __slots__ = ("state", "_summaries")

    def __init__(self, shard: Any, provider: Any) -> None:
        self.state = shard._state
        self._summaries: Dict[int, ShardRankSummary] = (
            provider.cached_summaries(shard.index, self.state.version)
        )

    def summary(self, max_rank: int) -> ShardRankSummary:
        adopted = self._summaries.get(max_rank)
        if adopted is not None:
            return adopted
        return self.state.layout().summary(max_rank)  # memoized there


class _SharedState:
    """The MVCC state a coordinator shares with its snapshot readers.

    The bounded per-vector artifact store, the per-shard archive history,
    the merge engine, the merged-layout patch base and the rank-key index.
    """

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.lock = threading.Lock()
        self.engine = MergeEngine()
        self.store: "OrderedDict[Any, _VersionEntry]" = OrderedDict()
        self.history: Dict[int, "OrderedDict[int, _ShardArchive]"] = {}
        #: ``(per-shard columns, merged layout)`` of the last layout built,
        #: at whichever vector: the base the next layout patches from.
        self.patch_base: Optional[Tuple[List[Any], _MergedLayout]] = None
        self.rank_key_index: Optional[Tuple[Any, Dict[Hashable, int]]] = None


class ShardedQuerySession(QuerySession):
    """Coordinator session merging statistics across database shards.

    Parameters
    ----------
    shards:
        Either a :class:`~repro.models.sharded.ShardedDatabase` (the
        coordinator then reads at its current shard-version vector, each
        vector with its own artifact entry) or an iterable of per-shard
        sources (trees, :class:`RankStatistics` or sessions) with disjoint
        tuple keys.
    validate_scores:
        Require pairwise-distinct scores *across* shards (each shard only
        validates its own); the merge semantics assume the paper's no-ties
        ranking.
    snapshot_history:
        How many version vectors (and per-shard archived states) to retain
        for pinned snapshot readers; older pins raise
        :class:`~repro.exceptions.SnapshotTooOldError`.
    """

    def __init__(
        self,
        shards: Any,
        validate_scores: bool = True,
        snapshot_history: int = 4,
    ) -> None:
        if hasattr(shards, "sessions") and hasattr(shards, "versions"):
            self._database: Optional[Any] = shards
            self._static_sessions: Optional[List[QuerySession]] = None
        else:
            if isinstance(shards, (AndXorTree, RankStatistics, QuerySession)):
                raise TypeError(
                    "expected a ShardedDatabase or an iterable of shard "
                    "sources; a single database has nothing to merge"
                )
            self._database = None
            self._static_sessions = [
                as_session(source) for source in shards
            ]
        self._validate_scores = validate_scores
        self._shared = _SharedState(max(1, int(snapshot_history)))
        self._init_cache_state()

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    def _current_vector(self) -> Any:
        """The current version vector: the database's shard versions, or
        the static shard sessions' generations."""
        if self._database is not None:
            return tuple(self._database.versions())
        return tuple(session.generation for session in self._static_sessions)

    def _vector(self) -> Any:
        """The version vector this session reads at (the coordinator: the
        current one; a reader: its pinned one)."""
        return self._current_vector()

    def _pinned_generation(
        self, shard: Any, vector: Any
    ) -> Tuple[Any, Optional[_ShardArchive]]:
        """``(generation, archive)`` of one database shard at ``vector``.

        The live generation (archive ``None``) while the shard is still at
        the vector's version, else the archived one; raises
        :class:`~repro.exceptions.SnapshotTooOldError` once that version
        left the bounded history.
        """
        version = vector[shard.index]
        state = shard._state
        if state.version == version:
            return state, None
        shared = self._shared
        with shared.lock:
            archive = shared.history.get(shard.index, {}).get(version)
        if archive is None:
            raise SnapshotTooOldError(
                f"shard {shard.index} version {version} is no longer in the "
                f"coordinator's snapshot history (depth {shared.depth}); "
                "re-pin at the current vector"
            )
        return archive.state, archive

    def _static_shards(self, vector: Any) -> List[QuerySession]:
        """The static shard sessions, which keep no history."""
        if vector != self._current_vector():
            raise SnapshotTooOldError(
                "static shard sessions keep no history; this pinned "
                "snapshot predates a session invalidation"
            )
        return self._static_sessions

    def _shard_fragments(self, vector: Any) -> List[Tuple[ShardLayout, Any]]:
        """``(columns, source)`` per non-empty shard at ``vector``.

        The source answers :meth:`score_of` / :meth:`alternatives_of` for
        the shard's keys: the shard's generation for a database, the
        session itself for static sources.
        """
        if self._database is None:
            return [
                (shard_layout(session), session)
                for session in self._static_shards(vector)
            ]
        states = [
            self._pinned_generation(shard, vector)[0]
            for shard in self._database.shards()
        ]
        return [(state.layout(), state) for state in states if state.units]

    def _sources(self, entry: _VersionEntry) -> List[Any]:
        """The sources of :meth:`_shard_fragments` at the entry's vector."""
        if entry.sources is None:
            entry.sources = [
                source for _, source in self._shard_fragments(entry.vector)
            ]
        return entry.sources

    @property
    def shard_count(self) -> int:
        """Number of (non-empty) shards behind the coordinator."""
        if self._database is not None:
            return sum(
                1 for shard in self._database.shards() if not shard.is_empty
            )
        return len(self._static_sessions)

    @property
    def deployment(self) -> str:
        """Deployment kind for the query planner."""
        return "sharded"

    def layout_kind(self) -> str:
        """Model layout, read off a shard (never off the merged tree).

        All shards of one database share a layout by construction, so the
        first non-empty shard answers for the whole coordinator -- from
        its units, without building its columns or its tree.
        """
        if self._database is not None:
            for shard in self._database.shards():
                if not shard.is_empty:
                    return shard._state.layout_kind()
            return "general"
        if not self._static_sessions:
            return "general"
        return self._static_sessions[0].layout_kind()

    # ------------------------------------------------------------------
    # Version store (MVCC)
    # ------------------------------------------------------------------
    def _entry(self) -> _VersionEntry:
        """The artifact entry of the vector this session reads at, created
        on first use; the store keeps the ``snapshot_history`` most
        recently read vectors."""
        vector = self._vector()
        shared = self._shared
        with shared.lock:
            entry = shared.store.get(vector)
            if entry is None:
                entry = shared.store[vector] = _VersionEntry(vector)
                while len(shared.store) > shared.depth:
                    shared.store.popitem(last=False)
                    shared.engine.counters["snapshot_evictions"] += 1
            else:
                shared.store.move_to_end(vector)
        return entry

    def _memo_scope(self) -> Tuple[Dict[Any, Any], Any]:
        entry = self._entry()
        return entry.cache, entry.vector

    @contextmanager
    def _pinned_read(
        self, vector: Any = None
    ) -> Iterator["ShardedQuerySession"]:
        """A reader pinned at ``vector`` (default: the current one) whose
        reads count as this coordinator's cache hits and misses.

        A memoized artifact is computed on the reader pinned at the vector
        of the entry it fills, so an update landing mid-computation can
        neither mix two vectors' shards into one artifact nor file an
        artifact under another vector's entry."""
        self._sync_backend()
        reader = SnapshotReader(
            self, self._current_vector() if vector is None else vector
        )
        reader._artifact_hits = self._artifact_hits
        reader._artifact_misses = self._artifact_misses
        yield reader

    def invalidate(self) -> None:
        """Drop every merged artifact, snapshot entry and cached partial."""
        shared = self._shared
        with shared.lock:
            for entry in shared.store.values():
                entry.clear()
            shared.store.clear()
            shared.history.clear()
            shared.patch_base = None
        shared.engine.clear()
        self._generation += 1

    def set_scoring(self, scoring) -> None:
        raise ValueError(
            "a sharded coordinator fixes its scoring at the shards; "
            "rebuild the shard databases (or their sessions) to re-score"
        )

    def merge_stats(self) -> MergeStatsSnapshot:
        """Counters of the incremental merge engine (snapshot, subtractable)."""
        return self._shared.engine.stats()

    def version_token(self, versions: Any = None) -> Tuple[Any, ...]:
        """Result-cache token: the shard-version vector, not a generation.

        Database-backed coordinators answer purely from shard state, so
        the per-shard version vector (plus the coordinator's own
        generation, which only :meth:`invalidate` bumps) is the
        invalidation signal -- a single-shard update changes the vector and
        naturally misses the cache, while unrelated shards' entries stay
        servable.  ``versions`` pins the token at an explicit vector (the
        serving executor passes the vector captured at request ingress).
        """
        vector = (
            self._current_vector() if versions is None else tuple(versions)
        )
        return ("sharded", self._session_token, self._generation, vector)

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def at(self, versions: Optional[Sequence[int]] = None) -> "SnapshotReader":
        """A read-only session pinned at one shard-version vector.

        ``versions`` is a per-shard version tuple as returned by
        :meth:`~repro.models.sharded.ShardedDatabase.versions` (default:
        the current vector).  The reader answers every query exactly as
        the coordinator did at that vector, even while updates publish
        newer vectors concurrently; once the vector leaves the bounded
        snapshot history, reads raise
        :class:`~repro.exceptions.SnapshotTooOldError`.
        """
        if versions is None:
            pinned = self._current_vector()
        elif self._database is None:
            raise ValueError(
                "a static coordinator has no shard-version vector; "
                "call at() without arguments to pin the current state"
            )
        else:
            pinned = tuple(versions)
            if len(pinned) != len(self._database.shards()):
                raise ValueError(
                    f"version vector of length {len(pinned)} does not "
                    f"match {len(self._database.shards())} shards"
                )
        self._shared.engine.counters["snapshot_reads"] += 1
        return SnapshotReader(self, pinned)

    def _archive_shard(self, shard: Any) -> None:
        """Archive a shard's generation just before its version is bumped.

        Called by the owning database with the *outgoing* generation still
        live, so pinned readers that resolve the old version find its
        columns with their summaries, plus whatever the shard provider
        already fetched for that version.
        """
        archive = _ShardArchive(shard, self._database.shard_provider())
        shared = self._shared
        with shared.lock:
            history = shared.history.setdefault(shard.index, OrderedDict())
            history[shard.version] = archive
            history.move_to_end(shard.version)
            while len(history) > shared.depth:
                history.popitem(last=False)
                shared.engine.counters["snapshot_evictions"] += 1

    # ------------------------------------------------------------------
    # Merged layout
    # ------------------------------------------------------------------
    def _summaries_and_tokens(
        self, vector: Any, max_rank: int
    ) -> Tuple[List[ShardRankSummary], List[Any]]:
        """Non-empty shards' summaries at ``vector`` plus content-faithful
        tokens.

        The tokens key the merge engine's cached partial products, so a
        token may only repeat when the summary content is identical: the
        shard provider pairs each summary with the version of the shard
        generation it was built from (and, on the process path, the
        worker's committed state id shipped in the same reply).  A shard
        the provider has moved past answers from its generation at the
        vector instead.
        """
        if self._database is None:
            summaries: List[ShardRankSummary] = []
            tokens: List[Any] = []
            for index, session in enumerate(self._static_shards(vector)):
                summary = session.partial_rank_summary(max_rank)
                if summary.number_of_tuples() > 0:
                    summaries.append(summary)
                    tokens.append((index, session.generation))
            return summaries, tokens
        rows = self._database.shard_provider().summaries_with_tokens(max_rank)
        live = {index: (summary, token) for index, summary, token in rows}
        summaries = []
        tokens = []
        for shard in self._database.shards():
            version = vector[shard.index]
            row = live.get(shard.index)
            if row is not None and row[1][0] == version:
                summaries.append(row[0])
                tokens.append(row[1])
                continue
            state, archive = self._pinned_generation(shard, vector)
            if not state.units:
                continue
            summaries.append(
                archive.summary(max_rank)
                if archive is not None
                else state.layout().summary(max_rank)
            )
            tokens.append(("archive", shard.index, version))
        return summaries, tokens

    def _layout(self, entry: Optional[_VersionEntry] = None) -> _MergedLayout:
        """The merged layout of ``entry``'s vector (default: the vector
        this session reads at), built on first use."""
        if entry is None:
            entry = self._entry()
        if entry.layout is None:
            entry.layout = self._build_layout(entry.vector)
        return entry.layout

    def _remember_layout(
        self, fragments: List[Tuple[Any, Any]], layout: _MergedLayout
    ) -> _MergedLayout:
        # The patch base keeps each shard's key and score columns and only
        # a weak reference to its layout: holding the layouts would pin
        # superseded shard generations for as long as no read builds a
        # newer merged layout.
        base = (
            [
                (weakref.ref(fragment), fragment.independent,
                 fragment.scores, fragment.keys)
                for fragment, _ in fragments
            ],
            layout,
        )
        with self._shared.lock:
            self._shared.patch_base = base
        return layout

    def _patched_layout(
        self, fragments: List[Tuple[Any, Any]]
    ) -> Optional[_MergedLayout]:
        """Patch the previous merged layout when no score moved.

        A probability-only update keeps every score (hence the global
        grid, the triple positions and the key order) in place, so the new
        layout is the old one with the changed shards' dictionaries and
        triple rows substituted -- no global re-sort, no re-validation.
        The base is the last layout built at any vector, so a read at a
        newly published vector patches from whatever read came before it.
        Returns ``None`` whenever a full rebuild is required.
        """
        with self._shared.lock:
            base = self._shared.patch_base
        if base is None or len(fragments) != len(base[0]):
            return None
        cached, previous = base
        changed: List[Any] = []
        for (fragment, _), (old, independent, scores, keys) in zip(
            fragments, cached
        ):
            if fragment is old():
                continue
            if (
                fragment.independent != independent
                or fragment.scores != scores
                or fragment.keys != keys
            ):
                return None
            changed.append(fragment)
        if not changed:
            return previous
        backend = get_backend()
        presence = dict(previous.presence)
        alternatives = dict(previous.alternatives)
        triples = list(previous.triples)
        for fragment in changed:
            presence.update(fragment.presence)
            alternatives.update(fragment.alternatives)
            # A shard's scores are a subsequence of the (unchanged) grid,
            # so each alternative's global position is its strict-above
            # count there -- one backend sweep per changed shard.
            positions = backend.descending_prefix_lengths(
                previous.grid_scores, fragment.scores
            )
            for position, triple in zip(positions, fragment.key_triples):
                triples[position] = triple
        # Scores and keys are unchanged by precondition, so the best-score
        # and key-ownership maps carry over without copying.
        return previous._replace(
            presence=presence, alternatives=alternatives, triples=triples
        )

    def _build_layout(self, vector: Any) -> _MergedLayout:
        fragments = self._shard_fragments(vector)
        patched = self._patched_layout(fragments)
        counters = self._shared.engine.counters
        if patched is not None:
            counters["layout_patches"] += 1
            return self._remember_layout(fragments, patched)
        presence: Dict[Hashable, float] = {}
        alternatives: Dict[Hashable, List[Tuple[float, float]]] = {}
        best_score: Dict[Hashable, float] = {}
        key_to_shard: Dict[Hashable, int] = {}
        independent = True
        per_shard_triples: List[List[Tuple[float, float, Hashable]]] = []
        total = 0
        for position, (fragment, _) in enumerate(fragments):
            independent = independent and fragment.independent
            per_shard_triples.append(fragment.key_triples)
            # Bulk dictionary merges: the per-shard fragments are memoized
            # (on their sessions, or in the pool's version-keyed cache), so
            # after one shard's update only that shard re-extracts and
            # this loop is C-speed dict work.
            presence.update(fragment.presence)
            alternatives.update(fragment.alternatives)
            best_score.update(fragment.best_score)
            key_to_shard.update(dict.fromkeys(fragment.keys, position))
            total += len(fragment.keys)
        if len(presence) != total:
            counts: Dict[Hashable, int] = {}
            for fragment, _ in fragments:
                for key in fragment.keys:
                    counts[key] = counts.get(key, 0) + 1
            duplicates = sorted(
                repr(key) for key, count in counts.items() if count > 1
            )
            raise ModelError(
                f"tuple keys {duplicates} appear in more than one shard"
            )
        # One global decreasing-score stream of (score, probability, key):
        # each shard's list is already sorted, so Timsort merges the
        # concatenated runs in near-linear time (scores are distinct, so
        # plain reverse tuple order never compares the trailing fields).
        triples: List[Tuple[float, float, Hashable]] = []
        for shard_triples in per_shard_triples:
            triples.extend(shard_triples)
        triples.sort(reverse=True)
        if self._validate_scores:
            for first, second in zip(triples, triples[1:]):
                if first[0] == second[0] and first[2] != second[2]:
                    raise ModelError(
                        f"tuples {first[2]!r} and {second[2]!r} of different "
                        f"shards share score {first[0]}; ranking assumes "
                        "distinct scores"
                    )
        # Global key order = first appearance in the merged decreasing-score
        # stream, i.e. decreasing best-alternative score (scores are
        # distinct, so no tie-break is needed and no extra sort is paid).
        keys_order: List[Hashable] = []
        seen: Dict[Hashable, bool] = {}
        for _, _, key in triples:
            if key not in seen:
                seen[key] = True
                keys_order.append(key)
        counters["layout_rebuilds"] += 1
        return self._remember_layout(
            fragments,
            _MergedLayout(
                keys_order,
                presence,
                alternatives,
                best_score,
                triples,
                independent,
                key_to_shard,
                [score for score, _, _ in triples],
            ),
        )

    # ------------------------------------------------------------------
    # Database accessors (merged, no global statistics object)
    # ------------------------------------------------------------------
    @property
    def _tree(self) -> AndXorTree:
        """Merged and/xor tree at this session's vector (see
        :meth:`_merged_tree`)."""
        return self._merged_tree(self._entry())

    def _merged_tree(self, entry: _VersionEntry) -> AndXorTree:
        """One vector's merged and/xor tree, built lazily from the shard
        trees.

        Only the consensus routes that genuinely need a tree (set-level
        consensus worlds, the BID median dynamic program, world sampling)
        touch this; the rank/pairwise statistics never do.  The shard
        root children are reused, so construction is index building only.
        """
        if entry.merged_tree is None:
            children = []
            for source in self._sources(entry):
                # A database shard's source is its generation, which
                # builds the shard's tree session on demand.
                if self._database is not None:
                    source = source.session()
                root = source.tree.root
                if not isinstance(root, AndNode):
                    raise ModelError(
                        "sharded sessions require and-rooted shard trees"
                    )
                children.extend(root.children())
            self._layout(entry)  # validates key disjointness, score ties
            entry.merged_tree = AndXorTree(AndNode(children), validate=False)
        return entry.merged_tree

    @property
    def statistics(self) -> RankStatistics:
        """Global fallback statistics over the merged tree at this
        session's vector; only the tree-level fallbacks (e.g.
        :meth:`sampler`) use this."""
        entry = self._entry()
        if entry.statistics is None:
            entry.statistics = RankStatistics(
                self._merged_tree(entry), validate_scores=self._validate_scores
            )
        return entry.statistics

    def keys(self) -> List[Hashable]:
        return list(self._layout().keys_order)

    def number_of_tuples(self) -> int:
        return len(self._layout().keys_order)

    def _source_of(self, key: Hashable) -> Any:
        entry = self._entry()
        position = self._layout(entry).key_to_shard.get(key)
        if position is None:
            raise ModelError(f"unknown tuple key {key!r}")
        return self._sources(entry)[position]

    def score_of(self, alternative: TupleAlternative) -> float:
        return self._source_of(alternative.key).score_of(alternative)

    def alternatives_of(self, key: Hashable) -> List[TupleAlternative]:
        return self._source_of(key).alternatives_of(key)

    def best_scores(
        self, keys: Sequence[Hashable]
    ) -> Dict[Hashable, float]:
        """Best alternative scores, straight off the merged layout.

        Overrides the session default so ordering candidate keys (the
        symmetric-difference presentation order, every query's answer
        assembly) never resolves shard sessions -- essential on the
        process-pool path, a cheap win in-process too.
        """
        layout = self._layout()
        missing = [key for key in keys if key not in layout.best_score]
        if missing:
            raise ModelError(
                f"unknown tuple keys {sorted(map(repr, missing))}"
            )
        return {key: layout.best_score[key] for key in keys}

    def independent_tuple_layout(
        self,
    ) -> Optional[List[Tuple[Hashable, float, float]]]:
        layout = self._layout()
        if not layout.independent:
            return None
        return [
            (key, probability, score)
            for score, probability, key in layout.triples
        ]

    def independent_tuple_rows(
        self,
    ) -> Optional[Sequence[Tuple[float, float, Hashable]]]:
        """The merged layout's own decreasing-score stream (no copy)."""
        layout = self._layout()
        return layout.triples if layout.independent else None

    # ------------------------------------------------------------------
    # Merged statistics artifacts
    # ------------------------------------------------------------------
    def rank_matrix(self, max_rank: Optional[int] = None) -> RankMatrix:
        """The exact global rank matrix, merged by convolving shard partials."""
        if max_rank is None:
            max_rank = self.number_of_tuples()
        return self._memoized(
            "rank_matrix",
            (max_rank,),
            lambda session: session._merged_rank_matrix(max_rank),
        )

    def _merged_rank_matrix(self, max_rank: int) -> RankMatrix:
        backend = get_backend()
        vector = self._vector()
        # The layout carries the cross-shard validation (duplicate keys,
        # tied scores); building it first means a direct rank_matrix()
        # call fails as loudly as every other merged artifact.
        layout = self._layout()
        summaries, tokens = self._summaries_and_tokens(vector, max_rank)
        engine = self._shared.engine
        if vector != self._current_vector():
            # A superseded vector merges from scratch, so stale reads
            # cannot thrash the engine's partials of the current one.
            engine.counters["merges"] += 1
            engine.counters["rebuild_merges"] += 1
            return merge_from_scratch(summaries, max_rank, backend)
        if not summaries:
            return RankMatrix([], backend.matrix_from_rows([]), backend, max_rank)
        keys, native = engine.merge(
            summaries,
            tokens,
            max_rank,
            layout.grid_scores,
            layout.keys_order,
            backend,
        )
        # The engine returns the *same* key-order list across incremental
        # re-merges, so the n-entry position index is shared instead of
        # rebuilt for every updated matrix.
        cached = self._shared.rank_key_index
        if cached is None or cached[0] is not keys:
            cached = (keys, {k: row for row, k in enumerate(keys)})
            self._shared.rank_key_index = cached
        return RankMatrix(
            list(keys), native, backend, max_rank, key_index=cached[1]
        )

    def preference_matrix(
        self, keys: Optional[Sequence[Hashable]] = None
    ) -> PairwisePreferenceMatrix:
        """The merged ``Pr(r(t_i) < r(t_j))`` grid.

        Distinct keys are independent both across shards and within a
        tuple-independent / BID shard, so every cell has the closed form
        ``Σ_{a ∈ alts(t_i)} p_a (1 - Pr(t_j present above score(a)))`` --
        one backend kernel for all-independent shardings.
        """
        params = (None,) if keys is None else (tuple(keys),)

        def compute(session: ShardedQuerySession) -> PairwisePreferenceMatrix:
            layout = session._layout()
            backend = get_backend()
            matrix_keys = list(
                layout.keys_order if keys is None else keys
            )
            missing = [
                key for key in matrix_keys if key not in layout.presence
            ]
            if missing:
                raise ModelError(
                    f"unknown tuple keys {sorted(map(repr, missing))}"
                )
            if layout.independent:
                native = backend.pairwise_preference_matrix(
                    [layout.presence[key] for key in matrix_keys],
                    [layout.best_score[key] for key in matrix_keys],
                )
            else:
                rows = []
                for first in matrix_keys:
                    row = []
                    for second in matrix_keys:
                        if first == second:
                            row.append(0.0)
                            continue
                        value = 0.0
                        for score, probability in layout.alternatives[first]:
                            above = sum(
                                p
                                for s, p in layout.alternatives[second]
                                if s > score
                            )
                            value += probability * (1.0 - above)
                        row.append(value)
                    rows.append(row)
                native = backend.matrix_from_rows(rows)
            return PairwisePreferenceMatrix(matrix_keys, native, backend)

        return self._memoized("preference_matrix", params, compute)

    def expected_rank_table(self) -> Dict[Hashable, float]:
        """Merged Cormode-style expected ranks (closed form, O(n log n))."""

        def compute(session: ShardedQuerySession) -> Dict[Hashable, float]:
            layout = session._layout()
            triples = layout.triples
            neg_scores = [-score for score, _, _ in triples]
            prefix_mass = [0.0]
            for _, probability, _ in triples:
                prefix_mass.append(prefix_mass[-1] + probability)
            total_presence = sum(layout.presence.values())
            from bisect import bisect_left

            table: Dict[Hashable, float] = {}
            for key in layout.keys_order:
                presence = layout.presence[key]
                higher = 0.0
                for score, probability in layout.alternatives[key]:
                    above = prefix_mass[bisect_left(neg_scores, -score)]
                    own_above = sum(
                        p
                        for s, p in layout.alternatives[key]
                        if s > score
                    )
                    higher += probability * (above - own_above)
                absent = (1.0 - presence) * (total_presence - presence)
                table[key] = 1.0 + higher + absent
            return table

        return dict(self._memoized("expected_rank_table", (), compute))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.shard_count} shards, "
            f"vector={self._vector()!r}, hits={self.cache_hits}, "
            f"misses={self.cache_misses}, generation={self._generation})"
        )


class SnapshotReader(ShardedQuerySession):
    """A read-only coordinator view pinned at one shard-version vector.

    The coordinator's own read path at a fixed vector: it shares the
    coordinator's per-vector artifact store (readers at one vector reuse
    each other's and the coordinator's artifacts), archive history, merge
    engine and layout patch base, and keeps only its own hit/miss
    counters.  Readers never mutate shard state; writers never wait for
    readers.
    """

    def __init__(self, parent: ShardedQuerySession, pinned: Any) -> None:
        self._parent = parent
        self._database = parent._database
        self._static_sessions = parent._static_sessions
        self._validate_scores = parent._validate_scores
        self._shared = parent._shared
        self._pinned = pinned
        self._init_cache_state()

    @property
    def pinned_versions(self) -> Any:
        """The shard-version vector this reader answers at."""
        return self._pinned

    def _vector(self) -> Any:
        return self._pinned

    # A reader is already pinned: its reads run on itself.
    _pinned_read = QuerySession._pinned_read

    def version_token(self, versions: Any = None) -> Tuple[Any, ...]:
        # Answers computed through a pinned reader are the parent
        # coordinator's answers at the pinned vector; sharing the
        # parent's token keeps reader- and coordinator-computed entries
        # interchangeable in one result cache.
        if versions is None:
            versions = self._pinned
        return self._parent.version_token(versions)

    def invalidate(self) -> None:
        """Drop the pinned vector's artifacts (shared with every session
        reading at that vector)."""
        self._entry().clear()
        self._generation += 1
