"""Query-session layer: shared statistics across consensus queries.

The paper's workload is many consensus queries -- Top-k answers under the
symmetric difference / intersection / footrule / Kendall metrics, Jaccard and
set consensus worlds, parameterized ranking functions, baseline semantics --
asked against the *same* probabilistic database.  Every one of those
algorithms consumes a small set of expensive shared artifacts: the batched
:class:`~repro.engine.RankMatrix`, its cumulative view, the Top-k membership
vector, the :class:`~repro.engine.PairwisePreferenceMatrix`, the
expected-rank table and the Jaccard prefix scan.

:class:`QuerySession` computes each artifact lazily, memoizes it, and hands
backend-native views to every consumer, so a warm session answers a second
consensus query (a different distance over the same tree) without
recomputing anything.  Cache behaviour is observable through
:attr:`QuerySession.cache_hits` / :attr:`QuerySession.cache_misses` /
:meth:`QuerySession.cache_info`, and :meth:`QuerySession.invalidate` (or
:meth:`QuerySession.set_scoring`) drops every artifact when the scores
change so stale statistics are never served.

All module-level consensus functions accept a session wherever they accept a
tree or :class:`~repro.andxor.rank_probabilities.RankStatistics`; passing a
tree simply builds a throwaway session, so the public API stays
source-compatible.  One session per database shard is the unit the future
sharded / async serving layers will hold on to.

>>> from repro import QuerySession, TupleIndependentDatabase
>>> database = TupleIndependentDatabase(
...     [("t1", 90, 0.6), ("t2", 80, 1.0), ("t3", 70, 0.5)]
... )
>>> session = QuerySession(database.tree)
>>> session.mean_topk_symmetric_difference(2)[0]  # cold: computes
('t1', 't2')
>>> session.mean_topk_footrule(2)[0]              # warm: reuses rank matrix
('t1', 't2')
>>> session.cache_hits > 0
True
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.andxor.rank_probabilities import RankStatistics, ScoringFunction
from repro.andxor.tree import AndXorTree
from repro.core.tuples import TupleAlternative
from repro.engine import PairwisePreferenceMatrix, RankMatrix, get_backend

SessionSource = Union[AndXorTree, RankStatistics, "QuerySession"]

#: Cache key of one memoized artifact: (artifact name, parameter tuple).
ArtifactKey = Tuple[str, Tuple[Any, ...]]

#: Process-wide session identities for result-cache keys.  ``id()`` is
#: unsafe (addresses are recycled after garbage collection); a monotone
#: counter never aliases two sessions within one process.
_SESSION_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class ArtifactCounters:
    """Hit/miss counters of one memoized artifact family."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        """Total artifact requests (hits + misses)."""
        return self.hits + self.misses

    def __getitem__(self, field_name: str) -> int:
        # Mapping-style access keeps pre-dataclass consumers working.
        if field_name in ("hits", "misses"):
            return getattr(self, field_name)
        raise KeyError(field_name)

    def __add__(self, other: "ArtifactCounters") -> "ArtifactCounters":
        return ArtifactCounters(
            self.hits + other.hits, self.misses + other.misses
        )


@dataclass(frozen=True)
class CacheInfo:
    """Stable snapshot of a session's cache counters.

    Returned by :meth:`QuerySession.cache_info` (and, aggregated across
    shards, by :meth:`repro.models.sharded.ShardedDatabase.cache_info`).
    Field access is the API; ``info["hits"]``-style mapping access is kept
    for source compatibility with the pre-dataclass dictionary form.
    """

    hits: int = 0
    misses: int = 0
    entries: int = 0
    generation: int = 0
    backend: str = ""
    artifacts: Mapping[str, ArtifactCounters] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Total artifact requests (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0.0 when idle)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def __getitem__(self, field_name: str) -> Any:
        if field_name in (
            "hits", "misses", "entries", "generation", "backend", "artifacts"
        ):
            return getattr(self, field_name)
        raise KeyError(field_name)

    def __add__(self, other: "CacheInfo") -> "CacheInfo":
        """Roll two snapshots up into one (per-artifact counters merged)."""
        merged: Dict[str, ArtifactCounters] = dict(self.artifacts)
        for name, counters in other.artifacts.items():
            merged[name] = merged.get(name, ArtifactCounters()) + counters
        backend = self.backend if self.backend else other.backend
        if other.backend and other.backend != backend:
            backend = "mixed"
        return CacheInfo(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            entries=self.entries + other.entries,
            generation=self.generation + other.generation,
            backend=backend,
            artifacts=merged,
        )


class QuerySession:
    """Memoized statistics shared by every consensus query on one database.

    Parameters
    ----------
    source:
        The and/xor tree, or an existing
        :class:`~repro.andxor.rank_probabilities.RankStatistics` to adopt.
    scoring:
        Optional scoring function overriding
        :meth:`~repro.core.tuples.TupleAlternative.effective_score`.  Only
        allowed when ``source`` is a tree (an adopted statistics object
        already fixed its scores).
    validate_scores:
        Forwarded to :class:`RankStatistics`: require pairwise-distinct
        scores across tuples (the paper's no-ties assumption).
    """

    def __init__(
        self,
        source: SessionSource,
        scoring: Optional[ScoringFunction] = None,
        validate_scores: bool = True,
    ) -> None:
        if isinstance(source, QuerySession):
            raise TypeError(
                "source is already a QuerySession; use it directly "
                "(or repro.session.as_session)"
            )
        if isinstance(source, RankStatistics):
            if scoring is not None:
                raise ValueError(
                    "cannot re-score an existing RankStatistics; pass the "
                    "tree instead"
                )
            self._tree = source.tree
            self._statistics: Optional[RankStatistics] = source
            self._adopted = True
            # Adopt the statistics object's construction settings so that
            # invalidate() rebuilds an equivalent object (same scoring,
            # same validation / fast-path flags) rather than the defaults.
            scoring = source._scoring
            validate_scores = source._validate_scores_flag
            self._use_fast_path = source._use_fast_path_flag
        elif isinstance(source, AndXorTree):
            self._tree = source
            self._statistics = None
            self._adopted = False
            self._use_fast_path = True
        else:
            raise TypeError(
                "expected an AndXorTree or RankStatistics, got "
                f"{type(source).__name__}"
            )
        self._scoring = scoring
        self._validate_scores = validate_scores
        self._cache: Dict[ArtifactKey, Any] = {}
        self._init_cache_state()

    def _init_cache_state(self) -> None:
        """Initialise the memoization counters (shared with subclasses)."""
        self._artifact_hits: Dict[str, int] = {}
        self._artifact_misses: Dict[str, int] = {}
        self._generation = 0
        self._session_token = next(_SESSION_TOKENS)
        self._cache_backend = get_backend().name

    # ------------------------------------------------------------------
    # Cache machinery
    # ------------------------------------------------------------------
    def _memo_scope(self) -> Tuple[Dict[ArtifactKey, Any], Any]:
        """The memo this session's artifacts live in, and the version
        vector a computation filling it reads at (the sharded coordinator
        keeps one memo per shard-version vector; ``None`` here)."""
        return self._cache, None

    def _artifacts(self) -> Dict[ArtifactKey, Any]:
        return self._memo_scope()[0]

    def _sync_backend(self) -> None:
        backend = get_backend().name
        if backend != self._cache_backend:
            # The compute backend switched under a warm session: every
            # cached artifact is shaped for the previous backend's
            # kernels (numpy arrays vs list-of-lists), so the whole
            # cache rebuilds.  The generation bump also rotates the
            # session's version token, keeping result caches from
            # replaying answers across the switch.
            self.invalidate()
            self._cache_backend = backend

    @contextmanager
    def _pinned_read(self, vector: Any = None) -> Iterator["QuerySession"]:
        """The session a read of several calls runs on, so that every call
        answers from one state: the session itself here; the sharded
        coordinator hands out a reader pinned at ``vector`` (default: its
        current one)."""
        self._sync_backend()
        yield self

    def _memoized(
        self,
        artifact: str,
        params: Tuple[Any, ...],
        compute: Callable[["QuerySession"], Any],
    ) -> Any:
        """Memoize one artifact; ``compute`` receives the session to read
        from, pinned at the memo's vector (see :meth:`_pinned_read`)."""
        self._sync_backend()
        cache, vector = self._memo_scope()
        key: ArtifactKey = (artifact, params)
        if key in cache:
            self._artifact_hits[artifact] = (
                self._artifact_hits.get(artifact, 0) + 1
            )
            return cache[key]
        self._artifact_misses[artifact] = (
            self._artifact_misses.get(artifact, 0) + 1
        )
        with self._pinned_read(vector) as session:
            value = compute(session)
        cache[key] = value
        return value

    @property
    def cache_hits(self) -> int:
        """Number of artifact requests served from the session cache."""
        return sum(self._artifact_hits.values())

    @property
    def cache_misses(self) -> int:
        """Number of artifact requests that had to compute."""
        return sum(self._artifact_misses.values())

    @property
    def generation(self) -> int:
        """Bumped by every :meth:`invalidate` / :meth:`set_scoring` call."""
        return self._generation

    def version_token(self, versions: Any = None) -> Tuple[Any, ...]:
        """A hashable token identifying the state answers depend on.

        Result caches key completed answers by query fingerprint plus
        this token: any change that could alter an answer -- an
        :meth:`invalidate`, a :meth:`set_scoring`, or (on the sharded
        coordinator, which overrides this) a shard version bump -- must
        change the token, so stale answers are never served.  The session
        token keeps two sessions' entries distinct inside one shared
        cache.  ``versions`` is accepted for signature compatibility with
        the sharded override; a local session has no shard vector.
        """
        return ("local", self._session_token, self._generation)

    def cache_info(self) -> CacheInfo:
        """Aggregate and per-artifact hit/miss counters plus backend name.

        Returns a stable :class:`CacheInfo` dataclass (mapping-style access
        is kept for compatibility with the earlier dictionary form).
        """
        return CacheInfo(
            hits=self.cache_hits,
            misses=self.cache_misses,
            entries=len(self._artifacts()),
            generation=self._generation,
            backend=get_backend().name,
            artifacts={
                name: ArtifactCounters(
                    hits=self._artifact_hits.get(name, 0),
                    misses=self._artifact_misses.get(name, 0),
                )
                for name in sorted(
                    set(self._artifact_hits) | set(self._artifact_misses)
                )
            },
        )

    def invalidate(self) -> None:
        """Drop every memoized artifact (and the statistics cache behind it).

        Call after anything that changes the scores the session was built
        with; the next artifact request recomputes from the tree instead of
        serving stale results.  Hit/miss counters are cumulative across
        invalidations; :attr:`generation` records how often the session was
        reset.
        """
        self._cache.clear()
        self._statistics = None
        self._generation += 1

    def set_scoring(self, scoring: Optional[ScoringFunction]) -> None:
        """Replace the scoring function and invalidate every artifact.

        Only allowed on sessions built from a tree: a session that adopted
        an existing :class:`RankStatistics` must stay score-consistent with
        it, because module-level calls against that statistics object route
        through this session.
        """
        if self._adopted:
            raise ValueError(
                "cannot re-score a session adopting an existing "
                "RankStatistics (module-level calls against that object "
                "share this session); build a QuerySession from the tree "
                "instead"
            )
        self._scoring = scoring
        self.invalidate()

    # ------------------------------------------------------------------
    # Database accessors
    # ------------------------------------------------------------------
    @property
    def tree(self) -> AndXorTree:
        """The underlying and/xor tree."""
        return self._tree

    @property
    def deployment(self) -> str:
        """Deployment kind for the query planner (``local`` here;
        overridden by the sharded coordinator)."""
        return "local"

    def layout_kind(self) -> str:
        """``tuple-independent`` / ``bid`` / ``general`` model layout.

        The query planner uses this to match queries against the paper's
        model-specific results (e.g. Lemma 2's tuple-independent prefix
        structure for the mean Jaccard world).  Detection is structural
        first (score-free, so set-level queries work on unscored trees);
        trees the builders did not shape may still expose a
        tuple-independent layout through the rank statistics.
        """
        from repro.query.planner import layout_of_tree

        kind = layout_of_tree(self._tree)
        if kind == "general":
            try:
                if self.statistics.independent_tuple_layout() is not None:
                    return "tuple-independent"
            except TypeError:
                pass  # unscored tree: set-level queries only
        return kind

    def execute(self, query: Any, rng: Any = None) -> Any:
        """Execute a :class:`~repro.query.ConsensusQuery` on this session.

        Returns a :class:`~repro.query.QueryAnswer`; the planner picks the
        execution path (see :meth:`explain`).
        """
        return query.execute(self, rng=rng)

    def explain(self, query: Any) -> str:
        """Render the planner's execution path for a query on this session."""
        return query.explain(self)

    @property
    def statistics(self) -> RankStatistics:
        """The rank statistics the session is built on (lazily created)."""
        if self._statistics is None:
            self._statistics = RankStatistics(
                self._tree,
                validate_scores=self._validate_scores,
                use_fast_path=self._use_fast_path,
                scoring=self._scoring,
            )
        return self._statistics

    def keys(self) -> List[Hashable]:
        """The tuple keys of the database."""
        return self.statistics.keys()

    def alternatives_of(self, key: Hashable) -> List[TupleAlternative]:
        """The alternatives of one tuple key.

        Overridden by the sharded coordinator to serve the owning shard's
        alternatives without materializing a merged tree.
        """
        return self._tree.alternatives_of(key)

    def number_of_tuples(self) -> int:
        """Number of distinct tuple keys."""
        return self.statistics.number_of_tuples()

    def score_of(self, alternative: TupleAlternative) -> float:
        """The ranking score of an alternative under the active scoring."""
        return self.statistics.score_of(alternative)

    def best_scores(
        self, keys: Sequence[Hashable]
    ) -> Dict[Hashable, float]:
        """Best (maximum) alternative score per tuple key.

        The hot consumer is :func:`repro.consensus.topk.common.\
        order_by_score`; the sharded coordinator overrides this to answer
        from its merged layout so ordering candidate keys never
        materializes shard trees.
        """
        return {
            key: max(
                self.score_of(alternative)
                for alternative in self.alternatives_of(key)
            )
            for key in keys
        }

    def independent_tuple_layout(
        self,
    ) -> Optional[List[Tuple[Hashable, float, float]]]:
        """``(key, probability, score)`` triples for tuple-independent
        databases (sorted by decreasing score), else None."""
        return self.statistics.independent_tuple_layout()

    def independent_tuple_rows(
        self,
    ) -> Optional[Sequence[Tuple[float, float, Hashable]]]:
        """``(score, probability, key)`` rows of a tuple-independent
        database in decreasing score order, else None.

        The rows are shared, memoized per generation (the sharded
        coordinator serves its merged layout's own score stream), so
        callers must not mutate them.
        """

        def compute(session: QuerySession) -> Any:
            layout = session.independent_tuple_layout()
            if layout is None:
                return None
            return [
                (score, probability, key)
                for key, probability, score in layout
            ]

        return self._memoized("independent_tuple_rows", (), compute)

    def _validate_k(self, k: int) -> int:
        # Lazy import: common imports this module at load time, so the
        # shared validator (one source of truth for the rule and its error
        # messages) can only be pulled in here, at call time.
        from repro.consensus.topk.common import validate_k

        return validate_k(self, k)

    # ------------------------------------------------------------------
    # Shared statistics artifacts
    # ------------------------------------------------------------------
    def rank_matrix(self, max_rank: Optional[int] = None) -> RankMatrix:
        """The memoized ``n_tuples × max_rank`` rank-probability matrix."""
        if max_rank is None:
            max_rank = self.number_of_tuples()
        return self._memoized(
            "rank_matrix",
            (max_rank,),
            lambda session: session.statistics.rank_matrix(max_rank),
        )

    def cumulative_rank_matrix(
        self, max_rank: Optional[int] = None
    ) -> RankMatrix:
        """The memoized cumulative (``Pr(r(t) <= i)``) view."""
        if max_rank is None:
            max_rank = self.number_of_tuples()
        return self._memoized(
            "cumulative_rank_matrix",
            (max_rank,),
            lambda session: session.rank_matrix(max_rank).cumulative(),
        )

    def top_k_membership(self, k: int) -> Dict[Hashable, float]:
        """``Pr(r(t) <= k)`` per key, memoized per ``k``."""
        self._validate_k(k)
        return dict(
            self._memoized(
                "top_k_membership",
                (k,),
                lambda session: session.rank_matrix(k).membership(),
            )
        )

    def preference_matrix(
        self, keys: Optional[Sequence[Hashable]] = None
    ) -> PairwisePreferenceMatrix:
        """The memoized pairwise-preference grid over ``keys`` (default all)."""
        params = (None,) if keys is None else (tuple(keys),)
        return self._memoized(
            "preference_matrix",
            params,
            lambda session: session.statistics.preference_matrix(keys),
        )

    def expected_rank_table(self) -> Dict[Hashable, float]:
        """The memoized Cormode-style expected rank of every tuple."""
        return dict(
            self._memoized(
                "expected_rank_table",
                (),
                lambda session: session.statistics.expected_rank_table(),
            )
        )

    def footrule_statistics(self, k: int) -> Any:
        """The memoized Υ1/Υ2/Υ3 footrule tables of Section 5.4."""
        from repro.consensus.topk.footrule import FootruleStatistics

        return self._memoized(
            "footrule_statistics",
            (k,),
            lambda session: FootruleStatistics(session, k),
        )

    def sampler(self) -> Any:
        """The memoized batched Monte-Carlo sampler for this database.

        Returns a :class:`repro.engine.MonteCarloSampler` whose flattened
        tree layout is computed once and reused by every warm batch; the
        sampler inherits the session's active scoring and is dropped (like
        every artifact) by :meth:`invalidate` / :meth:`set_scoring`.
        Randomness is controlled per call (``rng=`` / integer seeds) or by
        the ``REPRO_SEED`` environment variable, never memoized.
        """
        from repro.engine.sampling import MonteCarloSampler

        return self._memoized(
            "sampler",
            (),
            lambda session: MonteCarloSampler(
                session._tree, score_of=session.statistics.score_of
            ),
        )

    def partial_rank_summary(self, max_rank: Optional[int] = None) -> Any:
        """The memoized truncated rank-polynomial summary of this database.

        Returns a :class:`repro.sharding.ShardRankSummary`: the partial
        univariate generating functions (count-above-threshold
        distributions, truncated at ``max_rank`` coefficients) that a
        sharded coordinator convolves with other shards' summaries to
        recover exact global rank probabilities without a global session.
        Only defined for tuple-independent and block-independent (BID)
        layouts -- the models whose rank generating function factorizes
        across independent shards.
        """
        from repro.sharding.summary import ShardRankSummary

        if max_rank is None:
            max_rank = self.number_of_tuples()
        return self._memoized(
            "rank_partials",
            (max_rank,),
            lambda session: ShardRankSummary(session, max_rank),
        )

    # ------------------------------------------------------------------
    # Consensus queries (memoized results)
    # ------------------------------------------------------------------
    def _memoized_query(self, function: Callable[..., Any], *args: Any) -> Any:
        """Memoize ``function(session, *args)`` as ``query:<name>``."""
        return self._memoized(
            f"query:{function.__name__}",
            args,
            lambda session: function(session, *args),
        )

    def mean_topk_symmetric_difference(
        self, k: int
    ) -> Tuple[Tuple[Hashable, ...], float]:
        """Theorem 3 mean Top-k answer under ``d_Δ``."""
        from repro.consensus.topk import symmetric_difference

        return self._memoized_query(
            symmetric_difference.mean_topk_symmetric_difference, k
        )

    def median_topk_symmetric_difference(
        self, k: int
    ) -> Tuple[Tuple[Hashable, ...], float]:
        """Theorem 4 median Top-k answer under ``d_Δ``."""
        from repro.consensus.topk import symmetric_difference

        return self._memoized_query(
            symmetric_difference.median_topk_symmetric_difference, k
        )

    def mean_topk_intersection(
        self, k: int
    ) -> Tuple[Tuple[Hashable, ...], float]:
        """Exact mean Top-k answer under the intersection metric."""
        from repro.consensus.topk.intersection import mean_topk_intersection

        return self._memoized_query(mean_topk_intersection, k)

    def approximate_topk_intersection(
        self, k: int
    ) -> Tuple[Tuple[Hashable, ...], float]:
        """``Υ_H``-based ``H_k``-approximation under the intersection metric."""
        from repro.consensus.topk import intersection

        return self._memoized_query(
            intersection.approximate_topk_intersection, k
        )

    def mean_topk_footrule(
        self, k: int
    ) -> Tuple[Tuple[Hashable, ...], float]:
        """Exact mean Top-k answer under the Spearman footrule distance."""
        from repro.consensus.topk.footrule import mean_topk_footrule

        return self._memoized_query(mean_topk_footrule, k)

    def approximate_topk_kendall(
        self,
        k: int,
        candidate_pool_size: Optional[int] = None,
        rng: Any = None,
    ) -> Tuple[Hashable, ...]:
        """Pivot-based approximate mean answer under Kendall tau.

        Deterministic calls (``rng is None``) are memoized; randomised calls
        bypass the cache.
        """
        from repro.consensus.topk.kendall import approximate_topk_kendall

        if rng is not None:
            return approximate_topk_kendall(
                self, k, candidate_pool_size=candidate_pool_size, rng=rng
            )
        return self._memoized(
            "query:approximate_topk_kendall",
            (k, candidate_pool_size),
            lambda session: approximate_topk_kendall(
                session, k, candidate_pool_size=candidate_pool_size
            ),
        )

    def mean_world_symmetric_difference(
        self,
    ) -> Tuple[FrozenSet[TupleAlternative], float]:
        """Theorem 2 mean consensus world under symmetric difference."""
        from repro.consensus import set_consensus

        return self._memoized(
            "query:mean_world_symmetric_difference",
            (),
            lambda session: set_consensus.mean_world_symmetric_difference(
                session._tree
            ),
        )

    def median_world_symmetric_difference(
        self,
    ) -> Tuple[FrozenSet[TupleAlternative], float]:
        """Exact median consensus world under symmetric difference."""
        from repro.consensus import set_consensus

        return self._memoized(
            "query:median_world_symmetric_difference",
            (),
            lambda session: set_consensus.median_world_symmetric_difference(
                session._tree
            ),
        )

    def mean_world_jaccard(
        self,
    ) -> Tuple[FrozenSet[TupleAlternative], float]:
        """Lemma 2 mean consensus world under the Jaccard distance."""
        from repro.consensus import jaccard

        return self._memoized(
            "query:mean_world_jaccard",
            (),
            lambda session: jaccard.mean_world_jaccard_tuple_independent(
                session._tree
            ),
        )

    def median_world_jaccard(
        self,
    ) -> Tuple[FrozenSet[TupleAlternative], float]:
        """Median consensus world under the Jaccard distance (BID)."""
        from repro.consensus.jaccard import median_world_jaccard_bid

        return self._memoized(
            "query:median_world_jaccard",
            (),
            lambda session: median_world_jaccard_bid(session._tree),
        )

    def global_topk(self, k: int) -> Tuple[Hashable, ...]:
        """The Global-Top-k baseline answer."""
        from repro.baselines.ranking import global_topk

        return self._memoized_query(global_topk, k)

    def expected_rank_topk(self, k: int) -> Tuple[Hashable, ...]:
        """The expected-rank baseline answer."""
        from repro.baselines.ranking import expected_rank_topk

        return self._memoized_query(expected_rank_topk, k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuerySession({self._tree!r}, entries={len(self._cache)}, "
            f"hits={self.cache_hits}, misses={self.cache_misses}, "
            f"generation={self._generation})"
        )


def as_session(source: SessionSource) -> QuerySession:
    """Coerce a tree / statistics / session into a :class:`QuerySession`.

    An existing session is returned as-is.  A :class:`RankStatistics` gets a
    session attached to it (and reused on later coercions), so repeated
    module-level calls against the same statistics object share one warm
    cache.  A bare tree gets a fresh throwaway session.
    """
    if isinstance(source, QuerySession):
        return source
    if isinstance(source, RankStatistics):
        return source.session()
    if isinstance(source, AndXorTree):
        return QuerySession(source)
    # Sharded databases coerce to their coordinator session, so every
    # module-level consensus function accepts one directly.
    coordinator = getattr(source, "coordinator", None)
    if callable(coordinator):
        session = coordinator()
        if isinstance(session, QuerySession):
            return session
    raise TypeError(
        "expected an AndXorTree, RankStatistics or QuerySession, got "
        f"{type(source).__name__}"
    )
