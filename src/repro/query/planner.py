"""The hardness-aware query planner.

The paper's central contribution is a taxonomy: every consensus query /
distance-function pair comes with an exact PTIME algorithm, an
approximation with a guarantee, or an NP-hardness result that forces
Monte-Carlo estimation.  :class:`Planner` encodes that taxonomy as data
(:data:`HARDNESS_MAP`), inspects the execution target (model layout,
database size, sharding, active backend) and picks the execution path:

* **exact** -- the PTIME kernel (or, for NP-hard distances on tiny
  databases, exhaustive enumeration);
* **approximate** -- the paper's approximation algorithm (``H_k`` greedy
  for the intersection metric, pivot aggregation for Kendall tau);
* **sample** -- the batched :class:`~repro.engine.MonteCarloSampler` with
  confidence-interval-driven sample sizing, the fallback the hardness
  results prescribe.

Plans are memoized per session and per query (re-planned only when the
compute backend switches), so the planner adds one dictionary lookup to a
warm serving dispatch.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.andxor.nodes import AndNode, Leaf, XorNode
from repro.andxor.rank_probabilities import RankStatistics
from repro.andxor.tree import AndXorTree
from repro.exceptions import PlanningError
from repro.query.builder import ConsensusQuery
from repro.query.plan import (
    ExecutionPlan,
    ExecutionResult,
    HardnessEntry,
    TargetProfile,
)
from repro.session import QuerySession


# ----------------------------------------------------------------------
# The paper's hardness map
# ----------------------------------------------------------------------
#: ``(family, metric, statistic) -> HardnessEntry``.  ``explain()`` surfaces
#: these entries, naming the paper result behind every route choice.
HARDNESS_MAP: Dict[Tuple[str, Optional[str], str], HardnessEntry] = {
    ("topk", "symmetric_difference", "mean"): HardnessEntry(
        "ptime",
        "Theorem 3",
        "the mean Top-k answer under d_Delta is the k tuples with the "
        "largest Pr(r(t) <= k), one rank-matrix sweep",
    ),
    ("topk", "symmetric_difference", "median"): HardnessEntry(
        "ptime",
        "Theorem 4",
        "the median Top-k answer under d_Delta is recovered exactly from "
        "per-size best-world tables",
    ),
    ("topk", "footrule", "mean"): HardnessEntry(
        "ptime",
        "Section 5.4",
        "the mean Top-k answer under Spearman footrule reduces to one "
        "min-cost assignment over the Upsilon tables",
    ),
    ("topk", "intersection", "mean"): HardnessEntry(
        "ptime",
        "Section 5.3",
        "exact mean answer under the intersection metric; an H_k-factor "
        "greedy approximation is also available",
    ),
    ("topk", "kendall", "mean"): HardnessEntry(
        "np-hard",
        "Section 5.5",
        "exact mean answers under Kendall tau are NP-hard (Kemeny rank "
        "aggregation embeds); the paper prescribes the footrule "
        "2-approximation, pivot aggregation, or Monte-Carlo estimation",
    ),
    ("world", "symmetric_difference", "mean"): HardnessEntry(
        "ptime",
        "Theorem 2",
        "the mean world under d_Delta keeps every alternative with "
        "membership probability > 1/2",
    ),
    ("world", "symmetric_difference", "median"): HardnessEntry(
        "ptime",
        "Corollary 1 / Section 4.1",
        "exact tree DP on and/xor trees; NP-hard under arbitrary "
        "correlations (MAX-2-SAT reduction)",
    ),
    ("world", "jaccard", "mean"): HardnessEntry(
        "ptime",
        "Lemma 2",
        "the mean world under Jaccard is a prefix of the tuples sorted by "
        "decreasing probability (prefix structure optimal for "
        "tuple-independent layouts)",
    ),
    ("world", "jaccard", "median"): HardnessEntry(
        "ptime",
        "Section 4.2",
        "the median world under Jaccard scans prefixes of per-block "
        "highest-probability representatives (BID layouts)",
    ),
    ("membership", None, "mean"): HardnessEntry(
        "ptime",
        "Section 3",
        "Pr(r(t) <= k) falls out of the truncated rank generating "
        "functions in one backend sweep",
    ),
    ("expected_ranks", None, "mean"): HardnessEntry(
        "ptime",
        "Section 5.1",
        "expected ranks are linear functionals of the rank distribution",
    ),
    ("ranking", None, "mean"): HardnessEntry(
        "ptime",
        "Section 7 (baselines)",
        "prior Top-k ranking semantics evaluated for comparison",
    ),
    ("aggregate", None, "mean"): HardnessEntry(
        "ptime",
        "Section 6.1",
        "the mean group-by count answer is the vector of expected counts",
    ),
    ("aggregate", None, "median"): HardnessEntry(
        "approximation",
        "Section 6.1",
        "the closest possible count vector is recovered by min-cost-flow "
        "rounding of the expected counts",
    ),
}


def hardness_of(query: ConsensusQuery) -> HardnessEntry:
    """The paper's hardness result behind one query."""
    metric = query.metric if query.family in ("topk", "world") else None
    statistic = query.statistic if query.family in (
        "topk", "world", "aggregate"
    ) else "mean"
    try:
        return HARDNESS_MAP[(query.family, metric, statistic)]
    except KeyError:  # pragma: no cover - builder validation prevents this
        raise PlanningError(
            f"no hardness entry for {query.family}/{metric}/{statistic}"
        ) from None


# ----------------------------------------------------------------------
# Target resolution
# ----------------------------------------------------------------------
def resolve_session(target: Any) -> Tuple[QuerySession, str]:
    """Coerce any supported target into ``(session, deployment)``.

    Accepts a :class:`~repro.session.QuerySession` (or the sharded
    coordinator), a :class:`~repro.andxor.rank_probabilities.RankStatistics`,
    a bare :class:`~repro.andxor.tree.AndXorTree`, any
    :class:`~repro.models.relation.ProbabilisticRelation` (via its tree), a
    :class:`~repro.models.sharded.ShardedDatabase` (via its coordinator), a
    :class:`~repro.serving.ServingExecutor` (via its database's
    coordinator) or a :class:`~repro.query.Connection`.
    """
    if isinstance(target, QuerySession):
        return target, target.deployment
    if isinstance(target, RankStatistics):
        return target.session(), "local"
    if isinstance(target, AndXorTree):
        return QuerySession(target), "local"
    # A Connection exposes its resolved session/deployment directly
    # (checked by duck-typing to avoid an import cycle with connection.py).
    session = getattr(target, "session", None)
    if isinstance(session, QuerySession):
        return session, getattr(target, "deployment", session.deployment)
    # ShardedDatabase: a coordinator() factory, no tree of its own.
    coordinator = getattr(target, "coordinator", None)
    if callable(coordinator):
        resolved = coordinator()
        if isinstance(resolved, QuerySession):
            return resolved, "sharded"
    # ServingExecutor: answers come from its database's coordinator.
    database = getattr(target, "database", None)
    if database is not None:
        inner = getattr(database, "coordinator", None)
        if callable(inner):
            resolved = inner()
            if isinstance(resolved, QuerySession):
                return resolved, "served"
    # Any relation-like object backed by an and/xor tree.  Prefer the
    # relation's cached RankStatistics so repeated connects against the
    # same database share one warm session.
    statistics = getattr(target, "rank_statistics", None)
    if callable(statistics):
        resolved = statistics()
        if isinstance(resolved, RankStatistics):
            return resolved.session(), "local"
    tree = getattr(target, "tree", None)
    if isinstance(tree, AndXorTree):
        return QuerySession(tree), "local"
    raise PlanningError(
        "cannot connect to a target of type "
        f"{type(target).__name__}; expected a database, tree, statistics, "
        "(sharded) session, sharded database or serving executor"
    )


def _layout_kind(session: QuerySession) -> str:
    """``tuple-independent`` / ``bid`` / ``general`` layout of a session."""
    probe = getattr(session, "layout_kind", None)
    if callable(probe):
        return probe()
    return layout_of_tree(session.tree)


def layout_of_tree(tree: AndXorTree) -> str:
    """Classify a tree as tuple-independent, BID, or general and/xor.

    Purely structural (matching the shapes the builders produce), so it
    never needs scores or rank statistics: an and root of single-leaf xor
    children is tuple-independent, an and root whose xor children hold
    multiple same-key leaves is BID, anything else is general.
    """
    root = tree.root
    if not isinstance(root, AndNode):
        return "general"
    layout = "tuple-independent"
    for child in root.children():
        if isinstance(child, Leaf):
            continue
        if isinstance(child, XorNode):
            grandchildren = child.children()
            if not all(
                isinstance(grandchild, Leaf) for grandchild in grandchildren
            ):
                return "general"
            keys = {leaf.alternative.key for leaf in grandchildren}
            if len(keys) > 1:
                return "general"
            if len(grandchildren) > 1:
                layout = "bid"
            continue
        return "general"
    return layout


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
class Planner:
    """Hardness-aware execution planner.

    Every route is a pure function of the query, the target's structure
    (layout, size, sharding) and these constants, so the same query takes
    the same route in every process.

    Parameters
    ----------
    kendall_exact_limit:
        Databases with at most this many tuples answer NP-hard Kendall
        queries exactly (exhaustive enumeration); larger databases fall
        back to the Monte-Carlo route -- the paper's size threshold between
        "enumerate" and "estimate".
    default_samples:
        Monte-Carlo samples drawn when the query sets no epsilon or cap.
    max_samples:
        Sample ceiling for CI-driven sizing (epsilon set, no explicit cap).
    batch_size:
        Samples per backend kernel call during CI-driven estimation.
    """

    #: Largest database answered by exhaustive Kendall enumeration, whose
    #: P(n, k) * 2^n work the NP-hardness result leaves no way around.
    KENDALL_LIMIT_DEFAULT = 6
    #: Monte-Carlo samples per kernel call: large enough to amortize
    #: dispatch, small enough that CI-driven early stopping still reacts.
    BATCH_SIZE_DEFAULT = 2048

    def __init__(
        self,
        kendall_exact_limit: int = KENDALL_LIMIT_DEFAULT,
        default_samples: int = 4000,
        max_samples: int = 100_000,
        batch_size: int = BATCH_SIZE_DEFAULT,
    ) -> None:
        self.kendall_exact_limit = kendall_exact_limit
        self.default_samples = default_samples
        self.max_samples = max_samples
        self.batch_size = batch_size

    def calibration_table(self) -> None:
        """Always None: routes come from constants, not measured rates.

        Kept only because the benchmark harness wraps and reads it.
        """
        return None

    @property
    def kendall_limit_note(self) -> None:
        """Always None: the Kendall threshold is a constant.

        Kept only because the benchmark harness reads it.
        """
        return None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def plan_for(
        self,
        query: ConsensusQuery,
        session: QuerySession,
        deployment: Optional[str] = None,
    ) -> ExecutionPlan:
        """The (memoized) execution plan for one query on one session.

        Plans are cached on the session keyed by the query's stable hash
        and rebuilt only when the compute backend switches, so repeated
        dispatch costs one dictionary lookup.
        """
        if deployment is None:
            deployment = session.deployment
        cache: Dict[Any, ExecutionPlan] = session.__dict__.setdefault(
            "_query_plan_cache", {}
        )
        # The planner itself is part of the key: differently configured
        # planners (thresholds, sample budgets) must not serve each
        # other's routes off a shared session.
        key = (query, deployment, self)
        plan = cache.get(key)
        if plan is not None:
            # Routes depend only on the query, the target's structure
            # (size/layout/sharding -- invariant under updates and cache
            # invalidation) and the active backend; re-plan only when the
            # backend switched.
            from repro.engine import get_backend

            if plan.profile.backend == get_backend().name:
                return plan
        if len(cache) > 512:
            cache.clear()
        plan = self._build_plan(query, session, deployment)
        cache[key] = plan
        return plan

    def run(
        self,
        query: ConsensusQuery,
        session: QuerySession,
        rng: Any = None,
    ) -> Any:
        """Plan (cached) and run, returning the raw legacy-shaped value."""
        return self.plan_for(query, session).run(rng)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile(
        self, session: QuerySession, deployment: str
    ) -> TargetProfile:
        """Inspect the target: deployment, layout, size, backend.

        Layout and size are structural (updates and invalidations never
        change them), so they are probed once per session and cached;
        only the backend name is re-read per plan build.
        """
        from repro.engine import get_backend

        probed = session.__dict__.get("_query_target_probe")
        if probed is None:
            try:
                n = session.number_of_tuples()
            except TypeError:
                # Trees without numeric scores (set-level consensus only)
                # cannot build rank statistics; count keys structurally.
                n = len(session.tree.keys())
            probed = (_layout_kind(session), n)
            session.__dict__["_query_target_probe"] = probed
        layout, n = probed
        return TargetProfile(
            deployment=deployment,
            layout=layout,
            n=n,
            shard_count=getattr(session, "shard_count", 1),
            backend=get_backend().name,
        )

    # ------------------------------------------------------------------
    # Route selection
    # ------------------------------------------------------------------
    def _build_plan(
        self,
        query: ConsensusQuery,
        session: QuerySession,
        deployment: str,
    ) -> ExecutionPlan:
        profile = self.profile(session, deployment)
        hardness = hardness_of(query)
        builder = {
            "topk": self._plan_topk,
            "world": self._plan_world,
            "membership": self._plan_membership,
            "expected_ranks": self._plan_expected_ranks,
            "ranking": self._plan_ranking,
            "aggregate": self._plan_aggregate,
        }[query.family]
        route, algorithm, cost, cost_note, artifacts, paired, runner = builder(
            query, profile
        )
        return ExecutionPlan(
            query=query,
            session=session,
            route=route,
            algorithm=algorithm,
            hardness=hardness,
            profile=profile,
            estimated_cost=cost,
            cost_note=cost_note,
            artifacts=artifacts,
            paired=paired,
            runner=runner,
        )

    def _plan_topk(self, query: ConsensusQuery, profile: TargetProfile):
        k = query.k
        n = profile.n
        metric = query.metric
        if metric == "kendall":
            return self._plan_topk_kendall(query, profile)
        if query.mode == "sample":
            return self._sample_route(query, profile, self._exact_topk_answer)
        if metric == "symmetric_difference":
            if query.statistic == "median":
                return (
                    "exact",
                    "median_topk_symmetric_difference (Theorem 4 size-table "
                    "merge)",
                    float(n) * k + float(n) ** 2,
                    "rank sweep n*k + per-size best-world tables n^2",
                    (
                        ("query:median_topk_symmetric_difference", (k,)),
                    ),
                    True,
                    lambda session, rng: ExecutionResult(
                        session.median_topk_symmetric_difference(k)
                    ),
                )
            return (
                "exact",
                "mean_topk_symmetric_difference (Theorem 3 rank-matrix "
                "kernel)",
                float(n) * k,
                "one truncated rank-matrix sweep (n x k)",
                (
                    ("rank_matrix", (k,)),
                    ("query:mean_topk_symmetric_difference", (k,)),
                ),
                True,
                lambda session, rng: ExecutionResult(
                    session.mean_topk_symmetric_difference(k)
                ),
            )
        if metric == "footrule":
            return (
                "exact",
                "mean_topk_footrule (Section 5.4 min-cost assignment over "
                "the Upsilon tables)",
                float(n) * k + float(k) ** 3,
                "footrule cost matrix n*k + assignment k^3",
                (
                    ("footrule_statistics", (k,)),
                    ("query:mean_topk_footrule", (k,)),
                ),
                True,
                lambda session, rng: ExecutionResult(
                    session.mean_topk_footrule(k)
                ),
            )
        # intersection
        if query.mode == "approximate":
            return (
                "approximate",
                "approximate_topk_intersection (H_k-factor greedy)",
                float(n) * k,
                "rank sweep n*k + greedy selection",
                (
                    ("rank_matrix", (k,)),
                    ("query:approximate_topk_intersection", (k,)),
                ),
                True,
                lambda session, rng: ExecutionResult(
                    session.approximate_topk_intersection(k)
                ),
            )
        return (
            "exact",
            "mean_topk_intersection (Section 5.3 exact kernel)",
            float(n) * k,
            "one truncated rank-matrix sweep (n x k)",
            (
                ("rank_matrix", (k,)),
                ("query:mean_topk_intersection", (k,)),
            ),
            True,
            lambda session, rng: ExecutionResult(
                session.mean_topk_intersection(k)
            ),
        )

    def _plan_topk_kendall(
        self, query: ConsensusQuery, profile: TargetProfile
    ):
        k = query.k
        n = profile.n
        pool = query.param("candidate_pool_size")
        pool_size = pool if pool is not None else min(2 * k, n)

        def pivot(session: QuerySession, rng: Any) -> Tuple:
            return session.approximate_topk_kendall(
                k, candidate_pool_size=pool, rng=rng
            )

        mode = query.mode
        if mode == "auto":
            mode = (
                "exact" if n <= self.kendall_exact_limit else "sample"
            )
        if mode == "exact":
            cost = min(float(n) ** k * 2.0 ** n, 1e300)
            return (
                "exact",
                "brute_force_mean_topk_kendall (exhaustive candidate x "
                "world enumeration; feasible only below the size threshold "
                f"of {self.kendall_exact_limit} tuples)",
                cost,
                "P(n,k) candidate answers x 2^n possible worlds",
                (),
                True,
                self._kendall_brute_force_runner(k),
            )
        if mode == "approximate":
            return (
                "approximate",
                "approximate_topk_kendall (KwikSort pivoting on the "
                "pairwise preference grid)",
                float(n) * k + float(pool_size) ** 2,
                "membership sweep n*k + pivot on a pool^2 preference grid",
                (
                    ("rank_matrix", (k,)),
                    ("query:approximate_topk_kendall", (k, pool)),
                ),
                False,
                lambda session, rng: ExecutionResult(pivot(session, rng)),
            )
        # sample: pivot candidate + CI-driven Monte-Carlo estimate of its
        # expected Kendall distance (the hardness fallback).
        samples = self._sample_budget(query)
        planner = self

        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            answer = tuple(pivot(session, None))
            estimate = planner._ci_estimate(
                session, answer, k, "kendall", query, rng
            )
            return ExecutionResult((answer, estimate.mean), estimate)

        return (
            "sample",
            "pivot candidate + MonteCarloSampler estimate of E[d_K] "
            "(CI-driven sample sizing)",
            float(samples) * n,
            f"<= {samples} sampled worlds x n-leaf batches",
            (("sampler", ()),),
            True,
            runner,
        )

    def _kendall_brute_force_runner(self, k: int):
        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            from repro.consensus.topk.kendall import (
                brute_force_mean_topk_kendall,
            )

            return ExecutionResult(brute_force_mean_topk_kendall(session, k))

        return runner

    def _exact_topk_answer(self, query: ConsensusQuery):
        """The deterministic candidate-answer call for a sampled route."""
        k = query.k
        metric = query.metric
        if metric == "symmetric_difference":
            if query.statistic == "median":
                return lambda session: session.median_topk_symmetric_difference(k)[0]
            return lambda session: session.mean_topk_symmetric_difference(k)[0]
        if metric == "footrule":
            return lambda session: session.mean_topk_footrule(k)[0]
        return lambda session: session.mean_topk_intersection(k)[0]

    def _sample_route(
        self,
        query: ConsensusQuery,
        profile: TargetProfile,
        candidate_factory,
    ):
        """Sampled validation route for a PTIME metric: exact candidate
        answer + Monte-Carlo estimate of its expected distance."""
        k = query.k
        metric = query.metric
        samples = self._sample_budget(query)
        candidate = candidate_factory(query)
        planner = self

        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            answer = tuple(candidate(session))
            estimate = planner._ci_estimate(
                session, answer, k, metric, query, rng
            )
            return ExecutionResult((answer, estimate.mean), estimate)

        return (
            "sample",
            f"exact candidate + MonteCarloSampler estimate of E[d_"
            f"{metric}] (CI-driven sample sizing)",
            float(samples) * profile.n,
            f"<= {samples} sampled worlds x n-leaf batches",
            (("sampler", ()),),
            True,
            runner,
        )

    def _plan_world(self, query: ConsensusQuery, profile: TargetProfile):
        n = profile.n
        metric = query.metric
        statistic = query.statistic
        if metric == "symmetric_difference":
            if statistic == "median":
                return (
                    "exact",
                    "median world tree DP (exact on and/xor trees)",
                    float(n),
                    "one bottom-up pass over the tree",
                    (("query:median_world_symmetric_difference", ()),),
                    True,
                    lambda session, rng: ExecutionResult(
                        session.median_world_symmetric_difference()
                    ),
                )
            return (
                "exact",
                "membership-probability threshold (keep Pr > 1/2, "
                "Theorem 2)",
                float(n),
                "one pass over the alternative probabilities",
                (("query:mean_world_symmetric_difference", ()),),
                True,
                lambda session, rng: ExecutionResult(
                    session.mean_world_symmetric_difference()
                ),
            )
        # Jaccard
        if statistic == "median":
            return (
                "exact",
                "per-block representative prefix scan (Section 4.2, BID "
                "layouts)",
                float(n) ** 2,
                "n prefixes x Lemma 1 evaluation",
                (("query:median_world_jaccard", ()),),
                True,
                lambda session, rng: ExecutionResult(
                    session.median_world_jaccard()
                ),
            )
        return (
            "exact",
            "probability-sorted prefix scan (Lemma 2; prefix optimality "
            "guaranteed for tuple-independent layouts)",
            float(n) ** 2,
            "one O(n^2) backend prefix sweep",
            (("query:mean_world_jaccard", ()),),
            True,
            lambda session, rng: ExecutionResult(
                session.mean_world_jaccard()
            ),
        )

    def _plan_membership(self, query: ConsensusQuery, profile: TargetProfile):
        k = query.k
        return (
            "exact",
            "rank_matrix(k).membership() (Pr(r(t) <= k) per tuple)",
            float(profile.n) * k,
            "one truncated rank-matrix sweep (n x k)",
            (("rank_matrix", (k,)), ("top_k_membership", (k,))),
            False,
            lambda session, rng: ExecutionResult(
                session.top_k_membership(k)
            ),
        )

    def _plan_expected_ranks(
        self, query: ConsensusQuery, profile: TargetProfile
    ):
        return (
            "exact",
            "expected_rank_table (Cormode-style expected ranks)",
            float(profile.n) ** 2,
            "n^2 general / n log n tuple-independent",
            (("expected_rank_table", ()),),
            False,
            lambda session, rng: ExecutionResult(
                session.expected_rank_table()
            ),
        )

    def _plan_ranking(self, query: ConsensusQuery, profile: TargetProfile):
        k = query.k
        if query.semantics == "global":
            return (
                "exact",
                "global_topk baseline (score order)",
                float(profile.n) * k,
                "score sort + prefix",
                (("query:global_topk", (k,)),),
                False,
                lambda session, rng: ExecutionResult(session.global_topk(k)),
            )
        return (
            "exact",
            "expected_rank_topk baseline",
            float(profile.n) ** 2,
            "expected-rank table + prefix",
            (
                ("expected_rank_table", ()),
                ("query:expected_rank_topk", (k,)),
            ),
            False,
            lambda session, rng: ExecutionResult(
                session.expected_rank_topk(k)
            ),
        )

    def _plan_aggregate(self, query: ConsensusQuery, profile: TargetProfile):
        median = query.statistic == "median"

        def runner(session: QuerySession, rng: Any) -> ExecutionResult:
            from repro.consensus.aggregates import GroupByCountConsensus

            consensus = GroupByCountConsensus.from_bid_tree(session.tree)
            if median:
                return ExecutionResult(
                    consensus.median_answer_approximation()
                )
            return ExecutionResult(tuple(consensus.mean_answer()))

        if median:
            return (
                "approximate",
                "GroupByCountConsensus.median_answer_approximation "
                "(min-cost-flow rounding)",
                float(profile.n) ** 2,
                "expected counts + min-cost flow over n tuples x m groups",
                (),
                True,
                runner,
            )
        return (
            "exact",
            "GroupByCountConsensus.mean_answer (expected counts)",
            float(profile.n),
            "one pass over the group probabilities",
            (),
            False,
            runner,
        )

    # ------------------------------------------------------------------
    # Fused multi-query plans
    # ------------------------------------------------------------------
    def fuse_plans(self, session: QuerySession, plans) -> int:
        """Seed one artifact sweep for a batch of rank-matrix plans.

        Plans in a micro-batch that consult the ``rank_matrix`` artifact
        at different ``k`` are all answered from *one* backend sweep at
        ``k_max``: ``Pr(r(t) = i)`` does not depend on the truncation
        bound, so :meth:`~repro.engine.RankMatrix.truncated` column-prefix
        slices are exactly identical to per-``k`` recomputation.  The
        sweep is materialized, the smaller-``k`` entries are seeded into
        the session's artifact cache as slices, and every plan in the
        group then dispatches against a warm artifact.

        Returns the number of plans answered from the fused sweep (0 when
        fewer than two distinct ``k`` values want the artifact).
        """
        wanted: Dict[int, int] = {}
        for plan in plans:
            if plan is None:
                continue
            for name, params in plan.artifacts:
                if name == "rank_matrix" and params:
                    k = params[0]
                    wanted[k] = wanted.get(k, 0) + 1
                    break
        if len(wanted) < 2:
            return 0
        ks = sorted(wanted)
        k_max = ks[-1]
        # One sweep at k_max; each smaller k is memoized as its slice.  The
        # slice reads the sweep through the session its computation is
        # handed, so on a sharded coordinator both live in one vector's
        # entry even if an update lands in between.
        session.rank_matrix(k_max)
        for k in ks[:-1]:
            session._memoized(
                "rank_matrix",
                (k,),
                lambda reader, k=k: reader.rank_matrix(k_max).truncated(k),
            )
        return sum(wanted.values())

    # ------------------------------------------------------------------
    # Monte-Carlo machinery
    # ------------------------------------------------------------------
    def _sample_budget(self, query: ConsensusQuery) -> int:
        if query.sample_cap is not None:
            return query.sample_cap
        if query.target_epsilon is not None:
            return self.max_samples
        return self.default_samples

    def _ci_estimate(
        self,
        session: QuerySession,
        answer: Tuple,
        k: int,
        metric: str,
        query: ConsensusQuery,
        rng: Any,
    ) -> Any:
        """Estimate ``E[d(answer, tau_pw)]``, sizing samples by the CI.

        Draws batches through the session's memoized
        :class:`~repro.engine.MonteCarloSampler` until the
        normal-approximation confidence interval's half-width drops below
        the query's epsilon (when set) or the sample budget is exhausted.
        """
        from repro.engine.sampling import StreamingMoments, resolve_rng

        sampler = session.sampler()
        generator = resolve_rng(rng)
        moments = StreamingMoments()
        epsilon = query.target_epsilon
        cap = self._sample_budget(query)
        batch = min(self.batch_size, cap)
        drawn = 0
        while drawn < cap:
            count = min(batch, cap - drawn)
            world_batch = sampler.sample_batch(count, rng=generator)
            moments.add_many(world_batch.topk_distances(answer, k, metric))
            drawn += count
            if epsilon is not None:
                estimate = moments.estimate()
                low, high = estimate.confidence_interval(
                    query.confidence_level
                )
                if (high - low) / 2.0 <= epsilon:
                    break
        return moments.estimate()


#: The process-wide planner instance the convenience APIs use.
DEFAULT_PLANNER = Planner()
