"""The ``connect()`` facade: one connection type over every deployment.

``repro.connect(...)`` accepts anything that holds a probabilistic
database -- a convenience model, a bare and/xor tree, rank statistics, a
(sharded) query session, a :class:`~repro.models.sharded.ShardedDatabase`
or an async :class:`~repro.serving.ServingExecutor` -- and returns one
:class:`Connection` through which every declarative
:class:`~repro.query.ConsensusQuery` runs.  The connection resolves the
deployment once (``local`` / ``sharded`` / ``served``), holds the warm
session behind it, and delegates route selection to the hardness-aware
:class:`~repro.query.Planner`.

>>> import repro
>>> from repro import Query
>>> connection = repro.connect(database)          # doctest: +SKIP
>>> answer = connection.execute(Query.topk(k=10)) # doctest: +SKIP
>>> print(connection.explain(Query.topk(k=10).distance("kendall")))
...                                               # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional, Sequence, Union

from repro.exceptions import PlanningError
from repro.query.answers import QueryAnswer
from repro.query.builder import ConsensusQuery
from repro.query.plan import ExecutionPlan
from repro.query.planner import DEFAULT_PLANNER, Planner, resolve_session
from repro.query.results import ResultCache, answer_key, result_cache_for
from repro.session import CacheInfo, QuerySession


class Connection:
    """One handle over a local, sharded or served consensus database.

    Obtain instances through :func:`connect`.  All three deployments
    expose the same synchronous :meth:`execute` (served connections answer
    directly from the executor's coordinator session, sharing its warm
    caches); served connections additionally support :meth:`execute_async`,
    which routes through the executor's coalescing/batching machinery and
    must be awaited inside its event loop.
    """

    def __init__(
        self,
        session: QuerySession,
        deployment: str,
        executor: Optional[Any] = None,
        planner: Optional[Planner] = None,
        result_cache: Union[bool, ResultCache] = True,
    ) -> None:
        self._session = session
        self._deployment = deployment
        self._executor = executor
        self._planner = planner if planner is not None else DEFAULT_PLANNER
        if isinstance(result_cache, ResultCache):
            self._result_cache: Optional[ResultCache] = result_cache
        elif result_cache:
            # Attach to the answering session so every connection (and,
            # on served targets, the executor via the database holder)
            # over the same warm state shares one pool of completed
            # answers.
            self._result_cache = result_cache_for(session)
        else:
            self._result_cache = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def session(self) -> QuerySession:
        """The (coordinator) session answering this connection's queries."""
        return self._session

    @property
    def deployment(self) -> str:
        """``local``, ``sharded`` or ``served``."""
        return self._deployment

    @property
    def executor(self) -> Optional[Any]:
        """The serving executor behind a ``served`` connection (else None)."""
        return self._executor

    @property
    def planner(self) -> Planner:
        """The planner choosing this connection's execution paths."""
        return self._planner

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The cross-session answer cache (None when disabled)."""
        return self._result_cache

    def keys(self) -> list:
        """The tuple keys of the connected database."""
        return self._session.keys()

    def __len__(self) -> int:
        return self._session.number_of_tuples()

    def cache_info(self) -> CacheInfo:
        """The session's cache counters."""
        return self._session.cache_info()

    # ------------------------------------------------------------------
    # Planning and execution
    # ------------------------------------------------------------------
    def plan(self, query: ConsensusQuery) -> ExecutionPlan:
        """The (memoized) execution plan for a query on this connection."""
        return self._planner.plan_for(query, self._session, self._deployment)

    def explain(self, query: ConsensusQuery) -> str:
        """Render the chosen execution path without running the query."""
        return self.plan(query).explain()

    def execute(self, query: ConsensusQuery, rng: Any = None) -> QueryAnswer:
        """Execute a query synchronously, returning a :class:`QueryAnswer`.

        On a served connection whose executor is running, the query is
        handed to the executor's event loop (thread-safe) so it serializes
        with all other serving work on the coordinator worker -- the
        coordinator session is not otherwise thread-safe.  ``rng`` is only
        meaningful on that path when the randomized route would bypass
        memoization anyway, so it is rejected there; pass seeds through
        local/sharded connections or the query's own ``sampled`` settings.
        """
        loop = self._served_loop("execute", "await execute_async()", rng)
        if loop is not None:
            import asyncio

            return asyncio.run_coroutine_threadsafe(
                self._executor.execute(query), loop
            ).result()
        with self._session._pinned_read() as session:
            return self._execute_on(session, query, rng)

    def _served_loop(self, method: str, instead: str, rng: Any) -> Any:
        """The running executor's event loop, or ``None`` when this
        connection answers on its own session."""
        loop = getattr(self._executor, "_loop", None)
        if loop is None or not loop.is_running():
            return None
        import asyncio

        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            raise PlanningError(
                f"Connection.{method}() would deadlock inside the "
                f"executor's event loop; {instead} instead"
            )
        if rng is not None:
            raise PlanningError(
                "rng overrides are not supported through a running "
                "serving executor; use a local/sharded connection"
            )
        return loop

    def _execute_on(
        self, session: QuerySession, query: ConsensusQuery, rng: Any
    ) -> QueryAnswer:
        """Answer ``query`` on ``session`` (pinned by the caller, so the
        answer and its result-cache key describe one state)."""
        cache_key = None
        if self._result_cache is not None and rng is None:
            # rng overrides deliberately bypass the cache: a seeded run
            # is a request for a *specific* sample stream, not for
            # whichever stream happened to be answered first.
            cache_key = self._answer_key(session, query)
            if cache_key is not None:
                hit = self._result_cache.get(cache_key)
                if hit is not None:
                    # A replayed answer causes no session-cache traffic
                    # of its own; the hit/miss deltas describe *this*
                    # execution, not the original compute.
                    return replace(
                        hit, cached=True, cache_hits=0, cache_misses=0
                    )
        answer = self.plan(query).rebound(session).execute(rng=rng)
        if cache_key is not None and not answer.stale and not answer.degraded:
            # Reads never move a session's token, and an update that lands
            # mid-query publishes a new vector without touching the one a
            # sharded read is pinned at: the answer belongs under the key
            # it was looked up with.
            self._result_cache.put(cache_key, answer.detached())
        return answer

    @staticmethod
    def _answer_key(
        session: QuerySession, query: ConsensusQuery
    ) -> Optional[Any]:
        """The result-cache key of ``query`` at ``session``'s state (None
        when the session cannot produce a version token)."""
        token_of = getattr(session, "version_token", None)
        if token_of is None:
            return None
        from repro.engine import get_backend

        try:
            return answer_key(query, token_of(), get_backend().name)
        except Exception:
            return None

    def execute_many(
        self, queries: Sequence[ConsensusQuery], rng: Any = None
    ) -> List[QueryAnswer]:
        """Execute several queries, fusing shared-artifact plans.

        Queries in the batch that consult the rank-matrix artifact at
        different depths are planned as *one* sweep: the matrix is
        materialized once at the largest requested ``k`` and the smaller
        depths answered from exact column-prefix slices
        (truncation-independence of per-rank probabilities), instead of
        one full dynamic program per query.  On a served connection with
        a running executor the whole batch is submitted in one shot so
        the executor's micro-batching (and its own fusion pass) sees it
        together.  Answers come back in input order, each identical to
        what :meth:`execute` would have returned.
        """
        queries = list(queries)
        if not queries:
            return []
        loop = self._served_loop(
            "execute_many", "await the executor directly", rng
        )
        if loop is not None:
            import asyncio

            executor = self._executor

            async def _gather() -> List[QueryAnswer]:
                return list(
                    await asyncio.gather(
                        *(executor.execute(q) for q in queries)
                    )
                )

            return asyncio.run_coroutine_threadsafe(_gather(), loop).result()
        plans = [self.plan(query) for query in queries]
        # One pinned read for the batch: the fused sweep and every answer
        # see the same state.
        with self._session._pinned_read() as session:
            try:
                self._planner.fuse_plans(session, plans)
            except Exception:
                # Fusion is a pure optimization; per-query execution
                # below answers correctly without it.
                pass
            return [
                self._execute_on(session, query, rng) for query in queries
            ]

    async def execute_async(self, query: ConsensusQuery) -> QueryAnswer:
        """Execute through the serving executor (awaitable).

        Falls back to the synchronous path on local/sharded connections so
        async application code can treat every deployment uniformly.
        """
        if self._executor is None:
            return self.execute(query)
        return await self._executor.execute(query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Connection(deployment={self._deployment!r}, "
            f"n={self._session.number_of_tuples()})"
        )


def connect(
    target: Any,
    shards: Optional[int] = None,
    partitioner: str = "hash",
    planner: Optional[Planner] = None,
    result_cache: Union[bool, ResultCache] = True,
) -> Connection:
    """Open a :class:`Connection` over any supported target.

    Parameters
    ----------
    target:
        A convenience database (``TupleIndependentDatabase`` /
        ``BlockIndependentDatabase`` / ``XTupleDatabase``), an
        :class:`~repro.andxor.tree.AndXorTree`, a ``RankStatistics``, a
        :class:`~repro.session.QuerySession`, a
        :class:`~repro.models.sharded.ShardedDatabase`, a sharded
        coordinator session, a :class:`~repro.serving.ServingExecutor`, or
        an existing :class:`Connection` (returned unchanged).
    shards:
        When given (and the target is an unsharded database), partition it
        into this many shards first and connect to the coordinator.
        Incompatible with targets that are already connected or sharded --
        re-shard the underlying database instead.
    partitioner:
        Partitioning strategy for ``shards`` (``"hash"`` or ``"range"``).
    planner:
        Optional :class:`Planner` override (defaults to the process-wide
        hardness-aware planner).
    result_cache:
        ``True`` (default) attaches the shared cross-session
        :class:`~repro.query.ResultCache` of the answering session;
        ``False`` disables answer caching for this connection; an
        explicit :class:`~repro.query.ResultCache` instance is used
        as-is (e.g. to bound capacity or set a TTL).
    """
    if isinstance(target, Connection):
        if shards is not None:
            raise PlanningError(
                "cannot re-shard through a Connection; call "
                "connect(database, shards=...) on the underlying database"
            )
        if planner is not None and planner is not target.planner:
            # Rebind to the requested planner, sharing the warm session.
            return Connection(
                target.session,
                target.deployment,
                executor=target.executor,
                planner=planner,
            )
        return target
    if shards is not None:
        if shards < 1:
            raise PlanningError(
                f"shard count must be positive, got {shards}"
            )
        from repro.models.sharded import ShardedDatabase

        if isinstance(target, ShardedDatabase):
            raise PlanningError(
                "target is already sharded; connect to it directly or "
                "re-shard the underlying database"
            )
        target = ShardedDatabase(target, shards, partitioner=partitioner)
    session, deployment = resolve_session(target)
    executor = None
    if deployment == "served":
        executor = target
    return Connection(
        session,
        deployment,
        executor=executor,
        planner=planner,
        result_cache=result_cache,
    )
