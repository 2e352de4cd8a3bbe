"""The asyncio front-end over a sharded database.

:class:`ServingExecutor` accepts concurrent consensus queries against one
:class:`~repro.models.sharded.ShardedDatabase` and answers them through the
cross-shard coordinator session:

* **Request coalescing** -- identical queries arriving while a previous one
  is still in flight (same request, same shard generation) share one
  computation and one result future.
* **Micro-batching** -- queued requests are drained into batches; each batch
  first pre-warms the per-shard partial summaries through the database's
  shard provider (off each shard's columns in-process, fanned out across
  the worker processes under ``executor="processes"``), then answers every
  request on the coordinator worker, so batch members share the freshly
  merged artifacts.
* **Graceful invalidation fan-out** -- an update derives only the owning
  shard's next columns on that shard's worker (off the event loop and off
  the query path) and swaps them in with the version bump; the coordinator
  notices the version change lazily and re-merges from the unchanged
  shards' warm summaries, re-sweeping the updated shard's prefix tables
  only from the changed row.
* **Instrumentation** -- per-request latency quantiles, batch sizes,
  coalescing and invalidation counters (:meth:`ServingExecutor.metrics`).
* **Self-healing** -- per-query deadlines (``deadline_ms`` ->
  :class:`~repro.exceptions.DeadlineExceededError`, with abandoned
  batch entries cancelled once no coalesced waiter remains), bounded
  retries with exponential backoff for transient worker failures, a
  per-shard circuit breaker, and graceful degradation when a shard stays
  down: reads serve the last good answer (``stale=True`` provenance)
  within ``staleness_bound_s``, then fall back to a fresh answer over
  the merged tree *minus* the dead shards (``degraded=True``); updates
  to a dead shard land in a bounded queue that drains on recovery, or
  fail fast with :class:`~repro.exceptions.ShardUnavailableError`.

>>> async def main():
...     async with ServingExecutor(database) as executor:
...         answer, distance = await executor.query(
...             "mean_topk_symmetric_difference", k=5
...         )
...         await executor.update("t3", probability=0.2)
...         answer2, _ = await executor.query("mean_topk_footrule", k=5)
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Deque, Dict, FrozenSet, Hashable, List, Optional, Tuple, Union

from repro.exceptions import (
    DeadlineExceededError,
    ProcessPoolError,
    ShardUnavailableError,
    SnapshotTooOldError,
    WorkerCrashError,
)
from repro.models.sharded import ShardedDatabase, StaleUpdateError
from repro.query.answers import QueryAnswer
from repro.query.builder import ConsensusQuery
from repro.query.planner import DEFAULT_PLANNER
from repro.query.results import ResultCache, answer_key, result_cache_for
from repro.serving.metrics import ServingMetrics, ServingMetricsSnapshot
from repro.serving.requests import (
    QueryRequest,
    as_query,
    required_max_rank,
)

_SENTINEL = object()

#: Anything the executor accepts as one query submission.
Submittable = Union[QueryRequest, ConsensusQuery]

#: Bound on the last-good-answer cache behind stale serving.
_LAST_ANSWER_CAP = 256


def _is_transient(error: BaseException) -> bool:
    """Whether a pool failure is worth retrying (crash/timeout/drop)."""
    return bool(getattr(error, "transient", isinstance(error, WorkerCrashError)))


class _ShardBreaker:
    """Circuit breaker for one shard.

    ``threshold`` consecutive failures trip it open; while open (within
    ``cooldown`` seconds of the trip) callers skip the shard entirely.
    After the cooldown the breaker *half-opens*: one probe request is
    admitted, and its outcome either closes the breaker or re-arms the
    cooldown.
    """

    __slots__ = ("consecutive", "opened_at")

    def __init__(self) -> None:
        self.consecutive = 0
        self.opened_at: Optional[float] = None

    def is_open(self, now: float, cooldown: float) -> bool:
        if self.opened_at is None:
            return False
        return now - self.opened_at < cooldown

    def record_failure(self, now: float, threshold: int) -> bool:
        """Count one failure; True when this trip newly opened the breaker."""
        self.consecutive += 1
        if self.consecutive >= threshold:
            newly = self.opened_at is None
            self.opened_at = now
            return newly
        return False

    def record_success(self) -> None:
        self.consecutive = 0
        self.opened_at = None


class ServingExecutor:
    """Async batched query executor over a sharded database.

    Parameters
    ----------
    database:
        The sharded database to serve.
    coalesce:
        Share one in-flight computation between identical concurrent
        queries hitting the same shard generation.
    batch_window:
        Seconds to linger collecting a micro-batch after the first queued
        request (0.0 drains whatever is already queued, adding no latency).
    max_batch_size:
        Upper bound on one micro-batch.
    warm_shards:
        Pre-compute the per-shard partial summaries of a batch through the
        database's shard provider before merging.
    deadline_ms:
        Default per-query deadline in milliseconds (``None`` = none).  A
        query that misses it raises
        :class:`~repro.exceptions.DeadlineExceededError`; its queued
        batch entry is cancelled once no coalesced waiter remains.
        Overridable per call via ``execute(..., deadline_ms=...)``.
    max_retries / retry_backoff:
        Budget for re-running a query or update whose execution failed
        with a *transient* worker error (crash, request timeout, dropped
        message).  Attempt ``i`` sleeps ``retry_backoff * 2**(i-1)``
        seconds first.
    breaker_threshold / breaker_cooldown_s:
        Per-shard circuit breaker: after ``breaker_threshold``
        consecutive failures the shard is skipped for
        ``breaker_cooldown_s`` seconds (reads degrade, updates queue),
        then one probe is admitted (half-open).
    degraded_reads:
        Allow stale / shard-excluded answers when a shard is
        unavailable; when false, exhausted retries surface the error.
    staleness_bound_s:
        Maximum age of a cached answer served stale; older falls through
        to the fresh-but-degraded route (merged tree minus dead shards).
    update_queue_limit:
        Bounded per-shard queue for updates arriving while the shard is
        down; beyond it updates fail fast with
        :class:`~repro.exceptions.ShardUnavailableError`.
    result_cache:
        Serve completed answers from the cross-session
        :class:`~repro.query.ResultCache` (keyed by query fingerprint,
        coordinator version token and backend, so data changes,
        ``invalidate()`` and backend switches all miss structurally).
        ``True`` attaches to the database's shared cache (every executor
        and connection over the same database shares one pool of
        answers); pass a :class:`~repro.query.ResultCache` instance for
        explicit bounds, or ``False`` to disable (e.g. fault-injection
        harnesses that align faults with request ordinals).  Lookups are
        bypassed while any circuit breaker is open, and stale / degraded
        answers are never stored, so the self-healing provenance ladder
        is unaffected.
    fuse_batches:
        Plan micro-batch members wanting the rank-matrix artifact at
        different ``k`` as one fused ``k_max`` sweep (smaller ``k``
        entries are exact column-prefix slices).
    """

    def __init__(
        self,
        database: ShardedDatabase,
        coalesce: bool = True,
        batch_window: float = 0.0,
        max_batch_size: int = 64,
        warm_shards: bool = True,
        deadline_ms: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.02,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 0.5,
        degraded_reads: bool = True,
        staleness_bound_s: float = 30.0,
        update_queue_limit: int = 32,
        result_cache: Union[bool, ResultCache] = True,
        fuse_batches: bool = True,
    ) -> None:
        self._database = database
        self._coalesce = coalesce
        self._batch_window = batch_window
        self._max_batch_size = max(1, max_batch_size)
        self._warm_shards = warm_shards
        self._deadline_ms = deadline_ms
        self._max_retries = max(0, int(max_retries))
        self._retry_backoff = max(0.0, retry_backoff)
        self._breaker_threshold = max(1, int(breaker_threshold))
        self._breaker_cooldown = max(0.0, breaker_cooldown_s)
        self._degraded_reads = degraded_reads
        self._staleness_bound = max(0.0, staleness_bound_s)
        self._update_queue_limit = max(0, int(update_queue_limit))
        if isinstance(result_cache, ResultCache):
            self._result_cache: Optional[ResultCache] = result_cache
        elif result_cache:
            self._result_cache = result_cache_for(database)
        else:
            self._result_cache = None
        self._fuse_batches = fuse_batches
        self._breakers: Dict[int, _ShardBreaker] = {}
        #: query -> (QueryAnswer, monotonic time): the stale-serving source.
        self._last_answers: "OrderedDict[ConsensusQuery, Tuple[QueryAnswer, float]]" = OrderedDict()
        self._degraded_cache: Optional[Tuple[Any, Any]] = None
        self._update_queues: Dict[int, Deque[Tuple[Hashable, Optional[float], Optional[float]]]] = {}
        self._metrics = ServingMetrics()
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._shard_pools: List[ThreadPoolExecutor] = []
        self._merge_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[Any] = None
        self._owns_process_pool = False
        self._pending: Dict[Tuple[QueryRequest, Tuple[int, ...]], asyncio.Future] = {}
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._database.subscribe(self._on_invalidation)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def database(self) -> ShardedDatabase:
        return self._database

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The cross-session answer cache (None when disabled)."""
        return self._result_cache

    def metrics(self) -> ServingMetricsSnapshot:
        """A snapshot of the executor's counters and latency quantiles.

        Under ``executor="processes"`` the snapshot's ``ipc`` field carries
        the worker pool's transport counters (summaries exchanged, bytes
        shipped over pipes vs shared memory).  The ``merge`` field carries
        the coordinator's merge-engine counters (full vs incremental
        re-merges, convolutions, reused partial products) once a
        coordinator exists.
        """
        ipc = None
        if self._process_pool is not None and not self._process_pool.closed:
            ipc = self._process_pool.stats()
        merge = None
        coordinator = getattr(self._database, "_coordinator", None)
        if coordinator is not None:
            merge = coordinator.merge_stats()
        return self._metrics.snapshot(ipc=ipc, merge=merge)

    @property
    def started(self) -> bool:
        return self._dispatcher is not None

    async def start(self) -> "ServingExecutor":
        """Start the dispatcher task and the worker pools (idempotent).

        Under ``executor="processes"`` the database's worker pool is
        mounted first -- processes must be spawned before any thread pool
        exists (forking a threaded parent risks deadlocked children).  A
        failure mid-start releases everything already started.
        """
        if self._dispatcher is not None:
            return self
        if self._closed:
            raise RuntimeError("executor already stopped")
        try:
            if getattr(self._database, "executor", "threads") == "processes":
                existing = getattr(self._database, "_pool", None)
                self._owns_process_pool = existing is None or existing.closed
                self._process_pool = self._database.process_pool()
            self._queue = asyncio.Queue()
            self._shard_pools = [
                ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-shard-{index}"
                )
                for index in range(self._database.shard_count)
            ]
            self._merge_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-coordinator"
            )
            self._loop = asyncio.get_running_loop()
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        except BaseException:
            self._closed = True
            self._release_workers()
            raise
        return self

    async def stop(self) -> None:
        """Drain the queue, stop the dispatcher and shut the pools down.

        Idempotent: a second (or concurrent re-entrant) stop is a no-op.
        Also detaches from the database's invalidation fan-out and, when
        this executor started the process pool, shuts its workers down --
        so a stopped executor is fully released even if the drain itself
        raises (the database may outlive many executors).
        """
        self._database.unsubscribe(self._on_invalidation)
        if self._closed and self._dispatcher is None:
            return
        self._closed = True
        try:
            if self._dispatcher is not None:
                assert self._queue is not None
                await self._queue.put(_SENTINEL)
                await self._dispatcher
        finally:
            self._dispatcher = None
            self._release_workers()

    def close(self) -> None:
        """Synchronously release worker resources (idempotent).

        The no-event-loop escape hatch: cancels a still-running dispatcher
        instead of draining it, then releases the thread pools and (when
        owned) the process pool.  Prefer ``await stop()`` for a graceful
        drain; ``close()`` is for ``finally`` blocks and tests that tear
        down outside the loop.
        """
        self._database.unsubscribe(self._on_invalidation)
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            self._dispatcher = None
        self._release_workers()

    def _release_workers(self) -> None:
        for pool in self._shard_pools:
            pool.shutdown(wait=True)
        self._shard_pools = []
        if self._merge_pool is not None:
            self._merge_pool.shutdown(wait=True)
            self._merge_pool = None
        if self._process_pool is not None:
            if self._owns_process_pool:
                self._process_pool.close()
            self._process_pool = None
            self._owns_process_pool = False

    async def __aenter__(self) -> "ServingExecutor":
        try:
            return await self.start()
        except BaseException:
            await self.stop()
            raise

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    def _on_invalidation(self, shard_index: int, key: Hashable) -> None:
        # Fires synchronously from whichever thread applied the update
        # (usually the coordinator worker); all other counters mutate on
        # the event-loop thread, so hop there instead of racing a
        # non-atomic increment.
        def bump() -> None:
            self._metrics.invalidations += 1

        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(bump)
        else:
            bump()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    async def execute(
        self,
        request: Submittable,
        deadline_ms: Optional[float] = None,
    ) -> QueryAnswer:
        """Answer one query, returning the full :class:`QueryAnswer`.

        Accepts a declarative :class:`~repro.query.ConsensusQuery` or a
        wire :class:`QueryRequest` (normalized to a query at ingress, so
        both forms coalesce onto the same in-flight computation -- the
        coalescing key is the query object's stable hash plus the shard
        versions it would read).

        ``deadline_ms`` overrides the executor default for this call (a
        value <= 0 disables the deadline).  On expiry the call raises
        :class:`~repro.exceptions.DeadlineExceededError` and -- when it
        was the last waiter -- cancels the queued batch entry so the
        dispatcher never computes an answer nobody wants.
        """
        query = as_query(request)
        timeout = self._deadline_ms if deadline_ms is None else deadline_ms
        if timeout is not None and timeout <= 0:
            timeout = None
        if timeout is None:
            return await self._execute_inner(query)
        try:
            return await asyncio.wait_for(
                self._execute_inner(query), timeout / 1000.0
            )
        except asyncio.TimeoutError:
            self._metrics.deadline_exceeded += 1
            raise DeadlineExceededError(
                f"query {query.kind!r} missed its {timeout:g} ms deadline; "
                "retry with a longer deadline or at lower load"
            ) from None

    async def _execute_inner(self, query: ConsensusQuery) -> QueryAnswer:
        if self._dispatcher is None:
            await self.start()
        if self._closed:
            raise RuntimeError("executor is stopped")
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        versions = self._database.versions()
        cache_key = self._result_cache_key(query, versions)
        if cache_key is not None:
            hit = self._result_cache.get(cache_key)
            if hit is not None:
                self._metrics.count_query(query.kind)
                self._metrics.result_cache_hits += 1
                self._metrics.latency.record(time.perf_counter() - started)
                # Zero the session-traffic deltas: a replayed answer
                # causes no artifact computation of its own.
                return replace(
                    hit, cached=True, cache_hits=0, cache_misses=0
                )
            self._metrics.result_cache_misses += 1
        pending_key = (query, versions)
        if self._coalesce:
            existing = self._pending.get(pending_key)
            if existing is not None:
                self._metrics.coalesced += 1
                try:
                    return await self._await_result(existing)
                finally:
                    self._metrics.latency.record(
                        time.perf_counter() - started
                    )
        future: asyncio.Future = loop.create_future()
        future._repro_waiters = 0  # type: ignore[attr-defined]
        if self._coalesce:
            self._pending[pending_key] = future
            future.add_done_callback(
                lambda _: self._pending.pop(pending_key, None)
            )
        self._metrics.count_query(query.kind)
        # The versions captured at ingress pin the read: the batch answers
        # on a snapshot reader at exactly this vector, so a concurrent
        # update landing before the batch runs cannot tear the result.
        # The cache key computed at ingress rides along so the store after
        # execution lands under exactly the state the submitter observed.
        await self._queue.put((query, future, versions, cache_key))
        try:
            return await self._await_result(future)
        finally:
            self._metrics.latency.record(time.perf_counter() - started)

    def _result_cache_key(
        self, query: ConsensusQuery, versions: Tuple[int, ...]
    ) -> Optional[Tuple[Any, ...]]:
        """The answer-cache key of one request at ingress, or None.

        None disables caching for this request: the cache is off, the
        query is randomized (``rng`` params must never be served a
        memoized draw), or a circuit breaker is open (while shards are
        down the self-healing ladder owns provenance -- a cache hit must
        not mask a stale/degraded answer).  The token is the
        coordinator's version token, so shard version bumps *and*
        explicit ``invalidate()`` calls (e.g. a cold-read fault drill)
        both miss structurally; the backend name keeps answers computed
        by different backends apart across ``set_backend()`` switches.
        """
        if self._result_cache is None:
            return None
        if self._breakers and self._open_breaker_shards(time.monotonic()):
            return None
        try:
            coordinator = self._database.coordinator()
        except Exception:
            return None
        from repro.engine import get_backend

        return answer_key(
            query,
            coordinator.version_token(versions),
            get_backend().name,
        )

    @staticmethod
    async def _await_result(future: asyncio.Future) -> QueryAnswer:
        """Await a (possibly shared) result, cancelling it when abandoned.

        The shield keeps one waiter's deadline from killing a computation
        other coalesced waiters still want; the waiter count lets the
        *last* departing waiter cancel the future, so the dispatcher can
        skip batch entries nobody is waiting on anymore.
        """
        count = getattr(future, "_repro_waiters", 0)
        future._repro_waiters = count + 1  # type: ignore[attr-defined]
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            if (
                not future.done()
                and getattr(future, "_repro_waiters", 1) <= 1
            ):
                future.cancel()
            raise
        finally:
            future._repro_waiters -= 1  # type: ignore[attr-defined]

    async def submit(
        self,
        request: Submittable,
        deadline_ms: Optional[float] = None,
    ) -> Any:
        """Answer one query, returning the raw (legacy-shaped) value."""
        answer = await self.execute(request, deadline_ms=deadline_ms)
        return answer.value

    async def query(
        self, kind: str, k: Optional[int] = None, **params: Any
    ) -> Any:
        """Convenience wrapper: build a :class:`QueryRequest` and submit it."""
        return await self.submit(QueryRequest.make(kind, k, **params))

    async def update(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> None:
        """Update one tuple; only its shard's columns change.

        Both the column derivation and the version-bumping swap run on
        the owning shard's worker: snapshot-pinned reads make the
        swap safe against in-flight queries, so updates no longer wait
        behind the coordinator worker's merge queue.  Retries
        transparently if a concurrent update to the same shard wins the
        race (``StaleUpdateError``) and, within the retry budget, if the
        shard's worker fails transiently.

        When the owning shard is down (breaker open, or retries
        exhausted on a transient failure) the update lands in a bounded
        per-shard queue that drains once the shard recovers; a full
        queue fails fast with
        :class:`~repro.exceptions.ShardUnavailableError`.
        """
        if self._dispatcher is None:
            await self.start()
        loop = asyncio.get_running_loop()
        shard_index = self._database.shard_of(key)
        breaker = self._breakers.get(shard_index)
        if breaker is not None and breaker.is_open(
            time.monotonic(), self._breaker_cooldown
        ):
            self._queue_update(shard_index, key, probability, score)
            return
        attempt = 0
        while True:
            try:
                await self._apply_update_once(
                    loop, shard_index, key, probability, score
                )
            except (WorkerCrashError, ProcessPoolError) as error:
                self._record_shard_failure(shard_index)
                if not _is_transient(error):
                    raise
                if attempt < self._max_retries:
                    attempt += 1
                    self._metrics.retries += 1
                    await asyncio.sleep(
                        self._retry_backoff * (2 ** (attempt - 1))
                    )
                    continue
                self._queue_update(
                    shard_index, key, probability, score, cause=error
                )
                return
            else:
                self._record_shard_success(shard_index)
                self._metrics.updates += 1
                await self._drain_queued_updates(loop)
                return

    async def _apply_update_once(
        self,
        loop: asyncio.AbstractEventLoop,
        shard_index: int,
        key: Hashable,
        probability: Optional[float],
        score: Optional[float],
    ) -> None:
        """One prepare+apply cycle, retrying only lost version races."""
        pool = self._shard_pools[shard_index]
        while True:
            pending = await loop.run_in_executor(
                pool,
                self._database.prepare_update,
                key,
                probability,
                score,
            )
            try:
                await loop.run_in_executor(
                    pool, self._database.apply_update, pending
                )
            except StaleUpdateError:
                continue
            return

    def _queue_update(
        self,
        shard_index: int,
        key: Hashable,
        probability: Optional[float],
        score: Optional[float],
        cause: Optional[BaseException] = None,
    ) -> None:
        queue = self._update_queues.setdefault(shard_index, deque())
        if len(queue) >= self._update_queue_limit:
            raise ShardUnavailableError(
                f"shard {shard_index} is unavailable and its bounded "
                f"update queue is full ({self._update_queue_limit} "
                "entries); shed load or wait for the worker to recover"
            ) from cause
        queue.append((key, probability, score))
        self._metrics.updates_queued += 1

    async def _drain_queued_updates(
        self, loop: asyncio.AbstractEventLoop
    ) -> None:
        """Apply queued updates for every shard whose breaker allows it."""
        for shard_index in list(self._update_queues):
            queue = self._update_queues[shard_index]
            if not queue:
                continue
            breaker = self._breakers.get(shard_index)
            if breaker is not None and breaker.is_open(
                time.monotonic(), self._breaker_cooldown
            ):
                continue
            while queue:
                key, probability, score = queue[0]
                try:
                    await self._apply_update_once(
                        loop, shard_index, key, probability, score
                    )
                except (WorkerCrashError, ProcessPoolError):
                    self._record_shard_failure(shard_index)
                    break
                queue.popleft()
                self._metrics.updates += 1
                self._record_shard_success(shard_index)

    def queued_update_count(self) -> int:
        """Updates currently parked in the per-shard recovery queues."""
        return sum(len(queue) for queue in self._update_queues.values())

    def pending_count(self) -> int:
        """Distinct queries currently submitted and not yet answered.

        Coalesced waiters share one pending entry; the HTTP front door's
        drain path polls this (together with its own in-flight counter)
        to decide when the executor is quiescent.
        """
        return len(self._pending)

    async def flush_updates(self) -> int:
        """Try to drain the queued updates now; returns how many remain."""
        if self._dispatcher is None:
            await self.start()
        await self._drain_queued_updates(asyncio.get_running_loop())
        return self.queued_update_count()

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------
    def _record_shard_failure(self, shard_index: Optional[int]) -> None:
        if shard_index is None:
            return
        breaker = self._breakers.setdefault(shard_index, _ShardBreaker())
        if breaker.record_failure(time.monotonic(), self._breaker_threshold):
            self._metrics.breaker_open += 1

    def _record_shard_success(self, shard_index: Optional[int] = None) -> None:
        if shard_index is None:
            # A fresh merged answer touched every live shard.
            for breaker in self._breakers.values():
                breaker.record_success()
        else:
            breaker = self._breakers.get(shard_index)
            if breaker is not None:
                breaker.record_success()

    def _open_breaker_shards(self, now: float) -> FrozenSet[int]:
        return frozenset(
            index
            for index, breaker in self._breakers.items()
            if breaker.is_open(now, self._breaker_cooldown)
        )

    def open_breakers(self) -> Tuple[int, ...]:
        """Shards currently skipped by their circuit breaker, ascending."""
        return tuple(sorted(self._open_breaker_shards(time.monotonic())))

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            if item is _SENTINEL:
                return
            batch = [item]
            stop_after_batch = False
            if self._batch_window > 0.0:
                loop = asyncio.get_running_loop()
                deadline = loop.time() + self._batch_window
                while len(batch) < self._max_batch_size:
                    timeout = deadline - loop.time()
                    if timeout <= 0.0:
                        break
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), timeout
                        )
                    except asyncio.TimeoutError:
                        break
                    if item is _SENTINEL:
                        stop_after_batch = True
                        break
                    batch.append(item)
            else:
                while len(batch) < self._max_batch_size:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is _SENTINEL:
                        stop_after_batch = True
                        break
                    batch.append(item)
            await self._execute_batch(batch)
            if stop_after_batch:
                return

    async def _execute_batch(
        self,
        batch: List[
            Tuple[ConsensusQuery, asyncio.Future, Tuple[int, ...], Any]
        ],
    ) -> None:
        loop = asyncio.get_running_loop()
        self._metrics.count_batch(len(batch))
        if self._update_queues and self.queued_update_count():
            # Shards may have recovered since the updates were parked;
            # drain before reading so answers see the queued writes.
            await self._drain_queued_updates(loop)
        try:
            coordinator = self._database.coordinator()
        except Exception as error:  # route to waiters, keep dispatching
            for _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(error)
            return
        if self._warm_shards and self._database.shard_count > 1:
            try:
                await self._warm_batch(loop, batch)
            except Exception:
                # Warming is advisory; the query path surfaces real
                # failures with retry/degradation applied.
                pass
        if self._fuse_batches and len(batch) > 1:
            try:
                await self._fuse_batch(loop, coordinator, batch)
            except Exception:
                # Fusion is an optimization; per-query execution below
                # recomputes anything the seeds did not cover.
                pass
        for query, future, versions, cache_key in batch:
            if future.done():
                continue
            try:
                result = await self._answer_query(
                    loop, coordinator, query, versions, cache_key
                )
            except Exception as error:  # surfaced to the submitter
                if not future.done():
                    future.set_exception(error)
            else:
                if not future.done():
                    future.set_result(result)

    async def _fuse_batch(
        self,
        loop: asyncio.AbstractEventLoop,
        coordinator: Any,
        batch: List[
            Tuple[ConsensusQuery, asyncio.Future, Tuple[int, ...], Any]
        ],
    ) -> None:
        """Seed fused rank-matrix sweeps for the batch's version groups.

        Batch members pinned at the same version vector that want the
        rank-matrix artifact at different ``k`` are answered from one
        ``k_max`` sweep: the sweep runs once on the coordinator worker
        and the smaller-``k`` entries are seeded into the pinned
        snapshot's artifact store as exact column-prefix slices, so the
        per-query executions below all dispatch against warm artifacts.
        """
        if self._open_breaker_shards(time.monotonic()):
            return  # degraded routes don't read the pinned snapshots
        groups: Dict[Tuple[int, ...], List[ConsensusQuery]] = {}
        for query, future, versions, _ in batch:
            if not future.done():
                groups.setdefault(versions, []).append(query)
        for versions, queries in groups.items():
            if len(queries) < 2:
                continue
            plans = [
                DEFAULT_PLANNER.plan_for(query, coordinator, "served")
                for query in queries
            ]

            def fuse(
                pinned: Tuple[int, ...] = versions, group: List[Any] = plans
            ) -> int:
                return DEFAULT_PLANNER.fuse_plans(
                    coordinator.at(pinned), group
                )

            try:
                fused = await loop.run_in_executor(self._merge_pool, fuse)
            except SnapshotTooOldError:
                continue  # per-query fallback handles aged-out snapshots
            if fused:
                self._metrics.fused_plans += fused

    async def _answer_query(
        self,
        loop: asyncio.AbstractEventLoop,
        coordinator: Any,
        query: ConsensusQuery,
        versions: Tuple[int, ...],
        cache_key: Any = None,
    ) -> QueryAnswer:
        """One query through the full robustness ladder.

        Fresh merged answer first (with bounded retries on transient
        worker failures), degradation when a shard stays unavailable,
        :class:`~repro.exceptions.ShardUnavailableError` when every
        avenue is exhausted.
        """
        dead = self._open_breaker_shards(time.monotonic())
        if dead:
            if self._degraded_reads:
                return await self._serve_degraded(loop, query, dead, None)
            raise ShardUnavailableError(
                f"shard(s) {sorted(dead)} have an open circuit breaker "
                "and degraded reads are disabled"
            )
        attempt = 0
        while True:
            try:
                result, pinned_ok = await self._run_pinned(
                    loop, coordinator, query, versions
                )
            except (WorkerCrashError, ProcessPoolError) as error:
                shard = getattr(error, "shard_index", None)
                self._record_shard_failure(shard)
                if _is_transient(error) and attempt < self._max_retries:
                    attempt += 1
                    self._metrics.retries += 1
                    await asyncio.sleep(
                        self._retry_backoff * (2 ** (attempt - 1))
                    )
                    continue
                if self._degraded_reads:
                    dead = self._open_breaker_shards(time.monotonic())
                    if shard is not None:
                        dead = frozenset(dead | {shard})
                    return await self._serve_degraded(
                        loop, query, dead, error
                    )
                raise
            else:
                # A merged answer touched every live shard: close all
                # breakers and refresh the stale-serving cache.
                self._record_shard_success(None)
                self._cache_answer(query, result)
                if (
                    cache_key is not None
                    and pinned_ok
                    and self._result_cache is not None
                    and not result.stale
                    and not result.degraded
                ):
                    # Store only clean pinned answers: a SnapshotTooOld
                    # fallback answered at *newer* state than the key's
                    # version token, and stale/degraded answers belong to
                    # the self-healing ladder, not the cache.
                    self._result_cache.put(cache_key, result.detached())
                return result

    async def _run_pinned(
        self,
        loop: asyncio.AbstractEventLoop,
        coordinator: Any,
        query: ConsensusQuery,
        versions: Tuple[int, ...],
    ) -> Tuple[QueryAnswer, bool]:
        # Plan (memoized per session) on the live
        # coordinator, then rebind to a reader pinned at the
        # versions captured when the request arrived: the read is
        # isolated from updates that landed while it was queued.
        # The boolean reports whether the answer really reflects the
        # pinned vector (False on the aged-out-snapshot fallback).
        plan = DEFAULT_PLANNER.plan_for(query, coordinator, "served")
        reader = coordinator.at(versions)
        self._metrics.snapshot_reads += 1
        if tuple(versions) != self._database.versions():
            self._metrics.stale_reads += 1
        try:
            answer = await loop.run_in_executor(
                self._merge_pool, plan.rebound(reader).execute
            )
            return answer, True
        except SnapshotTooOldError:
            # The pinned state aged out of the bounded history
            # while queued; answer at the current versions instead.
            answer = await loop.run_in_executor(
                self._merge_pool, plan.execute
            )
            return answer, False

    def _cache_answer(self, query: ConsensusQuery, answer: QueryAnswer) -> None:
        cache = self._last_answers
        cache[query] = (answer.detached(), time.monotonic())
        cache.move_to_end(query)
        while len(cache) > _LAST_ANSWER_CAP:
            cache.popitem(last=False)

    async def _serve_degraded(
        self,
        loop: asyncio.AbstractEventLoop,
        query: ConsensusQuery,
        dead: FrozenSet[int],
        error: Optional[BaseException],
    ) -> QueryAnswer:
        """Answer without the dead shard(s): stale, then shard-excluded.

        The ladder: (1) the last good answer for this exact query, when
        younger than ``staleness_bound_s`` -- exact but at a superseded
        version vector (``stale=True``); (2) a fresh answer over the
        merged tree *minus* the dead shards -- current but missing their
        tuples, so confidence intervals are effectively widened
        (``degraded=True``); (3) a typed
        :class:`~repro.exceptions.ShardUnavailableError`.
        """
        cached = self._last_answers.get(query)
        if cached is not None:
            answer, at_time = cached
            if time.monotonic() - at_time <= self._staleness_bound:
                self._last_answers.move_to_end(query)
                self._metrics.stale_served += 1
                return replace(answer, stale=True)
        if dead and len(dead) < self._database.shard_count:
            try:
                session = await loop.run_in_executor(
                    self._merge_pool, self._degraded_session, frozenset(dead)
                )
                plan = DEFAULT_PLANNER.plan_for(query, session, "served")
                result = await loop.run_in_executor(
                    self._merge_pool, plan.execute
                )
            except Exception as degraded_error:
                raise ShardUnavailableError(
                    f"shard(s) {sorted(dead)} are unavailable and the "
                    f"degraded route failed too: {degraded_error}"
                ) from (error if error is not None else degraded_error)
            self._metrics.degraded_served += 1
            return replace(result, degraded=True)
        raise ShardUnavailableError(
            f"shard(s) {sorted(dead) if dead else '(unknown)'} are "
            "unavailable: no cached answer within the staleness bound "
            "and no live shards left to answer from"
        ) from error

    def _degraded_session(self, dead: FrozenSet[int]) -> Any:
        """A static merged session over the live shards only.

        Built parent-side from the shards' units (the parent always
        holds them, whatever executor runs the healthy path), cached by
        (dead set, live shard versions) and rebuilt only when either
        changes.  Runs on the coordinator worker thread.
        """
        versions = self._database.versions()
        key = (
            dead,
            tuple(
                version
                for index, version in enumerate(versions)
                if index not in dead
            ),
        )
        cached = self._degraded_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        from repro.sharding.coordinator import ShardedQuerySession

        sources = []
        for shard in self._database.shards():
            if shard.index in dead:
                continue
            session = shard.session()
            if session is not None:
                sources.append(session)
        if not sources:
            raise ShardUnavailableError(
                "every shard is unavailable; nothing to degrade onto"
            )
        session = ShardedQuerySession(sources)
        self._degraded_cache = (key, session)
        return session

    async def _warm_batch(
        self,
        loop: asyncio.AbstractEventLoop,
        batch: List[
            Tuple[ConsensusQuery, asyncio.Future, Tuple[int, ...], Any]
        ],
    ) -> None:
        """Concurrently refresh the shard summaries a batch will merge."""
        truncations = sorted(
            {
                rank
                for query, _, _, _ in batch
                for rank in (required_max_rank(query),)
                if rank is not None
            }
        )
        if not truncations:
            return
        # One prefetch through the database's shard provider: in-process
        # it builds the summaries off each shard's columns; under
        # executor="processes" it fans out across the worker processes and
        # leaves the partials in the pool's version-keyed cache.  Either
        # way the merge picks them up, and no shard tree is built.
        await loop.run_in_executor(
            self._merge_pool,
            self._database.shard_provider().prefetch,
            truncations,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingExecutor({self._database!r}, "
            f"coalesce={self._coalesce}, started={self.started})"
        )
