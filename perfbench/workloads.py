"""The benchmark's workloads, each a driver over the public serving API.

Every driver follows one life cycle, and the runner times the first two
steps separately:

* ``setup()`` -- build the database and its shards, start the executor
  or HTTP server, answer the first query (the planner's calibration probe
  runs here, at the first calibrated decision).  This is ``setup_s``.
* ``prepare(seconds)`` -- generate the seeded inputs for a window of about
  ``seconds`` and fill caches users would find warm.  Untimed.
* ``run()`` -- the measured window.  Returns an :class:`Outcome`.
* ``answers()`` -- after the window, untimed: ``(database, query, value)``
  triples for the correctness gate, where ``database`` is the unsharded
  table the value must agree with.
* ``layer_state()`` -- the counters the program keeps itself (serving
  metrics, merge statistics, cache statistics), read once.
* ``close()``.

The ``ti_mixed`` window is a fixed amount of work, sized to last about the
requested seconds on a 2-core host: memory grows with every event there,
so a time-boxed window would charge a speed-up as a memory regression.
The read-only windows of ``bid_sweep`` and ``http_hot`` are time-boxed,
so a run takes the same time however fast the host is at the moment.

Three workloads:

* ``ti_mixed`` -- a 12000-tuple movie-ratings table on 4 hash shards
  behind an in-process :class:`~repro.serving.ServingExecutor`.  Blocks of
  ten events: 4 probability updates on zipf-popular keys and one query of
  each of 6 popular kinds at k = 10, as two updates and then three
  queries, twice.  Closed loop over an asyncio window of 8; updates act
  as barriers, so every window holds three queries.
* ``bid_sweep`` -- read-only sweeps over a 120-sensor BID table from the
  sensor-network scenario (4 shards, closed loop of 2 clients).  Each
  sweep asks every (kind, k) pair once, shuffled, on a freshly sharded
  copy of the table, so neither the result cache nor any artifact cache
  carries over from one sweep to the next.
* ``http_hot`` -- the movie table behind the loopback HTTP front door; a
  pool of 12 queries at k in {5, 10, 20} with fixed zipf popularity,
  warmed before the window, asked by one closed-loop client.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import current_rss_mb, sub_seed

from repro.exceptions import ReproError
from repro.models import (
    BlockIndependentDatabase,
    ShardedDatabase,
    TupleIndependentDatabase,
)
from repro.query.compat import query_for_kind
from repro.server import ServerThread
from repro.serving import ServingExecutor
from repro.workloads.scenarios import (
    movie_rating_scenario,
    sensor_network_scenario,
)
from repro.workloads.traffic import DEFAULT_QUERY_MIX, TrafficEvent

#: The query every setup ends with: cheap, and outside every pool/sweep.
FIRST_QUERY = query_for_kind("top_k_membership", 1)

#: Movie-ratings scale giving n = 12000 tuples.
MOVIE_SCALE = 1200.0

#: Zipf exponent of every popularity law here (as the traffic generator).
ZIPF_S = 1.2

#: RSS is sampled every this many completed events on ``ti_mixed``.
RSS_EVERY = 25


@dataclass
class Outcome:
    """What one measured window produced."""

    #: Operations that completed (queries and updates), over ``elapsed``.
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    query_latencies: List[float] = field(default_factory=list)
    update_latencies: List[float] = field(default_factory=list)
    #: (completed events, current RSS MiB) samples.
    rss_points: List[Tuple[float, float]] = field(default_factory=list)
    #: Workload properties: repeated-query share, update share, ...
    properties: Dict[str, Any] = field(default_factory=dict)
    #: Workload-specific figures (the sweep count of ``bid_sweep``).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: (events, seconds, mean query latency or None) of consecutive
    #: stretches of the window; the runner reports trimmed means over them.
    segments: List[Tuple[int, float, Optional[float]]] = field(
        default_factory=list
    )
    _mark: Tuple[int, float, int] = (0, 0.0, 0)

    def start_segments(self, done: int = 0) -> None:
        """Open a stretch after ``done`` events."""
        self._mark = (done, time.perf_counter(), len(self.query_latencies))

    def mark(self, done: int, every: int) -> None:
        """Close the open stretch once it holds ``every`` events."""
        events, began, first = self._mark
        if done - events >= every:
            now = time.perf_counter()
            latencies = self.query_latencies[first:]
            mean = sum(latencies) / len(latencies) if latencies else None
            self.segments.append((done - events, now - began, mean))
            self.start_segments(done)


def tuple_rows(database: TupleIndependentDatabase) -> List[Tuple]:
    """``(key, value, score, probability)`` rows of a TI table."""
    probabilities = database.tuple_probabilities()
    return [
        (alt.key, alt.value, alt.score, probabilities[alt.key])
        for alt in database.alternatives()
    ]


def movie_table(seed: int) -> TupleIndependentDatabase:
    return movie_rating_scenario(
        scale=MOVIE_SCALE, rng=sub_seed(seed, "movie-data")
    ).database


def sensor_table(seed: int) -> BlockIndependentDatabase:
    return sensor_network_scenario(
        sensor_count=120, rng=sub_seed(seed, "sensor-data")
    ).database


def zipf_weights(count: int) -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(count)]


def _distinct(items: Sequence[Any]) -> List[Any]:
    return list(dict.fromkeys(items))


def _serving_delta(after: Any, before: Any) -> Dict[str, Any]:
    delta = after - before
    return {
        "queries": delta.queries,
        "coalesced": delta.coalesced,
        "batches": delta.batches,
        "batch_items": after.mean_batch_size * after.batches
        - before.mean_batch_size * before.batches,
        "fused_plans": delta.fused_plans,
        "result_cache_hits": delta.result_cache_hits,
    }


def _finish_serving(serving: Dict[str, Any]) -> Dict[str, Any]:
    batches = serving.get("batches", 0)
    serving["mean_batch_size"] = (
        serving.get("batch_items", 0.0) / batches if batches else 0.0
    )
    return serving


def _merge_counts(executor: ServingExecutor) -> Dict[str, int]:
    snapshot = executor.metrics().merge
    if snapshot is None:
        return {}
    return {
        "incremental_merges": snapshot.incremental_merges,
        "full_merges": snapshot.full_merges,
        "convolutions": snapshot.convolutions,
    }


def _cache_counts(sharded: ShardedDatabase) -> Dict[str, int]:
    info = sharded.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def _result_counts(executor: ServingExecutor) -> Dict[str, int]:
    if executor.result_cache is None:
        return {}
    stats = executor.result_cache.stats()
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "entries": stats.entries,
        "evictions": stats.evictions,
    }


def _add_counts(total: Dict[str, Any], part: Dict[str, Any]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value


def _started_executor(
    loop: asyncio.AbstractEventLoop, sharded: ShardedDatabase
) -> ServingExecutor:
    executor = ServingExecutor(sharded)

    async def start() -> None:
        await executor.start()
        await executor.execute(FIRST_QUERY)

    loop.run_until_complete(start())
    return executor


# ----------------------------------------------------------------------
# ti_mixed
# ----------------------------------------------------------------------
#: The popular-query pool of ``ti_mixed``: the default traffic mix's kinds
#: plus the median Top-k, one query of each kind.
TI_POOL_KINDS: Tuple[str, ...] = tuple(sorted(DEFAULT_QUERY_MIX)) + (
    "median_topk_symmetric_difference",
)

#: Updates per block of a ``ti_mixed`` stream; with one query per pool
#: entry the block holds 4 updates and 6 queries, a 40% update share.
BLOCK_UPDATES = 4

#: Windows per block: each is ``BLOCK_UPDATES / BLOCK_WINDOWS`` updates
#: followed by its share of the pool.
BLOCK_WINDOWS = 2

#: ``ti_mixed`` events per requested second.
TI_EVENTS_PER_SECOND = 12

#: Queries ``ti_mixed`` submits together between updates.
TI_WINDOW = 8

#: Events per throughput stretch of ``ti_mixed`` (two blocks).
TI_SEGMENT = 20


def mixed_stream(
    keys: Sequence[Any], pool: Sequence[Any], seed: int, count: int
) -> List[TrafficEvent]:
    """A seeded update/query stream with a fixed cost structure.

    The stream is a run of blocks; each block holds every ``pool`` query
    once and :data:`BLOCK_UPDATES` probability updates, in a fixed
    pattern: some updates, then a slice of the pool, :data:`BLOCK_WINDOWS`
    times.  Update keys are zipf-popular over the key order and new
    probabilities are uniform in [0.05, 1].  The seed moves keys and
    probabilities only: a seeded order let the number of queries sharing a
    window, and with it the latency of each, change from seed to seed.
    """
    rng = random.Random(seed)
    cumulative = list(itertools.accumulate(zipf_weights(len(keys))))
    share = -(-len(pool) // BLOCK_WINDOWS)
    events: List[TrafficEvent] = []
    while len(events) < count:
        for start in range(0, len(pool), share):
            for _ in range(BLOCK_UPDATES // BLOCK_WINDOWS):
                events.append(
                    TrafficEvent(
                        kind="update",
                        key=rng.choices(keys, cum_weights=cumulative)[0],
                        probability=rng.uniform(0.05, 1.0),
                    )
                )
            events.extend(
                TrafficEvent(kind="query", query=query)
                for query in pool[start:start + share]
            )
    return events


class TiMixed:
    """Mixed probability updates and popular queries, in process."""

    name = "ti_mixed"

    def __init__(
        self,
        seed: int,
        table: Callable[[int], TupleIndependentDatabase] = movie_table,
        shards: int = 4,
        k: int = 10,
    ) -> None:
        self.seed = seed
        self._table = table
        self.shards = shards
        self.k = k
        self._loop = asyncio.new_event_loop()
        self._applied: List[Tuple[Any, float]] = []
        self._issued: List[Any] = []
        self.sharded: Optional[ShardedDatabase] = None

    def setup(self) -> None:
        self.database = self._table(self.seed)
        self.sharded = ShardedDatabase(
            self.database, self.shards, partitioner="hash", executor="threads"
        )
        self.executor = _started_executor(self._loop, self.sharded)

    def prepare(self, seconds: float) -> None:
        self.target = max(1, round(TI_EVENTS_PER_SECOND * seconds))
        self.events = mixed_stream(
            self.sharded.keys(),
            [query_for_kind(kind, self.k) for kind in TI_POOL_KINDS],
            sub_seed(self.seed, "ti-traffic"),
            self.target + TI_WINDOW,
        )

    def run(self) -> Outcome:
        return self._loop.run_until_complete(self._run())

    async def _run(self) -> Outcome:
        outcome = Outcome()
        executor = self.executor
        before = executor.metrics()
        started = time.perf_counter()
        outcome.start_segments()
        position = 0
        next_sample = 0

        async def timed_query(query: Any) -> None:
            begin = time.perf_counter()
            try:
                await executor.execute(query)
            except ReproError:
                outcome.failed += 1
                return
            outcome.query_latencies.append(time.perf_counter() - begin)

        while position < self.target:
            event = self.events[position]
            if event.is_update:
                position += 1
                outcome.attempted += 1
                begin = time.perf_counter()
                try:
                    await executor.update(
                        event.key, probability=event.probability
                    )
                except ReproError:
                    outcome.failed += 1
                else:
                    outcome.update_latencies.append(
                        time.perf_counter() - begin
                    )
                    self._applied.append((event.key, event.probability))
            else:
                # A window: up to `window` consecutive queries, cut short
                # by the next update (updates are barriers).
                batch = []
                while len(batch) < TI_WINDOW and not (
                    self.events[position].is_update
                ):
                    batch.append(self.events[position].query)
                    position += 1
                self._issued.extend(batch)
                outcome.attempted += len(batch)
                await asyncio.gather(*(timed_query(q) for q in batch))
            outcome.mark(position, TI_SEGMENT)
            if position >= next_sample:
                outcome.rss_points.append((float(position), current_rss_mb()))
                next_sample = position + RSS_EVERY
        outcome.elapsed = time.perf_counter() - started
        outcome.completed = outcome.attempted - outcome.failed
        serving = _serving_delta(executor.metrics(), before)
        queries = len(outcome.query_latencies)
        outcome.properties = {
            "repeated_query_share": serving["result_cache_hits"]
            / max(1, queries),
            "update_share": len(self._applied) / max(1, outcome.attempted),
            "distinct_queries": len(_distinct(self._issued)),
        }
        self._serving = serving
        return outcome

    def answers(self) -> List[Tuple[Any, Any, Any]]:
        """Every distinct query at the final state, against the initial
        table with the stream's updates applied in order."""
        probabilities = dict(self._applied)
        rows = [
            (key, value, score, probabilities.get(key, probability))
            for key, value, score, probability in tuple_rows(self.database)
        ]
        final = TupleIndependentDatabase(rows, name="final_state")

        async def ask() -> List[Tuple[Any, Any, Any]]:
            result = []
            for query in _distinct(self._issued):
                answer = await self.executor.execute(query)
                result.append((final, query, answer.value))
            return result

        return self._loop.run_until_complete(ask())

    def layer_state(self) -> Dict[str, Any]:
        return {
            "serving": _finish_serving(dict(self._serving)),
            "merge": _merge_counts(self.executor),
            "artifacts": _cache_counts(self.sharded),
            "results": _result_counts(self.executor),
        }

    def close(self) -> None:
        try:
            if self.sharded is not None:
                try:
                    self._loop.run_until_complete(self.executor.stop())
                finally:
                    self.sharded.close()
        finally:
            self._loop.close()


# ----------------------------------------------------------------------
# bid_sweep
# ----------------------------------------------------------------------
#: Consensus kinds of the BID sweep (the ``expected_rank_table`` kind
#: takes no answer size, so it has no (kind, k) pairs).
SWEEP_KINDS: Tuple[str, ...] = (
    "mean_topk_symmetric_difference",
    "median_topk_symmetric_difference",
    "mean_topk_footrule",
    "mean_topk_intersection",
    "approximate_topk_intersection",
    "approximate_topk_kendall",
    "top_k_membership",
    "global_topk",
    "expected_rank_topk",
)

#: Closed-loop clients of ``bid_sweep``.
SWEEP_CLIENTS = 2


class BidSweep:
    """Read-only analytic sweeps, every (kind, k) pair once per sweep."""

    name = "bid_sweep"

    def __init__(
        self,
        seed: int,
        table: Callable[[int], BlockIndependentDatabase] = sensor_table,
        shards: int = 4,
        ks: Tuple[int, ...] = (4, 6, 8, 10, 12),
    ) -> None:
        self.seed = seed
        self._table = table
        self.shards = shards
        self.ks = ks
        self._loop = asyncio.new_event_loop()
        self._answers: List[Tuple[Any, Any]] = []
        self._serving: Dict[str, Any] = {}
        self._merge: Dict[str, int] = {}
        self._artifacts: Dict[str, int] = {}
        self._results: Dict[str, int] = {}
        self.sharded: Optional[ShardedDatabase] = None

    def _open(self) -> None:
        """Shard the table afresh: no cache survives into the next sweep."""
        self.sharded = ShardedDatabase(
            self.database, self.shards, partitioner="hash", executor="threads"
        )
        self.executor = _started_executor(self._loop, self.sharded)

    def _retire(self) -> None:
        """Fold the finished sweep's counters in and release its workers."""
        _add_counts(self._merge, _merge_counts(self.executor))
        _add_counts(self._artifacts, _cache_counts(self.sharded))
        _add_counts(self._results, _result_counts(self.executor))
        try:
            self._loop.run_until_complete(self.executor.stop())
        finally:
            self.sharded.close()
            self.sharded = None

    def setup(self) -> None:
        self.database = self._table(self.seed)
        self._open()

    def prepare(self, seconds: float) -> None:
        self.seconds = seconds
        self.pairs = [(kind, k) for kind in SWEEP_KINDS for k in self.ks]

    def _order(self, index: int) -> List[Tuple[str, int]]:
        order = list(self.pairs)
        random.Random(sub_seed(self.seed, "sweep", index)).shuffle(order)
        return order

    def run(self) -> Outcome:
        """Whole sweeps until ``seconds`` of sweeping have passed."""
        outcome = Outcome()
        index = 0
        while index == 0 or outcome.elapsed < self.seconds:
            order = self._order(index)
            if index > 0:
                self._retire()
                self._open()
            index += 1
            before = self.executor.metrics()
            began = time.perf_counter()
            outcome.start_segments(outcome.attempted)
            self._loop.run_until_complete(self._sweep(order, outcome))
            outcome.mark(outcome.attempted, len(order))
            outcome.elapsed += time.perf_counter() - began
            _add_counts(
                self._serving,
                _serving_delta(self.executor.metrics(), before),
            )
        outcome.completed = outcome.attempted - outcome.failed
        outcome.extra["sweeps"] = index
        outcome.properties = {
            "repeated_query_share": self._serving.get("result_cache_hits", 0)
            / max(1, outcome.completed),
            "update_share": 0.0,
            "distinct_queries": len(self.pairs),
        }
        return outcome

    async def _sweep(
        self, order: List[Tuple[str, int]], outcome: Outcome
    ) -> None:
        pending = iter(order)

        async def client() -> None:
            for kind, k in pending:
                query = query_for_kind(kind, k)
                outcome.attempted += 1
                begin = time.perf_counter()
                try:
                    answer = await self.executor.execute(query)
                except ReproError:
                    outcome.failed += 1
                    continue
                outcome.query_latencies.append(time.perf_counter() - begin)
                self._answers.append((query, answer.value))

        await asyncio.gather(*(client() for _ in range(SWEEP_CLIENTS)))

    def answers(self) -> List[Tuple[Any, Any, Any]]:
        """Every answer of every sweep, against the one unsharded table."""
        return [(self.database, query, value) for query, value in self._answers]

    def layer_state(self) -> Dict[str, Any]:
        merge, artifacts, results = (
            dict(self._merge), dict(self._artifacts), dict(self._results)
        )
        _add_counts(merge, _merge_counts(self.executor))
        _add_counts(artifacts, _cache_counts(self.sharded))
        _add_counts(results, _result_counts(self.executor))
        return {
            "serving": _finish_serving(dict(self._serving)),
            "merge": merge,
            "artifacts": artifacts,
            "results": results,
        }

    def close(self) -> None:
        try:
            if self.sharded is not None:
                self._retire()
        finally:
            self._loop.close()


# ----------------------------------------------------------------------
# http_hot
# ----------------------------------------------------------------------
#: The ``http_hot`` pool in popularity order.  Top-k membership answers
#: carry one entry per tuple (12000 here), about 40x a Top-k answer on the
#: wire, so the hottest ranks are fixed rather than drawn by seed: a
#: seeded pool swung the server's capacity between 35 and 84 req/s.
HTTP_POOL_KINDS: Tuple[str, ...] = (
    "top_k_membership",
    "mean_topk_symmetric_difference",
    "mean_topk_footrule",
    "approximate_topk_intersection",
)
HTTP_KS: Tuple[int, ...] = (5, 10, 20)

#: ``http_hot`` requests per throughput stretch (one client gets about 30
#: answers a second on a 2-core host).  The seeded request list holds this
#: many per requested second and is asked round and round until the
#: window closes.
HTTP_STRETCH = 28


class HttpHot:
    """Popular read-only queries over loopback HTTP, one closed-loop client.

    An open loop at a quarter to a half of capacity (4-8.5 req/s over 2
    connections) let queueing amplify every swing in host speed: over ten
    seeds the p90 latency moved by 0.39-0.47 of its median.  One client
    waiting for each answer measures the server and wire path itself.
    """

    name = "http_hot"

    def __init__(
        self,
        seed: int,
        table: Callable[[int], TupleIndependentDatabase] = movie_table,
        shards: int = 4,
        ks: Tuple[int, ...] = HTTP_KS,
    ) -> None:
        self.seed = seed
        self._table = table
        self.shards = shards
        self.pool = [
            query_for_kind(kind, k) for kind in HTTP_POOL_KINDS for k in ks
        ]
        self.thread: Optional[ServerThread] = None
        self.sharded: Optional[ShardedDatabase] = None
        self._values: Dict[Any, List[Any]] = {}

    def setup(self) -> None:
        self.database = self._table(self.seed)
        self.sharded = ShardedDatabase(
            self.database, self.shards, partitioner="hash", executor="threads"
        )
        self.thread = ServerThread(self.sharded, max_inflight=64).start()
        self.client = self.thread.client()
        self.client.query(FIRST_QUERY)

    def prepare(self, seconds: float) -> None:
        # Each query is asked exactly its zipf share of the requests, in
        # seeded order: the seed never moves the share of 12000-entry
        # answers, which sets most of the work.
        self.seconds = seconds
        count = round(HTTP_STRETCH * seconds)
        weights = zipf_weights(len(self.pool))
        self.queries = []
        for query, weight in zip(self.pool, weights):
            self.queries += [query] * round(count * weight / sum(weights))
        random.Random(sub_seed(self.seed, "http-traffic")).shuffle(self.queries)
        # Users of a hot service find its popular answers cached.
        for query in self.pool:
            self._values[query] = [self.client.query(query).value]
        self.executor = self.thread.server.executor
        self._before = self.executor.metrics()

    def run(self) -> Outcome:
        outcome = Outcome()
        started = time.perf_counter()
        deadline = started + self.seconds
        outcome.start_segments()
        for query in itertools.cycle(self.queries):
            outcome.mark(outcome.attempted, HTTP_STRETCH)
            begin = time.perf_counter()
            if begin >= deadline:
                break
            outcome.attempted += 1
            try:
                value = self.client.query(query).value
            except ReproError:
                outcome.failed += 1
                continue
            outcome.query_latencies.append(time.perf_counter() - begin)
            seen = self._values[query]
            if value not in seen:
                seen.append(value)
        outcome.elapsed = time.perf_counter() - started
        outcome.completed = outcome.attempted - outcome.failed
        serving = _serving_delta(self.executor.metrics(), self._before)
        self._serving = serving
        outcome.properties = {
            "repeated_query_share": serving["result_cache_hits"]
            / max(1, serving["queries"]),
            "update_share": 0.0,
            "distinct_queries": len(_distinct(self.queries)),
        }
        return outcome

    def answers(self) -> List[Tuple[Any, Any, Any]]:
        """Every distinct query's answers at the (unchanged) initial state:
        each value any response carried must match the reference."""
        return [
            (self.database, query, value)
            for query, values in self._values.items()
            for value in values
        ]

    def layer_state(self) -> Dict[str, Any]:
        admissions = self.client.metrics()["admissions"]
        return {
            "serving": _finish_serving(dict(self._serving)),
            "merge": _merge_counts(self.executor),
            "artifacts": _cache_counts(self.sharded),
            "results": _result_counts(self.executor),
            "refused": sum(
                count
                for status, count in admissions.items()
                if status != "200"
            ),
        }

    def close(self) -> None:
        try:
            if self.thread is not None:
                self.client.close()
                self.thread.stop()
        finally:
            if self.sharded is not None:
                self.sharded.close()


WORKLOADS = {
    TiMixed.name: TiMixed,
    BidSweep.name: BidSweep,
    HttpHot.name: HttpHot,
}
