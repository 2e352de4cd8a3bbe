"""Async sharded serving layer.

The paper frames consensus answers as a query-time service over a
probabilistic database; this package is the serving assembly of the
reproduction's per-shard pieces:

* :class:`~repro.serving.requests.QueryRequest` -- the string-keyed wire
  form; every request converts to one declarative
  :class:`~repro.query.ConsensusQuery`, the single execution type.
* :class:`~repro.serving.executor.ServingExecutor` -- the asyncio
  front-end: request coalescing (keyed by the query objects' stable
  hash), micro-batching, a per-shard worker pool for summary refresh /
  shard rebuilds, and graceful cache-invalidation fan-out on updates.
  Execution routes through the hardness-aware planner
  (:mod:`repro.query.planner`) and self-heals: per-query deadlines,
  bounded retries, per-shard circuit breakers, and stale / shard-excluded
  degraded answers while a shard worker is down.
* :mod:`repro.serving.metrics` -- latency and throughput instrumentation.

Traffic to drive it comes from :mod:`repro.workloads.traffic`.
"""

from repro.serving.executor import ServingExecutor
from repro.serving.metrics import (
    LatencyRecorder,
    ServingMetrics,
    ServingMetricsSnapshot,
)
from repro.serving.requests import QUERY_KINDS, QueryRequest

__all__ = [
    "LatencyRecorder",
    "QUERY_KINDS",
    "QueryRequest",
    "ServingExecutor",
    "ServingMetrics",
    "ServingMetricsSnapshot",
]

