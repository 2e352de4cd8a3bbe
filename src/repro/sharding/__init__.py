"""Cross-shard statistics merging for partitioned probabilistic databases.

The rank generating function of a tuple-independent (or block-independent
disjoint) database *factorizes* across independent shards: the number of
present tuples scoring above any threshold is a sum of independent per-shard
counts, so its distribution is the convolution of per-shard count
distributions.  This package exploits that factorization:

* :class:`~repro.sharding.summary.ShardRankSummary` -- the partial
  (truncated) univariate generating functions one shard exports: for every
  score threshold, the distribution of the number of present tuples above
  it, plus the per-alternative local layout.  Memoized per truncation on
  the shard's columnar :class:`~repro.sharding.summary.ShardLayout` (or,
  for a standalone session, via
  :meth:`repro.session.QuerySession.partial_rank_summary`).
* :class:`~repro.sharding.coordinator.ShardedQuerySession` -- a
  :class:`~repro.session.QuerySession` drop-in whose statistics artifacts
  (rank matrix, Top-k membership, pairwise preference grid, expected ranks)
  are recovered *exactly* by convolving shard partials through the engine
  backend (:meth:`~repro.engine.backends.Backend.convolve_rows`), so every
  consensus algorithm runs unchanged at the coordinator without ever
  building a global session.
* :class:`~repro.sharding.procpool.ShardProcessPool` -- the process-backed
  execution of the same protocol: one worker process per shard, supervised
  by :class:`~repro.sharding.supervisor.WorkerSupervisor` (crashed or
  wedged workers restart with backoff and their staged-but-uncommitted
  updates replay or abort cleanly), with a deterministic fault-injection
  harness in :mod:`repro.sharding.faults` for chaos testing.
"""

from repro.sharding.summary import ShardRankSummary
from repro.sharding.merge import MergeEngine, MergeStatsSnapshot
from repro.sharding.coordinator import ShardedQuerySession, SnapshotReader
from repro.sharding.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.sharding.procpool import IpcSnapshot, ShardProcessPool
from repro.sharding.supervisor import SupervisorPolicy, WorkerSupervisor

__all__ = [
    "ShardRankSummary",
    "ShardedQuerySession",
    "SnapshotReader",
    "MergeEngine",
    "MergeStatsSnapshot",
    "ShardProcessPool",
    "IpcSnapshot",
    "SupervisorPolicy",
    "WorkerSupervisor",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
]
