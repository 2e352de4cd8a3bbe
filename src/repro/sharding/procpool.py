"""Process-backed shard execution: the parent-side worker pool.

The per-shard kernels behind every merged statistic -- above all the
``(n_s + 1) × k`` prefix polynomial sweep -- are dense array work that one
interpreter serializes behind the GIL no matter how many shard *threads*
structure it.  :class:`ShardProcessPool` moves that work into real
processes: each worker (:mod:`repro.sharding.procworker`) owns one shard's
columnar :class:`~repro.sharding.summary.ShardLayout` -- the same columns
the parent keeps -- and the coordinator exchanges only compact partials
with it:

* truncated :class:`~repro.sharding.summary.ShardRankSummary` tables,
  fetched in parallel across workers (threads blocked on pipes release the
  GIL, so worker processes compute concurrently);
* a shared-memory fast path (``multiprocessing.shared_memory``) for the
  dense numpy prefix tables, so large partials cross the process boundary
  as one memcpy instead of a pickle round-trip;
* staged ``prepare`` / ``commit`` / ``abort`` column swaps implementing
  the version-checked update of
  :meth:`repro.models.sharded.ShardedDatabase.apply_update` across process
  boundaries (the parent stays the sole authority over shard versions).

The pool is the coordinator's shard provider under
``executor="processes"`` (the in-process one is
:class:`~repro.models.sharded.LocalShards`): :meth:`ShardProcessPool.\
layouts` serves the parent's own columns, and summaries are cached
parent-side keyed by the owning shard's version, so after one shard's
update only that shard's partials are re-fetched.

Worker death is detected (pipe poll + liveness checks) and, by default,
**supervised**: the pool respawns the dead worker from the shard's last
committed units under a :class:`~repro.sharding.supervisor.WorkerSupervisor`
budget (exponential backoff + jitter), transparently retries idempotent
requests on the fresh worker, replays a staged-but-uncommitted update
whose commit raced the crash, and drops only the dead shard's parent-side
cache entries so the other shards' version-keyed partials survive the
restart.  When the restart budget is spent (or ``supervise=False``) the
crash surfaces as :class:`~repro.exceptions.WorkerCrashError` instead of
hanging; closing the pool is idempotent (``join`` -> ``terminate`` ->
``kill`` escalation, so a wedged worker cannot hang shutdown), and a
closed pool can be rebuilt by the owning database's
:meth:`~repro.models.sharded.ShardedDatabase.process_pool`.

Failure paths are testable deterministically: install a seeded
:class:`~repro.sharding.faults.FaultInjector` (``fault_injector=``) and
the pool will kill, stall, delay or drop at scheduled request ordinals.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import get_backend
from repro.exceptions import ProcessPoolError, WorkerCrashError
from repro.session import CacheInfo
from repro.sharding.procworker import (
    DELTA_TRANSPORT,
    PIPE_TRANSPORT,
    SHM_TRANSPORT,
    worker_main,
)
from repro.sharding.summary import ShardRankSummary
from repro.sharding.supervisor import SupervisorPolicy, WorkerSupervisor

#: Environment variable pinning the multiprocessing start method
#: (``spawn`` / ``fork`` / ``forkserver``); the CI multiprocess leg sets
#: ``spawn`` to catch fork-only pickling bugs.
START_METHOD_ENV = "REPRO_PROC_START_METHOD"

_REMOTE_EXCEPTIONS = (
    "ModelError",
    "ProbabilityError",
    "ConsensusError",
    "ProcessPoolError",
)

#: Ops a supervised pool transparently retries on a respawned worker.
#: All are idempotent reads or re-stageable writes; ``commit`` is absent
#: (its replay needs the staged units, handled in ``commit_replace``),
#: and the test hooks (``exit-now``, ``stall``) must never self-heal.
_RETRYABLE_OPS = frozenset(
    {"summary", "cache_info", "stats", "ping", "prepare", "invalidate"}
)

#: Cap on restart-and-retry cycles within one request (the supervisor's
#: own per-worker budget is the real limiter; this bounds pathological
#: single-call loops).
_MAX_RESTART_RETRIES = 3


def resolve_start_method(explicit: Optional[str] = None) -> str:
    """Start method: explicit argument > ``REPRO_PROC_START_METHOD`` > platform default."""
    method = explicit or os.environ.get(START_METHOD_ENV) or None
    if method is None:
        method = multiprocessing.get_start_method(allow_none=True) or (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    if method not in multiprocessing.get_all_start_methods():
        raise ProcessPoolError(
            f"start method {method!r} is unavailable on this platform; "
            f"choose one of {multiprocessing.get_all_start_methods()}"
        )
    return method


@dataclass(frozen=True)
class IpcSnapshot:
    """Counters of the parent <-> worker exchanges at one instant.

    ``pipe_bytes`` / ``shm_bytes`` count the dense prefix-table payloads
    (8 bytes per coefficient); command envelopes are tallied in
    ``commands`` without a byte estimate.
    """

    commands: int = 0
    summaries: int = 0
    pipe_messages: int = 0
    shm_messages: int = 0
    pipe_bytes: int = 0
    shm_bytes: int = 0
    updates: int = 0
    summary_deltas: int = 0
    delta_rows: int = 0
    delta_rows_saved: int = 0
    restarts: int = 0
    workers: int = 0

    @property
    def total_bytes(self) -> int:
        """Prefix-table bytes shipped over both transports."""
        return self.pipe_bytes + self.shm_bytes

    def __sub__(self, other: "IpcSnapshot") -> "IpcSnapshot":
        """Delta between two snapshots (workers kept from ``self``)."""
        return IpcSnapshot(
            commands=self.commands - other.commands,
            summaries=self.summaries - other.summaries,
            pipe_messages=self.pipe_messages - other.pipe_messages,
            shm_messages=self.shm_messages - other.shm_messages,
            pipe_bytes=self.pipe_bytes - other.pipe_bytes,
            shm_bytes=self.shm_bytes - other.shm_bytes,
            updates=self.updates - other.updates,
            summary_deltas=self.summary_deltas - other.summary_deltas,
            delta_rows=self.delta_rows - other.delta_rows,
            delta_rows_saved=self.delta_rows_saved - other.delta_rows_saved,
            restarts=self.restarts - other.restarts,
            workers=self.workers,
        )


class _WorkerHandle:
    """One worker process plus its pipe; requests are serialized per worker."""

    __slots__ = ("shard_index", "process", "connection", "lock")

    def __init__(self, shard_index: int, process: Any, connection: Any) -> None:
        self.shard_index = shard_index
        self.process = process
        self.connection = connection
        self.lock = threading.Lock()


def _table_cells(table: Any) -> int:
    shape = getattr(table, "shape", None)
    if shape is not None:
        cells = 1
        for extent in shape:
            cells *= extent
        return cells
    return sum(len(row) for row in table)


class ShardProcessPool:
    """Worker processes owning the shards of one partitioned database.

    Parameters
    ----------
    database:
        The owning :class:`~repro.models.sharded.ShardedDatabase`; one
        worker is spawned per non-empty shard, seeded with that shard's
        partition units and the parent's active backend.
    start_method:
        ``spawn`` / ``fork`` / ``forkserver``; defaults to the
        ``REPRO_PROC_START_METHOD`` environment variable, then the
        platform default.
    shm:
        ``"auto"`` ships prefix tables of at least ``shm_min_bytes``
        through shared memory (numpy backend only), ``"always"`` forces
        shared memory for every table, ``"never"`` always pickles over
        the pipe.
    request_timeout:
        Seconds to wait on one worker reply before giving up (worker
        death is detected much earlier via liveness polling).  On a
        supervised pool a blown deadline is treated as a wedged worker:
        it is restarted and idempotent requests are retried.
    supervise:
        When true (the default), dead or wedged workers are respawned
        under the supervisor's restart budget and idempotent requests
        retry transparently; when false, the first crash surfaces as
        :class:`~repro.exceptions.WorkerCrashError` (pre-supervision
        behaviour).
    supervisor:
        A :class:`~repro.sharding.supervisor.WorkerSupervisor` or
        :class:`~repro.sharding.supervisor.SupervisorPolicy` overriding
        the default restart budget / backoff / jitter.
    fault_injector:
        A :class:`~repro.sharding.faults.FaultInjector` consulted on
        every worker request (deterministic failure testing); ``None``
        in production.
    """

    def __init__(
        self,
        database: Any,
        start_method: Optional[str] = None,
        shm: str = "auto",
        shm_min_bytes: int = 1 << 15,
        request_timeout: float = 120.0,
        supervise: bool = True,
        supervisor: Optional[Any] = None,
        fault_injector: Optional[Any] = None,
    ) -> None:
        if shm not in ("auto", "always", "never"):
            raise ProcessPoolError(
                f"shm must be 'auto', 'always' or 'never', got {shm!r}"
            )
        self._database = database
        self._start_method = resolve_start_method(start_method)
        self._shm = shm
        self._shm_min_bytes = int(shm_min_bytes)
        self._request_timeout = float(request_timeout)
        if not supervise:
            self._supervisor: Optional[WorkerSupervisor] = None
        elif supervisor is None:
            self._supervisor = WorkerSupervisor()
        elif isinstance(supervisor, WorkerSupervisor):
            self._supervisor = supervisor
        elif isinstance(supervisor, SupervisorPolicy):
            self._supervisor = WorkerSupervisor(supervisor)
        else:
            raise ProcessPoolError(
                "supervisor must be a WorkerSupervisor or SupervisorPolicy, "
                f"got {type(supervisor).__name__}"
            )
        self._faults = fault_injector
        self._context: Optional[Any] = None
        self._workers: Dict[int, _WorkerHandle] = {}
        self._restart_locks: Dict[int, threading.Lock] = {}
        self._gather: Optional[ThreadPoolExecutor] = None
        self._tickets = itertools.count(1)
        # Staged-but-uncommitted payloads, kept parent-side so a commit
        # that races a worker crash can be replayed on the respawned
        # worker: (shard_index, ticket) -> (units, columns).
        self._staged_lock = threading.Lock()
        self._staged: Dict[Tuple[int, int], Tuple[List[Any], Any]] = {}
        self._started = False
        self._closed = False
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {
            key: 0
            for key in (
                "commands", "summaries", "pipe_messages",
                "shm_messages", "pipe_bytes", "shm_bytes", "updates",
                "summary_deltas", "delta_rows", "delta_rows_saved",
                "restarts",
            )
        }
        # version-keyed warm partials: only an updated shard re-fetches.
        # Entries outlive a commit: a stale entry never serves (the version
        # check forces a re-fetch) but its table is the baseline the worker
        # ships a row-suffix delta against.
        self._cache_lock = threading.Lock()
        #: (shard, max_rank) -> (version, summary, state_id, export_id).
        self._summary_cache: Dict[
            Tuple[int, int],
            Tuple[int, ShardRankSummary, int, Optional[int]],
        ] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started and not self._closed

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def start_method(self) -> str:
        return self._start_method

    @property
    def supervised(self) -> bool:
        """Whether dead workers are respawned under a restart budget."""
        return self._supervisor is not None

    @property
    def supervisor(self) -> Optional[WorkerSupervisor]:
        return self._supervisor

    def restart_count(self) -> int:
        """Workers respawned by supervision over the pool's lifetime."""
        with self._stats_lock:
            return self._stats["restarts"]

    def worker_count(self) -> int:
        return len(self._workers)

    def shard_indices(self) -> List[int]:
        """Indices of the (non-empty) shards owned by workers, ascending."""
        return sorted(self._workers)

    def start(self) -> "ShardProcessPool":
        """Spawn one worker per non-empty shard (idempotent)."""
        if self._closed:
            raise ProcessPoolError(
                "process pool already closed; request a fresh pool from "
                "the database"
            )
        if self._started:
            return self
        self._context = multiprocessing.get_context(self._start_method)
        try:
            for shard in self._database.shards():
                if shard.is_empty:
                    continue
                self._workers[shard.index] = self._spawn_worker(
                    shard.index, list(shard.units)
                )
                self._restart_locks[shard.index] = threading.Lock()
        except BaseException:
            self.close()
            raise
        self._gather = ThreadPoolExecutor(
            max_workers=max(1, len(self._workers)),
            thread_name_prefix="repro-procpool",
        )
        self._started = True
        return self

    def _spawn_worker(self, shard_index: int, units: List[Any]) -> _WorkerHandle:
        context = self._context or multiprocessing.get_context(
            self._start_method
        )
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=worker_main,
            args=(
                child_end,
                shard_index,
                get_backend().name,
                units,
            ),
            daemon=True,
            name=f"repro-shard-{shard_index}",
        )
        process.start()
        child_end.close()
        return _WorkerHandle(shard_index, process, parent_end)

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut every worker down and release the pipes (idempotent).

        Escalates per worker: cooperative ``shutdown`` + ``join``, then
        ``terminate`` (SIGTERM), then ``kill`` (SIGKILL) -- so a wedged
        worker (stalled mid-kernel, ignoring SIGTERM) can delay shutdown
        by at most ``3 * join_timeout``, never hang it.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            try:
                with handle.lock:
                    handle.connection.send(("shutdown", None))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers.values():
            self._reap(handle, join_timeout)
        self._workers.clear()
        self._restart_locks.clear()
        with self._staged_lock:
            self._staged.clear()
        if self._gather is not None:
            self._gather.shutdown(wait=True)
            self._gather = None
        with self._cache_lock:
            self._summary_cache.clear()

    def __enter__(self) -> "ShardProcessPool":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close(join_timeout=0.5)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _handle(self, shard_index: int) -> _WorkerHandle:
        if self._closed:
            raise ProcessPoolError("process pool is closed")
        if not self._started:
            self.start()
        try:
            return self._workers[shard_index]
        except KeyError:
            raise ProcessPoolError(
                f"no worker owns shard {shard_index} (empty shard?)"
            ) from None

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for key, delta in deltas.items():
                self._stats[key] += delta

    def _request(self, shard_index: int, op: str, payload: Any = None) -> Any:
        """One request/reply exchange, self-healing when supervised.

        A crash (or a hang past ``request_timeout``, treated as a wedged
        worker) on a supervised pool respawns the worker under the
        supervisor's backoff budget and transparently retries idempotent
        ops; everything else surfaces to the caller.
        """
        attempts = 0
        while True:
            handle = self._handle(shard_index)
            self._count(commands=1)
            try:
                if self._faults is not None:
                    self._inject_fault(handle, shard_index, op)
                status, value = self._exchange(handle, op, payload)
            except (WorkerCrashError, ProcessPoolError) as error:
                wedged = isinstance(error, WorkerCrashError) or getattr(
                    error, "worker_hang", False
                )
                if (
                    wedged
                    and op in _RETRYABLE_OPS
                    and attempts < _MAX_RESTART_RETRIES
                    and self.restart_worker(shard_index, expected=handle)
                ):
                    attempts += 1
                    continue
                raise
            if attempts and self._supervisor is not None:
                self._supervisor.record_recovery(shard_index)
            if status == "error":
                self._raise_remote(shard_index, value)
            return value

    def _exchange(
        self, handle: _WorkerHandle, op: str, payload: Any
    ) -> Tuple[str, Any]:
        with handle.lock:
            try:
                handle.connection.send((op, payload))
            except (BrokenPipeError, OSError):
                raise self._crash(handle, op) from None
            deadline = time.monotonic() + self._request_timeout
            while not handle.connection.poll(0.05):
                if not handle.process.is_alive():
                    # One grace poll: the reply may have been written just
                    # before the process exited.
                    if handle.connection.poll(0.2):
                        break
                    raise self._crash(handle, op)
                if time.monotonic() > deadline:
                    error = ProcessPoolError(
                        f"shard worker {handle.shard_index} did not answer "
                        f"{op!r} within {self._request_timeout:.0f}s"
                    )
                    error.shard_index = handle.shard_index
                    error.transient = True
                    error.worker_hang = True
                    raise error
            try:
                return handle.connection.recv()
            except (EOFError, OSError):
                raise self._crash(handle, op) from None

    def _inject_fault(
        self, handle: _WorkerHandle, shard_index: int, op: str
    ) -> None:
        event = self._faults.next_event(shard_index, op)
        if event is None:
            return
        if event.kind == "kill":
            try:
                with handle.lock:
                    handle.connection.send(("exit-now", None))
            except (BrokenPipeError, OSError):
                pass  # already dead: the exchange below will notice
            # Wait for the exit so detection is deterministic, not racy.
            handle.process.join(5.0)
        elif event.kind == "stall":
            # A slow shard: the worker sleeps before serving the request.
            # Stalls past request_timeout surface as a wedged-worker
            # ProcessPoolError from this exchange, like a real hang.
            self._exchange(handle, "stall", event.seconds)
        elif event.kind == "delay":
            time.sleep(event.seconds)
        else:  # drop: fail like a lost message's timeout, without waiting
            error = ProcessPoolError(
                f"injected message drop for shard {shard_index} op {op!r}"
            )
            error.shard_index = shard_index
            error.transient = True
            raise error

    def _crash(self, handle: _WorkerHandle, op: str) -> WorkerCrashError:
        handle.process.join(0.5)  # reap, so the exit code is reportable
        code = handle.process.exitcode
        hint = (
            "the supervisor will respawn it within its restart budget"
            if self._supervisor is not None
            else "close the pool and re-request it from the database to "
            "rebuild workers"
        )
        error = WorkerCrashError(
            f"shard worker {handle.shard_index} (pid {handle.process.pid}) "
            f"died while handling {op!r} (exit code {code}); {hint}"
        )
        error.shard_index = handle.shard_index
        error.transient = True
        return error

    # ------------------------------------------------------------------
    # Supervision: respawn, heartbeat
    # ------------------------------------------------------------------
    def _reap(self, handle: _WorkerHandle, join_timeout: float = 2.0) -> None:
        """Take one worker process down for sure: join -> terminate -> kill."""
        process = handle.process
        process.join(0.2)
        if process.is_alive():
            process.terminate()
            process.join(join_timeout)
        if process.is_alive():  # pragma: no cover - SIGTERM-immune worker
            getattr(process, "kill", process.terminate)()
            process.join(join_timeout)
        try:
            handle.connection.close()
        except OSError:  # pragma: no cover
            pass

    def restart_worker(
        self, shard_index: int, expected: Optional[_WorkerHandle] = None
    ) -> bool:
        """Respawn one shard's worker from its last committed units.

        Returns ``True`` when a live worker is installed for the shard
        (whether this call respawned it or a concurrent one already had),
        ``False`` when supervision is off, the pool is closed, or the
        supervisor's restart budget for the shard is spent.  Applies the
        supervisor's exponential backoff + jitter before spawning, bumps
        the ``restarts`` IPC counter, and drops only this shard's
        parent-side summary cache entries -- the other shards'
        version-keyed partials stay warm, so recovery costs one shard
        re-export, not a pool rebuild.

        ``expected`` guards concurrent restarts: pass the handle that was
        observed dead and the restart is skipped (reported successful) if
        another thread already swapped in a fresh worker.
        """
        if self._supervisor is None or self._closed or not self._started:
            return False
        lock = self._restart_locks.get(shard_index)
        if lock is None:
            return False
        with lock:
            handle = self._workers.get(shard_index)
            if handle is None:
                return False
            if expected is not None and handle is not expected:
                return True  # a concurrent restart already replaced it
            if expected is None and handle.process.is_alive():
                return True  # already healthy: nothing to respawn
            backoff = self._supervisor.admit_restart(shard_index)
            if backoff is None:
                return False
            if backoff > 0.0:
                time.sleep(backoff)
            self._reap(handle)
            shard = self._database.shards()[shard_index]
            self._workers[shard_index] = self._spawn_worker(
                shard_index, list(shard.units)
            )
            self._drop_shard_cache(shard_index)
            self._count(restarts=1)
            return True

    def check_workers(self, restart: bool = True) -> List[int]:
        """Heartbeat sweep: indices of workers found dead.

        Liveness is the process poll (a worker that died *between*
        requests is caught here rather than on the next request's crash
        path); with ``restart=True`` on a supervised pool each dead
        worker is respawned immediately, so callers can use this as a
        periodic health probe.
        """
        if self._closed or not self._started:
            return []
        dead = [
            index
            for index, handle in sorted(self._workers.items())
            if not handle.process.is_alive()
        ]
        if restart and self._supervisor is not None:
            for index in dead:
                self.restart_worker(index)
        return dead

    def _raise_remote(
        self, shard_index: int, value: Tuple[str, str]
    ) -> None:
        type_name, message = value
        if type_name in _REMOTE_EXCEPTIONS:
            import repro.exceptions as exceptions

            raise getattr(exceptions, type_name)(message)
        raise ProcessPoolError(
            f"shard worker {shard_index} failed: {type_name}: {message}"
        )

    def _request_many(
        self, commands: Sequence[Tuple[int, str, Any]]
    ) -> List[Any]:
        """Issue one request per worker concurrently, results in order."""
        if len(commands) <= 1 or self._gather is None:
            return [
                self._request(index, op, payload)
                for index, op, payload in commands
            ]
        futures = [
            self._gather.submit(self._request, index, op, payload)
            for index, op, payload in commands
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Partial exchange
    # ------------------------------------------------------------------
    def _shard_version(self, shard_index: int) -> int:
        return self._database.shards()[shard_index].version

    def summaries(
        self, max_rank: int, use_cache: bool = True
    ) -> List[ShardRankSummary]:
        """Per-shard truncated summaries, fetched in parallel.

        Cached parent-side per (shard, version, truncation): after one
        shard's update, only that shard ships fresh partials.  Pass
        ``use_cache=False`` to force a full exchange (transport
        benchmarking).
        """
        max_rank = max(int(max_rank), 1)
        wanted: List[Tuple[int, int, Optional[int], Any]] = []
        for index in self.shard_indices():
            version = self._shard_version(index)
            with self._cache_lock:
                cached = self._summary_cache.get((index, max_rank))
            if not use_cache or cached is None or cached[0] != version:
                if use_cache and cached is not None:
                    base_id, base_summary = cached[3], cached[1]
                else:
                    base_id, base_summary = None, None
                wanted.append((index, version, base_id, base_summary))
        if wanted:
            shm_wanted = self._shm != "never" and get_backend().name == "numpy"
            shm_floor = 0 if self._shm == "always" else self._shm_min_bytes
            fetched = self._request_many(
                [
                    (index, "summary", (max_rank, shm_wanted, shm_floor, base_id))
                    for index, _, base_id, _ in wanted
                ]
            )
            self._count(summaries=len(wanted))
            with self._cache_lock:
                for (index, version, _, base_summary), exported in zip(
                    wanted, fetched
                ):
                    summary = self._decode_summary(exported, base_summary)
                    self._summary_cache[(index, max_rank)] = (
                        version,
                        summary,
                        int(exported.get("state_id", 0)),
                        exported.get("export_id"),
                    )
        with self._cache_lock:
            return [
                self._summary_cache[(index, max_rank)][1]
                for index in self.shard_indices()
            ]

    def summaries_with_tokens(
        self, max_rank: int
    ) -> List[Tuple[int, ShardRankSummary, Tuple[int, int]]]:
        """``(shard_index, summary, token)`` rows, warm-cached.

        The token pairs the parent-side shard version with the worker's
        committed ``state_id`` (shipped in the same reply as the summary,
        so it identifies the summary's *content* even when a fetch races a
        concurrent commit).  Merge-engine partial products keyed by these
        tokens therefore never mix shard states.
        """
        self.summaries(max_rank)
        max_rank = max(int(max_rank), 1)
        with self._cache_lock:
            rows = []
            for index in self.shard_indices():
                version, summary, state_id, _ = self._summary_cache[
                    (index, max_rank)
                ]
                rows.append((index, summary, (version, state_id)))
            return rows

    def cached_summaries(
        self, shard_index: int, version: int
    ) -> Dict[int, ShardRankSummary]:
        """Warm ``max_rank -> summary`` entries of one shard version (no I/O).

        Used by the coordinator to freeze a shard's outgoing state into
        its snapshot history right before an update commits.
        """
        with self._cache_lock:
            return {
                key[1]: value[1]
                for key, value in self._summary_cache.items()
                if key[0] == shard_index and value[0] == version
            }

    def _decode_summary(
        self, exported: Dict[str, Any], base_summary: Any = None
    ) -> ShardRankSummary:
        transport = exported["table"]
        if transport is not None and transport[0] == DELTA_TRANSPORT:
            _, _base_id, start, inner = transport
            if base_summary is None or base_summary.prefix_table is None:
                raise ProcessPoolError(
                    "worker shipped a summary delta without a parent-side "
                    "base table"
                )
            backend = get_backend()
            old = base_summary.prefix_table
            if inner is None:
                table = old
                shipped = 0
            else:
                suffix = self._decode_table(inner)
                if start == 0:
                    table = suffix
                else:
                    table = backend.stack_matrices(
                        [backend.take_rows(old, range(start)), suffix]
                    )
                shipped = len(exported["layout"].probabilities) + 1 - start
            self._count(
                summary_deltas=1,
                delta_rows=shipped,
                delta_rows_saved=start,
            )
        else:
            table = self._decode_table(transport)
        return ShardRankSummary.from_layout(
            exported["layout"], exported["max_rank"], table
        )

    def _decode_table(self, transport: Optional[Tuple[Any, ...]]) -> Any:
        if transport is None:
            return None
        if transport[0] == PIPE_TRANSPORT:
            table = transport[1]
            self._count(
                pipe_messages=1, pipe_bytes=8 * _table_cells(table)
            )
            return table
        assert transport[0] == SHM_TRANSPORT
        import numpy as np
        from multiprocessing import shared_memory

        _, name, shape = transport
        segment = shared_memory.SharedMemory(name=name)
        try:
            table = np.ndarray(
                shape, dtype=np.float64, buffer=segment.buf
            ).copy()
        finally:
            segment.close()
            segment.unlink()
        self._count(shm_messages=1, shm_bytes=table.nbytes)
        return table

    def prefetch(self, truncations: Sequence[int]) -> None:
        """Warm the parent-side summary cache for a batch's truncations."""
        for max_rank in sorted(set(truncations)):
            self.summaries(max_rank)

    # ------------------------------------------------------------------
    # Update fan-out (staged column swaps)
    # ------------------------------------------------------------------
    def prepare_replace(
        self, shard_index: int, units: List[Any], layout: Any = None
    ) -> int:
        """Stage a shard's replacement on the owning worker; returns a ticket.

        ``layout`` is the replacement columns the parent derived (built
        from ``units`` on the worker when omitted).  The staged payload is
        retained parent-side until the ticket commits or aborts, so a
        commit that races a worker crash can be *replayed* -- re-staged
        and re-committed -- on the respawned worker instead of losing the
        update.
        """
        ticket = next(self._tickets)
        with self._staged_lock:
            self._staged[(shard_index, ticket)] = (units, layout)
        try:
            self._request(shard_index, "prepare", (ticket, units, layout))
        except BaseException:
            with self._staged_lock:
                self._staged.pop((shard_index, ticket), None)
            raise
        return ticket

    def commit_replace(self, shard_index: int, ticket: int) -> None:
        """Swap a staged replacement in (under the parent's version check).

        The shard's cache entries are deliberately *retained*: the version
        check in :meth:`summaries` already keeps a stale entry from being
        served, and its table is the baseline the worker ships a
        row-suffix delta against on the next fetch.

        A worker crash here (the staged state died with the process) is
        recovered on a supervised pool by replaying the ticket: the
        respawned worker starts from the shard's last *committed* units,
        so the retained staged payload is re-staged and committed again --
        the parent's version check still happens after this returns, so
        version authority is untouched.  Unsupervised pools surface the
        crash unchanged (the parent stays at the old version).
        """
        try:
            self._request(shard_index, "commit", ticket)
        except WorkerCrashError:
            with self._staged_lock:
                staged = self._staged.get((shard_index, ticket))
            if staged is None or not self.restart_worker(shard_index):
                raise
            self._request(shard_index, "prepare", (ticket,) + staged)
            self._request(shard_index, "commit", ticket)
        finally:
            with self._staged_lock:
                self._staged.pop((shard_index, ticket), None)
        self._count(updates=1)

    def abort_replace(self, shard_index: int, ticket: int) -> None:
        """Drop a staged replacement whose version check lost the race."""
        try:
            self._request(shard_index, "abort", ticket)
        except ProcessPoolError:
            # Aborts are best-effort: the caller is already unwinding a
            # stale update and must see StaleUpdateError, not a transport
            # failure; a dead worker's staged state died with it anyway.
            pass
        finally:
            with self._staged_lock:
                self._staged.pop((shard_index, ticket), None)

    def invalidate(self, shard_index: int) -> None:
        """Drop one worker's memoized artifacts (force-invalidation path)."""
        if shard_index in self._workers:
            self._request(shard_index, "invalidate", None)
        self._drop_shard_cache(shard_index)

    def forget_cached_summaries(self) -> None:
        """Drop the parent-side summary caches for every shard.

        Workers keep their memoized state, so the next fetch pays the full
        transport cost but no recompute -- this is the "cold coordinator,
        warm shards" starting point a from-scratch re-merge measures.
        """
        for shard_index in self.shard_indices():
            self._drop_shard_cache(shard_index)

    def _drop_shard_cache(self, shard_index: int) -> None:
        with self._cache_lock:
            for key in [
                key for key in self._summary_cache if key[0] == shard_index
            ]:
                del self._summary_cache[key]

    def staged_count(self, shard_index: int) -> int:
        """Number of replacements staged but not yet committed on one worker."""
        return int(self._request(shard_index, "stats")["staged"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Roll-up of every worker's summary cache counters (one exchange)."""
        if not self._workers:
            return CacheInfo()
        infos = self._request_many(
            [(index, "cache_info", None) for index in self.shard_indices()]
        )
        rollup = CacheInfo()
        for info in infos:
            rollup = rollup + info
        return rollup

    def stats(self) -> IpcSnapshot:
        """A snapshot of the pool's IPC counters."""
        with self._stats_lock:
            return IpcSnapshot(workers=len(self._workers), **self._stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "started" if self._started else "cold"
        )
        return (
            f"ShardProcessPool(workers={len(self._workers)}, "
            f"start_method={self._start_method!r}, shm={self._shm!r}, "
            f"{state})"
        )
