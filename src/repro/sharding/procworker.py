"""Shard worker process entrypoint.

One worker process owns one database shard: it holds the shard's partition
units and the same columnar :class:`~repro.sharding.summary.ShardLayout` the
parent keeps (built from the units, never from a tree), answers summary /
cache-info requests over its pipe, and participates in the coordinator's
version-checked update protocol through staged ``prepare`` / ``commit`` /
``abort`` commands: ``prepare`` stages the replacement columns the parent
derived, ``commit`` swaps them in and resumes the prefix tables from the
first changed row (the parent's
:class:`~repro.models.sharded.ShardedDatabase` keeps sole authority over
shard versions and the distinct-score registry).

Everything in this module is importable at top level so the ``spawn`` start
method can pickle the :func:`worker_main` target; the parent side lives in
:mod:`repro.sharding.procpool`.

Wire protocol: the parent sends ``(op, payload)`` tuples and receives
``("ok", value)`` or ``("error", (exception_type_name, message))``.  Large
tuple-independent prefix tables are exported through
``multiprocessing.shared_memory`` when the parent asks for it (numpy
backend only); everything else travels pickled over the pipe.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import get_backend, set_backend
from repro.exceptions import ProcessPoolError
from repro.sharding.summary import ShardLayout, table_delta_start

#: Transport tags for the prefix-table payload of a summary reply.
PIPE_TRANSPORT = "pipe"
SHM_TRANSPORT = "shm"
#: Wrapper tag for a row-suffix delta against a previously shipped table.
DELTA_TRANSPORT = "delta"


def _untrack_shared_memory(shm: Any) -> None:
    """Hand a segment's unlink responsibility to the parent process.

    The creating process's ``resource_tracker`` would otherwise unlink the
    segment (with a "leaked shared_memory" warning) when this worker exits,
    racing the parent that is still reading it.
    """
    try:  # private API, but the standard workaround pre-3.13
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variants
        pass


def export_table(
    table: Any, shm_wanted: bool, shm_min_bytes: int
) -> Tuple[Any, ...]:
    """Package a dense row table for the parent.

    Returns a ``("shm", name, shape)`` descriptor when the table is a
    large-enough numpy array and the parent asked for shared memory, or
    ``("pipe", table)`` otherwise.
    """
    if shm_wanted and get_backend().name == "numpy":
        import numpy as np
        from multiprocessing import shared_memory

        array = np.ascontiguousarray(table, dtype=np.float64)
        if array.nbytes >= max(shm_min_bytes, 1):
            segment = shared_memory.SharedMemory(
                create=True, size=array.nbytes
            )
            view = np.ndarray(
                array.shape, dtype=np.float64, buffer=segment.buf
            )
            view[:] = array
            name = segment.name
            _untrack_shared_memory(segment)
            segment.close()
            return (SHM_TRANSPORT, name, array.shape)
    return (PIPE_TRANSPORT, table)


def export_prefix_table(
    summary: Any, shm_wanted: bool, shm_min_bytes: int
) -> Optional[Tuple[Any, ...]]:
    """Package a summary's dense prefix table for the parent.

    Returns ``None`` for block-independent shards (their partials are
    derived from the layout on the parent), otherwise whatever
    :func:`export_table` picked for the full table.
    """
    if not summary.is_independent:
        return None
    return export_table(summary.prefix_table, shm_wanted, shm_min_bytes)


class ShardWorkerState:
    """The worker-side shard: units, columns, staged replacements."""

    def __init__(self, shard_index: int, units: List[Any]) -> None:
        self.shard_index = shard_index
        self.units = units
        self._layout: Optional[ShardLayout] = None
        #: ticket -> (units, columns or None): replacements prepared, not
        #: committed.
        self.staged: Dict[int, Tuple[List[Any], Optional[ShardLayout]]] = {}
        #: Monotone id of the worker's committed state.  Bumped atomically
        #: with the staged swap, so it identifies summary *content* even
        #: while the parent's version bump is still in flight.
        self.state_id = 0
        #: max_rank -> (export_id, scores, probabilities) of the last full
        #: table shipped, the baseline for row-suffix delta exports.
        self._exports: Dict[int, Tuple[int, List[Any], List[float]]] = {}
        self._next_export = 0

    def layout(self) -> ShardLayout:
        if not self.units:
            raise ProcessPoolError(
                f"shard {self.shard_index} is empty; it has no layout"
            )
        if self._layout is None:
            self._layout = ShardLayout.from_units(self.units)
        return self._layout

    # -- command handlers ----------------------------------------------
    def handle_summary(
        self, payload: Tuple[int, bool, int, Optional[int]]
    ) -> Any:
        max_rank, shm_wanted, shm_min_bytes, base_export = payload
        layout = self.layout()
        summary = layout.summary(max_rank)
        table = None
        export_id: Optional[int] = None
        if summary.is_independent:
            export_id = self._next_export
            self._next_export += 1
            retained = self._exports.get(max_rank)
            start: Optional[int] = None
            if (
                retained is not None
                and base_export == retained[0]
                and retained[1] == layout.scores
            ):
                start = table_delta_start(retained[2], layout.probabilities)
            if start is not None:
                # Row m of the prefix table depends only on the first m
                # probabilities, so a tail swap reaches the parent as a
                # row suffix spliced onto the table it already holds.
                rows = len(layout.probabilities) + 1
                if start >= rows:
                    inner = None
                else:
                    suffix = get_backend().take_rows(
                        summary.prefix_table, range(start, rows)
                    )
                    inner = export_table(suffix, shm_wanted, shm_min_bytes)
                table = (DELTA_TRANSPORT, retained[0], start, inner)
            else:
                table = export_prefix_table(
                    summary, shm_wanted, shm_min_bytes
                )
            self._exports[max_rank] = (
                export_id,
                list(layout.scores),
                list(layout.probabilities),
            )
        else:
            self._exports.pop(max_rank, None)
        return {
            "layout": layout,
            "max_rank": summary.max_rank,
            "table": table,
            "state_id": self.state_id,
            "export_id": export_id,
        }

    def handle_prepare(
        self, payload: Tuple[int, List[Any], Optional[ShardLayout]]
    ) -> int:
        ticket, units, layout = payload
        # Without columns from the parent they are built from the units
        # on first use after the commit.
        self.staged[ticket] = (units, layout)
        return ticket

    def handle_commit(self, ticket: int) -> int:
        try:
            units, layout = self.staged.pop(ticket)
        except KeyError:
            raise ProcessPoolError(
                f"unknown staged update ticket {ticket} on shard "
                f"{self.shard_index} (already committed or aborted?)"
            ) from None
        if layout is not None and self._layout is not None:
            layout.adopt_tables(self._layout)
        self.units = units
        self._layout = layout
        # New committed content: advance the state id the parent pairs
        # with shard versions so merge caches never mix states.
        self.state_id += 1
        return ticket

    def handle_abort(self, ticket: int) -> int:
        self.staged.pop(ticket, None)
        return ticket

    def handle_invalidate(self, _payload: Any) -> None:
        # Force-invalidation: the columns (and every table) are rebuilt
        # from the units on the next request.
        self._layout = None
        return None

    def handle_cache_info(self, _payload: Any) -> Any:
        if self._layout is None:
            from repro.session import CacheInfo

            return CacheInfo(backend=get_backend().name)
        return self._layout.cache_info()

    def handle_stats(self, _payload: Any) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "shard_index": self.shard_index,
            "tuples": len(self.units),
            "staged": len(self.staged),
            "columns_built": self._layout is not None,
            "backend": get_backend().name,
            "state_id": self.state_id,
        }


def worker_main(
    connection: Any,
    shard_index: int,
    backend_name: str,
    units: List[Any],
) -> None:
    """Run one shard worker until shutdown or parent disconnect."""
    set_backend(backend_name)
    state = ShardWorkerState(shard_index, units)
    handlers = {
        "summary": state.handle_summary,
        "prepare": state.handle_prepare,
        "commit": state.handle_commit,
        "abort": state.handle_abort,
        "invalidate": state.handle_invalidate,
        "cache_info": state.handle_cache_info,
        "stats": state.handle_stats,
        "ping": lambda _payload: "pong",
        # Fault-injection hook: a slow shard.  The worker sleeps before
        # replying, so the stall delays exactly one parent request; the
        # cap keeps a corrupt schedule from wedging the worker forever.
        "stall": lambda seconds: time.sleep(min(float(seconds), 60.0)),
    }
    while True:
        try:
            op, payload = connection.recv()
        except (EOFError, OSError):  # parent went away: nothing to serve
            break
        if op == "shutdown":
            try:
                connection.send(("ok", None))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        if op == "exit-now":
            # Test hook: simulate a crash (no reply, hard exit) so the
            # parent's no-hang detection can be exercised deterministically.
            os._exit(13)
        handler = handlers.get(op)
        try:
            if handler is None:
                raise ProcessPoolError(f"unknown worker command {op!r}")
            reply = ("ok", handler(payload))
        except BaseException as error:  # ship the failure, keep serving
            reply = ("error", (type(error).__name__, str(error)))
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    try:
        connection.close()
    except OSError:  # pragma: no cover
        pass
