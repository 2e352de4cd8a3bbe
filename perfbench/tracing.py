"""Span tracing for the benchmark's traced run.

The program itself carries no tracing, so the traced run wraps public
callables at their layer boundaries -- on the class that defines them, or
in every ``repro`` module that imported a function by name -- and records
one span per call: name, start, end, thread, parent span on the same
thread, and a correlation key (the query object, where one is at hand).
Spans stay in memory and are written out once, when the run ends.

A layer that re-enters itself on one thread (a generating-function
builder calling another, an answer encoder calling the codec) records
only the outermost call, so a layer's time is never counted twice.  Asynchronous callables
record root spans: coroutines interleave on one thread, so a per-thread
stack cannot parent them; their children are matched afterwards by key
and time window (see :meth:`Tracer.uncovered`).
"""

from __future__ import annotations

import bisect
import functools
import gc
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Spans kept in full for the span file; aggregates are always exact.
SPAN_CAP = 100_000


class Tracer:
    """Collects spans, per-name aggregates and counters in memory."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (id, name, start, end, thread, parent, key)
        self.spans: List[Tuple[int, str, float, float, int, int, Any]] = []
        self.dropped = 0
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        #: Per-name durations for names whose percentiles are reported.
        self.durations: Dict[str, List[float]] = {}
        #: Per-name (start, end, key) windows for names used in correlation.
        self.windows: Dict[str, List[Tuple[float, float, Any]]] = {}
        self.counters: Dict[str, int] = {}
        self.gc_seconds = 0.0
        self._gc_started: Optional[float] = None
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int,
        key: Any,
        span_id: int,
    ) -> None:
        duration = end - start
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + duration
            if name in self.durations:
                self.durations[name].append(duration)
            if name in self.windows:
                self.windows[name].append((start, end, key))
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (span_id, name, start, end, threading.get_ident(), parent, key)
                )
            else:
                self.dropped += 1

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers stay."""
        with self._lock:
            self.spans = []
            self.dropped = 0
            self.calls = {}
            self.seconds = {}
            self.durations = {name: [] for name in self.durations}
            self.windows = {name: [] for name in self.windows}
            self.counters = {}
            self.gc_seconds = 0.0

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _sync_wrapper(
        self,
        original: Callable,
        name: str,
        key_of: Optional[Callable],
        errors: Dict[type, str],
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if any(active == name for _, active in stack):
                return original(*args, **kwargs)
            span_id = tracer._new_id()
            parent = stack[-1][0] if stack else 0
            key = key_of(args, kwargs) if key_of is not None else None
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except tuple(errors) as error:
                tracer.count(errors[type(error)])
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(name, start, end, parent, key, span_id)

        return traced

    def _async_wrapper(
        self, original: Callable, name: str, key_of: Optional[Callable]
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._new_id()
            key = key_of(args, kwargs) if key_of is not None else None
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                tracer._record(
                    name, start, time.perf_counter(), 0, key, span_id
                )

        return traced

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        key_of: Optional[Callable] = None,
        errors: Optional[Dict[type, str]] = None,
        keep_durations: bool = False,
        keep_windows: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a traced wrapper (undone by
        :meth:`uninstall`)."""
        original = inspect.getattr_static(owner, attribute)
        function = original
        if isinstance(original, classmethod):
            function = original.__func__
        if keep_durations:
            self.durations.setdefault(name, [])
        if keep_windows:
            self.windows.setdefault(name, [])
        if inspect.iscoroutinefunction(function):
            wrapper = self._async_wrapper(function, name, key_of)
        else:
            wrapper = self._sync_wrapper(function, name, key_of, errors or {})
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def wrap_imported(self, function: Callable, name: str) -> int:
        """Trace ``function`` in every loaded ``repro`` module binding it.

        Covers the defining module and each ``from ... import name``
        site, so calls made through any of them are recorded.  Returns
        the number of bindings replaced.
        """
        wrapper = self._sync_wrapper(function, name, None, {})
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attribute, function))
                    setattr(module, attribute, wrapper)
                    replaced += 1
        return replaced

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self._gc_started = None

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped binding and detach the GC callback."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def total_ms(self, name: str) -> float:
        return 1000.0 * self.seconds.get(name, 0.0)

    def uncovered(self, parent: str, child: str) -> List[float]:
        """Per ``parent`` span: its duration minus the time covered by
        ``child`` spans with the same key inside its window, in seconds.

        This is how a cross-thread parent (an awaited executor call whose
        work ran on a worker thread) gets its self or waiting time.
        """
        by_key: Dict[Any, List[Tuple[float, float]]] = {}
        for start, end, key in self.windows.get(child, ()):
            by_key.setdefault(key, []).append((start, end))
        starts: Dict[Any, List[float]] = {}
        for key, spans in by_key.items():
            spans.sort()
            starts[key] = [start for start, _ in spans]
        result = []
        for start, end, key in self.windows.get(parent, ()):
            covered = 0.0
            spans = by_key.get(key, ())
            if spans:
                index = bisect.bisect_left(starts[key], start)
                while index < len(spans) and spans[index][0] < end:
                    child_start, child_end = spans[index]
                    covered += max(0.0, min(child_end, end) - child_start)
                    index += 1
            result.append(max(0.0, (end - start) - covered))
        return result

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (keys as fingerprints)."""
        names: Dict[int, str] = {}

        def key_text(key: Any) -> Optional[str]:
            if key is None:
                return None
            cached = names.get(id(key))
            if cached is None:
                fingerprint = getattr(key, "fingerprint", None)
                cached = fingerprint() if callable(fingerprint) else repr(key)
                names[id(key)] = cached
            return cached

        with open(path, "w") as handle:
            for span_id, name, start, end, thread, parent, key in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                            "parent": parent,
                            "key": key_text(key),
                        }
                    )
                    + "\n"
                )


def _query_arg(index: int) -> Callable:
    """Key extractor: the declarative query passed at ``args[index]``."""
    from repro.serving.requests import as_query

    def key_of(args: Tuple, kwargs: Dict[str, Any]) -> Any:
        try:
            return as_query(args[index])
        except (AttributeError, IndexError, TypeError):
            return None

    return key_of


def _plan_query(args: Tuple, kwargs: Dict[str, Any]) -> Any:
    return getattr(args[0], "query", None)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.andxor.generating as generating
    import repro.consensus.topk.symmetric_difference as symmetric_difference
    import repro.server.app
    import repro.server.client
    import repro.server.http
    from repro.engine import get_backend
    from repro.models.sharded import ShardedDatabase, StaleUpdateError
    from repro.query.answers import QueryAnswer
    from repro.query.plan import ExecutionPlan
    from repro.query.planner import Planner
    from repro.server.client import ReproClient
    from repro.serving.executor import ServingExecutor
    from repro.session import QuerySession
    from repro.sharding.merge import MergeEngine

    tracer.wrap(
        ShardedDatabase, "prepare_update", "models.prepare_update",
        keep_durations=True,
    )
    tracer.wrap(
        ShardedDatabase, "apply_update", "models.apply_update",
        errors={StaleUpdateError: "models.stale_retries"},
        keep_durations=True,
    )
    tracer.wrap(QuerySession, "partial_rank_summary", "sharding.summary")
    tracer.wrap(MergeEngine, "merge", "sharding.merge")
    tracer.wrap(Planner, "plan_for", "query.plan")
    tracer.wrap(Planner, "calibration_table", "query.calibration")
    tracer.wrap(
        ExecutionPlan, "execute", "query.exec",
        key_of=_plan_query, keep_durations=True, keep_windows=True,
    )
    tracer.wrap(
        ServingExecutor, "execute", "serving.execute",
        key_of=_query_arg(1), keep_durations=True, keep_windows=True,
    )
    tracer.wrap(
        ServingExecutor, "update", "serving.update", keep_durations=True
    )
    tracer.wrap(
        ReproClient, "query", "server.request",
        key_of=_query_arg(1), keep_durations=True, keep_windows=True,
    )
    backend = type(get_backend())
    tracer.wrap(backend, "prefix_count_polynomials", "engine.prefix_count")
    tracer.wrap(backend, "convolve_rows", "engine.convolve")
    for function in (
        generating.generating_function,
        generating.univariate_generating_function,
        generating.conditional_univariate_generating_function,
        generating.bivariate_generating_function,
    ):
        tracer.wrap_imported(function, "andxor.genfn")
    tracer.wrap_imported(
        symmetric_difference.median_topk_symmetric_difference,
        "consensus.median_dp",
    )
    # The wire codec where the HTTP layer calls it: the names the server
    # and client modules import, and the answer's own encode/decode.  The
    # codec module itself stays unwrapped, so its per-element recursion
    # costs no tracing overhead.
    for module in (repro.server.app, repro.server.client, repro.server.http):
        for attribute in (
            "dumps", "loads", "encode_value", "query_to_dict", "query_from_dict"
        ):
            if hasattr(module, attribute):
                tracer.wrap(module, attribute, "wire")
    tracer.wrap(QueryAnswer, "to_wire", "wire")
    tracer.wrap(QueryAnswer, "from_wire", "wire")
    tracer.install_gc()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, state: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``state`` carries the counters the program keeps itself, read once
    after the run: ``serving`` (:class:`ServingMetricsSnapshot` deltas as a
    dict), ``merge`` (:class:`MergeStatsSnapshot` as a dict),
    ``artifacts`` (session cache hits/misses), ``results``
    (:class:`ResultCacheStats` as a dict) and ``refused`` (non-200
    admissions of the HTTP server).
    """
    from common import percentile

    def p(name: str, fraction: float) -> float:
        return 1000.0 * percentile(tracer.durations.get(name, []), fraction)

    serving = state.get("serving", {})
    merge = state.get("merge", {})
    artifacts = state.get("artifacts", {})
    results = state.get("results", {})
    waits = tracer.uncovered("serving.execute", "query.exec")
    server_self = tracer.uncovered("server.request", "serving.execute")
    return {
        "models.prepare_update_ms_p50": p("models.prepare_update", 0.5),
        "models.prepare_update_ms_total": tracer.total_ms("models.prepare_update"),
        "models.apply_update_ms_p50": p("models.apply_update", 0.5),
        "models.stale_retries": tracer.counters.get("models.stale_retries", 0),
        "sharding.summary_ms_total": tracer.total_ms("sharding.summary"),
        "sharding.summary_calls": tracer.calls.get("sharding.summary", 0),
        "sharding.merge_ms_total": tracer.total_ms("sharding.merge"),
        "sharding.merge_calls": tracer.calls.get("sharding.merge", 0),
        "sharding.merges_incremental": merge.get("incremental_merges", 0),
        "sharding.merges_full": merge.get("full_merges", 0),
        "sharding.convolutions": merge.get("convolutions", 0),
        "session.artifact_hit_ratio": _ratio(
            artifacts.get("hits", 0),
            artifacts.get("hits", 0) + artifacts.get("misses", 0),
        ),
        "query.plan_ms_total": tracer.total_ms("query.plan"),
        "query.plan_calls": tracer.calls.get("query.plan", 0),
        "query.exec_ms_p50": p("query.exec", 0.5),
        "query.exec_ms_p95": p("query.exec", 0.95),
        "query.exec_ms_total": tracer.total_ms("query.exec"),
        "query.result_hit_ratio": _ratio(
            results.get("hits", 0),
            results.get("hits", 0) + results.get("misses", 0),
        ),
        "query.result_evictions": results.get("evictions", 0),
        "query.result_entries": results.get("entries", 0),
        "query.calibration_ms": tracer.total_ms("query.calibration"),
        "wire.codec_ms_total": tracer.total_ms("wire"),
        "wire.calls": tracer.calls.get("wire", 0),
        "serving.execute_ms_p50": p("serving.execute", 0.5),
        "serving.execute_ms_p95": p("serving.execute", 0.95),
        "serving.wait_ms_p50": 1000.0 * percentile(waits, 0.5),
        "serving.wait_ms_p95": 1000.0 * percentile(waits, 0.95),
        "serving.update_ms_p50": p("serving.update", 0.5),
        "serving.update_ms_p95": p("serving.update", 0.95),
        "serving.batch_size_mean": serving.get("mean_batch_size", 0.0),
        "serving.coalesce_rate": _ratio(
            serving.get("coalesced", 0), serving.get("queries", 0)
        ),
        "serving.fused_plans": serving.get("fused_plans", 0),
        "server.request_ms_p50": p("server.request", 0.5),
        "server.request_ms_p95": p("server.request", 0.95),
        "server.self_ms_p50": 1000.0 * percentile(server_self, 0.5),
        "server.self_ms_p95": 1000.0 * percentile(server_self, 0.95),
        "server.refused": state.get("refused", 0),
        "engine.prefix_count_ms_total": tracer.total_ms("engine.prefix_count"),
        "engine.prefix_count_calls": tracer.calls.get("engine.prefix_count", 0),
        "engine.convolve_ms_total": tracer.total_ms("engine.convolve"),
        "engine.convolve_calls": tracer.calls.get("engine.convolve", 0),
        "andxor.genfn_ms_total": tracer.total_ms("andxor.genfn"),
        "andxor.genfn_calls": tracer.calls.get("andxor.genfn", 0),
        "consensus.median_dp_ms_total": tracer.total_ms("consensus.median_dp"),
        "consensus.median_dp_calls": tracer.calls.get("consensus.median_dp", 0),
        "runtime.gc_pause_ms_total": 1000.0 * tracer.gc_seconds,
    }


#: Stages compared when naming a workload's dominant stage: busy time of
#: each blocking layer boundary, summed over the run.
STAGES: Tuple[Tuple[str, str], ...] = (
    ("models.prepare_update", "shard rebuild (ShardedDatabase.prepare_update)"),
    ("models.apply_update", "shard swap (ShardedDatabase.apply_update)"),
    ("query.exec", "plan execution (ExecutionPlan.execute)"),
    ("query.plan", "planning (Planner.plan_for)"),
    ("wire", "wire codec (repro.query.wire)"),
)


def dominant_stage(
    tracer: Tracer, extra: Iterable[Tuple[str, float]] = ()
) -> Tuple[str, Dict[str, float]]:
    """The stage with the most busy time, with every stage's ms total.

    ``extra`` adds derived stages (e.g. the HTTP server's self time, or
    executor waiting) that no single wrapped call measures.
    """
    totals = {label: tracer.total_ms(name) for name, label in STAGES}
    for label, milliseconds in extra:
        totals[label] = milliseconds
    winner = max(totals, key=lambda label: totals[label])
    return winner, totals
