"""One benchmark process: a set-up probe or one measured workload run.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the working directory set to a fresh directory, so the
planner finds no persisted calibration and probes at first use.  Writes
its result as one JSON document to ``--out``.

Roles:

* ``setup`` -- time one set-up of the workload and exit.
* ``run`` -- set up, measure the window, check every answer against the
  cold unsharded reference, and report.  ``--trace 1`` wraps the layer
  boundaries first (see ``tracing.py``) and adds the per-layer metrics.
* ``oracle`` -- the same drivers on tiny tables (n <= 8, probabilities 0
  and 1 present), every answer checked by possible-world enumeration.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Any, Dict

from common import (
    peak_rss_mb,
    percentile,
    slope,
    stretch_means,
    sub_seed,
)
from gate import check_against_oracle, check_against_reference
from tracing import Tracer, dominant_stage, install, layer_metrics
from workloads import WORKLOADS, BidSweep, HttpHot, TiMixed

from repro.engine import get_backend
from repro.models import BlockIndependentDatabase, TupleIndependentDatabase
from repro.query.calibration import DEFAULT_CALIBRATION_PATH, host_fingerprint
from repro.query.planner import DEFAULT_PLANNER


def tiny_tuples(seed: int) -> TupleIndependentDatabase:
    """8 independent tuples; probabilities 0 and 1 both present."""
    rng = random.Random(sub_seed(seed, "tiny-tuples"))
    scores = rng.sample(range(10, 100), 8)
    probabilities = [round(rng.uniform(0.1, 0.9), 3) for _ in range(8)]
    probabilities[2], probabilities[5] = 1.0, 0.0
    return TupleIndependentDatabase(
        [
            (f"t{i}", float(score), float(score), probability)
            for i, (score, probability) in enumerate(zip(scores, probabilities))
        ],
        name="tiny_tuples",
    )


def tiny_blocks(seed: int) -> BlockIndependentDatabase:
    """5 blocks, 8 alternatives; one certain block, one 0-probability
    alternative, one block that may be absent."""
    rng = random.Random(sub_seed(seed, "tiny-blocks"))
    scores = iter(float(s) for s in rng.sample(range(10, 100), 8))
    split = round(rng.uniform(0.2, 0.8), 3)
    blocks = {
        "b0": [(next(scores), 1.0)],
        "b1": [(next(scores), split), (next(scores), round(1.0 - split, 3))],
        "b2": [(next(scores), 0.0), (next(scores), 0.6)],
        "b3": [(next(scores), round(rng.uniform(0.1, 0.9), 3))],
        "b4": [(next(scores), 0.5)],
    }
    return BlockIndependentDatabase(blocks, name="tiny_blocks")


def build(workload: str, seed: int, tiny: bool) -> Any:
    if not tiny:
        return WORKLOADS[workload](seed)
    if workload == TiMixed.name:
        return TiMixed(seed, table=tiny_tuples, shards=2, k=3)
    if workload == BidSweep.name:
        return BidSweep(seed, table=tiny_blocks, shards=2, ks=(1, 2, 3))
    return HttpHot(seed, table=tiny_tuples, shards=2, ks=(1, 2, 3))


def environment() -> Dict[str, Any]:
    """Host, backend and the planner inputs this run resolved."""
    import numpy

    table = DEFAULT_PLANNER.calibration_table()
    return {
        "host": host_fingerprint(),
        "nproc": os.cpu_count(),
        "backend": get_backend().name,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "calibration_source": getattr(table, "source", None) or "heuristic",
        "calibration_file_present": os.path.exists(DEFAULT_CALIBRATION_PATH),
        "kendall_exact_limit": DEFAULT_PLANNER.kendall_exact_limit,
        "kendall_limit_note": DEFAULT_PLANNER.kendall_limit_note,
    }


def timed_setup(driver: Any) -> float:
    began = time.perf_counter()
    driver.setup()
    return time.perf_counter() - began


def role_setup(args: argparse.Namespace) -> Dict[str, Any]:
    driver = build(args.workload, args.seed, tiny=False)
    try:
        return {"setup_s": timed_setup(driver)}
    finally:
        driver.close()


def role_run(args: argparse.Namespace) -> Dict[str, Any]:
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    driver = build(args.workload, args.seed, tiny=False)
    try:
        setup_s = timed_setup(driver)
        calibration_ms = tracer.total_ms("query.calibration") if tracer else 0.0
        driver.prepare(args.seconds)
        if tracer is not None:
            tracer.reset()
        outcome = driver.run()
        peak = peak_rss_mb()
        state = driver.layer_state()
        if tracer is not None:
            tracer.uninstall()
        began = time.perf_counter()
        checked, errors = check_against_reference(driver.answers())
        gate_s = time.perf_counter() - began
        env = environment()
    finally:
        if tracer is not None:
            tracer.uninstall()
        driver.close()
    queries = outcome.query_latencies
    updates = outcome.update_latencies
    rate, query_mean = stretch_means(outcome.segments)
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "end_to_end": {
            "setup_s": setup_s,
            "throughput_eps": rate,
            "query_mean_ms": 1000.0 * query_mean,
            "peak_rss_mb": peak,
        },
        "counts": {
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "completed": outcome.completed,
            "queries": len(queries),
            "updates": len(updates),
            "elapsed_s": outcome.elapsed,
            "segments": len(outcome.segments),
        },
        "details": {
            "throughput_overall_eps": outcome.completed / outcome.elapsed,
            "query_mean_overall_ms": 1000.0 * sum(queries) / max(1, len(queries)),
            "query_p50_ms": 1000.0 * percentile(queries, 0.50),
            "query_p90_ms": 1000.0 * percentile(queries, 0.90),
            "query_p95_ms": 1000.0 * percentile(queries, 0.95),
            "update_p50_ms": 1000.0 * percentile(updates, 0.50),
            "update_p95_ms": 1000.0 * percentile(updates, 0.95),
            "fail_frac": outcome.failed / max(1, outcome.attempted),
            "rss_slope_mb_per_100ev": 100.0 * slope(outcome.rss_points),
            **outcome.extra,
        },
        "properties": outcome.properties,
        "samples_ms": {
            "query": [round(1000.0 * value, 4) for value in queries],
            "update": [round(1000.0 * value, 4) for value in updates],
            "segments": [
                [
                    events,
                    round(1000.0 * seconds, 4),
                    None if mean is None else round(1000.0 * mean, 4),
                ]
                for events, seconds, mean in outcome.segments
            ],
        },
        "environment": env,
        "gate": {"checked": checked, "errors": errors[:20], "seconds": gate_s},
    }
    if tracer is not None:
        layers = layer_metrics(tracer, state)
        layers["query.calibration_ms"] = calibration_ms
        # Busy stages on the blocking path; time spent waiting for the
        # executor is reported beside them, not ranked among them.
        extra = []
        if args.workload == HttpHot.name:
            framing = sum(tracer.uncovered("server.request", "serving.execute"))
            extra.append((
                "HTTP framing and sockets (request minus execute minus codec)",
                1000.0 * framing - tracer.total_ms("wire"),
            ))
        stage, stages = dominant_stage(tracer, extra)
        result["waiting_ms"] = 1000.0 * sum(
            tracer.uncovered("serving.execute", "query.exec")
        )
        result["per_layer"] = layers
        result["dominant_stage"] = stage
        result["stage_ms"] = stages
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        tracer.write(os.path.join(os.path.dirname(args.out), "spans.jsonl"))
    return result


def role_oracle(args: argparse.Namespace) -> Dict[str, Any]:
    driver = build(args.workload, args.seed, tiny=True)
    try:
        driver.setup()
        driver.prepare(args.seconds)
        outcome = driver.run()
        answers = driver.answers()
    finally:
        driver.close()
    errors = []
    for database, query, value in answers:
        problem = check_against_oracle(database, query, value)
        if problem is not None:
            errors.append(f"{query.kind} k={query.k}: {problem}")
    checked, reference_errors = check_against_reference(answers)
    return {
        "workload": args.workload,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checked": checked,
        "errors": (errors + reference_errors)[:20],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "run", "oracle"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if get_backend().name != "numpy":
        print("the benchmark runs on the numpy backend", file=sys.stderr)
        return 2
    role = {"setup": role_setup, "run": role_run, "oracle": role_oracle}
    result = role[args.role](args)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
