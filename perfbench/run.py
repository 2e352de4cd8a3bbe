"""Benchmark of the consensus serving path: one command, three workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload ti_mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload http_hot --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --oracle          # tiny-instance self-test

Workloads (see ``workloads.py``): ``ti_mixed``, ``bid_sweep``,
``http_hot``.  Every process runs the program from ``src/`` on the numpy
backend, in a fresh working directory under ``.perfbench_work/`` so the
planner resolves its calibration by probing, never from a file an earlier
experiment left behind.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
of several cold set-ups, each in its own process (set-up includes the
planner's calibration probe, which runs once per process); every other
metric comes from one measured window in one more process.  The window
is cut into stretches of a fixed number of events, and ``throughput_eps``
and ``query_mean_ms`` are trimmed means over the stretches (events per
second, mean query latency; the extreme tenth at each end dropped), so a
pause of the shared host that slows one stretch moves neither much.
Each process uses one BLAS thread.

``--trace 1`` runs the workload twice, untraced and traced, and reports
the per-layer metrics of the traced run together with the tracing
overhead on each end-to-end metric.  Spans and a full report land in the
run's working directory.

Every run checks every distinct answer against a cold, unsharded,
uncached ``repro.connect`` over the same data.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics.  Exit status 0 means the run completed and every answer matched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("ti_mixed", "bid_sweep", "http_hot")

#: Cold set-ups measured in their own processes, besides the run's own.
SETUP_PROBES = 2

#: Hard limit on one whole invocation, in seconds.
TIME_LIMIT = 175.0

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_eps": "1/s",
    "query_mean_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "models.prepare_update_ms_p50": "ms",
    "models.prepare_update_ms_total": "ms",
    "models.apply_update_ms_p50": "ms",
    "models.stale_retries": "count",
    "sharding.summary_ms_total": "ms",
    "sharding.summary_calls": "count",
    "sharding.merge_ms_total": "ms",
    "sharding.merge_calls": "count",
    "sharding.merges_incremental": "count",
    "sharding.merges_full": "count",
    "sharding.convolutions": "count",
    "session.artifact_hit_ratio": "ratio",
    "query.plan_ms_total": "ms",
    "query.plan_calls": "count",
    "query.exec_ms_p50": "ms",
    "query.exec_ms_p95": "ms",
    "query.exec_ms_total": "ms",
    "query.result_hit_ratio": "ratio",
    "query.result_evictions": "count",
    "query.result_entries": "count",
    "query.calibration_ms": "ms",
    "wire.codec_ms_total": "ms",
    "wire.calls": "count",
    "serving.execute_ms_p50": "ms",
    "serving.execute_ms_p95": "ms",
    "serving.wait_ms_p50": "ms",
    "serving.wait_ms_p95": "ms",
    "serving.update_ms_p50": "ms",
    "serving.update_ms_p95": "ms",
    "serving.batch_size_mean": "count",
    "serving.coalesce_rate": "ratio",
    "serving.fused_plans": "count",
    "server.request_ms_p50": "ms",
    "server.request_ms_p95": "ms",
    "server.self_ms_p50": "ms",
    "server.self_ms_p95": "ms",
    "server.refused": "count",
    "engine.prefix_count_ms_total": "ms",
    "engine.prefix_count_calls": "count",
    "engine.convolve_ms_total": "ms",
    "engine.convolve_calls": "count",
    "andxor.genfn_ms_total": "ms",
    "andxor.genfn_calls": "count",
    "consensus.median_dp_ms_total": "ms",
    "consensus.median_dp_calls": "count",
    "runtime.gc_pause_ms_total": "ms",
    "runtime.rss_slope_mb_per_100ev": "MB/100ev",
}
for _name in END_TO_END:
    PER_LAYER[f"trace_overhead.{_name}"] = "%"


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result."""


class Runner:
    """Starts the worker processes of one invocation and collects them."""

    def __init__(self, root: str, label: str) -> None:
        source = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
            raise BenchmarkError(
                f"no program source at {source}; run from a source checkout"
            )
        self.workdir = os.path.join(root, ".perfbench_work", label)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.env = dict(os.environ)
        for name in ("REPRO_CALIBRATION", "REPRO_SEED", "PYTHONSTARTUP"):
            self.env.pop(name, None)
        self.env["PYTHONPATH"] = source
        self.env["REPRO_BACKEND"] = "numpy"
        self.env["PYTHONHASHSEED"] = "0"
        # One BLAS thread per process: the program's own thread pools
        # already fill the host's cores, and spinning BLAS workers on top
        # of them would measure the scheduler.
        for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
        ):
            self.env[name] = "1"
        self.started = time.monotonic()
        self.runs = 0

    def worker(self, role: str, *arguments: str) -> Dict[str, Any]:
        self.runs += 1
        out = os.path.join(self.workdir, f"{self.runs:02d}-{role}.json")
        remaining = TIME_LIMIT - (time.monotonic() - self.started)
        if remaining <= 5.0:
            raise BenchmarkError("out of time before the run finished")
        command = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--role",
            role,
            "--out",
            out,
            *arguments,
        ]
        try:
            completed = subprocess.run(
                command,
                cwd=self.workdir,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker {role} ran past the time limit")
        if completed.returncode != 0 or not os.path.exists(out):
            sys.stderr.write(completed.stderr[-4000:])
            raise BenchmarkError(
                f"worker {role} exited with status {completed.returncode}"
            )
        with open(out) as handle:
            return json.load(handle)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def _describe(run: Dict[str, Any], setups: List[float]) -> List[str]:
    e2e, counts, details = run["end_to_end"], run["counts"], run["details"]
    env, props, gate = run["environment"], run["properties"], run["gate"]
    lines = [
        f"workload {run['workload']} seed {run['seed']}: "
        f"{counts['attempted']} attempted, {counts['failed']} failed "
        f"(fail_frac {details['fail_frac']:.4f}), "
        f"{counts['elapsed_s']:.2f} s measured",
        f"  setup_s         {_median(setups):10.4f} s    median of "
        f"{len(setups)} cold set-ups {[round(s, 4) for s in setups]}",
        f"  throughput_eps  {e2e['throughput_eps']:10.3f} 1/s  "
        f"trimmed mean of {counts['segments']} stretches; "
        f"{counts['completed']} completed, "
        f"{details['throughput_overall_eps']:.3f} 1/s overall",
        f"  query_mean_ms   {e2e['query_mean_ms']:10.3f} ms   "
        f"trimmed mean of the stretches; {counts['queries']} queries, "
        f"{details['query_mean_overall_ms']:.3f} ms overall",
        f"  query_p50_ms    {details['query_p50_ms']:10.3f} ms",
        f"  query_p90_ms    {details['query_p90_ms']:10.3f} ms",
        f"  query_p95_ms    {details['query_p95_ms']:10.3f} ms",
        f"  update_p50_ms   {details['update_p50_ms']:10.3f} ms   "
        f"of {counts['updates']} updates",
        f"  update_p95_ms   {details['update_p95_ms']:10.3f} ms",
        f"  peak_rss_mb     {e2e['peak_rss_mb']:10.1f} MB   "
        f"RSS slope {details['rss_slope_mb_per_100ev']:.2f} MB per 100 events",
    ]
    if "sweeps" in details:
        lines.append(f"  sweeps          {details['sweeps']}")
    lines += [
        "  properties: "
        + ", ".join(f"{name} {value}" for name, value in sorted(props.items())),
        f"  planner: calibration {env['calibration_source']} "
        f"(file present: {env['calibration_file_present']}), "
        f"Kendall exact limit {env['kendall_exact_limit']}",
        f"  host: {env['host']}, nproc {env['nproc']}, backend "
        f"{env['backend']}, numpy {env['numpy']}",
        f"  gate: {gate['checked']} answers checked against a cold unsharded "
        f"connection, {len(gate['errors'])} mismatches",
    ]
    lines += [f"    MISMATCH {error}" for error in gate["errors"]]
    return lines


def measure(runner: Runner, args: argparse.Namespace) -> Dict[str, Any]:
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if not args.trace:
        setups = [
            runner.worker("setup", *common)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        run = runner.worker("run", *common, "--trace", "0")
        setups.append(run["end_to_end"]["setup_s"])
        metrics = dict(run["end_to_end"], setup_s=_median(setups))
        for line in _describe(run, setups):
            print(line)
        report = {"runs": [run], "setups": setups}
        chosen = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
        gates = [run["gate"]]
    else:
        base = runner.worker("run", *common, "--trace", "0")
        traced = runner.worker("run", *common, "--trace", "1")
        layers = dict(traced["per_layer"])
        layers["runtime.rss_slope_mb_per_100ev"] = base["details"][
            "rss_slope_mb_per_100ev"
        ]
        for name in END_TO_END:
            untraced = base["end_to_end"][name]
            layers[f"trace_overhead.{name}"] = (
                100.0 * (traced["end_to_end"][name] - untraced) / untraced
            )
        for line in _describe(base, [base["end_to_end"]["setup_s"]]):
            print(line)
        print(f"  traced run: dominant stage {traced['dominant_stage']}")
        for label, milliseconds in sorted(
            traced["stage_ms"].items(), key=lambda item: -item[1]
        ):
            print(f"    {milliseconds:12.1f} ms  {label}")
        print(
            f"    {traced['waiting_ms']:12.1f} ms  waiting in the executor "
            "(execute minus plan execution; not a stage)"
        )
        print(
            f"    {layers['runtime.gc_pause_ms_total']:12.1f} ms  garbage "
            "collection pauses (inside the stages above)"
        )
        print("  tracing overhead (traced vs untraced):")
        for name in END_TO_END:
            print(
                f"    {name:15s} {base['end_to_end'][name]:12.4f} -> "
                f"{traced['end_to_end'][name]:12.4f} "
                f"({layers[f'trace_overhead.{name}']:+.1f}%)"
            )
        print("  per-layer metrics:")
        for name, unit in PER_LAYER.items():
            print(f"    {name:36s} {layers[name]:14.4f} {unit}")
        report = {"runs": [base, traced]}
        run = traced
        chosen = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
        gates = [base["gate"], traced["gate"]]
    with open(os.path.join(runner.workdir, "report.json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    return {
        "correct": all(not gate["errors"] for gate in gates),
        "attempted": run["counts"]["attempted"],
        "failed": run["counts"]["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }


def oracle(runner: Runner, seed: int) -> bool:
    """The tiny-instance self-test over all three drivers."""
    passed = True
    for name in WORKLOAD_NAMES:
        result = runner.worker(
            "oracle", "--workload", name, "--seed", str(seed), "--seconds", "2"
        )
        ok = not result["errors"] and result["failed"] == 0
        passed = passed and ok
        print(
            f"oracle {name}: {result['checked']} answers checked by "
            f"possible-world enumeration, {result['attempted']} operations, "
            f"{result['failed']} failed: {'ok' if ok else 'FAILED'}"
        )
        for error in result["errors"]:
            print(f"  MISMATCH {error}")
    return passed


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--oracle", action="store_true",
        help="run the tiny-instance self-test instead of a measurement",
    )
    args = parser.parse_args()
    if not args.oracle and args.workload is None:
        parser.error("--workload is required unless --oracle is given")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    label = (
        f"oracle-s{args.seed}"
        if args.oracle
        else f"{args.workload}-s{args.seed}-t{args.trace}"
    )
    try:
        runner = Runner(root, label)
        if args.oracle:
            return 0 if oracle(runner, args.seed) else 1
        result = measure(runner, args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
