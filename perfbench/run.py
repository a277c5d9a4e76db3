"""The qmcs benchmark: one command for every workload, traced or not.

    python3 perfbench/run.py --workload mean-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Each workload runs in a fresh worker
process as one closed-loop client (one op at a time, no extra threads), with
BLAS pinned to one thread. With ``--trace 0`` it prints the end-to-end
metrics; ``setup_s`` is the median over ``SETUP_RUNS`` fresh processes.
End-to-end times are at reference speed (see ``speed.py``). With
``--trace 1`` it runs the workload once untraced and once traced, each for
half of ``--seconds`` and with the same seed, and prints the per-layer
metrics, among them the wall-clock times. Each metric is printed as
``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when an output check failed and 2 when a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("mean-sweep", "partition-walk", "tvd-laws")
SETUP_RUNS = 5
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170  # a whole run, all workers included, must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "estimate_ms_p50": "ms",
    "estimate_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "quantum_queries_per_estimate": "count",
    "classical_samples_per_estimate": "count",
    "within_target_share": "share",
}
LEDGER_COUNTERS = ("reflection_uses", "walk_steps", "a_uses", "classical_samples")


class WorkerError(RuntimeError):
    pass


def blas_env() -> dict:
    return {**os.environ, **{var: str(BLAS_THREADS) for var in BLAS_VARS}}


def run_worker(args, started, *extra, seconds=None) -> dict:
    spawned_at = time.monotonic()
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--spawned-at", repr(spawned_at), *extra]
    timeout = max(1.0, DEADLINE_S - (spawned_at - started))
    try:
        proc = subprocess.run(cmd, env=blas_env(), stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"run passed its {DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def estimates_per_s(res: dict, times="op_s") -> float:
    return (res["attempted"] - res["failed"]) / math.fsum(res[times])


def p50_p90_ms(op_s) -> tuple:
    op_ms = [1e3 * secs for secs in op_s]
    return (statistics.median(op_ms),
            statistics.quantiles(op_ms, n=10, method="inclusive")[8])


def end_to_end(res: dict, setup_samples) -> dict:
    n = res["attempted"]
    p50, p90 = p50_p90_ms(res["op_s"])
    return {
        "setup_s": statistics.median(setup_samples),
        "estimates_per_s": estimates_per_s(res),
        "estimate_ms_p50": p50,
        "estimate_ms_p90": p90,
        "peak_rss_mb": res["peak_rss_mb"],
        "quantum_queries_per_estimate": res["quantum"] / n,
        "classical_samples_per_estimate": res["ledger"]["classical_samples"] / n,
        "within_target_share": 1.0 - res["misses"] / n,
    }


def per_layer(plain: dict, traced: dict) -> dict:
    metrics = {name: (value, _layer_unit(name))
               for name, value in traced["layers"].items()}
    for counter in LEDGER_COUNTERS:
        metrics[f"ledger.{counter}"] = (traced["ledger"][counter], "count")
    metrics["trace.overhead_share"] = (
        1.0 - estimates_per_s(traced) / estimates_per_s(plain), "share")
    metrics["miss_rate"] = (plain["misses"] / plain["attempted"], "share")
    metrics["failed_share"] = (plain["failed"] / plain["attempted"], "share")
    p50, p90 = p50_p90_ms(plain["op_wall_s"])
    metrics["wall.setup_s"] = (plain["setup_wall_s"], "s")
    metrics["wall.estimates_per_s"] = (estimates_per_s(plain, "op_wall_s"), "1/s")
    metrics["wall.estimate_ms_p50"] = (p50, "ms")
    metrics["wall.estimate_ms_p90"] = (p90, "ms")
    metrics["machine.speed"] = (plain["speed"], "ratio")
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_share"):
        return "share"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure at least this long, then finish the round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")

    started = time.monotonic()
    try:
        if args.trace:
            half = args.seconds / 2
            runs = [run_worker(args, started, seconds=half),
                    run_worker(args, started, "--trace", "1", seconds=half)]
            metrics = per_layer(*runs)
        else:
            setups = [run_worker(args, started, "--setup-only")["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
            runs = [run_worker(args, started)]
            setups.append(runs[0]["setup_s"])
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, value in end_to_end(runs[0], setups).items()}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = [p for res in runs for p in res["problems"]]
    env = {**runs[0]["versions"], "nproc": len(os.sched_getaffinity(0)),
           "cpu": cpu_model(), "blas_threads": BLAS_THREADS,
           "workload": args.workload, "seed": args.seed,
           "rounds": [res["rounds"] for res in runs]}
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(res["attempted"] for res in runs),
        "failed": sum(res["failed"] for res in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
