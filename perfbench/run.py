#!/usr/bin/env python3
"""Benchmark of the sl0 library: one workload per run, end-to-end metrics
untraced (``--trace 0``) or per-layer metrics from a traced run
(``--trace 1``).

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload batch_stream --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The library is
imported from the checkout's ``src``; without it the command fails.

This file uses the standard library only. The measuring runs in a worker
process (worker.py), so that set-up time counts from process start. One
worker runs the timed loop for the whole run. An untraced run first starts
SETUPS - 1 more workers that stop after set-up, and reports the median of
all SETUPS set-up times as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("single_ref", "batch_stream", "batch_wide", "sweep_anneal")
# Set-ups timed per untraced run; setup_s is their median.
SETUPS = 3
READY_TIMEOUT_S = 120.0
# Time a measuring worker may take beyond --seconds: the last call, which
# may start just before the deadline, and its checks.
FINISH_TIMEOUT_S = 60.0


class WorkerError(Exception):
    pass


def start_worker(args, seconds: int) -> subprocess.Popen:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT, env=env)


def wait_ready(proc: subprocess.Popen, started: float) -> float:
    """Seconds from ``started`` until the worker reports set-up done."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(READY_TIMEOUT_S):
            raise WorkerError(f"worker not ready after {READY_TIMEOUT_S} s")
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    if line.strip() != b"ready":
        raise WorkerError(f"worker ended set-up with {line!r} (exit code {proc.wait()})")
    return elapsed


def run_worker(args, seconds: int) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its result. With
    ``seconds`` = 0 the worker stops after set-up and gives no result."""
    started = time.perf_counter()
    proc = start_worker(args, seconds)
    try:
        setup_s = wait_ready(proc, started)
        out, _ = proc.communicate(timeout=seconds + FINISH_TIMEOUT_S)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if seconds == 0:
        return setup_s, None
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def end_to_end_metrics(setup_s: float, part: dict) -> dict:
    """End-to-end metrics of the measuring worker's calls."""
    times_ms = [1e3 * t for t in part["times"]]
    if not times_ms:
        raise WorkerError("every call failed; no metric can be computed")
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (1e3 * part["samples"] / sum(times_ms), "1/s"),
        "call_ms_p50": (statistics.median(times_ms), "ms"),
        "call_ms_p90": (statistics.quantiles(times_ms, n=10, method="inclusive")[-1], "ms"),
        "snr_db_mean": (part["snr_sum"] / max(part["snr_count"], 1), "dB"),
        "peak_rss_mb": (part["peak_rss_mb"], "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "sl0" / "__init__.py").is_file():
        print(f"perfbench: no sl0 sources under {ROOT / 'src'}; run it from a checkout", file=sys.stderr)
        return 2

    try:
        if args.trace:
            _, result = run_worker(args, args.seconds)
            metrics = result["metrics"]
        else:
            setups = [run_worker(args, 0)[0] for _ in range(SETUPS - 1)]
            setup_s, result = run_worker(args, args.seconds)
            metrics = end_to_end_metrics(statistics.median([*setups, setup_s]), result)
            print(f"{args.workload} timed calls = {len(result['times'])}")
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
