"""One process that runs one workload: set-up, then the timed closed loop.

run.py starts it with PYTHONPATH at the checkout's ``src``. It prints
``ready`` once set-up is done (imports, inputs, one untimed warm-up call),
then runs the loop and prints one JSON line: the raw call times and counts
of a plain loop, or the per-layer metrics of a traced one. With
``--seconds 0`` it stops after set-up, so run.py can time one more set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import sl0
import workloads
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, span_shares

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES = (sl0.Sl0Error, workloads.OperationFailed)


def run_plain(workload, seconds: int) -> dict:
    """The timed loop; returns the raw call times for run.py."""
    times: list[float] = []
    snr_sum = 0.0
    snr_count = 0
    attempted = failed = 0
    problems: list[str] = []
    index = 0
    deadline = time.perf_counter() + seconds
    while True:
        inputs = workload.inputs(index)
        attempted += 1
        start = time.perf_counter()
        try:
            out = workload.call(inputs)
        except FAILURES as exc:
            failed += 1
            print(f"call {index} failed: {exc}", file=sys.stderr)
        else:
            times.append(time.perf_counter() - start)
            try:
                snrs = workload.check(inputs, out)
                snr_sum += float(np.sum(snrs))
                snr_count += snrs.size
            except workloads.CheckFailed as exc:
                problems.append(f"call {index}: {exc}")
        index += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "times": times,
        "samples": workload.samples_per_call * len(times),
        "snr_sum": snr_sum,
        "snr_count": snr_count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(workload, seconds: int, name: str, seed: int) -> dict:
    """Each input is solved twice, once traced and once not, in alternating
    order. The per-layer metrics come from the traced calls; the overhead is
    the median over inputs of traced over untraced wall time, which the
    BLAS-thread tail of single calls sways less than a ratio of sums."""
    tracer = Tracer()
    ratios: list[float] = []
    attempted = failed = samples = 0
    problems: list[str] = []
    index = 0
    deadline = time.perf_counter() + seconds
    while True:
        inputs = workload.inputs(index)
        walls = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            attempted += 1
            start = time.perf_counter()
            try:
                out = tracer.call(index, workload.call, inputs) if traced else workload.call(inputs)
            except FAILURES as exc:
                failed += 1
                print(f"call {index} failed: {exc}", file=sys.stderr)
                continue
            walls[traced] = time.perf_counter() - start
            samples += workload.samples_per_call if traced else 0
            try:
                workload.check(inputs, out)
            except workloads.CheckFailed as exc:
                problems.append(f"call {index}: {exc}")
        if len(walls) == 2:
            ratios.append(walls[True] / walls[False])
        index += 1
        if time.perf_counter() >= deadline:
            break
    if not ratios:
        raise SystemExit("no input was solved both traced and untraced; no metric can be computed")
    values = layer_metrics(tracer.spans, samples)
    values["trace.overhead.share"] = float(np.median(ratios)) - 1.0
    out_path = HERE / "out" / f"trace-{name}.jsonl"
    tracer.write(out_path, {"workload": name, "seed": seed, "seconds": seconds, "calls": index})
    print(f"{index} traced calls, {len(tracer.spans)} spans written to {out_path}", file=sys.stderr)
    shares = ", ".join(f"{span} {share:.3f}" for span, share in span_shares(tracer.spans).items())
    print(f"share of traced wall time under each span: {shares}", file=sys.stderr)
    metrics = {key: (values[key], unit) for key, unit in PER_LAYER_UNITS.items()}
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not Path(sl0.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sl0 imported from {sl0.__file__}, not from {ROOT / 'src'}")
    workload = workloads.make(args.workload, args.seed)
    warm = workload.inputs(-1)
    workload.check(warm, workload.call(warm))
    print("ready", flush=True)
    if args.seconds == 0:
        return 0
    if args.trace:
        result = run_traced(workload, args.seconds, args.workload, args.seed)
    else:
        result = run_plain(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
