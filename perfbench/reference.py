#!/usr/bin/env python3
"""Reference figures that are not workloads: the IRLS baseline against
sl0_solve in time and SNR on single_ref problems (the paper's speed and
accuracy comparison), and sweep_anneal calls with jobs=1 against jobs=2.

    python3 perfbench/reference.py --seed 21

Inputs come from the same streams as the workloads of that seed. The
sl0 estimates pass the workload checks; the IRLS ones are reported with
their SNR and worst relative residual.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import sl0  # noqa: E402
import workloads  # noqa: E402
from checks import relative_residual, snr_db  # noqa: E402

# single_ref problems for the IRLS comparison, and sweep_anneal calls per
# jobs setting.
PROBLEMS = 20
CALLS = 8


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def irls_against_sl0(seed: int, problems: int) -> None:
    single = workloads.SingleRef(seed)
    rows = {"sl0_solve": ([], []), "irls_solve": ([], [])}
    irls_residual = 0.0
    for index in range(problems):
        inputs = single.inputs(index)
        a, s, x = inputs
        report, t_sl0 = timed(single.call, inputs)
        single.check(inputs, report)
        estimate, t_irls = timed(sl0.irls_solve, a, x)
        irls_residual = max(irls_residual, float(relative_residual(a, x, estimate)[0]))
        for name, est, t in (("sl0_solve", report.estimate, t_sl0), ("irls_solve", estimate, t_irls)):
            rows[name][0].append(1e3 * t)
            rows[name][1].append(float(snr_db(s, est)[0]))
    print(f"single_ref problems, seed {seed}, n = {problems}")
    for name, (times, snrs) in rows.items():
        print(
            f"  {name:10s} median {statistics.median(times):8.1f} ms  "
            f"mean SNR {np.mean(snrs):5.1f} dB  min SNR {np.min(snrs):5.1f} dB"
        )
    print(f"  worst IRLS relative residual {irls_residual:.1e}")


def sweep_jobs(seed: int, calls: int) -> None:
    sweep = workloads.SweepAnneal(seed)
    times = {1: [], 2: []}
    for index in range(calls):
        inputs = sweep.inputs(index)
        order = (1, 2) if index % 2 == 0 else (2, 1)
        for jobs in order:
            _, base_seed = inputs
            rows, t = timed(sl0.run_sweep, sweep.GRID, runs=1, base_seed=base_seed, base=sweep.BASE, jobs=jobs)
            sweep.check(inputs, rows)
            times[jobs].append(1e3 * t)
    print(f"sweep_anneal calls, seed {seed}, n = {calls} per setting, alternating order")
    for jobs, values in times.items():
        print(f"  jobs={jobs} median {statistics.median(values):8.1f} ms per call")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()
    irls_against_sl0(args.seed, PROBLEMS)
    sweep_jobs(args.seed, CALLS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
