#!/usr/bin/env python3
"""Reference-point accuracy benchmark.

Solves one instance of the stock benchmark problem (1000 unknowns, 400
equations, ~100 active sources, 0.01 sensor noise) printing the per-width
SNR trace, then averages SNR over many seeds for the smoothed-ascent solver
and the reweighted least-squares baseline on paired problems.

Run:
    python scripts/accuracy_benchmark.py --runs 20 --seed 1000 --out accuracy.csv
"""

import argparse

import numpy as np

from sl0 import SweepPoint, generate_problem, run_sweep, sl0_solve, snr_db, write_sweep_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--sigma-off", type=float, default=0.0, help="inactive-source noise scale")
    parser.add_argument("--out", default=None, help="write the summary CSV here")
    args = parser.parse_args()

    point = SweepPoint(sigma_off=args.sigma_off)
    a, s_true, x = generate_problem(point.source_model(), point.mixing_spec(), args.seed)
    report = sl0_solve(a, x, record_estimates=True)
    print("single run, per-width progress:")
    print(f"  {'sigma':>8} {'F':>10} {'SNR dB':>8}")
    for entry in report.trace:
        print(f"  {entry.sigma:8.3g} {entry.f_total:10.2f} {snr_db(s_true, entry.estimate):8.2f}")

    rows = run_sweep({"solver": ["sl0", "irls"]}, runs=args.runs, base_seed=args.seed, base=point)
    print(f"\naveraged over {args.runs} paired runs:")
    for row in rows:
        print(
            f"  {row['solver']:>4}: mean {row['snr_mean_db']:6.2f} dB, std {row['snr_std_db']:5.2f}, "
            f"min {row['snr_min_db']:6.2f}, mean time {row['time_mean_s'] * 1e3:7.1f} ms"
        )
    if args.out:
        write_sweep_csv(rows, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
