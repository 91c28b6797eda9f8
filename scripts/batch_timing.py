#!/usr/bin/env python3
"""Per-sample solve time as a function of the batch width.

All solver steps are matrix-shaped, so a block of right-hand sides can be
annealed in lockstep and the inner steps become level-3 BLAS. Per-sample
time drops with the batch width and then flattens. Every block is mixed by
one matrix, as a caller streaming blocks of one mixture would send them, so
the library factors it on the first block only and reuses the factor after.

One untimed warm-up block pays the factorization and the process's first
calls. Each width is then timed on fresh blocks, enough to cover at least
MIN_SAMPLES samples and never fewer than MIN_BLOCKS blocks; the median per
sample is reported.

Run:
    python scripts/batch_timing.py --widths 1,5,10,100,1000 --out batch_timing.csv
"""

import argparse
import csv
import math
import statistics
import time

import numpy as np

from sl0 import MixingSpec, SourceModel, generate_problem, sl0_solve_batch

MIN_SAMPLES = 100
MIN_BLOCKS = 5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", default="1,5,10,100,1000", help="comma list of batch widths T")
    parser.add_argument("--m", type=int, default=1000)
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="batch_timing.csv")
    args = parser.parse_args()

    model = SourceModel(m=args.m, p=args.k / args.m)
    spec = MixingSpec(n=args.n, m=args.m, noise_sigma=0.01)
    a, _, _ = generate_problem(model, spec, args.seed)
    rng = np.random.default_rng(args.seed + 1)

    def draw_block(t_count: int) -> np.ndarray:
        active = rng.random((args.m, t_count)) < args.k / args.m
        sources = np.where(active, 1.0, 0.0) * rng.standard_normal((args.m, t_count))
        return a @ sources + 0.01 * rng.standard_normal((args.n, t_count))

    sl0_solve_batch(a, draw_block(1))
    widths = [int(v) for v in args.widths.split(",")]
    results = []
    for t_count in widths:
        per_sample = []
        for _ in range(max(MIN_BLOCKS, math.ceil(MIN_SAMPLES / t_count))):
            x_block = draw_block(t_count)
            started = time.perf_counter()
            sl0_solve_batch(a, x_block)
            per_sample.append((time.perf_counter() - started) / t_count)
        median = statistics.median(per_sample)
        results.append((t_count, median))
        print(f"T={t_count:5d}: {median * 1e3:8.2f} ms per sample")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "per_sample_s"])
        writer.writerows(results)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
