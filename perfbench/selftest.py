#!/usr/bin/env python3
"""Self-test of the benchmark's checks: a genuine estimate passes them and
corrupted ones fail them.

    python3 perfbench/selftest.py

Exits 0 when every case ends as expected, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import sl0  # noqa: E402
import workloads  # noqa: E402
from checks import check_estimates  # noqa: E402


def main() -> int:
    rng = np.random.default_rng(2024)
    a = workloads.draw_matrix(rng)
    s, x = workloads.draw_problem(rng, a, 10)
    estimates = np.column_stack([r.estimate for r in sl0.sl0_solve_batch(a, x)])

    # A step along the row space of A, 1e-6 of ‖x‖ in the measurements: it
    # leaves the SNR as it was but leaves the feasible set.
    off = estimates.copy()
    step = a.T @ np.linalg.solve(a @ a.T, x[:, 3])
    off[:, 3] += 1e-6 * step
    # The minimum-norm start, which every solve begins from.
    min_norm = estimates.copy()
    min_norm[:, 7] = np.linalg.lstsq(a, x[:, 7], rcond=None)[0]

    cases = [
        ("genuine estimates pass", estimates, True),
        ("an estimate pushed off the feasible set fails", off, False),
        ("the minimum-norm start in place of an estimate fails", min_norm, False),
    ]
    failures = 0
    for label, block, expect_ok in cases:
        ok, snrs, why = check_estimates(a, x, s, block)
        good = ok == expect_ok
        failures += not good
        print(f"{'PASS' if good else 'FAIL'}: {label} (min SNR {np.min(snrs):.2f} dB{'; ' + why if why else ''})")

    # A sweep row whose SNR does not match a re-solve of its problem.
    sweep = workloads.SweepAnneal(seed=2024)
    inputs = sweep.inputs(0)
    rows = sweep.call(inputs)
    rows[0]["snr_mean_db"] += 1.0
    try:
        sweep.check(inputs, rows)
    except workloads.CheckFailed as exc:
        print(f"PASS: a sweep row that disagrees with its re-solve fails ({exc})")
    else:
        failures += 1
        print("FAIL: a sweep row that disagrees with its re-solve passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
