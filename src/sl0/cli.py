"""Command-line front end: problem generation, single and batch solving,
Monte Carlo sweeps, and a-posteriori error bounds.

Exit codes: 0 success; 2 usage, including an out-of-range or non-finite
solver setting, a geometric sequence over ``solver.MAX_LEVELS`` widths,
and a solver flag or ``--vary`` value that cannot be read; 3 malformed or
inconsistent input data, a binary input file, or a path that cannot be
read or written; 4 rank-deficient system; 5 threshold mode gave up;
6 combinatorial guard exceeded. Outputs are written to a temporary file
and renamed into place, so a failing command never leaves partial files
behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import expgen, linalg, solver
from .errors import (
    DimensionMismatch,
    ParseError,
    RankDeficient,
    Sl0Error,
    ThresholdUnreachable,
    TooLarge,
)
from .penalty import PenaltyFamily, family_names

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RANK_DEFICIENT = 4
EXIT_THRESHOLD = 5
EXIT_GUARD = 6

_CONFIG = solver.SolverConfig
_POINT = expgen.SweepPoint
_SCHEDULE_DEFAULT_HELP = ",".join(f"{v:g}" for v in _CONFIG.schedule)


def _default_seed() -> int:
    return int(os.environ.get("SL0_SEED", "0"))


def _atomic_write(path, write_fn) -> None:
    """Run ``write_fn(tmp_path)`` then rename the result over ``path``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_schedule(text: str) -> tuple[float, ...]:
    return solver.validate_schedule(text.split(","))


def _parse_sigma1(text: str) -> float | None:
    return None if text == "auto" else float(text)


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError("expected one of 1/0/true/false/yes/no")
    return text.lower() in ("1", "true", "yes")


def _field_readers() -> dict:
    """The reader of one text value of each settable SweepPoint field: the
    width flags' own parsers, and the annotated type for the rest, a family
    staying a name so that sweep rows print it as given."""
    hints = typing.get_type_hints(_POINT)
    readers = {}
    for f in fields(_POINT):
        if f.init:
            kind = next(t for t in typing.get_args(hints[f.name]) or (hints[f.name],) if t is not type(None))
            readers[f.name] = {bool: _parse_bool, PenaltyFamily: str}.get(kind, kind)
    return readers | {"schedule": _parse_schedule, "sigma1": _parse_sigma1}


_READERS = _field_readers()
_VARYABLE = sorted(set(_READERS) - {"schedule"})  # a schedule's values contain commas


def _read(name: str, text: str):
    """``text`` read as a value of the field ``name``, by its flag and by
    ``--vary`` alike."""
    try:
        return _READERS[name](text)
    except ValueError as exc:
        raise ValueError(f"cannot read {name} {text!r}: {exc}") from None


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=family_names(),
        default=_CONFIG.family.kind,
        help="smoothing family (default: %(default)s)",
    )
    p.add_argument(
        "--schedule",
        default=None,
        help=f"explicit comma-separated width sequence, overrides the geometric flags "
        f"(default: {_SCHEDULE_DEFAULT_HELP} unless a geometric flag is given)",
    )
    p.add_argument(
        "--sigma1",
        default=None,
        help="geometric start width, a number or 'auto' = twice the largest magnitude "
        "of the minimum-norm solution (default: auto)",
    )
    p.add_argument("--c", default=None, help=f"geometric decrease factor in (0,1) (default: {_CONFIG.c})")
    p.add_argument("--sigma-min", default=None, help=f"geometric final width (default: {_CONFIG.sigma_min})")
    p.add_argument("--mu", type=float, default=_CONFIG.mu, help="step factor (default: %(default)s)")
    p.add_argument(
        "--L", type=int, default=_CONFIG.L, help="inner iterations per width in fixed mode (default: %(default)s)"
    )
    p.add_argument(
        "--mode",
        choices=["fixed", "threshold"],
        default=_CONFIG.mode,
        help="inner-loop termination: fixed L steps, or iterate until the smoothed "
        "measure reaches the target (default: %(default)s)",
    )
    p.add_argument(
        "--target-F",
        dest="target_f",
        type=float,
        default=_CONFIG.target_f,
        help="threshold-mode target for the smoothed measure (default: m - n/2)",
    )
    p.add_argument(
        "--max-inner",
        type=int,
        default=_CONFIG.max_inner,
        help="threshold-mode cap on inner iterations per width (default: %(default)s)",
    )


def _add_source_flags(p: argparse.ArgumentParser, sources, mixing) -> None:
    """Source scales and sensor noise, with defaults read from the classes
    ``sources`` (sigma_on, sigma_off) and ``mixing`` (noise_sigma)."""
    p.add_argument(
        "--sigma-on", type=float, default=sources.sigma_on, help="active-source scale (default: %(default)s)"
    )
    p.add_argument(
        "--sigma-off", type=float, default=sources.sigma_off, help="inactive-source scale (default: %(default)s)"
    )
    p.add_argument(
        "--noise-sigma", type=float, default=mixing.noise_sigma, help="sensor noise scale (default: %(default)s)"
    )


def _solver_fields(args, varied=()) -> dict:
    """The SolverConfig fields the solver flags set, as keyword arguments.

    ``--schedule`` gives the widths. Otherwise a geometric field given by
    its flag or named in ``varied`` (the ``--vary`` keys) switches to a
    geometric sequence, and the fields not given keep their defaults. Each
    width flag is read whenever it is given, so a malformed value fails
    every subcommand alike.
    """
    given = {f.name: vars(args)[f.name] for f in fields(_CONFIG) if vars(args).get(f.name) is not None}
    given.update({name: _read(name, given[name]) for name in solver.WIDTH_FIELDS if name in given})
    if "schedule" not in given and (given.keys() | set(varied)) & set(solver.GEOMETRIC_FIELDS):
        given["schedule"] = None
    return given


def cmd_gen(args) -> int:
    model = expgen.SourceModel(
        m=args.m, p=args.p, exact_k=args.exact_k, sigma_on=args.sigma_on, sigma_off=args.sigma_off
    )
    spec = expgen.MixingSpec(n=args.n, m=args.m, noise_sigma=args.noise_sigma, seed=args.seed)
    a, s, x = expgen.generate_problem(model, spec, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "A.mat", lambda p: linalg.save_matrix(p, a))
    _atomic_write(out / "s.vec", lambda p: linalg.save_vector(p, s))
    _atomic_write(out / "x.vec", lambda p: linalg.save_vector(p, x))
    params = {
        "m": args.m,
        "n": args.n,
        "p": args.p,
        "exact_k": args.exact_k,
        "sigma_on": args.sigma_on,
        "sigma_off": args.sigma_off,
        "noise_sigma": args.noise_sigma,
        "seed": args.seed,
    }
    _atomic_write(out / "gen.json", lambda p: Path(p).write_text(json.dumps(params, indent=2) + "\n"))
    print(f"wrote A.mat ({args.n}x{args.m}), s.vec, x.vec, gen.json under {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _CONFIG(**_solver_fields(args))  # a usage error wins over an unreadable file
    a = linalg.load_matrix(args.matrix)
    x = linalg.load_vector(args.rhs)
    report = solver.sl0_solve(a, x, cfg)
    _atomic_write(args.out_estimate, lambda p: linalg.save_vector(p, report.estimate))
    _atomic_write(args.out_report, lambda p: solver.write_report_csv(report, p))
    final = report.trace[-1] if report.trace else None
    if final is not None:
        print(
            f"solved in {len(report.trace)} width levels; final F={final.f_total:.17g}, "
            f"residual={report.residual_norm:.17g}, wall={report.wall_time:.17g}s"
        )
    else:
        print("zero right-hand side: estimate is the zero vector")
    return EXIT_OK


def cmd_batch(args) -> int:
    cfg = _CONFIG(**_solver_fields(args))
    a = linalg.load_matrix(args.matrix)
    x_block = linalg.load_matrix(args.rhs)
    reports = solver.sl0_solve_batch(a, x_block, cfg)
    estimates = [rep.estimate for rep in reports]

    def _write_report(path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["column", "final_sigma", "final_F", "final_residual", "inner_iters_total", "per_sample_s"])
            for t, rep in enumerate(reports):
                last = rep.trace[-1] if rep.trace else None
                writer.writerow(
                    [
                        t,
                        f"{last.sigma:.17g}" if last else "",
                        f"{last.f_total:.17g}" if last else "",
                        f"{rep.residual_norm:.17g}",
                        sum(e.inner_iterations for e in rep.trace),
                        f"{rep.wall_time:.17g}",
                    ]
                )

    _atomic_write(args.out_estimates, lambda p: linalg.save_matrix(p, np.column_stack(estimates)))
    _atomic_write(args.out_report, _write_report)
    print(f"solved {len(reports)} columns; per-sample wall time {reports[0].wall_time:.17g}s")
    return EXIT_OK


def _parse_vary(items: list[str]) -> dict:
    grid: dict = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--vary expects KEY=V1,V2,..., got {item!r}")
        key, _, values = item.partition("=")
        key = key.strip()
        if key not in _VARYABLE:
            raise ValueError(f"cannot vary {key!r}; valid keys: {_VARYABLE}")
        if key in grid:
            raise ValueError(f"--vary {key} is given twice; list all its values in one flag")
        grid[key] = [_read(key, v) for v in values.split(",")]
    return grid


def cmd_sweep(args) -> int:
    grid = _parse_vary(args.vary or [])
    base = _POINT(
        m=args.m,
        n=args.n,
        k=args.k,
        exact_activation=args.exact_activation,
        sigma_on=args.sigma_on,
        sigma_off=args.sigma_off,
        noise_sigma=args.noise_sigma,
        solver=args.solver,
        **_solver_fields(args, grid),
    )
    result = expgen.run_sweep(
        grid, runs=args.runs, base_seed=args.seed, base=base, jobs=args.jobs, collect_trials=args.per_trial is not None
    )
    rows, trial_rows = result if args.per_trial is not None else (result, None)
    for row in rows + (trial_rows or []):
        if "sigma1" in row and row["sigma1"] is None:
            row["sigma1"] = "auto"  # as --sigma1 reads it
    _atomic_write(args.out, lambda p: expgen.write_sweep_csv(rows, p))
    if args.per_trial is not None:
        _atomic_write(args.per_trial, lambda p: expgen.write_sweep_csv(trial_rows, p))
    for row in rows:
        print(" ".join(f"{k}={v}" for k, v in row.items()))
    return EXIT_OK


def cmd_bound(args) -> int:
    a = linalg.load_matrix(args.matrix)
    s_hat = linalg.load_vector(args.estimate)
    bound = solver.error_upper_bound(a, s_hat)
    print(f"bound = {bound:.17g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl0",
        description="Sparse recovery for underdetermined linear systems by graduated smoothing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random problem instance (A.mat, s.vec, x.vec)")
    p_gen.add_argument("--m", type=int, required=True, help="number of unknowns (columns)")
    p_gen.add_argument("--n", type=int, required=True, help="number of equations (rows)")
    group = p_gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float, help="activation probability per source")
    group.add_argument("--exact-k", type=int, help="activate exactly this many sources")
    _add_source_flags(p_gen, expgen.SourceModel, expgen.MixingSpec)
    p_gen.add_argument("--seed", type=int, default=_default_seed(), help="RNG seed (default: $SL0_SEED or 0)")
    p_gen.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="solve a single system from files")
    p_solve.add_argument("--matrix", required=True, help="matrix file (n x m)")
    p_solve.add_argument("--rhs", required=True, help="right-hand-side vector file")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out-estimate", default="s_hat.vec", help="estimate output file (default: s_hat.vec)")
    p_solve.add_argument("--out-report", default="report.csv", help="per-width trace CSV (default: report.csv)")
    p_solve.set_defaults(func=cmd_solve)

    p_batch = sub.add_parser("batch", help="solve one system per column of a right-hand-side matrix")
    p_batch.add_argument("--matrix", required=True, help="matrix file (n x m)")
    p_batch.add_argument("--rhs", required=True, help="right-hand-side matrix file (n x T)")
    _add_solver_flags(p_batch)
    p_batch.add_argument("--out-estimates", default="S_hat.mat", help="estimates output file (default: S_hat.mat)")
    p_batch.add_argument("--out-report", default="report.csv", help="per-column summary CSV (default: report.csv)")
    p_batch.set_defaults(func=cmd_batch)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep over a parameter grid")
    p_sweep.add_argument("--runs", type=int, default=20, help="trials per grid point (default: 20)")
    p_sweep.add_argument("--seed", type=int, default=_default_seed(), help="base seed (default: $SL0_SEED or 0)")
    p_sweep.add_argument("--m", type=int, default=_POINT.m, help="unknowns (default: %(default)s)")
    p_sweep.add_argument("--n", type=int, default=_POINT.n, help="equations (default: %(default)s)")
    p_sweep.add_argument("--k", type=int, default=_POINT.k, help="expected active count (default: %(default)s)")
    p_sweep.add_argument(
        "--exact-activation", action="store_true", help="activate exactly k sources instead of probability k/m"
    )
    _add_source_flags(p_sweep, _POINT, _POINT)
    p_sweep.add_argument(
        "--solver", choices=["sl0", "irls"], default=_POINT.solver, help="solver (default: %(default)s)"
    )
    _add_solver_flags(p_sweep)
    p_sweep.add_argument(
        "--vary",
        action="append",
        metavar="KEY=V1,V2,...",
        help="sweep a parameter over listed values; repeatable, cartesian product",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="concurrent run indices (default: 1)")
    p_sweep.add_argument("--out", default="sweep.csv", help="summary CSV (default: sweep.csv)")
    p_sweep.add_argument("--per-trial", default=None, help="also write a long-format per-trial CSV here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bound = sub.add_parser("bound", help="a-posteriori error bound for an estimate")
    p_bound.add_argument("--matrix", required=True, help="matrix file (n x m)")
    p_bound.add_argument("--estimate", required=True, help="estimate vector file")
    p_bound.set_defaults(func=cmd_bound)

    return parser


# The exit code of each error; the first class an error is an instance of decides.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    DimensionMismatch: EXIT_PARSE,
    OSError: EXIT_PARSE,
    ValueError: EXIT_USAGE,
    RankDeficient: EXIT_RANK_DEFICIENT,
    ThresholdUnreachable: EXIT_THRESHOLD,
    TooLarge: EXIT_GUARD,
    Sl0Error: 1,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        hint = " (the bound is only available for small instances)" if code == EXIT_GUARD else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
