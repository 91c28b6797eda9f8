"""Command-line front end: problem generation, single and batch solving,
Monte Carlo sweeps, and a-posteriori error bounds.

Each setting flag is a field of ``SolverConfig``, ``SweepPoint``,
``SourceModel`` or ``MixingSpec``, built from that field and read by the
reader ``--vary`` uses for it: ``--mu abc`` fails as ``cannot read mu 'abc'``.

Exit codes: 0 success; 2 usage, including an out-of-range, non-finite or
non-integer setting, a geometric sequence over ``solver.MAX_LEVELS``
widths, a solver flag or ``--vary`` value that cannot be read, and a
malformed ``SL0_SEED``; 3 malformed or inconsistent input data, a binary
input file, a path that cannot be read or written, or an output path that
exists and is not a regular file; 4 rank-deficient system; 5 threshold mode
gave up; 6 combinatorial guard exceeded, a ``bound`` matrix of more than 20
columns. A command refuses every output target that is not a regular file,
writes all its outputs to temporary files, and only then renames them into
place, so a failure before the renames leaves no output behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import typing
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import expgen, linalg, solver
from .errors import DimensionMismatch, ParseError, RankDeficient, Sl0Error, ThresholdUnreachable, TooLarge
from .penalty import PenaltyFamily, family_names

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RANK_DEFICIENT = 4
EXIT_THRESHOLD = 5
EXIT_GUARD = 6

_CONFIG = solver.SolverConfig
_POINT = expgen.SweepPoint


def _seed(given: int | None) -> int:
    """``given``, else $SL0_SEED, else 0."""
    text = os.environ.get("SL0_SEED", "0")
    try:
        return int(text) if given is None else given
    except ValueError:
        raise ValueError(f"cannot read SL0_SEED {text!r} as an integer") from None


def _atomic_write(*outputs) -> None:
    """Write a command's outputs, each a ``(path, write_fn)`` pair, all or
    nothing: refuse every target that exists and is not a regular file, such
    as a FIFO or a device, before writing any; run each ``write_fn(tmp_path)``;
    then rename every temporary file over its path, or over the file it
    names if it is a symlink. A failure before the renames leaves no output."""
    targets = [Path(os.path.realpath(path)) for path, _ in outputs]
    for (path, _), target in zip(outputs, targets):
        if target.exists() and not target.is_file():
            raise OSError(f"refusing to replace {path}: not a regular file")
    temps = []
    try:
        for (_, write_fn), target in zip(outputs, targets):
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
            os.close(fd)
            temps.append(tmp)
            write_fn(tmp)
        for tmp, target in zip(temps, targets):
            os.replace(tmp, target)
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _parse_schedule(text: str) -> tuple[float, ...]:
    return solver.validate_schedule([float(v) for v in text.split(",")])


def _parse_sigma1(text: str) -> float | None:
    return None if text == "auto" else float(text)


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError("expected one of 1/0/true/false/yes/no")
    return text.lower() in ("1", "true", "yes")


def _field_readers(*owners) -> dict:
    """The reader of one text value of each settable field of ``owners``:
    the width flags' own parsers, and the annotated type for the rest, a
    family staying a name so that sweep rows print it as given."""
    readers = {}
    for owner in owners:
        hints = typing.get_type_hints(owner)
        for f in fields(owner):
            kind = next(t for t in typing.get_args(hints[f.name]) or (hints[f.name],) if t is not type(None))
            readers[f.name] = {bool: _parse_bool, PenaltyFamily: str}.get(kind, kind)
    return readers | {"schedule": _parse_schedule, "sigma1": _parse_sigma1}


_READERS = _field_readers(expgen.SourceModel, expgen.MixingSpec, _POINT)
_VARYABLE = sorted({f.name for f in fields(_POINT)} - {"schedule"})  # a schedule's values contain commas
_SOLVER_FIELDS = tuple(f.name for f in fields(_CONFIG))
_PROBLEM_FIELDS = ("sigma_on", "sigma_off", "noise_sigma", "solver")  # after m, n, k and --exact-activation
_GEN_FIELDS = ("m", "n", "p", "exact_k", "sigma_on", "sigma_off", "noise_sigma", "seed")  # gen.json's order
_CHOICES = {"family": family_names(), "mode": ("fixed", "threshold"), "solver": expgen.SOLVERS}
_HELP = {
    "m": "unknowns",
    "n": "equations",
    "k": "expected active count",
    "p": "activation probability per source",
    "exact_k": "activate exactly this many sources",
    "sigma_on": "active-source scale",
    "sigma_off": "inactive-source scale",
    "noise_sigma": "sensor noise scale",
    "seed": "RNG seed (default: $SL0_SEED or 0)",
    "solver": "solver",
    "family": "smoothing family",
    "schedule": "explicit comma-separated width sequence, overrides the geometric flags "
    f"(default: {','.join(f'{v:g}' for v in _CONFIG.schedule)} unless a geometric flag is given)",
    "sigma1": "geometric start width, a number or 'auto' = twice the largest magnitude "
    "of the minimum-norm solution (default: auto)",
    "c": "geometric decrease factor in (0,1)",
    "sigma_min": "geometric final width",
    "mu": "step factor",
    "L": "inner iterations per width in fixed mode",
    "mode": "inner-loop termination: fixed L steps, or iterate until the smoothed measure reaches the target",
    "target_f": "threshold-mode target for the smoothed measure (default: m - n/2)",
    "max_inner": "threshold-mode cap on inner iterations per width",
}


def _read(name: str, text: str):
    """``text`` read as a value of the field ``name``, by its flag and by
    ``--vary`` alike."""
    try:
        return _READERS[name](text)
    except ValueError as exc:
        raise ValueError(f"cannot read {name} {text!r}: {exc}") from None


def _add_flags(parser, names, owner, **texts) -> None:
    """One flag per field ``names`` of the dataclass ``owner``: ``--`` and
    the name with ``-`` for ``_`` (``--target-F`` for ``target_f``),
    defaulting to None so that :func:`_given` reads only a given flag. Its
    help is ``texts[name]`` or ``_HELP[name]`` with ``owner``'s default,
    unless the text states one; a field without a default is required."""
    defaults = {f.name: f.default for f in fields(owner)}
    for name in names:
        text, default = texts.get(name) or _HELP[name], defaults[name]
        if default is not None and default is not MISSING and "(default:" not in text:
            text += f" (default: {getattr(default, 'kind', default)})"
        flag = "--target-F" if name == "target_f" else "--" + name.replace("_", "-")
        parser.add_argument(
            flag, dest=name, default=None, required=default is MISSING, choices=_CHOICES.get(name), help=text
        )


def _given(args, names) -> dict:
    """The fields ``names`` whose flags are given, each read by its field's
    reader."""
    return {name: _read(name, text) for name in names if (text := getattr(args, name)) is not None}


def _solver_fields(args, varied=()) -> dict:
    """The SolverConfig fields the solver flags set, as keyword arguments.

    ``--schedule`` gives the widths, and a geometric flag beside it is a
    usage error, even at its default. Otherwise a geometric field given by
    its flag or named in ``varied`` (the ``--vary`` keys) switches to a
    geometric sequence, and the fields not given keep their defaults.
    """
    given = _given(args, _SOLVER_FIELDS)
    if "schedule" in given and given.keys() & set(solver.GEOMETRIC_FIELDS):
        raise ValueError("--schedule gives the widths; drop --sigma1, --c and --sigma-min")
    if "schedule" not in given and (given.keys() | set(varied)) & set(solver.GEOMETRIC_FIELDS):
        given["schedule"] = None
    return given


def _init_fields(given: dict, owner) -> dict:
    """The entries of ``given`` that ``owner`` takes as arguments."""
    return {f.name: given[f.name] for f in fields(owner) if f.name in given}


def cmd_gen(args) -> int:
    given = _given(args, _GEN_FIELDS)
    given["seed"] = _seed(given.get("seed"))
    model = expgen.SourceModel(**_init_fields(given, expgen.SourceModel))
    spec = expgen.MixingSpec(**_init_fields(given, expgen.MixingSpec))
    values = asdict(model) | asdict(spec)
    params = {name: values[name] for name in _GEN_FIELDS}
    a, s, x = expgen.generate_problem(model, spec, spec.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(
        (out / "A.mat", lambda p: linalg.save_matrix(p, a)),
        (out / "s.vec", lambda p: linalg.save_vector(p, s)),
        (out / "x.vec", lambda p: linalg.save_vector(p, x)),
        (out / "gen.json", lambda p: Path(p).write_text(json.dumps(params, indent=2) + "\n")),
    )
    print(f"wrote A.mat ({spec.n}x{spec.m}), s.vec, x.vec, gen.json under {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _CONFIG(**_solver_fields(args))  # a usage error wins over an unreadable file
    a = linalg.load_matrix(args.matrix)
    x = linalg.load_vector(args.rhs)
    report = solver.sl0_solve(a, x, cfg)
    _atomic_write(
        (args.out_estimate, lambda p: linalg.save_vector(p, report.estimate)),
        (args.out_report, lambda p: solver.write_report_csv(report, p)),
    )
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
    rows = [
        {
            "column": t,
            "final_sigma": rep.trace[-1].sigma if rep.trace else "",
            "final_F": rep.trace[-1].f_total if rep.trace else "",
            "final_residual": rep.residual_norm,
            "inner_iters_total": sum(e.inner_iterations for e in rep.trace),
            "per_sample_s": rep.wall_time,
        }
        for t, rep in enumerate(reports)
    ]
    _atomic_write(
        (args.out_estimates, lambda p: linalg.save_matrix(p, np.column_stack([r.estimate for r in reports]))),
        (args.out_report, lambda p: solver._write_rows(rows, p)),
    )
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
        exact_activation=args.exact_activation,
        **_given(args, ("m", "n", "k") + _PROBLEM_FIELDS),
        **_solver_fields(args, grid),
    )
    result = expgen.run_sweep(
        grid, runs=args.runs, base_seed=_seed(args.seed), base=base, jobs=args.jobs,
        collect_trials=args.per_trial is not None,
    )
    rows, trial_rows = result if args.per_trial is not None else (result, None)
    for row in rows + (trial_rows or []):
        if "sigma1" in row and row["sigma1"] is None:
            row["sigma1"] = "auto"  # as --sigma1 reads it
    outputs = [(args.out, lambda p: expgen.write_sweep_csv(rows, p))]
    if args.per_trial is not None:
        outputs.append((args.per_trial, lambda p: expgen.write_sweep_csv(trial_rows, p)))
    _atomic_write(*outputs)
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
    _add_flags(p_gen, ("m", "n"), expgen.MixingSpec, m="number of unknowns (columns)", n="number of equations (rows)")
    _add_flags(p_gen.add_mutually_exclusive_group(required=True), ("p", "exact_k"), expgen.SourceModel)
    _add_flags(p_gen, ("sigma_on", "sigma_off"), expgen.SourceModel)
    _add_flags(p_gen, ("noise_sigma", "seed"), expgen.MixingSpec)
    p_gen.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="solve a single system from files")
    p_solve.add_argument("--matrix", required=True, help="matrix file (n x m)")
    p_solve.add_argument("--rhs", required=True, help="right-hand-side vector file")
    _add_flags(p_solve, _SOLVER_FIELDS, _CONFIG)
    p_solve.add_argument("--out-estimate", default="s_hat.vec", help="estimate output file (default: s_hat.vec)")
    p_solve.add_argument("--out-report", default="report.csv", help="per-width trace CSV (default: report.csv)")
    p_solve.set_defaults(func=cmd_solve)

    p_batch = sub.add_parser("batch", help="solve one system per column of a right-hand-side matrix")
    p_batch.add_argument("--matrix", required=True, help="matrix file (n x m)")
    p_batch.add_argument("--rhs", required=True, help="right-hand-side matrix file (n x T)")
    _add_flags(p_batch, _SOLVER_FIELDS, _CONFIG)
    p_batch.add_argument("--out-estimates", default="S_hat.mat", help="estimates output file (default: S_hat.mat)")
    p_batch.add_argument("--out-report", default="report.csv", help="per-column summary CSV (default: report.csv)")
    p_batch.set_defaults(func=cmd_batch)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep over a parameter grid")
    p_sweep.add_argument("--runs", type=int, default=20, help="trials per grid point (default: 20)")
    p_sweep.add_argument("--seed", type=int, default=None, help="base seed (default: $SL0_SEED or 0)")
    _add_flags(p_sweep, ("m", "n", "k"), _POINT)
    p_sweep.add_argument(
        "--exact-activation", action="store_true", help="activate exactly k sources instead of probability k/m"
    )
    _add_flags(p_sweep, _PROBLEM_FIELDS + _SOLVER_FIELDS, _POINT)
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
