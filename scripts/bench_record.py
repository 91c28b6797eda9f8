#!/usr/bin/env python3
"""Record a BENCH file of perfbench runs and a batch-width reference.

Each repeat runs every workload once per checkout of the repository given,
through the checkout's own ``perfbench/run.py --trace 0``, the checkouts in
turn so they share the machine's drift (their order reversed on every other
repeat) and with one seed per repeat shared by all of them; the end-to-end
metrics come from the last JSON line of each run. After the
repeats, one ``--trace 1`` run per workload and checkout gives the per-layer
metrics. The batch-width reference times ``sl0_solve_batch`` per sample over
T in {1, 5, 10, 100, 1000} on one reference-point matrix (m = 1000, n = 400,
k = 100, noise 0.01), once per repeat and checkout: one untimed warm-up
block, then the median over at least 100 samples and 5 blocks per width.

The file holds, per checkout, its commit, the ``wc -l`` total of its
``src/sl0/*.py``, the median, minimum and maximum over the repeats of every
end-to-end metric and batch width beside the raw values, the per-layer
metrics of the traced run, and the machine: core count, BLAS thread
setting, and the numpy and OpenBLAS versions read in a child process that
imports the checkout's ``src``. This script uses the standard library only;
the children it starts import numpy.

Run from the root of a checkout:

    python3 scripts/bench_record.py --checkout parent=../parent --checkout change=. \\
        --repeats 5 --seconds 30 --out BENCH.json
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

WORKLOADS = ("batch_stream", "batch_wide", "sweep_anneal", "single_ref")
WIDTHS = (1, 5, 10, 100, 1000)
MIN_SAMPLES = 100
MIN_BLOCKS = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """numpy and OpenBLAS as this process loads them."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                info["blas_threads"] = threads()
                info["openblas_config"] = config().decode()
                return info
    return info


def child_widths(seed: int) -> dict:
    """Median per-sample time of ``sl0_solve_batch`` in ms at each width."""
    import numpy as np

    from sl0 import MixingSpec, SourceModel, generate_problem, sl0_solve_batch

    m, n, k = 1000, 400, 100
    a, _, _ = generate_problem(SourceModel(m=m, p=k / m), MixingSpec(n=n, m=m, noise_sigma=0.01), seed)
    rng = np.random.default_rng(seed + 1)

    def draw_block(t_count: int):
        active = rng.random((m, t_count)) < k / m
        return a @ np.where(active, rng.standard_normal((m, t_count)), 0.0) + 0.01 * rng.standard_normal((n, t_count))

    sl0_solve_batch(a, draw_block(1))
    per_sample = {}
    for t_count in WIDTHS:
        times = []
        for _ in range(max(MIN_BLOCKS, math.ceil(MIN_SAMPLES / t_count))):
            x_block = draw_block(t_count)
            started = time.perf_counter()
            sl0_solve_batch(a, x_block)
            times.append((time.perf_counter() - started) / t_count)
        per_sample[str(t_count)] = 1e3 * statistics.median(times)
    return per_sample


def run_json(cmd: list[str], cwd: Path, env: dict | None = None) -> dict:
    """Run ``cmd`` and parse the last line of its output as JSON."""
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def run_child(path: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    return run_json([sys.executable, str(Path(__file__).resolve()), "--child", *args], path, env)


def run_perfbench(path: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return run_json(cmd, path)


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "values": values}


def git_describe(path: Path) -> str | None:
    """The checkout's commit, marked ``-dirty`` when its tree has changes."""
    cmd = ["git", "-C", str(path), "describe", "--always", "--dirty"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(path: Path) -> int:
    """Lines of the checkout's ``src/sl0/*.py``, as ``wc -l`` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (path / "src" / "sl0").glob("*.py"))


def record(checkouts: dict[str, Path], repeats: int, seconds: int, seed: int) -> dict:
    runs: dict = {label: {w: [] for w in WORKLOADS} for label in checkouts}
    widths: dict = {label: [] for label in checkouts}
    labels = list(checkouts)
    for rep in range(repeats):
        turn = labels if rep % 2 == 0 else labels[::-1]
        for workload in WORKLOADS:
            for label in turn:
                result = run_perfbench(checkouts[label], workload, seed + rep, seconds, 0)
                runs[label][workload].append(result)
                rate = result["metrics"].get("samples_per_s", {}).get("value")
                print(f"repeat {rep} {workload} {label}: samples_per_s = {rate}", flush=True)
        for label in turn:
            widths[label].append(run_child(checkouts[label], "widths", str(seed + rep)))
    traced = {(label, w): run_perfbench(checkouts[label], w, seed, seconds, 1)["metrics"]
              for w in WORKLOADS for label in labels}
    out: dict = {}
    for label, path in checkouts.items():
        side: dict = {"commit": git_describe(path), "src_sl0_lines": src_lines(path), "env": run_child(path, "env")}
        for workload in WORKLOADS:
            results = runs[label][workload]
            names = results[0]["metrics"]
            side[workload] = {
                "correct": all(r["correct"] for r in results),
                "attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "end_to_end": {
                    name: {"unit": names[name]["unit"], **spread([r["metrics"][name]["value"] for r in results])}
                    for name in names
                },
                "per_layer": traced[label, workload],
            }
        side["batch_width_ms_per_sample"] = {
            str(t): spread([rep[str(t)] for rep in widths[label]]) for t in WIDTHS
        }
        out[label] = side
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=PATH",
                        help="a checkout to measure; repeat for each (alternated in the order given)")
    parser.add_argument("--repeats", type=int, default=5, help="untraced runs per workload and checkout")
    parser.add_argument("--seconds", type=int, default=30, help="length of each perfbench run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first repeat; repeat r uses seed + r")
    parser.add_argument("--out", help="the BENCH JSON file to write")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        kind, *rest = args.child
        print(json.dumps(child_env() if kind == "env" else child_widths(int(rest[0]))))
        return 0
    if not args.checkout or not args.out or args.repeats < 1 or args.seconds < 1:
        parser.error("give --checkout at least once, --out, and positive --repeats and --seconds")
    checkouts = {}
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label or label in checkouts:
            parser.error(f"--checkout expects a new LABEL=PATH, got {item!r}")
        checkouts[label] = Path(path).resolve()
        if not (checkouts[label] / "perfbench" / "run.py").is_file():
            parser.error(f"{path} has no perfbench/run.py")
    started = time.time()
    results = record(checkouts, args.repeats, args.seconds, args.seed)
    bench = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_s": round(time.time() - started, 1),
        "repeats": args.repeats,
        "seconds": args.seconds,
        "seeds": [args.seed + r for r in range(args.repeats)],
        "machine": {
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_thread_setting": {v: os.environ[v] for v in THREAD_VARIABLES if v in os.environ} or "default",
            "python": sys.version.split()[0],
        },
        "checkouts": results,
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
