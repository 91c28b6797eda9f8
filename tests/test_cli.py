import csv
import json

import numpy as np
import pytest

from sl0 import cli
from sl0.expgen import MixingSpec, SourceModel, SweepPoint, generate_problem, run_trial, snr_db
from sl0.linalg import load_matrix, load_vector, save_matrix, save_vector
from sl0.solver import DEFAULT_SCHEDULE, SolverConfig, sl0_solve


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def gen_args(out_dir, seed=7, m=6, n=3, extra=()):
    return ["gen", "--m", m, "--n", n, "--exact-k", 1, "--seed", seed, "--out-dir", out_dir, *extra]


class TestGen:
    def test_writes_expected_files(self, tmp_path, capsys):
        assert run_cli(*gen_args(tmp_path)) == 0
        a = load_matrix(tmp_path / "A.mat")
        s = load_vector(tmp_path / "s.vec")
        x = load_vector(tmp_path / "x.vec")
        assert a.shape == (3, 6) and s.shape == (6,) and x.shape == (3,)
        assert np.count_nonzero(s) == 1
        params = json.loads((tmp_path / "gen.json").read_text())
        assert params["m"] == 6 and params["seed"] == 7 and params["exact_k"] == 1

    def test_byte_identical_reruns(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert run_cli(*gen_args(d1)) == 0
        assert run_cli(*gen_args(d2)) == 0
        for name in ("A.mat", "s.vec", "x.vec", "gen.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_matches_library_generation(self, tmp_path, capsys):
        assert run_cli(*gen_args(tmp_path, extra=["--noise-sigma", 0.05])) == 0
        model = SourceModel(m=6, exact_k=1, sigma_on=1.0, sigma_off=0.0)
        spec = MixingSpec(n=3, m=6, noise_sigma=0.05, seed=7)
        a, s, x = generate_problem(model, spec, 7)
        np.testing.assert_array_equal(load_matrix(tmp_path / "A.mat"), a)
        np.testing.assert_array_equal(load_vector(tmp_path / "x.vec"), x)

    def test_noise_norm_concentration(self, tmp_path, capsys):
        """The measurement residual stays within three standard deviations of
        the noise budget across 100 seeds."""
        sigma_n = 0.02
        for seed in range(100):
            out = tmp_path / f"g{seed}"
            assert run_cli(*gen_args(out, seed=seed, extra=["--noise-sigma", sigma_n])) == 0
            a = load_matrix(out / "A.mat")
            s = load_vector(out / "s.vec")
            x = load_vector(out / "x.vec")
            assert np.linalg.norm(x - a @ s) <= 3.0 * sigma_n * np.sqrt(3)

    def test_requires_activation_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--m", "6", "--n", "3", "--out-dir", tmp_path)
        assert exc.value.code == 2

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SL0_SEED", "99")
        assert run_cli("gen", "--m", "6", "--n", "3", "--exact-k", "1", "--out-dir", tmp_path) == 0
        assert json.loads((tmp_path / "gen.json").read_text())["seed"] == 99


class TestSolve:
    def test_default_report_has_one_row_per_width(self, tmp_path, capsys):
        assert run_cli(*gen_args(tmp_path)) == 0
        est = tmp_path / "s_hat.vec"
        rep = tmp_path / "report.csv"
        code = run_cli(
            "solve", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec",
            "--out-estimate", est, "--out-report", rep,
        )
        assert code == 0
        with open(rep, newline="") as fh:
            rows = list(csv.reader(fh))
        sigma_rows = [r for r in rows[1:] if r[0] != "total"]
        assert len(sigma_rows) == len(DEFAULT_SCHEDULE)
        assert load_vector(est).shape == (6,)

    def test_threshold_mode_easy_instance(self, tmp_path, capsys):
        assert run_cli(*gen_args(tmp_path)) == 0
        rep = tmp_path / "report.csv"
        code = run_cli(
            "solve", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec",
            "--mode", "threshold", "--mu", "2.0", "--sigma1", "auto", "--c", "0.8",
            "--sigma-min", "1e-3", "--out-estimate", tmp_path / "s_hat.vec", "--out-report", rep,
        )
        assert code == 0
        with open(rep, newline="") as fh:
            rows = list(csv.reader(fh))
        final_f = float([r for r in rows if r[0] == "total"][0][1])
        assert final_f >= 6 - 3 / 2

    def test_malformed_matrix_no_partial_outputs(self, tmp_path, capsys):
        bad = tmp_path / "A.mat"
        bad.write_text("2 2\n1 2\n")
        rhs = tmp_path / "x.vec"
        save_vector(rhs, [1.0, 2.0])
        est = tmp_path / "out" / "s_hat.vec"
        (tmp_path / "out").mkdir()
        rep = tmp_path / "out" / "report.csv"
        code = run_cli("solve", "--matrix", bad, "--rhs", rhs, "--out-estimate", est, "--out-report", rep)
        assert code == 3
        assert not est.exists() and not rep.exists()
        assert list((tmp_path / "out").iterdir()) == []

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        assert run_cli("solve", "--matrix", tmp_path / "nope.mat", "--rhs", tmp_path / "no.vec") == 3

    def test_rank_deficient_exit_code(self, tmp_path, capsys):
        save_matrix(tmp_path / "A.mat", np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))
        save_vector(tmp_path / "x.vec", [1.0, 2.0])
        code = run_cli(
            "solve", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec",
            "--out-estimate", tmp_path / "s.vec", "--out-report", tmp_path / "r.csv",
        )
        assert code == 4

    def test_threshold_unreachable_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 6))
        a /= np.linalg.norm(a, axis=0)
        s0 = np.zeros(6)
        s0[2] = 1.3
        save_matrix(tmp_path / "A.mat", a)
        save_vector(tmp_path / "x.vec", a @ s0)
        code = run_cli(
            "solve", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec",
            "--mode", "threshold", "--mu", "2.5", "--c", "0.8", "--sigma-min", "1e-3",
            "--max-inner", "200",
            "--out-estimate", tmp_path / "s.vec", "--out-report", tmp_path / "r.csv",
        )
        assert code == 5
        assert not (tmp_path / "s.vec").exists()

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--matrix", "a", "--rhs", "b", "--frobnicate", "1")
        assert exc.value.code == 2


class TestRoundTrip:
    def test_file_pipeline_matches_in_process(self, tmp_path, capsys):
        seed = 31
        assert run_cli(*gen_args(tmp_path, seed=seed, extra=["--noise-sigma", 0.01])) == 0
        assert (
            run_cli(
                "solve", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec",
                "--out-estimate", tmp_path / "s_hat.vec", "--out-report", tmp_path / "report.csv",
            )
            == 0
        )
        s_true = load_vector(tmp_path / "s.vec")
        s_hat = load_vector(tmp_path / "s_hat.vec")
        file_snr = snr_db(s_true, s_hat)

        model = SourceModel(m=6, exact_k=1)
        spec = MixingSpec(n=3, m=6, noise_sigma=0.01)
        a, s, x = generate_problem(model, spec, seed)
        in_process = snr_db(s, sl0_solve(a, x).estimate)
        assert file_snr == in_process


class TestBatchCommand:
    def test_batch_files(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 8))
        a /= np.linalg.norm(a, axis=0)
        block = rng.standard_normal((3, 4))
        save_matrix(tmp_path / "A.mat", a)
        save_matrix(tmp_path / "X.mat", block)
        code = run_cli(
            "batch", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "X.mat",
            "--out-estimates", tmp_path / "S.mat", "--out-report", tmp_path / "r.csv",
        )
        assert code == 0
        estimates = load_matrix(tmp_path / "S.mat")
        assert estimates.shape == (8, 4)
        for t in range(4):
            single = sl0_solve(a, block[:, t]).estimate
            assert np.linalg.norm(estimates[:, t] - single) <= 1e-9
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "column"
        assert len(rows) == 5

    def test_reported_residuals_are_final_feasibility(self, tmp_path, capsys):
        """The ``total`` row of ``solve`` and every ``final_residual`` of
        ``batch`` give ‖A·ŝ − x‖ of the written estimates, not the last
        level's pre-projection residual."""
        assert run_cli(*gen_args(tmp_path, m=12, n=5, extra=["--noise-sigma", 0.01])) == 0
        x = load_vector(tmp_path / "x.vec")
        assert run_cli(
            "solve", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec",
            "--out-estimate", tmp_path / "s_hat.vec", "--out-report", tmp_path / "report.csv",
        ) == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "total"
        assert float(rows[-1][2]) <= 1e-9 * np.linalg.norm(x)
        assert max(float(r[2]) for r in rows[1:-1]) > 1e-9 * np.linalg.norm(x)

        block = np.column_stack([x, -3.0 * x, np.zeros_like(x)])
        save_matrix(tmp_path / "X.mat", block)
        assert run_cli(
            "batch", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "X.mat", "--sigma1", "auto",
            "--out-estimates", tmp_path / "S.mat", "--out-report", tmp_path / "r.csv",
        ) == 0
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for t, row in enumerate(rows):
            assert float(row["final_residual"]) <= 1e-9 * np.linalg.norm(block[:, t])


class TestSweepCommand:
    def test_single_point_matches_run_trial(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--m", 30, "--n", 12, "--k", 3, "--runs", 2, "--seed", 13, "--out", out,
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        trials = [run_trial(SweepPoint(m=30, n=12, k=3), r, 13) for r in range(2)]
        assert float(rows[0]["snr_mean_db"]) == np.mean([t.snr_db for t in trials])

    def test_vary_and_per_trial(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        per_trial = tmp_path / "trials.csv"
        code = run_cli(
            "sweep", "--m", 30, "--n", 12, "--runs", 2, "--seed", 1,
            "--vary", "k=2,3", "--vary", "solver=sl0,irls",
            "--out", out, "--per-trial", per_trial,
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["k"], r["solver"]) for r in rows] == [
            ("2", "sl0"), ("2", "irls"), ("3", "sl0"), ("3", "irls")
        ]
        with open(per_trial, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 8

    def test_vary_geometric_switches_schedule(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--m", 30, "--n", 12, "--k", 3, "--runs", 1, "--seed", 2,
            "--vary", "c=0.5,0.8", "--out", out,
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["c"]) for r in rows] == [0.5, 0.8]

    def test_unknown_vary_key(self, tmp_path, capsys):
        assert run_cli("sweep", "--vary", "bogus=1", "--out", tmp_path / "s.csv") == 2

    def test_jobs_flag(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--m", 30, "--n", 12, "--k", 3, "--runs", 4, "--seed", 3,
            "--jobs", 4, "--out", out,
        )
        assert code == 0

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--m", 30, "--n", 12, "--k", 3, "--runs", 1, "--jobs", jobs, "--out", out) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_solver_setting_rejected_for_irls(self, tmp_path, capsys):
        """A sweep point is a solver configuration, so its settings are
        checked when it is built, even for a sweep that runs only IRLS."""
        out = tmp_path / "sweep.csv"
        args = ["--m", 30, "--n", 12, "--k", 3, "--runs", 1, "--solver", "irls", "--mu", 0, "--out", out]
        assert run_cli("sweep", *args) == 2
        assert "mu must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["schedule", "record_estimates"])
    def test_unvaryable_keys(self, tmp_path, capsys, key):
        assert run_cli("sweep", "--vary", f"{key}=1", "--out", tmp_path / "s.csv") == 2
        listed = capsys.readouterr().err.split("valid keys: ")[1].strip()
        assert listed == str(sorted(
            ["L", "c", "exact_activation", "family", "irls_iterations", "irls_p_norm", "irls_regularizer", "k",
             "m", "max_inner", "mode", "mu", "n", "noise_sigma", "sigma1", "sigma_min", "sigma_off", "sigma_on",
             "solver", "target_f"]
        ))

    def test_vary_family_keeps_given_names(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--m", 30, "--n", 12, "--k", 3, "--runs", 1, "--seed", 4,
            "--vary", "family=hyperbolic,rational", "--out", out,
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["family"] for r in rows] == ["hyperbolic", "rational"]
        assert all(r["failures"] == "0" for r in rows)


class TestSolverFlags:
    @pytest.mark.parametrize("command", ["solve", "batch", "sweep"])
    def test_malformed_sigma1_beside_schedule(self, tmp_path, capsys, command):
        """Every subcommand parses ``--sigma1`` when it is given, even when
        ``--schedule`` makes it unused."""
        save_matrix(tmp_path / "A.mat", np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        save_vector(tmp_path / "x.vec", [1.0, 2.0])
        save_matrix(tmp_path / "X.mat", np.array([[1.0], [2.0]]))
        out = tmp_path / "out"
        inputs = {
            "solve": ["--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec", "--out-estimate", out],
            "batch": ["--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "X.mat", "--out-estimates", out],
            "sweep": ["--m", 30, "--n", 12, "--k", 3, "--runs", 1, "--out", out],
        }[command]
        assert run_cli(command, *inputs, "--schedule", "1,0.5", "--sigma1", "bogus") == 3
        assert "sigma1 must be a number or 'auto'" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_build_the_same_config_everywhere(self, tmp_path, capsys):
        """``solve`` and a one-point ``sweep`` given the same solver flags
        solve with the same settings: the sweep's trial equals a library
        solve under the flags' SolverConfig."""
        flags = ["--family", "rational", "--sigma1", "1.5", "--c", "0.7", "--mu", "2", "--L", "2"]
        cfg = SolverConfig(family="rational", schedule=None, sigma1=1.5, c=0.7, mu=2.0, L=2)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--m", 30, "--n", 12, "--k", 3, "--runs", 1, "--seed", 13, *flags, "--out", out) == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        a, s_true, x = generate_problem(SourceModel(m=30, p=0.1), MixingSpec(n=12, m=30, noise_sigma=0.01), 13)
        assert float(row["snr_mean_db"]) == snr_db(s_true, sl0_solve(a, x, cfg).estimate)

        save_matrix(tmp_path / "A.mat", a)
        save_vector(tmp_path / "x.vec", x)
        assert run_cli(
            "solve", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec", *flags,
            "--out-estimate", tmp_path / "s_hat.vec", "--out-report", tmp_path / "r.csv",
        ) == 0
        np.testing.assert_array_equal(load_vector(tmp_path / "s_hat.vec"), sl0_solve(a, x, cfg).estimate)


class TestBound:
    def test_sparse_estimate_zero_bound(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 6))
        a /= np.linalg.norm(a, axis=0)
        s_hat = np.zeros(6)
        s_hat[1] = 4.0
        save_matrix(tmp_path / "A.mat", a)
        save_vector(tmp_path / "s_hat.vec", s_hat)
        assert run_cli("bound", "--matrix", tmp_path / "A.mat", "--estimate", tmp_path / "s_hat.vec") == 0
        out = capsys.readouterr().out
        assert "bound = 0" in out

    def test_bound_dominates_true_error(self, tmp_path, capsys):
        assert run_cli(*gen_args(tmp_path, seed=17)) == 0
        assert (
            run_cli(
                "solve", "--matrix", tmp_path / "A.mat", "--rhs", tmp_path / "x.vec",
                "--out-estimate", tmp_path / "s_hat.vec", "--out-report", tmp_path / "r.csv",
            )
            == 0
        )
        assert run_cli("bound", "--matrix", tmp_path / "A.mat", "--estimate", tmp_path / "s_hat.vec") == 0
        out = capsys.readouterr().out
        bound = float([ln for ln in out.splitlines() if ln.startswith("bound")][-1].split("=")[1])
        true_err = np.linalg.norm(load_vector(tmp_path / "s_hat.vec") - load_vector(tmp_path / "s.vec"))
        assert bound >= true_err

    @pytest.mark.parametrize("length", [1, 4])
    def test_wrong_length_estimate_exit_code(self, tmp_path, capsys, length):
        """A 3×6 matrix with a too-short estimate (1 entry, fewer than n/2 + 1)
        or a wrong-length one (4 entries) is malformed input, not a bound."""
        assert run_cli(*gen_args(tmp_path)) == 0
        save_vector(tmp_path / "bad.vec", np.ones(length))
        assert run_cli("bound", "--matrix", tmp_path / "A.mat", "--estimate", tmp_path / "bad.vec") == 3
        captured = capsys.readouterr()
        assert "bound =" not in captured.out
        assert f"estimate has length {length}, expected 6" in captured.err

    def test_guard_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10, 50))
        save_matrix(tmp_path / "A.mat", a)
        save_vector(tmp_path / "s.vec", np.zeros(50))
        assert run_cli("bound", "--matrix", tmp_path / "A.mat", "--estimate", tmp_path / "s.vec") == 6
        assert "small instances" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("command", ["gen", "solve", "batch", "sweep", "bound"])
    def test_subcommand_help_lists_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--" in text
        if command in ("solve", "batch", "sweep"):
            assert "2.5" in text  # step factor default
            assert "1,0.5,0.2,0.1,0.05,0.02,0.01" in text  # stock schedule
            for default in ("gaussian", "auto", "0.5", "0.01", "3", "fixed", "m - n/2", "1000"):
                assert f"(default: {default})" in text
        if command == "sweep":
            for default in ("1000", "400", "100", "1.0", "0.0", "0.01", "sl0"):
                assert f"(default: {default})" in text
