import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl0.errors import DimensionMismatch, Sl0Error, ZeroReference
from sl0.expgen import (
    MixingSpec,
    SNR_CAP_DB,
    SourceModel,
    SweepPoint,
    TrialResult,
    generate_mixing,
    generate_problem,
    generate_sources,
    mix,
    mse,
    run_sweep,
    run_trial,
    snr_db,
    write_sweep_csv,
)
from sl0.linalg import check_urp
from sl0.penalty import PenaltyFamily
from sl0.solver import SolverConfig, sl0_solve


class TestSourceModel:
    def test_requires_exactly_one_activation_mode(self):
        with pytest.raises(ValueError):
            SourceModel(m=10)
        with pytest.raises(ValueError):
            SourceModel(m=10, p=0.1, exact_k=2)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            SourceModel(m=10, p=0.1, sigma_on=0.5, sigma_off=0.6)

    def test_always_active_matches_on_variance(self):
        model = SourceModel(m=100_000, p=1.0, sigma_on=2.0)
        s = generate_sources(model, seed=0)
        assert np.var(s) == pytest.approx(4.0, rel=0.1)

    def test_exact_k_support_size(self):
        model = SourceModel(m=100, exact_k=5, sigma_off=0.0)
        s = generate_sources(model, seed=1)
        assert np.count_nonzero(s) == 5

    def test_activation_count_concentrates(self):
        m, p = 100_000, 0.1
        s = generate_sources(SourceModel(m=m, p=p, sigma_off=0.0), seed=2)
        active = np.count_nonzero(s)
        sd = math.sqrt(m * p * (1 - p))
        assert abs(active - m * p) <= 3 * sd

    def test_off_scale_fills_inactive_entries(self):
        model = SourceModel(m=50_000, p=0.0, sigma_on=1.0, sigma_off=0.01)
        s = generate_sources(model, seed=3)
        assert np.std(s) == pytest.approx(0.01, rel=0.1)


class TestMixing:
    def test_unit_columns(self):
        a = generate_mixing(MixingSpec(n=7, m=19), seed=0)
        np.testing.assert_allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-12)

    def test_seed_determinism(self):
        spec = MixingSpec(n=4, m=9, seed=77)
        np.testing.assert_array_equal(generate_mixing(spec), generate_mixing(spec))
        assert not np.array_equal(generate_mixing(spec, seed=78), generate_mixing(spec))

    def test_small_outputs_satisfy_urp(self):
        spec = MixingSpec(n=3, m=6)
        assert all(check_urp(generate_mixing(spec, seed=s)) for s in range(100))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MixingSpec(n=5, m=4)


class TestMix:
    def test_noiseless_is_exact_product(self):
        rng = np.random.default_rng(0)
        a = generate_mixing(MixingSpec(n=5, m=11), seed=1)
        s = rng.standard_normal(11)
        np.testing.assert_array_equal(mix(a, s, 0.0, seed=0), a @ s)

    def test_noise_power_concentrates(self):
        n = 10_000
        a = generate_mixing(MixingSpec(n=n, m=n), seed=2)
        x = mix(a, np.zeros(n), 0.25, seed=3)
        assert np.mean(x**2) == pytest.approx(0.25**2, rel=0.1)

    def test_seed_reproducibility(self):
        a = generate_mixing(MixingSpec(n=5, m=11), seed=4)
        s = np.ones(11)
        np.testing.assert_array_equal(mix(a, s, 0.1, seed=9), mix(a, s, 0.1, seed=9))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            mix(np.ones((2, 3)), np.ones(4), 0.0, seed=0)


def exact_snr_db(s, e) -> float:
    """20·log10(‖s‖ / ‖s − ŝ‖) from exact rational sums of squares, so no
    square under- or overflows; past the float range of the ratio the
    logarithm is taken of its numerator and denominator apart."""
    energy = sum(Fraction(v) ** 2 for v in s)
    error = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(s, e))
    ratio = energy / error
    if Fraction(1, 10**300) < ratio < 10**300:
        return 10.0 * math.log10(ratio)
    return 10.0 * (math.log10(ratio.numerator) - math.log10(ratio.denominator))


class TestMetrics:
    def test_documented_values(self):
        assert snr_db([1.0, 0.0], [0.9, 0.0]) == pytest.approx(20.0)
        assert mse([1.0, 0.0], [0.9, 0.0]) == pytest.approx(0.005)

    def test_exact_recovery_capped(self):
        s = np.array([1.0, 2.0, 3.0])
        assert snr_db(s, s) == SNR_CAP_DB

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReference):
            snr_db(np.zeros(3), np.ones(3))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=10),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=10),
    )
    # Squared as floats, this s underflows into subnormals (s·s ≈ 8.7e-312).
    @example(s_list=[0.0, 2.96e-156], e_list=[0.0, 0.0])
    # ...and this one so far that ‖s‖ computed from s·s is off by 5e-7 dB.
    @example(s_list=[0.0, 3.6996707262706764e-159], e_list=[0.0, 1.0])
    def test_snr_mse_consistency(self, s_list, e_list):
        m = min(len(s_list), len(e_list))
        s = np.asarray(s_list[:m])
        e = np.asarray(e_list[:m])
        if not np.any(s) or np.array_equal(s, e):
            return
        assert snr_db(s, e) == pytest.approx(min(SNR_CAP_DB, exact_snr_db(s_list[:m], e_list[:m])), rel=1e-12)

    def test_reference_trace_row_self_consistency(self):
        """The reference final-row pair (MSE 5.53e-5, SNR 30.85 dB) implies a
        source energy inside the plausible range of the k=100 model; against
        the nominal energy of 100 the pair agrees to about 1.7 dB."""
        m, mse_row, snr_row = 1000, 5.53e-5, 30.85
        err = math.sqrt(m * mse_row)
        implied_energy = (err * 10.0 ** (snr_row / 20.0)) ** 2
        assert 40.0 <= implied_energy <= 160.0
        nominal = 20.0 * math.log10(math.sqrt(100.0) / err)
        assert nominal == pytest.approx(snr_row, abs=2.0)


class TestSweepPoint:
    def test_is_a_solver_config(self):
        point = SweepPoint(m=40, n=16, k=4, family="hyperbolic", schedule=None, c=0.8, mu=2.0)
        assert isinstance(point, SolverConfig)
        assert point.family == PenaltyFamily("truncated_hyperbolic")
        cfg = point.solver_config()
        assert type(cfg) is SolverConfig
        assert cfg == SolverConfig(family="hyperbolic", schedule=None, c=0.8, mu=2.0)

    def test_solver_settings_validated_when_built(self):
        with pytest.raises(ValueError, match="mu"):
            SweepPoint(solver="irls", mu=0.0)
        with pytest.raises(ValueError, match="c must lie"):
            replace(SweepPoint(schedule=None), c=1.5)

    def test_estimates_never_recorded(self):
        assert SweepPoint().record_estimates is False
        with pytest.raises(TypeError):
            SweepPoint(record_estimates=True)
        with pytest.raises(ValueError, match="record_estimates"):
            run_sweep({"record_estimates": [True]}, runs=1, base_seed=0)


STAT_KEYS = ("snr_mean_db", "snr_std_db", "snr_min_db", "mse_mean")


def rows_from_trials(grid: dict, base: SweepPoint, runs: int, base_seed: int) -> list[dict]:
    """Summary rows rebuilt from run_trial, which draws every problem anew
    and solves it alone."""
    rows = []
    for combo in product(*grid.values()):
        overrides = dict(zip(grid, combo))
        point = replace(base, **overrides)
        good = []
        for r in range(runs):
            try:
                good.append(run_trial(point, r, base_seed))
            except Sl0Error:
                pass
        snrs = [t.snr_db for t in good]
        rows.append(
            dict(
                overrides, runs=runs,
                snr_mean_db=float(np.mean(snrs)), snr_std_db=float(np.std(snrs)),
                snr_min_db=float(np.min(snrs)), mse_mean=float(np.mean([t.mse for t in good])),
                failures=runs - len(good),
            )
        )
    return rows


def assert_rows_match(rows: list[dict], expected: list[dict]) -> None:
    """Grid keys, run and failure counts equal; SNR and MSE statistics equal
    to 1e-9 relative, the rounding gap between block and vector products."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        exact = {key: v for key, v in row.items() if key not in STAT_KEYS + ("time_mean_s",)}
        assert exact == {key: v for key, v in want.items() if key not in STAT_KEYS}
        for key in STAT_KEYS:
            assert row[key] == pytest.approx(want[key], rel=1e-9), key


class TestSweeps:
    def test_single_point_single_run_matches_trial(self):
        base = SweepPoint(m=40, n=16, k=4, noise_sigma=0.01)
        rows = run_sweep({}, runs=1, base_seed=5, base=base)
        assert len(rows) == 1
        trial = run_trial(base, 0, 5)
        assert rows[0]["snr_mean_db"] == trial.snr_db
        assert rows[0]["mse_mean"] == trial.mse
        assert rows[0]["runs"] == 1
        assert rows[0]["failures"] == 0

    def test_bit_for_bit_reproducible(self):
        base = SweepPoint(m=40, n=16, k=4)
        grid = {"k": [2, 4], "solver": ["sl0", "irls"]}
        first = run_sweep(grid, runs=3, base_seed=11, base=base)
        second = run_sweep(grid, runs=3, base_seed=11, base=base)

        def drop_timing(rows):
            return [{k: v for k, v in row.items() if k != "time_mean_s"} for row in rows]

        assert drop_timing(first) == drop_timing(second)

    def test_grid_point_order_and_params(self):
        base = SweepPoint(m=30, n=12, k=3)
        rows = run_sweep({"k": [2, 3], "L": [1, 2]}, runs=1, base_seed=0, base=base)
        assert [(r["k"], r["L"]) for r in rows] == [(2, 1), (2, 2), (3, 1), (3, 2)]

    def test_trials_share_problems_across_solver_points(self):
        base = SweepPoint(m=40, n=16, k=4)
        _, trials = run_sweep(
            {"solver": ["sl0", "irls"]}, runs=2, base_seed=21, base=base, collect_trials=True
        )
        assert [t["seed"] for t in trials] == [21, 22, 21, 22]

    def test_unknown_grid_key(self):
        with pytest.raises(ValueError):
            run_sweep({"bogus": [1]}, runs=1, base_seed=0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep({}, runs=1, base_seed=0, base=SweepPoint(m=30, n=12, k=3), jobs=jobs)

    def test_varying_width_keys_needs_geometric_base(self):
        with pytest.raises(ValueError):
            run_sweep({"c": [0.5, 0.8]}, runs=1, base_seed=0, base=SweepPoint(m=30, n=12, k=3))

    def test_solver_failures_recorded_not_fatal(self):
        base = SweepPoint(
            m=30, n=12, k=3, schedule=None, sigma1=None, c=0.5, sigma_min=1e-4, mode="threshold", max_inner=40
        )
        rows, trials = run_sweep({}, runs=4, base_seed=2, base=base, collect_trials=True)
        assert rows[0]["failures"] > 0
        failed = [t for t in trials if t["error"]]
        assert len(failed) == rows[0]["failures"]
        assert all(t["snr_db"] == "" for t in failed)

    def test_threshold_failure_stays_with_its_point_in_a_block(self, monkeypatch):
        """Two threshold points of one block, one stalling at every run: the
        failures are counted at that point alone, and the partner's trials
        equal its single solves."""
        import sl0.expgen as expgen

        widths = []
        anneal = expgen._anneal_block

        def spying(proj, x_block, cfgs):
            widths.append(x_block.shape[1])
            return anneal(proj, x_block, cfgs)

        monkeypatch.setattr(expgen, "_anneal_block", spying)
        base = SweepPoint(
            m=6, n=3, k=1, exact_activation=True, noise_sigma=0.0, schedule=None, c=0.8,
            mu=2.5, mode="threshold", max_inner=200,
        )
        rows, trials = run_sweep({"sigma_min": [1e-3, 0.3]}, runs=4, base_seed=0, base=base, collect_trials=True)
        assert widths == [2] * 4
        assert [row["failures"] for row in rows] == [4, 0]
        for trial in trials:
            point = replace(base, sigma_min=trial["sigma_min"])
            a, _s, x = generate_problem(point.source_model(), point.mixing_spec(), trial["seed"])
            if trial["error"]:
                with pytest.raises(Sl0Error) as single_error:
                    sl0_solve(a, x, point)
                assert trial["error"] == str(single_error.value)
            else:
                assert trial["snr_db"] == pytest.approx(run_trial(point, trial["run_index"], 0).snr_db, rel=1e-9)

    @staticmethod
    def block_settings(monkeypatch, grid: dict, base: SweepPoint) -> list[list[tuple]]:
        """The (key, value) pairs of the grid fields of every block's columns,
        one list per block, from a one-run sweep that spies on the engine."""
        import sl0.expgen as expgen

        blocks = []
        anneal = expgen._anneal_block

        def spying(proj, x_block, cfgs):
            blocks.append([tuple(getattr(cfg, key) for key in grid) for cfg in cfgs])
            return anneal(proj, x_block, cfgs)

        monkeypatch.setattr(expgen, "_anneal_block", spying)
        run_sweep(grid, runs=1, base_seed=43, base=base)
        return blocks

    def test_one_block_per_setting_beside_the_widths(self, monkeypatch):
        """A grid over {c, mu} anneals one block per mu, each holding every c."""
        base = SweepPoint(m=30, n=12, k=3, schedule=None)
        blocks = self.block_settings(monkeypatch, {"c": [0.5, 0.8], "mu": [2.0, 2.5]}, base)
        assert blocks == [[(0.5, 2.0), (0.8, 2.0)], [(0.5, 2.5), (0.8, 2.5)]]

    def test_points_differing_in_widths_alone_share_a_block(self, monkeypatch):
        base = SweepPoint(m=30, n=12, k=3, schedule=None)
        grid = {"sigma1": [None, 1.0], "c": [0.5, 0.8], "sigma_min": [0.01, 0.02], "k": [2, 3]}
        blocks = self.block_settings(monkeypatch, grid, base)
        assert len(blocks) == 1 and sorted(blocks[0], key=str) == sorted(product(*grid.values()), key=str)

    @pytest.mark.parametrize(
        "key, values",
        [("family", [PenaltyFamily("gaussian"), PenaltyFamily("rational")]), ("mu", [2.0, 2.5]), ("L", [2, 3]), ("mode", ["fixed", "threshold"]),
         ("target_f", [None, 25.0]), ("max_inner", [500, 1000])],
    )
    def test_every_other_solver_setting_splits_blocks(self, monkeypatch, key, values):
        """Points differing in one solver setting that is not a width anneal
        in separate blocks, so no engine setting is dropped from the key."""
        base = SweepPoint(m=30, n=12, k=3, schedule=None)
        blocks = self.block_settings(monkeypatch, {key: values, "c": [0.5, 0.8]}, base)
        assert [{column[0] for column in block} for block in blocks] == [{values[0]}, {values[1]}]

    def test_jobs_parallel_matches_serial(self):
        base = SweepPoint(m=40, n=16, k=4)
        grid = {"k": [2, 4, 6]}
        serial = run_sweep(grid, runs=2, base_seed=9, base=base, jobs=1)
        parallel = run_sweep(grid, runs=2, base_seed=9, base=base, jobs=4)
        for row_s, row_p in zip(serial, parallel):
            for key in ("snr_mean_db", "snr_std_db", "snr_min_db", "mse_mean", "failures"):
                assert row_s[key] == row_p[key]

    def test_shared_matrix_rows_match_uncached_solves(self):
        """Rows of a sweep that shares one factored matrix per run index and
        (n, m) equal rows rebuilt from generate_problem and sl0_solve, serial
        and over two threads; the statistics to rounding, since the sweep
        solves the points of one matrix as a block."""
        base = SweepPoint(m=40, n=16, k=4)
        grid = {"k": [2, 4], "noise_sigma": [0.0, 0.05], "n": [12, 16]}
        rows = run_sweep(grid, runs=2, base_seed=17, base=base)
        expected = []
        for k, noise_sigma, n in product(*grid.values()):
            point = replace(base, k=k, noise_sigma=noise_sigma, n=n)
            snrs, mses = [], []
            for r in range(2):
                a, s, x = generate_problem(point.source_model(), point.mixing_spec(), 17 + r)
                estimate = sl0_solve(a, x, point.solver_config()).estimate
                snrs.append(snr_db(s, estimate))
                mses.append(mse(s, estimate))
            expected.append(
                dict(
                    k=k, noise_sigma=noise_sigma, n=n, runs=2,
                    snr_mean_db=float(np.mean(snrs)), snr_std_db=float(np.std(snrs)),
                    snr_min_db=float(np.min(snrs)), mse_mean=float(np.mean(mses)), failures=0,
                )
            )

        assert_rows_match(rows, expected)
        parallel = run_sweep(grid, runs=2, base_seed=17, base=base, jobs=2)
        assert_rows_match(parallel, expected)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_factor_per_run_index(self, jobs, factor_builds):
        base = SweepPoint(m=40, n=16, k=4)
        run_sweep({"k": [2, 4]}, runs=2, base_seed=19, base=base, jobs=jobs)
        assert len(factor_builds) == 2
        assert not np.array_equal(factor_builds[0], factor_builds[1])

    def test_runs_factor_once_each_with_threads(self, factor_builds):
        base = SweepPoint(m=40, n=16, k=4)
        run_sweep({"k": [2, 4], "noise_sigma": [0.0, 0.05]}, runs=3, base_seed=23, base=base, jobs=2)
        assert len(factor_builds) == 3
        assert len({m.tobytes() for m in factor_builds}) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_irls_points_reuse_the_run_index_factor(self, jobs, factor_builds):
        """IRLS points solve on the factor their run index built for their
        matrix, so the sweep builds one factor per matrix."""
        base = SweepPoint(m=40, n=16, k=3)
        run_sweep({"solver": ["sl0", "irls"], "n": [12, 16]}, runs=4, base_seed=41, base=base, jobs=jobs)
        assert len(factor_builds) == 8
        assert len({m.tobytes() for m in factor_builds}) == 8

    def test_block_columns_follow_their_own_widths(self):
        """Points with different annealing factors share one block but keep
        schedules of different lengths; each row matches its point solved
        alone, and the points of the block share its time."""
        base = SweepPoint(m=40, n=16, k=4, schedule=None)
        grid = {"c": [0.5, 0.8, 0.95], "k": [2, 4]}
        rows = run_sweep(grid, runs=2, base_seed=29, base=base)
        assert_rows_match(rows, rows_from_trials(grid, base, runs=2, base_seed=29))
        single = run_sweep(grid, runs=1, base_seed=29, base=base)
        assert len({row["time_mean_s"] for row in single}) == 1

    def test_mixed_solvers_and_modes_match_trials(self):
        """IRLS and threshold-mode points are solved alone beside the blocks
        of fixed-mode sl0 points, one block per L; every row matches the
        per-trial results, failures of the threshold solves included."""
        base = SweepPoint(m=40, n=16, k=4, exact_activation=True, noise_sigma=0.0, schedule=None)
        grid = {"solver": ["sl0", "irls"], "mode": ["fixed", "threshold"], "k": [2, 4], "L": [2, 3]}
        rows = run_sweep(grid, runs=3, base_seed=31, base=base)
        assert_rows_match(rows, rows_from_trials(grid, base, runs=3, base_seed=31))
        assert any(row["failures"] for row in rows if row["solver"] == "sl0" and row["mode"] == "threshold")

    def test_all_zero_source_is_a_failure(self):
        """A point with no active source scores no SNR; it fails alone and
        its block partner is still solved."""
        base = SweepPoint(m=40, n=16, k=4)
        grid = {"k": [0, 4]}
        rows, trials = run_sweep(grid, runs=2, base_seed=37, base=base, collect_trials=True)
        assert [row["failures"] for row in rows] == [2, 0]
        assert all("all-zero reference" in t["error"] for t in trials[:2])
        assert_rows_match(rows[1:], rows_from_trials({"k": [4]}, base, runs=2, base_seed=37))

    def test_breakdown_gap_between_sparse_and_dense(self):
        """Slow-anneal recovery collapses between 80 and 240 active sources."""
        base = SweepPoint(exact_activation=True, schedule=None, sigma1=1.0, c=0.5, sigma_min=0.01)
        rows = run_sweep({"k": [80, 240]}, runs=4, base_seed=55, base=base)
        by_k = {r["k"]: r["snr_mean_db"] for r in rows}
        assert by_k[80] - by_k[240] >= 10.0

    def test_annealing_factor_plateau(self):
        """Mean SNR climbs steeply up to c=0.5 and stays flat (within 1 dB)
        beyond it."""
        base = SweepPoint(schedule=None, sigma1=1.0, sigma_min=0.01)
        rows = run_sweep({"c": [0.2, 0.5, 0.8]}, runs=6, base_seed=6400, base=base)
        by_c = {r["c"]: r["snr_mean_db"] for r in rows}
        assert by_c[0.5] > by_c[0.2]
        assert by_c[0.8] >= by_c[0.5] - 1.0


class TestCsvOutput:
    def test_summary_header_and_values(self, tmp_path):
        base = SweepPoint(m=30, n=12, k=3)
        rows = run_sweep({"k": [2, 3]}, runs=2, base_seed=1, base=base)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,runs,snr_mean_db,snr_std_db,snr_min_db,mse_mean,time_mean_s,failures"
        assert len(lines) == 3
        assert float(lines[1].split(",")[2]) == rows[0]["snr_mean_db"]

    def test_trials_csv(self, tmp_path):
        base = SweepPoint(m=30, n=12, k=3)
        _, trials = run_sweep({"k": [2]}, runs=2, base_seed=1, base=base, collect_trials=True)
        path = tmp_path / "trials.csv"
        write_sweep_csv(trials, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("k,run_index,seed,snr_db")
        assert len(lines) == 3


def test_generate_problem_streams_are_independent():
    model = SourceModel(m=30, p=0.2)
    spec = MixingSpec(n=12, m=30, noise_sigma=0.0)
    a1, s1, x1 = generate_problem(model, spec, seed=3)
    a2, s2, x2 = generate_problem(model, spec, seed=3)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(x1, x2)
    a3, s3, _ = generate_problem(model, spec, seed=4)
    assert not np.array_equal(a1, a3)
    # mixing and sources must not reuse the same stream head
    assert not np.allclose(a1[:, 0][: min(12, 30)], s1[: min(12, 30)])


def test_trial_result_invariant():
    base = SweepPoint(m=40, n=16, k=4)
    trial = run_trial(base, 0, 123)
    assert isinstance(trial, TrialResult)
    assert trial.mse >= 0.0
    # SNR and MSE describe the same error vector
    model, spec = base.source_model(), base.mixing_spec()
    _, s_true, _ = generate_problem(model, spec, 123)
    energy = float(np.dot(s_true, s_true))
    assert trial.snr_db == pytest.approx(10.0 * math.log10(energy / (40 * trial.mse)), rel=1e-9)
