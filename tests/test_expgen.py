import math
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl0 import expgen
from sl0.errors import DimensionMismatch, ParseError, RankDeficient, Sl0Error, ZeroReference
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
from sl0.solver import SolverConfig, sl0_solve, suggest_sigma_floor_noisy


class TestSourceModel:
    def test_requires_exactly_one_activation_mode(self):
        with pytest.raises(ValueError):
            SourceModel(m=10)
        with pytest.raises(ValueError):
            SourceModel(m=10, p=0.1, exact_k=2)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"m": 0, "p": 0.1}, "m must be positive"),
            ({"m": 5, "exact_k": 6}, "exact_k"),
            ({"m": 10.0, "p": 0.1}, "m must be an integer"),
            ({"m": True, "p": 0.1}, "m must be an integer"),
            ({"m": 10, "exact_k": 2.5}, "exact_k must be an integer"),
        ],
    )
    def test_rejects_bad_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            SourceModel(**counts)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            SourceModel(m=10, p=0.1, sigma_on=0.5, sigma_off=0.6)
        for sigma_on in (math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma_on"):
                SourceModel(m=10, p=0.1, sigma_on=sigma_on)

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

    @pytest.mark.parametrize("noise_sigma", [math.nan, math.inf, -0.1])
    def test_rejects_bad_noise(self, noise_sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            MixingSpec(n=3, m=6, noise_sigma=noise_sigma)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("all_entries", [False, True])
    def test_non_finite_vectors_rejected(self, bad, all_entries):
        """A NaN or infinite entry, in the estimate or the reference, is a
        scoring error rather than the 300 dB cap, a math domain error or a
        NaN MSE."""
        s = np.array([1.0, 2.0, 3.0])
        e = np.full(3, bad) if all_entries else np.array([1.0, bad, 3.0])
        for metric in (snr_db, mse):
            for pair in ((s, e), (e, s)):
                with pytest.raises(ParseError, match="NaN or Inf"):
                    metric(*pair)

    @pytest.mark.parametrize("metric", [snr_db, mse])
    def test_shape_mismatch_rejected(self, metric):
        with pytest.raises(DimensionMismatch):
            metric(np.ones(3), np.ones(4))

    def test_ratio_past_the_float_range(self):
        """‖s‖ / ‖s − ŝ‖ ≈ 1e-310, 2**-1030 times a normal float, is taken
        as a sum of logarithms rather than rescaled."""
        assert snr_db([1e-300], [1e10]) == -6200.0

    @pytest.mark.parametrize(
        "s_true, s_est, expected",
        [(np.r_[1.5e155, np.zeros(999)], np.zeros(1000), 2.25e307), ([1e308, 1.0], [-1e308, 1.0], math.inf)],
        ids=["squares overflow", "mean overflows"],
    )
    def test_mse_overflows_only_with_the_mean(self, s_true, s_est, expected):
        """Where the squares overflow but the mean is a float, the MSE is its
        value; only a mean past the float range saturates at inf, and
        neither warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mse(s_true, s_est) == pytest.approx(expected, rel=1e-15)

    def test_overflowing_difference(self):
        """Finite vectors whose difference overflows score their exact SNR,
        here ‖s‖ / ‖s − ŝ‖ = 1/2, rather than a math domain error."""
        assert snr_db(np.array([1e308, 1.0]), np.array([-1e308, 1.0])) == pytest.approx(20.0 * math.log10(0.5))

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
    @pytest.mark.parametrize(
        "base",
        [
            SweepPoint(m=40, n=16, k=4, noise_sigma=0.01),
            SweepPoint(m=40, n=16, k=4, noise_sigma=0.01, solver="irls"),
            SweepPoint(
                m=6, n=3, k=1, exact_activation=True, noise_sigma=0.0, schedule=None, c=0.8, mode="threshold",
                max_inner=200,
            ),
        ],
        ids=["sl0", "irls", "threshold stall"],
    )
    def test_single_point_single_run_matches_trial(self, base):
        """run_trial returns the one-point, one-run sweep's SNR and MSE bit
        for bit, or raises the error that sweep counts as its failure."""
        rows, (trial_row,) = run_sweep({}, runs=1, base_seed=5, base=base, collect_trials=True)
        assert len(rows) == 1
        assert rows[0]["runs"] == 1
        assert bool(trial_row["error"]) == (base.mode == "threshold")
        if trial_row["error"]:
            assert rows[0]["failures"] == 1
            with pytest.raises(Sl0Error) as failure:
                run_trial(base, 0, 5)
            assert str(failure.value) == trial_row["error"]
            return
        trial = run_trial(base, 0, 5)
        assert rows[0]["snr_mean_db"] == trial.snr_db
        assert rows[0]["mse_mean"] == trial.mse
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

    @pytest.mark.parametrize(
        "grid, base, message",
        [
            ({}, SweepPoint(m=0), "need 1 <= n <= m"),
            ({"m": [30, 0]}, SweepPoint(n=12, k=3), "need 1 <= n <= m"),
            ({"k": [3, 40]}, SweepPoint(m=30, n=12), "p must lie in"),
            ({}, SweepPoint(solver="bogus"), "unknown solver 'bogus'"),
            ({"solver": ["sl0", "bogus"]}, SweepPoint(m=30, n=12, k=3), "unknown solver 'bogus'"),
            ({}, SweepPoint(m=30, n=12.0, k=3), "n must be an integer"),
            ({}, SweepPoint(m=30.0, n=12, k=3), "m must be an integer"),
            ({}, SweepPoint(m=30, n=12, k=2.5, exact_activation=True), "exact_k must be an integer"),
            ({"family": [None]}, SweepPoint(m=30, n=12, k=3), "unknown family None"),
        ],
    )
    def test_invalid_grid_point_rejected_before_drawing(self, monkeypatch, grid, base, message):
        """A grid point whose problem or solver is invalid fails the sweep
        with a ValueError before any problem is drawn, m = 0 included, and
        so does run_trial on an invalid point."""

        def drawn(*args):
            raise AssertionError("a problem was drawn")

        monkeypatch.setattr(expgen, "generate_problem", drawn)
        with pytest.raises(ValueError, match=message):
            run_sweep(grid, runs=1, base_seed=0, base=base)
        if not grid:
            with pytest.raises(ValueError, match=message):
                run_trial(base, 0, 0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep({}, runs=1, base_seed=0, base=SweepPoint(m=30, n=12, k=3), jobs=jobs)

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            run_sweep({}, runs=0, base_seed=0, base=SweepPoint(m=30, n=12, k=3))

    @pytest.mark.parametrize("name, value", [("runs", 2.0), ("runs", "2"), ("jobs", 2.5), ("jobs", 2.0)])
    def test_non_integer_counts_rejected(self, name, value):
        """``runs`` and ``jobs`` are counts, as ``L`` and ``max_inner`` are."""
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_sweep({}, base_seed=0, base=SweepPoint(m=30, n=12, k=3), **{"runs": 1, name: value})

    @pytest.mark.parametrize("name", ["L", "max_inner", "runs", "jobs", "irls_iterations", "k"])
    def test_bool_is_not_a_count(self, name):
        """``True`` is a ``numbers.Integral`` but no count, so every count
        setting refuses it, in a config, a sweep call, a grid or a floor."""
        base = SweepPoint(m=30, n=12, k=3)
        calls = {
            "L": lambda: run_sweep({"L": [True]}, runs=1, base_seed=0, base=base),
            "max_inner": lambda: SolverConfig(max_inner=True),
            "runs": lambda: run_sweep({}, runs=True, base_seed=0, base=base),
            "jobs": lambda: run_sweep({}, runs=1, base_seed=0, base=base, jobs=True),
            "irls_iterations": lambda: SweepPoint(irls_iterations=True),
            "k": lambda: suggest_sigma_floor_noisy(generate_mixing(base.mixing_spec()), k=True, epsilon=0.1),
        }
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            calls[name]()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda base: run_sweep({}, runs=1, base_seed=True, base=base), "base_seed must be an integer"),
            (lambda base: run_sweep({}, runs=1, base_seed=1.5, base=base), "base_seed must be an integer"),
            (lambda base: run_sweep({}, runs=1, base_seed="3", base=base), "base_seed must be an integer"),
            (lambda base: run_sweep({}, runs=1, base_seed=-5, base=base), "base_seed must be at least 0"),
            (lambda base: run_trial(base, True, 0), "run_index must be an integer"),
            (lambda base: run_trial(base, -1, 0), "run_index must be at least 0"),
            (lambda base: run_trial(base, 1.0, 0), "run_index must be an integer"),
            (lambda base: run_trial(base, 0, True), "base_seed must be an integer"),
            (lambda base: run_trial(base, 0, -1), "base_seed must be at least 0"),
        ],
        ids=[
            "sweep-seed-bool", "sweep-seed-float", "sweep-seed-str", "sweep-seed-negative",
            "trial-index-bool", "trial-index-negative", "trial-index-float", "trial-seed-bool", "trial-seed-negative",
        ],
    )
    def test_seeds_follow_the_integer_rule(self, call, message):
        """A seed or run index is an integer of at least 0, checked as counts
        are: a ``bool``, a float or a string is refused with the integer
        rule's message, not run as 1 or passed to numpy."""
        with pytest.raises(ValueError, match=message):
            call(SweepPoint(m=30, n=12, k=3))

    def test_fractional_expected_count_accepted(self):
        """In probability mode ``k`` is an expected count, so it may be
        fractional; only an exact count must be an integer."""
        (row,) = run_sweep({}, runs=1, base_seed=0, base=SweepPoint(m=30, n=12, k=2.5))
        assert row["failures"] == 0

    def test_numpy_integer_counts_accepted(self):
        rows = run_sweep({}, runs=np.int64(2), base_seed=0, base=SweepPoint(m=30, n=12, k=3), jobs=np.int32(1))
        assert rows[0]["runs"] == 2

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

    def test_rank_deficient_matrix_fails_every_point_of_its_shape(self, monkeypatch):
        """When one (n, m)'s matrix cannot be factored, every point of that
        shape reports the error at every run, and the other shape's rows are
        those of an unpatched sweep. The failed shape draws sources and noise
        only inside ``generate_problem``, once per run; its other points take
        the error without drawing."""
        grid = {"n": [12, 16], "solver": ["sl0", "irls"]}
        base = SweepPoint(m=30, k=3)
        clean = run_sweep(grid, runs=2, base_seed=4, base=base)
        drawn = expgen.generate_mixing
        measured = expgen._draw_measurements
        draws = {12: 0, 16: 0}

        def deficient_at_12(spec, seed=None):
            a = drawn(spec, seed)
            if spec.n == 12:
                a[1] = a[0]
            return a

        def counted(a, *args):
            draws[a.shape[0]] += 1
            return measured(a, *args)

        monkeypatch.setattr(expgen, "generate_mixing", deficient_at_12)
        monkeypatch.setattr(expgen, "_draw_measurements", counted)
        rows = run_sweep(grid, runs=2, base_seed=4, base=base)
        assert draws == {12: 2, 16: 4}
        for row, want in zip(rows, clean, strict=True):
            if row["n"] == 12:
                assert row["failures"] == row["runs"] == 2
                assert all(math.isnan(row[key]) for key in STAT_KEYS + ("time_mean_s",))
            else:
                assert {k: v for k, v in row.items() if k != "time_mean_s"} == {
                    k: v for k, v in want.items() if k != "time_mean_s"
                }
        with pytest.raises(RankDeficient):
            run_trial(replace(base, n=12), 0, 4)

    def test_irls_fields_checked_when_built(self):
        """A non-integer or negative ``irls_iterations``, an ``irls_p_norm``
        outside [0, 2] (NaN and the infinities included) or a negative or
        non-finite ``irls_regularizer`` is a ValueError when the point is
        built, before any trial runs."""
        with pytest.raises(ValueError, match="irls_iterations"):
            run_sweep({}, runs=1, base_seed=0, base=SweepPoint(m=30, n=12, k=3, solver="irls", irls_iterations=5.5))
        base = SweepPoint(m=30, n=12, k=3, solver="irls")
        for bad in (
            {"irls_iterations": -3},
            {"irls_iterations": "5"},
            {"irls_p_norm": math.nan},
            {"irls_p_norm": math.inf},
            {"irls_p_norm": -1000.0},
            {"irls_p_norm": 10.0},
            {"irls_regularizer": -1e-8},
            {"irls_regularizer": math.inf},
            {"irls_regularizer": math.nan},
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                replace(base, **bad)
        replace(base, irls_iterations=np.int64(0), irls_p_norm=1.0, irls_regularizer=0.0)
        replace(base, irls_p_norm=2.0)

    def test_non_finite_estimate_is_a_failure(self, monkeypatch):
        """An estimate holding a NaN is a failed trial, not a capped SNR."""
        monkeypatch.setattr(expgen, "irls_solve", lambda factor, x, *args: np.full(30, math.nan))
        base = SweepPoint(m=30, n=12, k=3, solver="irls")
        (row,) = run_sweep({}, runs=2, base_seed=4, base=base)
        assert row["failures"] == 2 and math.isnan(row["snr_mean_db"])
        with pytest.raises(ParseError):
            run_trial(base, 0, 4)

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

    def test_no_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            write_sweep_csv([], tmp_path / "empty.csv")
        assert not (tmp_path / "empty.csv").exists()


def test_generate_problem_rejects_mismatched_widths():
    with pytest.raises(DimensionMismatch):
        generate_problem(SourceModel(m=30, p=0.2), MixingSpec(n=12, m=40), seed=0)


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
