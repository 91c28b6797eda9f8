import csv
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_left_inverse_norm, one_sparse_instance, sparsest_by_enumeration, unit_column_matrix
from sl0.errors import (
    DimensionMismatch,
    ParseError,
    RankDeficient,
    ThresholdUnreachable,
    TooLarge,
    TooManyActive,
    ZeroVector,
)
from sl0.expgen import SweepPoint, generate_problem
from sl0.linalg import ProjectorFactor, compute_M, min_norm_solution
from sl0.penalty import PenaltyFamily
from sl0.solver import (
    DEFAULT_SCHEDULE,
    MAX_LEVELS,
    SolverConfig,
    _anneal_block,
    auto_sigma1,
    error_upper_bound,
    geometric_schedule,
    irls_solve,
    sl0_solve,
    sl0_solve_batch,
    suggest_sigma_floor_noisy,
    validate_schedule,
    write_report_csv,
)

# 2x3 system whose sparsest solution is the first unit vector.
TINY_A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
TINY_X = np.array([1.0, 0.0])

# 3x6 instance on which threshold mode with mu=2.5 provably stalls: the
# overshooting step settles into a cycle whose smoothed measure stays just
# below the m - n/2 target (contraction needs mu < 2 for the gaussian kind).
_rng = np.random.default_rng(3)
STALL_A = _rng.standard_normal((3, 6))
STALL_A /= np.linalg.norm(STALL_A, axis=0)
STALL_S0 = np.array([0.0, 0.0, 1.3, 0.0, 0.0, 0.0])
STALL_X = STALL_A @ STALL_S0


class TestSchedules:
    def test_default_matches_benchmark_settings(self):
        assert DEFAULT_SCHEDULE == (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)

    @settings(max_examples=100, deadline=None)
    @given(
        sigma1=st.floats(min_value=1e-3, max_value=1e3),
        c=st.floats(min_value=0.05, max_value=0.95),
        ratio=st.floats(min_value=1e-6, max_value=0.999),
    )
    def test_geometric_properties(self, sigma1, c, ratio):
        sigma_min = sigma1 * ratio
        sched = geometric_schedule(sigma1, c, sigma_min)
        assert sched[0] == sigma1
        assert sched[-1] == sigma_min
        assert all(b < a for a, b in zip(sched, sched[1:]))
        assert all(v > sigma_min for v in sched[:-1])

    def test_geometric_floor_only(self):
        assert geometric_schedule(0.005, 0.5, 0.01) == (0.01,)

    def test_geometric_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            geometric_schedule(1.0, 1.0, 0.01)

    @pytest.mark.parametrize(
        "values", [(), (0.0, -1.0), (1.0, 1.0), (0.5, 1.0), (math.inf, 1.0), (1.0, math.nan), (2.0, -math.inf)]
    )
    def test_validate_schedule_rejects(self, values):
        with pytest.raises(ValueError):
            validate_schedule(values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(mu=0.0)
        with pytest.raises(ValueError):
            SolverConfig(L=0)
        with pytest.raises(ValueError):
            SolverConfig(mode="loop")
        with pytest.raises(ValueError):
            SolverConfig(schedule=None, c=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "setting",
        [
            lambda v: {"mu": v},
            lambda v: {"target_f": v},
            lambda v: {"schedule": (v, 0.5)},
            lambda v: {"schedule": (2.0, v)},
            lambda v: {"schedule": None, "sigma1": v},
            lambda v: {"schedule": None, "c": v},
            lambda v: {"schedule": None, "sigma_min": v},
        ],
        ids=["mu", "target_f", "first_width", "last_width", "sigma1", "c", "sigma_min"],
    )
    def test_config_rejects_non_finite(self, setting, bad):
        """A NaN or infinite setting fails when the config is built, not later
        in a solve (an infinite start width would grow the geometric sequence
        without end)."""
        with pytest.raises(ValueError, match="finite|must lie"):
            SolverConfig(**setting(bad))

    @pytest.mark.parametrize("args", [(math.nan, 0.5, 0.01), (1.0, math.nan, 0.01), (1.0, 0.5, math.inf)])
    def test_geometric_rejects_non_finite(self, args):
        """The geometric check is the config's: a NaN or infinite parameter
        fails instead of giving a meaningless sequence."""
        with pytest.raises(ValueError, match="finite|must lie"):
            geometric_schedule(*args)

    def test_level_count_counted_without_the_list(self):
        """The level count is checked before the sequence is built: a count
        under MAX_LEVELS gives that many widths, and one over it fails at
        once, for an explicit start width and for an auto one."""
        c = 0.999
        count = math.ceil(math.log(1e-40) / math.log(c)) + 1
        assert count < MAX_LEVELS
        assert len(geometric_schedule(1.0, c, 1e-40)) == count
        with pytest.raises(ValueError, match="widths"):
            geometric_schedule(1.0, c, 1e-50)
        with pytest.raises(ValueError, match="widths"):
            SolverConfig(schedule=None, sigma1=1.0, c=0.9999999999, sigma_min=1e-300)
        auto = SolverConfig(schedule=None, c=0.9999999999, sigma_min=1e-300)
        with pytest.raises(ValueError, match="widths"):
            sl0_solve(TINY_A, TINY_X, auto)


class TestAutoSigma1:
    def test_twice_peak(self):
        assert auto_sigma1([1.0, -3.0, 0.5]) == 6.0

    def test_homogeneous(self):
        s = np.array([0.2, -1.1, 0.7])
        assert auto_sigma1(10.0 * s) == pytest.approx(10.0 * auto_sigma1(s))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            auto_sigma1(np.zeros(4))

    def test_four_times_peak_saturates_gaussian(self):
        """At four times the peak the smoothing value stays above 0.96."""
        rng = np.random.default_rng(0)
        s0 = rng.standard_normal(50)
        sigma = 2.0 * auto_sigma1(s0)  # 4 * max |s0_i|
        fam = PenaltyFamily("gaussian")
        assert np.all(fam.value(s0, sigma) > 0.96)


class TestSl0Solve:
    def test_zero_rhs_explicit_schedule(self):
        rng = np.random.default_rng(1)
        a = unit_column_matrix(rng, 3, 8)
        report = sl0_solve(a, np.zeros(3))
        assert np.all(report.estimate == 0.0)
        assert len(report.trace) == len(DEFAULT_SCHEDULE)
        assert all(entry.f_total == 8.0 for entry in report.trace)
        assert all(entry.residual_norm == 0.0 for entry in report.trace)

    def test_zero_rhs_auto_width_short_circuits(self):
        rng = np.random.default_rng(1)
        a = unit_column_matrix(rng, 3, 8)
        report = sl0_solve(a, np.zeros(3), SolverConfig(schedule=None))
        assert np.all(report.estimate == 0.0)
        assert report.trace == []

    def test_documented_tiny_system(self):
        """The stock parameters land on the enumeration oracle's support; the
        stray mass on the other components stays below half the final width
        (the overshooting mu=2.5 cycles at about 0.4 of it)."""
        oracle = sparsest_by_enumeration(TINY_A, TINY_X)
        np.testing.assert_allclose(oracle, [1.0, 0.0, 0.0], atol=1e-12)
        report = sl0_solve(TINY_A, TINY_X, SolverConfig(mu=2.5, L=3))
        assert np.linalg.norm(report.estimate - oracle) <= 0.5 * DEFAULT_SCHEDULE[-1]

    def test_documented_tiny_system_contracting_step(self):
        """With a contracting step factor the same schedule reaches the oracle
        solution to 1e-3."""
        oracle = sparsest_by_enumeration(TINY_A, TINY_X)
        report = sl0_solve(TINY_A, TINY_X, SolverConfig(mu=2.0, L=3))
        assert np.linalg.norm(report.estimate - oracle) <= 1e-3

    def test_feasible_at_every_level(self):
        rng = np.random.default_rng(5)
        a = unit_column_matrix(rng, 10, 30)
        x = rng.standard_normal(10)
        report = sl0_solve(a, x, SolverConfig(record_estimates=True))
        bound = 1e-8 * max(1.0, np.linalg.norm(x))
        assert all(np.linalg.norm(a @ entry.estimate - x) <= bound for entry in report.trace)
        assert report.residual_norm <= bound

    @pytest.mark.parametrize("family", ["gaussian", "rational"])
    def test_level_residual_is_pre_projection_residual(self, family):
        """With one step per width, each level reports the residual of its
        ascent step from the previous level's estimate, before projection."""
        rng = np.random.default_rng(10)
        a = unit_column_matrix(rng, 20, 50)
        x = rng.standard_normal(20)
        cfg = SolverConfig(family=PenaltyFamily(family), L=1, record_estimates=True)
        report = sl0_solve(a, x, cfg)
        prev = min_norm_solution(a, x)
        for entry in report.trace:
            stepped = prev - cfg.mu * cfg.family.ascent_direction(prev, entry.sigma)
            assert entry.residual_norm == pytest.approx(np.linalg.norm(a @ stepped - x), rel=1e-9)
            prev = entry.estimate
        assert report.residual_norm <= 1e-9 * np.linalg.norm(x)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(6)
        a = unit_column_matrix(rng, 8, 20)
        x = rng.standard_normal(8)
        r1 = sl0_solve(a, x)
        r2 = sl0_solve(a, x)
        np.testing.assert_array_equal(r1.estimate, r2.estimate)
        assert [(e.sigma, e.f_total, e.residual_norm) for e in r1.trace] == [
            (e.sigma, e.f_total, e.residual_norm) for e in r2.trace
        ]

    def test_rhs_length_checked(self):
        rng = np.random.default_rng(7)
        a = unit_column_matrix(rng, 4, 9)
        with pytest.raises(DimensionMismatch):
            sl0_solve(a, np.zeros(5))

    def test_shared_projector_reuse(self):
        rng = np.random.default_rng(8)
        a = unit_column_matrix(rng, 4, 9)
        proj = ProjectorFactor(a)
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(
            sl0_solve(a, x).estimate, sl0_solve(proj, x).estimate
        )

    def test_ascent_tendency_within_levels(self):
        """The smoothed measure after one level's steps beats its value at
        entry in at least 95% of (trial, level) observations; the ascent is
        approximate, so occasional dips are expected around the level where
        active components cross the width."""
        fam = PenaltyFamily("gaussian")
        wins = total = 0
        for trial in range(100):
            rng = np.random.default_rng(9000 + trial)
            m, n, k = 500, 200, 50
            a = unit_column_matrix(rng, n, m)
            s_true = np.zeros(m)
            s_true[rng.choice(m, k, replace=False)] = rng.standard_normal(k)
            x = a @ s_true + 0.01 * rng.standard_normal(n)
            report = sl0_solve(a, x, SolverConfig(record_estimates=True))
            prev = min_norm_solution(a, x)
            for level, sigma in enumerate(DEFAULT_SCHEDULE):
                f_entry = float(fam.total(prev, sigma))
                wins += report.trace[level].f_total >= f_entry - 1e-12
                total += 1
                prev = report.trace[level].estimate
        assert wins / total >= 0.95

    def test_large_width_fixed_point_is_min_norm(self):
        """At a width far above every component the inner loop settles on the
        pseudoinverse solution (contracting step)."""
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            a = unit_column_matrix(rng, 10, 30)
            x = rng.standard_normal(10)
            s_min = min_norm_solution(a, x)
            sigma = 100.0 * float(np.max(np.abs(s_min)))
            report = sl0_solve(a, x, SolverConfig(schedule=(sigma,), mu=1.0, L=80))
            rel = np.linalg.norm(report.estimate - s_min) / np.linalg.norm(s_min)
            assert rel <= 1e-3

    def test_large_width_inner_loop_from_random_feasible_start(self):
        rng = np.random.default_rng(200)
        a = unit_column_matrix(rng, 10, 30)
        x = rng.standard_normal(10)
        proj = ProjectorFactor(a)
        s_min = proj.min_norm(x)
        sigma = 100.0 * float(np.max(np.abs(s_min)))
        fam = PenaltyFamily("gaussian")
        for _ in range(5):
            s = proj.project(s_min + rng.standard_normal(30), x)
            for _ in range(80):
                s = proj.project(s - 1.0 * fam.ascent_direction(s, sigma), x)
            assert np.linalg.norm(s - s_min) / np.linalg.norm(s_min) <= 1e-3

    def test_error_shrinks_with_final_width(self):
        """1-sparse instances: recovery error decreases with the final width,
        and whenever the smoothed measure clears the level the tail bound
        demands (m - (n - k)), the error stays below the gaussian tail bound
        with exhaustive M. A rare instance whose near-parallel columns trap
        the anneal never clears that level, and the bound makes no claim on
        it."""
        fam = PenaltyFamily("gaussian")
        mean_errors = {}
        premise_held = premise_total = 0
        for sigma_min in (0.1, 0.01, 0.001):
            errors = []
            for seed in range(20):
                rng = np.random.default_rng(300 + seed)
                a, s0, x = one_sparse_instance(rng)
                cfg = SolverConfig(schedule=None, sigma1=None, c=0.8, sigma_min=sigma_min)
                estimate = sl0_solve(a, x, cfg).estimate
                err = np.linalg.norm(estimate - s0)
                premise_total += 1
                if float(fam.total(estimate, sigma_min)) >= 6 - (3 - 1):
                    premise_held += 1
                    big_m = compute_M(a)
                    assert err < (big_m + 1.0) * 6 * sigma_min * math.sqrt(2.0 * math.log(6.0))
                    errors.append(err)
            mean_errors[sigma_min] = np.mean(errors)
        assert premise_held >= 0.9 * premise_total
        assert mean_errors[0.1] > mean_errors[0.01] > mean_errors[0.001]


class TestThresholdMode:
    def test_reaches_target_on_easy_instance(self):
        cfg = SolverConfig(schedule=None, sigma1=None, c=0.8, sigma_min=1e-3, mu=2.0, mode="threshold")
        report = sl0_solve(STALL_A, STALL_X, cfg)
        m, n = 6, 3
        assert report.trace[-1].f_total >= m - n / 2.0
        assert np.linalg.norm(report.estimate - STALL_S0) <= 1e-2

    def test_overshooting_step_reports_unreachable(self):
        cfg = SolverConfig(
            schedule=None, sigma1=None, c=0.8, sigma_min=1e-3, mu=2.5, mode="threshold", max_inner=200
        )
        with pytest.raises(ThresholdUnreachable):
            sl0_solve(STALL_A, STALL_X, cfg)

    def test_level_without_steps_reports_zero_residual(self):
        """Levels whose start already clears the target take no step and
        report 0.0; the others report their last step's pre-projection
        residual, far above rounding, and the estimate is feasible."""
        cfg = SolverConfig(schedule=None, c=0.8, sigma_min=1e-2, mu=2.0, mode="threshold", record_estimates=True)
        report = sl0_solve(STALL_A, STALL_X, cfg)
        idle = [e for e in report.trace if e.inner_iterations == 0]
        stepped = [e for e in report.trace if e.inner_iterations > 0]
        assert idle and stepped and report.trace[0].inner_iterations == 0
        assert all(e.residual_norm == 0.0 for e in idle)
        bound = 1e-9 * np.linalg.norm(STALL_X)
        assert all(e.residual_norm > bound for e in stepped)
        assert all(np.linalg.norm(STALL_A @ e.estimate - STALL_X) <= bound for e in report.trace)
        assert report.residual_norm <= bound

    def test_explicit_target(self):
        cfg = SolverConfig(
            schedule=None, sigma1=None, c=0.8, sigma_min=1e-2, mu=2.0, mode="threshold", target_f=6 - (3 - 1)
        )
        report = sl0_solve(STALL_A, STALL_X, cfg)
        assert all(entry.f_total >= 4.0 for entry in report.trace)

    def test_trace_reuses_the_loop_check(self, monkeypatch):
        """The smoothed measure is evaluated once per loop check, and each
        level's F is the value of the check that ended it."""
        point = SweepPoint()
        a, _s, x = generate_problem(point.source_model(), point.mixing_spec(), 7)
        calls = []
        original = PenaltyFamily.total

        def counting_total(self, *args, **kwargs):
            calls.append(args[1])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PenaltyFamily, "total", counting_total)
        cfg = SolverConfig(schedule=None, c=0.8, sigma_min=0.01, mu=2.0, mode="threshold", record_estimates=True)
        report = sl0_solve(a, x, cfg)
        monkeypatch.undo()
        # Each level checks once on entry and once after each of its steps.
        assert len(calls) == sum(entry.inner_iterations + 1 for entry in report.trace)
        assert sum(entry.inner_iterations for entry in report.trace) > 0
        for entry in report.trace:
            assert entry.f_total == float(cfg.family.total(entry.estimate, entry.sigma))


class TestThresholdBlock:
    CFG = SolverConfig(schedule=None, c=0.8, sigma_min=0.01, mu=2.0, mode="threshold")

    def test_columns_match_single_solves(self):
        """Columns that need different step counts at a level each take the
        steps of their own solve: same widths, inner counts and residuals of
        their own last steps, estimates equal to rounding, and F at the
        target at every level."""
        point = SweepPoint()
        a, _s, _x = generate_problem(point.source_model(), point.mixing_spec(), 7)
        rng = np.random.default_rng(7)
        sources = np.where(rng.random((point.m, 4)) < 0.1, rng.standard_normal((point.m, 4)), 0.0)
        block = a @ sources + 0.01 * rng.standard_normal((point.n, 4))
        reports = sl0_solve_batch(a, block, self.CFG)
        target = point.m - point.n / 2.0
        per_level = [{r.trace[i].inner_iterations for r in reports} for i in range(len(reports[0].trace))]
        assert any(len(counts) > 1 for counts in per_level)
        for t, report in enumerate(reports):
            single = sl0_solve(a, block[:, t], self.CFG)
            assert np.linalg.norm(report.estimate - single.estimate) <= 1e-9 * np.linalg.norm(single.estimate)
            assert [e.inner_iterations for e in report.trace] == [e.inner_iterations for e in single.trace]
            assert [e.sigma for e in report.trace] == pytest.approx([e.sigma for e in single.trace], rel=1e-12)
            assert [e.residual_norm for e in report.trace] == pytest.approx(
                [e.residual_norm for e in single.trace], rel=1e-6
            )
            assert all(e.f_total >= target for e in report.trace)

    def test_unreachable_column_beside_a_reaching_one(self):
        """A column that stalls at mu = 2.5 fails alone: the engine puts its
        error in its own slot and solves its partner as the single solve
        does, and the batch raises the single solve's error."""
        cfg = SolverConfig(schedule=None, c=0.8, sigma_min=1e-3, mu=2.5, mode="threshold", max_inner=200)
        reaching = STALL_A @ np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        block = np.column_stack([reaching, STALL_X])
        with pytest.raises(ThresholdUnreachable) as single_error:
            sl0_solve(STALL_A, STALL_X, cfg)
        with pytest.raises(ThresholdUnreachable) as batch_error:
            sl0_solve_batch(STALL_A, block, cfg)
        assert str(batch_error.value) == str(single_error.value)
        partner, failed = _anneal_block(ProjectorFactor(STALL_A), block, [cfg, cfg])
        assert isinstance(failed, ThresholdUnreachable) and str(failed) == str(single_error.value)
        single = sl0_solve(STALL_A, reaching, cfg)
        assert np.linalg.norm(partner.estimate - single.estimate) <= 1e-9 * np.linalg.norm(single.estimate)
        assert [e.inner_iterations for e in partner.trace] == [e.inner_iterations for e in single.trace]


class TestBatch:
    def test_single_column_matches_single_solve(self):
        rng = np.random.default_rng(20)
        a = unit_column_matrix(rng, 6, 15)
        x = rng.standard_normal(6)
        single = sl0_solve(a, x)
        batch = sl0_solve_batch(a, x[:, None])
        assert len(batch) == 1
        assert np.linalg.norm(batch[0].estimate - single.estimate) <= 1e-9

    def test_columns_match_single_solves(self):
        rng = np.random.default_rng(21)
        a = unit_column_matrix(rng, 6, 15)
        block = rng.standard_normal((6, 5))
        reports = sl0_solve_batch(a, block)
        for t in range(5):
            single = sl0_solve(a, block[:, t])
            assert np.linalg.norm(reports[t].estimate - single.estimate) <= 1e-9
            assert [e.sigma for e in reports[t].trace] == [e.sigma for e in single.trace]

    def test_auto_width_per_column_with_zero_column(self):
        rng = np.random.default_rng(22)
        a = unit_column_matrix(rng, 6, 15)
        block = rng.standard_normal((6, 3))
        block[:, 1] = 0.0
        reports = sl0_solve_batch(a, block, SolverConfig(schedule=None, c=0.5, sigma_min=0.01))
        assert np.all(reports[1].estimate == 0.0)
        assert reports[1].trace == []
        for t in (0, 2):
            single = sl0_solve(a, block[:, t], SolverConfig(schedule=None, c=0.5, sigma_min=0.01))
            assert np.linalg.norm(reports[t].estimate - single.estimate) <= 1e-9

    @pytest.mark.parametrize("t_count", [1, 3, 10])
    def test_memory_order_of_inputs_changes_nothing(self, t_count):
        """C- and F-ordered ``a`` and ``x_block`` give the same reports bit
        for bit, the factor built from either order included."""
        rng = np.random.default_rng(23)
        a = unit_column_matrix(rng, 30, 80)
        block = a @ np.where(rng.random((80, t_count)) < 0.1, rng.standard_normal((80, t_count)), 0.0)
        cfg = SolverConfig(schedule=None, c=0.7, sigma_min=0.01)
        want = sl0_solve_batch(ProjectorFactor(a), block, cfg)
        fortran_a, fortran_x = np.asfortranarray(a), np.asfortranarray(block)
        assert fortran_a.flags.f_contiguous and not fortran_a.flags.c_contiguous
        for a_in, x_in in ((fortran_a, block), (a, fortran_x), (fortran_a, fortran_x)):
            got = sl0_solve_batch(ProjectorFactor(a_in), x_in, cfg)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g.estimate, w.estimate)
                assert g.residual_norm == w.residual_norm
                assert [(e.f_total, e.residual_norm) for e in g.trace] == [
                    (e.f_total, e.residual_norm) for e in w.trace
                ]

    def test_threshold_mode_batch(self):
        cfg = SolverConfig(schedule=None, c=0.8, sigma_min=1e-2, mu=2.0, mode="threshold")
        block = np.column_stack([STALL_X, 0.5 * STALL_X])
        reports = sl0_solve_batch(STALL_A, block, cfg)
        for t in range(2):
            single = sl0_solve(STALL_A, block[:, t], cfg)
            np.testing.assert_allclose(reports[t].estimate, single.estimate, atol=1e-12)


    @pytest.mark.parametrize("mode", ["fixed", "threshold"])
    def test_prebuilt_projector_gives_identical_estimates(self, mode, factor_builds):
        """The factor built on the first block, reused for a later block on
        an equal copy of A, and a prebuilt one give identical results."""
        if mode == "fixed":
            rng = np.random.default_rng(23)
            a = unit_column_matrix(rng, 6, 15)
            block = rng.standard_normal((6, 4))
            cfg = SolverConfig()
        else:
            a = STALL_A
            block = np.column_stack([STALL_X, 0.5 * STALL_X])
            cfg = SolverConfig(schedule=None, c=0.8, sigma_min=1e-2, mu=2.0, mode="threshold")
        proj = ProjectorFactor(a)
        for scale, a_given in ((1.0, a), (-2.0, a.copy())):  # one factor serves successive blocks
            own = sl0_solve_batch(a_given, scale * block, cfg)
            shared = sl0_solve_batch(proj, scale * block, cfg)
            for r_own, r_shared in zip(own, shared, strict=True):
                assert np.array_equal(r_own.estimate, r_shared.estimate)
                assert [(e.sigma, e.f_total, e.residual_norm) for e in r_own.trace] == [
                    (e.sigma, e.f_total, e.residual_norm) for e in r_shared.trace
                ]
            single = sl0_solve(a_given, scale * block[:, 0], cfg)
            assert np.array_equal(single.estimate, sl0_solve(proj, scale * block[:, 0], cfg).estimate)
        assert len(factor_builds) == 2  # the prebuilt one and the first block's

    def test_caller_arrays_unchanged(self):
        rng = np.random.default_rng(25)
        a = unit_column_matrix(rng, 6, 15)
        block = rng.standard_normal((6, 4)) * np.array([0.1, 1.0, 10.0, 1.0])
        proj = ProjectorFactor(a)
        saved = a.copy(), block.copy(), proj.matrix.copy()
        for cfg in (SolverConfig(), SolverConfig(schedule=None)):  # one schedule, then sorted columns
            sl0_solve_batch(proj, block, cfg)
            for before, after in zip(saved, (a, block, proj.matrix)):
                assert np.array_equal(before, after)

    def test_recorded_estimates_are_independent_copies(self):
        """Per-level estimates of a block whose columns anneal over different
        numbers of widths match the single solves and share no memory with
        each other or with the final estimates."""
        rng = np.random.default_rng(26)
        a = unit_column_matrix(rng, 6, 15)
        block = rng.standard_normal((6, 4)) * np.array([0.05, 1.0, 20.0, 1.0])
        cfg = SolverConfig(schedule=None, c=0.5, sigma_min=0.01, record_estimates=True)
        reports = sl0_solve_batch(a, block, cfg)
        assert len({len(r.trace) for r in reports}) > 1
        arrays = [r.estimate for r in reports] + [e.estimate for r in reports for e in r.trace]
        for i, first in enumerate(arrays):
            assert not any(np.shares_memory(first, other) for other in arrays[i + 1 :])
        for t, report in enumerate(reports):
            single = sl0_solve(a, block[:, t], cfg)
            assert len(report.trace) == len(single.trace)
            for got, want in zip(report.trace, single.trace):
                assert np.linalg.norm(got.estimate - want.estimate) <= 1e-9

    def test_final_residual_of_mixed_length_blocks(self):
        """Columns finishing at different levels, from auto widths or from
        sweep-style per-column schedules, each get the residual of their own
        final estimate."""
        rng = np.random.default_rng(29)
        a = unit_column_matrix(rng, 20, 50)
        proj = ProjectorFactor(a)
        block = rng.standard_normal((20, 6)) * np.array([0.05, 1.0, 20.0, 0.0, 3.0, 1.0])
        auto = sl0_solve_batch(a, block, SolverConfig(schedule=None, c=0.5, sigma_min=0.01))
        cfgs = [SolverConfig(schedule=None, sigma1=1.0, c=c, sigma_min=0.01) for c in (0.5, 0.8, 0.95)] * 2
        swept = _anneal_block(proj, block, cfgs)
        for reports in (auto, swept):
            assert len({len(r.trace) for r in reports}) >= 3
            for t, report in enumerate(reports):
                x = block[:, t]
                assert report.residual_norm <= 1e-9 * np.linalg.norm(x)
                assert np.linalg.norm(a @ report.estimate - x) <= 1e-9 * np.linalg.norm(x)

    def test_matrix_products_per_block(self, monkeypatch):
        """A stock block costs one product for the start, two per step (7
        widths, 3 steps each) and one for the final residual."""
        rng = np.random.default_rng(30)
        a = unit_column_matrix(rng, 20, 50)
        proj = ProjectorFactor(a)
        block = rng.standard_normal((20, 8))
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        sl0_solve_batch(proj, block)
        assert len(calls) == 1 + 2 * 3 * len(DEFAULT_SCHEDULE) + 1

    def test_second_block_allocates_no_step_temporaries(self):
        """A fixed-mode block on a prebuilt factor peaks below 3.75·m·T
        doubles of new memory: its workspaces, the sample-major iterate,
        step and residual blocks and the copy of the right-hand sides
        ((2m + 2n)·T = 2.8·m·T here), beside the traces it returns
        (≈ 0.75·m·T); all but the iterate block are freed before the
        estimates are copied out. One m×T temporary per step would add m·T."""
        n, m, t_count = 80, 200, 500
        rng = np.random.default_rng(27)
        a = unit_column_matrix(rng, n, m)
        proj = ProjectorFactor(a)
        block = a @ np.where(rng.random((m, t_count)) < 0.1, rng.standard_normal((m, t_count)), 0.0)
        sl0_solve_batch(proj, block)
        tracemalloc.start()
        try:
            sl0_solve_batch(proj, block)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.75 * m * t_count * 8

    @pytest.mark.parametrize("mode", ["fixed", "threshold"])
    def test_engine_needs_no_dense_matrix(self, mode):
        """The engine runs on a factor that offers only ``source_dims``,
        ``min_norm``, ``project`` and ``residual``, and returns the dense
        factor's estimates and residuals, columns finishing at different
        levels included."""

        class MatrixFree:
            def __init__(self, factor):
                self.source_dims = factor.source_dims
                self.min_norm, self.project, self.residual = factor.min_norm, factor.project, factor.residual

        rng = np.random.default_rng(31)
        a = unit_column_matrix(rng, 20, 50)
        proj = ProjectorFactor(a)
        block = a @ np.where(rng.random((50, 6)) < 0.1, rng.standard_normal((50, 6)), 0.0)
        cfgs = [SolverConfig(schedule=None, sigma1=1.0, c=c, mu=2.0, mode=mode) for c in (0.5, 0.8, 0.95)] * 2
        stand_in = MatrixFree(proj)
        assert not hasattr(stand_in, "matrix")
        for got, want in zip(_anneal_block(stand_in, block, cfgs), _anneal_block(proj, block, cfgs), strict=True):
            if isinstance(want, ThresholdUnreachable):
                assert isinstance(got, ThresholdUnreachable) and str(got) == str(want)
                continue
            assert np.array_equal(got.estimate, want.estimate)
            assert got.residual_norm == want.residual_norm
            assert [e.inner_iterations for e in got.trace] == [e.inner_iterations for e in want.trace]


    @pytest.mark.parametrize("mode", ["fixed", "threshold"])
    @pytest.mark.parametrize("t_count", [1, 4])
    def test_factor_in_place_of_matrix(self, mode, t_count, factor_builds):
        """A ``ProjectorFactor`` passed where the matrix goes gives the
        matrix's estimates, traces and residuals bit for bit, and builds
        nothing."""
        rng = np.random.default_rng(32)
        a = unit_column_matrix(rng, 20, 50)
        block = a @ np.where(rng.random((50, t_count)) < 0.06, rng.standard_normal((50, t_count)), 0.0)
        cfg = SolverConfig(schedule=None, c=0.8, sigma_min=0.01, mu=2.0, mode=mode)
        proj = ProjectorFactor(a)
        via_factor = (
            sl0_solve_batch(proj, block, cfg),
            [sl0_solve(proj, block[:, 0], cfg)],
            irls_solve(proj, block[:, 0]),
        )
        assert len(factor_builds) == 1  # the prebuilt one
        via_matrix = (sl0_solve_batch(a, block, cfg), [sl0_solve(a, block[:, 0], cfg)], irls_solve(a, block[:, 0]))
        for got, want in zip(via_factor[:2], via_matrix[:2]):
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g.estimate, w.estimate)
                assert g.residual_norm == w.residual_norm
                assert [(e.sigma, e.f_total, e.residual_norm, e.inner_iterations) for e in g.trace] == [
                    (e.sigma, e.f_total, e.residual_norm, e.inner_iterations) for e in w.trace
                ]
        assert np.array_equal(via_factor[2], via_matrix[2])


class TestFactorReuse:
    """Calls given a matrix build a factor only for one whose contents
    differ from the last one factored."""

    def test_blocks_on_one_matrix_build_once(self, factor_builds):
        rng = np.random.default_rng(25)
        a = unit_column_matrix(rng, 6, 15)
        for _ in range(5):
            sl0_solve_batch(a, rng.standard_normal((6, 3)))
        assert len(factor_builds) == 1

    def test_distinct_matrices_build_each(self, factor_builds):
        rng = np.random.default_rng(26)
        for _ in range(3):
            sl0_solve(unit_column_matrix(rng, 6, 15), rng.standard_normal(6))
        assert len(factor_builds) == 3

    def test_malformed_matrix_after_a_solve_rejected(self):
        """A matrix is validated on a miss: a NaN never equals the kept
        matrix, and neither does an input of another shape."""
        rng = np.random.default_rng(33)
        a = unit_column_matrix(rng, 6, 15)
        x = rng.standard_normal(6)
        sl0_solve(a, x)
        bad = a.copy()
        bad[3, 4] = np.nan
        with pytest.raises(ParseError):
            sl0_solve(bad, x)
        sl0_solve(a, x)
        with pytest.raises(DimensionMismatch):
            sl0_solve(a[0], x)

    def test_one_ulp_change_in_place_refactors(self, factor_builds):
        rng = np.random.default_rng(27)
        a = unit_column_matrix(rng, 40, 100)
        block = rng.standard_normal((40, 5))
        sl0_solve_batch(a, block)
        a[11, 42] = np.nextafter(a[11, 42], -np.inf)
        reports = sl0_solve_batch(a, block)
        assert len(factor_builds) == 2
        estimates = np.column_stack([r.estimate for r in reports])
        rel = np.linalg.norm(a @ estimates - block, axis=0) / np.linalg.norm(block, axis=0)
        assert np.max(rel) <= 1e-9
        single = sl0_solve(a, block[:, 0]).estimate
        assert np.linalg.norm(a @ single - block[:, 0]) <= 1e-9 * np.linalg.norm(block[:, 0])
        assert len(factor_builds) == 2

    def test_rank_deficient_raises_on_every_call(self, factor_builds):
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        for _ in range(3):
            with pytest.raises(RankDeficient):
                sl0_solve(bad, np.array([1.0, 2.0]))
        assert len(factor_builds) == 3
        report = sl0_solve(TINY_A, TINY_X)
        assert np.linalg.norm(TINY_A @ report.estimate - TINY_X) <= 1e-9

    def test_threads_alternating_two_matrices(self):
        """Four threads, more than the cores, take turns with two matrices
        through the one slot; each block gets exactly the estimates of its
        own matrix."""
        rng = np.random.default_rng(28)
        mats = [unit_column_matrix(rng, 6, 15), unit_column_matrix(rng, 6, 15)]
        blocks = [rng.standard_normal((6, 3)), rng.standard_normal((6, 3))]
        expected = [
            np.column_stack([r.estimate for r in sl0_solve_batch(ProjectorFactor(a), x)])
            for a, x in zip(mats, blocks)
        ]
        mismatches = []

        def worker(first):
            for i in range(40):
                which = (first + i) % 2
                try:
                    reports = sl0_solve_batch(mats[which], blocks[which])
                except Exception as exc:  # reported through the assertion below
                    mismatches.append((first, i, repr(exc)))
                    continue
                if not np.array_equal(np.column_stack([r.estimate for r in reports]), expected[which]):
                    mismatches.append((first, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(first % 2,)) for first in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestSigmaFloorNoisy:
    def test_documented_arithmetic(self):
        """Scaled identity-block matrix with unit pseudoinverse norm."""
        n, m = 400, 1000
        a = np.zeros((n, m))
        a[:, :n] = math.sqrt(n) * np.eye(n)
        floor = suggest_sigma_floor_noisy(a, k=100, epsilon=0.01)
        assert floor == pytest.approx(1000 * math.exp(-0.5) * 0.01 * 1.0 / 200, rel=1e-9)
        assert floor == pytest.approx(0.030327, abs=5e-7)

    def test_zero_noise_gives_zero_floor(self):
        a = unit_column_matrix(np.random.default_rng(0), 4, 9)
        assert suggest_sigma_floor_noisy(a, k=1, epsilon=0.0) == 0.0

    def test_pole_as_k_approaches_half_n(self):
        a = np.zeros((10, 20))
        a[:, :10] = np.eye(10)
        floors = [suggest_sigma_floor_noisy(a, k=k, epsilon=0.1) for k in (1, 3, 4)]
        assert floors[0] < floors[1] < floors[2]
        with pytest.raises(TooManyActive):
            suggest_sigma_floor_noisy(a, k=5, epsilon=0.1)


class TestErrorUpperBound:
    def test_sparse_estimate_gives_zero(self):
        rng = np.random.default_rng(30)
        a = unit_column_matrix(rng, 3, 6)
        s_hat = np.zeros(6)
        s_hat[4] = 2.0  # one nonzero <= floor(3/2)
        assert error_upper_bound(a, s_hat) == 0.0

    def test_scaling(self):
        rng = np.random.default_rng(31)
        a = unit_column_matrix(rng, 3, 6)
        s_hat = rng.standard_normal(6)
        assert error_upper_bound(a, 2.0 * s_hat) == pytest.approx(2.0 * error_upper_bound(a, s_hat))

    def test_dominates_true_error(self):
        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            a, s0, x = one_sparse_instance(rng)
            estimate = sl0_solve(a, x, SolverConfig(schedule=None, c=0.8, sigma_min=1e-3)).estimate
            assert error_upper_bound(a, estimate) >= np.linalg.norm(estimate - s0)

    def test_alpha_is_tail_magnitude(self):
        rng = np.random.default_rng(32)
        a = unit_column_matrix(rng, 3, 6)
        s_hat = np.array([5.0, -4.0, 3.0, -2.0, 1.0, 0.5])
        big_m = compute_M(a)
        # alpha is the (floor(n/2)+1)-th magnitude in descending order: 4.0
        assert error_upper_bound(a, s_hat) == pytest.approx((big_m + 1.0) * 6 * 4.0)

    def test_guard(self):
        rng = np.random.default_rng(33)
        with pytest.raises(TooLarge):
            error_upper_bound(rng.standard_normal((10, 50)), np.zeros(50))


class TestIrls:
    def test_zero_rhs(self):
        a = unit_column_matrix(np.random.default_rng(40), 4, 9)
        assert np.all(irls_solve(a, np.zeros(4)) == 0.0)

    def test_identity_block_system(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(irls_solve(a, [3.0, 4.0]), [3.0, 4.0, 0.0], atol=1e-8)

    def test_recovers_one_sparse(self):
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            a, s0, x = one_sparse_instance(rng)
            oracle = sparsest_by_enumeration(a, x)
            np.testing.assert_allclose(oracle, s0, atol=1e-9)
            assert np.linalg.norm(irls_solve(a, x) - oracle) <= 1e-6

    def test_feasible(self):
        rng = np.random.default_rng(41)
        a = unit_column_matrix(rng, 5, 12)
        x = rng.standard_normal(5)
        s = irls_solve(a, x)
        assert np.linalg.norm(a @ s - x) <= 1e-8 * max(1.0, np.linalg.norm(x))


class TestReportCsv:
    def test_row_per_width_plus_summary(self, tmp_path):
        rng = np.random.default_rng(50)
        a = unit_column_matrix(rng, 4, 10)
        report = sl0_solve(a, rng.standard_normal(4))
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "F", "residual", "inner_iters"]
        assert len(rows) == 1 + len(DEFAULT_SCHEDULE) + 1
        assert [float(r[0]) for r in rows[1:-1]] == list(DEFAULT_SCHEDULE)
        assert rows[-1][0] == "total"
        assert int(rows[-1][3]) == 3 * len(DEFAULT_SCHEDULE)
        # 17-significant-digit round trip of the recorded values
        assert float(rows[1][1]) == report.trace[0].f_total
