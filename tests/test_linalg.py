import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frobenius_left_inverse_norm, max_left_inverse_norm, unit_column_matrix
from sl0.errors import DimensionMismatch, NotURP, ParseError, RankDeficient, TooLarge
import sl0.linalg
from sl0.linalg import (
    ProjectorFactor,
    _factor_of,
    check_urp,
    compute_M,
    load_matrix,
    load_vector,
    min_norm_solution,
    save_matrix,
    save_vector,
)

RESIDUAL_TOL = 1e-8


class TestMinNormSolution:
    def test_zero_rhs_gives_zero(self):
        a = unit_column_matrix(np.random.default_rng(0), 4, 9)
        assert np.all(min_norm_solution(a, np.zeros(4)) == 0.0)

    def test_identity_block(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(min_norm_solution(a, [3.0, 4.0]), [3.0, 4.0, 0.0], atol=1e-14)

    def test_against_explicit_inverse_oracle(self):
        a = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        x = np.array([1.0, 0.0])
        g = a @ a.T
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
        expected = a.T @ g_inv @ x
        np.testing.assert_allclose(min_norm_solution(a, x), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_contract(self, seed):
        rng = np.random.default_rng(seed)
        a = unit_column_matrix(rng, 7, 15)
        x = rng.standard_normal(7) * 10.0 ** rng.integers(-3, 4)
        s_hat = min_norm_solution(a, x)
        assert np.linalg.norm(a @ s_hat - x) <= RESIDUAL_TOL * max(1.0, np.linalg.norm(x))

    def test_orthogonal_to_null_space(self):
        rng = np.random.default_rng(1)
        a = unit_column_matrix(rng, 5, 12)
        s_hat = min_norm_solution(a, rng.standard_normal(5))
        basis = scipy.linalg.null_space(a)
        for _ in range(100):
            v = basis @ rng.standard_normal(basis.shape[1])
            assert abs(v @ s_hat) <= 1e-8 * np.linalg.norm(v) * np.linalg.norm(s_hat)

    def test_minimal_among_feasible(self):
        rng = np.random.default_rng(2)
        a = unit_column_matrix(rng, 5, 12)
        x = rng.standard_normal(5)
        s_hat = min_norm_solution(a, x)
        proj = ProjectorFactor(a)
        for _ in range(100):
            s = proj.project(rng.standard_normal(12) * 3.0, x)
            assert np.linalg.norm(s_hat) <= np.linalg.norm(s) + 1e-12

    def test_dimension_mismatch(self):
        a = unit_column_matrix(np.random.default_rng(0), 4, 9)
        with pytest.raises(DimensionMismatch):
            min_norm_solution(a, np.zeros(5))


class TestProjectorFactor:
    @pytest.mark.parametrize("n,m", [(3, 8), (20, 45), (50, 80)])
    def test_apply_matches_explicit_inverse(self, n, m):
        rng = np.random.default_rng(n * m)
        a = unit_column_matrix(rng, n, m)
        proj = ProjectorFactor(a)
        explicit = a.T @ np.linalg.inv(a @ a.T)
        v = rng.standard_normal(n)
        got = proj.min_norm(v)
        assert np.linalg.norm(got - explicit @ v) <= 1e-10 * np.linalg.norm(explicit @ v)

    @pytest.mark.parametrize(
        "s_shape,x_shape",
        [((9,), (1,)), ((9,), (5,)), ((9,), (4, 1)), ((9, 3), (4,)), ((9, 3), (4, 2)), ((9, 3), (1, 3)), ((8,), (4,))],
    )
    @pytest.mark.parametrize("method", ["project", "residual"])
    def test_operands_not_fitting_a_rejected(self, method, s_shape, x_shape):
        """``project`` and ``residual`` take a point with m rows and a
        right-hand side shaped like A·s; a length-1 ``x`` is not broadcast."""
        proj = ProjectorFactor(unit_column_matrix(np.random.default_rng(3), 4, 9))
        with pytest.raises(DimensionMismatch):
            getattr(proj, method)(np.ones(s_shape), np.ones(x_shape))

    @pytest.mark.parametrize("x_shape", [(3,), (5,), (3, 2), (4, 2, 1), ()])
    def test_min_norm_rejects_wrong_rows(self, x_shape):
        proj = ProjectorFactor(unit_column_matrix(np.random.default_rng(3), 4, 9))
        with pytest.raises(DimensionMismatch):
            proj.min_norm(np.ones(x_shape))

    @pytest.mark.parametrize("t_count", [None, 1, 5])
    def test_residual_into_out_is_bit_identical(self, t_count):
        rng = np.random.default_rng(4)
        a = unit_column_matrix(rng, 6, 14)
        proj = ProjectorFactor(a)
        shape = () if t_count is None else (t_count,)
        s, x = rng.standard_normal((14, *shape)), rng.standard_normal((6, *shape))
        out = np.empty((6, *shape))
        fresh = proj.residual(s, x)
        assert proj.residual(s, x, out=out) is out
        assert np.array_equal(out, fresh)
        assert np.array_equal(fresh, a @ s - x)

    def test_rejects_rank_deficient(self):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with pytest.raises(RankDeficient):
            ProjectorFactor(a)

    def test_rejects_tall_matrix(self):
        with pytest.raises(RankDeficient):
            ProjectorFactor(np.eye(3)[:, :2])

    def test_rejects_nearly_singular(self):
        a = np.array([[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]])
        with pytest.raises(RankDeficient):
            ProjectorFactor(a)

    def test_condition_estimate_close_to_true(self):
        rng = np.random.default_rng(7)
        a = unit_column_matrix(rng, 6, 14)
        proj = ProjectorFactor(a)
        true_cond = np.linalg.cond(a @ a.T, 1)
        assert 0.1 * true_cond <= proj.condition_estimate <= 10 * true_cond

    def test_pinv_frobenius_norm(self):
        rng = np.random.default_rng(8)
        a = unit_column_matrix(rng, 5, 11)
        expected = np.linalg.norm(a.T @ np.linalg.inv(a @ a.T))
        assert ProjectorFactor(a).pinv_frobenius_norm() == pytest.approx(expected, rel=1e-12)


class TestExactCondition:
    """``condition_estimate`` is the exact κ₁ = ‖A·Aᵀ‖₁·‖(A·Aᵀ)⁻¹‖₁, and the
    cutoff rejects on it."""

    def test_equals_numpy_one_norm_condition(self):
        a = unit_column_matrix(np.random.default_rng(90), 40, 100)
        expected = np.linalg.cond(a @ a.T, 1)
        assert ProjectorFactor(a).condition_estimate == pytest.approx(expected, rel=1e-9)

    @staticmethod
    def diagonal_system(kappa):
        """A = [diag(d) | 0] with Gram diag(d²), so κ₁ = max d² / min d² = kappa."""
        d = np.array([1.0, np.sqrt(kappa), 2.0])
        return np.hstack([np.diag(d), np.zeros((3, 4))])

    def test_builds_just_below_cutoff(self):
        a = self.diagonal_system(5e11)
        proj = ProjectorFactor(a)
        assert proj.condition_estimate == pytest.approx(5e11, rel=1e-12)
        x = np.array([1.0, 2.0, 3.0])
        expected = np.concatenate([x / np.diag(a), np.zeros(4)])
        np.testing.assert_allclose(proj.min_norm(x), expected, rtol=1e-12, atol=0.0)

    def test_rejects_just_above_cutoff(self):
        with pytest.raises(RankDeficient, match="condition number"):
            ProjectorFactor(self.diagonal_system(2e12))

    def test_rejects_overflowing_gram(self):
        """Finite entries whose Gram overflows to inf and NaN must not slip
        past the cutoff, whichever way the inversion treats them."""
        a = np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 0.0]])
        with np.errstate(all="ignore"), pytest.raises(RankDeficient):
            ProjectorFactor(a)


def test_import_loads_no_scipy():
    """The package and its CLI run on numpy alone: importing them loads no
    scipy module (and so no second BLAS thread pool)."""
    src = Path(sl0.linalg.__file__).resolve().parents[1]
    code = (
        "import sys, sl0, sl0.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestPrecomputedPseudoinverse:
    """The projector against numpy's SVD pseudoinverse, on vectors and on
    blocks of right-hand sides."""

    @pytest.mark.parametrize("n,m", [(5, 12), (40, 100), (120, 300)])
    @pytest.mark.parametrize("t", [None, 1, 10])
    def test_matches_numpy_pinv(self, n, m, t):
        rng = np.random.default_rng(n * m + (t or 0))
        a = unit_column_matrix(rng, n, m)
        proj = ProjectorFactor(a)
        pinv = np.linalg.pinv(a)
        tail = () if t is None else (t,)
        x = rng.standard_normal((n, *tail))
        s = 3.0 * rng.standard_normal((m, *tail))

        got = proj.min_norm(x)
        expected = pinv @ x
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

        got = proj.project(s, x)
        expected = s - pinv @ (a @ s - x)
        assert got.shape == s.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("t", [None, 10])
    def test_idempotent(self, t):
        rng = np.random.default_rng(31)
        a = unit_column_matrix(rng, 40, 100)
        proj = ProjectorFactor(a)
        tail = () if t is None else (t,)
        x = rng.standard_normal((40, *tail))
        once = proj.project(5.0 * rng.standard_normal((100, *tail)), x)
        twice = proj.project(once, x)
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(once)

    @pytest.mark.parametrize("t", [None, 1, 10])
    def test_out_gives_the_allocating_values(self, t):
        """min_norm into ``out`` and project in place on a leading slice of a
        wider block, with ``out`` and ``residual`` slices too, as the solver
        runs them, equal the allocating calls exactly."""
        rng = np.random.default_rng(33)
        a = unit_column_matrix(rng, 40, 100)
        proj = ProjectorFactor(a)
        tail = () if t is None else (t,)
        x = rng.standard_normal((40, *tail))
        s = 3.0 * rng.standard_normal((100, *tail))

        def lead(rows):
            return np.full((rows, 13), np.nan)[:, :t] if t else np.full(rows, np.nan)

        out = lead(100)
        assert proj.min_norm(x, out=out) is out
        assert np.array_equal(out, proj.min_norm(x))

        expected = proj.project(s, x)
        point, step, residual = lead(100), lead(100), lead(40)
        point[...] = s
        assert proj.project(point, x, out=step, residual=residual) is point
        assert np.array_equal(point, expected)
        assert np.array_equal(s - step, expected)
        assert np.array_equal(residual, a @ s - x)

    @pytest.mark.parametrize("n,m", [(40, 100), (400, 1000)])
    @pytest.mark.parametrize("t", [1, 3, 10])
    def test_sample_major_views_give_the_allocating_values(self, n, m, t):
        """min_norm, residual and project on the F-ordered transposes of the
        leading rows of C-ordered T×m (T×n) arrays, the solver's sample-major
        blocks, with ``out`` and ``residual`` views of the same kind, equal
        their allocating calls. ``residual`` does so bit for bit at every
        shape. The products with A⁺ into an F-ordered ``out`` take BLAS's
        other operand order: OpenBLAS rounds the two orders alike at n = 400
        (bit for bit here) but not at every n (n = 40 agrees to rounding)."""
        rng = np.random.default_rng(35)
        a = unit_column_matrix(rng, n, m)
        proj = ProjectorFactor(a)

        def rows(length, values=None):
            block = np.full((13, length), np.nan)[:t].T
            if values is not None:
                block[...] = values
            return block

        def assert_matches(got, want):
            if n == 400:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

        x, s = rows(n, rng.standard_normal((n, t))), rows(m, 3.0 * rng.standard_normal((m, t)))
        assert x.flags.f_contiguous and s.flags.f_contiguous
        out = rows(m)
        assert proj.min_norm(x, out=out) is out
        assert_matches(out, proj.min_norm(x))
        out = rows(n)
        assert proj.residual(s, x, out=out) is out
        assert np.array_equal(out, proj.residual(s, x))
        expected = proj.project(s, x)
        point, step, residual = rows(m, s), rows(m), rows(n)
        assert proj.project(point, x, out=step, residual=residual) is point
        assert_matches(point, expected)
        assert np.array_equal(s - step, point)
        assert np.array_equal(residual, proj.residual(s, x))

    def test_feasible_on_ill_conditioned_matrix(self):
        """A·Aᵀ condition near 1e10, two decades under the cutoff: the
        minimum-norm solution and projections still meet A·s = x to 1e-9."""
        rng = np.random.default_rng(32)
        n, m = 40, 100
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((m, n)))
        a = (u * np.logspace(0.0, -5.0, n)) @ v.T
        proj = ProjectorFactor(a)
        assert 1e9 <= proj.condition_estimate <= 1e11
        x = rng.standard_normal((n, 10))
        for s in (proj.min_norm(x), proj.project(10.0 * rng.standard_normal((m, 10)), x)):
            rel = np.linalg.norm(a @ s - x, axis=0) / np.linalg.norm(x, axis=0)
            assert np.max(rel) <= 1e-9


class TestFactorCache:
    """The one-slot factor cache is keyed on the matrix contents."""

    def test_equal_contents_hit(self, factor_builds):
        a = unit_column_matrix(np.random.default_rng(40), 6, 15)
        first = _factor_of(a)
        assert _factor_of(a.copy()) is first
        assert _factor_of(a.tolist()) is first
        assert len(factor_builds) == 1

    def test_one_ulp_change_in_place_misses(self, factor_builds):
        rng = np.random.default_rng(41)
        a = unit_column_matrix(rng, 6, 15)
        first = _factor_of(a)
        a[2, 7] = np.nextafter(a[2, 7], np.inf)
        second = _factor_of(a)
        assert second is not first
        assert np.array_equal(second.matrix, a)
        assert len(factor_builds) == 2
        x = rng.standard_normal(6)
        s = min_norm_solution(a, x)
        assert np.linalg.norm(a @ s - x) <= 1e-9 * np.linalg.norm(x)

    def test_rank_deficient_leaves_nothing_to_hit(self, factor_builds):
        good = unit_column_matrix(np.random.default_rng(42), 2, 3)
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        _factor_of(good)
        for _ in range(2):
            with pytest.raises(RankDeficient):
                _factor_of(bad)
            assert sl0.linalg._last_factor is None
        assert np.array_equal(_factor_of(good).matrix, good)
        assert len(factor_builds) == 4

    def test_previous_factor_released_before_build(self, monkeypatch):
        rng = np.random.default_rng(43)
        monkeypatch.setattr(sl0.linalg, "_last_factor", None)
        previous = weakref.ref(_factor_of(unit_column_matrix(rng, 6, 15)))
        alive_during_build = []
        original = ProjectorFactor.__init__

        def recording_init(self, a):
            alive_during_build.append(previous() is not None)
            original(self, a)

        monkeypatch.setattr(ProjectorFactor, "__init__", recording_init)
        _factor_of(unit_column_matrix(rng, 6, 15))
        assert alive_during_build == [False]
        assert previous() is None


class TestProjectFeasible:
    def test_fixes_feasible_points(self):
        rng = np.random.default_rng(3)
        a = unit_column_matrix(rng, 5, 12)
        proj = ProjectorFactor(a)
        s = rng.standard_normal(12)
        x = a @ s
        np.testing.assert_allclose(proj.project(s, x), s, atol=1e-12)

    def test_projection_of_origin_is_min_norm(self):
        rng = np.random.default_rng(4)
        a = unit_column_matrix(rng, 5, 12)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(
            ProjectorFactor(a).project(np.zeros(12), x),
            min_norm_solution(a, x),
            atol=1e-13,
        )

    def test_against_explicit_formula_oracle(self):
        rng = np.random.default_rng(5)
        a = unit_column_matrix(rng, 5, 12)
        proj = ProjectorFactor(a)
        s = rng.standard_normal(12)
        x = rng.standard_normal(5)
        expected = s - a.T @ np.linalg.inv(a @ a.T) @ (a @ s - x)
        got = proj.project(s, x)
        assert np.linalg.norm(got - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        a = unit_column_matrix(rng, 5, 12)
        proj = ProjectorFactor(a)
        x = rng.standard_normal(5)
        once = proj.project(rng.standard_normal(12) * 5.0, x)
        twice = proj.project(once, x)
        assert np.linalg.norm(twice - once) <= 1e-10

    def test_feasibility_after_projection(self):
        rng = np.random.default_rng(7)
        a = unit_column_matrix(rng, 5, 12)
        proj = ProjectorFactor(a)
        x = rng.standard_normal(5)
        s = proj.project(rng.standard_normal(12), x)
        assert np.linalg.norm(a @ s - x) <= RESIDUAL_TOL * max(1.0, np.linalg.norm(x))


class TestCheckUrp:
    def test_identity(self):
        assert check_urp(np.eye(2)) is True

    def test_duplicate_columns(self):
        assert check_urp(np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 3.0]])) is False

    @pytest.mark.parametrize("seed", range(10))
    def test_random_gaussian_matches_rank_oracle(self, seed):
        from itertools import combinations

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 6))
        oracle = all(
            np.linalg.matrix_rank(a[:, list(cols)]) == 3 for cols in combinations(range(6), 3)
        )
        assert check_urp(a) is oracle is True

    def test_too_many_columns(self):
        with pytest.raises(TooLarge):
            check_urp(np.random.default_rng(0).standard_normal((3, 25)))


class TestComputeM:
    def test_identity_2x2(self):
        # subsets {1}, {2}, {1,2} have left-inverse norms 1, 1, sqrt(2)
        assert compute_M(np.eye(2)) == pytest.approx(np.sqrt(2.0))

    def test_inverse_scaling(self):
        assert compute_M(2.0 * np.eye(2)) == pytest.approx(compute_M(np.eye(2)) / 2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration_oracle(self, seed):
        a = unit_column_matrix(np.random.default_rng(seed), 3, 6)
        assert compute_M(a) == pytest.approx(max_left_inverse_norm(a), rel=1e-9)

    def test_not_urp(self):
        with pytest.raises(NotURP):
            compute_M(np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 3.0]]))

    def test_guard(self):
        with pytest.raises(TooLarge):
            compute_M(np.random.default_rng(0).standard_normal((10, 50)))


def test_null_space_norm_bound():
    """Any null vector with at most n entries above alpha has norm below
    (M+1)·m·alpha."""
    rng = np.random.default_rng(11)
    a = unit_column_matrix(rng, 3, 6)
    big_m = compute_M(a)
    basis = scipy.linalg.null_space(a)
    for _ in range(100):
        v = basis @ rng.standard_normal(basis.shape[1])
        alpha = np.sort(np.abs(v))[::-1][3]  # (n+1)-th largest
        assert np.linalg.norm(v) < (big_m + 1.0) * 6 * alpha


def test_left_inverse_norm_oracle_self_check():
    # the normal-equation identity the oracle relies on
    sub = np.random.default_rng(12).standard_normal((5, 3))
    assert frobenius_left_inverse_norm(sub) == pytest.approx(np.linalg.norm(np.linalg.pinv(sub)), rel=1e-10)


class TestTextFormat:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 7)) * 10.0 ** rng.integers(-200, 200, size=(4, 7))
        path = tmp_path / "a.mat"
        save_matrix(path, a)
        np.testing.assert_array_equal(load_matrix(path), a)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=12,
        )
    )
    def test_vector_round_trip_exact(self, values):
        import os
        import tempfile

        fd, path = tempfile.mkstemp()
        os.close(fd)
        try:
            save_vector(path, values)
            np.testing.assert_array_equal(load_vector(path), np.asarray(values, dtype=float))
        finally:
            os.unlink(path)

    def test_header_line(self, tmp_path):
        path = tmp_path / "a.mat"
        save_matrix(path, np.ones((2, 3)))
        assert path.read_text().splitlines()[0] == "2 3"

    def test_file_bytes(self, tmp_path):
        """Space-separated rows of 17 significant digits, one newline each."""
        path = tmp_path / "a.mat"
        save_matrix(path, [[0.1, -2.0, 1e-300], [3.0, 0.0, -0.0]])
        assert path.read_bytes() == b"2 3\n0.10000000000000001 -2 1e-300\n3 0 -0\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1 2\n3 4\n",
            "2 2\n1 2\n",
            "2 2\n1 2 3\n4 5\n",
            "2 2\n1 x\n3 4\n",
            "2 2\n1 nan\n3 4\n",
            "-1 2\n",
            "2 2\n1 2\n3 4\n5 6\n",
            "2 2\n# 1 2\n3 4\n",
            "2 2\n1,2\n3 4\n",
        ],
    )
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_vector_requires_single_column(self, tmp_path):
        path = tmp_path / "a.mat"
        save_matrix(path, np.ones((2, 2)))
        with pytest.raises(ParseError):
            load_vector(path)
