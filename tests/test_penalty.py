import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl0.errors import NonPositiveSigma
from sl0.penalty import KINDS, PenaltyFamily, family_names

ALL_FAMILIES = [PenaltyFamily(k) for k in KINDS]
SMOOTH_FAMILIES = [PenaltyFamily("gaussian"), PenaltyFamily("rational")]

moderate_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
sigmas = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PenaltyFamily("gauss")


def test_hyperbolic_alias():
    assert PenaltyFamily("hyperbolic").kind == "truncated_hyperbolic"
    assert set(KINDS) < set(family_names())


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
def test_nonpositive_sigma_rejected(fam):
    with pytest.raises(NonPositiveSigma):
        fam.value(1.0, 0.0)
    with pytest.raises(NonPositiveSigma):
        fam.ascent_direction(np.ones(3), -1.0)


class TestClosedForms:
    def test_gaussian(self):
        fam = PenaltyFamily("gaussian")
        for sigma in (0.01, 1.0, 37.5):
            assert fam.value(0.0, sigma) == 1.0
            assert fam.value(sigma, sigma) == pytest.approx(math.exp(-0.5))

    def test_triangular_midpoint(self):
        assert PenaltyFamily("triangular").value(0.5, 1.0) == pytest.approx(0.5)

    def test_hyperbolic_midpoint(self):
        assert PenaltyFamily("truncated_hyperbolic").value(0.5, 1.0) == pytest.approx(0.75)

    def test_rational_at_sigma(self):
        assert PenaltyFamily("rational").value(2.0, 2.0) == pytest.approx(0.5)

    def test_gaussian_direction_at_sigma(self):
        fam = PenaltyFamily("gaussian")
        sigma = 0.7
        assert fam.ascent_direction(sigma, sigma) == pytest.approx(sigma * math.exp(-0.5))
        assert np.all(fam.ascent_direction(np.zeros(4), sigma) == 0.0)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
@settings(max_examples=200, deadline=None)
@given(s=moderate_floats, sigma=sigmas)
def test_range_unit_at_zero_and_even(fam, s, sigma):
    v = float(fam.value(s, sigma))
    assert 0.0 <= v <= 1.0
    assert fam.value(0.0, sigma) == 1.0
    assert v == pytest.approx(float(fam.value(-s, sigma)), abs=1e-15)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
def test_vanishes_as_width_shrinks(fam):
    """Fixed s != 0: the value dies off monotonically once sigma drops well
    below |s|."""
    s = 0.8
    widths = s / 10.0 * 0.9 ** np.arange(12)
    vals = [float(fam.value(s, w)) for w in widths]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_gaussian_small_beyond_quarter():
    fam = PenaltyFamily("gaussian")
    for s in (0.1, 1.0, 40.0):
        assert fam.value(s, s / 4.0) < 0.01


@pytest.mark.parametrize("m", [10, 1000])
def test_gaussian_tail_below_one_over_m(m):
    """Beyond sigma*sqrt(2 ln m) the value drops below 1/m."""
    fam = PenaltyFamily("gaussian")
    sigma = 0.3
    alpha = sigma * math.sqrt(2.0 * math.log(m))
    for s in (alpha * 1.0000001, alpha * 1.1, 2 * alpha, 10 * alpha):
        assert fam.value(s, sigma) < 1.0 / m


class TestTotal:
    def test_zero_vector_sums_to_length(self):
        for fam in ALL_FAMILIES:
            assert fam.total(np.zeros(17), 0.3) == pytest.approx(17.0)

    def test_gaussian_active_entries_vanish(self):
        fam = PenaltyFamily("gaussian")
        m, k, sigma = 30, 7, 0.05
        s = np.zeros(m)
        s[:k] = 10.0 * sigma * np.array([1, -1, 2, 1.5, -3, 1, 4.0])
        total = float(fam.total(s, sigma))
        assert m - k <= total <= m - k + k * math.exp(-50.0)

    def test_complements_nonzero_count(self):
        rng = np.random.default_rng(0)
        m = 40
        s = np.zeros(m)
        support = rng.choice(m, size=9, replace=False)
        s[support] = np.sign(rng.standard_normal(9)) * (0.5 + rng.random(9))
        for kind in ("gaussian", "triangular", "truncated_hyperbolic"):
            assert m - float(PenaltyFamily(kind).total(s, 0.01)) == pytest.approx(9.0, abs=1e-6)
        # the rational family's quadratic tail decays slower
        assert m - float(PenaltyFamily("rational").total(s, 0.01)) == pytest.approx(9.0, abs=1e-2)

    def test_columnwise_axis(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((6, 4))
        sig = np.array([0.5, 1.0, 2.0, 0.1])
        fam = PenaltyFamily("gaussian")
        per_col = fam.total(block, sig, axis=0)
        expected = [fam.total(block[:, t], sig[t]) for t in range(4)]
        np.testing.assert_allclose(per_col, expected, rtol=1e-14)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
@pytest.mark.parametrize("per_column", [False, True], ids=["scalar_sigma", "column_sigma"])
def test_out_gives_the_allocating_values(fam, per_column):
    """value, total and ascent_direction written into ``out`` (here a
    leading slice of a wider block, as the solver passes it) equal the
    allocating call bit for bit, kinks and zeros included."""
    rng = np.random.default_rng(3)
    sig = rng.uniform(0.05, 2.0, 5) if per_column else 0.7
    s = rng.standard_normal((40, 5))
    s[:4] = 0.0
    s[4:8] = np.broadcast_to(sig, (4, 5))
    s[8:12] = -s[4:8]
    for method in (fam.value, fam.ascent_direction):
        out = np.full((40, 9), np.nan)[:, :5]
        assert method(s, sig, out=out) is out
        assert out.tobytes() == method(s, sig).tobytes()
    scratch = np.empty((40, 5))
    for axis in (None, 0):
        assert fam.total(s, sig, axis=axis, out=scratch).tobytes() == fam.total(s, sig, axis=axis).tobytes()


def fd_gradient_of_total(fam: PenaltyFamily, s: np.ndarray, sigma: float) -> np.ndarray:
    h = 1e-5 * sigma
    grad = np.zeros_like(s)
    for i in range(s.size):
        e = np.zeros_like(s)
        e[i] = h
        grad[i] = (fam.total(s + e, sigma) - fam.total(s - e, sigma)) / (2.0 * h)
    return grad


@pytest.mark.parametrize("fam", SMOOTH_FAMILIES, ids=lambda f: f.kind)
def test_direction_matches_finite_differences(fam):
    """-direction/sigma^2 equals the gradient of the total, checked at 1000
    random points against central differences."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        sigma = float(10.0 ** rng.uniform(-1, 1))
        s = rng.uniform(-3.0 * sigma, 3.0 * sigma, size=6)
        exact = fam.ascent_direction(s, sigma)
        fd = -sigma * sigma * fd_gradient_of_total(fam, s, sigma)
        np.testing.assert_allclose(exact, fd, rtol=1e-5, atol=1e-8 * sigma)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
def test_direction_vanishes_at_kinks_and_origin(fam):
    sigma = 1.3
    assert fam.ascent_direction(0.0, sigma) == 0.0
    if not fam.is_smooth:
        assert fam.ascent_direction(sigma, sigma) == 0.0
        assert fam.ascent_direction(-sigma, sigma) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    sigma=sigmas,
    mu=st.floats(min_value=1e-6, max_value=1.0),
)
def test_gaussian_step_shrinks_magnitudes(s, sigma, mu):
    """One step s - mu*direction with mu in (0, 1] strictly shrinks |s|,
    within the range where mu times the shrink weight stays above roundoff."""
    assume(1e-100 <= abs(s) <= 5.0 * sigma)
    fam = PenaltyFamily("gaussian")
    stepped = s - mu * float(fam.ascent_direction(s, sigma))
    assert abs(stepped) < abs(s)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.kind)
def test_derivative_bound_scale(fam):
    """max_s |d/ds value| equals derivative_bound / sigma."""
    sigma = 0.37
    s = np.linspace(-6.0 * sigma, 6.0 * sigma, 60001)
    grad = -np.asarray(fam.ascent_direction(s, sigma)) / sigma**2
    observed = float(np.max(np.abs(grad))) * sigma
    assert observed <= fam.derivative_bound + 1e-9
    assert observed == pytest.approx(fam.derivative_bound, rel=1e-3)


def test_gaussian_derivative_bound_value():
    assert PenaltyFamily("gaussian").derivative_bound == pytest.approx(math.exp(-0.5))
