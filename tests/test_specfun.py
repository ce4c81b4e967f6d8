"""Tests for the special-function layer.

Expected values were computed independently with mpmath at 30 digits
(gamma/besselk closed forms) or follow from exact closed forms of the
nu = 1/2 and nu = 3/2 Matern correlations.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgrf.specfun import MaternParams, bessel_k, matern, matern_d2_at_zero
from oracles import _gl_panel, _tail_integral, matern_cosine_integral


def reference_d2_at_zero(p):
    """M''(0) by the quadrature matern_d2_at_zero once used: the twice
    differentiated cosine representation, split at r = 1 with the tail
    mapped to [0, 1] by v = 1/r."""
    s = p.nu + 0.5
    norm = 2.0 * math.exp(math.lgamma(s) - math.lgamma(p.nu)) / math.sqrt(math.pi)
    head = _gl_panel(lambda r: r * r * (1.0 + r * r) ** (-s), 0.0, 1.0, 64)
    tail = _tail_integral(2.0 * p.nu - 3.0, s)
    return -p.a * p.a * norm * (head + tail)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        assert abs(bessel_k(0.5, 1.0) - 0.461068504447894558) < 1e-12
        assert abs(bessel_k(0.5, 2.0) - 0.119937771968061447) < 1e-12

    def test_three_halves_closed_form(self):
        # K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x)
        assert abs(bessel_k(1.5, 1.0) - 0.922137008895789117) < 1e-12

    def test_relative_error_grid(self):
        for x in np.geomspace(1e-6, 50, 60):
            want = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
            assert abs(bessel_k(0.5, x) - want) <= 1e-9 * want

    def test_array_input(self):
        x = np.array([0.5, 1.0, 2.0])
        out = bessel_k(0.5, x)
        assert out.shape == (3,)
        assert abs(out[1] - 0.461068504447894558) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(0.5, 0.0)
        with pytest.raises(ValueError):
            bessel_k(0.5, -1.0)
        with pytest.raises(ValueError):
            bessel_k(-0.5, 1.0)


class TestMatern:
    def test_unit_at_zero(self):
        for nu, a in [(0.3, 1.0), (0.5, 2.0), (1.5, 0.7), (2.5, 3.0)]:
            assert matern(0.0, MaternParams(nu, a)) == 1.0

    def test_exponential_case(self):
        # nu = 1/2 reduces to exp(-a h)
        p = MaternParams(0.5, 1.0)
        assert abs(matern(1.0, p) - math.exp(-1.0)) < 1e-12
        for h in np.linspace(0.01, 10, 50):
            assert abs(matern(h, p) - math.exp(-h)) <= 1e-9

    def test_three_halves_case(self):
        # nu = 3/2 reduces to exp(-a h)(1 + a h)
        assert abs(matern(0.7, MaternParams(1.5, 2.0)) - 0.591832713459855545) < 1e-12
        p = MaternParams(1.5, 1.3)
        for h in np.linspace(0.01, 10, 50):
            want = math.exp(-1.3 * h) * (1 + 1.3 * h)
            assert abs(matern(h, p) - want) <= 1e-9

    def test_vectorised_matches_scalar(self):
        p = MaternParams(1.2, 0.8)
        h = np.array([0.0, 0.1, 1.0, 7.5])
        out = matern(h, p)
        for i, hi in enumerate(h):
            assert out[i] == matern(float(hi), p)

    @settings(max_examples=60, deadline=None)
    @given(
        nu=st.floats(0.05, 4.0),
        a=st.floats(0.1, 5.0),
        h=st.floats(0.0, 20.0),
    )
    def test_range_property(self, nu, a, h):
        v = matern(h, MaternParams(nu, a))
        assert 0.0 < v <= 1.0

    def test_strictly_decreasing(self):
        h = np.linspace(0.0, 10.0, 200)
        for nu in [0.3, 0.5, 1.2, 2.5]:
            v = matern(h, MaternParams(nu, 1.0))
            assert np.all(np.diff(v) < 0)

    def test_small_lag_expansion_constant(self):
        # (1 - M(h)) / h^(2 nu) -> Gamma(1-nu) / (2^(2 nu) Gamma(1+nu));
        # convergence rate is O(h^(2-2nu)), so test at lags small enough
        # for each smoothness.
        for nu, h in [(0.25, 1e-3), (0.5, 1e-4), (0.75, 1e-6)]:
            c = math.gamma(1 - nu) / (2 ** (2 * nu) * math.gamma(1 + nu))
            ratio = (1.0 - matern(h, MaternParams(nu, 1.0))) / h ** (2 * nu)
            assert abs(ratio - c) <= 0.01 * c


def mp_besselk_matern(nu, x):
    """(K_nu(x), M(x | nu, 1)) at 30 digits, as doubles."""
    with mpmath.workdps(30):
        k = mpmath.besselk(nu, x)
        m = 2 ** (1 - mpmath.mpf(nu)) / mpmath.gamma(nu) * mpmath.mpf(x) ** nu * k
        return float(k), float(m)


def normal_doubles(v):
    return (v >= np.finfo(float).tiny) & (v <= np.finfo(float).max)


class TestKvQuadrature:
    """K_nu by the trapezoid rule on its cosh integral (specfun._scaled_kv)."""

    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.5, 0.75, 1.5, 2.5, 5.0, 10.0, 20.0])
    def test_against_mpmath(self, nu):
        # x log-uniform over matern's live range, from where 1 - M underflows
        # (x^min(2 nu, 2) = e^-45) to 740; relative error wherever the value
        # is a normal double (M is subnormal near 740 at small nu, and K_nu
        # overflows at small x and large nu)
        rng = np.random.default_rng(round(100 * nu))
        x = np.exp(rng.uniform(-45.0 / min(2.0 * nu, 2.0), math.log(740.0), 120))
        want_k, want_m = np.array([mp_besselk_matern(nu, v) for v in x]).T
        for got, want in ((bessel_k(nu, x), want_k), (matern(x, MaternParams(nu, 1.0)), want_m)):
            ok = normal_doubles(want)
            assert ok.sum() >= 60
            assert np.all(np.abs(got[ok] - want[ok]) <= 1e-13 * want[ok])

    @pytest.mark.parametrize("nu", [0.3, 1.5, 20.0, 80.0])
    def test_value_depends_on_the_lag_alone(self, nu):
        # bit for bit: a 2-D array, its scalars, a permutation and a subset
        p = MaternParams(nu, 1.3)
        rng = np.random.default_rng(1)
        h = np.exp(rng.uniform(-30.0, 6.0, (30, 40)))
        h[0, :5] = 0.0
        h[1, :10] = h[2, :10]
        full = matern(h, p)
        assert np.array_equal(full, [[matern(float(v), p) for v in row] for row in h])
        perm = rng.permutation(h.size)
        assert np.array_equal(matern(h.ravel()[perm], p), full.ravel()[perm])
        assert np.array_equal(matern(h.ravel()[perm[:57]], p), full.ravel()[perm[:57]])
        k = bessel_k(nu, h[1:])
        assert np.array_equal(k, [[bessel_k(nu, float(v)) for v in row] for row in h[1:]])

    @pytest.mark.parametrize("nu", [0.02, 0.001])
    def test_lag_zero_at_small_nu(self, nu):
        # below nu = 0.03 the lag where 1 - M underflows is itself below the
        # smallest double, so every positive lag is live and lag 0 is not
        p = MaternParams(nu, 1.0)
        h = np.array([0.0, 5e-324, 1e-300, 1e-3, 1.0])
        got = matern(h, p)
        assert got[0] == 1.0 and matern(0.0, p) == 1.0
        want = np.array([mp_besselk_matern(nu, v)[1] for v in h[1:]])
        assert np.all(np.abs(got[1:] - want) <= 1e-13 * want)

    @pytest.mark.parametrize("nu", [40.0, 80.0])
    def test_finite_where_k_overflows(self, nu):
        # from the smallest live lag e^-22.5 up, K_nu overflows double
        # precision over the first decades, but M stays in [0, 1]
        x = np.geomspace(math.exp(-22.5), 1.0, 60)
        want_k, want_m = np.array([mp_besselk_matern(nu, v) for v in x]).T
        assert np.isinf(want_k[:20]).all()
        got = matern(x, MaternParams(nu, 1.0))
        assert np.all(np.isfinite(got)) and np.all((got >= 0.0) & (got <= 1.0))
        assert np.all(np.abs(got - want_m) <= 1e-12 * want_m)

    def test_memory_is_bounded(self):
        # 10^6 distinct lags in one octave, [1, 2): one work array for all of
        # them would hold 10^6 x 50 nodes, 400 MB. In chunks the peak stays
        # under 16 times the 8 MB of lags (11 times measured, most of it
        # np.unique and whole-array temporaries)
        h = np.linspace(1.0, 2.0, 10**6, endpoint=False)
        tracemalloc.start()
        try:
            matern(h, MaternParams(1.5, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * h.nbytes

    @pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "grid-block"])
    def test_memory_is_bounded_at_millions_of_lags(self, distinct):
        # 4 x 10^6 lags, all distinct or the 2,000 x 2,000 lags of a 1-D
        # grid block: slices of the input bound the temporaries, so the peak
        # is the result and one slice's work, under twice the 32 MB of lags
        if distinct:
            h = np.linspace(1.0, 2.0, 4 * 10**6, endpoint=False)
        else:
            x = np.linspace(0.0, 1.0, 2000)
            h = np.abs(np.subtract.outer(x, x))
        for f, lags in ((lambda v: matern(v, MaternParams(1.5, 1.0)), h),
                        (lambda v: bessel_k(1.5, v), h + 1.0)):
            tracemalloc.start()
            try:
                f(lags)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * h.nbytes


class TestCosineIntegral:
    def test_h_zero_normalisation(self):
        for nu in [0.3, 0.5, 1.0, 2.0]:
            assert abs(matern_cosine_integral(0.0, MaternParams(nu, 1.0)) - 1.0) < 1e-9

    def test_matches_exponential_closed_form(self):
        got = matern_cosine_integral(1.0, MaternParams(0.5, 1.0))
        assert abs(got - math.exp(-1.0)) < 1e-6

    def test_cross_oracle_agreement_grid(self):
        # the acceptance grid, plus a finer tolerance than required
        for nu in [0.3, 0.5, 1.2, 2.5]:
            p = MaternParams(nu, 1.0)
            for h in [0.1, 0.5, 1.0, 2.0, 3.5, 5.0]:
                assert abs(matern(h, p) - matern_cosine_integral(h, p)) <= 1e-9

    def test_nonunit_scale(self):
        p = MaternParams(2.0, 1.7)
        for h in [0.2, 1.0, 3.0]:
            assert abs(matern(h, p) - matern_cosine_integral(h, p)) <= 1e-8


class TestD2AtZero:
    def test_derived_closed_form(self):
        # Beta-integral closed form: M''(0) = -a^2 / (2 (nu - 1))
        assert abs(matern_d2_at_zero(MaternParams(2.0, 1.0)) - (-0.5)) < 1e-10
        assert abs(matern_d2_at_zero(MaternParams(1.5, 1.0)) - (-1.0)) < 1e-10
        assert abs(matern_d2_at_zero(MaternParams(2.0, 2.0)) - (-2.0)) < 1e-10

    def test_closed_form_grid(self):
        # against the quadrature of the cosine representation
        for nu in [1.1, 1.5, 2.0, 3.0, 4.5]:
            for a in [0.5, 1.0, 2.0]:
                p = MaternParams(nu, a)
                want = reference_d2_at_zero(p)
                got = matern_d2_at_zero(p)
                assert abs(got - want) <= 1e-10 * abs(want)
                assert got < 0

    def test_finite_difference_extrapolation(self):
        # centred FD (M(d) - 2 M(0) + M(-d)) / d^2 extrapolated over three
        # halved steps by solving for the d -> 0 limit of D + c1 d + c2 d^2
        for nu in [1.5, 2.0, 3.0]:
            p = MaternParams(nu, 1.0)
            deltas = np.array([1e-2, 5e-3, 2.5e-3])
            fd = np.array(
                [(matern(d, p) - 2.0 + matern(d, p)) / d**2 for d in deltas]
            )
            coef = np.linalg.solve(np.vander(deltas, 3, increasing=True), fd)
            want = matern_d2_at_zero(p)
            assert abs(coef[0] - want) <= 1e-4 * abs(want)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            matern_d2_at_zero(MaternParams(1.0, 1.0))
        with pytest.raises(ValueError):
            matern_d2_at_zero(MaternParams(0.5, 1.0))


class TestParamValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            MaternParams(0.0, 1.0)
        with pytest.raises(ValueError):
            MaternParams(1.0, -1.0)

    @pytest.mark.parametrize("nu, a", [(math.inf, 1.0), (math.nan, 1.0), (0.5, math.inf)])
    def test_non_finite_params(self, nu, a):
        # an infinite nu would send matern's node cutoff loop round forever
        with pytest.raises(ValueError, match="must be finite and > 0"):
            MaternParams(nu, a)

    def test_negative_h(self):
        with pytest.raises(ValueError):
            matern(-0.5, MaternParams(1.0, 1.0))
