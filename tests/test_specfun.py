"""Tests for the special-function layer.

Expected values were computed independently with mpmath at 30 digits
(gamma/besselk closed forms) or follow from exact closed forms of the
nu = 1/2 and nu = 3/2 Matern correlations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgrf.specfun import (
    MaternParams,
    QuadratureError,
    bessel_k,
    gamma_fn,
    matern,
    matern_cosine_integral,
    matern_d2_at_zero,
)
from bgrf.specfun import _gl_panel, _tail_integral

SQRT_PI = 1.7724538509055160273


def reference_d2_at_zero(p):
    """M''(0) by the quadrature matern_d2_at_zero once used: the twice
    differentiated cosine representation, split at r = 1 with the tail
    mapped to [0, 1] by v = 1/r."""
    s = p.nu + 0.5
    norm = 2.0 * math.exp(math.lgamma(s) - math.lgamma(p.nu)) / math.sqrt(math.pi)
    head = _gl_panel(lambda r: r * r * (1.0 + r * r) ** (-s), 0.0, 1.0, 64)
    tail = _tail_integral(2.0 * p.nu - 3.0, s)
    return -p.a * p.a * norm * (head + tail)


class TestGamma:
    def test_trivial_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0

    def test_half(self):
        assert abs(gamma_fn(0.5) - SQRT_PI) < 1e-15 * SQRT_PI

    def test_relative_error_on_range(self):
        # spot-check against the log-gamma route on the contract range
        for x in np.geomspace(1e-3, 50, 40):
            want = math.exp(math.lgamma(x))
            assert abs(gamma_fn(x) - want) <= 1e-12 * want

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.5)


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

    def test_negative_h(self):
        with pytest.raises(ValueError):
            matern(-0.5, MaternParams(1.0, 1.0))
