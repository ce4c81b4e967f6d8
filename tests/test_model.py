"""Tests for the bivariate Matern model layer.

Hand values: the equal-scale bound for (0.5, 0.5, 1.5, N=1) is
Gamma(1)^2/Gamma(0.5)^2 * Gamma(1.5)^2/Gamma(2)^2 = (1/pi)(pi/4) = 1/4;
the general bound for a12 = 2 has infimand (4+t^2)^4/(1+t^2)^2 minimised
at t = sqrt(2) giving 144, so the bound is (1/4)(1/64)(144) = 9/16.
c(0.25) = 0.955977594972250 was computed with mpmath at 30 digits.

reference_validity_bound is the numerical search validity_bound once used
(a 1,024-point scan of the compactified variable, then golden-section
refinement); it is kept as an independent oracle for the stationary-point
solution that replaced it.
"""

import math

import numpy as np
import pytest

from bgrf.asymptotics import tail_asymptotic
from bgrf.fields import DomainPair, GridSpec, Rect
from bgrf.model import (
    AssumptionReport,
    BivariateMaternModel,
    LocalExpansion,
    UnsupportedModelError,
    check_assumptions,
    cross_corr,
    expansion_coefficient,
    local_expansion,
    validity_bound,
)
from bgrf.montecarlo import field_maxima
from oracles import validity_bound_equal_scale


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def reference_validity_bound(nu1, nu2, nu12, a1, a2, a12, N):
    tail_exponent = 2.0 * nu12 - nu1 - nu2
    if tail_exponent < 0.0:
        return 0.0

    def g(theta):
        t2 = np.tan(0.5 * math.pi * np.asarray(theta)) ** 2
        return (
            (2.0 * nu12 + N) * np.log(a12 * a12 + t2)
            - (nu1 + N / 2.0) * np.log(a1 * a1 + t2)
            - (nu2 + N / 2.0) * np.log(a2 * a2 + t2)
        )

    thetas = np.linspace(0.0, 1.0, 1025)[:-1]
    vals = g(thetas)
    i = int(np.argmin(vals))
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, len(thetas) - 1)] if i + 1 < len(thetas) else 1.0 - 1e-9
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    gc, gd = float(g(c)), float(g(d))
    while hi - lo > 1e-13:
        if gc < gd:
            hi, d, gd = d, c, gc
            c = hi - _GOLDEN * (hi - lo)
            gc = float(g(c))
        else:
            lo, c, gc = c, d, gd
            d = lo + _GOLDEN * (hi - lo)
            gd = float(g(d))
    log_min = min(float(vals[i]), gc, gd)
    if tail_exponent == 0.0:
        log_min = min(log_min, 0.0)
    log_gamma = (
        math.lgamma(nu1 + N / 2.0)
        + math.lgamma(nu2 + N / 2.0)
        - math.lgamma(nu1)
        - math.lgamma(nu2)
        + 2.0 * math.lgamma(nu12)
        - 2.0 * math.lgamma(nu12 + N / 2.0)
    )
    log_scale = (
        2.0 * nu1 * math.log(a1) + 2.0 * nu2 * math.log(a2) - 4.0 * nu12 * math.log(a12)
    )
    return math.exp(log_gamma + log_scale + log_min)


def standard_model(**kw):
    base = dict(nu1=0.5, nu2=0.5, nu12=1.5, rho=0.4, dim_N=1)
    base.update(kw)
    return BivariateMaternModel(**base)


class TestValidityBound:
    def test_all_equal_cancels(self):
        for nu, a, N in [(0.7, 1.0, 1), (1.3, 2.5, 2), (0.4, 0.3, 3)]:
            assert abs(validity_bound(nu, nu, nu, a, a, a, N) - 1.0) < 1e-9

    def test_hand_value(self):
        assert abs(validity_bound(0.5, 0.5, 1.5, 1, 1, 1, 1) - 0.25) < 1e-12

    def test_unequal_scale_exact_value(self):
        # infimum at t = sqrt(2); exact bound 9/16
        got = validity_bound(0.5, 0.5, 1.5, 1, 1, 2, 1)
        assert abs(got - 0.5625) < 1e-9 * 0.5625

    def test_brute_force_oracle(self):
        # independent oracle: dense grid minimisation of the raw infimand
        t = np.linspace(0.0, 1e3, 10**6)
        f = (4.0 + t * t) ** 4 / (1.0 + t * t) ** 2
        want = (0.25) * (1.0 / 64.0) * f.min()
        got = validity_bound(0.5, 0.5, 1.5, 1, 1, 2, 1)
        assert abs(got - want) <= 1e-6 * want

    def test_equal_scale_closed_form(self):
        assert abs(validity_bound_equal_scale(0.5, 0.5, 1.5, 1) - 0.25) < 1e-14
        for nu, N in [(0.7, 1), (0.7, 2), (1.2, 3)]:
            assert abs(validity_bound_equal_scale(nu, nu, nu, N) - 1.0) < 1e-14

    def test_cross_agreement_on_grid(self):
        # general bound with unit scales must equal the closed form
        grid = [
            (nu1, nu2, nu12, N)
            for nu1 in (0.25, 0.5, 0.9)
            for nu2 in (0.4, 0.75)
            for nu12 in (1.2, 1.8)
            for N in (1, 2)
        ]
        assert len(grid) >= 20
        for nu1, nu2, nu12, N in grid:
            a = validity_bound(nu1, nu2, nu12, 1.0, 1.0, 1.0, N)
            b = validity_bound_equal_scale(nu1, nu2, nu12, N)
            assert abs(a - b) <= 1e-9 * b

    def test_degenerate_tail_infimum(self):
        # 2 nu12 < nu1 + nu2 pushes the infimum to zero at t = infinity
        assert validity_bound(0.9, 0.9, 0.5, 1, 1, 1, 1) == 0.0

    @pytest.mark.parametrize("nu1, nu2, nu12, N", [(0.5, 0.5, 0.3, 1), (0.5, 0.9, 0.6, 2)])
    def test_equal_scale_outside_its_regime(self, nu1, nu2, nu12, N):
        # 2 nu12 < nu1 + nu2 forces rho = 0 at every scale, the closed form too
        assert validity_bound(nu1, nu2, nu12, 1.0, 1.0, 1.0, N) == 0.0
        assert validity_bound_equal_scale(nu1, nu2, nu12, N) == 0.0

    def test_matches_search_on_random_sweep(self):
        rng = np.random.default_rng(20100901)
        positive = 0
        for _ in range(2400):
            nu1, nu2 = rng.uniform(0.05, 3.0, 2)
            nu12 = rng.uniform(0.05, 4.0)
            a1, a2, a12 = np.exp(rng.uniform(-2.0, 2.0, 3))
            N = int(rng.integers(1, 4))
            args = (nu1, nu2, nu12, a1, a2, a12, N)
            got, want = validity_bound(*args), reference_validity_bound(*args)
            if want == 0.0:
                assert got == 0.0, args
            else:
                positive += 1
                assert abs(got - want) <= 1e-12 * want, args
        assert positive >= 1000

    @pytest.mark.parametrize("scales", [
        (1.0, 1.0, 1.0),    # infimand constant in t
        (1.0, 1.0, 2.0),    # infimand falls to its limit at t = infinity
        (1.0, 1.0, 0.5),    # infimum at t = 0
        (0.3, 2.5, 1.0),    # interior stationary point
    ])
    def test_boundary_tail_exponent(self, scales):
        # 2 nu12 = nu1 + nu2 exactly: the infimand tends to 1 at infinity
        nu1, nu2, nu12 = 0.5, 0.7, 0.6
        assert 2.0 * nu12 - nu1 - nu2 == 0.0
        args = (nu1, nu2, nu12, *scales, 1)
        want = reference_validity_bound(*args)
        assert abs(validity_bound(*args) - want) <= 1e-12 * want


class TestLocalExpansion:
    def test_alpha_exact_and_c_half(self):
        e = local_expansion(standard_model())
        assert e.alpha1 == 1.0 and e.alpha2 == 1.0
        assert abs(e.c1 - 1.0) < 1e-14  # Gamma(1/2)/(2 Gamma(3/2)) = 1
        assert e.rho == 0.4
        assert e.dim_N == 1

    def test_c_quarter(self):
        assert abs(expansion_coefficient(0.25) - 0.955977594972250) < 1e-12

    def test_r2_zero_example(self):
        e = local_expansion(standard_model(nu12=2.0, rho=0.5, nu1=0.4, nu2=0.4))
        assert abs(e.r2_zero - (-0.25)) < 1e-9

    def test_c_matches_small_lag_fit(self):
        # empirical small-lag fit from the specfun layer within 1%
        from bgrf.specfun import MaternParams, matern

        for nu, h in [(0.25, 1e-3), (0.5, 1e-4), (0.75, 1e-6)]:
            fit = (1.0 - matern(h, MaternParams(nu, 1.0))) / h ** (2 * nu)
            assert abs(fit - expansion_coefficient(nu)) <= 0.01 * fit

    def test_rejects_non_standardized(self):
        with pytest.raises(UnsupportedModelError, match="sigma"):
            local_expansion(standard_model(sigma1=2.0))
        with pytest.raises(UnsupportedModelError, match="nu12"):
            local_expansion(standard_model(nu12=0.8))
        with pytest.raises(UnsupportedModelError, match="nu1, nu2"):
            local_expansion(standard_model(nu1=1.5))

    def test_any_scale_is_accepted(self):
        # c_i = c(nu_i) a_i^(2 nu_i), r''(0) = rho M''(0 | nu12, a12)
        e = local_expansion(standard_model(a1=2.0, a2=0.5, a12=2.0, nu2=0.25))
        assert e.c1 == expansion_coefficient(0.5) * 2.0
        assert e.c2 == expansion_coefficient(0.25) * 0.5**0.5
        assert e.r2_zero == 0.4 * -4.0 / (2.0 * 0.5)

    def test_r2_negative_whenever_nu12_above_one(self):
        for nu12 in [1.05, 1.5, 2.0, 3.5]:
            e = local_expansion(standard_model(nu12=nu12))
            assert e.r2_zero < 0


class TestRangeRescaling:
    # M(h | nu, a) = M(a h | nu, 1): with a1 = a2 = a12 = a, the field on
    # [0, 1] at scale a is the field on [0, a] at scale 1
    @staticmethod
    def setup(a, scaled):
        m = standard_model(nu2=0.75, **(dict(a1=a, a2=a, a12=a) if scaled else {}))
        side = (Rect((0.0,), (1.0 if scaled else a,)),)
        return m, DomainPair(A1=side, A2=side, dim_N=1)

    @pytest.mark.parametrize("a", [2.0, 0.5, 3.0])
    def test_theorem_within_a_few_ulps(self, a):
        for u in (2.0, 3.2, 20.0):
            got, want = (
                tail_asymptotic(local_expansion(m), *d.shared_part(), 1.0, 0.9, u)
                for m, d in (self.setup(a, True), self.setup(a, False))
            )
            assert abs(got.log_value - want.log_value) <= 4 * math.ulp(want.log_value)
            # value = exp(log_value): log_value's error is value's relative error
            rel = 4 * math.ulp(want.log_value) + 2.0**-52
            assert got.value == pytest.approx(want.value, rel=rel, abs=0)

    @pytest.mark.parametrize("a", [2.0, 0.5])
    def test_maxima_bit_identical_at_a_power_of_two(self, a):
        got, want = (
            field_maxima(m, GridSpec(d, 100), 2000, seed=11)
            for m, d in (self.setup(a, True), self.setup(a, False))
        )
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


class TestCrossCorr:
    def test_at_zero(self):
        m = standard_model(rho=0.37)
        assert cross_corr(m, 0.0) == 0.37

    def test_three_halves_value(self):
        m = standard_model(rho=0.5, nu12=1.5)
        want = 0.5 * math.exp(-1.0) * 2.0
        assert abs(cross_corr(m, 1.0) - want) < 1e-12

    def test_monotone_decreasing(self):
        m = standard_model(rho=0.5)
        h = np.linspace(0.0, 10.0, 100)
        r = cross_corr(m, h)
        assert r[0] == 0.5
        assert np.all(np.diff(r) < 0)


class TestCheckAssumptions:
    def test_standard_model_passes(self):
        report = check_assumptions(standard_model())
        assert isinstance(report, AssumptionReport)
        assert report.passed
        assert len(report.items) == 5

    def test_nu12_below_one_fails_item_iv(self):
        report = check_assumptions(standard_model(nu12=0.8))
        item = report["second_derivative"]
        assert not item.passed
        assert "nu12 <= 1" in item.detail
        assert not report.passed

    def test_validity_item_fails_for_large_rho(self):
        report = check_assumptions(standard_model(rho=0.6))
        item = report["validity"]
        assert not item.passed
        assert abs(item.witness - 0.25) < 1e-9
        # 0.36 > 0.25
        assert "0.36" in item.detail

    def test_rho_04_within_bound(self):
        report = check_assumptions(standard_model(rho=0.4))
        assert report["validity"].passed

    def test_small_scales_pass(self):
        # M(h | nu, a) < 1 at every h > 0 however small a is, though the
        # float M(1e-4 | 0.9, 1e-6) reads 1
        m = standard_model(nu1=0.9, rho=0.1, a1=1e-6, a2=1e-6, a12=1e-6)
        report = check_assumptions(m)
        assert report.passed
        assert report["second_derivative"].witness == pytest.approx(-1e-13, rel=1e-15)

    @pytest.mark.parametrize("change, failed", [
        ({"rho": -0.3}, ["second_derivative"]),
        ({"rho": 0.0}, ["second_derivative"]),
        ({"nu12": 0.8}, ["second_derivative"]),
        ({"nu1": 1.5}, ["expansion"]),
        ({"nu2": 1.0, "nu12": 1.0}, ["expansion", "second_derivative"]),
    ], ids=["rho-negative", "rho-zero", "nu12-below-one", "nu1-above-one", "two-items"])
    def test_local_expansion_refuses_by_the_report(self, change, failed):
        m = standard_model(**change)
        report = check_assumptions(m)
        assert [i.name for i in report.items if not i.passed] == failed
        with pytest.raises(UnsupportedModelError) as exc:
            local_expansion(m)
        assert str(exc.value) == "local_expansion needs the standardized model: " + "; ".join(
            f"{name}: {report[name].detail}" for name in failed)

    def test_local_expansion_takes_an_invalid_model(self):
        # the theorem commands warn about validity and evaluate anyway
        m = standard_model(rho=0.6)
        assert not check_assumptions(m)["validity"].passed
        assert local_expansion(m).rho == 0.6


class TestTypes:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            standard_model(rho=1.0)
        with pytest.raises(ValueError):
            standard_model(nu1=-0.5)
        with pytest.raises(ValueError):
            BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=1.5, rho=0.4, dim_N=0)

    @pytest.mark.parametrize("change, message", [
        ({"nu1": math.inf}, "nu1 must be finite and > 0, got inf"),
        ({"nu12": math.nan}, "nu12 must be finite and > 0, got nan"),
        ({"a2": math.inf}, "a2 must be finite and > 0, got inf"),
        ({"sigma1": True}, "sigma1 must be finite and > 0, got True"),
        ({"rho": False}, r"rho must be in \(-1, 1\), got False"),
        ({"dim_N": True}, "dim_N must be a positive integer, got True"),
    ], ids=["nu1-inf", "nu12-nan", "a2-inf", "sigma1-bool", "rho-bool", "dim_N-bool"])
    def test_non_finite_and_bool_refused(self, change, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            standard_model(**change)

    def test_local_expansion_validation(self):
        with pytest.raises(ValueError):
            LocalExpansion(2.5, 1.0, 1.0, 1.0, 0.5, -0.5, 1)
        with pytest.raises(ValueError):
            LocalExpansion(1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1)
