"""Acceptance suite: every criterion at its stated tolerance.

One PASS/FAIL line per criterion (sub-lettered where a criterion bundles
several claims) is printed straight to the console, bypassing pytest's
capture, so the gate's outcome is always visible in the run log.

Stochastic criteria are pinned to seed 1234 and are byte-reproducible
for any thread count (criterion 8 checks exactly that).

Three checks set a finite-lag or grid measurement against a limit, so
each compares like with like:

* criterion 2: for nu < 1 the Matern series is
  1 - M(h) = c h^(2 nu) - h^2 / (4 (1 - nu)) + O(h^(2 + 2 nu)), so the
  known h^2 term is added back before dividing by h^(2 nu); what remains
  is within about 2e-7 of c at h = 1e-3.

* criterion 7b: field_maxima returns the maximum over grid nodes of
  spacing Delta, not over the continuum. At level u the grid step in the
  local Pickands scale is delta(u) = Delta c^(1/alpha) (u/(1+rho))^(2/alpha),
  so Theorem 1 is evaluated with H1 = H2 = H_1^delta(u), the discrete-time
  Pickands constant (Piterbarg, Extremes 7, 2004), instead of H_1 = 1.

* criterion 7c: at u <= 3.2 the double-sum kernel is as wide in
  tau = t - s as the unit domains, so the touching/overlap ratio has not
  reached its 1/u limit. The Monte Carlo trend is checked against the
  kernel's own trend at the same u, and the kernel's trend against -1 at
  u in {40, ..., 64}, where the Laplace step has taken hold.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from bgrf.asymptotics import riemann_sum_check, tail_asymptotic
from bgrf.fields import DomainPair, GridSpec, Rect
from bgrf.model import (
    BivariateMaternModel,
    LocalExpansion,
    check_assumptions,
    cross_corr,
    expansion_coefficient,
    local_expansion,
    validity_bound,
)
from bgrf.montecarlo import estimates_from_maxima, field_maxima, rate_fit
from bgrf.pickands import discrete_pickands_h1, estimate_H_constant
from bgrf.specfun import MaternParams, bessel_k, matern, matern_d2_at_zero
from oracles import matern_cosine_integral, validity_bound_equal_scale

SEED = 1234

_CAPTURE = None


@pytest.fixture(autouse=True)
def _criterion_console(capfd):
    # lets report() write through pytest's fd-level capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def interval(lo, hi):
    return Rect((float(lo),), (float(hi),))


# ---------------------------------------------------------------- criterion 1

def test_c1_special_functions():
    t0 = time.time()
    xs = np.linspace(0.1, 20.0, 200)
    worst_k = 0.0
    for x in xs:
        want = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        worst_k = max(worst_k, abs(bessel_k(0.5, float(x)) - want) / want)
    worst_m = 0.0
    for nu in (0.3, 0.5, 1.2, 2.5):
        p = MaternParams(nu, 1.0)
        for h in np.arange(0.1, 5.0001, 0.1):
            worst_m = max(
                worst_m, abs(matern(float(h), p) - matern_cosine_integral(float(h), p))
            )
    dt = time.time() - t0
    report(
        "1 special-functions",
        worst_k <= 1e-10 and worst_m <= 1e-6 and dt < 10.0,
        f"bessel_k rel err {worst_k:.2e} (tol 1e-10), "
        f"matern vs cosine integral {worst_m:.2e} (tol 1e-6), {dt:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2

@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
def test_c2_expansion_constants(nu):
    t0 = time.time()
    h = 1e-3
    c = expansion_coefficient(nu)
    h2_term = h * h / (4.0 * (1.0 - nu))
    ratio = (1.0 - matern(h, MaternParams(nu, 1.0)) + h2_term) / h ** (2 * nu)
    rel = abs(ratio - c) / c
    dt = time.time() - t0
    report(
        f"2 expansion-constant nu={nu}",
        rel <= 0.01 and dt < 1.0,
        f"(1-M(1e-3) + h^2/(4(1-nu)))/h^2nu = {ratio:.6f} vs c = {c:.6f}, "
        f"rel dev {rel:.2e} (tol 1%), {dt:.2f}s",
    )


# ---------------------------------------------------------------- criterion 3

def test_c3_second_derivative():
    t0 = time.time()
    worst_fd, worst_cf = 0.0, 0.0
    for nu in (1.5, 2.0, 3.0):
        p = MaternParams(nu, 1.0)
        got = matern_d2_at_zero(p)
        deltas = np.array([1e-2, 5e-3, 2.5e-3])
        fd = np.array([2.0 * (matern(d, p) - 1.0) / d**2 for d in deltas])
        coef = np.linalg.solve(np.vander(deltas, 3, increasing=True), fd)
        worst_fd = max(worst_fd, abs(coef[0] - got) / abs(got))
        closed = -1.0 / (2.0 * (nu - 1.0))
        worst_cf = max(worst_cf, abs(got - closed) / abs(closed))
    dt = time.time() - t0
    report(
        "3 second-derivative",
        worst_fd <= 1e-4 and worst_cf <= 1e-6 and dt < 5.0,
        f"FD extrapolation rel dev {worst_fd:.2e} (tol 1e-4), "
        f"closed form rel dev {worst_cf:.2e} (tol 1e-6), {dt:.1f}s",
    )


# ---------------------------------------------------------------- criterion 4

def test_c4_validity():
    t0 = time.time()
    worst = 0.0
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
        worst = max(worst, abs(a - b) / b)
    bound = validity_bound(0.5, 0.5, 1.5, 1.0, 1.0, 1.0, 1)

    def model(rho):
        return BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=1.5, rho=rho, dim_N=1)

    ok_04 = check_assumptions(model(0.4))["validity"].passed
    ok_06 = check_assumptions(model(0.6))["validity"].passed
    dt = time.time() - t0
    report(
        "4 validity",
        worst <= 1e-9
        and abs(bound - 0.25) < 1e-12
        and ok_04
        and not ok_06
        and dt < 5.0,
        f"inf-based vs closed form rel dev {worst:.2e} (tol 1e-9) on "
        f"{len(grid)}-point grid; bound on rho^2 = {bound:.12f}; "
        f"rho=0.4 {'passes' if ok_04 else 'FAILS'}, "
        f"rho=0.6 {'fails' if not ok_06 else 'PASSES'}; {dt:.1f}s",
    )


# ---------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def h1_estimate():
    t0 = time.time()
    est = estimate_H_constant(
        1.0, [1.0, 2.0, 4.0, 8.0], 1.0 / 64.0, 200_000, seed=SEED
    )
    return est, time.time() - t0


def test_c5_pickands_H1(h1_estimate):
    est, dt = h1_estimate
    dev = abs(est.value - 1.0)
    report(
        "5a pickands-H1",
        dev <= 0.12 and dt < 300.0,
        f"H_1 estimate {est.value:.4f} (se {est.std_error:.4f}) at T=8, "
        f"eta=1/64, reps=2e5, seed={SEED}; |dev| {dev:.2%} (tol 12%), {dt:.1f}s",
    )


# ---------------------------------------------------------------- criterion 6

RIEMANN_E = LocalExpansion(1.0, 1.0, 1.0, 1.0, 0.5, -0.5, 1)
RIEMANN_M = BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=1.5, rho=0.5)


def riemann_r(h):
    return cross_corr(RIEMANN_M, h)


def overlap_domain():
    return DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1)


def test_c6_riemann_overlap():
    t0 = time.time()
    d = overlap_domain()
    ratios = {}
    for u in (10.0, 20.0, 40.0, 50.0, 80.0):
        ratios[u] = riemann_sum_check(RIEMANN_E, d, riemann_r, 1.0, 3.0, u).ratio
    gaps = [abs(ratios[u] - 1.0) for u in (10.0, 20.0, 40.0, 80.0)]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    at50 = abs(ratios[50.0] - 1.0)
    sub = riemann_sum_check(
        RIEMANN_E, d, riemann_r, 1.0, 3.0, 50.0, cells="subset"
    ).h_sum
    full = riemann_sum_check(RIEMANN_E, d, riemann_r, 1.0, 3.0, 50.0).h_sum
    celldiff = abs(full - sub) / full
    dt = time.time() - t0
    report(
        "6a riemann-overlap",
        at50 <= 0.10 and monotone and celldiff <= 0.02 and dt < 120.0,
        f"ratio(50) = {ratios[50.0]:.4f} (band 10%); |ratio-1| over "
        f"u=10,20,40,80: {[f'{gp:.4f}' for gp in gaps]} monotone={monotone}; "
        f"cell-family diff {celldiff:.3%} (tol 2%); {dt:.1f}s",
    )


def test_c6_riemann_split_slope():
    t0 = time.time()
    d = DomainPair(
        A1=(interval(0, 1),), A2=(interval(1, 2),), dim_N=1, split_M=0
    )
    us = np.array([20.0, 40.0, 80.0])
    hs = np.array(
        [riemann_sum_check(RIEMANN_E, d, riemann_r, 1.0, 3.0, u).h_sum for u in us]
    )
    slope = float(np.polyfit(np.log(us), np.log(hs), 1)[0])
    want = 0.0 + 1.0 * (2.0 + 2.0 - 2.0)  # M + N(2/a1 + 2/a2 - 2)
    rel = abs(slope - want) / want
    dt = time.time() - t0
    report(
        "6b riemann-split",
        rel <= 0.05 and dt < 120.0,
        f"log-log slope of h(u) = {slope:.4f} vs {want:g}, rel dev {rel:.2%} "
        f"(tol 5%), {dt:.1f}s",
    )


# ---------------------------------------------------------------- criterion 7

MC7_MODEL = BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=2.0, rho=0.5)
MC7_US = [2.0, 2.4, 2.8, 3.2]
KERNEL_FAR_US = [40.0, 48.0, 56.0, 64.0]


@pytest.fixture(scope="module")
def mc7_runs():
    t0 = time.time()
    g_over = GridSpec(overlap_domain(), 100)
    d_touch = DomainPair(
        A1=(interval(0, 1),), A2=(interval(1, 2),), dim_N=1, split_M=0
    )
    reps = 1_000_000
    over = estimates_from_maxima(
        *field_maxima(MC7_MODEL, g_over, reps, seed=SEED), MC7_US, SEED
    )
    touch = estimates_from_maxima(
        *field_maxima(MC7_MODEL, GridSpec(d_touch, 100), reps, seed=SEED), MC7_US, SEED
    )
    return over, touch, g_over, time.time() - t0


def test_c7_rate_slope(mc7_runs):
    over, _, _, dt = mc7_runs
    fit = rate_fit(over)
    target = -2.0 / 3.0
    rel = abs(fit.slope - target) / abs(target)
    report(
        "7a mc-rate",
        rel <= 0.10 and dt < 900.0,
        f"slope of log p_hat vs u^2 = {fit.slope:.4f} (se {fit.slope_se:.4f}) "
        f"vs -2/3, rel dev {rel:.2%} (tol 10%); reps=1e6, 100 nodes/field, "
        f"seed={SEED}; shared-sample time {dt:.0f}s",
    )


def test_c7_theorem_ratio(mc7_runs):
    over, _, grid, _ = mc7_runs
    e = local_expansion(MC7_MODEL)
    # the fields share nodes (A1 = A2) and local expansion, so one delta(u)
    # serves both; H_1^delta is closed-form for alpha = 1 only
    assert e.alpha1 == e.alpha2 == 1.0 and e.c1 == e.c2
    spacing = float(grid.nodes1[1, 0] - grid.nodes1[0, 0])
    deltas = [
        spacing * e.c1 ** (1.0 / e.alpha1) * (u / (1.0 + e.rho)) ** (2.0 / e.alpha1)
        for u in MC7_US
    ]
    hs = [discrete_pickands_h1(d) for d in deltas]
    ratios = [
        est.p_hat / tail_asymptotic(e, e.dim_N, 1.0, h, h, u).value
        for est, h, u in zip(over, hs, MC7_US)
    ]
    factors = [max(r, 1.0 / r) for r in ratios]
    report(
        "7b mc-vs-theorem factor",
        max(factors) <= 2.0,
        f"p_hat/theorem = {[f'{r:.3f}' for r in ratios]} at u={MC7_US} "
        f"with H1=H2=H_1^delta(u), delta(u) = {[f'{d:.4f}' for d in deltas]}, "
        f"H_1^delta(u) = {[f'{h:.4f}' for h in hs]}; "
        f"worst factor {max(factors):.3f} (tol 2.0)",
    )


def kernel_touching_slope(us):
    """Log-log slope over us of the double-sum kernel
    exp(-u^2 (1/(1 + r(tau)) - 1/(1 + rho))) summed over A1 x A2 for the
    touching pair, divided by its sum for the overlapping pair. The sums
    are quadratures over tau = t - s with weight 1 - |tau| (overlap, tau
    in [-1, 1]) and 1 - |tau - 1| (touching, tau in [0, 2])."""
    ratios = []
    for u in us:
        def k(tau):
            r = cross_corr(MC7_MODEL, tau)
            return np.exp(-u * u * (1.0 / (1.0 + r) - 1.0 / (1.0 + MC7_MODEL.rho)))

        # fixed-order Gauss-Legendre: deterministic; 3000 nodes move the
        # slopes by under 1e-12
        overlap = 2.0 * fixed_quad(lambda t: k(t) * (1.0 - t), 0.0, 1.0, n=400)[0]
        touching = (
            fixed_quad(lambda t: k(t) * t, 0.0, 1.0, n=400)[0]
            + fixed_quad(lambda t: k(t) * (2.0 - t), 1.0, 2.0, n=400)[0]
        )
        ratios.append(touching / overlap)
    return float(np.polyfit(np.log(us), np.log(ratios), 1)[0])


def test_c7_touching_trend(mc7_runs):
    over, touch, _, _ = mc7_runs
    r = np.array([t.p_hat for t in touch]) / np.array([o.p_hat for o in over])
    slope = float(np.polyfit(np.log(MC7_US), np.log(r), 1)[0])
    kernel_near = kernel_touching_slope(MC7_US)
    kernel_far = kernel_touching_slope(KERNEL_FAR_US)
    report(
        "7c touching-trend",
        abs(slope - kernel_near) <= 0.4 and abs(kernel_far - (-1.0)) <= 0.4,
        f"log-log slope of p_hat(touching)/p_hat(overlap) = {slope:.3f} vs "
        f"kernel slope {kernel_near:.3f} at u={MC7_US}; kernel slope "
        f"{kernel_far:.3f} vs -1 at u={KERNEL_FAR_US} (bands +/- 0.4); "
        f"MC ratios {[f'{x:.3f}' for x in r]}",
    )


# ---------------------------------------------------------------- criterion 8

def test_c8_determinism(h1_estimate):
    t0 = time.time()
    est_single, _ = h1_estimate
    est_threaded = estimate_H_constant(
        1.0, [1.0, 2.0, 4.0, 8.0], 1.0 / 64.0, 200_000, seed=SEED, threads=3
    )
    same_h = est_threaded.value == est_single.value
    g = GridSpec(overlap_domain(), 100)
    a1, a2 = field_maxima(MC7_MODEL, g, 100_000, seed=SEED, threads=1)
    b1, b2 = field_maxima(MC7_MODEL, g, 100_000, seed=SEED, threads=4)
    same_mc = bool(np.array_equal(a1, b1) and np.array_equal(a2, b2))
    dt = time.time() - t0
    report(
        "8 determinism",
        same_h and same_mc,
        f"H_1 estimate bit-identical across thread counts: {same_h}; "
        f"MC maxima bit-identical across thread counts: {same_mc}; {dt:.1f}s",
    )
