"""Bivariate Matern cross-covariance model.

The model has marginal correlations M(h | nu_i, a_i), cross covariance
rho * sigma1 * sigma2 * M(h | nu12, a12), and is a valid covariance iff
rho^2 stays below a Gamma-function / infimum bound. check_assumptions
decides each of the theorems' assumptions on the model by its closed form,
and local_expansion refuses a model by those same items, or for sigma_i
other than 1. Since M(h | nu, a) = M(a h | nu, 1), the local expansion
inputs hold at any scales a_i:

    alpha_i = 2 nu_i,
    c_i     = a_i^(2 nu_i) Gamma(1 - nu_i) / (2^(2 nu_i) Gamma(1 + nu_i)),
    r''(0)  = rho * M''(0 | nu12, a12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import MaternParams, matern, matern_d2_at_zero


class UnsupportedModelError(ValueError):
    """Model is outside the standardized theorem-evaluation mode."""


@dataclass(frozen=True)
class BivariateMaternModel:
    nu1: float
    nu2: float
    nu12: float
    rho: float
    a1: float = 1.0
    a2: float = 1.0
    a12: float = 1.0
    sigma1: float = 1.0
    sigma2: float = 1.0
    dim_N: int = 1

    def __post_init__(self):
        for name in ("nu1", "nu2", "nu12", "a1", "a2", "a12", "sigma1", "sigma2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (0 < v < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if isinstance(self.rho, bool) or not (-1.0 < self.rho < 1.0):
            raise ValueError(f"rho must be in (-1, 1), got {self.rho!r}")
        if type(self.dim_N) is not int or self.dim_N < 1:  # a bool is no dim_N
            raise ValueError(f"dim_N must be a positive integer, got {self.dim_N!r}")


@dataclass(frozen=True)
class LocalExpansion:
    """Asymptotic inputs consumed by the theorem evaluators."""

    alpha1: float
    alpha2: float
    c1: float
    c2: float
    rho: float
    r2_zero: float
    dim_N: int

    def __post_init__(self):
        if not (0.0 < self.alpha1 < 2.0 and 0.0 < self.alpha2 < 2.0):
            raise ValueError("alpha_i must lie in (0, 2)")
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError("c_i must be > 0")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if not (self.r2_zero < 0):
            raise ValueError("r''(0) must be < 0")
        if not (isinstance(self.dim_N, int) and self.dim_N >= 1):
            raise ValueError("dim_N must be a positive integer")


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    witness: float | None
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    items: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def __getitem__(self, name: str) -> AssumptionCheck:
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = []
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            out.append(f"[{status}] {item.name}: {item.detail}")
        return out


def expansion_coefficient(nu: float) -> float:
    """c = Gamma(1 - nu) / (2^(2 nu) Gamma(1 + nu)) for nu in (0, 1)."""
    if not (0.0 < nu < 1.0):
        raise ValueError(f"expansion coefficient requires nu in (0, 1), got {nu}")
    return math.gamma(1.0 - nu) / (2.0 ** (2.0 * nu) * math.gamma(1.0 + nu))


def validity_bound(
    nu1: float, nu2: float, nu12: float,
    a1: float, a2: float, a12: float, N: int,
) -> float:
    """General bound on rho^2: Gamma factors times scale factors times
    inf_{t >= 0} (a12^2 + t^2)^(2 nu12 + N)
                 / ((a1^2 + t^2)^(nu1 + N/2) (a2^2 + t^2)^(nu2 + N/2)).

    With x = t^2 the log infimand is g(x) = A log(p+x) - B log(q+x)
    - C log(r+x), and g'(x) = 0 exactly at the roots of the quadratic
    (A-B-C) x^2 + (A(q+r) - Br - Cq - (B+C)p) x + Aqr - (Br+Cq)p, so the
    infimum is the least of g(0), g at the positive roots and, when
    A = B + C, the limit 0 at infinity.
    """
    for v in (nu1, nu2, nu12, a1, a2, a12):
        if not (v > 0):
            raise ValueError("validity_bound parameters must be > 0")

    tail_exponent = 2.0 * nu12 - nu1 - nu2  # A - B - C
    if tail_exponent < 0.0:
        return 0.0  # infimand -> 0 as t -> infinity

    A, B, C = 2.0 * nu12 + N, nu1 + N / 2.0, nu2 + N / 2.0
    p, q, r = a12 * a12, a1 * a1, a2 * a2

    def g(x):
        return A * math.log(p + x) - B * math.log(q + x) - C * math.log(r + x)

    b = A * (q + r) - B * r - C * q - (B + C) * p
    c = A * q * r - (B * r + C * q) * p
    disc = b * b - 4.0 * tail_exponent * c
    roots = []
    if disc >= 0.0:
        # the roots of a x^2 + b x + c, a = tail_exponent, as k / a and
        # c / k: neither subtracts near-equal terms
        k = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        if k != 0.0:
            roots.append(c / k)
            if tail_exponent != 0.0:
                roots.append(k / tail_exponent)
    log_min = min(g(x) for x in [0.0, *roots] if x >= 0.0)
    if tail_exponent == 0.0:
        log_min = min(log_min, 0.0)  # limit value at t = infinity

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


def cross_corr(m: BivariateMaternModel, h):
    """Cross correlation r(h) = rho * M(h | nu12, a12); r(0) = rho."""
    return m.rho * matern(h, MaternParams(m.nu12, m.a12))


def local_expansion(m: BivariateMaternModel) -> LocalExpansion:
    """Extract (alpha_i, c_i, rho, r''(0), N). A model with sigma_i != 1,
    or failing any item of check_assumptions but validity (which the
    theorem commands only warn about), is refused with each failed item."""
    report = check_assumptions(m)
    failed = [] if m.sigma1 == m.sigma2 == 1.0 else ["sigma1 = sigma2 = 1 required"]
    failed += [f"{item.name}: {item.detail}" for item in report.items
               if not item.passed and item.name != "validity"]
    if failed:
        raise UnsupportedModelError(
            "local_expansion needs the standardized model: " + "; ".join(failed)
        )
    return LocalExpansion(
        alpha1=2.0 * m.nu1,
        alpha2=2.0 * m.nu2,
        c1=expansion_coefficient(m.nu1) * m.a1 ** (2.0 * m.nu1),
        c2=expansion_coefficient(m.nu2) * m.a2 ** (2.0 * m.nu2),
        rho=m.rho,
        r2_zero=report["second_derivative"].witness,
        dim_N=m.dim_N,
    )


def check_assumptions(m: BivariateMaternModel) -> AssumptionReport:
    """Report on the theorems' four model assumptions plus the validity
    condition, each decided by its closed form. Failures are report
    entries, never errors."""
    ok = 0.0 < m.nu1 < 1.0 and 0.0 < m.nu2 < 1.0
    expansion = AssumptionCheck(
        "expansion",
        ok,
        max(2.0 * m.nu1, 2.0 * m.nu2),
        f"alpha_i = 2 nu_i = ({2 * m.nu1:g}, {2 * m.nu2:g}) "
        + ("in (0, 2)" if ok else "not in (0, 2): need nu1, nu2 in (0, 1)"),
    )
    marginal = AssumptionCheck(
        "marginal_strict", True, None,
        "M(h | nu_i, a_i) < 1 for h > 0: M falls strictly from M(0) = 1",
    )
    isotropy = AssumptionCheck(
        "isotropy", True, None, "cross correlation depends on |t - s| by construction"
    )
    if m.nu12 > 1.0:
        # M''(0 | nu12, a12) < 0, so r''(0) < 0 iff rho > 0; then
        # |r(h)| = rho M(h | nu12, a12) < rho for h > 0
        r2 = m.rho * matern_d2_at_zero(MaternParams(m.nu12, m.a12))
        ok = m.rho > 0.0
        detail = f"r''(0) = {r2:.6g} " + (
            f"< 0, and |r(h)| < rho = {m.rho:g} for h > 0" if ok else ">= 0: need rho > 0"
        )
        second = AssumptionCheck("second_derivative", ok, r2, detail)
    else:
        second = AssumptionCheck(
            "second_derivative", False, None,
            f"nu12 <= 1 (got {m.nu12:g}): M''(0) does not exist",
        )
    return AssumptionReport((expansion, marginal, isotropy, second, validity_check(m)))


def validity_check(m: BivariateMaternModel) -> AssumptionCheck:
    """The validity condition rho^2 <= validity_bound, the bound as witness."""
    bound = validity_bound(m.nu1, m.nu2, m.nu12, m.a1, m.a2, m.a12, m.dim_N)
    # allow ulp-level slack so exactly boundary-valid models (rho^2 == bound
    # analytically) are not rejected for the rounding of the Gamma-factor
    # product
    ok = m.rho * m.rho <= bound * (1.0 + 1e-12)
    return AssumptionCheck(
        "validity", ok, bound, f"rho^2 = {m.rho * m.rho:.6g} vs bound {bound:.6g}"
    )
