"""Scalar special functions for the Matern correlation family.

Provides the gamma function, the modified Bessel function of the second
kind K_nu, the Matern correlation

    M(h | nu, a) = 2^(1-nu) / Gamma(nu) * (a h)^nu * K_nu(a h),

an independent quadrature evaluation of M through its cosine integral
representation

    M(h | nu, a) = 2 Gamma(nu + 1/2) / (sqrt(pi) Gamma(nu))
                   * int_0^inf cos(a h r) / (1 + r^2)^(nu + 1/2) dr,

and the second derivative M''(0 | nu, a) = -a^2 / (2 (nu - 1)) for nu > 1,
the Beta integral that differentiating the representation twice under the
integral sign gives.

The Bessel evaluation is delegated to scipy; the quadrature route is
implemented here so that matern() and matern_cosine_integral() remain two
genuinely independent ways of computing the same quantity. bessel_k and
matern import scipy.special when called, not with the module: loading it
takes about half a second, and commands that never evaluate a Matern
never pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; message carries diagnostics."""


@dataclass(frozen=True)
class MaternParams:
    """Smoothness nu > 0 and inverse-range scale a > 0."""

    nu: float
    a: float

    def __post_init__(self):
        if not (self.nu > 0):
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if not (self.a > 0):
            raise ValueError(f"a must be > 0, got {self.a}")


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0."""
    if not (x > 0):
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Accepts a scalar or array x; K_nu diverges at 0, so x <= 0 is a
    domain error (callers handle the h = 0 limit of the Matern family
    separately).
    """
    if not (nu > 0):
        raise ValueError(f"bessel_k requires nu > 0, got {nu}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("bessel_k requires x > 0")
    from scipy.special import kv

    out = kv(nu, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def matern(h, p: MaternParams):
    """Matern correlation M(h | nu, a) for h >= 0 (scalar or array).

    Exactly 1 at h = 0; strictly decreasing and positive for h > 0.
    """
    # before any work array: loading scipy among them left the heap
    # fragmented, 4 MB more peak RSS in `bgrf simulate` at 800 nodes
    from scipy.special import kv

    arr = np.asarray(h, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("matern requires finite h >= 0")
    out = np.ones_like(arr)
    # below this lag the deficit 1 - M ~ x^min(2 nu, 2) underflows double
    # precision entirely, and kv itself may overflow; the limit is 1.
    pos = arr > 0
    if np.any(pos):
        x = p.a * arr[pos]
        logx = np.log(x)
        live = min(2.0 * p.nu, 2.0) * logx >= -45.0
        if np.any(live):
            xl = x[live]
            log_pref = (
                (1.0 - p.nu) * math.log(2.0) - math.lgamma(p.nu) + p.nu * np.log(xl)
            )
            vals = np.exp(log_pref) * kv(p.nu, xl)
            # clamp: near-zero lags can exceed 1 by a few ulps of roundoff
            sub = out[pos]
            sub[live] = np.minimum(vals, 1.0)
            out[pos] = sub
    return float(out) if np.isscalar(h) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _gl_panel(f, a: float, b: float, n: int = 32) -> float:
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


def _tail_integral(p: float, s: float, n_subtract: int = 8) -> float:
    """int_0^1 v^p (1 + v^2)^(-s) dv for p > -1, s > 0.

    The endpoint power v^p (p possibly in (-1, 0)) is handled by
    subtracting the first few Taylor terms of (1+v^2)^(-s), which are
    integrable in closed form; the smooth remainder goes to Gauss-Legendre.
    """
    coeffs = []
    c = 1.0
    for k in range(n_subtract):
        coeffs.append(c)
        c *= -(s + k) / (k + 1.0)  # binom(-s, k+1) recursion
    exact = sum(ck / (p + 2 * k + 1.0) for k, ck in enumerate(coeffs))

    def remainder(v):
        poly = np.zeros_like(v)
        v2 = v * v
        for k in reversed(range(n_subtract)):
            poly = poly * v2 + coeffs[k]
        return v**p * ((1.0 + v2) ** (-s) - poly)

    return exact + _gl_panel(remainder, 0.0, 1.0, 64)


def _oscillatory_integral(env, omega: float, tol: float = 1e-10) -> float:
    """int_0^inf cos(omega r) env(r) dr, env positive, smooth, decaying.

    Head [0, pi/(2 omega)] by geometrically split Gauss-Legendre panels;
    the alternating half-period terms beyond are summed with iterated
    averaging (Euler transformation), which converges fast even when env
    decays only polynomially.
    """
    f = lambda r: np.cos(omega * r) * env(r)
    z1 = math.pi / (2.0 * omega)
    head = 0.0
    lo, step = 0.0, min(z1, 1.0)
    while lo < z1:
        hi = min(z1, lo + step)
        head += _gl_panel(f, lo, hi, 32)
        lo, step = hi, 2.0 * step

    period = math.pi / omega
    n_terms = 64
    terms = np.empty(n_terms)
    zk = z1
    for k in range(n_terms):
        terms[k] = _gl_panel(f, zk, zk + period, 24)
        zk += period

    def euler(ts):
        s = np.cumsum(ts)
        while len(s) > 1:
            s = 0.5 * (s[:-1] + s[1:])
        return float(s[0])

    tail_full = euler(terms)
    tail_short = euler(terms[: n_terms - 16])
    err = abs(tail_full - tail_short)
    if err > tol * max(1.0, abs(head + tail_full)):
        raise QuadratureError(
            f"oscillatory tail did not converge: omega={omega}, "
            f"estimated error {err:.3e}"
        )
    return head + tail_full


def matern_cosine_integral(h: float, p: MaternParams) -> float:
    """M(h | nu, a) by quadrature of the cosine integral representation.

    Independent oracle for matern(); agrees to well below 1e-6 absolute.
    """
    if not (h >= 0) or not math.isfinite(h):
        raise ValueError("matern_cosine_integral requires finite h >= 0")
    s = p.nu + 0.5
    norm = 2.0 * math.exp(math.lgamma(s) - math.lgamma(p.nu)) / math.sqrt(math.pi)
    omega = p.a * h
    if omega == 0.0:
        # no oscillation: split at r = 1, map the tail to [0, 1] via v = 1/r
        headpart = _gl_panel(lambda r: (1.0 + r * r) ** (-s), 0.0, 1.0, 64)
        tailpart = _tail_integral(2.0 * p.nu - 1.0, s)
        return norm * (headpart + tailpart)
    return norm * _oscillatory_integral(lambda r: (1.0 + r * r) ** (-s), omega)


def matern_d2_at_zero(p: MaternParams) -> float:
    """M''(0 | nu, a) = -a^2 / (2 (nu - 1)).

    Differentiating the cosine representation twice gives
    -a^2 * 2 Gamma(nu+1/2) / (sqrt(pi) Gamma(nu)) times the Beta integral
    int_0^inf r^2 / (1 + r^2)^(nu + 1/2) dr
        = sqrt(pi) Gamma(nu - 1) / (4 Gamma(nu + 1/2)).
    Requires nu > 1 (the integral diverges otherwise). Always negative.
    """
    if not (p.nu > 1):
        raise ValueError(
            f"matern_d2_at_zero requires nu > 1 (second derivative does not "
            f"exist for nu <= 1), got nu={p.nu}"
        )
    return -p.a * p.a / (2.0 * (p.nu - 1.0))
