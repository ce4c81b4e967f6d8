"""Scalar special functions for the Matern correlation family.

Provides the modified Bessel function of the second kind K_nu, the
Matern correlation

    M(h | nu, a) = 2^(1-nu) / Gamma(nu) * (a h)^nu * K_nu(a h),

and the second derivative M''(0 | nu, a) = -a^2 / (2 (nu - 1)) for nu > 1
in closed form.

K_nu is evaluated here, by the trapezoid rule on

    e^x K_nu(x) = int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt,

so numpy is the only runtime dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MaternParams:
    """Smoothness nu > 0 and inverse-range scale a > 0."""

    nu: float
    a: float

    def __post_init__(self):
        if not (0 < self.nu < math.inf):
            raise ValueError(f"nu must be finite and > 0, got {self.nu}")
        if not (0 < self.a < math.inf):
            raise ValueError(f"a must be finite and > 0, got {self.a}")


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

    def distinct(lags: np.ndarray) -> np.ndarray:
        xs, at = np.unique(lags, return_inverse=True)
        log_scale, kv = _scaled_kv(nu, xs)
        with np.errstate(over="ignore"):  # K_nu itself overflows at small x, large nu
            return (_exp_sum(log_scale, -xs) * kv)[at]

    out = _by_slices(distinct, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def matern(h, p: MaternParams):
    """Matern correlation M(h | nu, a) for h >= 0 (scalar or array).

    Exactly 1 at h = 0; strictly decreasing and positive for h > 0.
    """
    arr = np.asarray(h, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("matern requires finite h >= 0")
    # below this lag the deficit 1 - M ~ x^min(2 nu, 2) underflows double
    # precision entirely; the limit is 1. At nu < 0.03 the threshold
    # underflows to 0; lag 0 stays exactly 1.
    thr = max(math.exp(-45.0 / min(2.0 * p.nu, 2.0)), math.ulp(0.0))

    def distinct(lags: np.ndarray) -> np.ndarray:
        # each distinct lag of the slice once: covariance blocks repeat few
        # distances many times. Riemann lags at d1 != d2 are nearly all
        # distinct; there the sort costs about a tenth of the call and
        # saves nothing.
        x, at = np.unique(lags, return_inverse=True)
        x *= p.a
        vals = np.ones_like(x)
        # x is sorted, so the lags from the threshold up are live
        live = int(np.searchsorted(x, thr))
        if live < len(x):
            xl = x[live:]
            log_scale, kv = _scaled_kv(p.nu, xl)
            log_scale += (1.0 - p.nu) * math.log(2.0) - math.lgamma(p.nu) + p.nu * np.log(xl)
            kv *= _exp_sum(log_scale, -xl)
            # clamp: near-zero lags can exceed 1 by a few ulps of roundoff
            np.minimum(kv, 1.0, out=vals[live:])
        return vals[at]

    out = _by_slices(distinct, arr)
    return float(out) if np.isscalar(h) or arr.ndim == 0 else out


# lags per slice of one matern or bessel_k call: a value depends on its lag
# alone, so slices bound a call's temporaries (np.unique's sort and inverse,
# the prefactor) at about ten times 512 kB and leave every bit as it is
_LAG_SLICE = 1 << 16


def _by_slices(f, arr: np.ndarray) -> np.ndarray:
    """f over the raveled arr, _LAG_SLICE lags at a time, in arr's shape."""
    flat = arr.ravel()
    out = np.empty(flat.shape)
    for i in range(0, len(flat), _LAG_SLICE):
        out[i : i + _LAG_SLICE] = f(flat[i : i + _LAG_SLICE])
    return out.reshape(arr.shape)


def _exp_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(a + b) with the rounding error of a + b restored (Knuth's
    two-sum): at a + b near -700 that error alone is 6e-14 relative."""
    s = a + b
    bb = s - a
    return np.exp(s) * (1.0 + ((a - (s - bb)) + (b - bb)))


# elements of one quadrature work array: 512 kB, however many lags a call
# has, so it stays in cache
_KV_CHUNK = 1 << 16
_LOG2 = math.log(2.0)
# 2^k for every binary exponent k of a positive double, subnormals
# included, and the end of the last octave
_MIN_EXP = -1074
_POW2 = np.append(np.ldexp(1.0, np.arange(_MIN_EXP, 1024)), np.inf)


def _kv_nodes(nu: float, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Trapezoid nodes for e^x K_nu(x) on the octave 2^k <= x < 2^(k+1).

    Returns (C, g, m) with e^x K_nu(x) = e^m sum_j exp(-(x / 2^k - 1) C_j) g_j
    on the nodes t_j = j h. C_j = 2^k (cosh t_j - 1), taken as
    2^(k+1) sinh^2(t_j / 2) so it keeps its relative accuracy at small t_j
    and does not overflow at the smallest octaves; x / 2^k - 1 is exact.
    g_j is the trapezoid weight times the integrand at x = 2^k, over e^m,
    its largest value, so no g_j overflows at large nu and small x.

    The step h = 0.2 / sqrt(1 + 2^(k+1) + nu) resolves the integrand's
    width 1/sqrt(x) at the octave's top; the nodes stop where
    2^k (cosh t - 1) - nu t > 45, past which the integrand is below e^-45
    of its peak throughout the octave.
    """
    # past 2^1000 every K_nu and Matern value underflows; any step will do
    h = 0.2 / math.sqrt(1.0 + math.ldexp(2.0, min(k, 1000)) + nu)
    # the cutoff solves cosh t - 1 = (45 + nu t) / 2^k; iterating from 0
    # climbs to it at a rate below 1/2. Past y = 40, acosh(1 + e^y) equals
    # y + log 2 to double precision, and e^y may overflow.
    t = 0.0
    while True:
        y = math.log(45.0 + nu * t) - k * _LOG2
        t_next = y + _LOG2 if y > 40.0 else math.acosh(1.0 + math.exp(y))
        if t_next - t < h:
            break
        t = t_next
    t = h * np.arange(int(t_next / h) + 2)
    half = (k + 1) // 2
    C = np.ldexp(np.square(np.ldexp(np.sinh(0.5 * t), half)), k + 1 - 2 * half)
    log_g = nu * t - C
    m = float(log_g.max())
    g = 0.5 * (np.exp(log_g - m) + np.exp(log_g - 2.0 * nu * t - m))
    g *= h
    g[0] *= 0.5
    return C, g, m


def _scaled_kv(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, s) with e^x K_nu(x) = e^m s, for sorted x > 0.

    The trapezoid rule on the even integrand converges geometrically in
    the step. Nodes are fixed per binary octave of x (_kv_nodes), so a
    value depends on x alone: each row is summed on its own, not by a
    matrix product whose summation order follows the batch size.
    """
    m = np.empty_like(x)
    s = np.empty_like(x)
    # x[at[i]:at[i + 1]] holds the octave k = _MIN_EXP + i
    at = np.searchsorted(x, _POW2)
    for i in np.flatnonzero(np.diff(at)).tolist():
        k, a, b = _MIN_EXP + i, int(at[i]), int(at[i + 1])
        C, g, m[a:b] = _kv_nodes(nu, k)
        rows = max(1, _KV_CHUNK // len(C))
        for j in range(a, b, rows):
            f = np.multiply.outer(1.0 - np.ldexp(x[j : min(j + rows, b)], -k), C)
            np.exp(f, out=f)
            f *= g
            s[j : j + len(f)] = f.sum(axis=1)
    return m, s


def matern_d2_at_zero(p: MaternParams) -> float:
    """M''(0 | nu, a) = -a^2 / (2 (nu - 1)).

    Differentiating the cosine representation
    M(h) = 2 Gamma(nu+1/2) / (sqrt(pi) Gamma(nu))
           * int_0^inf cos(a h r) / (1 + r^2)^(nu + 1/2) dr
    twice at h = 0 gives -a^2 times that prefactor times the Beta integral
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
