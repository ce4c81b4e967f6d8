"""Independent references the tests check the library against.

None of these is read by bgrf itself; each computes a quantity the library
computes, by another route.

- matern_cosine_integral: the Matern correlation through its cosine
  integral representation

      M(h | nu, a) = 2 Gamma(nu + 1/2) / (sqrt(pi) Gamma(nu))
                     * int_0^inf cos(a h r) / (1 + r^2)^(nu + 1/2) dr,

  by Gauss-Legendre quadrature with an Euler-transformed oscillatory tail.
  bgrf.specfun.matern integrates the cosh representation of K_nu by the
  trapezoid rule, so the two are genuinely independent ways of computing
  the same quantity.
- validity_bound_equal_scale: the closed-form bound on rho^2 at
  a1 = a2 = a12, against bgrf.model.validity_bound's general infimum.
- psi: the bivariate normal tail factor Psi(u, rho) written out as its
  closed form, independent of bgrf.asymptotics' log-space constant.
- path_fold: a bgrf.fields.sample_blocks fold that hands out a block's
  paths themselves, the reference the library's folds (the segment
  suprema, the dump writer) are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from bgrf.specfun import MaternParams


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; message carries diagnostics."""


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_N_SUBTRACT = 8  # Taylor terms _tail_integral integrates in closed form
_OSC_TOL = 1e-10  # relative error bound of _oscillatory_integral's tail sum


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _gl_panel(f, a: float, b: float, n: int) -> float:
    x, w = _gl_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


def _tail_integral(p: float, s: float) -> float:
    """int_0^1 v^p (1 + v^2)^(-s) dv for p > -1, s > 0.

    The endpoint power v^p (p possibly in (-1, 0)) is handled by
    subtracting the first _N_SUBTRACT Taylor terms of (1+v^2)^(-s), which are
    integrable in closed form; the smooth remainder goes to Gauss-Legendre.
    """
    coeffs = []
    c = 1.0
    for k in range(_N_SUBTRACT):
        coeffs.append(c)
        c *= -(s + k) / (k + 1.0)  # binom(-s, k+1) recursion
    exact = sum(ck / (p + 2 * k + 1.0) for k, ck in enumerate(coeffs))

    def remainder(v):
        poly = np.zeros_like(v)
        v2 = v * v
        for k in reversed(range(_N_SUBTRACT)):
            poly = poly * v2 + coeffs[k]
        return v**p * ((1.0 + v2) ** (-s) - poly)

    return exact + _gl_panel(remainder, 0.0, 1.0, 64)


def _oscillatory_integral(env, omega: float) -> float:
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
    if err > _OSC_TOL * max(1.0, abs(head + tail_full)):
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


def validity_bound_equal_scale(nu1: float, nu2: float, nu12: float, N: int) -> float:
    """Closed-form bound on rho^2 when a1 = a2 = a12; 0.0 when
    2 nu12 < nu1 + nu2, as validity_bound gives."""
    for v in (nu1, nu2, nu12):
        if not (v > 0):
            raise ValueError("smoothness parameters must be > 0")
    if 2.0 * nu12 - nu1 - nu2 < 0.0:
        return 0.0
    halfN = N / 2.0
    return math.exp(
        math.lgamma(nu1 + halfN)
        + math.lgamma(nu2 + halfN)
        - math.lgamma(nu1)
        - math.lgamma(nu2)
        + 2.0 * math.lgamma(nu12)
        - 2.0 * math.lgamma(nu12 + halfN)
    )


def psi(u: float, rho: float) -> float:
    """Psi(u, rho) = (1+rho)^2 / (2 pi u^2 sqrt(1-rho^2)) exp(-u^2/(1+rho))."""
    if not (u > 0):
        raise ValueError(f"u must be > 0, got {u}")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    return (
        (1.0 + rho) ** 2
        / (2.0 * math.pi * u * u * math.sqrt(1.0 - rho * rho))
        * math.exp(-u * u / (1.0 + rho))
    )


def path_fold(start: int, take: int, block: np.ndarray, tiles) -> np.ndarray:
    """The (nodes, ceil(take / 2)) paths of a sample_blocks block: each tile
    written back over its own rows of the noise, then the paths copied out,
    since the sampler reuses the noise buffer for the worker's next block."""
    for a, rows in tiles:
        block[a : a + len(rows)] = rows
    return block[:, : (take + 1) // 2].copy()
