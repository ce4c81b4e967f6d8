"""Brute-force joint excursion probabilities and the rate-fit diagnostic.

Per-replicate field maxima are computed once and compared against every
threshold, so a multi-u run shares samples (common random numbers); this
induces cross-u dependence, which is fine for trend fitting and is noted
in CLI metadata. Intervals are Wilson score at 95%, which stays sane for
rare hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    GridSpec,
    build_covariance,
    cholesky_factor,
    dump_header,
    read_sample_dump,
    sample_suprema,
    segment_maxima,
)
from .model import BivariateMaternModel

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ExcursionEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    u: float
    replicates: int
    hits: int
    seed: int
    warning: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0):
            raise ValueError("interval must satisfy 0 <= lo <= p <= hi <= 1")


def wilson_interval(hits: int, n: int, z: float = _Z95) -> tuple[float, float]:
    p = hits / n
    den = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / den
    # bracketing of p is a mathematical property of the score interval;
    # re-impose it against roundoff at the endpoints
    return min(max(0.0, centre - half), p), max(min(1.0, centre + half), p)


def field_maxima(
    m: BivariateMaternModel, g: GridSpec, reps: int, seed: int, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate maxima of X1 over the A1 grid and X2 over the A2 grid:
    the suprema of the paths' rows [0, n1) and [n1, n) (fields.sample_suprema)."""
    if reps < 1:
        raise ValueError("reps must be positive")
    L = cholesky_factor(build_covariance(m, g))
    sups = sample_suprema(L, seed, reps, threads, [(0, g.n1), (g.n1, L.shape[0])])
    return sups[:, 0], sups[:, 1]


def maxima_from_dump(path: str, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Recompute per-replicate maxima from a stored sample dump, whose rows
    hold every replicate, mirrors included."""
    nodes, reps, _ = dump_header(path)
    if not 0 < n1 < nodes:
        raise ValueError(f"n1 = {n1} must lie in 1 .. {nodes - 1}, "
                         f"for {nodes} stored nodes")
    out = np.empty((reps, 2))
    for start, rows in read_sample_dump(path):
        out[start : start + rows.shape[1]] = segment_maxima(rows, [(0, n1), (n1, nodes)])
    return out[:, 0], out[:, 1]


def estimates_from_maxima(
    max1: np.ndarray, max2: np.ndarray, u_list, seed: int
) -> list[ExcursionEstimate]:
    reps = len(max1)
    out = []
    for u in u_list:
        hits = int(np.count_nonzero((max1 > u) & (max2 > u)))
        lo, hi = wilson_interval(hits, reps)
        warning = None
        if hits == 0:
            lo = 0.0  # one-sided: only the upper limit is informative
            warning = "no hits at this threshold; probability too rare for these reps"
        out.append(
            ExcursionEstimate(
                p_hat=hits / reps, ci_low=lo, ci_high=hi, u=float(u),
                replicates=reps, hits=hits, seed=seed, warning=warning,
            )
        )
    return out


def mc_excursion_multi(
    m: BivariateMaternModel,
    g: GridSpec,
    u_list,
    reps: int,
    seed: int,
    threads: int = 1,
) -> list[ExcursionEstimate]:
    """Joint excursion estimates for all thresholds on shared samples."""
    if reps < 1000:
        raise ValueError("reps must be at least 1000")
    max1, max2 = field_maxima(m, g, reps, seed, threads)
    return estimates_from_maxima(max1, max2, u_list, seed)


@dataclass(frozen=True)
class RateFit:
    slope: float
    slope_se: float
    slope_ci: tuple[float, float]
    used_u: tuple[float, ...]
    dropped_u: tuple[float, ...]
    ratios: tuple[float, ...] | None = None


def rate_fit(
    points: list[tuple[float, ExcursionEstimate]],
    theorem_values: list[float] | None = None,
    min_hits: int = 30,
) -> RateFit:
    """OLS of log p_hat against u^2.

    The slope estimates the exponential rate (expected -1/(1+rho)); its
    confidence interval comes from the delta method,
    Var(log p_hat) ~= (1 - p_hat)/hits. Points with fewer than min_hits
    hits are dropped; fewer than 4 surviving points is an error. If
    theorem values are supplied, the p_hat/theorem ratio sequence is
    returned for trend inspection.
    """
    kept, dropped = [], []
    for u, est in points:
        (kept if est.hits >= min_hits else dropped).append((u, est))
    if len(kept) < 4:
        raise ValueError(
            f"rate_fit needs >= 4 points with hits >= {min_hits}; "
            f"only {len(kept)} survive (dropped u = {[u for u, _ in dropped]})"
        )
    x = np.array([u * u for u, _ in kept])
    y = np.array([math.log(est.p_hat) for _, est in kept])
    var_y = np.array([(1.0 - est.p_hat) / est.hits for _, est in kept])

    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    c = (x - xbar) / sxx
    slope = float(np.dot(c, y))
    slope_se = math.sqrt(float(np.sum(c * c * var_y)))

    ratios = None
    if theorem_values is not None:
        if len(theorem_values) != len(points):
            raise ValueError("theorem_values must align with points")
        ratios = tuple(
            est.p_hat / tv for (_, est), tv in zip(points, theorem_values)
        )
    return RateFit(
        slope=slope,
        slope_se=slope_se,
        slope_ci=(slope - _Z95 * slope_se, slope + _Z95 * slope_se),
        used_u=tuple(u for u, _ in kept),
        dropped_u=tuple(u for u, _ in dropped),
        ratios=ratios,
    )
