"""Brute-force joint excursion probabilities and the rate-fit diagnostic.

Per-replicate field maxima, sampled (field_maxima) or read from the record
write_record stores (recorded_maxima), are computed once and compared
against every threshold, so a multi-u run shares samples (common random
numbers); this induces cross-u dependence, which is fine for trend fitting
and is noted in CLI metadata. Intervals are Wilson score at 95%, which
stays sane for rare hits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass

import numpy as np

from . import fields
from .fields import (
    GridSpec,
    build_covariance,
    check_reps,
    cholesky_factor,
    dump_header,
    read_sample_dump,
    sample_suprema,
    segment_suprema,
    write_sample_dump,
)
from .model import BivariateMaternModel

_Z95 = 1.959963984540054
_MIN_HITS = 30  # rate_fit drops estimates with fewer hits


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


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    p, z = hits / n, _Z95
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
    check_reps(reps)
    L = cholesky_factor(build_covariance(m, g))
    sups = sample_suprema(L, seed, reps, threads, [(0, g.n1), (g.n1, L.shape[0])])
    return sups[:, 0], sups[:, 1]


def maxima_from_dump(
    path: str, n1: int, reps: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Maxima of the first reps replicates (all by default) of a stored
    sample dump, whose mirror rows negate its paths exactly, reduced as
    fresh paths are; reading stops after the slab holding replicate reps - 1."""
    nodes, held, _ = dump_header(path)
    reps = held if reps is None else reps
    if not 0 < n1 < nodes:
        raise ValueError(f"n1 = {n1} must lie in 1 .. {nodes - 1}, "
                         f"for {nodes} stored nodes")
    if held < reps:
        raise ValueError(f"{path} holds {held} replicates; this run needs reps = {reps}")
    out = np.empty((reps, 2))
    for start, paths in read_sample_dump(path):
        sups = segment_suprema(paths, [(0, n1), (n1, nodes)], reps - start)
        out[start : start + len(sups)] = sups
        # drop the slab before the reader reads the next one, if one is needed
        del paths
        if start + len(sups) == reps:
            break
    return out[:, 0], out[:, 1]


def record_tag(m: BivariateMaternModel, g: GridSpec, seed: int) -> int:
    """32-bit hash of what a sample dump's rows depend on, as values: the
    stream (fields.STREAM), the model's parameters, both fields' node
    coordinates and the seed. Two spellings of one config (1 or 1.0, a
    default stated or left out) give one tag; split_M, which no row depends
    on, is not hashed."""
    h = hashlib.sha256(
        repr((fields.STREAM, [float(v) for v in astuple(m)], seed)).encode())
    for nodes in (g.nodes1, g.nodes2):
        h.update(repr(nodes.shape).encode())
        h.update(nodes.tobytes())
    return int(h.hexdigest()[:8], 16)


def write_record(
    path: str, m: BivariateMaternModel, g: GridSpec, reps: int, seed: int, threads: int = 1
) -> None:
    """Sample reps replicates into a record at path, tagged by record_tag."""
    check_reps(reps)
    L = cholesky_factor(build_covariance(m, g))
    write_sample_dump(path, L, seed, reps, record_tag(m, g, seed), threads)


def recorded_maxima(
    path: str, m: BivariateMaternModel, g: GridSpec, reps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """field_maxima(m, g, reps, seed) as the first reps of the R replicates of
    the record at path (replicate r depends only on (seed, r)); refused when
    reps > R or the record's node count or tag differs from the config's."""
    check_reps(reps)
    nodes, _, tag = dump_header(path)
    want = record_tag(m, g, seed)
    if (nodes, tag) != (g.n1 + g.n2, want):
        raise ValueError(
            f"{path} holds {nodes} nodes per replicate under tag {tag:08x}; "
            f"this config's model, domain, grid and seed give {g.n1} + {g.n2} nodes "
            f"and tag {want:08x}"
        )
    return maxima_from_dump(path, g.n1, reps)


def estimates_from_maxima(
    max1: np.ndarray, max2: np.ndarray, u_list, seed: int
) -> list[ExcursionEstimate]:
    reps = len(max1)
    if reps == 0:
        raise ValueError("no replicates to estimate from")
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


@dataclass(frozen=True)
class RateFit:
    slope: float
    slope_se: float
    used_u: tuple[float, ...]
    dropped_u: tuple[float, ...]


def rate_fit(ests: list[ExcursionEstimate]) -> RateFit:
    """OLS of log p_hat against u^2.

    The slope estimates the exponential rate (expected -1/(1+rho)); its
    standard error comes from the delta method,
    Var(log p_hat) ~= (1 - p_hat)/hits. Estimates with fewer than
    _MIN_HITS hits are dropped; fewer than 4 distinct u among the kept
    ones is an error.
    """
    kept, dropped = [], []
    for est in ests:
        (kept if est.hits >= _MIN_HITS else dropped).append(est)
    if len({est.u for est in kept}) < 4:
        raise ValueError(
            f"rate_fit needs >= 4 distinct u with hits >= {_MIN_HITS}; "
            f"kept u = {[est.u for est in kept]}, "
            f"dropped u = {[est.u for est in dropped]}"
        )
    x = np.array([est.u * est.u for est in kept])
    y = np.array([math.log(est.p_hat) for est in kept])
    var_y = np.array([(1.0 - est.p_hat) / est.hits for est in kept])

    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    c = (x - xbar) / sxx
    return RateFit(
        slope=float(np.dot(c, y)),
        slope_se=math.sqrt(float(np.sum(c * c * var_y))),
        used_u=tuple(est.u for est in kept),
        dropped_u=tuple(est.u for est in dropped),
    )
