"""Monte Carlo estimation of the Pickands constant.

With chi the rescaled fractional Brownian motion (covariance
|s|^a + |t|^a - |t-s|^a) and X_T = sup_{t in [0, T]} (chi(t) - |t|^a), the
estimator uses the expectation forms

    H_a(T) = E exp(X_T),
    H_a    = lim_T H_a(T) / T,

with suprema taken over a grid of spacing eta, so estimates carry a
negative discretisation bias that shrinks as eta decreases. Within one
call all horizons share a single path per replicate (common random
numbers), which makes H_a(T) pathwise nondecreasing in T.

chi and -chi have the same law, and L(-Z) = -(LZ), so the sampler's
replicates come in pairs, a path and its mirror (antithetic variates,
fields.sample_blocks): reps paths take ceil(reps / 2) noise columns. The
standard error is taken over the (path, mirror) pairs, which are
independent of one another.

At alpha = 1 the constant is known exactly, H_1 = 1, and so is its grid
version: on delta Z the drifted path is a Gaussian random walk, and
Spitzer's identity gives the discrete-time constant H_1^delta in closed
form (discrete_pickands_h1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import check_reps, cholesky_factor, fbm_covariance, fbm_grid, sample_suprema

_EXP_GUARD = 700.0  # exp overflows just above 709; abort well before
_H1_TERMS = 2_000_000  # series terms of discrete_pickands_h1: delta >= 1e-4


@dataclass(frozen=True)
class PickandsEstimate:
    value: float
    std_error: float
    alpha: float
    horizon_T: float
    eta: float
    replicates: int
    sequence: tuple[tuple[float, float, float], ...]
    warning: str | None = None

    def __post_init__(self):
        if not (self.value > 0):
            raise ValueError("estimate must be positive")
        if not (self.std_error >= 0):
            raise ValueError("standard error must be nonnegative")


def discrete_pickands_h1(delta: float) -> float:
    """H_1^delta, the alpha = 1 Pickands constant of the grid delta Z
    (Piterbarg, Extremes 7, 2004):

        H_1^delta = delta^-1 exp(-sum_{k>=1} erfc(sqrt(k delta) / 2) / k),

    with erfc(sqrt(k delta) / 2) = 2 Phibar(sqrt(k delta / 2)). It tends to
    H_1 = 1 as delta -> 0; a delta whose 200 / delta terms exceed _H1_TERMS
    raises ValueError.
    """
    if not (0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    terms = 200.0 / delta  # terms beyond are < 1e-20
    if terms > _H1_TERMS:
        raise ValueError(f"delta = {delta:.6g} needs {terms:.3g} terms, over {_H1_TERMS:.3g}")
    n = math.ceil(terms)
    k = np.arange(1, n + 1)
    x = (np.sqrt(k * delta) / 2.0).tolist()
    return math.exp(-np.sum(np.fromiter(map(math.erfc, x), float, n) / k)) / delta


def _check_exponent_guard(sups: np.ndarray) -> None:
    worst = float(np.max(sups)) if sups.size else 0.0
    if worst > _EXP_GUARD:
        raise OverflowError(
            f"path supremum {worst:.1f} exceeds the exp guard {_EXP_GUARD:g}; "
            "the estimator would overflow (this should not happen at desk "
            "scale; check alpha/T/eta)"
        )


def path_suprema(
    alpha: float,
    T_list: list[float],
    eta: float,
    reps: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """(reps, len(T_list)) matrix of sup_{t in [0, T_k]} (chi(t) - t^alpha)
    for strictly increasing horizons T_k, each a multiple of eta.

    One shared path per replicate; deterministic in (seed, replicate).
    Replicates come in the sampler's mirror pairs, a path X and -X. Block
    rows hold the path on t[1:]; fields.sample_suprema takes each
    replicate's supremum over the consecutive segments (T_{k-1}, T_k], and
    the supremum over [0, T_k] is the running maximum of those segments
    and 0, the path at t = 0.
    """
    check_reps(reps)
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    ends = [T / eta for T in T_list]
    if not all(math.isfinite(i) and abs(i - round(i)) <= 1e-9 for i in ends):
        raise ValueError(f"horizons {T_list} must be finite multiples of eta")
    ends = [round(i) for i in ends]
    if not (0 < ends[0] and all(a < b for a, b in zip(ends, ends[1:]))):
        raise ValueError(f"horizons {T_list} must be positive and strictly increasing")
    t = fbm_grid(T_list[-1], eta)
    L = cholesky_factor(fbm_covariance(alpha, t[1:]))
    segments = list(zip([0] + ends[:-1], ends))
    sups = sample_suprema(L, seed, reps, threads, segments, (t**alpha)[1:, None])
    np.maximum(sups, 0.0, out=sups)
    return np.maximum.accumulate(sups, axis=1, out=sups)


def _mean_exp(sups: np.ndarray) -> tuple[float, float]:
    """Mean of exp over all values, and its standard error over the
    complete (path, mirror) pairs: std(pair means) * sqrt(2 / n), 0 with
    fewer than two pairs."""
    _check_exponent_guard(sups)
    x = np.exp(sups)
    n = x.shape[0]
    mean = float(np.mean(x))
    pairs = x[: n - n % 2].reshape(-1, 2).mean(axis=1)
    if len(pairs) > 1:
        se = float(np.std(pairs, ddof=1)) * math.sqrt(2.0 / n)
    else:
        se = 0.0
    return mean, se


def estimate_H_constant(
    alpha: float,
    T_list: list[float],
    eta: float,
    reps: int,
    seed: int,
    threads: int = 1,
) -> PickandsEstimate:
    """Estimate the Pickands constant as H_alpha([0, T_max]) / T_max.

    All horizons in T_list share paths (prefix suprema of one simulation),
    so H(T) is pathwise nondecreasing in T. The per-T sequence of
    H(T)/T values is reported; an increase beyond twice its combined
    standard error flags a discretisation or variance problem.
    """
    if len(T_list) < 3:
        raise ValueError("T_list needs at least 3 horizons")
    T_max = T_list[-1]
    if eta > T_list[0] / 8:
        raise ValueError(f"need eta <= min(T)/8, got eta={eta}")
    sups = path_suprema(alpha, T_list, eta, reps, seed, threads)
    seq = []
    for k, T in enumerate(T_list):
        v, se = _mean_exp(sups[:, k])
        seq.append((float(T), v / T, se / T))
    warning = None
    for (t0, v0, s0), (t1, v1, s1) in zip(seq, seq[1:]):
        if v1 > v0 + 2.0 * math.hypot(s0, s1):
            warning = (
                f"H(T)/T increased from {v0:.4g} (T={t0:g}) to {v1:.4g} "
                f"(T={t1:g}) beyond noise; suspect discretisation or variance"
            )
    _, value, se = seq[-1]
    return PickandsEstimate(
        value, se, alpha, T_max, eta, reps, sequence=tuple(seq), warning=warning
    )
