"""Monte Carlo estimation of Pickands functionals.

With chi the rescaled fractional Brownian motion (covariance
|s|^a + |t|^a - |t-s|^a) and X_S = sup_{t in S} (chi(t) - |t|^a), the
estimators use the expectation forms

    H_a(T)    = E exp(X_[0,T]),
    H_a(S, T) = E exp(min(X_S, X_T)),
    H_a       = lim_T H_a([0,T]) / T,

with suprema taken over a grid of spacing eta, so estimates carry a
negative discretisation bias that shrinks as eta decreases. Within one
call all sets share a single path per replicate (common random numbers),
which makes H_a(T) pathwise nondecreasing in T and makes the identity
exp(X) + exp(Y) - exp(max(X,Y)) = exp(min(X,Y)) hold replicate by
replicate up to roundoff.

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

from .fields import cholesky_factor, fbm_covariance, fbm_grid, sample_suprema

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
    sequence: tuple[tuple[float, float, float], ...] | None = None
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
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta}")
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


def _set_to_indices(lo: float, hi: float, eta: float, n_steps: int) -> tuple[int, int]:
    """Grid indices (i_lo, i_hi) of the set's endpoints."""
    i_lo, i_hi = lo / eta, hi / eta
    if abs(i_lo - round(i_lo)) > 1e-9 or abs(i_hi - round(i_hi)) > 1e-9:
        raise ValueError(f"set endpoints ({lo}, {hi}) must be multiples of eta")
    i_lo, i_hi = int(round(i_lo)), int(round(i_hi))
    if not (0 <= i_lo <= i_hi <= n_steps):
        raise ValueError(f"set ({lo}, {hi}) outside the simulated horizon")
    return i_lo, i_hi


def path_suprema(
    alpha: float,
    sets: list[tuple[float, float]],
    eta: float,
    horizon: float,
    reps: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """(reps, len(sets)) matrix of sup_{t in S_k} (chi(t) - t^alpha).

    One shared path per replicate; deterministic in (seed, replicate).
    Replicates come in the sampler's mirror pairs, a path X and -X. Block
    rows hold the path on t[1:]; the rows are cut at every set's
    endpoints, each segment's supremum is taken once per replicate by
    fields.sample_suprema, and a set's supremum is the maximum over the
    segments it spans (and 0, the path at t = 0, when it holds the origin).
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    t = fbm_grid(horizon, eta)
    L = cholesky_factor(fbm_covariance(alpha, t[1:]))
    n_steps = len(t) - 1
    # set k spans block rows [start, stop): t indices max(i_lo, 1) .. i_hi
    spans = []
    for lo, hi in sets:
        i_lo, i_hi = _set_to_indices(lo, hi, eta, n_steps)
        spans.append((max(i_lo, 1) - 1, i_hi, i_lo == 0))
    cuts = sorted({c for start, stop, _ in spans for c in (start, stop)})
    segments = [
        (a, b) for a, b in zip(cuts, cuts[1:])
        if any(start <= a and b <= stop for start, stop, _ in spans)
    ]
    sups = sample_suprema(L, seed, reps, threads, segments, (t**alpha)[1:, None])
    out = np.empty((reps, len(sets)))
    for k, (start, stop, has_origin) in enumerate(spans):
        js = [j for j, (a, b) in enumerate(segments) if start <= a and b <= stop]
        # a set holding the origin also holds the path's value 0 at t = 0
        np.max(sups[:, js], axis=1, out=out[:, k], initial=0.0 if has_origin else -np.inf)
    return out


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


def estimate_H_set(
    alpha: float, T: float, eta: float, reps: int, seed: int, threads: int = 1
) -> PickandsEstimate:
    """Estimate H_alpha([0, T]) = E exp(sup (chi - t^alpha)).

    T = 0 degenerates to the set {0}, where the value is exactly 1.
    """
    if T == 0:
        return PickandsEstimate(1.0, 0.0, alpha, 0.0, eta, reps)
    if not (T > 0):
        raise ValueError("T must be nonnegative")
    if eta > T / 8:
        raise ValueError(f"need eta <= T/8, got eta={eta} for T={T}")
    sups = path_suprema(alpha, [(0.0, T)], eta, T, reps, seed, threads)
    value, se = _mean_exp(sups[:, 0])
    return PickandsEstimate(value, se, alpha, T, eta, reps)


def estimate_H_joint(
    alpha: float,
    S_set: tuple[float, float],
    T_set: tuple[float, float],
    eta: float,
    reps: int,
    seed: int,
    threads: int = 1,
) -> PickandsEstimate:
    """Estimate H_alpha(S, T) = E exp(min(X_S, X_T)) on shared paths."""
    horizon = max(S_set[1], T_set[1])
    if horizon <= 0:
        raise ValueError("sets must have positive extent")
    sups = path_suprema(alpha, [S_set, T_set], eta, horizon, reps, seed, threads)
    value, se = _mean_exp(np.minimum(sups[:, 0], sups[:, 1]))
    return PickandsEstimate(value, se, alpha, horizon, eta, reps)


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
    if any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise ValueError("T_list must be strictly increasing")
    T_max = T_list[-1]
    if eta > T_list[0] / 8:
        raise ValueError(f"need eta <= min(T)/8, got eta={eta}")
    sups = path_suprema(
        alpha, [(0.0, T) for T in T_list], eta, T_max, reps, seed, threads
    )
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
