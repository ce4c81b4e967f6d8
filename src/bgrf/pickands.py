"""Monte Carlo estimation of the Pickands constant.

With chi the rescaled fractional Brownian motion (covariance
|s|^a + |t|^a - |t-s|^a) and W(t) = chi(t) - |t|^a, Dieker and Yakir
(Bernoulli 20(3), 2014) give the Pickands constant of the grid eta Z as

    H_a^eta = E[ max_t e^W(t) / (eta sum_t e^W(t)) ],   t in eta Z,

which tends to H_a as eta -> 0. Each ratio lies in (0, 1/eta], so the
estimate has no heavy tail. It is taken on the centred windows
eta Z ∩ [-T/2, T/2] of T_list, t = 0 counted as W(0) = 0, all windows
sharing one path per replicate. A window leaves lattice terms out of the
sum, so a short window biases the estimate high.

The nodes are ordered by shell, t = eta, -eta, 2 eta, -2 eta, ..., so
every window is a prefix of the rows: the window of T / eta nodes is the
first T / eta rows, and its Cholesky factor is the leading block of the
largest window's factor.

chi and -chi have the same law, and L(-Z) = -(LZ), so the sampler's
replicates come in pairs, a path and its mirror (antithetic variates,
fields.sample_blocks): reps paths take ceil(reps / 2) noise columns. The
standard error is taken over the (path, mirror) pairs, which are
independent of one another.

At alpha = 1 the grid constant is known exactly: on delta Z the drifted
path is a Gaussian random walk, and Spitzer's identity gives H_1^delta in
closed form (discrete_pickands_h1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fields import _check_nodes, _mirror_pairs, check_reps, cholesky_factor, sample_blocks

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


def fbm_covariance(alpha: float, t: np.ndarray) -> np.ndarray:
    """Cov(chi(s), chi(t)) = |s|^a + |t|^a - |t-s|^a for 0 < a < 2, on any
    nodes (one- or two-sided, in any order).

    This is twice the standard fBm covariance: Var chi(t) = 2 |t|^alpha.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    _check_nodes(len(t))
    ta = np.abs(t) ** alpha
    return ta[:, None] + ta[None, :] - np.abs(t[:, None] - t[None, :]) ** alpha


def _window_fold(
    start: int, take: int, block: np.ndarray, tiles: Iterable[tuple[int, np.ndarray]],
    ends: Sequence[int], drift: np.ndarray, eta: float,
) -> np.ndarray:
    """A fold of fields.sample_blocks: the (take, len(ends)) ratios
    max e^W / (eta sum e^W) of each path and its mirror, in replicate order
    (_mirror_pairs). W is X - drift for path X and -X - drift for its
    mirror; window k holds rows [0, ends[k]) and t = 0, where W = 0.

    Each tile (a, rows) is folded into running maxima of W and sums of e^W
    over the rows [ends[k - 1], ends[k]) that window k adds, the tile turned
    into W in place; e^W goes into the tile's own rows of block, free once
    the tile is yielded. No overflow guard is needed: E e^W(t) = 1, so
    P(W(t) > 700) <= e^-700 at any node (Markov).
    """
    shape = (2, len(ends), block.shape[1])  # path, mirror
    # W(0) = 0 starts every maximum and window 0's sum; the cumsum carries it on
    top, total = np.zeros(shape), np.zeros(shape)
    total[:, 0] = 1.0
    for a, rows in tiles:
        b = a + len(rows)
        rows -= drift[a:b]
        for m in (0, 1):
            if m:
                np.subtract(-2.0 * drift[a:b], rows, out=rows)  # -X - drift
            np.exp(rows, out=block[a:b])
            for k, (s, e) in enumerate(zip([0, *ends], ends)):
                s, e = max(s, a), min(e, b)
                if s < e:
                    np.maximum(top[m, k], rows[s - a : e - a].max(axis=0), out=top[m, k])
                    total[m, k] += block[s:e].sum(axis=0)
    np.maximum.accumulate(top, axis=1, out=top)
    np.cumsum(total, axis=1, out=total)
    ratio = np.exp(top, out=top) / np.multiply(eta, total, out=total)
    return _mirror_pairs(ratio[0].T, ratio[1].T, take)


def window_ratios(
    L: np.ndarray, drift: np.ndarray, eta: float, ends: Sequence[int],
    reps: int, seed: int, threads: int = 1,
) -> np.ndarray:
    """(reps, len(ends)) ratios max e^W / (eta sum e^W) on the windows
    made of the first ends[k] nodes and t = 0, W = chi - drift, for the
    factor L of chi on nodes in shell order (pickands module docstring),
    drift the values of |t|^alpha on them, eta the lattice's cell. One
    shared path per replicate, deterministic in (seed, replicate), in the
    sampler's mirror pairs, a path and -path.
    """
    out = np.empty((reps, len(ends)))
    fold = functools.partial(_window_fold, ends=ends, drift=drift[:, None], eta=eta)
    for start, ratios in sample_blocks(L, seed, reps, threads, fold):
        out[start : start + len(ratios)] = ratios
    return out


def _pair_mean(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means of x over replicates (axis 0), and their standard errors over
    the complete (path, mirror) pairs: std(pair means) * sqrt(2 / n), 0 with
    fewer than two pairs."""
    n = x.shape[0]
    pairs = x[: n - n % 2].reshape(-1, 2, *x.shape[1:]).mean(axis=1)
    se = np.std(pairs, axis=0, ddof=1) if len(pairs) > 1 else np.zeros(x.shape[1:])
    return np.mean(x, axis=0), se * math.sqrt(2.0 / n)


def estimate_H_constant(
    alpha: float, T_list: list[float], eta: float, reps: int, seed: int, threads: int = 1,
) -> PickandsEstimate:
    """Estimate the grid Pickands constant H_alpha^eta on the centred
    windows [-T/2, T/2] of T_list, each an even multiple of eta.

    All windows share paths. The per-window sequence of estimates is
    reported; a last step that moves the estimate by more than twice its
    combined standard error sets a warning that the window is too short.
    """
    if len(T_list) < 3:
        raise ValueError("T_list needs at least 3 horizons")
    check_reps(reps)
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    ends = [T / eta for T in T_list]  # nodes in each window, t = 0 aside
    if not all(math.isfinite(e) and abs(e / 2 - round(e / 2)) <= 1e-9 for e in ends):
        raise ValueError(f"windows {T_list} must be finite even multiples of eta")
    ends = [2 * round(e / 2) for e in ends]
    if not (0 < ends[0] and all(a < b for a, b in zip(ends, ends[1:]))):
        raise ValueError(f"windows {T_list} must be positive and strictly increasing")
    if eta > T_list[0] / 8:
        raise ValueError(f"need eta <= min(T)/8, got eta={eta}")
    _check_nodes(ends[-1])  # before any node array exists
    k = eta * np.arange(1, ends[-1] // 2 + 1)
    t = np.stack([k, -k], axis=1).ravel()  # shell order: eta, -eta, 2 eta, ...
    # no name here holds the factor, so it is freed before the means are taken
    ratios = window_ratios(cholesky_factor(fbm_covariance(alpha, t)), np.abs(t) ** alpha,
                           eta, ends, reps, seed, threads)
    values, ses = _pair_mean(ratios)
    seq = tuple(zip(map(float, T_list), values.tolist(), ses.tolist()))
    (t0, v0, s0), (t1, v1, s1) = seq[-2:]
    warning = None
    if abs(v1 - v0) > 2.0 * math.hypot(s0, s1):
        warning = (f"the estimate moved from {v0:.4g} (T={t0:g}) to {v1:.4g} (T={t1:g}) "
                   "beyond noise: the window is too short, and the estimate is biased high")
    return PickandsEstimate(v1, s1, alpha, t1, eta, reps, sequence=seq, warning=warning)
