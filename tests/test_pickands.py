"""Tests for the Pickands constant estimator.

Independent oracles:

- alpha = 1: on the grid delta Z the drifted path chi(t_i) - t_i is a
  Gaussian random walk with steps N(-delta, 2 delta), and Spitzer's
  identity gives the exact expectation of exp(max): with
  g_k = 2 Phi(sqrt(k * 2 delta) / 2),

      m * a_m = sum_{k=1}^m g_k a_{m-k},   a_0 = 1.

  a_n grows by delta H_1^delta per step, which gives the discrete-time
  Pickands constant of the grid (Piterbarg, Extremes 7, 2004) in closed
  form,

      H_1^delta = delta^-1 exp(-2 sum_{k>=1} Phibar(sqrt(k delta / 2)) / k),

  which tends to H_1 = 1 as delta -> 0. bgrf.pickands.discrete_pickands_h1
  evaluates it; the estimator, which estimates H_1^eta, must agree with it
  within Monte Carlo error on a window long enough, and the acceptance
  suite and `bgrf verify` compare grid maxima with the theorems through it.
- alpha = 2: chi(t) = sqrt(2) t Z, so the estimator's expectation on a
  finite window is a 1-D integral over Z
  (oracles.alpha_two_window_functional).
- the window ratios taken from whole paths (oracles.path_fold), against
  the fold that takes them tile by tile.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bgrf.fields import cholesky_factor, sample_blocks
from oracles import alpha_two_window_functional, path_fold, shell_lattice
from bgrf.pickands import (
    PickandsEstimate,
    _pair_mean,
    discrete_pickands_h1,
    estimate_H_constant,
    fbm_covariance,
    window_ratios,
)


def shell_nodes(eta, K):
    """eta, -eta, 2 eta, -2 eta, .., K eta, -K eta: the shell order in which
    estimate_H_constant lays out its nodes."""
    k = eta * np.arange(1, K + 1)
    return np.stack([k, -k], axis=1).ravel()


def spitzer_expectation(n_steps: int, step_var: float) -> float:
    """E exp(max(0, S_1, ..., S_n)) for steps N(-step_var/2, step_var)."""
    k = np.arange(1, n_steps + 1)
    z = np.sqrt(k * step_var) / 2.0
    g = 2.0 * 0.5 * (1.0 + np.array([math.erf(x / math.sqrt(2)) for x in z]))
    a = np.zeros(n_steps + 1)
    a[0] = 1.0
    for m in range(1, n_steps + 1):
        a[m] = np.dot(g[:m], a[m - 1 :: -1]) / m
    return float(a[n_steps])


class TestDiscretePickandsConstant:
    def test_series_matches_spitzer_growth(self):
        for delta in (0.02, 0.05):
            n = round(100.0 / delta)
            growth = spitzer_expectation(n, 2 * delta) - spitzer_expectation(
                n - 1, 2 * delta
            )
            assert abs(growth / delta - discrete_pickands_h1(delta)) <= 1e-5

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
    def test_needs_positive_step(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            discrete_pickands_h1(delta)

    def test_refuses_a_series_too_long_before_allocating(self):
        # delta = 1e-7 needs 2e9 terms, about 190 GB as Python floats
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="delta = 1e-07 needs 2e"):
                discrete_pickands_h1(1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_longest_allowed_series(self):
        # 200 / delta terms: 2e6 at delta = 1e-4, the smallest step accepted
        assert 0.99 < discrete_pickands_h1(1e-4) < 1.0
        with pytest.raises(ValueError, match="terms, over 2e"):
            discrete_pickands_h1(0.99e-4)
        # 200 / delta overflows: refused, not an OverflowError
        with pytest.raises(ValueError, match="needs inf terms"):
            discrete_pickands_h1(1e-320)


class TestEstimateHSet:
    # H_alpha^eta on the centred window set [-T/2, T/2], through
    # estimate_H_constant, against exact grid constants

    def test_spitzer_oracle_alpha_one(self):
        eta = 1 / 16
        est = estimate_H_constant(1.0, [8.0, 16.0, 32.0], eta, reps=16_384, seed=101)
        assert abs(est.value - discrete_pickands_h1(eta)) <= 2 * est.std_error

    def test_spitzer_oracle_longer_horizon(self):
        # windows 32 and 64 hold the grid constant within 2 SE, and the last
        # doubling moves the estimate by less than noise, so no warning
        eta = 1 / 16
        est = estimate_H_constant(1.0, [4.0, 8.0, 16.0, 32.0, 64.0], eta, reps=16_384,
                                  seed=202)
        for T, value, se in est.sequence[-2:]:
            assert abs(value - discrete_pickands_h1(eta)) <= 2 * se, T
        assert est.warning is None

    def test_alpha_two_oracle(self):
        # chi(t) = sqrt(2) t Z: a factor whose one nonzero column is
        # sqrt(2) t, since fbm_covariance refuses alpha = 2
        eta, halves = 1 / 16, [8, 16, 32]
        t = shell_nodes(eta, 32)
        L = np.zeros((len(t), len(t)))
        L[:, 0] = math.sqrt(2.0) * t
        ends = [2 * K for K in halves]
        values, ses = _pair_mean(window_ratios(L, t * t, eta, ends, 20_000, 41))
        for K, value, se in zip(halves, values, ses):
            assert abs(value - alpha_two_window_functional(eta, K)) <= 2 * se, K
        # the oracle itself: a wide window at eta = 1/64 is near H_2 = 1/sqrt(pi)
        wide = alpha_two_window_functional(1 / 64, 512)
        assert wide == pytest.approx(alpha_two_window_functional(1 / 64, 512, 16), abs=1e-12)
        assert abs(wide - 1 / math.sqrt(math.pi)) <= 2e-5

    def test_alpha_two_oracle_on_a_square_lattice(self):
        # the fold is dimension-free: on the shell-ordered lattice (eta Z)^2
        # the window [-K eta, K eta]^2 is the first (2K + 1)^2 - 1 rows, and
        # eta^2 is the cell. At alpha = 2, chi(t) = sqrt(2) <t, Z> and
        # W = chi - |t|^2 separates over the axes, so the window's
        # expectation is the 1-D one squared
        eta, halves = 1 / 8, [4, 8, 16]
        t = eta * shell_lattice(halves[-1], 2)
        # rotating Z leaves its law alone; this rotation zeroes the first
        # row's second column, so the rank-2 factor is lower triangular
        c, s = t[0] / np.linalg.norm(t[0])
        L = np.zeros((len(t), len(t)))
        L[:, :2] = math.sqrt(2.0) * t @ np.array([[c, -s], [s, c]])
        L[0, 1] = 0.0  # zero but for the rotation's rounding
        ends = [(2 * K + 1) ** 2 - 1 for K in halves]
        drift = (t * t).sum(axis=1)
        values, ses = _pair_mean(window_ratios(L, drift, eta**2, ends, 16_384, 11))
        for K, value, se in zip(halves, values, ses):
            assert abs(value - alpha_two_window_functional(eta, K) ** 2) <= 2 * se, K

    def test_halving_eta_never_decreases_much(self):
        T_list, reps = [1.0, 1.5, 2.0], 20_000
        coarse = estimate_H_constant(1.2, T_list, 1 / 16, reps=reps, seed=7)
        fine = estimate_H_constant(1.2, T_list, 1 / 32, reps=reps, seed=7)
        guard = 2.0 * math.hypot(coarse.std_error, fine.std_error)
        assert fine.value >= coarse.value - guard

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            estimate_H_constant(2.0, [0.5, 0.75, 1.0], 1 / 16, 100, 0)
        with pytest.raises(ValueError, match=r"need eta <= min\(T\)/8"):
            estimate_H_constant(1.0, [1.0, 2.0, 4.0], 0.25, 100, 0)


class TestEstimateHConstant:
    def test_ratio_decreasing_in_T(self):
        # a short window leaves lattice terms out of the sum: the estimate
        # falls as the window grows, and at T = 8 it still moves past noise
        est = estimate_H_constant(1.0, [1.0, 2.0, 4.0, 8.0], 1 / 32, reps=20_000, seed=23)
        ratios = [v for (_, v, _) in est.sequence]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert "the window is too short, and the estimate is biased high" in est.warning

    def test_alpha_near_two_approaches_classical_value(self):
        # H_2 = 1/sqrt(pi); alpha = 1.99 should sit near it from above
        est = estimate_H_constant(1.99, [1.0, 2.0, 4.0], 1 / 16, reps=20_000, seed=29)
        assert abs(est.value - 1.0 / math.sqrt(math.pi)) <= 0.2 / math.sqrt(math.pi)

    def test_reports_largest_horizon(self):
        est = estimate_H_constant(1.0, [1.0, 2.0, 4.0], 1 / 16, reps=2000, seed=31)
        assert est.horizon_T == 4.0
        assert len(est.sequence) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            estimate_H_constant(1.0, [1.0, 2.0], 1 / 16, 1000, 0)
        with pytest.raises(ValueError, match="increasing"):
            estimate_H_constant(1.0, [1.0, 1.0, 2.0], 1 / 16, 1000, 0)


# ---------------------------------------------------------------------------
# Oracle: the window ratios taken from whole paths. Column j of a block of
# paths X gives replicate start + 2j, W = X - |t|^a, and replicate
# start + 2j + 1, its mirror, W = -X - |t|^a; each window's ratio is
# e^max(W, 0) / (eta (1 + sum e^W)) over its rows, t = 0 being the 0 and
# the 1. The fold sums each window tile by tile, in another order, so the
# two agree to rounding.
# ---------------------------------------------------------------------------

def centred_factor(alpha, T_max, eta):
    """(t, L): the nodes eta, -eta, 2 eta, -2 eta, .., K eta, -K eta in
    shell order, K = T_max / (2 eta), and the Cholesky factor of chi on
    them."""
    t = shell_nodes(eta, round(T_max / (2 * eta)))
    return t, cholesky_factor(fbm_covariance(alpha, t))


def reference_ratios(alpha, T_list, eta, reps, seed):
    t, L = centred_factor(alpha, T_list[-1], eta)
    drift = np.abs(t)[:, None] ** alpha
    out = np.empty((reps + 1, len(T_list)))
    for start, X in sample_blocks(L, seed, reps, 1, path_fold):
        stop = start + 2 * X.shape[1]
        for offset, W in ((0, X - drift), (1, -X - drift)):
            for k, T in enumerate(T_list):
                rows = W[: 2 * round(T / (2 * eta))]
                top = np.maximum(rows.max(axis=0), 0.0)
                out[start + offset : stop : 2, k] = (
                    np.exp(top) / (eta * (1.0 + np.exp(rows).sum(axis=0))))
    return out[:reps]


def ratios_of(alpha, T_list, eta, reps, seed, threads=1):
    t, L = centred_factor(alpha, T_list[-1], eta)
    ends = [round(T / eta) for T in T_list]
    return window_ratios(L, np.abs(t) ** alpha, eta, ends, reps, seed, threads)


class TestWindowOracle:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_smaller_window_factor_is_the_leading_block(self, alpha):
        # shell order makes each window a prefix of the nodes, so its factor
        # is the leading block of the largest window's factor
        t, L = centred_factor(alpha, 8.0, 1 / 64)
        for m in (64, 128, 256):
            small = cholesky_factor(fbm_covariance(alpha, t[:m]))
            assert np.max(np.abs(small - L[:m, :m])) <= 1e-12 * np.abs(L).max(), m

    # eta = 1/128 puts 512 or 320 nodes on the window, two row panels of
    # the block product (320 = 256 + 64); origin-only's first window holds
    # the origin and one node either side; 4,100 reps are 2,050 noise
    # columns, a partial block
    @pytest.mark.parametrize("T_list", [
        [1.0, 2.0, 4.0],
        [1 / 64, 2.5],
    ], ids=["nested", "origin-only"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_the_paths_ratios(self, T_list, threads):
        args = (1.3, T_list, 1 / 128, 4100, 17)
        got = ratios_of(*args, threads=threads)
        assert np.allclose(got, reference_ratios(*args), rtol=1e-12, atol=0.0)
        # each ratio is at most 1/eta: the sum holds the maximal term
        assert np.all((got > 0.0) & (got <= 128.0))


class TestMirrorPairs:
    T_LIST = [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bit_identical_across_blocks(self, threads):
        # 8,195 reps are 4,098 noise columns: a full block, then a partial
        # one whose last mirror is dropped; the blocks give the same bits at
        # any thread count
        args = (1.0, self.T_LIST, 1 / 64, 8195, 23)
        got = ratios_of(*args, threads=threads)
        assert got.shape == (8195, 3)
        assert np.array_equal(got, ratios_of(*args, threads=1))
        assert np.allclose(got, reference_ratios(*args), rtol=1e-12, atol=0.0)

    def test_odd_reps_are_a_prefix(self):
        args = (1.0, self.T_LIST, 1 / 64)
        odd = ratios_of(*args, 4101, 31)
        even = ratios_of(*args, 4102, 31)
        assert np.array_equal(odd, even[:4101])

    def test_mirror_is_the_negated_path(self):
        alpha, eta, reps = 1.4, 1 / 64, 601
        t, L = centred_factor(alpha, self.T_LIST[-1], eta)
        ((_, X),) = sample_blocks(L, 37, reps, 1, path_fold)
        mirror = -X - np.abs(t)[:, None] ** alpha  # -X - d, built directly
        want = []
        for h in (16, 32, 64):  # the windows [-T/2, T/2] hold the origin, W = 0
            rows = mirror[: 2 * h]
            want.append(np.exp(np.maximum(rows.max(axis=0), 0.0))
                        / (eta * (1.0 + np.exp(rows).sum(axis=0))))
        got = ratios_of(alpha, self.T_LIST, eta, reps, 37)
        assert np.allclose(got[1::2], np.stack(want, axis=1)[: reps // 2],
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [7, 8])
    def test_mean_over_pairs(self, n):
        x = np.array([1.5, 0.9, 2.2, 1.1, 0.7, 3.0, 1.3, 0.8])[:n]
        mean, se = _pair_mean(x)
        pair_means = [(x[2 * i] + x[2 * i + 1]) / 2 for i in range(n // 2)]
        m = sum(pair_means) / len(pair_means)
        var = sum((p - m) ** 2 for p in pair_means) / (len(pair_means) - 1)
        assert math.isclose(mean, sum(x) / n, rel_tol=1e-14)
        assert math.isclose(se, math.sqrt(var) * math.sqrt(2 / n), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mean_fewer_than_two_pairs(self, n):
        x = np.array([1.5, 0.9, 2.2])[:n]
        mean, se = _pair_mean(x)
        assert math.isclose(mean, sum(x) / n, rel_tol=1e-14)
        assert se == 0.0

    def test_spitzer_oracle_odd_reps(self):
        eta = 1 / 16
        est = estimate_H_constant(1.0, [8.0, 16.0, 32.0], eta, reps=40_001, seed=303)
        assert est.replicates == 40_001
        assert abs(est.value - discrete_pickands_h1(eta)) <= 4 * est.std_error


class TestGuards:
    def test_misaligned_set_rejected(self):
        # [-1.0625/2, 1.0625/2] ends off the grid of spacing 1/16: 8.5 nodes
        # either side of the origin
        with pytest.raises(ValueError, match="must be finite even multiples of eta"):
            estimate_H_constant(1.0, [1.0, 1.0625, 2.0], 1 / 16, 10, 0)
        with pytest.raises(ValueError, match="must be finite even multiples of eta"):
            estimate_H_constant(1.0, [1.0, 2.0, 2.7], 1 / 16, 10, 0)

    @pytest.mark.parametrize("T_list", [[1.0, 1.0, 2.0], [2.0, 1.0, 4.0], [0.0, 1.0, 2.0]],
                             ids=["repeated", "decreasing", "zero"])
    def test_non_increasing_horizons_rejected(self, T_list):
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            estimate_H_constant(1.0, T_list, 1 / 16, 10, 0)

    @pytest.mark.parametrize("eta", [0.0, -0.125, math.inf, math.nan])
    def test_eta_must_be_finite_and_positive(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            estimate_H_constant(1.0, [1.0, 2.0, 4.0], eta, 10, 0)

    def test_infinite_horizon_rejected(self):
        with pytest.raises(ValueError, match=r"windows \[1.0, 2.0, inf\] must be finite"):
            estimate_H_constant(1.0, [1.0, 2.0, math.inf], 1 / 16, 10, 0)

    def test_node_budget_before_the_grid(self):
        # eta = 2^-20 to T = 4 is 4,194,304 nodes, 32 MB per array: the
        # budget refuses them before any is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="4194304 nodes exceed the node budget"):
                estimate_H_constant(1.0, [1.0, 2.0, 4.0], 2.0**-20, 10, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_estimate_type_validation(self):
        with pytest.raises(ValueError):
            PickandsEstimate(-1.0, 0.0, 1.0, 1.0, 0.1, 10, ())
