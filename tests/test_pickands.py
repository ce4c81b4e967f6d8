"""Tests for the Pickands functional estimators.

Independent oracle: for alpha = 1 the drifted path chi(t_i) - t_i on the
grid is a Gaussian random walk with steps N(-eta, 2 eta), and Spitzer's
identity gives the exact expectation of exp(max): with
g_k = 2 Phi(sqrt(k * 2 eta) / 2),

    m * a_m = sum_{k=1}^m g_k a_{m-k},   a_0 = 1,

so a_n equals E exp(max_grid) exactly. The estimator must agree within
Monte Carlo error.

The same identity gives the discrete-time Pickands constant of the grid
delta Z (Piterbarg, Extremes 7, 2004) in closed form: a_n grows by
delta H_1^delta per step, with

    H_1^delta = delta^-1 exp(-2 sum_{k>=1} Phibar(sqrt(k delta / 2)) / k),

which tends to H_1 = 1 as delta -> 0. bgrf.pickands.discrete_pickands_h1
evaluates it; the acceptance suite and `bgrf verify` compare grid maxima
with the theorems through this constant.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bgrf.fields import cholesky_factor, fbm_covariance, fbm_grid, sample_blocks
from oracles import path_fold
from bgrf.pickands import (
    PickandsEstimate,
    _check_exponent_guard,
    _mean_exp,
    discrete_pickands_h1,
    estimate_H_constant,
    path_suprema,
)


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


def estimate_H_T(alpha, T, eta, reps, seed):
    """H_alpha([0, T]) and its standard error: estimate_H_constant's value
    at its last horizon T, times T (exact for the powers of two used)."""
    est = estimate_H_constant(alpha, [T / 2, 3 * T / 4, T], eta, reps, seed)
    assert est.replicates == reps
    return est.value * T, est.std_error * T


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
    # H_alpha([0, T]) = E exp(X_T), through estimate_H_constant

    def test_at_least_one_with_origin(self):
        for alpha in [0.5, 1.0, 1.5]:
            value, _ = estimate_H_T(alpha, 1.0, 1 / 16, reps=2000, seed=1)
            assert value >= 1.0

    def test_spitzer_oracle_alpha_one(self):
        T, eta, reps = 2.0, 1 / 32, 40_000
        value, se = estimate_H_T(1.0, T, eta, reps=reps, seed=101)
        want = spitzer_expectation(int(T / eta), 2 * eta)
        assert abs(value - want) <= 4 * se

    def test_spitzer_oracle_longer_horizon(self):
        T, eta, reps = 4.0, 1 / 32, 60_000
        value, se = estimate_H_T(1.0, T, eta, reps=reps, seed=202)
        want = spitzer_expectation(int(T / eta), 2 * eta)
        assert abs(value - want) <= 4 * se

    def test_halving_eta_never_decreases_much(self):
        T, reps = 2.0, 20_000
        coarse, coarse_se = estimate_H_T(1.2, T, 1 / 16, reps=reps, seed=7)
        fine, fine_se = estimate_H_T(1.2, T, 1 / 32, reps=reps, seed=7)
        guard = 2.0 * math.hypot(coarse_se, fine_se)
        assert fine >= coarse - guard

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            estimate_H_T(2.0, 1.0, 1 / 16, 100, 0)
        with pytest.raises(ValueError, match="eta"):
            estimate_H_T(1.0, 1.0, 0.5, 100, 0)


class TestEstimateHConstant:
    def test_pathwise_monotone_in_T(self):
        est = estimate_H_constant(1.0, [1.0, 2.0, 4.0], 1 / 16, reps=5000, seed=21)
        hT = [v * T for (T, v, _) in est.sequence]
        assert hT[0] <= hT[1] <= hT[2]  # shared paths: exact monotonicity

    def test_ratio_decreasing_in_T(self):
        est = estimate_H_constant(1.0, [1.0, 2.0, 4.0, 8.0], 1 / 32, reps=20_000, seed=23)
        ratios = [v for (_, v, _) in est.sequence]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert est.warning is None

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
# Oracle: the reduction path_suprema once ran on the consumer, one slice of
# the drifted block per horizon, kept as the reference for the segment
# extremes and running maximum it now takes. Column j of a block of paths
# gives replicate start + 2j, the path X, and replicate start + 2j + 1, its
# mirror -X, whose supremum is taken as -min((X - d) + 2d), the same
# arithmetic as path_suprema. Both see the same blocks, and max and min are
# exact, so the two must agree bit for bit.
# ---------------------------------------------------------------------------

def reference_suprema(alpha, T_list, eta, reps, seed):
    t = fbm_grid(T_list[-1], eta)
    L = cholesky_factor(fbm_covariance(alpha, t[1:]))
    ends = [round(T / eta) for T in T_list]
    drift = t**alpha
    out = np.empty((reps + 1, len(T_list)))
    for start, mat in sample_blocks(L, seed, reps, 1, path_fold):
        stop = start + 2 * mat.shape[1]
        vals = mat - drift[1:, None]  # drifted path on t[1:]
        shifted = vals + 2.0 * drift[1:, None]  # X + d, for the mirror
        for k, end in enumerate(ends):
            # [0, T_k] holds the origin, where the path is 0, and rows :end
            out[start:stop:2, k] = np.maximum(vals[:end].max(axis=0), 0.0)
            out[start + 1:stop:2, k] = np.maximum(-shifted[:end].min(axis=0), 0.0)
    return out[:reps]


class TestSupremaOracle:
    # eta = 1/128 puts 320 or 512 nodes on the path, two row panels of the
    # block product, the first ending on a 64-row panel; origin-only's
    # first horizon holds the origin and one node, so its supremum is often
    # the origin's 0; 4,100 reps are 2,050 noise columns, a partial block
    @pytest.mark.parametrize("T_list", [
        [1.0, 2.0, 4.0],
        [1 / 128, 2.5],
    ], ids=["prefix", "origin-only"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bit_identical(self, T_list, threads):
        args = (1.0, T_list, 1 / 128, 4100, 17)
        got = path_suprema(*args, threads=threads)
        want = reference_suprema(*args)
        assert np.array_equal(got, want)


class TestMirrorPairs:
    T_LIST = [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bit_identical_across_blocks(self, threads):
        # 8,195 reps are 4,098 noise columns: a full block, then a partial
        # one whose last mirror is dropped
        args = (1.0, self.T_LIST, 1 / 64, 8195, 23)
        got = path_suprema(*args, threads=threads)
        assert got.shape == (8195, 3)
        assert np.array_equal(got, reference_suprema(*args))

    def test_odd_reps_are_a_prefix(self):
        args = (1.0, self.T_LIST, 1 / 64)
        odd = path_suprema(*args, 4101, 31)
        even = path_suprema(*args, 4102, 31)
        assert np.array_equal(odd, even[:4101])

    def test_mirror_is_the_negated_path(self):
        alpha, eta, reps = 1.4, 1 / 64, 601
        t = fbm_grid(self.T_LIST[-1], eta)
        L = cholesky_factor(fbm_covariance(alpha, t[1:]))
        ((_, X),) = sample_blocks(L, 37, reps, 1, path_fold)
        mirror = -X - (t**alpha)[1:, None]  # -X - d, built directly
        want = np.stack([  # each horizon holds the origin, where the path is 0
            np.maximum(mirror[:32].max(axis=0), 0.0),  # [0, 0.5]
            np.maximum(mirror[:64].max(axis=0), 0.0),  # [0, 1]
            np.maximum(mirror[:128].max(axis=0), 0.0),  # [0, 2]
        ], axis=1)
        got = path_suprema(alpha, self.T_LIST, eta, reps, 37)
        assert np.allclose(got[1::2], want[:reps // 2], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [7, 8])
    def test_mean_exp_over_pairs(self, n):
        x = np.array([1.5, 0.9, 2.2, 1.1, 0.7, 3.0, 1.3, 0.8])[:n]
        mean, se = _mean_exp(np.log(x))
        pair_means = [(x[2 * i] + x[2 * i + 1]) / 2 for i in range(n // 2)]
        m = sum(pair_means) / len(pair_means)
        var = sum((p - m) ** 2 for p in pair_means) / (len(pair_means) - 1)
        assert math.isclose(mean, sum(x) / n, rel_tol=1e-14)
        assert math.isclose(se, math.sqrt(var) * math.sqrt(2 / n), rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mean_exp_fewer_than_two_pairs(self, n):
        x = np.array([1.5, 0.9, 2.2])[:n]
        mean, se = _mean_exp(np.log(x))
        assert math.isclose(mean, sum(x) / n, rel_tol=1e-14)
        assert se == 0.0

    def test_spitzer_oracle_odd_reps(self):
        T, eta, reps = 2.0, 1 / 32, 40_001
        value, se = estimate_H_T(1.0, T, eta, reps=reps, seed=303)
        want = spitzer_expectation(int(T / eta), 2 * eta)
        assert abs(value - want) <= 4 * se


class TestGuards:
    def test_exponent_guard_trips(self):
        with pytest.raises(OverflowError, match="exp guard"):
            _check_exponent_guard(np.array([10.0, 701.0]))

    def test_exponent_guard_passes(self):
        _check_exponent_guard(np.array([10.0, 600.0]))

    def test_misaligned_set_rejected(self):
        # the horizon [0, 0.7] ends off the grid of spacing 1/16
        with pytest.raises(ValueError, match="multiples of eta"):
            path_suprema(1.0, [0.5, 0.7], 1 / 16, 10, 0)

    @pytest.mark.parametrize("T_list", [[1.0, 1.0], [2.0, 1.0], [0.0, 1.0]],
                             ids=["repeated", "decreasing", "zero"])
    def test_non_increasing_horizons_rejected(self, T_list):
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            path_suprema(1.0, T_list, 1 / 16, 10, 0)

    @pytest.mark.parametrize("eta", [0.0, -0.125, math.inf, math.nan])
    def test_eta_must_be_finite_and_positive(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            path_suprema(1.0, [1.0, 2.0], eta, 10, 0)

    def test_infinite_horizon_rejected(self):
        with pytest.raises(ValueError, match=r"horizons \[1.0, inf\] must be finite multiples"):
            path_suprema(1.0, [1.0, math.inf], 1 / 16, 10, 0)

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
