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
from bgrf.pickands import (
    PickandsEstimate,
    _check_exponent_guard,
    _mean_exp,
    _set_to_indices,
    discrete_pickands_h1,
    estimate_H_constant,
    estimate_H_joint,
    estimate_H_set,
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


class TestDiscretePickandsConstant:
    def test_series_matches_spitzer_growth(self):
        for delta in (0.02, 0.05):
            n = round(100.0 / delta)
            growth = spitzer_expectation(n, 2 * delta) - spitzer_expectation(
                n - 1, 2 * delta
            )
            assert abs(growth / delta - discrete_pickands_h1(delta)) <= 1e-5

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan])
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
    def test_degenerate_origin_set(self):
        est = estimate_H_set(1.0, 0.0, 1 / 16, reps=100, seed=0)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_at_least_one_with_origin(self):
        for alpha in [0.5, 1.0, 1.5]:
            est = estimate_H_set(alpha, 1.0, 1 / 16, reps=2000, seed=1)
            assert est.value >= 1.0

    def test_spitzer_oracle_alpha_one(self):
        T, eta, reps = 2.0, 1 / 32, 40_000
        est = estimate_H_set(1.0, T, eta, reps=reps, seed=101)
        want = spitzer_expectation(int(T / eta), 2 * eta)
        assert abs(est.value - want) <= 4 * est.std_error

    def test_spitzer_oracle_longer_horizon(self):
        T, eta, reps = 4.0, 1 / 32, 60_000
        est = estimate_H_set(1.0, T, eta, reps=reps, seed=202)
        want = spitzer_expectation(int(T / eta), 2 * eta)
        assert abs(est.value - want) <= 4 * est.std_error

    def test_halving_eta_never_decreases_much(self):
        T, reps = 2.0, 20_000
        coarse = estimate_H_set(1.2, T, 1 / 16, reps=reps, seed=7)
        fine = estimate_H_set(1.2, T, 1 / 32, reps=reps, seed=7)
        guard = 2.0 * math.hypot(coarse.std_error, fine.std_error)
        assert fine.value >= coarse.value - guard

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            estimate_H_set(2.0, 1.0, 1 / 16, 100, 0)
        with pytest.raises(ValueError, match="eta"):
            estimate_H_set(1.0, 1.0, 0.5, 100, 0)


class TestEstimateHJoint:
    def test_same_set_equals_single(self):
        kw = dict(eta=1 / 16, reps=5000, seed=5)
        joint = estimate_H_joint(1.0, (0.0, 2.0), (0.0, 2.0), **kw)
        single = estimate_H_set(1.0, 2.0, **kw)
        assert joint.value == single.value  # same paths, min(X, X) = X

    def test_replicatewise_identity(self):
        # e^X + e^Y - e^max = e^min to roundoff on every path
        sups = path_suprema(
            1.0, [(0.0, 1.0), (4.0, 5.0)], 1 / 16, 5.0, reps=4000, seed=9
        )
        ex, ey = np.exp(sups[:, 0]), np.exp(sups[:, 1])
        lhs = ex + ey - np.exp(np.maximum(sups[:, 0], sups[:, 1]))
        rhs = np.exp(np.minimum(sups[:, 0], sups[:, 1]))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * (ex + ey))

    def test_disjoint_below_single(self):
        kw = dict(eta=1 / 16, reps=20_000, seed=13)
        joint = estimate_H_joint(1.0, (0.0, 1.0), (4.0, 5.0), **kw)
        single = estimate_H_set(1.0, 1.0, **kw)
        assert joint.value < single.value


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
# Oracle: the reduction path_suprema once ran on the consumer, one fancy-index
# copy of the drifted block per set, kept as the reference for the segment
# extremes it now takes on the worker. Column j of a block of paths gives
# replicate start + 2j, the path X, and replicate start + 2j + 1, its mirror
# -X, whose supremum is taken as -min((X - d) + 2d), the same arithmetic as
# path_suprema. Both see the same blocks, and max and min are exact, so the two
# must agree bit for bit.
# ---------------------------------------------------------------------------

def reference_suprema(alpha, sets, eta, horizon, reps, seed):
    t = fbm_grid(horizon, eta)
    L = cholesky_factor(fbm_covariance(alpha, t[1:]))
    n_steps = len(t) - 1
    idx = [np.arange(i_lo, i_hi + 1)
           for i_lo, i_hi in (_set_to_indices(lo, hi, eta, n_steps) for lo, hi in sets)]
    drift = t**alpha
    out = np.empty((reps + 1, len(sets)))
    for start, mat in sample_blocks(L, seed, reps):
        stop = start + 2 * mat.shape[1]
        vals = mat - drift[1:, None]  # drifted path on t[1:]
        shifted = vals + 2.0 * drift[1:, None]  # X + d, for the mirror
        for k, ix in enumerate(idx):
            has_origin = ix[0] == 0
            rows = ix[ix > 0] - 1
            if rows.size:
                segs = (vals[rows].max(axis=0), -shifted[rows].min(axis=0))
                if has_origin:
                    segs = tuple(np.maximum(seg, 0.0) for seg in segs)
            else:
                segs = (0.0, 0.0)  # the set {0}
            out[start : stop : 2, k], out[start + 1 : stop : 2, k] = segs
    return out[:reps]


class TestSupremaOracle:
    # eta = 1/128 puts 128 to 640 nodes on the path, one to three row
    # panels of the block product; 4,100 reps are 2,050 noise columns, a
    # partial block
    @pytest.mark.parametrize("sets, horizon", [
        ([(0.0, 1.0), (0.0, 2.0), (0.0, 4.0)], 4.0),
        ([(0.5, 1.0), (1.0, 2.0)], 2.0),
        ([(0.0, 0.0), (0.0, 1.0)], 1.0),
        ([(0.0, 1.0), (4.0, 5.0), (0.25, 4.5)], 5.0),
        ([(1.0, 1.0), (0.0, 0.0)], 2.0),
    ], ids=["prefix", "joint", "origin-only", "gap-and-overlap", "points"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bit_identical(self, sets, horizon, threads):
        args = (1.0, sets, 1 / 128, horizon, 4100, 17)
        got = path_suprema(*args, threads=threads)
        want = reference_suprema(*args)
        assert np.array_equal(got, want)

    def test_joint_estimate(self):
        S, T = (0.5, 1.0), (1.0, 2.0)
        est = estimate_H_joint(1.3, S, T, 1 / 128, 4100, 19)
        sups = reference_suprema(1.3, [S, T], 1 / 128, 2.0, 4100, 19)
        value, se = _mean_exp(np.minimum(sups[:, 0], sups[:, 1]))
        assert (est.value, est.std_error) == (value, se)


class TestMirrorPairs:
    SETS = [(0.0, 1.0), (0.5, 2.0), (0.0, 0.0)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bit_identical_across_blocks(self, threads):
        # 8,195 reps are 4,098 noise columns: a full block, then a partial
        # one whose last mirror is dropped
        args = (1.0, self.SETS, 1 / 64, 2.0, 8195, 23)
        got = path_suprema(*args, threads=threads)
        assert got.shape == (8195, 3)
        assert np.array_equal(got, reference_suprema(*args))

    def test_odd_reps_are_a_prefix(self):
        args = (1.0, self.SETS, 1 / 64, 2.0)
        odd = path_suprema(*args, 4101, 31)
        even = path_suprema(*args, 4102, 31)
        assert np.array_equal(odd, even[:4101])

    def test_mirror_is_the_negated_path(self):
        alpha, eta, horizon, reps = 1.4, 1 / 64, 2.0, 601
        t = fbm_grid(horizon, eta)
        L = cholesky_factor(fbm_covariance(alpha, t[1:]))
        ((_, X),) = sample_blocks(L, 37, reps)
        mirror = -X - (t**alpha)[1:, None]  # -X - d, built directly
        want = np.stack([
            np.maximum(mirror[:64].max(axis=0), 0.0),  # [0, 1]: holds the origin
            mirror[31:128].max(axis=0),  # [0.5, 2]: t indices 32..128
            np.zeros(X.shape[1]),  # {0}
        ], axis=1)
        got = path_suprema(alpha, self.SETS, eta, horizon, reps, 37)
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
        est = estimate_H_set(1.0, T, eta, reps=reps, seed=303)
        want = spitzer_expectation(int(T / eta), 2 * eta)
        assert est.replicates == reps
        assert abs(est.value - want) <= 4 * est.std_error


class TestGuards:
    def test_exponent_guard_trips(self):
        with pytest.raises(OverflowError, match="exp guard"):
            _check_exponent_guard(np.array([10.0, 701.0]))

    def test_exponent_guard_passes(self):
        _check_exponent_guard(np.array([10.0, 600.0]))

    def test_origin_only_sets_give_zeros(self):
        # the set {0} spans no row, so there is no segment to reduce
        got = path_suprema(1.0, [(0.0, 0.0)], 1 / 16, 1.0, 5, 0)
        assert np.array_equal(got, np.zeros((5, 1)))

    def test_misaligned_set_rejected(self):
        with pytest.raises(ValueError, match="multiples of eta"):
            path_suprema(1.0, [(0.0, 0.7)], 1 / 16, 1.0, 10, 0)

    def test_estimate_type_validation(self):
        with pytest.raises(ValueError):
            PickandsEstimate(-1.0, 0.0, 1.0, 1.0, 0.1, 10)
