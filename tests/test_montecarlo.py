"""Tests for the brute-force excursion estimator and rate fitting.

The colocated-pair oracle P(xi > 2, eta > 2) = 0.00405294623516 for
correlation 0.5 was computed by 1-D quadrature of
phi(x) * Phibar((u - rho x)/sqrt(1 - rho^2)) with mpmath at 25 digits.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from bgrf import fields, montecarlo
from bgrf.fields import DomainPair, GridSpec, Rect, cholesky_factor, build_covariance, write_sample_dump
from bgrf.model import BivariateMaternModel, cross_corr
from bgrf.montecarlo import (
    ExcursionEstimate,
    estimates_from_maxima,
    field_maxima,
    maxima_from_dump,
    rate_fit,
    record_tag,
    recorded_maxima,
    wilson_interval,
    write_record,
)

ORTHANT_2_HALF = 0.00405294623516
PHIBAR_1 = 0.15865525393145707


def interval(lo, hi):
    return Rect((float(lo),), (float(hi),))


def point_grid():
    d = DomainPair(A1=(interval(0, 0),), A2=(interval(0, 0),), dim_N=1)
    return GridSpec(d, 1)


def model(rho, nu12=1.5):
    return BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=nu12, rho=rho)


def orthant(u, r):
    """P(X > u, Y > u) for standard normals of correlation r, exactly:
    the integral over x > u of phi(x) Phibar((u - r x) / sqrt(1 - r^2)),
    by 200-node Gauss-Legendre on [u, u + 20], past which phi(x) < 1e-86."""
    x, w = np.polynomial.legendre.leggauss(200)
    x = u + 10.0 * (x + 1.0)
    tail = [0.5 * math.erfc((u - r * t) / math.sqrt(2.0 * (1.0 - r * r))) for t in x]
    return 10.0 * float(np.dot(w, np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi) * tail))


def excursion(m, g, u, reps, seed):
    """The single-threshold estimate on live maxima."""
    return estimates_from_maxima(*field_maxima(m, g, reps, seed), [u], seed)[0]


class TestMcExcursion:
    def test_threshold_below_everything(self):
        est = excursion(model(0.4), point_grid(), u=-1000.0, reps=1000, seed=1)
        assert est.p_hat == 1.0
        assert est.hits == 1000

    def test_independent_single_nodes(self):
        est = excursion(model(0.0), point_grid(), u=1.0, reps=200_000, seed=2)
        want = PHIBAR_1**2
        se = math.sqrt(want * (1 - want) / est.replicates)
        assert abs(est.p_hat - want) < 3 * se

    def test_colocated_pair_orthant_oracle(self):
        est = excursion(model(0.5), point_grid(), u=2.0, reps=500_000, seed=3)
        se = math.sqrt(ORTHANT_2_HALF * (1 - ORTHANT_2_HALF) / est.replicates)
        assert abs(est.p_hat - ORTHANT_2_HALF) < 3 * se

    def test_orthant_reference_matches_the_frozen_constant(self):
        assert orthant(2.0, 0.5) == pytest.approx(ORTHANT_2_HALF, rel=1e-10)

    def test_one_node_per_field_against_the_exact_orthant(self, tmp_path):
        # X1 at 0 and X2 at 0.5, of correlation r = cross_corr(m, 0.5): live
        # maxima and maxima from a dump each within 4 binomial SE of exact
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(0.5, 2),), dim_N=1)
        g = GridSpec(d, 1)
        m = model(0.4)
        r = float(cross_corr(m, 0.5))
        reps, seed = 200_000, 11
        p = str(tmp_path / "samples.bgrf")
        write_sample_dump(p, cholesky_factor(build_covariance(m, g)), seed, reps, 0)
        for maxima in (field_maxima(m, g, reps, seed), maxima_from_dump(p, g.n1)):
            for est in estimates_from_maxima(*maxima, [1.0, 2.0, 3.0], seed):
                want = orthant(est.u, r)
                assert abs(est.p_hat - want) <= 4 * math.sqrt(want * (1 - want) / reps)

    def test_two_nodes_per_field_against_the_exact_excursion(self, tmp_path):
        # the README model at A1 = A2 = {0, 1}: with Phi_d(u; S) the normal
        # cdf at (u, ..., u), P(max X1 > u, max X2 > u) is
        # 1 - Phi_2(u; S11) - Phi_2(u; S22) + Phi_4(u; S)
        side = (interval(0, 1),)
        g = GridSpec(DomainPair(A1=side, A2=side, dim_N=1), 2)
        m = model(0.5)
        cov = build_covariance(m, g)

        def cdf(u, s):
            dim = len(s)
            return multivariate_normal.cdf(
                np.full(dim, u), cov=s, maxpts=100_000 * dim, abseps=1e-10, releps=0,
                rng=np.random.default_rng(1))

        exact = {u: 1 - cdf(u, cov[:2, :2]) - cdf(u, cov[2:, 2:]) + cdf(u, cov)
                 for u in (1.0, 2.0, 3.0)}
        reps, seed = 200_000, 13
        p = str(tmp_path / "samples.bgrf")
        write_sample_dump(p, cholesky_factor(cov), seed, reps, 0)
        for maxima in (field_maxima(m, g, reps, seed), maxima_from_dump(p, g.n1)):
            for est in estimates_from_maxima(*maxima, list(exact), seed):
                want = exact[est.u]
                assert abs(est.p_hat - want) <= 4 * math.sqrt(want * (1 - want) / reps)

    def test_monotone_in_u_on_shared_samples(self):
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1)
        g = GridSpec(d, 20)
        ests = estimates_from_maxima(
            *field_maxima(model(0.5), g, reps=20_000, seed=4), [1.0, 1.5, 2.0, 2.5, 3.0], 4
        )
        ps = [e.p_hat for e in ests]
        assert all(b <= a for a, b in zip(ps, ps[1:]))

    def test_determinism_across_threads(self):
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1)
        g = GridSpec(d, 15)
        m = model(0.4)
        a1, a2 = field_maxima(m, g, reps=20_000, seed=5, threads=1)
        b1, b2 = field_maxima(m, g, reps=20_000, seed=5, threads=4)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)

    def test_far_domains_factorise(self):
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(30, 31),), dim_N=1)
        g = GridSpec(d, 10)
        m = model(0.5)
        u, reps = 1.5, 100_000
        max1, max2 = field_maxima(m, g, reps=reps, seed=6)
        pj = np.mean((max1 > u) & (max2 > u))
        p1, p2 = np.mean(max1 > u), np.mean(max2 > u)
        se = (
            math.sqrt(pj * (1 - pj) / reps)
            + p2 * math.sqrt(p1 * (1 - p1) / reps)
            + p1 * math.sqrt(p2 * (1 - p2) / reps)
        )
        assert abs(pj - p1 * p2) < 3 * se

    def test_zero_replicates_refused(self):
        # they divided by zero
        with pytest.raises(ValueError, match="no replicates"):
            estimates_from_maxima(np.empty(0), np.empty(0), [1.0], 0)

    def test_zero_hits_warning(self):
        est = excursion(model(0.4), point_grid(), u=20.0, reps=1000, seed=7)
        assert est.p_hat == 0.0
        assert est.ci_low == 0.0 and est.ci_high > 0.0
        assert "too rare" in est.warning

    # 9,000 ends on a partial block; 8,193 on a path whose mirror is dropped,
    # alone in its block
    @pytest.mark.parametrize("reps", [2000, 9000, 8193])
    def test_dump_reuse_matches_live_maxima(self, tmp_path, reps):
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1)
        g = GridSpec(d, 8)
        m = model(0.4)
        L = cholesky_factor(build_covariance(m, g))
        p = str(tmp_path / "samples.bgrf")
        write_sample_dump(p, L, 8, reps, 0)
        d1, d2 = maxima_from_dump(p, g.n1)
        l1, l2 = field_maxima(m, g, reps=reps, seed=8)
        assert np.array_equal(d1, l1) and np.array_equal(d2, l2)

    def test_dump_maxima_equal_live_maxima_on_600_nodes(self, tmp_path):
        # the benchmark's dump.maxima check in small: live maxima, folded
        # tile by tile as each block is sampled, equal the maxima of the
        # stored paths bit for bit. 300 + 300 nodes end on an 88-row panel;
        # 2 BLOCK + 1 replicates end on a path whose mirror is dropped
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(0, 2),), dim_N=1)
        g = GridSpec(d, 300)
        m = BivariateMaternModel(nu1=0.5, nu2=0.75, nu12=1.5, rho=0.4)
        L = cholesky_factor(build_covariance(m, g))
        reps = 2 * fields._BLOCK + 1
        p = str(tmp_path / "samples.bgrf")
        write_sample_dump(p, L, 5, reps, 0)
        stored = np.column_stack(maxima_from_dump(p, g.n1))
        for threads in (1, 2):
            live = np.column_stack(field_maxima(m, g, reps, 5, threads))
            assert live.tobytes() == stored.tobytes()

    def test_dump_reader_holds_one_slab(self, tmp_path):
        # three slabs of fields._BLOCK rows at 200 nodes: each slab must be
        # gone before the next is read
        rows = fields._BLOCK
        p = str(tmp_path / "samples.bgrf")
        write_sample_dump(p, np.eye(200), 1, 3 * rows, 0)
        slab = 8 * 200 * rows
        tracemalloc.start()
        try:
            d1, _ = maxima_from_dump(p, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d1) == 3 * rows
        assert peak < 1.5 * slab

    # a record of R replicates read at reps < R: an odd reps in the first
    # block, a reps one replicate into the second, and 300 + 300 nodes,
    # whose last panel is short
    @pytest.mark.parametrize("points, held, reps", [
        (8, 5000, 2001), (8, 20_001, 2 * fields._BLOCK + 1), (300, 9000, 2 * fields._BLOCK + 1),
    ], ids=["odd", "second-block", "600-nodes"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_record_prefix_equals_fresh_maxima(self, tmp_path, points, held, reps, threads):
        g = GridSpec(DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1), points)
        m = model(0.4)
        p = str(tmp_path / "samples.bgrf")
        write_record(p, m, g, held, 7, threads)
        assert fields.dump_header(p) == (g.n1 + g.n2, held, record_tag(m, g, 7))
        stored = np.column_stack(recorded_maxima(p, m, g, reps, 7))
        live = np.column_stack(field_maxima(m, g, reps, 7, threads))
        assert stored.shape == (reps, 2) and stored.tobytes() == live.tobytes()

    def test_record_read_stops_at_the_slab_holding_reps(self, tmp_path, monkeypatch):
        # a record of three slabs read at reps = 1 reads its first slab only
        g = GridSpec(DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1), 8)
        m = model(0.4)
        p = str(tmp_path / "samples.bgrf")
        write_record(p, m, g, 2 * fields._BLOCK + 1, 7)
        slabs = []

        def counting(path):
            for slab in fields.read_sample_dump(path):
                slabs.append(slab[0])
                yield slab

        monkeypatch.setattr(montecarlo, "read_sample_dump", counting)
        stored = np.column_stack(recorded_maxima(p, m, g, 1, 7))
        assert slabs == [0]
        assert stored.tobytes() == np.column_stack(field_maxima(m, g, 1, 7)).tobytes()

    def test_record_refuses_more_replicates_than_it_holds(self, tmp_path):
        g = GridSpec(DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1), 8)
        m = model(0.4)
        p = str(tmp_path / "samples.bgrf")
        write_record(p, m, g, 2000, 7)
        assert len(recorded_maxima(p, m, g, 2000, 7)[0]) == 2000
        with pytest.raises(ValueError, match="holds 2000 replicates; this run needs reps = 2001"):
            recorded_maxima(p, m, g, 2001, 7)
        with pytest.raises(ValueError, match="reps must be positive"):
            recorded_maxima(p, m, g, -3, 7)
        with pytest.raises(ValueError, match="holds 16 nodes per replicate under tag"):
            recorded_maxima(p, m, g, 2000, 8)

    def test_record_of_another_stream_is_refused(self, tmp_path, monkeypatch):
        # under one seed another generator or block width draws other
        # replicates, so a record written by one stream is refused by another
        g = GridSpec(DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1), 8)
        m = model(0.4)
        p = str(tmp_path / "samples.bgrf")
        write_record(p, m, g, 2000, 7)
        monkeypatch.setattr(fields, "STREAM", "PCG64, 4096 columns per block")
        with pytest.raises(ValueError, match="holds 16 nodes per replicate under tag"):
            recorded_maxima(p, m, g, 2000, 7)

    @pytest.mark.parametrize("n1", [0, -3, 16, 17])
    def test_dump_split_must_leave_both_fields_nodes(self, tmp_path, n1):
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1)
        g = GridSpec(d, 8)
        p = str(tmp_path / "samples.bgrf")
        write_sample_dump(p, cholesky_factor(build_covariance(model(0.4), g)), 8, 10, 0)
        with pytest.raises(ValueError, match=r"n1 = -?\d+ must lie in 1 \.\. 15"):
            maxima_from_dump(p, n1)

    def test_mirror_pairs_keep_the_binomial_error_conservative(self):
        # every covariance of a standardized model is >= 0, so by Pitt's
        # theorem (Ann. Probab. 10(2), 1982) an indicator increasing in X
        # and the same indicator of -X are negatively correlated: the
        # binomial SE the estimates report bounds the SE over the
        # (path, mirror) pair means
        m = BivariateMaternModel(nu1=0.5, nu2=0.75, nu12=1.5, rho=0.4, dim_N=2)
        d = DomainPair(
            A1=(Rect((0.0, 0.0), (1.0, 1.0)),), A2=(Rect((0.0, 1.0), (1.0, 2.0)),),
            dim_N=2, split_M=1,
        )
        reps = 20_000
        max1, max2 = field_maxima(m, GridSpec(d, 10), reps, seed=12)
        hit = ((max1 > 1.5) & (max2 > 1.5)).astype(float)
        path, mirror = hit[0::2], hit[1::2]
        assert 0.0 < path.mean() < 1.0 and 0.0 < mirror.mean() < 1.0
        assert np.corrcoef(path, mirror)[0, 1] <= 0.0
        p = hit.mean()
        pair_se = np.std((path + mirror) / 2, ddof=1) / math.sqrt(reps / 2)
        assert pair_se <= math.sqrt(p * (1 - p) / reps)


class TestWilson:
    def test_interval_brackets_p_hat(self):
        for hits, n in [(0, 100), (1, 100), (50, 100), (99, 100), (100, 100)]:
            lo, hi = wilson_interval(hits, n)
            assert 0.0 <= lo <= hits / n <= hi <= 1.0

    def test_estimate_invariant_enforced(self):
        with pytest.raises(ValueError):
            ExcursionEstimate(
                p_hat=0.5, ci_low=0.6, ci_high=0.7, u=1.0,
                replicates=100, hits=50, seed=0,
            )


def synthetic_points(us, rate=-1.0 / 1.5, scale=1.0):
    pts = []
    for u in us:
        p = scale * math.exp(rate * u * u)
        est = ExcursionEstimate(
            p_hat=p, ci_low=0.0, ci_high=1.0, u=u,
            replicates=10**9, hits=10**6, seed=0,
        )
        pts.append(est)
    return pts


class TestRateFit:
    def test_exact_on_own_model(self):
        fit = rate_fit(synthetic_points([2.0, 2.4, 2.8, 3.2]))
        assert abs(fit.slope - (-1.0 / 1.5)) < 1e-12

    def test_scale_invariance(self):
        a = rate_fit(synthetic_points([2.0, 2.4, 2.8, 3.2], scale=1.0))
        b = rate_fit(synthetic_points([2.0, 2.4, 2.8, 3.2], scale=0.3))
        assert abs(a.slope - b.slope) < 1e-12

    def test_drops_low_hit_points(self):
        pts = synthetic_points([2.0, 2.4, 2.8, 3.2, 3.6])
        starved = ExcursionEstimate(
            p_hat=pts[-1].p_hat, ci_low=0.0, ci_high=1.0, u=3.6,
            replicates=10**9, hits=5, seed=0,
        )
        pts[-1] = starved
        fit = rate_fit(pts)
        assert fit.dropped_u == (3.6,)
        assert len(fit.used_u) == 4

    def test_too_few_points_errors(self):
        with pytest.raises(ValueError, match=">= 4"):
            rate_fit(synthetic_points([2.0, 2.4, 2.8]))

    def test_repeated_u_errors_and_names_them(self):
        # repeated thresholds count once: the fit refuses rather than divide
        # by a sum of squares of u^2 that may be zero
        with pytest.raises(ValueError, match=r"distinct u.*\[1\.5, 1\.5, 1\.5, 2\.0\]"):
            rate_fit(synthetic_points([1.5, 1.5, 1.5, 2.0]))

    def test_ci_covers_truth_for_noisy_input(self):
        rng = np.random.default_rng(0)
        us = [2.0, 2.4, 2.8, 3.2]
        pts = []
        for u in us:
            p = math.exp(-u * u / 1.5)
            n = 10**7
            hits = int(rng.binomial(n, p))
            est = ExcursionEstimate(
                p_hat=hits / n, ci_low=0.0, ci_high=1.0, u=u,
                replicates=n, hits=hits, seed=0,
            )
            pts.append(est)
        fit = rate_fit(pts)
        half = 1.96 * fit.slope_se
        assert fit.slope - half <= -1.0 / 1.5 <= fit.slope + half
