"""Tests for domains, grids, covariance assembly, and samplers."""

import functools
import glob
import hashlib
import math
import os
import struct
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import path_fold

from bgrf import fields
from bgrf.fields import (
    DomainPair,
    GridSpec,
    NotPositiveDefiniteError,
    Rect,
    build_covariance,
    cholesky_factor,
    dump_header,
    fbm_covariance,
    fbm_grid,
    read_sample_dump,
    sample_blocks,
    sample_suprema,
    segment_suprema,
    union_covers,
    write_sample_dump,
)
from bgrf.model import BivariateMaternModel, check_assumptions, cross_corr
from bgrf.specfun import MaternParams, matern

# noise columns per sampled block: the tests below are written in it, not in
# its current value
BLOCK = fields._BLOCK


def interval(lo, hi):
    return Rect((float(lo),), (float(hi),))


def point_domain():
    return DomainPair(A1=(interval(0, 0),), A2=(interval(0, 0),), dim_N=1)


def unit_overlap(points=10):
    d = DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1)
    return GridSpec(d, points)


def model(rho=0.4, nu12=1.5, **kw):
    return BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=nu12, rho=rho, **kw)


def paths(L, seed, count):
    """(ceil(count / 2), nodes) array of the independent paths behind count
    replicates, one per row, from sample_blocks."""
    return np.hstack([mat for _, mat in sample_blocks(L, seed, count, 1, path_fold)]).T


def noise(seed, b, n):
    """Block b's (n, BLOCK) normals, as the sampler draws them."""
    return fields._noise_block(seed, b, np.empty((n, BLOCK)))


def usable_cpus(monkeypatch, count):
    """Let the sampler see count CPUs, by os.cpu_count and by the affinity
    set where the platform has one."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def drifted_suprema(paths, segments, count, drift):
    """segment_suprema of X - drift, for an (n, 1) drift or None: the whole
    paths folded as one tile of the sampler's fold, as sample_suprema folds
    each tile of a block. A drift is applied to paths in place."""
    return fields._suprema(0, count, paths, [(0, paths)], segments, drift)


def draw(L, seed, count):
    """(count, nodes) array of replicates, one per row: row 2j is path j,
    row 2j + 1 its negation, and an odd count drops the last negation."""
    x = paths(L, seed, count)
    rows = np.empty((2 * len(x), x.shape[1]))
    rows[0::2], rows[1::2] = x, -x
    return rows[:count]


class TestGeometry:
    def test_rect_validation(self):
        with pytest.raises(ValueError):
            Rect((0.0,), (-1.0,))
        with pytest.raises(ValueError):
            Rect((0.0, 0.0), (1.0,))

    def test_intersection_measure_1d(self):
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(0.5, 2),), dim_N=1)
        assert d.mes(1) == 0.5

    def test_intersection_measure_touching(self):
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(1, 2),), dim_N=1, split_M=0)
        assert d.mes(1) == 0.0
        assert d.mes(0) == 1.0  # mes_0 convention

    def test_union_measure_overlapping_boxes(self):
        d = DomainPair(
            A1=(interval(0, 1), interval(0.5, 1.5)),
            A2=(interval(0, 2),),
            dim_N=1,
        )
        assert abs(d.mes(1) - 1.5) < 1e-15

    def test_2d_split_structure(self):
        A1 = (Rect((0.0, 0.0), (1.0, 1.0)),)
        A2 = (Rect((0.0, 1.0), (1.0, 2.0)),)
        d = DomainPair(A1=A1, A2=A2, dim_N=2, split_M=1)
        assert d.mes(2) == 0.0
        assert d.mes(1) == 1.0

    def test_shared_part_overlap(self):
        # positive overlap: M = N with mes_N, also when split_M is absent
        A1 = (Rect((0.0, 0.0), (1.0, 1.0)),)
        A2 = (Rect((0.5, 0.0), (2.0, 0.5)),)
        assert DomainPair(A1=A1, A2=A2, dim_N=2).shared_part() == (2, 0.25)

    def test_shared_part_touching_split(self):
        A1 = (Rect((0.0, 0.0), (1.0, 1.0)),)
        A2 = (Rect((0.25, 1.0), (2.0, 2.0)),)
        d = DomainPair(A1=A1, A2=A2, dim_N=2, split_M=1)
        assert d.shared_part() == (1, 0.75)  # the shared face [0.25, 1]
        d0 = DomainPair(A1=(interval(0, 1),), A2=(interval(1, 2),), dim_N=1, split_M=0)
        assert d0.shared_part() == (0, 1.0)

    def test_shared_part_needs_split(self):
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(1, 2),), dim_N=1)
        with pytest.raises(ValueError, match="split_M"):
            d.shared_part()

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="shared T"):
            DomainPair(
                A1=(interval(0, 1),), A2=(interval(1.5, 2),), dim_N=1, split_M=0
            )

    def test_subtract_and_cover(self):
        cell = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        assert union_covers([Rect((0.0, 0.0), (0.6, 1.0)), Rect((0.5, 0.0), (1.0, 1.0))], *cell)
        assert not union_covers([Rect((0.0, 0.0), (0.6, 1.0))], *cell)
        # cover by two boxes sharing a face exactly
        assert union_covers(
            [Rect((0.0, 0.0), (0.5, 1.0)), Rect((0.5, 0.0), (1.0, 1.0))], *cell
        )


@st.composite
def eighth_lattice_union(draw, N):
    """1 to 3 boxes in [0, 1]^N with every face on the 1/8 lattice, some of
    them of zero width."""
    def span():
        lo, hi = sorted(draw(st.lists(st.integers(0, 8), min_size=2, max_size=2)))
        return lo / 8, hi / 8

    return tuple(
        Rect(*map(tuple, zip(*(span() for _ in range(N)))))
        for _ in range(draw(st.integers(1, 3)))
    )


def sub_cells_inside(boxes, lo, hi):
    """Per 1/16 sub-cell of [lo, hi] (a 1/16-lattice cell), whether a box
    holds it: faces on the 1/8 lattice never cut a sub-cell."""
    axes = [np.arange(round(16 * a), round(16 * b)) for a, b in zip(lo, hi)]
    sub = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1) / 16
    inside = np.zeros(sub.shape[:-1], dtype=bool)
    for b in boxes:
        inside |= np.all((b.lo <= sub) & (sub + 1 / 16 <= b.hi), axis=-1)
    return inside


class TestAtoms:
    """union_covers and DomainPair.mes against a brute force over the 1/16
    sub-cells; every value involved is exact in binary."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), N=st.integers(1, 3))
    def test_cover_matches_sub_cells(self, data, N):
        boxes = data.draw(eighth_lattice_union(N))
        # 1 to 5 cells reaching past [0, 1], some of zero width
        span = st.lists(st.integers(-2, 18), min_size=2, max_size=2)
        cells = data.draw(st.lists(st.lists(span, min_size=N, max_size=N),
                                   min_size=1, max_size=5))
        ends = np.sort(np.array(cells), axis=2) / 16
        lo, hi = ends[..., 0], ends[..., 1]
        want = [sub_cells_inside(boxes, a, b).all() for a, b in zip(lo, hi)]
        assert union_covers(boxes, lo, hi).tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), N=st.integers(1, 3))
    def test_measure_matches_sub_cells(self, data, N):
        A1, A2 = data.draw(eighth_lattice_union(N)), data.draw(eighth_lattice_union(N))
        d = DomainPair(A1=A1, A2=A2, dim_N=N)
        for M in range(1, N + 1):
            P1 = [Rect(b.lo[:M], b.hi[:M]) for b in A1]
            P2 = [Rect(b.lo[:M], b.hi[:M]) for b in A2]
            unit = (np.zeros(M), np.ones(M))
            both = sub_cells_inside(P1, *unit) & sub_cells_inside(P2, *unit)
            assert d.mes(M) == np.count_nonzero(both) / 16**M

    def test_degenerate_input(self):
        # a point domain has measure 0; a cell of zero width is covered
        assert point_domain().mes(1) == 0.0
        assert union_covers([interval(0, 1)], np.array([[2.0]]), np.array([[2.0]])).all()


class TestGridSpec:
    def test_nodes_include_corners(self):
        g = unit_overlap(5)
        assert g.nodes1[0, 0] == 0.0 and g.nodes1[-1, 0] == 1.0
        assert g.n1 == 5

    def test_nodes_deduped_across_boxes(self):
        d = DomainPair(
            A1=(interval(0, 1), interval(1, 2)), A2=(interval(0, 2),), dim_N=1
        )
        g = GridSpec(d, 3)
        # 0, .5, 1, 1.5, 2 with the shared corner 1 deduped
        assert g.n1 == 5
        assert g.node_steps() == (0.5, 1.0)
        assert all(np.isnan(GridSpec(d, 1).node_steps()))

    def test_refuses_a_bool_point_count(self):
        # True once passed as one node per axis, with nan node steps
        with pytest.raises(ValueError, match="points_per_axis must be a positive integer"):
            GridSpec(unit_overlap().domain, True)

    def test_nodes_inside_boxes(self):
        d = DomainPair(
            A1=(Rect((0.0, 2.0), (1.0, 3.0)),),
            A2=(Rect((0.0, 2.0), (1.0, 3.0)),),
            dim_N=2,
        )
        g = GridSpec(d, 4)
        assert g.n1 == 16
        assert g.nodes1[:, 0].min() == 0.0 and g.nodes1[:, 1].max() == 3.0

    def test_node_budget_refused_before_any_node(self):
        # 2000 points per axis on two unit squares: 8 x 10^6 nodes, whose
        # meshgrids alone would take hundreds of MB
        d = DomainPair(A1=(Rect((0.0, 0.0), (1.0, 1.0)),),
                       A2=(Rect((0.0, 1.0), (1.0, 2.0)),), dim_N=2, split_M=1)
        GridSpec(d, 3)  # numpy's lazy imports happen before the trace
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="8000000 nodes exceed the node budget"):
                GridSpec(d, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_node_budget_bound_builds_no_axis(self):
        # 10^7 points per axis: the bound counts each axis from its ends
        d = DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1)
        GridSpec(d, 3)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="20000000 nodes exceed the node budget"):
                GridSpec(d, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e-6), exp=st.integers(-40, 6),
           points=st.integers(1, 2000))
    def test_axis_count_is_a_lower_bound_exact_past_two_ulps(self, lo, width, exp, points):
        # widths down to a few ulps of the ends, where nodes round together
        hi = lo + width * 2.0**exp
        built = len(np.unique(np.linspace(lo, hi, points)))
        count = fields._axis_count(lo, hi, points)
        assert count <= built
        if points > 1 and (hi - lo) / (points - 1) > 2 * math.ulp(max(abs(lo), abs(hi))):
            assert count == built

    def test_degenerate_axis_holds_one_node(self):
        # 4000 points on segments of the plane: 8000 nodes fit the budget
        seg = (Rect((0.0, 0.5), (1.0, 0.5)),)
        g = GridSpec(DomainPair(A1=seg, A2=seg, dim_N=2), 4000)
        assert (g.n1, g.n2) == (4000, 4000)

    def test_node_count_checked_once_built(self):
        # the largest boxes fit the budget, A1's 6000 nodes and A2's 3000 do not
        d = DomainPair(A1=(interval(0, 1), interval(2, 3)), A2=(interval(0, 1),), dim_N=1)
        with pytest.raises(ValueError, match="9000 nodes exceed the node budget"):
            GridSpec(d, 3000)


class TestCovariance:
    def test_colocated_pair(self):
        g = GridSpec(point_domain(), 1)
        cov = build_covariance(model(rho=0.37), g)
        assert np.array_equal(cov, np.array([[1.0, 0.37], [0.37, 1.0]]))

    def test_rho_zero_block_diagonal(self):
        g = unit_overlap(6)
        cov = build_covariance(model(rho=0.0), g)
        assert np.all(cov[:6, 6:] == 0.0)

    def test_cross_entries_match_definition(self):
        m = model(rho=0.5)
        g = unit_overlap(7)
        cov = build_covariance(m, g)
        for i in range(7):
            for j in range(7):
                h = abs(g.nodes1[i, 0] - g.nodes2[j, 0])
                assert cov[i, 7 + j] == pytest.approx(cross_corr(m, h), abs=0)

    def test_exact_symmetry(self):
        cov = build_covariance(model(rho=0.5), unit_overlap(20))
        assert np.max(np.abs(cov - cov.T)) == 0.0

    def test_unit_diagonal(self):
        cov = build_covariance(model(), unit_overlap(8))
        assert np.all(np.diag(cov) == 1.0)

    def test_unit_diagonal_at_small_nu(self):
        # nu1 = 0.02: the Matern of a rough field at lag 0 is still exactly 1
        m = BivariateMaternModel(nu1=0.02, nu2=0.5, nu12=1.5, rho=0.1)
        assert check_assumptions(m)["validity"].passed
        cov = build_covariance(m, unit_overlap(8))
        assert np.all(np.diag(cov) == 1.0)
        assert cholesky_factor(cov).shape == (16, 16)

    def test_psd_witness_for_valid_models(self):
        # rho^2 strictly below the validity bound -> Cholesky succeeds
        # (jitter capped at 1e-10 inside cholesky_factor)
        for rho, nu12 in [(0.4, 1.5), (0.49, 1.5), (0.42, 2.0)]:
            m = model(rho=rho, nu12=nu12)
            assert check_assumptions(m)["validity"].passed
            cov = build_covariance(m, unit_overlap(200))
            L = cholesky_factor(cov)
            assert L.shape == (400, 400)

    def test_blocks_match_their_definition_in_3d(self):
        # distances summed over three axes, blocks scaled by their variances
        m = BivariateMaternModel(nu1=0.5, nu2=1.5, nu12=2.0, rho=0.3, sigma1=1.5, sigma2=0.5)
        d = DomainPair(A1=(Rect((0.0,) * 3, (1.0,) * 3),),
                       A2=(Rect((0.5, 0.0, 0.2), (1.5, 1.0, 0.9)),), dim_N=3)
        g = GridSpec(d, 4)
        s, t = g.nodes1, g.nodes2

        def block(x, y, nu, scale):
            diff = x[:, None, :] - y[None, :, :]
            return scale * matern(np.sqrt(np.sum(diff * diff, axis=2)), MaternParams(nu, 1.0))

        c12 = block(s, t, 2.0, 0.3 * 1.5 * 0.5)
        want = np.block([[block(s, s, 0.5, 1.5**2), c12], [c12.T, block(t, t, 1.5, 0.5**2)]])
        assert np.array_equal(build_covariance(m, g), want)

    def test_assembled_in_place(self):
        # 3,200 nodes in 2-D: the blocks go straight into the covariance, so
        # the peak is the covariance and one block's distances and values
        d = DomainPair(A1=(Rect((0.0, 0.0), (1.0, 1.0)),),
                       A2=(Rect((0.0, 1.0), (1.0, 2.0)),), dim_N=2, split_M=1)
        g = GridSpec(d, 40)
        tracemalloc.start()
        try:
            cov = build_covariance(model(), g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cov.shape == (3200, 3200)
        assert peak < 2 * cov.nbytes

    def test_jitter_is_named_in_one_warning(self):
        # ones((4, 4)) is positive semidefinite of rank 1: only a jitter
        # factors it, and the factor is that of cov + eps I
        cov = np.ones((4, 4))
        with pytest.warns(RuntimeWarning, match=r"jitter 1e-1[0-4] on the diagonal") as rec:
            L = cholesky_factor(cov)
        assert len(rec) == 1
        eps = float(str(rec[0].message).split("jitter ")[1].split()[0])
        assert eps in fields._JITTERS[1:]
        assert np.array_equal(L, np.linalg.cholesky(cov + eps * np.eye(4)))

    def test_no_jitter_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = cholesky_factor(build_covariance(model(), unit_overlap(8)))
        assert L.shape == (16, 16)

    def test_not_psd_raises(self):
        bad = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(bad)


class TestCholeskySampling:
    def test_identity_covariance_statistics(self):
        g = GridSpec(point_domain(), 1)
        L = cholesky_factor(build_covariance(model(rho=0.0), g))
        n = 100_000
        xs = paths(L, seed=7, count=2 * n)
        se = np.sqrt(2.0 / n)
        assert abs(xs[:, 0].var(ddof=1) - 1.0) < 3 * se
        assert abs(xs[:, 1].var(ddof=1) - 1.0) < 3 * se

    def test_correlated_pair_statistics(self):
        g = GridSpec(point_domain(), 1)
        L = cholesky_factor(build_covariance(model(rho=0.5), g))
        n = 100_000
        xs = paths(L, seed=11, count=2 * n)
        corr = np.corrcoef(xs.T)[0, 1]
        se = (1 - 0.25) / np.sqrt(n)
        assert abs(corr - 0.5) < 3 * se

    def test_empirical_covariance_matches_entrywise(self):
        m = model(rho=0.5)
        g = unit_overlap(3)
        cov = build_covariance(m, g)
        n = 100_000
        xs = paths(cholesky_factor(cov), seed=3, count=2 * n)
        emp = np.cov(xs.T)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) < 4 * se)

    def test_replicate_deterministic_in_seed_and_index(self):
        g = unit_overlap(5)
        L = cholesky_factor(build_covariance(model(rho=0.3), g))
        a = draw(L, seed=42, count=3)
        b = draw(L, seed=42, count=9000)[:3]  # past the first block
        assert a.shape == (3, 10)
        assert np.array_equal(a, b)

    # a block of 300 rows, not a multiple of the 256-row panel
    @pytest.mark.parametrize("seed, b", [(0, 0), (1234, 7)])
    def test_noise_block_is_the_named_stream(self, seed, b):
        want = np.random.Generator(np.random.SFC64([seed, b])).standard_normal((300, BLOCK))
        got = fields._noise_block(seed, b, np.empty((300, BLOCK)))
        assert got.tobytes() == want.tobytes()
        assert fields.STREAM == f"SFC64, {BLOCK} columns per block"

    def test_thread_count_does_not_change_stream(self):
        g = unit_overlap(5)
        cov = build_covariance(model(rho=0.3), g)
        L = cholesky_factor(cov)

        def digest(threads):
            h = hashlib.sha256()
            for _, mat in sample_blocks(L, 9, 20_000, threads, path_fold):
                h.update(np.ascontiguousarray(mat).tobytes())
            return h.hexdigest()

        assert digest(1) == digest(4)

    def test_one_pool_per_call(self, monkeypatch):
        # ten blocks (of BLOCK paths, 2 BLOCK replicates) pass through a
        # two-block window at two threads; every block must run on the same
        # pool, and the stream must not depend on the threads
        pools = []

        class CountingPool(fields.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fields, "ThreadPoolExecutor", CountingPool)
        L = cholesky_factor(build_covariance(model(rho=0.3), unit_overlap(3)))
        count = 2 * 9 * BLOCK + 1

        def stream(threads):
            return np.hstack([m for _, m in sample_blocks(L, 9, count, threads, path_fold)])

        assert np.array_equal(stream(1), stream(2))
        assert len(pools) == 1

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # --threads 64 must not start 64 workers each holding a block: the
        # pool is capped at the CPUs the process may use, by os.cpu_count
        # where the platform reports no affinity set
        workers = []

        class CountingPool(fields.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(fields, "ThreadPoolExecutor", CountingPool)
        usable_cpus(monkeypatch, 2)
        L = cholesky_factor(build_covariance(model(rho=0.3), unit_overlap(3)))
        count = 4 * BLOCK + 1
        capped = np.hstack([m for _, m in sample_blocks(L, 9, count, 64, path_fold)])
        assert workers == [2]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        capped_by_count = np.hstack([m for _, m in sample_blocks(L, 9, count, 64, path_fold)])
        assert workers == [2, 2]
        usable_cpus(monkeypatch, 1)
        single = np.hstack([m for _, m in sample_blocks(L, 9, count, 64, path_fold)])
        assert workers == [2, 2]  # one CPU: no pool at all
        assert np.array_equal(capped, single)
        assert np.array_equal(capped_by_count, single)

    def test_one_cpu_affinity_starts_no_pool(self, monkeypatch):
        # under taskset -c 0 on a two-CPU host, os.cpu_count() is 2 but the
        # process may run on one CPU: --threads 2 must start no pool
        pools = []

        class CountingPool(fields.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fields, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        L = lower_factor(40)
        count, segments = 2 * BLOCK + 3, [(0, 10), (10, 40)]
        got = sample_suprema(L, 6, count, 2, segments)
        assert pools == []
        usable_cpus(monkeypatch, 2)
        assert np.array_equal(got, sample_suprema(L, 6, count, 2, segments))
        assert len(pools) == 1

    def test_check_reps_refuses_a_bool(self):
        # True once passed as one replicate
        fields.check_reps(1)
        with pytest.raises(ValueError, match="reps must be an integer, got True"):
            fields.check_reps(True)


def lower_factor(n, seed=0):
    """A random n x n lower-triangular factor with a positive diagonal."""
    rng = np.random.default_rng(seed)
    L = np.tril(rng.standard_normal((n, n)))
    L[np.diag_indices(n)] = np.abs(L.diagonal()) + 1.0
    return L


def untiled_block(L, seed, b):
    """Block b's paths by one product per 256-row panel across all BLOCK
    columns, the inner dimensions of fields._tile_products: the reference
    its tiles must match bit for bit."""
    z = noise(seed, b, L.shape[0])
    out = np.empty_like(z)
    for a in range(0, len(L), 256):
        e = min(a + 256, len(L))
        cut = a if e - a < 256 else 0
        out[a:e] = L[a:e, cut:e] @ z[cut:e]
        if cut:
            out[a:e] += L[a:e, :cut] @ z[:cut]
    return out


class TestPanelProduct:
    # _PANEL = 256: one short panel, exactly one and two panels, and a
    # last panel shorter than the others, down to one row (257)
    @pytest.mark.parametrize("n", [100, 256, 257, 512, 600])
    def test_matches_full_product(self, n):
        L = lower_factor(n)
        count = 2 * (BLOCK + 10) - 1  # BLOCK + 10 paths: ends on a partial block
        got = np.hstack([mat for _, mat in sample_blocks(L, 5, count, 1, path_fold)])
        want = np.hstack([L @ noise(5, b, n) for b in (0, 1)])[:, : BLOCK + 10]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("i, j", [(0, 1), (300, 301), (10, 400), (0, 599)],
                             ids=["in-first-panel", "in-later-panel",
                                  "right-of-panel", "corner"])
    def test_rejects_upper_entry(self, i, j):
        L = lower_factor(600)
        L[i, j] = 1e-300
        with pytest.raises(ValueError, match="lower triangular"):
            next(sample_blocks(L, 0, 10, 1, path_fold))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            next(sample_blocks(np.zeros((3, 2)), 0, 10, 1, path_fold))

    @pytest.mark.parametrize("fold", [
        path_fold,
        functools.partial(fields._suprema, segments=[(0, 600), (250, 600), (599, 600)],
                          drift=None),
    ], ids=["blocks", "reduced"])
    def test_threads_give_identical_bytes(self, monkeypatch, fold):
        usable_cpus(monkeypatch, 2)
        L = lower_factor(600)
        count = 2 * (3 * BLOCK) + 7

        def digest(threads):
            h = hashlib.sha256()
            for start, out in sample_blocks(L, 9, count, threads, fold):
                h.update(np.int64(start).tobytes())
                h.update(np.ascontiguousarray(out).tobytes())
            return h.hexdigest()

        assert digest(1) == digest(2)

    # a last panel shorter than 256 rows, one row long (257), with an inner
    # dimension past 384 (385, 600, 700, 1100) or not (257, 300)
    @pytest.mark.parametrize("n", [257, 300, 385, 600, 700, 1100])
    def test_blas_threads_give_identical_bytes(self, blas, n):
        get, set_ = blas
        L = lower_factor(n)

        def block(blas_threads):
            set_(blas_threads)
            (_, mat), = sample_blocks(L, 3, BLOCK, 1, path_fold)
            return mat.tobytes()

        assert block(1) == block(2)

    # paths that end one column short of a block edge, on it, one past it,
    # and on the edge of a fourth block: each block is one tile per panel
    @pytest.mark.parametrize("cols", [BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK])
    @pytest.mark.parametrize("n", [200, 257, 800])
    def test_tile_edges(self, blas, n, cols):
        get, set_ = blas
        L = lower_factor(n)

        def blocks(blas_threads):
            set_(blas_threads)
            return np.hstack([mat for _, mat in sample_blocks(L, 2, 2 * cols, 1, path_fold)])

        got = blocks(1)
        assert got.shape == (n, cols)
        drawn = range(-(-cols // BLOCK))
        want = L @ np.hstack([noise(2, b, n) for b in drawn])[:, :cols]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the bytes of the blocks' panel products, at any BLAS count
        untiled = np.hstack([untiled_block(L, 2, b) for b in drawn])
        assert np.array_equal(got, untiled[:, :cols])
        assert got.tobytes() == blocks(2).tobytes()

    def test_worker_holds_one_block(self):
        # at 1,024 nodes the product goes through a 256 x BLOCK tile, a
        # quarter of the block; the reduction keeps two values per replicate
        L = lower_factor(1024)
        block, tile = 8 * 1024 * BLOCK, 8 * 256 * BLOCK
        tracemalloc.start()
        try:
            sample_suprema(L, 1, 2 * 2 * BLOCK, 1, [(0, 512), (512, 1024)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + 2.4 * tile

    def test_reduce_runs_on_the_worker(self, monkeypatch):
        # every tile is folded into the suprema on a pool thread, and only
        # the suprema reach the consumer, in replicate order
        usable_cpus(monkeypatch, 2)
        L = lower_factor(300)
        count = 2 * (2 * BLOCK) + 5  # 2 BLOCK + 3 paths, the last without its mirror
        segments = [(0, 300), (100, 101)]
        workers = set()
        fold = fields._suprema

        def record(*args, **kwargs):
            workers.add(threading.get_ident())
            return fold(*args, **kwargs)

        monkeypatch.setattr(fields, "_suprema", record)
        reduced = list(sample_blocks(L, 4, count, 2, functools.partial(
            fields._suprema, segments=segments, drift=None)))
        assert len(workers) >= 1 and threading.get_ident() not in workers
        plain = list(sample_blocks(L, 4, count, 2, path_fold))
        assert [s for s, _ in reduced] == [s for s, _ in plain] == [0, 2 * BLOCK, 4 * BLOCK]
        assert [len(got) for _, got in reduced] == [2 * BLOCK, 2 * BLOCK, 5]
        for (_, got), (_, mat) in zip(reduced, plain):
            for k, (a, b) in enumerate(segments):
                assert np.array_equal(got[0::2, k], mat[a:b].max(axis=0))  # path j: replicate 2j
                assert np.array_equal(got[1::2, k], (-mat[a:b]).max(axis=0)[: len(got) // 2])
        workers.clear()
        assert np.array_equal(sample_suprema(L, 4, count, 2, segments),
                              np.vstack([got for _, got in reduced]))
        assert len(workers) >= 1 and threading.get_ident() not in workers

    def test_one_noise_buffer_per_worker(self, monkeypatch):
        # five blocks at two threads draw into at most two buffers, each
        # reused for the whole call, so no more than two blocks are alive
        usable_cpus(monkeypatch, 2)
        buffers = []
        noise_block = fields._noise_block

        def record(seed, b, out):
            if not any(out is buf for buf in buffers):
                buffers.append(out)
            return noise_block(seed, b, out)

        monkeypatch.setattr(fields, "_noise_block", record)
        L = lower_factor(40)
        got = sample_suprema(L, 1, 2 * 5 * BLOCK, 2, [(0, 40)])
        assert 1 <= len(buffers) <= 2
        assert np.array_equal(got[:, 0], draw(L, 1, 2 * 5 * BLOCK).max(axis=1))

    # segments that cross panel edges (every 256 rows), on replicates that
    # cross block edges (every BLOCK columns); the count is odd and ends
    # part-way through a third block
    @pytest.mark.parametrize("n", [200, 257, 600, 800, 1024])
    def test_fused_suprema_equal_the_paths_suprema(self, monkeypatch, n):
        usable_cpus(monkeypatch, 2)
        L = lower_factor(n)
        count = 2 * (2 * BLOCK + 7) - 1
        segments = [(0, n), (0, 1), (n // 3, n - 1), (min(250, n - 2), min(520, n)),
                    (n - 1, n)]
        drift = np.linspace(0.1, 3.3, n)[:, None]
        blocks = list(sample_blocks(L, 8, count, 1, path_fold))
        for d in (None, drift):
            want = np.vstack([
                drifted_suprema(mat.copy(), segments, count - start, d) for start, mat in blocks
            ])
            assert want.shape == (count, len(segments))
            for threads in (1, 2):
                got = sample_suprema(L, 8, count, threads, segments, d)
                assert got.tobytes() == want.tobytes()


class TestSegmentSuprema:
    SEGMENTS = [(0, 3), (3, 4), (4, 9), (0, 9)]

    def test_mirror_is_the_negated_drifted_path(self):
        # values and drift on a 1/8 lattice, so X - d, X + d and -X - d are
        # exact and the mirror half must equal the max of -X - d bit for bit
        rng = np.random.default_rng(3)
        X = rng.integers(-40, 40, size=(9, 50)) / 8.0
        d = (np.arange(1, 10) / 4.0)[:, None]
        got = drifted_suprema(X.copy(), self.SEGMENTS, 2 * 50, d)
        path, mirror = got[0::2], got[1::2]
        for k, (a, b) in enumerate(self.SEGMENTS):
            assert np.array_equal(path[:, k], (X - d)[a:b].max(axis=0))
            assert np.array_equal(mirror[:, k], (-X - d)[a:b].max(axis=0))

    def test_read_only_paths_without_drift(self):
        # read_sample_dump yields read-only arrays
        X = np.random.default_rng(4).standard_normal((9, 30))
        rows = np.frombuffer(X.tobytes()).reshape(X.shape)
        assert not rows.flags.writeable
        got = segment_suprema(rows, self.SEGMENTS, 2 * 30)
        path, mirror = got[0::2], got[1::2]
        assert np.array_equal(rows, X)
        for k, (a, b) in enumerate(self.SEGMENTS):
            assert np.array_equal(path[:, k], X[a:b].max(axis=0))
            assert np.array_equal(mirror[:, k], (-X)[a:b].max(axis=0))

    def test_one_row_segment(self):
        X = np.random.default_rng(5).standard_normal((4, 7))
        # an odd count drops the last mirror
        got = segment_suprema(X, [(2, 3)], 13)
        path, mirror = got[0::2], got[1::2]
        assert path.shape == (7, 1) and mirror.shape == (6, 1)
        assert np.array_equal(path[:, 0], X[2]) and np.array_equal(mirror[:, 0], -X[2, :6])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_gathers_in_replicate_order(self, threads):
        # 2 BLOCK + 3 replicates: a full block, then a partial one whose
        # last mirror is dropped
        L = lower_factor(40)
        count, segments = 2 * BLOCK + 3, [(0, 10), (10, 40)]
        got = sample_suprema(L, 6, count, threads, segments)
        rows = draw(L, 6, count)
        want = np.column_stack([rows[:, a:b].max(axis=1) for a, b in segments])
        assert np.array_equal(got, want)


@pytest.fixture
def blas(monkeypatch):
    """numpy's OpenBLAS (get, set) thread count, set to 2 for the test and
    restored after it; two CPUs, so a two-thread call runs a pool."""
    handle = fields._openblas()
    if handle is None:
        pytest.skip("numpy loaded no OpenBLAS")  # test_handle_found guards this
    get, set_ = handle
    old = get()
    set_(2)
    usable_cpus(monkeypatch, 2)
    yield handle
    set_(old)


class FakeBlas:
    """A stand-in (get, set) pair that records every count set. Like a
    ctypes call, each lets other threads run."""

    def __init__(self, count=2):
        self.count, self.sets = count, []

    def get(self):
        time.sleep(0)
        return self.count

    def set(self, count):
        time.sleep(0)
        self.sets.append(count)
        self.count = count


class TestBlasPin:
    def L(self):
        return lower_factor(300)

    def test_handle_found(self):
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        if not glob.glob(os.path.join(libs, "*openblas*")):
            pytest.skip("numpy.libs holds no OpenBLAS")
        handle = fields._openblas()
        assert handle is not None
        assert handle[0]() >= 1

    def test_one_blas_thread_inside_reduce(self, blas, monkeypatch):
        # read on the worker as it draws each block the suprema come from
        get, _ = blas
        seen = []
        noise_block = fields._noise_block

        def record(seed, b, out):
            seen.append(get())
            return noise_block(seed, b, out)

        monkeypatch.setattr(fields, "_noise_block", record)
        sample_suprema(self.L(), 1, 2 * (3 * BLOCK), 2, [(0, 300)])
        assert seen == [1, 1, 1]
        assert get() == 2

    def test_restored_after_close(self, blas):
        get, _ = blas
        gen = sample_blocks(self.L(), 1, 5 * BLOCK, 2, path_fold)
        next(gen)
        assert get() == 1
        gen.close()
        assert get() == 2

    def test_restored_after_reduce_raises(self, blas, monkeypatch):
        get, _ = blas

        def fail(*args, **kwargs):
            raise RuntimeError("reduce failed")

        monkeypatch.setattr(fields, "_suprema", fail)
        with pytest.raises(RuntimeError, match="reduce failed"):
            sample_suprema(self.L(), 1, 3 * BLOCK, 2, [(0, 300)])
        assert get() == 2

    def test_single_thread_leaves_count_alone(self, monkeypatch):
        fake = FakeBlas()
        monkeypatch.setattr(fields, "_openblas", lambda: (fake.get, fake.set))
        list(sample_blocks(self.L(), 1, 2 * BLOCK, 1, path_fold))
        assert fake.sets == []

    def test_overlapping_pools(self, monkeypatch):
        fake = FakeBlas(count=4)
        monkeypatch.setattr(fields, "_openblas", lambda: (fake.get, fake.set))
        usable_cpus(monkeypatch, 2)
        first = sample_blocks(self.L(), 1, 5 * BLOCK, 2, path_fold)
        second = sample_blocks(self.L(), 2, 5 * BLOCK, 2, path_fold)
        next(first)
        next(second)
        assert fake.sets == [1]
        first.close()
        assert fake.count == 1  # second still runs
        next(second)
        second.close()
        assert fake.sets == [1, 4]

    def test_concurrent_pools_stress(self, monkeypatch):
        # four consumers, each running two-worker pools, on two CPUs: a lost
        # update to the live-pool count would restore the BLAS count while a
        # pool still runs
        fake = FakeBlas(count=4)
        monkeypatch.setattr(fields, "_openblas", lambda: (fake.get, fake.set))
        usable_cpus(monkeypatch, 2)
        L = lower_factor(8)
        seen = []
        noise_block = fields._noise_block

        def record(seed, b, out):
            seen.append(fake.count)
            return noise_block(seed, b, out)

        monkeypatch.setattr(fields, "_noise_block", record)

        def consume(seed):
            for _ in range(50):
                sample_suprema(L, seed, 2 * (2 * BLOCK), 2, [(0, 8)])

        consumers = [threading.Thread(target=consume, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in consumers:
                t.start()
            for t in consumers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in consumers)
        assert len(seen) == 4 * 50 * 2 and set(seen) == {1}
        assert fake.count == 4


class TestFbm:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="divide"):
            fbm_grid(1.0, 0.3)
        assert len(fbm_grid(8.0, 1 / 64)) == 513

    # an infinite span or one whose node count overflows raised OverflowError
    @pytest.mark.parametrize("T, eta", [(math.inf, 0.1), (1e308, 1e-10)])
    def test_grid_refuses_an_infinite_ratio(self, T, eta):
        with pytest.raises(ValueError, match="finite ratio"):
            fbm_grid(T, eta)

    def test_variance_is_twice_t_alpha(self):
        alpha, T, eta, n = 0.8, 2.0, 1 / 4, 100_000
        t = fbm_grid(T, eta)
        L = cholesky_factor(fbm_covariance(alpha, t[1:]))
        chi = paths(L, seed=2, count=2 * n)  # chi on t[1:]
        want = 2.0 * t[1:] ** alpha
        got = chi.var(axis=0, ddof=1)
        se = want * np.sqrt(2.0 / n)
        assert np.all(np.abs(got - want) < 3 * se)

    def test_alpha_one_is_scaled_brownian(self):
        # |s| + |t| - |t - s| = 2 min(s, t) for s, t >= 0
        t = fbm_grid(2.0, 0.5)
        cov = fbm_covariance(1.0, t)
        want = 2.0 * np.minimum(t[:, None], t[None, :])
        assert np.max(np.abs(cov - want)) < 1e-12
        n = 100_000
        L = cholesky_factor(cov[1:, 1:])
        emp = np.cov(paths(L, seed=4, count=2 * n).T)
        se = np.sqrt((np.outer(np.diag(want[1:, 1:]), np.diag(want[1:, 1:])) + want[1:, 1:] ** 2) / n)
        assert np.all(np.abs(emp - want[1:, 1:]) < 4 * se)

    def test_alpha_domain(self):
        for alpha in (0.0, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                fbm_covariance(alpha, fbm_grid(1.0, 0.25)[1:])

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_two_sided_grid(self, alpha):
        # t = k/16, |k| <= 64, without the origin (its row is all zeros)
        k = np.arange(-64, 65)
        t = k[k != 0] / 16.0
        cov = fbm_covariance(alpha, t)
        assert np.all(np.isfinite(cov))
        s_, t_ = t[:, None], t[None, :]
        want = np.abs(s_) ** alpha + np.abs(t_) ** alpha - np.abs(t_ - s_) ** alpha
        assert np.array_equal(cov, want)
        L = cholesky_factor(cov)
        assert np.allclose(L @ L.T, cov, rtol=0, atol=1e-9 * np.abs(cov).max())


class TestDump:
    def L(self):
        return cholesky_factor(build_covariance(model(rho=0.3), unit_overlap(3)))

    # the writer copies 64 nodes at a time into its row pairs: a factor of
    # 6, 7, 65 or 257 nodes ends part-way through a copy. 2 BLOCK + 1
    # replicates are BLOCK + 1 paths: a full block, then one path without
    # its mirror; 600 more end part-way through one of the writer's buffers
    # in the second block, again on a path without its mirror. At two
    # threads the blocks are written by two workers.
    def dumps(self, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, 2)
        for n in (6, 7, 65, 257):
            L = self.L() if n == 6 else lower_factor(n)
            for count in (2 * BLOCK + 1, 2 * BLOCK + 601):
                for threads in (1, 2):
                    p = str(tmp_path / f"x{n}-{count}-{threads}.bgrf")
                    write_sample_dump(p, L, 6, count, 0xDEADBEEF, threads)
                    yield p, L, count

    def test_roundtrip(self, tmp_path, monkeypatch):
        for p, L, count in self.dumps(tmp_path, monkeypatch):
            n = len(L)
            raw = open(p, "rb").read()
            assert raw[:4] == b"BGRF"
            assert dump_header(p) == (n, count, 0xDEADBEEF)
            assert len(raw) == 16 + 8 * count * n
            rows = draw(L, 6, count)
            assert raw[16:] == rows.astype("<f8").tobytes()
            # the reader yields the paths, rows 2j, slab by slab
            back = list(read_sample_dump(p))
            assert [s for s, _ in back] == list(range(0, count, BLOCK))
            assert np.array_equal(np.hstack([mat for _, mat in back]).T, rows[0::2])

    def test_rows_pair_with_their_negation(self, tmp_path, monkeypatch):
        for p, L, count in self.dumps(tmp_path, monkeypatch):
            rows = np.fromfile(p, dtype="<u8", offset=16).reshape(count, len(L))
            # bit for bit: row 2j + 1 is row 2j with every sign bit flipped
            assert np.array_equal(rows[1::2], rows[0:-1:2] ^ np.uint64(1 << 63))

    def test_writer_frees_each_block(self, tmp_path):
        # six blocks from sample_blocks into the writer: each block must be
        # gone before the next is drawn; at 200 nodes the product's tile is
        # 200 x BLOCK, as large as the block, so the peak is the block, that
        # tile and the writer's buffer, not a second block
        L = lower_factor(200)
        block, tile = 8 * 200 * BLOCK, 8 * 200 * BLOCK
        tracemalloc.start()
        try:
            write_sample_dump(str(tmp_path / "m.bgrf"), L, 1, 2 * 6 * BLOCK, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + 2 * tile

    def test_writer_holds_one_block(self, tmp_path):
        # at 1,024 nodes the product overwrites the block's noise through a
        # 256 x BLOCK tile (a quarter of the block), and the writer's buffer
        # of 256 rows is as large: the peak is the block, that tile and
        # the writer's buffer, with no second block beside them
        L = lower_factor(1024)
        block, tile = 8 * 1024 * BLOCK, 8 * 256 * BLOCK
        tracemalloc.start()
        try:
            write_sample_dump(str(tmp_path / "w.bgrf"), L, 1, 2 * 3 * BLOCK, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + 3 * tile

    def test_writer_holds_one_block_per_worker(self, tmp_path, monkeypatch):
        # three blocks at two threads: the block being written and the one
        # the other worker draws, each with its tile (200 x BLOCK, as large
        # as the block), and the writer's buffer; a third block drawn while
        # one is written would pass the bound
        usable_cpus(monkeypatch, 2)
        L = lower_factor(200)
        block, tile = 8 * 200 * BLOCK, 8 * 200 * BLOCK
        tracemalloc.start()
        try:
            write_sample_dump(str(tmp_path / "w2.bgrf"), L, 1, 2 * 3 * BLOCK, 0, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * block + 3 * tile

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "y.bgrf")
        with open(p, "wb") as fh:
            fh.write(b"NOPE" + b"\0" * 12)
        with pytest.raises(ValueError, match="magic"):
            dump_header(p)
        with pytest.raises(ValueError, match="magic"):
            next(read_sample_dump(p))

    def test_interrupted_write_leaves_no_header(self, tmp_path, monkeypatch):
        noise_block = fields._noise_block

        def failing(seed, block, out):
            if block == 1:
                raise RuntimeError("sampling stopped")
            return noise_block(seed, block, out)

        monkeypatch.setattr(fields, "_noise_block", failing)
        p = str(tmp_path / "z.bgrf")
        with pytest.raises(RuntimeError, match="sampling stopped"):
            write_sample_dump(p, self.L(), 6, 2 * BLOCK + 1, 1)
        with pytest.raises(ValueError, match="magic"):
            dump_header(p)

    @pytest.mark.parametrize("nodes, reps", [(6, 0), (0, 5), (0, 0)])
    def test_empty_header_refused(self, tmp_path, nodes, reps):
        # nothing to reduce: the payload size, 0 bytes, checks out
        p = str(tmp_path / "e.bgrf")
        with open(p, "wb") as fh:
            fh.write(b"BGRF" + struct.pack("<III", nodes, reps, 0))
        with pytest.raises(ValueError, match=f"empty dump: {nodes} nodes, {reps} replicates"):
            dump_header(p)

    def test_truncated_payload(self, tmp_path):
        p = str(tmp_path / "t.bgrf")
        write_sample_dump(p, self.L(), 6, 5, 0)
        with open(p, "r+b") as fh:
            fh.truncate(16 + 8 * 29)
        with pytest.raises(ValueError, match="size mismatch"):
            dump_header(p)
