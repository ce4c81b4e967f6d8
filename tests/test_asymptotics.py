"""Tests for the closed-form evaluators and the Riemann-sum check.

Frozen values computed with mpmath at 30 digits:
  psi(1, 0)    = 0.0585498315243192
  psi(2, 0.5)  = 0.00718279395239271
  psi(3, 0.5)  = 0.000113883974965486
and for the tail asymptotic of overlapping domains (M = N = 1) at
alpha1=alpha2=1, mes=1, rho=0.5, r''(0)=-0.25, c=H=1, u=3:
  value        = 0.00456743666681368
  constant     = 0.614211821282374   (u-free prefactor incl. Psi factors)
"""

import math
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgrf import asymptotics
from bgrf.asymptotics import (
    AsymptoticResult,
    CellBudgetError,
    default_delta_constant,
    delta_lower_bound,
    riemann_sum_check,
    tail_asymptotic,
)
from bgrf.fields import DomainPair, Rect, union_covers
from bgrf.model import BivariateMaternModel, LocalExpansion, cross_corr, local_expansion
from oracles import psi


def interval(lo, hi):
    return Rect((float(lo),), (float(hi),))


def intersect(a, b):
    """The box a and b share, None where they do not meet."""
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    return None if any(h < l for l, h in zip(lo, hi)) else Rect(lo, hi)


def expansion(alpha1=1.0, alpha2=1.0, c1=1.0, c2=1.0, rho=0.5, r2=-0.25, N=1):
    return LocalExpansion(alpha1, alpha2, c1, c2, rho, r2, N)


STANDARD = expansion(r2=-0.5)  # rho * M''(0|1.5,1) = 0.5 * (-1)


def standard_r(h):
    m = BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=1.5, rho=0.5)
    return cross_corr(m, h)


class TestPsi:
    def test_rho_zero(self):
        assert abs(psi(1.0, 0.0) - 0.0585498315243192) < 1e-15

    def test_frozen_values(self):
        assert abs(psi(2.0, 0.5) - 0.00718279395239271) < 1e-16
        assert abs(psi(3.0, 0.5) - 0.000113883974965486) < 1e-18

    @settings(max_examples=50, deadline=None)
    @given(u=st.floats(0.1, 20.0), rho=st.floats(0.0, 0.95))
    def test_algebraic_inversion(self, u, rho):
        lhs = (
            psi(u, rho) * 2.0 * math.pi * u * u * math.sqrt(1 - rho * rho)
            / (1 + rho) ** 2
        )
        assert lhs == pytest.approx(math.exp(-u * u / (1 + rho)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(0.0, 0.5)
        with pytest.raises(ValueError):
            psi(1.0, 1.0)


def overlap_product(e, mes, H1, H2, u):
    """Theorem 1 (overlapping domains) written out as a plain product."""
    N = e.dim_N
    power = N * (2.0 / e.alpha1 + 2.0 / e.alpha2 - 1.0)
    return (
        (2.0 * math.pi) ** (N / 2.0)
        * (-e.r2_zero) ** (-N / 2.0)
        * e.c1 ** (N / e.alpha1)
        * e.c2 ** (N / e.alpha2)
        * mes * H1 * H2
        * (1.0 + e.rho) ** (-power)
        * u**power
        * psi(u, e.rho)
    )


class TestTheorem1:
    """The tail asymptotic at M = N: overlapping domains."""

    def test_frozen_example(self):
        r = tail_asymptotic(expansion(), M=1, mes_M=1.0, H1=1.0, H2=1.0, u=3.0)
        assert r.u_power == pytest.approx(1.0, abs=1e-14)
        assert r.exp_rate == -1.0 / 1.5
        assert r.constant == pytest.approx(0.614211821282374, rel=1e-13)
        assert r.value == pytest.approx(0.00456743666681368, rel=1e-13)

    def test_remark_total_power_of_u(self):
        # N = 1: power including Psi's u^-2 is 2/a1 + 2/a2 - 3
        for a1, a2 in [(1.0, 1.0), (0.5, 1.5), (0.8, 1.9)]:
            r = tail_asymptotic(expansion(alpha1=a1, alpha2=a2), 1, 1.0, 1.0, 1.0, 2.0)
            assert r.u_power == pytest.approx(2 / a1 + 2 / a2 - 3, rel=1e-14)

    def test_linear_in_measure(self):
        a = tail_asymptotic(expansion(), 1, 1.0, 1.0, 1.0, 3.0)
        b = tail_asymptotic(expansion(), 1, 2.0, 1.0, 1.0, 3.0)
        assert b.value == pytest.approx(2.0 * a.value, rel=1e-14)

    def test_log_value_survives_underflow(self):
        r = tail_asymptotic(expansion(), 1, 1.0, 1.0, 1.0, 60.0)
        assert r.value == 0.0
        assert math.isfinite(r.log_value)
        assert r.log_value < -745.0

    @settings(max_examples=60, deadline=None)
    @given(
        a1=st.floats(0.3, 1.9),
        a2=st.floats(0.3, 1.9),
        c1=st.floats(0.2, 3.0),
        rho=st.floats(0.05, 0.9),
        r2=st.floats(-3.0, -0.1),
        u=st.floats(1.0, 10.0),
    )
    def test_reconstruction_identity(self, a1, a2, c1, rho, r2, u):
        e = expansion(alpha1=a1, alpha2=a2, c1=c1, rho=rho, r2=r2)
        r = tail_asymptotic(e, 1, 0.7, 1.1, 0.9, u)
        rebuilt = r.constant * u**r.u_power * math.exp(r.exp_rate * u * u)
        assert rebuilt == pytest.approx(r.value, rel=1e-12)
        assert r.exp_rate == -1.0 / (1.0 + rho)

    @settings(max_examples=100, deadline=None)
    @given(
        N=st.integers(1, 3),
        a1=st.floats(0.3, 1.9),
        a2=st.floats(0.3, 1.9),
        c1=st.floats(0.2, 3.0),
        c2=st.floats(0.2, 3.0),
        rho=st.floats(0.05, 0.9),
        r2=st.floats(-3.0, -0.1),
        mes=st.floats(0.1, 4.0),
        u=st.floats(1.0, 6.0),
    )
    def test_matches_overlap_product(self, N, a1, a2, c1, c2, rho, r2, mes, u):
        e = LocalExpansion(a1, a2, c1, c2, rho, r2, N)
        want = overlap_product(e, mes, 1.1, 0.9, u)
        r = tail_asymptotic(e, N, mes, 1.1, 0.9, u)
        assert r.value == pytest.approx(want, rel=1e-12)


class TestTheorem2:
    """The tail asymptotic at M < N: domains touching in N - M axes."""

    def test_hand_checked_M0(self):
        # M=0, N=1, alpha=1: (-r'')^-1 c1 c2 H1 H2 (1+rho)^-2 u^2 Psi
        e = expansion()
        u = 3.0
        r = tail_asymptotic(e, 0, 1.0, 1.0, 1.0, u)
        want = 4.0 * (1.5) ** (-2.0) * u * u * psi(u, 0.5)
        assert r.value == pytest.approx(want, rel=1e-13)
        assert r.u_power == pytest.approx(0.0, abs=1e-14)

    def test_ratio_to_overlap_case_is_u_power_M_minus_N(self):
        e = expansion(alpha1=0.8, alpha2=1.4, N=2)
        for M in (0, 1):
            mes = 1.0 if M == 0 else 0.7
            d1 = (
                tail_asymptotic(e, M, mes, 1.0, 1.0, 2.0).log_value
                - tail_asymptotic(e, 2, 1.0, 1.0, 1.0, 2.0).log_value
            )
            d2 = (
                tail_asymptotic(e, M, mes, 1.0, 1.0, 4.0).log_value
                - tail_asymptotic(e, 2, 1.0, 1.0, 1.0, 4.0).log_value
            )
            assert d2 - d1 == pytest.approx((M - 2) * math.log(2.0), rel=1e-12)

    def test_M_validation(self):
        e = expansion(N=2)
        assert tail_asymptotic(e, 2, 1.0, 1.0, 1.0, 2.0).value > 0.0  # M = N
        with pytest.raises(ValueError, match=r"\[0, N\]"):
            tail_asymptotic(e, 3, 1.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="convention"):
            tail_asymptotic(e, 0, 0.5, 1.0, 1.0, 2.0)

    # u = inf gave value 0.0 beside log_value nan, and H = inf gave inf
    @pytest.mark.parametrize("H1, H2, u, match", [
        (1.0, 1.0, math.inf, "u must be finite"),
        (math.inf, 1.0, 2.0, "Pickands constants must be positive and finite"),
        (1.0, math.inf, 2.0, "Pickands constants must be positive and finite"),
    ])
    def test_refuses_infinite_inputs(self, H1, H2, u, match):
        with pytest.raises(ValueError, match=match):
            tail_asymptotic(expansion(), 1, 1.0, H1, H2, u)


def matern_tail(m, M, u):
    """Tail asymptotic of the standardized Matern field on unit domains."""
    return tail_asymptotic(local_expansion(m), M, 1.0, 1.0, 1.0, u)


class TestMaternComposition:
    def model(self):
        return BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=2.0, rho=0.5)

    def test_power_prints_as_advertised(self):
        r = matern_tail(self.model(), 1, 3.0)
        # pre-Psi exponent N(1/nu1 + 1/nu2 - 1) = 3
        assert r.u_power + 2.0 == pytest.approx(3.0, abs=1e-14)

    def test_equals_explicit_composition(self):
        # nu = 1/2 gives alpha = 1 and c = 1; -r''(0) = rho / (2 (nu12 - 1))
        u = 2.5
        want = (
            math.sqrt(2.0 * math.pi) * 0.25**-0.5 * 1.5**-3.0 * u**3.0 * psi(u, 0.5)
        )
        assert matern_tail(self.model(), 1, u).value == pytest.approx(want, rel=1e-13)

    def test_cross_second_derivative_slot(self):
        e = local_expansion(self.model())
        assert -e.r2_zero == pytest.approx(0.5 / (2 * (2.0 - 1.0)), rel=1e-9)

    def test_touching_variant_power_and_ratio(self):
        m = self.model()
        r2 = matern_tail(m, 0, 3.0)
        assert r2.u_power + 2.0 == pytest.approx(2.0, abs=1e-14)
        la, lb = 3.0, 6.0
        d = (
            matern_tail(m, 0, lb).log_value - matern_tail(m, 1, lb).log_value
        ) - (
            matern_tail(m, 0, la).log_value - matern_tail(m, 1, la).log_value
        )
        assert d == pytest.approx(-math.log(2.0), rel=1e-12)


class TestDeltaConstant:
    def test_degenerate_lower_bound(self):
        assert delta_lower_bound(STANDARD) == 0.0
        assert default_delta_constant(STANDARD) == 3.0

    def test_positive_lower_bound(self):
        e = expansion(alpha1=0.5, alpha2=1.5, r2=-0.5)
        assert delta_lower_bound(e) == pytest.approx(3.0, rel=1e-12)
        assert default_delta_constant(e) == pytest.approx(4.5, rel=1e-12)


def overlap_domain():
    return DomainPair(A1=(interval(0, 1),), A2=(interval(0, 1),), dim_N=1)


def split_domain():
    return DomainPair(
        A1=(interval(0, 1),), A2=(interval(1, 2),), dim_N=1, split_M=0
    )


class TestRiemannSum:
    def test_overlap_ratio_near_one(self):
        chk = riemann_sum_check(STANDARD, overlap_domain(), standard_r, 1.0, 3.0, 30.0)
        assert chk.regime == "overlap"
        assert 0.90 < chk.ratio < 1.02

    def test_subset_cells_agree(self):
        a = riemann_sum_check(
            STANDARD, overlap_domain(), standard_r, 1.0, 3.0, 30.0, cells="intersect"
        )
        b = riemann_sum_check(
            STANDARD, overlap_domain(), standard_r, 1.0, 3.0, 30.0, cells="subset"
        )
        assert abs(a.h_sum - b.h_sum) / a.h_sum < 0.02
        assert b.n_pairs <= a.n_pairs

    def test_split_regime(self):
        chk = riemann_sum_check(STANDARD, split_domain(), standard_r, 1.0, 3.0, 30.0)
        assert chk.regime == "split"
        assert 1.0 < chk.ratio < 1.2

    def test_two_dimensional_overlap(self):
        d = DomainPair(
            A1=(Rect((0.0, 0.0), (1.0, 1.0)),),
            A2=(Rect((0.0, 0.0), (1.0, 1.0)),),
            dim_N=2,
        )
        e = expansion(r2=-0.5, N=2)
        m = BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=1.5, rho=0.5, dim_N=2)
        chk = riemann_sum_check(e, d, lambda h: cross_corr(m, h), 2.0, 3.0, 8.0)
        assert chk.regime == "overlap"
        assert 0.5 < chk.ratio < 1.5

    def test_budget_guard(self):
        with pytest.raises(CellBudgetError):
            riemann_sum_check(STANDARD, overlap_domain(), standard_r, 1.0, 3.0, 2000.0)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="diameter"):
            riemann_sum_check(STANDARD, overlap_domain(), standard_r, 1.0, 3.0, 2.0)
        with pytest.raises(ValueError, match="cell sides"):
            riemann_sum_check(STANDARD, overlap_domain(), standard_r, 1.0, 0.01, 5.0)

    def test_split_needs_structure(self):
        bare = DomainPair(A1=(interval(0, 1),), A2=(interval(1, 2),), dim_N=1)
        with pytest.raises(ValueError, match="split_M"):
            riemann_sum_check(STANDARD, bare, standard_r, 1.0, 3.0, 30.0)


class TestCellRange:
    @settings(max_examples=200, deadline=None)
    @given(d=st.floats(1e-4, 0.1), n=st.integers(-2000, 2000), side=st.sampled_from([-1, 1]))
    def test_face_on_a_cell_boundary(self, d, n, side):
        # a face at n d exactly: lo / d and hi / d may round past n, and the
        # cell beyond the face still touches it
        lo, hi = sorted((n * d, n * d + side))
        guess = range(math.floor(lo / d) - 3, math.ceil(hi / d) + 3)
        meets = [k for k in guess if (k + 1) * d >= lo and k * d <= hi]
        assert list(asymptotics._cell_range(lo, hi, d)) == meets

    def test_cell_past_an_upper_face(self):
        # 964 d rounds to hi, but hi / d rounds to just below 964
        d = 0.018672035962882298
        hi = 964 * d
        assert math.floor(hi / d) == 963
        assert asymptotics._cell_range(hi - 1.0, hi, d)[-1] == 964


# ---------------------------------------------------------------------------
# Oracle: the per-cell loop riemann_sum_check once ran, one cell of A1 at a
# time, kept as the reference for the chunked array code.
# ---------------------------------------------------------------------------

def reference_riemann(e, d, cross_r, T_scale, C_delta, u, cells="intersect"):
    """(h_sum, n_pairs) by the per-cell loop."""
    N = d.dim_N
    d1 = T_scale * u ** (-2.0 / e.alpha1)
    d2 = T_scale * u ** (-2.0 / e.alpha2)
    delta = C_delta * math.sqrt(math.log(u)) / u

    cells1 = {}
    for box in d.A1:
        ranges = [asymptotics._cell_range(box.lo[j], box.hi[j], d1) for j in range(N)]
        for k in product(*ranges):
            cell = Rect(tuple(kj * d1 for kj in k), tuple((kj + 1) * d1 for kj in k))
            piece = intersect(cell, box)
            if piece is not None:
                cells1.setdefault(k, []).append(piece)

    one_over_1p_rho = 1.0 / (1.0 + e.rho)
    partials = []
    n_pairs = 0
    lax = delta + d1 + d2
    for k, pieces1 in sorted(cells1.items()):
        if cells == "subset":
            s_lo = np.array(k, dtype=float) * d1
            s_hi = (np.array(k, dtype=float) + 1) * d1
            if not union_covers(d.A1, s_lo[None], s_hi[None])[0]:
                continue
        axes = [
            np.arange(
                math.floor((k[j] * d1 - lax) / d2),
                math.floor(((k[j] + 1) * d1 + lax) / d2) + 2,
            )
            for j in range(N)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        ls = np.column_stack([g.ravel() for g in mesh])
        t_lo_cell = ls * d2
        t_hi_cell = (ls + 1) * d2
        if cells == "intersect":
            member = np.zeros(len(ls), dtype=bool)
            for p1 in pieces1:
                p_lo, p_hi = np.array(p1.lo), np.array(p1.hi)
                for box2 in d.A2:
                    b_lo, b_hi = np.array(box2.lo), np.array(box2.hi)
                    t_lo = np.maximum(t_lo_cell, b_lo)
                    t_hi = np.minimum(t_hi_cell, b_hi)
                    valid = np.all(t_lo <= t_hi, axis=1)
                    gap = np.maximum(np.maximum(t_lo - p_hi, p_lo - t_hi), 0.0)
                    member |= valid & (np.sum(gap * gap, axis=1) <= delta * delta)
        else:
            far = np.maximum(np.abs(t_hi_cell - s_lo), np.abs(s_hi - t_lo_cell))
            member = np.sum(far * far, axis=1) <= delta * delta
            if np.any(member):
                inside_one = np.zeros(len(ls), dtype=bool)
                for box2 in d.A2:
                    b_lo, b_hi = np.array(box2.lo), np.array(box2.hi)
                    inside_one |= np.all(
                        (t_lo_cell >= b_lo) & (t_hi_cell <= b_hi), axis=1
                    )
                pending = member & ~inside_one
                if np.any(pending) and len(d.A2) > 1:
                    for i in np.nonzero(pending)[0]:
                        inside_one[i] = union_covers(
                            d.A2, t_lo_cell[i : i + 1], t_hi_cell[i : i + 1]
                        )[0]
                member &= inside_one
        if not np.any(member):
            continue
        tau = ls[member] * d2 - np.array(k, dtype=float) * d1
        r_vals = np.asarray(cross_r(np.sqrt(np.sum(tau * tau, axis=1))), dtype=float)
        g_vals = 1.0 / (1.0 + r_vals) - one_over_1p_rho
        partials.append(float(np.sum(np.exp(-u * u * g_vals))))
        n_pairs += int(np.count_nonzero(member))
    return math.fsum(partials), n_pairs


def boxes(*spans):
    """Boxes from per-axis (lo, hi) spans: boxes(((0, 1), (0, 2)))."""
    return tuple(
        Rect(tuple(float(lo) for lo, _ in b), tuple(float(hi) for _, hi in b))
        for b in spans
    )


def _model(nu2, N):
    # nu2 = 0.5 gives alpha1 = alpha2 (d1 == d2); nu2 = 0.75 gives d1 != d2
    rho = 0.5 if nu2 == 0.5 else 0.4
    return BivariateMaternModel(nu1=0.5, nu2=nu2, nu12=1.5, rho=rho, dim_N=N)


# (name, A1, A2, split_M, N, u, T); faces at 0.5317 and 0.6137 fall inside
# cells, so cells meet two boxes of A1 and straddle the boxes of A2. The
# gap, the nested interval and the L give cells of A1 whose partners in the
# band are not one contiguous window of A2's cells. In "2d-three" the faces
# x = 0.5317 and, right of it, y = 0.4129 cross inside one cell, which
# meets all three boxes of A1
ORACLE_DOMAINS = {
    "1d-overlap": (boxes(((0, 1),)), boxes(((0, 1),)), None, 1, 12.0, 1.0),
    "1d-split": (boxes(((0, 1),)), boxes(((1, 2),)), 0, 1, 12.0, 1.0),
    "2d-overlap": (boxes(((0, 1), (0, 1))), boxes(((0, 1), (0, 1))), None, 2, 8.0, 2.0),
    "2d-split": (boxes(((0, 1), (0, 1))), boxes(((0, 1), (1, 2))), 1, 2, 12.0, 4.0),
    "1d-unions": (
        boxes(((0, 0.5317),), ((0.5317, 1),)),
        boxes(((0, 0.6137),), ((0.6137, 1),)),
        None, 1, 12.0, 1.0,
    ),
    "2d-unions": (
        boxes(((0, 0.5317), (0, 1)), ((0.5317, 1), (0, 1))),
        boxes(((0, 1), (0, 0.6137)), ((0, 1), (0.6137, 1))),
        None, 2, 8.0, 4.0,
    ),
    "1d-gap": (
        boxes(((0, 1),)), boxes(((0, 0.3117),), ((0.6941, 1),)), None, 1, 12.0, 1.0,
    ),
    "1d-nested": (boxes(((0, 1),)), boxes(((0.2317, 0.8113),)), None, 1, 12.0, 1.0),
    "2d-L": (
        boxes(((0, 0.5317), (0, 1)), ((0.5317, 1), (0, 0.4129))),
        boxes(((0, 1), (0, 1))),
        None, 2, 8.0, 4.0,
    ),
    "1d-sparse": (
        boxes(((0, 0.1),), ((5, 5.1),)), boxes(((0, 0.1),), ((5, 5.1),)),
        None, 1, 12.0, 1.0,
    ),
    "2d-three": (
        boxes(((0, 0.5317), (0, 1)), ((0.5317, 1), (0, 0.4129)), ((0.5317, 1), (0.4129, 1))),
        boxes(((0, 1), (0, 0.6137)), ((0, 1), (0.6137, 1))),
        None, 2, 8.0, 4.0,
    ),
}


def oracle_case(name, nu2):
    A1, A2, split_M, N, u, T = ORACLE_DOMAINS[name]
    m = _model(nu2, N)
    e = local_expansion(m)
    d = DomainPair(A1=A1, A2=A2, dim_N=N, split_M=split_M)
    return e, d, (lambda h: cross_corr(m, h)), T, default_delta_constant(e), u


def assert_matches_reference(args, cells):
    chk = riemann_sum_check(*args, cells)
    h_ref, n_ref = reference_riemann(*args, cells)
    assert n_ref > 0
    assert chk.n_pairs == n_ref
    assert abs(chk.h_sum - h_ref) <= 1e-12 * h_ref


@st.composite
def lattice_unions(draw, N):
    """1 to 3 boxes with every face on the 1/97 lattice of [0, 1]."""
    def box():
        spans = []
        for _ in range(N):
            lo, hi = sorted(draw(st.lists(st.integers(0, 97), min_size=2, max_size=2,
                                          unique=True)))
            spans.append((lo / 97, hi / 97))
        return tuple(spans)

    return boxes(*(box() for _ in range(draw(st.integers(1, 3)))))


# domains whose cells meet more than one box or whose in-band partners are
# not one window: the ones worth cutting into 16-candidate chunks
CHUNKED = ["1d-unions", "2d-unions", "1d-gap", "1d-nested", "2d-L"]


class TestRiemannOracle:
    @pytest.mark.parametrize("cells", ["intersect", "subset"])
    @pytest.mark.parametrize("nu2", [0.5, 0.75], ids=["d1==d2", "d1!=d2"])
    @pytest.mark.parametrize("name", list(ORACLE_DOMAINS))
    def test_matches_per_cell_loop(self, name, nu2, cells):
        assert_matches_reference(oracle_case(name, nu2), cells)

    def test_one_cell_meets_three_boxes(self):
        e, d, _, T, _, u = oracle_case("2d-three", 0.5)
        side = T * u ** (-2.0 / e.alpha1)
        k = (math.floor(0.5317 / side), math.floor(0.4129 / side))
        cell = Rect(tuple(kj * side for kj in k), tuple((kj + 1) * side for kj in k))
        assert all(intersect(cell, box) is not None for box in d.A1)

    @pytest.mark.parametrize("N", [1, 2])
    def test_no_subset_cell(self, N):
        # A1 thinner than a cell: no cell lies inside it, so the subset sum
        # is empty
        thin = boxes(((0.0, 0.001),) + ((0, 1),) * (N - 1))
        m = _model(0.75, N)
        e = local_expansion(m)
        d = DomainPair(A1=thin, A2=boxes(((0, 1),) * N), dim_N=N)
        chk = riemann_sum_check(e, d, lambda h: cross_corr(m, h), 4.0, 3.0, 20.0, "subset")
        assert (chk.h_sum, chk.n_pairs) == (0.0, 0)

    @pytest.mark.parametrize("name", ["1d-unions", "2d-unions"])
    def test_shared_face_cell_counted_per_offset(self, monkeypatch, name):
        # the cell of A1 that the shared face x = 0.5317 splits lies in no
        # single box, yet the union covers it: at d1 == d2 it is counted per
        # offset, and _band_pairs sees only cells the union does not cover
        args = oracle_case(name, 0.5)
        e, d, _, T, _, u = args
        side = T * u ** (-2.0 / e.alpha1)
        # the face's cell in x, at y = 0.5 in 2-D
        k = np.array([[math.floor(0.5317 / side)] + [math.floor(0.5 / side)] * (d.dim_N - 1)])
        cell = (k * side, (k + 1) * side)
        assert not any(union_covers([b], *cell)[0] for b in d.A1)
        assert union_covers(d.A1, *cell)[0]

        received = []
        band_pairs = asymptotics._band_pairs

        def recording(k, A1, A2, *rest):
            if A2 == d.A2:
                received.append(k)
            return band_pairs(k, A1, A2, *rest)

        monkeypatch.setattr(asymptotics, "_band_pairs", recording)
        assert_matches_reference(args, "intersect")
        cells = np.vstack(received)
        assert len(cells) > 0
        assert not union_covers(d.A1, cells * side, (cells + 1) * side).any()
        assert not np.all(cells == k, axis=1).any()

    @pytest.mark.parametrize("cells", ["intersect", "subset"])
    @pytest.mark.parametrize("name", CHUNKED)
    def test_chunks_split_a_window(self, monkeypatch, name, cells):
        # 16 candidates per chunk: less than one cell's window (about 39 in
        # 1-D, 10 x 10 in 2-D), so chunk ends fall inside windows
        monkeypatch.setattr(asymptotics, "_CHUNK_PAIRS", 16)
        assert_matches_reference(oracle_case(name, 0.75), cells)

    @pytest.mark.parametrize("name", CHUNKED)
    def test_chunks_split_a_clipped_window(self, monkeypatch, name):
        # at d1 == d2 only clipped cells reach _band_pairs, in intersect
        # mode; their windows (about 120 in 1-D) still split into chunks
        monkeypatch.setattr(asymptotics, "_CHUNK_PAIRS", 16)
        assert_matches_reference(oracle_case(name, 0.5), "intersect")

    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), N=st.integers(1, 2), cells=st.sampled_from(["intersect", "subset"]))
    def test_lattice_unions_match_per_cell_loop(self, data, N, cells):
        A1, A2 = data.draw(lattice_unions(N)), data.draw(lattice_unions(N))
        d = DomainPair(A1=A1, A2=A2, dim_N=N)
        u, T = (12.0, 1.0) if N == 1 else (8.0, 4.0)
        m = _model(0.5, N)
        e = local_expansion(m)
        C = default_delta_constant(e)
        delta = C * math.sqrt(math.log(u)) / u
        span = [max(b.hi[j] for b in A1 + A2) - min(b.lo[j] for b in A1 + A2)
                for j in range(N)]
        assume(d.mes(N) > 0 and delta < math.hypot(*span))
        args = (e, d, lambda h: cross_corr(m, h), T, C, u)
        chk = riemann_sum_check(*args, cells)
        h_ref, n_ref = reference_riemann(*args, cells)
        assert chk.n_pairs == n_ref
        assert abs(chk.h_sum - h_ref) <= 1e-12 * h_ref


# the README model on A1 = A2 = [0, 1] at T = 1 and C = 3, beyond the
# per-cell oracle's reach: (u, cells) -> (n_pairs, h_sum)
README_RIEMANN = {
    (20.0, "intersect"): (73_098, 40320.72113084706),
    (20.0, "subset"): (71_494, 40007.16828469901),
    (40.0, "intersect"): (688_134, 332250.0677176415),
    (40.0, "subset"): (681_730, 331627.266279465),
    (50.0, "intersect"): (1_400_184, 652370.8186978584),
    (50.0, "subset"): (1_390_180, 651594.6895594993),
    (80.0, "intersect"): (6_193_302, 2692526.2648786567),
    (80.0, "subset"): (6_167_698, 2691300.4519680226),
}


class TestReadmeRiemann:
    @pytest.mark.parametrize("u, cells", list(README_RIEMANN))
    def test_frozen_values(self, u, cells):
        chk = riemann_sum_check(STANDARD, overlap_domain(), standard_r, 1.0, 3.0, u, cells)
        assert (chk.n_pairs, chk.h_sum) == README_RIEMANN[u, cells]

    @pytest.mark.parametrize("cells", ["intersect", "subset"])
    def test_only_clipped_cells_enumerated(self, monkeypatch, cells):
        # 6,402 cells of A1 at u = 80; pairs of cells inside [0, 1] are
        # counted per offset, so only the two face-touching cells of each
        # domain are tested pair by pair, and subset cells never are
        received = []
        band_pairs = asymptotics._band_pairs

        def recording(k, *args):
            received.append(len(k))
            return band_pairs(k, *args)

        monkeypatch.setattr(asymptotics, "_band_pairs", recording)
        chk = riemann_sum_check(STANDARD, overlap_domain(), standard_r, 1.0, 3.0, 80.0, cells)
        assert (chk.n_pairs, chk.h_sum) == README_RIEMANN[80.0, cells]
        if cells == "intersect":
            assert 0 < sum(received) < 10
        else:
            assert received == []


class TestSparseUnions:
    # A1 = A2 = [0, 0.1]^2 u [L, L + 0.1]^2 at d1 == d2: no pair of cells
    # far apart is in the band, so the counts do not depend on L, and the
    # per-offset count must not grow with the gap between the boxes
    @staticmethod
    def check(L):
        m = BivariateMaternModel(nu1=0.5, nu2=0.5, nu12=1.5, rho=0.5, dim_N=2)
        A = boxes(((0, 0.1), (0, 0.1)), ((L, L + 0.1), (L, L + 0.1)))
        d = DomainPair(A1=A, A2=A, dim_N=2)
        return riemann_sum_check(local_expansion(m), d, lambda h: cross_corr(m, h),
                                 1.0, 3.0, 10.0)

    def test_far_boxes_count_as_near_ones(self):
        near = self.check(10.0)
        start = time.perf_counter()
        far = self.check(1000.0)
        seconds = time.perf_counter() - start
        assert near.n_pairs == 41_472
        assert (far.n_pairs, far.h_sum) == (near.n_pairs, near.h_sum)
        assert seconds < 2.0


class TestUnequalScales:
    def test_riemann_ratio_converges_at_unequal_scales(self):
        # the local expansion at a1 != a2 != a12 is the limit the sums reach
        m = BivariateMaternModel(nu1=0.5, nu2=0.75, nu12=1.5, rho=0.3, a2=2.0, a12=1.5)
        e, d = local_expansion(m), DomainPair((interval(0, 1),), (interval(0, 1),), 1)
        C = default_delta_constant(e)
        dev = [abs(riemann_sum_check(e, d, lambda h: cross_corr(m, h), 1.0, C, u).ratio - 1)
               for u in (20.0, 40.0, 80.0)]
        assert dev[0] > dev[1] > dev[2] and dev[2] < 0.005


class TestSharedKernelLimit:
    # the theorem is the Riemann limit (T = 1) times the Pickands constants,
    # the scaling and Psi
    @pytest.mark.parametrize("name", ["1d-overlap", "1d-split", "2d-overlap", "2d-split"])
    def test_theorem_is_kernel_limit_times_constants(self, name):
        e, d, cross_r, T, C, u = oracle_case(name, 0.75)
        e = replace(e, c1=1.3)  # c1 is 1 at nu1 = 1/2; the kernel ignores it
        M, mes = d.shared_part()
        N, H1, H2 = e.dim_N, 0.9, 1.3
        thm = tail_asymptotic(e, M, mes, H1, H2, u)
        rest = (
            psi(u, e.rho) * H1 * H2
            * e.c1 ** (N / e.alpha1) * e.c2 ** (N / e.alpha2)
            * (1.0 + e.rho) ** (-2.0 * N / e.alpha1 - 2.0 * N / e.alpha2)
        )
        limit = riemann_sum_check(e, d, cross_r, T, C, u).limit_value * T ** (2 * N)
        assert thm.value / rest == pytest.approx(limit, rel=1e-12, abs=0)
