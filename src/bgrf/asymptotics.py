"""Closed-form tail asymptotics and the deterministic Riemann-sum check.

The tail asymptotic returns an AsymptoticResult decomposed as

    value = constant * u^u_power * exp(exp_rate * u^2),

where exp_rate = -1/(1 + rho) always (the exponential part is governed by
the maximum cross correlation) and u_power already includes the u^-2
carried by the bivariate normal tail factor

    Psi(u, rho) = (1+rho)^2 / (2 pi u^2 sqrt(1-rho^2)) exp(-u^2/(1+rho)).

log_value is returned alongside value because Psi underflows double
precision near u ~ 38 at rho = 0.5.

The Riemann-sum check rebuilds the double-sum kernel from scratch: cells
of side d_i(u) = T u^(-2/alpha_i) per coordinate, the near-diagonal band
D = {(s,t) in A1 x A2 : |t - s| <= delta(u)} with delta(u) = C sqrt(log u)/u,
and

    h(u) = sum over cell pairs meeting D of
           exp(-u^2 (1/(1 + r(|tau_kl|)) - 1/(1 + rho))),

whose growth must match the closed-form limit at the domain pair's
(M, mes_M), M = N for overlapping domains. Cell-pair membership uses
exact interval arithmetic against the rectangle unions.

At d1 == d2 the kernel and the band test of two cells the unions cover
depend on their offset l - k alone: such pairs are counted per offset from
the cells' indicator arrays, and only the clipped cells on the domains'
faces are enumerated pair by pair. At d1 != d2 every cell of A1 is
tested against its window of A2's cells. Both unions are clipped by the
same test: each cell of a pair is cut to its union's boxes where the pair
is tested, so the clipped cells of A2 go through the call that tests
those of A1, with the unions swapped. The subset family (cell products
inside D, each cell inside its union) is part of the intersect family: at
d1 != d2 it is the intersect pairs that pass that test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .fields import DomainPair, Rect, union_covers
from .model import LocalExpansion

_CELL_BUDGET = 10**8
_CHUNK_PAIRS = 2**18  # candidate pairs per vectorised membership step


class CellBudgetError(RuntimeError):
    """Cell-pair enumeration would exceed the resource budget."""


# ---------------------------------------------------------------------------
# Psi and the tail asymptotic
# ---------------------------------------------------------------------------

# the u-free part of log Psi (everything except -2 log u - u^2/(1+rho))
def _log_psi_constant(rho: float) -> float:
    return (
        2.0 * math.log1p(rho)
        - math.log(2.0 * math.pi)
        - 0.5 * (math.log1p(rho) + math.log1p(-rho))
    )


@dataclass(frozen=True)
class AsymptoticResult:
    value: float
    log_value: float
    exp_rate: float
    u_power: float
    constant: float


def _kernel_limit(e: LocalExpansion, M: int, mes: float) -> tuple[float, float]:
    """(log K, p): the double-sum kernel over cells of side 1 (T = 1)
    grows as K u^p, with

        K = (2 pi)^(M/2) (-r''(0))^(M/2 - N) (1+rho)^(2N - M) mes_M,
        p = M + N(2/a1 + 2/a2 - 2).
    """
    N = e.dim_N
    log_k = (
        0.5 * M * math.log(2.0 * math.pi)
        + (0.5 * M - N) * math.log(-e.r2_zero)
        + (2 * N - M) * math.log1p(e.rho)
        + math.log(mes)
    )
    return log_k, M + N * (2.0 / e.alpha1 + 2.0 / e.alpha2 - 2.0)


def tail_asymptotic(
    e: LocalExpansion, M: int, mes_M: float, H1: float, H2: float, u: float
) -> AsymptoticResult:
    """Joint excursion asymptotics for domains sharing their first M
    coordinates and touching in the other N - M (Theorem 2); M = N with
    mes_N(A1 and A2) > 0 is the overlapping case (Theorem 1): the kernel
    limit K u^p of _kernel_limit times

        H1 H2 c1^(N/a1) c2^(N/a2) (1+rho)^(-2N/a1 - 2N/a2) Psi(u, rho).
    """
    N = e.dim_N
    if not (isinstance(M, int) and 0 <= M <= N):
        raise ValueError(f"M must be an integer in [0, N], got {M}")
    if M == 0 and mes_M != 1.0:
        raise ValueError("mes_0 is identically 1 by convention")
    if not (mes_M > 0):
        raise ValueError(f"measure must be > 0, got {mes_M}")
    if not (0 < H1 < math.inf and 0 < H2 < math.inf):
        raise ValueError(f"Pickands constants must be positive and finite, got {H1}, {H2}")
    if not (u > 0):
        raise ValueError(f"u must be > 0, got {u}")
    if u == math.inf:
        raise ValueError("u must be finite")
    log_k, power = _kernel_limit(e, M, mes_M)
    log_constant = (
        log_k
        + math.log(H1)
        + math.log(H2)
        + (N / e.alpha1) * math.log(e.c1)
        + (N / e.alpha2) * math.log(e.c2)
        - (2.0 * N / e.alpha1 + 2.0 * N / e.alpha2) * math.log1p(e.rho)
        + _log_psi_constant(e.rho)
    )
    exp_rate = -1.0 / (1.0 + e.rho)
    u_power = power - 2.0
    log_value = log_constant + u_power * math.log(u) + exp_rate * u * u
    return AsymptoticResult(
        value=math.exp(log_value) if log_value > -745.0 else 0.0,
        log_value=log_value,
        exp_rate=exp_rate,
        u_power=u_power,
        constant=math.exp(log_constant),
    )


# ---------------------------------------------------------------------------
# delta(u) constant
# ---------------------------------------------------------------------------

def delta_lower_bound(e: LocalExpansion) -> float:
    """Lower bound on the band constant C coming from the off-diagonal
    suppression argument (positive part; 0 means any C > 0 suffices)."""
    N = e.dim_N
    inner = N * (
        2.0 / min(e.alpha1, e.alpha2) + 1.0 - 2.0 / e.alpha1 - 2.0 / e.alpha2
    ) + 1.0
    return math.sqrt(3.0 * (1.0 + e.rho) ** 2 / (-e.r2_zero) * max(inner, 0.0))


_DELTA_MULTIPLIER = 1.5
_DELTA_FLOOR = 3.0


def default_delta_constant(e: LocalExpansion) -> float:
    """Default C: _DELTA_MULTIPLIER times the lower bound, floored at
    _DELTA_FLOOR.

    The floor matters because the lower bound degenerates to 0 for
    configurations like alpha1 = alpha2 = 1, where any positive C is
    admissible asymptotically but a desk-scale check needs the band wide
    enough to capture the near-diagonal Gaussian mass.
    """
    return max(_DELTA_MULTIPLIER * delta_lower_bound(e), _DELTA_FLOOR)


# ---------------------------------------------------------------------------
# Riemann-sum check (Lemmas' kernel, summed directly)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiemannCheck:
    u: float
    h_sum: float
    limit_value: float
    ratio: float
    n_pairs: int
    regime: str  # "overlap" | "split"
    cells: str   # "intersect" | "subset"
    delta: float


def _cell_range(lo: float, hi: float, d: float) -> range:
    """Indices k with [k d, (k+1) d] meeting [lo, hi] (closed sets, so
    face-touching cells count)."""
    # lo / d and hi / d round, so the first guess can be a cell off either way
    k_min = math.ceil(lo / d) - 1
    while (k_min + 1) * d < lo:
        k_min += 1
    while k_min * d >= lo:
        k_min -= 1
    k_max = math.floor(hi / d)
    while k_max * d > hi:
        k_max -= 1
    while (k_max + 1) * d <= hi:
        k_max += 1
    return range(k_min, k_max + 1)


def _cells_of_union(boxes: Sequence[Rect], d: float) -> np.ndarray:
    """Cells [k d, (k+1) d] meeting the union, each once: an (n, N) integer
    array k in lexicographic order."""
    per_box = []
    for box in boxes:
        ranges = [_cell_range(box.lo[j], box.hi[j], d) for j in range(box.dim)]
        mesh = np.meshgrid(*(np.arange(r.start, r.stop) for r in ranges), indexing="ij")
        per_box.append(np.column_stack([g.ravel() for g in mesh]))
    return np.unique(np.vstack(per_box), axis=0)


def _band_pairs(
    k: np.ndarray,
    A1: Sequence[Rect],
    A2: Sequence[Rect],
    d1: float,
    d2: float,
    delta: float,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (k, l) index arrays, one row per cell pair in the band, for
    the cells k of A1 (side d1) and cells l of A2 (side d2): the pairs with
    (cell k intersect A1) x (cell l intersect A2) meeting the band.

    Cell k's candidates are the l within its tau range, widened by the
    pieces' slack, per axis. A chunk of cells is laid out as one
    (cells, W_1, ..., W_N) window, slots past each cell's own bound masked
    off, and tested at once. A chunk holds at most _CHUNK_PAIRS candidates;
    a window larger than that is split along its first axis.
    """
    n, N = k.shape
    lax = delta + d1 + d2
    l_lo = np.floor((k * d1 - lax) / d2).astype(np.int64)
    l_hi = np.floor(((k + 1) * d1 + lax) / d2).astype(np.int64) + 1
    width = (l_hi - l_lo + 1).max(axis=0, initial=0)
    inner = max(math.prod(width[1:]), 1)
    rows = max(1, _CHUNK_PAIRS // max(width[0] * inner, 1))  # cells per chunk
    step = max(1, _CHUNK_PAIRS // inner)  # first-axis window slots per chunk

    def col(a: np.ndarray) -> np.ndarray:
        # a per-cell value, shaped to broadcast over the window axes
        return a.reshape((-1,) + (1,) * N)

    def all_axes(tests) -> np.ndarray:
        return reduce(np.logical_and, tests)

    for c0 in range(0, n, rows):
        c = slice(c0, c0 + rows)
        s_lo, s_hi = k[c] * d1, (k[c] + 1) * d1
        # cell k intersect each box of A1, the empty box where the box misses it
        pieces = []
        for box1 in A1:
            p_lo, p_hi = np.maximum(s_lo, box1.lo), np.minimum(s_hi, box1.hi)
            empty = np.any(p_lo > p_hi, axis=1)
            p_lo[empty], p_hi[empty] = np.inf, -np.inf
            pieces.append((p_lo, p_hi))
        for i0 in range(0, width[0], step):
            offs = [np.arange(i0, min(i0 + step, width[0]))]
            offs += [np.arange(w) for w in width[1:]]
            # axis j of the window, a (cells, 1.., W_j, ..1) array
            l = [col(l_lo[c, j]) + o.reshape([-1 if i == j else 1 for i in range(N)])
                 for j, o in enumerate(offs)]
            member = all_axes(l[j] <= col(l_hi[c, j]) for j in range(N))
            t_lo = [lj * d2 for lj in l]
            t_hi = [(lj + 1) * d2 for lj in l]
            near = np.zeros_like(member)
            for box2 in A2:
                tb_lo = [np.maximum(t, lo) for t, lo in zip(t_lo, box2.lo)]
                tb_hi = [np.minimum(t, hi) for t, hi in zip(t_hi, box2.hi)]
                valid = all_axes(tb_lo[j] <= tb_hi[j] for j in range(N))
                for p_lo, p_hi in pieces:
                    dist2 = sum(
                        np.maximum(
                            np.maximum(tb_lo[j] - col(p_hi[:, j]),
                                       col(p_lo[:, j]) - tb_hi[j]),
                            0.0,
                        ) ** 2
                        for j in range(N)
                    )
                    near |= valid & (dist2 <= delta * delta)
            hit = np.nonzero(member & near)
            ls = l_lo[c][hit[0]] + np.column_stack([o[h] for o, h in zip(offs, hit[1:])])
            yield k[c][hit[0]], ls


def _correlate(a: np.ndarray, b: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """For each row o of offsets, the number of cells i set in a with cell
    i + o set in b, a and b indexing the same cells. One overlap of slices
    per offset, so the counts are exact integers."""
    out = np.zeros(len(offsets), dtype=np.int64)
    for n, o in enumerate(offsets.tolist()):
        sa = tuple(slice(max(0, -oj), max(0, na - oj)) for oj, na in zip(o, a.shape))
        sb = tuple(slice(max(0, oj), max(0, na + oj)) for oj, na in zip(o, a.shape))
        out[n] = np.count_nonzero(a[sa] & b[sb])
    return out


def _offset_counts(d: DomainPair, side: float, delta: float, cells: str) -> np.ndarray:
    """Cell pairs in the band per offset l - k at d1 == d2 == side: an
    N-dimensional array over offsets -R..R per axis, R = int(delta / side) + 2,
    the count for offset o at index o + R.

    A cell the union covers meets its domain in the whole cell, so whether
    two covered cells meet the band, or whether their product lies inside
    it, depends on their offset alone. Those pairs are counted per offset
    from the covered cells' indicator arrays, masked by the offset test. In
    the intersect family a clipped cell (one the union does not cover) goes
    through _band_pairs: each clipped cell of A1 against every cell of A2,
    and each clipped cell of A2, with the roles swapped, against the covered
    cells of A1.
    """
    R = int(delta / side) + 2
    o = np.indices((2 * R + 1,) * d.dim_N) - R
    reach = np.abs(o) + (1 if cells == "subset" else -1)
    near = np.sum((np.maximum(reach, 0) * side) ** 2, axis=0) <= delta * delta

    k, l = _cells_of_union(d.A1, side), _cells_of_union(d.A2, side)
    in1 = union_covers(d.A1, k * side, (k + 1) * side)
    in2 = union_covers(d.A2, l * side, (l + 1) * side)
    # per axis, steps between the covered cells' indices cut to R + 1: offsets
    # in -R..R join the same cells, and far-apart boxes cost R + 1 slots
    both = np.vstack([k[in1], l[in2]])
    for j in range(d.dim_N):
        used, at = np.unique(both[:, j], return_inverse=True)
        both[:, j] = np.r_[0, np.cumsum(np.minimum(np.diff(used), R + 1))][at]
    sets = np.zeros((2, *(both.max(axis=0, initial=0) + 1)), dtype=bool)
    sets[(np.repeat([0, 1], [in1.sum(), in2.sum()]), *both.T)] = True
    counts = np.zeros(near.shape, dtype=np.int64)
    counts[near] = _correlate(*sets, o[:, near].T)
    if cells == "subset":
        return counts

    flat = counts.reshape(-1)

    def add(ks: np.ndarray, ls: np.ndarray) -> None:
        at = np.ravel_multi_index((ls - ks + R).T, counts.shape)
        flat[:] += np.bincount(at, minlength=flat.size)

    c1, c2 = ~in1, ~in2
    for ks, ls in _band_pairs(k[c1], d.A1, d.A2, side, side, delta):
        add(ks, ls)
    # the piece distance is symmetric at d1 == d2; every partner is a cell
    # of A1, and those not covered were counted above
    for ls, ks in _band_pairs(l[c2], d.A2, d.A1, side, side, delta):
        covered = union_covers(d.A1, ks * side, (ks + 1) * side)
        add(ks[covered], ls[covered])
    return counts


def riemann_cells(
    e: LocalExpansion, d: DomainPair, T_scale: float, C_delta: float, u: float
) -> tuple[float, float, float]:
    """Cell sides (d1, d2) and band radius delta of the Riemann check at u.

    Raises ValueError when a precondition of the check fails and
    CellBudgetError when its cell pairs would exceed _CELL_BUDGET; both are
    known from the domains alone, before any pair is tested.
    """
    N = d.dim_N
    if e.dim_N != N:
        raise ValueError("expansion dimension does not match the domains")
    if N not in (1, 2):
        raise ValueError("simulation-scale check supports N in {1, 2} only")
    if not (T_scale > 0 and C_delta > 0 and u > 1):
        raise ValueError("need T_scale > 0, C_delta > 0, u > 1")

    d1 = T_scale * u ** (-2.0 / e.alpha1)
    d2 = T_scale * u ** (-2.0 / e.alpha2)
    delta = C_delta * math.sqrt(math.log(u)) / u

    all_boxes = list(d.A1) + list(d.A2)
    diam = math.sqrt(
        sum(
            (max(b.hi[j] for b in all_boxes) - min(b.lo[j] for b in all_boxes)) ** 2
            for j in range(N)
        )
    )
    if not (delta < diam):
        raise ValueError(
            f"delta(u) = {delta:.4g} must stay below the domain diameter "
            f"{diam:.4g}; increase u or decrease C"
        )
    if not (max(d1, d2) < delta):
        raise ValueError(
            f"cell sides d_i(u) = ({d1:.4g}, {d2:.4g}) must stay below "
            f"delta(u) = {delta:.4g}; increase u or decrease T"
        )

    n_cells_estimate = sum(
        math.prod(len(_cell_range(b.lo[j], b.hi[j], d1)) for j in range(N))
        for b in d.A1
    )
    win = int(2.0 * (delta + d1 + d2) / d2) + 3
    budget = n_cells_estimate * win**N
    if budget > _CELL_BUDGET:
        raise CellBudgetError(
            f"about {budget:.2e} cell pairs exceed the budget {_CELL_BUDGET:.0e}; "
            "use a smaller u or a larger T_scale"
        )
    return d1, d2, delta


def riemann_sum_check(
    e: LocalExpansion,
    d: DomainPair,
    cross_r: Callable[[np.ndarray], np.ndarray],
    T_scale: float,
    C_delta: float,
    u: float,
    cells: str = "intersect",
) -> RiemannCheck:
    """Sum the double-sum kernel h(u) over cell pairs and compare with the
    closed-form limit at the domain pair's shared_part().

    cells = "intersect" uses pairs whose cell product meets the band D;
    cells = "subset" keeps those whose cell product lies inside D, each cell
    inside its union (at d1 != d2, a filter on the intersect pairs). Both
    converge to the same limit.
    """
    if cells not in ("intersect", "subset"):
        raise ValueError(f"unknown cell mode {cells!r}")
    d1, d2, delta = riemann_cells(e, d, T_scale, C_delta, u)
    M, mes = d.shared_part()

    one_over_1p_rho = 1.0 / (1.0 + e.rho)

    def kernel(tau: np.ndarray) -> np.ndarray:
        r_vals = np.asarray(cross_r(np.sqrt(np.sum(tau * tau, axis=1))), dtype=float)
        return np.exp(-u * u * (1.0 / (1.0 + r_vals) - one_over_1p_rho))

    if d1 == d2:
        # tau = (l - k) d1 depends on the offset alone: count the pairs per
        # offset and evaluate the kernel once per distinct offset
        counts = _offset_counts(d, d1, delta, cells)
        hit = np.nonzero(counts)
        offsets = np.column_stack(hit) - counts.shape[0] // 2
        h_sum = math.fsum(counts[hit] * kernel(offsets * d1))
        n_pairs = int(counts.sum())
    else:
        pairs = _band_pairs(_cells_of_union(d.A1, d1), d.A1, d.A2, d1, d2, delta)
        sizes: list[int] = []

        def kernel_values():
            for ks, ls in pairs:
                if cells == "subset":
                    # keep the pairs whose cell product lies inside the band,
                    # each cell inside its union
                    s_lo, s_hi, t_lo, t_hi = ks * d1, (ks + 1) * d1, ls * d2, (ls + 1) * d2
                    dist2 = sum(np.maximum(np.abs(t_hi[:, j] - s_lo[:, j]),
                                           np.abs(s_hi[:, j] - t_lo[:, j])) ** 2
                                for j in range(d.dim_N))
                    keep = (dist2 <= delta * delta) & union_covers(d.A1, s_lo, s_hi)
                    keep &= union_covers(d.A2, t_lo, t_hi)
                    ks, ls = ks[keep], ls[keep]
                sizes.append(len(ks))
                yield kernel(ls * d2 - ks * d1).tolist()

        h_sum = math.fsum(chain.from_iterable(kernel_values()))
        n_pairs = sum(sizes)

    log_k, power = _kernel_limit(e, M, mes)
    limit = math.exp(log_k + power * math.log(u)) * T_scale ** (-2.0 * d.dim_N)
    return RiemannCheck(
        u=u,
        h_sum=h_sum,
        limit_value=limit,
        ratio=h_sum / limit,
        n_pairs=n_pairs,
        regime="overlap" if M == d.dim_N else "split",
        cells=cells,
        delta=delta,
    )
