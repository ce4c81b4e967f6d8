"""Gaussian sampling machinery.

Domains are finite unions of axis-aligned rectangles; grids place nodes on
uniform per-axis lattices that include rectangle corners, so maxima on
boundaries stay representable. The joint covariance of (X1 at A1 nodes,
X2 at A2 nodes) is assembled densely and factorised by Cholesky with an
escalating-jitter policy that warns of any jitter it adds; failure past 1e-10
jitter is reported, since it usually witnesses an invalid cross-correlation.

Determinism contract: replicate r of a run is a function of (seed, r)
only. Replicates come in mirror pairs: noise column j gives replicate 2j,
the path L z_j, and replicate 2j + 1, its mirror -L z_j, which has the
same law (antithetic variates, Glasserman 2004, sec. 4.2). A run of count
replicates draws ceil(count / 2) columns and, for an odd count, drops the
last mirror. Columns are drawn in fixed blocks of _BLOCK; block b draws
its noise from Generator(SFC64([seed, b])) regardless of how many
replicates are requested or how many worker threads process blocks, so
any thread count reproduces identical streams. STREAM names that
generator and block width, and a sample record's tag hashes it.

sample_blocks hands each block to a fold on the worker that drew it:
fold(start, take, block, tiles) for replicates start .. start + take - 1,
block being the worker's noise buffer, reused for every block it draws,
and tiles the block's product L @ noise, one tile per row panel of _PANEL
rows across the block's _BLOCK columns (_tile_products). A fold may write
over each tile's own rows of the noise, the tile itself turning the noise
into the paths; what it returns is what the consumer receives, as
(start, result). Blocks run as a sliding window over the workers
(block_map), so at most one block per worker is alive.

The grid maxima are such a fold, _suprema: it takes sup X over row
segments for each path X and its mirror, folding each tile into running
per-column maxima and minima while it is in cache, and orders them by
replicate (_mirror_pairs). sample_suprema gathers it for montecarlo's grid
maxima, and segment_suprema folds whole paths, such as a dump's slab,
through the same _suprema, so fresh and stored paths give the same bits.
pickands folds its own window ratios the same way.

write_sample_dump is a fold as well: it writes the tiles back over the
noise, then the block's paths and their mirrors, one row per replicate, at
the block's own offset in the file. read_sample_dump yields the paths back
one slab read at a time; what the tag means, montecarlo decides (record_tag).

While a worker pool runs, numpy's OpenBLAS is held at one thread, so the
pool's workers own the cores; every panel product has an inner dimension
that OpenBLAS splits alike at one thread and at several, so the bytes of a
block do not depend on the BLAS thread count either.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import glob
import math
import os
import queue
import struct
import threading
import warnings
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import BivariateMaternModel, cross_corr
from .specfun import MaternParams, matern


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky failed after maximum jitter (validity-condition witness)."""


_BLOCK = 1024          # noise columns per block; part of the determinism contract
_PANEL = 256           # rows per panel of the block product L @ noise
_DUMP_PATHS = 128      # paths per write of the dump writer's row-pair buffer
_DUMP_NODES = 64       # nodes per copy of the writer's paths into its row pairs
_NODE_BUDGET = 8192    # largest node count of a dense covariance
_MAX_REPS = 2**32 - 1  # most replicates of a run: the dump header's u32 count
_JITTERS = (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10)

# the generator and block width of the stream: a record drawn by another
# stream holds other replicates under the same seed
STREAM = f"SFC64, {_BLOCK} columns per block"


# ---------------------------------------------------------------------------
# rectangle-union geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned box: prod_j [lo_j, hi_j]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimension")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"negative side length in {self.lo}..{self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)


def _atoms(unions: Sequence[Sequence[Rect]]) -> tuple[list[np.ndarray], np.ndarray]:
    """Cut the bounding box of the unions' boxes at every box face into
    atoms: (cuts, inside), cuts[j] the sorted faces on axis j, atom i being
    prod_j [cuts[j][i_j], cuts[j][i_j + 1]], and inside[u] the boolean array
    of the atoms of union u. An atom lies inside a box or meets it in a null
    set; faces are compared with <=, never through a midpoint."""
    cuts = [np.unique([f for A in unions for b in A for f in (b.lo[j], b.hi[j])])
            for j in range(unions[0][0].dim)]
    inside = np.zeros((len(unions), *[len(c) - 1 for c in cuts]), dtype=bool)
    for u, union in enumerate(unions):
        for b in union:
            inside[(u, *(slice(np.searchsorted(c, lo), np.searchsorted(c, hi))
                         for c, lo, hi in zip(cuts, b.lo, b.hi)))] = True
    return cuts, inside


def _volume(cuts: Sequence[np.ndarray], mask: np.ndarray) -> float:
    """Measure of the atoms set in mask: over the slabs of axis 0 on which
    the cross-section stays the same, the slab's width times the measure of
    its cross-section, so in 1-D each run of atoms is one span."""
    if mask.ndim == 0 or not mask.any():
        return float(mask.any())
    changes = np.any(mask[1:] != mask[:-1], axis=tuple(range(1, mask.ndim)))
    starts = np.flatnonzero(np.r_[True, changes])
    ends = np.r_[starts[1:], len(mask)]
    return sum(
        float(cuts[0][e] - cuts[0][s]) * _volume(cuts[1:], mask[s])
        for s, e in zip(starts.tolist(), ends.tolist())
    )


def union_covers(boxes: Sequence[Rect], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which rows [lo_i, hi_i] of the (n, N) arrays the union covers up to a
    null set (a row of zero width is covered): the rows whose interior meets
    no atom outside the union (_atoms, with an unbounded atom added on either
    side of each axis), counted over each row's atoms by prefix sums."""
    cuts, (inside,) = _atoms([boxes])
    N = len(cuts)
    count = np.pad(np.pad(~inside, 1, constant_values=True).astype(np.int64), (1, 0))
    for j in range(N):
        count = count.cumsum(axis=j)
    # on axis j, padded atoms ends[0, j] .. ends[1, j] - 1 meet the row's interior
    ends = np.stack([[np.searchsorted(c, x, "right") for c, x in zip(cuts, lo.T)],
                     [np.searchsorted(c, x, "left") + 1 for c, x in zip(cuts, hi.T)]])
    missed = sum((-1) ** (N - sum(up)) * count[tuple(ends[up, range(N)])]
                 for up in np.ndindex((2,) * N))
    return (missed == 0) | np.any(hi <= lo, axis=1)


@dataclass(frozen=True)
class DomainPair:
    """Domains A1, A2 as rectangle unions, with the split structure of the
    zero-measure-intersection case: the first split_M coordinates carry the
    overlapping parts, trailing coordinates are touching intervals
    [S_j, T_j] / [T_j, R_j]."""

    A1: tuple[Rect, ...]
    A2: tuple[Rect, ...]
    dim_N: int
    split_M: int | None = None

    def __post_init__(self):
        if not self.A1 or not self.A2:
            raise ValueError("A1 and A2 must be nonempty rectangle unions")
        for r in (*self.A1, *self.A2):
            if r.dim != self.dim_N:
                raise ValueError("rectangle dimension mismatch with dim_N")
        if self.split_M is not None:
            if not (0 <= self.split_M <= self.dim_N - 1):
                raise ValueError("split_M must lie in [0, N-1]")
            self._validate_split()

    def _validate_split(self):
        M = self.split_M
        for j in range(M, self.dim_N):
            s1 = {(r.lo[j], r.hi[j]) for r in self.A1}
            s2 = {(r.lo[j], r.hi[j]) for r in self.A2}
            if len(s1) != 1 or len(s2) != 1:
                raise ValueError(
                    f"split structure needs a single interval in axis {j}"
                )
            (S, T1) = next(iter(s1))
            (T2, R) = next(iter(s2))
            if not (S <= T1 == T2 <= R):
                raise ValueError(
                    f"axis {j}: need S <= T <= R with shared T, "
                    f"got [{S}, {T1}] / [{T2}, {R}]"
                )

    def mes(self, M: int) -> float:
        """M-dimensional measure of A1 and A2 projected on their first M
        coordinates and intersected: mes_N(A1 and A2) at M = N, the shared
        face at M = split_M, and 1 at M = 0 by convention."""
        if M == 0:
            return 1.0
        cuts, (in1, in2) = _atoms([[Rect(r.lo[:M], r.hi[:M]) for r in A]
                                   for A in (self.A1, self.A2)])
        return _volume(cuts, in1 & in2)

    def shared_part(self) -> tuple[int, float]:
        """(M, mes_M) of the tail asymptotic: (N, mes_N(A1 and A2)) when
        that measure is positive, else (split_M, the shared face)."""
        mes = self.mes(self.dim_N)
        if mes > 0.0:
            return self.dim_N, mes
        if self.split_M is None:
            raise ValueError(
                "A1 and A2 meet in a null set, and Theorem 2 needs domain.split_M"
            )
        mes = self.mes(self.split_M)
        if not mes > 0.0:
            raise ValueError("split regime needs mes_M(A1_M and A2_M) > 0")
        return self.split_M, mes


def _box_axes(box: Rect, points_per_axis: int) -> list[np.ndarray]:
    """The box's distinct node coordinates per axis: points_per_axis from
    lo to hi, one on an axis of zero width."""
    return [np.unique(np.linspace(lo, hi, points_per_axis))
            for lo, hi in zip(box.lo, box.hi)]


def _axis_count(lo: float, hi: float, points_per_axis: int) -> int:
    """A lower bound on the distinct coordinates _box_axes gives the axis
    [lo, hi], counted without building them: 1 on an axis of zero width;
    points_per_axis when the step exceeds two ulps of the ends, so that no
    two nodes round together; else 2, the ends."""
    if lo == hi or points_per_axis == 1:
        return 1
    if (hi - lo) / (points_per_axis - 1) > 2.0 * math.ulp(max(abs(lo), abs(hi))):
        return points_per_axis
    return 2


def _box_nodes(box: Rect, points_per_axis: int) -> np.ndarray:
    grids = np.meshgrid(*_box_axes(box, points_per_axis), indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _union_nodes(boxes: Sequence[Rect], points_per_axis: int) -> np.ndarray:
    nodes = np.vstack([_box_nodes(b, points_per_axis) for b in boxes])
    return np.unique(nodes, axis=0)  # dedupe shared corners; sorts rows


@dataclass(frozen=True)
class GridSpec:
    domain: DomainPair
    points_per_axis: int
    nodes1: np.ndarray = field(init=False, repr=False, compare=False)
    nodes2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.points_per_axis
        if not (type(p) is int and p >= 1):  # a bool is no count
            raise ValueError("points_per_axis must be a positive integer")
        # a union has at least the distinct nodes of its largest box: refuse
        # on that bound before any node array is built, then on the count
        _check_nodes(sum(
            max(math.prod(_axis_count(lo, hi, p) for lo, hi in zip(b.lo, b.hi))
                for b in boxes)
            for boxes in (self.domain.A1, self.domain.A2)))
        object.__setattr__(self, "nodes1", _union_nodes(self.domain.A1, p))
        object.__setattr__(self, "nodes2", _union_nodes(self.domain.A2, p))
        _check_nodes(self.n1 + self.n2)

    @property
    def n1(self) -> int:
        return self.nodes1.shape[0]

    @property
    def n2(self) -> int:
        return self.nodes2.shape[0]

    def node_steps(self) -> tuple[float, float]:
        """Largest node spacing along any axis of any box, per field
        (nan with one node per axis)."""
        gaps = self.points_per_axis - 1
        steps = (
            max(h - l for b in boxes for l, h in zip(b.lo, b.hi)) / gaps
            if gaps else float("nan")
            for boxes in (self.domain.A1, self.domain.A2)
        )
        return tuple(steps)


# ---------------------------------------------------------------------------
# covariance assembly and sampling
# ---------------------------------------------------------------------------

def _pairwise_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between the rows of a and b,
    summed one axis at a time, so no (len(a), len(b), dim) array is made."""
    out = np.zeros((len(a), len(b)))
    for j in range(a.shape[1]):
        d = np.subtract.outer(a[:, j], b[:, j])
        d *= d
        out += d
    return np.sqrt(out, out=out)


def _check_nodes(n: int) -> None:
    """Refuse a dense covariance over _NODE_BUDGET nodes before allocating
    it: it and its Cholesky factor take 16 n^2 bytes."""
    if n > _NODE_BUDGET:
        raise ValueError(
            f"{n} nodes exceed the node budget {_NODE_BUDGET}: the dense "
            f"covariance and its factor would need about {16e-9 * n * n:.1f} GB; "
            "use fewer points per axis or a coarser eta"
        )


def build_covariance(m: BivariateMaternModel, g: GridSpec) -> np.ndarray:
    """Joint covariance of (X1 at A1 nodes, X2 at A2 nodes).

    Exactly symmetric; unit diagonal for the standardized model.
    """
    n1 = g.n1
    s, t = g.nodes1, g.nodes2
    # each block is written into its place: no block is copied
    cov = np.empty((n1 + g.n2,) * 2)
    np.multiply(m.sigma1**2, matern(_pairwise_dist(s, s), MaternParams(m.nu1, m.a1)),
                out=cov[:n1, :n1])
    np.multiply(m.sigma2**2, matern(_pairwise_dist(t, t), MaternParams(m.nu2, m.a2)),
                out=cov[n1:, n1:])
    np.multiply(m.rho * m.sigma1 * m.sigma2,
                matern(_pairwise_dist(s, t), MaternParams(m.nu12, m.a12)),
                out=cov[:n1, n1:])
    cov[n1:, :n1] = cov[:n1, n1:].T
    return cov


def cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with jitter escalating 1e-14 .. 1e-10; a jitter
    it adds is named in a RuntimeWarning."""
    for eps in _JITTERS:
        try:
            c = cov if eps == 0.0 else cov + eps * np.eye(cov.shape[0])
            L = np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            continue
        if eps:
            warnings.warn(f"Cholesky factor took jitter {eps:g} on the diagonal",
                          RuntimeWarning)
        return L
    raise NotPositiveDefiniteError(
        "covariance is not positive semidefinite within jitter 1e-10; "
        "for a bivariate Matern model this usually means rho exceeds the "
        "validity bound"
    )


def _noise_block(seed: int, block: int, out: np.ndarray) -> np.ndarray:
    """Fill the (n, _BLOCK) array out with block's normals and return it."""
    return np.random.Generator(np.random.SFC64([seed, block])).standard_normal(out=out)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one (taskset, a cpuset), else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def block_map(
    n_blocks: int, fn: Callable[[int], object], pool: Executor | None, window: int
) -> Iterator:
    """Yield fn(b) for b = 0 .. n_blocks - 1 in block order, on the pool's
    threads when one is given, so reductions downstream are independent of
    the worker count.

    A sliding window: blocks 0 .. window - 1 start at once, and block
    b + window is submitted when the consumer comes back for the block after
    b, so no block waits for a slower neighbour before the next one starts,
    and at most window blocks are alive, the one the consumer holds among
    them. Blocks not yet started when the consumer stops are cancelled.
    """
    if pool is None:
        for b in range(n_blocks):
            yield fn(b)
        return
    pending = collections.deque(pool.submit(fn, b) for b in range(min(window, n_blocks)))
    try:
        for b in range(n_blocks):
            block = pending.popleft().result()
            yield block
            # let go of block b before block b + window is drawn
            del block
            if b + window < n_blocks:
                pending.append(pool.submit(fn, b + window))
    finally:
        for future in pending:
            future.cancel()


def _panels(n: int) -> list[tuple[int, int]]:
    """Row ranges [a, b) of the row panels of an n x n factor."""
    return [(a, min(a + _PANEL, n)) for a in range(0, n, _PANEL)]


def _tile_products(L: np.ndarray, noise: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (a, tile), tile being rows [a, a + len(tile)) of L @ noise for
    lower-triangular L: one row panel at a time from the bottom up,
    L[a:b, :b] @ noise[:b], through one reused tile buffer that the next
    tile overwrites. Panel [a, b) reads only rows below b of noise, so a
    consumer may write over each tile's own rows of noise.

    OpenBLAS splits an inner dimension K > 384 differently at one thread
    than at several, which moves the last bits, but K below 256 and K a
    multiple of 256 come out the same. A full panel's K is a multiple of
    256; a short last panel [a, n) is taken as K = n - a, then plus K = a.
    """
    n, cols = noise.shape
    tile = np.empty((min(n, _PANEL), cols))
    for a, b in reversed(_panels(n)):
        cut = a if b - a < _PANEL else 0
        rows = tile[: b - a]
        np.matmul(L[a:b, cut:b], noise[cut:b], out=rows)
        if cut:
            rows += L[a:b, :cut] @ noise[:cut]
        yield a, rows


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS numpy loaded from
    numpy.libs beside its package, or None where there is none.

    numpy's wheels export the scipy_openblas ...64_ names, a plain OpenBLAS
    the openblas_ ones. openblas_set_num_threads_local is not used: in these
    builds it sets the count of the whole process, not of the caller.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _OneBlasThread:
    """Context manager that holds OpenBLAS at one thread while a worker pool
    runs, so the pool's threads do not each start BLAS threads of their own
    on the same cores. The count belongs to the process, so overlapping
    pools share one count of live pools: the first saves the BLAS count and
    sets 1, the last restores it. Without an OpenBLAS it does nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pools = 0
        self._saved = 0

    def __enter__(self):
        blas = _openblas()
        if blas is not None:
            with self._lock:
                if self._pools == 0:
                    self._saved = blas[0]()
                    blas[1](1)
                self._pools += 1

    def __exit__(self, *exc_info):
        blas = _openblas()
        if blas is not None:
            with self._lock:
                self._pools -= 1
                if self._pools == 0:
                    blas[1](self._saved)


_one_blas_thread = _OneBlasThread()


def check_reps(reps: int) -> None:
    """Refuse a replicate count outside 1 .. _MAX_REPS, and a bool."""
    if isinstance(reps, bool):
        raise ValueError(f"reps must be an integer, got {reps!r}")
    if reps < 1:
        raise ValueError("reps must be positive")
    if reps > _MAX_REPS:
        raise ValueError(
            f"reps = {reps} exceeds the limit {_MAX_REPS} (2**32 - 1), the most "
            "replicates a sample dump's header can count"
        )


def _check_draw(L: np.ndarray, seed: int, count: int) -> None:
    """Raise unless check_reps passes count, seed is an integer >= 0 and L
    is square and lower triangular (the panel product skips entries right
    of a panel)."""
    check_reps(count)
    if not (isinstance(seed, int) and seed >= 0):
        raise ValueError("seed must be a nonnegative integer")
    n = L.shape[0]
    if L.ndim != 2 or L.shape[1] != n:
        raise ValueError(f"factor must be square, got shape {L.shape}")
    for a, b in _panels(n):
        if np.any(L[a:b, b:]) or np.any(np.triu(L[a:b, a:b], 1)):
            raise ValueError("factor must be lower triangular")


def _mirror_pairs(of_paths: np.ndarray, of_mirrors: np.ndarray, take: int) -> np.ndarray:
    """Values of replicates in replicate order along axis 0: row 2j from
    path j (of_paths[j]), row 2j + 1 from its mirror (of_mirrors[j]), the
    first take rows of them, so an odd take drops the last mirror."""
    out = np.empty((2 * len(of_paths), *of_paths.shape[1:]), of_paths.dtype)
    out[0::2] = of_paths
    out[1::2] = of_mirrors
    return out[:take]


def sample_blocks(
    L: np.ndarray, seed: int, count: int, threads: int, fold: Callable[..., object]
) -> Iterator[tuple[int, object]]:
    """Yield (start, fold(start, take, block, tiles)) for each block of the
    count replicates drawn as mirror pairs, in block order: the block holds
    replicates start .. start + take - 1 (2 _BLOCK, fewer in the last).

    fold runs on the worker that drew the block. block is the block's
    (n, _BLOCK) noise: column j < ceil(take / 2) gives replicate
    start + 2j, the path, and replicate start + 2j + 1, its negation. It is
    the worker's one noise buffer, which the worker's next block
    overwrites, so a fold returns nothing that views it. tiles yields
    (a, rows), rows holding rows a .. of L @ block through one reused tile
    buffer (_tile_products); a fold takes them in order and may write each
    over its own rows of block, which then holds the paths.

    L must be lower triangular: the product is taken one row panel at a
    time, L[a:b, :b] @ noise[:b], which skips the zero upper triangle.

    threads is capped at the CPUs the process may use (_cpus), since each
    worker holds a noise buffer and a tile. With more than one thread,
    OpenBLAS runs one thread until the generator finishes, is closed or
    raises.
    """
    _check_draw(L, seed, count)
    n = L.shape[0]
    n_blocks = -(-count // (2 * _BLOCK))
    threads = min(threads, _cpus())
    # noise buffers of finished blocks: a block takes one or makes one, so
    # there are no more buffers than blocks that run at once
    free = queue.SimpleQueue()

    def one(b: int) -> tuple[int, object]:
        start = 2 * b * _BLOCK
        take = min(2 * _BLOCK, count - start)
        try:
            noise = free.get_nowait()
        except queue.Empty:
            noise = np.empty((n, _BLOCK))
        # the noise is drawn and multiplied in full, so neither the stream
        # nor the last bits of a column follow count
        block = _noise_block(seed, b, noise)
        out = fold(start, take, block, _tile_products(L, block))
        free.put(noise)
        return start, out

    parallel = threads > 1
    # the pin is entered first, so the BLAS count comes back only after the
    # pool's workers have joined
    with (_one_blas_thread if parallel else nullcontext()), (
        ThreadPoolExecutor(max_workers=threads) if parallel else nullcontext()
    ) as pool:
        yield from block_map(n_blocks, one, pool, threads)


def _suprema(
    start: int, take: int, block: np.ndarray,
    tiles: Iterable[tuple[int, np.ndarray]], segments: Sequence[tuple[int, int]],
) -> np.ndarray:
    """A fold of sample_blocks: the (take, len(segments)) suprema over each
    row segment [s, e), for path X and for its mirror -X as -min X, of the
    paths X in the columns of block, in replicate order (_mirror_pairs).
    The tiles (a, rows), rows holding rows a .. of the paths, are only read,
    and are folded in any order into running per-column maxima and minima;
    of block only its width is read."""
    shape = (len(segments), block.shape[1])
    top, bottom = np.full(shape, -np.inf), np.full(shape, np.inf)
    for a, rows in tiles:
        b = a + len(rows)
        for k, (s, e) in enumerate(segments):
            s, e = max(s, a) - a, min(e, b) - a
            if s < e:
                np.maximum(top[k], rows[s:e].max(axis=0), out=top[k])
                np.minimum(bottom[k], rows[s:e].min(axis=0), out=bottom[k])
    return _mirror_pairs(top.T, np.negative(bottom, out=bottom).T, take)


def segment_suprema(
    paths: np.ndarray, segments: Sequence[tuple[int, int]], count: int
) -> np.ndarray:
    """The (count, len(segments)) suprema over each row segment [a, b) of
    the first count replicates of the (n, cols) paths, replicate 2j being
    column j and 2j + 1 its mirror (all 2 cols of them when count is
    larger): the whole paths folded as one tile of _suprema, as
    sample_blocks folds each tile of a block. paths is only read."""
    return _suprema(0, count, paths, [(0, paths)], segments)


def sample_suprema(
    L: np.ndarray, seed: int, count: int, threads: int,
    segments: Sequence[tuple[int, int]],
) -> np.ndarray:
    """(count, len(segments)) segment suprema of the count replicates of
    sample_blocks, in replicate order, each block folded by _suprema on the
    worker that sampled it."""
    out = np.empty((count, len(segments)))
    fold = functools.partial(_suprema, segments=segments)
    for start, sups in sample_blocks(L, seed, count, threads, fold):
        out[start : start + len(sups)] = sups
    return out


# ---------------------------------------------------------------------------
# binary dump: a 16-byte header (magic "BGRF", then little-endian u32 node
# count, u32 replicate count and u32 tag), then row-major float64
# little-endian, one replicate per row. The tag, montecarlo.record_tag,
# identifies what the rows were drawn from.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIII")
_MAGIC = b"BGRF"


def write_sample_dump(
    path: str, L: np.ndarray, seed: int, reps: int, tag: int, threads: int = 1
) -> None:
    """Sample reps replicates with sample_blocks and store them in a dump,
    one row per replicate: path j in row 2j, its negation in row 2j + 1.

    Each block is written by a fold on the worker that drew it, at the
    block's own offset in the file: the tiles go back over the noise, which
    becomes the paths, and the paths go out _DUMP_PATHS at a time through a
    buffer of their row pairs, so the writer holds no copy of a block. The
    header goes in last, so a run that stops part-way leaves a file whose
    magic a reader rejects.
    """
    _check_draw(L, seed, reps)  # before the file at path is truncated
    nodes = L.shape[0]
    lock = threading.Lock()  # workers share the file's position

    with open(path, "wb") as fh:
        def write(start: int, take: int, block: np.ndarray, tiles) -> None:
            for a, rows in tiles:
                block[a : a + len(rows)] = rows
            paths = block[:, : (take + 1) // 2]
            pairs = np.empty((2 * _DUMP_PATHS, nodes), dtype="<f8")
            for j in range(0, paths.shape[1], _DUMP_PATHS):
                part = paths[:, j : j + _DUMP_PATHS]
                width = 2 * part.shape[1]
                even = pairs[0:width:2]
                # a row of the block spans _BLOCK columns: the transposing
                # copy reads _DUMP_NODES rows at a time, so they stay in cache
                for i in range(0, nodes, _DUMP_NODES):
                    even[:, i : i + _DUMP_NODES] = part[i : i + _DUMP_NODES].T
                np.negative(even, out=pairs[1:width:2])
                with lock:
                    fh.seek(_HEADER.size + 8 * nodes * (start + 2 * j))
                    fh.write(pairs[: min(width, take - 2 * j)])

        for _ in sample_blocks(L, seed, reps, threads, write):
            pass
        fh.seek(0)
        fh.write(_HEADER.pack(_MAGIC, nodes, reps, tag))


def dump_header(path: str) -> tuple[int, int, int]:
    """(nodes, reps, tag) of a dump whose magic, counts and size check out."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("truncated dump header")
    magic, nodes, reps, tag = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if not (nodes and reps):
        raise ValueError(f"empty dump: {nodes} nodes, {reps} replicates")
    if os.path.getsize(path) != _HEADER.size + 8 * nodes * reps:
        raise ValueError("dump payload size mismatch")
    return nodes, reps, tag


def read_sample_dump(path: str) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, paths) for each slab of at most _BLOCK replicates of
    the dump: start is the slab's first replicate, and paths the
    (nodes, ceil(take / 2)) array of its path rows 2j.

    Each slab is a fresh read-only array, never reused, so paths a caller
    keeps stay as read. The reader drops its own reference before the next
    read; a caller that drops its paths as well holds one slab at a time.
    """
    nodes, reps, _ = dump_header(path)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for start in range(0, reps, _BLOCK):
            take = min(_BLOCK, reps - start)
            rows = np.frombuffer(fh.read(8 * take * nodes), dtype="<f8")
            yield start, rows.reshape(take, nodes)[0::2].T
            del rows
