"""Norm functionals: Bourgain-Morrey norms, the four Triebel-Lizorkin style norms,
maximal operators, and the Peetre / Lusin / g-lambda-star / approximation variants.

Outer norms aggregate |Q|^(1/t - 1/p) ||. chi_Q||_Lp over every cube of the level
window in l^r (sup at r = infinity).  Every level-summed norm feeds one
weighted magnitude per level into a single accumulator, _LevelSum (driven by
_level_sum), which keeps the pointwise l^q sum over levels and only the
finest-level cube sums of each level's magnitude^p; at the end every coarser
cube level comes from 2^n-to-1 sums of those, batched over the band levels, so
the per-level Bourgain-Morrey norms take one aggregation (_bm_norms, of which
bm_array_norm, used for the value, is the batch of one).

Band outputs come from lpa.band_outputs, so the cube <-> band pairing is the
bank's.  tl_norms takes one band pass for several weightings: each level's
band feeds every weighting's level sum in lockstep (and, in
harness.four_norms, the phi-transform coefficients), and is then dropped, so
no list of complex bands is kept.  Weighted magnitudes |M(x) v(x)| are taken
component-wise by _matvec_norm.  Balls for the maximal operator are
sup-metric windows with grid-multiple radii, wrapped on the torus.

The Peetre, Lusin and g-lambda-star norms share one kernel, _pair_reduce, over
|W^(1/p)(x) band(y)| at every pair (x, y) of sample points, in 1D and 2D alike.
Their penalties depend on the euclidean torus distance of x - y only, so each
norm tabulates its kernel once per level on the offsets ((1 + 2^j d)^(-2a),
the indicator of the closed ball B(0, 2^-j), (1 + 2^j d)^(-lambda n q)) and
the pair kernel reads it at (x - y) mod N.  The norms differ only in that
table and in the reduction over y (max or sum).  They are exact on the grid:
no pair is truncated or sampled, and the pairs the kernel skips, outside the
Lusin ball's support window, have kernel value 0.  (The q = 2 g-lambda-star
sum is the same exact sum, taken as a cyclic convolution with the table.)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter1d, uniform_filter1d

from .coeffseq import CoeffSequence
from .dyadic import (CubeRange, cube_means, cube_sums, level_block_view, parent_sums,
                     spread_to_grid)
from .fields import SampledField, SpectralField, to_spectral
from .grid import TorusGrid
from .lpa import InhomPartition, band_outputs
from .weights import MatrixWeight, ReducingFamily


@dataclass(frozen=True)
class SpaceParams:
    s: float
    p: float
    q: float
    t: float
    r: float
    homogeneous: bool = True

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        check_nontrivial(self.p, self.t, self.r)

    @staticmethod
    def from_dict(params: dict, homogeneous: bool) -> "SpaceParams":
        """From JSON-style params: s, p, q, t, r as float_params reads them and
        optional homogeneous (default: the given value).  Other keys are ignored."""
        return SpaceParams(*float_params(params, "spqtr"),
                           bool(params.get("homogeneous", homogeneous)))


def float_params(params: dict, keys: str) -> list:
    """The one-letter keys of JSON-style params as floats (numbers or numeric
    strings such as "inf"); r defaults to infinity."""
    try:
        return [float(params.get(key, "inf") if key == "r" else params[key]) for key in keys]
    except TypeError as exc:
        raise ValueError(f"space parameters {', '.join(keys)} must be numbers: {exc}") from exc


def check_nontrivial(p: float, t: float, r: float):
    """Admissible exponents: 0 < p < t < r < inf, or 0 < p <= t < r = inf."""
    if np.isinf(r):
        ok = 0 < p <= t
    else:
        ok = 0 < p < t < r
    if not ok:
        raise ValueError(f"(p, t, r) = ({p}, {t}, {r}) gives a trivial space")


@dataclass
class NormReport:
    value: float
    per_level: dict = field(default_factory=dict)
    truncation: float = None

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ValueError(f"norm value must be nonnegative, got {self.value}")


def _matvec_norm(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|M v| over the last axis, M (..., m, m) broadcast against v (..., m).

    u_a = sum_b M_ab v_b is summed over the m^2 entries and |u|^2 taken as
    sum_a u_a.real^2 + u_a.imag^2.  The Gram form v^H (M^H M) v would cancel
    when M is ill-conditioned: against einsum + np.linalg.norm, at N = 4096 with
    M = (rotated diag(|x|^4, 1))^(2/3), it was off by 7.6e-14 relative, this
    form by 2.2e-16.
    """
    m = v.shape[-1]
    sq = 0.0
    for a in range(m):
        u = M[..., a, 0] * v[..., 0]
        for b in range(1, m):
            u = u + M[..., a, b] * v[..., b]
        sq = sq + (u.real ** 2 + u.imag ** 2 if np.iscomplexobj(u) else u * u)
    return np.sqrt(sq)


class PointwiseWeighting:
    """Apply W^(1/p)(x) at every sample."""

    def __init__(self, W: MatrixWeight, p: float):
        self.W = W
        self.p = p
        self._root = None

    @property
    def channels(self) -> int:
        return self.W.channels

    def magnitude(self, j: int, vectors: np.ndarray) -> np.ndarray:
        if self._root is None:
            self._root = self.W.power(1.0 / self.p)
        return _matvec_norm(self._root, vectors)


class CubewiseWeighting:
    """Apply the cube-constant reducing matrix A_Q on each level-j cube."""

    def __init__(self, family: ReducingFamily):
        self.family = family

    @property
    def channels(self) -> int:
        return next(iter(self.family.arrays.values())).shape[-1]

    def magnitude(self, j: int, vectors: np.ndarray) -> np.ndarray:
        grid = self.family.grid
        # A_Q broadcast over the samples of its cube: (c, 1) per axis against (c, w)
        A = self.family.level_array(j)[(slice(None), None) * grid.dim]
        return _matvec_norm(A, level_block_view(grid, vectors, j)).reshape(grid.shape)


def _check_weighting(w, f_channels: int):
    if w.channels != f_channels:
        raise ValueError(f"weighting has {w.channels} channels, field has {f_channels}")


def _nonneg_scalar(g: SampledField) -> np.ndarray:
    vals = g.scalar()
    if np.iscomplexobj(vals):
        if np.max(np.abs(vals.imag)) > 1e-12 * max(np.max(np.abs(vals.real)), 1.0):
            raise ValueError("expected a real, nonnegative field")
        vals = vals.real
    if np.min(vals) < -1e-12:
        raise ValueError("expected a nonnegative field")
    return np.maximum(vals, 0.0)


def _bm_norms(grid: TorusGrid, fine: np.ndarray, p: float, t: float, r: float,
              levels) -> np.ndarray:
    """Bourgain-Morrey norms of a batch of nonnegative grid arrays g over the cube
    levels, from fine, the per-cube sums of g^p at the finest level max(levels)
    (cube axes leading, the batch axis last).  Each coarser level's cube sums are
    the 2^n-to-1 sums of the next finer level's, for the whole batch at once."""
    n, cell = grid.dim, grid.cell_measure
    axes = tuple(range(n))
    hi, lo = max(levels), min(levels)
    out = 0.0
    sums = fine
    for j in range(hi, lo - 1, -1):
        if j < hi:
            sums = parent_sums(sums, n)
        if j not in levels:
            continue
        scale = 2.0 ** (-j * n * (1.0 / t - 1.0 / p))
        if np.isinf(r):
            out = np.maximum(out, scale * np.max(sums * cell, axis=axes) ** (1.0 / p))
        else:
            out = out + np.sum((scale * (sums * cell) ** (1.0 / p)) ** r, axis=axes)
    return out if np.isinf(r) else out ** (1.0 / r)


def bm_array_norm(grid: TorusGrid, vals: np.ndarray, p: float, t: float, r: float,
                  levels) -> float:
    """Bourgain-Morrey aggregation of a nonnegative grid array over cube levels
    (_bm_norms for a batch of one)."""
    fine = cube_sums(grid, (vals ** p)[..., None], max(levels))
    return float(_bm_norms(grid, fine, p, t, r, levels)[0])


class _LevelSum:
    """The skeleton of every level-summed norm, fed one level at a time.

    add(j, mag) takes the weighted level-j magnitude; it updates the pointwise
    l^q sum over levels and keeps only the level-max(cube levels) cube sums of
    mag^p, so several level sums can be fed in lockstep from one band pass
    without keeping any band.  report() gives the BM norm of the l^q sum as the
    value and each level's own BM norm as per_level, the latter from one batch
    of _bm_norms over all levels.
    """

    def __init__(self, grid: TorusGrid, p: float, t: float, r: float, q: float,
                 cube_range: CubeRange):
        self.grid, self.p, self.t, self.r, self.q = grid, p, t, r, q
        self.levels = cube_range.cube_levels()
        self.acc = np.zeros(grid.shape)   # sum_j mag_j^q, or max_j mag_j at q = infinity
        self.fine = {}                    # level -> finest cube sums of mag_j^p

    def add(self, j: int, mag: np.ndarray):
        powed = mag ** self.p
        if np.isinf(self.q):
            np.maximum(self.acc, mag, out=self.acc)
        else:
            self.acc += powed if self.q == self.p else mag ** self.q
        self.fine[j] = cube_sums(self.grid, powed, max(self.levels))

    def report(self) -> NormReport:
        total = self.acc if np.isinf(self.q) else self.acc ** (1.0 / self.q)
        rep = NormReport(bm_array_norm(self.grid, total, self.p, self.t, self.r, self.levels))
        if self.fine:
            norms = _bm_norms(self.grid, np.stack(list(self.fine.values()), axis=-1),
                              self.p, self.t, self.r, self.levels)
            rep.per_level = dict(zip(self.fine, map(float, norms)))
        return rep


def _level_sum(grid: TorusGrid, magnitudes, p: float, t: float, r: float, q: float,
               cube_range: CubeRange) -> NormReport:
    """A _LevelSum fed by magnitudes, which yields (j, weighted level-j magnitude)
    one level at a time: the value is the BM norm of their pointwise l^q sum,
    and per_level holds each level's own BM norm."""
    acc = _LevelSum(grid, p, t, r, q, cube_range)
    for j, mag in magnitudes:
        acc.add(j, mag)
    return acc.report()


def truncation_ratio(value: float, grid: TorusGrid, cube_range: CubeRange, norm_on):
    """norm_on(widened range) / value, or None when the range cannot widen."""
    wide = cube_range.widened(grid)
    if wide == cube_range:
        return None
    return norm_on(wide).value / value if value > 0 else 1.0


def bm_norm(g: SampledField, p: float, t: float, r: float, cube_range: CubeRange) -> float:
    """|| { |Q|^(1/t-1/p) ||g chi_Q||_Lp } ||_lr over the cubes of the range."""
    check_nontrivial(p, t, r)
    cube_range.validate(g.grid, margin=0)
    return bm_array_norm(g.grid, _nonneg_scalar(g), p, t, r, cube_range.cube_levels())


def bm_seq_norm(gs, p: float, t: float, r: float, q: float, cube_range: CubeRange) -> float:
    """bm_norm of the pointwise l^q aggregation of a list of nonnegative fields."""
    gs = list(gs)
    if not gs:
        return 0.0
    check_nontrivial(p, t, r)
    mags = enumerate(map(_nonneg_scalar, gs))
    return _level_sum(gs[0].grid, mags, p, t, r, q, cube_range).value


def hl_maximal(g: SampledField, eta: float = 1.0) -> SampledField:
    """Uncentered Hardy-Littlewood maximal function, powered by eta.

    Balls are sup-metric windows of radius k*h, k = 0..N/2, wrapped on the
    torus; uncentered sup over balls containing x equals a running max-filter
    of the ball averages.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    grid = g.grid
    arr = _nonneg_scalar(g) ** eta
    best = arr.copy()
    N = grid.points_per_axis
    for k in range(1, N // 2 + 1):
        size = 2 * k + 1
        avg = arr
        for ax in range(grid.dim):
            avg = uniform_filter1d(avg, size=size, axis=ax, mode="wrap")
        cand = avg
        for ax in range(grid.dim):
            cand = maximum_filter1d(cand, size=size, axis=ax, mode="wrap")
        np.maximum(best, cand, out=best)
    return SampledField(grid, (best ** (1.0 / eta))[..., None])


def averaging(g: SampledField, j: int) -> SampledField:
    """E_j: replace g on each level-j cube by its mean."""
    grid = g.grid
    means = cube_means(grid, g.scalar(), j)
    return SampledField(grid, spread_to_grid(grid, means, j)[..., None])


def _prologue(f: SampledField, ws, sp: SpaceParams, bank, cube_range: CubeRange) -> SpectralField:
    """Checks shared by the function-side norms on the weightings ws; returns the
    spectrum of f."""
    for w in ws:
        _check_weighting(w, f.channels)
    if getattr(bank, "homogeneous", None) != sp.homogeneous:
        if sp.homogeneous:
            raise ValueError("homogeneous norms need an AdmissiblePair")
        raise ValueError("inhomogeneous norms need an InhomPartition")
    cube_range.validate(f.grid)
    return to_spectral(f)


def tl_norms(f: SampledField, ws, sp: SpaceParams, bank, cube_range: CubeRange,
             on_band=None) -> list:
    """tl_norm of f for each weighting in ws, from one band pass.

    Each level's band output feeds every weighting's level sum in lockstep and
    is then handed to on_band(j, band) when given (harness.four_norms takes the
    phi-transform coefficients there); no band outlives its level.
    """
    F = _prologue(f, ws, sp, bank, cube_range)
    sums = [_LevelSum(f.grid, sp.p, sp.t, sp.r, sp.q, cube_range) for _ in ws]
    for j, band in band_outputs(F, bank, cube_range.band_levels()):
        for w, acc in zip(ws, sums):
            acc.add(j, 2.0 ** (j * sp.s) * w.magnitude(j, band))
        if on_band is not None:
            on_band(j, band)
    return [acc.report() for acc in sums]


def tl_norm(f: SampledField, w, sp: SpaceParams, bank, cube_range: CubeRange,
            truncation_check: bool = False) -> NormReport:
    """The function-side norm: l^q over levels of weighted band outputs, then bm_norm.

    Pointwise weighting gives the W-version; Cubewise gives the A_Q-version
    (matrix locked per cube of the band's level).
    """
    rep, = tl_norms(f, (w,), sp, bank, cube_range)
    if truncation_check:
        rep.truncation = truncation_ratio(rep.value, f.grid, cube_range,
                                          lambda wide: tl_norm(f, w, sp, bank, wide))
    return rep


def seq_norm(coeffs: CoeffSequence, w, sp: SpaceParams, cube_range: CubeRange,
             masks: dict = None, truncation_check: bool = False) -> NormReport:
    """The sequence-side norm of cube coefficients.

    masks, when given, replaces chi_Q by chi_{E_Q}: a dict cube -> boolean block
    (cube-shaped) marking the retained samples.
    """
    _check_weighting(w, coeffs.channels)
    cube_range.validate(coeffs.grid)
    grid = coeffs.grid
    levels = cube_range.band_levels()
    bad = [j for j in coeffs.levels() if j not in levels]
    if bad:
        raise ValueError(f"coefficient levels {bad} outside the range window")

    def magnitudes():
        for j in levels:
            dense = coeffs.level_array(j)
            if isinstance(w, CubewiseWeighting):
                per_cube = _matvec_norm(w.family.level_array(j), dense)
                mag = spread_to_grid(grid, per_cube, j)
            else:
                mag = w.magnitude(j, spread_to_grid(grid, dense, j))
            if masks:
                keep = np.ones(grid.shape, dtype=bool)
                for cube, mk in masks.items():
                    if cube.level == j:
                        keep[cube.grid_slices(grid)] = mk
                mag = mag * keep
            yield j, 2.0 ** (j * (sp.s + grid.dim / 2.0)) * mag

    rep = _level_sum(grid, magnitudes(), sp.p, sp.t, sp.r, sp.q, cube_range)
    if truncation_check:
        rep.truncation = truncation_ratio(rep.value, grid, cube_range,
                                          lambda wide: seq_norm(coeffs, w, sp, wide, masks))
    return rep


# ---------------------------------------------------------------------------
# characterization norms (Pointwise weighting only)


# (x, y) pairs per block of _pair_reduce: 128 KiB per float array.  On a 2-vCPU
# x86 host the three norms together (medians of 12 alternating runs, 1D N = 2048,
# levels [-2, 7]) took 0.96 s at 2^14, 0.93 s at 2^15 and 0.90 s at 2^16, but
# neither larger size was faster in every run (10 of 12 each), so 2^14 stays;
# at 2D 64^2, levels [-2, 2] (4 runs), they took 2.78, 2.47 and 2.40 s.
_PAIR_BLOCK_ENTRIES = 1 << 14


def _offset_dist(grid: TorusGrid) -> np.ndarray:
    """The torus distance of every offset x - y, indexed by (x - y) mod N per axis."""
    coords = np.stack(grid.coords(), axis=-1).reshape(-1, grid.dim)
    return grid.torus_dist(coords, np.zeros(grid.dim)).reshape(grid.shape)


def _circulant_view(kern: np.ndarray) -> np.ndarray:
    """K[x, c] = kern[(x - c) mod N] per axis, for x on the grid and c on the grid
    with its first axis doubled to [0, 2N): a zero-copy view of the tiled table."""
    N, n = kern.shape[0], kern.ndim
    tiled = np.tile(kern, (3,) + (2,) * (n - 1))[(slice(1, None),) * n]
    view = sliding_window_view(tiled, (2 * N,) + (N,) * (n - 1))
    return view[(Ellipsis,) + (slice(None, None, -1),) * n]


def _support(kern: np.ndarray) -> tuple:
    """(start, length) of the shortest cyclic run of first-axis offsets that holds
    every nonzero entry of kern."""
    N = kern.shape[0]
    hits = np.flatnonzero(kern.reshape(N, -1).any(axis=1))
    gaps = np.diff(hits, append=hits[0] + N)
    k = int(np.argmax(gaps))
    return int(hits[(k + 1) % len(hits)]), N + 1 - int(gaps[k])


def _pair_reduce(w: PointwiseWeighting, band: np.ndarray, kern: np.ndarray,
                 power: float, op) -> np.ndarray:
    """The kernel of the Peetre, Lusin and g-lambda-star norms, exact over all
    pairs (x, y) of sample points, taken in blocks of rows x.

    Returns op.reduce over y of sq^power * K, where sq[x, y] =
    |W^(1/p)(x) band(y)|^2 in the Gram form W^(2/p)(x) . Re(v vbar)(y), clipped
    at 0 against rounding, and K[x, y] = kern[(x - y) mod N] (per axis) reads
    the norm's kernel from its offset table (a circulant view, no per-pair
    distance).  op is np.maximum or np.add.  Each block of rows reads only the
    columns y whose first coordinate lies in the support of kern, widened by
    the block: pairs outside it have K = 0, so they cannot change the value.
    """
    grid = w.W.grid
    n, N, m = grid.dim, grid.points_per_axis, w.channels
    P = w.W.power(2.0 / w.p).reshape(-1, m * m)
    v = band.reshape(-1, m)
    G = np.einsum("ya,yb->yab", v, np.conj(v)).real.reshape(-1, m * m)
    G = np.concatenate([G, G])          # first axis doubled, like the columns of K
    K = _circulant_view(kern)
    start, length = _support(kern)
    line = grid.npoints // N            # samples per first-axis index
    step = max(1, _PAIR_BLOCK_ENTRIES // grid.npoints)
    counts = [min(N, max(1, step // N ** (n - 1 - ax))) for ax in range(n)]
    cols = tuple(range(-n, 0))
    out = np.empty(grid.npoints)
    for lo in range(0, grid.npoints, step):
        first = np.unravel_index(lo, grid.shape)
        rows = tuple(slice(i, i + c) for i, c in zip(first, counts))
        c0, width = (first[0] - start - length + 1) % N, counts[0] + length - 1
        if width >= N:
            c0, width = 0, N
        sq = np.maximum(P[lo:lo + step] @ G[c0 * line:(c0 + width) * line].T, 0.0)
        Kb = K[rows + (slice(c0, c0 + width),)]
        sq = sq.reshape(Kb.shape)
        if power != 1.0:
            np.power(sq, power, out=sq)
        np.multiply(sq, Kb, out=sq)
        out[lo:lo + step] = op.reduce(sq, axis=cols).ravel()
    return out.reshape(grid.shape)


def peetre_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams, a: float,
                bank, cube_range: CubeRange) -> NormReport:
    """Translation-penalized maximal variant: per level, sup over all y of
    |W^(1/p)(x) band(y)| / (1 + 2^j |x-y|)^a, then the usual aggregation."""
    if a <= 0:
        raise ValueError("a must be positive")
    F = _prologue(f, (w,), sp, bank, cube_range)
    dist = _offset_dist(f.grid)

    def sups():
        for j, band in band_outputs(F, bank, cube_range.band_levels()):
            # the max of |.|^2 / (1 + 2^j d)^(2a), one square root per x
            kern = (1.0 + 2.0 ** j * dist) ** (-2.0 * a)
            yield j, 2.0 ** (j * sp.s) * np.sqrt(_pair_reduce(w, band, kern, 1.0, np.maximum))

    return _level_sum(f.grid, sups(), sp.p, sp.t, sp.r, sp.q, cube_range)


def lusin_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams, bank,
               cube_range: CubeRange) -> NormReport:
    """Ball-average variant: 2^(jn) mean over B(x, 2^-j) of the q-th power with
    the weight frozen at the center."""
    if np.isinf(sp.q):
        raise ValueError("lusin norm needs q < infinity")
    F = _prologue(f, (w,), sp, bank, cube_range)
    grid = f.grid
    dist = _offset_dist(grid)
    # levels whose ball radius 2^-j is below the grid spacing are skipped
    levels = [j for j in cube_range.band_levels() if 2.0 ** (-j) >= grid.spacing]

    def areas():
        for j, band in band_outputs(F, bank, levels):
            # indicator of the closed ball; 1e-9 of a grid spacing absorbs rounding in d
            ball = (dist <= 2.0 ** (-j) + 1e-9 * grid.spacing).astype(float)
            total = _pair_reduce(w, band, ball, sp.q / 2.0, np.add)
            u = 2.0 ** (j * grid.dim) * grid.cell_measure * total
            yield j, (2.0 ** (j * sp.s * sp.q) * u) ** (1.0 / sp.q)

    return _level_sum(grid, areas(), sp.p, sp.t, sp.r, sp.q, cube_range)


def glambda_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams, lam: float,
                 bank, cube_range: CubeRange, delta_cap: float = 0.0) -> NormReport:
    """Full-torus polynomially weighted variant of the Lusin norm."""
    if np.isinf(sp.q):
        raise ValueError("g-lambda-star norm needs q < infinity")
    if lam <= 1.0 / min(1.0, sp.p, sp.q) + delta_cap / f.grid.dim:
        warnings.warn("lambda below the boundedness threshold; value still computed",
                      stacklevel=2)
    F = _prologue(f, (w,), sp, bank, cube_range)
    grid = f.grid
    n = grid.dim
    dist = _offset_dist(grid)

    def areas():
        for j, v in band_outputs(F, bank, cube_range.band_levels()):
            kern = (1.0 + 2.0 ** j * dist) ** (-lam * n * sp.q)
            if sp.q == 2.0:
                # the sum is a cyclic convolution with the offset table
                Kf = np.fft.fftn(kern * grid.cell_measure)
                P = w.W.power(2.0 / w.p)
                G = np.einsum("...a,...b->...ab", v, np.conj(v)).real
                axes = tuple(range(n))
                conv = np.fft.ifftn(np.fft.fftn(G, axes=axes) * Kf[..., None, None],
                                    axes=axes).real
                u = 2.0 ** (j * n) * np.maximum(np.einsum("...ab,...ab->...", P, conv), 0.0)
            else:
                total = _pair_reduce(w, v, kern, sp.q / 2.0, np.add)
                u = 2.0 ** (j * n) * grid.cell_measure * total
            yield j, (2.0 ** (j * sp.s * sp.q) * u) ** (1.0 / sp.q)

    return _level_sum(grid, areas(), sp.p, sp.t, sp.r, sp.q, cube_range)


def approx_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams,
                bank: InhomPartition, cube_range: CubeRange,
                threshold_delta: float = 0.0) -> NormReport:
    """Approximation variant with the canonical cumulative low-pass sequence.

    Returns ||W^(1/p) u_0||_bm + ||(sum_k 2^(ksq) |W^(1/p)(f - u_k)|^q)^(1/q)||_bm,
    an upper bound for the infimum over admissible approximating sequences.
    """
    if sp.homogeneous:
        raise ValueError("approximation norm is defined on inhomogeneous spaces")
    thresh = f.grid.dim / min(1.0, sp.q, sp.p) + threshold_delta
    if sp.s <= thresh:
        warnings.warn(f"s = {sp.s} below the approximation threshold {thresh}",
                      stacklevel=2)
    F = _prologue(f, (w,), sp, bank, cube_range)
    grid = f.grid
    term1 = []   # ||W^(1/p) u_0||_bm, filled at the first level

    def tails():
        u = np.zeros_like(f.values, dtype=complex)
        for k, band in band_outputs(F, bank, cube_range.band_levels()):
            u = u + band
            if not term1:
                term1.append(bm_array_norm(grid, w.magnitude(k, u), sp.p, sp.t, sp.r,
                                           cube_range.cube_levels()))
            yield k, 2.0 ** (k * sp.s) * w.magnitude(k, f.values - u)

    tail = _level_sum(grid, tails(), sp.p, sp.t, sp.r, sp.q, cube_range)
    return NormReport(sum(term1) + tail.value, tail.per_level)
