"""Norm functionals: Bourgain-Morrey norms, the four Triebel-Lizorkin style norms,
maximal operators, and the Peetre / Lusin / g-lambda-star / approximation variants.

Outer norms aggregate |Q|^(1/t - 1/p) ||. chi_Q||_Lp over every cube of the level
window in l^r (sup at r = infinity).  Every level-summed norm feeds one
weighted magnitude per level into a single accumulator, _LevelSum, which
keeps the pointwise l^q sum over levels and only the finest-level cube sums of
each level's magnitude^p.  The value is the BM norm of the l^q sum
(bm_array_norm), and the sum is freed once it is known.  The per-level
Bourgain-Morrey norms are computed only when per_level is first read: every
coarser cube level then comes from 2^n-to-1 sums of the finest ones, batched
over the band levels, in one aggregation (_bm_norms, of which bm_array_norm is
the batch of one).

Band outputs come from lpa.band_outputs, so the cube <-> band pairing is the
bank's.  Every function-side norm (tl, Peetre, Lusin, g-lambda-star,
approximation) is one _band_pass: the range's inhomogeneous flag decides the
space and the bank must match it; each level's band feeds every weighting's
level sum in lockstep through the norm's level-j magnitude (and, in
harness.four_norms_batch, the phi-transform coefficients), and is then
dropped, so no list of bands is kept.  So one pass serves every weight of a
sweep: `bmtl equiv` runs one band pass per function for all its weights.  A
real field takes the half spectrum, so its bands are real arrays, with no
imaginary rounding noise (lpa.band_outputs).
Weighted magnitudes |M(x) v(x)| are taken component-wise by _matvec_norm.
Balls for the maximal operator are sup-metric windows with grid-multiple radii,
wrapped on the torus.

The Peetre norm reduces |W^(1/p)(x) band(y)| over the pairs (x, y) of sample
points with one kernel, _pair_reduce, in 1D and 2D alike.  Its penalty, like the
Lusin ball and the g-lambda-star tail, depends on the euclidean torus distance
of x - y only, so each norm tabulates its kernel once per level on the offsets
((1 + 2^j d)^(-2a), the indicator of the closed ball B(0, 2^-j),
(1 + 2^j d)^(-lambda n q), d = grid.radius()) and reads it at (x - y) mod N.
_pair_reduce is exact on the grid: no pair is sampled, and the pairs it skips,
outside the support window of the table, have kernel value 0.  Peetre's max,
_pair_max, runs it over growing windows of the table (the offsets with
kern >= t, t falling by _WINDOW_STEP per pass, the first axis narrowed in 2D).
Row x is final once tr W^(2/p)(x) max_y |band(y)|^2 times the largest kern
outside the window, a bound on every pair outside it, is at most the window's
max at x.  A max does not round and a window's pairs are the full table's own
numbers (every block takes the same GEMM arithmetic, _GEMM_COLUMNS), so the
result is the full reduction bit for bit; rows never certified take the whole
table in the last pass.

The Lusin and g-lambda-star norms, one routine _area_norm given the level-j
kernel, sum |W^(1/p)(x) v(y)|^q K(x - y) over y, and _pair_sums takes that sum
as a short series of cyclic convolutions, one FFT pair per term.  With
P = W^(2/p) = (T/2)(I + rho R(phi)) (T = tr P, R(phi) the reflection by angle
phi) and the band's Gram entries G = Re(v vbar^T), R = G00 + G11 and
Z = G00 - G11 + 2i G01, the pair term is (T/2)^s (R + rho Re(e^(i phi) Zbar))^s,
s = q/2.  When |Z| = R (a real band, where Z = (v0 + i v1)^2) it equals
(T/2)^s R^s (1 + rho cos psi)^s, psi = phi - arg Z, and expanding
(1 + rho cos psi)^s = sum_n c_n(rho) e^(in psi) makes the level sum
(T/2)^s sum_n c_n(rho(x)) e^(in phi(x)) [K (*) R^s (Zbar/R)^n](x).
The series is exact for m = 1 (one term), for q = 2 (terms 0 and 1, linear in
G, so complex bands too) and for real bands; every other band, and m >= 3,
takes _pair_reduce.  The truncation is bounded as follows.  With
r = rho/(1 + sqrt(1 - rho^2)), 1 + rho cos psi = |1 + r e^(i psi)|^2/(1 + r^2), so
c_n = (1 + r^2)^(-s) sum_k b_k b_(k+n) r^(2k+n), b_k = binom(s, k), and
|c_n| <= B^2 r^|n| / (1 - r^2) with B = max_k |b_k| (reached at k <= ceil(s)).
The terms beyond n_max add up to at most tau(n_max) =
2 B^2 r^(n_max+1) / ((1 - r)(1 - r^2)); the c_n come from a DFT over L >= 4(n_max + 1)
angles, which adds to each kept coefficient those L apart, at most
tau(L - n_max - 1) each.  So for every x the truncated sum is off by at most
eps (T/2)^s [K (*) R^s](x), eps = tau(n_max) + (2 n_max + 1) tau(L - n_max - 1),
r taken at the weight's largest rho (tau grows with r); since the exact sum is
at least (1 - rho)^s times that, its relative error is at most eps/(1 - rho)^s.
n_max is the least order with eps <= _SERIES_TOL (for an integer s the series
ends at n = s and eps = 0).  A weight that would need more than
_SERIES_MAX_ORDER terms (rho near 1) keeps _pair_reduce at every level.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coeffseq import CoeffSequence
from .dyadic import (CubeRange, cube_means, cube_sums, level_block_view, parent_sums,
                     spread_to_grid)
from .fields import SampledField, half_spectrum, to_spectral
from .grid import TorusGrid
from .lpa import InhomPartition, band_outputs, check_bank
from .weights import MatrixWeight, ReducingFamily


#: the JSON keys SpaceParams.from_dict reads
SPACE_KEYS = ("s", "p", "q", "t", "r")


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
        if not np.isfinite(self.s):
            raise ValueError(f"parameter s must be finite, got {self.s}")
        check_nontrivial(self.p, self.t, self.r)

    @staticmethod
    def from_dict(params: dict, cube_range: CubeRange) -> "SpaceParams":
        """From JSON-style params: s, p, q, t, r as float_params reads them, and
        homogeneous from cube_range (the one switch).  Other keys are ignored."""
        return SpaceParams(*float_params(params, SPACE_KEYS), not cube_range.inhomogeneous)


def float_params(params: dict, keys: str | list) -> list:
    """The values at keys (a string of one-letter keys, or a list of keys) of
    JSON-style params as floats (numbers or numeric strings such as "inf"); r
    defaults to infinity.  NaN is rejected, naming its key; infinities pass."""
    missing = [key for key in keys if key != "r" and key not in params]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")
    try:
        vals = [float(params.get(key, "inf") if key == "r" else params[key]) for key in keys]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"parameters {', '.join(keys)} must be numbers: {exc}") from exc
    for key, val in zip(keys, vals):
        if np.isnan(val):
            raise ValueError(f"parameter {key} must be a number, got nan")
    return vals


def check_nontrivial(p: float, t: float, r: float):
    """Admissible exponents: 0 < p < t < r < inf, or 0 < p <= t < r = inf, with p
    finite (at p = inf every cube sum would be raised to 1/p = 0)."""
    if not np.isfinite(p):
        raise ValueError(f"parameter p must be finite, got {p}")
    if np.isinf(r):
        ok = 0 < p <= t
    else:
        ok = 0 < p < t < r
    if not ok:
        raise ValueError(f"(p, t, r) = ({p}, {t}, {r}) gives a trivial space")


@dataclass
class NormReport:
    value: float
    per_level: Mapping = field(default_factory=dict)
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
        sq = sq + _abs2(u)
    return np.sqrt(sq)


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 entrywise: re^2 + im^2 for a complex array, v * v for a real one."""
    return v.real ** 2 + v.imag ** 2 if np.iscomplexobj(v) else v * v


class PointwiseWeighting:
    """Apply W^(1/p)(x) at every sample (MatrixWeight.power caches the root)."""

    def __init__(self, W: MatrixWeight, p: float):
        self.W = W
        self.p = p

    @property
    def channels(self) -> int:
        return self.W.channels

    def magnitude(self, j: int, vectors: np.ndarray) -> np.ndarray:
        return _matvec_norm(self.W.power(1.0 / self.p), vectors)


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


def _check_weighting(w, f_channels: int, p: float):
    """ValueError unless w has f_channels channels and was built at p."""
    if w.channels != f_channels:
        raise ValueError(f"weighting has {w.channels} channels, field has {f_channels}")
    w_p = w.family.p if isinstance(w, CubewiseWeighting) else w.p
    if w_p != p:
        raise ValueError(f"weighting was built at p = {w_p}, the space has p = {p}")


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


class _LevelNorms(Mapping):
    """per_level of a _LevelSum report: level j -> the BM norm of level j's own
    magnitude, from fine (level -> finest cube sums of mag_j^p).  All levels take
    one batch of _bm_norms, run on the first read, after which fine is freed; a
    report whose per_level is never read never runs it."""

    def __init__(self, grid: TorusGrid, fine: dict, p: float, t: float, r: float, levels):
        self._batch = (grid, fine, p, t, r, levels)
        self._norms = None

    def _read(self) -> dict:
        if self._norms is None:
            grid, fine, p, t, r, levels = self._batch
            norms = _bm_norms(grid, np.stack(list(fine.values()), axis=-1), p, t, r, levels)
            self._norms = dict(zip(fine, map(float, norms)))
            self._batch = None
        return self._norms

    def __getitem__(self, j):
        return self._read()[j]

    def __iter__(self):
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())

    def __repr__(self) -> str:
        return repr(self._read())


class _LevelSum:
    """The skeleton of every level-summed norm, fed one level at a time.

    add(j, mag) takes the weighted level-j magnitude; it updates the pointwise
    l^q sum over levels and keeps only the level-max(cube levels) cube sums of
    mag^p, so several level sums can be fed in lockstep from one band pass
    without keeping any band.  report() gives the BM norm of the l^q sum as the
    value, and frees the sum; per_level, each level's own BM norm, is a
    _LevelNorms, computed in one batch of _bm_norms on its first read.
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
        total, self.acc = self.acc, None
        if not np.isinf(self.q):
            np.power(total, 1.0 / self.q, out=total)    # in place: the sum is not read again
        rep = NormReport(bm_array_norm(self.grid, total, self.p, self.t, self.r, self.levels))
        if self.fine:
            rep.per_level = _LevelNorms(self.grid, self.fine, self.p, self.t, self.r,
                                        self.levels)
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


def _cyclic_extension(a: np.ndarray, ax: int, left: int, right: int) -> np.ndarray:
    """a along ax, swapped last, extended cyclically by left samples before and
    right samples after (each at most N)."""
    a = a.swapaxes(ax, -1)
    return np.concatenate([a[..., a.shape[-1] - left:], a, a[..., :right]], axis=-1)


def _cyclic_mean(a: np.ndarray, size: int, ax: int) -> np.ndarray:
    """Means over the centred windows of odd length size <= N + 1 along ax,
    wrapped on the torus: differences of one cumulative sum over the cyclic
    extension by size // 2 on each side (and one sample more on the left, so
    that every window sum is a difference of two prefix sums).  The sum runs
    over the samples minus their mean, so it stays small and the differences
    keep their relative accuracy."""
    r = size // 2
    ext = _cyclic_extension(a, ax, r + 1, r)
    mu = ext.mean(axis=-1, keepdims=True)
    ext -= mu
    c = np.cumsum(ext, axis=-1, out=ext)
    out = c[..., size:] - c[..., :-size]
    out /= size
    out += mu
    return out.swapaxes(ax, -1)


def _cyclic_max(a: np.ndarray, size: int, ax: int) -> np.ndarray:
    """Maxima over the centred windows of odd length size <= N + 1 along ax,
    wrapped on the torus, by doubling over the cyclic extension by size // 2 on
    each side: after the step to width w, m[i] is the max of the w samples from
    i, and the window from i is the union of the w-windows at i and at
    i + size - w (2w > size)."""
    n, r = a.shape[ax], size // 2
    m = _cyclic_extension(a, ax, r, r)
    w = 1
    while 2 * w <= size:
        m = np.maximum(m[..., :-w], m[..., w:])
        w *= 2
    return np.maximum(m[..., :n], m[..., size - w:size - w + n]).swapaxes(ax, -1)


def hl_maximal(g: SampledField, eta: float = 1.0) -> SampledField:
    """Uncentered Hardy-Littlewood maximal function, powered by eta.

    Balls are sup-metric windows of radius k*h, k = 0..N/2, wrapped on the
    torus; uncentered sup over balls containing x equals a running max-filter
    of the ball averages.  Both filters are separable, one axis at a time, and
    read the samples extended cyclically by k on either side (numpy only): the
    ball average is a difference of two cumulative sums over the extension
    (_cyclic_mean), and the max-filter is exact, the max of two overlapping
    power-of-two windows built by doubling (_cyclic_max).  At k = N/2 the window
    holds N + 1 samples, so it meets one sample twice, as a wrapped filter does.
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
            avg = _cyclic_mean(avg, size, ax)
        cand = avg
        for ax in range(grid.dim):
            cand = _cyclic_max(cand, size, ax)
        np.maximum(best, cand, out=best)
    return SampledField(grid, (best ** (1.0 / eta))[..., None])


def averaging(g: SampledField, j: int) -> SampledField:
    """E_j: replace g on each level-j cube by its mean."""
    grid = g.grid
    means = cube_means(grid, g.scalar(), j)
    return SampledField(grid, spread_to_grid(grid, means, j)[..., None])


def _band_pass(f: SampledField, ws, sp: SpaceParams, bank, cube_range: CubeRange,
               magnitude, on_band=None) -> list:
    """Every function-side norm, for each weighting in ws, from one band pass.

    The range decides the space; the bank and sp.homogeneous must agree with it.
    Each level's band feeds weighting w's level sum with magnitude(w, j, band),
    the weighted level-j magnitude, and then goes to on_band(j, band) when given
    (harness.four_norms_batch takes the phi coefficients there); no band outlives
    its level.
    A real f takes the half spectrum, so its bands are real arrays (lpa.band_outputs).
    """
    for w in ws:
        _check_weighting(w, f.channels, sp.p)
    check_bank(bank, cube_range)
    if sp.homogeneous == cube_range.inhomogeneous:
        raise ValueError(f"homogeneous = {sp.homogeneous} params disagree with the range")
    cube_range.validate(f.grid)
    sums = [_LevelSum(f.grid, sp.p, sp.t, sp.r, sp.q, cube_range) for _ in ws]
    F = to_spectral(f) if f.is_complex else half_spectrum(f)
    for j, band in band_outputs(F, bank, cube_range.band_levels()):
        for w, acc in zip(ws, sums):
            acc.add(j, magnitude(w, j, band))
        if on_band is not None:
            on_band(j, band)
    return [acc.report() for acc in sums]


def tl_norms(f: SampledField, ws, sp: SpaceParams, bank, cube_range: CubeRange,
             on_band=None) -> list:
    """tl_norm of f for each weighting in ws from one _band_pass, bands then to on_band."""
    return _band_pass(f, ws, sp, bank, cube_range,
                      lambda w, j, band: 2.0 ** (j * sp.s) * w.magnitude(j, band), on_band)


def tl_norm(f: SampledField, w, sp: SpaceParams, bank, cube_range: CubeRange) -> NormReport:
    """The function-side norm: l^q over levels of weighted band outputs, then bm_norm.

    Pointwise weighting gives the W-version; Cubewise gives the A_Q-version
    (matrix locked per cube of the band's level).
    """
    rep, = tl_norms(f, (w,), sp, bank, cube_range)
    return rep


def seq_norm(coeffs: CoeffSequence, w, sp: SpaceParams, cube_range: CubeRange,
             masks: dict = None) -> NormReport:
    """The sequence-side norm of cube coefficients.

    masks, when given, replaces chi_Q by chi_{E_Q}: a dict level j -> boolean
    array of grid.shape marking the retained samples of every level-j cube
    (levels without a mask keep every sample).  w must be built at sp.p.
    """
    _check_weighting(w, coeffs.channels, sp.p)
    cube_range.validate(coeffs.grid)
    grid = coeffs.grid
    levels = cube_range.band_levels()
    bad = [j for j in coeffs.levels() if j not in levels]
    if bad:
        raise ValueError(f"coefficient levels {bad} outside the range window")
    masks = masks or {}
    for j, mask in masks.items():
        if j not in levels:
            raise ValueError(f"mask level {j} outside the band levels {list(levels)}")
        if np.shape(mask) != grid.shape:
            raise ValueError(f"mask at level {j} has shape {np.shape(mask)}, not {grid.shape}")

    def magnitudes():
        for j in levels:
            dense = coeffs.level_array(j)
            if isinstance(w, CubewiseWeighting):
                per_cube = _matvec_norm(w.family.level_array(j), dense)
                mag = spread_to_grid(grid, per_cube, j)
            else:
                mag = w.magnitude(j, spread_to_grid(grid, dense, j))
            if j in masks:
                mag = mag * np.asarray(masks[j], dtype=bool)
            yield j, 2.0 ** (j * (sp.s + grid.dim / 2.0)) * mag

    return _level_sum(grid, magnitudes(), sp.p, sp.t, sp.r, sp.q, cube_range)


# ---------------------------------------------------------------------------
# characterization norms (Pointwise weighting only)


# (x, y) pairs per block of _pair_reduce, counted as its x-samples times the
# y-samples they read: 128 KiB per float array.  On a 2-vCPU x86 host, in one
# process (medians of 9 rounds in shuffled order; 1D N = 2048, levels [-2, 7],
# both characterize_1d inputs, _WINDOW_STEP 2^-8) Peetre / Lusin / g-lambda-star took
# 0.096 / 0.168 / 0.273 s at 2^13, 0.080 / 0.162 / 0.245 s at 2^14,
# 0.101 / 0.154 / 0.243 s at 2^15 and 0.126 / 0.168 / 0.247 s at 2^16; at 2D
# 64^2, levels [-2, 2] (3 rounds), 0.103 / 0.151 / 0.346 s at 2^14,
# 0.090 / 0.144 / 0.323 s at 2^15 and 0.197 / 0.242 / 0.320 s at 2^16.
_PAIR_BLOCK_ENTRIES = 1 << 14

# The y-samples of a block are whole multiples of this, and its x-samples even
# and at least 2, so that every block takes the same GEMM arithmetic and a
# pair's sq has the same bits in any block.  With OpenBLAS 0.3.31 on AVX-512,
# (r x 4) @ (4 x w) changed the last bit in the last w mod 8 columns once
# r >= 16 and w >= 255, and a single row (a GEMV) changed others; with w a
# multiple of 16 and 2 <= r < 1200, 4000 random shapes for each of m = 1, 2, 3
# all matched.
_GEMM_COLUMNS = 16

# t falls by this factor per _pair_max pass.  On the same host Peetre took
# 0.111, 0.082, 0.092, 0.094 and 0.103 s at 2^-4, 2^-6, 2^-8, 2^-10 and 2^-12
# (1D N = 2048 as above, medians of 11 rounds), and at 2D 128^2, levels [-2, 3],
# 1.25-1.28 s at 2^-6 against 1.45-1.56 s at 2^-8.
_WINDOW_STEP = 2.0 ** -6


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


def _row_blocks(grid: TorusGrid, length: int):
    """The blocks of x of _pair_reduce for a kernel whose support spans length
    first-axis offsets: (box, lo, hi, width), box the slices of the block's
    x-samples lo .. hi - 1 (flat order; whole first-axis lines, or one run within
    a line) and width the first-axis lines of y it reads.

    A block reads at most _PAIR_BLOCK_ENTRIES pairs, x-samples times y-samples,
    but has an even number, at least 2, of x-samples; width is the block's lines
    plus length - 1, rounded up to whole _GEMM_COLUMNS y-samples, at most N."""
    N = grid.points_per_axis
    line = grid.npoints // N            # samples per first-axis index
    unit = max(1, _GEMM_COLUMNS // line)
    counts = np.arange(1, N + 1)
    widths = np.minimum(N, -(-(counts + length - 1) // unit) * unit)
    fit = counts[counts * widths * line * line <= _PAIR_BLOCK_ENTRIES]
    lines, seg = (int(fit[-1]) if fit.size else 1), line
    if line == 1:
        lines = max(2, lines // 2 * 2)
    elif not fit.size:                  # not one whole line: a run within one
        seg = min(line, max(2, _PAIR_BLOCK_ENTRIES // (int(widths[0]) * line) // 2 * 2))
    width = int(widths[lines - 1])
    for i in range(0, N, lines):
        for c in range(0, line, seg):
            lo = i * line + c
            box = (slice(i, i + lines),) + (slice(c, c + seg),) * (grid.dim - 1)
            yield box, lo, lo + min(lines, N - i) * min(seg, line - c), width


def _pair_reduce(w: PointwiseWeighting, band: np.ndarray, kern: np.ndarray,
                 power: float, op, rows: np.ndarray = None) -> np.ndarray:
    """The kernel of the Peetre, Lusin and g-lambda-star norms, exact over all
    pairs (x, y) of sample points, taken in blocks of x (_row_blocks).

    Returns op.reduce over y of sq^power * K, where sq[x, y] =
    |W^(1/p)(x) band(y)|^2 in the Gram form W^(2/p)(x) . Re(v vbar)(y), clipped
    at 0 against rounding, and K[x, y] = kern[(x - y) mod N] (per axis) reads
    the norm's kernel from its offset table (a circulant view, no per-pair
    distance).  op is np.maximum or np.add.  Each block reads only the y whose
    first coordinate lies in the support of kern, widened by the block: pairs
    outside it have K = 0, so they cannot change the value.  rows, a boolean
    array of grid.shape, skips every block with no True sample; their entries
    are 0.
    """
    grid = w.W.grid
    if not band.any():
        return np.zeros(grid.shape)
    n, N, m = grid.dim, grid.points_per_axis, w.channels
    P = w.W.power(2.0 / w.p).reshape(-1, m * m)
    v = band.reshape(-1, m)
    G = np.einsum("ya,yb->yab", v, np.conj(v)).real.reshape(-1, m * m)
    G = np.concatenate([G, G])          # first axis doubled, like the columns of K
    K = _circulant_view(kern)
    start, length = _support(kern)
    line = grid.npoints // N
    cols = tuple(range(-n, 0))
    todo = None if rows is None else rows.ravel()
    out = np.zeros(grid.npoints)
    for box, lo, hi, width in _row_blocks(grid, length):
        if todo is not None and not todo[lo:hi].any():
            continue
        c0 = 0 if width == N else (box[0].start - start - length + 1) % N
        sq = np.maximum(P[lo:hi] @ G[c0 * line:(c0 + width) * line].T, 0.0)
        Kb = K[box + (slice(c0, c0 + width),)]
        sq = sq.reshape(Kb.shape)
        if power != 1.0:
            np.power(sq, power, out=sq)
        np.multiply(sq, Kb, out=sq)
        out[lo:hi] = op.reduce(sq, axis=cols).ravel()
    return out.reshape(grid.shape)


def _pair_max(w: PointwiseWeighting, band: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """_pair_reduce(w, band, kern, 1.0, np.maximum), the same array, from passes
    over growing windows of the table: the offsets where kern >= t.

    After a pass, row x is certified once no pair outside the window can beat
    the window's max there: sq[x, y] = P(x) . Re(v vbar)(y) <= tr P(x) |v(y)|^2
    (P = W^(2/p) positive semidefinite, any m, complex v too), so every such
    pair is at most tr P(x) max_y |v(y)|^2 times the largest kern outside the
    window; 1e-12 of slack covers the rounding of both sides, and a NaN anywhere
    in the bound or the max leaves its row uncertified.  A certified row's max is
    then the full one, bit for bit, since a max does not round and the window's
    pairs are the same numbers.  t falls by _WINDOW_STEP a pass, and at least to
    the largest kern left outside; the pass whose window holds every entry reads
    the table itself.  Each later pass recomputes only the blocks of _pair_reduce
    that hold an uncertified row.
    """
    P = w.W.power(2.0 / w.p)
    top = np.max(np.sum(_abs2(band), axis=-1))
    bound = np.trace(P, axis1=-2, axis2=-1) * top * (1.0 + 1e-12)
    best = np.zeros(kern.shape)
    todo = np.ones(kern.shape, dtype=bool)
    t = np.max(kern, initial=0.0, where=~np.isnan(kern))
    while todo.any():
        t = min(t * _WINDOW_STEP, np.max(kern, initial=0.0, where=kern < t))
        inside = kern >= t
        if not (kern < t).any():        # the window holds every entry but NaN
            return np.where(todo, _pair_reduce(w, band, kern, 1.0, np.maximum, todo), best)
        got = _pair_reduce(w, band, np.where(inside, kern, 0.0), 1.0, np.maximum, todo)
        best = np.where(todo, got, best)
        todo &= ~(bound * np.max(kern, initial=0.0, where=~inside) <= best)
    return best


# The angular series of the Lusin and g-lambda-star sums (module docstring).

# Beyond this order n_max a weight keeps _pair_reduce.  On a 2-vCPU x86 host,
# at 1D N = 2048, levels [-2, 7], noise on [1, 32] and the oscillating weight,
# the Lusin and g-lambda-star sums of the 8 nonzero levels took 0.361 s by
# _pair_reduce and 0.286, 0.339, 0.399 and 0.438 s by the series at n_max = 140,
# 170, 200 and 230 (medians of 9 runs): the crossover is near 180.  At 2D 64^2,
# levels [-2, 2], it is near 400, and it grows with the grid.
_SERIES_MAX_ORDER = 180

#: n_max is the least order whose error bound eps is at most this
_SERIES_TOL = 1e-17


class _Series(NamedTuple):
    """The per-call table of the angular series for one weight: the pair sum at
    x is scale(x) sum_n coef[n, index(x)] Re(phase(x)^n [K (*) R^s (Zbar/R)^n](x)),
    with coef[n] = c_n for n = 0 and 2 c_n above (the terms -n folded in), one
    column per distinct rho; phase is None for m = 1."""
    s: float
    scale: np.ndarray
    phase: np.ndarray
    coef: np.ndarray
    index: np.ndarray
    error: float


def _series_angles(n_max: int) -> int:
    """L, the power of two >= 4 (n_max + 1)."""
    return 1 << (4 * n_max + 3).bit_length()


def _series_error(r: float, s: float, n_max: int) -> float:
    """eps of the module docstring: the bound on the truncated, L-angle series."""
    b = np.cumprod([1.0] + [(s - k) / (k + 1) for k in range(int(np.ceil(s)))])
    # tau(n) = scale r^(n + 1); the aliased coefficients start at L - n_max
    scale = 2.0 * np.max(np.abs(b)) ** 2 / ((1.0 - r) * (1.0 - r * r))
    L = _series_angles(n_max)
    return scale * (r ** (n_max + 1) + (2 * n_max + 1) * r ** (L - n_max))


def _series_order(rho_max: float, s: float):
    """The least n_max whose bound is at most _SERIES_TOL (s for an integer s),
    or None above _SERIES_MAX_ORDER."""
    if s == int(s):
        return int(s) if s <= _SERIES_MAX_ORDER else None
    if rho_max < 1.0:
        r = rho_max / (1.0 + np.sqrt(1.0 - rho_max ** 2))
        for n in range(_SERIES_MAX_ORDER + 1):
            if _series_error(r, s, n) <= _SERIES_TOL:
                return n
    return None


def _series_table(w: PointwiseWeighting, s: float, n_max: int = None):
    """The _Series of w at s = q/2 (m = 1 or 2) with n_max terms beyond n = 0, the
    least order of the stated bound when n_max is None; None above the limit.

    c_n(rho) is the DFT of (1 + rho cos psi)^s over L = _series_angles(n_max)
    angles, one rfft per block of distinct rho values.
    """
    m = w.channels
    P = w.W.power(2.0 / w.p).reshape(-1, m, m)
    if m == 1:
        return _Series(s, P[:, 0, 0] ** s, None, np.ones((1, 1)),
                       np.zeros(len(P), dtype=int), 0.0)
    T = P[:, 0, 0] + P[:, 1, 1]
    zp = (P[:, 0, 0] - P[:, 1, 1] + 2j * P[:, 0, 1]) / T
    rho = np.minimum(np.abs(zp), 1.0)
    rho_max = float(np.max(rho))
    if n_max is None:
        n_max = _series_order(rho_max, s)
        if n_max is None:
            return None
    phase = np.divide(zp, rho, out=np.ones_like(zp), where=rho > 0)
    L = _series_angles(n_max)
    cos = np.cos(2.0 * np.pi * np.arange(L) / L)
    vals, index = np.unique(rho, return_inverse=True)
    coef = np.empty((n_max + 1, len(vals)))
    block = max(1, _PAIR_BLOCK_ENTRIES // L)
    for lo in range(0, len(vals), block):
        f = np.maximum(1.0 + vals[lo:lo + block, None] * cos, 0.0) ** s
        coef[:, lo:lo + block] = np.fft.rfft(f, axis=1)[:, :n_max + 1].real.T / L
    coef[1:] *= 2.0
    r = rho_max / (1.0 + np.sqrt(1.0 - rho_max ** 2))
    error = 0.0 if s == int(s) and n_max >= s else _series_error(r, s, n_max)
    return _Series(s, (0.5 * T) ** s, phase, coef, index.ravel(), error)


def _series_sum(table: _Series, band: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """The Lusin / g-lambda-star pair sum sum_y |W^(1/p)(x) band(y)|^(2s) K(x - y)
    by the angular series of table, exact where the module docstring says so.

    Term n, R^s (Zbar/R)^n, and its phase factor e^(in phi) are each the previous
    one times one factor; each term takes its own convolution."""
    v = band.reshape(-1, band.shape[-1])
    G = _abs2(v)
    R = G.sum(axis=1)
    if len(table.coef) > 1:
        zbar = (G[:, 0] - G[:, 1]) - 2j * (v[:, 0] * np.conj(v[:, 1])).real
        u = np.divide(zbar, R, out=np.zeros_like(zbar), where=R > 0)
    Kf = np.fft.fftn(kern)
    term, turn = R ** table.s, 1.0
    total = np.zeros(len(R))
    for n, coef in enumerate(table.coef):
        if n:
            term, turn = term * u, turn * table.phase
        conv = np.fft.ifftn(np.fft.fftn(term.reshape(kern.shape)) * Kf).ravel()
        total += coef[table.index] * (turn * conv).real
    total *= table.scale
    return np.maximum(total, 0.0).reshape(kern.shape)


def _real_band(band: np.ndarray) -> bool:
    """A real array, or a complex one real to 1e-13 of its own largest entry:
    max|Im v| <= 1e-13 max|Re v|.  Bands of real fields are real arrays
    (_band_pass), so the test on the entries is for complex fields only."""
    if not np.iscomplexobj(band):
        return True
    return np.max(np.abs(band.imag)) <= 1e-13 * np.max(np.abs(band.real))


def _pair_sums(w: PointwiseWeighting, q: float):
    """The Lusin and g-lambda-star kernel: (band, kern) -> sum over y of
    |W^(1/p)(x) band(y)|^q K(x - y), with K read from kern as in _pair_reduce.

    The angular series' table is built here, once per norm call; each level then
    takes the series where it is exact (m = 1; m = 2 with q = 2 or a real band)
    and _pair_reduce otherwise (and for m >= 3 or a weight beyond the order limit).
    A real field's bands are real arrays, noise-floor levels included, so every
    level of a real field takes the series when the table exists; only a
    complex field's bands can fail _real_band.
    """
    s = q / 2.0
    table = _series_table(w, s) if w.channels <= 2 else None

    def pair_sum(band, kern):
        exact = table is not None and (w.channels == 1 or s == 1.0 or _real_band(band))
        if exact and band.any():
            return _series_sum(table, band, kern)
        return _pair_reduce(w, band, kern, s, np.add)     # zeros at once for a zero band

    return pair_sum


def peetre_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams, a: float,
                bank, cube_range: CubeRange) -> NormReport:
    """Translation-penalized maximal variant: per level, sup over all y of
    |W^(1/p)(x) band(y)| / (1 + 2^j |x-y|)^a, then the usual aggregation."""
    if not a > 0:
        raise ValueError(f"parameter a must be positive, got {a}")
    dist = f.grid.radius()

    def sup(w, j, band):
        # the max of |.|^2 / (1 + 2^j d)^(2a), one square root per x
        kern = (1.0 + 2.0 ** j * dist) ** (-2.0 * a)
        return 2.0 ** (j * sp.s) * np.sqrt(_pair_max(w, band, kern))

    rep, = _band_pass(f, (w,), sp, bank, cube_range, sup)
    return rep


def _area_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams, bank,
               cube_range: CubeRange, kernel) -> NormReport:
    """The Lusin and g-lambda-star norms: per level, the q-th root of
    2^(jsq) 2^(jn) int |W^(1/p)(x) band(y)|^q K(x - y) dy, with K = kernel(j, d)
    on the torus distances d of the offsets, then the usual aggregation."""
    grid = f.grid
    dist = grid.radius()
    pair_sum = _pair_sums(w, sp.q)

    def area(w, j, band):
        u = 2.0 ** (j * grid.dim) * grid.cell_measure * pair_sum(band, kernel(j, dist))
        return (2.0 ** (j * sp.s * sp.q) * u) ** (1.0 / sp.q)

    rep, = _band_pass(f, (w,), sp, bank, cube_range, area)
    return rep


def lusin_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams, bank,
               cube_range: CubeRange) -> NormReport:
    """Ball-average variant: 2^(jn) mean over B(x, 2^-j) of the q-th power with
    the weight frozen at the center.  No ball is below the grid spacing h:
    validate keeps j <= J - MARGIN, so the radius 2^-j is at least 4h."""
    if np.isinf(sp.q):
        raise ValueError("lusin norm needs q < infinity")
    # indicator of the closed ball; 1e-9 of a grid spacing absorbs rounding in d
    return _area_norm(f, w, sp, bank, cube_range,
                      lambda j, d: (d <= 2.0 ** (-j) + 1e-9 * f.grid.spacing).astype(float))


def glambda_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams, lam: float,
                 bank, cube_range: CubeRange, delta_cap: float = 0.0) -> NormReport:
    """Full-torus polynomially weighted variant of the Lusin norm."""
    if np.isinf(sp.q):
        raise ValueError("g-lambda-star norm needs q < infinity")
    if np.isnan(lam):
        raise ValueError("parameter lambda must be a number, got nan")
    if lam <= 1.0 / min(1.0, sp.p, sp.q) + delta_cap / f.grid.dim:
        warnings.warn("lambda below the boundedness threshold; value still computed",
                      stacklevel=2)
    return _area_norm(f, w, sp, bank, cube_range,
                      lambda j, d: (1.0 + 2.0 ** j * d) ** (-lam * f.grid.dim * sp.q))


def approx_norm(f: SampledField, w: PointwiseWeighting, sp: SpaceParams,
                bank: InhomPartition, cube_range: CubeRange,
                threshold_delta: float = 0.0) -> NormReport:
    """Approximation variant with the canonical cumulative low-pass sequence.

    Returns ||W^(1/p) u_0||_bm + ||(sum_k 2^(ksq) |W^(1/p)(f - u_k)|^q)^(1/q)||_bm,
    an upper bound for the infimum over admissible approximating sequences.
    """
    if not cube_range.inhomogeneous:
        raise ValueError("approximation norm is defined on inhomogeneous spaces")
    thresh = f.grid.dim / min(1.0, sp.q, sp.p) + threshold_delta
    if sp.s <= thresh:
        warnings.warn(f"s = {sp.s} below the approximation threshold {thresh}",
                      stacklevel=2)
    term1 = []   # ||W^(1/p) u_0||_bm, filled at the first level
    u = 0.0      # the low-pass u_k through level k, in the dtype of the bands

    def tail(w, k, band):
        nonlocal u
        u = u + band
        if not term1:
            term1.append(bm_array_norm(f.grid, w.magnitude(k, u), sp.p, sp.t, sp.r,
                                       cube_range.cube_levels()))
        return 2.0 ** (k * sp.s) * w.magnitude(k, f.values - u)

    rep, = _band_pass(f, (w,), sp, bank, cube_range, tail)
    return NormReport(sum(term1) + rep.value, rep.per_level)
