"""Matrix weights on the grid, Muckenhoupt-type diagnostics, reducing operators,
and the growth exponents (d, d~, Delta, beta) consumed by boundedness hypotheses.

Everything here is measured on the sampled torus: integrals are midpoint sums,
essential sups are maxima over grid samples, and cube families come from the
dyadic lattice.  Large cubes are subsampled (stratified, evenly strided) so the
pair budget per cube stays bounded.  A reducing family stores one
(count,)*n + (m, m) array of matrices A_Q per level, indexed by cube position.
Every 2 x 2 spectral norm, of a batch (operator_norms) or of the Muckenhoupt
pair products (_product_norms), is one routine, _form_norms: the squared form,
with the hypot form as its fallback outside _SQUARE_RANGE.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dyadic import (CubeRange, cube_means, cube_sums, cubes_per_axis, dilated_windows,
                     level_block_view)
from .grid import TorusGrid

#: eigenvalues below this are considered degenerate when inverting W
EIG_FLOOR = 1e-10


#: the squared form of _form_norms is used where A + B lies in this range, so
#: that A, B and AB neither overflow nor lose bits to underflow
_SQUARE_RANGE = (2.0 ** -480, 2.0 ** 480)


def _form_norms(s: np.ndarray, t: np.ndarray, u: np.ndarray, v: np.ndarray,
                e: float = 1.0) -> np.ndarray:
    """||M||^e of the 2 x 2 matrices M = [[a, b], [c, d]] given s = a + d,
    t = b - c, u = a - d and v = b + c: the one 2 x 2 spectral norm routine.

    With A = s^2 + t^2 and B = u^2 + v^2 the squared norm is
    sigma^2 = (A + B)/4 + sqrt(AB)/2, a sum of non-negative terms, so nothing
    cancels; one power call raises it to e/2.  Entries whose A + B leaves
    _SQUARE_RANGE = [2^-480, 2^480] (matrices with entries beyond about 2^+-240)
    fall back to the hypot form (hypot(s, t) + hypot(u, v))/2, so nothing
    overflows or underflows where hypot does not.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        A = s * s
        A += t * t
        B = u * u
        B += v * v
        sq = np.multiply(A, B)
        np.sqrt(sq, out=sq)
        sq *= 0.5
        A += B
        lo, hi = _SQUARE_RANGE
        bad = ((A > hi) | (A < lo)
               if np.max(A, initial=lo) > hi or np.min(A, initial=hi) < lo else None)
        A *= 0.25
        sq += A
        np.power(sq, 0.5 * e, out=sq)
    if bad is not None:
        sq[bad] = (0.5 * (np.hypot(s[bad], t[bad]) + np.hypot(u[bad], v[bad]))) ** e
    return sq


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of matrices (largest singular value).

    2 x 2 matrices take _form_norms (the squared form, hypot outside its range);
    larger matrices go through the SVD.
    """
    m = mats.shape[-1]
    if m == 1:
        return np.abs(mats[..., 0, 0])
    if m == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        return _form_norms(a + d, b - c, a - d, b + c)
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def sym_power(vals: np.ndarray, vecs: np.ndarray, t: float) -> np.ndarray:
    """V diag(vals^t) V^T for batches of symmetric eigendecompositions.

    Entry (i, k) is 0 + sum over j = 0, 1, ... in order of (V[i, j] vals[j]^t) V[k, j],
    the product and summation order of np.einsum("...ij,...j,...kj->...ik", V,
    vals^t, V), so the bits are einsum's.  Each product runs over the whole batch
    into one batch-sized buffer; vals^t and that buffer are the only temporaries.
    """
    m = vecs.shape[-1]
    powers = vals ** t
    out = np.zeros(vecs.shape)
    tmp = np.empty(vecs.shape[:-2])
    for i, k in np.ndindex(m, m):
        entry = out[..., i, k]
        for j in range(m):
            np.multiply(vecs[..., i, j], powers[..., j], out=tmp)
            tmp *= vecs[..., k, j]
            entry += tmp
    return out


class MatrixWeight:
    """SPD m x m matrix per grid point with cached eigendecompositions.

    values: array of shape grid.shape + (m, m), symmetric positive definite.
    """

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape[: grid.dim] != grid.shape or values.ndim != grid.dim + 2 \
                or values.shape[-1] != values.shape[-2]:
            raise ValueError(f"weight shape {values.shape} does not match grid + (m, m)")
        if not np.all(np.isfinite(values)):
            raise ValueError("weight values must be finite")
        sym_err = np.max(np.abs(values - np.swapaxes(values, -1, -2)))
        if sym_err > 1e-10:
            raise ValueError(f"weight matrices not symmetric (max asymmetry {sym_err:.2e})")
        self.grid = grid
        self.values = values
        self._eigvals, self._eigvecs = np.linalg.eigh(values)
        if np.min(self._eigvals) <= 0.0:
            raise ValueError(f"weight not positive definite (min eigenvalue {np.min(self._eigvals):.3e})")
        self._powers = {}

    @property
    def channels(self) -> int:
        return self.values.shape[-1]

    @property
    def min_eig(self) -> float:
        return float(np.min(self._eigvals))

    def power(self, t: float) -> np.ndarray:
        """W(x)^t per point; inverse powers clip eigenvalues at EIG_FLOOR."""
        key = float(t)
        if key not in self._powers:
            vals = self._eigvals
            if t < 0:
                vals = np.maximum(vals, EIG_FLOOR)
            self._powers[key] = sym_power(vals, self._eigvecs, t)
        return self._powers[key]

    def reject_if_degenerate(self):
        if self.min_eig < EIG_FLOOR:
            raise ValueError(
                f"weight is numerically singular: min eigenvalue {self.min_eig:.3e} < {EIG_FLOOR:.0e}"
            )


@dataclass(eq=False)
class ReducingFamily:
    """One SPD matrix A_Q per dyadic cube over a level window: arrays holds
    {level: (count,)*n + (m, m) array}, positions are cube indices."""

    grid: TorusGrid
    p: float
    cube_range: CubeRange
    arrays: dict

    def level_array(self, j: int) -> np.ndarray:
        if j not in self.arrays:
            raise ValueError(f"reducing family has no level {j}: its window is "
                             f"[{self.cube_range.j_min}, {self.cube_range.j_max}]")
        return self.arrays[j]


@dataclass
class WeightDiagnostics:
    ap_char: float
    beta: float
    d: float
    d_tilde: float
    delta_cap: float
    delta_w: float
    sandwich: tuple

    def as_dict(self) -> dict:
        """The fields in order, sandwich as sandwich_c1 and sandwich_c2."""
        out = asdict(self)
        out["sandwich_c1"], out["sandwich_c2"] = out.pop("sandwich")
        return out


def conj_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; infinite at p = 1 (only used via d~/p' which is 0 then)."""
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


def dtilde_over_pprime(d_tilde: float, p: float) -> float:
    if p <= 1.0 or d_tilde == 0.0:
        return 0.0
    return d_tilde / conj_exponent(p)


def _check_p(p: float):
    if not 0.0 < p < np.inf:
        raise ValueError(f"p must be finite and positive, got {p}")


def _strided(npts: int, cap: int) -> np.ndarray:
    """Evenly strided subsample of range(npts) with at most cap entries."""
    stride = max(1, int(np.ceil(npts / cap)))
    return np.arange(0, npts, stride)


def _window_axes(grid: TorusGrid, j: int, factor: float, cap: int) -> np.ndarray:
    """(count, nsamples) grid indices along one axis of every level-j cube dilated
    by factor (torus-wrapped, sorted), evenly strided to at most cap samples."""
    win = dilated_windows(grid, j, factor)
    return win[:, _strided(win.shape[1], cap)]


def _flat_samples(grid: TorusGrid, ax: np.ndarray) -> np.ndarray:
    """(count^n, ns^n) flat grid indices of the product windows whose per-axis
    indices are the rows of ax (count, ns), the same on every axis; cubes and
    samples both in C order of their per-axis indices."""
    count, ns = ax.shape
    N = grid.points_per_axis
    flat = np.zeros((1, 1), dtype=ax.dtype)
    for _ in range(grid.dim):
        flat = (flat[:, None, :, None] * N + ax[None, :, None, :]).reshape(
            flat.shape[0] * count, flat.shape[1] * ns)
    return flat


def _window_samples(grid: TorusGrid, j: int, factor: float, cap: int) -> np.ndarray:
    """(ncubes, nsamples) flat grid indices of every level-j cube dilated by factor
    (torus-wrapped), each axis window evenly strided to at most cap samples; cubes
    and samples both in C order of their per-axis indices."""
    return _flat_samples(grid, _window_axes(grid, j, factor, cap))


def _level_columns(grid: TorusGrid, j: int, i_cap: int, cap: int) -> tuple:
    """(ys, cols): the y-samples of the windows 2^i Q, i = 0..i_cap, of every
    level-j cube Q as one column table, ys (ncubes, ncols) of flat grid indices,
    and cols[i] the columns of window i.

    A column is keyed by its per-axis offset from the cube's corner, mod N.  A
    window whose (sorted) key rows agree for every cube of the level is a
    translate of one key set, and shares its columns with every other such
    window; a window whose rows are not translates (its stride does not divide
    the wrap of some cube) keeps its own columns, one per sample.  The shared
    columns come first, sorted by key, so column 0 is the cube's corner, a
    sample of every shared window (cube 0's sorted rows start at its corner,
    grid index 0); each own window follows as one contiguous block.
    """
    N = grid.points_per_axis
    corner = np.arange(cubes_per_axis(grid, j)) << (grid.res_log2 - j)
    keys, own = {}, {}
    for i in range(i_cap + 1):
        ax = _window_axes(grid, j, 2.0 ** i, cap)
        key = np.sort((ax - corner[:, None]) % N, axis=1)
        if np.all(key == key[0]):
            keys[i] = _flat_samples(grid, key[:1])[0]
        else:
            own[i] = _flat_samples(grid, ax)
    shared, inverse = np.unique(np.concatenate(list(keys.values())), return_inverse=True)
    ys = np.zeros((1, shared.size), dtype=corner.dtype)
    for a in range(grid.dim):
        digit = shared // N ** (grid.dim - 1 - a) % N
        ys = (ys[:, None, :] * N + (corner[:, None] + digit) % N).reshape(-1, shared.size)
    cols = dict(zip(keys, np.split(inverse, np.cumsum([k.size for k in keys.values()])[:-1])))
    ncols = shared.size
    for i, win in own.items():
        cols[i] = np.arange(ncols, ncols + win.shape[1])
        ncols += win.shape[1]
    return np.concatenate([ys, *own.values()], axis=1), [cols[i] for i in range(i_cap + 1)]


#: _form_norms of the product XY reads its a + d, b - c, a - d and b + c.  Each
#: is bilinear: the flattened X (X00, X01, X10, X11) against these signed
#: entries of the flattened Y (Y00, Y01, Y10, Y11)
_FORM_ENTRIES = np.array([[0, 2, 1, 3], [1, 3, 0, 2], [0, 2, 1, 3], [1, 3, 0, 2]])
_FORM_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
                        [1.0, 1.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0]])


def _product_norms(X: np.ndarray, Y: np.ndarray, e: float = 1.0) -> np.ndarray:
    """||X[c, a] Y[c, b]||^e for X (nc, na, m, m) and Y (nc, nb, m, m): (nc, na, nb).

    For m = 2 the four bilinear forms s, t, u, v of _form_norms are one batched
    GEMM of the flattened X against signed permutations of the flattened Y, so
    the products are never formed; _form_norms takes them from there.  Other m
    take operator_norms of the products.
    """
    nc, na, m = X.shape[0], X.shape[1], X.shape[-1]
    if m != 2:
        return operator_norms(X[:, :, None] @ Y[:, None]) ** e
    nb = Y.shape[1]
    Ys = Y.reshape(nc, nb, 4)[..., _FORM_ENTRIES] * _FORM_SIGNS     # (nc, nb, form, k)
    G = X.reshape(nc, na, 4) @ Ys.transpose(0, 3, 2, 1).reshape(nc, 4, 4 * nb)
    return _form_norms(*(G.reshape(nc, na, 4, nb)[:, :, k] for k in range(4)), e)


#: (x, y) sample pairs per block of cubes in _muckenhoupt_levels
_MUCK_BLOCK_PAIRS = 1 << 15


def _kernel_passes(W: MatrixWeight, p: float) -> list:
    """(root, iroot, p) of W's Muckenhoupt kernel and, for p > 1, of the dual
    weight's: W~^(1/p') = W^(-1/p) and W~^(-1/p') = W^(1/p), so the dual pass is
    W's cached roots swapped at p'.  W^(-1/p) clips W's eigenvalues at EIG_FLOOR,
    W^(1/p) clips none."""
    passes = [(W.power(1.0 / p), W.power(-1.0 / p), p)]
    if p > 1.0:
        passes.append((W.power(-1.0 / p), W.power(1.0 / p), conj_exponent(p)))
    return passes


def _muckenhoupt_levels(grid: TorusGrid, passes: list, cube_range: CubeRange,
                        i_max: int) -> list:
    """One {j: D} table per pass (root, iroot, p) of passes, with D[i, c] the
    Muckenhoupt quantity of the c-th level-j cube Q (C order) whose y-domain is
    dilated to 2^i Q, torus-wrapped, for i = 0..i_cap(j), the largest i <= i_max
    with 2^i side(Q) <= L.

    root and iroot hold V^(1/p) and V^(-1/p) per grid point (grid.shape + (m, m)) for
    a weight V: W, or the dual weight of ap_dimensions (see _kernel_passes).
    With e = p' for p > 1 and e = p for p <= 1:
    p > 1: D_i = avg_x ( avg_y ||root(x) iroot(y)||^e )^(p/e);
    p <= 1: D_i = max_y avg_x ||root(x) iroot(y)||^e.
    x runs over Q and y over 2^i Q, each axis evenly strided to at most 64
    samples (8 in 2D).  The y-samples of all windows of a level form one column
    table per cube (_level_columns), built once for every pass, so each block of
    at most _MUCK_BLOCK_PAIRS pairs takes one product table of
    _product_norms(.., e) and every D_i reads its own window's columns from it.
    Each y-average (p > 1) is centred: the row's sample in the window's first
    column is subtracted from the window's columns, the means are one GEMM of
    the table against the windows' averaging weights, and the sample is added
    back.  It is one of the n non-negative terms averaged, so at most n times
    their mean, which bounds the cancellation; and every constant weight has
    D_i = D_0 bit for bit (for p <= 1 each D_i is a max over the same column
    means).
    """
    cube_range.validate(grid, margin=0)
    cap = round(64 ** (1 / grid.dim))      # 64 samples, so 64^2 pairs, per cube in any dimension
    levels = []
    for j in cube_range.cube_levels():
        i_cap = min(i_max, grid.side_log2 + j)      # 2^(i - j) <= L = 2^side_log2
        ys, cols = _level_columns(grid, j, i_cap, cap)
        avg = np.zeros((ys.shape[1], len(cols)))
        for i, c in enumerate(cols):
            avg[c, i] = 1.0 / c.size
        levels.append((j, _window_samples(grid, j, 1.0, cap), ys, cols, avg))
    out = []
    for root, iroot, p in passes:
        root, iroot = (r.reshape((-1,) + r.shape[-2:]) for r in (root, iroot))
        e = conj_exponent(p) if p > 1.0 else p
        tables = {}
        for j, xs, ys, cols, avg in levels:
            # each window's first column starts its block of the table: column 0,
            # the cube's corner, for the shared windows, else its own first column
            firsts = [c[0] for c in cols]
            bounds = sorted(set(firsts)) + [ys.shape[1]]
            D = np.empty((len(cols), xs.shape[0]))
            step = max(1, _MUCK_BLOCK_PAIRS // (xs.shape[1] * ys.shape[1]))
            for lo in range(0, xs.shape[0], step):
                cubes = slice(lo, lo + step)
                P = _product_norms(root[xs[cubes]], iroot[ys[cubes]], e)   # (cubes, x, columns)
                if p > 1.0:
                    ref = P[:, :, firsts]
                    for a, b in zip(bounds, bounds[1:]):
                        P[:, :, a:b] -= P[:, :, a, None]
                    ybar = (P.reshape(-1, P.shape[2]) @ avg).reshape(ref.shape) + ref
                    D[:, cubes] = np.mean(ybar ** (p / e), axis=1).T
                else:
                    xbar = np.mean(P, axis=1)
                    for i, c in enumerate(cols):
                        D[i, cubes] = np.max(xbar[:, c], axis=1)
            tables[j] = D
        out.append(tables)
    return out


def ap_characteristic(W: MatrixWeight, p: float, cube_range: CubeRange) -> float:
    """Matrix Muckenhoupt characteristic over the cubes of the range.

    p > 1: sup_Q avg_x ( avg_y ||W^(1/p)(x) W^(-1/p)(y)||^p' )^(p/p');
    p <= 1: sup_Q max_y avg_x ||W^(1/p)(x) W^(-1/p)(y)||^p.
    The averages run over an evenly strided subsample of at most 64 points per axis
    of each cube (8 in 2D), so the value is a sampled estimate, not the exact sup.
    It is the D_0 row of _muckenhoupt_levels on the primal pass of _kernel_passes:
    the norms take _form_norms (the squared form, hypot outside its range) and
    each y-average is centred on one of its samples, so every constant weight
    gives the same value on every cube.
    """
    _check_p(p)
    W.reject_if_degenerate()
    [levels] = _muckenhoupt_levels(W.grid, _kernel_passes(W, p)[:1], cube_range, 0)
    return max(float(np.max(D[0])) for D in levels.values())


def _random_directions(m: int, count: int, seed: int) -> np.ndarray:
    """count seeded random unit vectors in R^m; the single direction [1] when m = 1."""
    if m == 1:
        return np.ones((1, 1))
    v = np.random.default_rng(seed).standard_normal((count, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _unit_directions(m: int, count: int) -> np.ndarray:
    """count unit vectors in R^m: half-circle angles at m = 2, else seed 7's random ones."""
    if m == 2:
        ang = np.pi * (np.arange(count) + 0.5) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return _random_directions(m, count, 7)


def _quadratic_forms(G: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """y^T G y for symmetric G (..., m, m) and unit directions y (ndirs, m):
    (..., ndirs), one GEMM against the outer products y y^T, clipped at 0
    against rounding.  The relative error is about eps * cond(G)."""
    m = dirs.shape[1]
    outer = (dirs[:, :, None] * dirs[:, None, :]).reshape(-1, m * m)
    quad = G.reshape(-1, m * m) @ outer.T
    return np.maximum(quad, 0.0).reshape(G.shape[:-2] + (-1,))


def _direction_magnitudes(W: MatrixWeight, p: float, dirs: np.ndarray) -> np.ndarray:
    """|W^(1/p)(x) y|^p = (y^T W^(2/p)(x) y)^(p/2) per grid point and direction:
    grid.shape + (ndirs,)."""
    return _quadratic_forms(W.power(2.0 / p), dirs) ** (p / 2.0)


def _rho_per_cube(grid: TorusGrid, mags: np.ndarray, p: float, j: int) -> np.ndarray:
    """rho_Q(y) = (avg_Q |W^(1/p) y|^p)^(1/p) per cube at level j: (ncubes, ndirs)."""
    return cube_means(grid, mags, j).reshape(-1, mags.shape[-1]) ** (1.0 / p)


def _second_moment_matrices(W: MatrixWeight, p: float, j: int) -> tuple:
    """((avg_Q W^(2/p))^(1/2) per level-j cube, the smallest eigenvalue among them)."""
    avg = cube_means(W.grid, W.power(2.0 / p), j).reshape(-1, W.channels, W.channels)
    vals, vecs = np.linalg.eigh(avg)
    vals = np.maximum(vals, 0.0)
    return sym_power(vals, vecs, 0.5), float(np.sqrt(np.min(vals)))


def _fit_log_ellipsoids(rho: np.ndarray, dirs: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Batched SPD fits: G_c minimizing sum_i (log|G_c y_i| - log rho_ci)^2.

    Works on the quadratic form P = G^2 (log|Gy| = log(y^T P y)/2), which makes
    the Gauss-Newton step a tiny batched least-squares over the m(m+1)/2 upper
    triangle; all cubes advance together, for at most 40 steps.  Initialized at
    the second-moment matrices and eigenvalue-clipped to stay SPD.
    """
    nc, _ = rho.shape
    m = dirs.shape[1]
    iu, ju = np.triu_indices(m)
    npar = iu.size
    # design rows for d(y^T P y)/dP on the upper-triangle basis (off-diag doubled)
    basis = dirs[:, iu] * dirs[:, ju] * np.where(iu == ju, 1.0, 2.0)  # (ndirs, npar)
    P = np.einsum("cab,cbd->cad", init, init)
    logrho = np.log(rho)
    for _ in range(40):
        quad = np.einsum("da,cab,db->cd", dirs, P, dirs)          # (nc, ndirs)
        quad = np.maximum(quad, 1e-300)
        r = 0.5 * np.log(quad) - logrho
        Jac = 0.5 * basis[None, :, :] / quad[:, :, None]          # (nc, ndirs, npar)
        JtJ = np.einsum("cdp,cdq->cpq", Jac, Jac)
        Jtr = np.einsum("cdp,cd->cp", Jac, r)
        JtJ += 1e-12 * np.eye(npar)
        step = np.linalg.solve(JtJ, -Jtr[..., None])[..., 0]
        dP = np.zeros_like(P)
        dP[:, iu, ju] = step
        dP[:, ju, iu] = step
        P = P + dP
        vals, vecs = np.linalg.eigh(P)
        P = sym_power(np.maximum(vals, EIG_FLOOR), vecs, 1.0)
        if np.max(np.abs(step)) < 1e-14 * max(np.max(np.abs(P)), 1.0):
            break
    vals, vecs = np.linalg.eigh(P)
    return sym_power(np.maximum(vals, EIG_FLOOR), vecs, 0.5)


def reducing_operators(W: MatrixWeight, p: float, cube_range: CubeRange,
                       method: str = "second-moment", n_dirs: int = 16) -> ReducingFamily:
    """Build {A_Q} with c1 |A_Q y| <= (avg_Q |W^(1/p) y|^p)^(1/p) <= c2 |A_Q y|.

    second-moment: A_Q = (avg_Q W^(2/p))^(1/2), exact at p = 2.
    ellipsoid-fit: least-squares refinement of log rho_Q over unit directions,
    initialized at the second-moment matrix.
    """
    _check_p(p)
    if method not in ("second-moment", "ellipsoid-fit"):
        raise ValueError(f"unknown method {method!r}")
    grid = W.grid
    cube_range.validate(grid, margin=0)
    m = W.channels
    arrays = {}
    dir_mags = None
    for j in cube_range.cube_levels():
        mats, low = _second_moment_matrices(W, p, j)
        if low < EIG_FLOOR:
            raise ValueError(f"non-SPD reducing matrix at level {j}")
        if method == "ellipsoid-fit":
            if dir_mags is None:
                dirs = _unit_directions(m, n_dirs)
                dir_mags = _direction_magnitudes(W, p, dirs)
            mats = _fit_log_ellipsoids(_rho_per_cube(grid, dir_mags, p, j), dirs, mats)
        arrays[j] = mats.reshape((cubes_per_axis(grid, j),) * grid.dim + (m, m))
    return ReducingFamily(grid, p, cube_range, arrays)


def sandwich_constants(W: MatrixWeight, p: float, family: ReducingFamily,
                       n_dirs: int = 64) -> tuple:
    """(c1, c2): extremes of rho_Q(y) / |A_Q y| over cubes and n_dirs random unit
    directions drawn with seed 11, with |A_Q y| = (y^T A_Q^2 y)^(1/2)."""
    _check_p(p)
    m = W.channels
    dirs = _random_directions(m, n_dirs, 11)
    c1, c2 = np.inf, 0.0
    dir_mags = _direction_magnitudes(W, p, dirs)
    for j in family.cube_range.cube_levels():
        rho = _rho_per_cube(W.grid, dir_mags, p, j)              # (ncubes, ndirs)
        A = family.level_array(j).reshape(-1, m, m)
        ratio = rho / np.sqrt(_quadratic_forms(A @ A, dirs))
        c1 = min(c1, float(np.min(ratio)))
        c2 = max(c2, float(np.max(ratio)))
    return (c1, c2)


def doubling_exponent(W: MatrixWeight, p: float, samples: int = 200) -> float:
    """log2 of the largest mass ratio int_{2Q} w_y / int_Q w_y over sampled cubes
    and directions, with w_y = |W^(1/p) y|^p and 2Q wrapped on the torus.

    A sampled estimate, not the sup over all cubes: `samples` cubes drawn with
    seed 3, each at a random level j in [1 - K, J - 2] and a random position,
    against the 16 fixed unit directions of _unit_directions.  The mass of Q is
    its level-j cube sum.  2Q is the concentric cube of twice the side: its mass
    is the sum of the 4^n level-(j+1) cube sums centred on Q, torus-wrapped.  At
    the coarsest level, 2 side(Q) = L, those 4^n cubes tile the whole torus once.
    """
    _check_p(p)
    grid = W.grid
    n = grid.dim
    rng = np.random.default_rng(3)
    mags = _direction_magnitudes(W, p, _unit_directions(W.channels, 16))
    levels = list(range(1 - grid.side_log2, grid.res_log2 - 1))
    drawn = {}
    for _ in range(samples):
        j = levels[rng.integers(len(levels))]
        count = cubes_per_axis(grid, j)
        drawn.setdefault(j, []).append([int(rng.integers(count)) for _ in range(n)])
    sums = {level: cube_sums(grid, mags, level)
            for level in sorted(set(drawn) | {j + 1 for j in drawn})}
    best = 0.0
    for j, idx in drawn.items():
        idx = np.array(idx)                                              # (k, n)
        ring = (2 * idx[:, :, None] - 1 + np.arange(4)) % (2 * cubes_per_axis(grid, j))
        # axis a's four level-(j+1) indices go on gather axis 1 + a: (k,) + (4,)*n
        gather = tuple(ring[:, a].reshape((len(idx),) + (1,) * a + (4,) + (1,) * (n - 1 - a))
                       for a in range(n))
        outer = sums[j + 1][gather].sum(axis=tuple(range(1, n + 1)))      # (k, ndirs)
        best = max(best, float(np.max(outer / sums[j][tuple(idx.T)])))
    return float(np.log2(best))


def _growth_exponent(levels: dict, dim: int) -> float:
    """max over cubes, i of (1/i) log2(D_i/D_0) in a _muckenhoupt_levels table,
    clamped to [0, dim)."""
    d_best = 0.0
    for D in levels.values():
        pos = D[0] > 0
        for i in range(1, D.shape[0]):
            d_best = max(d_best, float(np.max(np.log2(D[i, pos] / D[0, pos]) / i, initial=0.0)))
    return float(min(max(d_best, 0.0), dim - 1e-9))


def _dimensions(tables: list, p: float, dim: int) -> tuple:
    """(d, d~, Delta) from the _muckenhoupt_levels tables of _kernel_passes: d from
    the primal table, d~ from the dual one (0 when p <= 1 has none)."""
    d = _growth_exponent(tables[0], dim)
    d_t = _growth_exponent(tables[1], dim) if len(tables) > 1 else 0.0
    return (d, d_t, d / p + dtilde_over_pprime(d_t, p))


def ap_dimensions(W: MatrixWeight, p: float, cube_range: CubeRange, i_max: int = 4) -> tuple:
    """(d, d~, Delta): growth exponents of the cube-dilated Muckenhoupt quantities.

    d is the largest (1/i) log2(D_i / D_0) over the cubes Q of the range and
    i = 1..i_max with 2^i side(Q) <= L, clamped to [0, n), where D_i is the
    Muckenhoupt quantity of Q with its y-average taken over 2^i Q
    (torus-wrapped) instead of Q.  d~ is the same for W~ = W^(-1/(p-1)) at exponent
    p' when p > 1 and is 0 otherwise; Delta = d/p + d~/p'.  As W~^(1/p') = W^(-1/p)
    and W~^(-1/p') = W^(1/p), d~ is d's kernel at p' with W's cached roots swapped:
    W^(-1/p) clips W's eigenvalues at EIG_FLOOR, W^(1/p) clips none.  The averages
    run over at most 64 evenly strided points per axis of Q and of 2^i Q (8 in 2D),
    and only dyadic dilations are tried, so the exponents are sampled estimates.
    One _muckenhoupt_levels call builds each level's window samples and column
    table once for both passes; each D_i reads its window's columns of one shared
    product table, the norms take _form_norms (the squared form, hypot outside
    its range), and each y-average is centred on one of its samples, so every
    constant weight has D_i = D_0 bit for bit and exponents 0.  A numerically
    singular weight is refused, as by ap_characteristic and diagnose: its
    clipped W^(-1/p) would give meaningless exponents.
    """
    _check_p(p)
    W.reject_if_degenerate()
    return _dimensions(_muckenhoupt_levels(W.grid, _kernel_passes(W, p), cube_range, i_max),
                       p, W.grid.dim)


def strong_doubling_constant(family: ReducingFamily, p: float, d: float, d_tilde: float,
                             delta_cap: float, max_pairs: int = 20000) -> float:
    """max over cube pairs of ||A_Q A_R^-1|| over its strong-doubling envelope; past
    max_pairs pairs, over max_pairs pairs drawn with seed 5 (a sampled lower bound)."""
    grid = family.grid
    n = grid.dim
    mats = np.concatenate([a.reshape((-1,) + a.shape[-2:]) for a in family.arrays.values()])
    levels = np.concatenate([np.full(a.shape[:n], j).ravel() for j, a in family.arrays.items()])
    centers = np.concatenate([2.0 ** (-j) * (np.indices(a.shape[:n]).reshape(n, -1).T + 0.5)
                              for j, a in family.arrays.items()])
    ncubes = len(mats)
    if ncubes ** 2 <= max_pairs:
        qi, ri = np.divmod(np.arange(ncubes ** 2), ncubes)
    else:
        rng = np.random.default_rng(5)
        qi = rng.integers(ncubes, size=max_pairs)
        ri = rng.integers(ncubes, size=max_pairs)
    nrm = operator_norms(mats[qi] @ np.linalg.inv(mats)[ri])
    # side(R)/side(Q) = 2^(jQ - jR): one level factor per level difference k
    dtp = dtilde_over_pprime(d_tilde, p)
    jq, jr = levels[qi], levels[ri]
    span = int(levels.max() - levels.min())
    level_env = np.array([max((2.0 ** k) ** (d / p), (2.0 ** -k) ** dtp)
                          for k in range(-span, span + 1)])
    lmax = np.ldexp(1.0, -np.minimum(jq, jr))
    dist = grid.torus_dist(centers[qi], centers[ri])
    envelope = level_env[jq - jr + span] * (1.0 + dist / lmax) ** delta_cap
    return float(np.max(nrm / envelope))


def waq_integrability(W: MatrixWeight, p: float, family: ReducingFamily, v: float) -> float:
    """sup over cubes of avg_Q ||W^(1/p)(x) A_Q^(-1)||^v (finite for v < p + delta_W)."""
    grid = W.grid
    root = W.power(1.0 / p)
    ax = tuple(range(1, 2 * grid.dim, 2))    # point axes of level_block_view
    best = 0.0
    for j in family.cube_range.cube_levels():
        Ainv = np.linalg.inv(family.level_array(j))
        nrm = operator_norms(level_block_view(grid, root, j) @ np.expand_dims(Ainv, ax))
        best = max(best, float(np.max(np.mean(nrm ** v, axis=ax))))
    return best


def aqw_sup(W: MatrixWeight, p: float, family: ReducingFamily) -> float:
    """p <= 1 companion: sup over cubes and x in Q of ||A_Q W^(-1/p)(x)||."""
    grid = W.grid
    iroot = W.power(-1.0 / p)
    ax = tuple(range(1, 2 * grid.dim, 2))    # point axes of level_block_view
    best = 0.0
    for j in family.cube_range.cube_levels():
        A = np.expand_dims(family.level_array(j), ax)
        best = max(best, float(np.max(operator_norms(A @ level_block_view(grid, iroot, j)))))
    return best


def diagnose(W: MatrixWeight, p: float, cube_range: CubeRange, i_max: int = 4) -> WeightDiagnostics:
    """Assemble the full diagnostics bundle for one weight at one exponent: one
    _muckenhoupt_levels call at i_max builds its sample tables once for the primal
    and dual passes and gives ap_char (the largest primal D_0), d and d~."""
    _check_p(p)
    W.reject_if_degenerate()
    tables = _muckenhoupt_levels(W.grid, _kernel_passes(W, p), cube_range, i_max)
    ap = max(float(np.max(D[0])) for D in tables[0].values())
    beta = doubling_exponent(W, p)
    d, d_t, delta = _dimensions(tables, p, W.grid.dim)
    family = reducing_operators(W, p, cube_range)
    c1, c2 = sandwich_constants(W, p, family)
    delta_w = 0.5 if np.isfinite(waq_integrability(W, p, family, p + 0.5)) else 0.0
    return WeightDiagnostics(ap, beta, d, d_t, delta, delta_w, (c1, c2))


# ---------------------------------------------------------------------------
# weight gallery


def identity_weight(grid: TorusGrid, m: int = 1) -> MatrixWeight:
    return constant_weight(grid, np.eye(m))


def constant_weight(grid: TorusGrid, M0: np.ndarray) -> MatrixWeight:
    M0 = np.asarray(M0, dtype=float)
    vals = np.broadcast_to(M0, grid.shape + M0.shape).copy()
    return MatrixWeight(grid, vals)


def power_weight(grid: TorusGrid, alpha: float) -> MatrixWeight:
    """Scalar |x|^alpha with torus distance to 0, clipped below at h^alpha."""
    w = np.maximum(grid.radius(), grid.spacing) ** alpha
    return MatrixWeight(grid, w[..., None, None])


def rotated_diag_weight(grid: TorusGrid, alpha: float = 0.5) -> MatrixWeight:
    """diag(|x|^alpha, 1) rotated by pi/5: two channels, same A_p behavior as the diagonal.

    At the default alpha = 0.5 and p = 1.5 (the gallery's rotated_power), the 1D
    weight lies on the A_1.5 boundary: W^(-p'/p) behaves like |x|^(-2 alpha), which
    is integrable in 1D only for alpha < 1/2, so its characteristic grows like
    log N.  The 2D weight lies inside A_1.5."""
    w = np.maximum(grid.radius(), grid.spacing) ** alpha
    c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)
    R = np.array([[c, -s], [s, c]])
    diag = np.zeros(grid.shape + (2, 2))
    diag[..., 0, 0] = w
    diag[..., 1, 1] = 1.0
    return MatrixWeight(grid, np.einsum("ab,...bc,dc->...ad", R, diag, R))


def oscillating_weight(grid: TorusGrid) -> MatrixWeight:
    """R(x) diag(1, kappa) R(x)^T, kappa = 4, with rotation angle 0.6 sin(2 pi x_1 / L)."""
    kappa = 4.0
    x0 = grid.coords()[0]
    theta = 0.6 * np.sin(2.0 * np.pi * x0 / grid.side)
    c, s = np.cos(theta), np.sin(theta)
    vals = np.zeros(grid.shape + (2, 2))
    vals[..., 0, 0] = c * c + kappa * s * s
    vals[..., 1, 1] = s * s + kappa * c * c
    vals[..., 0, 1] = vals[..., 1, 0] = (1.0 - kappa) * c * s
    return MatrixWeight(grid, vals)


def weight_gallery(grid: TorusGrid, m: int = 2) -> dict:
    """Built-in weights spanning identity, constant, power, and rotating cases."""
    gallery = {"identity": identity_weight(grid, m)}
    if m == 1:
        gallery["constant"] = constant_weight(grid, np.array([[2.5]]))
        gallery["power_half"] = power_weight(grid, 0.5)
    else:
        base = np.array([[2.0, 0.5], [0.5, 1.0]])
        gallery["constant"] = constant_weight(grid, base)
        gallery["rotated_power"] = rotated_diag_weight(grid, 0.5)
        gallery["oscillating"] = oscillating_weight(grid)
    return gallery
