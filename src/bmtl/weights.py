"""Matrix weights on the grid, Muckenhoupt-type diagnostics, reducing operators,
and the growth exponents (d, d~, Delta, beta) consumed by boundedness hypotheses.

Everything here is measured on the sampled torus: integrals are midpoint sums,
essential sups are maxima over grid samples, and cube families come from the
dyadic lattice.  Large cubes are subsampled (stratified, evenly strided) so the
pair budget per cube stays bounded.  A reducing family stores one
(count,)*n + (m, m) array of matrices A_Q per level, indexed by cube position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import (CubeRange, DyadicCube, cube_means, cubes_at_level, cubes_per_axis,
                     level_block_view)
from .grid import TorusGrid

#: eigenvalues below this are considered degenerate when inverting W
EIG_FLOOR = 1e-10


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of matrices (largest singular value).

    2 x 2 matrices [[a, b], [c, d]] use the closed form
    (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2, a sum of two non-negative
    terms, so it neither cancels nor overflows; larger matrices go through the SVD.
    """
    m = mats.shape[-1]
    if m == 1:
        return np.abs(mats[..., 0, 0])
    if m == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        return 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def sym_power(vals: np.ndarray, vecs: np.ndarray, t: float) -> np.ndarray:
    """V diag(vals^t) V^T for batches of symmetric eigendecompositions."""
    return np.einsum("...ij,...j,...kj->...ik", vecs, vals ** t, vecs)


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
    method: str = "second-moment"

    def __getitem__(self, cube: DyadicCube) -> np.ndarray:
        return self.arrays[cube.level][cube.index]

    def level_array(self, j: int) -> np.ndarray:
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
        return {
            "ap_char": self.ap_char,
            "beta": self.beta,
            "d": self.d,
            "d_tilde": self.d_tilde,
            "delta_cap": self.delta_cap,
            "delta_w": self.delta_w,
            "sandwich_c1": self.sandwich[0],
            "sandwich_c2": self.sandwich[1],
        }


def conj_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; infinite at p = 1 (only used via d~/p' which is 0 then)."""
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


def dtilde_over_pprime(d_tilde: float, p: float) -> float:
    if p <= 1.0 or d_tilde == 0.0:
        return 0.0
    return d_tilde / conj_exponent(p)


def _strided(npts: int, cap: int) -> np.ndarray:
    """Evenly strided subsample of range(npts) with at most cap entries."""
    stride = max(1, int(np.ceil(npts / cap)))
    return np.arange(0, npts, stride)


def _cube_point_indices(grid: TorusGrid, j: int, cap_per_axis: int):
    """(ncubes, nsub) flat grid indices of strided sample points, per cube at level j."""
    w = 1 << (grid.res_log2 - j)
    count = cubes_per_axis(grid, j)
    sub = _strided(w, cap_per_axis)
    starts = np.arange(count) * w
    ax = starts[:, None] + sub[None, :]  # (count, nsub)
    if grid.dim == 1:
        return ax
    N = grid.points_per_axis
    flat = (ax[:, :, None, None] * N + ax[None, None, :, :])
    # cubes (c1, c2) -> flatten cube axes and point axes
    return flat.transpose(0, 2, 1, 3).reshape(count * count, sub.size * sub.size)


def _pair_cap(grid: TorusGrid) -> int:
    # keep the per-cube pair budget near 64^2 regardless of dimension
    return 64 if grid.dim == 1 else 8


def ap_characteristic(W: MatrixWeight, p: float, cube_range: CubeRange) -> float:
    """Matrix Muckenhoupt characteristic over the cubes of the range.

    p > 1: sup_Q avg_x ( avg_y ||W^(1/p)(x) W^(-1/p)(y)||^p' )^(p/p');
    p <= 1: sup_Q max_y avg_x ||W^(1/p)(x) W^(-1/p)(y)||^p.
    The averages run over an evenly strided subsample of at most 64 points per axis
    of each cube (8 in 2D), so the value is a sampled estimate, not the exact sup.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    W.reject_if_degenerate()
    grid = W.grid
    root = W.power(1.0 / p).reshape(-1, W.channels, W.channels)
    iroot = W.power(-1.0 / p).reshape(-1, W.channels, W.channels)
    cap = _pair_cap(grid)
    best = 0.0
    for j in cube_range.cube_levels():
        pts = _cube_point_indices(grid, j, cap)
        X = root[pts]            # (ncubes, ns, m, m)
        Y = iroot[pts]
        nrm = operator_norms(X[:, :, None] @ Y[:, None])  # (ncubes, ns, ns)
        if p > 1.0:
            pp = conj_exponent(p)
            inner = np.mean(nrm ** pp, axis=2) ** (p / pp)
            vals = np.mean(inner, axis=1)
        else:
            vals = np.max(np.mean(nrm ** p, axis=1), axis=1)
        best = max(best, float(np.max(vals)))
    return best


def _unit_directions(m: int, count: int, seed: int = 7) -> np.ndarray:
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        ang = np.pi * (np.arange(count) + 0.5) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _direction_magnitudes(W: MatrixWeight, p: float, dirs: np.ndarray) -> np.ndarray:
    """|W^(1/p)(x) y|^p per grid point and direction: grid.shape + (ndirs,)."""
    root = W.power(1.0 / p)
    vecs = np.einsum("...ab,db->...da", root, dirs)
    return np.linalg.norm(vecs, axis=-1) ** p


def _rho_per_cube(grid: TorusGrid, mags: np.ndarray, p: float, j: int) -> np.ndarray:
    """rho_Q(y) = (avg_Q |W^(1/p) y|^p)^(1/p) per cube at level j: (ncubes, ndirs)."""
    return cube_means(grid, mags, j).reshape(-1, mags.shape[-1]) ** (1.0 / p)


def _second_moment_matrices(W: MatrixWeight, p: float, j: int) -> np.ndarray:
    avg = cube_means(W.grid, W.power(2.0 / p), j).reshape(-1, W.channels, W.channels)
    vals, vecs = np.linalg.eigh(avg)
    return sym_power(np.maximum(vals, 0.0), vecs, 0.5)


def _fit_log_ellipsoids(rho: np.ndarray, dirs: np.ndarray, init: np.ndarray,
                        iters: int = 40) -> np.ndarray:
    """Batched SPD fits: G_c minimizing sum_i (log|G_c y_i| - log rho_ci)^2.

    Works on the quadratic form P = G^2 (log|Gy| = log(y^T P y)/2), which makes
    the Gauss-Newton step a tiny batched least-squares over the m(m+1)/2 upper
    triangle; all cubes advance together.  Initialized at the second-moment
    matrices and eigenvalue-clipped to stay SPD.
    """
    nc, _ = rho.shape
    m = dirs.shape[1]
    iu, ju = np.triu_indices(m)
    npar = iu.size
    # design rows for d(y^T P y)/dP on the upper-triangle basis (off-diag doubled)
    basis = dirs[:, iu] * dirs[:, ju] * np.where(iu == ju, 1.0, 2.0)  # (ndirs, npar)
    P = np.einsum("cab,cbd->cad", init, init)
    logrho = np.log(rho)
    for _ in range(iters):
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
    if p <= 0:
        raise ValueError("p must be positive")
    if method not in ("second-moment", "ellipsoid-fit"):
        raise ValueError(f"unknown method {method!r}")
    grid = W.grid
    cube_range.validate(grid, margin=0)
    m = W.channels
    arrays = {}
    dirs = _unit_directions(m, n_dirs)
    dir_mags = None
    for j in cube_range.cube_levels():
        mats = _second_moment_matrices(W, p, j)
        if np.min(np.linalg.eigvalsh(mats)) < EIG_FLOOR:
            raise ValueError(f"non-SPD reducing matrix at level {j}")
        if method == "ellipsoid-fit":
            if dir_mags is None:
                dir_mags = _direction_magnitudes(W, p, dirs)
            mats = _fit_log_ellipsoids(_rho_per_cube(grid, dir_mags, p, j), dirs, mats)
        arrays[j] = mats.reshape((cubes_per_axis(grid, j),) * grid.dim + (m, m))
    return ReducingFamily(grid, p, cube_range, arrays, method)


def sandwich_constants(W: MatrixWeight, p: float, family: ReducingFamily,
                       n_dirs: int = 64, seed: int = 11) -> tuple:
    """(c1, c2): extremes of rho_Q(y) / |A_Q y| over cubes and random unit directions."""
    rng = np.random.default_rng(seed)
    m = W.channels
    if m == 1:
        dirs = np.ones((1, 1))
    else:
        v = rng.standard_normal((n_dirs, m))
        dirs = v / np.linalg.norm(v, axis=1, keepdims=True)
    c1, c2 = np.inf, 0.0
    dir_mags = _direction_magnitudes(W, p, dirs)
    for j in family.cube_range.cube_levels():
        rho = _rho_per_cube(W.grid, dir_mags, p, j)              # (ncubes, ndirs)
        A = family.level_array(j).reshape(-1, m, m)
        mags = np.linalg.norm(np.einsum("cab,db->cda", A, dirs), axis=-1)
        ratio = rho / mags
        c1 = min(c1, float(np.min(ratio)))
        c2 = max(c2, float(np.max(ratio)))
    return (c1, c2)


def doubling_exponent(W: MatrixWeight, p: float, samples: int = 200, seed: int = 3,
                      n_dirs: int = 16) -> float:
    """log2 of the largest mass ratio int_{2Q} w_y / int_Q w_y over sampled cubes
    and directions, with w_y = |W^(1/p) y|^p and 2Q wrapped on the torus."""
    grid = W.grid
    rng = np.random.default_rng(seed)
    dirs = _unit_directions(W.channels, n_dirs)
    root = W.power(1.0 / p)
    mags = np.linalg.norm(np.einsum("...ab,db->...da", root, dirs), axis=-1) ** p
    levels = list(range(1 - grid.side_log2, grid.res_log2 - 1))
    best = 0.0
    for _ in range(samples):
        j = levels[rng.integers(len(levels))]
        count = cubes_per_axis(grid, j)
        idx = tuple(int(rng.integers(count)) for _ in range(grid.dim))
        cube = DyadicCube(j, idx)
        inner = mags[cube.grid_slices(grid)].sum(axis=tuple(range(grid.dim)))
        ax = cube.dilated_axis_indices(grid, 2.0)
        outer = mags[np.ix_(*ax)].sum(axis=tuple(range(grid.dim)))
        ratio = np.max(outer / inner)
        best = max(best, float(ratio))
    return float(np.log2(best))


def _flat_indices(grid: TorusGrid, axis_lists) -> np.ndarray:
    """Raveled grid indices of the Cartesian product of per-axis index arrays."""
    if grid.dim == 1:
        return np.asarray(axis_lists[0])
    N = grid.points_per_axis
    a, b = axis_lists
    return (np.asarray(a)[:, None] * N + np.asarray(b)[None, :]).ravel()


def _dimension_one_weight(W: MatrixWeight, p: float, cube_range: CubeRange, i_max: int) -> float:
    """max over cubes, i of (1/i) log2(D_i/D_0), clamped to [0, n).

    D_i dilates the y-integration domain to 2^i Q (torus-wrapped) while keeping
    both normalizations at 1/|Q|, matching the i = 0 Muckenhoupt quantity.
    """
    grid = W.grid
    root = W.power(1.0 / p).reshape(-1, W.channels, W.channels)
    iroot = W.power(-1.0 / p).reshape(-1, W.channels, W.channels)
    cap = _pair_cap(grid)
    n = grid.dim
    d_best = 0.0
    for j in cube_range.cube_levels():
        w = 1 << (grid.res_log2 - j)
        sub = _strided(w, cap)
        for cube in cubes_at_level(grid, j):
            xs = _flat_indices(grid, [i * w + sub for i in cube.index])
            X = root[xs]
            i_cap = i_max
            while i_cap >= 1 and cube.side * 2.0 ** i_cap > grid.side:
                i_cap -= 1
            d0 = None
            for i in range(0, i_cap + 1):
                ax_full = cube.dilated_axis_indices(grid, 2.0 ** i)
                ax = [a[_strided(a.size, cap)] for a in ax_full]
                ys = _flat_indices(grid, ax)
                Y = iroot[ys]
                nrm = operator_norms(X[:, None] @ Y[None])
                if p > 1.0:
                    pp = conj_exponent(p)
                    # inner integral averaged over the dilated cube: the identity
                    # weight then has D_i = D_0 and dimension 0
                    inner = np.mean(nrm ** pp, axis=1)
                    val = float(np.mean(inner ** (p / pp)))
                else:
                    val = float(np.max(np.mean(nrm ** p, axis=0)))
                if i == 0:
                    d0 = val
                elif d0 and d0 > 0:
                    d_best = max(d_best, np.log2(val / d0) / i)
    return float(min(max(d_best, 0.0), n - 1e-9))


def ap_dimensions(W: MatrixWeight, p: float, cube_range: CubeRange, i_max: int = 4) -> tuple:
    """(d, d~, Delta): growth exponents of the cube-dilated Muckenhoupt quantities.

    d~ is computed for W^(-1/(p-1)) at exponent p' when p > 1 and is 0 otherwise;
    Delta = d/p + d~/p'.  Like ap_characteristic, the averages run over an evenly
    strided subsample of at most 64 points per axis of each (dilated) cube (8 in
    2D), so the exponents are sampled estimates.
    """
    d = _dimension_one_weight(W, p, cube_range, i_max)
    if p > 1.0:
        Wt = MatrixWeight(W.grid, W.power(-1.0 / (p - 1.0)))
        d_t = _dimension_one_weight(Wt, conj_exponent(p), cube_range, i_max)
    else:
        d_t = 0.0
    delta = d / p + dtilde_over_pprime(d_t, p)
    return (d, d_t, delta)


def strong_doubling_constant(family: ReducingFamily, p: float, d: float, d_tilde: float,
                             delta_cap: float, max_pairs: int = 20000, seed: int = 5) -> float:
    """max over cube pairs of ||A_Q A_R^-1|| over its strong-doubling envelope; past
    max_pairs pairs, over max_pairs seeded random pairs (a sampled lower bound)."""
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
        rng = np.random.default_rng(seed)
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
    """Assemble the full diagnostics bundle for one weight at one exponent."""
    ap = ap_characteristic(W, p, cube_range)
    beta = doubling_exponent(W, p)
    d, d_t, delta = ap_dimensions(W, p, cube_range, i_max)
    family = reducing_operators(W, p, cube_range)
    c1, c2 = sandwich_constants(W, p, family)
    margins = []
    for v in (p, p + 0.5):
        val = waq_integrability(W, p, family, v)
        if np.isfinite(val):
            margins.append(v - p)
    delta_w = max(margins) if margins else 0.0
    return WeightDiagnostics(ap, beta, d, d_t, delta, delta_w, (c1, c2))


# ---------------------------------------------------------------------------
# weight gallery


def identity_weight(grid: TorusGrid, m: int = 1) -> MatrixWeight:
    eye = np.eye(m)
    vals = np.broadcast_to(eye, grid.shape + (m, m)).copy()
    return MatrixWeight(grid, vals)


def constant_weight(grid: TorusGrid, M0: np.ndarray) -> MatrixWeight:
    M0 = np.asarray(M0, dtype=float)
    vals = np.broadcast_to(M0, grid.shape + M0.shape).copy()
    return MatrixWeight(grid, vals)


def power_weight(grid: TorusGrid, alpha: float) -> MatrixWeight:
    """Scalar |x|^alpha with torus distance to 0, clipped below at h^alpha."""
    coords = np.stack(grid.coords(), axis=-1)
    dist = grid.torus_dist(coords, np.zeros(grid.dim))
    w = np.maximum(dist, grid.spacing) ** alpha
    return MatrixWeight(grid, w[..., None, None])


def rotated_diag_weight(grid: TorusGrid, alpha: float = 0.5, angle: float = np.pi / 5) -> MatrixWeight:
    """Fixed rotation of diag(|x|^alpha, 1): two channels, same A_p behavior as the diagonal."""
    coords = np.stack(grid.coords(), axis=-1)
    dist = grid.torus_dist(coords, np.zeros(grid.dim))
    w = np.maximum(dist, grid.spacing) ** alpha
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    diag = np.zeros(grid.shape + (2, 2))
    diag[..., 0, 0] = w
    diag[..., 1, 1] = 1.0
    return MatrixWeight(grid, np.einsum("ab,...bc,dc->...ad", R, diag, R))


def oscillating_weight(grid: TorusGrid, kappa: float = 4.0, amp: float = 0.6) -> MatrixWeight:
    """R(x) diag(1, kappa) R(x)^T with slowly varying rotation angle."""
    x0 = grid.coords()[0]
    theta = amp * np.sin(2.0 * np.pi * x0 / grid.side)
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
