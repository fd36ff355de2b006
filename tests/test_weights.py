import numpy as np
import pytest

from bmtl import weights
from bmtl.dyadic import CubeRange, DyadicCube, cube_means, cubes_at_level, cubes_per_axis
from bmtl.grid import TorusGrid
from bmtl.weights import (MatrixWeight, ap_characteristic, ap_dimensions, aqw_sup,
                          constant_weight, diagnose, doubling_exponent, dtilde_over_pprime,
                          identity_weight, operator_norms, oscillating_weight, power_weight,
                          reducing_operators, rotated_diag_weight, sandwich_constants,
                          strong_doubling_constant, waq_integrability, weight_gallery)

GRID = TorusGrid(1, 2, 6)       # N = 256
RANGE = CubeRange(-2, 4)

# frozen outputs of the full-sum oracle below (N = 256 resp. 512, p = 2)
AP_CHAR_GOLD = {0.25: 1.064361514940828, 0.5: 1.2970370766828354, 0.75: 1.8565575248465507}
DOUBLING_GOLD_A1 = 1.4405725913859815
DIM_GOLD_A05 = 0.3647919878247875


def power_samples(N, K, alpha):
    L, h = 2.0 ** K, 2.0 ** K / N
    x = h * np.arange(N)
    d = np.minimum(x % L, L - (x % L))
    return np.maximum(d, h) ** alpha


def ap_char_oracle_1d(w, K, p):
    """Full double sums over every cube: the subsample-free reference."""
    N = len(w)
    J = int(np.log2(N)) - K
    best = 0.0
    for j in range(-K, J - 2 + 1):
        width = 2 ** (J - j)
        for c in range(2 ** (j + K)):
            seg = w[c * width:(c + 1) * width]
            r, ir = seg ** (1.0 / p), seg ** (-1.0 / p)
            prod = np.abs(r[:, None] * ir[None, :])
            if p > 1:
                pp = p / (p - 1.0)
                val = np.mean(np.mean(prod ** pp, axis=1) ** (p / pp))
            else:
                val = np.max(np.mean(prod ** p, axis=0))
            best = max(best, val)
    return best


def _svd_norms(mats):
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def test_operator_norms_2x2_match_svd():
    rng = np.random.default_rng(0)
    scale = 10.0 ** rng.uniform(-150, 150, size=(64, 64, 1, 1))
    random = rng.standard_normal((64, 64, 2, 2)) * scale
    t = np.linspace(0.0, 2.0 * np.pi, 7)
    rotations = np.stack([np.stack([np.cos(t), -np.sin(t)], -1),
                          np.stack([np.sin(t), np.cos(t)], -1)], -2)
    u, v = rng.standard_normal((2, 20, 2))
    special = np.concatenate([
        np.zeros((1, 2, 2)),
        np.einsum("ka,kb->kab", u, v) * 10.0 ** np.linspace(-300, 200, 20)[:, None, None],
        rotations * np.array([1e-300, 1.0, 3.0, 1e200, 1.0, 1.0, 7.0])[:, None, None],
        np.array([[[-2.0, 0.0], [0.0, -5.0]], [[-1e-300, 0.0], [0.0, -1e-300]],
                  [[-1e200, 1.0], [0.0, -1e200]], [[1e200, 1e200], [1e200, 1e200]]]),
    ])
    for mats in (random, special):
        got, want = operator_norms(mats), _svd_norms(mats)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_weight_kernels_match_svd_norms(monkeypatch):
    # every caller of operator_norms gives the SVD-form values, 1D and 2D
    cases = ((TorusGrid(1, 2, 5), CubeRange(-1, 2)), (TorusGrid(2, 1, 4), CubeRange(-1, 1)))

    def kernels():
        out = []
        for grid, rng_c in cases:
            W = oscillating_weight(grid)
            for p in (0.8, 1.5):
                fam = reducing_operators(W, p, rng_c)
                out += [ap_characteristic(W, p, rng_c), *ap_dimensions(W, p, rng_c, i_max=2),
                        waq_integrability(W, p, fam, p + 0.5), aqw_sup(W, p, fam),
                        strong_doubling_constant(fam, p, 0.6, 0.9, 0.75)]
        return np.array(out)

    fast = kernels()
    monkeypatch.setattr(weights, "operator_norms", _svd_norms)
    np.testing.assert_allclose(fast, kernels(), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# per-cube reference forms of the level-batched weight kernels: one DyadicCube,
# one window and one batch of explicit products per cube and dilation


def _ref_strided(npts, cap):
    return np.arange(0, npts, max(1, int(np.ceil(npts / cap))))


def _ref_dilated_axis_indices(grid, cube, factor):
    """Per-axis grid indices of the concentric cube of side factor*side, torus-wrapped."""
    N = grid.points_per_axis
    w = cube.points_per_axis(grid)
    half = factor * w / 2.0
    out = []
    for i in cube.index:
        c = i * w + w / 2.0
        idx = np.arange(int(np.ceil(c - half - 1e-9)), int(np.floor(c + half - 1e-9)) + 1)
        out.append(np.arange(N) if idx.size >= N else np.unique(idx % N))
    return out


def _ref_flat(grid, axis_lists):
    if grid.dim == 1:
        return np.asarray(axis_lists[0])
    a, b = axis_lists
    return (a[:, None] * grid.points_per_axis + b[None, :]).ravel()


def _ref_muckenhoupt(X, Y, p):
    nrm = operator_norms(X[:, None] @ Y[None])      # (x, y)
    if p > 1.0:
        pp = p / (p - 1.0)
        return float(np.mean(np.mean(nrm ** pp, axis=1) ** (p / pp)))
    return float(np.max(np.mean(nrm ** p, axis=0)))


def _ref_roots(W, p):
    m = W.channels
    return W.power(1.0 / p).reshape(-1, m, m), W.power(-1.0 / p).reshape(-1, m, m)


def _ref_ap_characteristic(W, p, cube_range):
    grid = W.grid
    root, iroot = _ref_roots(W, p)
    cap = 64 if grid.dim == 1 else 8
    best = 0.0
    for j in cube_range.cube_levels():
        w = 1 << (grid.res_log2 - j)
        sub = _ref_strided(w, cap)
        for cube in cubes_at_level(grid, j):
            pts = _ref_flat(grid, [i * w + sub for i in cube.index])
            best = max(best, _ref_muckenhoupt(root[pts], iroot[pts], p))
    return best


def _ref_dimension(W, p, cube_range, i_max):
    grid = W.grid
    root, iroot = _ref_roots(W, p)
    cap = 64 if grid.dim == 1 else 8
    d_best = 0.0
    for j in cube_range.cube_levels():
        w = 1 << (grid.res_log2 - j)
        sub = _ref_strided(w, cap)
        for cube in cubes_at_level(grid, j):
            X = root[_ref_flat(grid, [i * w + sub for i in cube.index])]
            i_cap = i_max
            while i_cap >= 1 and cube.side * 2.0 ** i_cap > grid.side:
                i_cap -= 1
            for i in range(i_cap + 1):
                ax = [a[_ref_strided(a.size, cap)]
                      for a in _ref_dilated_axis_indices(grid, cube, 2.0 ** i)]
                val = _ref_muckenhoupt(X, iroot[_ref_flat(grid, ax)], p)
                if i == 0:
                    d0 = val
                elif d0 > 0:
                    d_best = max(d_best, np.log2(val / d0) / i)
    return float(min(max(d_best, 0.0), grid.dim - 1e-9))


def _ref_ap_dimensions(W, p, cube_range, i_max):
    d = _ref_dimension(W, p, cube_range, i_max)
    d_t = 0.0
    if p > 1.0:
        Wt = MatrixWeight(W.grid, W.power(-1.0 / (p - 1.0)))
        d_t = _ref_dimension(Wt, p / (p - 1.0), cube_range, i_max)
    return d, d_t


def _ref_magnitudes(W, p, dirs):
    return np.linalg.norm(np.einsum("...ab,db->...da", W.power(1.0 / p), dirs), axis=-1) ** p


def _ref_doubling(W, p, samples=200, seed=3, n_dirs=16):
    grid = W.grid
    axes = tuple(range(grid.dim))
    rng = np.random.default_rng(seed)
    mags = _ref_magnitudes(W, p, weights._unit_directions(W.channels, n_dirs))
    levels = list(range(1 - grid.side_log2, grid.res_log2 - 1))
    best = 0.0
    for _ in range(samples):
        j = levels[rng.integers(len(levels))]
        count = cubes_per_axis(grid, j)
        cube = DyadicCube(j, tuple(int(rng.integers(count)) for _ in range(grid.dim)))
        inner = mags[cube.grid_slices(grid)].sum(axis=axes)
        outer = mags[np.ix_(*_ref_dilated_axis_indices(grid, cube, 2.0))].sum(axis=axes)
        best = max(best, float(np.max(outer / inner)))
    return float(np.log2(best))


def _ref_sandwich(W, p, family, n_dirs=64, seed=11):
    m = W.channels
    rng = np.random.default_rng(seed)
    if m == 1:
        dirs = np.ones((1, 1))
    else:
        v = rng.standard_normal((n_dirs, m))
        dirs = v / np.linalg.norm(v, axis=1, keepdims=True)
    mags = _ref_magnitudes(W, p, dirs)
    ratios = []
    for j in family.cube_range.cube_levels():
        rho = cube_means(W.grid, mags, j).reshape(-1, len(dirs)) ** (1.0 / p)
        A = family.level_array(j).reshape(-1, m, m)
        ratios.append(rho / np.linalg.norm(np.einsum("cab,db->cda", A, dirs), axis=-1))
    ratios = np.concatenate(ratios)
    return float(np.min(ratios)), float(np.max(ratios))


def _smooth_weight(grid, m, seed):
    """B(x) B(x)^T + 0.3 I with B's entries random low-frequency trigonometric
    polynomials: a non-commuting weight whose condition number stays below ~25."""
    rng = np.random.default_rng(seed)
    x = np.stack(grid.coords(), axis=-1) * (2.0 * np.pi / grid.side)
    freq = rng.choice([-2, -1, 1, 2], size=(m, m, 2, grid.dim))
    amp = rng.uniform(-1.0, 1.0, size=(m, m, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(m, m, 2))
    B = np.einsum("abt,...abt->...ab", amp, np.cos(np.einsum("...n,abtn->...abt", x, freq) + phase))
    return MatrixWeight(grid, B @ np.swapaxes(B, -1, -2) + 0.3 * np.eye(m))


# every (m, p) in 1D; in 2D, where the reference takes about 1 s per (m, p), each
# m once and each p once
_ALL_MP = [(m, p) for m in (1, 2, 3) for p in (0.8, 1.5, 4.0)]


@pytest.mark.parametrize("grid, cube_range, i_max, cases", [
    (TorusGrid(1, 2, 6), CubeRange(-2, 2), 2, _ALL_MP),                      # N = 256
    (TorusGrid(2, 1, 4), CubeRange(-1, 1), 2, [(1, 4.0), (2, 0.8), (3, 1.5)]),  # 32^2
    # 32^2 with L = 4: the level-2 windows at i >= 3 are not translates of one
    # key set, so they keep their own columns of the table
    (TorusGrid(2, 2, 3), CubeRange(0, 2), 4, [(2, 0.8), (2, 1.5)]),
])
def test_weight_kernels_match_per_cube_reference(grid, cube_range, i_max, cases):
    for m, p in cases:
        W = _smooth_weight(grid, m, seed=m)
        label = (grid.dim, m, p)
        np.testing.assert_allclose(ap_characteristic(W, p, cube_range),
                                   _ref_ap_characteristic(W, p, cube_range),
                                   rtol=1e-12, atol=0.0, err_msg=str(label))
        d, d_t, _ = ap_dimensions(W, p, cube_range, i_max)
        np.testing.assert_allclose((d, d_t), _ref_ap_dimensions(W, p, cube_range, i_max),
                                   rtol=1e-12, atol=0.0, err_msg=str(label))
        np.testing.assert_allclose(doubling_exponent(W, p), _ref_doubling(W, p),
                                   rtol=1e-12, atol=0.0, err_msg=str(label))
        dirs = weights._unit_directions(m, 16)
        np.testing.assert_allclose(weights._direction_magnitudes(W, p, dirs),
                                   _ref_magnitudes(W, p, dirs),
                                   rtol=1e-12, atol=0.0, err_msg=str(label))
        fam = reducing_operators(W, p, cube_range)
        np.testing.assert_allclose(sandwich_constants(W, p, fam), _ref_sandwich(W, p, fam),
                                   rtol=1e-12, atol=0.0, err_msg=str(label))


def test_unmerged_windows_keep_their_own_columns():
    # the 32^2, L = 4 case above: at level 2 the shared columns hold each grid
    # point once, and the windows at i = 3, 4 repeat some of them in own columns
    grid = TorusGrid(2, 2, 3)
    ys, cols = weights._level_columns(grid, 2, 4, 8)
    assert all(len(np.unique(row)) < ys.shape[1] for row in ys)
    shared = cols[0].max() + 1
    assert [c.min() >= shared for c in cols] == [False, False, False, True, True]
    for i, c in enumerate(cols):
        want = weights._window_samples(grid, 2, 2.0 ** i, 8)
        np.testing.assert_array_equal(np.sort(ys[:, c], axis=1), np.sort(want, axis=1))
    # every D_i of the level against its per-cube reference value
    W = _smooth_weight(grid, 2, seed=2)
    for p in (0.8, 1.5):
        root, iroot = _ref_roots(W, p)
        [levels] = weights._muckenhoupt_levels(
            grid, [(W.power(1.0 / p), W.power(-1.0 / p), p)], CubeRange(2, 2), 4)
        for c, cube in enumerate(cubes_at_level(grid, 2)):
            X = root[_ref_flat(grid, [2 * i + np.arange(2) for i in cube.index])]
            for i in range(5):
                ax = [a[_ref_strided(a.size, 8)]
                      for a in _ref_dilated_axis_indices(grid, cube, 2.0 ** i)]
                np.testing.assert_allclose(levels[2][i, c],
                                           _ref_muckenhoupt(X, iroot[_ref_flat(grid, ax)], p),
                                           rtol=1e-12, atol=0.0, err_msg=str((p, c, i)))


def test_product_norms_match_svd_of_products():
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        X = rng.standard_normal((5, 7, m, m)) * 10.0 ** rng.uniform(-50, 50, size=(5, 7, 1, 1))
        Y = rng.standard_normal((5, 9, m, m)) * 10.0 ** rng.uniform(-50, 50, size=(5, 9, 1, 1))
        got = weights._product_norms(X, Y)
        assert got.shape == (5, 7, 9)
        np.testing.assert_allclose(got, _svd_norms(X[:, :, None] @ Y[:, None]),
                                   rtol=1e-12, atol=0.0, err_msg=str(m))


def test_identity_characteristic_is_one():
    for p in (0.8, 1.0, 2.0, 4.0):
        assert ap_characteristic(identity_weight(GRID, 2), p, RANGE) == pytest.approx(1.0, abs=1e-12)


def test_power_weight_characteristic_golden():
    # oracle reproducibility, then the strided implementation within subsampling slack
    w = power_samples(256, 2, 0.5)
    assert ap_char_oracle_1d(w, 2, 2.0) == pytest.approx(AP_CHAR_GOLD[0.5], rel=1e-12)
    vals = []
    for alpha, gold in AP_CHAR_GOLD.items():
        val = ap_characteristic(power_weight(GRID, alpha), 2.0, RANGE)
        assert val == pytest.approx(gold, rel=0.05)
        vals.append(val)
    assert vals[0] < vals[1] < vals[2]


def test_rotation_invariance():
    diag = power_weight(GRID, 0.5)
    base = np.zeros(GRID.shape + (2, 2))
    base[..., 0, 0] = diag.values[..., 0, 0]
    base[..., 1, 1] = 1.0
    plain = MatrixWeight(GRID, base)
    rotated = rotated_diag_weight(GRID, 0.5)
    a = ap_characteristic(plain, 2.0, RANGE)
    b = ap_characteristic(rotated, 2.0, RANGE)
    assert a == pytest.approx(b, rel=1e-10)


def test_degenerate_weight_rejected():
    vals = np.zeros(GRID.shape + (1, 1))
    with pytest.raises(ValueError):
        MatrixWeight(GRID, vals)


def test_numerically_singular_weight_refused_by_every_muckenhoupt_kernel():
    # W^(-1/p) of a weight with eigenvalues below EIG_FLOOR clips, and the growth
    # exponents came out as ~3e-16 where the unscaled weight gives ~(0.62, 1, 0.75)
    grid, cube_range = TorusGrid(1, 2, 6), CubeRange(-1, 2)
    W = MatrixWeight(grid, 1e-12 * oscillating_weight(grid).values)
    for kernel in (ap_characteristic, ap_dimensions, diagnose):
        with pytest.raises(ValueError, match="numerically singular"):
            kernel(W, 1.5, cube_range)
    d, d_t, delta = ap_dimensions(oscillating_weight(grid), 1.5, cube_range)
    assert d > 0.5 and d_t > 0.5 and delta > 0.5


def test_constant_weight_reducing_exact():
    M0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    W = constant_weight(GRID, M0)
    evals, evecs = np.linalg.eigh(M0)
    for p in (1.0, 2.0, 4.0):
        root = (evecs * evals ** (1.0 / p)) @ evecs.T
        for method in ("second-moment", "ellipsoid-fit"):
            fam = reducing_operators(W, p, CubeRange(-1, 2), method=method)
            for A in fam.arrays.values():
                assert np.max(np.abs(A - root)) < 1e-10


def test_reducing_rejects_non_spd_matrix():
    W = constant_weight(GRID, np.diag([1e-30, 1.0]))      # A_Q = diag(1e-15, 1)
    with pytest.raises(ValueError, match="non-SPD reducing matrix at level"):
        reducing_operators(W, 2.0, RANGE)


def test_reducing_family_names_a_missing_level():
    fam = reducing_operators(constant_weight(GRID, np.eye(2)), 2.0, CubeRange(-1, 2))
    assert fam.level_array(2).shape[-2:] == (2, 2)
    for j in (-2, 3):
        with pytest.raises(ValueError, match=rf"no level {j}: its window is \[-1, 2\]"):
            fam.level_array(j)


def test_second_moment_exact_at_p2():
    for name, W in weight_gallery(GRID, 2).items():
        fam = reducing_operators(W, 2.0, RANGE)
        c1, c2 = sandwich_constants(W, 2.0, fam, n_dirs=64)
        assert c2 / c1 <= 1.0 + 1e-8, name


def test_two_valued_weight_hand_computed():
    # w = 1 on half the cube, 16 on the other half; p = 4
    g = TorusGrid(1, 0, 4)      # one unit cube [0,1), 16 samples
    vals = np.where(np.arange(16) < 8, 1.0, 16.0)[:, None, None]
    W = MatrixWeight(g, vals)
    rho_expect = ((1.0 + 16.0) / 2.0) ** 0.25
    second = reducing_operators(W, 4.0, CubeRange(0, 0))
    A = second.level_array(0)[0]
    assert A[0, 0] == pytest.approx(((1.0 + 4.0) / 2.0) ** 0.5, rel=1e-12)
    fitted = reducing_operators(W, 4.0, CubeRange(0, 0), method="ellipsoid-fit")
    G = fitted.level_array(0)[0]
    assert G[0, 0] == pytest.approx(rho_expect, abs=1e-6)


def test_sandwich_identity():
    W = identity_weight(GRID, 2)
    fam = reducing_operators(W, 3.0, RANGE)
    c1, c2 = sandwich_constants(W, 3.0, fam)
    assert c1 == pytest.approx(1.0, abs=1e-12)
    assert c2 == pytest.approx(1.0, abs=1e-12)


def test_ellipsoid_fit_no_worse_than_second_moment():
    W = power_weight(GRID, 0.5)
    small = CubeRange(-1, 2)
    for p in (1.0, 4.0):
        fam2 = reducing_operators(W, p, small)
        fame = reducing_operators(W, p, small, method="ellipsoid-fit")
        c1a, c2a = sandwich_constants(W, p, fam2, n_dirs=128)
        c1b, c2b = sandwich_constants(W, p, fame, n_dirs=128)
        assert np.isfinite(c2a / c1a)
        assert c2b / c1b <= c2a / c1a * (1.0 + 1e-9)


def test_sandwich_brackets_one_after_rescale():
    W = oscillating_weight(GRID)
    for p in (1.0, 2.0, 4.0):
        fam = reducing_operators(W, p, RANGE)
        c1, c2 = sandwich_constants(W, p, fam, n_dirs=64)
        scale = np.sqrt(c1 * c2)
        c1r, c2r = c1 / scale, c2 / scale
        assert c1r <= 1.0 + 1e-8 and c2r >= 1.0 - 1e-8


def test_doubling_identity_exact():
    assert doubling_exponent(identity_weight(GRID, 1), 2.0) == pytest.approx(1.0, abs=1e-12)
    g2 = TorusGrid(2, 1, 3)
    assert doubling_exponent(identity_weight(g2, 2), 2.0) == pytest.approx(2.0, abs=1e-12)


def test_doubling_never_below_dimension():
    for name, W in weight_gallery(GRID, 2).items():
        assert doubling_exponent(W, 2.0, samples=100) >= GRID.dim - 0.01, name


def test_doubling_power_golden():
    g = TorusGrid(1, 2, 7)    # N = 512
    beta = doubling_exponent(power_weight(g, 1.0), 2.0, samples=400)
    assert beta == pytest.approx(DOUBLING_GOLD_A1, rel=1e-9)
    assert beta >= 1.0


def test_dimensions_identity_zero():
    d, dt, delta = ap_dimensions(identity_weight(GRID, 2), 2.0, RANGE)
    assert (d, dt, delta) == (0.0, 0.0, 0.0)


def test_dimensions_dtilde_zero_for_small_p():
    d, dt, delta = ap_dimensions(power_weight(GRID, 0.25), 0.7, CubeRange(-1, 2))
    assert dt == 0.0
    assert delta == pytest.approx(d / 0.7)


def test_dimensions_of_ill_conditioned_constant_weight():
    # min eigenvalue 1e-6 passes reject_if_degenerate, while W^(-1/(p-1)) = W^-2 has
    # entries near 1e12, whose rounding exceeds MatrixWeight's 1e-10 symmetry check
    t = 0.3
    R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    W = constant_weight(GRID, R @ np.diag([1e-6, 1.0]) @ R.T)
    assert ap_dimensions(W, 1.5, CubeRange(-1, 2)) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("grid, cube_range", [(GRID, RANGE), (TorusGrid(2, 2, 3), CubeRange(0, 2))])
def test_constant_weights_give_exact_zeros(grid, cube_range):
    # the centred y-averages make D_i == D_0 bit for bit for every constant weight,
    # also where the 2D level-2 windows at i >= 3 keep their own columns
    t = 0.3
    R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    gallery = {"identity": identity_weight(grid, 2),
               "constant": constant_weight(grid, np.array([[2.0, 0.5], [0.5, 1.0]])),
               "ill-conditioned": constant_weight(grid, R @ np.diag([1e-6, 1.0]) @ R.T)}
    for name, W in gallery.items():
        for p in (0.8, 1.5, 4.0):
            assert ap_dimensions(W, p, cube_range, i_max=4) == (0.0, 0.0, 0.0), (name, p)
            for levels in weights._muckenhoupt_tables(W, p, cube_range, 4):
                for j, D in levels.items():
                    assert np.all(D == D[0]), (name, p, j)


def _wide_range_weight(grid):
    """s(x) R(x) diag(1, 2) R(x)^T, exactly symmetric, with s from 1e-10 to about
    1e70 on a log scale and R a slow rotation: an eigenvalue contrast near 1e80,
    so the products W^2(x) W^-2(y) at p = 0.5 reach 1e+-160."""
    x = grid.coords()[0] / grid.side
    s = 10.0 ** (80.0 * x * (1.0 - x) * 4.0 - 10.0)
    c, n = np.cos(0.7 * np.sin(2.0 * np.pi * x)), np.sin(0.7 * np.sin(2.0 * np.pi * x))
    vals = np.zeros(grid.shape + (2, 2))
    vals[..., 0, 0] = s * (c * c + 2.0 * n * n)
    vals[..., 1, 1] = s * (n * n + 2.0 * c * c)
    vals[..., 0, 1] = vals[..., 1, 0] = -s * c * n
    return MatrixWeight(grid, vals)


def test_squared_form_range():
    # products beyond the squared form's range take the hypot form, so the kernel
    # stays finite and matches the per-cube references
    W = _wide_range_weight(GRID)
    assert W.min_eig >= weights.EIG_FLOOR and np.max(W._eigvals) > 1e69
    norms = weights._product_norms(W.power(2.0)[None, ::4], W.power(-2.0)[None, ::4])
    assert np.max(norms) > 1e150 and np.min(norms) < 1e-150
    cube_range = CubeRange(-2, 2)
    ap = ap_characteristic(W, 0.5, cube_range)
    d, d_t, delta = ap_dimensions(W, 0.5, cube_range, i_max=2)
    assert np.all(np.isfinite((ap, d, d_t, delta)))
    np.testing.assert_allclose(ap, _ref_ap_characteristic(W, 0.5, cube_range), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose((d, d_t), _ref_ap_dimensions(W, 0.5, cube_range, 2),
                               rtol=1e-12, atol=0.0)
    # scaling W scales its roots, not the products: c = 1e200 on W, and c = 1e-200
    # on 1e200 W (1e-200 W itself would fall below EIG_FLOOR)
    base = _smooth_weight(GRID, 2, seed=2)
    big = MatrixWeight(GRID, 1e200 * base.values)
    for p in (0.8, 1.5):
        for V, c in ((base, 1e200), (big, 1e-200)):
            np.testing.assert_allclose(ap_characteristic(MatrixWeight(GRID, c * V.values), p, RANGE),
                                       ap_characteristic(V, p, RANGE), rtol=1e-12, atol=0.0)


def test_dimensions_power_golden():
    g = TorusGrid(1, 2, 7)
    d, dt, delta = ap_dimensions(power_weight(g, 0.5), 2.0, CubeRange(-2, 4), i_max=3)
    assert 0.0 < d < 1.0
    assert d == pytest.approx(DIM_GOLD_A05, rel=0.10)
    assert delta == pytest.approx(d / 2.0 + dt / 2.0, rel=1e-12)


def test_strong_doubling_constant_one_for_constant():
    for W in (identity_weight(GRID, 2), constant_weight(GRID, np.array([[2.0, 0.3], [0.3, 1.5]]))):
        fam = reducing_operators(W, 2.0, CubeRange(-1, 2))
        c = strong_doubling_constant(fam, 2.0, 0.0, 0.0, 0.0)
        assert c == pytest.approx(1.0, rel=1e-10)


def _strong_doubling_by_pairs(family, p, d, d_tilde, delta_cap, max_pairs, seed=5):
    """Direct per-pair form of strong_doubling_constant: the same pairs, in order."""
    grid = family.grid
    cubes = [c for j in family.cube_range.cube_levels() for c in cubes_at_level(grid, j)]
    n = len(cubes)
    if n * n <= max_pairs:
        pairs = [(q, r) for q in cubes for r in cubes]
    else:
        rng = np.random.default_rng(seed)
        qi, ri = rng.integers(n, size=max_pairs), rng.integers(n, size=max_pairs)
        pairs = [(cubes[a], cubes[b]) for a, b in zip(qi, ri)]
    dtp = dtilde_over_pprime(d_tilde, p)
    best = 0.0
    for q, r in pairs:
        nrm = np.linalg.norm(family.level_array(q.level)[q.index]
                             @ np.linalg.inv(family.level_array(r.level)[r.index]), 2)
        envelope = max((r.side / q.side) ** (d / p), (q.side / r.side) ** dtp)
        envelope *= (1.0 + grid.torus_dist(q.center, r.center) / max(q.side, r.side)) ** delta_cap
        best = max(best, nrm / envelope)
    return best


def test_strong_doubling_matches_pair_loop():
    # batched form against the per-pair oracle, all pairs and sampled pairs, 1D and 2D
    for grid, rng_c in ((GRID, RANGE), (TorusGrid(2, 1, 4), CubeRange(-1, 2))):
        fam = reducing_operators(oscillating_weight(grid), 1.5, rng_c)
        for max_pairs in (20000, 300):
            got = strong_doubling_constant(fam, 1.5, 0.6, 0.9, 0.75, max_pairs=max_pairs)
            want = _strong_doubling_by_pairs(fam, 1.5, 0.6, 0.9, 0.75, max_pairs)
            assert got == pytest.approx(want, rel=1e-13)


def test_strong_doubling_stable_under_widening():
    W = power_weight(GRID, 0.5)
    p = 2.0
    d, dt, delta = ap_dimensions(W, p, RANGE)
    small = reducing_operators(W, p, CubeRange(-1, 3))
    wide = reducing_operators(W, p, CubeRange(-2, 4))
    a = strong_doubling_constant(small, p, d, dt, delta)
    b = strong_doubling_constant(wide, p, d, dt, delta)
    assert abs(b - a) <= 0.10 * max(a, b)


def test_waq_integrability_finite_and_stable():
    # reducing-operator averages stay bounded for v = p and v = p + 0.5
    for name, W in weight_gallery(GRID, 2).items():
        for p in (1.0, 2.0):
            small = reducing_operators(W, p, CubeRange(-1, 3))
            wide = reducing_operators(W, p, CubeRange(-2, 4))
            for v in (p, p + 0.5):
                a = waq_integrability(W, p, small, v)
                b = waq_integrability(W, p, wide, v)
                assert np.isfinite(a) and np.isfinite(b), name
                assert abs(b - a) <= 0.25 * max(a, b), (name, p, v)


def test_aqw_sup_finite_small_p():
    for name, W in weight_gallery(GRID, 2).items():
        fam = reducing_operators(W, 0.8, CubeRange(-1, 3))
        assert np.isfinite(aqw_sup(W, 0.8, fam)), name


def test_diagnose_bundle():
    diag = diagnose(power_weight(GRID, 0.5), 2.0, CubeRange(-1, 3))
    assert diag.ap_char >= 1.0
    assert diag.beta >= GRID.dim - 0.01
    assert 0.0 <= diag.d < GRID.dim
    assert diag.delta_cap == pytest.approx(diag.d / 2.0 + diag.d_tilde / 2.0)
    assert diag.delta_w == pytest.approx(0.5)
    d = diag.as_dict()
    assert set(d) == {"ap_char", "beta", "d", "d_tilde", "delta_cap", "delta_w",
                      "sandwich_c1", "sandwich_c2"}
    # the bundle shares one table between ap_char and d; the standalone functions
    # each build their own (m = 3 on small grids: its products go through the SVD)
    small_1d, grid_2d, small_2d = TorusGrid(1, 1, 4), TorusGrid(2, 1, 4), TorusGrid(2, 1, 3)
    for grid, cube_range, m, p in ((GRID, CubeRange(-1, 3), 2, 0.8),
                                   (GRID, CubeRange(-1, 3), 2, 1.5),
                                   (small_1d, CubeRange(-1, 2), 3, 3.0),
                                   (grid_2d, CubeRange(-1, 1), 2, 1.5),
                                   (small_2d, CubeRange(-1, 1), 3, 0.8)):
        W = _smooth_weight(grid, m, seed=m)
        diag = diagnose(W, p, cube_range, i_max=2)
        np.testing.assert_allclose(
            (diag.ap_char, diag.d, diag.d_tilde, diag.delta_cap),
            (ap_characteristic(W, p, cube_range), *ap_dimensions(W, p, cube_range, i_max=2)),
            rtol=1e-12, atol=0.0, err_msg=str((grid.dim, m, p)))


def _sym_power_by_einsum(vals, vecs, t):
    """The three-operand einsum form of V diag(vals^t) V^T."""
    return np.einsum("...ij,...j,...kj->...ik", vecs, vals ** t, vecs)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sym_power_matches_einsum_oracle(m):
    # bit for bit at t in {1/p, -1/p, 2/p, 0.5, 1}, with the inverse powers' eigenvalues
    # clipped at EIG_FLOOR; the draws include diagonal matrices (zero eigenvector
    # entries) and eigenvalues below the floor
    rng = np.random.default_rng(m)
    a = rng.standard_normal((300, m, m))
    spd = a @ np.swapaxes(a, -1, -2)
    diag = np.zeros((300, m, m))
    diag[:, range(m), range(m)] = rng.uniform(1e-13, 2.0, (300, m))
    for mats in (spd, 1e-11 * spd, diag, spd.reshape(20, 15, m, m)):
        vals, vecs = np.linalg.eigh(mats)
        for p in (0.8, 1.5):
            for t in (1 / p, -1 / p, 2 / p, 0.5, 1.0):
                v = np.maximum(vals, weights.EIG_FLOOR) if t < 0 else vals
                got, want = weights.sym_power(v, vecs, t), _sym_power_by_einsum(v, vecs, t)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape, (p, t)


@pytest.mark.parametrize("m", [1, 2])
def test_matrix_weight_power_matches_einsum_oracle(m):
    grid = TorusGrid(2, 1, 3)
    for name, W in weight_gallery(grid, m).items():
        vals, vecs = np.linalg.eigh(W.values)
        for p in (0.8, 1.5):
            for t in (1 / p, -1 / p, 2 / p, 0.5, 1.0):
                v = np.maximum(vals, weights.EIG_FLOOR) if t < 0 else vals
                want = _sym_power_by_einsum(v, vecs, t)
                assert np.array_equal(W.power(t), want), (name, t)
                assert W.power(t).tobytes() == want.tobytes(), (name, t)
