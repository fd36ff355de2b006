import numpy as np
import pytest

from bmtl import weights
from bmtl.dyadic import CubeRange, DyadicCube, cubes_at_level
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
    A = second[DyadicCube(0, (0,))]
    assert A[0, 0] == pytest.approx(((1.0 + 4.0) / 2.0) ** 0.5, rel=1e-12)
    fitted = reducing_operators(W, 4.0, CubeRange(0, 0), method="ellipsoid-fit")
    G = fitted[DyadicCube(0, (0,))]
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
        nrm = np.linalg.norm(family[q] @ np.linalg.inv(family[r]), 2)
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
