"""Two-dimensional exercises of the dimension-generic code paths."""

import ast
from pathlib import Path

import numpy as np
import pytest

import bmtl
from bmtl.coeff import (ADProfile, ad_apply, ad_random_operator, ad_weight,
                        molecule_check, MoleculeParams, phi_synthesis, phi_transform)
from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import CubeRange, DyadicCube, cubes_at_level, cubes_per_axis
from bmtl.fields import SampledField, l2_norm, scalar_field
from bmtl.grid import TorusGrid
from bmtl.harness import band_limited_noise
from bmtl.lpa import make_admissible_pair, make_inhom_partition
from bmtl.operators import SymbolGrid, cz_kernel_check, paradecompose
from bmtl.spaces import (CubewiseWeighting, PointwiseWeighting, SpaceParams,
                         averaging, bm_array_norm, glambda_norm, hl_maximal,
                         lusin_norm, seq_norm, tl_norm)
from bmtl.weights import (MatrixWeight, ap_characteristic, ap_dimensions, aqw_sup,
                          identity_weight, oscillating_weight, power_weight,
                          reducing_operators, sandwich_constants, waq_integrability)

G2 = TorusGrid(2, 1, 5)            # L = 2, N = 64 per axis
R2 = CubeRange(-1, 3)
PAIR = make_admissible_pair()


def bm_oracle_2d(vals, K, p, t, r, j_min, j_max):
    N = vals.shape[0]
    J = int(np.log2(N)) - K
    cell = (2.0 ** (-J)) ** 2
    terms = []
    for j in range(j_min, j_max + 1):
        w = 2 ** (J - j)
        for c1 in range(2 ** (j + K)):
            for c2 in range(2 ** (j + K)):
                block = vals[c1 * w:(c1 + 1) * w, c2 * w:(c2 + 1) * w]
                lp = (np.sum(block ** p) * cell) ** (1.0 / p)
                terms.append((2.0 ** (-2 * j)) ** (1.0 / t - 1.0 / p) * lp)
    terms = np.array(terms)
    return float(np.max(terms)) if np.isinf(r) else float(np.sum(terms ** r) ** (1.0 / r))


def test_bm_matches_2d_oracle():
    rng = np.random.default_rng(0)
    vals = np.abs(rng.standard_normal(G2.shape))
    for p, t, r in [(1.5, 2.0, np.inf), (1.0, 1.5, 2.5)]:
        mine = bm_array_norm(G2, vals, p, t, r, R2.cube_levels())
        ref = bm_oracle_2d(vals, 1, p, t, r, -1, 3)
        assert mine == pytest.approx(ref, rel=1e-12)


def test_weights_diagnostics_2d():
    assert ap_characteristic(identity_weight(G2, 2), 2.0, R2) == pytest.approx(1.0, abs=1e-12)
    W = power_weight(G2, 0.5)
    val = ap_characteristic(W, 2.0, R2)
    assert np.isfinite(val) and val > 1.0
    d, dt, delta = ap_dimensions(identity_weight(G2, 1), 2.0, R2, i_max=2)
    assert (d, dt, delta) == (0.0, 0.0, 0.0)
    d, dt, delta = ap_dimensions(W, 2.0, R2, i_max=2)
    assert 0.0 <= d < 2.0 and np.isfinite(delta)


def test_reducing_and_integrability_2d():
    W = oscillating_weight(G2)
    fam = reducing_operators(W, 2.0, R2)
    c1, c2 = sandwich_constants(W, 2.0, fam, n_dirs=128)
    assert c2 / c1 <= 1.0 + 1e-8
    fam_e = reducing_operators(W, 4.0, R2, method="ellipsoid-fit")
    c1e, c2e = sandwich_constants(W, 4.0, fam_e, n_dirs=128)
    c1s, c2s = sandwich_constants(W, 4.0, reducing_operators(W, 4.0, R2), n_dirs=128)
    assert c2e / c1e <= c2s / c1s * (1.0 + 1e-9)
    for v in (2.0, 2.5):
        assert np.isfinite(waq_integrability(W, 2.0, fam, v))
    fam_small = reducing_operators(W, 0.8, R2)
    assert np.isfinite(aqw_sup(W, 0.8, fam_small))


def test_phi_round_trip_2d():
    rng = np.random.default_rng(1)
    f = band_limited_noise(G2, 2, 0.3, 1.8, rng)   # inside the covered annuli
    coeffs = phi_transform(f, PAIR, R2)
    rec = phi_synthesis(coeffs, PAIR)
    err = l2_norm(SampledField(G2, rec.values - f.values)) / l2_norm(f)
    assert err < 1e-12


def test_phi_round_trip_inhomogeneous_2d():
    part = make_inhom_partition()
    rng = np.random.default_rng(2)
    f = band_limited_noise(G2, 1, 0.0, 1.8, rng)
    cr = CubeRange(0, 3, inhomogeneous=True)
    rec = phi_synthesis(phi_transform(f, part, cr), part)
    err = l2_norm(SampledField(G2, rec.values - f.values)) / l2_norm(f)
    assert err < 1e-12


def test_seq_norm_2d_pointwise_cubewise_and_masks():
    rng = np.random.default_rng(3)
    W = oscillating_weight(G2)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    entries = {c: rng.standard_normal(2) for c in cubes_at_level(G2, 1)}
    coeffs = CoeffSequence(G2, entries, 2)
    pw = PointwiseWeighting(W, sp.p)
    cw = CubewiseWeighting(reducing_operators(W, sp.p, R2))
    a = seq_norm(coeffs, pw, sp, R2).value
    b = seq_norm(coeffs, cw, sp, R2).value
    assert a > 0 and b > 0 and max(a / b, b / a) < 10.0
    w = 1 << (G2.res_log2 - 1)
    m = np.zeros((w, w), dtype=bool)
    m[::2, :] = True
    masks = {1: np.tile(m, (cubes_per_axis(G2, 1),) * 2)}
    sparse = seq_norm(coeffs, pw, sp, R2, masks=masks).value
    assert sparse <= a * (1 + 1e-12) and a <= 50.0 * sparse


def test_lusin_glambda_2d_paths():
    rng = np.random.default_rng(4)
    W = identity_weight(G2, 2)
    f = band_limited_noise(G2, 2, 0.5, 2.0, rng)
    sp2 = SpaceParams(0.3, 1.2, 2.0, 1.5, np.inf)
    w = PointwiseWeighting(W, sp2.p)
    lus = lusin_norm(f, w, sp2, PAIR, R2).value
    fast = glambda_norm(f, w, sp2, 2.5, PAIR, R2).value
    assert fast >= lus * 2.0 ** (-2.5 * G2.dim) * (1 - 1e-10)
    sp_gen = SpaceParams(0.3, 1.2, 1.7, 1.5, np.inf)
    dense = glambda_norm(f, w, sp_gen, 2.5, PAIR, R2).value
    assert np.isfinite(dense) and dense > 0
    tl = tl_norm(f, w, sp2, PAIR, R2).value
    assert max(lus / tl, tl / lus) <= 10.0


def test_hl_maximal_2d():
    g = scalar_field(G2, np.full(G2.shape, 0.7))
    assert np.max(np.abs(hl_maximal(g).scalar() - 0.7)) < 1e-12
    rng = np.random.default_rng(5)
    vals = np.abs(band_limited_noise(G2, 1, 0.3, 2.0, rng).values[..., 0])
    m = hl_maximal(scalar_field(G2, vals), eta=1.5).scalar()
    assert np.all(m >= vals - 1e-12)


def test_averaging_2d():
    rng = np.random.default_rng(6)
    g = scalar_field(G2, rng.standard_normal(G2.shape))
    once = averaging(g, 1)
    assert np.max(np.abs(averaging(once, 1).scalar() - once.scalar())) < 1e-12
    for c in cubes_at_level(G2, 1):
        block = g.scalar()[c.grid_slices(G2)]
        assert once.scalar()[c.grid_slices(G2)][0, 0] == pytest.approx(block.mean())


def test_riesz_kernel_check_2d():
    coords = np.stack(G2.coords(), axis=-1)
    xw = G2.wrap_delta(coords)
    r = np.sqrt(np.sum(xw ** 2, axis=-1))
    vals = np.zeros(G2.shape)
    nz = r > 0
    vals[nz] = xw[..., 0][nz] / r[nz] ** 3   # Riesz-type kernel, odd in x_1
    rep = cz_kernel_check(scalar_field(G2, vals), L=1)
    assert rep["K1"] == pytest.approx(1.0, rel=1e-6)   # sup |x|^2 |x_1|/|x|^3 = 1
    assert rep["K3"] <= 2.0 * G2.spacing
    assert np.isfinite(rep["K2"])


def test_molecule_gaussian_fails_2d():
    cube = DyadicCube(0, (1, 0))
    coords = np.stack(G2.coords(), axis=-1)
    d = G2.torus_dist(coords, cube.center)
    fam = {cube: scalar_field(G2, np.exp(-(d / (0.4 * cube.side)) ** 2))}
    rep = molecule_check(fam, MoleculeParams(N=0, K=0, M=2.0), eps=1e-8)
    assert not rep["m1_pass"]


def test_ad_machinery_2d():
    prof = ADProfile(s=0.0, p=1.5, q=1.5, epsilon=0.5)
    Q = DyadicCube(1, (0, 0))
    P_wrap = DyadicCube(1, (3, 0))   # one cube away across the seam
    P_near = DyadicCube(1, (1, 0))
    assert ad_weight(G2, Q, P_wrap, prof) == pytest.approx(ad_weight(G2, Q, P_near, prof))
    ops = ad_random_operator(G2, CubeRange(0, 2), prof, seed=7, drop_tol=1e-8)
    rng = np.random.default_rng(8)
    entries = {c: rng.standard_normal(1) for c in cubes_at_level(G2, 1)}
    coeffs = CoeffSequence(G2, entries, 1)
    out = ad_apply(ops, coeffs)
    sp = SpaceParams(0.0, 1.5, 1.5, 2.0, np.inf)
    w = PointwiseWeighting(identity_weight(G2, 1), sp.p)
    num = seq_norm(out, w, sp, CubeRange(0, 2)).value
    den = seq_norm(coeffs, w, sp, CubeRange(0, 2)).value
    assert num / den <= 50.0


def test_paradecompose_2d_reconstruction():
    g = TorusGrid(2, 0, 3)           # tiny: symbol is 8^4 entries
    rng = np.random.default_rng(9)
    a = band_limited_noise(g, 1, 0.0, 2.0, rng).values[..., 0]
    mult = (1.0 + g.freq_radius() ** 2) ** 0.25
    sym = SymbolGrid(g, (1.0 + 0.5 * a)[:, :, None, None] * mult[None, None, :, :])
    j_cut = g.side_log2 + g.res_log2
    pieces = paradecompose(sym, j_cut=j_cut, l_cut=j_cut)
    rec = pieces.reconstruction()
    covered = g.freq_radius() <= 2.0 ** (j_cut - 1)
    err = np.abs(rec - sym.values)[:, :, covered]
    assert np.max(err) < 1e-8 * np.max(np.abs(sym.values))


def _names_dim(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "dim"
            or isinstance(node, ast.Name) and node.id == "dim")


def test_no_dimension_forks_outside_grid():
    # every routine runs one code path for n = 1 and n = 2: a dim == / != test
    # against a number belongs in TorusGrid's own input check and nowhere else
    forks = []
    for path in sorted(Path(bmtl.__file__).parent.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            sides = [node.left, *node.comparators]
            if any(map(_names_dim, sides)) and any(isinstance(x, ast.Constant) for x in sides):
                forks.append(f"{path.name}:{node.lineno}")
    assert not forks, f"dimension forks outside grid.py: {forks}"
