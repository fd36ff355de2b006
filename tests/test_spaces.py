import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import (CubeRange, DyadicCube, cube_sums, cubes_at_level, cubes_per_axis,
                         level_block_view)
from bmtl.fields import SampledField, scalar_field, to_spectral
from bmtl.grid import TorusGrid
from bmtl.harness import band_limited_noise, dilate_field
from bmtl.lpa import band_outputs, make_admissible_pair, make_inhom_partition
from bmtl.spaces import (CubewiseWeighting, PointwiseWeighting, SpaceParams, _level_sum,
                         _matvec_norm, _pair_reduce, approx_norm, averaging, bm_array_norm,
                         bm_norm, bm_seq_norm, glambda_norm, hl_maximal, lusin_norm,
                         peetre_norm, seq_norm, tl_norm)
from bmtl.weights import (MatrixWeight, ReducingFamily, identity_weight, operator_norms,
                          oscillating_weight, reducing_operators)

GRID = TorusGrid(1, 2, 8)          # N = 256, L = 4
RANGE = CubeRange(-2, 6)
PAIR = make_admissible_pair()
PART = make_inhom_partition()


def bm_oracle_1d(vals, K, p, t, r, j_min, j_max):
    """Direct enumeration of |Q|^(1/t-1/p) ||g chi_Q||_p over all cubes."""
    N = vals.shape[0]
    J = int(np.log2(N)) - K
    h = 2.0 ** (-J)
    terms = []
    for j in range(j_min, j_max + 1):
        width = 2 ** (J - j)
        for c in range(2 ** (j + K)):
            lp = (np.sum(vals[c * width:(c + 1) * width] ** p) * h) ** (1.0 / p)
            terms.append((2.0 ** (-j)) ** (1.0 / t - 1.0 / p) * lp)
    terms = np.array(terms)
    return float(np.max(terms)) if np.isinf(r) else float(np.sum(terms ** r) ** (1.0 / r))


def test_bm_norm_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    vals = np.abs(rng.standard_normal(GRID.shape))
    for (p, t, r) in [(1.0, 2.0, np.inf), (1.5, 2.0, 3.0), (0.7, 1.0, np.inf), (2.0, 3.0, 4.0)]:
        mine = bm_norm(scalar_field(GRID, vals), p, t, r, RANGE)
        ref = bm_oracle_1d(vals, 2, p, t, r, -2, 6)
        assert mine == pytest.approx(ref, rel=1e-12), (p, t, r)


def test_bm_collapses_to_lp_when_p_equals_t():
    # sup over all cubes including the whole torus recovers the global L^p norm
    rng = np.random.default_rng(1)
    full = CubeRange(-2, 6)
    for k in range(50):
        vals = np.abs(rng.standard_normal(GRID.shape))
        g = scalar_field(GRID, vals)
        p = [1.0, 1.5, 2.0, 4.0][k % 4]
        lp = (np.sum(vals ** p) * GRID.cell_measure) ** (1.0 / p)
        assert bm_norm(g, p, p, np.inf, full) == pytest.approx(lp, rel=1e-10)


def test_bm_indicator_golden():
    x = GRID.coords()[0]
    g = scalar_field(GRID, (x < 1.0).astype(float))
    val = bm_norm(g, 1.0, 2.0, np.inf, RANGE)
    assert abs(val - 1.0) <= 2.0 * GRID.spacing


def test_bm_zero_and_trivial_rejection():
    assert bm_norm(scalar_field(GRID, np.zeros(GRID.shape)), 1.0, 2.0, np.inf, RANGE) == 0.0
    with pytest.raises(ValueError):
        bm_norm(scalar_field(GRID, np.ones(GRID.shape)), 2.0, 2.0, 3.0, RANGE)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(min_value=0.01, max_value=10.0))
def test_bm_homogeneity(lam):
    rng = np.random.default_rng(2)
    vals = np.abs(rng.standard_normal(GRID.shape))
    a = bm_norm(scalar_field(GRID, vals), 1.5, 2.0, np.inf, RANGE)
    b = bm_norm(scalar_field(GRID, lam * vals), 1.5, 2.0, np.inf, RANGE)
    assert b == pytest.approx(lam * a, rel=1e-10)


def test_bm_seq_norm_special_cases():
    rng = np.random.default_rng(3)
    vals = np.abs(rng.standard_normal(GRID.shape))
    g = scalar_field(GRID, vals)
    single = bm_norm(g, 1.5, 2.0, np.inf, RANGE)
    assert bm_seq_norm([g], 1.5, 2.0, np.inf, 2.0, RANGE) == pytest.approx(single)
    assert bm_seq_norm([g, g, g], 1.5, 2.0, np.inf, np.inf, RANGE) == pytest.approx(single)
    assert bm_seq_norm([], 1.5, 2.0, np.inf, 2.0, RANGE) == 0.0
    # disjoint supports with q = 1 add up
    left = vals * (GRID.coords()[0] < 2.0)
    right = vals * (GRID.coords()[0] >= 2.0)
    both = bm_seq_norm([scalar_field(GRID, left), scalar_field(GRID, right)],
                       1.5, 2.0, np.inf, 1.0, RANGE)
    assert both == pytest.approx(single, rel=1e-12)


def test_maximal_constant_and_domination():
    g = scalar_field(GRID, np.full(GRID.shape, 1.7))
    out = hl_maximal(g)
    assert np.max(np.abs(out.scalar() - 1.7)) < 1e-12
    rng = np.random.default_rng(4)
    smooth = band_limited_noise(GRID, 1, 0.5, 4.0, rng)
    vals = np.abs(smooth.values[..., 0])
    m = hl_maximal(scalar_field(GRID, vals)).scalar()
    assert np.all(m >= vals - 1e-12)


def test_maximal_indicator_golden_half():
    x = GRID.coords()[0]
    g = scalar_field(GRID, (x < 1.0).astype(float))
    m = hl_maximal(g).scalar()
    at2 = m[int(round(2.0 / GRID.spacing))]
    assert abs(at2 - 0.5) <= 2.0 * GRID.spacing


def test_maximal_bounded_on_bm():
    # Hardy-Littlewood boundedness measured as a ratio on the gallery
    rng = np.random.default_rng(5)
    for p, q in [(1.5, 1.5), (2.0, 2.0), (4.0, 4.0)]:
        f = band_limited_noise(GRID, 1, 0.5, 8.0, rng)
        vals = np.abs(f.values[..., 0])
        g = scalar_field(GRID, vals)
        num = bm_norm(hl_maximal(g), p, 2.0 * p, np.inf, RANGE)
        den = bm_norm(g, p, 2.0 * p, np.inf, RANGE)
        assert num / den <= 50.0
        lists = [scalar_field(GRID, np.abs(band_limited_noise(GRID, 1, 0.5, 8.0, rng).values[..., 0]))
                 for _ in range(3)]
        num_s = bm_seq_norm([hl_maximal(h) for h in lists], p, 2.0 * p, np.inf, q, RANGE)
        den_s = bm_seq_norm(lists, p, 2.0 * p, np.inf, q, RANGE)
        assert num_s / den_s <= 50.0


def test_averaging_identities():
    rng = np.random.default_rng(6)
    vals = rng.standard_normal(GRID.shape)
    g = scalar_field(GRID, vals)
    const = scalar_field(GRID, np.full(GRID.shape, 3.3))
    assert np.max(np.abs(averaging(const, 2).scalar() - 3.3)) < 1e-12
    once = averaging(g, 1)
    twice = averaging(once, 1)
    assert np.max(np.abs(once.scalar() - twice.scalar())) < 1e-12
    cube = DyadicCube(0, (2,))
    chi = np.zeros(GRID.shape)
    chi[cube.grid_slices(GRID)] = 1.0
    kept = averaging(scalar_field(GRID, chi), 0)
    assert np.max(np.abs(kept.scalar() - chi)) < 1e-12


SP = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)


def test_tl_zero_field():
    f = SampledField(GRID, np.zeros(GRID.shape + (2,)))
    w = PointwiseWeighting(identity_weight(GRID, 2), SP.p)
    assert tl_norm(f, w, SP, PAIR, RANGE).value == 0.0


def test_tl_identity_weight_pointwise_equals_cubewise():
    rng = np.random.default_rng(7)
    f = band_limited_noise(GRID, 1, 0.25, 8.0, rng)
    W = identity_weight(GRID, 1)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    a = tl_norm(f, PointwiseWeighting(W, sp.p), sp, PAIR, RANGE).value
    fam = reducing_operators(W, sp.p, RANGE)
    b = tl_norm(f, CubewiseWeighting(fam), sp, PAIR, RANGE).value
    assert a == pytest.approx(b, rel=1e-10)


def test_tl_single_band_overlap_factor():
    # spectrum inside one level's plateau: at most the adjacent bands see it
    j0 = 4
    lo, hi = 2.0 ** (j0 - 2) * 0.7, 2.0 ** (j0 - 2) * 1.4
    rng = np.random.default_rng(8)
    f = band_limited_noise(GRID, 1, lo, hi, rng)
    sp = SpaceParams(0.0, 1.5, np.inf, 2.0, np.inf)
    w = PointwiseWeighting(identity_weight(GRID, 1), sp.p)
    rep = tl_norm(f, w, sp, PAIR, RANGE)
    single = rep.per_level[j0]
    assert 1.0 <= rep.value / single <= 3.0


def test_tl_channel_mismatch_rejected():
    rng = np.random.default_rng(9)
    f = band_limited_noise(GRID, 2, 0.5, 8.0, rng)
    w = PointwiseWeighting(identity_weight(GRID, 1), SP.p)
    with pytest.raises(ValueError):
        tl_norm(f, w, SP, PAIR, RANGE)


def test_tl_quasinorm_axioms():
    rng = np.random.default_rng(10)
    f = band_limited_noise(GRID, 2, 0.5, 8.0, rng)
    g = band_limited_noise(GRID, 2, 0.5, 8.0, rng)
    W = oscillating_weight(GRID)
    for sp in (SpaceParams(0.3, 1.5, 2.0, 2.0, np.inf), SpaceParams(0.0, 0.8, 0.8, 1.0, np.inf)):
        w = PointwiseWeighting(W, sp.p)
        nf = tl_norm(f, w, sp, PAIR, RANGE).value
        ng = tl_norm(g, w, sp, PAIR, RANGE).value
        scaled = tl_norm(SampledField(GRID, -2.5 * f.values), w, sp, PAIR, RANGE).value
        assert scaled == pytest.approx(2.5 * nf, rel=1e-10)
        nsum = tl_norm(SampledField(GRID, f.values + g.values), w, sp, PAIR, RANGE).value
        quasi = nsum / (nf + ng)
        assert quasi <= 2.0 ** (1.0 / min(1.0, sp.p, sp.q))


def test_tl_dilation_scaling():
    # f -> f(2.) with the level window shifted by one: factor 2^(s - n/t)
    rng = np.random.default_rng(11)
    f = band_limited_noise(GRID, 1, 1.0, 8.0, rng)
    f2 = dilate_field(f)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    w = PointwiseWeighting(identity_weight(GRID, 1), sp.p)
    base = tl_norm(f, w, sp, PAIR, CubeRange(-1, 5)).value
    dil = tl_norm(f2, w, sp, PAIR, CubeRange(0, 6)).value
    predicted = 2.0 ** (sp.s - GRID.dim / sp.t)
    assert dil / base == pytest.approx(predicted, rel=0.02)


def test_bm_dilation_scaling_exact():
    # smooth positive sample so the even-subsample Riemann sums match spectrally
    rng = np.random.default_rng(12)
    smooth = band_limited_noise(GRID, 1, 0.25, 4.0, rng).values[..., 0]
    vals = 2.0 + smooth / max(1e-9, np.max(np.abs(smooth)))
    g = scalar_field(GRID, vals)
    g2 = scalar_field(GRID, dilate_field(SampledField(GRID, vals[..., None])).values[..., 0])
    a = bm_norm(g, 1.5, 2.0, np.inf, CubeRange(-1, 5))
    b = bm_norm(g2, 1.5, 2.0, np.inf, CubeRange(0, 6))
    assert b / a == pytest.approx(2.0 ** (-GRID.dim / 2.0), rel=1e-3)


def test_seq_norm_single_unit_coefficient():
    g = TorusGrid(1, 1, 6)
    coeffs = CoeffSequence(g, {DyadicCube(0, (0,)): np.array([1.0])}, 1)
    sp = SpaceParams(0.75, 1.0, 2.0, 2.0, np.inf)
    w = PointwiseWeighting(identity_weight(g, 1), sp.p)
    rep = seq_norm(coeffs, w, sp, CubeRange(0, 4))
    assert rep.value == pytest.approx(1.0, rel=1e-12)


def test_seq_norm_matches_enumeration_oracle():
    rng = np.random.default_rng(13)
    sp = SpaceParams(0.4, 1.2, 1.7, 2.0, 3.0)
    entries = {}
    for j in (1, 2, 3):
        for c in cubes_at_level(GRID, j):
            if rng.random() < 0.3:
                entries[c] = rng.standard_normal(1)
    coeffs = CoeffSequence(GRID, entries, 1)
    w = PointwiseWeighting(identity_weight(GRID, 1), sp.p)
    mine = seq_norm(coeffs, w, sp, CubeRange(1, 3)).value
    # oracle: materialize the inner function by direct loops, then bm oracle
    h = GRID.spacing
    inner = np.zeros(GRID.shape)
    for cube, vec in entries.items():
        sl = cube.grid_slices(GRID)
        inner[sl] += (cube.measure ** (-sp.s - 0.5) * abs(vec[0])) ** sp.q
    ref = bm_oracle_1d(inner ** (1.0 / sp.q), 2, sp.p, sp.t, sp.r, 1, 3)
    assert mine == pytest.approx(ref, rel=1e-12)


def test_seq_norm_zero_scaling_and_range():
    coeffs = CoeffSequence(GRID, {}, 1)
    w = PointwiseWeighting(identity_weight(GRID, 1), SP.p)
    assert seq_norm(coeffs, w, SP, RANGE).value == 0.0
    rng = np.random.default_rng(14)
    entries = {c: rng.standard_normal(1) for c in cubes_at_level(GRID, 2)}
    coeffs = CoeffSequence(GRID, entries, 1)
    base = seq_norm(coeffs, w, SP, RANGE).value
    scaled = seq_norm(coeffs.scaled(-3.0), w, SP, RANGE).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)
    outside = CoeffSequence(GRID, {DyadicCube(5, (0,)): np.ones(1)}, 1)
    with pytest.raises(ValueError):
        seq_norm(outside, w, SpaceParams(0.0, 1.5, 2.0, 2.0, np.inf), CubeRange(0, 3))


def test_sparse_set_equivalence():
    # chi_Q replaced by chi_{E_Q} with |E_Q| >= |Q|/2 changes the norm by a bounded factor
    rng = np.random.default_rng(15)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    entries, masks = {}, {}
    for j in (0, 1, 2, 3):
        for c in cubes_at_level(GRID, j):
            entries[c] = rng.standard_normal(1)
            w = c.points_per_axis(GRID)
            mask = np.zeros(w, dtype=bool)
            mask[rng.permutation(w)[: w // 2]] = True
            masks[c] = mask
    coeffs = CoeffSequence(GRID, entries, 1)
    w = PointwiseWeighting(identity_weight(GRID, 1), sp.p)
    rngc = CubeRange(0, 3)
    full = seq_norm(coeffs, w, sp, rngc).value
    sparse = seq_norm(coeffs, w, sp, rngc, masks=masks).value
    assert sparse <= full * (1.0 + 1e-12)
    assert full <= 50.0 * sparse


def test_gamma_j_averaging_bound():
    # gamma_j(x) = sum_Q ||W^(1/p)(x) A_Q^-1|| chi_Q dampens E_j-projected levels
    rng = np.random.default_rng(16)
    W = oscillating_weight(GRID)
    p, q = 2.0, 1.5
    fam = reducing_operators(W, p, RANGE)
    root = W.power(1.0 / p)
    f = band_limited_noise(GRID, 2, 0.25, 8.0, rng)
    from bmtl.fields import to_spectral
    from bmtl.lpa import band_outputs
    F = to_spectral(f)
    plain, damped = [], []
    for j, band in band_outputs(F, PAIR, RANGE.band_levels()):
        mag = np.linalg.norm(band, axis=-1)
        ej = averaging(scalar_field(GRID, mag), j).scalar()
        A = fam.level_array(j)
        Ainv = np.linalg.inv(A)
        blocks = level_block_view(GRID, root, j)
        gamma = operator_norms(np.einsum("cpab,cbd->cpad", blocks, Ainv)).reshape(GRID.shape)
        plain.append(scalar_field(GRID, ej))
        damped.append(scalar_field(GRID, gamma * ej))
    num = bm_seq_norm(damped, p, 2.0 * p, np.inf, q, RANGE)
    den = bm_seq_norm(plain, p, 2.0 * p, np.inf, q, RANGE)
    assert num / den <= 50.0


def test_peetre_dominates_tl_and_shrinks_with_a():
    rng = np.random.default_rng(17)
    f = band_limited_noise(GRID, 2, 1.0, 8.0, rng)
    W = oscillating_weight(GRID)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    w = PointwiseWeighting(W, sp.p)
    tl = tl_norm(f, w, sp, PAIR, RANGE).value
    vals = [peetre_norm(f, w, sp, a, PAIR, RANGE).value for a in (2.0, 4.0, 8.0)]
    assert all(v >= tl * (1.0 - 1e-10) for v in vals)
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[2] / tl <= 50.0


def test_peetre_constant_band_value():
    # if the band output is a constant vector the sup sits at every point
    g = TorusGrid(1, 2, 6)
    W = oscillating_weight(g)
    sp = SpaceParams(0.0, 1.5, 2.0, 2.0, np.inf)
    w = PointwiseWeighting(W, sp.p)
    c = np.array([0.7, -0.2])
    f = SampledField(g, np.broadcast_to(c, g.shape + (2,)).copy())
    rng_c = CubeRange(0, 3, inhomogeneous=True)
    part = make_inhom_partition()
    spi = SpaceParams(0.0, 1.5, 2.0, 2.0, np.inf, homogeneous=False)
    rep = peetre_norm(f, w, spi, 3.0, part, rng_c)
    # level 0 low-pass keeps the constant; direct value |W^(1/p)(x) c| everywhere
    txt = np.linalg.norm(np.einsum("...ab,...b->...a", W.power(1.0 / sp.p), f.values), axis=-1)
    ref = bm_norm(scalar_field(g, txt), sp.p, sp.t, sp.r, rng_c)
    assert rep.value == pytest.approx(ref, rel=1e-10)


def test_lusin_constant_band_and_vs_tl():
    rng = np.random.default_rng(18)
    W = oscillating_weight(GRID)
    sp = SpaceParams(0.5, 1.5, 2.0, 2.0, np.inf)
    w = PointwiseWeighting(W, sp.p)
    f = band_limited_noise(GRID, 2, 1.0, 8.0, rng)
    lus = lusin_norm(f, w, sp, PAIR, RANGE).value
    tl = tl_norm(f, w, sp, PAIR, RANGE).value
    assert lus > 0
    assert max(lus / tl, tl / lus) <= 10.0


def test_lusin_zero():
    w = PointwiseWeighting(identity_weight(GRID, 2), 1.5)
    sp = SpaceParams(0.5, 1.5, 2.0, 2.0, np.inf)
    f = SampledField(GRID, np.zeros(GRID.shape + (2,)))
    assert lusin_norm(f, w, sp, PAIR, RANGE).value == 0.0


def test_glambda_bounds_lusin_and_monotone():
    rng = np.random.default_rng(19)
    W = oscillating_weight(GRID)
    sp = SpaceParams(0.5, 1.5, 2.0, 2.0, np.inf)
    w = PointwiseWeighting(W, sp.p)
    f = band_limited_noise(GRID, 2, 1.0, 8.0, rng)
    lus = lusin_norm(f, w, sp, PAIR, RANGE).value
    lams = (1.5, 2.5, 4.0)
    vals = [glambda_norm(f, w, sp, lam, PAIR, RANGE).value for lam in lams]
    assert vals[0] >= vals[1] >= vals[2]
    for lam, v in zip(lams, vals):
        assert v >= lus * 2.0 ** (-lam * GRID.dim) * (1.0 - 1e-10)
    assert glambda_norm(SampledField(GRID, np.zeros(GRID.shape + (2,))), w, sp, 2.0,
                        PAIR, RANGE).value == 0.0


def test_glambda_general_q_matches_fast_path_structure():
    # the q = 2 convolution path against the dense path on a tiny grid
    g = TorusGrid(1, 1, 5)
    rng = np.random.default_rng(20)
    W = identity_weight(g, 1)
    sp2 = SpaceParams(0.3, 1.2, 2.0, 1.5, np.inf)
    w = PointwiseWeighting(W, sp2.p)
    f = band_limited_noise(g, 1, 0.5, 2.0, rng)
    fast = glambda_norm(f, w, sp2, 2.0, PAIR, CubeRange(-1, 3)).value
    sp_close = SpaceParams(0.3, 1.2, 2.0 + 1e-12, 1.5, np.inf)
    dense = glambda_norm(f, w, sp_close, 2.0, PAIR, CubeRange(-1, 3)).value
    assert fast == pytest.approx(dense, rel=1e-8)


def pair_norm_oracles(f, W, sp, a, lam, bank, cube_range):
    """Peetre, Lusin and g-lambda-star NormReports evaluated directly at every
    pair (x, y) of sample points, through the shared level-sum driver."""
    grid = f.grid
    n, npts = grid.dim, grid.npoints
    root = W.power(1.0 / sp.p).reshape(npts, W.channels, W.channels)
    pts = np.stack(grid.coords(), axis=-1).reshape(npts, n)
    peetre, lusin, glam = [], [], []
    for j, band in band_outputs(to_spectral(f), bank, cube_range.band_levels()):
        v = band.reshape(npts, -1)
        sup, ball, tail = np.zeros(npts), np.zeros(npts), np.zeros(npts)
        for x in range(npts):
            mag = np.linalg.norm(v @ root[x].T, axis=1)      # |W^(1/p)(x) v(y)| for every y
            d = grid.torus_dist(pts[x], pts)
            sup[x] = np.max(mag / (1.0 + 2.0 ** j * d) ** a)
            ball[x] = np.sum(mag[d <= 2.0 ** (-j)] ** sp.q)
            tail[x] = np.sum(mag ** sp.q * (1.0 + 2.0 ** j * d) ** (-lam * n * sp.q))
        scale = 2.0 ** (j * sp.s * sp.q) * 2.0 ** (j * n) * grid.cell_measure
        peetre.append((j, 2.0 ** (j * sp.s) * sup.reshape(grid.shape)))
        lusin.append((j, (scale * ball.reshape(grid.shape)) ** (1.0 / sp.q)))
        glam.append((j, (scale * tail.reshape(grid.shape)) ** (1.0 / sp.q)))
    return [_level_sum(grid, mags, sp.p, sp.t, sp.r, sp.q, cube_range)
            for mags in (peetre, lusin, glam)]


# 16^2 is the smallest 2D grid with a lattice frequency strictly inside a band;
# the inhomogeneous case has a nonzero band whose Lusin ball wraps the torus.
# At 1D N = 256 the blocks of rows are shorter than the torus and the Lusin
# column windows of levels 1..5 are narrower than it, wrapping at both ends; at
# 2D 32^2 a block of rows is shorter than one grid line.
@pytest.mark.parametrize("grid, bank, cube_range", [
    (TorusGrid(1, 1, 4), PAIR, CubeRange(-1, 2)),
    (TorusGrid(1, 1, 4), PART, CubeRange(0, 2, inhomogeneous=True)),
    (TorusGrid(2, 1, 3), PAIR, CubeRange(-1, 1)),
    (TorusGrid(1, 1, 7), PAIR, CubeRange(-1, 5)),
    (TorusGrid(2, 1, 4), PAIR, CubeRange(-1, 2)),
])
def test_pair_norms_match_direct_oracle(grid, bank, cube_range):
    rng = np.random.default_rng(27)
    f = band_limited_noise(grid, 2, 0.0, 2.0 ** cube_range.j_max, rng)
    W = oscillating_weight(grid)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf, homogeneous=bank is PAIR)
    w = PointwiseWeighting(W, sp.p)
    fast = [peetre_norm(f, w, sp, 4.0, bank, cube_range),
            lusin_norm(f, w, sp, bank, cube_range),
            glambda_norm(f, w, sp, 3.0, bank, cube_range)]
    for got, ref in zip(fast, pair_norm_oracles(f, W, sp, 4.0, 3.0, bank, cube_range)):
        assert ref.value > 0
        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0)
        assert sorted(got.per_level) == sorted(ref.per_level)
        for j, val in ref.per_level.items():
            assert got.per_level[j] == pytest.approx(val, rel=1e-12, abs=0)


@pytest.mark.parametrize("grid", [TorusGrid(1, 1, 7), TorusGrid(2, 1, 4)])
def test_pair_reduce_reads_offset_tables(grid):
    """K[x, y] = kern[(x - y) mod N] per axis, for tables that are not symmetric
    in the offset and whose support is a short cyclic run that wraps."""
    rng = np.random.default_rng(28)
    n, N, npts = grid.dim, grid.points_per_axis, grid.npoints
    W = oscillating_weight(grid)
    w = PointwiseWeighting(W, 1.5)
    band = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    root = W.power(1.0 / 1.5).reshape(npts, 2, 2)
    v = band.reshape(npts, 2)
    idx = np.stack(np.unravel_index(np.arange(npts), grid.shape), axis=-1)
    offsets = [(x - idx) % N for x in idx]      # (x - y) mod N per axis, every y
    for support in (N, 5):
        kern = rng.uniform(0.5, 2.0, grid.shape)
        kern[(np.arange(N) + 3) % N >= support] = 0.0    # first-axis offsets -3..support-4
        for power, op in ((1.0, np.maximum), (0.75, np.add)):
            got = _pair_reduce(w, band, kern, power, op).ravel()
            want = [op.reduce(np.linalg.norm(v @ root[x].T, axis=1) ** (2 * power)
                              * kern[tuple(offsets[x].T)]) for x in range(npts)]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_approx_norm_bandlimited_tail_vanishes():
    rng = np.random.default_rng(21)
    gridc = TorusGrid(1, 2, 8)
    # spectrum inside |xi| <= 2: covered by the level-k low-pass for k >= 4
    f = band_limited_noise(gridc, 1, 0.3, 2.0, rng)
    W = identity_weight(gridc, 1)
    sp = SpaceParams(2.0, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    w = PointwiseWeighting(W, sp.p)
    rng_c = CubeRange(-2, 6, inhomogeneous=True)
    rep = approx_norm(f, w, sp, PART, rng_c)
    assert rep.value > 0
    for k in range(4, 7):
        assert rep.per_level[k] <= 1e-10 * rep.value
    zero = SampledField(gridc, np.zeros(gridc.shape + (1,)))
    assert approx_norm(zero, w, sp, PART, rng_c).value == 0.0


def test_approx_vs_tl_ratio_bounded():
    rng = np.random.default_rng(22)
    W = oscillating_weight(GRID)
    sp = SpaceParams(2.0, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    w = PointwiseWeighting(W, sp.p)
    rng_c = CubeRange(-2, 6, inhomogeneous=True)
    for _ in range(3):
        f = band_limited_noise(GRID, 2, 0.3, 8.0, rng)
        ap = approx_norm(f, w, sp, PART, rng_c).value
        tl = tl_norm(f, w, sp, PART, rng_c).value
        ratio = max(ap / tl, tl / ap)
        assert ratio <= 50.0


def test_truncation_indicator():
    # the window already holds the whole-torus cube and the band content, so one
    # extra level changes nothing
    rng = np.random.default_rng(23)
    f = band_limited_noise(GRID, 1, 1.0, 8.0, rng)
    w = PointwiseWeighting(identity_weight(GRID, 1), SP.p)
    rep = tl_norm(f, w, SP, PAIR, CubeRange(-2, 5), truncation_check=True)
    assert rep.truncation is not None
    assert abs(rep.truncation - 1.0) <= 0.01


def test_tl_2d_smoke():
    g = TorusGrid(2, 1, 4)
    rng = np.random.default_rng(24)
    f = band_limited_noise(g, 2, 0.5, 2.0, rng)
    W = identity_weight(g, 2)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    w = PointwiseWeighting(W, sp.p)
    r = CubeRange(-1, 2)
    val = tl_norm(f, w, sp, PAIR, r).value
    assert val > 0
    fam = reducing_operators(W, sp.p, r)
    val2 = tl_norm(f, CubewiseWeighting(fam), sp, PAIR, r).value
    assert val == pytest.approx(val2, rel=1e-10)


def test_peetre_2d_windowed_smoke():
    g = TorusGrid(2, 1, 4)
    rng = np.random.default_rng(25)
    f = band_limited_noise(g, 2, 0.5, 2.0, rng)
    W = identity_weight(g, 2)
    sp = SpaceParams(0.3, 1.5, 1.5, 2.0, np.inf)
    w = PointwiseWeighting(W, sp.p)
    r = CubeRange(-1, 2)
    pe = peetre_norm(f, w, sp, 4.0, PAIR, r).value
    tl = tl_norm(f, w, sp, PAIR, r).value
    assert pe >= tl * (1.0 - 1e-10)
    assert pe <= 50.0 * tl


def test_maximal_powered_monotone():
    # M_eta grows with eta on nonconstant data (power-mean inequality)
    rng = np.random.default_rng(26)
    vals = np.abs(band_limited_noise(GRID, 1, 0.5, 8.0, rng).values[..., 0])
    g = scalar_field(GRID, vals)
    m1 = hl_maximal(g, eta=1.0).scalar()
    m2 = hl_maximal(g, eta=2.0).scalar()
    assert np.all(m2 >= m1 - 1e-12)
    with pytest.raises(ValueError):
        hl_maximal(g, eta=0.0)


def test_inhomogeneous_characterization_variants():
    # Peetre / Lusin / g-lambda-star with the partition bank over j >= 0
    rng = np.random.default_rng(27)
    W = oscillating_weight(GRID)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    w = PointwiseWeighting(W, sp.p)
    cr = CubeRange(-2, 6, inhomogeneous=True)
    f = band_limited_noise(GRID, 2, 0.0, 8.0, rng)
    tl = tl_norm(f, w, sp, PART, cr).value
    pe = peetre_norm(f, w, sp, 3.0, PART, cr).value
    lu = lusin_norm(f, w, sp, PART, cr).value
    gl = glambda_norm(f, w, sp, 3.0, PART, cr).value
    assert pe >= tl * (1.0 - 1e-10)
    for v in (pe, lu, gl):
        assert max(v / tl, tl / v) <= 50.0


def _random_spd(rng, shape, m):
    B = rng.standard_normal(shape + (m, m))
    return B @ np.swapaxes(B, -1, -2) + np.eye(m)


def _norm_oracle(spec, M, v):
    """|M v| in the direct form: einsum, then np.linalg.norm."""
    return np.linalg.norm(np.einsum(spec, M, v), axis=-1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", [float, complex])
@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 6), TorusGrid(2, 1, 4)])
def test_matvec_norm_matches_einsum_oracle(grid, kind, m):
    rng = np.random.default_rng(40 + m)
    v = rng.standard_normal(grid.shape + (m,))
    if kind is complex:
        v = v + 1j * rng.standard_normal(v.shape)
    # pointwise: one matrix per sample, the helper and PointwiseWeighting
    M = rng.standard_normal(grid.shape + (m, m))
    np.testing.assert_allclose(_matvec_norm(M, v), _norm_oracle("...ab,...b->...a", M, v),
                               rtol=1e-12, atol=0)
    W = MatrixWeight(grid, _random_spd(rng, grid.shape, m))
    np.testing.assert_allclose(PointwiseWeighting(W, 1.5).magnitude(0, v),
                               _norm_oracle("...ab,...b->...a", W.power(1.0 / 1.5), v),
                               rtol=1e-12, atol=0)
    # cubewise: A_Q broadcast over the samples of each cube block
    j = 1
    A = _random_spd(rng, (cubes_per_axis(grid, j),) * grid.dim, m)
    fam = ReducingFamily(grid, 1.5, CubeRange(j, j), {j: A})
    blocks = level_block_view(grid, v, j)
    spec = "cab,cwb->cwa" if grid.dim == 1 else "cdab,cwdvb->cwdva"
    np.testing.assert_allclose(CubewiseWeighting(fam).magnitude(j, v),
                               _norm_oracle(spec, A, blocks).reshape(grid.shape),
                               rtol=1e-12, atol=0)


def bm_levelwise(grid, vals, p, t, r, levels):
    """The Bourgain-Morrey norm in the level-by-level form: the cube sums of
    vals^p taken from the grid array again at every level."""
    powed = vals ** p
    terms = [2.0 ** (-j * grid.dim * (1.0 / t - 1.0 / p))
             * (cube_sums(grid, powed, j) * grid.cell_measure) ** (1.0 / p) for j in levels]
    if np.isinf(r):
        return max(float(np.max(x)) for x in terms)
    return sum(float(np.sum(x ** r)) for x in terms) ** (1.0 / r)


# both ranges reach the whole torus as one cube (level -K); the inhomogeneous
# one has cube levels below its band levels
@pytest.mark.parametrize("grid, cube_range", [
    (TorusGrid(1, 2, 6), CubeRange(-2, 4)),
    (TorusGrid(1, 2, 6), CubeRange(-2, 4, inhomogeneous=True)),
    (TorusGrid(2, 1, 4), CubeRange(-1, 2)),
])
@pytest.mark.parametrize("r", [np.inf, 3.0])
def test_batched_bm_matches_levelwise_oracle(grid, cube_range, r):
    rng = np.random.default_rng(41)
    p, t, q = 1.5, 2.0, 1.5
    mags = [(j, rng.random(grid.shape) * 2.0 ** j) for j in cube_range.band_levels()]
    levels = cube_range.cube_levels()
    rep = _level_sum(grid, mags, p, t, r, q, cube_range)
    assert sorted(rep.per_level) == list(cube_range.band_levels())
    for j, mag in mags:
        assert rep.per_level[j] == pytest.approx(bm_levelwise(grid, mag, p, t, r, levels),
                                                 rel=1e-12, abs=0)
    total = sum(mag ** q for _, mag in mags) ** (1.0 / q)
    ref = bm_levelwise(grid, total, p, t, r, levels)
    assert rep.value == pytest.approx(ref, rel=1e-12, abs=0)
    assert bm_array_norm(grid, total, p, t, r, levels) == pytest.approx(ref, rel=1e-12, abs=0)
    # every level down to one sample per cube, and a window with gaps
    for some in (range(-grid.side_log2, grid.res_log2 + 1), [-grid.side_log2, 0, 2]):
        assert bm_array_norm(grid, total, p, t, r, some) == pytest.approx(
            bm_levelwise(grid, total, p, t, r, some), rel=1e-12, abs=0)
