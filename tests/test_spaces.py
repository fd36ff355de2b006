import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmtl import spaces
from bmtl.coeff import phi_transform
from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import (CubeRange, DyadicCube, cube_sums, cubes_at_level, cubes_per_axis,
                         level_block_view)
from bmtl.fields import SampledField, half_spectrum, scalar_field, to_spectral
from bmtl.grid import TorusGrid
from bmtl.harness import band_limited_noise, dilate_field, four_norms
from bmtl.lpa import band_outputs, make_admissible_pair, make_inhom_partition
from bmtl.spaces import (CubewiseWeighting, PointwiseWeighting, SpaceParams, _cyclic_max,
                         _cyclic_mean, _level_sum, _matvec_norm, _pair_max, _pair_reduce,
                         _pair_sums, _real_band, _row_blocks, _series_sum, _series_table,
                         approx_norm, averaging, bm_array_norm, bm_norm, bm_seq_norm,
                         glambda_norm, hl_maximal, lusin_norm, peetre_norm, seq_norm, tl_norm,
                         truncation_ratio)
from bmtl.weights import (MatrixWeight, ReducingFamily, constant_weight, identity_weight,
                          operator_norms, oscillating_weight, power_weight, reducing_operators,
                          rotated_diag_weight)

GRID = TorusGrid(1, 2, 8)          # N = 1024, L = 4
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


# The range decides the space: the bank must be its bank, and the params must
# agree with it.  j_min = 0 keeps the partition's levels valid, so only the
# switch itself can raise.
@pytest.mark.parametrize("bank, cube_range, homogeneous", [
    (PAIR, CubeRange(0, 3, inhomogeneous=True), True),
    (PART, CubeRange(0, 3), False),
    (PAIR, CubeRange(0, 3), False),
    (PART, CubeRange(0, 3, inhomogeneous=True), True),
])
def test_bank_and_params_must_match_range(bank, cube_range, homogeneous):
    grid = TorusGrid(1, 1, 6)
    f = band_limited_noise(grid, 2, 0.5, 4.0, np.random.default_rng(5))
    W = identity_weight(grid, 2)
    sp = SpaceParams(3.5, 1.5, 1.5, 2.0, np.inf, homogeneous=homogeneous)
    w = PointwiseWeighting(W, sp.p)
    calls = [lambda: tl_norm(f, w, sp, bank, cube_range),
             lambda: peetre_norm(f, w, sp, 4.0, bank, cube_range),
             lambda: lusin_norm(f, w, sp, bank, cube_range),
             lambda: glambda_norm(f, w, sp, 3.0, bank, cube_range),
             lambda: approx_norm(f, w, sp, bank, cube_range),
             lambda: four_norms(f, W, sp, bank, cube_range)]
    if (bank is PART) != cube_range.inhomogeneous:
        calls.append(lambda: phi_transform(f, bank, cube_range))
    for call in calls:
        with pytest.raises(ValueError, match="need an|disagree with the range|inhomogeneous spaces"):
            call()


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
        masks[j] = np.zeros(GRID.shape, dtype=bool)
        for c in cubes_at_level(GRID, j):
            entries[c] = rng.standard_normal(1)
            w = c.points_per_axis(GRID)
            mask = np.zeros(w, dtype=bool)
            mask[rng.permutation(w)[: w // 2]] = True
            masks[j][c.grid_slices(GRID)] = mask
    coeffs = CoeffSequence(GRID, entries, 1)
    w = PointwiseWeighting(identity_weight(GRID, 1), sp.p)
    rngc = CubeRange(0, 3)
    full = seq_norm(coeffs, w, sp, rngc).value
    sparse = seq_norm(coeffs, w, sp, rngc, masks=masks).value
    assert sparse <= full * (1.0 + 1e-12)
    assert full <= 50.0 * sparse


def test_seq_norm_rejects_bad_masks():
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    coeffs = CoeffSequence(GRID, {DyadicCube(1, (0,)): np.ones(1)}, 1)
    w = PointwiseWeighting(identity_weight(GRID, 1), sp.p)
    rngc = CubeRange(0, 3)
    with pytest.raises(ValueError, match="shape"):
        seq_norm(coeffs, w, sp, rngc, masks={1: np.ones(GRID.points_per_axis // 2, bool)})
    with pytest.raises(ValueError, match="band levels"):
        seq_norm(coeffs, w, sp, rngc, masks={4: np.ones(GRID.shape, bool)})
    inh = CubeRange(-1, 3, inhomogeneous=True)
    with pytest.raises(ValueError, match="band levels"):
        seq_norm(coeffs, w, sp, inh, masks={-1: np.ones(GRID.shape, bool)})


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
    in the offset and whose support is a short cyclic run that wraps.  With a
    rows mask, the blocks holding a masked row are exact and the others 0; at
    2D 32^2 a support of 3 first-axis offsets gives blocks of several lines."""
    rng = np.random.default_rng(28)
    n, N, npts = grid.dim, grid.points_per_axis, grid.npoints
    W = oscillating_weight(grid)
    w = PointwiseWeighting(W, 1.5)
    band = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    root = W.power(1.0 / 1.5).reshape(npts, 2, 2)
    v = band.reshape(npts, 2)
    idx = np.stack(np.unravel_index(np.arange(npts), grid.shape), axis=-1)
    offsets = [(x - idx) % N for x in idx]      # (x - y) mod N per axis, every y
    rows = np.zeros(grid.shape, dtype=bool)
    rows[(N // 3,) * n] = rows[(N - 1,) * n] = True
    assert max(box[0].stop - box[0].start for box, *_ in _row_blocks(grid, 3)) > 1
    for support in (N, 5, 3):
        kern = rng.uniform(0.5, 2.0, grid.shape)
        kern[(np.arange(N) + 3) % N >= support] = 0.0    # first-axis offsets -3..support-4
        for power, op in ((1.0, np.maximum), (0.75, np.add)):
            got = _pair_reduce(w, band, kern, power, op).ravel()
            want = np.array([op.reduce(np.linalg.norm(v @ root[x].T, axis=1) ** (2 * power)
                                       * kern[tuple(offsets[x].T)]) for x in range(npts)])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            some = _pair_reduce(w, band, kern, power, op, rows).ravel()
            done = some != 0.0
            assert done[rows.ravel()].all() and 0 < done.sum() < npts
            np.testing.assert_array_equal(some[done], got[done])


def _random_spd_weight(grid, m=3):
    """A weight with an independent random SPD matrix at every sample."""
    B = np.random.default_rng(33).standard_normal(grid.shape + (m, m))
    vals = B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(m)
    return MatrixWeight(grid, 0.5 * (vals + np.swapaxes(vals, -1, -2)))


# 1D N = 256 at level 4 and 2D 32^2 at level 2; a = 0.5 puts the whole torus in
# the first window, a = 4 needs a second pass for the spike, and a = inf makes
# the one-offset table (1 + 2^j d)^(-inf), certified at once.
@pytest.mark.parametrize("grid, j", [(TorusGrid(1, 1, 7), 4), (TorusGrid(2, 1, 4), 2)])
@pytest.mark.parametrize("make_weight", [lambda g: power_weight(g, 0.5), oscillating_weight,
                                         rotated_diag_weight, _random_spd_weight],
                         ids=["power", "oscillating", "rotated_diag", "spd3"])
def test_pair_max_matches_full_kernel(grid, j, make_weight, monkeypatch):
    """_pair_max against the window-free max of _pair_reduce, bit for bit, for the
    norm's own band, a complex random band and a band with one spike 1e6 times
    the rest (the rows far from it cannot be certified by the first window)."""
    import bmtl.spaces as spaces
    rng = np.random.default_rng(34)
    n, N = grid.dim, grid.points_per_axis
    W = make_weight(grid)
    m = W.channels
    w = PointwiseWeighting(W, 1.5)
    f = band_limited_noise(grid, m, 0.0, 2.0 ** (j + 1), rng)
    own, = [band for _, band in band_outputs(to_spectral(f), PAIR, range(j, j + 1))]
    noise = rng.standard_normal(grid.shape + (m,)) + 1j * rng.standard_normal(grid.shape + (m,))
    spike = 1e-6 * noise
    spike[(N // 2,) * n] = noise[(N // 2,) * n]
    full = spaces._pair_reduce
    calls = []
    monkeypatch.setattr(spaces, "_pair_reduce", lambda *args: calls.append(args) or full(*args))
    dist = grid.radius()
    passes = {}
    for a in (0.5, 4.0, np.inf):
        kern = (1.0 + 2.0 ** j * dist) ** (-2.0 * a)
        for name, band in (("own", own), ("noise", noise), ("spike", spike)):
            assert band.any()
            calls.clear()
            got = _pair_max(w, band, kern)
            passes[a, name] = len(calls)
            np.testing.assert_array_equal(got, full(w, band, kern, 1.0, np.maximum))
    assert passes[0.5, "own"] == passes[np.inf, "spike"] == 1
    assert passes[4.0, "spike"] >= 2


def test_pair_max_sweeps_spike_heights():
    """A band of constant size with one raised sample, its squared height R
    swept by factors of 2: at some R the raised sample beats a row's window max
    by at most 2 from just beyond the window edge, so a bound weaker by a
    factor of 2 would certify that row and miss it."""
    grid = TorusGrid(1, 1, 7)
    N = grid.points_per_axis
    kern = (1.0 + 16.0 * grid.radius()) ** -8.0
    for W in (power_weight(grid, 0.5), oscillating_weight(grid)):
        w = PointwiseWeighting(W, 1.5)
        band = np.zeros(grid.shape + (W.channels,), dtype=complex)
        band[..., 0] = 1.0
        for k in range(40):
            band[N // 2, 0] = 2.0 ** (k / 2)
            np.testing.assert_array_equal(_pair_max(w, band, kern),
                                          _pair_reduce(w, band, kern, 1.0, np.maximum))


def test_pair_max_nan_rows_stay_uncertified():
    """A NaN in the table or in the band reaches every row of the full max, and
    _pair_max gives the same NaN rows: no row is certified past a NaN."""
    grid = TorusGrid(1, 1, 6)
    w = PointwiseWeighting(oscillating_weight(grid), 1.5)
    rng = np.random.default_rng(35)
    band = rng.standard_normal(grid.shape + (2,)) + 0j
    kern = (1.0 + 8.0 * grid.radius()) ** -8.0
    bad_kern, bad_band = kern.copy(), band.copy()
    bad_kern[7] = np.nan
    bad_band[5, 1] = np.nan
    for b, k in ((band, bad_kern), (bad_band, kern)):
        want = _pair_reduce(w, b, k, 1.0, np.maximum)
        assert np.isnan(want).all()
        np.testing.assert_array_equal(_pair_max(w, b, k), want)


def test_peetre_and_glambda_refuse_nan():
    """NaN a or lambda is refused before any band is computed, naming it."""
    f = band_limited_noise(GRID, 2, 1.0, 8.0, np.random.default_rng(36))
    w = PointwiseWeighting(oscillating_weight(GRID), SP.p)
    for a in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="parameter a must be positive"):
            peetre_norm(f, w, SP, a, PAIR, RANGE)
    with pytest.raises(ValueError, match="parameter lambda must be a number"):
        glambda_norm(f, w, SP, np.nan, PAIR, RANGE)


def _pair_kernels(grid, j, q):
    """The level-j Lusin ball and g-lambda-star tail (lambda = 3) offset tables."""
    dist = grid.radius()
    return [(dist <= 2.0 ** (-j) + 1e-9 * grid.spacing).astype(float),
            (1.0 + 2.0 ** j * dist) ** (-3.0 * grid.dim * q)]


# 1D N = 256 and 2D 32^2: m = 1 (power_weight) and the m = 2 weights, whose
# largest rho runs from 0 (identity) to 0.92 (rotated_diag in 1D, n_max ~ 100).
@pytest.mark.parametrize("grid, cube_range", [(TorusGrid(1, 1, 7), CubeRange(-1, 5)),
                                              (TorusGrid(2, 1, 4), CubeRange(-1, 2))])
@pytest.mark.parametrize("make_weight", [
    lambda g: power_weight(g, 0.5), lambda g: identity_weight(g, 2),
    lambda g: constant_weight(g, np.array([[2.0, 0.5], [0.5, 1.0]])), oscillating_weight,
    rotated_diag_weight], ids=["power", "identity", "constant", "oscillating", "rotated_diag"])
def test_angular_pair_sum_matches_direct(grid, cube_range, make_weight):
    """The angular series against _pair_reduce at every level with a nonzero band,
    both kernels and q in {1.5, 2, 3}, to 1e-12 of the level's largest sum; the
    stated bound holds against the series at twice the order."""
    rng = np.random.default_rng(31)
    W = make_weight(grid)
    m = W.channels
    f = band_limited_noise(grid, m, 0.0, 2.0 ** cube_range.j_max, rng)
    w = PointwiseWeighting(W, 1.5)
    P = W.power(2.0 / w.p)
    # (T/2) I, whose pair sum is (T/2)^s [K (*) R^s], the scale of the bound
    half_trace = np.trace(P, axis1=-2, axis2=-1) / m
    iso = PointwiseWeighting(MatrixWeight(grid, (half_trace ** (w.p / 2))[..., None, None]
                                          * np.eye(m)), w.p)
    levels = 0
    for q in (1.5, 2.0, 3.0):
        s = q / 2.0
        table = _series_table(w, s)
        assert table is not None
        n_max = len(table.coef) - 1
        if m == 1 or q == 2.0:
            assert n_max == (0 if m == 1 else 1) and table.error == 0.0
        finer = _series_table(w, s, 2 * n_max)
        rough = [_series_table(w, s, n) for n in (1, 3, 6) if n < n_max]
        for j, band in band_outputs(to_spectral(f), PAIR, cube_range.band_levels()):
            if not band.any():
                continue
            assert _real_band(band)
            levels += 1
            for kern in _pair_kernels(grid, j, q):
                ref = _pair_reduce(w, band, kern, s, np.add)
                top = np.max(ref)
                got = _series_sum(table, band, kern)
                assert np.max(np.abs(got - ref)) <= 1e-12 * top
                np.testing.assert_array_equal(_pair_sums(w, q)(band, kern), got)
                scale = _pair_reduce(iso, band, kern, s, np.add)
                for t in [table] + rough:
                    moved = np.abs(_series_sum(t, band, kern) - _series_sum(finer, band, kern))
                    assert np.all(moved <= t.error * scale + 1e-13 * top)
    assert levels >= 6


def test_angular_series_truncation_is_visible():
    """A short series moves far above rounding, so the bound check above can
    fail: at n_max = 6 on the oscillating weight the sum moves by ~1e-4 of
    itself, below the stated bound (~1e-2) and within a factor 1000 of it."""
    grid = TorusGrid(1, 1, 7)
    w = PointwiseWeighting(oscillating_weight(grid), 1.5)
    band = next(b for j, b in band_outputs(to_spectral(band_limited_noise(
        grid, 2, 0.0, 32.0, np.random.default_rng(31))), PAIR, range(3, 4)))
    kern = _pair_kernels(grid, 3, 1.5)[1]
    short, full = _series_table(w, 0.75, 6), _series_table(w, 0.75)
    exact = _series_sum(full, band, kern)
    moved = np.max(np.abs(_series_sum(short, band, kern) - exact) / exact)
    assert 1e-6 < moved <= short.error < 1e3 * moved
    assert full.error <= 1e-17


@pytest.mark.parametrize("seed", [20251017, 7])
def test_area_norms_take_series_on_real_fields(seed, monkeypatch):
    """On a real field every nonzero level of the Lusin and g-lambda-star norms
    takes the angular series, the noise-floor levels too: the characterize_1d
    desk inputs (N = 2048, levels [-2, 7], the oscillating weight) make no
    _pair_reduce call with a nonzero band.  With complex bands their noise-floor
    levels failed _real_band and made 4 such calls per seed."""
    grid = TorusGrid(1, 2, 9)
    f = band_limited_noise(grid, 2, 1.0, 32.0, np.random.default_rng(seed))
    w = PointwiseWeighting(oscillating_weight(grid), 1.5)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    direct, series = [], []
    reduce_, sum_ = spaces._pair_reduce, spaces._series_sum
    monkeypatch.setattr(spaces, "_pair_reduce", lambda w, band, *a, **k:
                        direct.append(band.any()) or reduce_(w, band, *a, **k))
    monkeypatch.setattr(spaces, "_series_sum", lambda table, band, kern:
                        series.append(1) or sum_(table, band, kern))
    lusin_norm(f, w, sp, PAIR, CubeRange(-2, 7))
    glambda_norm(f, w, sp, 3.0, PAIR, CubeRange(-2, 7))
    monkeypatch.undo()
    nonzero = sum(bool(band.any()) for _, band in
                  band_outputs(half_spectrum(f), PAIR, CubeRange(-2, 7).band_levels()))
    assert sum(direct) == 0
    assert len(series) == 2 * nonzero >= 16


def test_pair_sums_dispatch():
    """A genuinely complex m = 2 band at q = 1.5 takes _pair_reduce, bit for bit
    (the series would be wrong there); at q = 2, and for m = 1, the series is
    exact for it too; a weight beyond the order limit and m = 3 always take
    _pair_reduce; a zero band sums to zeros."""
    grid = TorusGrid(1, 1, 6)
    rng = np.random.default_rng(32)
    w = PointwiseWeighting(oscillating_weight(grid), 1.5)
    band = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    assert not _real_band(band)
    kern = _pair_kernels(grid, 2, 1.5)[1]
    direct = _pair_reduce(w, band, kern, 0.75, np.add)
    np.testing.assert_array_equal(_pair_sums(w, 1.5)(band, kern), direct)
    wrong = _series_sum(_series_table(w, 0.75), band, kern)
    assert np.max(np.abs(wrong - direct)) > 1e-6 * np.max(direct)
    got = _pair_sums(w, 2.0)(band, kern)
    ref = _pair_reduce(w, band, kern, 1.0, np.add)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(ref))
    np.testing.assert_array_equal(got, _series_sum(_series_table(w, 1.0), band, kern))
    w1 = PointwiseWeighting(power_weight(grid, 0.5), 1.5)
    ref = _pair_reduce(w1, band[..., :1], kern, 0.75, np.add)
    np.testing.assert_allclose(_pair_sums(w1, 1.5)(band[..., :1], kern), ref,
                               rtol=0, atol=1e-12 * np.max(ref))
    # rho near 1 needs more terms than the limit: every band goes direct
    steep = PointwiseWeighting(rotated_diag_weight(grid, 6.0), 1.5)
    assert _series_table(steep, 0.75) is None
    np.testing.assert_array_equal(_pair_sums(steep, 1.5)(band.real + 0j, kern),
                                  _pair_reduce(steep, band.real + 0j, kern, 0.75, np.add))
    w3 = PointwiseWeighting(identity_weight(grid, 3), 1.5)
    band3 = rng.standard_normal(grid.shape + (3,)) + 0j
    np.testing.assert_array_equal(_pair_sums(w3, 1.5)(band3, kern),
                                  _pair_reduce(w3, band3, kern, 0.75, np.add))
    zero = np.zeros(grid.shape + (2,), dtype=complex)
    for q, op in ((1.5, np.add), (2.0, np.maximum)):
        np.testing.assert_array_equal(_pair_reduce(w, zero, kern, q / 2, op), np.zeros(grid.shape))
    np.testing.assert_array_equal(_pair_sums(w, 1.5)(zero, kern), np.zeros(grid.shape))


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
    cube_range = CubeRange(-2, 5)
    value = tl_norm(f, w, SP, PAIR, cube_range).value
    ratio = truncation_ratio(value, GRID, cube_range, lambda wide: tl_norm(f, w, SP, PAIR, wide))
    assert ratio is not None
    assert abs(ratio - 1.0) <= 0.01


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


def test_hl_maximal_matches_scipy_filters():
    # the cyclic numpy filters against scipy's wrapped ones, at every radius up to
    # N/2, where the window of N + 1 samples meets one sample twice
    pytest.importorskip("scipy")
    from scipy.ndimage import maximum_filter1d, uniform_filter1d
    rng = np.random.default_rng(44)
    for grid in (TorusGrid(1, 2, 6), TorusGrid(2, 2, 3)):     # N = 256, 32^2
        vals = rng.random(grid.shape)
        N = grid.points_per_axis
        for eta in (1.0, 1.5):
            arr = vals ** eta
            best = arr.copy()
            for k in range(1, N // 2 + 1):
                size = 2 * k + 1
                avg = arr
                for ax in range(grid.dim):
                    ref = uniform_filter1d(arr, size=size, axis=ax, mode="wrap")
                    np.testing.assert_allclose(_cyclic_mean(arr, size, ax), ref, rtol=1e-12)
                    ref = maximum_filter1d(arr, size=size, axis=ax, mode="wrap")
                    assert np.array_equal(_cyclic_max(arr, size, ax), ref), (grid, k, ax)
                    avg = uniform_filter1d(avg, size=size, axis=ax, mode="wrap")
                for ax in range(grid.dim):
                    avg = maximum_filter1d(avg, size=size, axis=ax, mode="wrap")
                np.maximum(best, avg, out=best)
            m = hl_maximal(scalar_field(grid, vals), eta=eta).scalar()
            np.testing.assert_allclose(m, best ** (1.0 / eta), rtol=1e-12)


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


def test_per_level_computed_on_first_read(monkeypatch):
    """A report's value takes batches of one only; the per-level batch runs once,
    when per_level is first read, and gives the eager batch's values exactly."""
    grid, cube_range = TorusGrid(1, 2, 6), CubeRange(-2, 4)
    p, t, r, q = 1.5, 2.0, np.inf, 1.5
    rng = np.random.default_rng(44)
    mags = [(j, rng.random(grid.shape) * 2.0 ** j) for j in cube_range.band_levels()]
    levels = cube_range.cube_levels()
    fine = {j: cube_sums(grid, mag ** p, max(levels)) for j, mag in mags}
    eager = dict(zip(fine, map(float, spaces._bm_norms(
        grid, np.stack(list(fine.values()), axis=-1), p, t, r, levels))))
    batches = []
    bm_norms = spaces._bm_norms
    monkeypatch.setattr(spaces, "_bm_norms",
                        lambda grid, fine, *a: batches.append(fine.shape[-1])
                        or bm_norms(grid, fine, *a))
    rep = _level_sum(grid, mags, p, t, r, q, cube_range)
    assert batches == [1]                       # the value only
    assert rep.per_level == eager and dict(rep.per_level) == eager
    assert list(rep.per_level) == list(cube_range.band_levels())
    assert batches == [1, len(mags)]            # one batch, on the first read only
    f = band_limited_noise(grid, 2, 0.5, 8.0, rng)
    batches.clear()
    tl_norm(f, PointwiseWeighting(oscillating_weight(grid), p),
            SpaceParams(0.5, p, q, t, r), PAIR, cube_range)
    assert batches == [1]


def test_weighting_built_at_another_p_is_refused():
    # PointwiseWeighting(W, 3.0) under p = 1.5 gave tl_norm 3.92 (5.61 at the
    # space's p) and raised nothing; every band-pass norm and seq_norm now refuse it
    grid = TorusGrid(1, 2, 6)
    hom, inh = CubeRange(-2, 3), CubeRange(-2, 3, inhomogeneous=True)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    sp_inh = SpaceParams(3.0, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    W = oscillating_weight(grid)
    f = band_limited_noise(grid, 2, 0.5, 4.0, np.random.default_rng(5))
    pw = PointwiseWeighting(W, 3.0)
    cw = CubewiseWeighting(reducing_operators(W, 3.0, hom))
    coeffs = phi_transform(f, PAIR, hom)
    calls = [lambda: tl_norm(f, pw, sp, PAIR, hom),
             lambda: tl_norm(f, cw, sp, PAIR, hom),
             lambda: peetre_norm(f, pw, sp, 4.0, PAIR, hom),
             lambda: lusin_norm(f, pw, sp, PAIR, hom),
             lambda: glambda_norm(f, pw, sp, 3.0, PAIR, hom),
             lambda: approx_norm(f, pw, sp_inh, PART, inh),
             lambda: seq_norm(coeffs, pw, sp, hom),
             lambda: seq_norm(coeffs, cw, sp, hom)]
    for call in calls:
        with pytest.raises(ValueError, match=r"built at p = 3\.0, the space has p = 1\.5"):
            call()
    # built at the space's p, both weightings are taken
    assert tl_norm(f, PointwiseWeighting(W, 1.5), sp, PAIR, hom).value > 0
    assert seq_norm(coeffs, CubewiseWeighting(reducing_operators(W, 1.5, hom)), sp,
                    hom).value > 0
