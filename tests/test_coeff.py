import numpy as np
import pytest

from bmtl.coeff import (ADProfile, MoleculeParams, ad_apply, ad_enumerate,
                        ad_random_operator, ad_weight, atom_field, atom_rearrange,
                        atom_synthesis, measure_atom_params, molecule_check, phi_synthesis,
                        phi_transform)
from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import CubeRange, DyadicCube, cubes_at_level, cubes_per_axis
from bmtl.fields import SampledField, l2_norm, scalar_field
from bmtl.grid import TorusGrid
from bmtl.harness import band_limited_noise
from bmtl.lpa import BAND_LEVEL_OFFSET, make_admissible_pair
from bmtl.spaces import CubewiseWeighting, SpaceParams, seq_norm
from bmtl.wavelets import (parseval_defect, wavelet_analyze, wavelet_basis_field,
                           wavelet_synthesize)
from bmtl.weights import oscillating_weight, reducing_operators

GRID = TorusGrid(1, 2, 8)
RANGE = CubeRange(-1, 6)
PAIR = make_admissible_pair()


def test_phi_transform_zero_and_linearity():
    zero = SampledField(GRID, np.zeros(GRID.shape + (2,)))
    assert all(np.all(v == 0) for v in phi_transform(zero, PAIR, RANGE).entries.values())
    rng = np.random.default_rng(0)
    f = band_limited_noise(GRID, 2, 0.5, 8.0, rng)
    g = band_limited_noise(GRID, 2, 0.5, 8.0, rng)
    combo = SampledField(GRID, 1.5 * f.values - 0.5 * g.values)
    cf = phi_transform(f, PAIR, RANGE)
    cg = phi_transform(g, PAIR, RANGE)
    cc = phi_transform(combo, PAIR, RANGE)
    for cube in cc.entries:
        expect = 1.5 * cf.get(cube) - 0.5 * cg.get(cube)
        assert np.max(np.abs(cc.get(cube) - expect)) < 1e-12


def test_coeff_sequence_dense_levels_and_read_only_view():
    rng = np.random.default_rng(20)
    given = {c: rng.standard_normal(2) for c in cubes_at_level(GRID, 3) if rng.random() < 0.5}
    seq = CoeffSequence(GRID, given, 2)
    dense = np.zeros((cubes_per_axis(GRID, 3), 2), dtype=complex)
    for c, v in given.items():
        dense[c.index] = v
    assert seq.levels() == [3]
    assert np.array_equal(seq.level_array(3), dense)
    assert np.array_equal(seq.level_array(2), np.zeros((cubes_per_axis(GRID, 2), 2)))
    assert list(seq.entries) == cubes_at_level(GRID, 3)   # every cube of the stored level
    assert np.array_equal(seq.get(DyadicCube(4, (0,))), np.zeros(2))
    with pytest.raises(TypeError):
        seq.entries[DyadicCube(3, (0,))] = np.ones(2)
    with pytest.raises(ValueError):
        seq.entries[DyadicCube(3, (0,))][0] = 1.0
    with pytest.raises(ValueError):
        CoeffSequence(GRID, {DyadicCube(40, (0,)): np.ones(2)}, 2)


def test_phi_round_trip_band_limited():
    rng = np.random.default_rng(1)
    for _ in range(3):
        f = band_limited_noise(GRID, 2, 0.5, 8.0, rng)
        rec = phi_synthesis(phi_transform(f, PAIR, RANGE), PAIR)
        err = l2_norm(SampledField(GRID, rec.values - f.values)) / l2_norm(f)
        assert err < 1e-8


def test_phi_synthesis_single_coefficient_matches_direct_sum():
    j, k = 3, 5
    cube = DyadicCube(j, (k,))
    coeffs = CoeffSequence(GRID, {cube: np.array([1.0])}, 1)
    out = phi_synthesis(coeffs, PAIR).values[:, 0]
    # reference: |Q|^(1/2) * (1/L) sum_xi psi^(2^(off-j) xi) e^(2 pi i (x-x_Q) xi)
    xs = GRID.axis_coords()
    xi = GRID.axis_freqs()
    psi_hat = PAIR.psi(np.abs(xi) * 2.0 ** (BAND_LEVEL_OFFSET - j))
    phase = np.exp(2j * np.pi * np.outer(xs - cube.corner[0], xi))
    ref = cube.measure ** 0.5 * (phase @ psi_hat) / GRID.side
    assert np.max(np.abs(out - ref)) < 1e-10


def phi_synthesis_per_level(coeffs, bank, levels):
    """phi_synthesis as it was: each level's coefficient comb on the whole grid,
    one forward and one inverse FFT per level."""
    grid = coeffs.grid
    axes = tuple(range(grid.dim))
    acc = np.zeros(grid.shape + (coeffs.channels,), dtype=complex)
    for j in levels:
        comb = np.zeros_like(acc)
        stride = 1 << (grid.res_log2 - j)
        comb[(slice(None, None, stride),) * grid.dim] = (
            coeffs.level_array(j) * 2.0 ** (-j * grid.dim / 2.0) / grid.cell_measure)
        spectrum = np.fft.fftn(comb, axes=axes) * grid.cell_measure
        mult = bank.synthesis(grid.freq_radius(), j)
        acc += np.fft.ifftn(spectrum * mult[..., None], axes=axes) / grid.cell_measure
    return acc


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 6), TorusGrid(2, 1, 4)], ids=["1d_256", "2d_32"])
@pytest.mark.parametrize("inhomogeneous", [False, True])
def test_phi_synthesis_matches_per_level_combs(grid, inhomogeneous):
    from bmtl.lpa import make_inhom_partition
    bank = make_inhom_partition() if inhomogeneous else PAIR
    cr = CubeRange(0 if inhomogeneous else -grid.side_log2, grid.res_log2 - 2, inhomogeneous)
    levels = list(cr.band_levels())
    rng = np.random.default_rng(grid.dim)
    arrays = {}
    for j in levels[:-2] + levels[-1:]:           # level levels[-2] is not stored
        shape = (cubes_per_axis(grid, j),) * grid.dim + (2,)
        arrays[j] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = CoeffSequence(grid, arrays, 2)
    for given, summed in ((None, coeffs.levels()), (levels, levels),
                          (levels[-2:], levels[-2:])):
        ref = phi_synthesis_per_level(coeffs, bank, summed)
        out = phi_synthesis(coeffs, bank, given).values
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_phi_round_trip_inhomogeneous():
    # partition analysis with its band-limited dual reproduces low frequencies too
    from bmtl.lpa import make_inhom_partition
    part = make_inhom_partition()
    rng = np.random.default_rng(30)
    f = band_limited_noise(GRID, 2, 0.0, 8.0, rng)   # includes DC
    cr = CubeRange(0, 6, inhomogeneous=True)
    rec = phi_synthesis(phi_transform(f, part, cr), part)
    err = l2_norm(SampledField(GRID, rec.values - f.values)) / l2_norm(f)
    assert err < 1e-12


def test_partition_dual_identity():
    from bmtl.lpa import make_inhom_partition
    part = make_inhom_partition()
    rho = np.linspace(0.0, 64.0, 4001)
    total = sum(part.level(j)(rho) * part.dual(j)(rho) for j in range(0, 9))
    covered = rho <= 2.0 ** 7
    assert np.max(np.abs(total[covered] - 1.0)) < 1e-12
    # dual support stays inside the level band
    d3 = part.dual(3)(rho)
    assert np.all(d3[(rho < 4.0) | (rho > 16.0)] == 0.0)


def test_inhomogeneous_four_norm_spread():
    from bmtl.harness import four_norms
    from bmtl.lpa import make_inhom_partition
    part = make_inhom_partition()
    rng = np.random.default_rng(31)
    W = oscillating_weight(GRID)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    cr = CubeRange(0, 6, inhomogeneous=True)
    f = band_limited_noise(GRID, 2, 0.0, 8.0, rng)
    norms = four_norms(f, W, sp, part, cr)
    spread = max(norms.values()) / min(norms.values())
    assert spread <= 50.0


def test_ad_weight_hand_values():
    prof = ADProfile(s=0.0, p=1.0, q=1.0, epsilon=0.5)
    n = GRID.dim
    Q = DyadicCube(2, (3,))
    assert ad_weight(GRID, Q, Q, prof) == pytest.approx(1.0)
    # same level, separation k * side
    for k in (1, 3, 7):
        P = DyadicCube(2, (3 + k,))
        expect = (1.0 + k) ** (-(n / 1.0) - prof.epsilon)
        assert ad_weight(GRID, Q, P, prof) == pytest.approx(expect, rel=1e-12)
    # parent with the same corner, s = 0, J = 1: min picks (l(Q)/l(P))^((n+eps)/2)
    Q = DyadicCube(3, (0,))
    P = DyadicCube(2, (0,))
    assert ad_weight(GRID, Q, P, prof) == pytest.approx(2.0 ** (-(n + prof.epsilon) / 2.0), rel=1e-12)


def test_ad_weight_weighted_variant_decays_faster():
    plain = ADProfile(s=0.0, p=1.5, q=1.2, epsilon=0.5)
    weighted = ADProfile(s=0.0, p=1.5, q=1.2, epsilon=0.5, d=0.5, d_tilde=0.3,
                         delta_cap=0.5 / 1.5 + 0.3 / 3.0)
    Q = DyadicCube(2, (0,))
    P = DyadicCube(2, (9,))
    assert ad_weight(GRID, Q, P, weighted, "weighted") < ad_weight(GRID, Q, P, plain, "plain")
    # torus wrap: index 15 of 16 is one cube away from index 0
    P_wrap = DyadicCube(2, (15,))
    P_near = DyadicCube(2, (1,))
    assert ad_weight(GRID, Q, P_wrap, plain) == pytest.approx(ad_weight(GRID, Q, P_near, plain))


def test_ad_apply_identity_and_zero():
    rng = np.random.default_rng(2)
    entries = {c: rng.standard_normal(1) for c in cubes_at_level(GRID, 2)}
    coeffs = CoeffSequence(GRID, entries, 1)
    ident = {(2, 2): np.eye(len(cubes_at_level(GRID, 2)))}
    out = ad_apply(ident, coeffs)
    for c in entries:
        assert out.get(c) == pytest.approx(entries[c])
    zero = CoeffSequence(GRID, {}, 1)
    assert ad_apply(ident, zero).entries == {}


def test_ad_single_column_bound():
    prof = ADProfile(s=0.2, p=1.5, q=1.2, epsilon=0.4)
    small = CubeRange(0, 3)
    ops = ad_random_operator(GRID, small, prof, seed=3)
    P0 = DyadicCube(2, (5,))
    coeffs = CoeffSequence(GRID, {P0: np.array([1.0])}, 1)
    out = ad_apply(ops, coeffs)
    for Q, v in out.entries.items():
        assert np.abs(v[0]) <= ad_weight(GRID, Q, P0, prof) + 1e-12


def test_ad_enumerate_drop_accounting():
    prof = ADProfile(s=0.0, p=1.0, q=1.0, epsilon=1.0)
    kept, dropped = ad_enumerate(GRID, CubeRange(0, 4), prof, drop_tol=1e-6)
    total = sum(float(np.sum(b)) for b in kept.values())
    assert dropped <= 1e-4 * total
    kept_all, dropped_all = ad_enumerate(GRID, CubeRange(0, 4), prof, drop_tol=0.0)
    assert dropped_all == 0.0
    assert sum(map(np.count_nonzero, kept_all.values())) >= sum(map(np.count_nonzero, kept.values()))


def _ad_per_entry_reference(grid, cube_range, prof, variant, seed, drop_tol):
    """The per-entry form of ad_enumerate + ad_random_operator: {(Q, P): b_QP}
    and the dropped mass, with u drawn in dict order."""
    from bmtl.coeff import _omega_arrays
    levels = cube_range.band_levels()
    cubes = {j: cubes_at_level(grid, j) for j in levels}
    corners = {j: np.array([c.corner for c in cubes[j]]) for j in levels}
    kept, dropped = {}, 0.0
    for jQ in levels:
        for jP in levels:
            diff = grid.wrap_delta(corners[jQ][:, None, :] - corners[jP][None, :, :])
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            om = _omega_arrays(grid, 2.0 ** (-jQ), 2.0 ** (-jP), dist, prof, variant)
            keep = om >= drop_tol
            dropped += float(np.sum(om[~keep]))
            for a, b in zip(*np.nonzero(keep)):
                kept[(cubes[jQ][a], cubes[jP][b])] = float(om[a, b])
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(kept))
    return {qp: float(c) * w for (qp, w), c in zip(kept.items(), u)}, dropped


def _ad_apply_reference(entries, coeffs):
    source = {P: s for P, s in coeffs.entries.items() if s.any()}
    out = {}
    for (Q, P), b in entries.items():
        s = source.get(P)
        if s is not None:
            out[Q] = out.get(Q, 0.0) + b * s
    return CoeffSequence(coeffs.grid, out, coeffs.channels)


@pytest.mark.parametrize("grid, cube_range", [(TorusGrid(1, 2, 6), CubeRange(0, 5)),
                                              (TorusGrid(2, 2, 3), CubeRange(0, 2))])
@pytest.mark.parametrize("variant", ["plain", "weighted"])
def test_ad_blocks_match_per_entry_reference(grid, cube_range, variant):
    prof = ADProfile(s=0.4, p=1.5, q=1.2, epsilon=0.5, d=0.3, d_tilde=0.5, delta_cap=0.4)
    drop_tol = 0.02                      # drops most of the entries on both grids
    ref, ref_dropped = _ad_per_entry_reference(grid, cube_range, prof, variant, 11, drop_tol)
    blocks = ad_random_operator(grid, cube_range, prof, variant, seed=11, drop_tol=drop_tol)
    _, dropped = ad_enumerate(grid, cube_range, prof, variant, drop_tol)
    assert ref_dropped > 0.0 and dropped == ref_dropped
    dense = {qp: np.zeros_like(b) for qp, b in blocks.items()}
    for (Q, P), b in ref.items():
        row = np.ravel_multi_index(Q.index, (cubes_per_axis(grid, Q.level),) * grid.dim)
        col = np.ravel_multi_index(P.index, (cubes_per_axis(grid, P.level),) * grid.dim)
        dense[(Q.level, P.level)][row, col] = b
    assert all(np.array_equal(blocks[qp], dense[qp]) for qp in blocks)
    assert sum(map(np.count_nonzero, blocks.values())) == len(ref)
    rng = np.random.default_rng(12)
    entries = {c: rng.standard_normal(2) + 1j * rng.standard_normal(2)
               for j in (1, 2) for c in cubes_at_level(grid, j) if rng.random() < 0.5}
    coeffs = CoeffSequence(grid, entries, 2)
    out, want = ad_apply(blocks, coeffs), _ad_apply_reference(ref, coeffs)
    assert out.levels() == want.levels()
    for j in want.levels():
        err = np.max(np.abs(out.level_array(j) - want.level_array(j)))
        assert err <= 1e-13 * np.max(np.abs(want.level_array(j)))


@pytest.mark.parametrize("field", ["s", "p", "q", "epsilon", "d", "d_tilde", "delta_cap"])
def test_ad_profile_rejects_non_finite(field):
    base = dict(s=0.4, p=1.5, q=1.2, epsilon=0.5, d=0.3, d_tilde=0.5, delta_cap=0.4)
    bad = [np.nan, np.inf, -np.inf] + ([0.0, -1.0] if field in ("p", "q", "epsilon") else [])
    for value in bad:
        with pytest.raises(ValueError, match=f"^{field} must"):
            ADProfile(**{**base, field: value})
    ADProfile(**{**base, field: 2.0})


def test_ad_boundedness_ratio():
    # random |b_QP| <= omega_QP (weighted profile) acts boundedly on the A_Q side
    rng = np.random.default_rng(4)
    W = oscillating_weight(GRID)
    p, q, s = 1.5, 1.2, 0.4
    small = CubeRange(0, 4)
    fam = reducing_operators(W, p, small)
    from bmtl.weights import ap_dimensions
    d, dt, delta = ap_dimensions(W, p, small, i_max=2)
    prof = ADProfile(s=s, p=p, q=q, epsilon=0.5, d=d, d_tilde=dt, delta_cap=delta)
    sp = SpaceParams(s, p, q, 2.0, np.inf)
    w = CubewiseWeighting(fam)
    for seed in range(3):
        ops = ad_random_operator(GRID, small, prof, variant="weighted", seed=seed)
        entries = {c: rng.standard_normal(2) for c in cubes_at_level(GRID, 3)}
        coeffs = CoeffSequence(GRID, entries, 2)
        num = seq_norm(ad_apply(ops, coeffs), w, sp, small).value
        den = seq_norm(coeffs, w, sp, small).value
        assert num / den <= 50.0


def test_synthesis_bound_ratio():
    # tl(phi_synthesis(s)) / seq_norm(s) stays bounded on sparse random input
    from bmtl.spaces import tl_norm
    rng = np.random.default_rng(5)
    W = oscillating_weight(GRID)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    fam = reducing_operators(W, sp.p, RANGE)
    w = CubewiseWeighting(fam)
    for _ in range(3):
        entries = {}
        for j in (1, 2, 3, 4):
            for c in cubes_at_level(GRID, j):
                if rng.random() < 0.2:
                    entries[c] = rng.standard_normal(2)
        coeffs = CoeffSequence(GRID, entries, 2)
        f = phi_synthesis(coeffs, PAIR)
        num = tl_norm(SampledField(GRID, f.values), w, sp, PAIR, RANGE).value
        den = seq_norm(coeffs, w, sp, RANGE).value
        assert num / den <= 50.0


def test_sup_cube_surrogate_bounded():
    # replacing |A_Q band(x)| by its sup over Q changes tl by a bounded factor
    from bmtl.dyadic import level_block_view, spread_to_grid
    from bmtl.fields import to_spectral
    from bmtl.lpa import band_outputs
    from bmtl.spaces import bm_array_norm
    rng = np.random.default_rng(6)
    W = oscillating_weight(GRID)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    fam = reducing_operators(W, sp.p, RANGE)
    w = CubewiseWeighting(fam)
    f = band_limited_noise(GRID, 2, 0.5, 8.0, rng)
    F = to_spectral(f)
    plain_acc = np.zeros(GRID.shape)
    sup_acc = np.zeros(GRID.shape)
    for j, band in band_outputs(F, PAIR, RANGE.band_levels()):
        mag = w.magnitude(j, band)
        blocks = level_block_view(GRID, mag, j)
        sup_per_cube = blocks.max(axis=1)
        sup_mag = spread_to_grid(GRID, sup_per_cube, j)
        plain_acc += (2.0 ** (j * sp.s) * mag) ** sp.q
        sup_acc += (2.0 ** (j * sp.s) * sup_mag) ** sp.q
    lo = bm_array_norm(GRID, plain_acc ** (1 / sp.q), sp.p, sp.t, sp.r, RANGE.cube_levels())
    hi = bm_array_norm(GRID, sup_acc ** (1 / sp.q), sp.p, sp.t, sp.r, RANGE.cube_levels())
    assert 1.0 - 1e-12 <= hi / lo <= 10.0


# ---------------------------------------------------------------------------
# molecules


def test_molecule_zero_family_passes():
    rep = molecule_check({}, MoleculeParams(N=1, K=1, M=3.0))
    assert rep["m1_pass"] and rep["m1_max"] == 0.0


def test_molecule_gaussian_fails_moments():
    g = TorusGrid(1, 2, 7)
    cube = DyadicCube(1, (2,))
    x = g.coords()[0]
    bump = np.exp(-((x - cube.center[0]) / (0.5 * cube.side)) ** 2)
    fam = {cube: scalar_field(g, bump)}
    rep = molecule_check(fam, MoleculeParams(N=0, K=0, M=3.0), eps=1e-8)
    assert not rep["m1_pass"]


def test_molecule_db6_wavelets_pass_moments():
    g = TorusGrid(1, 2, 8)
    fam = {}
    for j, k in [(4, 7), (5, 13)]:
        cube = DyadicCube(j, (k,))
        fam[cube] = wavelet_basis_field(g, 6, 1, cube, j_min=2)
    rep = molecule_check(fam, MoleculeParams(N=5, K=0, M=2.0), eps=1e-8)
    assert rep["m1_pass"], rep["m1_max"]
    assert rep["m2_const"] > 0


# ---------------------------------------------------------------------------
# wavelets


def test_wavelet_parseval_random():
    rng = np.random.default_rng(7)
    for dim, K, J in [(1, 2, 8), (2, 1, 4)]:
        g = TorusGrid(dim, K, J)
        f = SampledField(g, rng.standard_normal(g.shape + (2,)))
        coeffs = wavelet_analyze(f, 6, CubeRange(-K, J - 2))
        assert parseval_defect(f, coeffs) < 1e-10


def test_wavelet_round_trip():
    rng = np.random.default_rng(8)
    for dim, K, J in [(1, 2, 7), (2, 1, 4)]:
        g = TorusGrid(dim, K, J)
        f = SampledField(g, rng.standard_normal(g.shape + (1,)))
        coeffs = wavelet_analyze(f, 4, CubeRange(0, J - 2))
        back = wavelet_synthesize(coeffs, 4)
        assert np.max(np.abs(back.values - f.values)) < 1e-10


def test_wavelet_orthonormal_basis_roundtrip():
    g = TorusGrid(1, 2, 7)
    cube = DyadicCube(3, (5,))
    basis = wavelet_basis_field(g, 6, 1, cube, j_min=1)
    coeffs = wavelet_analyze(basis, 6, CubeRange(1, g.res_log2 - 2))
    got = coeffs[1].get(cube)
    assert got[0] == pytest.approx(1.0, abs=1e-10)
    total = sum(np.sum(np.abs(v) ** 2) for seq in coeffs.values() for v in seq.entries.values())
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("db", [2, 4])
def test_wavelet_2d_generators_are_separable_in_axis_order(db):
    # bit k of generator i (most significant first) picks the 1D wavelet, not the
    # scaling function, along axis k; the round trip and Parseval hold under any
    # permutation of the generators, this pins their order
    g1, g2 = TorusGrid(1, 1, 4), TorusGrid(2, 1, 4)
    j, index = 1, (1, 2)
    one_d = [[wavelet_basis_field(g1, db, gen, DyadicCube(j, (k,)), j).scalar()
              for gen in (0, 1)] for k in index]
    for i in range(4):
        bits = ((i >> 1) & 1, i & 1)
        expect = np.outer(one_d[0][bits[0]], one_d[1][bits[1]])
        got = wavelet_basis_field(g2, db, i, DyadicCube(j, index), j).scalar()
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect)), i


@pytest.mark.parametrize("g", [TorusGrid(1, 1, 4), TorusGrid(2, 1, 3)], ids=["1d", "2d"])
def test_wavelet_basis_field_rejects_generator_outside_range(g):
    # generators 2^n and -1 gave a zero field: their sequence was never read
    count = 2 ** g.dim
    cube = DyadicCube(2, (0,) * g.dim)
    for generator in (count, count + 3, -1):
        with pytest.raises(ValueError, match=rf"generator {generator} outside \[0, {count}\)"):
            wavelet_basis_field(g, 6, generator, cube, 1)
    assert np.max(np.abs(wavelet_basis_field(g, 6, count - 1, cube, 1).values)) > 0


def _wavelet_set_faults(g: TorusGrid) -> dict:
    """{fault: (generator set, message)} for wavelet_synthesize: each set breaks one rule."""
    from bmtl.wavelets import empty_coeffs
    rng = np.random.default_rng(12)
    f = SampledField(g, rng.standard_normal(g.shape + (1,)))
    good = wavelet_analyze(f, 2, CubeRange(0, g.res_log2 - 1))
    last = 2 ** g.dim - 1
    two = CoeffSequence(g, {2: np.zeros((cubes_per_axis(g, 2),) * g.dim + (2,))}, 2)
    other = CoeffSequence(TorusGrid(g.dim, g.side_log2, g.res_log2 + 1), {}, 1)
    levels = CoeffSequence(g, {j: good[0].level_array(j) for j in (0, 1)}, 1)
    return {"no_approx_level": (empty_coeffs(g, 1), r"generator 0 \(the approximation\) "
                                r"stores levels \[\], expected exactly one"),
            "two_approx_levels": ({**good, 0: levels}, r"stores levels \[0, 1\]"),
            "approx_alone": ({0: good[0]}, rf"generator 1 is missing: keys must be 0..{last}"),
            "no_approx": ({i: good[i] for i in range(1, last + 1)},
                          r"generator 0 \(the approximation\) is missing"),
            "extra_key": ({**good, last + 1: good[1]}, rf"generator {last + 1} is not one of"),
            "channels": ({**good, 1: two}, "generator 1 has 2 channels, generator 0 has 1"),
            "grid": ({**good, last: other}, rf"generator {last} lies on TorusGrid")}


@pytest.mark.parametrize("fault", ["no_approx_level", "two_approx_levels", "approx_alone",
                                   "no_approx", "extra_key", "channels", "grid"])
@pytest.mark.parametrize("g", [TorusGrid(1, 1, 4), TorusGrid(2, 1, 3)], ids=["1d", "2d"])
def test_wavelet_synthesize_rejects_malformed_generator_sets(g, fault):
    # these ended in min() of an empty sequence, a KeyError, numpy's
    # "non-broadcastable output operand", or a synthesis that ignored some levels
    coeffs, message = _wavelet_set_faults(g)[fault]
    with pytest.raises(ValueError, match=message):
        wavelet_synthesize(coeffs, 2)


def test_wavelet_linearity():
    rng = np.random.default_rng(9)
    g = TorusGrid(1, 1, 6)
    f1 = SampledField(g, rng.standard_normal(g.shape + (1,)))
    f2 = SampledField(g, rng.standard_normal(g.shape + (1,)))
    combo = SampledField(g, 2.0 * f1.values + 3.0 * f2.values)
    r = CubeRange(0, 3)
    ca, cb, cc = (wavelet_analyze(x, 5, r) for x in (f1, f2, combo))
    for i in cc:
        for cube in cc[i].entries:
            expect = 2.0 * ca[i].get(cube) + 3.0 * cb[i].get(cube)
            assert np.max(np.abs(cc[i].get(cube) - expect)) < 1e-10


def test_wavelet_annihilates_local_polynomials():
    # degree < vanishing moments: interior detail coefficients vanish
    g = TorusGrid(1, 2, 9)
    x = g.coords()[0]
    patch = (x >= 1.0) & (x < 3.0)
    vals = np.where(patch, 0.3 + 0.8 * x - 0.2 * x ** 2 + 0.05 * x ** 3, 0.0)
    f = SampledField(g, vals[..., None])
    coeffs = wavelet_analyze(f, 6, CubeRange(0, g.res_log2 - 2))
    # cascade footprint of the coefficient at cube Q: about (2*order) sides of Q
    peak = max(np.max(np.abs(v)) for v in coeffs[1].entries.values())
    interior = 0
    for cube, v in coeffs[1].entries.items():
        lo = cube.corner[0]
        hi = lo + 2 * 6 * cube.side
        if lo >= 1.0 and hi <= 3.0:
            interior += 1
            assert np.max(np.abs(v)) < 1e-8 * max(peak, 1.0), cube
    assert interior > 20


def test_wavelet_depth_rejected():
    g = TorusGrid(1, 1, 4)
    f = SampledField(g, np.zeros(g.shape + (1,)))
    with pytest.raises(ValueError):
        wavelet_analyze(f, 4, CubeRange(-2, 2))


def test_db_order_validation():
    g = TorusGrid(1, 1, 4)
    f = SampledField(g, np.zeros(g.shape + (1,)))
    with pytest.raises(ValueError):
        wavelet_analyze(f, 11, CubeRange(0, 2))


def test_wavelet_refusals_name_the_j_min_range():
    # j_min 4 leaves no step on res_log2 = 4, j_min -3 is coarser than the torus
    g = TorusGrid(1, 2, 4)
    f = SampledField(g, np.ones(g.shape + (1,)))
    for j_min in (4, -3):
        with pytest.raises(ValueError, match=rf"^wavelet j_min {j_min} outside \[-2, 3\]$"):
            wavelet_analyze(f, 6, CubeRange(j_min, 4))


def test_parseval_defect_of_zero_field_is_absolute():
    g = TorusGrid(2, 1, 3)
    zero = SampledField(g, np.zeros(g.shape + (2,)))
    coeffs = wavelet_analyze(zero, 6, CubeRange(0, 2))
    assert parseval_defect(zero, coeffs) == 0.0
    coeffs[2] = CoeffSequence(g, {1: np.full((4, 4, 2), 0.5)}, 2)
    assert parseval_defect(zero, coeffs) == 32 * 0.25


def _analysis_by_taps(a, filt, axis):
    """The per-tap gather form: one fancy-index copy of the whole array per tap."""
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    out = np.zeros((n // 2,) + a.shape[1:], dtype=a.dtype)
    idx = 2 * np.arange(n // 2)
    for t, c in enumerate(filt):
        out += c * a[(idx + t) % n]
    return np.moveaxis(out, 0, axis)


def _synthesis_by_taps(lo_c, hi_c, lo, hi, axis):
    """The per-tap scatter form, low-pass taps then high-pass taps."""
    lo_c, hi_c = np.moveaxis(lo_c, axis, 0), np.moveaxis(hi_c, axis, 0)
    half = lo_c.shape[0]
    out = np.zeros((2 * half,) + lo_c.shape[1:], dtype=lo_c.dtype)
    idx = 2 * np.arange(half)
    for coeffs, filt in ((lo_c, lo), (hi_c, hi)):
        for t, c in enumerate(filt):
            out[(idx + t) % (2 * half)] += c * coeffs
    return np.moveaxis(out, 0, axis)


def _same_bits(got, want):
    return (np.array_equal(got, want) and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


WAVELET_STEP_SHAPES = [(n, 2) for n in (8, 16, 32, 64, 128, 256)] + [(16, 16, 2), (32, 32, 2)]


@pytest.mark.parametrize("db", [2, 6, 10])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_wavelet_steps_match_per_tap_oracle(db, kind):
    # the polyphase steps against the per-tap gather/scatter form, bit for bit; the
    # shapes include steps where half < db (a shift wraps more than once)
    from bmtl.wavelets import _analysis_step, _filters, _synthesis_step
    rng = np.random.default_rng(db)
    lo, hi = _filters(db)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x if kind == "real" else x + 1j * rng.standard_normal(shape)

    for shape in WAVELET_STEP_SHAPES:
        a, b = draw(shape), draw(shape)
        for axis in range(len(shape) - 1):
            for filt in (lo, hi):
                assert _same_bits(_analysis_step(a, filt, axis),
                                  _analysis_by_taps(a, filt, axis)), (shape, axis)
            lo_c, hi_c = _analysis_by_taps(a, lo, axis), _analysis_by_taps(b, hi, axis)
            assert _same_bits(_synthesis_step(lo_c, hi_c, lo, hi, axis),
                              _synthesis_by_taps(lo_c, hi_c, lo, hi, axis)), (shape, axis)


def _synthesize_by_taps(coeffs, db):
    """The inverse pyramid in complex arithmetic throughout, by per-tap scatters."""
    from bmtl.wavelets import _filters
    lo, hi = _filters(db)
    grid = coeffs[0].grid
    j_min = min(coeffs[0].levels())
    scale = grid.cell_measure ** 0.5
    a = coeffs[0].level_array(j_min) / scale
    for j in range(j_min, grid.res_log2):
        bands = [a] + [coeffs[i].level_array(j) / scale for i in range(1, 2 ** grid.dim)]
        for axis in reversed(range(grid.dim)):
            bands = [_synthesis_by_taps(bands[k], bands[k + 1], lo, hi, axis)
                     for k in range(0, len(bands), 2)]
        a, = bands
    return a


@pytest.mark.parametrize("db", [2, 6, 10])
def test_wavelet_pyramid_matches_per_tap_oracle(db, monkeypatch):
    # whole pyramids down to the torus level, so the coarse steps have half = 1, 2, ...;
    # a real field's coefficients take the real synthesis, whose output must be the
    # real part of the complex pyramid's, bit for bit
    from bmtl import wavelets
    rng = np.random.default_rng(db)
    for g in (TorusGrid(1, 2, 4), TorusGrid(2, 1, 3)):
        real = rng.standard_normal(g.shape + (2,))
        for values in (real, real + 1j * rng.standard_normal(g.shape + (2,))):
            f = SampledField(g, values)
            r = CubeRange(-g.side_log2, g.res_log2 - 1)
            fast = wavelet_analyze(f, db, r)
            with monkeypatch.context() as patch:
                patch.setattr(wavelets, "_analysis_step", _analysis_by_taps)
                slow = wavelet_analyze(f, db, r)
            for i, seq in slow.items():
                for j in seq.levels():
                    assert _same_bits(fast[i].level_array(j), seq.level_array(j)), (g, i, j)
            back, want = wavelet_synthesize(fast, db).values, _synthesize_by_taps(slow, db)
            assert _same_bits(back, want if np.iscomplexobj(values) else want.real.copy()), g


# ---------------------------------------------------------------------------
# atoms


def test_atom_rearrange_zero_input():
    g = TorusGrid(1, 1, 5)
    from bmtl.wavelets import empty_coeffs
    coeffs = empty_coeffs(g, 1)
    coeffs[0] = CoeffSequence(g, {DyadicCube(0, (0,)): np.zeros(1)}, 1)
    seq = atom_rearrange(coeffs, CubeRange(0, 3))
    assert len(seq.entries) == 0


def test_atom_single_coefficient_support_and_synthesis():
    g = TorusGrid(1, 2, 8)
    from bmtl.wavelets import empty_coeffs
    coeffs = empty_coeffs(g, 1)
    j_min = 1
    coeffs[0] = CoeffSequence(g, {DyadicCube(j_min, (0,)): np.zeros(1)}, 1)
    src = DyadicCube(4, (9,))
    coeffs[1] = CoeffSequence(g, {src: np.array([0.8])}, 1)
    seq = atom_rearrange(coeffs, CubeRange(j_min, 6))
    child = src.children()[0]
    assert np.any(seq.get(child) != 0)
    assert seq.get(child)[0] == pytest.approx(0.8)
    a = atom_field(g, 6, child).scalar()
    nz = np.abs(a) > 1e-12
    dist = g.torus_dist(np.stack([g.coords()[0][nz]], axis=-1), src.corner)
    b = float(np.max(dist) / child.side)
    assert np.isfinite(b) and b > 0
    rec = atom_synthesis(seq, coeffs[0], 6)
    direct = wavelet_synthesize(coeffs, 6)
    assert np.max(np.abs(rec.values - direct.values)) < 1e-10
    # measured atom data: db6 kills moments through order 5, support is finite
    params = measure_atom_params(atom_field(g, 6, child), child, L_max=5, N_max=1)
    assert params.L == 5
    assert 0.0 < params.b < 60.0
    assert all(np.isfinite(v) for v in params.derivative_consts.values())


def test_atom_params_flag_wrapped_atoms():
    # a db6 atom spans 11 parent sides: on a side-4 torus the atoms of child levels
    # 1-3 reach the antipode of their corner, where the wrapped coordinates jump
    g = TorusGrid(1, 2, 10)
    for j in range(1, 7):
        child = DyadicCube(j, (2,))
        params = measure_atom_params(atom_field(g, 6, child), child, L_max=5, N_max=0)
        assert params.wrapped == (j <= 3), j
        if not params.wrapped:
            assert params.L == 5 and params.b <= 22.0, (j, params)


def test_atom_rearrange_sparse_gallery_synthesis():
    rng = np.random.default_rng(10)
    g = TorusGrid(1, 2, 7)
    from bmtl.wavelets import empty_coeffs
    coeffs = empty_coeffs(g, 1)
    j_min = 0
    approx, detail = {}, {}
    for k in range(2 ** (j_min + g.side_log2)):
        approx[DyadicCube(j_min, (k,))] = rng.standard_normal(1)
    for j in (2, 3, 4):
        for c in cubes_at_level(g, j):
            if rng.random() < 0.2:
                detail[c] = rng.standard_normal(1)
    coeffs[0] = CoeffSequence(g, approx, 1)
    coeffs[1] = CoeffSequence(g, detail, 1)
    seq = atom_rearrange(coeffs, CubeRange(j_min, 4))
    rec = atom_synthesis(seq, coeffs[0], 4)
    direct = wavelet_synthesize(coeffs, 4)
    assert np.max(np.abs(rec.values - direct.values)) < 1e-10


def test_atom_child_overflow_rejected():
    g = TorusGrid(1, 1, 3)
    from bmtl.wavelets import empty_coeffs
    coeffs = empty_coeffs(g, 1)
    coeffs[0] = CoeffSequence(g, {DyadicCube(0, (0,)): np.zeros(1)}, 1)
    coeffs[1] = CoeffSequence(g, {DyadicCube(3, (0,)): np.ones(1)}, 1)
    with pytest.raises(ValueError):
        atom_rearrange(coeffs, CubeRange(0, 1))


def _sparse_wavelet_coeffs(g: TorusGrid, j_min: int, j_top: int, rng) -> dict:
    """Random generators: a full approximation at j_min and about a third of the
    detail coefficients of levels [j_min, j_top] nonzero, 2 channels."""
    from bmtl.wavelets import empty_coeffs
    coeffs = empty_coeffs(g, 2)
    coeffs[0] = CoeffSequence(g, {j_min: rng.standard_normal(
        (cubes_per_axis(g, j_min),) * g.dim + (2,))}, 2)
    for i in range(1, 2 ** g.dim):
        arrays = {}
        for j in range(j_min, j_top + 1):
            shape = (cubes_per_axis(g, j),) * g.dim
            keep = rng.random(shape) < 0.35
            arrays[j] = rng.standard_normal(shape + (2,)) * keep[..., None]
        coeffs[i] = CoeffSequence(g, arrays, 2)
    return coeffs


@pytest.mark.parametrize("g, j_min", [(TorusGrid(1, 2, 6), -1), (TorusGrid(2, 1, 4), -1)],
                         ids=["1d_N256", "2d_32"])
@pytest.mark.parametrize("const", [1.0, 2.0])
def test_atom_synthesis_matches_per_atom_sum(g, j_min, const):
    # the direct form: sum over every child cube P of t_P * const * psi (atom_field),
    # the 2^n-th children carrying the zero atom
    rng = np.random.default_rng(31)
    db = 4
    coeffs = _sparse_wavelet_coeffs(g, j_min, g.res_log2 - 1, rng)
    seq = atom_rearrange(coeffs, CubeRange(j_min, g.res_log2 - 1), const)
    from bmtl.wavelets import empty_coeffs
    direct = wavelet_synthesize({**empty_coeffs(g, 2), 0: coeffs[0]}, db).values.astype(complex)
    atoms = 0
    for j, arr in seq.arrays.items():
        for k in np.ndindex(arr.shape[:-1]):
            if np.any(arr[k] != 0):
                direct = direct + atom_field(g, db, DyadicCube(j, k), const).values * arr[k]
                atoms += 1
    assert atoms > 50
    rec = atom_synthesis(seq, coeffs[0], db, const).values
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(rec - direct)) <= 1e-12 * scale
    whole = wavelet_synthesize(coeffs, db).values
    assert np.max(np.abs(rec - whole)) <= 1e-12 * scale


def test_atom_field_positions_and_const():
    g = TorusGrid(2, 1, 4)
    parent = DyadicCube(1, (2, 1))
    kids = parent.children()
    for i, kid in enumerate(kids[:-1], 1):
        psi = wavelet_basis_field(g, 4, i, parent, -1)   # j_min below the parent
        assert np.array_equal(atom_field(g, 4, kid, 2.0).values, 2.0 * psi.values)
    assert not np.any(atom_field(g, 4, kids[-1], 2.0).values)


def test_synthesis_dictionary_molecular_moments():
    # psi_Q has spectrum off zero, so its moments vanish up to torus
    # periodization tails, which shrink geometrically with depth
    g = TorusGrid(1, 2, 9)
    errs = []
    for j in (4, 5, 6):
        cube = DyadicCube(j, (2 ** (j + 1),))
        coeffs = CoeffSequence(g, {cube: np.array([1.0])}, 1)
        fld = phi_synthesis(coeffs, PAIR)
        fam = {cube: SampledField(g, fld.values.real[..., 0:1])}
        rep = molecule_check(fam, MoleculeParams(N=2, K=0, M=2.0), eps=1e-6)
        errs.append(rep["m1_max"])
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5
