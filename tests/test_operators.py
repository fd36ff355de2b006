import numpy as np
import pytest

from bmtl.fields import (SampledField, from_spectral, multi_indices, scalar_field,
                         spectral_derivative, to_spectral)
from bmtl.grid import TorusGrid
from bmtl.harness import band_limited_noise
from bmtl.lpa import h2_profile_norm, make_inhom_partition
from bmtl.operators import (SeparatedSymbol, SymbolClassParams, SymbolGrid,
                            cz_kernel_check, czs_seminorm, elementary_symbol,
                            hilbert_riesz_apply, hormander_seminorm,
                            kernel_weighted_mass, multiplier_apply, multiplier_symbol,
                            paradecompose, psdo_apply, tabulate_symbol)

GRID = TorusGrid(1, 2, 8)


def test_hilbert_kills_constants():
    f = SampledField(GRID, np.full(GRID.shape + (1,), 2.2))
    out = hilbert_riesz_apply(f)
    assert np.max(np.abs(out.values)) < 1e-12


def test_hilbert_cos_to_sin():
    x = GRID.coords()[0]
    f = SampledField(GRID, np.cos(2 * np.pi * x / GRID.side)[..., None])
    out = hilbert_riesz_apply(f)
    expect = np.sin(2 * np.pi * x / GRID.side)
    assert np.max(np.abs(out.values[..., 0] - expect)) < 1e-12


def test_hilbert_squares_to_minus_identity():
    rng = np.random.default_rng(0)
    f = band_limited_noise(GRID, 1, 0.5, 8.0, rng)   # mean-zero by construction
    twice = hilbert_riesz_apply(hilbert_riesz_apply(f))
    assert np.max(np.abs(twice.values + f.values)) < 1e-10 * np.max(np.abs(f.values))


def test_riesz_components_2d():
    g = TorusGrid(2, 1, 4)
    rng = np.random.default_rng(1)
    f = band_limited_noise(g, 1, 0.5, 2.0, rng)
    r1 = hilbert_riesz_apply(f, 1)
    r2 = hilbert_riesz_apply(f, 2)
    # R1^2 + R2^2 = -identity on mean-zero fields
    back = hilbert_riesz_apply(r1, 1).values + hilbert_riesz_apply(r2, 2).values
    assert np.max(np.abs(back + f.values)) < 1e-10 * np.max(np.abs(f.values))
    with pytest.raises(ValueError):
        hilbert_riesz_apply(f, 3)


def test_riesz_component_outside_range_1d():
    f = band_limited_noise(GRID, 1, 0.5, 8.0, np.random.default_rng(0))
    for component in (0, 2):
        with pytest.raises(ValueError, match=r"1\.\.1"):
            hilbert_riesz_apply(f, component)


def test_cz_kernel_hilbert_golden():
    coords = GRID.coords()[0]
    xw = GRID.wrap_delta(coords)
    vals = np.zeros(GRID.shape)
    nz = xw != 0
    vals[nz] = 1.0 / (np.pi * xw[nz])
    rep = cz_kernel_check(scalar_field(GRID, vals), L=2)
    assert rep["K1"] == pytest.approx(1.0 / np.pi, rel=1e-10)
    # oddness cancels except the self-paired antipodal sample, worth h * |K(L/2)|
    assert rep["K3"] <= 2.0 * GRID.spacing
    assert np.isfinite(rep["K2"])


def test_cz_kernel_even_positive_fails_cancellation():
    coords = GRID.coords()[0]
    xw = GRID.wrap_delta(coords)
    vals = np.zeros(GRID.shape)
    nz = xw != 0
    vals[nz] = 1.0 / np.abs(xw[nz])
    rep = cz_kernel_check(scalar_field(GRID, vals), L=1)
    assert rep["K3"] > 0.1


def test_cz_kernel_zero():
    rep = cz_kernel_check(scalar_field(GRID, np.zeros(GRID.shape)), L=1)
    assert rep["K1"] == rep["K2"] == rep["K3"] == 0.0


def test_multiplier_identity_and_projection():
    rng = np.random.default_rng(2)
    fs = [band_limited_noise(GRID, 2, 0.5, 4.0, rng) for _ in range(3)]
    ones = [lambda r: np.ones_like(r)] * 3
    outs = multiplier_apply(ones, fs)
    for a, b in zip(outs, fs):
        assert np.max(np.abs(a.values - b.values)) < 1e-12
    proj = lambda r: (r <= 2.0).astype(float)
    out = multiplier_apply([proj], [fs[0]])[0]
    F = to_spectral(out)
    assert np.max(np.abs(F.coeffs[GRID.freq_radius() > 2.0])) < 1e-12
    with pytest.raises(ValueError):
        multiplier_apply(ones, fs[:2])


def test_multiplier_theorem_ratio():
    # ||{m_k(D) f_k}|| <= C ||{f_k}|| sup_k ||m_k(2^k .)||_{H2^{a + n/2 + eps}}
    from bmtl.spaces import bm_seq_norm
    from bmtl.dyadic import CubeRange
    rng = np.random.default_rng(3)
    ks = [2, 3, 4]
    fs = [band_limited_noise(GRID, 1, 2.0 ** (k - 1), 2.0 ** (k + 1) - 0.01, rng) for k in ks]
    mults, h2s = [], []
    a_exp = 1.0 / min(1.0, 1.5, 1.5) + 0.0
    for k in ks:
        prof = lambda r, _k=k: np.exp(-((r / 2.0 ** _k) ** 2))
        mults.append(prof)
        h2s.append(h2_profile_norm(GRID, prof(GRID.freq_radius() * 2.0 ** k),
                                   a_exp + GRID.dim / 2.0 + 0.1))
    outs = multiplier_apply(mults, fs)
    r = CubeRange(-2, 6)
    num = bm_seq_norm([scalar_field(GRID, np.abs(o.values[..., 0])) for o in outs],
                      1.5, 2.0, np.inf, 1.5, r)
    den = bm_seq_norm([scalar_field(GRID, np.abs(f.values[..., 0])) for f in fs],
                      1.5, 2.0, np.inf, 1.5, r)
    assert num <= 50.0 * den * max(h2s)


SMALL = TorusGrid(1, 2, 5)    # 128 lattice points: symbol tables stay small


def test_hormander_seminorm_constant_symbol():
    sym = multiplier_symbol(SMALL, np.ones(SMALL.shape))
    params = SymbolClassParams(m=0.0)
    assert hormander_seminorm(sym, params, 2, 2) == pytest.approx(1.0, abs=1e-8)


def test_hormander_seminorm_bessel_symbol():
    for m in (1.0, -1.0):
        sym = tabulate_symbol(SMALL, lambda xs, xis, _m=m:
                              (1.0 + xis[0] ** 2) ** (_m / 2.0) * np.ones_like(xs[0]))
        params = SymbolClassParams(m=m)
        val = hormander_seminorm(sym, params, 2, 1)
        assert np.isfinite(val)
        assert val <= 4.0


def test_hormander_seminorm_x_only_symbol():
    # constant-in-x: exact value; oscillating a(x): the x-derivative term shows up
    const = multiplier_symbol(SMALL, np.full(SMALL.shape, 1.5))
    params = SymbolClassParams(m=0.0, delta=0.0)
    v_const = hormander_seminorm(const, params, 1, 1)
    assert v_const == pytest.approx(1.5, abs=1e-8)
    freq = 4.0 / SMALL.side
    sym = tabulate_symbol(SMALL, lambda xs, xis, _f=freq:
                          (1.0 + 0.5 * np.sin(2 * np.pi * _f * xs[0]))
                          * np.ones_like(xis[0]))
    v_var = hormander_seminorm(sym, params, 1, 1)
    assert v_var == pytest.approx(np.pi * freq, rel=1e-6)  # max |da/dx| dominates


def test_czs_seminorm_constant_and_scaling():
    sym = multiplier_symbol(SMALL, np.ones(SMALL.shape))
    params = SymbolClassParams(m=0.0, delta=0.0, ell=0.8)
    val = czs_seminorm(sym, params, alpha_max=1)
    assert val == pytest.approx(2.0, rel=1e-6)   # C* block of 1 plus its sup
    doubled = czs_seminorm(SymbolGrid(SMALL, 2.0 * sym.values), params, alpha_max=1)
    assert doubled == pytest.approx(2.0 * val, rel=1e-10)


GRID2 = TorusGrid(2, 1, 3)    # 16^2 lattice points


def _separable_2d():
    """a, b and the symbol a(x) b(xi) on GRID2, a and b complex; b is not periodic
    across the lattice edge, so differences that wrap there would dominate."""
    x0, x1 = GRID2.coords()
    a = (1.0 + 0.3 * np.cos(2 * np.pi * x0 / GRID2.side)) * np.exp(2j * np.pi * x1 / GRID2.side)
    xi0, xi1 = GRID2.freqs()
    b = (1.0 + xi0 ** 2 + xi1 ** 2) ** 0.25 * np.exp(0.7j * xi0) + 0.5 * xi1
    return a, b, SymbolGrid(GRID2, a[:, :, None, None] * b[None, None, :, :])


def test_hormander_seminorm_2d_separable_factorizes():
    # for a(x) b(xi) each (alpha, beta) term is max |d^beta a| times the weighted
    # max of the centered differences of b over the alpha-interior of the lattice
    a, b, sym = _separable_2d()
    params = SymbolClassParams(m=0.5, delta=0.25)
    N = GRID2.points_per_axis
    shifted = np.fft.fftshift(b)
    one_plus = 1.0 + np.fft.fftshift(GRID2.freq_radius())
    want = 0.0
    for beta in multi_indices(2, 2):
        da = np.max(np.abs(spectral_derivative(scalar_field(GRID2, a), beta).scalar()))
        for alpha in multi_indices(2, 2):
            db = shifted
            for ax, order in enumerate(alpha):
                for _ in range(order):
                    db = (np.roll(db, -1, axis=ax) - np.roll(db, 1, axis=ax)) * (GRID2.side / 2.0)
            inner = tuple(slice(order, N - order) for order in alpha)
            weight = one_plus ** (-params.m + sum(alpha) - params.delta * sum(beta))
            want = max(want, da * np.max(np.abs(db[inner]) * weight[inner]))
    assert hormander_seminorm(sym, params, 2, 2) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_czs_seminorm_scales_linearly_2d():
    sym = _separable_2d()[2]
    params = SymbolClassParams(m=0.5, delta=0.25, ell=0.8)
    val = czs_seminorm(sym, params, alpha_max=2)
    assert np.isfinite(val) and val > 0.0
    tripled = czs_seminorm(SymbolGrid(GRID2, 3.0 * sym.values), params, alpha_max=2)
    assert tripled == pytest.approx(3.0 * val, rel=1e-10)


def test_elementary_symbol_construction():
    part = make_inhom_partition()
    psi1 = part.level(1)   # supported on [1, 4]
    zero = elementary_symbol([scalar_field(SMALL, np.zeros(SMALL.shape))], psi1, SMALL)
    assert np.all(zero.values == 0)
    one = elementary_symbol([scalar_field(SMALL, np.ones(SMALL.shape))], psi1, SMALL)
    rho = SMALL.freq_radius()
    expect = psi1(rho * 2.0 ** 0)
    assert np.max(np.abs(one.values[0] - expect)) < 1e-12
    bad = lambda r: np.ones_like(r)
    with pytest.raises(ValueError):
        elementary_symbol([scalar_field(SMALL, np.ones(SMALL.shape))], bad, SMALL)


def test_elementary_symbol_growth():
    part = make_inhom_partition()
    psi1 = part.level(1)
    m = 0.7
    sig = [scalar_field(SMALL, np.full(SMALL.shape, 2.0 ** (j * m)))
           for j in range(1, 5)]
    sym = elementary_symbol(sig, psi1, SMALL)
    rho = SMALL.freq_radius()
    mask = rho >= 1.0
    ratio = np.abs(sym.values[0][mask]) / (1.0 + rho[mask]) ** m
    assert np.max(ratio) <= 4.0


def test_paradecompose_x_independent_symbol():
    mult = (1.0 + SMALL.freq_radius() ** 2) ** 0.25
    sym = multiplier_symbol(SMALL, mult)
    pieces = paradecompose(sym, j_cut=5, l_cut=3)
    for (j, l), piece in pieces.pieces.items():
        if l > 0:
            assert np.max(np.abs(piece.values)) < 1e-10


def test_paradecompose_reconstruction():
    rng = np.random.default_rng(4)
    a = band_limited_noise(SMALL, 1, 0.3, 4.0, rng).values[..., 0]
    mult = (1.0 + SMALL.freq_radius() ** 2) ** 0.25
    sym = SymbolGrid(SMALL, (1.0 + a)[:, None] * mult[None, :])
    j_cut = SMALL.side_log2 + SMALL.res_log2   # partition covers the whole lattice
    pieces = paradecompose(sym, j_cut=j_cut, l_cut=j_cut)
    rec = pieces.reconstruction()
    rho = SMALL.freq_radius()
    covered = rho <= 2.0 ** (j_cut - 1)
    err = np.abs(rec - sym.values)[:, covered]
    assert np.max(err) < 1e-8 * np.max(np.abs(sym.values))


def test_paradecompose_modulated_piece_location():
    part = make_inhom_partition()
    j0, l0 = 2, 1
    zeta0 = 2.0 ** (j0 + l0)   # stays below the x-lattice Nyquist of SMALL
    x = SMALL.coords()[0]
    mod = np.exp(2j * np.pi * zeta0 * x)
    ring = part.level(j0)(SMALL.freq_radius())
    sym = SymbolGrid(SMALL, mod[:, None] * ring[None, :])
    pieces = paradecompose(sym, j_cut=6, l_cut=5)
    norms = {k: float(np.max(np.abs(p.values))) for k, p in pieces.pieces.items()}
    best = max(norms, key=norms.get)
    assert best == (j0, l0), norms


def test_psdo_identity_multiplier_and_product():
    rng = np.random.default_rng(5)
    f = band_limited_noise(SMALL, 2, 0.3, 4.0, rng)
    ones = np.ones(SMALL.shape)
    mult = (1.0 + SMALL.freq_radius() ** 2) ** (-0.5)
    F = to_spectral(f)
    from bmtl.fields import SpectralField
    direct = from_spectral(SpectralField(SMALL, F.coeffs * mult[..., None]))
    # multiplier_symbol is separated; the dense tables of the same multipliers
    # keep the lattice sum under the same checks
    dense = lambda m: SymbolGrid(SMALL, np.broadcast_to(m, SMALL.shape * 2).copy())
    for build in (multiplier_symbol, lambda g, m: dense(m)):
        out = psdo_apply(build(SMALL, ones), f)
        assert np.max(np.abs(out.values - f.values)) < 1e-10
        via_psdo = psdo_apply(build(SMALL, mult), f)
        assert np.max(np.abs(via_psdo.values - direct.values)) < 1e-10
    a = 1.0 + 0.4 * np.cos(2 * np.pi * SMALL.coords()[0] / SMALL.side)
    sym_x = SymbolGrid(SMALL, np.broadcast_to(a[:, None], SMALL.shape * 2).copy())
    out_x = psdo_apply(sym_x, f)
    assert np.max(np.abs(out_x.values - a[:, None] * f.values)) < 1e-10


def test_psdo_2d_identity():
    g = TorusGrid(2, 0, 3)
    rng = np.random.default_rng(6)
    f = SampledField(g, rng.standard_normal(g.shape + (1,)))
    ident = SymbolGrid(g, np.ones(g.shape * 2, dtype=complex))
    out = psdo_apply(ident, f)
    assert np.max(np.abs(out.values - f.values)) < 1e-10


def test_kernel_decay_of_paradecomposition():
    # weighted kernel mass of sigma_(j,l) decays geometrically in l for smooth symbols
    rng = np.random.default_rng(7)
    a = band_limited_noise(SMALL, 1, 0.3, 2.0, rng).values[..., 0]
    mult = (1.0 + SMALL.freq_radius() ** 2) ** 0.2
    sym = SymbolGrid(SMALL, (1.0 + 0.5 * a)[:, None] * mult[None, :])
    pieces = paradecompose(sym, j_cut=4, l_cut=4)
    masses = {}
    for l in range(0, 5):
        vals = [kernel_weighted_mass(pieces.pieces[(j, l)], j, a=1.0)
                for j in range(0, 5) if (j, l) in pieces.pieces]
        if vals:
            masses[l] = max(vals)
    ls = sorted(masses)
    logs = np.log2([masses[l] + 1e-300 for l in ls])
    slope = np.polyfit(ls[1:], logs[1:], 1)[0]   # skip the cumulative l = 0 slot
    assert slope < 0.0


def test_hormander_seminorm_per_axis_mask():
    # sigma = xi_1: d/dxi_1 drops the edge of the first xi axis only, so the sup of
    # 1 + |xi| runs over xi_1 in [-1.5, 1.5] and xi_2 in [-2, 1.5]: 1 + 2.5
    grid = TorusGrid(2, 1, 2)    # 8^2 lattice, spacing 1/2
    sym = tabulate_symbol(grid, lambda xs, xis: xis[0] * np.ones_like(xs[0]))
    params = SymbolClassParams(m=0.0)
    assert hormander_seminorm(sym, params, 1, 0) == pytest.approx(3.5, rel=1e-12)
    sep = SeparatedSymbol(grid, np.ones((1,) + grid.shape), grid.freqs()[0][None])
    assert hormander_seminorm(sep, params, 1, 0) == pytest.approx(3.5, rel=1e-12)


def test_sigma_nb_seminorm_reading():
    from bmtl.operators import sigma_nb_seminorm
    sym = multiplier_symbol(SMALL, np.ones(SMALL.shape))
    params = SymbolClassParams(m=0.0, N=2, b=2)
    assert sigma_nb_seminorm(sym, params) == pytest.approx(
        hormander_seminorm(sym, params, alpha_max=2, beta_max=2))


def test_seminorms_refuse_alpha_max_past_lattice():
    # 2 * alpha_max >= N leaves no xi whose differences do not wrap; this ended in
    # numpy's "zero-size array to reduction operation maximum"
    from bmtl.operators import sigma_nb_seminorm
    tiny = TorusGrid(1, 1, 1)    # N = 4
    sym = multiplier_symbol(tiny, np.ones(tiny.shape))
    params = SymbolClassParams(m=0.0, N=2, b=2)
    for call in (lambda: hormander_seminorm(sym, params, alpha_max=2, beta_max=0),
                 lambda: czs_seminorm(sym, params, alpha_max=2),
                 lambda: sigma_nb_seminorm(sym, params)):
        with pytest.raises(ValueError, match=r"alpha_max 2 .* N = 4"):
            call()
    assert hormander_seminorm(sym, params, alpha_max=1, beta_max=0) == pytest.approx(1.0)


def test_multiplier_support_warning():
    rng = np.random.default_rng(8)
    f = band_limited_noise(GRID, 1, 0.5, 8.0, rng)
    ones = [lambda r: np.ones_like(r)]
    with pytest.warns(UserWarning):
        multiplier_apply(ones, [f], support_radii=[1.0])


def test_czs_elementary_single_level_matches_product():
    # sigma(x, xi) = sigma1(x) psi1(xi): the seminorm factors into the two norms
    from bmtl.lpa import holder_zygmund_norm
    part = make_inhom_partition()
    psi1 = part.level(1)
    x = SMALL.coords()[0]
    sig1 = 1.0 + 0.5 * np.cos(2 * np.pi * 2.0 * x / SMALL.side)
    sym = SymbolGrid(SMALL, sig1[:, None] * psi1(SMALL.freq_radius())[None, :])
    params = SymbolClassParams(m=0.0, delta=0.0, ell=0.8)
    val = czs_seminorm(sym, params, alpha_max=0)
    hz = holder_zygmund_norm(scalar_field(SMALL, sig1), params.ell)
    hand = (hz + np.max(np.abs(sig1))) * np.max(np.abs(psi1(SMALL.freq_radius())))
    assert np.isfinite(val)
    assert hand / 3.0 <= val <= 3.0 * hand


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 4), TorusGrid(2, 0, 3)])
def test_psdo_matches_direct_exponential_sum(grid):
    # the root-of-unity phase table against exp(2 pi i x.xi) summed directly
    def fn(xs, xis):
        xi2 = sum(xi * xi for xi in xis)
        return (1.0 + 0.5 * np.cos(2 * np.pi * xs[0] / grid.side)) * (1.0 + xi2) ** -0.3 \
            + 0.2j * np.sin(2 * np.pi * xs[-1] / grid.side) * xis[0]
    sym = tabulate_symbol(grid, fn)
    rng = np.random.default_rng(13)
    f = SampledField(grid, rng.standard_normal(grid.shape + (2,)))
    npts = grid.npoints
    x = np.stack(grid.coords(), axis=-1).reshape(npts, grid.dim)
    xi = np.stack(grid.freqs(), axis=-1).reshape(npts, grid.dim)
    F = to_spectral(f).coeffs.reshape(npts, 2)
    direct = (sym.values.reshape(npts, npts) * np.exp(2j * np.pi * (x @ xi.T))) @ F
    direct = direct.reshape(grid.shape + (2,)) / grid.side ** grid.dim
    out = psdo_apply(sym, f).values
    assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))


def _parts(grid, R, complex_parts, rng):
    """R smooth x-parts and R xi-parts of order about 0.5 on grid, real or complex."""
    x0, x1 = grid.coords()[0], grid.coords()[-1]
    rho = grid.freq_radius()
    xs, xis = [], []
    for r in range(R):
        a = 1.0 + 0.3 * rng.standard_normal() * np.cos(2 * np.pi * (r + 1) * x0 / grid.side)
        b = (1.0 + rho ** 2) ** (0.25 - 0.1 * r) * (1.0 + 0.2 * rng.standard_normal())
        if complex_parts:
            a = a * np.exp(2j * np.pi * r * x1 / grid.side)
            b = b + 0.3j * grid.freqs()[0] / (1.0 + rho)
        xs.append(a)
        xis.append(b)
    return np.array(xs), np.array(xis)


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 6), TorusGrid(2, 1, 4)],
                         ids=["1d256", "2d32"])
@pytest.mark.parametrize("R,complex_parts,complex_field",
                         [(1, False, False), (1, True, True), (6, False, True), (6, True, False)])
def test_separated_psdo_matches_dense(grid, R, complex_parts, complex_field):
    rng = np.random.default_rng(17 + R)
    sym = SeparatedSymbol(grid, *_parts(grid, R, complex_parts, rng))
    f = band_limited_noise(grid, 2, 0.5, 4.0, rng)
    if complex_field:
        f = SampledField(grid, f.values + 1j * band_limited_noise(grid, 2, 0.5, 4.0, rng).values)
    dense = psdo_apply(SymbolGrid(grid, sym.values), f).values
    out = psdo_apply(sym, f).values
    assert np.iscomplexobj(out)
    assert np.max(np.abs(out - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_separated_constructors_keep_the_dense_tables():
    # the dense tables by their definitions: the multiplier broadcast over x,
    # and the per-level sum of sigma_j(x) psi1(2^(-j+1) xi)
    grid = TorusGrid(1, 2, 4)
    rho = grid.freq_radius()
    mult = (1.0 + rho ** 2) ** 0.25 * np.sign(grid.freqs()[0] + 0.1)
    want = np.broadcast_to(mult, grid.shape * 2).astype(complex)
    assert np.array_equal(multiplier_symbol(grid, mult).values, want)
    psi1 = make_inhom_partition().level(1)
    x = grid.coords()[0]
    wave = lambda j: np.cos(2 * np.pi * j * x / grid.side)
    sig = [scalar_field(grid, 2.0 ** (0.5 * j) * (1.0 + 0.3 * wave(j))) for j in range(1, 5)]
    want = np.zeros(grid.shape * 2, dtype=complex)
    for j, s in enumerate(sig, start=1):
        want += s.scalar()[:, None] * psi1(rho * 2.0 ** (-j + 1))[None, :]
    sym = elementary_symbol(sig, psi1, grid)
    assert sym.xparts.shape == (4,) + grid.shape
    assert np.array_equal(sym.values, want)


def test_separated_symbol_file_round_trip(tmp_path):
    from bmtl.fieldio import read_symbol, write_symbol
    grid = TorusGrid(2, 0, 3)
    sym = SeparatedSymbol(grid, *_parts(grid, 3, True, np.random.default_rng(21)))
    path = tmp_path / "sym.bin"
    write_symbol(path, sym)
    back = read_symbol(path)
    assert isinstance(back, SymbolGrid)
    assert np.array_equal(back.values, sym.values)


def test_separated_psdo_memory_at_desk_scale():
    # the dense table at N = 4096 alone is 4096^2 * 16 bytes = 268 MB
    import tracemalloc
    grid = TorusGrid(1, 2, 10)
    sym = SeparatedSymbol(grid, *_parts(grid, 2, True, np.random.default_rng(22)))
    f = band_limited_noise(grid, 2, 0.5, 8.0, np.random.default_rng(23))
    tracemalloc.start()
    try:
        psdo_apply(sym, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, f"psdo_apply peaked at {peak / 2 ** 20:.1f} MB"


def test_separated_symbol_refuses_malformed_parts():
    grid = TorusGrid(1, 2, 4)
    ones = np.ones((2,) + grid.shape)
    for xparts, xiparts in ((ones, ones[:1]),                          # R differs
                            (ones[:, :-1], ones[:, :-1]),              # not grid.shape
                            (ones[0], ones[0]),                        # no term axis
                            (ones[:0], ones[:0])):                     # R = 0
        with pytest.raises(ValueError):
            SeparatedSymbol(grid, xparts, xiparts)
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        spoiled = ones.astype(complex)
        spoiled[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            SeparatedSymbol(grid, spoiled, ones)
        with pytest.raises(ValueError, match="finite"):
            SeparatedSymbol(grid, ones, spoiled)
    with pytest.raises(ValueError, match="at least one term"):
        elementary_symbol([], make_inhom_partition().level(1), grid)
