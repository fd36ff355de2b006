"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Desk scale: n = 1, L = 4 (K = 2), J = 10 so N = 4096, m = 2, levels [-2, 8];
operator quantization cases run at N = 1024 where the direct O(N^2) sum and the
symbol tabulation dominate.  Every tolerance below is the criterion's own.
test_atomic_characterization_desk_scale runs criterion 8's check on the atomic
rearrangement of the same wavelet coefficients.
"""

import functools
import time

import numpy as np

from bmtl.coeff import (ADProfile, ad_apply, ad_random_operator, atom_field,
                        atom_rearrange, atom_synthesis, measure_atom_params,
                        phi_synthesis, phi_transform)
from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import CubeRange, DyadicCube, cubes_at_level
from bmtl.fields import SampledField, l2_norm, scalar_field
from bmtl.grid import TorusGrid
from bmtl.harness import (band_limited_noise, dilate_field, four_norms,
                          function_gallery)
from bmtl.lpa import (bessel_potential, h2_profile_norm,
                      make_admissible_pair, make_inhom_partition)
from bmtl.operators import (SeparatedSymbol, SymbolGrid, elementary_symbol,
                            hilbert_riesz_apply, multiplier_apply, multiplier_symbol,
                            paradecompose, psdo_apply)
from bmtl.spaces import (CubewiseWeighting, PointwiseWeighting, SpaceParams,
                         approx_norm, bm_norm, bm_seq_norm, glambda_norm, hl_maximal,
                         lusin_norm, peetre_norm, seq_norm, tl_norm)
from bmtl.wavelets import parseval_defect, wavelet_analyze, wavelet_synthesize
from bmtl.weights import (ap_dimensions, oscillating_weight, reducing_operators,
                          sandwich_constants, weight_gallery)

DESK = TorusGrid(1, 2, 10)            # N = 4096
MID = TorusGrid(1, 2, 8)              # N = 1024 for O(N^2) operator cases
PAIR = make_admissible_pair()
PART = make_inhom_partition()
C_CFG = 50.0


def _verdict(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def timed(budget_seconds: float):
    """Enforce the criterion's stated runtime budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            print(f"  runtime {elapsed:.1f}s (budget {budget_seconds:.0f}s)")
            assert elapsed <= budget_seconds, f"runtime {elapsed:.1f}s over budget"
        return wrapper
    return deco


@timed(10)
def test_criterion_01_sanity_collapse():
    rng = np.random.default_rng(101)
    full = CubeRange(-2, 8)
    worst = 0.0
    for k in range(50):
        vals = np.abs(rng.standard_normal(DESK.shape))
        p = [1.0, 1.5, 2.0, 4.0][k % 4]
        lp = (np.sum(vals ** p) * DESK.cell_measure) ** (1.0 / p)
        val = bm_norm(scalar_field(DESK, vals), p, p, np.inf, full)
        worst = max(worst, abs(val - lp) / lp)
    _verdict("criterion 1 (L^p collapse)", worst <= 1e-10, f"max rel err {worst:.3e}")


@timed(1)
def test_criterion_02_calderon_identity():
    rho = DESK.freq_radius().ravel()
    filt_lo, filt_hi = -4, 6       # filter dilations backing cube levels [-2, 8]
    covered = (rho >= 2.0 ** filt_lo) & (rho <= 2.0 ** filt_hi)
    cal = PAIR.calderon_sum(rho[covered], range(filt_lo, filt_hi + 1))
    err_hom = float(np.max(np.abs(cal - 1.0)))
    j_cut = 8
    total = sum(PART.level(j)(rho) for j in range(j_cut + 1))
    low = rho <= 2.0 ** (j_cut - 1)
    err_inh = float(np.max(np.abs(total[low] - 1.0)))
    ok = err_hom <= 1e-10 and err_inh <= 1e-12
    _verdict("criterion 2 (Calderon identity)", ok,
             f"homogeneous err {err_hom:.2e}, partition err {err_inh:.2e}")


@timed(60)
def test_criterion_03_reducing_sandwich():
    grid = DESK
    rng_c = CubeRange(-2, 6)
    gallery = weight_gallery(grid, 2)
    worst_p2 = 0.0
    for name, W in gallery.items():
        fam = reducing_operators(W, 2.0, rng_c)
        c1, c2 = sandwich_constants(W, 2.0, fam, n_dirs=1000)
        worst_p2 = max(worst_p2, c2 / c1 - 1.0)
    details = [f"p=2 excess {worst_p2:.2e}"]
    ok = worst_p2 <= 1e-8
    for p in (1.0, 4.0):
        for name, W in gallery.items():
            fam2 = reducing_operators(W, p, rng_c)
            r1a, r2a = sandwich_constants(W, p, fam2, n_dirs=1000)
            fame = reducing_operators(W, p, rng_c, method="ellipsoid-fit", n_dirs=64)
            r1b, r2b = sandwich_constants(W, p, fame, n_dirs=1000)
            ratio2, ratioe = r2a / r1a, r2b / r1b
            ok = ok and ratio2 <= 8.0 and ratioe <= ratio2 * (1.0 + 1e-9)
            details.append(f"{name}@p={p}: {ratio2:.3f}/{ratioe:.3f}")
    _verdict("criterion 3 (reducing sandwich)", ok, "; ".join(details))


@timed(300)
def test_criterion_04_four_norm_equivalence():
    base = CubeRange(-2, 7)
    shifted = CubeRange(-1, 8)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    gallery = function_gallery(DESK, base, 2,
                               {"band_random": 12, "bump": 4, "harmonic": 4}, seed=104)
    assert len(gallery) == 20
    weights = weight_gallery(DESK, 2)
    picks = ["identity", "rotated_power", "oscillating"]
    worst_spread, worst_drift = 0.0, 0.0
    for wname in picks:
        W = weights[wname]
        fam = reducing_operators(W, sp.p, base)
        fam2 = reducing_operators(W, sp.p, shifted)
        for fname, f in gallery:
            norms = four_norms(f, W, sp, PAIR, base, fam)
            spread = max(norms.values()) / min(norms.values())
            worst_spread = max(worst_spread, spread)
            norms_d = four_norms(dilate_field(f), W, sp, PAIR, shifted, fam2)
            spread_d = max(norms_d.values()) / min(norms_d.values())
            worst_drift = max(worst_drift, abs(spread_d - spread) / spread)
    ok = worst_spread <= C_CFG and worst_drift <= 0.10
    _verdict("criterion 4 (four-norm equivalence)", ok,
             f"max spread {worst_spread:.3f}, max dilation drift {worst_drift:.3%}")


@timed(120)
def test_criterion_05_almost_diagonal_boundedness():
    grid = DESK
    rng_c = CubeRange(0, 5)
    sp = SpaceParams(0.4, 1.5, 1.2, 2.0, np.inf)
    rng = np.random.default_rng(105)
    weights = weight_gallery(grid, 2)
    worst = 0.0
    for wname in ("identity", "rotated_power", "oscillating"):
        W = weights[wname]
        fam = reducing_operators(W, sp.p, rng_c)
        d, dt, delta = ap_dimensions(W, sp.p, CubeRange(0, 4), i_max=2)
        prof = ADProfile(s=sp.s, p=sp.p, q=sp.q, epsilon=0.5, d=d, d_tilde=dt,
                         delta_cap=delta)
        w = CubewiseWeighting(fam)
        ops = ad_random_operator(grid, rng_c, prof, variant="weighted",
                                 seed=105, drop_tol=1e-10)
        for _ in range(10):
            entries = {}
            for j in (2, 3, 4):
                for c in cubes_at_level(grid, j):
                    if rng.random() < 0.4:
                        entries[c] = rng.standard_normal(2)
            coeffs = CoeffSequence(grid, entries, 2)
            num = seq_norm(ad_apply(ops, coeffs), w, sp, rng_c).value
            den = seq_norm(coeffs, w, sp, rng_c).value
            worst = max(worst, num / den)
    _verdict("criterion 5 (almost-diagonal boundedness)", worst <= C_CFG,
             f"max ratio {worst:.3f}")


@timed(60)
def test_criterion_06_maximal_boundedness():
    grid = DESK
    full = CubeRange(-2, 8)
    rng = np.random.default_rng(106)
    worst = 0.0
    fields = [np.abs(band_limited_noise(grid, 1, 0.5, 16.0, rng).values[..., 0])
              for _ in range(4)]
    maxed = [hl_maximal(scalar_field(grid, v)) for v in fields]
    for p, q in [(1.5, 1.5), (2.0, 2.0), (4.0, 4.0)]:
        for v, m in zip(fields, maxed):
            num = bm_norm(m, p, 2.0 * p, np.inf, full)
            den = bm_norm(scalar_field(grid, v), p, 2.0 * p, np.inf, full)
            worst = max(worst, num / den)
        num_s = bm_seq_norm(maxed, p, 2.0 * p, np.inf, q, full)
        den_s = bm_seq_norm([scalar_field(grid, v) for v in fields], p, 2.0 * p,
                            np.inf, q, full)
        worst = max(worst, num_s / den_s)
    x = grid.coords()[0]
    m = hl_maximal(scalar_field(grid, (x < 1.0).astype(float))).scalar()
    golden = m[int(round(2.0 / grid.spacing))]
    ok = worst <= C_CFG and abs(golden - 0.5) <= 2.0 * grid.spacing
    _verdict("criterion 6 (maximal boundedness)", ok,
             f"max ratio {worst:.3f}, M(chi)(2) = {golden:.5f}")


@timed(600)
def test_criterion_07_characterization_equivalences():
    grid = DESK
    hom = CubeRange(-2, 8)
    inh = CubeRange(-2, 8, inhomogeneous=True)
    rng = np.random.default_rng(107)
    weights = weight_gallery(grid, 2)
    ratios = {}   # "weight/norm" -> norm / reference, one per function
    ok = True
    for wname in ("identity", "oscillating"):
        W = weights[wname]
        p = q = 1.5
        d, dt, delta = ap_dimensions(W, p, CubeRange(-1, 4), i_max=2)
        a = grid.dim / min(1.0, p, q) + delta + 1.0
        lam = 1.0 / min(1.0, p, q) + delta / grid.dim + 1.0
        s_app = grid.dim / min(1.0, p, q) + delta + 1.0
        sp = SpaceParams(0.5, p, q, 2.0, np.inf)
        spi = SpaceParams(s_app, p, q, 2.0, np.inf, homogeneous=False)
        w = PointwiseWeighting(W, p)
        for k in range(2):
            f = band_limited_noise(grid, 2, 1.0, 32.0, rng)
            tl = tl_norm(f, w, sp, PAIR, hom).value
            pe = peetre_norm(f, w, sp, a, PAIR, hom).value
            lu = lusin_norm(f, w, sp, PAIR, hom).value
            gl = glambda_norm(f, w, sp, lam, PAIR, hom).value
            tli = tl_norm(f, w, spi, PART, inh).value
            apx = approx_norm(f, w, spi, PART, inh).value
            ok = ok and pe / tl >= 1.0 - 1e-10
            for name, val, ref in (("peetre", pe, tl), ("lusin", lu, tl),
                                   ("glambda", gl, tl), ("approx", apx, tli)):
                ratios.setdefault(f"{wname}/{name}", []).append(val / ref)
        # pointwise domination, re-derived directly on a small case
        gs = TorusGrid(1, 2, 6)
        fs = band_limited_noise(gs, 2, 0.5, 4.0, rng)
        Ws = weight_gallery(gs, 2)[wname]
        roots = Ws.power(1.0 / p)
        from bmtl.fields import to_spectral as _tos
        Fs = _tos(fs)
        rho = gs.freq_radius()
        for j in (2, 3):
            mult = PAIR.phi(rho * 2.0 ** (2 - j))
            v = np.fft.ifft(Fs.coeffs * mult[:, None], axis=0) / gs.cell_measure
            diag = np.linalg.norm(np.einsum("xab,xb->xa", roots, v), axis=-1)
            xs = gs.axis_coords()
            dmat = np.abs(xs[:, None] - xs[None, :])
            dmat = np.minimum(dmat, gs.side - dmat)
            pen = (1.0 + 2.0 ** j * dmat) ** a
            sup = np.zeros(gs.shape)
            for yi in range(gs.points_per_axis):
                cand = np.linalg.norm(np.einsum("xab,b->xa", roots, v[yi]), axis=-1)
                sup = np.maximum(sup, cand / pen[:, yi])
            ok = ok and bool(np.all(sup >= diag * (1.0 - 1e-10)))
    worst = {key: max(rs, key=lambda r: max(r, 1.0 / r)) for key, rs in ratios.items()}
    ok = ok and all(max(r, 1.0 / r) <= C_CFG for r in worst.values())
    _verdict("criterion 7 (characterizations)", ok,
             "worst per weight and norm: "
             + "; ".join(f"{key} {r:.3f}" for key, r in worst.items()))


@timed(180)
def test_criterion_08_wavelet_characterization():
    grid = DESK
    window = CubeRange(0, 8)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    rng = np.random.default_rng(108)
    weights = weight_gallery(grid, 2)
    ok = True
    details = []
    worst_parseval = 0.0
    for wname in ("identity", "oscillating"):
        W = weights[wname]
        fam = reducing_operators(W, sp.p, window)
        w = CubewiseWeighting(fam)
        for _ in range(3):
            f = band_limited_noise(grid, 2, 1.0, 16.0, rng)
            coeffs = wavelet_analyze(f, 6, window)
            worst_parseval = max(worst_parseval, parseval_defect(f, coeffs))
            total = 0.0
            for i, seq in coeffs.items():
                clipped = {c: v for c, v in seq.entries.items()
                           if window.j_min <= c.level <= window.j_max}
                total += seq_norm(CoeffSequence(grid, clipped, 2), w, sp, window).value
            tl = tl_norm(f, w, sp, PAIR, window).value
            ratio = max(total / tl, tl / total)
            ok = ok and ratio <= C_CFG
            details.append(f"{wname} ratio {total/tl:.3f}")
    ok = ok and worst_parseval <= 1e-10
    # vanishing-moment annihilation of a local cubic
    x = grid.coords()[0]
    patch = (x >= 1.0) & (x < 3.0)
    poly = np.where(patch, 1.0 + x - 0.5 * x ** 2 + 0.1 * x ** 3, 0.0)
    coeffs = wavelet_analyze(SampledField(grid, poly[..., None]), 6, CubeRange(0, 9))
    peak = max(np.max(np.abs(v)) for v in coeffs[1].entries.values())
    worst_poly = 0.0
    for cube, v in coeffs[1].entries.items():
        if cube.corner[0] >= 1.0 and cube.corner[0] + 12 * cube.side <= 3.0:
            worst_poly = max(worst_poly, float(np.max(np.abs(v))) / max(peak, 1.0))
    ok = ok and worst_poly <= 1e-8
    _verdict("criterion 8 (wavelets)", ok,
             f"parseval {worst_parseval:.2e}, poly {worst_poly:.2e}, " + "; ".join(details))


@timed(10)
def test_atomic_characterization_desk_scale():
    # criterion 8's inputs, with the wavelet coefficients rearranged into atoms:
    # details clipped to levels [0, 7] so that their children stay in the window
    grid = DESK
    window = CubeRange(0, 8)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    rng = np.random.default_rng(108)
    weights = weight_gallery(grid, 2)
    ok = True
    details = []
    worst_synth = 0.0
    for wname in ("identity", "oscillating"):
        w = CubewiseWeighting(reducing_operators(weights[wname], sp.p, window))
        worst = 1.0
        for _ in range(3):
            f = band_limited_noise(grid, 2, 1.0, 16.0, rng)
            coeffs = wavelet_analyze(f, 6, window)
            clipped = {i: CoeffSequence(grid, {j: a for j, a in seq.arrays.items()
                                               if i == 0 or j < window.j_max}, 2)
                       for i, seq in coeffs.items()}
            atoms = atom_rearrange(clipped, window)
            assert min(atoms.levels()) == 1 and max(atoms.levels()) == window.j_max
            rec = atom_synthesis(atoms, clipped[0], 6).values
            direct = wavelet_synthesize(clipped, 6).values
            worst_synth = max(worst_synth,
                              float(np.max(np.abs(rec - direct)) / np.max(np.abs(direct))))
            ratio = seq_norm(atoms, w, sp, window).value / tl_norm(f, w, sp, PAIR, window).value
            worst = max(worst, ratio, key=lambda r: max(r, 1.0 / r))
        ok = ok and max(worst, 1.0 / worst) <= C_CFG
        details.append(f"{wname} worst ratio {worst:.3f}")
    ok = ok and worst_synth <= 1e-12
    # measured atom data on every 64th atom of the last function.  A db6 atom spans
    # 11 parent sides = 22 sides of its cube; where that fits in half the torus,
    # it has 6 vanishing moments (L = 5, up to the L_max asked for) and b <= 22,
    # while coarser atoms wrap around the torus and are only reported
    sample = [DyadicCube(j, k) for j, arr in atoms.arrays.items()
              for k in np.argwhere(np.any(arr != 0, axis=-1))][::64]
    measured = {P: measure_atom_params(atom_field(grid, 6, P), P, L_max=5, N_max=1)
                for P in sample}
    fits = [m for P, m in measured.items() if 22 * P.side <= grid.side / 2]
    b_max = max(m.b for m in fits)
    L_min = min(m.L for m in fits)
    deriv = max(max(m.derivative_consts.values()) for m in measured.values())
    ok = ok and L_min == 5 and b_max <= 22.0 and np.isfinite(deriv)
    _verdict("atomic characterization (criterion 8 by atoms)", ok,
             f"synthesis {worst_synth:.2e}; " + "; ".join(details)
             + f"; {len(measured)} atoms measured, {len(fits)} within half the torus: "
             f"b <= {b_max:.1f}, L >= {L_min}; derivative constants <= {deriv:.3g}")


def _weighted_seq_bm(fields, W, p, q, sp, cube_range):
    root = W.power(1.0 / p)
    mags = [scalar_field(fields[0].grid,
                         np.linalg.norm(np.einsum("...ab,...b->...a", root, f.values),
                                        axis=-1)) for f in fields]
    return bm_seq_norm(mags, sp.p, sp.t, sp.r, q, cube_range)


@timed(600)
def test_criterion_09_operator_boundedness():
    ok = True
    details = []
    # Hilbert spectral exactness at desk scale
    x = DESK.coords()[0]
    f_cos = SampledField(DESK, np.cos(2 * np.pi * x / DESK.side)[..., None])
    err = np.max(np.abs(hilbert_riesz_apply(f_cos).values[..., 0]
                        - np.sin(2 * np.pi * x / DESK.side)))
    ok = ok and err <= 1e-12
    details.append(f"hilbert exact {err:.1e}")
    # CZ ratio on the weighted homogeneous space
    rng = np.random.default_rng(109)
    hom = CubeRange(-2, 8)
    W = weight_gallery(DESK, 2)["oscillating"]
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    w = PointwiseWeighting(W, sp.p)
    worst_h = 0.0
    for _ in range(3):
        f = band_limited_noise(DESK, 2, 1.0, 32.0, rng)
        hf = hilbert_riesz_apply(f)
        num = tl_norm(SampledField(DESK, hf.values.real), w, sp, PAIR, hom).value
        den = tl_norm(f, w, sp, PAIR, hom).value
        worst_h = max(worst_h, num / den)
    ok = ok and worst_h <= C_CFG
    details.append(f"CZ ratio {worst_h:.3f}")
    # multiplier theorem with computed H2 norms
    ks = [3, 4, 5]
    fs = [band_limited_noise(DESK, 2, 2.0 ** (k - 1), 2.0 ** (k + 1) - 1e-9, rng)
          for k in ks]
    mults, h2s = [], []
    d, dt, delta = ap_dimensions(W, sp.p, CubeRange(-1, 4), i_max=2)
    a_exp = DESK.dim / min(1.0, sp.p, sp.q) + delta
    for k in ks:
        prof = lambda r, _k=k: np.exp(-((r / 2.0 ** _k) ** 2))
        mults.append(prof)
        h2s.append(h2_profile_norm(DESK, prof(DESK.freq_radius() * 2.0 ** k),
                                   a_exp + DESK.dim / 2.0 + 0.1))
    outs = multiplier_apply(mults, fs)
    num = _weighted_seq_bm(outs, W, sp.p, sp.q, sp, hom)
    den = _weighted_seq_bm(fs, W, sp.p, sp.q, sp, hom)
    mult_ratio = num / (den * max(h2s))
    ok = ok and mult_ratio <= C_CFG
    details.append(f"multiplier {mult_ratio:.3f}")
    # Bessel lifting on inhomogeneous spaces
    inh = CubeRange(-2, 8, inhomogeneous=True)
    worst_b = 0.0
    for gamma in (-1.0, 1.0, 2.0):
        f = band_limited_noise(DESK, 2, 1.0, 16.0, rng)
        spi = SpaceParams(1.5, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
        spg = SpaceParams(1.5 + gamma, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
        lifted = bessel_potential(f, -gamma)
        num = tl_norm(SampledField(DESK, lifted.values), w, spi, PART, inh).value
        den = tl_norm(f, w, spg, PART, inh).value
        r = max(num / den, den / num)
        worst_b = max(worst_b, r)
    ok = ok and worst_b <= C_CFG
    details.append(f"bessel {worst_b:.3f}")
    # psdo with Hormander and elementary Holder-Zygmund symbols at N = 1024
    inh_m = CubeRange(-2, 6, inhomogeneous=True)
    Wm = weight_gallery(MID, 2)["oscillating"]
    dm, dtm, deltam = ap_dimensions(Wm, 1.5, CubeRange(-1, 4), i_max=2)
    s_hi = MID.dim / min(1.0, 1.5, 1.5) + deltam + 0.5
    wm = PointwiseWeighting(Wm, 1.5)
    rng2 = np.random.default_rng(119)
    worst_psdo = 0.0
    m_ord = 0.5
    a_x = 1.0 + 0.4 * np.cos(2 * np.pi * MID.coords()[0] / MID.side)
    symbols = {
        "bessel_m": multiplier_symbol(MID, (1.0 + MID.freq_radius() ** 2) ** (m_ord / 2.0)),
        "ax_bessel": SymbolGrid(MID, a_x[:, None]
                                * (1.0 + MID.freq_radius() ** 2)[None, :] ** (m_ord / 2.0)),
    }
    for name, sym in symbols.items():
        f = band_limited_noise(MID, 2, 1.0, 8.0, rng2)
        out = psdo_apply(sym, f)
        sps = SpaceParams(s_hi, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
        spm = SpaceParams(s_hi + m_ord, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
        num = tl_norm(SampledField(MID, out.values), wm, sps, PART, inh_m).value
        den = tl_norm(f, wm, spm, PART, inh_m).value
        worst_psdo = max(worst_psdo, num / den)
    # elementary symbol: sigma_j(x) = 2^(j m) (1 + 0.3 cos) with ell > s + d/p
    part_pr = PART.level(1)
    sig = [scalar_field(MID, 2.0 ** (j * m_ord) * (1.0 + 0.3 * np.cos(2 * np.pi * MID.coords()[0] / MID.side)))
           for j in range(1, 7)]
    sym_el = SymbolGrid(MID, sum(s.scalar()[:, None] * part_pr(MID.freq_radius() * 2.0 ** (-j))[None, :]
                                 for j, s in enumerate(sig, start=1)))
    f = band_limited_noise(MID, 2, 1.0, 8.0, rng2)
    out = psdo_apply(sym_el, f)
    s_el = dtm / 3.0 + 1.0   # above d~/p' (p' = 3 at p = 1.5) with headroom
    sps = SpaceParams(s_el, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    spm = SpaceParams(s_el + m_ord, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    num = tl_norm(SampledField(MID, out.values), wm, sps, PART, inh_m).value
    den = tl_norm(f, wm, spm, PART, inh_m).value
    worst_psdo = max(worst_psdo, num / den)
    ok = ok and worst_psdo <= C_CFG
    details.append(f"psdo {worst_psdo:.3f}")
    _verdict("criterion 9 (operator boundedness)", ok, "; ".join(details))


@timed(120)
def test_criterion_10_oracle_equivalences():
    grid = MID
    rng = np.random.default_rng(110)
    f = band_limited_noise(grid, 2, 0.5, 8.0, rng)
    ok = True
    details = []
    # psdo(sigma = m(xi)) against the multiplier path: the separated symbol of
    # multiplier_symbol and the dense table of the same multiplier (lattice sum)
    mult = (1.0 + grid.freq_radius() ** 2) ** (-0.5)
    direct = bessel_potential(f, 1.0)
    dense = SymbolGrid(grid, np.broadcast_to(mult, grid.shape * 2).copy())
    for tag, sym in (("", multiplier_symbol(grid, mult)), (" dense", dense)):
        via_psdo = psdo_apply(sym, f)
        err1 = np.max(np.abs(via_psdo.values - direct.values)) / np.max(np.abs(direct.values))
        ok = ok and err1 <= 1e-10
        details.append(f"psdo/multiplier{tag} {err1:.1e}")
    # psdo(sigma = a(x)) against the pointwise product
    a_x = 1.0 + 0.3 * np.sin(2 * np.pi * grid.coords()[0] / grid.side)
    sym = SymbolGrid(grid, np.broadcast_to(a_x[:, None], grid.shape * 2).copy())
    out = psdo_apply(sym, f)
    err2 = np.max(np.abs(out.values - a_x[:, None] * f.values)) / np.max(np.abs(f.values))
    ok = ok and err2 <= 1e-10
    details.append(f"psdo/product {err2:.1e}")
    # paradecomposition reconstruction on the covered lattice
    small = TorusGrid(1, 2, 5)
    noise = band_limited_noise(small, 1, 0.3, 4.0, np.random.default_rng(111)).values[..., 0]
    symp = SymbolGrid(small, (1.0 + 0.5 * noise)[:, None]
                      * ((1.0 + small.freq_radius() ** 2) ** 0.25)[None, :])
    j_cut = small.side_log2 + small.res_log2
    pieces = paradecompose(symp, j_cut=j_cut, l_cut=j_cut)
    rec = pieces.reconstruction()
    covered = small.freq_radius() <= 2.0 ** (j_cut - 1)
    err3 = float(np.max(np.abs((rec - symp.values)[:, covered]))
                 / np.max(np.abs(symp.values)))
    ok = ok and err3 <= 1e-8
    details.append(f"paradecompose {err3:.1e}")
    # phi-transform and wavelet round trips
    hom = CubeRange(-2, 6)
    rec_phi = phi_synthesis(phi_transform(f, PAIR, hom), PAIR)
    err4 = l2_norm(SampledField(grid, rec_phi.values - f.values)) / l2_norm(f)
    ok = ok and err4 <= 1e-8
    details.append(f"phi round trip {err4:.1e}")
    coeffs = wavelet_analyze(f, 6, CubeRange(0, grid.res_log2 - 2))
    back = wavelet_synthesize(coeffs, 6)
    err5 = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
    ok = ok and err5 <= 1e-10
    details.append(f"wavelet round trip {err5:.1e}")
    _verdict("criterion 10 (oracle equivalences)", ok, "; ".join(details))


@timed(10)
def test_psdo_desk_scale_separated_symbols():
    # criterion 9's three psdo symbols, built separated, at 1D N = 4096 and 2D 512^2
    # with the oscillating weight.  The growth exponents come from cube levels
    # [-1, 4] in 1D (criterion 9's range) and [-1, 2] in 2D: [-1, 4] gives the
    # same three exponents there but takes about 6 s at 512^2.
    m_ord = 0.5
    worst = {}
    cases = ((DESK, CubeRange(-1, 4), CubeRange(-2, 8, inhomogeneous=True)),
             (TorusGrid(2, 2, 7), CubeRange(-1, 2), CubeRange(-2, 5, inhomogeneous=True)))
    for grid, exp_range, inh in cases:
        W = oscillating_weight(grid)
        d, dt, delta = ap_dimensions(W, 1.5, exp_range, i_max=2)
        w = PointwiseWeighting(W, 1.5)
        s_hi = grid.dim / min(1.0, 1.5, 1.5) + delta + 0.5
        s_el = dt / 3.0 + 1.0   # above d~/p' (p' = 3 at p = 1.5) with headroom
        bessel = (1.0 + grid.freq_radius() ** 2) ** (m_ord / 2.0)
        wave = np.cos(2 * np.pi * grid.coords()[0] / grid.side)
        sig = [scalar_field(grid, 2.0 ** (j * m_ord) * (1.0 + 0.3 * wave)) for j in range(1, 7)]
        symbols = {
            "bessel_m": (multiplier_symbol(grid, bessel), s_hi),
            "ax_bessel": (SeparatedSymbol(grid, (1.0 + 0.4 * wave)[None], bessel[None]), s_hi),
            # criterion 9's sum_j sigma_j(x) psi(2^-j xi), j = 1..6
            "elementary": (elementary_symbol(sig, PART.level(1), grid, start=2), s_el),
        }
        rng = np.random.default_rng(125)
        for name, (sym, s) in symbols.items():
            f = band_limited_noise(grid, 2, 1.0, 8.0, rng)
            out = psdo_apply(sym, f)
            sps = SpaceParams(s, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
            spm = SpaceParams(s + m_ord, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
            num = tl_norm(SampledField(grid, out.values), w, sps, PART, inh).value
            den = tl_norm(f, w, spm, PART, inh).value
            worst[name] = max(worst.get(name, 0.0), num / den)
    ok = max(worst.values()) <= C_CFG
    _verdict("psdo at desk scale (1D 4096, 2D 512^2)", ok,
             ", ".join(f"{name} {r:.3f}" for name, r in worst.items()))
