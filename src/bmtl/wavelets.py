"""Periodic orthonormal Daubechies wavelet transforms on the sampling grid.

Filters db2..db10 are embedded as published decimal constants (minimum-phase
orthonormal family; dbP has P vanishing moments and filter length 2P).  The
transform is the standard periodized pyramid: detail coefficients after step
ell live on dyadic cubes of level J - ell, and coefficients carry the h^(n/2)
factor that turns the sample-space isometry into a grid-L2 isometry:
sum |<f, psi_Q>|^2 = ||f||_L2^2 over all detail and final approximation slots.

Generator indexing: 0 is the final approximation (coarsest scaling part);
1..2^n-1 are detail subbands.  Bit k of generator i, counted from the most
significant of n bits, picks the high-pass filter along axis k (2D: 1=LH,
2=HL, 3=HH), the order of coeff._child_slices.  Each generator's
coefficients are one CoeffSequence; every pyramid step writes its subbands
whole as that level's array, and synthesis reads the level arrays back.
"""

from __future__ import annotations

import numpy as np

from .coeffseq import CoeffSequence
from .dyadic import CubeRange, DyadicCube
from .fields import SampledField
from .grid import TorusGrid

DB_FILTERS = {
    2: [4.82962913144534156e-01, 8.36516303737807831e-01, 2.24143868042013361e-01,
        -1.29409522551260397e-01],
    3: [3.32670552950082854e-01, 8.06891509311093102e-01, 4.59877502118491488e-01,
        -1.35011020010255195e-01, -8.54412738820268941e-02, 3.52262918857095472e-02],
    4: [2.30377813308896146e-01, 7.14846570552914784e-01, 6.30880767929858699e-01,
        -2.79837694168587857e-02, -1.87034811719092336e-01, 3.08413818355606842e-02,
        3.28830116668851202e-02, -1.05974017850690005e-02],
    5: [1.60102397974194482e-01, 6.03829269797195201e-01, 7.24308528437778376e-01,
        1.38428145901318661e-01, -2.42294887066388215e-01, -3.22448695846414279e-02,
        7.75714938400451914e-02, -6.24149021279869244e-03, -1.25807519990821827e-02,
        3.33572528547380290e-03],
    6: [1.11540743350109231e-01, 4.94623890398452948e-01, 7.51133908021098029e-01,
        3.15250351709203847e-01, -2.26264693965436442e-01, -1.29766867567265243e-01,
        9.75016055873180326e-02, 2.75228655303039020e-02, -3.15820393174861755e-02,
        5.53842201161351710e-04, 4.77725751094545351e-03, -1.07730108530846398e-03],
    7: [7.78520540850091702e-02, 3.96539319481918118e-01, 7.29132090846239200e-01,
        4.69782287405200560e-01, -1.43906003928561066e-01, -2.24036184993879617e-01,
        7.13092192668233066e-02, 8.06126091510801779e-02, -3.80299369350152877e-02,
        -1.65745416306681270e-02, 1.25509985560990564e-02, 4.29577972921288344e-04,
        -1.80164070404746786e-03, 3.53713799974512814e-04],
    8: [5.44158422431479938e-02, 3.12871590914536812e-01, 6.75630736297731072e-01,
        5.85354683654400465e-01, -1.58291052567405867e-02, -2.84015542962031575e-01,
        4.72484573851064660e-04, 1.28747426620576283e-01, -1.73693010018497462e-02,
        -4.40882539308445828e-02, 1.39810279174142314e-02, 8.74609404741458554e-03,
        -4.87035299345681041e-03, -3.91740373377222654e-04, 6.75449406451288808e-04,
        -1.17476784124898907e-04],
    9: [3.80779473639100835e-02, 2.43834674612780411e-01, 6.04823123690521713e-01,
        6.57288078051574076e-01, 1.33197385824705999e-01, -2.93273783279730360e-01,
        -9.68407832231290427e-02, 1.48540749338257783e-01, 3.07256814793459149e-02,
        -6.76328290614079813e-02, 2.50947114836315161e-04, 2.23616621237018552e-02,
        -4.72320475775929189e-03, -4.28150368246820508e-03, 1.84764688305849947e-03,
        2.30385763523386223e-04, -2.51963188943007737e-04, 3.93473203163205950e-05],
    10: [2.66700579005351365e-02, 1.88176800077577949e-01, 5.27201188931551212e-01,
         6.88459039453779398e-01, 2.81172343661432345e-01, -2.49846424326446520e-01,
         -1.95946274377458679e-01, 1.27369340335078490e-01, 9.30573646031784829e-02,
         -7.13941471664533839e-02, -2.94575368220153684e-02, 3.32126740591855291e-02,
         3.60655356692718464e-03, -1.07331754833225341e-02, 1.39535174704327834e-03,
         1.99240529518101422e-03, -6.85856694957954886e-04, -1.16466855129163381e-04,
         9.35886703198614793e-05, -1.32642028944877407e-05],
}


def _filters(db_order: int):
    if db_order not in DB_FILTERS:
        raise ValueError(f"db order must be in {sorted(DB_FILTERS)}, got {db_order}")
    lo = np.asarray(DB_FILTERS[db_order])
    hi = ((-1.0) ** np.arange(lo.size)) * lo[::-1]
    return lo, hi


def _analysis_step(a: np.ndarray, filt: np.ndarray, axis: int) -> np.ndarray:
    """Periodic convolution + downsample by 2 along one axis: out[k] = sum_t f[t] a[2k+t]."""
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    out = np.zeros((n // 2,) + a.shape[1:], dtype=a.dtype)
    idx = (2 * np.arange(n // 2))
    for t, c in enumerate(filt):
        out += c * a[(idx + t) % n]
    return np.moveaxis(out, 0, axis)


def _synthesis_step(lo_c: np.ndarray, hi_c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    axis: int) -> np.ndarray:
    """Adjoint of _analysis_step for an orthonormal pair."""
    lo_c = np.moveaxis(lo_c, axis, 0)
    hi_c = np.moveaxis(hi_c, axis, 0)
    half = lo_c.shape[0]
    n = 2 * half
    out = np.zeros((n,) + lo_c.shape[1:], dtype=lo_c.dtype)
    idx = 2 * np.arange(half)
    for t, c in enumerate(lo):   # (idx + t) % n has no repeats: plain += is exact
        out[(idx + t) % n] += c * lo_c
    for t, c in enumerate(hi):
        out[(idx + t) % n] += c * hi_c
    return np.moveaxis(out, 0, axis)


def wavelet_analyze(f: SampledField, db_order: int, cube_range: CubeRange) -> dict:
    """Periodic DWT of every channel down to level range.j_min.

    Returns {i: CoeffSequence}: detail generators i >= 1 span cube levels
    [j_min, J-1], whatever range.j_max is; i = 0 holds the final
    approximation at level j_min.
    """
    grid = f.grid
    lo, hi = _filters(db_order)
    depth = grid.res_log2 - cube_range.j_min
    if cube_range.j_min < -grid.side_log2 or depth < 1:
        raise ValueError(f"transform depth {depth} exceeds grid (j_min {cube_range.j_min})")
    scale = grid.cell_measure ** 0.5
    out = {i: {} for i in range(2 ** grid.dim)}
    a = f.values.astype(complex if f.is_complex else float)
    for step in range(1, depth + 1):
        j = grid.res_log2 - step
        bands = [a]
        for axis in range(grid.dim):
            bands = [_analysis_step(b, filt, axis) for b in bands for filt in (lo, hi)]
        a = bands[0]
        for i, band in enumerate(bands[1:], 1):
            out[i][j] = band * scale
    out[0][cube_range.j_min] = a * scale
    return {i: CoeffSequence(grid, arrays, f.channels) for i, arrays in out.items()}


def wavelet_synthesize(coeffs: dict, db_order: int) -> SampledField:
    """Inverse periodic DWT; exact left inverse of wavelet_analyze."""
    lo, hi = _filters(db_order)
    approx = coeffs[0]
    grid = approx.grid
    j_min = min(approx.levels())
    scale = grid.cell_measure ** 0.5

    def band(i: int, j: int) -> np.ndarray:
        return coeffs[i].level_array(j) / scale

    a = band(0, j_min)
    for j in range(j_min, grid.res_log2):
        bands = [a] + [band(i, j) for i in range(1, 2 ** grid.dim)]
        # the last axis left is the lowest bit, so entries 2k and 2k + 1 differ only there
        for axis in reversed(range(grid.dim)):
            bands = [_synthesis_step(bands[k], bands[k + 1], lo, hi, axis)
                     for k in range(0, len(bands), 2)]
        a, = bands
    if np.max(np.abs(a.imag)) < 1e-13 * max(np.max(np.abs(a.real)), 1.0):
        a = a.real
    return SampledField(grid, a)


def empty_coeffs(grid: TorusGrid, channels: int) -> dict:
    return {i: CoeffSequence(grid, {}, channels) for i in range(2 ** grid.dim)}


def wavelet_basis_field(grid: TorusGrid, db_order: int, generator: int, cube: DyadicCube,
                        j_min: int, channels: int = 1) -> SampledField:
    """One basis function psi_Q^(i) realized on the grid (cascade to resolution)."""
    if generator == 0 and cube.level != j_min:
        raise ValueError("approximation slot lives at j_min")
    coeffs = empty_coeffs(grid, channels)
    anchor = DyadicCube(j_min, (0,) * grid.dim)   # fixes j_min when generator != 0
    coeffs[0] = CoeffSequence(grid, {anchor: np.zeros(channels)}, channels)
    coeffs[generator] = CoeffSequence(grid, {cube: np.ones(channels)}, channels)
    return wavelet_synthesize(coeffs, db_order)


def parseval_defect(f: SampledField, coeffs: dict) -> float:
    """| sum |coeff|^2 - ||f||_L2^2 | / ||f||_L2^2."""
    total = sum(float(np.sum(np.abs(a) ** 2)) for seq in coeffs.values()
                for a in seq.arrays.values())
    l2sq = float(np.sum(np.abs(f.values) ** 2) * f.grid.cell_measure)
    return abs(total - l2sq) / l2sq
