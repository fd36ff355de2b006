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

Each step runs in polyphase form along its axis.  With half = n / 2 and the
phases e = a[0::2], o = a[1::2], a[2k + t] = (e if t is even else o)[(k + t // 2)
mod half], so analysis tap t adds c_t times one contiguous phase shifted
cyclically by (t // 2) mod half, copied as two plain slices; synthesis adds tap
t's c_t * coeff[k] into phase t % 2 at (k + t // 2) mod half and interleaves
the two phases into the output once.  Every entry still receives the same
products, each formed as c_t * value, added one by one in tap order (the
low-pass taps, then the high-pass taps) onto a zero start, as in the per-tap
gather/scatter form out[(2k + t) mod n]; so the bits are that form's, also on
the coarse steps where half < P and a shift wraps more than once.  Analysis of
a real field runs in real arithmetic, and so does synthesis when every
coefficient is real: the real part of c_t * (x + 0i) is c_t x up to the sign of
a zero, and a sum that starts at +0 never becomes -0, so every real part equals
the complex pyramid's.
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


def _along(axis: int, sl) -> tuple:
    """Index that applies sl along one axis and keeps every other axis whole."""
    return (slice(None),) * axis + (sl,)


def _analysis_step(a: np.ndarray, filt: np.ndarray, axis: int) -> np.ndarray:
    """Periodic convolution + downsample by 2 along one axis: out[k] = sum_t f[t] a[2k+t].

    Polyphase form: a[2k + t] is phase t % 2 at (k + t // 2) mod half, so each tap
    adds one cyclically shifted copy of a contiguous phase, as two plain slices.
    """
    half = a.shape[axis] // 2
    phases = [np.ascontiguousarray(a[_along(axis, slice(p, None, 2))]) for p in (0, 1)]
    out = np.zeros_like(phases[0])
    tmp = np.empty_like(out)
    for t, c in enumerate(filt):
        src, s = phases[t % 2], (t // 2) % half
        head, tail = _along(axis, slice(None, half - s)), _along(axis, slice(half - s, None))
        np.multiply(c, src[_along(axis, slice(s, None))], out=tmp[head])
        np.multiply(c, src[_along(axis, slice(None, s))], out=tmp[tail])
        out += tmp
    return out


def _synthesis_step(lo_c: np.ndarray, hi_c: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    axis: int) -> np.ndarray:
    """Adjoint of _analysis_step for an orthonormal pair.

    Tap t of a filter adds c * coeff[k] to out[2k + t], that is to phase t % 2 at
    (k + t // 2) mod half; the two phases are accumulated whole and interleaved once.
    """
    half = lo_c.shape[axis]
    phases = [np.zeros_like(lo_c), np.zeros_like(lo_c)]
    tmp = np.empty_like(lo_c)
    for coeffs, filt in ((lo_c, lo), (hi_c, hi)):
        for t, c in enumerate(filt):
            s = (t // 2) % half
            head, tail = _along(axis, slice(None, s)), _along(axis, slice(s, None))
            np.multiply(c, coeffs[_along(axis, slice(half - s, None))], out=tmp[head])
            np.multiply(c, coeffs[_along(axis, slice(None, half - s))], out=tmp[tail])
            phases[t % 2] += tmp
    shape = list(lo_c.shape)
    shape[axis] = 2 * half
    out = np.empty(shape, dtype=lo_c.dtype)
    for p in (0, 1):
        out[_along(axis, slice(p, None, 2))] = phases[p]
    return out


def wavelet_analyze(f: SampledField, db_order: int, cube_range: CubeRange) -> dict:
    """Periodic DWT of every channel down to level range.j_min.

    Returns {i: CoeffSequence}: detail generators i >= 1 span cube levels
    [j_min, J-1], whatever range.j_max is; i = 0 holds the final
    approximation at level j_min.
    """
    grid = f.grid
    lo, hi = _filters(db_order)
    depth = grid.res_log2 - cube_range.j_min
    if not -grid.side_log2 <= cube_range.j_min <= grid.res_log2 - 1:
        raise ValueError(f"wavelet j_min {cube_range.j_min} outside "
                         f"[{-grid.side_log2}, {grid.res_log2 - 1}]")
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


def _approximation(coeffs: dict) -> CoeffSequence:
    """coeffs[0], or a ValueError naming the generator at fault unless the keys are
    exactly 0..2^n - 1, every sequence has generator 0's grid and channel count,
    generator 0 stores exactly one level j_min, and every detail generator stores
    levels in [j_min, J - 1] only (the pyramid reads no other)."""
    if 0 not in coeffs:
        raise ValueError("generator 0 (the approximation) is missing")
    approx = coeffs[0]
    count = 2 ** approx.grid.dim
    for i in coeffs:
        if i not in range(count):
            raise ValueError(f"generator {i!r} is not one of 0..{count - 1}")
    for i in range(count):
        if i not in coeffs:
            raise ValueError(f"generator {i} is missing: keys must be 0..{count - 1}")
    for i, seq in coeffs.items():
        if seq.grid != approx.grid:
            raise ValueError(f"generator {i} lies on {seq.grid}, generator 0 on {approx.grid}")
        if seq.channels != approx.channels:
            raise ValueError(f"generator {i} has {seq.channels} channels, "
                             f"generator 0 has {approx.channels}")
    if len(approx.levels()) != 1:
        raise ValueError(f"generator 0 (the approximation) stores levels {approx.levels()}, "
                         f"expected exactly one")
    j_min, top = approx.levels()[0], approx.grid.res_log2 - 1
    for i in range(1, count):
        for j in coeffs[i].levels():
            if not j_min <= j <= top:
                raise ValueError(f"generator {i} stores level {j} outside [{j_min}, {top}]")
    return approx


def wavelet_synthesize(coeffs: dict, db_order: int) -> SampledField:
    """Inverse periodic DWT; exact left inverse of wavelet_analyze.  coeffs holds
    generators 0..2^n - 1 on one grid with one channel count, generator 0 at one
    level j_min (ValueError otherwise)."""
    lo, hi = _filters(db_order)
    approx = _approximation(coeffs)
    grid = approx.grid
    j_min, = approx.levels()
    scale = grid.cell_measure ** 0.5
    # real coefficients give a real pyramid with the complex one's bits (module docstring)
    real = not any(np.any(a.imag) for seq in coeffs.values() for a in seq.arrays.values())

    def band(i: int, j: int) -> np.ndarray:
        b = coeffs[i].level_array(j) / scale
        return b.real if real else b

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
                        j_min: int) -> SampledField:
    """One basis function psi_Q^(i) realized on the grid (cascade to resolution), as
    a 1-channel field; generator lies in [0, 2^n)."""
    if not 0 <= generator < 2 ** grid.dim:
        raise ValueError(f"generator {generator} outside [0, {2 ** grid.dim})")
    if generator == 0 and cube.level != j_min:
        raise ValueError("approximation slot lives at j_min")
    if not -grid.side_log2 <= j_min <= grid.res_log2:
        raise ValueError(f"j_min {j_min} outside [{-grid.side_log2}, {grid.res_log2}]")
    cube.validate(grid)
    coeffs = empty_coeffs(grid, 1)
    blank = coeffs[0]
    level = blank.level_array(cube.level).copy()
    level[cube.index] = 1.0
    # a zero approximation level fixes j_min when generator != 0
    coeffs[0] = CoeffSequence(grid, {j_min: blank.level_array(j_min)}, 1)
    coeffs[generator] = CoeffSequence(grid, {cube.level: level}, 1)
    return wavelet_synthesize(coeffs, db_order)


def parseval_defect(f: SampledField, coeffs: dict) -> float:
    """| sum |coeff|^2 - ||f||_L2^2 | / ||f||_L2^2, or the absolute defect
    sum |coeff|^2 when ||f|| = 0."""
    total = sum(float(np.sum(np.abs(a) ** 2)) for seq in coeffs.values()
                for a in seq.arrays.values())
    l2sq = float(np.sum(np.abs(f.values) ** 2) * f.grid.cell_measure)
    return abs(total - l2sq) / l2sq if l2sq else total
