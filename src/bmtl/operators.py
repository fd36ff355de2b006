"""Singular and pseudo-differential operators: Hilbert/Riesz multipliers,
Calderon-Zygmund kernel measurements, Fourier multiplier lists, symbol
seminorms, the (j, l) paradecomposition, and direct quantization.

Symbols sigma(x, xi) have x on the sampling grid and xi on the frequency
lattice in FFT order.  A dense SymbolGrid holds the whole N^n x N^n table and
is quantized by the exact O(Nx * Nxi) lattice sum
(1/L^n) sum_xi sigma(x, xi) F(xi) e^(2 pi i x.xi).  A SeparatedSymbol holds R
terms a_r(x) b_r(xi) and is quantized as R Fourier multipliers,
sum_r a_r F^-1[b_r F f], without forming the table.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fields import (SampledField, fourier_multiply, multi_indices, scalar_field,
                     spectral_derivative, to_spectral)
from .grid import TorusGrid
from .lpa import holder_zygmund_norm, make_inhom_partition


class _SymbolAxes:
    """The axes of a symbol table, grid.shape + grid.shape: x axes, then xi axes."""

    grid: TorusGrid

    @property
    def x_axes(self) -> tuple:
        return tuple(range(self.grid.dim))

    @property
    def xi_axes(self) -> tuple:
        return tuple(range(self.grid.dim, 2 * self.grid.dim))


@dataclass
class SymbolGrid(_SymbolAxes):
    """sigma(x, xi): values has shape grid.shape + grid.shape (x axes then xi axes)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape * 2:
            raise ValueError(f"symbol shape {v.shape} != grid.shape * 2")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("symbol values must be finite")
        self.values = v


@dataclass
class SeparatedSymbol(_SymbolAxes):
    """sigma(x, xi) = sum_r xparts[r](x) xiparts[r](xi), R >= 1 terms.

    Both parts have shape (R,) + grid.shape: x on the sampling grid, xi on the
    lattice in FFT order.  psdo_apply takes one Fourier multiplier per term.
    values materializes the dense table for the seminorms, paradecompose and
    symbol files; it costs N^(2n) entries and is rebuilt on every read.
    """

    grid: TorusGrid
    xparts: np.ndarray
    xiparts: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.xparts, dtype=complex)
        b = np.asarray(self.xiparts, dtype=complex)
        if a.shape != b.shape or a.shape[1:] != self.grid.shape:
            raise ValueError(f"symbol parts {a.shape} and {b.shape} must both be "
                             f"(R,) + grid.shape = (R,) + {self.grid.shape}")
        if a.shape[0] == 0:
            raise ValueError("a separated symbol needs at least one term")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("symbol parts must be finite")
        self.xparts, self.xiparts = a, b

    @property
    def values(self) -> np.ndarray:
        """The dense table, N^(2n) entries: the terms' outer products summed in
        term order."""
        lead = self.grid.shape + (1,) * self.grid.dim
        trail = (1,) * self.grid.dim + self.grid.shape
        total = np.zeros(self.grid.shape * 2, dtype=complex)
        for a, b in zip(self.xparts, self.xiparts):
            total += a.reshape(lead) * b.reshape(trail)
        return total


@dataclass
class SymbolClassParams:
    """Order m, x-regularity delta and Holder-Zygmund smoothness ell of the classes
    S^m_(1,delta) (rho = 1 throughout), and the seminorm depths N, b."""

    m: float
    delta: float = 0.0
    ell: float = 1.0
    N: int = 2
    b: int = 2

    def __post_init__(self):
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")
        if self.N % 2 or self.b % 2 or self.N < 0 or self.b < 0:
            raise ValueError("seminorm depths N and b must be even nonnegative integers")


def tabulate_symbol(grid: TorusGrid, fn) -> SymbolGrid:
    """Build a SymbolGrid from fn(x_coords, xi_coords) with broadcastable arrays."""
    xs = [c.reshape(c.shape + (1,) * grid.dim) for c in grid.coords()]
    xis = [f.reshape((1,) * grid.dim + f.shape) for f in grid.freqs()]
    return SymbolGrid(grid, np.asarray(fn(xs, xis), dtype=complex))


def multiplier_symbol(grid: TorusGrid, mult: np.ndarray) -> SeparatedSymbol:
    """sigma(x, xi) = mult(xi): one term whose x-part is 1."""
    return SeparatedSymbol(grid, np.ones((1,) + grid.shape),
                           np.broadcast_to(mult, grid.shape)[None])


#: rows of the phase table formed at once by psdo_apply
_PSDO_ROWS = 256


def psdo_apply(sigma: SymbolGrid | SeparatedSymbol, f: SampledField) -> SampledField:
    """Quantization: out(x) = (1/L^n) sum_xi sigma(x, xi) F(xi) e^(2 pi i x.xi), complex.

    A dense SymbolGrid takes the lattice sum.  With x = h k and xi = l / L on
    the lattice, x.xi = (k.l) / N, so each phase is an N-th root of unity read
    from one table at index (k.l) mod N; l may be taken as the FFT-order index
    itself, which equals the frequency mod N.

    A SeparatedSymbol takes R Fourier multipliers, sum_r a_r F^-1[b_r F f]: one
    forward transform of f and one inverse transform per term.
    """
    grid = sigma.grid
    if f.grid != grid:
        raise ValueError("symbol and field grids differ")
    F = to_spectral(f)
    if isinstance(sigma, SeparatedSymbol):
        axes = tuple(range(grid.dim))
        out = np.zeros(F.coeffs.shape, dtype=complex)
        for a, b in zip(sigma.xparts, sigma.xiparts):
            out += a[..., None] * np.fft.ifftn(F.coeffs * b[..., None], axes=axes)
        return SampledField(grid, out * (1.0 / grid.cell_measure))
    n, npts = grid.points_per_axis, grid.npoints
    sig = sigma.values.reshape(npts, npts)
    Fc = F.coeffs.reshape(npts, f.channels)
    index = np.indices(grid.shape).reshape(grid.dim, npts).T      # k and l, row-major
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    out = np.empty((npts, f.channels), dtype=complex)
    for lo in range(0, npts, _PSDO_ROWS):
        hi = min(lo + _PSDO_ROWS, npts)
        phase = roots[(index[lo:hi] @ index.T) & (n - 1)]        # n is a power of 2
        out[lo:hi] = (sig[lo:hi] * phase) @ Fc
    scale = 1.0 / grid.side ** grid.dim
    return SampledField(grid, (out * scale).reshape(grid.shape + (f.channels,)))


def hilbert_riesz_apply(f: SampledField, component: int = 1) -> SampledField:
    """Riesz transform component c in 1..n: multiplier -i xi_c / |xi|, with the
    zero mode mapped to 0.  In 1D it is the Hilbert transform, -i sgn(xi)."""
    grid = f.grid
    if not 1 <= component <= grid.dim:
        raise ValueError(f"Riesz component must lie in 1..{grid.dim}, got {component}")
    fx = grid.freqs()[component - 1]
    r = grid.freq_radius()
    with np.errstate(invalid="ignore", divide="ignore"):
        mult = np.where(r > 0, -1j * (fx / np.where(r > 0, r, 1.0)), 0.0)
    return fourier_multiply(f, mult)


#: cz_kernel_check reads the derivatives at |x| >= this many grid spacings
_CZ_INNER_RADIUS_CELLS = 4


def cz_kernel_check(kernel: SampledField, L: int) -> dict:
    """Measured Calderon-Zygmund kernel constants on the punctured grid.

    K1/K2: sup |x|^(n+|gamma|) |d^gamma K| for |gamma| <= L (spectral derivative,
    evaluated at |x| >= _CZ_INNER_RADIUS_CELLS grid spacings); K3: max over dyadic
    annuli of |int K|.
    """
    grid = kernel.grid
    n = grid.dim
    dist = grid.radius()
    vals = kernel.scalar().copy()
    origin = (0,) * n
    vals[origin] = 0.0
    off = dist >= _CZ_INNER_RADIUS_CELLS * grid.spacing
    report = {"K1": float(np.max(np.abs(vals[dist > 0]) * dist[dist > 0] ** n))}
    clean = SampledField(grid, vals[..., None])
    k2 = 0.0
    for gamma in multi_indices(n, L)[1:]:       # the first is gamma = 0
        total = sum(gamma)
        dv = spectral_derivative(clean, gamma).scalar()
        k2 = max(k2, float(np.max(np.abs(dv[off]) * dist[off] ** (n + total))))
    report["K2"] = k2
    k3 = 0.0
    r_hi = grid.side / 2.0
    while r_hi > grid.spacing:
        r_lo = r_hi / 2.0
        ann = (dist > r_lo) & (dist <= r_hi)
        if np.any(ann):
            k3 = max(k3, float(np.abs(np.sum(vals[ann]) * grid.cell_measure)))
        r_hi = r_lo
    report["K3"] = k3
    return report


def multiplier_apply(mults: list, fs: list, support_radii: list = None) -> list:
    """Per-entry spectral multiplication m_k(D) f_k.

    Each multiplier is a function of |xi| or a lattice array in FFT order.  When
    support_radii is given, each f_k is checked (warn-only) against the band
    hypothesis supp F(f_k) inside |xi| <= radius_k.
    """
    if len(mults) != len(fs):
        raise ValueError(f"got {len(mults)} multipliers for {len(fs)} fields")
    if support_radii is not None:
        for fk, radius in zip(fs, support_radii):
            check_band_support(fk, radius)
    out = []
    for mk, fk in zip(mults, fs):
        mv = mk(fk.grid.freq_radius()) if callable(mk) else np.asarray(mk)
        out.append(fourier_multiply(fk, mv))
    return out


def check_band_support(f: SampledField, radius: float, tol: float = 1e-10) -> bool:
    F = to_spectral(f)
    outside = F.grid.freq_radius() > radius
    leak = float(np.max(np.abs(F.coeffs[outside]), initial=0.0))
    if leak > tol * max(float(np.max(np.abs(F.coeffs))), 1e-300):
        warnings.warn(f"spectrum leaks outside |xi| <= {radius}: {leak:.2e}", stacklevel=2)
        return False
    return True


def _xi_derivatives(sigma: SymbolGrid | SeparatedSymbol, values: np.ndarray, alpha_max: int):
    """Yield (alpha, d_xi^alpha values, mask) for every |alpha| <= alpha_max.

    values is a table of sigma's layout.  The derivatives are centered differences
    at lattice spacing 1/L, in fftshift order over the xi axes so that they see
    monotone xi.  mask (grid.shape, the same order) keeps the xi whose differences
    do not wrap: alpha_i lattice-edge frequencies go from each end of axis i.
    An alpha with 2 * alpha_i >= N would leave no xi, so 2 * alpha_max >= N
    raises ValueError.
    """
    grid = sigma.grid
    N = grid.points_per_axis
    if 2 * alpha_max >= N:
        raise ValueError(f"alpha_max {alpha_max} needs 2 * alpha_max < N = {N} lattice "
                         "points per axis: every xi difference would wrap")
    step = 1.0 / grid.side
    shifted = np.fft.fftshift(values, axes=sigma.xi_axes)
    for alpha in multi_indices(grid.dim, alpha_max):
        dv = shifted
        for ax, order in zip(sigma.xi_axes, alpha):
            for _ in range(order):
                dv = (np.roll(dv, -1, axis=ax) - np.roll(dv, 1, axis=ax)) / (2.0 * step)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[tuple(slice(order, N - order) for order in alpha)] = True
        yield alpha, dv, mask


def hormander_seminorm(sigma: SymbolGrid | SeparatedSymbol, params: SymbolClassParams,
                       alpha_max: int, beta_max: int) -> float:
    """max over |alpha| <= alpha_max, |beta| <= beta_max, (x, xi) of
    |d_xi^alpha d_x^beta sigma| (1+|xi|)^(-m + |alpha| - delta|beta|)."""
    grid = sigma.grid
    one_plus = 1.0 + np.fft.fftshift(grid.freq_radius())     # 1 + |xi|, shifted order
    # the table as a field with one channel per xi, for the x-derivatives
    table = SampledField(grid, sigma.values.reshape(grid.shape + (grid.npoints,)))
    best = 0.0
    for beta in multi_indices(grid.dim, beta_max):
        dx = spectral_derivative(table, beta).values.reshape(grid.shape * 2)
        for alpha, dv, mask in _xi_derivatives(sigma, dx, alpha_max):
            weight = one_plus[mask] ** (-params.m + sum(alpha) - params.delta * sum(beta))
            best = max(best, float(np.max(np.abs(dv)[..., mask] * weight)))
    return best


def sigma_nb_seminorm(sigma: SymbolGrid | SeparatedSymbol, params: SymbolClassParams) -> float:
    """The ||sigma||_{N,b} quantity driving the paradecomposition kernel bounds,
    read as x-derivatives to params.N and xi-derivatives to params.b."""
    return hormander_seminorm(sigma, params, alpha_max=params.b, beta_max=params.N)


#: czs_seminorm takes the C*-norm sup over about this many xi, evenly strided
_CZS_XI_SAMPLES = 33


def czs_seminorm(sigma: SymbolGrid | SeparatedSymbol, params: SymbolClassParams,
                 alpha_max: int = 2) -> float:
    """Holder-Zygmund symbol seminorm: for each |alpha| <= alpha_max,
    sup_xi <xi>^(-m+|alpha|-l*delta) ||d_xi^alpha sigma(., xi)||_C*l
      + sup_xi <xi>^(-m+|alpha|) ||d_xi^alpha sigma(., xi)||_Linf,
    maximized over alpha.  The C* sup subsamples the xi lattice to about
    _CZS_XI_SAMPLES points."""
    grid = sigma.grid
    bracket = np.sqrt(1.0 + np.fft.fftshift(grid.freq_radius()).reshape(-1) ** 2)
    npts = grid.npoints
    stride = max(1, npts // _CZS_XI_SAMPLES)
    best = 0.0
    for alpha, dv, mask in _xi_derivatives(sigma, sigma.values, alpha_max):
        ta = sum(alpha)
        flat = dv.reshape(grid.shape + (npts,))
        mask = mask.reshape(-1)
        linf = np.max(np.abs(flat), axis=sigma.x_axes)
        w_inf = bracket ** (-params.m + ta)
        term2 = float(np.max(linf[mask] * w_inf[mask]))
        term1 = 0.0
        w_cs = bracket ** (-params.m + ta - params.ell * params.delta)
        idx = [i for i in range(0, npts, stride) if mask[i]]
        for i in idx:
            section = flat[..., i]
            hz = max(
                holder_zygmund_norm(scalar_field(grid, section.real), params.ell),
                holder_zygmund_norm(scalar_field(grid, section.imag), params.ell),
            )
            term1 = max(term1, float(hz * w_cs[i]))
        best = max(best, term1 + term2)
    return best


def elementary_symbol(sigma_j: list, psi1: Callable, grid: TorusGrid,
                      start: int = 1) -> SeparatedSymbol:
    """sigma(x, xi) = sum_{j >= start} sigma_j(x) psi1(2^(-j+1) xi), one term per
    level; psi1 must be supported on the ring {1 <= |xi| <= 4}."""
    rho = grid.freq_radius()
    probe = np.linspace(0, 8, 1601)
    pv = psi1(probe)
    if np.any(np.abs(pv[(probe < 1.0 - 1e-9) | (probe > 4.0 + 1e-9)]) > 1e-12):
        raise ValueError("psi1 must vanish outside {1 <= |xi| <= 4}")
    terms = (-1,) + grid.shape
    xparts = [fld.scalar() for fld in sigma_j]
    rings = [psi1(rho * 2.0 ** (-j + 1)) for j in range(start, start + len(sigma_j))]
    return SeparatedSymbol(grid, np.reshape(xparts, terms), np.reshape(rings, terms))


@dataclass
class ParaPieces:
    """sigma_(j,l) double band split: j indexes the xi band, l the x-frequency
    excess; l = 0 carries the cumulative low-pass in x."""

    grid: TorusGrid
    pieces: dict  # (j, l) -> SymbolGrid
    j_cut: int
    l_cut: int

    def reconstruction(self) -> np.ndarray:
        return sum(p.values for p in self.pieces.values())


def paradecompose(sigma: SymbolGrid | SeparatedSymbol, j_cut: int, l_cut: int) -> ParaPieces:
    """Split sigma by output band phi_j(xi) and x-spectrum band phi_(j+l)(zeta)."""
    partition = make_inhom_partition()
    grid = sigma.grid
    rho = grid.freq_radius()         # both the xi lattice and the zeta lattice of the x spectrum
    hat1 = np.fft.fftn(sigma.values, axes=sigma.x_axes)
    pieces = {}
    for j in range(j_cut + 1):
        xi_mult = partition.level(j)(rho).reshape((1,) * grid.dim + grid.shape)
        for l in range(l_cut + 1):
            if l == 0:
                zeta_mult = partition.cumulative(j)(rho)
            else:
                zeta_mult = partition.level(j + l)(rho)
            if not np.any(zeta_mult):
                continue
            xpart = np.fft.ifftn(hat1 * zeta_mult.reshape(grid.shape + (1,) * grid.dim),
                                 axes=sigma.x_axes)
            pieces[(j, l)] = SymbolGrid(grid, xpart * xi_mult)
    return ParaPieces(grid, pieces, j_cut, l_cut)


def kernel_weighted_mass(piece: SymbolGrid, j: int, a: float) -> float:
    """max over x of int |F_xi sigma_(j,l)(x, .)(y)| (1 + 2^j |y|)^a dy.

    The xi -> y transform maps the lattice to the sample grid; y is wrapped to
    the symmetric fundamental domain.
    """
    grid = piece.grid
    M = np.fft.ifftn(piece.values, axes=piece.xi_axes) * (grid.npoints / grid.side ** grid.dim)
    weight = (1.0 + 2.0 ** j * grid.radius()) ** a
    mass = np.sum(np.abs(M) * weight.reshape((1,) * grid.dim + grid.shape),
                  axis=piece.xi_axes) * grid.cell_measure
    return float(np.max(mass))
