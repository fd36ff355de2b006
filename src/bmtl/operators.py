"""Singular and pseudo-differential operators: Hilbert/Riesz multipliers,
Calderon-Zygmund kernel measurements, Fourier multiplier lists, symbol
seminorms, the (j, l) paradecomposition, and direct quantization.

Symbols sigma(x, xi) are tabulated with x on the sampling grid and xi on the
frequency lattice in FFT order; quantization is the exact O(Nx * Nxi) lattice
sum (1/L^n) sum_xi sigma(x, xi) F(xi) e^(2 pi i x.xi).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import SampledField, fourier_multiply, to_spectral
from .grid import TorusGrid
from .lpa import InhomPartition, RadialProfile, holder_zygmund_norm, make_inhom_partition
from .fields import scalar_field


@dataclass
class SymbolGrid:
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

    @property
    def x_axes(self) -> tuple:
        return tuple(range(self.grid.dim))

    @property
    def xi_axes(self) -> tuple:
        return tuple(range(self.grid.dim, 2 * self.grid.dim))


@dataclass
class SymbolClassParams:
    m: float
    rho: float = 1.0
    delta: float = 0.0
    ell: float = 1.0
    N: int = 2
    b: int = 2

    def __post_init__(self):
        if self.rho != 1.0:
            raise ValueError("only rho = 1 classes are implemented")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")
        if self.N % 2 or self.b % 2 or self.N < 0 or self.b < 0:
            raise ValueError("seminorm depths N and b must be even nonnegative integers")


def tabulate_symbol(grid: TorusGrid, fn) -> SymbolGrid:
    """Build a SymbolGrid from fn(x_coords, xi_coords) with broadcastable arrays."""
    xs = [c.reshape(c.shape + (1,) * grid.dim) for c in grid.coords()]
    xis = [f.reshape((1,) * grid.dim + f.shape) for f in grid.freqs()]
    return SymbolGrid(grid, np.asarray(fn(xs, xis), dtype=complex))


def multiplier_symbol(grid: TorusGrid, mult: np.ndarray) -> SymbolGrid:
    vals = np.broadcast_to(mult, grid.shape * 2).copy()
    return SymbolGrid(grid, vals)


#: rows of the phase table formed at once by psdo_apply
_PSDO_ROWS = 256


def psdo_apply(sigma: SymbolGrid, f: SampledField) -> SampledField:
    """Direct quantization: out(x) = (1/L^n) sum_xi sigma(x, xi) F(xi) e^(2 pi i x.xi).

    With x = h k and xi = l / L on the lattice, x.xi = (k.l) / N, so each phase
    is an N-th root of unity read from one table at index (k.l) mod N; l may be
    taken as the FFT-order index itself, which equals the frequency mod N.
    """
    grid = sigma.grid
    if f.grid != grid:
        raise ValueError("symbol and field grids differ")
    F = to_spectral(f)
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
    """Hilbert transform (n = 1) or Riesz transform component (n = 2).

    Multiplier -i sgn(xi), resp. -i xi_c / |xi|, with the zero mode mapped to 0.
    """
    grid = f.grid
    if grid.dim == 1:
        mult = -1j * np.sign(grid.freqs()[0])
    else:
        if component not in (1, 2):
            raise ValueError("Riesz component must be 1 or 2")
        fx = grid.freqs()[component - 1]
        r = grid.freq_radius()
        with np.errstate(invalid="ignore", divide="ignore"):
            mult = np.where(r > 0, -1j * fx / np.where(r > 0, r, 1.0), 0.0)
    return fourier_multiply(f, mult)


def cz_kernel_check(kernel: SampledField, L: int, inner_radius_cells: int = 4) -> dict:
    """Measured Calderon-Zygmund kernel constants on the punctured grid.

    K1/K2: sup |x|^(n+|gamma|) |d^gamma K| for |gamma| <= L (spectral derivative,
    evaluated off a small neighborhood of 0); K3: max over dyadic annuli of
    |int K|.
    """
    from itertools import product as iproduct

    from .fields import spectral_derivative

    grid = kernel.grid
    n = grid.dim
    dist = grid.radius()
    vals = kernel.scalar().copy()
    origin = (0,) * n
    vals[origin] = 0.0
    off = dist >= inner_radius_cells * grid.spacing
    report = {"K1": float(np.max(np.abs(vals[dist > 0]) * dist[dist > 0] ** n))}
    clean = SampledField(grid, vals[..., None])
    k2 = 0.0
    for gamma in iproduct(range(L + 1), repeat=n):
        total = sum(gamma)
        if total == 0 or total > L:
            continue
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

    Each multiplier is a RadialProfile or a lattice array in FFT order.  When
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
        mv = mk(fk.grid.freq_radius()) if isinstance(mk, RadialProfile) else np.asarray(mk)
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


def _xi_shifted(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """fftshift over the xi axes so centered differences see monotone xi."""
    return np.fft.fftshift(values, axes=tuple(range(grid.dim, 2 * grid.dim)))


def _xi_derivative(shifted: np.ndarray, grid: TorusGrid, alpha) -> np.ndarray:
    """Centered differences along xi axes at lattice spacing 1/L (shifted order)."""
    step = 1.0 / grid.side
    out = shifted
    for ax_rel, order in enumerate(alpha):
        ax = grid.dim + ax_rel
        for _ in range(order):
            out = (np.roll(out, -1, axis=ax) - np.roll(out, 1, axis=ax)) / (2.0 * step)
    return out


def _x_derivative(values: np.ndarray, grid: TorusGrid, beta) -> np.ndarray:
    axes = tuple(range(grid.dim))
    out = np.fft.fftn(values, axes=axes)
    for ax, order in enumerate(beta):
        if order:
            shape = [1] * values.ndim
            shape[ax] = grid.points_per_axis
            zeta = grid.axis_freqs().reshape(shape)
            out = out * (2j * np.pi * zeta) ** order
    return np.fft.ifftn(out, axes=axes)


def _xi_interior_mask(grid: TorusGrid, order: int) -> np.ndarray:
    """Mask (shifted xi order) excluding lattice-edge frequencies where the
    centered difference wraps."""
    N = grid.points_per_axis
    ax = np.zeros(N, dtype=bool)
    ax[order: N - order] = True
    return np.logical_and.reduce(np.meshgrid(*[ax] * grid.dim, indexing="ij"))


def hormander_seminorm(sigma: SymbolGrid, params: SymbolClassParams,
                       alpha_max: int, beta_max: int) -> float:
    """max over |alpha| <= alpha_max, |beta| <= beta_max, (x, xi) of
    |d_xi^alpha d_x^beta sigma| (1+|xi|)^(-m + rho|alpha| - delta|beta|)."""
    from itertools import product as iproduct

    grid = sigma.grid
    rho_xi = np.sqrt(sum(np.fft.fftshift(fq) ** 2 for fq in grid.freqs()))
    rho_xi = rho_xi.reshape((1,) * grid.dim + grid.shape)
    best = 0.0
    for beta in iproduct(range(beta_max + 1), repeat=grid.dim):
        if sum(beta) > beta_max:
            continue
        base = _x_derivative(sigma.values, grid, beta)
        shifted = _xi_shifted(base, grid)
        for alpha in iproduct(range(alpha_max + 1), repeat=grid.dim):
            ta = sum(alpha)
            if ta > alpha_max:
                continue
            dv = _xi_derivative(shifted, grid, alpha)
            weight = (1.0 + rho_xi) ** (-params.m + params.rho * ta - params.delta * sum(beta))
            mask = _xi_interior_mask(grid, max(alpha) if ta else 0)
            sel = np.broadcast_to(mask.reshape((1,) * grid.dim + grid.shape), dv.shape)
            best = max(best, float(np.max(np.abs(dv)[sel] * np.broadcast_to(weight, dv.shape)[sel])))
    return best


def sigma_nb_seminorm(sigma: SymbolGrid, params: SymbolClassParams) -> float:
    """The ||sigma||_{N,b} quantity driving the paradecomposition kernel bounds,
    read as x-derivatives to params.N and xi-derivatives to params.b."""
    return hormander_seminorm(sigma, params, alpha_max=params.b, beta_max=params.N)


def czs_seminorm(sigma: SymbolGrid, params: SymbolClassParams, alpha_max: int = 2,
                 xi_samples: int = 33) -> float:
    """Holder-Zygmund symbol seminorm: for each |alpha| <= alpha_max,
    sup_xi <xi>^(-m+|alpha|-l*delta) ||d_xi^alpha sigma(., xi)||_C*l
      + sup_xi <xi>^(-m+|alpha|) ||d_xi^alpha sigma(., xi)||_Linf,
    maximized over alpha.  The C* sup subsamples the xi lattice."""
    from itertools import product as iproduct

    grid = sigma.grid
    partition = make_inhom_partition()
    rho_flat = np.sqrt(sum(np.fft.fftshift(fq) ** 2 for fq in grid.freqs())).reshape(-1)
    bracket = np.sqrt(1.0 + rho_flat ** 2)
    npts = grid.npoints
    stride = max(1, npts // xi_samples)
    best = 0.0
    for alpha in iproduct(range(alpha_max + 1), repeat=grid.dim):
        ta = sum(alpha)
        if ta > alpha_max:
            continue
        shifted = _xi_shifted(sigma.values, grid)
        dv = _xi_derivative(shifted, grid, alpha)
        flat = dv.reshape(grid.shape + (npts,))
        mask = _xi_interior_mask(grid, max(alpha) if ta else 0).reshape(-1)
        linf = np.max(np.abs(flat), axis=tuple(range(grid.dim)))
        w_inf = bracket ** (-params.m + ta)
        term2 = float(np.max(linf[mask] * w_inf[mask]))
        term1 = 0.0
        w_cs = bracket ** (-params.m + ta - params.ell * params.delta)
        idx = [i for i in range(0, npts, stride) if mask[i]]
        for i in idx:
            section = flat[..., i]
            hz = max(
                holder_zygmund_norm(scalar_field(grid, section.real), params.ell, partition),
                holder_zygmund_norm(scalar_field(grid, section.imag), params.ell, partition),
            )
            term1 = max(term1, float(hz * w_cs[i]))
        best = max(best, term1 + term2)
    return best


def elementary_symbol(sigma_j: list, psi1: RadialProfile, grid: TorusGrid,
                      start: int = 1) -> SymbolGrid:
    """sigma(x, xi) = sum_{j >= start} sigma_j(x) psi1(2^(-j+1) xi);
    psi1 must be supported on the ring {1 <= |xi| <= 4}."""
    rho = grid.freq_radius()
    probe = np.linspace(0, 8, 1601)
    pv = psi1(probe)
    if np.any(np.abs(pv[(probe < 1.0 - 1e-9) | (probe > 4.0 + 1e-9)]) > 1e-12):
        raise ValueError("psi1 must vanish outside {1 <= |xi| <= 4}")
    total = np.zeros(grid.shape * 2, dtype=complex)
    for off, fld in enumerate(sigma_j):
        j = start + off
        ring = psi1(rho * 2.0 ** (-j + 1))
        xpart = fld.scalar().reshape(grid.shape + (1,) * grid.dim)
        total += xpart * ring.reshape((1,) * grid.dim + grid.shape)
    return SymbolGrid(grid, total)


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


def paradecompose(sigma: SymbolGrid, j_cut: int, l_cut: int,
                  partition: InhomPartition = None) -> ParaPieces:
    """Split sigma by output band phi_j(xi) and x-spectrum band phi_(j+l)(zeta)."""
    if partition is None:
        partition = make_inhom_partition()
    grid = sigma.grid
    x_axes = tuple(range(grid.dim))
    rho_x = grid.freq_radius()       # zeta lattice for the x spectrum
    rho_xi = grid.freq_radius()
    hat1 = np.fft.fftn(sigma.values, axes=x_axes)
    pieces = {}
    for j in range(j_cut + 1):
        xi_mult = partition.level(j)(rho_xi).reshape((1,) * grid.dim + grid.shape)
        for l in range(l_cut + 1):
            if l == 0:
                zeta_mult = partition.cumulative(j)(rho_x)
            else:
                zeta_mult = partition.level(j + l)(rho_x)
            if not np.any(zeta_mult):
                continue
            xpart = np.fft.ifftn(hat1 * zeta_mult.reshape(grid.shape + (1,) * grid.dim),
                                 axes=x_axes)
            pieces[(j, l)] = SymbolGrid(grid, xpart * xi_mult)
    return ParaPieces(grid, pieces, j_cut, l_cut)


def kernel_weighted_mass(piece: SymbolGrid, j: int, a: float) -> float:
    """max over x of int |F_xi sigma_(j,l)(x, .)(y)| (1 + 2^j |y|)^a dy.

    The xi -> y transform maps the lattice to the sample grid; y is wrapped to
    the symmetric fundamental domain.
    """
    grid = piece.grid
    xi_axes = tuple(range(grid.dim, 2 * grid.dim))
    M = np.fft.ifftn(piece.values, axes=xi_axes) * (grid.npoints / grid.side ** grid.dim)
    weight = (1.0 + 2.0 ** j * grid.radius()) ** a
    mass = np.sum(np.abs(M) * weight.reshape((1,) * grid.dim + grid.shape),
                  axis=xi_axes) * grid.cell_measure
    return float(np.max(mass))
