"""Sampled vector fields on a TorusGrid, their spectral representations, and quadrature.

Fourier convention is cyclic: F(xi) = integral f(x) exp(-2*pi*i*x.xi) dx, discretized
as h^n times the DFT, so a lattice harmonic exp(2*pi*i*xi0.x) has the single
coefficient L^n at xi0.  Midpoint quadrature (h^n times the sample sum) commutes
exactly with this transform.

The scales live here: to_spectral and half_spectrum apply h^n, and
SpectralField.samples, the one inverse transform, applies 1/h^n for every
caller (lpa.band_outputs, coeff.phi_synthesis, operators.psdo_apply).  Only
operators.kernel_weighted_mass and the dense psdo lattice sum keep their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import TorusGrid


@dataclass
class SampledField:
    """Vector-valued samples: values has shape grid.shape + (channels,)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape[:-1] != self.grid.shape or v.ndim != self.grid.dim + 1:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape} + (channels,)")
        if not np.all(np.isfinite(v.view(float) if np.iscomplexobj(v) else v)):
            raise ValueError("field values must be finite")
        self.values = v

    @property
    def channels(self) -> int:
        return self.values.shape[-1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def scalar(self) -> np.ndarray:
        if self.channels != 1:
            raise ValueError(f"expected scalar field, got {self.channels} channels")
        return self.values[..., 0]


@dataclass
class SpectralField:
    """Fourier coefficients on the frequency lattice, stored in FFT order.

    half marks the spectrum of a real field kept on the half lattice (rfftn: the
    last grid axis holds frequencies 0 .. N/2 only, the rest follow by
    Hermitian symmetry)."""

    grid: TorusGrid
    coeffs: np.ndarray
    half: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        shape = self.grid.shape
        if self.half:
            shape = shape[:-1] + (self.grid.points_per_axis // 2 + 1,)
        if c.shape[:-1] != shape or c.ndim != self.grid.dim + 1:
            raise ValueError(f"coeffs shape {c.shape} does not match {shape} + (channels,)")
        self.coeffs = c

    @property
    def channels(self) -> int:
        return self.coeffs.shape[-1]

    def samples(self) -> np.ndarray:
        """The inverse transform, 1/h^n times the inverse DFT (irfftn for a half
        spectrum), as an array of grid.shape + (channels,)."""
        axes = tuple(range(self.grid.dim))
        if self.half:
            values = np.fft.irfftn(self.coeffs, s=self.grid.shape, axes=axes)
        else:
            values = np.fft.ifftn(self.coeffs, axes=axes)
        values *= 1.0 / self.grid.cell_measure     # in place: values is the FFT's own output
        return values


def scalar_field(grid: TorusGrid, values: np.ndarray) -> SampledField:
    """Wrap a channel-less array as a 1-channel field."""
    return SampledField(grid, np.asarray(values)[..., None])


def to_spectral(f: SampledField) -> SpectralField:
    axes = tuple(range(f.grid.dim))
    coeffs = np.fft.fftn(f.values, axes=axes) * f.grid.cell_measure
    return SpectralField(f.grid, coeffs)


def half_spectrum(f: SampledField) -> SpectralField:
    """to_spectral of a real field on the half lattice (rfftn): the coefficients
    at the frequencies 0 .. N/2 of the last grid axis, about half the work."""
    if f.is_complex:
        raise ValueError("a half spectrum needs a real field")
    axes = tuple(range(f.grid.dim))
    coeffs = np.fft.rfftn(f.values, axes=axes) * f.grid.cell_measure
    return SpectralField(f.grid, coeffs, half=True)


def from_spectral(F: SpectralField) -> SampledField:
    """The field of a spectrum: real (irfftn) for a half spectrum."""
    return SampledField(F.grid, F.samples())


def quad_integral(g: SampledField, region=None) -> float:
    """Midpoint quadrature h^n * sum of a scalar field, over the torus or one dyadic cube."""
    vals = g.scalar()
    if region is not None:
        sl = region.grid_slices(g.grid)
        vals = vals[sl]
        if vals.size == 0:
            raise ValueError(f"region {region} contains no grid points")
    total = vals.sum() * g.grid.cell_measure
    if np.iscomplexobj(total):
        return total
    return float(total)


def _reflect(a: np.ndarray) -> np.ndarray:
    """a(-xi) for a lattice table a (grid axes leading, FFT order): entry k of
    each grid axis goes to (-k) mod N."""
    n = a.ndim
    return np.roll(a[(slice(None, None, -1),) * n], 1, axis=tuple(range(n)))


def fourier_multiply(f: SampledField, mult: np.ndarray) -> SampledField:
    """The field whose spectrum is f's spectrum times the lattice multiplier mult
    (grid.shape, FFT order) in every channel.

    Real when f and mult are real and mult is even, mult(-xi) = mult(xi) on the
    lattice (checked exactly); complex otherwise: a real odd multiplier such as
    sign(xi_1) turns a real field into a mostly imaginary one."""
    values = SpectralField(f.grid, to_spectral(f).coeffs * mult[..., None]).samples()
    if not f.is_complex and not np.iscomplexobj(mult) and np.array_equal(mult, _reflect(mult)):
        values = values.real
    return SampledField(f.grid, values)


def multi_indices(dim: int, order: int) -> list:
    """Every multi-index gamma of length dim with |gamma| <= order, in
    lexicographic order, so the first is gamma = 0."""
    return [g for g in product(range(order + 1), repeat=dim) if sum(g) <= order]


def spectral_derivative(f: SampledField, orders) -> SampledField:
    """Partial derivative prod_i (d/dx_i)^orders[i] via the frequency lattice."""
    mult = np.ones(f.grid.shape, dtype=complex)
    for freq, g in zip(f.grid.freqs(), orders):
        if g:
            mult = mult * (2j * np.pi * freq) ** g
    out = fourier_multiply(f, mult)
    if not f.is_complex:
        out = SampledField(f.grid, out.values.real)
    return out


def l2_norm(f: SampledField) -> float:
    """Grid L2 norm, (h^n * sum |f|^2)^(1/2) over all channels."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_measure))


def spectral_l2_norm(F: SpectralField) -> float:
    """Plancherel partner of l2_norm: (sum |F|^2 / L^n)^(1/2)."""
    return float(np.sqrt(np.sum(np.abs(F.coeffs) ** 2) / F.grid.side ** F.grid.dim))
