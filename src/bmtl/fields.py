"""Sampled vector fields on a TorusGrid, their spectral representations, and quadrature.

Fourier convention is cyclic: F(xi) = integral f(x) exp(-2*pi*i*x.xi) dx, discretized
as h^n times the DFT, so a lattice harmonic exp(2*pi*i*xi0.x) has the single
coefficient L^n at xi0.  Midpoint quadrature (h^n times the sample sum) commutes
exactly with this transform.
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

    def copy(self) -> "SampledField":
        return SampledField(self.grid, self.values.copy())


@dataclass
class SpectralField:
    """Fourier coefficients on the frequency lattice, stored in FFT order."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.shape[:-1] != self.grid.shape or c.ndim != self.grid.dim + 1:
            raise ValueError(f"coeffs shape {c.shape} does not match grid {self.grid.shape} + (channels,)")
        self.coeffs = c

    @property
    def channels(self) -> int:
        return self.coeffs.shape[-1]


def scalar_field(grid: TorusGrid, values: np.ndarray) -> SampledField:
    """Wrap a channel-less array as a 1-channel field."""
    return SampledField(grid, np.asarray(values)[..., None])


def to_spectral(f: SampledField) -> SpectralField:
    axes = tuple(range(f.grid.dim))
    coeffs = np.fft.fftn(f.values, axes=axes) * f.grid.cell_measure
    return SpectralField(f.grid, coeffs)


def from_spectral(F: SpectralField) -> SampledField:
    axes = tuple(range(F.grid.dim))
    values = np.fft.ifftn(F.coeffs, axes=axes) * (1.0 / F.grid.cell_measure)
    return SampledField(F.grid, values)


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


def fourier_multiply(f: SampledField, mult: np.ndarray) -> SampledField:
    """The field whose spectrum is f's spectrum times the lattice multiplier mult
    (grid.shape, FFT order) in every channel; real when f and mult are real."""
    axes = tuple(range(f.grid.dim))
    spec = np.fft.fftn(f.values, axes=axes) * f.grid.cell_measure
    values = np.fft.ifftn(spec * mult[..., None], axes=axes) * (1.0 / f.grid.cell_measure)
    if not f.is_complex and not np.iscomplexobj(mult):
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
