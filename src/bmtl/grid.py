"""Uniform periodic grids on the torus [0, L)^n with L = 2^K and spacing h = 2^-J.

Samples sit at x = h*k, k in {0,...,N-1}^n with N = 2^(K+J) points per axis.
All geometry (distances, frequency lattices) wraps modulo L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """Periodic sampling grid: dim n in {1,2}, side L = 2^side_log2, spacing h = 2^-res_log2."""

    dim: int
    side_log2: int
    res_log2: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.res_log2 < 1:
            raise ValueError(f"res_log2 must be >= 1, got {self.res_log2}")
        if self.side_log2 + self.res_log2 < 1:
            raise ValueError("grid has fewer than 2 points per axis")

    @property
    def points_per_axis(self) -> int:
        return 1 << (self.side_log2 + self.res_log2)

    @property
    def side(self) -> float:
        return float(2.0 ** self.side_log2)

    @property
    def spacing(self) -> float:
        return float(2.0 ** (-self.res_log2))

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def npoints(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def cell_measure(self) -> float:
        return self.spacing ** self.dim

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates along one axis, x = h*k."""
        return self.spacing * np.arange(self.points_per_axis)

    def coords(self) -> list:
        """Per-axis coordinate arrays broadcast to the full grid shape."""
        return list(np.meshgrid(*[self.axis_coords()] * self.dim, indexing="ij"))

    def axis_freqs(self) -> np.ndarray:
        """Frequency lattice along one axis, xi in (1/L)*{-N/2,...,N/2-1}, FFT order."""
        return np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def freqs(self) -> list:
        """Per-axis frequency arrays broadcast to the full grid shape, FFT order."""
        return list(np.meshgrid(*[self.axis_freqs()] * self.dim, indexing="ij"))

    def freq_radius(self) -> np.ndarray:
        """|xi| on the frequency lattice, FFT order, full grid shape."""
        fs = self.freqs()
        return np.sqrt(sum(f * f for f in fs))

    def radius(self) -> np.ndarray:
        """|x|, the torus distance of every sample to the origin, full grid shape;
        also the distance of the offset x - y at (x - y) mod N per axis."""
        return self.torus_dist(np.stack(self.coords(), axis=-1), np.zeros(self.dim))

    def wrap_delta(self, d):
        """Minimal signed displacement on the torus, in (-L/2, L/2]."""
        L = self.side
        return np.asarray(d) - L * np.round(np.asarray(d) / L)

    def torus_dist(self, a, b) -> np.ndarray:
        """Euclidean distance between points a, b (last axis = coordinates), wrapped."""
        d = self.wrap_delta(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if d.ndim == 0:
            return np.abs(d)
        return np.sqrt(np.sum(d * d, axis=-1))
