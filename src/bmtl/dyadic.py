"""Dyadic cube lattice on the torus: Q_{j,m} = prod_i [2^-j m_i, 2^-j (m_i+1)).

Level j cubes have side 2^-j; there are 2^(j+K) of them per axis and they wrap
modulo the torus.  Levels run from -K (the whole torus as one cube) down to the
grid resolution J; phi-transform machinery additionally keeps a margin so each
cube holds at least 2^margin samples per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import TorusGrid

#: cubes used by band-limited machinery keep >= 2^MARGIN grid points per axis
MARGIN = 2


@dataclass(frozen=True)
class DyadicCube:
    level: int
    index: tuple

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(int(i) for i in self.index))

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return float(2.0 ** (-self.level))

    @property
    def measure(self) -> float:
        return self.side ** self.dim

    @property
    def corner(self) -> np.ndarray:
        return self.side * np.asarray(self.index, dtype=float)

    @property
    def center(self) -> np.ndarray:
        return self.side * (np.asarray(self.index, dtype=float) + 0.5)

    def validate(self, grid: TorusGrid, margin: int = 0) -> "DyadicCube":
        if self.dim != grid.dim:
            raise ValueError(f"cube dim {self.dim} != grid dim {grid.dim}")
        if not (-grid.side_log2 <= self.level <= grid.res_log2 - margin):
            raise ValueError(
                f"level {self.level} outside [{-grid.side_log2}, {grid.res_log2 - margin}]"
            )
        count = cubes_per_axis(grid, self.level)
        if not all(0 <= i < count for i in self.index):
            raise ValueError(f"index {self.index} outside [0, {count})^n")
        return self

    def points_per_axis(self, grid: TorusGrid) -> int:
        return 1 << (grid.res_log2 - self.level)

    def grid_slices(self, grid: TorusGrid) -> tuple:
        """Slices selecting the cube's sample points (cubes are grid-aligned)."""
        self.validate(grid)
        w = self.points_per_axis(grid)
        return tuple(slice(i * w, (i + 1) * w) for i in self.index)

    def children(self) -> list:
        j, two = self.level + 1, 2
        return [
            DyadicCube(j, tuple(two * i + o for i, o in zip(self.index, offs)))
            for offs in product(range(two), repeat=self.dim)
        ]

    def parent(self) -> "DyadicCube":
        return DyadicCube(self.level - 1, tuple(i // 2 for i in self.index))

    def dilated_axis_indices(self, grid: TorusGrid, factor: float) -> list:
        """Per-axis grid indices of the concentric cube of side factor*side, torus-wrapped.

        If the dilated cube covers a full axis it returns every index once.
        """
        N = grid.points_per_axis
        w = self.points_per_axis(grid)
        half = factor * w / 2.0
        out = []
        for i in self.index:
            c = i * w + w / 2.0
            lo = int(np.ceil(c - half - 1e-9))
            hi = int(np.floor(c + half - 1e-9))
            idx = np.arange(lo, hi + 1)
            if idx.size >= N:
                idx = np.arange(N)
            else:
                idx = np.unique(idx % N)
            out.append(idx)
        return out


def cubes_per_axis(grid: TorusGrid, j: int) -> int:
    if j < -grid.side_log2:
        raise ValueError(f"level {j} coarser than the torus (min {-grid.side_log2})")
    return 1 << (j + grid.side_log2)


def cubes_at_level(grid: TorusGrid, j: int) -> list:
    """All 2^(n(j+K)) cubes of side 2^-j, lexicographic in the index."""
    if not (-grid.side_log2 <= j <= grid.res_log2):
        raise ValueError(f"level {j} outside grid limits [{-grid.side_log2}, {grid.res_log2}]")
    count = cubes_per_axis(grid, j)
    return [DyadicCube(j, m) for m in product(range(count), repeat=grid.dim)]


def locate(grid: TorusGrid, x, j: int) -> DyadicCube:
    """The unique Q in D_j containing x (half-open convention, wrapped)."""
    if not (-grid.side_log2 <= j <= grid.res_log2):
        raise ValueError(f"level {j} outside grid limits")
    count = cubes_per_axis(grid, j)
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (grid.dim,):
        raise ValueError(f"point shape {pt.shape} != ({grid.dim},)")
    side = 2.0 ** (-j)
    idx = tuple(int(np.floor(c / side)) % count for c in pt)
    return DyadicCube(j, idx)


@dataclass(frozen=True)
class CubeRange:
    """Level window [j_min, j_max]; inhomogeneous restricts band levels to j >= 0 (D_+)."""

    j_min: int
    j_max: int
    inhomogeneous: bool = False

    def __post_init__(self):
        if self.j_min > self.j_max:
            raise ValueError(f"j_min {self.j_min} > j_max {self.j_max}")

    def validate(self, grid: TorusGrid, margin: int = MARGIN) -> "CubeRange":
        if self.j_min < -grid.side_log2:
            raise ValueError(f"j_min {self.j_min} coarser than the torus")
        if self.j_max > grid.res_log2 - margin:
            raise ValueError(
                f"j_max {self.j_max} exceeds grid resolution minus margin ({grid.res_log2 - margin})"
            )
        return self

    def cube_levels(self) -> range:
        """Levels enumerated by outer Bourgain-Morrey norms (all of the window)."""
        return range(self.j_min, self.j_max + 1)

    def band_levels(self) -> range:
        """Levels carrying band/coefficient structure (clipped to j >= 0 when inhomogeneous)."""
        lo = max(self.j_min, 0) if self.inhomogeneous else self.j_min
        return range(lo, self.j_max + 1)

    def widened(self, grid: TorusGrid, margin: int = MARGIN) -> "CubeRange":
        """One extra level on each admissible side, for truncation checks."""
        lo = max(self.j_min - 1, -grid.side_log2)
        hi = min(self.j_max + 1, grid.res_log2 - margin)
        return CubeRange(lo, hi, self.inhomogeneous)


def level_block_view(grid: TorusGrid, values: np.ndarray, j: int) -> np.ndarray:
    """Reshape grid-shaped values so cube blocks at level j are contiguous axes.

    1D -> (ncubes, pts, ...); 2D -> (ncubes, pts, ncubes, pts, ...).  Trailing
    (non-grid) axes are preserved.
    """
    w = 1 << (grid.res_log2 - j)
    return values.reshape((cubes_per_axis(grid, j), w) * grid.dim + values.shape[grid.dim:])


def cube_sums(grid: TorusGrid, values: np.ndarray, j: int) -> np.ndarray:
    """Per-cube sums of a grid-shaped array at level j, cube axes leading."""
    return level_block_view(grid, values, j).sum(axis=tuple(range(1, 2 * grid.dim, 2)))


def parent_sums(sums: np.ndarray, dim: int) -> np.ndarray:
    """Per-cube sums one level coarser, from per-cube sums (cube axes leading,
    trailing axes preserved): each parent cube sums its 2^dim children."""
    c = sums.shape[0] // 2
    return sums.reshape((c, 2) * dim + sums.shape[dim:]).sum(axis=tuple(range(1, 2 * dim, 2)))


def cube_means(grid: TorusGrid, values: np.ndarray, j: int) -> np.ndarray:
    """Per-cube means of a grid-shaped array at level j, cube axes leading."""
    return level_block_view(grid, values, j).mean(axis=tuple(range(1, 2 * grid.dim, 2)))


def spread_to_grid(grid: TorusGrid, per_cube: np.ndarray, j: int) -> np.ndarray:
    """Inverse of cube_sums' indexing: repeat one value per cube over its samples."""
    for axis in range(grid.dim):
        per_cube = np.repeat(per_cube, 1 << (grid.res_log2 - j), axis=axis)
    return per_cube
