"""Cube-indexed coefficient sequences: sparse map DyadicCube -> C^m (absent = zero)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicCube, cubes_per_axis
from .grid import TorusGrid


@dataclass
class CoeffSequence:
    grid: TorusGrid
    entries: dict = field(default_factory=dict)  # DyadicCube -> (channels,) ndarray
    channels: int = 1

    def __post_init__(self):
        clean = {}
        for cube, vec in self.entries.items():
            v = np.asarray(vec)
            if v.shape != (self.channels,):
                raise ValueError(f"coefficient at {cube} has shape {v.shape}, expected ({self.channels},)")
            if not np.all(np.isfinite(v.view(float) if np.iscomplexobj(v) else v)):
                raise ValueError(f"non-finite coefficient at {cube}")
            clean[cube] = v
        self.entries = clean

    def get(self, cube: DyadicCube) -> np.ndarray:
        return self.entries.get(cube, np.zeros(self.channels, dtype=complex))

    def levels(self) -> list:
        return sorted({c.level for c in self.entries})

    def scaled(self, factor) -> "CoeffSequence":
        return CoeffSequence(self.grid, {c: factor * v for c, v in self.entries.items()},
                             self.channels)

    def __add__(self, other: "CoeffSequence") -> "CoeffSequence":
        out = {c: v.copy() for c, v in self.entries.items()}
        for c, v in other.entries.items():
            out[c] = out.get(c, 0.0) + v
        return CoeffSequence(self.grid, out, self.channels)

    def level_array(self, j: int) -> np.ndarray:
        """Dense (count,)*n + (channels,) array of the level-j coefficients."""
        count = cubes_per_axis(self.grid, j)
        arr = np.zeros((count,) * self.grid.dim + (self.channels,), dtype=complex)
        for cube, vec in self.entries.items():
            if cube.level == j:
                arr[cube.index] = vec
        return arr
