"""Cube-indexed coefficient sequences, stored as one dense array per level.

A sequence holds {level j: array of shape (count,)*n + (channels,)}, where
count = 2^(j+K) cubes per axis and array positions are DyadicCube indices.
Absent means zero: a level that is not stored reads as zero, and a stored
level holds every one of its cubes, zeros included.  DyadicCube keys appear
only at the edge: the cube-keyed constructor input, ``get`` and the read-only
``entries`` view.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicCube, cubes_per_axis
from .grid import TorusGrid


class CoeffEntries(Mapping):
    """Read-only DyadicCube -> (channels,) view of the stored levels, in
    (level, index) order."""

    def __init__(self, arrays: dict):
        self._arrays = arrays

    def __getitem__(self, cube: DyadicCube) -> np.ndarray:
        arr = self._arrays.get(cube.level)
        if arr is None or len(cube.index) != arr.ndim - 1 \
                or not all(0 <= i < c for i, c in zip(cube.index, arr.shape)):
            raise KeyError(cube)
        return arr[cube.index]

    def __iter__(self):
        for j, arr in self._arrays.items():
            for k in np.ndindex(arr.shape[:-1]):
                yield DyadicCube(j, k)

    def __len__(self) -> int:
        return sum(arr.size // arr.shape[-1] for arr in self._arrays.values())


@dataclass(eq=False)
class CoeffSequence:
    """arrays: {level: (count,)*n + (channels,) array}, or {DyadicCube: (channels,)
    vector}, which stores each given cube's level whole, zero where not given."""

    grid: TorusGrid
    arrays: dict = field(default_factory=dict)
    channels: int = 1

    def __post_init__(self):
        given = self.arrays
        if any(isinstance(key, DyadicCube) for key in given):
            given = self._levels_from_cubes(given)
        lo, hi = -self.grid.side_log2, self.grid.res_log2
        arrays = {}
        for j in sorted(given):
            if not lo <= j <= hi:
                raise ValueError(f"cube level must lie in [{lo}, {hi}], got {j}")
            arr = np.array(given[j], dtype=complex)
            if arr.shape != self._shape(j):
                raise ValueError(f"level {j} array has shape {arr.shape}, expected {self._shape(j)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite coefficient at level {j}")
            arr.flags.writeable = False
            arrays[j] = arr
        self.arrays = arrays

    def _shape(self, j: int) -> tuple:
        return (cubes_per_axis(self.grid, j),) * self.grid.dim + (self.channels,)

    def _levels_from_cubes(self, entries: dict) -> dict:
        """{level: array} from {DyadicCube: vector}; every key and vector is checked
        before any level is allocated."""
        for cube, vec in entries.items():
            cube.validate(self.grid)
            if np.shape(vec) != (self.channels,):
                raise ValueError(f"coefficient at {cube} has shape {np.shape(vec)}, "
                                 f"expected ({self.channels},)")
        levels = {j: np.zeros(self._shape(j), dtype=complex) for j in {c.level for c in entries}}
        for cube, vec in entries.items():
            levels[cube.level][cube.index] = vec
        return levels

    @property
    def entries(self) -> CoeffEntries:
        return CoeffEntries(self.arrays)

    def get(self, cube: DyadicCube) -> np.ndarray:
        return self.entries.get(cube, np.zeros(self.channels, dtype=complex))

    def levels(self) -> list:
        return list(self.arrays)

    def scaled(self, factor) -> "CoeffSequence":
        return CoeffSequence(self.grid, {j: factor * a for j, a in self.arrays.items()},
                             self.channels)

    def level_array(self, j: int) -> np.ndarray:
        """Read-only (count,)*n + (channels,) array of the level-j coefficients."""
        arr = self.arrays.get(j)
        return np.zeros(self._shape(j), dtype=complex) if arr is None else arr
