import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmtl.dyadic import (CubeRange, DyadicCube, cube_sums, cubes_at_level, dilated_windows,
                         locate, spread_to_grid)
from bmtl.grid import TorusGrid


def test_counts_1d():
    g = TorusGrid(1, 2, 6)
    assert len(cubes_at_level(g, 0)) == 4
    assert all(c.side == 1.0 for c in cubes_at_level(g, 0))


def test_counts_2d():
    g = TorusGrid(2, 0, 3)
    cubes = cubes_at_level(g, 1)
    assert len(cubes) == 4
    assert all(c.side == 0.5 for c in cubes)


def test_level_partitions_torus():
    g = TorusGrid(1, 2, 5)
    for j in (-2, 0, 2):
        seen = np.zeros(g.shape, dtype=int)
        for c in cubes_at_level(g, j):
            seen[c.grid_slices(g)] += 1
        assert np.all(seen == 1)


def test_locate_origin_and_boundary():
    g = TorusGrid(1, 2, 5)
    assert locate(g, [0.0], 0).index == (0,)
    # interior boundary point belongs to the cube whose closed-left edge holds it
    assert locate(g, [1.0], 0).index == (1,)
    assert locate(g, [0.999], 0).index == (0,)


def test_locate_nesting_parent():
    g = TorusGrid(1, 2, 6)
    x = [2.3]
    assert locate(g, x, 2).parent() == locate(g, x, 1)


def test_children_tile_parent():
    g = TorusGrid(2, 1, 4)
    parent = DyadicCube(0, (1, 0))
    seen = np.zeros(g.shape, dtype=int)
    for child in parent.children():
        seen[child.grid_slices(g)] += 1
    inside = np.zeros(g.shape, dtype=int)
    inside[parent.grid_slices(g)] = 1
    assert np.array_equal(seen, inside)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=3.999), j=st.integers(-2, 3))
def test_locate_monotone_in_level(x, j):
    g = TorusGrid(1, 2, 5)
    coarse = locate(g, [x], j)
    fine = locate(g, [x], j + 1)
    assert fine.parent() == coarse


def test_cube_measure_and_center():
    c = DyadicCube(2, (3,))
    assert c.side == 0.25
    assert c.measure == 0.25
    assert np.allclose(c.corner, [0.75])
    assert np.allclose(c.center, [0.875])


def test_validation_limits():
    g = TorusGrid(1, 2, 4)
    with pytest.raises(ValueError):
        DyadicCube(-3, (0,)).validate(g)
    with pytest.raises(ValueError):
        DyadicCube(5, (0,)).validate(g)
    with pytest.raises(ValueError):
        DyadicCube(0, (4,)).validate(g)
    with pytest.raises(ValueError):
        cubes_at_level(g, 9)


def test_cube_range_levels_and_widening():
    g = TorusGrid(1, 2, 6)
    r = CubeRange(-1, 3)
    assert list(r.cube_levels()) == [-1, 0, 1, 2, 3]
    assert list(r.band_levels()) == [-1, 0, 1, 2, 3]
    ri = CubeRange(-1, 3, inhomogeneous=True)
    assert list(ri.band_levels()) == [0, 1, 2, 3]
    assert list(ri.cube_levels()) == [-1, 0, 1, 2, 3]
    wide = r.widened(g)
    assert (wide.j_min, wide.j_max) == (-2, 4)
    with pytest.raises(ValueError):
        CubeRange(2, 1)
    with pytest.raises(ValueError):
        CubeRange(-1, 6).validate(g)  # margin 2

def test_cube_sums_match_slices():
    g = TorusGrid(2, 1, 3)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(g.shape)
    sums = cube_sums(g, vals, 1)
    for c in cubes_at_level(g, 1):
        assert sums[c.index] == pytest.approx(vals[c.grid_slices(g)].sum())


def test_spread_inverse_of_indexing():
    g = TorusGrid(1, 1, 4)
    per_cube = np.arange(4.0)
    full = spread_to_grid(g, per_cube, 1)
    for c in cubes_at_level(g, 1):
        assert np.all(full[c.grid_slices(g)] == per_cube[c.index[0]])


def test_dilated_indices_wrap():
    g = TorusGrid(1, 2, 4)
    c = DyadicCube(0, (0,))   # [0,1): 2Q = [-0.5, 1.5) wraps
    idx = dilated_windows(g, 0, 2.0)[c.index[0]]
    coords = idx * g.spacing
    assert idx.size == 2 * c.points_per_axis(g)
    assert np.any(coords >= 3.5) and np.any(coords < 1.5)
    # every row: the sorted samples of the concentric interval, wrapped; a
    # window as wide as the torus holds every sample once
    N = g.points_per_axis
    for j in range(-2, 4):
        for factor in (1.0, 2.0, 4.0, 8.0):
            win = dilated_windows(g, j, factor)
            w = 1 << (g.res_log2 - j)
            for i, row in enumerate(win):
                centre = i * w + w / 2.0
                want = np.arange(N) if factor * w >= N else np.unique(
                    np.arange(int(centre - factor * w / 2), int(centre + factor * w / 2)) % N)
                np.testing.assert_array_equal(row, want)
