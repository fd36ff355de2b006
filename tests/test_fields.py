import numpy as np
import pytest

from bmtl.dyadic import DyadicCube
from bmtl.fields import (SampledField, SpectralField, fourier_multiply, from_spectral,
                         half_spectrum, l2_norm, quad_integral, scalar_field,
                         spectral_derivative, spectral_l2_norm, to_spectral)
from bmtl.grid import TorusGrid


def grid1d(K=2, J=8):
    return TorusGrid(1, K, J)


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 6), TorusGrid(2, 1, 4)])
def test_radius_is_torus_dist_to_origin(grid):
    pts = np.stack([c.ravel() for c in grid.coords()], axis=-1)
    want = [grid.torus_dist(x, np.zeros(grid.dim)) for x in pts]
    got = grid.radius()
    assert got.shape == grid.shape
    np.testing.assert_array_equal(got.ravel(), want)


def test_roundtrip_identity():
    g = grid1d()
    rng = np.random.default_rng(0)
    f = SampledField(g, rng.standard_normal(g.shape + (3,)))
    back = from_spectral(to_spectral(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))


def test_zero_field_zero_coeffs():
    g = grid1d()
    F = to_spectral(SampledField(g, np.zeros(g.shape + (2,))))
    assert np.all(F.coeffs == 0)


def test_lattice_harmonic_single_coefficient():
    # Riemann sum of exp(2 pi i (xi0 - xi) x) collapses to L^n at xi = xi0
    g = grid1d()
    xi0 = 3.0 / g.side
    f = SampledField(g, np.exp(2j * np.pi * xi0 * g.coords()[0])[..., None])
    F = to_spectral(f)
    k = int(np.argmin(np.abs(g.axis_freqs() - xi0)))
    assert abs(F.coeffs[k, 0] - g.side) < 1e-10
    rest = np.delete(F.coeffs[:, 0], k)
    assert np.max(np.abs(rest)) < 1e-10


def test_real_field_hermitian_coeffs():
    g = grid1d()
    rng = np.random.default_rng(1)
    F = to_spectral(SampledField(g, rng.standard_normal(g.shape + (1,))))
    N = g.points_per_axis
    flipped = F.coeffs[(-np.arange(N)) % N]
    assert np.max(np.abs(F.coeffs - np.conj(flipped))) < 1e-10


@pytest.mark.parametrize("dim,K,J", [(1, 2, 8), (2, 1, 4)])
def test_parseval_random_fields(dim, K, J):
    g = TorusGrid(dim, K, J)
    rng = np.random.default_rng(2)
    for _ in range(100 if dim == 1 else 20):
        f = SampledField(g, rng.standard_normal(g.shape + (2,)))
        a, b = l2_norm(f), spectral_l2_norm(to_spectral(f))
        assert abs(a - b) <= 1e-10 * a


def test_translation_phase():
    g = grid1d()
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape + (1,))
    shift = 5
    F = to_spectral(SampledField(g, vals))
    Fs = to_spectral(SampledField(g, np.roll(vals, shift, axis=0)))
    phase = np.exp(-2j * np.pi * (shift * g.spacing) * g.axis_freqs())
    assert np.max(np.abs(Fs.coeffs - F.coeffs * phase[:, None])) < 1e-12 * np.max(np.abs(F.coeffs))


def test_nonfinite_rejected():
    g = grid1d()
    vals = np.zeros(g.shape + (1,))
    vals[0, 0] = np.inf
    with pytest.raises(ValueError):
        SampledField(g, vals)


def test_quad_constant_measures_torus():
    g = TorusGrid(1, 2, 6)
    assert quad_integral(scalar_field(g, np.ones(g.shape))) == pytest.approx(4.0)


def test_quad_indicator_unit_interval():
    g = TorusGrid(1, 2, 8)
    x = g.coords()[0]
    val = quad_integral(scalar_field(g, (x < 1.0).astype(float)))
    assert abs(val - 1.0) <= g.spacing


def test_quad_over_cube():
    g = TorusGrid(1, 2, 6)
    x = g.coords()[0]
    cube = DyadicCube(0, (1,))  # [1, 2)
    val = quad_integral(scalar_field(g, x), region=cube)
    # midpoint rule of x over [1,2): exact sum = h * sum(x_k) = 1.5 - h/2
    assert val == pytest.approx(1.5 - g.spacing / 2.0)


def test_region_finer_than_grid_rejected():
    g = TorusGrid(1, 2, 2)
    with pytest.raises(ValueError):
        quad_integral(scalar_field(g, np.ones(g.shape)), region=DyadicCube(3, (0,)))


def test_spectral_derivative_harmonic():
    g = grid1d()
    x = g.coords()[0]
    xi0 = 2.0 / g.side
    f = SampledField(g, np.sin(2 * np.pi * xi0 * x)[..., None])
    df = spectral_derivative(f, (1,))
    expect = 2 * np.pi * xi0 * np.cos(2 * np.pi * xi0 * x)
    assert np.max(np.abs(df.values[..., 0] - expect)) < 1e-10


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 6), TorusGrid(2, 1, 4)])
@pytest.mark.parametrize("complex_f", [False, True])
@pytest.mark.parametrize("complex_mult", [False, True])
def test_fourier_multiply_matches_spectral_round_trip(grid, complex_f, complex_mult):
    # oracle: the to_spectral -> from_spectral(SpectralField(...)) form, bit for bit;
    # the result is real exactly when the field and the multiplier are
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(grid.shape + (2,))
    if complex_f:
        vals = vals + 1j * rng.standard_normal(grid.shape + (2,))
    f = SampledField(grid, vals)
    mult = np.cos(3.0 * grid.freq_radius())
    if complex_mult:
        mult = mult * np.exp(1j * grid.freqs()[0])
    out = fourier_multiply(f, mult)
    direct = from_spectral(SpectralField(grid, to_spectral(f).coeffs * mult[..., None])).values
    if not (complex_f or complex_mult):
        direct = direct.real
    assert out.values.dtype == direct.dtype
    assert out.values.tobytes() == direct.tobytes()


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 6), TorusGrid(2, 1, 4)])
def test_fourier_multiply_keeps_odd_multipliers_complex(grid):
    """sign(xi_1) is real but odd, so a real field's output is complex (its
    imaginary part carries most of it); an even multiplier keeps a real output."""
    rng = np.random.default_rng(5)
    f = SampledField(grid, rng.standard_normal(grid.shape + (2,)))
    mult = np.sign(grid.freqs()[0])
    out = fourier_multiply(f, mult).values
    direct = from_spectral(SpectralField(grid, to_spectral(f).coeffs * mult[..., None])).values
    assert np.iscomplexobj(out)
    assert out.tobytes() == direct.tobytes()
    assert np.max(np.abs(out.imag)) > 0.5 * np.max(np.abs(out))
    even = fourier_multiply(f, np.abs(mult)).values
    assert not np.iscomplexobj(even)


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 6), TorusGrid(2, 1, 4)])
def test_half_spectrum_round_trip(grid):
    rng = np.random.default_rng(6)
    f = SampledField(grid, rng.standard_normal(grid.shape + (2,)))
    F = half_spectrum(f)
    N = grid.points_per_axis
    assert F.half and F.coeffs.shape == grid.shape[:-1] + (N // 2 + 1, 2)
    full = to_spectral(f).coeffs[..., :N // 2 + 1, :]
    assert np.max(np.abs(F.coeffs - full)) <= 1e-13 * np.max(np.abs(full))
    back = from_spectral(F).values
    assert not np.iscomplexobj(back)
    assert np.max(np.abs(back - f.values)) <= 1e-14 * np.max(np.abs(f.values))
    with pytest.raises(ValueError):
        half_spectrum(SampledField(grid, f.values + 0j))
    with pytest.raises(ValueError):
        SpectralField(grid, to_spectral(f).coeffs, half=True)
