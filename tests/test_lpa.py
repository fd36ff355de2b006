import numpy as np
import pytest

from bmtl.dyadic import CubeRange
from bmtl.fields import SampledField, half_spectrum, l2_norm, scalar_field, to_spectral
from bmtl.grid import TorusGrid
from bmtl.lpa import (BAND_LEVEL_OFFSET, AdmissiblePair, InhomPartition, band_filter,
                      band_outputs, bank_for, bessel_potential, check_admissible,
                      check_bank, covered_band, h2_profile_norm,
                      h2_sobolev_norm, holder_zygmund_norm,
                      make_admissible_pair, make_inhom_partition)


@pytest.fixture(scope="module")
def pair():
    return make_admissible_pair()


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 2, 8)


def test_phi_support_and_plateau(pair):
    rho = np.linspace(0, 3, 3001)
    vals = pair.phi(rho)
    assert np.all(np.abs(vals[(rho < 0.5) | (rho > 2.0)]) <= 1e-14)
    inner = (rho >= 0.6) & (rho <= 5.0 / 3.0)
    assert np.min(vals[inner]) >= 0.1
    assert pair.phi(np.array([0.4]))[0] == 0.0


def test_psi_is_admissible_too(pair):
    rho = np.linspace(0, 3, 3001)
    vals = pair.psi(rho)
    assert np.all(np.abs(vals[(rho < 0.5) | (rho > 2.0)]) <= 1e-14)
    inner = (rho >= 0.6) & (rho <= 5.0 / 3.0)
    assert np.min(vals[inner]) >= 0.1


def test_calderon_identity_on_lattice(pair, grid):
    report = check_admissible(pair, grid, range(-2, 6))
    assert report["calderon_max_err"] <= 1e-10
    assert report["phi_support_leak"] <= 1e-14


def test_partition_sums_to_one(grid):
    part = make_inhom_partition()
    rho = grid.freq_radius().ravel()
    j_cut = 6
    total = sum(part.level(j)(rho) for j in range(j_cut + 1))
    covered = rho <= 2.0 ** (j_cut - 1)
    assert np.max(np.abs(total[covered] - 1.0)) <= 1e-12


def test_partition_tilde_identity(grid):
    # phi~_j = phi_(j-1) + phi_j + phi_(j+1) is 1 on phi_j's support
    part = make_inhom_partition()
    rho = grid.freq_radius().ravel()
    for j in range(0, 5):
        pj = part.level(j)(rho)
        ptil = sum(part.level(k)(rho) for k in range(max(j - 1, 0), j + 2))
        assert np.max(np.abs(pj * ptil - pj)) <= 1e-12


def _all_level_dual(part, j, rho):
    """phi_j / sum_k phi_k^2 with the square sum taken over every level up to two
    past the one holding max(rho): the direct form of the partition's dual."""
    square_sum = part.level(0)(rho) ** 2
    k_max = int(np.ceil(np.log2(np.max(rho) + 1e-300))) + 2 if np.max(rho) > 1 else 1
    for k in range(1, max(k_max, 1) + 1):
        square_sum = square_sum + part.level(k)(rho) ** 2
    num = part.level(j)(rho)
    out = np.zeros_like(num)
    nz = num != 0.0
    out[nz] = num[nz] / square_sum[nz]
    return out


@pytest.mark.parametrize("lattice", [TorusGrid(1, 2, 10), TorusGrid(2, 1, 5)],
                         ids=["1d4096", "2d64"])
def test_partition_dual_matches_all_level_sum(lattice):
    # the dual's denominator sums only the two levels that can be nonzero at each
    # rho; the other levels add exact zeros, so the bits match the direct form
    part = make_inhom_partition()
    rho = lattice.freq_radius()
    for j in range(0, lattice.res_log2 + 3):
        assert np.array_equal(part.dual(j)(rho), _all_level_dual(part, j, rho)), j
        banded = rho * 2.0 ** BAND_LEVEL_OFFSET
        assert np.array_equal(part.synthesis(rho, j), _all_level_dual(part, j, banded)), j


def test_band_filter_kills_offband_harmonic(pair, grid):
    x = grid.coords()[0]
    f = SampledField(grid, np.exp(2j * np.pi * 8.0 * x)[..., None])  # |xi| = 8
    out = band_filter(f, pair.phi, 0)  # band [1/2, 2]
    assert np.max(np.abs(out.values)) < 1e-12


def test_band_filter_support_exact(pair, grid):
    rng = np.random.default_rng(0)
    f = SampledField(grid, rng.standard_normal(grid.shape + (1,)))
    out = to_spectral(band_filter(f, pair.phi, 3))
    rho = grid.freq_radius()
    outside = (rho < 4.0 - 1e-12) | (rho > 16.0 + 1e-12)
    assert np.max(np.abs(out.coeffs[outside, :])) <= 1e-10


def test_band_filter_linear(pair, grid):
    rng = np.random.default_rng(1)
    f = SampledField(grid, rng.standard_normal(grid.shape + (2,)))
    g = SampledField(grid, rng.standard_normal(grid.shape + (2,)))
    lhs = band_filter(SampledField(grid, 2.0 * f.values - 3.0 * g.values), pair.phi, 1)
    rhs = 2.0 * band_filter(f, pair.phi, 1).values - 3.0 * band_filter(g, pair.phi, 1).values
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_partition_reproduces_bandlimited(grid):
    part = make_inhom_partition()
    rng = np.random.default_rng(2)
    spec = np.zeros(grid.shape, dtype=complex)
    rho = grid.freq_radius()
    mask = rho <= 8.0
    spec[mask] = rng.standard_normal(int(mask.sum()))
    f = SampledField(grid, np.fft.ifft(spec)[..., None])
    total = np.zeros_like(f.values)
    for j in range(0, 7):
        total = total + band_filter(f, part.level(j), 0).values
    assert np.max(np.abs(total - f.values)) <= 1e-10 * np.max(np.abs(f.values))


def test_covered_band_matches_offset():
    levels = range(-1, 7)
    lo, hi = covered_band(levels)
    assert lo == 2.0 ** (-1 - BAND_LEVEL_OFFSET)
    assert hi == 2.0 ** (6 - BAND_LEVEL_OFFSET)


def test_bessel_identity_and_inverse(grid):
    rng = np.random.default_rng(3)
    f = SampledField(grid, rng.standard_normal(grid.shape + (2,)))
    same = bessel_potential(f, 0.0)
    assert np.max(np.abs(same.values - f.values)) <= 1e-13
    round_trip = bessel_potential(bessel_potential(f, 1.5), -1.5)
    assert np.max(np.abs(round_trip.values - f.values)) <= 1e-10 * np.max(np.abs(f.values))


def test_bessel_harmonic_scaling(grid):
    x = grid.coords()[0]
    xi0 = 2.0
    f = SampledField(grid, np.exp(2j * np.pi * xi0 * x)[..., None])
    out = bessel_potential(f, 1.0)
    expect = (1.0 + xi0 ** 2) ** (-0.5) * f.values
    assert np.max(np.abs(out.values - expect)) <= 1e-12


def test_h2_norm_is_l2_at_zero(grid):
    rng = np.random.default_rng(4)
    f = scalar_field(grid, rng.standard_normal(grid.shape))
    assert h2_sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-10)


def test_h2_single_harmonic(grid):
    amp = 0.7
    xi0 = 3.0 / grid.side
    f = scalar_field(grid, amp * np.exp(2j * np.pi * xi0 * grid.coords()[0]))
    expect = (1.0 + xi0 ** 2) * grid.side ** 0.5 * amp
    assert h2_sobolev_norm(f, 2.0) == pytest.approx(expect, rel=1e-10)


def test_h2_monotone_in_s(grid):
    rng = np.random.default_rng(5)
    spec = np.zeros(grid.shape, dtype=complex)
    rho = grid.freq_radius()
    mask = (rho >= 1.0) & (rho <= 16.0)
    spec[mask] = rng.standard_normal(int(mask.sum()))
    f = scalar_field(grid, np.fft.ifft(spec))
    vals = [h2_sobolev_norm(f, s) for s in (0.0, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_holder_zygmund_constant_from_level_zero(grid):
    f = scalar_field(grid, np.full(grid.shape, 2.5))
    for ell in (0.5, 1.0):
        assert holder_zygmund_norm(f, ell) == pytest.approx(2.5, rel=1e-10)


def test_holder_zygmund_harmonic(grid):
    amp, j0 = 0.8, 4
    f = scalar_field(grid, amp * np.cos(2 * np.pi * (2.0 ** j0) * grid.coords()[0] / 1.0))
    ell = 1.3
    val = holder_zygmund_norm(f, ell)
    target = 2.0 ** (j0 * ell) * amp
    assert target / 3.0 <= val <= 3.0 * target


def test_holder_zygmund_homogeneous(grid):
    rng = np.random.default_rng(6)
    f = scalar_field(grid, rng.standard_normal(grid.shape))
    one = holder_zygmund_norm(f, 0.7)
    two = holder_zygmund_norm(scalar_field(grid, 2.0 * f.scalar()), 0.7)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_multiplier_norm_hook_uniform(pair, grid):
    # profile of phi_j(2^j .) is j-independent, so its H2 norm is one number
    vals = pair.phi(grid.freq_radius())
    ref = h2_profile_norm(grid, vals, 2.0)
    for j in (-2, 0, 3):
        again = h2_profile_norm(grid, pair.phi(grid.freq_radius()), 2.0)
        assert again == pytest.approx(ref, rel=1e-12)


def _whole_grid_pair():
    """phi and psi of make_admissible_pair() evaluated on every rho, the form
    that the support-restricted profiles must reproduce bit for bit."""
    from bmtl.lpa import _smooth_step

    def phi(rho):
        return (_smooth_step((rho - 0.5) / (0.6 - 0.5))
                * _smooth_step((2.0 - rho) / (2.0 - 5.0 / 3.0)))

    def psi(rho):
        den = np.zeros_like(rho)
        pos = rho > 0
        v0 = np.floor(np.log2(rho[pos])).astype(int)
        acc = np.zeros(v0.shape)
        for dv in (-1, 0, 1, 2):
            acc += phi(rho[pos] * 2.0 ** (-(v0 + dv))) ** 2
        den[pos] = acc
        num = phi(rho)
        out = np.zeros_like(rho)
        nz = num != 0.0
        out[nz] = num[nz] / den[nz]
        return out

    return phi, psi


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 10), TorusGrid(2, 2, 6)])
def test_profiles_on_support_match_whole_grid_forms(pair, grid):
    phi, psi = _whole_grid_pair()
    rho = grid.freq_radius()
    for v in range(-4, grid.res_log2 + 2):
        r = rho * 2.0 ** (-v)
        assert np.array_equal(pair.phi(r), phi(r)), v
        assert np.array_equal(pair.psi(r), psi(r)), v


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 6), TorusGrid(2, 1, 4)])
def test_half_spectrum_bands_match_full(grid):
    """A real field's bands from the half spectrum are real arrays within 1e-15
    of the largest entry of the full path's real part, level by level; a
    complex field's bands, and a real field's from the full spectrum (the
    phi-transform path), are the full path's bit for bit."""
    rng = np.random.default_rng(7)
    f = SampledField(grid, rng.standard_normal(grid.shape + (2,)))
    fc = SampledField(grid, f.values + 1j * rng.standard_normal(grid.shape + (2,)))
    axes = tuple(range(grid.dim))
    rho = grid.freq_radius()

    def full_path(field, bank, j):
        spec = to_spectral(field).coeffs * bank.analysis(rho, j)[..., None]
        return np.fft.ifftn(spec, axes=axes) * (1.0 / grid.cell_measure)

    # every level whose band meets the lattice (radii 2^-side_log2 .. sqrt(dim) N / 2L)
    banks = ((make_admissible_pair(), range(-grid.side_log2, grid.res_log2 + 4)),
             (make_inhom_partition(), range(0, grid.res_log2 + 4)))
    nonzero = 0
    for bank, levels in banks:
        for j, band in band_outputs(half_spectrum(f), bank, levels):
            ref = full_path(f, bank, j).real
            assert band.shape == f.values.shape and not np.iscomplexobj(band), j
            assert np.max(np.abs(band - ref)) <= 1e-15 * np.max(np.abs(ref)), j
            nonzero += bool(np.any(ref))
        for field in (fc, f):
            for j, band in band_outputs(to_spectral(field), bank, levels):
                assert np.array_equal(band, full_path(field, bank, j)), j
    assert nonzero >= 12


def test_bank_for_is_what_check_bank_wants():
    # the one range -> bank map: each kind of range gets its bank and refuses the other's
    hom, inh = CubeRange(-2, 4), CubeRange(-2, 4, inhomogeneous=True)
    assert type(bank_for(hom)) is AdmissiblePair
    assert type(bank_for(inh)) is InhomPartition
    for r, other, msg in ((hom, inh, "homogeneous ranges need an AdmissiblePair, "
                                     "got InhomPartition"),
                          (inh, hom, "inhomogeneous ranges need an InhomPartition, "
                                     "got AdmissiblePair")):
        check_bank(bank_for(r), r)
        with pytest.raises(ValueError) as info:
            check_bank(bank_for(other), r)
        assert str(info.value) == msg
