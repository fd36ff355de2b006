"""Littlewood-Paley machinery: annulus profiles, dyadic partitions, band filters,
Bessel potentials, and the auxiliary Sobolev / Holder-Zygmund norms.

Profiles are plain functions of rho = |xi| built from the C-infinity bump
exp(-1/(t(1-t))): the analysis profile is 1 on [3/5, 5/3] and supported in
[1/2, 2]; its dual satisfies F(psi) = F(phi) / sum_v |F(phi_v)|^2, which makes
the dyadic reproducing sum identically 1 away from 0.  Level k of either bank
lives on 2^(k-1) < rho < 2^(k+1), so that square sum has two nonzero terms,
and one helper (_dyadic_square_sum) gives the denominator of both banks'
synthesis side.

Cube-paired machinery (norms, phi-transform) associates cube level j with the
profile dilated to the band (2^(j-3), 2^(j-1)): with the cyclic Fourier
convention, that is the widest dyadic band whose cube-corner samples at spacing
2^-j stay alias-free, so analysis followed by synthesis is exact.  The offset
between cube level and profile dilation is BAND_LEVEL_OFFSET.  The pairing
lives only in the banks' analysis and synthesis methods (AdmissiblePair for
homogeneous levels, InhomPartition for levels j >= 0 with a low-pass slot at
0).  band_outputs applies the analysis side level by level for every norm and
the phi-transform; phi synthesis applies the synthesis side to its one
spectral sum.  Both banks are fixed objects, their profiles class-level
functions.  Each band comes back by SpectralField.samples, the one inverse
transform (fields), which applies its 1/h^n.

Band outputs of a real field are real: the function-side norms
(spaces._band_pass) hand band_outputs the half spectrum (rfftn), and each band
comes back by irfftn, about half the FFT work of the full lattice, with no
imaginary rounding noise.  coeff.phi_transform keeps the full complex spectrum
for every field: the imaginary rounding noise of its coefficients is part of
the JSONL coefficient files it feeds, whose bytes perfbench/reference.json pins.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .fields import SampledField, SpectralField, fourier_multiply, to_spectral
from .grid import TorusGrid

#: cube level j pairs with profile argument 2^(BAND_LEVEL_OFFSET - j) * xi
BAND_LEVEL_OFFSET = 2


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _on_support(rho: np.ndarray, fn) -> np.ndarray:
    """fn(rho) where 1/2 < rho < 2 and 0 elsewhere: the annulus profiles vanish
    outside that open interval, so fn is evaluated only inside it."""
    out = np.zeros(np.shape(rho))
    inside = (rho > 0.5) & (rho < 2.0)
    out[inside] = fn(rho[inside])
    return out


def _phi_profile(rho) -> np.ndarray:
    def bump(r):
        return _smooth_step((r - 0.5) / (0.6 - 0.5)) * _smooth_step((2.0 - r) / (2.0 - 5.0 / 3.0))

    return _on_support(np.asarray(rho, dtype=float), bump)


def _dyadic_square_sum(level_at, rho: np.ndarray, k_min: int = None) -> np.ndarray:
    """sum_k level_at(k, rho)^2 for a bank whose level k vanishes off
    2^(k-1) < rho < 2^(k+1); level_at takes an integer array k shaped like rho.

    With k0 = floor(log2 rho), clipped at k_min, only levels k0 and k0 + 1 can be
    nonzero, so the sum is those two squares; every other term is an exact 0.
    rho must be positive unless k_min is given.
    """
    r = rho if k_min is None else np.maximum(rho, 2.0 ** k_min)
    k0 = np.floor(np.log2(r)).astype(int)
    return level_at(k0, rho) ** 2 + level_at(k0 + 1, rho) ** 2


def _over_square_sum(num: np.ndarray, rho: np.ndarray, level_at, k_min: int = None) -> np.ndarray:
    """num / _dyadic_square_sum(level_at, rho, k_min) where num is nonzero, 0
    elsewhere: a synthesis profile from its bank's analysis levels."""
    out = np.zeros_like(num)
    nz = num != 0.0
    out[nz] = num[nz] / _dyadic_square_sum(level_at, rho[nz], k_min)
    return out


class AdmissiblePair:
    """Analysis/synthesis profiles with supp in the annulus [1/2, 2] and
    sum_v conj(phi_v) psi_v = 1 for all xi != 0; psi is phi over its dyadic square sum."""

    phi = staticmethod(_phi_profile)

    @staticmethod
    def psi(rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return _over_square_sum(_phi_profile(rho), rho, lambda v, r: _phi_profile(r * 2.0 ** -v))

    def analysis(self, rho: np.ndarray, j: int) -> np.ndarray:
        """Level-j analysis multiplier: conj-reflected phi on cube level j's band."""
        return np.conj(self.phi(rho * 2.0 ** (BAND_LEVEL_OFFSET - j)))

    def synthesis(self, rho: np.ndarray, j: int) -> np.ndarray:
        """Level-j synthesis multiplier: psi on cube level j's band."""
        return self.psi(rho * 2.0 ** (BAND_LEVEL_OFFSET - j))

    def calderon_sum(self, rho, levels) -> np.ndarray:
        """sum over v in levels of conj(phi(2^-v rho)) * psi(2^-v rho)."""
        rho = np.asarray(rho, dtype=float)
        acc = np.zeros_like(rho)
        for v in levels:
            acc += np.conj(self.phi(rho * 2.0 ** (-v))) * self.psi(rho * 2.0 ** (-v))
        return acc


def make_admissible_pair() -> AdmissiblePair:
    """The admissible pair (its profiles are fixed)."""
    return AdmissiblePair()


class InhomPartition:
    """Dyadic partition of unity: phi0 = 1 on |xi|<=1, supported in |xi|<=2;
    phi_j = phi0(2^-j xi) - phi0(2^-j+1 xi) for j >= 1; sums telescope to 1."""

    @staticmethod
    def phi0(rho) -> np.ndarray:
        return _smooth_step(2.0 - np.asarray(rho, dtype=float))

    def analysis(self, rho: np.ndarray, j: int) -> np.ndarray:
        """Level-j analysis multiplier: phi_j on cube level j's band (j >= 0)."""
        return self.level(j)(rho * 2.0 ** BAND_LEVEL_OFFSET)

    def synthesis(self, rho: np.ndarray, j: int) -> np.ndarray:
        """Level-j synthesis multiplier: the dual, which stays inside phi_j's band
        so comb replicas cannot leak in."""
        return self.dual(j)(rho * 2.0 ** BAND_LEVEL_OFFSET)

    def level(self, j: int):
        """phi_j as a function of rho."""
        if j < 0:
            raise ValueError("partition levels start at 0")
        return lambda rho: self._level_at(j, rho)

    def _level_at(self, k, rho):
        """phi_k(rho) for levels k >= 0, one integer or an integer array shaped like rho."""
        p0 = self.phi0
        return p0(rho * 2.0 ** (-k)) - np.where(k > 0, p0(rho * 2.0 ** (-k + 1)), 0.0)

    def cumulative(self, j: int):
        """sum_{k<=j} phi_k = phi0(2^-j xi), the low-pass through level j."""
        return lambda rho: self.phi0(rho * 2.0 ** (-j))

    def dual(self, j: int):
        """phi_j / sum_k phi_k^2: supported exactly on phi_j's band and summing
        against the partition to 1, the sampling-safe synthesis profile."""
        def fn(rho):
            rho = np.asarray(rho, dtype=float)
            return _over_square_sum(self.level(j)(rho), rho, self._level_at, k_min=0)

        return fn


def make_inhom_partition() -> InhomPartition:
    """The dyadic partition of unity (its low-pass is fixed)."""
    return InhomPartition()


def band_filter(f: SampledField, profile: Callable, j: int) -> SampledField:
    """Spectral multiplication by profile(2^-j |xi|), channelwise."""
    return fourier_multiply(f, profile(f.grid.freq_radius() * 2.0 ** (-j)))


def bank_for(cube_range):
    """The range decides the space, and so the bank: an InhomPartition for an
    inhomogeneous range (levels D_+), an AdmissiblePair for a homogeneous one."""
    return make_inhom_partition() if cube_range.inhomogeneous else make_admissible_pair()


def check_bank(bank, cube_range):
    """ValueError unless bank is of the class bank_for gives the range."""
    want = type(bank_for(cube_range))
    if not isinstance(bank, want):
        kind = "inhomogeneous" if cube_range.inhomogeneous else "homogeneous"
        raise ValueError(f"{kind} ranges need an {want.__name__}, got {type(bank).__name__}")


def band_outputs(F: SpectralField, bank, levels):
    """Yield (j, band_j) for j in levels, one level at a time: the spectrum F times
    bank's level-j analysis multiplier, back on the grid with shape
    grid.shape + (channels,).  Analysis only: phi synthesis sums its levels in
    the spectrum (coeff.phi_synthesis).

    A half spectrum (fields.half_spectrum of a real field) gives real bands: the
    multiplier is evaluated on the half lattice, the radius table cut like the
    spectrum, and each band comes back by irfftn.  That is exact because both
    banks' analysis multipliers are real functions of |xi|, so the product is
    the half of a Hermitian spectrum.  A full spectrum gives complex bands by
    ifftn; coeff.phi_transform takes that path for every field (module docstring).
    """
    rho = F.grid.freq_radius()[tuple(slice(k) for k in F.coeffs.shape[:-1])]
    for j in levels:
        yield j, SpectralField(F.grid, F.coeffs * bank.analysis(rho, j)[..., None],
                               F.half).samples()


def covered_band(range_levels) -> tuple:
    """(lo, hi): |xi| interval on which cube levels range_levels reproduce exactly.

    Cube level j carries the band 2^(j - BAND_LEVEL_OFFSET) * [1/2, 2]; the
    truncated reproducing sum is exactly 1 on [2^(jmin - off), 2^(jmax - off)].
    """
    levels = list(range_levels)
    off = BAND_LEVEL_OFFSET
    return (2.0 ** (min(levels) - off), 2.0 ** (max(levels) - off))


def check_admissible(pair: AdmissiblePair, grid: TorusGrid, levels) -> dict:
    """Support, lower-bound, and reproducing-sum diagnostics on the lattice."""
    rho = grid.freq_radius().ravel()
    report = {}
    for name, prof in (("phi", pair.phi), ("psi", pair.psi)):
        vals = prof(rho)
        outside = (rho < 0.5 - 1e-12) | (rho > 2.0 + 1e-12)
        report[f"{name}_support_leak"] = float(np.max(np.abs(vals[outside]), initial=0.0))
        inner = (rho >= 0.6) & (rho <= 5.0 / 3.0)
        report[f"{name}_inner_min"] = float(np.min(vals[inner])) if np.any(inner) else float("nan")
    levels = list(levels)
    lo, hi = 2.0 ** min(levels), 2.0 ** max(levels)
    covered = (rho >= lo) & (rho <= hi)
    if np.any(covered):
        s = pair.calderon_sum(rho[covered], levels)
        report["calderon_max_err"] = float(np.max(np.abs(s - 1.0)))
    else:
        report["calderon_max_err"] = 0.0
    return report


def bessel_potential(f: SampledField, gamma: float) -> SampledField:
    """Spectral multiplication by (1+|xi|^2)^(-gamma/2)."""
    return fourier_multiply(f, (1.0 + f.grid.freq_radius() ** 2) ** (-gamma / 2.0))


def h2_sobolev_norm(g: SampledField, s: float) -> float:
    """(sum_xi (1+|xi|^2)^s |F g(xi)|^2 / L^n)^(1/2) for a scalar field."""
    return h2_profile_norm(g.grid, to_spectral(g).coeffs[..., 0], s)


def h2_profile_norm(grid: TorusGrid, profile_vals: np.ndarray, s: float) -> float:
    """h2_sobolev_norm of the field whose Fourier coefficients are profile_vals."""
    w = (1.0 + grid.freq_radius() ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(profile_vals) ** 2) / grid.side ** grid.dim))


def holder_zygmund_norm(g: SampledField, ell: float) -> float:
    """sup_j 2^(j*ell) * max_x |phi_j(D) g| with the (literal) dyadic partition over j <= K + J,
    the highest level whose ring [2^(j-1), 2^(j+1)] meets the lattice."""
    vals = g.scalar()
    partition = make_inhom_partition()
    grid = g.grid
    G = np.fft.fftn(vals)
    rho = grid.freq_radius()
    best = 0.0
    for j in range(0, grid.side_log2 + grid.res_log2 + 1):
        mult = partition.level(j)(rho)
        if not np.any(mult):
            continue
        block = np.fft.ifftn(G * mult)
        best = max(best, 2.0 ** (j * ell) * float(np.max(np.abs(block))))
    return best
