"""Discrete side of the analysis: phi-transform analysis/synthesis, almost-diagonal
operators on cube-indexed sequences, molecule condition measurement, and the
atomic rearrangement of wavelet expansions.

Coefficients for cube level j are corner samples of the level-j band output
(lpa.band_outputs with the bank's analysis multiplier): s_Q = |Q|^(1/2) *
(conj-reflected analysis filter applied to f)(x_Q).  Synthesis is one
spectral sum: each level's coefficient comb spectrum (the level array's DFT,
tiled) times the bank's synthesis multiplier, then one inverse FFT.  With the
alias-safe band pairing, synthesis after analysis is the identity on fields
whose spectrum lies in the covered annuli.

An almost-diagonal operator {b_QP} is stored as dense level-pair blocks
{(jQ, jP): array of shape (nQ, nP)}, where nQ and nP count the cubes of levels
jQ and jP and both axes follow the row-major cube order of
CoeffSequence.level_array(j).reshape(-1, channels); applying it is one matrix
product per block.  ad_weight evaluates omega_QP for a single cube pair.

Atoms are child-level arrays: atom_rearrange moves the generator-i wavelet
coefficient of Q onto a slice of the child level's array, Q's i-th child, whose
atom is const * psi_Q^(i).  By linearity sum_P t_P a_P is then the wavelet
synthesis of the coefficients moved back to their parents, so atom_synthesis
builds no atom; atom_field builds one, for measure_atom_params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .coeffseq import CoeffSequence
from .dyadic import CubeRange, DyadicCube, cubes_per_axis
from .fields import (SampledField, SpectralField, from_spectral, multi_indices,
                     spectral_derivative, to_spectral)
from .grid import TorusGrid
from .lpa import band_outputs, check_bank


def _corner_view(grid: TorusGrid, values: np.ndarray, j: int) -> np.ndarray:
    return values[(slice(None, None, 1 << (grid.res_log2 - j)),) * grid.dim]


def phi_level(grid: TorusGrid, j: int, band: np.ndarray) -> np.ndarray:
    """The level-j coefficients from the level-j analysis band output:
    s_Q = |Q|^(1/2) band(x_Q), one entry per cube, cube axes leading."""
    return _corner_view(grid, band, j) * 2.0 ** (-j * grid.dim / 2.0)


def phi_transform(f: SampledField, bank, cube_range: CubeRange) -> CoeffSequence:
    """s_Q = |Q|^(1/2) (analysis band at Q's level)(x_Q).

    bank is an AdmissiblePair (homogeneous, conj-reflected phi) or an
    InhomPartition for an inhomogeneous range, whose level-0 slot carries the
    low-pass part; check_bank holds it to the range.
    """
    grid = f.grid
    cube_range.validate(grid)
    check_bank(bank, cube_range)
    arrays = {j: phi_level(grid, j, band)
              for j, band in band_outputs(to_spectral(f), bank, cube_range.band_levels())}
    return CoeffSequence(grid, arrays, f.channels)


def phi_synthesis(coeffs: CoeffSequence, bank, levels=None) -> SampledField:
    """sum_Q s_Q psi_Q over the given levels (default: the stored ones), as one
    spectral sum and one inverse FFT.

    The level-j comb sum_Q s_Q |Q|^(-1/2) delta_(x_Q) (a grid delta is h^(-n) at
    its sample) has stride s = 2^(J-j) on each axis, so its DFT is the small
    level array's DFT tiled s times per axis: bin k holds entry k mod M (M cubes
    per axis).  Each level's comb spectrum times bank.synthesis at j adds into
    one grid spectrum, on the multiplier's support (a delta's h^(-n) cancels the
    DFT's h^n).
    """
    grid, ch = coeffs.grid, coeffs.channels
    n = grid.dim
    axes = tuple(range(n))
    rho = grid.freq_radius()
    total = np.zeros(grid.shape + (ch,), dtype=complex)
    flat = total.reshape(-1, ch)
    for j in coeffs.levels() if levels is None else levels:
        comb = np.fft.fftn(coeffs.level_array(j) * 2.0 ** (-j * n / 2.0), axes=axes)
        mult = bank.synthesis(rho, j).ravel()
        bins = np.flatnonzero(mult)          # the multiplier's support
        tiled = tuple(k % comb.shape[0] for k in np.unravel_index(bins, grid.shape))
        flat[bins] += mult[bins, None] * comb[tiled]
    return from_spectral(SpectralField(grid, total))


# ---------------------------------------------------------------------------
# almost-diagonal machinery


@dataclass
class ADProfile:
    """Parameters of the almost-diagonal decay profile omega_QP."""

    s: float
    p: float
    q: float
    epsilon: float
    d: float = 0.0
    d_tilde: float = 0.0
    delta_cap: float = 0.0

    def __post_init__(self):
        for name in ("s", "d", "d_tilde", "delta_cap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("p", "q", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def J(self) -> float:
        return min(1.0, self.q, self.p)


def _omega_arrays(grid: TorusGrid, sideQ: float, sideP: float, dist: np.ndarray,
                  prof: ADProfile, variant: str) -> np.ndarray:
    n = grid.dim
    J = prof.J
    eps = prof.epsilon
    if variant == "plain":
        up_exp = (n + eps) / 2.0 + n / J - n
        down_exp = (n + eps) / 2.0
        pen_exp = n / J + eps
    elif variant == "weighted":
        from .weights import dtilde_over_pprime
        up_exp = (n + eps) / 2.0 + n / J - n + dtilde_over_pprime(prof.d_tilde, prof.p)
        down_exp = (n + eps) / 2.0 + prof.d / prof.p
        pen_exp = n / J + eps + prof.delta_cap
    else:
        raise ValueError(f"variant must be 'plain' or 'weighted', got {variant!r}")
    ratio = sideQ / sideP
    rise = min(ratio ** (-up_exp), ratio ** down_exp)  # min over the two branches
    penalty = (1.0 + dist / max(sideQ, sideP)) ** (-pen_exp)
    return ratio ** prof.s * rise * penalty


def ad_weight(grid: TorusGrid, Q: DyadicCube, P: DyadicCube, prof: ADProfile,
              variant: str = "plain") -> float:
    """The decay weight omega_QP with torus distance between cube corners."""
    dist = grid.torus_dist(Q.corner, P.corner)
    return float(_omega_arrays(grid, Q.side, P.side, np.asarray(dist), prof, variant))


def _level_corners(grid: TorusGrid, j: int) -> np.ndarray:
    """(ncubes, n) corners of the level-j cubes, in the row-major order of
    CoeffSequence.level_array(j)."""
    index = np.indices((cubes_per_axis(grid, j),) * grid.dim).reshape(grid.dim, -1).T
    return 2.0 ** (-j) * index.astype(float)


def ad_enumerate(grid: TorusGrid, cube_range: CubeRange, prof: ADProfile,
                 variant: str = "plain", drop_tol: float = 1e-12) -> tuple:
    """The kept omega_QP as dense level-pair blocks, plus the dropped mass.

    Returns ({(jQ, jP): omega * (omega >= drop_tol)}, dropped).  Block (jQ, jP)
    has shape (nQ, nP): row a is the a-th level-jQ cube and column b the b-th
    level-jP cube, both in the row-major order of
    CoeffSequence.level_array(j).reshape(-1, channels).  The profile's distance
    decay makes the operator banded; entries below the threshold are stored as 0
    and their total omega mass is returned for audit.
    """
    levels = cube_range.band_levels()
    corners = {j: _level_corners(grid, j) for j in levels}
    blocks = {}
    dropped = 0.0
    for jQ in levels:
        for jP in levels:
            dist = grid.torus_dist(corners[jQ][:, None, :], corners[jP][None, :, :])
            om = _omega_arrays(grid, 2.0 ** (-jQ), 2.0 ** (-jP), dist, prof, variant)
            keep = om >= drop_tol
            dropped += float(np.sum(om[~keep]))
            blocks[(jQ, jP)] = om * keep
    return blocks, dropped


def ad_random_operator(grid: TorusGrid, cube_range: CubeRange, prof: ADProfile,
                       variant: str = "plain", seed: int = 0,
                       drop_tol: float = 1e-12) -> dict:
    """Random entries dominated by omega_QP: b_QP = u * omega_QP, u ~ U[-1, 1].

    The blocks of ad_enumerate, each nonzero scaled in place.  The u are drawn
    in one batch: level pairs in order, then row-major within each block.
    """
    blocks, _ = ad_enumerate(grid, cube_range, prof, variant, drop_tol)
    kept = [b != 0.0 for b in blocks.values()]
    counts = [int(np.count_nonzero(nz)) for nz in kept]
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=sum(counts))
    for b, nz, part in zip(blocks.values(), kept, np.split(u, np.cumsum(counts)[:-1])):
        b[nz] *= part
    return blocks


def ad_apply(entries: dict, coeffs: CoeffSequence) -> CoeffSequence:
    """t_Q = sum_P b_QP s_P, per component: one product per level-pair block of
    entries (the layout of ad_enumerate) whose source level jP is stored."""
    grid, ch = coeffs.grid, coeffs.channels
    out = {}
    for (jQ, jP), block in entries.items():
        if jP in coeffs.arrays:
            out[jQ] = out.get(jQ, 0.0) + block @ coeffs.arrays[jP].reshape(-1, ch)
    return CoeffSequence(grid, {j: t.reshape((cubes_per_axis(grid, j),) * grid.dim + (ch,))
                                for j, t in out.items()}, ch)


# ---------------------------------------------------------------------------
# molecules and atoms


@dataclass
class MoleculeParams:
    N: int
    K: int
    M: float
    delta: float = 1.0
    epsilon: float = 0.01

    def __post_init__(self):
        if self.M <= 0 or not (0.0 < self.delta <= 1.0):
            raise ValueError("need M > 0 and delta in (0, 1]")


@dataclass
class AtomParams:
    """Measured atom data.  wrapped: the support reaches the antipode of the cube
    corner along some axis, so b and L, taken in wrapped coordinates about the
    corner, mean nothing."""

    b: float
    L: int
    N: int
    derivative_consts: dict = None
    wrapped: bool = False


def _centered_coords(grid: TorusGrid, center: np.ndarray) -> list:
    return [grid.wrap_delta(c - mu) for c, mu in zip(grid.coords(), center)]


def _moment(f: SampledField, rel: list, gamma) -> float:
    """|int x^gamma f(x) dx| of a scalar field by midpoint quadrature, x in the
    centered coordinates rel."""
    mono = np.ones(f.grid.shape)
    for r, g in zip(rel, gamma):
        mono = mono * r ** g
    return float(abs(np.sum(mono * f.scalar()) * f.grid.cell_measure))


def molecule_check(family: dict, params: MoleculeParams, eps: float = 1e-8) -> dict:
    """Measure the molecule conditions for each cube -> field in the family.

    Returns per-condition summary constants: the moment maximum (checked against
    eps), and the smallest envelope constants supporting the decay, derivative,
    and Lipschitz bounds on the grid.  The Lipschitz bound is sampled: 256 point
    pairs per derivative, drawn from one generator seeded with 17.
    """
    report = {"m1_max": 0.0, "m2_const": 0.0, "m3_const": 0.0, "m4_const": 0.0,
              "m1_pass": True, "cubes": len(family)}
    if not family:
        return report
    rng = np.random.default_rng(17)
    for cube, fld in family.items():
        grid = fld.grid
        vals = fld.scalar()
        rel = _centered_coords(grid, cube.corner)
        dist = np.sqrt(sum(r * r for r in rel))
        ell = cube.side
        for gamma in multi_indices(grid.dim, params.N):
            report["m1_max"] = max(report["m1_max"], _moment(fld, rel, gamma))
        m2_exp = max(params.M, params.N + 1 + grid.dim + params.epsilon)
        env2 = (1.0 + dist / ell) ** (-m2_exp)
        report["m2_const"] = max(report["m2_const"],
                                 float(np.max(np.abs(vals) * cube.measure ** 0.5 / env2)))
        envM = (1.0 + dist / ell) ** (-params.M)
        for gamma in multi_indices(grid.dim, params.K)[1:]:     # the first is gamma = 0
            dv = spectral_derivative(fld, gamma).scalar()
            scale = cube.measure ** (0.5 + sum(gamma) / grid.dim)
            report["m3_const"] = max(report["m3_const"],
                                     float(np.max(np.abs(dv) * scale / envM)))
        for gamma in [g for g in multi_indices(grid.dim, params.K) if sum(g) == params.K]:
            dv = spectral_derivative(fld, gamma).scalar().ravel()
            flat_dist = dist.ravel()
            npts = dv.size
            xi = rng.integers(npts, size=256)
            yi = rng.integers(npts, size=256)
            coords = np.stack([c.ravel() for c in grid.coords()], axis=-1)
            sep = grid.torus_dist(coords[xi], coords[yi])
            ok = sep > 0
            xi, yi, sep = xi[ok], yi[ok], sep[ok]
            # sup over |z| <= |x-y| of the shifted envelope
            best_dist = np.maximum(flat_dist[xi] - sep, 0.0)
            env = (1.0 + best_dist / ell) ** (-params.M)
            scale = cube.measure ** (0.5 + params.K / grid.dim + params.delta / grid.dim)
            ratio = np.abs(dv[xi] - dv[yi]) * scale / (sep ** params.delta * env)
            if ratio.size:
                report["m4_const"] = max(report["m4_const"], float(np.max(ratio)))
    report["m1_pass"] = report["m1_max"] <= eps
    return report


def measure_atom_params(atom: SampledField, cube: DyadicCube, L_max: int = 3,
                        N_max: int = 2) -> AtomParams:
    """Measured (b, L, N) data of one atom: support factor relative to the cube,
    the largest vanishing-moment order whose moments are at most 1e-8 times the
    atom's max |value|, and derivative sup constants scaled by l(Q)^(|gamma| + n/2);
    flagged wrapped when the support reaches the antipode of the corner."""
    grid = atom.grid
    vals = atom.scalar()
    rel = _centered_coords(grid, cube.corner)
    dist = np.sqrt(sum(r * r for r in rel))
    nz = np.abs(vals) > 1e-12 * max(float(np.max(np.abs(vals))), 1e-300)
    b = float(np.max(dist[nz]) / cube.side) if np.any(nz) else 0.0
    # the antipodal sample of each axis is the only one past half a spacing short of L/2
    antipode = np.logical_or.reduce([np.abs(r) > (grid.side - grid.spacing) / 2.0 for r in rel])
    wrapped = bool(np.any(nz & antipode))
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    L = -1
    for order in range(L_max + 1):
        moments = [_moment(atom, rel, g) for g in multi_indices(grid.dim, order) if sum(g) == order]
        if max(moments) <= 1e-8 * scale:
            L = order
        else:
            break
    consts = {}
    for gamma in multi_indices(grid.dim, N_max):
        dv = spectral_derivative(atom, gamma).scalar()
        consts[gamma] = float(np.max(np.abs(dv)) * cube.side ** (sum(gamma) + grid.dim / 2.0))
    return AtomParams(b=b, L=L, N=N_max, derivative_consts=consts, wrapped=wrapped)


def _child_slices(dim: int) -> list:
    """Slices of a child-level array holding the i-th children (i = 1..2^n - 1)."""
    return [tuple(slice(o, None, 2) for o in offs)
            for offs in product(range(2), repeat=dim)][:-1]


def atom_rearrange(coeffs: dict, cube_range: CubeRange, const: float = 1.0) -> CoeffSequence:
    """Reindex generator-i wavelet coefficients of Q onto Q's i-th child.

    Returns the child-level sequence t: child i of Q carries the atom
    const * psi_Q^(i) (atom_field) with coefficient t = coeff / const, and the
    2^n-th child carries the zero atom with coefficient 0.  The approximation
    part (generator 0) stays on its own cubes; atom_synthesis takes it as is.
    """
    grid = coeffs[0].grid
    channels = coeffs[0].channels
    arrays = {}
    for i, sl in enumerate(_child_slices(grid.dim), 1):
        for j, arr in coeffs[i].arrays.items():
            if not np.any(arr):
                continue
            if j + 1 > min(grid.res_log2, cube_range.j_max + 1):
                raise ValueError(f"children of level-{j} cubes, at level {j + 1}, leave the "
                                 f"grid (<= {grid.res_log2}) or the range window "
                                 f"(<= {cube_range.j_max + 1})")
            child = arrays.setdefault(j + 1, np.zeros((2 * arr.shape[0],) * grid.dim
                                                      + (channels,), dtype=complex))
            child[sl] = arr / const
    return CoeffSequence(grid, arrays, channels)


def atom_field(grid: TorusGrid, db_order: int, cube: DyadicCube,
               const: float = 1.0) -> SampledField:
    """The atom const * psi_P^(i) that atom_rearrange puts on cube, i being the
    cube's position among its parent P's children; the 2^n-th child's atom is 0."""
    from .wavelets import wavelet_basis_field
    cube.validate(grid)
    position = int(np.ravel_multi_index(tuple(k % 2 for k in cube.index), (2,) * grid.dim))
    if position == 2 ** grid.dim - 1:
        return SampledField(grid, np.zeros(grid.shape + (1,)))
    parent = cube.parent()
    psi = wavelet_basis_field(grid, db_order, position + 1, parent, parent.level)
    return SampledField(grid, const * psi.values)


def atom_synthesis(coeffs: CoeffSequence, approx: CoeffSequence, db_order: int,
                   const: float = 1.0) -> SampledField:
    """sum_P t_P a_P over the child-level coefficients of atom_rearrange, plus the
    approximation part.

    By linearity the sum is one wavelet synthesis: each child level's i-th
    children, times const, are the level-below generator-i coefficients.
    """
    from .wavelets import wavelet_synthesize
    grid = coeffs.grid
    gens = {i: CoeffSequence(grid, {j - 1: const * arr[sl] for j, arr in coeffs.arrays.items()},
                             coeffs.channels)
            for i, sl in enumerate(_child_slices(grid.dim), 1)}
    return wavelet_synthesize({0: approx, **gens}, db_order)
