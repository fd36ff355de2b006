"""Discrete side of the analysis: phi-transform analysis/synthesis, almost-diagonal
operators on cube-indexed sequences, molecule condition measurement, and the
atomic rearrangement of wavelet expansions.

Coefficients for cube level j are corner samples of the level-j band output
(lpa.band_outputs with the bank's analysis multiplier): s_Q = |Q|^(1/2) *
(conj-reflected analysis filter applied to f)(x_Q).  Synthesis runs each
level's coefficient comb through the bank's synthesis multiplier.  With the
alias-safe band pairing, synthesis after analysis is the identity on fields
whose spectrum lies in the covered annuli.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .coeffseq import CoeffSequence
from .dyadic import CubeRange, DyadicCube, cubes_at_level
from .fields import SampledField, spectral_derivative, to_spectral
from .grid import TorusGrid
from .lpa import band_outputs


def _corner_view(grid: TorusGrid, values: np.ndarray, j: int) -> np.ndarray:
    return values[(slice(None, None, 1 << (grid.res_log2 - j)),) * grid.dim]


def check_phi_range(grid: TorusGrid, bank, cube_range: CubeRange):
    """The range fits the grid, and a partition bank comes with an inhomogeneous range."""
    cube_range.validate(grid)
    if not (bank.homogeneous or cube_range.inhomogeneous):
        raise ValueError("partition banks go with inhomogeneous ranges")


def phi_level(grid: TorusGrid, j: int, band: np.ndarray) -> np.ndarray:
    """The level-j coefficients from the level-j analysis band output:
    s_Q = |Q|^(1/2) band(x_Q), one entry per cube, cube axes leading."""
    return _corner_view(grid, band, j) * 2.0 ** (-j * grid.dim / 2.0)


def phi_transform(f: SampledField, bank, cube_range: CubeRange) -> CoeffSequence:
    """s_Q = |Q|^(1/2) (analysis band at Q's level)(x_Q).

    bank is an AdmissiblePair (homogeneous, conj-reflected phi) or an
    InhomPartition for an inhomogeneous range, whose level-0 slot carries the
    low-pass part.
    """
    grid = f.grid
    check_phi_range(grid, bank, cube_range)
    arrays = {j: phi_level(grid, j, band)
              for j, band in band_outputs(to_spectral(f), bank, cube_range.band_levels())}
    return CoeffSequence(grid, arrays, f.channels)


def _comb_spectrum(coeffs: CoeffSequence, j: int):
    """Spectrum of sum_Q s_Q |Q|^(-1/2) delta_(x_Q) over the level-j cubes."""
    grid = coeffs.grid
    comb = np.zeros(grid.shape + (coeffs.channels,), dtype=complex)
    scale = 2.0 ** (-j * grid.dim / 2.0) / grid.cell_measure
    _corner_view(grid, comb, j)[...] = coeffs.level_array(j) * scale
    return to_spectral(SampledField(grid, comb))


def phi_synthesis(coeffs: CoeffSequence, bank, levels=None) -> SampledField:
    """sum_Q s_Q psi_Q, realized per level as a spectral product with the comb of coefficients."""
    if levels is None:
        levels = coeffs.levels()
    acc = np.zeros(coeffs.grid.shape + (coeffs.channels,), dtype=complex)
    for _, piece in band_outputs(lambda j: _comb_spectrum(coeffs, j), bank, levels,
                                 synthesis=True):
        acc += piece
    return SampledField(coeffs.grid, acc)


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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

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


def ad_enumerate(grid: TorusGrid, cube_range: CubeRange, prof: ADProfile,
                 variant: str = "plain", drop_tol: float = 1e-12) -> tuple:
    """All (Q, P, omega_QP) with omega_QP >= drop_tol, plus the dropped mass.

    The profile's distance decay makes the operator banded; entries below the
    threshold are discarded and their total omega mass is returned for audit.
    """
    levels = cube_range.band_levels()
    cubes = {j: cubes_at_level(grid, j) for j in levels}
    corners = {j: np.array([c.corner for c in cubes[j]]) for j in levels}
    kept = {}
    dropped = 0.0
    for jQ in levels:
        for jP in levels:
            diff = grid.wrap_delta(corners[jQ][:, None, :] - corners[jP][None, :, :])
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            om = _omega_arrays(grid, 2.0 ** (-jQ), 2.0 ** (-jP), dist, prof, variant)
            keep = om >= drop_tol
            dropped += float(np.sum(om[~keep]))
            for a, b in zip(*np.nonzero(keep)):
                kept[(cubes[jQ][a], cubes[jP][b])] = float(om[a, b])
    return kept, dropped


def ad_random_operator(grid: TorusGrid, cube_range: CubeRange, prof: ADProfile,
                       variant: str = "plain", seed: int = 0,
                       drop_tol: float = 1e-12) -> dict:
    """Random entries dominated by omega_QP: b_QP = u * omega_QP, u ~ U[-1, 1]."""
    weights, _ = ad_enumerate(grid, cube_range, prof, variant, drop_tol)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=len(weights))
    return {qp: float(c) * w for (qp, w), c in zip(weights.items(), u)}


def ad_apply(entries: dict, coeffs: CoeffSequence) -> CoeffSequence:
    """t_Q = sum_P b_QP s_P, per component."""
    source = {P: s for P, s in coeffs.entries.items() if s.any()}   # zeros add nothing
    out = {}
    for (Q, P), b in entries.items():
        s = source.get(P)
        if s is not None:
            out[Q] = out.get(Q, 0.0) + b * s
    return CoeffSequence(coeffs.grid, out, coeffs.channels)


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
    b: float
    L: int
    N: int
    derivative_consts: dict = None


def _multi_indices(n: int, order: int) -> list:
    return [g for g in product(range(order + 1), repeat=n) if sum(g) <= order]


def _centered_coords(grid: TorusGrid, center: np.ndarray) -> list:
    return [grid.wrap_delta(c - mu) for c, mu in zip(grid.coords(), center)]


def molecule_check(family: dict, params: MoleculeParams, eps: float = 1e-8,
                   pair_samples: int = 256, seed: int = 17) -> dict:
    """Measure the molecule conditions for each cube -> field in the family.

    Returns per-condition summary constants: the moment maximum (checked against
    eps), and the smallest envelope constants supporting the decay, derivative,
    and Lipschitz bounds on the grid.
    """
    report = {"m1_max": 0.0, "m2_const": 0.0, "m3_const": 0.0, "m4_const": 0.0,
              "m1_pass": True, "cubes": len(family)}
    if not family:
        return report
    rng = np.random.default_rng(seed)
    for cube, fld in family.items():
        grid = fld.grid
        vals = fld.scalar()
        rel = _centered_coords(grid, cube.corner)
        dist = np.sqrt(sum(r * r for r in rel))
        ell = cube.side
        if params.N >= 0:
            for gamma in _multi_indices(grid.dim, params.N):
                mono = np.ones(grid.shape)
                for r, g in zip(rel, gamma):
                    mono = mono * r ** g
                mom = abs(np.sum(mono * vals) * grid.cell_measure)
                report["m1_max"] = max(report["m1_max"], float(mom))
        m2_exp = max(params.M, params.N + 1 + grid.dim + params.epsilon)
        env2 = (1.0 + dist / ell) ** (-m2_exp)
        report["m2_const"] = max(report["m2_const"],
                                 float(np.max(np.abs(vals) * cube.measure ** 0.5 / env2)))
        if params.K >= 0:
            envM = (1.0 + dist / ell) ** (-params.M)
            for gamma in _multi_indices(grid.dim, params.K):
                if sum(gamma) == 0:
                    continue
                dv = spectral_derivative(fld, gamma).scalar()
                scale = cube.measure ** (0.5 + sum(gamma) / grid.dim)
                report["m3_const"] = max(report["m3_const"],
                                         float(np.max(np.abs(dv) * scale / envM)))
            for gamma in [g for g in _multi_indices(grid.dim, params.K) if sum(g) == params.K]:
                dv = spectral_derivative(fld, gamma).scalar().ravel()
                flat_dist = dist.ravel()
                npts = dv.size
                xi = rng.integers(npts, size=pair_samples)
                yi = rng.integers(npts, size=pair_samples)
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


class AtomDictionary:
    """Lazy cube -> SampledField map of rearranged wavelet atoms (built on access)."""

    def __init__(self, grid: TorusGrid, db_order: int, j_min: int, sources: dict):
        self.grid = grid
        self.db_order = db_order
        self.j_min = j_min
        self.sources = sources  # child cube -> (generator, parent cube) or None

    def __contains__(self, cube):
        return cube in self.sources

    def __len__(self):
        return len(self.sources)

    def keys(self):
        return self.sources.keys()

    def __getitem__(self, cube) -> SampledField:
        from .wavelets import wavelet_basis_field
        src = self.sources[cube]
        if src is None:
            return SampledField(self.grid, np.zeros(self.grid.shape + (1,)))
        gen, parent = src
        return wavelet_basis_field(self.grid, self.db_order, gen, parent, self.j_min)


def measure_atom_params(atom: SampledField, cube: DyadicCube, L_max: int = 3,
                        N_max: int = 2, tol: float = 1e-8) -> AtomParams:
    """Measured (b, L, N) data of one atom: support factor relative to the cube,
    the largest vanishing-moment order below tol, and derivative sup constants
    scaled by l(Q)^(|gamma| + n/2)."""
    grid = atom.grid
    vals = atom.scalar()
    rel = _centered_coords(grid, cube.corner)
    dist = np.sqrt(sum(r * r for r in rel))
    nz = np.abs(vals) > 1e-12 * max(float(np.max(np.abs(vals))), 1e-300)
    b = float(np.max(dist[nz]) / cube.side) if np.any(nz) else 0.0
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    L = -1
    for order in range(L_max + 1):
        moments = []
        for gamma in _multi_indices(grid.dim, order):
            if sum(gamma) != order:
                continue
            mono = np.ones(grid.shape)
            for r, g in zip(rel, gamma):
                mono = mono * r ** g
            moments.append(abs(np.sum(mono * vals) * grid.cell_measure))
        if max(moments) <= tol * scale:
            L = order
        else:
            break
    consts = {}
    for gamma in _multi_indices(grid.dim, N_max):
        dv = spectral_derivative(atom, gamma).scalar()
        consts[gamma] = float(np.max(np.abs(dv)) * cube.side ** (sum(gamma) + grid.dim / 2.0))
    return AtomParams(b=b, L=L, N=N_max, derivative_consts=consts)


def atom_rearrange(coeffs: dict, db_order: int, cube_range: CubeRange,
                   const: float = 1.0) -> tuple:
    """Reindex generator-i wavelet coefficients of Q onto Q's i-th child.

    Child i of Q carries the atom const * psi_Q^(i) with coefficient
    coeff / const; the 2^n-th child carries the zero atom.  Only nonzero
    coefficients get an atom.  The approximation part (generator 0) is left on
    its own cubes unchanged so synthesis is reproduced exactly.
    """
    grid = coeffs[0].grid
    channels = coeffs[0].channels
    n_det = 2 ** grid.dim - 1
    child_offsets = list(product(range(2), repeat=grid.dim))  # DyadicCube.children order
    arrays = {}
    sources = {}
    for i in range(1, n_det + 1):
        for j in coeffs[i].levels():
            arr = coeffs[i].level_array(j)
            nonzero = [DyadicCube(j, k) for k in np.argwhere(np.any(arr != 0, axis=-1))]
            if not nonzero:
                continue
            if j + 1 > grid.res_log2:
                raise ValueError(f"child level of {nonzero[0]} overflows the grid")
            if j + 1 > cube_range.j_max + 1:
                raise ValueError(f"child of {nonzero[0]} leaves the range window")
            child = arrays.setdefault(j + 1, np.zeros((2 * arr.shape[0],) * grid.dim
                                                      + (channels,), dtype=complex))
            child[tuple(slice(o, None, 2) for o in child_offsets[i - 1])] = arr / const
            for cube in nonzero:
                sources[cube.children()[i - 1]] = (i, cube)
    j_min = min(coeffs[0].levels(), default=cube_range.j_min)
    atoms = AtomDictionary(grid, db_order, j_min, sources)
    return atoms, CoeffSequence(grid, arrays, channels)


def atom_synthesis(atoms: AtomDictionary, coeffs: CoeffSequence, approx: CoeffSequence,
                   db_order: int, const: float = 1.0) -> SampledField:
    """sum_P t_P a_P over the given atoms plus the untouched approximation part."""
    from .wavelets import empty_coeffs, wavelet_synthesize
    grid = coeffs.grid
    acc = np.zeros(grid.shape + (coeffs.channels,), dtype=complex)
    for cube in atoms.keys():
        a = atoms[cube].scalar()
        acc += const * a[..., None] * coeffs.get(cube)
    base = empty_coeffs(grid, coeffs.channels)
    base[0] = approx
    acc += wavelet_synthesize(base, db_order).values
    return SampledField(grid, acc)
