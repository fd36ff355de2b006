"""Record the outputs of the operator, molecule and weight routines, and compare
two records bit for bit.

    python3 tools/operator_outputs.py dump --src SRC_DIR --out FILE.pkl
    python3 tools/operator_outputs.py compare OLD.pkl NEW.pkl [--allow PREFIX=REL ...]

`dump` imports `bmtl` from SRC_DIR (the `src` directory of a checkout) and runs a
fixed set of seeded calls on 1D N = 64, 128 and 2D 8^2, 16^2:
  - `hormander_seminorm` for alpha, beta <= 2 and `czs_seminorm` for alpha <= 2,
    on a smooth, a random complex and a constant symbol, a complex Fourier
    multiplier (`multiplier_symbol`) and a two-level `elementary_symbol`, at three
    (m, delta, ell);
  - `psdo_apply` of each of these symbols to one real 2-channel field, under keys
    that start with `psdo:`;
  - `paradecompose` with `kernel_weighted_mass` of every piece, and
    `cz_kernel_check` at L = 1 and 2;
  - `molecule_check`, `measure_atom_params`, `hilbert_riesz_apply` (every Riesz
    component in 2D) and `diagnose`;
  - the other callers of `operator_norms` at p = 0.8 and 1.5, on the oscillating
    weight's reducing family over levels [-1, 1]: `strong_doubling_constant`,
    `waq_integrability` and `aqw_sup`, under keys that start with `sdc:`,
    `waq:` and `aqw:`;
  - `analysis(rho, j)` and `synthesis(rho, j)` of the admissible pair and of the
    dyadic partition on the frequency lattice, at every level j whose analysis
    multiplier is nonzero somewhere on it;
  - `MatrixWeight.power(t)` of every `weight_gallery` weight with 1 and 2
    channels, at t = 1/p, -1/p, 2/p, 0.5 and 1 for p = 0.8 and 1.5, under keys
    that start with `power:`;
  - the values of every `weight_gallery` weight with 1 and 2 channels, under keys
    that start with `weight:`;
  - the level arrays of `reducing_operators(..., method="ellipsoid-fit")` over
    levels [-1, 1] at p = 0.8 and 1.5, for every `weight_gallery` weight with 2
    channels and one seeded 3-channel weight, under keys that start with `reduce:`;
  - the fields of `function_gallery` (2 channels, two of each kind), under keys
    that start with `gallery:`.
On 1D N = 256 and 2D 32^2, for one real and one complex 2-channel
`band_limited_noise` field with the oscillating weight, it also records the
value and the `per_level` array of `tl_norm` (pointwise and cubewise),
`peetre_norm`, `lusin_norm`, `glambda_norm` (q = 1.5 and 2), the inhomogeneous
`tl_norm` and `approx_norm`, the four values of `harness.four_norms`, and
`phi_transform`'s level arrays for both banks.  Their keys start with
`norm:real:`, `norm:complex:`, `phi:real:` and `phi:complex:`, so that
`--allow norm:real:=REL` covers the real-field norms and nothing else.
On 1D N = 64 and 2D 16^2, for one real and one complex 2-channel field, it
records every generator's level arrays of `wavelet_analyze` down to the torus
level and the `wavelet_synthesize` output, for db2, db6 and db10, under keys
that start with `wavelet:`.
It also records `operator_norms` of fixed seeded batches of 1 x 1, 2 x 2 and
3 x 3 matrices, under keys that start with `opnorm:`: standard normal entries
(`:unit`), and the same scaled per matrix by 2^-600 to 2^600 (`:wide`), so
that many 2 x 2 matrices lie outside the squared form's range.  As `compare`
measures a difference against the largest magnitude, `:wide` shows only the
largest matrices' changes and `:unit` shows the changes of matrices of size 1.
Each output is one scalar or one array, keyed by routine, grid and case.

`compare` counts the outputs that are bit-identical. An output that differs is
allowed when its key starts with a PREFIX given to --allow and its largest
difference is at most REL times its largest magnitude. It exits 1 when any other
output differs or a key is missing on one side.
"""

from __future__ import annotations

import argparse
import pickle
import sys

import numpy as np

#: (m, delta, ell) of the symbol classes
CLASSES = ((0.0, 0.0, 1.0), (0.5, 0.25, 0.8), (-1.0, 1.0, 1.5))


def _grids(TorusGrid):
    return {"1d64": TorusGrid(1, 2, 4), "1d128": TorusGrid(1, 2, 5),
            "2d8": TorusGrid(2, 1, 2), "2d16": TorusGrid(2, 1, 3)}


def _symbols(ops, grid, rng):
    from bmtl.fields import scalar_field
    from bmtl.lpa import make_inhom_partition

    def smooth(xs, xis):
        r2 = sum(xi * xi for xi in xis)
        a = 1.0 + 0.4 * np.cos(2 * np.pi * xs[0] / grid.side)
        b = np.sin(2 * np.pi * xs[-1] / grid.side)
        return a * (1.0 + r2) ** 0.25 + 0.3j * b * np.exp(-r2 / 8.0)

    noise = rng.standard_normal(grid.shape * 2) + 1j * rng.standard_normal(grid.shape * 2)
    rho = grid.freq_radius()
    wave = np.cos(2 * np.pi * grid.coords()[0] / grid.side)
    levels = [scalar_field(grid, 2.0 ** (0.5 * j) * (1.0 + 0.3j * wave)) for j in (1, 2)]
    return {"smooth": ops.tabulate_symbol(grid, smooth),
            "random": ops.SymbolGrid(grid, noise),
            "constant": ops.multiplier_symbol(grid, np.full(grid.shape, 1.5)),
            "multiplier": ops.multiplier_symbol(
                grid, (1.0 + rho ** 2) ** 0.25 * np.exp(0.5j * grid.freqs()[0])),
            "elementary": ops.elementary_symbol(levels, make_inhom_partition().level(1), grid)}


def _cz_kernel(grid):
    """The Hilbert kernel 1/(pi x) in 1D, the first Riesz kernel x_1/|x|^3 in 2D."""
    rel = [grid.wrap_delta(c) for c in grid.coords()]
    r = np.sqrt(sum(c * c for c in rel))
    vals = np.zeros(grid.shape)
    nz = r > 0
    vals[nz] = rel[0][nz] / (np.pi * r[nz] ** (grid.dim + 1))
    return vals


def _norms(out: dict):
    """The function-side norms and the phi-transform level arrays (module docstring)."""
    import warnings

    from bmtl.coeff import phi_transform
    from bmtl.dyadic import CubeRange
    from bmtl.fields import SampledField
    from bmtl.grid import TorusGrid
    from bmtl.harness import band_limited_noise, four_norms
    from bmtl.lpa import make_admissible_pair, make_inhom_partition
    from bmtl.spaces import (CubewiseWeighting, PointwiseWeighting, SpaceParams, approx_norm,
                             glambda_norm, lusin_norm, peetre_norm, tl_norm)
    from bmtl.weights import oscillating_weight, reducing_operators

    pair, part = make_admissible_pair(), make_inhom_partition()
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    sp_q2 = SpaceParams(0.5, 1.5, 2.0, 2.0, np.inf)
    sp_inh = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    sp_app = SpaceParams(3.0, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    cases = (("1d256", TorusGrid(1, 2, 6), 2, 4, 4.0), ("2d32", TorusGrid(2, 1, 4), 1, 2, 2.0))
    for gname, grid, depth, j_max, hi in cases:
        hom = CubeRange(-depth, j_max)
        inh = CubeRange(-depth, j_max, inhomogeneous=True)
        rng = np.random.default_rng(20251017)
        real = band_limited_noise(grid, 2, 0.5, hi, rng)
        imag = band_limited_noise(grid, 2, 0.5, hi, rng)
        cplx = SampledField(grid, real.values + 1j * imag.values)
        W = oscillating_weight(grid)
        pw = PointwiseWeighting(W, sp.p)
        cw = CubewiseWeighting(reducing_operators(W, sp.p, hom))
        for kind, f in (("real", real), ("complex", cplx)):
            tag = f"{kind}:{gname}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reps = {"tl_W": tl_norm(f, pw, sp, pair, hom),
                        "tl_AQ": tl_norm(f, cw, sp, pair, hom),
                        "peetre": peetre_norm(f, pw, sp, 4.0, pair, hom),
                        "lusin": lusin_norm(f, pw, sp, pair, hom),
                        "glambda_q1.5": glambda_norm(f, pw, sp, 3.0, pair, hom),
                        "glambda_q2": glambda_norm(f, pw, sp_q2, 3.0, pair, hom),
                        "tl_inh": tl_norm(f, pw, sp_inh, part, inh),
                        "approx": approx_norm(f, pw, sp_app, part, inh)}
            for name, rep in reps.items():
                out[f"norm:{tag}:{name}:value"] = rep.value
                out[f"norm:{tag}:{name}:per_level"] = np.array(sorted(rep.per_level.items()))
            for name, v in sorted(four_norms(f, W, sp, pair, hom).items()):
                out[f"norm:{tag}:four_norms:{name}"] = v
            for bname, bank, cube_range in (("pair", pair, hom), ("partition", part, inh)):
                seq = phi_transform(f, bank, cube_range)
                for j in seq.levels():
                    out[f"phi:{tag}:{bname}:{j}"] = seq.level_array(j)


def _wavelets(out: dict):
    """The wavelet pyramids' level arrays and their synthesis (module docstring)."""
    from bmtl.dyadic import CubeRange
    from bmtl.fields import SampledField
    from bmtl.grid import TorusGrid
    from bmtl.wavelets import wavelet_analyze, wavelet_synthesize

    for gname, grid in (("1d64", TorusGrid(1, 2, 4)), ("2d16", TorusGrid(2, 1, 3))):
        rng = np.random.default_rng(20251017)
        real = rng.standard_normal(grid.shape + (2,))
        fields = {"real": real, "complex": real + 1j * rng.standard_normal(grid.shape + (2,))}
        for kind, values in fields.items():
            f = SampledField(grid, values)
            for db in (2, 6, 10):
                tag = f"wavelet:{kind}:{gname}:db{db}"
                coeffs = wavelet_analyze(f, db, CubeRange(-grid.side_log2, grid.res_log2 - 1))
                for i, seq in coeffs.items():
                    for j in seq.levels():
                        out[f"{tag}:gen{i}:{j}"] = seq.level_array(j)
                out[f"{tag}:synthesis"] = wavelet_synthesize(coeffs, db).values


def dump(src: str) -> dict:
    sys.path.insert(0, src)
    from bmtl import operators as ops
    from bmtl.coeff import MoleculeParams, atom_field, measure_atom_params, molecule_check
    from bmtl.dyadic import CubeRange, DyadicCube
    from bmtl.fields import scalar_field
    from bmtl.grid import TorusGrid
    from bmtl.harness import band_limited_noise, function_gallery
    from bmtl.lpa import make_admissible_pair, make_inhom_partition
    from bmtl.weights import (MatrixWeight, aqw_sup, diagnose, operator_norms,
                              oscillating_weight, reducing_operators, strong_doubling_constant,
                              waq_integrability, weight_gallery)

    out = {}
    for gname, grid in _grids(TorusGrid).items():
        rng = np.random.default_rng(20251017)
        syms = _symbols(ops, grid, rng)
        fpsdo = band_limited_noise(grid, 2, 0.5, 4.0, np.random.default_rng(7))
        for sname, sym in syms.items():
            out[f"psdo:{gname}:{sname}"] = ops.psdo_apply(sym, fpsdo).values
            for c, (m, delta, ell) in enumerate(CLASSES):
                params = ops.SymbolClassParams(m=m, delta=delta, ell=ell)
                for a in range(3):
                    for b in range(3):
                        out[f"hormander:{gname}:{sname}:{c}:a{a}b{b}"] = \
                            ops.hormander_seminorm(sym, params, a, b)
                    out[f"czs:{gname}:{sname}:{c}:a{a}"] = ops.czs_seminorm(sym, params, a)
        pieces = ops.paradecompose(syms["smooth"], 2, 2)
        for (j, l), piece in sorted(pieces.pieces.items()):
            out[f"para:{gname}:{j},{l}"] = piece.values
            out[f"mass:{gname}:{j},{l}"] = ops.kernel_weighted_mass(piece, j, 1.5)
        kern = scalar_field(grid, _cz_kernel(grid))
        for L in (1, 2):
            for k, v in sorted(ops.cz_kernel_check(kern, L).items()):
                out[f"cz:{gname}:L{L}:{k}"] = v
        f = band_limited_noise(grid, 1, 0.5, 4.0, rng)
        for comp in range(1, grid.dim + 1):
            key = "hilbert" if grid.dim == 1 else f"riesz2d:{comp}"
            out[f"{key}:{gname}"] = ops.hilbert_riesz_apply(f, comp).values
        cubes = [DyadicCube(j, (2,) + (3,) * (grid.dim - 1)) for j in (1, 2)]
        fam = {cube: atom_field(grid, 6, cube) for cube in cubes}
        fam[DyadicCube(0, (0,) * grid.dim)] = f
        for N, K in ((0, 0), (2, 1), (3, 2)):
            rep = molecule_check(fam, MoleculeParams(N=N, K=K, M=2.0), eps=1e-6)
            for k, v in sorted(rep.items()):
                out[f"molecule:{gname}:N{N}K{K}:{k}"] = v
        for cube, fld in fam.items():
            ap = measure_atom_params(fld, cube, L_max=3, N_max=2)
            tag = f"atom:{gname}:{cube.level}"
            out[f"{tag}:b"], out[f"{tag}:L"], out[f"{tag}:wrapped"] = ap.b, ap.L, ap.wrapped
            for gamma, v in sorted(ap.derivative_consts.items()):
                out[f"{tag}:{gamma}"] = v
        W = oscillating_weight(grid)
        for p in (0.8, 1.5):
            for k, v in sorted(diagnose(W, p, CubeRange(-1, 1)).as_dict().items()):
                out[f"diagnose:{gname}:p{p}:{k}"] = v
            fam = reducing_operators(W, p, CubeRange(-1, 1))
            out[f"sdc:{gname}:p{p}"] = strong_doubling_constant(fam, p, 0.6, 0.9, 0.75)
            out[f"waq:{gname}:p{p}"] = waq_integrability(W, p, fam, p + 0.5)
            out[f"aqw:{gname}:p{p}"] = aqw_sup(W, p, fam)
        for m in (1, 2):
            for wname, Wg in weight_gallery(grid, m).items():
                for p in (0.8, 1.5):
                    for t in (1 / p, -1 / p, 2 / p, 0.5, 1.0):
                        out[f"power:{gname}:m{m}:{wname}:p{p}:t{t!r}"] = Wg.power(t)
                out[f"weight:{gname}:m{m}:{wname}"] = Wg.values
        B = np.random.default_rng(20251017).standard_normal(grid.shape + (3, 3))
        fitted = dict(weight_gallery(grid, 2),
                      random3=MatrixWeight(grid, B @ np.swapaxes(B, -1, -2) + np.eye(3)))
        for wname, Wg in fitted.items():
            for p in (0.8, 1.5):
                fam = reducing_operators(Wg, p, CubeRange(-1, 1), method="ellipsoid-fit")
                for j, arr in fam.arrays.items():
                    out[f"reduce:{gname}:{wname}:p{p}:{j}"] = arr
        spec = {"band_random": 2, "bump": 2, "harmonic": 2}
        for name, fld in function_gallery(grid, CubeRange(-1, grid.res_log2 - 2), 2, spec, 7):
            out[f"gallery:{gname}:{name}"] = fld.values
        rho = grid.freq_radius()
        # the lattice radii lie in [2^-side_log2, sqrt(dim) 2^(res_log2 - 1)] and cube
        # level j's band is (2^(j-3), 2^(j-1)), so these windows hold every level
        # that meets the lattice
        banks = (("pair", make_admissible_pair(), -grid.side_log2),
                 ("partition", make_inhom_partition(), 0))
        for bname, bank, j_lo in banks:
            for j in range(j_lo, grid.res_log2 + 4):
                mult = bank.analysis(rho, j)
                if np.any(mult):
                    out[f"analysis:{gname}:{bname}:{j}"] = mult
                    out[f"synthesis:{gname}:{bname}:{j}"] = bank.synthesis(rho, j)
    rng = np.random.default_rng(20251017)
    for m in (1, 2, 3):
        mats = rng.standard_normal((512, m, m))
        out[f"opnorm:{m}x{m}:unit"] = operator_norms(mats)
        out[f"opnorm:{m}x{m}:wide"] = operator_norms(
            mats * 2.0 ** rng.uniform(-600, 600, size=(512, 1, 1)))
    _norms(out)
    _wavelets(out)
    return {k: np.asarray(v) for k, v in out.items()}


def compare(old: dict, new: dict, allow: dict) -> int:
    missing = sorted(set(old) ^ set(new))
    same, allowed, bad = 0, [], []
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        if a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes():
            same += 1
            continue
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        rel = float(np.max(np.abs(a - b))) / scale if a.shape == b.shape and scale else np.inf
        limit = max((r for p, r in allow.items() if key.startswith(p)), default=None)
        (allowed if limit is not None and rel <= limit else bad).append((key, rel))
    print(f"{len(old)} old and {len(new)} new outputs: {same} bit-identical, "
          f"{len(allowed)} within their allowance, {len(bad)} differ, {len(missing)} missing")
    for key, rel in allowed + bad:
        print(f"  {key}: max relative difference {rel:.3g}")
    for key in missing:
        print(f"  {key}: on one side only")
    return 1 if bad or missing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("--src", required=True)
    d.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    c.add_argument("--allow", action="append", default=[], metavar="PREFIX=REL")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        with open(args.out, "wb") as fh:
            pickle.dump(dump(args.src), fh)
        return 0
    with open(args.old, "rb") as fh:
        old = pickle.load(fh)
    with open(args.new, "rb") as fh:
        new = pickle.load(fh)
    allow = {p: float(r) for p, r in (item.split("=", 1) for item in args.allow)}
    return compare(old, new, allow)


if __name__ == "__main__":
    sys.exit(main())
