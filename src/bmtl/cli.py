"""Command-line front end.

Subcommands: check-ap, reduce, norm, transform, bound, equiv, report, filter.
Exit codes: 0 all thresholds met, 1 threshold violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import fieldio
from .coeff import phi_synthesis, phi_transform
from .dyadic import MARGIN, CubeRange
from .fields import SampledField, l2_norm
from .harness import (ExperimentConfig, Report, check_names, emit_report, json_bool,
                      json_int, load_report, run_experiment)
from .lpa import band_filter, bank_for, bessel_potential, make_admissible_pair
from .spaces import (SPACE_KEYS, CubewiseWeighting, PointwiseWeighting, SpaceParams,
                     approx_norm, bm_norm, float_params, glambda_norm, lusin_norm,
                     peetre_norm, seq_norm, tl_norm, truncation_ratio)
from .weights import diagnose, identity_weight, reducing_operators, sandwich_constants


#: the --params keys of the level window and the space switch
_RANGE_KEYS = ("j_min", "j_max", "inhomogeneous")
#: the --params keys each norm reads besides SPACE_KEYS and _RANGE_KEYS
_NORM_KEYS = {"peetre": ("a",), "glambda": ("lambda",)}


def _load_params(blob: str, keys) -> dict:
    """The --params JSON object; ValueError for anything else or for a key
    outside keys and _RANGE_KEYS."""
    params = json.loads(blob)     # malformed JSON raises a ValueError
    if not isinstance(params, dict):
        raise ValueError(f"--params must be a JSON object, got {blob!r}")
    check_names("--params", params, tuple(keys) + _RANGE_KEYS)
    return params


def _default_range(grid, j_min=None, j_max=None, inhomogeneous=False) -> CubeRange:
    """The given levels; a missing j_min is the torus level and a missing j_max
    the finest level a range on this grid admits."""
    return CubeRange(-grid.side_log2 if j_min is None else j_min,
                     grid.res_log2 - MARGIN if j_max is None else j_max, inhomogeneous)


def _level(params: dict, key: str):
    """params[key] as an integer level, or None when the key is absent."""
    return json_int(params[key], key) if key in params else None


def _range_from(params: dict, grid) -> CubeRange:
    """The range of the --params levels; its inhomogeneous flag, a JSON boolean,
    is the one switch between the homogeneous and the inhomogeneous space."""
    return _default_range(grid, _level(params, "j_min"), _level(params, "j_max"),
                          json_bool(params.get("inhomogeneous", False), "inhomogeneous"))


def cmd_check_ap(args) -> int:
    W = fieldio.read_weight(args.weight)
    diag = diagnose(W, args.p, _default_range(W.grid, args.j_min, args.j_max))
    print(json.dumps(diag.as_dict(), sort_keys=True, indent=1))
    return 0


def cmd_reduce(args) -> int:
    W = fieldio.read_weight(args.weight)
    rng = _default_range(W.grid, args.j_min, args.j_max)
    if args.dirs < 1:
        raise ValueError(f"--dirs must be positive, got {args.dirs}")
    family = reducing_operators(W, args.p, rng, method=args.method)
    c1, c2 = sandwich_constants(W, args.p, family, n_dirs=args.dirs)
    print(json.dumps({"method": args.method, "c1": c1, "c2": c2, "ratio": c2 / c1},
                     sort_keys=True, indent=1))
    return 0


def cmd_norm(args) -> int:
    keys = "ptr" if args.space == "bm" else SPACE_KEYS + _NORM_KEYS.get(args.space, ())
    params = _load_params(args.params, keys)
    f = fieldio.read_field(args.field)
    grid = f.grid
    rng = _range_from(params, grid)
    if args.space == "bm":
        val = bm_norm(f, *float_params(params, "ptr"), rng)
        print(json.dumps({"value": val}, indent=1))
        return 0
    sp = SpaceParams.from_dict(params, rng)
    W = fieldio.read_weight(args.weight) if args.weight else identity_weight(grid, f.channels)
    pw = PointwiseWeighting(W, sp.p)
    bank = bank_for(rng)
    if args.space in ("F", "f") and args.cubewise:
        # the truncation check reads A_Q one level past each end of the range
        w = CubewiseWeighting(reducing_operators(
            W, sp.p, rng.widened(grid) if args.truncation else rng))
    else:
        w = pw
    if args.space in ("F", "f"):
        def norm_on(r):     # on a widened range, f takes that range's own coefficients
            return (tl_norm(f, w, sp, bank, r) if args.space == "F"
                    else seq_norm(phi_transform(f, bank, r), w, sp, r))
        rep = norm_on(rng)
        if args.truncation:
            rep.truncation = truncation_ratio(rep.value, grid, rng, norm_on)
    elif args.space == "peetre":
        a, = float_params({"a": 3.0, **params}, ["a"])
        rep = peetre_norm(f, pw, sp, a, bank, rng)
    elif args.space == "lusin":
        rep = lusin_norm(f, pw, sp, bank, rng)
    elif args.space == "glambda":
        lam, = float_params({"lambda": 3.0, **params}, ["lambda"])
        rep = glambda_norm(f, pw, sp, lam, bank, rng)
    else:   # approx
        rep = approx_norm(f, pw, sp, bank, rng)
    out = {"value": rep.value,
           "per_level": {str(k): v for k, v in rep.per_level.items()}}
    if rep.truncation is not None:
        out["truncation"] = rep.truncation
    print(json.dumps(out, sort_keys=True, indent=1))
    return 0


def cmd_transform(args) -> int:
    if args.mode == "phi":
        if args.direction == "analyze":
            f = fieldio.read_field(args.field)
            rng = _default_range(f.grid, args.j_min, args.j_max)
            fieldio.write_coeffs(args.out, phi_transform(f, bank_for(rng), rng))
        else:
            coeffs = fieldio.read_coeffs(args.field)
            fieldio.write_field(args.out, phi_synthesis(coeffs, make_admissible_pair()))
        return 0
    from .wavelets import wavelet_analyze
    if args.direction == "analyze":
        f = fieldio.read_field(args.field)
        j_min = args.j_min if args.j_min is not None else 0
        coeffs = wavelet_analyze(f, args.db_order, CubeRange(j_min, j_min))   # reads j_min only
        for i, seq in coeffs.items():
            fieldio.write_coeffs(f"{args.out}.gen{i}", seq)
        return 0
    raise ValueError("wavelet synthesis needs the full generator set; use the library API")


def _bessel_norms(f: SampledField, gamma: float, sp: SpaceParams, norms) -> tuple:
    """norms(J^gamma f, sp at smoothness s + gamma), J^gamma the multiplier
    (1+|xi|^2)^(gamma/2); ValueError naming --gamma when s + gamma, the multiplier,
    the field it gives or either norm overflows (numpy's overflow and invalid-value
    flags raise inside)."""
    shifted = sp.s + gamma
    if not np.isfinite(shifted):
        raise ValueError(f"--gamma {gamma} overflows the shifted smoothness s + gamma")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return norms(bessel_potential(f, -gamma), dataclasses.replace(sp, s=shifted))
    except (FloatingPointError, OverflowError):
        raise ValueError(f"--gamma {gamma} overflows the multiplier (1+|xi|^2)^(gamma/2) "
                         f"or a norm at smoothness s = {sp.s} or s + gamma = {shifted}") from None


def cmd_bound(args) -> int:
    if not args.threshold > 0:
        raise ValueError(f"--threshold must be positive, got {args.threshold}")
    if args.op == "bessel" and not np.isfinite(args.gamma):
        raise ValueError(f"--gamma must be finite, got {args.gamma}")
    f = fieldio.read_field(args.field)
    params = _load_params(args.params, SPACE_KEYS)
    rng = _range_from(params, f.grid)
    sp = SpaceParams.from_dict(params, rng)
    W = fieldio.read_weight(args.weight) if args.weight else identity_weight(f.grid, f.channels)
    pw = PointwiseWeighting(W, sp.p)
    bank = bank_for(rng)
    extra = {}

    def norms(out: SampledField, den_sp: SpaceParams = sp) -> tuple:
        return tl_norm(out, pw, sp, bank, rng).value, tl_norm(f, pw, den_sp, bank, rng).value
    if args.op == "hilbert":
        from .operators import hilbert_riesz_apply
        g = hilbert_riesz_apply(f)
        num, den = norms(SampledField(f.grid, g.values.real if not f.is_complex else g.values))
    elif args.op == "bessel":
        num, den = _bessel_norms(f, args.gamma, sp, norms)
    elif args.op == "psdo":
        from .operators import psdo_apply
        if args.symbol is None:
            raise ValueError("--op psdo needs --symbol")
        num, den = norms(psdo_apply(fieldio.read_symbol(args.symbol), f))
    else:   # multiplier
        from .lpa import h2_profile_norm
        from .operators import multiplier_apply
        k = json_int(args.gamma, "--gamma")   # scale index of the built-in gaussian multiplier

        def prof(r):
            return np.exp(-((r / 2.0 ** k) ** 2))
        num, den = norms(multiplier_apply([prof], [f])[0])
        extra["h2"] = h2_profile_norm(f.grid, prof(f.grid.freq_radius() * 2.0 ** k),
                                      1.0 / min(1.0, sp.p, sp.q) + f.grid.dim / 2.0 + 0.1)
    ratio = num / (den * extra.get("h2", 1.0)) if den > 0 else float("inf")
    print(json.dumps({"ratio": ratio, "num": num, "den": den, **extra}, indent=1))
    # bessel is two-sided: 1/threshold <= ratio <= threshold
    ok = ratio <= args.threshold and (args.op != "bessel" or ratio * args.threshold >= 1.0)
    return 0 if ok else 1


def cmd_equiv(args) -> int:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    report = run_experiment(cfg)
    emit_report(report, cfg.output, fmt=args.format)
    print(json.dumps(report.summary, sort_keys=True, default=str, indent=1))
    return 0 if report.passed else 1


def cmd_report(args) -> int:
    data = load_report(args.infile)
    if args.format == "csv":
        report = Report(data.get("config", {}), data["rows"], data.get("summary", {}),
                        data.get("passed", False))
        emit_report(report, args.out, fmt="csv")
    else:
        with open(args.out, "w") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
    return 0


def cmd_filter(args) -> int:
    f = fieldio.read_field(args.field)
    pair = make_admissible_pair()
    # phi(2^-j |xi|) vanishes unless 2^(j-1) < |xi| < 2^(j+1), and the nonzero
    # lattice radii lie in [2^-side_log2, 2^res_log2], so no other level can hit
    rho = f.grid.freq_radius()
    levels = [j for j in range(-f.grid.side_log2 - 1, f.grid.res_log2 + 2)
              if np.any(pair.phi(rho * 2.0 ** (-j)))]
    if args.level not in levels:
        raise ValueError(f"--level {args.level}: the band meets the frequency lattice "
                         f"only at levels {levels[0]}..{levels[-1]}")
    out = band_filter(f, pair.phi, args.level)
    fieldio.write_field(args.out, out)
    print(json.dumps({"level": args.level, "l2": l2_norm(out)}, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bmtl", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check-ap", help="weight diagnostics JSON")
    p.add_argument("--weight", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--j-min", type=int, default=None)
    p.add_argument("--j-max", type=int, default=None)
    p.set_defaults(fn=cmd_check_ap)

    p = sub.add_parser("reduce", help="build reducing operators, print sandwich constants")
    p.add_argument("--weight", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method", default="second-moment",
                   choices=["second-moment", "ellipsoid-fit"])
    p.add_argument("--dirs", type=int, default=256)
    p.add_argument("--j-min", type=int, default=None)
    p.add_argument("--j-max", type=int, default=None)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("norm", help="compute one norm, print NormReport JSON")
    p.add_argument("--space", required=True,
                   choices=["F", "f", "peetre", "lusin", "glambda", "approx", "bm"])
    p.add_argument("--params", required=True, help="JSON: s,p,q,t,r,j_min,j_max,...")
    p.add_argument("--field", required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--cubewise", action="store_true")
    p.add_argument("--truncation", action="store_true")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("transform", help="phi/wavelet analysis or synthesis")
    p.add_argument("--mode", required=True, choices=["phi", "wavelet"])
    p.add_argument("--direction", required=True, choices=["analyze", "synthesize"])
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--db-order", type=int, default=6)
    p.add_argument("--j-min", type=int, default=None)
    p.add_argument("--j-max", type=int, default=None,
                   help="phi analysis only; wavelet analysis reads --j-min alone")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("bound", help="operator boundedness ratio")
    p.add_argument("--op", required=True, choices=["hilbert", "psdo", "multiplier", "bessel"])
    p.add_argument("--field", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--symbol", default=None)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=50.0)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("equiv", help="four-norm equivalence sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("report", help="re-emit a report")
    p.add_argument("--infile", required=True)
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("filter", help="apply one band filter (debugging)")
    p.add_argument("--field", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_filter)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: the input overflowed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
