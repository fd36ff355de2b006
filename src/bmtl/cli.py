"""Command-line front end.

Subcommands: check-ap, reduce, norm, transform, bound, equiv, report, filter.
Exit codes: 0 all thresholds met, 1 threshold violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fieldio
from .coeff import phi_synthesis, phi_transform
from .dyadic import MARGIN, CubeRange
from .fields import SampledField, l2_norm
from .harness import ExperimentConfig, Report, emit_report, load_report, run_experiment
from .lpa import band_filter, bessel_potential, make_admissible_pair, make_inhom_partition
from .spaces import (CubewiseWeighting, PointwiseWeighting, SpaceParams, bm_norm,
                     approx_norm, float_params, glambda_norm, lusin_norm, peetre_norm,
                     seq_norm, tl_norm)
from .weights import diagnose, identity_weight, reducing_operators, sandwich_constants


def _load_params(blob: str) -> dict:
    params = json.loads(blob)     # malformed JSON raises a ValueError
    if not isinstance(params, dict):
        raise ValueError(f"--params must be a JSON object, got {blob!r}")
    return params


def _default_range(grid, j_min=None, j_max=None, inhomogeneous=False) -> CubeRange:
    """The given levels; a missing j_min is the torus level and a missing j_max
    the finest level a range on this grid admits."""
    return CubeRange(-grid.side_log2 if j_min is None else j_min,
                     grid.res_log2 - MARGIN if j_max is None else j_max, inhomogeneous)


def _level(params: dict, key: str):
    """params[key] as an integer level, or None when the key is absent."""
    if key not in params:
        return None
    value = params[key]
    try:
        integral = float(value).is_integer()
    except (TypeError, ValueError):
        integral = False
    if not integral:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(float(value))


def _range_from(params: dict, grid) -> CubeRange:
    return _default_range(grid, _level(params, "j_min"), _level(params, "j_max"),
                          bool(params.get("inhomogeneous", False)))


def cmd_check_ap(args) -> int:
    W = fieldio.read_weight(args.weight)
    diag = diagnose(W, args.p, _default_range(W.grid, args.j_min, args.j_max))
    print(json.dumps(diag.as_dict(), sort_keys=True, indent=1))
    return 0


def cmd_reduce(args) -> int:
    W = fieldio.read_weight(args.weight)
    rng = _default_range(W.grid, args.j_min, args.j_max)
    family = reducing_operators(W, args.p, rng, method=args.method)
    c1, c2 = sandwich_constants(W, args.p, family, n_dirs=args.dirs)
    print(json.dumps({"method": args.method, "c1": c1, "c2": c2, "ratio": c2 / c1},
                     sort_keys=True, indent=1))
    return 0


def cmd_norm(args) -> int:
    params = _load_params(args.params)
    f = fieldio.read_field(args.field)
    grid = f.grid
    rng = _range_from(params, grid)
    if args.space == "bm":
        val = bm_norm(f, *float_params(params, "ptr"), rng)
        print(json.dumps({"value": val}, indent=1))
        return 0
    sp = SpaceParams.from_dict(params, not rng.inhomogeneous)
    W = fieldio.read_weight(args.weight) if args.weight else identity_weight(grid, f.channels)
    pw = PointwiseWeighting(W, sp.p)
    bank = make_admissible_pair() if sp.homogeneous else make_inhom_partition()
    if args.space == "F":
        w = CubewiseWeighting(reducing_operators(W, sp.p, rng)) if args.cubewise else pw
        rep = tl_norm(f, w, sp, bank, rng, truncation_check=args.truncation)
    elif args.space == "f":
        coeffs = phi_transform(f, bank, rng)
        w = CubewiseWeighting(reducing_operators(W, sp.p, rng)) if args.cubewise else pw
        rep = seq_norm(coeffs, w, sp, rng)
    elif args.space == "peetre":
        rep = peetre_norm(f, pw, sp, params.get("a", 3.0), bank, rng)
    elif args.space == "lusin":
        rep = lusin_norm(f, pw, sp, bank, rng)
    elif args.space == "glambda":
        rep = glambda_norm(f, pw, sp, params.get("lambda", 3.0), bank, rng)
    elif args.space == "approx":
        rep = approx_norm(f, pw, sp, make_inhom_partition(), rng)
    else:
        return 2
    out = {"value": rep.value,
           "per_level": {str(k): v for k, v in rep.per_level.items()}}
    if rep.truncation is not None:
        out["truncation"] = rep.truncation
    print(json.dumps(out, sort_keys=True, indent=1))
    return 0


def cmd_transform(args) -> int:
    if args.mode == "phi":
        pair = make_admissible_pair()
        if args.direction == "analyze":
            f = fieldio.read_field(args.field)
            rng = _default_range(f.grid, args.j_min, args.j_max)
            fieldio.write_coeffs(args.out, phi_transform(f, pair, rng))
        else:
            coeffs = fieldio.read_coeffs(args.field)
            fieldio.write_field(args.out, phi_synthesis(coeffs, pair))
        return 0
    from .wavelets import wavelet_analyze
    if args.direction == "analyze":
        f = fieldio.read_field(args.field)
        rng = CubeRange(args.j_min if args.j_min is not None else 0,
                        args.j_max if args.j_max is not None else f.grid.res_log2 - 1)
        coeffs = wavelet_analyze(f, args.db_order, rng)
        for i, seq in coeffs.items():
            fieldio.write_coeffs(f"{args.out}.gen{i}", seq)
        return 0
    raise ValueError("wavelet synthesis needs the full generator set; use the library API")


def cmd_bound(args) -> int:
    f = fieldio.read_field(args.field)
    params = _load_params(args.params)
    rng = _range_from(params, f.grid)
    sp = SpaceParams.from_dict(params, not rng.inhomogeneous)
    W = fieldio.read_weight(args.weight) if args.weight else identity_weight(f.grid, f.channels)
    pw = PointwiseWeighting(W, sp.p)
    bank = make_admissible_pair() if sp.homogeneous else make_inhom_partition()
    if args.op == "hilbert":
        from .operators import hilbert_riesz_apply
        g = hilbert_riesz_apply(f)
        out = SampledField(f.grid, g.values.real if not f.is_complex else g.values)
        num = tl_norm(out, pw, sp, bank, rng).value
    elif args.op == "bessel":
        lifted = bessel_potential(f, -args.gamma)
        sp2 = SpaceParams(sp.s + args.gamma, sp.p, sp.q, sp.t, sp.r, sp.homogeneous)
        num = tl_norm(lifted, pw, sp, bank, rng).value
        den = tl_norm(f, pw, sp2, bank, rng).value
        print(json.dumps({"ratio": num / den, "num": num, "den": den}, indent=1))
        return 0 if max(num / den, den / num) <= args.threshold else 1
    elif args.op == "psdo":
        from .operators import psdo_apply
        sym = fieldio.read_symbol(args.symbol)
        g = psdo_apply(sym, f)
        num = tl_norm(SampledField(f.grid, g.values), pw, sp, bank, rng).value
    elif args.op == "multiplier":
        from .lpa import RadialProfile, h2_profile_norm
        from .operators import multiplier_apply
        k = int(args.gamma)   # scale index of the built-in gaussian multiplier
        prof = RadialProfile(lambda r: np.exp(-((r / 2.0 ** k) ** 2)))
        out = multiplier_apply([prof], [f])[0]
        h2 = h2_profile_norm(f.grid, prof(f.grid.freq_radius() * 2.0 ** k),
                             1.0 / min(1.0, sp.p, sp.q) + f.grid.dim / 2.0 + 0.1)
        num = tl_norm(SampledField(f.grid, out.values), pw, sp, bank, rng).value
        den = tl_norm(f, pw, sp, bank, rng).value
        ratio = num / (den * h2) if den > 0 else float("inf")
        print(json.dumps({"ratio": ratio, "num": num, "den": den, "h2": h2}, indent=1))
        return 0 if ratio <= args.threshold else 1
    else:
        return 2
    den = tl_norm(f, pw, sp, bank, rng).value
    ratio = num / den if den > 0 else float("inf")
    print(json.dumps({"ratio": ratio, "num": num, "den": den}, indent=1))
    return 0 if ratio <= args.threshold else 1


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
    p.add_argument("--j-max", type=int, default=None)
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


if __name__ == "__main__":
    sys.exit(main())
