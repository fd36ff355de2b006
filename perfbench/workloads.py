"""The four benchmark workloads: inputs from a seed, the timed calls, the checks.

Each workload is a closed loop: one caller makes one call at a time.  `build`
makes fresh inputs for one repetition (never reused, so caches such as
`MatrixWeight.power` start cold, as in a real `bmtl` invocation); `run` is the
timed part and calls bmtl only through module attributes, so the tracer sees
every call; `check` evaluates the criteria on the outputs and returns the
cases with the values that are compared against the recorded reference.

Two scales: "desk" is the measured one (1D N = 4096, 2D 256^2, except where
a workload's comment says otherwise); "tiny" (1D N = 256, 2D 64^2) runs every
path in seconds for the self-test and the per-run reference check.
"""

from __future__ import annotations

import json
import os
from typing import Callable, NamedTuple

import numpy as np

from bmtl import coeff, fieldio, harness, operators, spaces, wavelets, weights
from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import CubeRange, cubes_at_level
from bmtl.fields import SampledField, l2_norm
from bmtl.grid import TorusGrid
from bmtl.lpa import bessel_potential, covered_band, make_admissible_pair, make_inhom_partition

#: ratio bound of every equivalence criterion (the acceptance suite's C)
C_CFG = 50.0
P = Q = 1.5
INF = float("inf")

SCALES = {
    "desk": {
        "res1": 10, "j_max1": 8,            # 1D N = 4096, levels [-2, 8]
        "res_char": 9, "j_max_char": 7,     # characterize: N = 2048, levels [-2, 7]
        "res2": 6, "j_max2": 4,             # 2D 256^2, phi levels [-2, 4]
        "diag_j_max": 2,                    # diagnostics levels [-2, 2]
        "sdc_j_max": 4,                     # strong doubling family levels [-2, 4]
        "ad_j_max": 5,                      # AD levels [0, 5]
        "res_psdo": 8,                      # psdo at N = 1024
        "gallery": {"band_random": 4, "bump": 2, "harmonic": 2},  # bmtl equiv's default
        "noise_band": (1.0, 32.0),
    },
    "tiny": {
        "res1": 6, "j_max1": 4,             # 1D N = 256
        "res_char": 6, "j_max_char": 4,
        "res2": 4, "j_max2": 2,             # 2D 64^2
        "diag_j_max": 1,
        "sdc_j_max": 3,
        "ad_j_max": 3,
        "res_psdo": 6,
        "gallery": {"band_random": 2, "bump": 1, "harmonic": 1},
        "noise_band": (1.0, 8.0),
    },
}

#: growth exponents (d, d~, Delta) of the oscillating weight at p = 1.5 on
#: levels [0, 4], i_max = 2, as ap_dimensions gives them; fixed so that the
#: transforms workload keeps ap_dimensions out of its timed calls
AD_EXPONENTS = (0.3165, 0.5674, 0.4001)


class Workload(NamedTuple):
    build: Callable      # (seed, scale, workdir) -> inputs
    run: Callable        # inputs -> outputs (the timed part)
    check: Callable      # (inputs, outputs) -> (cases, values)
    grids: Callable      # scale -> {label: grid description}


def _case(name: str, ok: bool, detail: str) -> dict:
    return {"case": name, "ok": bool(ok), "detail": detail}


def _ratio_ok(x: float) -> bool:
    return 1.0 / C_CFG <= x <= C_CFG


def _grid(dim: int, res: int) -> TorusGrid:
    return TorusGrid(dim, 2, res)


def _desc(g: TorusGrid, levels=None) -> str:
    text = f"dim={g.dim} N={g.points_per_axis} L={g.side:g}"
    return text if levels is None else f"{text} levels=[{levels[0]}, {levels[1]}]"


# ---------------------------------------------------------------------------
# equiv_1d: the `bmtl equiv` four-norm sweep with the default function gallery
# (8 functions) over three weights: 24 cases, ~3 s, so that a run holds several
# repetitions on a host whose speed drifts by tens of percent


def _equiv_build(seed, scale, workdir):
    sc = SCALES[scale]
    cfg = harness.ExperimentConfig(
        dim=1, side_log2=2, res_log2=sc["res1"], channels=2, j_min=-2, j_max=sc["j_max1"],
        space_params=[{"s": 0.5, "p": P, "q": Q, "t": 2.0, "r": INF}],
        weights=["identity", "rotated_power", "oscillating"],
        functions=dict(sc["gallery"]), kind="equivalence", threshold=C_CFG, seed=seed,
        output=os.path.join(workdir, "equiv_report.json"))
    return {"cfg": cfg}


def _equiv_run(inp):
    report = harness.run_experiment(inp["cfg"])
    harness.emit_report(report, inp["cfg"].output)
    return {"report": report}


def _equiv_check(inp, out):
    rows = out["report"].rows
    cases = [_case(f"spread {r['case']}", r["spread"] <= C_CFG, f"{r['spread']:.6g}")
             for r in rows]
    with open(inp["cfg"].output) as fh:
        emitted = json.load(fh)
    cases.append(_case("report emitted", len(emitted["rows"]) == len(rows) > 0,
                       f"{len(emitted['rows'])} rows"))
    values = {f"{k}.sum": float(sum(r[k] for r in rows))
              for k in ("F_W", "F_AQ", "f_W", "f_AQ", "truncation")}
    values["spread.min"] = float(min(r["spread"] for r in rows))
    values["spread.max"] = float(max(r["spread"] for r in rows))
    values["cases"] = float(len(rows))
    return cases, values


def _equiv_grids(scale):
    sc = SCALES[scale]
    return {"1d": _desc(_grid(1, sc["res1"]), (-2, sc["j_max1"]))}


# ---------------------------------------------------------------------------
# characterize_1d: criterion 7, at N = 2048 so that a run holds several
# repetitions (the pair kernels cost O(N^2) per level: ~20 s at N = 4096)


def _char_build(seed, scale, workdir):
    sc = SCALES[scale]
    grid = _grid(1, sc["res_char"])
    rng = np.random.default_rng(seed)
    lo, hi = sc["noise_band"]
    return {
        "f": harness.band_limited_noise(grid, 2, lo, hi, rng),
        "W": weights.oscillating_weight(grid),
        "hom": CubeRange(-2, sc["j_max_char"]),
        "inh": CubeRange(-2, sc["j_max_char"], inhomogeneous=True),
        "pair": make_admissible_pair(),
        "part": make_inhom_partition(),
    }


def _char_run(inp):
    f, hom, inh, pair, part = inp["f"], inp["hom"], inp["inh"], inp["pair"], inp["part"]
    sp = spaces.SpaceParams(0.5, P, Q, 2.0, INF)
    spi = spaces.SpaceParams(3.0, P, Q, 2.0, INF, homogeneous=False)
    w = spaces.PointwiseWeighting(inp["W"], P)
    return {
        "tl": spaces.tl_norm(f, w, sp, pair, hom).value,
        "peetre": spaces.peetre_norm(f, w, sp, 4.0, pair, hom).value,
        "lusin": spaces.lusin_norm(f, w, sp, pair, hom).value,
        "glambda": spaces.glambda_norm(f, w, sp, 3.0, pair, hom).value,
        "tl_inh": spaces.tl_norm(f, w, spi, part, inh).value,
        "approx": spaces.approx_norm(f, w, spi, part, inh).value,
    }


def _char_check(inp, out):
    tl = out["tl"]
    cases = [_case("peetre >= tl", out["peetre"] / tl >= 1.0 - 1e-10,
                   f"{out['peetre'] / tl:.12g}")]
    for name in ("peetre", "lusin", "glambda"):
        cases.append(_case(f"{name}/tl", _ratio_ok(out[name] / tl), f"{out[name] / tl:.6g}"))
    r = out["approx"] / out["tl_inh"]
    cases.append(_case("approx/tl_inh", _ratio_ok(r), f"{r:.6g}"))
    return cases, {k: float(v) for k, v in out.items()}


def _char_grids(scale):
    sc = SCALES[scale]
    return {"1d": _desc(_grid(1, sc["res_char"]), (-2, sc["j_max_char"]))}


# ---------------------------------------------------------------------------
# diagnose_1d: the weight-diagnostics sweep plus strong doubling.  The
# diagnostics levels stop at 2 (ap_dimensions costs about the same per cube at
# any N, and levels [-2, 4] take ~20 s); strong doubling keeps [-2, 4], 127
# cubes and all 16129 pairs.


DIAG_WEIGHTS = ("identity", "oscillating")


def _diag_build(seed, scale, workdir):
    sc = SCALES[scale]
    cfg = harness.ExperimentConfig(
        dim=1, side_log2=2, res_log2=sc["res1"], channels=2, j_min=-2, j_max=sc["diag_j_max"],
        space_params=[{"s": 0.5, "p": P, "q": Q, "t": 2.0, "r": INF}],
        weights=list(DIAG_WEIGHTS), kind="diagnostics", seed=seed)
    gallery = weights.weight_gallery(cfg.grid(), 2)
    return {"cfg": cfg, "weights": {name: gallery[name] for name in DIAG_WEIGHTS},
            "sdc_range": CubeRange(-2, sc["sdc_j_max"])}


def _diag_run(inp):
    cfg = inp["cfg"]
    report = harness.run_experiment(cfg)
    sdc = {}
    for name, row in zip(cfg.weights, report.rows):
        family = weights.reducing_operators(inp["weights"][name], P, inp["sdc_range"])
        sdc[name] = weights.strong_doubling_constant(family, P, row["d"], row["d_tilde"],
                                                     row["delta_cap"])
    return {"report": report, "sdc": sdc}


def _diag_check(inp, out):
    cases, values = [], {}
    for name, row in zip(inp["cfg"].weights, out["report"].rows):
        cases.append(_case(f"beta {name}", row["pass"], f"{row['beta']:.6g}"))
        sdc = out["sdc"][name]
        cases.append(_case(f"strong doubling {name}", np.isfinite(sdc) and sdc > 0,
                           f"{sdc:.6g}"))
        for k, v in row.items():
            if isinstance(v, float):
                values[f"{name}.{k}"] = v
        values[f"{name}.sdc"] = float(sdc)
    return cases, values


def _diag_grids(scale):
    sc = SCALES[scale]
    return {"1d": _desc(_grid(1, sc["res1"]), (-2, sc["diag_j_max"])),
            "1d_strong_doubling": _desc(_grid(1, sc["res1"]), (-2, sc["sdc_j_max"]))}


# ---------------------------------------------------------------------------
# transforms: phi / wavelet / JSONL / seq_norm / AD / psdo.  The 2D parts run
# at 256^2: at 512^2 one repetition takes 6-10 s, a whole run


def _trans_build(seed, scale, workdir):
    sc = SCALES[scale]
    rng = np.random.default_rng(seed)
    g2 = _grid(2, sc["res2"])
    r2 = CubeRange(-2, sc["j_max2"])
    lo, hi = covered_band(r2.band_levels())
    W2 = weights.oscillating_weight(g2)
    g1 = _grid(1, sc["res1"])
    adr = CubeRange(0, sc["ad_j_max"])
    entries = {}
    for j in range(adr.j_min + 2, adr.j_max):
        for c in cubes_at_level(g1, j):
            if rng.random() < 0.4:
                entries[c] = rng.standard_normal(2)
    gm = _grid(1, sc["res_psdo"])
    d, dt, delta = AD_EXPONENTS
    return {
        "f2": harness.band_limited_noise(g2, 2, 2.0 * lo, hi / 2.0, rng),
        "r2": r2,
        "wr": CubeRange(0, sc["j_max2"]),
        "pair": make_admissible_pair(),
        "W2": W2,
        "family2": weights.reducing_operators(W2, P, r2),
        "g1": g1,
        "adr": adr,
        "prof": coeff.ADProfile(s=0.4, p=P, q=1.2, epsilon=0.5, d=d, d_tilde=dt,
                                delta_cap=delta),
        "ad_seed": int(rng.integers(2 ** 31)),
        "s1": CoeffSequence(g1, entries, 2),
        "W1": weights.oscillating_weight(g1),
        "fm": harness.band_limited_noise(gm, 2, 0.5, 8.0, rng),
        "symbol": operators.multiplier_symbol(gm, (1.0 + gm.freq_radius() ** 2) ** (-0.5)),
        "path": os.path.join(workdir, "coeffs.jsonl"),
    }


def _trans_run(inp):
    f2, r2, pair = inp["f2"], inp["r2"], inp["pair"]
    sp = spaces.SpaceParams(0.5, P, Q, 2.0, INF)
    c = coeff.phi_transform(f2, pair, r2)
    fieldio.write_coeffs(inp["path"], c)
    back = fieldio.read_coeffs(inp["path"])
    out = {"coeffs": c, "coeffs_back": back, "phi_rec": coeff.phi_synthesis(back, pair)}
    out["wav"] = wavelets.wavelet_analyze(f2, 6, inp["wr"])
    out["wav_rec"] = wavelets.wavelet_synthesize(out["wav"], 6)
    out["seq_pw"] = spaces.seq_norm(c, spaces.PointwiseWeighting(inp["W2"], P), sp, r2).value
    out["seq_cw"] = spaces.seq_norm(c, spaces.CubewiseWeighting(inp["family2"]), sp, r2).value
    ops = coeff.ad_random_operator(inp["g1"], inp["adr"], inp["prof"], variant="weighted",
                                   seed=inp["ad_seed"], drop_tol=1e-10)
    out["ad_out"] = coeff.ad_apply(ops, inp["s1"])
    out["psdo"] = operators.psdo_apply(inp["symbol"], inp["fm"])
    return out


def _energy(seq: CoeffSequence) -> float:
    return float(sum(np.sum(np.abs(v) ** 2) for v in seq.entries.values()))


def _trans_check(inp, out):
    f2, c, back = inp["f2"], out["coeffs"], out["coeffs_back"]
    cases = []
    err = l2_norm(SampledField(f2.grid, out["phi_rec"].values - f2.values)) / l2_norm(f2)
    cases.append(_case("phi round trip", err <= 1e-8, f"{err:.3e}"))
    exact = c.entries.keys() == back.entries.keys() and all(
        np.array_equal(v, back.entries[k]) for k, v in c.entries.items())
    cases.append(_case("jsonl re-read bit-exact", exact, f"{len(c.entries)} entries"))
    err = np.max(np.abs(out["wav_rec"].values - f2.values)) / np.max(np.abs(f2.values))
    cases.append(_case("wavelet round trip", err <= 1e-10, f"{err:.3e}"))
    defect = wavelets.parseval_defect(f2, out["wav"])
    cases.append(_case("wavelet parseval", defect <= 1e-10, f"{defect:.3e}"))
    r = out["seq_pw"] / out["seq_cw"]
    cases.append(_case("seq_norm pointwise/cubewise", _ratio_ok(r), f"{r:.6g}"))
    sp = spaces.SpaceParams(0.4, P, 1.2, 2.0, INF)
    cw = spaces.CubewiseWeighting(weights.reducing_operators(inp["W1"], P, inp["adr"]))
    ad_ratio = (spaces.seq_norm(out["ad_out"], cw, sp, inp["adr"]).value
                / spaces.seq_norm(inp["s1"], cw, sp, inp["adr"]).value)
    cases.append(_case("AD boundedness", ad_ratio <= C_CFG, f"{ad_ratio:.6g}"))
    direct = bessel_potential(inp["fm"], 1.0).values
    err = np.max(np.abs(out["psdo"].values - direct)) / np.max(np.abs(direct))
    cases.append(_case("psdo against multiplier", err <= 1e-10, f"{err:.3e}"))
    values = {
        "phi.energy": _energy(c),
        "jsonl.bytes": float(os.path.getsize(inp["path"])),
        "seq_pw": float(out["seq_pw"]),
        "seq_cw": float(out["seq_cw"]),
        "ad.energy": _energy(out["ad_out"]),
        "ad_seq_ratio": float(ad_ratio),
        "psdo.l2": l2_norm(out["psdo"]),
    }
    for i, seq in out["wav"].items():
        values[f"wavelet{i}.energy"] = _energy(seq)
    return cases, values


def _trans_grids(scale):
    sc = SCALES[scale]
    return {
        "2d": _desc(_grid(2, sc["res2"]), (-2, sc["j_max2"])),
        "2d_wavelet": _desc(_grid(2, sc["res2"]), (0, sc["j_max2"])),
        "1d_ad": _desc(_grid(1, sc["res1"]), (0, sc["ad_j_max"])),
        "1d_psdo": _desc(_grid(1, sc["res_psdo"])),
    }


WORKLOADS = {
    "equiv_1d": Workload(_equiv_build, _equiv_run, _equiv_check, _equiv_grids),
    "characterize_1d": Workload(_char_build, _char_run, _char_check, _char_grids),
    "diagnose_1d": Workload(_diag_build, _diag_run, _diag_check, _diag_grids),
    "transforms": Workload(_trans_build, _trans_run, _trans_check, _trans_grids),
}
