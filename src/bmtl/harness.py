"""Experiment driver: seeded function/weight galleries, ratio-sweep experiments
over the four norms and the operator bounds, and deterministic report emission.

Reports are reproducible bit-for-bit for a fixed seed: emission sorts keys,
prints 17 significant digits, and leaves wall-clock timings out of the payload
(they live on the in-memory report only).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .coeff import phi_level
from .coeffseq import CoeffSequence
from .dyadic import CubeRange
from .fields import SampledField, fourier_multiply, l2_norm
from .grid import TorusGrid
from .lpa import covered_band, make_admissible_pair, make_inhom_partition
from .spaces import (SPACE_KEYS, CubewiseWeighting, PointwiseWeighting, SpaceParams,
                     seq_norm, tl_norm, tl_norms, truncation_ratio)
from .weights import diagnose, reducing_operators, weight_gallery


@dataclass
class ExperimentConfig:
    dim: int = 1
    side_log2: int = 2
    res_log2: int = 10
    channels: int = 2
    j_min: int = -2
    j_max: int = 8
    inhomogeneous: bool = False
    space_params: list = field(default_factory=lambda: [
        {"s": 0.5, "p": 1.5, "q": 1.5, "t": 2.0, "r": float("inf")},
    ])
    weights: list = field(default_factory=lambda: ["identity", "constant", "oscillating"])
    functions: dict = field(default_factory=lambda: {
        "band_random": 4, "bump": 2, "harmonic": 2,
    })
    kind: str = "equivalence"
    threshold: float = 50.0
    seed: int = 20250810
    output: str = "report.json"

    def grid(self) -> TorusGrid:
        return TorusGrid(self.dim, self.side_log2, self.res_log2)

    def cube_range(self) -> CubeRange:
        return CubeRange(self.j_min, self.j_max, self.inhomogeneous)

    def spaces(self) -> list:
        for sp in self.space_params:
            check_names("space_params", sp, SPACE_KEYS)
        return [SpaceParams.from_dict(sp, not self.inhomogeneous) for sp in self.space_params]

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        """The config in a JSON file; ValueError unless it is an object of config
        fields, each of the type _CONFIG_TYPES gives it."""
        with open(path) as fh:
            data = json.load(fh)
        try:
            cfg = ExperimentConfig(**data)
            for key in data:
                setattr(cfg, key, _CONFIG_TYPES[key](data[key], key))
        except (TypeError, ValueError) as exc:  # not an object, unknown key, wrong type
            raise ValueError(f"config {path}: {exc}") from exc
        return cfg

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, sort_keys=True, indent=1)


def json_int(value, key: str) -> int:
    """An integral JSON number as an int; ValueError for anything else, strings
    and booleans included."""
    if type(value) not in (int, float) or not float(value).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _json_type(name: str, *kinds):
    """A check that a JSON value has one of the types kinds (exactly: JSON true
    is a bool, not an int)."""
    def check(value, key):
        if type(value) not in kinds:
            raise ValueError(f"{key} must be {name}, got {value!r}")
        return value
    return check


json_bool = _json_type("a boolean", bool)


def _json_list(name: str, kind):
    def check(value, key):
        if type(value) is not list or any(type(v) is not kind for v in value):
            raise ValueError(f"{key} must be a list of {name}, got {value!r}")
        return value
    return check


def _json_counts(value, key: str) -> dict:
    if type(value) is not dict:
        raise ValueError(f"{key} must be an object of name: count, got {value!r}")
    return {name: json_int(n, f"{key}[{name!r}]") for name, n in value.items()}


#: the check of every ExperimentConfig field read from JSON
_CONFIG_TYPES = {
    **dict.fromkeys(("dim", "side_log2", "res_log2", "channels", "j_min", "j_max", "seed"),
                    json_int),
    "inhomogeneous": json_bool,
    "space_params": _json_list("objects", dict),
    "weights": _json_list("strings", str),
    "functions": _json_counts,
    "kind": _json_type("a string", str),
    "threshold": _json_type("a number", int, float),
    "output": _json_type("a string", str),
}


@dataclass
class Report:
    config: dict
    rows: list
    summary: dict
    passed: bool
    wall_times: dict = field(default_factory=dict)


def band_limited_noise(grid: TorusGrid, channels: int, lo: float, hi: float,
                       rng) -> SampledField:
    """Real field with spectrum restricted to the annulus lo <= |xi| <= hi."""
    rho = grid.freq_radius()
    white = SampledField(grid, rng.standard_normal(grid.shape + (channels,)))
    f = fourier_multiply(white, (rho >= lo) & (rho <= hi))
    return SampledField(grid, f.values / max(l2_norm(f), 1e-300))


def band_limited_bump(grid: TorusGrid, channels: int, lo: float, hi: float,
                      center=None, width: float = None) -> SampledField:
    """Smooth bump (away from the seam), spectrum clipped to the covered annuli."""
    if center is None:
        center = np.full(grid.dim, grid.side / 2.0)
    if width is None:
        width = grid.side / 16.0
    coords = np.stack(grid.coords(), axis=-1)
    d = grid.torus_dist(coords, np.asarray(center))
    bump = np.exp(-(d / width) ** 2)
    rho = grid.freq_radius()
    scaled = SampledField(grid, bump[..., None] * (1.0 + 0.3 * np.arange(channels)))
    f = fourier_multiply(scaled, (rho >= lo) & (rho <= hi))
    return SampledField(grid, f.values / max(l2_norm(f), 1e-300))


def harmonic_field(grid: TorusGrid, channels: int, freq_index: int,
                   phase: float = 0.0) -> SampledField:
    x0 = grid.coords()[0]
    base = np.cos(2.0 * np.pi * freq_index * x0 / grid.side + phase)
    vals = np.stack([base * (1.0 + 0.5 * c) for c in range(channels)], axis=-1)
    return SampledField(grid, vals)


#: the function kinds that function_gallery builds
FUNCTION_KINDS = ("band_random", "bump", "harmonic")


def check_names(key: str, names, known):
    """ValueError naming the config field or option key and the known names
    unless every name is one of them."""
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"{key}: unknown {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(known)}")


def function_gallery(grid: TorusGrid, cube_range: CubeRange, channels: int,
                     spec: dict, seed: int) -> list:
    """Named, seeded test functions with spectra inside the covered annuli."""
    rng = np.random.default_rng(seed)
    lo, hi = covered_band(cube_range.band_levels())
    lo_safe, hi_safe = 2.0 * lo, hi / 2.0
    out = []
    for k in range(spec.get("band_random", 0)):
        out.append((f"band_random_{k}",
                    band_limited_noise(grid, channels, lo_safe, hi_safe, rng)))
    for k in range(spec.get("bump", 0)):
        width = grid.side / (8.0 * (k + 1))
        center = np.full(grid.dim, grid.side * (0.4 + 0.1 * k))
        out.append((f"bump_{k}",
                    band_limited_bump(grid, channels, lo_safe, hi_safe, center, width)))
    ks = sorted({int(np.ceil(lo_safe * grid.side)) * (k + 1) for k in range(spec.get("harmonic", 0))})
    for i, k in enumerate(ks):
        if k / grid.side <= hi_safe:
            out.append((f"harmonic_{k}", harmonic_field(grid, channels, k, 0.3 * i)))
    return out


def dilate_field(f: SampledField) -> SampledField:
    """f(2x) on the same grid (exact for periodic sampling)."""
    idx = (2 * np.arange(f.grid.points_per_axis)) % f.grid.points_per_axis
    return SampledField(f.grid, f.values[np.ix_(*[idx] * f.grid.dim)])


def four_norms(f: SampledField, W, sp: SpaceParams, bank, cube_range,
               family=None) -> dict:
    """F(W), F(A_Q), and the two sequence norms of the phi-transform coefficients.

    One band pass: each level's band output feeds both function-side level
    sums and gives that level's coefficients (the helpers of tl_norm and
    phi_transform; tl_norms holds the bank to the range).  A real f's bands are
    real, so its coefficients have exact zero imaginary parts where
    phi_transform's carry rounding noise; the norms agree to rounding.
    bank: AdmissiblePair for a homogeneous range, InhomPartition otherwise.
    """
    if family is None:
        family = reducing_operators(W, sp.p, cube_range)
    pw = PointwiseWeighting(W, sp.p)
    cw = CubewiseWeighting(family)
    arrays = {}

    def keep_coefficients(j, band):
        arrays[j] = phi_level(f.grid, j, band)

    F_W, F_AQ = tl_norms(f, (pw, cw), sp, bank, cube_range, on_band=keep_coefficients)
    coeffs = CoeffSequence(f.grid, arrays, f.channels)
    return {
        "F_W": F_W.value,
        "F_AQ": F_AQ.value,
        "f_W": seq_norm(coeffs, pw, sp, cube_range).value,
        "f_AQ": seq_norm(coeffs, cw, sp, cube_range).value,
    }


def run_experiment(cfg: ExperimentConfig) -> Report:
    t0 = time.perf_counter()
    grid = cfg.grid()
    cube_range = cfg.cube_range()
    weights = weight_gallery(grid, cfg.channels)
    check_names("functions", cfg.functions, FUNCTION_KINDS)
    check_names("weights", cfg.weights, weights)
    spaces = cfg.spaces()
    rows = []
    times = {}
    if cfg.kind == "equivalence":
        pair = make_inhom_partition() if cfg.inhomogeneous else make_admissible_pair()
        gallery = function_gallery(grid, cube_range, cfg.channels, cfg.functions, cfg.seed)
        for sp in spaces:
            for wname in cfg.weights:
                W = weights[wname]
                family = reducing_operators(W, sp.p, cube_range)
                pw = PointwiseWeighting(W, sp.p)
                for fname, f in gallery:
                    t1 = time.perf_counter()
                    norms = four_norms(f, W, sp, pair, cube_range, family)
                    vals = [v for v in norms.values() if v > 0]
                    spread = max(vals) / min(vals) if vals else 1.0
                    trunc = truncation_ratio(
                        norms["F_W"], grid, cube_range,
                        lambda wide: tl_norm(f, pw, sp, pair, wide)) or 1.0
                    rows.append({
                        "case": f"{wname}/{fname}/s={sp.s},p={sp.p},q={sp.q}",
                        **norms,
                        "spread": spread,
                        "truncation": trunc,
                        "truncation_flag": abs(trunc - 1.0) > 0.01,
                        # q <= p certifies q < p + delta_W for any delta_W > 0;
                        # beyond that the hypothesis cannot be checked
                        "hypothesis_unverifiable": sp.q > sp.p,
                        "pass": spread <= cfg.threshold,
                    })
                    times[rows[-1]["case"]] = time.perf_counter() - t1
    elif cfg.kind == "diagnostics":
        for sp in spaces:
            for wname in cfg.weights:
                t1 = time.perf_counter()
                diag = diagnose(weights[wname], sp.p, cube_range)
                rows.append({"case": f"{wname}/p={sp.p}", **diag.as_dict(),
                             "pass": diag.beta >= grid.dim - 0.01})
                times[rows[-1]["case"]] = time.perf_counter() - t1
    else:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    spreads = [r.get("spread", 1.0) for r in rows]
    summary = {
        "cases": len(rows),
        "min_spread": min(spreads) if spreads else 0.0,
        "max_spread": max(spreads) if spreads else 0.0,
        "all_pass": all(r["pass"] for r in rows),
    }
    times["total"] = time.perf_counter() - t0
    return Report(asdict(cfg), rows, summary, summary["all_pass"], times)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _csv_cell(x) -> str:
    text = _fmt(x)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_report(report: Report, path, fmt: str = "json"):
    """Write the report with stable ordering and 17 significant digits."""
    if fmt == "json":
        payload = {
            "config": report.config,
            "rows": [{k: (_fmt(v) if isinstance(v, float) else v)
                      for k, v in sorted(r.items())} for r in report.rows],
            "summary": {k: (_fmt(v) if isinstance(v, float) else v)
                        for k, v in sorted(report.summary.items())},
            "passed": report.passed,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
    elif fmt == "csv":
        cols = sorted({k for r in report.rows for k in r}) or ["case"]
        lines = [",".join(cols)]
        for r in report.rows:
            lines.append(",".join(_csv_cell(r.get(c, "")) for c in cols))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
