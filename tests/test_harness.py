import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bmtl
from bmtl import cli, fieldio
from bmtl.coeff import phi_transform
from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import CubeRange, DyadicCube
from bmtl.fields import SampledField
from bmtl.grid import TorusGrid
from bmtl.harness import (ExperimentConfig, band_limited_noise, emit_report, four_norms,
                          function_gallery, load_report, run_experiment)
from bmtl.lpa import make_admissible_pair, make_inhom_partition
from bmtl.operators import SymbolGrid
from bmtl.spaces import (CubewiseWeighting, PointwiseWeighting, SpaceParams, seq_norm, tl_norm,
                         truncation_ratio)
from bmtl.weights import oscillating_weight, reducing_operators, weight_gallery


def small_config(tmp_path, **overrides):
    base = dict(dim=1, side_log2=2, res_log2=7, channels=2, j_min=-2, j_max=4,
                weights=["identity", "oscillating"],
                functions={"band_random": 2, "bump": 1, "harmonic": 1},
                seed=42, output=str(tmp_path / "report.json"))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    again = ExperimentConfig.from_json(path)
    assert again == cfg


def test_function_gallery_deterministic():
    g = TorusGrid(1, 2, 7)
    r = CubeRange(-2, 4)
    one = function_gallery(g, r, 2, {"band_random": 3, "bump": 1, "harmonic": 2}, seed=7)
    two = function_gallery(g, r, 2, {"band_random": 3, "bump": 1, "harmonic": 2}, seed=7)
    assert [n for n, _ in one] == [n for n, _ in two]
    for (_, a), (_, b) in zip(one, two):
        assert np.array_equal(a.values, b.values)


def test_equivalence_experiment_and_report_determinism(tmp_path):
    cfg = small_config(tmp_path)
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    assert rep1.summary["cases"] == len(rep1.rows) > 0
    assert rep1.passed
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(rep1, p1)
    emit_report(rep2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert "total" in rep1.wall_times  # timing lives on the object, not the payload


def test_identity_weight_equivalence_tight(tmp_path):
    cfg = small_config(tmp_path, weights=["identity"])
    rep = run_experiment(cfg)
    for row in rep.rows:
        assert row["spread"] <= 3.0


def test_report_csv_shape(tmp_path):
    cfg = small_config(tmp_path, functions={"band_random": 2})
    rep = run_experiment(cfg)
    csv_path = tmp_path / "rep.csv"
    emit_report(rep, csv_path, fmt="csv")
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == len(rep.rows) + 1
    header = lines[0].split(",")
    assert "spread" in header and "case" in header


def test_empty_gallery_report(tmp_path):
    cfg = small_config(tmp_path, functions={})
    rep = run_experiment(cfg)
    assert rep.rows == [] and rep.passed
    csv_path = tmp_path / "empty.csv"
    emit_report(rep, csv_path, fmt="csv")
    assert csv_path.read_text().strip() == "case"   # header-only


def test_report_json_load_round_trip(tmp_path):
    cfg = small_config(tmp_path, functions={"band_random": 1})
    rep = run_experiment(cfg)
    path = tmp_path / "rt.json"
    emit_report(rep, path)
    data = load_report(path)
    again = tmp_path / "rt2.json"
    with open(again, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
    assert json.loads(path.read_text()) == json.loads(again.read_text())


def test_diagnostics_experiment(tmp_path):
    cfg = small_config(tmp_path, kind="diagnostics", weights=["identity", "oscillating"],
                       space_params=[{"s": 0.0, "p": 2.0, "q": 2.0, "t": 3.0, "r": float("inf")}])
    rep = run_experiment(cfg)
    assert rep.passed
    assert all("ap_char" in row for row in rep.rows)


# ---------------------------------------------------------------------------
# file formats


def test_field_file_round_trip(tmp_path):
    g = TorusGrid(2, 1, 3)
    rng = np.random.default_rng(0)
    for complex_vals in (False, True):
        vals = rng.standard_normal(g.shape + (3,))
        if complex_vals:
            vals = vals + 1j * rng.standard_normal(g.shape + (3,))
        f = SampledField(g, vals)
        path = tmp_path / f"f_{complex_vals}.bin"
        fieldio.write_field(path, f)
        back = fieldio.read_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)
        header = json.loads(open(path, "rb").readline())
        assert set(header) == {"dim", "side_log2", "res_log2", "channels", "complex"}


def test_weight_file_round_trip(tmp_path):
    g = TorusGrid(1, 2, 5)
    W = oscillating_weight(g)
    path = tmp_path / "w.bin"
    fieldio.write_weight(path, W)
    back = fieldio.read_weight(path)
    assert np.allclose(back.values, W.values)


def test_symbol_file_round_trip(tmp_path):
    g = TorusGrid(1, 1, 4)
    rng = np.random.default_rng(1)
    sym = SymbolGrid(g, rng.standard_normal(g.shape * 2) + 1j * rng.standard_normal(g.shape * 2))
    path = tmp_path / "s.bin"
    fieldio.write_symbol(path, sym)
    back = fieldio.read_symbol(path)
    assert np.array_equal(back.values, sym.values)


def test_coeff_file_round_trip(tmp_path):
    g = TorusGrid(1, 2, 5)
    entries = {DyadicCube(1, (3,)): np.array([1.0 + 2.0j, -0.5 + 0.0j]),
               DyadicCube(2, (0,)): np.array([0.0 + 0.0j, 3.25 + 0.5j])}
    seq = CoeffSequence(g, entries, 2)
    path = tmp_path / "c.jsonl"
    fieldio.write_coeffs(path, seq)
    back = fieldio.read_coeffs(path)
    assert back.channels == 2
    for cube, vec in entries.items():
        assert np.array_equal(back.get(cube), vec)


# ---------------------------------------------------------------------------
# CLI


def run_python(*args):
    # the subprocess imports the bmtl this module imported, installed or not
    path = [str(Path(bmtl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args):
    """bmtl args, run in this process through cli.main: its exit code and captured
    output.  SystemExit (argparse's errors) gives the exit code; any other
    exception propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(["bmtl", *args], code, out.getvalue(), err.getvalue())


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only: importing it would add ~0.4 s to every bmtl process
    res = run_python("-c", "import sys, bmtl.cli; print([m for m in sys.modules"
                           " if m.split('.')[0] == 'scipy'])")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_entry_point_exit_code(tmp_path):
    # the other CLI tests call cli.main in-process; this one goes through python -m
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"header": {"dim": 1, "side_log2": 2, "res_log2": 5, "channels": 1}}\n'
                   '{"cube": [1, [3.5]], "value": [[1.0, 0.0]]}\n')
    res = run_python("-m", "bmtl.cli", "transform", "--mode", "phi", "--direction",
                     "synthesize", "--field", str(bad), "--out", str(tmp_path / "out.bin"))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("error: line 2: cube index") and res.stderr.count("\n") == 1


def test_cli_check_ap_and_reduce(tmp_path):
    g = TorusGrid(1, 2, 5)
    wpath = tmp_path / "w.bin"
    fieldio.write_weight(wpath, oscillating_weight(g))
    res = run_cli("check-ap", "--weight", str(wpath), "--p", "2.0")
    assert res.returncode == 0, res.stderr
    diag = json.loads(res.stdout)
    assert diag["ap_char"] >= 1.0
    res = run_cli("reduce", "--weight", str(wpath), "--p", "2.0", "--dirs", "64")
    assert res.returncode == 0
    assert json.loads(res.stdout)["ratio"] <= 1.0 + 1e-8
    bad_args = {("--p", "nan"): "p must be finite and positive",
                ("--p", "2.0", "--j-max", "99"): "j_max 99 exceeds grid resolution minus margin (5)"}
    for cmd in ("check-ap", "reduce"):
        for args, message in bad_args.items():
            res = run_cli(cmd, "--weight", str(wpath), *args)
            assert res.returncode == 2, (cmd, args, res.stdout)
            assert res.stdout == ""
            assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
            assert message in res.stderr, (cmd, res.stderr)


def test_cli_norm_and_filter(tmp_path):
    g = TorusGrid(1, 2, 7)
    rng = np.random.default_rng(2)
    f = band_limited_noise(g, 1, 0.5, 4.0, rng)
    fpath = tmp_path / "f.bin"
    fieldio.write_field(fpath, f)
    params = json.dumps({"s": 0.5, "p": 1.5, "q": 1.5, "t": 2.0, "r": "inf",
                         "j_min": -2, "j_max": 4})
    res = run_cli("norm", "--space", "F", "--params", params, "--field", str(fpath))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["value"] > 0
    res = run_cli("norm", "--space", "bm",
                  "--params", json.dumps({"p": 1.5, "t": 2.0, "r": float("inf"),
                                          "j_min": -2, "j_max": 4}),
                  "--field", str(fpath))
    assert res.returncode == 2  # bm needs a nonnegative scalar; complex noise sign flips
    apath = tmp_path / "abs.bin"
    fieldio.write_field(apath, SampledField(g, np.abs(f.values)))
    bm_params = {"p": 1.5, "t": 2, "r": "inf", "j_min": -2, "j_max": 4}
    res = run_cli("norm", "--space", "bm", "--params", json.dumps(bm_params),
                  "--field", str(apath))
    assert res.returncode == 0, res.stderr
    assert np.isfinite(json.loads(res.stdout)["value"])
    no_r = {k: v for k, v in bm_params.items() if k != "r"}    # r defaults to infinity
    res_no_r = run_cli("norm", "--space", "bm", "--params", json.dumps(no_r),
                       "--field", str(apath))
    assert res_no_r.returncode == 0, res_no_r.stderr
    assert json.loads(res_no_r.stdout) == json.loads(res.stdout)
    for bad in ({**bm_params, "r": "abc"}, {**bm_params, "p": "abc"}):
        res = run_cli("norm", "--space", "bm", "--params", json.dumps(bad),
                      "--field", str(apath))
        assert res.returncode == 2, bad
        assert "Traceback" not in res.stderr
    good = {"s": 0.5, "p": 1.5, "q": 1.5, "t": 2}
    window = {**good, "j_min": -2, "j_max": 4}
    # the range's inhomogeneous flag, a JSON boolean, is the one switch
    both = json.dumps({**window, "inhomogeneous": True, "homogeneous": True})
    for space, bad, msg in (("F", "[1,2]", "JSON object"),
                            ("F", json.dumps({**good, "j_min": None}), "j_min"),
                            ("F", json.dumps({**good, "j_max": 2.5}), "j_max"),
                            ("F", both, "unknown 'homogeneous'"),
                            ("f", both, "unknown 'homogeneous'"),
                            ("peetre", both, "unknown 'homogeneous'"),
                            ("F", json.dumps({**window, "inhomogeneous": "false"}),
                             "inhomogeneous must be a boolean"),
                            ("F", json.dumps({**window, "inhomogenous": True}),
                             "unknown 'inhomogenous'"),
                            ("bm", json.dumps({**bm_params, "q": 1.5}), "unknown 'q'"),
                            ("approx", json.dumps(window),
                             "approximation norm is defined on inhomogeneous spaces")):
        res = run_cli("norm", "--space", space, "--params", bad, "--field", str(fpath))
        assert res.returncode == 2, (space, bad)
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
        assert msg in res.stderr, res.stderr
    for bad_p in ("abc", None):
        bad = json.dumps({"s": 0.5, "p": bad_p, "q": 1.5, "t": 2})
        res = run_cli("norm", "--space", "F", "--params", bad, "--field", str(fpath))
        assert res.returncode == 2, bad_p
        assert "Traceback" not in res.stderr
    for space, key, bad_value in (("peetre", "a", "x"), ("glambda", "lambda", None)):
        bad = json.dumps({**good, key: bad_value})
        res = run_cli("norm", "--space", space, "--params", bad, "--field", str(fpath))
        assert res.returncode == 2, (space, res.stderr)
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
        assert key in res.stderr
    for space, key in (("F", "s"), ("peetre", "a"), ("glambda", "lambda")):
        bad = json.dumps({**good, key: "nan"})
        res = run_cli("norm", "--space", space, "--params", bad, "--field", str(fpath))
        assert res.returncode == 2, (space, res.stderr)
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
        assert f"parameter {key} " in res.stderr, res.stderr
    # p = inf raised every cube sum to 1/p = 0, so each of these printed 1.0 and
    # exited 0; s = inf ended in "norm value must be nonnegative, got nan"
    inf_p = {"p": "inf", "t": "inf"}
    cases = [(("norm", "--space", space, "--params", json.dumps({**window, **inf_p})), "p")
             for space in ("F", "f", "peetre", "lusin")]
    cases += [(("norm", "--space", "bm", "--params", json.dumps({**bm_params, **inf_p})), "p"),
              (("bound", "--op", "hilbert", "--params", json.dumps({**window, **inf_p})), "p"),
              (("norm", "--space", "F", "--params", json.dumps({**window, "s": "inf"})), "s")]
    for args, key in cases:
        res = run_cli(*args, "--field", str(apath))
        assert res.returncode == 2, (args, res.stdout)
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
        assert f"parameter {key} must be finite" in res.stderr, res.stderr
    out = tmp_path / "band.bin"
    res = run_cli("filter", "--field", str(fpath), "--level", "2", "--out", str(out))
    assert res.returncode == 0
    assert out.exists()


def test_cli_norm_truncation_with_every_weighting(tmp_path):
    # the check reads the norm one level past each end of the range: the cubewise
    # family is built on the widened range (each level's A_Q on its own, so the
    # value is unchanged), and the sequence space takes the phi coefficients of the
    # widened range, so its ratio tracks the function space's
    g = TorusGrid(1, 2, 7)
    W = oscillating_weight(g)
    fpath, wpath = tmp_path / "f.bin", tmp_path / "w.bin"
    fieldio.write_field(fpath, band_limited_noise(g, W.channels, 0.5, 4.0,
                                                  np.random.default_rng(2)))
    fieldio.write_weight(wpath, W)
    params = json.dumps({"s": 0.5, "p": 1.5, "q": 1.5, "t": 2.0, "j_min": -1, "j_max": 3})
    ratios = {}
    for space in ("F", "f"):
        for cubewise in ((), ("--cubewise",)):
            args = ("norm", "--space", space, "--params", params, "--field", str(fpath),
                    "--weight", str(wpath), *cubewise)
            plain, checked = run_cli(*args), run_cli(*args, "--truncation")
            assert plain.returncode == 0 and checked.returncode == 0, (space, checked.stderr)
            plain, checked = json.loads(plain.stdout), json.loads(checked.stdout)
            assert "truncation" not in plain
            assert checked["value"] == plain["value"], (space, cubewise)
            assert checked["truncation"] > 0, (space, cubewise)
            ratios[space, cubewise] = checked["truncation"]
    for cubewise in ((), ("--cubewise",)):
        assert abs(ratios["f", cubewise] / ratios["F", cubewise] - 1.0) <= 0.25, ratios


def test_cli_wavelet_analysis_names_the_j_min_range(tmp_path):
    # wavelet analysis reads --j-min alone: a j_min with no step left is refused with
    # the admissible range, whatever --j-max says, and an admissible one runs
    g = TorusGrid(1, 2, 4)
    fpath = tmp_path / "f.bin"
    fieldio.write_field(fpath, band_limited_noise(g, 1, 0.5, 4.0, np.random.default_rng(3)))
    base = ("transform", "--mode", "wavelet", "--direction", "analyze", "--field", str(fpath),
            "--out", str(tmp_path / "w"))
    for extra in (("--j-min", "4"), ("--j-min", "4", "--j-max", "2")):
        res = run_cli(*base, *extra)
        assert res.returncode == 2, extra
        assert res.stderr == "error: wavelet j_min 4 outside [-2, 3]\n", res.stderr
    res = run_cli(*base, "--j-min", "3", "--j-max", "1")
    assert res.returncode == 0, res.stderr
    assert fieldio.read_coeffs(tmp_path / "w.gen1").levels() == [3]
    res = run_cli("transform", "--help")
    assert res.returncode == 0
    assert "wavelet analysis reads --j-min alone" in " ".join(res.stdout.split())


def test_cli_transform_and_bound(tmp_path):
    g = TorusGrid(1, 2, 7)
    rng = np.random.default_rng(3)
    f = band_limited_noise(g, 1, 0.5, 4.0, rng)
    fpath = tmp_path / "f.bin"
    fieldio.write_field(fpath, f)
    cpath = tmp_path / "c.jsonl"
    res = run_cli("transform", "--mode", "phi", "--direction", "analyze",
                  "--field", str(fpath), "--out", str(cpath),
                  "--j-min", "-2", "--j-max", "4")
    assert res.returncode == 0, res.stderr
    back = tmp_path / "back.bin"
    res = run_cli("transform", "--mode", "phi", "--direction", "synthesize",
                  "--field", str(cpath), "--out", str(back))
    assert res.returncode == 0
    rec = fieldio.read_field(back)
    assert np.max(np.abs(rec.values - f.values)) < 1e-6
    header = cpath.read_text().splitlines()[0]
    for cube in ([1, [99]], [1, [1, 2]], [40, [1]]):   # index, dimension, level off the grid
        bad = tmp_path / "bad.jsonl"
        bad.write_text(header + "\n" + json.dumps({"cube": cube, "value": [[1.0, 0.0]]}) + "\n")
        res = run_cli("transform", "--mode", "phi", "--direction", "synthesize",
                      "--field", str(bad), "--out", str(back))
        assert res.returncode == 2, cube
        assert "Traceback" not in res.stderr
    res = run_cli("transform", "--mode", "wavelet", "--direction", "synthesize",
                  "--field", str(cpath), "--out", str(back))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "wavelet synthesis needs the full generator set" in res.stderr
    params = json.dumps({"s": 0.5, "p": 1.5, "q": 1.5, "t": 2.0, "r": "inf",
                         "j_min": -2, "j_max": 4})
    res = run_cli("bound", "--op", "hilbert", "--field", str(fpath), "--params", params)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["ratio"] <= 50.0
    res = run_cli("bound", "--op", "multiplier", "--field", str(fpath),
                  "--params", params, "--gamma", "2")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["ratio"] <= 50.0
    # a scale index that is not an integer, and a threshold that is not positive
    for bad, msg in ((("--op", "multiplier", "--gamma", "inf"), "--gamma must be an integer"),
                     (("--op", "multiplier", "--gamma", "1e400"), "--gamma must be an integer"),
                     (("--op", "multiplier", "--gamma", "1.5"), "--gamma must be an integer"),
                     (("--op", "hilbert", "--threshold", "nan"), "--threshold must be positive")):
        res = run_cli("bound", *bad, "--field", str(fpath), "--params", params)
        assert res.returncode == 2, bad
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
        assert msg in res.stderr, res.stderr
    window = json.loads(params)
    for bad, msg in ((dict(window, inhomogeneous="false"), "inhomogeneous must be a boolean"),
                     (dict(window, inhomogeneous=True, homogeneous=True), "unknown 'homogeneous'"),
                     (dict(window, a=3.0), "unknown 'a'")):
        res = run_cli("bound", "--op", "hilbert", "--field", str(fpath),
                      "--params", json.dumps(bad))
        assert res.returncode == 2, bad
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
        assert msg in res.stderr, res.stderr
    res = run_cli("bound", "--op", "psdo", "--field", str(fpath), "--params", params)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    assert "--symbol" in res.stderr
    zpath = tmp_path / "zero.bin"
    fieldio.write_field(zpath, SampledField(g, np.zeros_like(f.values)))
    res = run_cli("bound", "--op", "bessel", "--field", str(zpath), "--params", params)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert json.loads(res.stdout)["ratio"] == float("inf")
    wpath = tmp_path / "w.bin"
    fieldio.write_weight(wpath, oscillating_weight(TorusGrid(1, 2, 5)))
    res = run_cli("reduce", "--weight", str(wpath), "--p", "2.0", "--dirs", "0")
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    assert "--dirs must be positive" in res.stderr


def test_cli_malformed_coefficient_records(tmp_path):
    g = TorusGrid(1, 2, 5)
    cpath = tmp_path / "c.jsonl"
    fieldio.write_coeffs(cpath, CoeffSequence(g, {DyadicCube(1, (3,)): np.ones(1)}, 1))
    header, good = cpath.read_text().splitlines()[:2]
    first = json.dumps({"cube": [2, [0]], "value": [[1.0, 0.0]]})
    ok = {"cube": [1, [3]], "value": [[1.0, 0.0]]}
    # (record lines after a good line 2, the first bad line, what its message says);
    # each used to exit 2 unnamed, crash, or be read silently
    cases = [([{"cube": [1, 3], "value": [[1.0, 0.0]]}], 3, "cube index must be a list"),
             ([{"cube": [1, [3]], "value": [1.0, 0.0]}], 3, "value must be 1 [re, im] pairs"),
             ([{"cube": [1, [3]], "value": [[1.0, 0.0], [2.0, 0.0]]}], 3,
              "value must be 1 [re, im] pairs"),
             ([{"cube": [1.0, [3]], "value": [[1.0, 0.0]]}], 3,
              "cube level must be a JSON integer, got 1.0"),
             ([{"cube": [1, [3.7]], "value": [[1.0, 0.0]]}], 3,
              "cube index must be a list of 1 JSON integers, got [3.7]"),
             ([{"cube": [True, [3]], "value": [[1.0, 0.0]]}], 3,
              "cube level must be a JSON integer, got true"),
             ([ok, {"cube": [3, [1]], "value": [[0.0, 0.0]]}, ok], 5,
              "cube [1, [3]] repeats line 3"),
             ([{"value": [[1.0, 0.0]]}], 3, "record has no 'cube' key"),
             ([{"cube": [1, [3]], "value": [[1.0, 0.0, 2.0]]}], 3,
              "value must be 1 [re, im] pairs of JSON numbers, got [[1.0, 0.0, 2.0]]"),
             ([ok, '{"cube": [1, [4]], "value": [[1.0, 0.0]]'], 4,
              "not JSON: Expecting ',' delimiter at column 41")]
    for recs, line, message in cases:
        bad = tmp_path / "bad.jsonl"
        body = [r if isinstance(r, str) else json.dumps(r) for r in recs]
        bad.write_text("\n".join([header, first, *body]) + "\n")
        res = run_cli("transform", "--mode", "phi", "--direction", "synthesize",
                      "--field", str(bad), "--out", str(tmp_path / "out.bin"))
        assert res.returncode == 2, recs
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith(f"error: line {line}: "), res.stderr
        assert res.stderr.count("\n") == 1 and message in res.stderr, res.stderr
    good_file = tmp_path / "good.jsonl"
    good_file.write_text("\n".join([header, first, good]) + "\n")
    res = run_cli("transform", "--mode", "phi", "--direction", "synthesize",
                  "--field", str(good_file), "--out", str(tmp_path / "out.bin"))
    assert res.returncode == 0, res.stderr


def test_cli_equiv_and_report(tmp_path):
    cfg = small_config(tmp_path, functions={"band_random": 1}, weights=["identity"])
    cfg_path = tmp_path / "cfg.json"
    cfg.to_json(cfg_path)
    res = run_cli("equiv", "--config", str(cfg_path))
    assert res.returncode == 0, res.stderr
    out_csv = tmp_path / "again.csv"
    res = run_cli("report", "--infile", cfg.output, "--format", "csv",
                  "--out", str(out_csv))
    assert res.returncode == 0
    assert out_csv.read_text().count("\n") >= 1
    cfg.output = str(tmp_path / "direct.csv")
    cfg.to_json(cfg_path)
    res = run_cli("equiv", "--config", str(cfg_path), "--format", "csv")
    assert res.returncode == 0, res.stderr
    assert out_csv.read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_cli_bad_config_exit_code(tmp_path):
    paths = [tmp_path / "missing.json"]
    # a field of the wrong type is named in the message (a string of weights
    # used to be read letter by letter, giving "error: 'i'")
    typed = {'{"j_min": "a"}': "j_min", '{"functions": {"bump": "x"}}': "functions",
             '{"channels": "2"}': "channels", '{"weights": "identity"}': "weights"}
    # an unknown name is refused before the sweep, naming its field and the known names
    named = {'{"functions": {"nope": 1}}': ("functions", "band_random, bump, harmonic"),
             '{"weights": ["nope"]}': ("weights", "oscillating"),
             '{"space_params": [{"s": 1, "p": 1, "q": 1, "t": 2, "nope": 1}]}':
                 ("space_params", "s, p, q, t, r")}
    typed.update((text, key) for text, (key, _) in named.items())
    for i, text in enumerate(("{not json", "[1]", '{"nope": 1}', *typed)):
        paths.append(tmp_path / f"bad{i}.json")
        paths[-1].write_text(text)
    for path in paths:
        res = run_cli("equiv", "--config", str(path))
        assert res.returncode == 2, path.name
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        key = typed.get(path.read_text()) if path.exists() else None
        assert key is None or key in res.stderr, res.stderr
        if path.exists() and path.read_text() in named:
            assert "'nope'" in res.stderr and named[path.read_text()][1] in res.stderr


def test_cli_malformed_field_files(tmp_path):
    g = TorusGrid(1, 2, 4)
    good = tmp_path / "f.bin"
    fieldio.write_field(good, SampledField(g, np.full(g.shape + (1,), 1.0 + 1.0j)))
    head, payload = good.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    bad_heads = ([1, 2], {**header, "channels": "1"}, {**header, "res_log2": 6.5},
                 {**header, "dim": True})
    files = [json.dumps(h).encode() + b"\n" + payload for h in bad_heads]
    files += [head + b"\n" + payload[:-8], head + b"\n" + payload + bytes(16)]
    bad = tmp_path / "bad.bin"
    for blob in files:
        bad.write_bytes(blob)
        res = run_cli("filter", "--field", str(bad), "--level", "1",
                      "--out", str(tmp_path / "out.bin"))
        assert res.returncode == 2, blob[:80]
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr


def test_cli_missing_keys_and_off_lattice_levels(tmp_path):
    # each used to end in a bare KeyError ("error: 'p'") or, for the filter, exit 0
    # with an all-zero band
    g = TorusGrid(1, 2, 4)
    fpath = tmp_path / "f.bin"
    fieldio.write_field(fpath, band_limited_noise(g, 1, 0.5, 2.0, np.random.default_rng(5)))
    cpath = tmp_path / "c.jsonl"
    fieldio.write_coeffs(cpath, CoeffSequence(g, {DyadicCube(1, (3,)): np.ones(1)}, 1))
    head, body = cpath.read_text().split("\n", 1)
    header = json.loads(head)["header"]
    no_side = tmp_path / "no_side.jsonl"
    no_side.write_text(json.dumps({"header": {k: v for k, v in header.items()
                                              if k != "side_log2"}}) + "\n" + body)
    no_header = tmp_path / "no_header.jsonl"
    no_header.write_text(json.dumps(header) + "\n" + body)
    out = str(tmp_path / "out.bin")
    cases = [(("bound", "--op", "hilbert", "--field", str(fpath), "--params", '{"s": 0.5}'),
              "missing parameters: p, q, t"),
             (("transform", "--mode", "phi", "--direction", "synthesize",
               "--field", str(no_side), "--out", out), "'side_log2' must be int"),
             (("transform", "--mode", "phi", "--direction", "synthesize",
               "--field", str(no_header), "--out", out), "'header' must be dict")]
    cases += [(("filter", "--field", str(fpath), "--level", level, "--out", out),
               f"--level {level}: the band meets the frequency lattice only at levels -2..3")
              for level in ("99", "-99", "4", "-3")]
    for args, message in cases:
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert message in res.stderr, res.stderr
    res = run_cli("filter", "--field", str(fpath), "--level", "3", "--out", out)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["l2"] > 0


def test_cli_overflow_and_nonfinite_gamma(tmp_path):
    # each overflow ended in an OverflowError traceback with exit 1; a non-finite
    # Bessel order printed a numpy RuntimeWarning, then an error that named no option
    g = TorusGrid(1, 2, 5)
    fpath = tmp_path / "f.bin"
    fieldio.write_field(fpath, band_limited_noise(g, 1, 0.5, 2.0, np.random.default_rng(6)))
    window = {"s": 0.5, "p": 1.5, "q": 1.5, "t": 2, "j_min": -2, "j_max": 3}
    cases = [(("bound", "--op", "multiplier", "--gamma", "1100",
               "--params", json.dumps(window), "--field", str(fpath)), "input overflowed")]
    cases += [(("norm", "--space", "F", "--params", json.dumps({**window, **big}),
                "--field", str(fpath)), "input overflowed")
              for big in ({"s": 1e308}, {"p": 1e-300})]
    # the order is refused before the field is read: this path does not exist
    cases += [(("bound", "--op", "bessel", f"--gamma={gamma}", "--params", json.dumps(window),
                "--field", str(tmp_path / "missing.bin")), "--gamma must be finite")
              for gamma in ("inf", "-inf", "nan")]
    for args, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert message in res.stderr, res.stderr


def test_cli_bessel_overflow_names_gamma(tmp_path):
    # a large Bessel order overflowed the multiplier: numpy RuntimeWarnings, then an
    # error that named no option
    g = TorusGrid(1, 2, 6)
    fpath = tmp_path / "f.bin"
    fieldio.write_field(fpath, band_limited_noise(g, 1, 0.5, 4.0, np.random.default_rng(6)))
    window = json.dumps({"s": 0.5, "p": 1.5, "q": 1.5, "t": 2, "j_min": -2, "j_max": 3})
    for gamma, code in (("1e6", 2), ("400", 2), ("200", 2), ("-400", 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_cli("bound", "--op", "bessel", f"--gamma={gamma}", "--params", window,
                          "--field", str(fpath))
        assert res.returncode == code, (gamma, res.stderr)
        if code == 2:
            assert res.stdout == ""
            assert res.stderr.startswith("error: --gamma ") and res.stderr.count("\n") == 1, \
                res.stderr
        else:
            assert res.stderr == ""
            assert 0.0 < json.loads(res.stdout)["ratio"] < 1.0
    # s + gamma itself overflows
    huge = json.dumps({"s": 1e308, "p": 1.5, "q": 1.5, "t": 2, "j_min": -2, "j_max": 3})
    res = run_cli("bound", "--op", "bessel", "--gamma=1e308", "--params", huge,
                  "--field", str(fpath))
    assert res.returncode == 2
    assert res.stderr == "error: --gamma 1e+308 overflows the shifted smoothness s + gamma\n"


def test_equivalence_experiment_2d(tmp_path):
    cfg = small_config(tmp_path, dim=2, side_log2=1, res_log2=4, j_min=-1, j_max=2,
                       weights=["identity", "oscillating"],
                       functions={"band_random": 2})
    rep = run_experiment(cfg)
    assert rep.rows and rep.passed


def test_csv_quotes_commas(tmp_path):
    import csv
    cfg = small_config(tmp_path, functions={"band_random": 1}, weights=["identity"])
    rep = run_experiment(cfg)
    path = tmp_path / "quoted.csv"
    emit_report(rep, path, fmt="csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep.rows)
    assert rows[0]["case"] == rep.rows[0]["case"]


def test_equivalence_finite_r(tmp_path):
    cfg = small_config(tmp_path, weights=["oscillating"],
                       functions={"band_random": 2},
                       space_params=[{"s": 0.5, "p": 1.5, "q": 1.5, "t": 2.0, "r": 3.0}])
    rep = run_experiment(cfg)
    assert rep.passed
    assert all(row["spread"] <= 50.0 for row in rep.rows)


def test_equivalence_inhomogeneous(tmp_path):
    cfg = small_config(tmp_path, inhomogeneous=True, j_min=0, j_max=4,
                       weights=["oscillating"], functions={"band_random": 2, "bump": 1})
    rep = run_experiment(cfg)
    assert rep.passed
    assert all(row["spread"] <= 50.0 for row in rep.rows)


def test_hypothesis_flag_when_q_exceeds_p(tmp_path):
    cfg = small_config(tmp_path, weights=["identity"], functions={"band_random": 1},
                       space_params=[{"s": 0.5, "p": 1.5, "q": 2.5, "t": 3.0,
                                      "r": float("inf")}])
    rep = run_experiment(cfg)
    assert all(row["hypothesis_unverifiable"] for row in rep.rows)
    assert "min_spread" in rep.summary and "max_spread" in rep.summary


@pytest.mark.parametrize("grid, ranges", [
    (TorusGrid(1, 2, 6), (CubeRange(-2, 4), CubeRange(-2, 4, inhomogeneous=True))),
    (TorusGrid(2, 1, 4), (CubeRange(-1, 2), CubeRange(-1, 2, inhomogeneous=True))),
])
def test_four_norms_one_band_pass(grid, ranges, monkeypatch):
    W = oscillating_weight(grid)
    for bank, cube_range in zip((make_admissible_pair(), make_inhom_partition()), ranges):
        sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf, homogeneous=not cube_range.inhomogeneous)
        f = band_limited_noise(grid, 2, 0.0, 2.0 ** cube_range.j_max,
                               np.random.default_rng(43))
        family = reducing_operators(W, sp.p, cube_range)
        pw, cw = PointwiseWeighting(W, sp.p), CubewiseWeighting(family)
        coeffs = phi_transform(f, bank, cube_range)
        separate = {"F_W": tl_norm(f, pw, sp, bank, cube_range).value,
                    "F_AQ": tl_norm(f, cw, sp, bank, cube_range).value,
                    "f_W": seq_norm(coeffs, pw, sp, cube_range).value,
                    "f_AQ": seq_norm(coeffs, cw, sp, cube_range).value}
        # inverse transforms of either kind: a real f's bands come back by irfftn
        inverse = []
        for name in ("ifftn", "irfftn"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, fn=fn, **k: inverse.append(1) or fn(*a, **k))
        norms = four_norms(f, W, sp, bank, cube_range, family)
        monkeypatch.undo()
        assert len(inverse) == len(cube_range.band_levels())
        assert sorted(norms) == sorted(separate)
        for key, val in separate.items():
            assert val > 0
            assert norms[key] == pytest.approx(val, rel=1e-12, abs=0), key


@pytest.mark.parametrize("inhomogeneous, inverse_ffts", [(False, 32), (True, 24)])
def test_run_experiment_one_pass_per_function(tmp_path, monkeypatch, inhomogeneous,
                                              inverse_ffts):
    """The sweep's rows are the per-case four_norms and truncation rows bit for bit,
    in (weight, function) order, from one band pass per function for all weights
    and one widened pass per function for every truncation check."""
    cfg = small_config(tmp_path, weights=["identity", "rotated_power", "oscillating"],
                       functions={"band_random": 2}, inhomogeneous=inhomogeneous)
    grid, cube_range = cfg.grid(), cfg.cube_range()
    assert cube_range.widened(grid) != cube_range     # the truncation check runs
    inverse = []
    for name in ("ifftn", "irfftn"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, fn=fn, **k: inverse.append(1) or fn(*a, **k))
    rep = run_experiment(cfg)
    monkeypatch.undo()
    # 2 for the gallery, then 7 band levels plus 8 widened per function (6 and 5
    # inhomogeneous); one pass per case would take 92 (68)
    assert len(inverse) == inverse_ffts

    sp, = cfg.spaces()
    bank = make_inhom_partition() if inhomogeneous else make_admissible_pair()
    gallery = function_gallery(grid, cube_range, cfg.channels, cfg.functions, cfg.seed)
    weights = weight_gallery(grid, cfg.channels)
    expected = []
    for wname in cfg.weights:
        W = weights[wname]
        for fname, f in gallery:
            norms = four_norms(f, W, sp, bank, cube_range)
            trunc = truncation_ratio(norms["F_W"], grid, cube_range, lambda wide: tl_norm(
                f, PointwiseWeighting(W, sp.p), sp, bank, wide))
            vals = [v for v in norms.values() if v > 0]
            spread = max(vals) / min(vals)
            expected.append({"case": f"{wname}/{fname}/s={sp.s},p={sp.p},q={sp.q}", **norms,
                             "spread": spread, "truncation": trunc,
                             "truncation_flag": abs(trunc - 1.0) > 0.01,
                             "hypothesis_unverifiable": False,
                             "pass": spread <= cfg.threshold})
    assert rep.rows == expected
    assert sorted(rep.wall_times) == sorted(
        [f"{fname}/s={sp.s},p={sp.p},q={sp.q}" for fname, _ in gallery] + ["total"])
