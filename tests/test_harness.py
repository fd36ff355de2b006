import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmtl
from bmtl import fieldio
from bmtl.coeff import phi_transform
from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import CubeRange, DyadicCube
from bmtl.fields import SampledField
from bmtl.grid import TorusGrid
from bmtl.harness import (ExperimentConfig, band_limited_noise, emit_report, four_norms,
                          function_gallery, load_report, run_experiment)
from bmtl.lpa import make_admissible_pair, make_inhom_partition
from bmtl.operators import SymbolGrid
from bmtl.spaces import CubewiseWeighting, PointwiseWeighting, SpaceParams, seq_norm, tl_norm
from bmtl.weights import oscillating_weight, reducing_operators


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


def run_cli(*args):
    # the subprocess imports the bmtl this module imported, installed or not
    path = [str(Path(bmtl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "bmtl.cli", *args],
                          capture_output=True, text=True, env=env)


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
    for bad in ("[1,2]", json.dumps({**good, "j_min": None}),
                json.dumps({**good, "j_max": 2.5})):
        res = run_cli("norm", "--space", "F", "--params", bad, "--field", str(fpath))
        assert res.returncode == 2, bad
        assert "Traceback" not in res.stderr
        assert res.stderr.count("\n") == 1, res.stderr
    for bad_p in ("abc", None):
        bad = json.dumps({"s": 0.5, "p": bad_p, "q": 1.5, "t": 2})
        res = run_cli("norm", "--space", "F", "--params", bad, "--field", str(fpath))
        assert res.returncode == 2, bad_p
        assert "Traceback" not in res.stderr
    out = tmp_path / "band.bin"
    res = run_cli("filter", "--field", str(fpath), "--level", "2", "--out", str(out))
    assert res.returncode == 0
    assert out.exists()


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


def test_cli_malformed_coefficient_records(tmp_path):
    g = TorusGrid(1, 2, 5)
    cpath = tmp_path / "c.jsonl"
    fieldio.write_coeffs(cpath, CoeffSequence(g, {DyadicCube(1, (3,)): np.ones(1)}, 1))
    header = cpath.read_text().splitlines()[0]
    for rec in ({"cube": [1, 3], "value": [[1.0, 0.0]]},     # index not a list
                {"cube": [1, [3]], "value": [1.0, 0.0]},     # value not [re, im] pairs
                {"cube": [1, [3]], "value": [[1.0, 0.0], [2.0, 0.0]]}):   # wrong length
        bad = tmp_path / "bad.jsonl"
        bad.write_text(header + "\n" + json.dumps(rec) + "\n")
        res = run_cli("transform", "--mode", "phi", "--direction", "synthesize",
                      "--field", str(bad), "--out", str(tmp_path / "out.bin"))
        assert res.returncode == 2, rec
        assert "Traceback" not in res.stderr


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
             '{"weights": ["nope"]}': ("weights", "oscillating")}
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
        sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf, homogeneous=bank.homogeneous)
        f = band_limited_noise(grid, 2, 0.0, 2.0 ** cube_range.j_max,
                               np.random.default_rng(43))
        family = reducing_operators(W, sp.p, cube_range)
        pw, cw = PointwiseWeighting(W, sp.p), CubewiseWeighting(family)
        coeffs = phi_transform(f, bank, cube_range)
        separate = {"F_W": tl_norm(f, pw, sp, bank, cube_range).value,
                    "F_AQ": tl_norm(f, cw, sp, bank, cube_range).value,
                    "f_W": seq_norm(coeffs, pw, sp, cube_range).value,
                    "f_AQ": seq_norm(coeffs, cw, sp, cube_range).value}
        inverse = []
        ifftn = np.fft.ifftn
        monkeypatch.setattr(np.fft, "ifftn", lambda *a, **k: inverse.append(1) or ifftn(*a, **k))
        norms = four_norms(f, W, sp.p, sp, bank, cube_range, family)
        monkeypatch.undo()
        assert len(inverse) == len(cube_range.band_levels())
        assert sorted(norms) == sorted(separate)
        for key, val in separate.items():
            assert val > 0
            assert norms[key] == pytest.approx(val, rel=1e-12, abs=0), key
