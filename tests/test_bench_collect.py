"""tools/bench_collect.py merges the parent's and the change's perfbench records
into a BENCH file: paired wins, spreads and the equality of exact counts."""

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
bench_collect = importlib.import_module("bench_collect")


def record(workload, trace, metrics, failed=0):
    """A perfbench result record; metrics maps name -> (value, unit)."""
    return {"env": {"workload": workload, "seed": 7}, "trace": trace,
            "attempted": 3, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def untraced(run_s, setup_s, rss, failed=0):
    return record("equiv_1d", 0, {"run_s": (run_s, "s"), "setup_s": (setup_s, "s"),
                                  "peak_rss_mb": (rss, "MB")}, failed)


def traced(workload, fft_calls, self_s, power_calls=6):
    return record(workload, 1, {"fft.calls": (fft_calls, "count"), "fft.self_s": (self_s, "s"),
                                "weights.MatrixWeight.power.calls": (power_calls, "count"),
                                "weights.MatrixWeight.power.self_s": (self_s / 5, "s"),
                                "weights.reducing_operators.calls": (2, "count"),
                                "weights.reducing_operators.self_s": (0.01, "s"),
                                "spaces.peetre_norm.calls": (4, "count"),
                                "fieldio.write_coeffs.calls": (1, "count"),
                                "fieldio.write_coeffs.self_s": (0.04, "s"),
                                "fieldio.read_coeffs.calls": (1, "count"),
                                "fieldio.read_coeffs.self_s": (self_s / 10, "s"),
                                "wavelets.wavelet_analyze.calls": (2, "count"),
                                "wavelets.wavelet_analyze.self_s": (self_s / 20, "s"),
                                "wavelets.wavelet_synthesize.calls": (3, "count"),
                                "wavelets.wavelet_synthesize.self_s": (0.02, "s"),
                                "fieldio.bytes": (100, "bytes")})


def test_collect_pairs_spreads_and_counts():
    parent = {("equiv_1d", 7, 0): [untraced(3.0, 0.2, 100.0), untraced(1.0, 0.2, 100.0),
                                   untraced(2.0, 0.2, 100.0)],
              ("equiv_1d", 7, 1): [traced("equiv_1d", 10, 0.5)],
              ("transforms", 7, 1): [traced("transforms", 10, 0.5)]}
    change = {("equiv_1d", 7, 0): [untraced(3.5, 0.2, 90.0), untraced(0.5, 0.2, 95.0),
                                   untraced(2.0, 0.2, 99.0, failed=1)],
              ("equiv_1d", 7, 1): [traced("equiv_1d", 10, 0.25)],
              ("transforms", 7, 1): [traced("transforms", 12, 0.5, power_calls=4)]}
    out = bench_collect.collect(parent, change)

    un = out["equiv_1d"]["seed7"]["untraced"]
    assert un["pairs"] == 3
    # run_s: one win (0.5 < 1.0), one tie (2.0) and one loss (3.5 > 3.0)
    assert un["run_s_pairs_change_won"] == 1
    assert un["setup_s_pairs_change_won"] == 0          # all ties
    assert un["peak_rss_mb_pairs_change_won"] == 3
    assert un["parent"]["run_s"] == {"runs": [3.0, 1.0, 2.0], "median": 2.0, "q1": 1.0, "q3": 3.0}
    assert un["change"]["run_s"] == {"runs": [3.5, 0.5, 2.0], "median": 2.0, "q1": 0.5, "q3": 3.5}
    assert un["change"]["peak_rss_mb"]["median"] == 95.0
    assert un["change"]["failed"] == [0, 0, 1]

    same = out["equiv_1d"]["seed7"]["traced"]
    assert same["counts_equal"] is True                  # self times differ, counts do not
    assert same["counts_differing"] == []
    assert same["change"]["fft.self_s"] == 0.25
    moved = out["transforms"]["seed7"]["traced"]
    assert moved["counts_equal"] is False
    assert moved["counts_differing"] == ["fft.calls", "weights.MatrixWeight.power.calls"]
    assert "untraced" not in out["transforms"]["seed7"]
    # the coefficient-file stages are reported, so a BENCH file shows where I/O time goes
    assert moved["change"]["fieldio.write_coeffs.calls"] == 1
    assert moved["parent"]["fieldio.read_coeffs.self_s"] == 0.05
    assert same["change"]["fieldio.read_coeffs.self_s"] == 0.025
    # so are the weight powers and reducing operators, so a BENCH file shows the powers
    # a diagnostics change stops taking
    assert (moved["parent"]["weights.MatrixWeight.power.calls"],
            moved["change"]["weights.MatrixWeight.power.calls"]) == (6, 4)
    assert same["change"]["weights.MatrixWeight.power.self_s"] == 0.05
    assert moved["change"]["weights.reducing_operators.calls"] == 2
    assert moved["parent"]["weights.reducing_operators.self_s"] == 0.01
    # and the wavelet transforms, so a BENCH file shows what the pyramid costs
    assert moved["change"]["wavelets.wavelet_analyze.calls"] == 2
    assert same["change"]["wavelets.wavelet_analyze.self_s"] == 0.0125
    assert moved["parent"]["wavelets.wavelet_synthesize.calls"] == 3
    assert moved["change"]["wavelets.wavelet_synthesize.self_s"] == 0.02


def write_records(directory, records):
    directory.mkdir()
    for i, rec in enumerate(records):
        (directory / f"run{i}.json").write_text(json.dumps(rec))


def test_collect_refuses_unequal_run_counts(tmp_path, capsys):
    # pairing with zip used to drop the longer side's extra runs without a word
    write_records(tmp_path / "parent", [untraced(3.0, 0.2, 100.0), untraced(1.0, 0.2, 100.0),
                                        untraced(2.0, 0.2, 100.0)])
    write_records(tmp_path / "change", [untraced(2.0, 0.2, 90.0), untraced(0.5, 0.2, 95.0)])
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(out)]
    assert bench_collect.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: equiv_1d seed 7:") and err.count("\n") == 1, err
    assert "parent has 3 untraced runs and the change 2" in err
    assert not out.exists()
    with pytest.raises(ValueError, match="parent has 3 untraced runs and the change 2"):
        bench_collect.collect(bench_collect.load_runs(str(tmp_path / "parent")),
                              bench_collect.load_runs(str(tmp_path / "change")))
    # equal counts pair up
    write_records(tmp_path / "more", [untraced(2.0, 0.2, 90.0)] * 3)
    assert bench_collect.main(argv[:3] + [str(tmp_path / "more"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["workloads"]["equiv_1d"]["seed7"]["untraced"]["pairs"] == 3
