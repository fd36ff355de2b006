"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the tiny scale (1D N = 256, 2D 64^2): untraced at the
default and the held-out seed, and traced once.  It checks that

- every run exits 0 and ends with a correct result line whose metric names and
  units are exactly BENCHMARK.json's end_to_end (untraced) or per_layer
  (traced) metrics;
- every per_layer metric matches exactly one row of layers.json;
- the traced runs together call every function of the ROADMAP's baseline
  per-layer table and write spans with name, start, end and parent;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  run.py exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

#: the rows of the ROADMAP's baseline per-layer timing table
BASELINE_ROWS = (
    "spaces.lusin_norm", "spaces.tl_norm", "spaces.peetre_norm", "spaces.glambda_norm",
    "coeff.phi_transform", "coeff.phi_synthesis", "wavelets.wavelet_analyze",
    "wavelets.wavelet_synthesize", "weights.ap_dimensions", "weights.diagnose",
    "weights.strong_doubling_constant", "operators.psdo_apply", "coeff.ad_apply",
)


def bench_run(cwd: str, workload: str, seed: int, trace: int):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def main() -> int:
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "layers.json")) as fh:
        layer_rows = json.load(fh)["rows"]
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for name in expected[1]:
        hits = [r["layer"] for r in layer_rows
                if any(name == p or (p.endswith(".") and name.startswith(p))
                       for p in r["metrics"])]
        if len(hits) != 1:
            problems.append(f"{name}: matches layers.json rows {hits}")

    called = set()
    for workload in (w["name"] for w in bench["workloads"]):
        for seed, trace in ((run.DEFAULT_SEED, 0), (run.HELDOUT_SEED, 0), (run.DEFAULT_SEED, 1)):
            label = f"{workload} seed {seed} trace {trace}"
            before = len(problems)
            code, last, err = bench_run(run.ROOT, workload, seed, trace)
            if code != 0:
                problems.append(f"{label}: exit {code}: {err.strip()[-300:]}")
                continue
            result = json.loads(last)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metric names/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if trace:
                called |= {k[:-len(".calls")] for k, v in result["metrics"].items()
                           if k.endswith(".calls") and v["value"] > 0}
                spans = os.path.join(run.OUT_DIR, "results",
                                     f"{workload}-tiny-seed{seed}-trace1.spans.jsonl")
                with open(spans) as fh:
                    first = json.loads(fh.readline())
                if not {"name", "start", "end", "parent"} <= set(first):
                    problems.append(f"{label}: span record {first}")
            print("ok " if len(problems) == before else "BAD", label, flush=True)
    missing = [f for f in BASELINE_ROWS if f not in called]
    if missing:
        problems.append(f"traced runs never call {missing}")

    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    code, last, _ = bench_run(bare, "equiv_1d", run.DEFAULT_SEED, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or last.startswith("{"):
        problems.append(f"bare directory: exit {code}, last line {last!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
