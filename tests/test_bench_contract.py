"""The benchmark's tiny reference instances must pass against this library.

perfbench/run.py checks every repetition against the criteria tolerances and
against perfbench/reference.json.  Running each workload's tiny instance once,
traced, here makes a change that breaks what the benchmark relies on fail in
the test suite rather than only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
run = importlib.import_module("run")
tracer = importlib.import_module("tracer")
workloads = importlib.import_module("workloads")

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_reference_instance(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    ref = run.load_reference()["tiny"][str(SEED)][name]
    inp, out, _, err = run.one_rep(wl, SEED, "tiny", str(tmp_path), tracer.Tracer())
    assert err is None, err
    failed = [c for c in run.evaluate(wl, inp, out, ref) if not c["ok"]]
    assert failed == []
