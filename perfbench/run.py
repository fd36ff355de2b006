"""bmtl benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload equiv_1d --seed 1 --seconds 20 --trace 0

Run from the root of a bmtl checkout (the library is imported from `src/`).
With `--trace 0` it times whole repetitions of the workload with tracing off
and reports `run_s`, `setup_s` and `peak_rss_mb`; with `--trace 1` it
alternates untraced and traced repetitions and reports the per-layer metrics
(`<module>.<function>.calls` / `.self_s`, the work counters) and the tracing
overhead.  Every repetition is checked against the criteria tolerances and,
where one is recorded for the seed, against the reference values in
`reference.json`; every run also checks the tiny-scale reference.  A failed
check or an exception counts as a failed case, never aborts the run.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A full record (environment stamp, every sample, every failed case) goes to
`.perfbench/results/`, and the traced run's spans to a `.spans.jsonl` file
beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

DEFAULT_SEED = 20251017
HELDOUT_SEED = 7
#: seed of the tiny-scale reference instance that every run re-checks
TINY_REF_SEED = 1
#: relative (and absolute, for exact zeros) drift allowed against reference.json
DRIFT_RTOL = 1e-9
DRIFT_ATOL = 1e-12
#: setup is measured this many times per run, in fresh processes
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("equiv_1d", "characterize_1d", "diagnose_1d", "transforms")


def pin_threads() -> int:
    """Cap the BLAS/OpenMP pools at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        n = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(n)
    return nproc


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("desk", "tiny"), default="desk")
    ap.add_argument("--probe-setup", action="store_true",
                    help="import and build the inputs once, then exit (times setup_s)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment stamp


def git_sha(root: str):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over the library sources, so results are tied to code without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "bmtl")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def env_stamp(args, nproc: int, grids: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": {var: int(os.environ[var]) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "grids": grids,
    }


# ---------------------------------------------------------------------------
# checks


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def drift_cases(values: dict, ref: dict, prefix: str = "") -> list:
    cases = []
    for key, want in sorted(ref.items()):
        got = values.get(key)
        ok = got is not None and abs(got - want) <= DRIFT_ATOL + DRIFT_RTOL * abs(want)
        cases.append({"case": f"{prefix}drift {key}", "ok": ok,
                      "detail": f"got {got!r}, reference {want!r}"})
    return cases


def evaluate(wl, inp, out, ref, prefix: str = "") -> list:
    """Criteria cases plus drift cases; an exception is one failed case."""
    try:
        cases, values = wl.check(inp, out)
    except Exception as exc:  # noqa: BLE001 - a broken check is a failed case
        return [{"case": f"{prefix}check", "ok": False, "detail": repr(exc)}]
    for c in cases:
        c["case"] = prefix + c["case"]
    if ref is not None:
        cases += drift_cases(values, ref, prefix)
    return cases


# ---------------------------------------------------------------------------
# measurement


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def time_setup(args) -> tuple:
    """Wall seconds of fresh processes that import bmtl and build one set of inputs,
    and a failed case for each such process that did not exit 0."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times, cases = [], []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            cases.append({"case": f"setup probe {i}", "ok": False,
                          "detail": proc.stderr.strip()[-300:]})
    return times, cases


def one_rep(wl, seed: int, scale: str, workdir: str, tracer=None):
    """Build fresh inputs (untimed), then time the workload; (inputs, outputs, s, error)."""
    try:
        inp = wl.build(seed, scale, workdir)
    except Exception as exc:  # noqa: BLE001 - counted as a failed case
        return None, None, 0.0, f"build raised {exc!r}"
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
        err = None
    except Exception as exc:  # noqa: BLE001 - counted as a failed case
        out, err = None, f"run raised {exc!r}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return inp, out, elapsed, err


def layer_metrics(tracers: list, traced_s: list, untraced_s: list) -> dict:
    from tracer import COUNTERS, traced_names

    per_rep = [t.layer_totals() for t in tracers]
    metrics = {}
    for name in traced_names():
        metrics[f"{name}.calls"] = (per_rep[0][name][0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(r[name][1] for r in per_rep), "s")
    for key in COUNTERS:
        metrics[key] = (tracers[0].counters[key], "bytes" if key.endswith("bytes") else "count")
    metrics["trace.spans"] = (len(tracers[0].spans), "count")
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(untraced_s),
                                   "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    if not os.path.isfile(os.path.join(ROOT, "src", "bmtl", "__init__.py")):
        print(f"perfbench: no bmtl sources at {os.path.join(ROOT, 'src', 'bmtl')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.probe_setup:
            wl.build(args.seed, args.scale, workdir)
            return 0
        return measure(args, nproc, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, nproc: int, wl, workdir: str) -> int:
    from tracer import Tracer

    reference = load_reference()
    ref = reference.get(args.scale, {}).get(str(args.seed), {}).get(args.workload)
    setup_s, cases = time_setup(args)
    reps, tracers = [], []
    min_reps = 2 if args.trace else 1
    t_loop = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        tracer = Tracer() if traced else None
        inp, out, elapsed, err = one_rep(wl, args.seed, args.scale, workdir, tracer)
        label = f"rep {len(reps)}: "
        if err is not None:
            cases.append({"case": f"{label}run", "ok": False, "detail": err})
        else:
            cases += evaluate(wl, inp, out, ref, label)
        reps.append({"traced": traced, "run_s": elapsed, "error": err})
        if traced:
            tracers.append(tracer)
        del inp, out
        spent = time.perf_counter() - t_loop
        typical = statistics.median(r["run_s"] for r in reps)
        if len(reps) >= min_reps and spent + typical > args.seconds:
            break
    # the tiny reference instance: catches numerical drift at any --seed
    tiny_ref = reference["tiny"][str(TINY_REF_SEED)][args.workload]
    inp, out, _, err = one_rep(wl, TINY_REF_SEED, "tiny", workdir)
    if err is not None:
        cases.append({"case": "tiny reference: run", "ok": False, "detail": err})
    else:
        cases += evaluate(wl, inp, out, tiny_ref, "tiny reference: ")

    untraced = [r["run_s"] for r in reps if not r["traced"]]
    traced_s = [r["run_s"] for r in reps if r["traced"]]
    if args.trace:
        metrics = layer_metrics(tracers, traced_s, untraced)
    else:
        metrics = {
            "run_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    failed = [c for c in cases if not c["ok"]]
    record = {
        "env": env_stamp(args, nproc, wl.grids(args.scale)),
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_checked": ref is not None,
        "run_s_samples": untraced,
        "run_s_tail": tail_percentile(untraced),
        "traced_run_s_samples": traced_s,
        "setup_s_samples": setup_s,
        "attempted": len(cases),
        "failed": len(failed),
        "failed_frac": len(failed) / len(cases),
        "failed_cases": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    stem = os.path.join(OUT_DIR, "results",
                        f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracers:
        with open(stem + ".spans.jsonl", "w") as fh:
            for i, tracer in enumerate(tracers):
                tracer.write_spans(fh, f"traced rep {i}")

    tail = record["run_s_tail"]
    print(f"workload {args.workload} scale {args.scale} seed {args.seed} "
          f"trace {args.trace} reps {len(reps)} ({len(traced_s)} traced)")
    print(f"run_s samples {len(untraced)}: median {statistics.median(untraced):.6g} s, "
          + (f"p{tail['percentile']:.4g} {tail['value']:.6g} s" if tail
             else "no percentile with >= 10 samples beyond it"))
    print(f"failed_frac {record['failed_frac']:.6g} ({len(failed)} of {len(cases)} cases)")
    for c in failed[:20]:
        print(f"FAILED {c['case']}: {c['detail']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"record {stem}.json")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(cases),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
