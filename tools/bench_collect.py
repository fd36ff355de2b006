"""Merge perfbench result records of a parent and a change into one BENCH file.

    python3 tools/bench_collect.py --parent DIR --change DIR --out BENCH_6.json \
        [--parent-sha SHA] [--change-sha SHA] [--note TEXT]

Each DIR holds copies of the `.perfbench/results/<workload>-desk-seed<S>-trace<T>.json`
records that `perfbench/run.py` writes, one file per run (any file names; runs of
the same workload, seed and trace are paired across the two sides in file-name
order, so name the i-th run of each side alike).  When both sides have untraced
runs of a workload and seed, they must have the same number of them: otherwise
the script exits 2 naming both counts.  The BENCH file holds, per
workload and seed:
  - untraced runs: `run_s`, `setup_s` and `peak_rss_mb` per run, their median and
    quartiles, the failed cases, and for each of the three the pairs the change
    won (a lower value wins; ties count for neither side);
  - traced runs: the `.calls` and `.self_s` of the pair-kernel norms, of
    `tl_norm` and `seq_norm`, of the Bourgain-Morrey aggregation
    (`bm_array_norm`, `cube_sums`), of the equivalence sweep (`run_experiment`,
    `four_norms`), of the weight diagnostics (`ap_characteristic`,
    `ap_dimensions`, `doubling_exponent`, `reducing_operators`,
    `sandwich_constants`, `diagnose`, `MatrixWeight.power`) and of the
    transforms (`ad_random_operator`, `ad_apply`, `phi_transform`,
    `phi_synthesis`, `wavelet_analyze`, `wavelet_synthesize`, `psdo_apply`) and
    coefficient files (`write_coeffs`, `read_coeffs`), the FFT counters and self
    time, and whether every `.calls` count and work counter is equal;
  - each side's environment stamp without the per-run fields.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
TRACED = [f"{name}.{kind}" for name in ("spaces.peetre_norm", "spaces.lusin_norm",
                                         "spaces.glambda_norm", "spaces.tl_norm",
                                         "spaces.seq_norm", "spaces.bm_array_norm",
                                         "dyadic.cube_sums", "weights.ap_characteristic",
                                         "weights.ap_dimensions", "weights.doubling_exponent",
                                         "weights.reducing_operators",
                                         "weights.sandwich_constants", "weights.diagnose",
                                         "weights.MatrixWeight.power",
                                         "coeff.ad_random_operator", "coeff.ad_apply",
                                         "coeff.phi_transform", "coeff.phi_synthesis",
                                         "wavelets.wavelet_analyze",
                                         "wavelets.wavelet_synthesize",
                                         "fieldio.write_coeffs", "fieldio.read_coeffs",
                                         "operators.psdo_apply", "harness.run_experiment",
                                         "harness.four_norms")
          for kind in ("calls", "self_s")] + ["fft.calls", "fft.points", "fft.inverse_calls",
                                              "fft.self_s"]
RUN_FIELDS = ("workload", "scale", "seed", "grids")


def load_runs(directory: str) -> dict:
    """{(workload, seed, trace): [record, ...]} in file-name order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        key = (rec["env"]["workload"], rec["env"]["seed"], rec["trace"])
        runs.setdefault(key, []).append(rec)
    return runs


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def untraced(recs: list) -> dict:
    out = {name: spread([r["metrics"][name]["value"] for r in recs]) for name in END_TO_END}
    out["failed"] = [r["failed"] for r in recs]
    out["attempted"] = [r["attempted"] for r in recs]
    return out


def counts(rec: dict) -> dict:
    """Every metric of a traced record that is exact: calls and work counters."""
    return {k: v["value"] for k, v in rec["metrics"].items() if v["unit"] in ("count", "bytes")}


def collect(parent: dict, change: dict) -> dict:
    workloads = {}
    for key in sorted(set(parent) | set(change)):
        wl, seed, trace = key
        entry = workloads.setdefault(wl, {}).setdefault(f"seed{seed}", {})
        sides = {"parent": parent.get(key, []), "change": change.get(key, [])}
        if trace == 0:
            entry["untraced"] = {side: untraced(recs) for side, recs in sides.items() if recs}
            if all(sides.values()):
                n_parent, n_change = (len(recs) for recs in sides.values())
                if n_parent != n_change:
                    raise ValueError(f"{wl} seed {seed}: the parent has {n_parent} untraced "
                                     f"runs and the change {n_change}; pairs need equal counts")
                for name in END_TO_END:
                    pairs = list(zip(*([r["metrics"][name]["value"] for r in recs]
                                       for recs in sides.values())))
                    won = sum(c < p for p, c in pairs)
                    entry["untraced"][f"{name}_pairs_change_won"] = won
                entry["untraced"]["pairs"] = len(pairs)
        else:
            entry["traced"] = {side: {name: recs[0]["metrics"][name]["value"]
                                      for name in TRACED if name in recs[0]["metrics"]}
                               for side, recs in sides.items() if recs}
            if all(sides.values()):
                a, b = (counts(recs[0]) for recs in sides.values())
                entry["traced"]["counts_equal"] = a == b
                entry["traced"]["counts_differing"] = sorted(k for k in a if a[k] != b.get(k))
    return workloads


def stamp(runs: dict) -> dict:
    env = next(iter(runs.values()))[0]["env"]
    return {k: v for k, v in env.items() if k not in RUN_FIELDS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent-sha")
    ap.add_argument("--change-sha")
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    try:
        workloads = collect(parent, change)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench = {
        "note": args.note,
        "parent": {"sha": args.parent_sha, "env": stamp(parent)},
        "change": {"sha": args.change_sha, "env": stamp(change)},
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
