"""Merge perfbench result records of a parent and a change into one BENCH file.

    python3 tools/bench_collect.py --parent DIR --change DIR --out BENCH_6.json \
        [--parent-sha SHA] [--change-sha SHA] [--note TEXT]

Each DIR holds copies of the `.perfbench/results/<workload>-desk-seed<S>-trace<T>.json`
records that `perfbench/run.py` writes, one file per run (any file names; runs of
the same workload, seed and trace are paired across the two sides in file-name
order, so name the i-th run of each side alike).  The BENCH file holds, per
workload and seed:
  - untraced runs: `run_s`, `setup_s` and `peak_rss_mb` per run, their median and
    quartiles, the failed cases, and for `run_s` the pairs the change won;
  - traced runs: the `.calls` and `.self_s` of the pair-kernel norms and of the
    Bourgain-Morrey aggregation (`bm_array_norm`, `cube_sums`), the FFT counters
    and self time, and whether every `.calls` count and work counter is equal;
  - each side's environment stamp without the per-run fields.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
TRACED = [f"{name}.{kind}" for name in ("spaces.peetre_norm", "spaces.lusin_norm",
                                         "spaces.glambda_norm", "spaces.bm_array_norm",
                                         "dyadic.cube_sums")
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
                pairs = list(zip(*(
                    [r["metrics"]["run_s"]["value"] for r in recs] for recs in sides.values())))
                entry["untraced"]["run_s_pairs_change_won"] = sum(c < p for p, c in pairs)
                entry["untraced"]["run_s_pairs"] = len(pairs)
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
    bench = {
        "note": args.note,
        "parent": {"sha": args.parent_sha, "env": stamp(parent)},
        "change": {"sha": args.change_sha, "env": stamp(change)},
        "workloads": collect(parent, change),
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
