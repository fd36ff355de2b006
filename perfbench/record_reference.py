"""Record reference.json: the checked output values of every workload.

    python3 perfbench/record_reference.py [--scale tiny|desk|all]

Run at the commit whose numbers later runs must reproduce; each later run
fails a case when a value drifts by more than run.DRIFT_RTOL.  Recording
refuses to write values whose criteria checks fail.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scale", choices=("tiny", "desk", "all"), default="all")
    args = ap.parse_args(argv)
    run.pin_threads()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from workloads import WORKLOADS

    path = os.path.join(run.HERE, "reference.json")
    try:
        with open(path) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    seeds = {"tiny": [run.TINY_REF_SEED, run.DEFAULT_SEED, run.HELDOUT_SEED],
             "desk": [run.DEFAULT_SEED, run.HELDOUT_SEED]}
    scales = ["tiny", "desk"] if args.scale == "all" else [args.scale]
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        for scale in scales:
            ref[scale] = {}
            for seed in seeds[scale]:
                ref[scale][str(seed)] = {}
                for name, wl in WORKLOADS.items():
                    inp = wl.build(seed, scale, workdir)
                    cases, values = wl.check(inp, wl.run(inp))
                    bad = [c for c in cases if not c["ok"]]
                    if bad:
                        print(f"{scale} seed {seed} {name}: failed {bad}", file=sys.stderr)
                        return 1
                    ref[scale][str(seed)][name] = values
                    print(f"{scale} seed {seed} {name}: {len(cases)} cases pass", flush=True)
    ref["recorded_at"] = {"git_sha": run.git_sha(run.ROOT),
                          "source_sha256": run.source_digest(run.ROOT)}
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
