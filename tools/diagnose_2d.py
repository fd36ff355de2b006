"""Time the weight diagnostics at 2D desk scale.

    python3 tools/diagnose_2d.py --src SRC_DIR [--repeat R]

Imports `bmtl` from SRC_DIR (the `src` directory of a checkout) and, on
`TorusGrid(2, 2, 7)` (512^2) with the oscillating weight at p = 1.5, runs
  - `diagnose` on cube levels [-2, 3] (i_max = 4), and
  - `ap_dimensions` on cube levels [-1, 4] with i_max = 2,
R times each (default 1).  It prints every field, which is deterministic, and
the wall time of each repetition and their median, so two checkouts can be
compared field by field and time by time on one machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from bmtl.dyadic import CubeRange
    from bmtl.grid import TorusGrid
    from bmtl.weights import ap_dimensions, diagnose, oscillating_weight

    W = oscillating_weight(TorusGrid(2, 2, 7))
    p = 1.5
    runs = (("diagnose [-2, 3]", lambda: diagnose(W, p, CubeRange(-2, 3)).as_dict()),
            ("ap_dimensions [-1, 4] i_max=2",
             lambda: dict(zip(("d", "d_tilde", "delta"),
                              ap_dimensions(W, p, CubeRange(-1, 4), i_max=2)))))
    for name, run in runs:
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            fields = run()
            times.append(time.perf_counter() - t0)
        print(name)
        for k, v in fields.items():
            print(f"  {k} = {v!r}")
        print(f"  wall_s = {', '.join(f'{t:.3f}' for t in times)} "
              f"(median {statistics.median(times):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
