"""The benchmark's tracer must still find every function it wraps.

perfbench/tracer.py names bmtl functions by module and qualified name; a
rename in src/bmtl would otherwise only show when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
tracer = importlib.import_module("tracer")


def _resolve(mod: str, qual: str):
    obj = importlib.import_module(f"bmtl.{mod}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves_and_install_round_trips():
    originals = {(mod, qual): _resolve(mod, qual) for mod, qual in tracer.TRACED}
    fft_originals = {e: getattr(np.fft, e) for e in tracer.FFT_ENTRY_POINTS}
    tr = tracer.Tracer()
    try:
        tr.install()
        for (mod, qual), fn in originals.items():
            assert _resolve(mod, qual) is not fn, f"{mod}.{qual} was not wrapped"
        from bmtl.dyadic import CubeRange
        from bmtl.grid import TorusGrid
        from bmtl.harness import band_limited_noise
        from bmtl.lpa import make_admissible_pair
        from bmtl.spaces import PointwiseWeighting, SpaceParams
        from bmtl.weights import identity_weight
        grid = TorusGrid(1, 1, 5)
        f = band_limited_noise(grid, 1, 0.5, 4.0, np.random.default_rng(0))
        spaces = importlib.import_module("bmtl.spaces")
        spaces.tl_norm(f, PointwiseWeighting(identity_weight(grid), 1.5),
                       SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf), make_admissible_pair(),
                       CubeRange(-1, 3))
        totals = tr.layer_totals()
        assert totals["spaces.tl_norm"][0] == 1
        assert totals["spaces.bm_array_norm"][0] > 0
        assert totals["fft"][0] > 0 and tr.counters["fft.inverse_calls"] > 0
    finally:
        tr.uninstall()
    for (mod, qual), fn in originals.items():
        assert _resolve(mod, qual) is fn
    for entry, fn in fft_originals.items():
        assert getattr(np.fft, entry) is fn
