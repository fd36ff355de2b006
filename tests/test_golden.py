"""Golden values of every norm and of the phi-transform on tiny grids.

The values in golden_values.npz pin the numbers of tl_norm, seq_norm, the
Peetre, Lusin, g-lambda-star and approximation norms, bm_seq_norm,
phi_transform and phi_synthesis, so that restructuring the code cannot move
them.  Re-record (only after a deliberate change of the numbers) with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import sys
import warnings
from pathlib import Path

import numpy as np

from bmtl.coeff import phi_synthesis, phi_transform
from bmtl.dyadic import CubeRange
from bmtl.fields import scalar_field
from bmtl.grid import TorusGrid
from bmtl.harness import band_limited_noise
from bmtl.lpa import make_admissible_pair, make_inhom_partition
from bmtl.spaces import (CubewiseWeighting, PointwiseWeighting, SpaceParams,
                         approx_norm, bm_seq_norm, glambda_norm, lusin_norm,
                         peetre_norm, seq_norm, tl_norm, truncation_ratio)
from bmtl.weights import oscillating_weight, reducing_operators

GOLDEN = Path(__file__).with_name("golden_values.npz")
RTOL = 1e-12

G1 = TorusGrid(1, 2, 6)            # N = 256
R1 = CubeRange(-2, 4)
R1_INH = CubeRange(-2, 4, inhomogeneous=True)
G2 = TorusGrid(2, 1, 3)            # 16 x 16
R2 = CubeRange(-1, 1)
R2_INH = CubeRange(-1, 1, inhomogeneous=True)
PAIR = make_admissible_pair()
PART = make_inhom_partition()


def _report(out: dict, name: str, rep):
    out[f"{name}/value"] = np.array([rep.value])
    out[f"{name}/per_level"] = np.array(sorted(rep.per_level.items()), dtype=float)
    if rep.truncation is not None:
        out[f"{name}/truncation"] = np.array([rep.truncation])


def _tl_truncation(f, w, sp, bank, cube_range):
    """tl_norm with its truncation ratio against the widened range."""
    rep = tl_norm(f, w, sp, bank, cube_range)
    rep.truncation = truncation_ratio(rep.value, f.grid, cube_range,
                                      lambda wide: tl_norm(f, w, sp, bank, wide))
    return rep


def _coeffs(out: dict, name: str, seq):
    cubes = sorted(seq.entries, key=lambda c: (c.level, c.index))
    out[f"{name}/coeffs"] = np.array([seq.entries[c] for c in cubes])


def _one_dim(out: dict):
    rng = np.random.default_rng(11)
    f = band_limited_noise(G1, 2, 0.5, 4.0, rng)
    W = oscillating_weight(G1)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    sp_r = SpaceParams(0.5, 1.5, 2.0, 2.0, 3.0)
    pw = PointwiseWeighting(W, sp.p)
    cw = CubewiseWeighting(reducing_operators(W, sp.p, R1))
    _report(out, "1d/tl_W", _tl_truncation(f, pw, sp, PAIR, R1))
    _report(out, "1d/tl_AQ", tl_norm(f, cw, sp, PAIR, R1))
    _report(out, "1d/tl_W_finite_r", tl_norm(f, pw, sp_r, PAIR, R1))
    coeffs = phi_transform(f, PAIR, R1)
    _coeffs(out, "1d/phi", coeffs)
    out["1d/phi_synthesis"] = phi_synthesis(coeffs, PAIR).values
    _report(out, "1d/seq_W", seq_norm(coeffs, pw, sp, R1))
    _report(out, "1d/seq_AQ", seq_norm(coeffs, cw, sp, R1))
    # level j: sample x of cube k is kept unless (x - corner + k) % 3 == 0
    masks = {}
    for j in (0, 2):
        x = np.arange(G1.points_per_axis)
        width = 1 << (G1.res_log2 - j)
        masks[j] = (x % width + x // width) % 3 != 0
    _report(out, "1d/seq_W_masked", seq_norm(coeffs, pw, sp, R1, masks=masks))
    _report(out, "1d/seq_AQ_masked", seq_norm(coeffs, cw, sp, R1, masks=masks))
    _report(out, "1d/peetre", peetre_norm(f, pw, sp, 4.0, PAIR, R1))
    _report(out, "1d/lusin", lusin_norm(f, pw, sp, PAIR, R1))
    _report(out, "1d/glambda_q2", glambda_norm(f, pw, sp_r, 3.0, PAIR, R1))
    _report(out, "1d/glambda_q1.5", glambda_norm(f, pw, sp, 3.0, PAIR, R1))
    sp_inh = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    _report(out, "1d/tl_inh", _tl_truncation(f, pw, sp_inh, PART, R1_INH))
    sp_app = SpaceParams(3.0, 1.5, 1.5, 2.0, np.inf, homogeneous=False)
    _report(out, "1d/approx", approx_norm(f, pw, sp_app, PART, R1_INH))
    coeffs_inh = phi_transform(f, PART, R1_INH)
    _coeffs(out, "1d/phi_inh", coeffs_inh)
    out["1d/phi_synthesis_inh"] = phi_synthesis(coeffs_inh, PART).values
    mags = [scalar_field(G1, np.abs(f.values[..., c]) * (1 + c)) for c in range(2)]
    out["1d/bm_seq/value"] = np.array([bm_seq_norm(mags, 1.5, 2.0, np.inf, 1.5, R1),
                                       bm_seq_norm(mags, 1.5, 2.0, 3.0, 2.0, R1)])


def _two_dim(out: dict):
    rng = np.random.default_rng(12)
    f = band_limited_noise(G2, 2, 0.5, 2.0, rng)
    W = oscillating_weight(G2)
    sp = SpaceParams(0.5, 1.5, 1.5, 2.0, np.inf)
    sp_q2 = SpaceParams(0.5, 1.5, 2.0, 2.0, np.inf)
    pw = PointwiseWeighting(W, sp.p)
    cw = CubewiseWeighting(reducing_operators(W, sp.p, R2))
    _report(out, "2d/tl_W", _tl_truncation(f, pw, sp, PAIR, R2))
    _report(out, "2d/tl_AQ", tl_norm(f, cw, sp, PAIR, R2))
    coeffs = phi_transform(f, PAIR, R2)
    _coeffs(out, "2d/phi", coeffs)
    out["2d/phi_synthesis"] = phi_synthesis(coeffs, PAIR).values
    _report(out, "2d/seq_W", seq_norm(coeffs, pw, sp, R2))
    _report(out, "2d/seq_AQ", seq_norm(coeffs, cw, sp, R2))
    _report(out, "2d/peetre", peetre_norm(f, pw, sp, 4.0, PAIR, R2))
    _report(out, "2d/lusin", lusin_norm(f, pw, sp, PAIR, R2))
    _report(out, "2d/glambda_q2", glambda_norm(f, pw, sp_q2, 3.0, PAIR, R2))
    _report(out, "2d/glambda_q1.5", glambda_norm(f, pw, sp, 3.0, PAIR, R2))
    coeffs_inh = phi_transform(f, PART, R2_INH)
    _coeffs(out, "2d/phi_inh", coeffs_inh)
    out["2d/phi_synthesis_inh"] = phi_synthesis(coeffs_inh, PART).values


def compute() -> dict:
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _one_dim(out)
        _two_dim(out)
    return out


def test_golden_values():
    golden = np.load(GOLDEN)
    now = compute()
    assert sorted(now) == sorted(golden.files)
    for key in golden.files:
        ref, got = golden[key], now[key]
        assert got.shape == ref.shape, key
        # norms: each entry relative to itself; samples and coefficients:
        # relative to the largest magnitude of the array
        whole = key.endswith("/coeffs") or "phi_synthesis" in key
        scale = np.max(np.abs(ref)) if whole else np.abs(ref)
        assert np.all(np.abs(got - ref) <= RTOL * scale), key


if __name__ == "__main__":
    if "--record" not in sys.argv:
        sys.exit("usage: python tests/test_golden.py --record")
    np.savez_compressed(GOLDEN, **compute())
    print(f"wrote {GOLDEN}")
