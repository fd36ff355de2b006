"""File formats: one JSON header line followed by little-endian binary64 payload.

Field files carry {"dim", "side_log2", "res_log2", "channels", "complex"} and
the values in row-major point order, channels innermost, real/imag interleaved
when complex.  Weight files are field files with channels = m*m (row-major
matrix per point).  Symbol files add {"kind": "symbol"} and tabulate x-major,
xi-minor.  Coefficient files are JSON lines {"cube": [j, [m...]], "value": ...}.
"""

from __future__ import annotations

import json

import numpy as np

from .coeffseq import CoeffSequence
from .dyadic import DyadicCube
from .fields import SampledField
from .grid import TorusGrid
from .weights import MatrixWeight


def _write_payload(fh, header: dict, arr: np.ndarray):
    fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
    if header.get("complex", False):
        inter = np.empty(arr.size * 2)
        inter[0::2] = arr.real.ravel()
        inter[1::2] = arr.imag.ravel()
        fh.write(inter.astype("<f8").tobytes())
    else:
        fh.write(np.ascontiguousarray(arr.real, dtype="<f8").tobytes())


def _read_payload(fh) -> tuple:
    header = json.loads(fh.readline().decode())
    raw = np.frombuffer(fh.read(), dtype="<f8")
    if header.get("complex", False):
        data = raw[0::2] + 1j * raw[1::2]
    else:
        data = raw
    return header, data


def write_field(path, f: SampledField):
    header = {
        "dim": f.grid.dim,
        "side_log2": f.grid.side_log2,
        "res_log2": f.grid.res_log2,
        "channels": f.channels,
        "complex": bool(f.is_complex),
    }
    with open(path, "wb") as fh:
        _write_payload(fh, header, f.values)


def read_field(path) -> SampledField:
    with open(path, "rb") as fh:
        header, data = _read_payload(fh)
    grid = TorusGrid(header["dim"], header["side_log2"], header["res_log2"])
    values = data.reshape(grid.shape + (header["channels"],))
    return SampledField(grid, values)


def write_weight(path, W: MatrixWeight):
    m = W.channels
    flat = W.values.reshape(W.grid.shape + (m * m,))
    write_field(path, SampledField(W.grid, flat))


def read_weight(path) -> MatrixWeight:
    f = read_field(path)
    mm = f.channels
    m = int(round(np.sqrt(mm)))
    if m * m != mm:
        raise ValueError(f"weight file channel count {mm} is not a square")
    vals = f.values.real.reshape(f.grid.shape + (m, m))
    return MatrixWeight(f.grid, vals)


def write_symbol(path, sym):
    header = {
        "kind": "symbol",
        "dim": sym.grid.dim,
        "side_log2": sym.grid.side_log2,
        "res_log2": sym.grid.res_log2,
        "channels": 1,
        "complex": True,
    }
    with open(path, "wb") as fh:
        _write_payload(fh, header, sym.values)


def read_symbol(path):
    from .operators import SymbolGrid

    with open(path, "rb") as fh:
        header, data = _read_payload(fh)
    if header.get("kind") != "symbol":
        raise ValueError("not a symbol file")
    grid = TorusGrid(header["dim"], header["side_log2"], header["res_log2"])
    return SymbolGrid(grid, data.reshape(grid.shape * 2))


def write_coeffs(path, coeffs: CoeffSequence):
    with open(path, "w") as fh:
        head = {
            "dim": coeffs.grid.dim,
            "side_log2": coeffs.grid.side_log2,
            "res_log2": coeffs.grid.res_log2,
            "channels": coeffs.channels,
        }
        fh.write(json.dumps({"header": head}, sort_keys=True) + "\n")
        for cube, vec in coeffs.entries.items():
            rec = {"cube": [cube.level, list(cube.index)],
                   "value": [[z.real, z.imag] for z in vec.tolist()]}
            fh.write(json.dumps(rec) + "\n")


def read_coeffs(path) -> CoeffSequence:
    with open(path) as fh:
        head = json.loads(fh.readline())["header"]
        grid = TorusGrid(head["dim"], head["side_log2"], head["res_log2"])
        entries = {}
        for line, rec in enumerate(map(json.loads, fh), 2):
            try:
                j, idx = rec["cube"]
                entries[DyadicCube(j, idx)] = np.array([complex(re, im) for re, im in rec["value"]])
            except TypeError as exc:
                raise ValueError(f"line {line}: malformed coefficient record: {exc}") from exc
    return CoeffSequence(grid, entries, head["channels"])
