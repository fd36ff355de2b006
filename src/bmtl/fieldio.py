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


#: header keys every field file carries, with their JSON types ("complex" may be absent)
_HEADER_TYPES = {"dim": int, "side_log2": int, "res_log2": int, "channels": int, "complex": bool}


def _read_payload(fh) -> tuple:
    """(header, grid, flat values) of a field or symbol file.

    A header that is not an object of _HEADER_TYPES, or a payload whose length is not
    points x channels (x 2 if complex), raises ValueError before any array is built;
    a symbol file has one point per (x, xi) pair.
    """
    header = json.loads(fh.readline().decode())
    if not isinstance(header, dict):
        raise ValueError(f"file header must be a JSON object, got {header!r}")
    header.setdefault("complex", False)
    for key, kind in _HEADER_TYPES.items():
        value = header.get(key)
        if type(value) is not kind:     # exact: JSON true is a bool, not an int
            raise ValueError(f"file header {key!r} must be {kind.__name__}, got {value!r}")
    grid = TorusGrid(header["dim"], header["side_log2"], header["res_log2"])
    points = grid.npoints ** (2 if header.get("kind") == "symbol" else 1)
    expected = points * header["channels"] * (2 if header["complex"] else 1)
    raw = fh.read()
    if len(raw) != 8 * expected:
        raise ValueError(f"payload holds {len(raw)} bytes; the header needs {8 * expected} "
                         f"({expected} binary64 values)")
    raw = np.frombuffer(raw, dtype="<f8")
    data = raw[0::2] + 1j * raw[1::2] if header["complex"] else raw
    return header, grid, data


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
        header, grid, data = _read_payload(fh)
    return SampledField(grid, data.reshape(grid.shape + (header["channels"],)))


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
        header, grid, data = _read_payload(fh)
    if header.get("kind") != "symbol":
        raise ValueError("not a symbol file")
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
