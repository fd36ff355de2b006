"""File formats: one JSON header line followed by little-endian binary64 payload.

Field files carry {"dim", "side_log2", "res_log2", "channels", "complex"} and
the values in row-major point order, channels innermost, real/imag interleaved
when complex.  Weight files are field files with channels = m*m (row-major
matrix per point).  Symbol files add {"kind": "symbol"} and tabulate x-major,
xi-minor.  Coefficient files are a {"header": ...} line and JSON lines
{"cube": [j, [m...]], "value": [[re, im], ...]}: written a level at a time from
each level array, read in blocks of RECORD_BLOCK lines straight into the level
arrays.  Records may come in any order; levels and indices are JSON integers,
a repeated cube is an error, and every error names its file line.
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice

import numpy as np

from .coeffseq import CoeffSequence
from .dyadic import cubes_per_axis
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


#: header keys of a coefficient file
_COEFF_HEADER_TYPES = {key: _HEADER_TYPES[key] for key in ("dim", "side_log2", "res_log2",
                                                           "channels")}


def _typed_header(header, types: dict, defaults: dict = None) -> dict:
    """header, a JSON object, with defaults filled in; raises ValueError unless
    every key of types is present with exactly that JSON type."""
    if not isinstance(header, dict):
        raise ValueError(f"file header must be a JSON object, got {header!r}")
    header = {**(defaults or {}), **header}
    for key, kind in types.items():
        value = header.get(key)
        if type(value) is not kind:     # exact: JSON true is a bool, not an int
            raise ValueError(f"file header {key!r} must be {kind.__name__}, got {value!r}")
    return header


def _read_payload(fh) -> tuple:
    """(header, grid, flat values) of a field or symbol file.

    A header that is not an object of _HEADER_TYPES, or a payload whose length is not
    points x channels (x 2 if complex), raises ValueError before any array is built;
    a symbol file has one point per (x, xi) pair.
    """
    header = _typed_header(json.loads(fh.readline().decode()), _HEADER_TYPES,
                           {"complex": False})
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




#: coefficient records formatted or parsed per call: one json.loads over a whole
#: 256^2 file, or one format of a whole level, costs MBs of peak memory
RECORD_BLOCK = 256


def _level_records(j: int, arr: np.ndarray):
    """The JSON lines of level j's array in index order, RECORD_BLOCK records per
    string, byte for byte what json.dumps gives per record: integers through %d,
    floats through repr."""
    n, channels = arr.ndim - 1, arr.shape[-1]
    index = np.indices(arr.shape[:-1]).reshape(n, -1).T
    cols = np.concatenate([index, arr.reshape(len(index), channels).view(float)], axis=1)
    record = ('{"cube": [%d, [' % j + ", ".join(["%d"] * n) + ']], "value": ['
              + ", ".join(["[%r, %r]"] * channels) + "]}\n")
    for start in range(0, len(cols), RECORD_BLOCK):
        rows = cols[start:start + RECORD_BLOCK]
        yield (record * len(rows)) % tuple(rows.ravel().tolist())


def write_coeffs(path, coeffs: CoeffSequence):
    """Header line, then one record per cube of each stored level."""
    head = {
        "dim": coeffs.grid.dim,
        "side_log2": coeffs.grid.side_log2,
        "res_log2": coeffs.grid.res_log2,
        "channels": coeffs.channels,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps({"header": head}, sort_keys=True) + "\n")
        for j, arr in coeffs.arrays.items():
            fh.writelines(_level_records(j, arr))



#: a JSON string; json refuses raw newlines in strings, so none spans a line end
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')

#: change of bracket depth at each byte: +1 for [ and {, -1 for ] and }
_NESTING = np.zeros(256, dtype=np.int8)
_NESTING[[ord("["), ord("{")]] = 1
_NESTING[[ord("]"), ord("}")]] = -1
#: the bytes other than brackets and the line end
_NOT_NESTING = bytes(sorted(set(range(256)) - set(b"[]{}\n")))


def _json_line(text: str):
    """The JSON value of one file line; a ValueError names the column."""
    try:
        return json.loads(text.rstrip("\n"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON: {exc.msg} at column {exc.pos + 1}") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _load_block(text: str, count: int) -> list:
    """The JSON values of text, count lines joined by commas inside [], from one
    json.loads; ValueError unless there are count of them."""
    try:
        values = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if len(values) != count:
        raise ValueError("not one JSON value per line")
    return values


def _split_at_lines(text: str, count: int) -> bool:
    """Whether text, count lines joined by commas inside [] that parse as
    coefficient records, kept every comma between lines at the top level.

    A comma inside a value would let json.loads merge the lines around it into
    one value.  JSON strings cannot span a line end (json refuses raw newlines in
    them), so with the strings removed the bracket depth must be back at 1 at
    every line end.  Records whose only strings are their "cube" and "value" keys
    (4 quotes each) hold no bracket inside a string and need no removal.
    """
    if text.count('"') != 4 * count:
        text = _JSON_STRING.sub("", text)
    codes = np.frombuffer(text.encode().translate(None, _NOT_NESTING), dtype=np.uint8)
    return bool(np.all(np.cumsum(_NESTING[codes])[codes == ord("\n")] == 1))


def _require(ok: bool, items: list, what: str):
    """ValueError naming items[0] unless ok.  A message is read only from a list
    of one record (_block_arrays), so items[0] is the item that failed."""
    if not ok:
        raise ValueError(f"{what}, got {json.dumps(items[0])}")


def _finite_floats(numbers: list):
    """numbers as a binary64 array, or None if one is not finite there."""
    try:
        arr = np.array(numbers, dtype=float)
    except OverflowError:       # an integer beyond binary64
        return None
    return arr if np.all(np.isfinite(arr)) else None


def _record_arrays(records: list, grid: TorusGrid, channels: int) -> tuple:
    """(level (k,), index (k, n), value (k, channels)) arrays of parsed coefficient
    records, checked as whole lists.  Every check holds record by record, so a
    list passes exactly when each of its records passes alone; a failed check
    names the first item of its list, in a one-record list that record's."""
    n, lo, hi = grid.dim, -grid.side_log2, grid.res_log2
    _require(set(map(type, records)) <= {dict}, records,
             "a coefficient record must be a JSON object")
    try:
        cubes = [r["cube"] for r in records]
        values = [r["value"] for r in records]
    except KeyError as exc:
        raise ValueError(f"record has no {exc} key") from None

    _require(set(map(type, cubes)) <= {list} and set(map(len, cubes)) <= {2}, cubes,
             "cube must be [level, [index...]]")
    levels = [c[0] for c in cubes]
    _require(set(map(type, levels)) <= {int}, levels, "cube level must be a JSON integer")
    _require(min(levels) >= lo and max(levels) <= hi, levels,
             f"cube level must lie in [{lo}, {hi}]")
    index = [c[1] for c in cubes]
    what = f"cube index must be a list of {n} JSON integers"
    _require(set(map(type, index)) <= {list} and set(map(len, index)) <= {n}, index, what)
    flat = list(chain.from_iterable(index))
    _require(set(map(type, flat)) <= {int}, index, what)
    level = np.array(levels, dtype=np.int64)
    inside = min(flat) >= 0 and max(flat) < 1 << (hi - lo)     # within the finest level
    if inside:
        idx = np.array(flat, dtype=np.int64).reshape(len(index), n)
        inside = bool(np.all(idx < np.left_shift(1, level - lo)[:, None]))
    _require(inside, cubes, "cube index must lie in [0, 2^(level + side_log2))")

    what = f"value must be {channels} [re, im] pairs of JSON numbers"
    _require(set(map(type, values)) <= {list} and set(map(len, values)) <= {channels}, values,
             what)
    pairs = list(chain.from_iterable(values))
    _require(set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}, values, what)
    numbers = list(chain.from_iterable(pairs))
    _require(set(map(type, numbers)) <= {int, float}, values, what)
    value = _finite_floats(numbers)
    _require(value is not None, values, "value must be finite")
    return level, idx, value.view(complex).reshape(len(values), channels)


def _block_arrays(lines: list, first_line: int, grid: TorusGrid, channels: int) -> tuple:
    """_record_arrays of a block of record lines, the first of them file line
    first_line.  One json.loads serves the whole block; when it or a check fails,
    a pass line by line names the first bad line."""
    text = "[" + ",".join(lines) + "]"
    try:
        arrays = _record_arrays(_load_block(text, len(lines)), grid, channels)
        if _split_at_lines(text, len(lines)):
            return arrays
    except ValueError:
        pass
    records = []
    for line, raw in enumerate(lines, first_line):
        try:
            records.append(_json_line(raw))
            _record_arrays(records[-1:], grid, channels)
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
    return _record_arrays(records, grid, channels)


def _fill_levels(levels: dict, grid: TorusGrid, block: tuple, first_line: int):
    """Write a block's (level, index, value) records, the first of them file line
    first_line, into levels {j: (level array, file line that gave each cube or
    0)}, allocating a level when a record first names it; ValueError at the
    block's first record whose cube an earlier line gave."""
    level, idx, value = block
    lines = np.arange(first_line, first_line + len(level))
    earlier = np.zeros(len(level), dtype=np.int64)
    for j in np.unique(level).tolist():
        at = np.flatnonzero(level == j)
        shape = (cubes_per_axis(grid, j),) * grid.dim
        if j not in levels:
            levels[j] = (np.zeros(shape + value.shape[1:], dtype=complex),
                         np.zeros(shape, dtype=np.int64))
        values, given = levels[j]
        p = np.ravel_multi_index(tuple(idx[at].T), shape)
        earlier[at] = given.flat[p]
        order = np.argsort(p, kind="stable")
        twice = p[order[1:]] == p[order[:-1]]
        earlier[at[order[1:][twice]]] = lines[at[order[:-1][twice]]]
        values.reshape(-1, value.shape[1])[p] = value[at]
        given.flat[p] = lines[at]
    repeats = np.flatnonzero(earlier)
    if repeats.size:
        r = repeats[0]
        cube = json.dumps([int(level[r]), idx[r].tolist()])
        raise ValueError(f"line {lines[r]}: cube {cube} repeats line {earlier[r]}")


def read_coeffs(path) -> CoeffSequence:
    """The coefficient file at path.  Records may come in any order; a level named
    by any record is stored whole, zero at the cubes no record gives.  Every error
    names its file line."""
    with open(path) as fh:
        try:
            head = _typed_header(_json_line(fh.readline()), {"header": dict})["header"]
            head = _typed_header(head, _COEFF_HEADER_TYPES)
            grid = TorusGrid(head["dim"], head["side_log2"], head["res_log2"])
        except ValueError as exc:
            raise ValueError(f"line 1: {exc}") from None
        channels = head["channels"]
        levels, line = {}, 2
        while block := list(islice(fh, RECORD_BLOCK)):
            _fill_levels(levels, grid, _block_arrays(block, line, grid, channels), line)
            line += len(block)
    return CoeffSequence(grid, {j: values for j, (values, _) in levels.items()}, channels)
