"""Coefficient files against the per-record forms they replace: the writer
formats a level at a time, the reader parses blocks of lines with one json.loads,
and both must agree with one json.dumps / json.loads per record."""

import json
import random

import numpy as np
import pytest

from bmtl import fieldio
from bmtl.coeffseq import CoeffSequence
from bmtl.dyadic import DyadicCube, cubes_per_axis
from bmtl.grid import TorusGrid

GRID_1D = TorusGrid(1, 2, 5)
GRID_2D = TorusGrid(2, 1, 3)


def write_per_record(path, coeffs):
    """The writer as it was: one json.dumps per cube record."""
    head = {"dim": coeffs.grid.dim, "side_log2": coeffs.grid.side_log2,
            "res_log2": coeffs.grid.res_log2, "channels": coeffs.channels}
    with open(path, "w") as fh:
        fh.write(json.dumps({"header": head}, sort_keys=True) + "\n")
        for cube, vec in coeffs.entries.items():
            rec = {"cube": [cube.level, list(cube.index)],
                   "value": [[z.real, z.imag] for z in vec.tolist()]}
            fh.write(json.dumps(rec) + "\n")


def read_per_record(path):
    """The reader as it was: one json.loads and one DyadicCube per record."""
    with open(path) as fh:
        head = json.loads(fh.readline())["header"]
        grid = TorusGrid(head["dim"], head["side_log2"], head["res_log2"])
        entries = {}
        for rec in map(json.loads, fh):
            j, idx = rec["cube"]
            entries[DyadicCube(j, idx)] = np.array([complex(re, im) for re, im in rec["value"]])
    return CoeffSequence(grid, entries, head["channels"])


def assert_same(a, b):
    assert a.grid == b.grid and a.channels == b.channels
    assert a.levels() == b.levels()
    for j in a.levels():
        assert np.array_equal(a.arrays[j], b.arrays[j])
        # bit for bit, signed zeros included
        assert np.array_equal(np.signbit(a.arrays[j].view(float)),
                              np.signbit(b.arrays[j].view(float)))


SPECIAL = [-0.0, 5e-324, 1e300, 1.0 / 3.0, 3.0, -7.0, 0.0, 1e-5, 1e16, -2.5e-310]


@pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("channels", [1, 2])
def test_write_matches_per_record_writer(tmp_path, grid, channels):
    rng = np.random.default_rng(channels)
    arrays = {}
    for j in (-grid.side_log2, 0, 2):
        shape = (cubes_per_axis(grid, j),) * grid.dim + (channels,)
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = arr.reshape(-1)
        k = min(len(SPECIAL), flat.size)
        flat[:k] = np.array(SPECIAL[:k]) + 1j * np.array(SPECIAL[::-1][:k])
        arrays[j] = arr
    seq = CoeffSequence(grid, arrays, channels)
    fieldio.write_coeffs(tmp_path / "new.jsonl", seq)
    write_per_record(tmp_path / "old.jsonl", seq)
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
    assert_same(fieldio.read_coeffs(tmp_path / "new.jsonl"), seq)


def hand_written(grid, channels, rng):
    """Record lines for partial levels, shuffled, with odd JSON spacing and
    integer values."""
    lines = []
    for j in (-grid.side_log2, 1, grid.res_log2):
        count = cubes_per_axis(grid, j)
        for index in np.ndindex((count,) * grid.dim):
            if rng.random() < 0.5:
                continue
            value = [[int(rng.integers(-3, 4)), float(rng.standard_normal())]
                     if rng.random() < 0.5 else [float(rng.standard_normal()), 0]
                     for _ in range(channels)]
            rec = {"value": value, "cube": [j, list(index)]}
            text = json.dumps(rec, indent=None if rng.random() < 0.5 else 0)
            lines.append("  " + text.replace("\n", " ") + " \t")
    random.Random(int(rng.integers(1 << 30))).shuffle(lines)
    return lines


@pytest.mark.parametrize("grid", [TorusGrid(1, 2, 8), TorusGrid(2, 1, 4)], ids=["1d", "2d"])
@pytest.mark.parametrize("channels", [1, 2])
def test_read_matches_per_record_reader(tmp_path, grid, channels):
    rng = np.random.default_rng(10 + channels)
    head = {"header": {"dim": grid.dim, "side_log2": grid.side_log2,
                       "res_log2": grid.res_log2, "channels": channels}}
    lines = hand_written(grid, channels, rng)
    assert len(lines) > fieldio.RECORD_BLOCK      # more than one block
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(head) + "\n" + "\n".join(lines) + "\n")
    assert_same(fieldio.read_coeffs(path), read_per_record(path))
    path.write_text(json.dumps(head) + "\n" + "\n".join(lines))     # no final line end
    assert_same(fieldio.read_coeffs(path), read_per_record(path))


def read_error(path) -> str:
    with pytest.raises(ValueError) as info:
        fieldio.read_coeffs(path)
    return str(info.value)


def test_block_and_line_passes_agree(tmp_path):
    """Lines that json.loads could only read joined are refused at the first of
    them, as the per-line pass reads it; a bracket inside a string is no join."""
    head = json.dumps({"header": {"dim": 1, "side_log2": 2, "res_log2": 5, "channels": 2}})
    good = [json.dumps({"cube": [3, [i]], "value": [[1.0, 0.0], [0.0, 1.0]]})
            for i in range(8)]
    # a comma between lines that falls inside a value: the two lines parse as
    # two valid records only when joined
    merged = ['{"cube": [1, [0]], "value": [[1.0, 0.0], [2.0, 0.0]]}, '
              '{"cube": [1, [1]], "value": [[1.0, 0.0]', '[2.0, 0.0]]}']
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join([head, *good, *merged]) + "\n")
    assert read_error(path).startswith("line 10: not JSON: Extra data")
    # the same, across a nested extra key
    merged = ['{"cube": [1, [0]], "value": [[1.0, 0.0], [2.0, 0.0]]}, '
              '{"cube": [1, [1]], "value": [[1.0, 0.0], [2.0, 0.0]], "a": [{}', '{}]}']
    path.write_text("\n".join([head, *good, *merged]) + "\n")
    assert read_error(path).startswith("line 10: not JSON: Extra data")
    # the same, with brackets inside strings that balance each line's bracket count
    merged = ['{"cube": [1, [0]], "value": [[1.0, 0.0], [2.0, 0.0]]}, '
              '{"cube": [1, [1]], "value": [[1.0, 0.0], [2.0, 0.0]], "a": [{}, "]}"',
              '"{[", {}]}']
    path.write_text("\n".join([head, *good, *merged]) + "\n")
    assert read_error(path).startswith("line 10: not JSON: Extra data")
    # extra keys whose strings hold brackets and quotes are accepted by both passes
    odd = [json.dumps({"cube": [2, [i]], "value": [[1.0, -0.0], [3, 0]], "note": s})
           for i, s in enumerate(['[{', '}]"', '\\"]', ''])]
    path.write_text("\n".join([head, *good, *odd]) + "\n")
    assert_same(fieldio.read_coeffs(path), read_per_record(path))


def test_errors_name_lines_across_blocks(tmp_path):
    head = json.dumps({"header": {"dim": 1, "side_log2": 2, "res_log2": 6, "channels": 1}})
    records = [{"cube": [5, [i]], "value": [[float(i), 0.0]]} for i in range(128)]
    records += [{"cube": [6, [i]], "value": [[float(i), 0.0]]} for i in range(256)]
    lines = [json.dumps(r) for r in records]
    path = tmp_path / "c.jsonl"
    block = fieldio.RECORD_BLOCK
    for at, bad, message in ((block + 5, '{"cube": [6, [3]], "value": [[NaN, 0.0]]}',
                              "value must be finite"),
                             (block + 5, '{"cube": [6, [999]], "value": [[1.0, 0.0]]}',
                              "cube index must lie in"),
                             (3, '{"cube": [9, [0]], "value": [[1.0, 0.0]]}',
                              "cube level must lie in [-2, 6]"),
                             (block - 1, '{"cube": [6, [3]], "value": [[1e400, 0.0]]}',
                              "value must be finite"),
                             (len(lines) + 1, "", "not JSON")):
        path.write_text("\n".join([head, *lines[:at - 2], bad, *lines[at - 1:]]) + "\n")
        assert read_error(path).startswith(f"line {at}: {message}"), read_error(path)
    # a cube repeated in a later block names both lines
    path.write_text("\n".join([head, *lines, lines[7]]) + "\n")
    assert read_error(path) == f"line {len(lines) + 2}: cube [5, [7]] repeats line 9"
    path.write_text('{"header": {"dim": 1, "side_log2": 2, "res_log2": 5}}\n' + lines[0])
    assert read_error(path).startswith("line 1: file header 'channels' must be int")


def test_empty_and_zero_records(tmp_path):
    head = json.dumps({"header": {"dim": 2, "side_log2": 1, "res_log2": 3, "channels": 1}})
    path = tmp_path / "c.jsonl"
    path.write_text(head + "\n")
    assert fieldio.read_coeffs(path).levels() == []
    path.write_text(head + "\n" + json.dumps({"cube": [0, [1, 0]], "value": [[0, 0]]}) + "\n")
    back = fieldio.read_coeffs(path)
    assert back.levels() == [0] and not np.any(back.arrays[0])


#: one malformed record per check of the reader, with its exact message
RECORD_CHECKS = [
    ("[1, 2]", "a coefficient record must be a JSON object, got [1, 2]"),
    ('{"cube": [1, [0]]}', "record has no 'value' key"),
    ('{"cube": [1], "value": [[1.0, 0.0], [0.0, 1.0]]}',
     "cube must be [level, [index...]], got [1]"),
    ('{"cube": [1.0, [0]], "value": [[1.0, 0.0], [0.0, 1.0]]}',
     "cube level must be a JSON integer, got 1.0"),
    ('{"cube": [6, [0]], "value": [[1.0, 0.0], [0.0, 1.0]]}',
     "cube level must lie in [-2, 5], got 6"),
    ('{"cube": [1, [0, 1]], "value": [[1.0, 0.0], [0.0, 1.0]]}',
     "cube index must be a list of 1 JSON integers, got [0, 1]"),
    ('{"cube": [1, [true]], "value": [[1.0, 0.0], [0.0, 1.0]]}',
     "cube index must be a list of 1 JSON integers, got [true]"),
    ('{"cube": [1, [8]], "value": [[1.0, 0.0], [0.0, 1.0]]}',
     "cube index must lie in [0, 2^(level + side_log2)), got [1, [8]]"),
    ('{"cube": [1, [0]], "value": [[1.0, 0.0]]}',
     "value must be 2 [re, im] pairs of JSON numbers, got [[1.0, 0.0]]"),
    ('{"cube": [1, [0]], "value": [[1.0, 0.0], [1.0]]}',
     "value must be 2 [re, im] pairs of JSON numbers, got [[1.0, 0.0], [1.0]]"),
    ('{"cube": [1, [0]], "value": [[1.0, 0.0], ["1", 0.0]]}',
     'value must be 2 [re, im] pairs of JSON numbers, got [[1.0, 0.0], ["1", 0.0]]'),
    ('{"cube": [1, [0]], "value": [[1.0, 0.0], [NaN, 0.0]]}',
     "value must be finite, got [[1.0, 0.0], [NaN, 0.0]]"),
]


@pytest.mark.parametrize("line, message", RECORD_CHECKS,
                         ids=["object", "key", "cube-shape", "level-type", "level-range",
                              "index-shape", "index-type", "index-range", "value-shape",
                              "pair-shape", "number-type", "finite"])
def test_each_record_check_names_its_line(tmp_path, line, message):
    head = json.dumps({"header": {"dim": 1, "side_log2": 2, "res_log2": 5, "channels": 2}})
    good = [json.dumps({"cube": [3, [i]], "value": [[1.0, 0.0], [0.0, 1.0]]}) for i in range(3)]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join([head, good[0], line, *good[1:]]) + "\n")
    assert read_error(path) == f"line 3: {message}"
