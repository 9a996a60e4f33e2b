"""The block-streamed table writer against the per-cell writer it replaced.

The reference below is the earlier `write_table`, kept verbatim: one `_fmt`
call per cell for CSV, and `json.dumps(doc, indent=2)` of the columns'
`tolist()` for JSON. The new writer formats each distinct value once and
writes the same layout by hand, so the two must agree byte for byte, to a
file and to stdout, on the values where formatting is easiest to get
wrong: signed zeros, subnormals, the largest doubles, integers, the
repeated axis columns of the CLI, and row counts around the block size and
across several blocks, where values recur from block to block. The writer
takes finite, rectangular, non-empty tables only: a non-finite value, no
column, an empty column or columns of unequal length raise ValueError
before a byte is written. Two more tests hold the writer to its cost: the
kernel formats each distinct bit pattern of a float column once, and a
table's write holds no more than a small multiple of its columns' bytes.
"""

import json
import tracemalloc

import numpy as np
import pytest

from mcskit import MCSLabel, PhaseGrid, _shortest, build_mcs, wigner_closed, wigner_numeric
from mcskit.cli import _BLOCK_ROWS, _Axis, write_table


def _fmt_reference(value) -> str:
    if isinstance(value, (bool, int, np.integer, str)):
        return str(value)
    if isinstance(value, complex):
        return f"{value.real!r},{value.imag!r}"
    return repr(float(value))


def table_reference(fmt, config, columns) -> str:
    if fmt == "csv":
        lines = [f"# {key} = {_fmt_reference(val)}" for key, val in config]
        lines.append(",".join(name for name, _ in columns))
        data = [np.asarray(col) for _, col in columns]
        for row in zip(*data):
            lines.append(",".join(_fmt_reference(v) for v in row))
        return "\n".join(lines) + "\n"
    doc = {
        "config": {key: _fmt_reference(val) for key, val in config},
        "columns": {name: np.asarray(col).tolist() for name, col in columns},
    }
    return json.dumps(doc, indent=2) + "\n"


CONFIG = [
    ("command", "reference"),
    ("k", 3),
    ("n", np.int64(-7)),
    ("z", 1.5 - 0.25j),
    ("tol", 1e-10),
    ("note", 'quoted "text", a\\b'),
]

SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, 2.0])

ROWS = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5)


def columns(n_rows):
    rng = np.random.default_rng(n_rows)
    axis = np.linspace(-6.0, 6.0, 17)
    n_blocks = -(-n_rows // axis.size)
    return [
        ("special", np.resize(SPECIAL, n_rows)),
        ("q", np.repeat(axis, n_blocks)[:n_rows]),
        ("p", np.tile(axis, n_blocks)[:n_rows]),
        ("w", rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)),
        ("index", rng.integers(-(10**12), 10**12, n_rows)),
        ("level", np.arange(n_rows, dtype=np.uint16)),
    ]


def assert_same_text(got, want):
    """Equality with a one-line report; a full diff of large tables is slow."""
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, pair in enumerate(zip(g, w)) if pair[0] != pair[1]),
                 min(len(g), len(w)))
        pytest.fail(f"first difference at line {i}: {g[i:i + 1]} != {w[i:i + 1]} "
                    f"({len(g)} vs {len(w)} lines)")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", ROWS)
def test_file_matches_reference(tmp_path, fmt, n_rows):
    cols = columns(n_rows)
    path = tmp_path / f"table.{fmt}"
    write_table(str(path), fmt, CONFIG, cols)
    assert_same_text(path.read_bytes().decode("ascii"), table_reference(fmt, CONFIG, cols))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", ROWS)
def test_stdout_matches_reference(capsys, fmt, n_rows):
    cols = columns(n_rows)
    write_table("-", fmt, CONFIG, cols)
    assert_same_text(capsys.readouterr().out, table_reference(fmt, CONFIG, cols))


def assert_refused(tmp_path, capsys, fmt, config, cols, match):
    """ValueError to a file and to stdout, with no file made and nothing printed."""
    path = tmp_path / f"table.{fmt}"
    with pytest.raises(ValueError, match=match):
        write_table(str(path), fmt, config, cols)
    assert not path.exists()
    with pytest.raises(ValueError, match=match):
        write_table("-", fmt, config, cols)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_without_columns_or_config(tmp_path, capsys, fmt):
    cols = columns(3)
    write_table("-", fmt, [], cols)
    assert_same_text(capsys.readouterr().out, table_reference(fmt, [], cols))
    for config in ([], CONFIG):
        assert_refused(tmp_path, capsys, fmt, config, [], "one length of at least 1")


def grid_columns(slow, fast, value=None):
    """A grid table as the CLI passes it, slow axis outermost, and the same
    table as expanded arrays for the reference."""
    n_rows = slow.size * fast.size
    if value is None:  # random values with the special ones at every fifth row
        value = np.random.default_rng(n_rows).standard_normal(n_rows)
        value[::5] = np.resize(SPECIAL, value[::5].size)
    axes = [("slow", _Axis(slow, repeat=fast.size)), ("fast", _Axis(fast, tile=slow.size)),
            ("value", value)]
    arrays = [("slow", np.repeat(slow, fast.size)), ("fast", np.tile(fast, slow.size)),
              ("value", value)]
    return axes, arrays


GRIDS = {
    # rows and strides on both sides of _BLOCK_ROWS
    "3x4097": (np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 7.0, _BLOCK_ROWS + 1)),
    "65x63": (np.linspace(0.0, 2.0 * np.pi / 3.0, 65), np.linspace(-12.0, 12.0, 63)),
    "4097x2": (np.linspace(-6.0, 6.0, _BLOCK_ROWS + 1), np.array([-0.0, 0.0])),
    "1x1": (np.array([0.5]), np.array([1e-300])),
    # the special values as an axis, repeated values included
    "special": (SPECIAL, np.append(SPECIAL, SPECIAL[:3])),
    # spectrum's class_index x step
    "int": (np.arange(7), np.arange(_BLOCK_ROWS // 3)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", GRIDS)
def test_axis_columns_match_the_expanded_reference(tmp_path, capsys, fmt, grid):
    axes, arrays = grid_columns(*GRIDS[grid])
    want = table_reference(fmt, CONFIG, arrays)
    path = tmp_path / f"table.{fmt}"
    write_table(str(path), fmt, CONFIG, axes)
    assert_same_text(path.read_bytes().decode("ascii"), want)
    write_table("-", fmt, CONFIG, axes)
    assert_same_text(capsys.readouterr().out, want)


def test_axis_length_is_its_row_count():
    # the benchmark counts a table's cells as the len() of its columns
    assert len(_Axis(np.arange(5), repeat=3, tile=2)) == 30
    assert len(_Axis(np.arange(5))) == 5


NONFINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("where", ["value", "axis"])
def test_non_finite_values_are_refused(tmp_path, capsys, fmt, bad, where):
    slow, fast = np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 7.0, 5)
    value = np.random.default_rng(15).standard_normal(15)
    if where == "value":
        value[7] = NONFINITE[bad]
    else:
        fast[2] = NONFINITE[bad]
    axes, _ = grid_columns(slow, fast, value)
    name = "value" if where == "value" else "fast"
    assert_refused(tmp_path, capsys, fmt, CONFIG, axes,
                   f"column '{name}' holds a non-finite value")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_columns_are_refused(tmp_path, capsys, fmt):
    cols = [("q", np.array([])), ("p", _Axis(np.array([]), tile=3))]
    assert_refused(tmp_path, capsys, fmt, CONFIG, cols, "one length of at least 1")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ragged_columns_are_refused(tmp_path, capsys, fmt):
    # 3 x 4 axes beside a 20-row value column
    axes, _ = grid_columns(np.arange(3.0), np.arange(4.0), np.arange(20.0))
    assert_refused(tmp_path, capsys, fmt, CONFIG, axes, r"got lengths \[12, 20\]")


def field_table():
    """The four columns of `mcskit wigner --k 2 --j 0 --z 2 --method both`,
    axes as the CLI passes them."""
    grid = PhaseGrid()
    state = build_mcs(MCSLabel(2, 0, 4.0))
    return [
        ("q", _Axis(grid.q_axis, repeat=grid.n_p)),
        ("p", _Axis(grid.p_axis, tile=grid.n_q)),
        ("w_closed", wigner_closed(2, 0, 2.0, grid).values.ravel()),
        ("w_numeric", wigner_numeric(state, grid).values.ravel()),
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_distinct_value_is_formatted_once_per_column(monkeypatch, tmp_path, fmt):
    cols = field_table()
    calls = []
    kernel = _shortest.repr_rows

    def counted(values):
        calls.append(values.size)
        return kernel(values)

    monkeypatch.setattr(_shortest, "repr_rows", counted)
    write_table(str(tmp_path / f"table.{fmt}"), fmt, CONFIG, cols)
    # an axis reaches the kernel once per distinct axis value, not per row
    values = [col.values if isinstance(col, _Axis) else col for _, col in cols]
    distinct = [np.unique(v.view(np.int64)).size for v in values]
    assert distinct[:2] == [PhaseGrid().n_q, PhaseGrid().n_p]
    assert sum(calls) == sum(distinct)
    assert max(calls) <= _BLOCK_ROWS  # the kernel's temporaries stay block-sized


# peak over the columns' bytes as float64 arrays, measured 1.99 (CSV) and 1.44
# (JSON) at 257^2 rows, plus 20%; the text of the whole table would pass it
PEAK_RATIO = {"csv": 2.4, "json": 1.73}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_holds_a_small_multiple_of_the_columns(tmp_path, fmt):
    # the value columns' indices and distinct text plus one block's buffer
    cols = field_table()
    path = str(tmp_path / f"table.{fmt}")
    write_table(path, fmt, CONFIG, cols)  # the kernel's tables are built once
    tracemalloc.start()
    try:
        write_table(path, fmt, CONFIG, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_RATIO[fmt] * sum(8 * len(col) for _, col in cols)
