"""The block-streamed table writer against the per-cell writer it replaced.

The reference below is the earlier `write_table`, kept verbatim: one `_fmt`
call per cell for CSV, and `json.dumps(doc, indent=2)` of the columns'
`tolist()` for JSON. The new writer formats each distinct value once and
writes the same layout by hand, so the two must agree byte for byte, to a
file and to stdout, on the values where formatting is easiest to get
wrong: signed zeros, subnormals, the largest doubles, non-finite values,
integers, the repeated axis columns of the CLI, and row counts around the
block size and across several blocks, where values recur from block to
block. Two more tests hold the writer to its cost: the kernel formats each
distinct bit pattern of a float column once, and a table's write holds no
more than a small multiple of its columns' bytes.
"""

import json
import tracemalloc

import numpy as np
import pytest

from mcskit import MCSLabel, PhaseGrid, _shortest, build_mcs, wigner_closed, wigner_numeric
from mcskit.cli import _BLOCK_ROWS, write_table


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

SPECIAL = np.array(
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, 2.0,
     np.nan, -np.nan, np.inf, -np.inf]
)

ROWS = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5)


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_without_columns_or_config(capsys, fmt):
    for config, cols in (([], []), (CONFIG, []), ([], columns(3))):
        write_table("-", fmt, config, cols)
        assert_same_text(capsys.readouterr().out, table_reference(fmt, config, cols))


def field_table():
    """The four columns of `mcskit wigner --k 2 --j 0 --z 2 --method both`."""
    grid = PhaseGrid()
    state = build_mcs(MCSLabel(2, 0, 4.0))
    return [
        ("q", np.repeat(grid.q_axis, grid.n_p)),
        ("p", np.tile(grid.p_axis, grid.n_q)),
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
    distinct = sum(np.unique(col.view(np.int64)).size for _, col in cols)
    assert sum(calls) == distinct
    assert max(calls) <= _BLOCK_ROWS  # the kernel's temporaries stay block-sized


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_holds_a_small_multiple_of_the_columns(tmp_path, fmt):
    # each column's index and distinct text plus one block's buffer: about
    # 2.5x the columns' bytes for CSV and 2x for JSON at 257^2 rows; the
    # text of the whole table would pass the limit
    cols = field_table()
    path = str(tmp_path / f"table.{fmt}")
    write_table(path, fmt, CONFIG, cols)  # the kernel's tables are built once
    tracemalloc.start()
    try:
        write_table(path, fmt, CONFIG, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * sum(col.nbytes for _, col in cols)
