"""The vectorized shortest round-trip writer against repr(float), byte for byte.

`repr_rows` must give exactly the bytes of `repr` for every finite double.
The edge set holds the values where shortest-digit algorithms and repr's
layout rules go wrong: signed zeros, subnormals, every power of two (the
asymmetric rounding interval) and of ten, the fixed/scientific switches at
1e-4/1e-5 and 1e16, exact halfway ties, and the ends of the range. Random
bit patterns cover every exponent and significand; decade-spread normals
cover the numbers a table mostly holds. `scripts/shortest_check.py` runs
the same comparison on many more patterns.
"""

import json

import numpy as np
import pytest

from mcskit._shortest import WIDTH, repr_rows
from mcskit.cli import write_table


def assert_same_as_repr(values):
    values = np.asarray(values, dtype=np.float64)
    rows = repr_rows(values)
    assert rows.dtype == np.uint8 and rows.shape[0] == values.size
    assert rows.shape[1] <= WIDTH
    got = [row.tobytes().rstrip(b"\0").decode("ascii") for row in rows]
    want = list(map(repr, values.tolist()))
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} of {values.size} differ, first {bad[:5]}"
    # nothing but zero padding after the text
    lengths = np.array([len(w) for w in want])
    assert not np.any(rows[np.arange(rows.shape[1]) >= lengths[:, None]])


def edge_values():
    subnormal_bits = np.concatenate([
        np.arange(1, 4097),  # 5e-324 upwards
        (2 ** np.arange(52)[None, :] + np.array([-1, 0, 1])[:, None]).ravel(),
        [2**52 - 1],  # the largest subnormal
    ])
    subnormal_bits = subnormal_bits[(subnormal_bits > 0) & (subnormal_bits < 2**52)]
    subnormals = subnormal_bits.astype(np.uint64).view(np.float64)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near_2_53 = 2.0**53 + np.arange(-64, 65) * 2.0
    near_2_53 = np.concatenate([near_2_53, 2.0**53 - np.arange(1, 65)])
    # exact halfway cases, where the tie goes to the even candidate
    ties = np.concatenate([2.0**50 + np.array([0.25, 0.75]), 2.0**49 + np.array([0.125, 0.375])])
    singles = [
        0.0, 1e-4, 1e-5, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e15,
        1e22, 1e23, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.5, 123.0, 100.0, 1.5e300,
        2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
        4.35, 5e-310, 9007199254740993.0,
    ]
    values = np.concatenate([
        singles, subnormals, powers_of_two, powers_of_ten, near_2_53, ties,
        np.nextafter(powers_of_ten, np.inf), np.nextafter(powers_of_ten, 0.0),
    ])
    return np.concatenate([values, -values])


def test_edge_set():
    values = edge_values()
    assert_same_as_repr(values)


def test_random_bit_patterns():
    rng = np.random.default_rng(20181)
    values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert_same_as_repr(values[np.isfinite(values)])


def test_decade_spread_normals():
    rng = np.random.default_rng(20182)
    n = 100_000
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    assert_same_as_repr(values)
    # short decimals, where the shortest digits are few
    assert_same_as_repr(np.rint(rng.standard_normal(n) * 1e6) / 10.0 ** rng.integers(0, 9, n))


def test_empty_and_unaligned_input():
    assert repr_rows(np.empty(0)).shape[0] == 0
    strided = np.linspace(-3.0, 3.0, 41)[::3]
    assert_same_as_repr(strided)
    assert_same_as_repr(np.float32(0.1) * np.ones(3, dtype=np.float32))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nonfinite_rows_through_the_writer(tmp_path, fmt):
    # the writer refuses a non-finite row before it opens its output, and
    # writes the finite rows beside it as repr does
    col = np.array([np.nan, 1.5, np.inf, -np.inf, -0.0, np.nan, 2.0**-1074])
    path = tmp_path / f"t.{fmt}"
    with pytest.raises(ValueError, match="non-finite"):
        write_table(str(path), fmt, [("k", 1)], [("w", col), ("i", np.arange(col.size))])
    assert not path.exists()
    col = col[np.isfinite(col)]
    write_table(str(path), fmt, [("k", 1)], [("w", col), ("i", np.arange(col.size))])
    text = path.read_text()
    if fmt == "csv":
        rows = text.splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == list(map(repr, col.tolist()))
    else:
        assert text == json.dumps(
            {"config": {"k": "1"}, "columns": {"w": col.tolist(), "i": list(range(col.size))}},
            indent=2,
        ) + "\n"
