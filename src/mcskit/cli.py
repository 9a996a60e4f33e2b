"""Command line front end.

Subcommands: spectrum, uncertainty, wigner, evolve, verify. Output is a
CSV table (default) or JSON document on stdout or --out; CSV carries the
run configuration as leading '# key = value' lines so a file is
reproducible from its own header. All numbers are emitted with shortest
round-trip formatting, so identical invocations produce identical bytes,
and a JSON column holds the same strings as its CSV column. A table is
finite, rectangular and non-empty: the writer raises ValueError, before it
opens its output, for a table with no column, an empty column, columns of
unequal length or a non-finite value, since any of these is a fault of the
program, not of its input.

The writer formats each column once. A grid axis comes as an _Axis, its
values with their repeat and tile counts, so each axis value is formatted
once and a row's cell is found by arithmetic; any other column goes
through np.unique, which gives its distinct bit patterns (integers by
value) and each cell's index into them. `_shortest.repr_rows`, a numpy
kernel that gives the bytes of repr(float) with no Python code per value,
formats the distinct floats _BLOCK_ROWS at a time (integers print with
str). Blocks of _BLOCK_ROWS rows then only set the layout: each row is one
item of a structured array whose fields are fixed-width cells and
separators, so a block copies one item per cell, and one bytes.translate
drops the padding. Blocks stay bytes up to a file opened "wb"; only
stdout decodes them. Only numpy arrays are held: the index of each value
column (8 bytes per cell), the distinct text (at most 24 bytes per value),
and one block's buffer; the 257^2 table of `wigner --method both` (four
float columns, 2.1 MB as arrays) peaks at 4.0 MiB as CSV and 2.9 MiB as
JSON, measured with tracemalloc. No Python string per cell, and no text of
a whole table, is ever held.

Complex values are parsed as 're,im' or polar 'r@theta' with theta in
degrees; a bare number is taken as real. Grids are 'qmin,qmax,pmin,pmax,
nq,np' for phase space and 'xmin,xmax,nx' for position space. An axis,
--nt among them, and --nmax take 2 to 2^26 points, and --points 1 to
2^26: the library's cap on one array, which also refuses a field or movie
past 2^26 entries (exit 1).

The parsed argparse namespace is the run configuration. Every option is
checked when it is parsed, by its type= parser, which takes finite values
in range only; the two bounds that tie options together (j < k and
alpha-min <= alpha) are checked right after parsing. A table's header is
the command, every option but --out and --format in --help order (a
position grid as xmin, xmax, nx), then what the command derived: evolve's
default tmax, uncertainty's tol and wigner --method both's sup_abs_diff.

Exit status: 0 on success (verify: all checks passed), 1 on any failed
check, domain error or unwritable --out, 2 on argument errors, among them
any option that is non-finite or out of range (argparse's convention).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .decomposition import _ring_state, density_movie
from .errors import McskitError
from .fock import _ENTRIES_MAX, DEFAULT_N_MAX, ladder_spectrum
from .states import _ROUTE_TOL, MCSLabel, _beta, a_norm_closed, moments
from .verify import SUITE_NAMES, run_suite
from .wigner import PhaseGrid, _axis, _sup_gap, wigner_closed, wigner_numeric


def _bounded(kind: type, low: float, strict: bool = False, high: float = math.inf):
    """A type= parser: kind(text), finite, >= low (> low if strict) and <= high."""
    relation = ">" if strict else ">="
    what = "an integer" if kind is int else "a finite number"
    cap = f" and <= {high}" if high < math.inf else ""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        above = low < value if strict else low <= value
        if not (above and value <= high and value < math.inf):
            raise argparse.ArgumentTypeError(
                f"must be {what} {relation} {low}{cap}, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__
    return parse


# points on one axis (nq, np and nx of a grid, and --nt) and levels of a
# truncation (--nmax), refused past the library's array cap before any
# array is built
_axis_points = _bounded(int, 2, high=_ENTRIES_MAX)


def parse_complex(text: str) -> complex:
    """'re,im', polar 'r@degrees', or a bare real number; finite parts only."""
    s = text.strip()
    polar = "@" in s
    try:
        parts = [float(v) for v in s.split("@" if polar else ",", 1)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex value {text!r}; use 're,im' or 'r@degrees'"
        ) from None
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"complex value {text!r} must be finite")
    if polar:
        r, theta = parts
        return r * complex(np.exp(1j * math.radians(theta)))
    return complex(*parts)


def parse_phase_grid(text: str) -> PhaseGrid:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            f"phase grid needs 6 fields qmin,qmax,pmin,pmax,nq,np, got {text!r}"
        )
    try:
        qmin, qmax, pmin, pmax = (float(v) for v in parts[:4])
        nq, npts = (_axis_points(v) for v in parts[4:])
        return PhaseGrid(qmin, qmax, pmin, pmax, nq, npts)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad phase grid {text!r}: {exc}") from None


def parse_x_grid(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"position grid needs 3 fields xmin,xmax,nx, got {text!r}"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = _axis_points(parts[2])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad position grid {text!r}: {exc}") from None
    # a finite span also means finite bounds
    if not (lo < hi and math.isfinite(hi - lo)):
        raise argparse.ArgumentTypeError(f"bad position grid {text!r}")
    return _axis(lo, hi, n)


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer, str)):
        return str(value)
    if isinstance(value, PhaseGrid):
        return ",".join(map(_fmt, dataclasses.astuple(value)))
    if isinstance(value, complex):
        return f"{value.real!r},{value.imag!r}"
    return repr(float(value))


# rows formatted at a time: big enough that numpy's per-call cost is
# spread over many values, small enough that a block's arrays stay small
# (16384 rows gave the cli benchmark the same wall time and 1.2 MB more
# peak RSS)
_BLOCK_ROWS = 4096


def _float_rows(values: np.ndarray) -> np.ndarray:
    """Rows of repr text of finite float64 values.

    The kernel formats _BLOCK_ROWS values at a time, so its uint64
    temporaries stay cache-sized whatever the column's length.
    """
    # imported on first use: a process that imports the cli but writes no
    # float never compiles the kernel (0.3 MB of peak RSS on grids)
    from . import _shortest

    starts = range(0, values.size, _BLOCK_ROWS)
    parts = [_shortest.repr_rows(values[start:start + _BLOCK_ROWS]) for start in starts]
    rows = np.zeros((values.size, max(part.shape[1] for part in parts)), np.uint8)
    for start, part in zip(starts, parts):
        rows[start:start + len(part), :part.shape[1]] = part
    return rows


class _Axis:
    """A grid axis as a table column: np.tile(np.repeat(values, repeat), tile).

    Row i holds values[i // repeat % values.size], so the writer formats
    each axis value once and finds a row's cell by arithmetic; len() is the
    row count, as for an array column.
    """

    def __init__(self, values: np.ndarray, repeat: int = 1, tile: int = 1) -> None:
        self.values, self.repeat, self.tile = np.asarray(values), repeat, tile

    def __len__(self) -> int:
        return self.values.size * self.repeat * self.tile


def _cells(col: np.ndarray | _Axis) -> tuple[np.ndarray, np.ndarray, int]:
    """(text, index, repeat): the text of cell i is text[index[i // repeat % index.size]].

    text holds one fixed-width void item per distinct value; index maps
    each value of the column, or of the axis, to its text. Integers print
    with str and floats with repr, the shortest round-trip form, each
    distinct value once. Floats are told apart by bit pattern, so -0.0 and
    0.0 keep their own text.
    """
    values, repeat = (col.values, col.repeat) if isinstance(col, _Axis) else (col, 1)
    if values.dtype.kind in "iu":
        uniq, index = np.unique(values, return_inverse=True)
        text = np.array(list(map(str, uniq.tolist())), dtype=np.bytes_)
        rows = text.view(np.uint8).reshape(text.size, text.itemsize)
    else:
        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        uniq, index = np.unique(bits, return_inverse=True)
        rows = _float_rows(uniq.view(np.float64))
    return rows.view(f"V{rows.shape[1]}").ravel(), index, repeat


def _blocks(parts: list, n_rows: int) -> Iterator[bytes]:
    """Rows 0 to n_rows - 1, _BLOCK_ROWS at a time, each row being its parts
    in order: a bytes part as it is, a _cells part as that row's cell.

    The parts are the fields of one structured array of fixed-width void
    items: the bytes parts are set once by broadcast, each block copies one
    item per cell, and one translate pass drops the cells' zero padding.
    """
    fields = [(f"f{i}", f"V{len(p) if isinstance(p, bytes) else p[0].itemsize}")
              for i, p in enumerate(parts)]
    buf = np.empty(min(n_rows, _BLOCK_ROWS), dtype=fields)
    cells = []
    for (name, _), part in zip(fields, parts):
        if isinstance(part, bytes):
            buf[name] = np.void(part)
        else:
            cells.append((name, *part))
    for start in range(0, n_rows, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, n_rows))
        block = buf[:rows.size]
        for name, text, index, repeat in cells:
            pick = index.take(rows // repeat, mode="wrap")
            text.take(pick, out=block[name], mode="clip")
        yield block.tobytes().translate(None, b"\0")


def _csv_blocks(
    config: list[tuple[str, str]], names: list[str], cols: list
) -> Iterator[bytes]:
    yield "".join(f"# {key} = {val}\n" for key, val in config).encode()
    yield (",".join(names) + "\n").encode()
    parts: list = []
    for col in cols:
        parts += [_cells(col), b","]
    parts[-1] = b"\n"
    yield from _blocks(parts, len(cols[0]))


def _json_blocks(config: dict[str, str], columns: dict[str, object]) -> Iterator[bytes]:
    """The bytes of json.dumps({"config": ..., "columns": ...}, indent=2)."""
    # one level deeper; json.dumps escapes any newline inside a string
    conf = json.dumps(config, indent=2).replace("\n", "\n  ")
    yield ('{\n  "config": ' + conf + ',\n  "columns": ').encode()
    for c, (name, col) in enumerate(columns.items()):
        yield (("{" if c == 0 else ",") + f"\n    {json.dumps(name)}: ").encode()
        blocks = _blocks([b",\n      ", _cells(col)], len(col))
        yield b"[" + next(blocks)[1:]
        yield from blocks
        yield b"\n    ]"
    yield b"\n  }\n}\n"


def write_table(
    out: str,
    fmt: str,
    config: list[tuple[str, object]],
    columns: list[tuple[str, np.ndarray | _Axis]],
) -> None:
    """Write the table as CSV or JSON, formatted and streamed in row blocks.

    A column is an array or an _Axis. Both formats carry the same cell
    strings, so a JSON column holds exactly the floats of its CSV twin.
    ValueError, before the output is opened, unless the table has a column,
    its columns have one length of at least 1, and every value is finite.
    """
    conf = [(key, _fmt(val)) for key, val in config]
    names = [name for name, _ in columns]
    cols = [col if isinstance(col, _Axis) else np.asarray(col) for _, col in columns]
    lengths = {len(col) for col in cols}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"a table needs columns of one length of at least 1, "
                         f"got lengths {sorted(lengths)}")
    for name, col in zip(names, cols):
        if not np.isfinite(col.values if isinstance(col, _Axis) else col).all():
            raise ValueError(f"column {name!r} holds a non-finite value")
    if fmt == "csv":
        blocks = _csv_blocks(conf, names, cols)
    else:
        blocks = _json_blocks(dict(conf), dict(zip(names, cols)))
    if out == "-":
        sys.stdout.writelines(block.decode() for block in blocks)
    else:
        with open(out, "wb") as fh:
            fh.writelines(blocks)


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", dest="fmt",
        help="output format (default csv)",
    )


def _header(args: argparse.Namespace) -> list[tuple[str, object]]:
    """The table's run configuration: the namespace in the order the parser
    filled it, which is --help order with the derived values last, less
    --out, --format and the handler; a position grid as xmin, xmax, nx."""
    header: list[tuple[str, object]] = []
    for key, value in vars(args).items():
        if isinstance(value, np.ndarray):
            header += [("xmin", value[0]), ("xmax", value[-1]), ("nx", value.size)]
        elif key not in ("out", "fmt", "func"):
            header.append((key, value))
    return header


def cmd_spectrum(args: argparse.Namespace) -> list:
    spec = ladder_spectrum(args.k, levels=args.levels)
    return [
        ("class_index", _Axis(np.arange(args.k), repeat=args.levels)),
        ("step", _Axis(np.arange(args.levels), tile=args.k)),
        ("energy", spec.ravel()),
    ]


def cmd_uncertainty(args: argparse.Namespace) -> list:
    alphas = np.linspace(args.alpha_min, args.alpha, args.points)
    k, j = args.k, args.j
    rows = {
        name: np.empty(alphas.size)
        for name in ("a_norm_sq", "uncertainty_product", "mean_H", "geo_phase")
    }
    for i, a in enumerate(alphas):
        mom = moments(MCSLabel(k, j, complex(a)), n_max=args.nmax)
        rows["a_norm_sq"][i] = mom.a_norm_sq
        rows["uncertainty_product"][i] = mom.uncertainty_product
        rows["mean_H"][i] = mom.mean_H
        rows["geo_phase"][i] = _beta(k, j, mom.a_norm_sq)
    columns = [("alpha", alphas)] + [(name, col) for name, col in rows.items()]
    if k > 1:  # from k = 2 on <x> = <p> = 0, which the closed product takes
        closed_n = np.array([a_norm_closed(MCSLabel(k, j, complex(a))) for a in alphas])
        cross = alphas if k == 2 else np.zeros_like(alphas)
        closed_prod = np.sqrt((closed_n + 0.5 + cross) * (closed_n + 0.5 - cross))
        columns += [("a_norm_sq_closed", closed_n), ("product_closed", closed_prod)]
    args.tol = _ROUTE_TOL
    return columns


def cmd_wigner(args: argparse.Namespace) -> list:
    grid, k, j, z = args.grid, args.k, args.j, args.z
    fields = {}
    if args.method in ("closed", "both"):
        fields["w_closed"] = wigner_closed(k, j, z, grid).values
    if args.method in ("numeric", "both"):
        fields["w_numeric"] = wigner_numeric(_ring_state(k, j, z, args.nmax), grid).values
    if args.method == "both":
        args.sup_abs_diff = _sup_gap(fields["w_closed"], fields["w_numeric"])
    else:
        fields = {"w": fields.popitem()[1]}
    return [
        ("q", _Axis(grid.q_axis, repeat=grid.n_p)),
        ("p", _Axis(grid.p_axis, tile=grid.n_q)),
    ] + [(name, field.ravel()) for name, field in fields.items()]


def cmd_evolve(args: argparse.Namespace) -> list:
    x = args.grid
    if args.tmax is None:
        args.tmax = 2.0 * math.pi / args.k
    t_grid = np.linspace(0.0, args.tmax, args.nt)
    movie = density_movie(
        args.k, args.j, args.z, x, t_grid, method=args.method, n_max=args.nmax
    )
    return [
        ("t", _Axis(t_grid, repeat=x.size)),
        ("x", _Axis(x, tile=t_grid.size)),
        ("density", movie.ravel()),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    all_passed = True
    total = 0
    for suite in suites:
        try:
            results = run_suite(suite)
        except McskitError as exc:
            print(f"ERROR {suite}: {type(exc).__name__}: {exc}")
            return 1
        for r in results:
            total += 1
            status = "PASS" if r.passed else "FAIL"
            all_passed &= r.passed
            print(
                f"{status} [{suite}] {r.name}: "
                f"{r.value:.3e} {r.relation} {r.threshold:.1e}"
            )
    print(f"{total} checks, {'all passed' if all_passed else 'FAILURES above'}")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcskit",
        description="Multiphoton coherent states: spectra, uncertainties, "
        "phase-space fields, time evolution, self-checks.",
    )
    parser.add_argument("--version", action="version", version=f"mcskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="energy ladders of the order-k algebra")
    p.add_argument("--k", type=_bounded(int, 1), required=True,
                   help="ladder power k >= 1")
    p.add_argument("--levels", type=_bounded(int, 1), default=12,
                   help="levels per class ladder")
    _add_io(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "uncertainty", help="moment sweep along real alpha for one class"
    )
    p.add_argument("--k", type=_bounded(int, 1), required=True)
    p.add_argument("--j", type=_bounded(int, 0), default=0, help="class index in [0, k)")
    p.add_argument("--alpha-min", type=_bounded(float, 0.0), default=0.0)
    p.add_argument("--alpha", type=_bounded(float, 0.0), default=4.0,
                   help="sweep endpoint; the table covers [alpha-min, alpha]")
    p.add_argument("--points", type=_bounded(int, 1, high=_ENTRIES_MAX), default=81)
    p.add_argument("--nmax", type=_axis_points, default=DEFAULT_N_MAX,
                   help="truncation dimension")
    _add_io(p)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("wigner", help="phase-space field of one class state")
    p.add_argument("--k", type=_bounded(int, 1), required=True)
    p.add_argument("--j", type=_bounded(int, 0), default=0)
    p.add_argument("--z", type=parse_complex, required=True,
                   help="ring label; the ladder eigenvalue is z^k")
    p.add_argument("--grid", type=parse_phase_grid,
                   default=PhaseGrid(), help="qmin,qmax,pmin,pmax,nq,np")
    p.add_argument("--method", choices=("closed", "numeric", "both"), default="closed")
    p.add_argument("--nmax", type=_axis_points, default=DEFAULT_N_MAX)
    _add_io(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("evolve", help="|psi(x,t)|^2 over one revival period")
    p.add_argument("--k", type=_bounded(int, 1), required=True)
    p.add_argument("--j", type=_bounded(int, 0), default=0)
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--grid", type=parse_x_grid, default="-12,12,513", help="xmin,xmax,nx")
    p.add_argument("--tmax", type=_bounded(float, 0.0, strict=True), default=None,
                   help="default: one revival period 2*pi/k")
    p.add_argument("--nt", type=_axis_points, default=65)
    p.add_argument("--method", choices=("closed", "fock"), default="closed")
    p.add_argument("--nmax", type=_axis_points, default=DEFAULT_N_MAX)
    _add_io(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.set_defaults(func=cmd_verify)

    return parser


# argparse treats a separate value token starting with '-' as an option
# string, so `--grid -8,8,65` dies before our parser sees it; fold such
# values into --flag=value form. Plain negative numbers are already fine.
_DASH_VALUE_FLAGS = ("--grid", "--z")


def _absorb_dash_values(argv: list[str]) -> list[str]:
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _DASH_VALUE_FLAGS and re.match(r"^-[\d.]", nxt):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# building the parser takes about 1.4 ms (argparse asks for the terminal
# size once per option), ten times what parsing takes, so main builds it
# once per process
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    args = parser.parse_args(_absorb_dash_values(list(argv)))
    # the bounds that tie two options together; argparse's exit code 2
    if "j" in args and args.j >= args.k:
        parser.error(f"j must lie in [0, k), got j={args.j} with k={args.k}")
    if "alpha_min" in args and args.alpha_min > args.alpha:
        parser.error(
            f"alpha sweep needs alpha-min <= alpha, got [{args.alpha_min}, {args.alpha}]"
        )
    try:
        result = args.func(args)
        if "out" not in args:  # verify prints its own report and returns its status
            return result
        write_table(args.out, args.fmt, _header(args), result)
        return 0
    except McskitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        out = getattr(args, "out", "-")  # verify has no --out
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
