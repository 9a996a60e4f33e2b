"""Command line front end.

Subcommands: spectrum, uncertainty, wigner, evolve, verify. Output is a
CSV table (default) or JSON document on stdout or --out; CSV carries the
run configuration as leading '# key = value' lines so a file is
reproducible from its own header. All numbers are emitted with shortest
round-trip formatting, so identical invocations produce identical bytes,
and a JSON column holds the same strings as its CSV column (JSON spells
non-finite values NaN, Infinity and -Infinity).

The writer formats each column once: np.unique gives its distinct bit
patterns (integers by value) and each cell's index into them, and
`_shortest.repr_rows`, a numpy kernel that gives the bytes of repr(float)
with no Python code per value, formats the distinct floats _BLOCK_ROWS at
a time (integers print with str, non-finite floats with repr). Blocks of
_BLOCK_ROWS rows then only set the layout: a block's cells and separators
are copied into one zero-padded byte buffer, and one bytes.translate drops
the padding. Only numpy arrays are held: each column's index (8 bytes per
cell) and distinct text (at most 24 bytes per value), and one block's
buffer; a 257^2 table of four float columns (2.1 MB) peaks at 5.3 MB as
CSV, measured with tracemalloc. No Python string per cell, and no text of
a whole table, is ever held.

Complex values are parsed as 're,im' or polar 'r@theta' with theta in
degrees; a bare number is taken as real. Grids are 'qmin,qmax,pmin,pmax,
nq,np' for phase space and 'xmin,xmax,nx' for position space.

The parsed argparse namespace is the run configuration. Every option is
checked when it is parsed, by its type= parser, which takes finite values
in range only; the two bounds that tie options together (j < k and
alpha-min <= alpha) are checked right after parsing.

Exit status: 0 on success (verify: all checks passed), 1 on any failed
check, domain error or unwritable --out, 2 on argument errors, among them
any option that is non-finite or out of range (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .decomposition import density_movie
from .errors import McskitError
from .fock import DEFAULT_N_MAX, ladder_spectrum
from .states import MCSLabel, a_norm_closed, build_mcs, moments
from .verify import SUITE_NAMES, run_suite
from .wigner import PhaseGrid, wigner_closed, wigner_numeric


def _bounded(kind: type, low: float, strict: bool = False):
    """A type= parser: kind(text), finite and >= low (> low if strict)."""
    relation = ">" if strict else ">="
    what = "an integer" if kind is int else "a finite number"

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        if not (low < value < math.inf if strict else low <= value < math.inf):
            raise argparse.ArgumentTypeError(f"must be {what} {relation} {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


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
        nq, npts = (int(v) for v in parts[4:])
        return PhaseGrid(qmin, qmax, pmin, pmax, nq, npts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad phase grid {text!r}: {exc}") from None


def parse_x_grid(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"position grid needs 3 fields xmin,xmax,nx, got {text!r}"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad position grid {text!r}: {exc}") from None
    # a finite span also means finite bounds
    if not (lo < hi and math.isfinite(hi - lo)) or n < 2:
        raise argparse.ArgumentTypeError(f"bad position grid {text!r}")
    return np.linspace(lo, hi, n)


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer, str)):
        return str(value)
    if isinstance(value, complex):
        return f"{value.real!r},{value.imag!r}"
    return repr(float(value))


# rows formatted at a time: big enough that numpy's per-call cost is
# spread over many values, small enough that a block's arrays stay small
# (16384 rows gave the cli benchmark the same wall time and 1.2 MB more
# peak RSS)
_BLOCK_ROWS = 4096

# json.dumps spells the non-finite floats this way; repr gives nan/inf/-inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _text_rows(text: list[str]) -> np.ndarray:
    """The strings as zero-padded rows of ASCII bytes."""
    rows = np.array(text, dtype=np.bytes_)
    return rows.view(np.uint8).reshape(rows.size, rows.itemsize)


def _float_rows(values: np.ndarray, json_floats: bool) -> np.ndarray:
    """Rows of repr text of float64 values, spelled for JSON if asked.

    The kernel formats _BLOCK_ROWS values at a time, so its uint64
    temporaries stay cache-sized whatever the column's length.
    """
    # imported on first use: a process that imports the cli but writes no
    # float never compiles the kernel (0.3 MB of peak RSS on grids)
    from . import _shortest

    finite = np.isfinite(values)
    text = list(map(repr, values[~finite].tolist()))
    if json_floats:
        text = [_JSON_NONFINITE[t] for t in text]
    parts = [(~finite, _text_rows(text))]
    regular = np.flatnonzero(finite)
    for start in range(0, regular.size, _BLOCK_ROWS):
        where = regular[start:start + _BLOCK_ROWS]
        parts.append((where, _shortest.repr_rows(values[where])))
    rows = np.zeros((values.size, max(part.shape[1] for _, part in parts)), np.uint8)
    for where, part in parts:
        rows[where, :part.shape[1]] = part
    return rows


def _cells(col: np.ndarray, json_floats: bool) -> tuple[np.ndarray, np.ndarray]:
    """(rows, index) of a whole column: the text of cell i is rows[index[i]].

    Integers print with str and floats with repr, the shortest round-trip
    form, each distinct value of the column once. Floats are told apart by
    bit pattern, so -0.0 and 0.0 keep their own text.
    """
    if col.dtype.kind in "iu":
        uniq, index = np.unique(col, return_inverse=True)
        return _text_rows(list(map(str, uniq.tolist()))), index
    bits = np.asarray(col, dtype=np.float64).view(np.int64)
    uniq, index = np.unique(bits, return_inverse=True)
    return _float_rows(uniq.view(np.float64), json_floats), index


def _joined(
    cells: list[tuple[np.ndarray, np.ndarray]], seps: list[bytes], lead: bytes = b""
) -> str:
    """Each row as lead, then every cell followed by its separator.

    The cells are copied into one zero-padded buffer of the block, and one
    translate pass drops the padding.
    """
    widths = [rows.shape[1] + len(sep) for (rows, _), sep in zip(cells, seps)]
    buf = np.empty((cells[0][1].size, len(lead) + sum(widths)), dtype=np.uint8)
    buf[:, :len(lead)] = np.frombuffer(lead, dtype=np.uint8)
    pos = len(lead)
    for (rows, index), sep, width in zip(cells, seps, widths):
        end = pos + rows.shape[1]
        rows.take(index, axis=0, out=buf[:, pos:end], mode="clip")
        buf[:, end:pos + width] = np.frombuffer(sep, dtype=np.uint8)
        pos += width
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _csv_blocks(
    config: list[tuple[str, str]], names: list[str], cols: list[np.ndarray]
) -> Iterator[str]:
    yield "".join(f"# {key} = {val}\n" for key, val in config)
    yield ",".join(names) + "\n"
    n_rows = min((col.size for col in cols), default=0)
    seps = [b","] * (len(cols) - 1) + [b"\n"]
    cells = [_cells(col[:n_rows], False) for col in cols]
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        yield _joined([(rows, index[block]) for rows, index in cells], seps)


def _json_blocks(config: dict[str, str], columns: dict[str, np.ndarray]) -> Iterator[str]:
    """The bytes of json.dumps({"config": ..., "columns": ...}, indent=2)."""
    # one level deeper; json.dumps escapes any newline inside a string
    conf = json.dumps(config, indent=2).replace("\n", "\n  ")
    yield '{\n  "config": ' + conf + ',\n  "columns": '
    if not columns:
        yield "{}\n}\n"
        return
    for c, (name, col) in enumerate(columns.items()):
        yield ("{" if c == 0 else ",") + f"\n    {json.dumps(name)}: "
        if not col.size:
            yield "[]"
            continue
        rows, index = _cells(col, True)
        for start in range(0, col.size, _BLOCK_ROWS):
            cells = [(rows, index[start:start + _BLOCK_ROWS])]
            text = _joined(cells, [b""], lead=b",\n      ")
            yield "[" + text[1:] if start == 0 else text
        yield "\n    ]"
    yield "\n  }\n}\n"


def write_table(
    out: str,
    fmt: str,
    config: list[tuple[str, object]],
    columns: list[tuple[str, np.ndarray]],
) -> None:
    """Write the table as CSV or JSON, formatted and streamed in row blocks.

    Both formats carry the same cell strings, so a JSON column holds
    exactly the floats of its CSV twin.
    """
    conf = [(key, _fmt(val)) for key, val in config]
    names = [name for name, _ in columns]
    cols = [np.asarray(col) for _, col in columns]
    if fmt == "csv":
        blocks = _csv_blocks(conf, names, cols)
    else:
        blocks = _json_blocks(dict(conf), dict(zip(names, cols)))
    if out == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(out, "w") as fh:
            fh.writelines(blocks)


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", dest="fmt",
        help="output format (default csv)",
    )


def cmd_spectrum(args: argparse.Namespace) -> int:
    spec = ladder_spectrum(args.k, levels=args.levels)
    write_table(
        args.out,
        args.fmt,
        [("command", "spectrum"), ("k", args.k), ("levels", args.levels)],
        [
            ("class_index", np.repeat(np.arange(args.k), args.levels)),
            ("step", np.tile(np.arange(args.levels), args.k)),
            ("energy", spec.ravel()),
        ],
    )
    return 0


def cmd_uncertainty(args: argparse.Namespace) -> int:
    alphas = np.linspace(args.alpha_min, args.alpha, args.points)
    k, j = args.k, args.j
    rows = {
        name: np.empty(alphas.size)
        for name in ("a_norm_sq", "uncertainty_product", "mean_H", "geo_phase")
    }
    for i, a in enumerate(alphas):
        mom = moments(MCSLabel(k, j, complex(a)), n_max=args.nmax, route_tol=args.tol)
        rows["a_norm_sq"][i] = mom.a_norm_sq
        rows["uncertainty_product"][i] = mom.uncertainty_product
        rows["mean_H"][i] = mom.mean_H
        rows["geo_phase"][i] = (2.0 * math.pi / k) * (mom.a_norm_sq - j)
    columns = [("alpha", alphas)] + [(name, col) for name, col in rows.items()]
    if k in (2, 3):
        closed_n = np.array(
            [a_norm_closed(MCSLabel(k, j, complex(a))) for a in alphas]
        )
        cross = alphas if k == 2 else np.zeros_like(alphas)
        closed_prod = np.sqrt((closed_n + 0.5 + cross) * (closed_n + 0.5 - cross))
        columns.append(("a_norm_sq_closed", closed_n))
        columns.append(("product_closed", closed_prod))
    write_table(
        args.out,
        args.fmt,
        [
            ("command", "uncertainty"),
            ("k", k),
            ("j", j),
            ("alpha_min", args.alpha_min),
            ("alpha", args.alpha),
            ("points", args.points),
            ("nmax", args.nmax),
            ("tol", args.tol),
        ],
        columns,
    )
    return 0


def cmd_wigner(args: argparse.Namespace) -> int:
    grid, k, j, z = args.grid, args.k, args.j, args.z
    computed = {}
    if args.method in ("closed", "both"):
        computed["closed"] = wigner_closed(k, j, z, grid)
    if args.method in ("numeric", "both"):
        state = build_mcs(MCSLabel(k, j, complex(z) ** k), n_max=args.nmax)
        computed["numeric"] = wigner_numeric(state, grid)

    config: list[tuple[str, object]] = [
        ("command", "wigner"),
        ("k", k),
        ("j", j),
        ("z", z),
        ("grid", f"{grid.q_min},{grid.q_max},{grid.p_min},{grid.p_max},"
                 f"{grid.n_q},{grid.n_p}"),
        ("method", args.method),
        ("nmax", args.nmax),
    ]
    qq = np.repeat(grid.q_axis, grid.n_p)
    pp = np.tile(grid.p_axis, grid.n_q)
    columns = [("q", qq), ("p", pp)]
    if args.method == "both":
        diff = float(
            np.max(np.abs(computed["closed"].values - computed["numeric"].values))
        )
        config.append(("sup_abs_diff", diff))
        columns.append(("w_closed", computed["closed"].values.ravel()))
        columns.append(("w_numeric", computed["numeric"].values.ravel()))
    else:
        columns.append(("w", computed[args.method].values.ravel()))
    write_table(args.out, args.fmt, config, columns)
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    x = args.grid
    tmax = args.tmax if args.tmax is not None else 2.0 * math.pi / args.k
    t_grid = np.linspace(0.0, tmax, args.nt)
    movie = density_movie(
        args.k, args.j, args.z, x, t_grid, method=args.method, n_max=args.nmax
    )
    write_table(
        args.out,
        args.fmt,
        [
            ("command", "evolve"),
            ("k", args.k),
            ("j", args.j),
            ("z", args.z),
            ("xmin", x[0]),
            ("xmax", x[-1]),
            ("nx", x.size),
            ("tmax", tmax),
            ("nt", args.nt),
            ("method", args.method),
            ("nmax", args.nmax),
        ],
        [
            ("t", np.repeat(t_grid, x.size)),
            ("x", np.tile(x, t_grid.size)),
            ("density", movie.ravel()),
        ],
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    all_passed = True
    total = 0
    for suite in suites:
        try:
            results = run_suite(suite, n_max=args.nmax)
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
    p.add_argument("--alpha", type=_bounded(float, 0.0), default=4.0,
                   help="sweep endpoint; the table covers [alpha-min, alpha]")
    p.add_argument("--alpha-min", type=_bounded(float, 0.0), default=0.0)
    p.add_argument("--points", type=_bounded(int, 1), default=81)
    p.add_argument("--nmax", type=_bounded(int, 2), default=DEFAULT_N_MAX,
                   help="truncation dimension")
    p.add_argument("--tol", type=_bounded(float, 0.0, strict=True), default=1e-10,
                   help="route agreement bound, per unit of max(1, <N>)")
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
    p.add_argument("--nmax", type=_bounded(int, 2), default=DEFAULT_N_MAX)
    _add_io(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("evolve", help="|psi(x,t)|^2 over one revival period")
    p.add_argument("--k", type=_bounded(int, 1), required=True)
    p.add_argument("--j", type=_bounded(int, 0), default=0)
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--grid", type=parse_x_grid, default="-12,12,513", help="xmin,xmax,nx")
    p.add_argument("--tmax", type=_bounded(float, 0.0, strict=True), default=None,
                   help="default: one revival period 2*pi/k")
    p.add_argument("--nt", type=_bounded(int, 2), default=65)
    p.add_argument("--method", choices=("closed", "fock"), default="closed")
    p.add_argument("--nmax", type=_bounded(int, 2), default=DEFAULT_N_MAX)
    _add_io(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--nmax", type=_bounded(int, 2), default=DEFAULT_N_MAX)
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


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_absorb_dash_values(list(argv)))
    # the bounds that tie two options together; argparse's exit code 2
    if "j" in args and args.j >= args.k:
        parser.error(f"j must lie in [0, k), got j={args.j} with k={args.k}")
    if "alpha_min" in args and args.alpha_min > args.alpha:
        parser.error(
            f"alpha sweep needs alpha-min <= alpha, got [{args.alpha_min}, {args.alpha}]"
        )
    try:
        return args.func(args)
    except McskitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        out = getattr(args, "out", "-")  # verify has no --out
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
