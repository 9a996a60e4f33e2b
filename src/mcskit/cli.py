"""Command line front end.

Subcommands: spectrum, uncertainty, wigner, evolve, verify. Output is a
CSV table (default) or JSON document on stdout or --out; CSV carries the
run configuration as leading '# key = value' lines so a file is
reproducible from its own header. All numbers are emitted with shortest
round-trip formatting, so identical invocations produce identical bytes,
and a JSON column holds the same strings as its CSV column (JSON spells
non-finite values NaN, Infinity and -Infinity). The writer streams the
table in blocks of rows and formats each distinct value of a block once,
so neither the cell strings nor the text of a whole table are ever held
at once.

Complex values are parsed as 're,im' or polar 'r@theta' with theta in
degrees; a bare number is taken as real. Grids are 'qmin,qmax,pmin,pmax,
nq,np' for phase space and 'xmin,xmax,nx' for position space.

Exit status: 0 on success (verify: all checks passed), 1 on any failed
check, domain error or unwritable --out, 2 on argument errors (argparse's
convention).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .decomposition import density_movie
from .errors import McskitError
from .fock import ladder_spectrum
from .states import MCSLabel, a_norm_closed, build_mcs, moments
from .verify import SUITE_NAMES, run_suite
from .wigner import PhaseGrid, wigner_closed, wigner_numeric


def parse_complex(text: str) -> complex:
    """'re,im', polar 'r@degrees', or a bare real number."""
    s = text.strip()
    try:
        if "@" in s:
            r_part, theta = s.split("@", 1)
            r = float(r_part)
            return r * complex(np.exp(1j * math.radians(float(theta))))
        if "," in s:
            re_part, im_part = s.split(",", 1)
            return complex(float(re_part), float(im_part))
        return complex(float(s), 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex value {text!r}; use 're,im' or 'r@degrees'"
        ) from None


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
    if not lo < hi or n < 2:
        raise argparse.ArgumentTypeError(f"bad position grid {text!r}")
    return np.linspace(lo, hi, n)


_ARG_RENAMES = {"nmax": "n_max"}


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one invocation.

    Built from the parsed namespace before any computation starts, so a
    bad combination (j outside [0, k), inverted sweep bounds, ...) fails
    with a field-named message and argparse's exit code instead of a
    traceback halfway through a run. Fields not used by the current
    command keep their defaults.
    """

    command: str
    k: int = 1
    j: int = 0
    z: complex | None = None
    levels: int = 12
    alpha_min: float = 0.0
    alpha: float = 4.0
    points: int = 81
    grid: PhaseGrid | None = None
    x_grid: np.ndarray | None = None
    tmax: float | None = None
    nt: int = 65
    method: str = ""
    suite: str = "all"
    n_max: int = 256
    tol: float = 1e-10
    out: str = "-"
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 <= self.j < self.k:
            raise ValueError(f"j must lie in [0, k), got j={self.j} with k={self.k}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        if self.alpha_min < 0 or self.alpha < self.alpha_min:
            raise ValueError(
                f"alpha sweep needs 0 <= alpha-min <= alpha, got "
                f"[{self.alpha_min}, {self.alpha}]"
            )
        if self.nt < 2:
            raise ValueError(f"nt must be >= 2, got {self.nt}")
        if self.tmax is not None and not self.tmax > 0:
            raise ValueError(f"tmax must be > 0, got {self.tmax}")
        if self.n_max < 2:
            raise ValueError(f"nmax must be >= 2, got {self.n_max}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        kwargs = {}
        for key, val in vars(args).items():
            name = _ARG_RENAMES.get(key, key)
            if name in names:
                kwargs[name] = val
        return cls(**kwargs)


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer, str)):
        return str(value)
    if isinstance(value, complex):
        return f"{value.real!r},{value.imag!r}"
    return repr(float(value))


# rows formatted and joined at a time: big enough that the joins run in C,
# small enough that only one block of cell strings is alive at once
_BLOCK_ROWS = 4096

# json.dumps spells the non-finite floats this way; repr gives nan/inf/-inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(col: np.ndarray, json_floats: bool) -> list[str]:
    """Cell strings of one column slice, formatting each distinct value once.

    Integers print with str and floats with repr, the shortest round-trip
    form. Floats are told apart by bit pattern, so -0.0 and 0.0 keep their
    own strings; a block of an axis column built by np.repeat or np.tile
    costs one repr per distinct grid point in it instead of one per cell.
    """
    if col.dtype.kind in "iu":
        uniq, inverse = np.unique(col, return_inverse=True)
        text = list(map(str, uniq.tolist()))
    else:
        bits = np.asarray(col, dtype=np.float64).view(np.int64)
        uniq, inverse = np.unique(bits, return_inverse=True)
        values = uniq.view(np.float64)
        text = list(map(repr, values.tolist()))
        if json_floats:
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                text[i] = _JSON_NONFINITE[text[i]]
    return np.array(text, dtype=object)[inverse].tolist()


def _csv_blocks(
    config: list[tuple[str, str]], names: list[str], cols: list[np.ndarray]
) -> Iterator[str]:
    yield "".join(f"# {key} = {val}\n" for key, val in config)
    yield ",".join(names) + "\n"
    n_rows = min((col.size for col in cols), default=0)
    for start in range(0, n_rows, _BLOCK_ROWS):
        cells = [_cells(col[start:start + _BLOCK_ROWS], False) for col in cols]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


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
        for start in range(0, col.size, _BLOCK_ROWS):
            cells = _cells(col[start:start + _BLOCK_ROWS], True)
            yield ("[" if start == 0 else ",") + "\n      " + ",\n      ".join(cells)
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


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = ladder_spectrum(cfg.k, levels=cfg.levels)
    class_col, step_col, energy_col = [], [], []
    for j, ladder in enumerate(spec.ladders):
        class_col.extend([j] * ladder.size)
        step_col.extend(range(ladder.size))
        energy_col.extend(ladder)
    write_table(
        cfg.out,
        cfg.fmt,
        [("command", "spectrum"), ("k", cfg.k), ("levels", cfg.levels)],
        [
            ("class_index", np.array(class_col)),
            ("step", np.array(step_col)),
            ("energy", np.array(energy_col)),
        ],
    )
    return 0


def cmd_uncertainty(cfg: RunConfig) -> int:
    alphas = np.linspace(cfg.alpha_min, cfg.alpha, cfg.points)
    k, j = cfg.k, cfg.j
    rows = {
        name: np.empty(alphas.size)
        for name in ("a_norm_sq", "uncertainty_product", "mean_H", "geo_phase")
    }
    for i, a in enumerate(alphas):
        mom = moments(MCSLabel(k, j, complex(a)), n_max=cfg.n_max, route_tol=cfg.tol)
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
        cfg.out,
        cfg.fmt,
        [
            ("command", "uncertainty"),
            ("k", k),
            ("j", j),
            ("alpha_min", cfg.alpha_min),
            ("alpha", cfg.alpha),
            ("points", cfg.points),
            ("nmax", cfg.n_max),
            ("tol", cfg.tol),
        ],
        columns,
    )
    return 0


def cmd_wigner(cfg: RunConfig) -> int:
    grid = cfg.grid if cfg.grid is not None else PhaseGrid()
    k, j, z = cfg.k, cfg.j, cfg.z
    computed = {}
    if cfg.method in ("closed", "both"):
        computed["closed"] = wigner_closed(k, j, z, grid)
    if cfg.method in ("numeric", "both"):
        state = build_mcs(MCSLabel(k, j, complex(z) ** k), n_max=cfg.n_max)
        computed["numeric"] = wigner_numeric(state, grid)

    config: list[tuple[str, object]] = [
        ("command", "wigner"),
        ("k", k),
        ("j", j),
        ("z", z),
        ("grid", f"{grid.q_min},{grid.q_max},{grid.p_min},{grid.p_max},"
                 f"{grid.n_q},{grid.n_p}"),
        ("method", cfg.method),
        ("nmax", cfg.n_max),
    ]
    qq = np.repeat(grid.q_axis, grid.n_p)
    pp = np.tile(grid.p_axis, grid.n_q)
    columns = [("q", qq), ("p", pp)]
    if cfg.method == "both":
        diff = float(
            np.max(np.abs(computed["closed"].values - computed["numeric"].values))
        )
        config.append(("sup_abs_diff", diff))
        columns.append(("w_closed", computed["closed"].values.ravel()))
        columns.append(("w_numeric", computed["numeric"].values.ravel()))
    else:
        columns.append(("w", computed[cfg.method].values.ravel()))
    write_table(cfg.out, cfg.fmt, config, columns)
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    x = cfg.x_grid if cfg.x_grid is not None else parse_x_grid("-12,12,513")
    tmax = cfg.tmax if cfg.tmax is not None else 2.0 * math.pi / cfg.k
    t_grid = np.linspace(0.0, tmax, cfg.nt)
    movie = density_movie(
        cfg.k, cfg.j, cfg.z, x, t_grid, method=cfg.method, n_max=cfg.n_max
    )
    write_table(
        cfg.out,
        cfg.fmt,
        [
            ("command", "evolve"),
            ("k", cfg.k),
            ("j", cfg.j),
            ("z", cfg.z),
            ("xmin", x[0]),
            ("xmax", x[-1]),
            ("nx", x.size),
            ("tmax", tmax),
            ("nt", cfg.nt),
            ("method", cfg.method),
            ("nmax", cfg.n_max),
        ],
        [
            ("t", np.repeat(t_grid, x.size)),
            ("x", np.tile(x, t_grid.size)),
            ("density", movie.ravel()),
        ],
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    suites = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    all_passed = True
    total = 0
    for suite in suites:
        try:
            results = run_suite(suite, n_max=cfg.n_max)
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
    p.add_argument("--k", type=int, required=True, help="ladder power k >= 1")
    p.add_argument("--levels", type=int, default=12, help="levels per class ladder")
    _add_io(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "uncertainty", help="moment sweep along real alpha for one class"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=0, help="class index in [0, k)")
    p.add_argument("--alpha", type=float, default=4.0,
                   help="sweep endpoint; the table covers [alpha-min, alpha]")
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--points", type=int, default=81)
    p.add_argument("--nmax", type=int, default=256, help="truncation dimension")
    p.add_argument("--tol", type=float, default=1e-10, help="route agreement bound")
    _add_io(p)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("wigner", help="phase-space field of one class state")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--z", type=parse_complex, required=True,
                   help="ring label; the ladder eigenvalue is z^k")
    p.add_argument("--grid", type=parse_phase_grid,
                   default=PhaseGrid(), help="qmin,qmax,pmin,pmax,nq,np")
    p.add_argument("--method", choices=("closed", "numeric", "both"), default="closed")
    p.add_argument("--nmax", type=int, default=256)
    _add_io(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("evolve", help="|psi(x,t)|^2 over one revival period")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--grid", type=parse_x_grid, default=None, dest="x_grid",
                   help="xmin,xmax,nx")
    p.add_argument("--tmax", type=float, default=None,
                   help="default: one revival period 2*pi/k")
    p.add_argument("--nt", type=int, default=65)
    p.add_argument("--method", choices=("closed", "fock"), default="closed")
    p.add_argument("--nmax", type=int, default=256)
    _add_io(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--nmax", type=int, default=256)
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
    try:
        cfg = RunConfig.from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2, argparse convention
    try:
        return args.func(cfg)
    except McskitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {cfg.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
