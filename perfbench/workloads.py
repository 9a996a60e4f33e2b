"""The benchmark's three workloads: inputs from a seed, operations, checks.

Each builder returns the fixed list of operations one pass runs. An
operation is a call into mcskit plus a check of its output against
`oracles` or against a property the method must have. Checks raise
CheckFailed; they never compare with a stored copy of earlier output.

Three operations fail at this commit because of faults in the program.
They are kept and counted as failed: their inputs do not depend on the
seed, so the failed share of a pass is the same in every run.

BENCHMARK.json lists grids and cli. labels runs the same way from the
command line; it is left out of that list because its run-to-run spread
on a machine with noisy neighbours exceeded the largest bound allowed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

WORKLOADS = ("labels", "grids", "cli")


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


@dataclass
class Op:
    """One timed call and the check of its output.

    `kind` groups operations for the warm-up. `accepted` lists exception
    types that are a correct answer (a typed error where the input has no
    representable result); any other exception counts the call as failed.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    accepted: tuple = ()


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(value: float, ref: float, tol: float, what: str) -> None:
    expect(
        math.isfinite(value) and abs(value - ref) <= tol,
        f"{what}: {value!r} vs {ref!r} (tol {tol:.1e})",
    )


def sup_close(values: np.ndarray, ref: np.ndarray, tol: float, what: str) -> None:
    values, ref = np.asarray(values), np.asarray(ref)
    expect(values.shape == ref.shape, f"{what}: shape {values.shape} vs {ref.shape}")
    gap = float(np.max(np.abs(values - ref)))
    expect(gap <= tol, f"{what}: sup gap {gap:.3e} > {tol:.1e}")


def build(workload: str, seed: int, mk, workdir: Path) -> list[Op]:
    if workload == "labels":
        return labels_ops(np.random.default_rng(seed), mk)
    if workload == "grids":
        return grids_ops(np.random.default_rng(seed), mk)
    if workload == "cli":
        return cli_ops(np.random.default_rng(seed), mk, workdir)
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


# --------------------------------------------------------------------- labels

LABEL_N_MAX = (256, 512, 1024, 2048)


def labels_ops(rng: np.random.Generator, mk) -> list[Op]:
    """Scalar per-label numerics: one label per (k, n_max), k = 1..8.

    The order and truncation are a fixed design and the seed draws the
    class, the ring radius and the phase, so the work of a pass hardly
    depends on the seed. |z|^2 stays below 9, which keeps <N> well inside
    every n_max and the tail far below the library's tolerance.
    """
    ops: list[Op] = []
    for k in range(1, 9):
        for n_max in LABEL_N_MAX:
            j = int(rng.integers(k))
            z = math.sqrt(rng.uniform(0.2, 9.0)) * complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
            ops += _label_ops(mk, mk.MCSLabel(k, j, z**k), z, n_max)
    for k in range(1, 9):
        j = int(rng.integers(k))
        alpha = 1e-8 * complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        ops.append(Op("moments_small", _call(mk.moments, mk.MCSLabel(k, j, alpha)),
                      _check_small_limit(j)))
    for k in (1, 2, 3):
        for j in range(k):
            ops.append(Op("moment_check",
                          _call(mk.moment_check, mk.root_exponential_density(k, j)),
                          _check_moment_report))
    ops.append(Op("identity_resolution", _call(mk.identity_resolution_numeric, 1, 0),
                  lambda gap: close(gap, 0.0, 1e-6, "identity-block gap")))
    ops += _label_fault_ops(mk)
    return ops


def _call(fn: Callable, *args, **kwargs) -> Callable[[], Any]:
    # look the function up by name at call time, so a traced run sees
    # the wrapper installed on the module
    owner, name = sys.modules[fn.__module__], fn.__name__
    return lambda: getattr(owner, name)(*args, **kwargs)


def _label_ops(mk, label, z: complex, n_max: int) -> list[Op]:
    k, j, alpha = label.k, label.j, label.alpha
    x = abs(alpha) ** 2
    n_ref = oracles.mean_number(k, j, x)

    def check_state(state) -> None:
        c = state.coeffs
        expect(c.size == n_max, f"state size {c.size} != {n_max}")
        close(float(np.linalg.norm(c)), 1.0, 1e-12, f"norm of {label}")
        res = float(np.linalg.norm(oracles.lower_k(c, k) - alpha * c))
        close(res, 0.0, 1e-10 * max(1.0, abs(alpha)), f"a^k residual of {label}")
        n_mean = float(np.sum(np.arange(c.size) * np.abs(c) ** 2))
        close(n_mean, n_ref, 1e-10 * max(1.0, n_ref), f"<N> of the state {label}")

    def check_residual(res: float) -> None:
        close(res, 0.0, 1e-10 * max(1.0, abs(alpha)), f"eigenvalue_residual of {label}")

    def check_moments(mom) -> None:
        close(mom.a_norm_sq, n_ref, 1e-10 * max(1.0, n_ref), f"<N> of {label}")
        close(mom.mean_H, mom.a_norm_sq + 0.5, 1e-12 * max(1.0, n_ref), f"<H> of {label}")
        expect(mom.uncertainty_product >= 0.5 - 1e-12,
               f"uncertainty product {mom.uncertainty_product} < 1/2 for {label}")
        expect(mom.var_x > 0 and mom.var_p > 0, f"variances of {label}")
        if k == 2:
            close(mom.a_norm_sq, oracles.k2_mean_number(j, abs(alpha)), 1e-10 * max(1.0, n_ref),
                  f"r tanh / r coth of {label}")

    def check_phase(beta: float) -> None:
        ref = oracles.geometric_phase(k, j, x)
        close(beta, ref, 1e-9 * max(1.0, abs(ref)), f"geometric phase of {label}")

    def check_closed(n_closed: float) -> None:
        close(n_closed, n_ref, 1e-9 * max(1.0, n_ref), f"a_norm_closed of {label}")

    def check_reassembly(state) -> None:
        sup_close(state.coeffs, oracles.coherent_coeffs(z, n_max), 1e-12,
                  f"coherent state rebuilt from {k} classes at z={z:.3f}")

    ops = [
        Op("build_mcs", _call(mk.build_mcs, label, n_max), check_state),
        Op("eigenvalue_residual", _call(mk.eigenvalue_residual, label, n_max=n_max),
           check_residual),
        Op("moments", _call(mk.moments, label, n_max), check_moments),
        Op("geometric_phase", _call(mk.geometric_phase, label, n_max), check_phase),
        Op("coherent_from_classes", _call(mk.coherent_from_classes, k, z, n_max),
           check_reassembly),
    ]
    if k in (2, 3):
        ops.append(Op("a_norm_closed", _call(mk.a_norm_closed, label), check_closed))
    return ops


def _check_small_limit(j: int) -> Callable[[Any], None]:
    def check(mom) -> None:
        close(mom.uncertainty_product, j + 0.5, 1e-9, f"product limit j + 1/2 at j={j}")
        close(mom.a_norm_sq, float(j), 1e-9, f"<N> limit j at j={j}")

    return check


def _check_moment_report(report) -> None:
    expect(report.passed, f"moment check of class ({report.k}, {report.j}) failed")
    expect(report.nonnegative, f"density of class ({report.k}, {report.j}) goes negative")
    close(float(np.max(report.rel_errors)), 0.0, 1e-8,
          f"moment errors of class ({report.k}, {report.j})")


def _label_fault_ops(mk) -> list[Op]:
    """Two known faults of the label code; their inputs are fixed."""
    wall = mk.MCSLabel(1, 0, 30.0)  # |alpha|^2 = 900, which n_max = 2048 holds

    def overflow_wall():
        mk.build_mcs(wall, n_max=2048)
        return mk.moments(wall, n_max=2048)  # takes the label and builds the state again

    big = mk.MCSLabel(3, 0, 1e5)
    return [
        Op("fault_overflow_wall", overflow_wall,
           lambda mom: close(mom.a_norm_sq, 900.0, 1e-8, "<N> at |alpha|^2 = 900")),
        Op("fault_a_norm_closed", _call(mk.a_norm_closed, big),
           lambda n: close(n, oracles.mean_number(3, 0, 1e10), 1e-8 * 2200.0,
                           "a_norm_closed at alpha = 1e5"),
           accepted=(mk.McskitError,)),
    ]


# ---------------------------------------------------------------------- grids

FIELD_SIZES = (129, 257)
MOVIE_ORDERS = (2, 3, 5, 8)
MOVIE_X = (-12.0, 12.0, 513)


def grids_ops(rng: np.random.Generator, mk) -> list[Op]:
    """Wigner fields for k = 1..8, odd k on 129^2 and even k on 257^2, plus
    density movies.

    Ring radii |z| in [1, 1.9] keep every field inside the default
    +-8 window with an edge far below the marginal guard, and keep each
    cat far enough from the vacuum that its negativity is clearly > 0.
    """
    ops: list[Op] = []
    for k in range(1, 9):
        j = int(rng.integers(k))
        z = rng.uniform(1.0, 1.9) * complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        n = FIELD_SIZES[(k + 1) % 2]
        ops += _field_ops(mk, k, j, z, mk.PhaseGrid(n_q=n, n_p=n))
    for k in MOVIE_ORDERS:
        j = int(rng.integers(k))
        z = rng.uniform(1.0, 1.9) * complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        ops += _movie_ops(mk, k, j, z)
    n = int(rng.integers(8))
    grid = mk.PhaseGrid(n_q=129, n_p=129)
    fock_ref = oracles.wigner_fock(n, grid.q_axis, grid.p_axis)
    ops.append(Op("wigner_fock_state", _call(mk.wigner_numeric, mk.basis_state(n), grid),
                  lambda f: sup_close(f.values, fock_ref, 1e-9, f"field of |{n}>")))
    # known fault: the fixed label 1e-100 passes the norm guard, then divides by 0
    small = mk.PhaseGrid(-5.0, 5.0, -5.0, 5.0, 33, 33)
    tiny_ref = oracles.wigner_fock(2, small.q_axis, small.p_axis)
    ops.append(Op("fault_wigner_tiny_z", _call(mk.wigner_closed, 3, 2, 1e-100, small),
                  lambda f: sup_close(f.values, tiny_ref, 1e-9, "field at z = 1e-100 vs |2>"),
                  accepted=(mk.McskitError,)))
    # the scalar faults of labels too, so that grids and cli, the workloads
    # BENCHMARK.json lists, count all three
    return ops + _label_fault_ops(mk)


def _check_field(field, q: np.ndarray, p: np.ndarray, what: str) -> None:
    expect(field.values.shape == (q.size, p.size), f"{what}: shape {field.values.shape}")
    expect(bool(np.all(np.isfinite(field.values))), f"{what}: non-finite values")
    close(oracles.trapz2d(field.values, q, p), 1.0, 1e-8, f"{what}: mass")
    close(2 * math.pi * oracles.trapz2d(field.values**2, q, p), 1.0, 1e-6, f"{what}: purity")


def _field_ops(mk, k: int, j: int, z: complex, grid) -> list[Op]:
    label = mk.MCSLabel(k, j, z**k)
    tag = f"({k}, {j}) z={z:.3f} on {grid.n_q}^2"
    q, p = grid.q_axis, grid.p_axis
    q_ref = oracles.ring_density(k, j, z, q)
    p_ref = oracles.ring_density(k, j, -1j * z, p)
    fields: dict[str, Any] = {}

    def check_closed(field) -> None:
        _check_field(field, q, p, f"closed field {tag}")
        if k == 1:
            ref = oracles.wigner_gaussian(math.sqrt(2) * z.real, math.sqrt(2) * z.imag, q, p)
            sup_close(field.values, ref, 1e-12, f"displaced Gaussian {tag}")
        fields["closed"] = field

    def numeric():
        state = mk.build_mcs(label)
        field = mk.wigner_numeric(state, grid)
        return (field, mk.marginals(field, state), mk.negativity_volume(field),
                mk.purity(field), field.total())

    def check_numeric(out) -> None:
        field, marg, neg, pur, total = out
        _check_field(field, q, p, f"numeric field {tag}")
        sup_close(field.values, fields["closed"].values, 1e-9, f"closed vs numeric {tag}")
        sup_close(marg.q_marginal, q_ref, 1e-9, f"q marginal {tag}")
        sup_close(marg.p_marginal, p_ref, 1e-9, f"p marginal {tag}")
        sup_close(marg.q_density, q_ref, 1e-9, f"q density {tag}")
        sup_close(marg.p_density, p_ref, 1e-9, f"p density {tag}")
        if k == 1:
            close(neg, 0.0, 1e-12, f"negativity of a Gaussian {tag}")
        else:
            expect(neg > 1e-4, f"negativity {neg:.3e} of a cat {tag} is not > 0")
        close(pur, 1.0, 1e-6, f"purity {tag}")
        close(total, 1.0, 1e-8, f"total {tag}")

    return [
        Op("wigner_closed", _call(mk.wigner_closed, k, j, z, grid), check_closed),
        Op("wigner_numeric", numeric, check_numeric),
    ]


def _movie_ops(mk, k: int, j: int, z: complex) -> list[Op]:
    x = np.linspace(*MOVIE_X)
    period = 2 * math.pi / k
    t = np.linspace(0.0, period, 65)  # the library's default frames
    ref = oracles.movie_density(k, j, z, x, t)
    tag = f"movie ({k}, {j}) z={z:.3f}"
    movies: dict[str, np.ndarray] = {}

    def check(route: str) -> Callable[[np.ndarray], None]:
        def run(movie: np.ndarray) -> None:
            expect(movie.shape == ref.shape, f"{tag} {route}: shape {movie.shape}")
            mass = np.trapezoid(movie, x, axis=1)
            sup_close(mass, np.ones_like(mass), 1e-9, f"{tag} {route}: frame mass")
            sup_close(movie[-1], movie[0], 1e-9, f"{tag} {route}: frame after one period")
            sup_close(movie, ref, 1e-9, f"{tag} {route}: frames vs ring density")
            if route == "fock":
                sup_close(movie, movies["closed"], 1e-9, f"{tag}: closed vs fock")
            movies[route] = movie

        return run

    return [
        Op("movie_closed", _call(mk.density_movie, k, j, z, x, method="closed"),
           check("closed")),
        Op("movie_fock", _call(mk.density_movie, k, j, z, x, method="fock"), check("fock")),
    ]


# ------------------------------------------------------------------------ cli

WIGNER_ARGS = "wigner --k 2 --j 0 --z 2 --method both"
EVOLVE_ARGS = "evolve --k 3 --j 0 --z 1.5 --grid -12,12,513 --nt 65"


@dataclass
class CliRun:
    status: int
    stdout: str
    out: Path | None


def cli_ops(rng: np.random.Generator, mk, workdir: Path) -> list[Op]:
    """The five README invocations plus JSON, Fock-route and verify repeats.

    The commands are fixed; the seed sets the order they run in within a
    pass. Outputs go to files under workdir, as with `--out`.
    """
    refs: dict[str, Any] = {}
    specs = [
        ("spectrum", "spectrum --k 3 --levels 4", _check_spectrum),
        ("uncertainty", "uncertainty --k 2 --j 1 --alpha 4 --points 81", _check_uncertainty),
        ("wigner_csv", WIGNER_ARGS, _check_wigner),
        ("evolve_csv", EVOLVE_ARGS, _check_evolve),
        ("verify", "verify --suite all", None),
        ("wigner_json", WIGNER_ARGS + " --format json", _check_wigner),
        ("evolve_json", EVOLVE_ARGS + " --format json", _check_evolve),
        ("evolve_fock", EVOLVE_ARGS + " --method fock", _check_evolve),
        ("verify", "verify --suite all", None),
    ]
    ops = []
    for i, (kind, args, checker) in enumerate(specs):
        out = None if checker is None else workdir / f"{i}_{kind}.out"
        argv = args.split() + ([] if out is None else ["--out", str(out)])
        ops.append(Op(kind, _cli_call(mk, argv, out), _cli_check(kind, checker, refs)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _cli_call(mk, argv: list[str], out: Path | None) -> Callable[[], CliRun]:
    def run() -> CliRun:
        if out is not None:
            out.unlink(missing_ok=True)  # the check must see this call's output
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = mk.cli.main(argv)
        return CliRun(status, buf.getvalue(), out)

    return run


# outputs of different invocations that must carry the same numbers:
# (kind, other kind, exact); exact means equal floats, else a 1e-9 sup gap
_PARTNERS = (
    ("wigner_csv", "wigner_json", True),
    ("evolve_csv", "evolve_json", True),
    ("evolve_csv", "evolve_fock", False),
)


def _cli_check(kind: str, checker: Callable | None, refs: dict) -> Callable[[CliRun], None]:
    def check(run: CliRun) -> None:
        expect(run.status == 0, f"{kind}: exit status {run.status}")
        if checker is None:
            _check_verify(run.stdout)
            return
        expect(run.out.is_file(), f"{kind}: wrote no {run.out.name}")
        data = run.out.read_bytes()
        checked = refs.get(("bytes", kind))
        if data == checked:
            return  # the same bytes as an output that passed every check
        if kind.endswith("json"):
            doc = json.loads(data)
            header = doc["config"]
            cols = {name: np.asarray(col, dtype=np.float64) for name, col in doc["columns"].items()}
        else:
            # the README promises identical bytes for identical invocations
            expect(checked is None, f"{kind}: CSV bytes differ from the first invocation")
            header, cols = parse_csv(data.decode())
        checker(header, cols)
        refs[kind] = cols
        for a, b, exact in _PARTNERS:
            if kind in (a, b) and a in refs and b in refs:
                for name, col in refs[a].items():
                    other = refs[b][name]
                    if exact or name != "density":
                        expect(other.shape == col.shape and bool(np.all(other == col)),
                               f"column {name} of {a} and {b} differ")
                    else:
                        sup_close(other, col, 1e-9, f"density of {a} vs {b}")
        refs[("bytes", kind)] = data

    return check


def parse_csv(text: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Header lines '# key = value' and the float columns of a CLI table."""
    header: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while lines[i].startswith("#"):
        key, _, val = lines[i][1:].partition("=")
        header[key.strip()] = val.strip()
        i += 1
    names = lines[i].split(",")
    rows = lines[i + 1:]
    flat = np.array(",".join(rows).split(","), dtype=np.float64) if rows else np.empty(0)
    expect(flat.size == len(rows) * len(names), "ragged CSV rows")
    table = flat.reshape(len(rows), len(names))
    return header, {name: table[:, c] for c, name in enumerate(names)}


def _check_spectrum(header: dict, cols: dict) -> None:
    expect(cols["energy"].size == 3 * 4, f"spectrum rows {cols['energy'].size} != 12")
    ref = cols["class_index"] + 0.5 + 3 * cols["step"]
    expect(bool(np.all(cols["energy"] == ref)), "spectrum energies != j + 1/2 + k m")
    expect(sorted(zip(cols["class_index"], cols["step"]))
           == [(j, m) for j in range(3) for m in range(4)], "spectrum rows")


def _check_uncertainty(header: dict, cols: dict) -> None:
    alpha = cols["alpha"]
    expect(alpha.size == 81, f"uncertainty rows {alpha.size} != 81")
    ref = np.array([oracles.mean_number(2, 1, a * a) for a in alpha])
    sup_close(cols["a_norm_sq"], ref, 1e-9, "uncertainty <N> vs series oracle")
    sup_close(cols["a_norm_sq_closed"], [oracles.k2_mean_number(1, a) for a in alpha], 1e-9,
              "uncertainty closed <N> vs r coth r")
    sup_close(cols["mean_H"], cols["a_norm_sq"] + 0.5, 1e-12, "uncertainty <H> = <N> + 1/2")
    expect(bool(np.all(cols["uncertainty_product"] >= 0.5 - 1e-12)), "product below 1/2")
    sup_close(cols["geo_phase"], math.pi * (ref - 1.0), 1e-8, "uncertainty geometric phase")


def _axes(cols: dict, slow: str, fast: str, n_slow: int, n_fast: int, what: str):
    """The two axes of a table written row-major, slow axis outermost."""
    expect(cols[slow].size == n_slow * n_fast, f"{what} rows {cols[slow].size} != "
           f"{n_slow}*{n_fast}")
    a, b = cols[slow][::n_fast], cols[fast][:n_fast]
    expect(bool(np.all(cols[slow] == np.repeat(a, n_fast))
                and np.all(cols[fast] == np.tile(b, n_slow))), f"{what}: grid columns")
    return a, b


def _check_wigner(header: dict, cols: dict) -> None:
    q, p = _axes(cols, "q", "p", 257, 257, "wigner")
    diff = float(header["sup_abs_diff"])
    expect(diff <= 1e-6, f"wigner sup_abs_diff {diff:.3e} > 1e-6")
    gap = float(np.max(np.abs(cols["w_closed"] - cols["w_numeric"])))
    expect(gap == diff, f"header sup_abs_diff {diff!r} != column gap {gap!r}")
    w = cols["w_closed"].reshape(q.size, p.size)
    close(oracles.trapz2d(w, q, p), 1.0, 1e-8, "wigner CLI mass")


def _check_evolve(header: dict, cols: dict) -> None:
    t, x = _axes(cols, "t", "x", 65, 513, "evolve")
    movie = cols["density"].reshape(t.size, x.size)
    mass = np.trapezoid(movie, x, axis=1)
    sup_close(mass, np.ones_like(mass), 1e-9, "evolve: frame mass")
    sup_close(movie[-1], movie[0], 1e-9, "evolve: frame after one period")
    sup_close(movie, oracles.movie_density(3, 0, 1.5, x, t), 1e-9, "evolve: vs ring density")


def _check_verify(text: str) -> None:
    lines = text.strip().splitlines()
    expect(not any(line.startswith(("FAIL", "ERROR")) for line in lines), "verify reports FAIL")
    expect(lines[-1].endswith("checks, all passed"), f"verify summary: {lines[-1]!r}")
    expect(int(lines[-1].split()[0]) == len(lines) - 1, "verify check count")
