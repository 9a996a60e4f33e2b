import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mcskit
from mcskit import (EdgeSupport, MCSLabel, PhaseGrid, TailTooHeavy, decomposition,
                    geometric_phase, verify)
from mcskit.cli import build_parser, main, parse_complex, parse_phase_grid, parse_x_grid
from mcskit.verify import CHECKS, SUITE_NAMES, run_suite

README = Path(__file__).parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_header(out):
    """The run configuration a CSV carries as leading `# name = value` lines."""
    return dict(line[2:].split(" = ") for line in out.splitlines() if line.startswith("# "))


def test_parse_complex_forms():
    assert parse_complex("2") == 2.0
    assert parse_complex("1,-1") == 1.0 - 1.0j
    assert parse_complex("2@90") == pytest.approx(2.0j)
    with pytest.raises(Exception):
        parse_complex("nope")
    with pytest.raises(Exception, match="finite"):
        parse_complex("1,nan")


def test_parse_grids():
    g = parse_phase_grid("-1,1,-2,2,5,7")
    assert (g.n_q, g.n_p) == (5, 7)
    x = parse_x_grid("-3,3,7")
    assert x.size == 7 and x[0] == -3.0
    with pytest.raises(Exception):
        parse_phase_grid("1,2,3")
    with pytest.raises(Exception):
        parse_x_grid("3,-3,7")
    with pytest.raises(Exception):
        parse_x_grid("-1e308,1e308,7")  # the span overflows


def test_position_grid_with_symmetric_bounds_is_mirrored_and_ends_on_them():
    x = parse_x_grid("-10,10,801")
    assert x[0] == -10.0 and x[-1] == 10.0
    assert np.array_equal(x[::-1], -x)
    assert np.array_equal(x, PhaseGrid(-10.0, 10.0, -1.0, 1.0, 801, 2).q_axis)
    # asymmetric bounds keep linspace
    assert np.array_equal(parse_x_grid("20,65,451"), np.linspace(20.0, 65.0, 451))


def test_spectrum_table(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--k", "3", "--levels", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[3] == "class_index,step,energy"
    energies = sorted(float(row.split(",")[2]) for row in lines[4:])
    assert energies == [n + 0.5 for n in range(12)]
    assert "0,0,0.5" in lines and "2,3,11.5" in lines


def test_uncertainty_coherent_row_is_flat(capsys):
    code, out, _ = run_cli(
        capsys, "uncertainty", "--k", "1", "--alpha", "2", "--points", "5"
    )
    assert code == 0
    rows = [r for r in out.strip().splitlines() if not r.startswith("#")]
    header = rows[0].split(",")
    prod_col = header.index("uncertainty_product")
    for row in rows[1:]:
        assert float(row.split(",")[prod_col]) == pytest.approx(0.5, abs=1e-12)


def test_uncertainty_limit_values(capsys):
    # alpha-min = 0 puts the exact limit j + 1/2 in the first data row
    for k, j, expect in ((2, 0, 0.5), (2, 1, 1.5), (3, 2, 2.5)):
        code, out, _ = run_cli(
            capsys, "uncertainty", "--k", str(k), "--j", str(j),
            "--alpha", "1", "--points", "3",
        )
        assert code == 0
        rows = [r for r in out.strip().splitlines() if not r.startswith("#")]
        header = rows[0].split(",")
        prod_col = header.index("uncertainty_product")
        assert float(rows[1].split(",")[prod_col]) == pytest.approx(expect, abs=1e-9)
        phase = float(rows[1].split(",")[header.index("geo_phase")])
        assert phase == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_uncertainty_has_closed_columns(capsys, k):
    code, out, _ = run_cli(
        capsys, "uncertainty", "--k", str(k), "--j", str(k - 1), "--alpha", "2",
        "--points", "9",
    )
    assert code == 0
    rows = [r for r in out.strip().splitlines() if not r.startswith("#")]
    header = rows[0].split(",")
    i_series = header.index("a_norm_sq")
    i_closed = header.index("a_norm_sq_closed")
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[i_series]) == pytest.approx(
            float(cells[i_closed]), abs=1e-10
        )


def uncertainty_table(capsys, k, j):
    """The rows of `uncertainty --alpha 4 --points 81` as dicts of floats."""
    code, out, _ = run_cli(capsys, "uncertainty", "--k", str(k), "--j", str(j),
                           "--alpha", "4", "--points", "81")
    assert code == 0
    header, *rows = [r.split(",") for r in out.splitlines() if not r.startswith("#")]
    return [dict(zip(header, map(float, row))) for row in rows]


@pytest.mark.parametrize("k, j", [(3, 0), (3, 1), (4, 2), (5, 3)])
def test_closed_product_from_order_3_is_the_energy(capsys, k, j):
    # <x> = <p> = 0 and <x^2> = <p^2> = A + 1/2, so the product is A + 1/2 exactly
    for row in uncertainty_table(capsys, k, j):
        assert row["product_closed"] == row["a_norm_sq_closed"] + 0.5, row


def test_geometric_phase_is_the_table_phase_bit_for_bit(capsys):
    # both read the closed A of `moments`, which at k = 1 is |alpha|^2 itself
    for row in uncertainty_table(capsys, 1, 0):
        assert geometric_phase(MCSLabel(1, 0, row["alpha"])) == row["geo_phase"], row


@pytest.mark.parametrize("j", [0, 1])
def test_closed_columns_of_order_2_meet_tanh_and_coth(capsys, j):
    # y = r at k = 2: A = r tanh r for j = 0, r coth r for j = 1 (-> 1 at r = 0),
    # and <x^2>, <p^2> = A + 1/2 +- r
    for row in uncertainty_table(capsys, 2, j):
        r = row["alpha"]
        a = r * math.tanh(r) if j == 0 else (r / math.tanh(r) if r else 1.0)
        assert row["a_norm_sq_closed"] == pytest.approx(a, rel=0, abs=1e-14), row
        product = math.sqrt((a + 0.5) ** 2 - r * r)
        assert row["product_closed"] == pytest.approx(product, rel=0, abs=1e-14), row


def test_wigner_both_reports_sup_diff(capsys):
    code, out, _ = run_cli(
        capsys, "wigner", "--k", "2", "--j", "1", "--z", "1,1",
        "--grid", "-5,5,-5,5,33,33", "--method", "both",
    )
    assert code == 0
    header = csv_header(out)
    assert float(header["sup_abs_diff"]) < 1e-6


def test_wigner_closed_high_order_matches_numeric(capsys):
    code, out, _ = run_cli(
        capsys, "wigner", "--k", "5", "--j", "2", "--z", "1.5@20",
        "--grid", "-6,6,-6,6,41,37", "--method", "both",
    )
    assert code == 0
    header = csv_header(out)
    assert float(header["sup_abs_diff"]) <= 1e-9


def test_wigner_numeric_serves_a_state_wider_than_a_fixed_window(capsys):
    # the correlator of (8, 7, 3) still exceeds 1e-16 at |y| = 10, where a
    # fixed y window used to end, so the numeric route exited 1
    code, out, _ = run_cli(
        capsys, "wigner", "--k", "8", "--j", "7", "--z", "3",
        "--grid", "-8,8,-8,8,33,33", "--method", "both",
    )
    assert code == 0
    header = csv_header(out)
    assert float(header["sup_abs_diff"]) <= 1e-9


def test_evolve_row_structure(tmp_path, capsys):
    out_file = tmp_path / "movie.csv"
    code, _, _ = run_cli(
        capsys, "evolve", "--k", "2", "--j", "0", "--z", "1.5",
        "--grid", "-9,9,181", "--nt", "5", "--out", str(out_file),
    )
    assert code == 0
    body = out_file.read_text().splitlines()
    data = [r for r in body if not r.startswith("#") and "," in r][1:]
    assert len(data) == 5 * 181
    # first and last frame span one full period, so densities match
    first = np.array([float(r.split(",")[2]) for r in data[:181]])
    last = np.array([float(r.split(",")[2]) for r in data[-181:]])
    assert np.max(np.abs(first - last)) < 1e-10


def test_output_is_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        code, _, _ = run_cli(
            capsys, "evolve", "--k", "3", "--j", "1", "--z", "1,1",
            "--grid", "-8,8,101", "--nt", "4", "--out", str(p),
        )
        assert code == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fock_evolve_output_is_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        code, _, _ = run_cli(
            capsys, "evolve", "--k", "3", "--j", "2", "--z", "1.2@30",
            "--grid", "-8,8,101", "--nt", "5", "--method", "fock", "--out", str(p),
        )
        assert code == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--k", "2", "--levels", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "spectrum"
    assert doc["columns"]["energy"] == [0.5, 2.5, 4.5, 1.5, 3.5, 5.5]
    assert doc["columns"]["class_index"][0] == 0


def test_wigner_json_is_deterministic_and_matches_csv(tmp_path, capsys):
    argv = ["wigner", "--k", "2", "--j", "1", "--z", "1,1",
            "--grid", "-5,5,-5,5,33,17", "--method", "both"]
    paths = {}
    for name, extra in (("a.json", ["--format", "json"]),
                        ("b.json", ["--format", "json"]),
                        ("c.csv", [])):
        paths[name] = tmp_path / name
        code, _, _ = run_cli(capsys, *argv, *extra, "--out", str(paths[name]))
        assert code == 0
    assert paths["a.json"].read_bytes() == paths["b.json"].read_bytes()
    doc = json.loads(paths["a.json"].read_text())
    lines = [r for r in paths["c.csv"].read_text().splitlines() if not r.startswith("#")]
    table = np.array([row.split(",") for row in lines[1:]], dtype=np.float64)
    assert list(doc["columns"]) == lines[0].split(",")
    for c, (name, col) in enumerate(doc["columns"].items()):
        # bit patterns, so that -0.0 in one and 0.0 in the other would differ
        assert np.array_equal(
            np.array(col, dtype=np.float64).view(np.int64), table[:, c].view(np.int64)
        ), name


def test_unwritable_out_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "spectrum", "--k", "2", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    # the checkout's src, as `PYTHONPATH=src python -m mcskit` gives it
    env = {**os.environ, "PYTHONPATH": str(Path(mcskit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "mcskit", "spectrum", "--k", "2", "--levels", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["class_index,step,energy", "0,0,0.5", "1,0,1.5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--k", "8", "--j", "4", "--z", "1.3", "--method", "closed",
         "--grid", "-8,8,-8,8,129,129"],
        ["evolve", "--k", "1", "--j", "0", "--z", "1.5", "--method", "fock"],
    ],
    ids=["wigner", "evolve"],
)
def test_output_bytes_do_not_depend_on_the_blas_thread_count(argv):
    # both hold products large enough for OpenBLAS to split over threads
    # if they ran as one call
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(mcskit.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "mcskit", *argv],
            capture_output=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_verify_algebra_passes_fast(capsys):
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "verify", "--suite", "algebra")
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 5.0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("all passed")


def test_verify_all_prints_one_line_per_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == len(CHECKS) + 1
    for line, row in zip(lines, CHECKS):
        assert line.startswith(f"PASS [{row.suite}] {row.name}: ")
    assert lines[-1] == f"{len(CHECKS)} checks, all passed"


def test_run_suite_names_only_the_suites_it_runs():
    # 'all' is the CLI's option, not a suite of the table
    for name in ("all", "nope"):
        with pytest.raises(ValueError) as info:
            run_suite(name)
        assert str(info.value) == f"unknown suite {name!r}; pick from {SUITE_NAMES}"


@pytest.mark.parametrize("suite, limit", [("wigner", 4.0), ("states", 2.5)])
def test_verify_suite_holds_little_at_once(suite, limit):
    # the wigner suite measures each field as it builds it, so it holds at
    # most one closed and one numeric field (528 KiB each on 257^2) and the
    # quarter turn's rotated field, never all 26 of its fields together
    run_suite(suite)
    tracemalloc.start()
    try:
        run_suite(suite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 2**20


def test_wavefunction_row_runs_one_synthesis_equal_to_each_case(monkeypatch):
    # the Fock route of all 15 cases at both instants is one stacked
    # synthesis, bit for bit the per-case kernel's
    outputs = []

    def recorded(coeffs, x, synthesize=decomposition._synthesize):
        outputs.append(synthesize(coeffs, x))
        return outputs[-1]

    monkeypatch.setattr(decomposition, "_synthesize", recorded)
    verify._wavefunctions(None)
    monkeypatch.undo()
    x = np.linspace(-10.0, 10.0, 801)
    cases = [(k, j, z) for k in (2, 3) for j in range(k) for z in verify._RING_Z]
    assert len(outputs) == 1 and outputs[0].shape == (2 * len(cases), x.size)
    for i, case in enumerate(cases):
        want = decomposition._amplitudes(*case, x, (0.0, 0.7), "fock", 256)
        assert outputs[0][2 * i : 2 * i + 2].tobytes() == want.tobytes(), case


def test_guard_row_reads_one_and_fails_when_its_guard_does_not_fire(monkeypatch):
    check = verify.pha_commutator_check

    def unguarded(k, state):  # the edge-support guard taken away
        try:
            return check(k, state)
        except EdgeSupport:
            return None

    monkeypatch.setattr(verify, "pha_commutator_check", unguarded)
    row = next(r for r in run_suite("algebra") if r.name == "edge-support guard fires")
    assert row.value == 1.0 and not row.passed


def test_verify_surfaces_forced_failure(capsys, monkeypatch):
    # a suite whose inputs cannot be built reports the typed error, not a row
    def refuse():
        raise TailTooHeavy("forced: the states suite cannot build its labels")

    monkeypatch.setitem(verify._INPUTS, "states", refuse)
    code, out, _ = run_cli(capsys, "verify", "--suite", "states")
    assert code == 1
    assert out == "ERROR states: TailTooHeavy: forced: the states suite cannot build its labels\n"


def test_argument_errors_exit_two(capsys):
    # each option is checked as it is parsed: non-finite or out-of-range
    # values stop with argparse's message and exit 2, never a traceback
    for args in (
        "uncertainty --k 2 --j 5",
        "wigner --k 2 --z 1 --grid 1,2,3",
        "spectrum",  # --k is required
        "spectrum --k 0",
        "uncertainty --k 2 --j 2",
        "uncertainty --k 2 --alpha-min 3 --alpha 1",
        "evolve --k 2 --z 1 --nt 1",
        "wigner --k 2 --z nan",
        "uncertainty --k 2 --alpha nan",
        "uncertainty --k 2 --alpha inf",
        "evolve --k 2 --z 1 --tmax inf",
        "evolve --k 2 --z 1 --grid -1,inf,5",
        "evolve --k 2 --z 1 --grid -1,1",
        "wigner --k 2 --z 1 --grid -1,1,-1,inf,3,3",
        "spectrum --k 2 --levels 0",
        # one axis past the library's 2^26-entry cap, refused before any
        # axis is built
        "wigner --k 1 --z 1 --grid -8,8,-8,8,2,67108865",
        "evolve --k 1 --z 1 --grid -8,8,100000000 --nt 1000000",
        "evolve --k 1 --z 1 --grid -8,8,3 --nt 67108865",
        # sweep lengths and truncations past the same cap
        "uncertainty --k 2 --points 100000000000",
        "uncertainty --k 2 --points 67108865",
        "uncertainty --k 2 --nmax 67108865",
        "wigner --k 2 --z 1 --method numeric --nmax 100000000000",
        "evolve --k 2 --z 1 --method fock --nmax 67108865",
    ):
        with pytest.raises(SystemExit) as exc:
            main(args.split())
        assert exc.value.code == 2, args
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err, args


@pytest.mark.parametrize("args", [
    # finite t whose Fock phase (n_max - 1/2) t leaves double range
    "evolve --k 2 --z 1 --tmax 1e307 --nt 2 --grid -1,1,3 --method fock",
    "spectrum --k 1" + "0" * 330 + " --levels 1",
    # axes within the cap whose field or movie passes its 2^26 entries,
    # refused before anything is allocated
    "wigner --k 1 --z 1 --grid -8,8,-8,8,1000000,1000000",
    "wigner --k 1 --z 1 --grid -8,8,-8,8,8192,8193 --method numeric",
    "evolve --k 1 --z 1 --grid -8,8,8193 --nt 8192",
    "evolve --k 1 --z 1 --grid -8,8,8193 --nt 8192 --method fock",
    # ring labels whose k-th power leaves double range: a complex power of
    # order <= 100 turns NaN without raising, a higher one raises
    "evolve --k 64 --j 5 --z 1e308 --method fock --grid -8,40,129 --nt 2",
    "wigner --k 330 --j 8 --z 1e3 --method numeric --grid -0.5,0.5,0,1,17,33 --nmax 2",
], ids=["fock-time", "spectrum-order", "field", "numeric-field", "movie", "fock-movie",
        "power-nan", "power-raises"])
def test_domain_errors_exit_one(capsys, args):
    code, out, err = run_cli(capsys, *args.split())
    assert code == 1
    assert out == ""
    assert err.startswith("error: Overflow: ") and "Traceback" not in err


@pytest.mark.parametrize("method", ["numeric", "both"])
def test_far_p_axis_is_refused_before_the_y_lattice_is_allocated(method):
    # at max|p| = 1e10 the y lattice would take 556 GiB; under an address
    # space of 3 GB any such allocation fails, so exit 1 with Overflow shows
    # the cap refused it first
    limit = 3 * 10**9
    env = {**os.environ, "PYTHONPATH": str(Path(mcskit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "mcskit", "wigner", "--k", "1", "--z", "0",
         "--method", method, "--grid", "-1,1,-1,1e10,3,3"],
        capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: Overflow: ") and "Traceback" not in proc.stderr
    assert "y lattice" in proc.stderr


def readme_commands():
    """argv of each `mcskit ...` line of the README's command-line block."""
    block = README.read_text().split("## Command line", 1)[1].split("```\n")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("mcskit ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_run(capsys, tmp_path, argv):
    # every command the README documents runs as written
    out = tmp_path / "out"
    extra = [] if argv[0] == "verify" else ["--out", str(out)]  # verify prints only
    code, stdout, err = run_cli(capsys, *argv, *extra)
    assert (code, err) == (0, "")
    assert stdout if argv[0] == "verify" else out.stat().st_size > 0


def test_evolve_default_period_header(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--k", "3", "--z", "1", "--grid", "-6,6,61", "--nt", "3"
    )
    assert code == 0
    header = csv_header(out)
    assert float(header["tmax"]) == pytest.approx(2.0 * math.pi / 3.0)


WIGNER = ("wigner", "--k", "2", "--z", "1,0.5", "--grid=-3,3,-3,3,5,5", "--nmax", "64")
EVOLVE = ("evolve", "--k", "2", "--j", "1", "--z", "1.5", "--grid=-3,3,9", "--nt", "3")


@pytest.mark.parametrize("argv, derived", [
    (("spectrum", "--k", "3", "--levels", "2"), ()),
    (("uncertainty", "--k", "3", "--j", "1", "--alpha", "1", "--points", "3"), ("tol",)),
    (WIGNER + ("--method", "closed"), ()),
    (WIGNER + ("--method", "both"), ("sup_abs_diff",)),
    (EVOLVE, ()),
    (EVOLVE + ("--tmax", "1.5"), ()),
], ids=["spectrum", "uncertainty", "wigner-closed", "wigner-both", "evolve", "evolve-tmax"])
def test_header_is_every_option_in_help_order(capsys, argv, derived):
    # the header carries every option the parser declares, so a table is
    # reproducible from its own header, and then what the command derived
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    keys = ["command"]
    for action in sub.choices[argv[0]]._actions:
        if action.dest == "grid" and argv[0] == "evolve":
            keys += ["xmin", "xmax", "nx"]
        elif action.dest not in ("help", "out", "fmt"):
            keys.append(action.dest)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    header = csv_header(out)
    assert list(header) == keys + list(derived)
    assert "None" not in header.values()
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["config"].items()) == list(header.items())
