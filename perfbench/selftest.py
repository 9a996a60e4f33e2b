"""Self-test of the benchmark: its checks must fail corrupted outputs.

    python3 perfbench/selftest.py

Each workload's checker is fed a correct output, which it must pass, and
then a deliberately corrupted copy, which it must fail: a state or moment
set nudged by 1e-6 (labels), a field shifted by 1e-3 and a density frame
scaled by 1.01 (grids), a dropped CSV row, a changed JSON number and a
call that wrote no output file (cli).
It also checks that self times add up to the traced wall time and that
BENCHMARK.json names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mcskit  # noqa: E402
import mcskit.cli  # noqa: E402,F401
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}")


def first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def must_fail(op, bad, what: str) -> None:
    try:
        op.check(bad)
    except CheckFailed as exc:
        print(f"ok   {what}: {exc}")
        return
    raise SystemExit(f"FAIL {what}: the corrupted output passed the check")


def passes_then_fails(op, corrupt, what: str) -> None:
    """Check op's real output, then a corrupted copy of it."""
    out = op.call()
    op.check(out)
    must_fail(op, corrupt(out), what)


def test_labels():
    ops = workloads.labels_ops(np.random.default_rng(7), mcskit)

    def nudge_state(state):
        c = state.coeffs.copy()
        c[1] += 1e-6
        return mcskit.FockVector(c / np.linalg.norm(c))

    def nudge_moments(mom):
        return dataclasses.replace(mom, a_norm_sq=mom.a_norm_sq + 1e-6, mean_H=mom.mean_H + 1e-6)

    passes_then_fails(first(ops, "build_mcs"), nudge_state, "labels: state nudged by 1e-6")
    passes_then_fails(first(ops, "moments"), nudge_moments, "labels: <N> nudged by 1e-6")
    passes_then_fails(first(ops, "coherent_from_classes"), nudge_state,
                      "labels: reassembled coherent state nudged by 1e-6")

    # the overflow-wall call must be well formed, so that a fix of the
    # fault is credited: it may fail only inside mcskit, and its check
    # passes the moments of |30; 1, 0>, a coherent state with <N> = 900
    wall = first(ops, "fault_overflow_wall")
    try:
        wall.check(wall.call())
    except mcskit.McskitError as exc:
        print(f"ok   labels: overflow wall fails inside mcskit: {type(exc).__name__}")
    x = math.sqrt(2.0) * 30.0
    coherent = mcskit.MomentSet(x, 0.0, x * x + 0.5, 0.5, 0.5, 0.5, 0.5, 900.0, 900.5)
    wall.check(coherent)
    must_fail(wall, nudge_moments(coherent), "labels: overflow wall <N> nudged by 1e-6")


def test_grids():
    ops = workloads.grids_ops(np.random.default_rng(7), mcskit)

    def shift(field):
        return dataclasses.replace(field, values=field.values + 1e-3)

    def shift_numeric(out):
        return (shift(out[0]),) + out[1:]

    def scale_frame(movie):
        bad = movie.copy()
        bad[20] *= 1.01
        return bad

    passes_then_fails(first(ops, "wigner_closed"), shift, "grids: closed field shifted by 1e-3")
    passes_then_fails(first(ops, "wigner_numeric"), shift_numeric,
                      "grids: numeric field shifted by 1e-3")
    passes_then_fails(first(ops, "movie_closed"), scale_frame,
                      "grids: density frame scaled by 1.01")
    passes_then_fails(first(ops, "movie_fock"), scale_frame,
                      "grids: Fock-route density frame scaled by 1.01")


def test_cli():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ops = workloads.cli_ops(np.random.default_rng(7), mcskit, Path(tmp))

        def drop_row(result):
            lines = result.out.read_text().splitlines(keepends=True)
            result.out.write_text("".join(lines[:-10] + lines[-9:]))
            return result

        def change_number(result):
            doc = json.loads(result.out.read_text())
            doc["columns"]["w_numeric"][0] *= 1 + 1e-9  # a far corner: gap and mass hold
            result.out.write_text(json.dumps(doc, indent=2) + "\n")
            return result

        def fail_verify(result):
            return dataclasses.replace(result, stdout=result.stdout.replace("all passed", "FAIL"))

        # the first output goes through every check; later ones are compared
        # byte for byte with it
        op = first(ops, "wigner_csv")
        must_fail(op, drop_row(op.call()), "cli: first CSV with a row dropped")
        passes_then_fails(op, drop_row, "cli: later CSV with a row dropped")
        passes_then_fails(first(ops, "wigner_json"), change_number,
                          "cli: JSON number differing from the CSV")
        passes_then_fails(first(ops, "evolve_csv"), drop_row, "cli: evolve CSV with a row dropped")
        passes_then_fails(first(ops, "verify"), fail_verify, "cli: verify summary not all passed")

        # a call that exits 0 but writes nothing must not pass on the file
        # an earlier call left behind
        op = first(ops, "evolve_csv")
        op.check(op.call())
        real_main = mcskit.cli.main
        mcskit.cli.main = lambda argv: 0
        try:
            silent = op.call()
        finally:
            mcskit.cli.main = real_main
        must_fail(op, silent, "cli: call that wrote no output file")


def test_self_times():
    """Self times of all spans add up to the time the root spans cover."""
    tracer = spans.Tracer(mcskit)
    tracer.install()
    try:
        x = np.linspace(-12, 12, 129)
        mcskit.density_movie(3, 1, 1.2, x, method="fock")
        mcskit.wigner_numeric(mcskit.build_mcs(mcskit.MCSLabel(2, 0, 1.0)),
                              mcskit.PhaseGrid(n_q=33, n_p=33))
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    roots = [s for s in tracer.spans if s[4] is None]
    covered = sum(s[2] - s[1] for s in roots)
    threads = {s[3] for s in tracer.spans}
    pool = [s for s in tracer.spans if s[3] != threading.get_ident()]
    require(len(threads) > 1 and pool, "no spans on pool threads")
    require(all(s[4] is not None for s in pool), "pool spans without a parent")
    require(abs(sum(own) - covered) <= 1e-9 * len(own),
            f"self times sum to {sum(own)} s, spans cover {covered} s")
    require(not hasattr(mcskit.density_movie, "__wrapped__"), "uninstall left a wrapper")
    print(f"ok   self times add up: {sum(own):.6f} s over {len(own)} spans, "
          f"{len(pool)} on pool threads")


def test_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    require(layer == list(spans.LAYER_METRICS), "per_layer differs from spans.LAYER_METRICS")
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    require(e2e == list(run.END_TO_END), "end_to_end differs from run.END_TO_END")
    require(set(w["name"] for w in spec["workloads"]) <= set(workloads.WORKLOADS),
            "BENCHMARK.json names a workload that workloads.WORKLOADS lacks")
    print(f"ok   BENCHMARK.json lists the {len(e2e)} end-to-end and {len(layer)} "
          f"per-layer metrics")


if __name__ == "__main__":
    test_labels()
    test_grids()
    test_cli()
    test_self_times()
    test_benchmark_json()
    print("selftest passed")
