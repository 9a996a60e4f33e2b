"""Benchmark of mcskit: time to a checked result on three workloads.

    python3 perfbench/run.py --workload labels --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; mcskit is imported from its src/. Each
workload runs in its own process (`all` starts one per workload, one after
the other), because `mcskit verify` registers a measure that stays set in
the process. A run repeats whole passes over the workload's fixed list of
operations until --seconds have passed and at least MIN_OPS operations
were attempted, checks every output, and prints as its last line a JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. setup_s is the median over
fresh processes (SETUP_SAMPLES or more), each started one after the
other before the timed passes, of the time from process start to the end
of the warm-up: import, inputs from the seed, one call of each kind of
operation. --trace 1 wraps the library (see spans.py) on every second
pass and reports per-layer self times and counts of the traced passes,
and the tracing overhead against the untraced ones, instead.

MCSKIT_THREADS and the BLAS thread settings are left as the environment
sets them; the run prints them with the CPU count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100
SETUP_SAMPLES = 3  # at least; up to three times as many while they take
SETUP_SECONDS = 3.0  # under SETUP_SECONDS in all
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mcskit" / "__init__.py").is_file():
        print(f"error: no mcskit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    # the cli outputs stay inside the checkout, as everything the benchmark
    # writes does; a killed run leaves the directory, which .gitignore names
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.setup_only:
            setup(args, Path(workdir))
            print("ready", flush=True)
            return 0
        return run_workload(args, Path(workdir))


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return status


def setup(args: argparse.Namespace, workdir: Path):
    """Import mcskit, make the inputs, call each kind of operation once."""
    import mcskit
    import mcskit.cli  # noqa: F401  (the cli workload calls mcskit.cli.main)

    if Path(mcskit.__file__).resolve().parent != SRC / "mcskit":
        raise RuntimeError(f"imported mcskit from {mcskit.__file__}, not from {SRC}")
    ops = workloads.build(args.workload, args.seed, mcskit, workdir)
    seen: set[str] = set()
    tally = Tally()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            tally.run(op)
    return mcskit, ops


def time_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process to the end of its warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            status = proc.wait(timeout=170)
        except BaseException:
            proc.kill()  # leaving the block waits for it
            raise
    if status != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed with status {status}")
    return elapsed


class Tally:
    """Runs operations; keeps latencies, failures and check outcomes."""

    def __init__(self) -> None:
        self.tracer = None  # set while a pass runs traced
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: dict[str, str] = {}  # first error of each kind of call

    def run(self, op) -> tuple[float, float]:
        """Call and check one operation; return its wall and CPU seconds."""
        self.attempted += 1
        returned = failed = False
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            out = op.call()
            returned = True
        except op.accepted:
            pass
        except Exception as exc:  # a failed operation is counted, not fatal
            failed = True
            self.failed += 1
            self.failures.setdefault(op.kind, f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        cpu = time.process_time() - cpu0
        if not failed:  # a failed call has no latency to report
            self.latencies.append(end - start)
        if returned:
            try:
                op.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                self.wrong.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            if self.tracer is not None:
                self.tracer.record("bench.check", end, time.perf_counter())
        return end - start, cpu


def run_passes(ops, seconds: float, tally: Tally, tracer=None):
    """Whole passes until `seconds` are up and MIN_OPS were attempted.

    With a tracer, every second pass runs traced, so traced and untraced
    passes see the same machine and their difference is the tracing
    overhead. Returns per pass: call seconds, CPU seconds, whole-pass
    seconds (calls and checks) and whether it was traced.
    """
    min_passes = max(math.ceil(MIN_OPS / len(ops)), 1 if tracer is None else 2)
    walls, cpus, pass_walls, traced = [], [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        tally.tracer = tracer if tracer is not None and len(walls) % 2 else None
        if tally.tracer is not None:
            tracer.install()
        pass_start = time.perf_counter()
        wall = cpu = 0.0
        for op in ops:
            w, c = tally.run(op)
            wall += w
            cpu += c
        pass_walls.append(time.perf_counter() - pass_start)
        if tally.tracer is not None:
            tracer.uninstall()
        walls.append(wall)
        cpus.append(cpu)
        traced.append(tally.tracer is not None)
    return walls, cpus, pass_walls, traced


def median_setup(args: argparse.Namespace) -> float:
    times: list[float] = []
    while len(times) < SETUP_SAMPLES or (
        sum(times) < SETUP_SECONDS and len(times) < 3 * SETUP_SAMPLES
    ):
        times.append(time_setup(args))
    return statistics.median(times)


def run_workload(args: argparse.Namespace, workdir: Path) -> int:
    setup_s = None if args.trace else median_setup(args)
    mcskit, ops = setup(args, workdir)
    tracer = spans.Tracer(mcskit) if args.trace else None
    tally = Tally()
    walls, cpus, pass_walls, traced = run_passes(ops, args.seconds, tally, tracer)

    if tracer is not None:
        metrics = spans.layer_metrics(
            tracer,
            [w for w, t in zip(pass_walls, traced) if t],
            [w for w, t in zip(walls, traced) if t],
            [w for w, t in zip(walls, traced) if not t],
        )
    else:
        lat_ms = [1e3 * v for v in tally.latencies]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    for kind, why in tally.failures.items():
        print(f"failed: {kind}: {why}", file=sys.stderr)
    for what in tally.wrong[:20]:
        print(f"WRONG {what}", file=sys.stderr)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "passes": len(walls), "ops_per_pass": len(ops),
                      "check_s_per_pass": (sum(pass_walls) - sum(walls)) / len(walls)}))
    for name, (value, unit) in metrics.items():
        print(f"{name:58s} {value:14.6g} {unit}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  "
          f"correct {not tally.wrong}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "MCSKIT_THREADS": os.environ.get("MCSKIT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


if __name__ == "__main__":
    raise SystemExit(main())
