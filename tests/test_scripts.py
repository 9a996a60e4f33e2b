"""The survey scripts and the README quick start run against the package's
public names, every name the benchmark calls resolves, and the design
counts stay at their ceilings."""

import functools
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import mcskit
import mcskit.cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# a numpy overflow or invalid operation fails a run, as it does in-process
# (pyproject.toml) and for `mcskit verify` in CI
STRICT = ("-W", "error::RuntimeWarning")


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script):
    # as `PYTHONPATH=src python3 scripts/<name>.py` runs it from a checkout
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, *STRICT, str(script)], capture_output=True, text=True, timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the README's python block uses only names the package still exports
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks, "README has no python quick-start block"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, *STRICT, "-c", "\n".join(blocks)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_names_resolve():
    # perfbench/ calls the package as `mk.<name>` and `mcskit.<name>`; a
    # name trimmed from the package fails here before a benchmark run does
    chains = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        found = re.findall(r"(?<![\w.])(?:mk|mcskit)((?:\.\w+)+)", path.read_text())
        chains.update(found)
    assert chains
    missing = []
    for chain in sorted(chains):
        try:
            functools.reduce(getattr, chain[1:].split("."), mcskit)
        except AttributeError:
            missing.append(chain[1:])
    assert not missing, f"perfbench calls names the package lacks: {missing}"


# the ceilings of ROADMAP's design counts; a change that adds an exported
# name, a caller option, a CLI option or an environment variable fails here
CEILINGS = {"__all__ names": 49, "defaulted public parameters": 27, "CLI options": 31,
            "environment variables read": 0}


def test_design_counts_stay_at_their_ceilings():
    counts = runpy.run_path(str(ROOT / "scripts" / "design_counts.py"))["design_counts"]()
    assert counts["src/ lines"] > 0
    over = {name: counts[name] for name, ceiling in CEILINGS.items() if counts[name] > ceiling}
    assert not over, f"design counts past their ceilings {CEILINGS}: {over}"
