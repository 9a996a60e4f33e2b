"""Count the package's design surface: the numbers ROADMAP tracks.

src/ lines, the names in mcskit.__all__, the defaulted parameters of the
exported functions and classes and of the classes' public methods (the
options a caller can set), the option strings of the CLI subcommands but
-h/--help, and the reads of environment variables under src/; then the
line count of each module under src/mcskit/, so a change of the total can
be traced to its module.
Run: PYTHONPATH=src python3 scripts/design_counts.py
"""

import argparse
import inspect
import re
from pathlib import Path

import mcskit
from mcskit.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src"


def _defaults(f) -> int:
    try:
        params = inspect.signature(f).parameters.values()
    except (TypeError, ValueError):  # exception classes
        return 0
    return sum(p.default is not p.empty for p in params)


def design_counts() -> dict[str, int]:
    texts = [path.read_text() for path in sorted(SRC.rglob("*.py"))]
    defaulted = 0
    for obj in map(mcskit.__dict__.get, mcskit.__all__):
        if inspect.isclass(obj):
            methods = [m for name, m in vars(obj).items()
                       if not name.startswith("_") and inspect.isfunction(m)]
            defaulted += _defaults(obj) + sum(map(_defaults, methods))
        elif callable(obj):
            defaulted += _defaults(obj)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = sum(len(a.option_strings) for p in sub.choices.values()
                  for a in p._actions if not isinstance(a, argparse._HelpAction))
    return {
        "src/ lines": sum(text.count("\n") for text in texts),
        "__all__ names": len(mcskit.__all__),
        "defaulted public parameters": defaulted,
        "CLI options": options,
        "environment variables read": sum(len(re.findall(r"os\.environ|getenv", text))
                                          for text in texts),
    }


if __name__ == "__main__":
    for name, count in design_counts().items():
        print(f"{name}: {count}")
    for path in sorted((SRC / "mcskit").rglob("*.py")):
        lines = path.read_text().count("\n")
        print(f"{path.relative_to(SRC.parent)}: {lines} lines")
