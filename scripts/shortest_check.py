"""Byte-for-byte conformance of the table writer's float text with repr.

Draws random 64-bit patterns (every exponent, both signs, subnormals;
non-finite patterns are skipped, the writer spells those with repr
itself) and as many decade-spread normals, formats them with the
vectorized kernel behind `mcskit` tables and with Python's repr, and
compares the bytes. Prints the count checked and every mismatch, up to
ten; exits 1 if there is any.
Run: PYTHONPATH=src python3 scripts/shortest_check.py [--patterns N] [--seed S]
"""

import argparse
import sys

import numpy as np

from mcskit._shortest import repr_rows

CHUNK = 1 << 18


def mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    rows = repr_rows(values)
    lines = np.zeros((values.size, rows.shape[1] + 1), dtype=np.uint8)
    lines[:, :-1] = rows
    lines[:, -1] = ord("\n")
    got = lines.tobytes().translate(None, b"\0").decode("ascii")
    want = "\n".join(map(repr, values.tolist())) + "\n"
    if got == want:
        return []
    return [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--patterns", type=int, default=200_000,
                        help="random bit patterns, and as many decade-spread normals")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    checked, bad = 0, []
    for start in range(0, args.patterns, CHUNK):
        n = min(CHUNK, args.patterns - start)
        bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        patterns = bits.view(np.float64)
        normals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        for values in (patterns[np.isfinite(patterns)], normals):
            bad += mismatches(values)
            checked += values.size
    print(f"{checked} values checked, {len(bad)} mismatches (seed {args.seed})")
    for want, got in bad[:10]:
        print(f"  repr {want!r}, kernel {got!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
