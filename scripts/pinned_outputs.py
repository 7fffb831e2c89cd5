#!/usr/bin/env python3
"""Fingerprint the stdout and exit code of the pinned CLI invocations.

Runs each pinned invocation in-process through chevorbit.cli.main and prints
one line per invocation: the sha256 of its stdout, its exit code and its
argv.  The classify --batch invocation reads a file of seeded random D5/F3
vectors that the script writes itself (shown as @FILE).  Run it on two
checkouts and diff the outputs: identical lines mean byte-identical stdout
and equal exit codes.

    PYTHONPATH=src python3 scripts/pinned_outputs.py > pinned.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

from chevorbit.cli import main

SYSTEMS = tuple(f"A{r}" for r in range(1, 9)) + tuple(
    f"D{r}" for r in range(4, 9)) + ("E6", "E7", "E8")
PINNED_CASES = (
    ("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3),
    ("D4", 3), ("D4", 5), ("D5", 3),
)
BATCH_SIZE = 500


def invocations(batch: str) -> list[list[str]]:
    out = []
    for s in SYSTEMS:
        out += [["constants", s], ["constants", s, "--format", "csv"]]
    for s in ("A16", "D16", "A31", "D22"):
        out.append(["constants", s, "--check", "n1"])
    for s, p in PINNED_CASES:
        case = ["orbits", s, "-p", str(p)]
        out += [case + ["--compare"], case + ["--compare", "--seed", "7"],
                case + ["--brute-force"],
                case + ["--brute-force", "--format", "csv"]]
    out += [["orbits", "D4", "-p", "101"], ["orbits", "D4", "-p", "1009"],
            ["orbits", "A3", "-p", "101"]]
    # predicted censuses that reach every orbit type of both families
    out += [["orbits", "A1", "-p", "3"], ["orbits", "A2", "-p", "7"],
            ["orbits", "A2", "-p", "7", "--format", "csv"],
            ["orbits", "A4", "-p", "5"], ["orbits", "A5", "-p", "31"],
            ["orbits", "D5", "-p", "31"],
            ["orbits", "D6", "-p", "7", "--format", "csv"],
            ["orbits", "D8", "-p", "3"]]
    out += [["classify", "D4", "-p", "1009", "--vector", "1,2,3,4,5,6,7,8"],
            ["classify", "A3", "-p", "5", "--vector", "1,2,3,4"],
            ["classify", "D5", "-p", "3", "--batch", batch]]
    out += [["orbits", "D22", "-p", "3", "--brute-force"],
            ["orbits", "D4", "-p", "3", "--brute-force", "--budget", "0"],
            ["orbits", "D4", "-p", "3", "--budget", "0"]]
    return out


def write_batch(path: Path, seed: int = 0) -> None:
    """BATCH_SIZE random D5 vectors over F_3 (12 entries each), a third of
    them sparse, so that several orbit labels occur."""
    rng = random.Random(seed)
    lines = []
    for i in range(BATCH_SIZE):
        density = 0.25 if i % 3 == 0 else 1.0
        x = [rng.randrange(3) if rng.random() < density else 0
             for _ in range(12)]
        lines.append(",".join(map(str, x)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(argv: list[str]) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def main_script() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp) / "batch.txt"
        write_batch(batch)
        spec = f"@{batch}"
        for argv in invocations(spec):
            digest, code = run(argv)
            shown = " ".join("@FILE" if a == spec else a for a in argv)
            print(f"{digest} {code} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
