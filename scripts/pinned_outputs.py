#!/usr/bin/env python3
"""Fingerprint the stdout and exit code of the pinned CLI invocations.

Runs each pinned invocation in-process through chevorbit.cli.main and prints
one line per invocation: the sha256 of its stdout, its exit code and its
argv, or, where an exception escapes main, its type name in place of the
exit code.  The classify --batch invocations read files of seeded random
vectors that the script writes itself (shown as @FILE): D5/F3, on int8
lanes, and D4/F65521, D8/F1009, D4/F1321213 and A3 at 2**64 + 13, whose
vectors are mostly dark (family D) or of label VI (A3); D4/F1321213 and
A3 run the scalar code of a batch, past the int64 lane bound, and
D4/F65521 and D8/F1009 int64 lanes.  Eight more batches run the lane
code: D6/F3 on int8 lanes; D4/F5, D7/F3, and D4/F13 and A3/F79, the
largest primes with int16 lanes of D4 and A3, on int16 lanes; D4/F101
on int32 lanes; and D4/F719 and D8/F65521 on int64 lanes.  The roots
invocations dump root systems in every format, and A31 and D22, the two
largest, in one format each; constants A31 and D22 with --check theorem1 run the closed form on
every pair of the two largest systems and with --check n3pp count every
associativity instance of them, classify D22 lifts one vector
through the largest family-D table, classify A2 at a 17-digit prime
tests that modulus for primality, and orbits D4 -p 7 --brute-force
partitions 5,764,801 states, the largest family-D census within the
default budget, and orbits A5 -p 5 --brute-force 390,625 states, a family-A
census over several blocks of the partition.  orbits D7 -p 5 classifies
every canonical vector of D7, and classify --vector runs at D8/F65521 on a
dark and a sparse vector and at A8/F65521.  The last invocations are
refused, each with its exit code: F_2, family E (before a wrong length,
after an unparsable vector), a wrong length, a modulus that is not prime,
a census past physical memory and a system past the root limit.  Run it on
two checkouts and diff the outputs: identical lines mean byte-identical
stdout and equal exit codes.

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

from chevorbit import build_root_system, parse_system_name
from chevorbit.cli import main

SYSTEMS = tuple(f"A{r}" for r in range(1, 9)) + tuple(
    f"D{r}" for r in range(4, 9)) + ("E6", "E7", "E8")
PINNED_CASES = (
    ("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3),
    ("D4", 3), ("D4", 5), ("D5", 3),
)
BATCH_SIZE = 500
BATCHES = (("D5", 3), ("D4", 65521), ("D8", 1009), ("D4", 1321213),
           ("A3", 18446744073709551629),
           # the lane code, on the lanes the module docstring lists
           ("D4", 5), ("D4", 101), ("D6", 3), ("D7", 3), ("D4", 719),
           ("D8", 65521), ("D4", 13), ("A3", 79))


def invocations(batches: dict) -> list[list[str]]:
    """The pinned argv lists; batches maps (system, p) to a --batch spec."""
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
            ["classify", "D5", "-p", "3", "--batch", batches["D5", 3]]]
    out += [["orbits", "D22", "-p", "3", "--brute-force"],
            ["orbits", "D4", "-p", "3", "--brute-force", "--budget", "0"],
            ["orbits", "D4", "-p", "3", "--budget", "0"]]
    out += [["orbits", "E6", "-p", "3", "--brute-force"],
            ["orbits", "E6", "-p", "3", "--compare"],
            ["orbits", "D4", "-p", "3", "--format", "csv"]]
    out += [["classify", s, "-p", str(p), "--batch", batches[s, p]]
            for s, p in BATCHES[1:5]]
    out += [["roots", s, "--format", f] for s in ("A1", "A8", "D4", "D8", "E8")
            for f in ("text", "json", "csv")]
    out += [["constants", s, "--check", "theorem1"] for s in ("A31", "D22")]
    out += [["roots", "A31", "--format", "json"],
            ["roots", "D22", "--format", "csv"],
            ["classify", "D22", "-p", "3", "--vector", ",".join(["1"] * 80)],
            ["classify", "A2", "-p", "10000000000000061", "--vector", "1,1"]]
    out += [["constants", s, "--check", "n3pp"] for s in ("A31", "D22")]
    out += [["orbits", "D4", "-p", "7", "--brute-force"],
            ["orbits", "A5", "-p", "5", "--brute-force"]]
    # scalar classify: every canonical vector of D7, and single vectors at a
    # large prime, a dark and a sparse one of D8 and one of A8
    sparse = ["0"] * 24
    sparse[0], sparse[3], sparse[5], sparse[22] = "3", "7", "11", "65520"
    out += [["orbits", "D7", "-p", "5"],
            ["classify", "D8", "-p", "65521", "--vector",
             ",".join(map(str, range(1, 25)))],
            ["classify", "D8", "-p", "65521", "--vector", ",".join(sparse)],
            ["classify", "A8", "-p", "65521", "--vector",
             ",".join(map(str, range(1, 15)))]]
    out += [["classify", s, "-p", str(p), "--batch", batches[s, p]]
            for s, p in BATCHES[5:]]
    # refusals, in the order of the checks where a request has two faults
    out += [["classify", "A3", "-p", "2", "--vector", "0,1,1,0"],
            ["classify", "E6", "-p", "3", "--vector", "1"],
            ["classify", "E6", "-p", "3", "--vector", "a"],
            ["classify", "D16", "-p", "1009", "--vector", "1"],
            ["classify", "A3", "-p", "9", "--vector", "0,1,2,0"],
            ["orbits", "A3", "-p", "2"],
            ["orbits", "D4", "-p", "101", "--brute-force", "--budget",
             "100000000000000000000"],
            ["orbits", "A40", "-p", "3"]]
    return out


def write_batch(path: Path, system: str, p: int, seed: int = 0) -> None:
    """BATCH_SIZE random level-1 vectors of system over F_p, a third of them
    sparse, so that several orbit labels occur; the others are uniform, so
    at large p most of them are dark."""
    m = len(build_root_system(*parse_system_name(system)).phi1)
    rng = random.Random(seed)
    lines = []
    for i in range(BATCH_SIZE):
        density = 0.25 if i % 3 == 0 else 1.0
        x = [rng.randrange(p) if rng.random() < density else 0
             for _ in range(m)]
        lines.append(",".join(map(str, x)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(argv: list[str]) -> tuple[str, int | str]:
    """The sha256 of argv's stdout, and its exit code, or the type name of
    an exception that escapes main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as e:  # noqa: BLE001  (reported, not raised)
            code = type(e).__name__
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def main_script() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        batches = {}
        for s, p in BATCHES:
            path = Path(tmp) / f"{s}_{p}.txt"
            write_batch(path, s, p)
            batches[s, p] = f"@{path}"
        specs = set(batches.values())
        for argv in invocations(batches):
            digest, code = run(argv)
            shown = " ".join("@FILE" if a in specs else a for a in argv)
            print(f"{digest} {code} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
