#!/usr/bin/env python3
"""Time two revisions of chevorbit against each other in one process.

Each side is the src/ tree of a git revision (git archive REV src),
unpacked into a temporary directory and imported as a package of its own,
ab_base or ab_head, so both sides run in one interpreter, on the same numpy
and under the same load.  Without --head, the head side is this checkout's
working tree.  Each side builds its tables and runs the case once before
timing.  Then the rounds run interleaved: each round times one run of the
case on each side, and the side that runs first alternates from round to
round.  The script prints each side's best and median time, the ratio of
the medians (head / base), and the number of rounds that head won.  With
--memory it then runs the case once more on each side, untimed, under
tracemalloc, and prints each side's traced peak.

    python3 scripts/ab.py --base HEAD~1 --case census
    python3 scripts/ab.py --base HEAD~1 --head HEAD --case partition
    python3 scripts/ab.py --base HEAD~1 --case partition_deep --rounds 3 \
        --memory

Cases:

census     enumerate_orbits and crosscheck (seed 0) on the seven pinned
           cases, as the census benchmark runs them
partition  enumerate_orbits alone, whose time is nearly all the orbit
           partition, on D4/F5, D5/F3 and D4/F7
partition_wide
           enumerate_orbits alone on the larger cases D4/F7, A5/F7 and
           A3/F31
partition_deep
           enumerate_orbits(table, p, budget=10**8) alone on D6/F3 and
           A3/F97, 43 and 89 million states, 5-9 s a round per side on 2
           vCPUs: --rounds 3 is enough
crosscheck crosscheck alone (seed 0) on D4/F5, D5/F3 and D4/F7, each
           side's census enumerated once before timing
crosscheck_small
           the same on the five small pinned cases, A2/F3 to D4/F3
classify_many
           classify_many on 2**16 seeded vectors each of D4/F5, D5/F3,
           A5/F5 and D4/F719, the same vectors on both sides
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

CASES = {
    "census": (("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3),
               ("D4", 3), ("D4", 5), ("D5", 3)),
    "partition": (("D4", 5), ("D5", 3), ("D4", 7)),
    "partition_wide": (("D4", 7), ("A5", 7), ("A3", 31)),
    "partition_deep": (("D6", 3), ("A3", 97)),
    "crosscheck": (("D4", 5), ("D5", 3), ("D4", 7)),
    "crosscheck_small": (("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3),
                         ("D4", 3)),
    "classify_many": (("D4", 5), ("D5", 3), ("A5", 5), ("D4", 719)),
}
# vectors per system of the classify_many case
BATCH = 1 << 16


def load(alias: str, rev: str | None, into: Path):
    """The chevorbit package of rev (None: this working tree) imported as
    alias."""
    if rev is None:
        src = ROOT / "src"
    else:
        data = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(into / alias, filter="data")
        src = into / alias / "src"
    package = src / "chevorbit"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def runner(cv, case: str):
    """A function that runs the case once on package cv, its tables built
    here."""
    cases = [(cv.build_table_oracle(cv.build_root_system(
        *cv.parse_system_name(name))), p) for name, p in CASES[case]]
    if case == "classify_many":
        rng = np.random.default_rng(0)
        batches = [(table, cv.PrimeField(p), rng.integers(
            0, p, (BATCH, len(table.rs.phi1)), dtype=np.int64))
            for table, p in cases]

        def run():
            for table, K, rows in batches:
                cv.classify_many(table, K, rows)

        return run
    if case.startswith("crosscheck"):
        censuses = [cv.enumerate_orbits(table, p) for table, p in cases]

        def run():
            for (table, p), census in zip(cases, censuses):
                cv.crosscheck(table, p, seed=0, census=census)

        return run

    budget = 10**8 if case == "partition_deep" else None

    def run():
        for table, p in cases:
            census = cv.enumerate_orbits(table, p, budget=budget)
            if case == "census":
                cv.crosscheck(table, p, seed=0, census=census)

    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the base revision")
    ap.add_argument("--head", help="the head revision (default: the "
                    "working tree)")
    ap.add_argument("--case", choices=sorted(CASES), required=True)
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--memory", action="store_true",
                    help="also print each side's tracemalloc peak")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for alias, rev in (("ab_base", args.base), ("ab_head", args.head)):
            run = sides[alias] = runner(load(alias, rev, Path(tmp)),
                                        args.case)
            run()  # caches filled and lazy set-up done before timing
        times = {alias: [] for alias in sides}
        for r in range(args.rounds):
            for alias in (sides if r % 2 == 0 else reversed(sides)):
                t0 = time.perf_counter()
                sides[alias]()
                times[alias].append(time.perf_counter() - t0)
        peaks = {}
        for alias in sides if args.memory else ():
            tracemalloc.start()
            try:
                sides[alias]()
                peaks[alias] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    base, head = times["ab_base"], times["ab_head"]
    for name, ts in (("base", base), ("head", head)):
        print(f"{name}  best {1e3 * min(ts):9.2f} ms  "
              f"median {1e3 * statistics.median(ts):9.2f} ms")
    ratio = statistics.median(head) / statistics.median(base)
    wins = sum(h < b for h, b in zip(head, base))
    print(f"ratio (head / base, medians) {ratio:.3f}; head won {wins} of "
          f"{args.rounds} rounds")
    for name, alias in (("base", "ab_base"), ("head", "ab_head")):
        if alias in peaks:
            print(f"{name}  traced peak {peaks[alias] / 2**20:9.2f} MiB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
