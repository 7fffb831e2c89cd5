#!/usr/bin/env python3
"""Enumerate G0-orbits on V1 by brute force and cross-validate the classifier.

By default this sweeps the seven pinned (system, p) pairs; use --system/-p to
run a single case.  Each run prints one summary line; --json-dir also writes
the full census per case.  The peak[MB] column is the process's peak resident
set size (getrusage ru_maxrss) when the case's line is printed: in a sweep,
the peak so far over all cases run, not that case's own.

    python3 scripts/run_census.py
    python3 scripts/run_census.py --system D4 -p 5 --json-dir out/
    CHEVORBIT_BUDGET=100000000 python3 scripts/run_census.py --system A3 -p 97

The last case, 88,529,281 states in 922,181 classes of the level-0
torus, is the largest run so far: the partition joins its classes in one
union-find over the class numbers, as it does on every case, and finds
195 orbits.  On 2 vCPUs it enumerates in about 2.8 s and crosschecks in
0.35 s, and holds about 384 MB at its peak (D6/F3: 2.2 s, 0.67 s and
235 MB).

Every case is checked before any table is built or any line is printed,
by the library's own checks (orbitlab.check_domain, census.check_budget).
The --pairs sample is drawn and checked in chunks, so its size costs time,
not memory.
Family A runs over F_2 as well; only the CLI, which documents an odd prime
modulus, refuses it.  Exit codes and stderr lines come from the CLI's
table, chevorbit.cli.EXIT_CODES: 0 success, 1 a failed crosscheck (its
reason and a line of details on stderr), 2 malformed input, 3 unsupported
request (family E, characteristic 2 for family D), 4 a case past the state
budget, physical memory or the process's memory limit, 1000 roots or
gfield.MAX_MODULUS, 130 interrupted.  A refused case prints one line on
stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from chevorbit import (
    PrimeField,
    RootSystem,
    build_root_system,
    build_table_oracle,
    crosscheck,
    enumerate_orbits,
    parse_system_name,
)
from chevorbit.census import check_budget
from chevorbit.cli import exit_status
from chevorbit.orbitlab import check_domain

PINNED_CASES = (
    ("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3),
    ("D4", 3), ("D4", 5), ("D5", 3),
)


def parse_args(argv=None) -> argparse.Namespace:
    """The options, with cases: the pinned pairs, or the one --system/-p
    case."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--system", help="run one system instead of the sweep")
    ap.add_argument("-p", type=int, help="odd prime modulus (with --system)")
    ap.add_argument("--budget", type=int, default=None,
                    help="enumeration budget in states (default 10^7)")
    ap.add_argument("--pairs", type=int, default=10_000,
                    help="sampled pairs for the same-orbit crosscheck")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-dir", type=Path, default=None,
                    help="write <system>_F<p>.json per case here")
    ap.add_argument("--skip-crosscheck", action="store_true")
    args = ap.parse_args(argv)
    if (args.system is None) != (args.p is None):
        ap.error("--system and -p must be given together")
    if args.pairs < 0:
        ap.error(f"--pairs must be >= 0, got {args.pairs}")
    args.cases = (PINNED_CASES if args.system is None
                  else ((args.system, args.p),))
    return args


def admit(args: argparse.Namespace, name: str, p: int) -> RootSystem:
    """The root system of one case, once the case can run; raises the
    exception of the first reason it cannot, before any table is built."""
    rs = build_root_system(*parse_system_name(name))
    check_domain(rs, PrimeField(p))
    check_budget(rs, p, args.budget)
    return rs


def run_case(args: argparse.Namespace, rs: RootSystem, p: int) -> dict:
    name = rs.name
    table = build_table_oracle(rs)
    t0 = time.perf_counter()
    census = enumerate_orbits(table, p, budget=args.budget)
    enumerate_time = time.perf_counter() - t0
    row = {
        "system": name,
        "p": p,
        "states": census.total_states,
        "orbits": census.orbit_count,
        "enumerate_seconds": round(enumerate_time, 2),
    }
    if not args.skip_crosscheck:
        t0 = time.perf_counter()
        # raises MismatchReport on the first disagreement
        crosscheck(table, p, pairs=args.pairs, seed=args.seed, census=census)
        row["crosscheck"] = "ok"
        row["crosscheck_seconds"] = round(time.perf_counter() - t0, 2)
    if args.json_dir is not None:
        args.json_dir.mkdir(parents=True, exist_ok=True)
        path = args.json_dir / f"{name}_F{p}.json"
        path.write_text(json.dumps(census.to_json(), indent=2) + "\n")
        row["json"] = str(path)
    return row


def run(args: argparse.Namespace) -> None:
    cases = [(admit(args, name, p), p) for name, p in args.cases]
    header = (f"{'system':<8}{'p':>3}{'states':>12}{'orbits':>8}{'enum[s]':>9}"
              f"{'check[s]':>10}{'peak[MB]':>10}  check")
    print(header)
    print("-" * len(header))
    for rs, p in cases:
        row = run_case(args, rs, p)
        seconds = row.get("crosscheck_seconds")
        check_s = "-" if seconds is None else f"{seconds:.2f}"
        print(
            f"{row['system']:<8}{row['p']:>3}{row['states']:>12}"
            f"{row['orbits']:>8}{row['enumerate_seconds']:>9.2f}"
            f"{check_s:>10}{peak_mb():>10.0f}  {row.get('crosscheck', '-')}"
        )


def peak_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def main(argv=None) -> int:
    args = parse_args(argv)
    return exit_status(lambda: run(args))


if __name__ == "__main__":
    raise SystemExit(main())
