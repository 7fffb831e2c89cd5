#!/usr/bin/env python3
"""Build and verify the structure-constant table for each root system.

Prints one line per system: size statistics from the constraint-propagation
build, the re-verification result, the Jacobi check, and agreement between
the closed form (chevalley.closed_form_table) and the table on every pair.
The build[s] column is the time of build_table_oracle alone, jacobi[s] that
of jacobi_check, t[s] the total.

    python3 scripts/constants_report.py
    python3 scripts/constants_report.py --systems D4 D5 --samples 50000

Every name is checked before any table is built or any line is printed.
Exit codes and stderr lines come from the CLI's table,
chevorbit.cli.EXIT_CODES: 0 success, 1 a failed check or a closed form that
disagrees with the table, 2 a name that is no supported system, 4 a system
past 1000 roots.  A refused run prints one line on stderr and nothing on
stdout.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from chevorbit import (
    InconsistentTable,
    build_root_system,
    build_table_oracle,
    jacobi_check,
    parse_system_name,
    verify_table,
)
from chevorbit.chevalley import closed_form_table
from chevorbit.cli import exit_status
from chevorbit.rootsys import root_count

DEFAULT_SYSTEMS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8",
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--systems", nargs="+", default=list(DEFAULT_SYSTEMS))
    ap.add_argument("--samples", type=int, default=100_000,
                    help="sampled Jacobi triples for the large systems")
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args(argv)
    if args.samples < 0:
        ap.error("--samples must be >= 0")
    return args


def run_system(args: argparse.Namespace, name: str) -> dict:
    family, rank = parse_system_name(name)
    t0 = time.perf_counter()
    rs = build_root_system(family, rank)
    t1 = time.perf_counter()
    table = build_table_oracle(rs)
    build = time.perf_counter() - t1
    stats = verify_table(table)
    t2 = time.perf_counter()
    jac = jacobi_check(table, samples=args.samples, seed=args.seed)
    jacobi = time.perf_counter() - t2
    agree = np.array_equal(closed_form_table(rs), table._nt)
    return {
        "system": name,
        "roots": len(rs.roots),
        "pairs": stats["defined_pairs"],
        "seeds": stats["seeds"],
        "orbits": table.stats["pair_orbits"],
        "jacobi": f"{jac['mode']}:{jac['triples']}",
        "closed_form": "agree" if agree else "MISMATCH",
        "build_seconds": build,
        "jacobi_seconds": jacobi,
        "seconds": round(time.perf_counter() - t0, 2),
    }


def run(args: argparse.Namespace) -> None:
    for name in args.systems:  # refuse a bad name before any table or line
        root_count(*parse_system_name(name))
    header = (
        f"{'system':<8}{'roots':>6}{'pairs':>8}{'seeds':>7}{'orbits':>8}"
        f"{'jacobi':>18}{'closed-form':>13}{'build[s]':>10}{'jacobi[s]':>11}"
        f"{'t[s]':>7}"
    )
    print(header)
    print("-" * len(header))
    mismatched = []
    for name in args.systems:
        row = run_system(args, name)
        if row["closed_form"] != "agree":
            mismatched.append(name)
        print(
            f"{row['system']:<8}{row['roots']:>6}{row['pairs']:>8}"
            f"{row['seeds']:>7}{row['orbits']:>8}{row['jacobi']:>18}"
            f"{row['closed_form']:>13}{row['build_seconds']:>10.3f}"
            f"{row['jacobi_seconds']:>11.3f}"
            f"{row['seconds']:>7.2f}"
        )
    if mismatched:
        raise InconsistentTable(f"the closed form disagrees with the table "
                                f"of {' '.join(mismatched)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    return exit_status(lambda: run(args))


if __name__ == "__main__":
    raise SystemExit(main())
