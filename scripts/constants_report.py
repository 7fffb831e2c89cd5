#!/usr/bin/env python3
"""Build and verify the structure-constant table for each root system.

Prints one line per system: size statistics from the constraint-propagation
build, the re-verification result, the Jacobi check, and agreement between
the closed-form sign computation and the table on every defined pair.  The
build[s] column is the time of build_table_oracle alone, jacobi[s] that of
jacobi_check, t[s] the total.

    python3 scripts/constants_report.py
    python3 scripts/constants_report.py --systems D4 D5 --samples 50000
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

from chevorbit import (
    build_root_system,
    build_table_oracle,
    jacobi_check,
    parse_system_name,
    structure_constant_fast,
    verify_table,
)

DEFAULT_SYSTEMS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8",
)


@dataclass
class ReportConfig:
    systems: tuple[str, ...] = DEFAULT_SYSTEMS
    samples: int = 100_000
    seed: int = 1729

    @classmethod
    def from_args(cls, argv=None) -> "ReportConfig":
        ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        ap.add_argument("--systems", nargs="+", default=list(DEFAULT_SYSTEMS))
        ap.add_argument("--samples", type=int, default=100_000,
                        help="sampled Jacobi triples for the large systems")
        ap.add_argument("--seed", type=int, default=1729)
        args = ap.parse_args(argv)
        if args.samples < 0:
            ap.error("--samples must be >= 0")
        return cls(systems=tuple(args.systems), samples=args.samples, seed=args.seed)


def run_system(cfg: ReportConfig, name: str) -> dict:
    family, rank = parse_system_name(name)
    t0 = time.perf_counter()
    rs = build_root_system(family, rank)
    t1 = time.perf_counter()
    table = build_table_oracle(rs)
    build = time.perf_counter() - t1
    stats = verify_table(table)
    t2 = time.perf_counter()
    jac = jacobi_check(table, samples=cfg.samples, seed=cfg.seed)
    jacobi = time.perf_counter() - t2
    memo: dict = {}
    agree = all(
        structure_constant_fast(rs, rs.roots[i], rs.roots[j], memo)
        == table.nv(int(i), int(j))
        for i, j in table.defined_pairs()
    )
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


def main(argv=None) -> int:
    cfg = ReportConfig.from_args(argv)
    header = (
        f"{'system':<8}{'roots':>6}{'pairs':>8}{'seeds':>7}{'orbits':>8}"
        f"{'jacobi':>18}{'closed-form':>13}{'build[s]':>10}{'jacobi[s]':>11}"
        f"{'t[s]':>7}"
    )
    print(header)
    print("-" * len(header))
    ok = True
    for name in cfg.systems:
        row = run_system(cfg, name)
        ok &= row["closed_form"] == "agree"
        print(
            f"{row['system']:<8}{row['roots']:>6}{row['pairs']:>8}"
            f"{row['seeds']:>7}{row['orbits']:>8}{row['jacobi']:>18}"
            f"{row['closed_form']:>13}{row['build_seconds']:>10.3f}"
            f"{row['jacobi_seconds']:>11.3f}"
            f"{row['seconds']:>7.2f}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
