#!/usr/bin/env python3
"""Enumerate G0-orbits on V1 by brute force and cross-validate the classifier.

By default this sweeps the seven pinned (system, p) pairs; use --system/-p to
run a single case.  Each run prints one summary line; --json-dir also writes
the full census per case.

    python3 scripts/run_census.py
    python3 scripts/run_census.py --system D4 -p 5 --json-dir out/
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from chevorbit import (
    build_root_system,
    build_table_oracle,
    crosscheck,
    enumerate_orbits,
    parse_system_name,
)

PINNED_CASES = (
    ("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3),
    ("D4", 3), ("D4", 5), ("D5", 3),
)


@dataclass
class CensusConfig:
    cases: tuple[tuple[str, int], ...] = PINNED_CASES
    budget: int | None = None
    pairs: int = 10_000
    seed: int = 0
    json_dir: Path | None = None
    skip_crosscheck: bool = False

    @classmethod
    def from_args(cls, argv=None) -> "CensusConfig":
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
        cases = PINNED_CASES if args.system is None else ((args.system, args.p),)
        return cls(
            cases=cases,
            budget=args.budget,
            pairs=args.pairs,
            seed=args.seed,
            json_dir=args.json_dir,
            skip_crosscheck=args.skip_crosscheck,
        )


def run_case(cfg: CensusConfig, name: str, p: int) -> dict:
    family, rank = parse_system_name(name)
    table = build_table_oracle(build_root_system(family, rank))
    t0 = time.perf_counter()
    census = enumerate_orbits(table, p, budget=cfg.budget)
    enumerate_time = time.perf_counter() - t0
    row = {
        "system": name,
        "p": p,
        "states": census.total_states,
        "orbits": census.orbit_count,
        "enumerate_seconds": round(enumerate_time, 2),
    }
    if not cfg.skip_crosscheck:
        t0 = time.perf_counter()
        report = crosscheck(
            table, p, budget=cfg.budget, pairs=cfg.pairs, seed=cfg.seed,
            census=census,
        )
        row["crosscheck"] = "ok" if all(
            v == "ok" for v in report["checks"].values()
        ) else "FAILED"
        row["crosscheck_seconds"] = round(time.perf_counter() - t0, 2)
    if cfg.json_dir is not None:
        cfg.json_dir.mkdir(parents=True, exist_ok=True)
        path = cfg.json_dir / f"{name}_F{p}.json"
        path.write_text(json.dumps(census.to_json(), indent=2) + "\n")
        row["json"] = str(path)
    return row


def main(argv=None) -> int:
    cfg = CensusConfig.from_args(argv)
    header = (f"{'system':<8}{'p':>3}{'states':>9}{'orbits':>8}{'enum[s]':>9}"
              f"{'check[s]':>10}  check")
    print(header)
    print("-" * len(header))
    ok = True
    for name, p in cfg.cases:
        row = run_case(cfg, name, p)
        check = row.get("crosscheck", "-")
        ok &= check in ("ok", "-")
        seconds = row.get("crosscheck_seconds")
        check_s = "-" if seconds is None else f"{seconds:.2f}"
        print(
            f"{row['system']:<8}{row['p']:>3}{row['states']:>9}"
            f"{row['orbits']:>8}{row['enumerate_seconds']:>9.2f}"
            f"{check_s:>10}  {check}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
