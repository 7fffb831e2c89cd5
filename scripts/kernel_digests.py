#!/usr/bin/env python3
"""Print the digests of the generated family-D kernel sources and the cold
time of each step of their build.

For each rank (D4-D8 by default) the first table prints the sha256 and the
length of the generated "unit" and "lanes" sources of orbitlab._lift_kernel.
Two checkouts generate the same code exactly when their digests match.

Then the four steps of _lift_kernel run one by one, each on a new table so
that no per-table cache is warm: the lift of 2x over polynomials
(_doubled_lift), the block identity (_check_blocks), the codegen
(_kernel_of and the text of both sources) and Python's compile of both
sources.  Each step prints its best time in milliseconds over --repeat
builds, and each build's sources must equal the first table's.

    PYTHONPATH=src python3 scripts/kernel_digests.py
    PYTHONPATH=src python3 scripts/kernel_digests.py D4 D5 --repeat 9
"""

from __future__ import annotations

import argparse
import hashlib
import time

from chevorbit import build_root_system, build_table_oracle, parse_system_name
from chevorbit import orbitlab

KINDS = ("unit", "lanes")
PHASES = ("lift", "identity", "codegen", "compile")


def new_table(name: str):
    return build_table_oracle(build_root_system(*parse_system_name(name)))


def phase_times(name: str, want: dict) -> list[float]:
    """Seconds of each of PHASES in one cold build, on a new table."""
    table = new_table(name)
    times = []
    t0 = time.perf_counter()
    y = orbitlab._doubled_lift(table)
    times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    orbitlab._check_blocks(table, y)
    times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    kernel = orbitlab._kernel_of(table, y)
    sources = {kind: kernel.source(kind) for kind in KINDS}
    times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    for kind in KINDS:
        compile(sources[kind], f"<{kind} of {name}>", "exec")
    times.append(time.perf_counter() - t0)
    if sources != want:
        raise SystemExit(f"{name}: the step-by-step build generated other "
                         f"sources than _lift_kernel")
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("systems", nargs="*",
                    default=[f"D{r}" for r in range(4, 9)])
    ap.add_argument("--repeat", type=int, default=5,
                    help="cold builds per system; each step prints its best")
    args = ap.parse_args(argv)
    kernels = {}
    print(f"{'system':<8}{'kind':<7}{'chars':>7}  sha256")
    for name in args.systems:
        kernel = orbitlab._lift_kernel(new_table(name))
        kernels[name] = {kind: kernel.source(kind) for kind in KINDS}
        for kind, source in kernels[name].items():
            digest = hashlib.sha256(source.encode()).hexdigest()
            print(f"{name:<8}{kind:<7}{len(source):>7}  {digest}")
    print()
    print(f"{'system':<8}" + "".join(f"{p + '[ms]':>14}" for p in PHASES))
    for name in args.systems:
        runs = [phase_times(name, kernels[name]) for _ in range(args.repeat)]
        print(f"{name:<8}" + "".join(f"{1e3 * min(ts):>14.2f}"
                                     for ts in zip(*runs)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
