#!/usr/bin/env python3
"""Print the digests of the generated classifier sources and the cold time
of each step of their build.

For each system (D4-D8 and A2-A8 by default) the first table prints the
sha256 and the length of each generated source: the "unit" and "lanes" of
family D's orbitlab._lift_kernel and of family A's orbitlab._a_kernel.
Two checkouts generate the same code exactly when their digests match.

Then each step of the build runs on its own, each on a new table so that
no per-table cache is warm.  Family D has four: the lift of 2x over
polynomials (_doubled_lift), the block identity (_check_blocks), the
codegen (_d_source and the text of both sources) and Python's compile of
both sources.  Family A has no lift, so its row shows "-" there: its
codegen is _a_source and the text of both sources, from the labels of the
system's classifier, and then their compile.  Each step prints its
best time in milliseconds over --repeat builds, and each build's sources
must equal the first table's.

    PYTHONPATH=src python3 scripts/kernel_digests.py
    PYTHONPATH=src python3 scripts/kernel_digests.py D4 A5 --repeat 9
"""

from __future__ import annotations

import argparse
import hashlib
import time

from chevorbit import (PrimeField, build_root_system, build_table_oracle,
                       parse_system_name)
from chevorbit import orbitlab

PHASES = ("lift", "identity", "codegen", "compile")


def new_table(name: str):
    return build_table_oracle(build_root_system(*parse_system_name(name)))


def generated(name: str) -> tuple:
    """kind -> the generated source of a new table of the system, and for
    family A the labels its code is generated from, which are the
    catalogue's and the same at every p."""
    table = new_table(name)
    clf = orbitlab._classifier(table, PrimeField(3))
    labels = clf.labels if table.rs.family == "A" else None
    return {kind: clf.kernel.source(kind) for kind in ("unit", "lanes")}, labels


def phase_times(name: str, want: dict, labels) -> list:
    """Seconds of each of PHASES in one cold build, on a new table; None
    for a step the family does not have."""
    table = new_table(name)
    times = []
    t0 = time.perf_counter()
    if labels is not None:
        source = orbitlab._a_source(table, labels)
        times += [None, None]
    else:
        y = orbitlab._doubled_lift(table)
        times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        orbitlab._check_blocks(table, y)
        times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        source = orbitlab._d_source(table, y)[0]
    sources = {kind: source(kind) for kind in want}
    times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    for kind in want:
        compile(sources[kind], f"<{kind} of {name}>", "exec")
    times.append(time.perf_counter() - t0)
    if sources != want:
        raise SystemExit(f"{name}: the step-by-step build generated other "
                         f"sources than the classifier")
    return times


def best_ms(times) -> str:
    return "-" if None in times else f"{1e3 * min(times):.2f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("systems", nargs="*",
                    default=[f"D{r}" for r in range(4, 9)]
                    + [f"A{r}" for r in range(2, 9)])
    ap.add_argument("--repeat", type=int, default=5,
                    help="cold builds per system; each step prints its best")
    args = ap.parse_args(argv)
    sources = {}
    print(f"{'system':<8}{'kind':<7}{'chars':>7}  sha256")
    for name in args.systems:
        sources[name] = generated(name)
        for kind, source in sources[name][0].items():
            digest = hashlib.sha256(source.encode()).hexdigest()
            print(f"{name:<8}{kind:<7}{len(source):>7}  {digest}")
    print()
    print(f"{'system':<8}" + "".join(f"{p + '[ms]':>14}" for p in PHASES))
    for name in args.systems:
        runs = [phase_times(name, *sources[name])
                for _ in range(args.repeat)]
        print(f"{name:<8}" + "".join(f"{best_ms(ts):>14}"
                                     for ts in zip(*runs)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
