#!/usr/bin/env python3
"""Check that orbit types are invariant under random level-0 words, at scale.

For each case of a fixed list, 2**20 uniform level-1 vectors over F_p, held
as int64 lane columns, are pushed through random length-8 words of level-0
root elements (act_on_v1, a separate scalar per lane and one word per chunk
of 2**16 vectors), and classified before and after with classify_many.  One
line per case gives the number of vectors whose descriptor changed (0 when
the classifier is invariant) and the wall time of the case, table build
included.  The exit code is 1 if any case had a disagreement.

That the invariant code is invariant is proved over polynomials by tier-1
tests (the chain is in orbitlab.classify's docstring).  What this sweep
still adds is the code those proofs do not run: act_on_v1, the batch action
that moves the vectors, and the lane spelling of the code at scale, on the
int32 lanes of family A and the int64 lanes of family D at these primes.

    PYTHONPATH=src python3 scripts/v1_invariance.py --seed 0
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from chevorbit import (
    PrimeField,
    act_on_v1,
    build_root_system,
    build_table_oracle,
    classify_many,
    parse_system_name,
)

CASES = (
    tuple((f"A{l}", 1009) for l in range(3, 9))
    + tuple((f"D{l}", 1009) for l in range(4, 9))
    + (("D4", 65521), ("D5", 65521))
)
CHUNK = 1 << 16
CHUNKS = 16
WORD_LENGTH = 8


def run_case(name: str, p: int, seed: int) -> tuple[int, int]:
    """(vectors, disagreements) for one case."""
    table = build_table_oracle(build_root_system(*parse_system_name(name)))
    rs = table.rs
    K = PrimeField(p)
    rng = np.random.default_rng([seed, p, rs.rank, ord(rs.family)])
    bad = 0
    for _ in range(CHUNKS):
        x = rng.integers(0, p, size=(len(rs.phi1), CHUNK), dtype=np.int64)
        roots = [rs.phi0[i] for i in rng.integers(len(rs.phi0),
                                                  size=WORD_LENGTH)]
        scalars = rng.integers(1, p, size=(WORD_LENGTH, CHUNK),
                               dtype=np.int64)
        gx = np.stack(act_on_v1(table, K, list(zip(roots, scalars)), x),
                      axis=1)
        before = classify_many(table, K, x.T)
        after = classify_many(table, K, gx)
        bad += sum(a != b for a, b in zip(before, after))
    return CHUNKS * CHUNK, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args(argv).seed
    print(f"{'system':<8}{'p':>7}{'vectors':>10}{'changed':>9}{'wall[s]':>9}")
    total_bad = 0
    for name, p in CASES:
        t0 = time.perf_counter()
        n, bad = run_case(name, p, seed)
        total_bad += bad
        print(f"{name:<8}{p:>7}{n:>10}{bad:>9}"
              f"{time.perf_counter() - t0:>9.1f}", flush=True)
    return 1 if total_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
