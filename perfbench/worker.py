"""One benchmark process: set up one workload, run its passes, report JSON.

perfbench/run.py starts this script in a fresh interpreter for every
measurement, so each workload starts with chevorbit's caches empty.  The
worker calls only chevorbit's public functions, times each call from outside,
and checks every result.  It prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload classify --seed 1 --passes 45

The workloads (see run.py for why each exists):

structure  build and fully verify the 16 systems A1-A8, D4-D8, E6-E8
census     enumerate_orbits + crosscheck on the seven pinned cases
classify   seeded random level-1 vectors: classify, act by a random level-0
           word, classify again, compare
large_p    predicted census + canonical forms of D4 at p = 101..211, then one
           cold classify per prime >= 1009 (one pass per process)
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

T_START = time.perf_counter()

# the program is run from source: <checkout>/src, next to this directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402  (perfbench/ is this script's directory)

now = time.perf_counter
now_ns = time.perf_counter_ns

SYSTEMS = tuple(f"A{r}" for r in range(1, 9)) + tuple(
    f"D{r}" for r in range(4, 9)) + ("E6", "E7", "E8")

# (system, p, orbit count pinned by the test suite)
PINNED_CENSUS = (
    ("A2", 3, 9), ("A3", 3, 7), ("A3", 5, 11), ("A4", 3, 6),
    ("D4", 3, 14), ("D4", 5, 16), ("D5", 3, 9),
)

WORD_LEN = 4  # factors in each random level-0 word

# About the median time of calibration_loop() on a 2-vCPU x86_64 VM under
# Python 3.11, where it ranged from 5.5 to 12 ms as the host's load changed.
# Calibrated pass times are rescaled to this speed: see Run.mark.
CAL_REF_S = 0.008

SIZES = {
    "full": {
        "structure": SYSTEMS,
        "census": PINNED_CENSUS,
        "classify": (("D4", 5), ("D5", 3), ("D6", 3), ("A5", 5)),
        "classify_pass": 1000,  # vectors per pass, equal share per case
        "predicted_primes": (101, 127, 151, 181, 211),
        "cold_primes": (
            ("D4", (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)),
            ("D5", (1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097)),
        ),
    },
    "smoke": {
        "structure": ("A1", "A2", "D4"),
        "census": (("A2", 3, 9), ("A3", 3, 7), ("D4", 3, 14)),
        "classify": (("D4", 5), ("D5", 3), ("D6", 3), ("A5", 5)),
        "classify_pass": 40,
        "predicted_primes": (101,),
        "cold_primes": (("D4", (1009,)), ("D5", (1013,))),
    },
}

cv = None  # the chevorbit package, imported (and timed) during set-up


def calibration_loop() -> int:
    """Fixed pure-Python work (ints, dicts, tuples) that times CPU speed."""
    d: dict = {}
    s = 0
    for i in range(28000):
        k = (i * 7919) % 10007
        d[k] = d.get(k, 0) + i
        s += (i * i) % 13
    t = tuple(range(50))
    for i in range(2000):
        s += sum(t[i % 7:i % 7 + 20])
    return s


class CheckFailed(Exception):
    """A benchmark correctness gate did not hold."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Run:
    """Per-process tallies: operations, failures, timing samples, info."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.call_ms = array("d")
        self.pass_s: list[float] = []
        self.pass_cal_s: list[float] = []
        self.marks: list[tuple[float, float, int]] = []
        self.passes_done = 0
        self.predicted_s: list[float] = []  # large_p: D4 predicted censuses
        self.units = 0  # states (census) or vectors (classify) finished
        self.info: dict = defaultdict(dict)
        self.seen: set = set()  # classify inputs, kept only when tracing

    def mark(self) -> None:
        """End a work segment, then time calibration_loop().

        A shared host can change this process's speed by a third or more
        for minutes at a time.  Timing the same fixed loop between segments
        tracks that speed, so that pass_times() can rescale each segment to
        the reference speed CAL_REF_S.
        """
        with self.tr.span("bench.calibrate"):
            t = now()
            calibration_loop()
            c = now() - t
        self.marks.append((t, c, self.passes_done))

    def pass_times(self) -> tuple[list[float], list[float]]:
        """Raw and calibrated seconds of each pass, from the marks.

        A segment runs from the end of one calibration to the start of the
        next and belongs to the pass in which it ends; calibration time is
        excluded.  Each loop time is replaced by the median of it and its two
        neighbours, so one disturbed sample does not rescale a long segment,
        and a segment is scaled by CAL_REF_S over the mean of its two ends.
        """
        c = [m[1] for m in self.marks]
        smooth = [statistics.median(c[max(i - 1, 0):i + 2])
                  for i in range(len(c))]
        raw = [0.0] * self.passes_done
        cal = [0.0] * self.passes_done
        for i in range(len(self.marks) - 1):
            (t0, c0, _), (t1, _, k) = self.marks[i], self.marks[i + 1]
            work = t1 - (t0 + c0)
            raw[k] += work
            cal[k] += work * CAL_REF_S / ((smooth[i] + smooth[i + 1]) / 2)
        return raw, cal

    def op(self, label: str, fn, *args):
        """Run one counted operation; an exception or failed gate fails it."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # the run goes on; the failure is counted
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {type(e).__name__}: {e}")
            return None

    def classify(self, table, K, x):
        """classify() timed as one call; counts repeats when tracing."""
        tr = self.tr
        if tr.enabled:
            key = (table.rs.name, K.p, tuple(x))
            tr.add("orbitlab.classify.calls")
            tr.add("orbitlab.classify.repeats", key in self.seen)
            self.seen.add(key)
        with tr.span("orbitlab.classify"):
            t0 = now_ns()
            d = cv.classify(table, K, x)
            dt = now_ns() - t0
        return d, dt

    def act(self, table, K, word, x):
        """g.x for a level-0 word g, through liemod.apply_word."""
        v = cv.LieVector.from_v1(table, K, x)
        with self.tr.span("liemod.apply_word"):
            v = cv.apply_word(table, word, v)
        self.tr.add("liemod.word_factors", len(word))
        return v.v1_part()


def build_table(run: Run, name: str):
    """Root system + verified oracle table; gate: seeds = n_positive - rank."""
    tr = run.tr
    family, rank = cv.parse_system_name(name)
    with tr.span("rootsys.build_root_system", case=name):
        rs = cv.build_root_system(family, rank)
    with tr.span("chevalley.build_table_oracle", case=name):
        table = cv.build_table_oracle(rs)
    check(table.stats["seeds"] == rs.n_positive - rs.rank,
          f"{name}: {table.stats['seeds']} seeds, expected "
          f"{rs.n_positive - rs.rank}")
    return table


def setup_tables(run: Run, names) -> dict:
    tables = {}
    for name in dict.fromkeys(names):
        table = run.op(f"set-up {name}", build_table, run, name)
        if table is not None:
            tables[name] = table
    return tables


def random_word(rng: random.Random, rs, p: int) -> list:
    return [(rs.phi0[rng.randrange(len(rs.phi0))], rng.randrange(1, p))
            for _ in range(WORD_LEN)]


# -- structure -----------------------------------------------------------------


def structure_setup(run: Run, size: dict) -> dict:
    return {"systems": size["structure"]}


def structure_system(run: Run, name: str, jacobi_seed: int) -> None:
    tr = run.tr
    t0 = now()
    family, rank = cv.parse_system_name(name)
    with tr.span("rootsys.build_root_system", case=name):
        rs = cv.build_root_system(family, rank)
    with tr.span("chevalley.build_table_oracle", case=name):
        table = cv.build_table_oracle(rs)
    with tr.span("chevalley.verify_table", case=name):
        counts = cv.verify_table(table)
    with tr.span("chevalley.jacobi_check", case=name):
        jac = cv.jacobi_check(table, seed=jacobi_seed)
    pairs = table.defined_pairs().tolist()
    roots = rs.roots
    memo: dict = {}
    with tr.span("chevalley.structure_constant_fast", case=name):
        fast = [cv.structure_constant_fast(rs, roots[i], roots[j], memo)
                for i, j in pairs]
    run.call_ms.append((now() - t0) * 1e3)

    want = rs.n_positive - rs.rank
    check(table.stats["seeds"] == want and counts["seeds"] == want,
          f"{name}: seeds {table.stats['seeds']}/{counts['seeds']}, "
          f"expected {want}")
    check(counts["defined_pairs"] == len(pairs),
          f"{name}: verify_table checked {counts['defined_pairs']} pairs "
          f"of {len(pairs)}")
    bad = [(i, j) for (i, j), v in zip(pairs, fast) if v != table.nv(i, j)]
    check(not bad, f"{name}: structure_constant_fast disagrees with the "
                   f"table on {len(bad)} pairs, first {bad[:1]}")
    tr.add("chevalley.oracle_rounds", table.stats["rounds"])
    tr.add("chevalley.instances", table.stats["instances"])
    tr.add("chevalley.jacobi_triples", jac["triples"])
    tr.add("chevalley.defined_pairs", len(pairs))


def structure_pass(run: Run, state: dict, rng: random.Random):
    for name in state["systems"]:
        with run.tr.span("bench.system", case=name):
            run.op(name, structure_system, run, name, rng.randrange(2**32))
        run.mark()


# -- census --------------------------------------------------------------------


def census_setup(run: Run, size: dict) -> dict:
    cases = size["census"]
    return {"cases": cases,
            "tables": setup_tables(run, [name for name, _, _ in cases])}


def census_case(run: Run, table, name: str, p: int, expected: int,
                seed: int) -> None:
    tr = run.tr
    case = f"{name}_F{p}"
    t0 = now()
    with tr.span("census.enumerate_orbits", case=case):
        census = cv.enumerate_orbits(table, p)
    with tr.span("census.crosscheck", case=case):
        report = cv.crosscheck(table, p, seed=seed, census=census)
    run.call_ms.append((now() - t0) * 1e3)
    run.info["orbit_counts"][f"{name}/F{p}"] = census.orbit_count

    check(census.total_states == p ** len(table.rs.phi1),
          f"{case}: {census.total_states} states")
    check(census.orbit_count == expected,
          f"{case}: {census.orbit_count} orbits, pinned count is {expected}")
    check(report["orbit_count"] == census.orbit_count,
          f"{case}: crosscheck saw {report['orbit_count']} orbits")
    bad = {k: v for k, v in report["checks"].items() if v != "ok"}
    check(not bad, f"{case}: crosscheck checks not ok: {bad}")
    run.units += census.total_states
    tr.add("census.states", census.total_states)
    tr.add("census.orbits", census.orbit_count)
    tr.add("census.crosscheck.pairs", report["pairs_sampled"])


def census_pass(run: Run, state: dict, rng: random.Random):
    for name, p, expected in state["cases"]:
        with run.tr.span("bench.case", case=f"{name}_F{p}"):
            run.op(f"{name}/F{p}", census_case, run,
                   state["tables"].get(name), name, p, expected,
                   rng.randrange(2**32))
        run.mark()


# -- classify ------------------------------------------------------------------


def classify_setup(run: Run, size: dict) -> dict:
    tables = setup_tables(run, [name for name, _ in size["classify"]])
    cases = []
    for name, p in size["classify"]:
        table = tables.get(name)
        if table is None:
            continue
        with run.tr.span("census.predicted_census", case=f"{name}_F{p}"):
            predicted = frozenset(cv.predicted_census(table, p))
        cases.append((name, table, cv.PrimeField(p), predicted))
    run.info["classify_p50_us"] = {}
    return {"cases": cases, "per_pass": size["classify_pass"],
            "by_case": {name: array("d") for name, *_ in cases}}


def classify_vector(run: Run, table, K, predicted, x, word, lat) -> None:
    d, dt1 = run.classify(table, K, x)
    gx = run.act(table, K, word, x)
    d2, dt2 = run.classify(table, K, gx)
    for dt in (dt1, dt2):
        run.call_ms.append(dt / 1e6)
        lat.append(dt / 1e3)
    check(d2 == d, f"{table.rs.name}/F{K.p}: x={x} is {d}, g.x={gx} is {d2}")
    check(d in predicted,
          f"{table.rs.name}/F{K.p}: {d} is not in predicted_census")


def classify_pass(run: Run, state: dict, rng: random.Random):
    cases = state["cases"]
    if not cases:
        return
    for i in range(state["per_pass"]):
        name, table, K, predicted = cases[i % len(cases)]
        rs, p = table.rs, K.p
        x = tuple(rng.randrange(p) for _ in rs.phi1)
        word = random_word(rng, rs, p)
        with run.tr.span("bench.vector", case=name):
            run.op(f"{name}/F{p} {x}", classify_vector, run, table, K,
                   predicted, x, word, state["by_case"][name])
        run.units += 1
    run.mark()


def classify_finish(run: Run, state: dict) -> None:
    for name, lat in state["by_case"].items():
        if lat:
            run.info["classify_p50_us"][name] = sorted(lat)[len(lat) // 2]


# -- large_p -------------------------------------------------------------------


def large_p_setup(run: Run, size: dict) -> dict:
    names = ["D4"] + [name for name, _ in size["cold_primes"]]
    return {"tables": setup_tables(run, names),
            "predicted_primes": size["predicted_primes"],
            "cold_primes": size["cold_primes"]}


def predicted_prime(run: Run, table, p: int) -> None:
    tr = run.tr
    K = cv.PrimeField(p)
    with tr.span("census.predicted_census", case=f"D4_F{p}"):
        descs = cv.predicted_census(table, p)
    check(len(set(descs)) == len(descs),
          f"D4/F{p}: predicted census has duplicates")
    for d in descs:
        with tr.span("orbitlab.canonical_form"):
            vec = cv.canonical_form(table, K, d)
        check(len(vec) == len(table.rs.phi1), f"D4/F{p}: {d} -> {vec}")
    tr.add("orbitlab.canonical_form.calls", len(descs))
    run.info["predicted_orbits"][f"D4/F{p}"] = len(descs)


def cold_prime(run: Run, table, p: int, x, word) -> None:
    K = cv.PrimeField(p)
    d, dt = run.classify(table, K, x)
    run.call_ms.append(dt / 1e6)
    with run.tr.span("orbitlab.canonical_form"):
        vec = cv.canonical_form(table, K, d)
    run.tr.add("orbitlab.canonical_form.calls")
    back, _ = run.classify(table, K, vec)
    check(back == d, f"{table.rs.name}/F{p}: canonical form of {d} "
                     f"classifies as {back}")
    gx = run.act(table, K, word, x)
    d2, _ = run.classify(table, K, gx)
    check(d2 == d, f"{table.rs.name}/F{p}: x={x} is {d}, g.x={gx} is {d2}")


def large_p_pass(run: Run, state: dict, rng: random.Random):
    tables = state["tables"]
    t0, n_marks = now(), len(run.marks)
    for p in state["predicted_primes"]:
        with run.tr.span("bench.prime", case=f"D4_F{p}"):
            run.op(f"D4/F{p} predicted", predicted_prime, run,
                   tables.get("D4"), p)
        run.mark()
    run.predicted_s.append(
        now() - t0 - sum(c for _, c, _ in run.marks[n_marks:]))
    for name, primes in state["cold_primes"]:
        table = tables.get(name)
        for p in primes:
            if table is None:
                run.op(f"{name}/F{p} cold", check, False, "no table")
                run.mark()
                continue
            x = tuple(rng.randrange(p) for _ in table.rs.phi1)
            word = random_word(rng, table.rs, p)
            with run.tr.span("bench.prime", case=f"{name}_F{p}"):
                run.op(f"{name}/F{p} cold", cold_prime, run, table, p, x,
                       word)
            run.mark()


WORKLOADS = {
    "structure": (structure_setup, structure_pass, None),
    "census": (census_setup, census_pass, None),
    "classify": (classify_setup, classify_pass, classify_finish),
    "large_p": (large_p_setup, large_p_pass, None),
}


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_chevorbit(tr: Tracer) -> None:
    global cv
    with tr.span("cli.import"):
        import chevorbit
        import chevorbit.cli  # noqa: F401  (the command's own import cost)
    cv = chevorbit


def run_workload(workload: str, seed: int, size: dict, trace: bool,
                 passes: int, time_cap_s: float, setup_only: bool,
                 index: int = 0) -> tuple[Run, dict]:
    """Set up, then run ``passes`` passes in this process.

    No pass starts once ``time_cap_s`` seconds have gone by since set-up,
    which only matters if the program has become very much slower.
    """
    tr = Tracer(trace)
    run = Run(tr)
    setup, one_pass, finish = WORKLOADS[workload]
    rng = random.Random(f"chevorbit-bench:{workload}:{seed}:{index}")
    with tr.span("bench.worker", case=workload):
        with tr.span("bench.setup"):
            load_chevorbit(tr)
            state = setup(run, size)
        setup_done = now()
        if not setup_only:
            run.mark()
            while run.passes_done < passes:
                with tr.span("bench.pass"):
                    one_pass(run, state, rng)
                run.passes_done += 1
                if now() - setup_done > time_cap_s:
                    break
            run.pass_s, run.pass_cal_s = run.pass_times()
            if finish:
                finish(run, state)
    run.info["setup_in_process_s"] = setup_done - T_START
    run.info["measure_s"] = now() - setup_done
    return run, state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one chevorbit benchmark process")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--time-cap-s", type=float, default=60.0,
                    help="start no pass after this many seconds")
    ap.add_argument("--index", type=int, default=0,
                    help="worker number within a run; varies the inputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)

    run, _ = run_workload(args.workload, args.seed, SIZES[args.size],
                          bool(args.trace), args.passes, args.time_cap_s,
                          args.setup_only, args.index)
    import numpy
    out = {
        "workload": args.workload,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "pass_s": run.pass_s,
        "pass_cal_s": run.pass_cal_s,
        "cal_s": [c for _, c, _ in run.marks],
        "cal_ref_s": CAL_REF_S,
        "predicted_s": run.predicted_s,
        "call_ms": list(run.call_ms),
        "units": run.units,
        "peak_rss_mb": peak_rss_mb(),
        "wall_s": now() - T_START,
        "info": run.info,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.trace:
        counts = dict(run.tr.counts)
        repeats = counts.pop("orbitlab.classify.repeats", 0)
        if counts.get("orbitlab.classify.calls"):
            counts["orbitlab.classify.repeat_share"] = (
                repeats / counts["orbitlab.classify.calls"])
        by_name, by_case = run.tr.self_times()
        by_name["bench.self"] = sum(
            v for k, v in by_name.items() if k.startswith("bench."))
        out["self_s"] = {**by_name, **by_case}
        out["counts"] = counts
        if args.spans_out is not None:
            args.spans_out.write_text(json.dumps(run.tr.export()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
