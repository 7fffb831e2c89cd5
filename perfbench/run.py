"""The chevorbit benchmark: four workloads, timed from outside the program.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Each measurement runs in a fresh interpreter (perfbench/worker.py) as a
closed loop: one call at a time, the next issued when the previous returns,
with BLAS/OpenMP threads pinned to 1.  Every call goes to a public function
of rootsys, chevalley, liemod, orbitlab, census or cli, and every result is
checked.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
readable report.  Results and spans are also written to ``.perfbench_out/``.

Workloads, and why each exists
------------------------------
structure  Build and verify all 16 systems A1-A8, D4-D8, E6-E8
           (build_root_system, build_table_oracle, verify_table, jacobi_check
           with seeded triples, structure_constant_fast on every defined
           pair).  The only workload where rootsys and chevalley do most of
           the work; elsewhere they appear only in set-up.
census     enumerate_orbits + crosscheck (seeded sampled pairs) on the seven
           pinned cases, 930,071 states: the work of ``orbits --compare``,
           the heaviest command, and the BFS kernels that no other workload
           touches.
classify   A seeded stream of random level-1 vectors, equal numbers from
           D4/F5, D5/F3, D6/F3 and A5/F5: classify(x), g = a random level-0
           word applied with apply_word, classify(g.x), compare.  The scalar
           lift and invariants plus liemod, with no BFS; inputs share little,
           so a gain from caching alone does not show, but cache growth shows
           in peak RSS.
large_p    Predicted census + canonical_form of every descriptor for D4 at
           p = 101..211, then one random vector classified cold at each of 16
           D4/D5 primes >= 1009, checked by a canonical round trip and by
           invariance under a random word.  One pass per fresh process, so
           caches start cold as for a CLI user.  The only workload where the
           norm-coset enumeration in gfield dominates.

End-to-end metrics (--trace 0)
------------------------------
A run does a fixed amount of work, sized from ``--seconds`` by the nominal
pass times below (at least one pass), so two runs of one commit do the same
work and a faster commit simply finishes sooner.  Every workload reports the
same three names:

setup_s      median over fresh processes of spawn -> exit of a set-up-only
             worker: interpreter start, ``import chevorbit`` and the tables
             the workload needs (structure needs none: building them is the
             workload).  Half the probes run before the passes, half after.
peak_rss_mb  highest VmHWM of the measuring processes.
pass_cal_s   median seconds of one pass, rescaled to a reference CPU speed.
             A pass is, for structure, all 16 systems; census, the seven
             cases (930,071 states); classify, 1,000 vectors; large_p, the
             predicted censuses and the 16 cold primes.  On a shared VM the
             host can slow this process by a third or more for minutes at a
             time, which moved raw pass medians by 25-36% (IQR/median) over
             ten seeds.  So the worker times a fixed pure-Python loop
             (worker.calibration_loop) between the items of each pass, and
             scales each stretch of work by the reference loop time over the
             loop times at its two ends (each smoothed as the median of three
             neighbours).  Over ten seeds this brought the spreads to 4-7%,
             against 12-36% raw; census, whose numpy passes follow the loop
             less closely and whose longest case is one 8 s stretch, ranged
             5-13% across three such sets.  The raw pass time is in the
             report as pass_s.

The report lines before the JSON line give the workload's own metrics with
their units and sample counts: verify_s, census_states_per_s,
classify_vectors_per_s, classify_p50_us / classify_p99_us, predicted_s,
cold_classify_p50_ms, per-system and per-case call_p50_ms / call_p99_ms, and
error_rate (failed / attempted operations; an exception or a failed gate
counts as failed), which the JSON line carries as ``attempted`` and
``failed``.  On a shared 2-vCPU VM the latency percentiles over a few short
calls spread 20-38% across seeds, more than the bounds allow, so they are
reported but not compared.

Per-layer metrics (--trace 1)
-----------------------------
The traced run covers every workload, whatever ``--workload`` says, so that
every per-layer metric is measured on the workload that exercises it.  For
each workload it runs one fixed pass untraced and one traced, each in a
fresh process, and reports ``<workload>.<layer>`` self times (span duration
minus child spans), counts, ``<workload>.bench.self_s`` (the harness's own
time, calibration loops included) and ``<workload>.trace_overhead_s``
(traced minus untraced pass time, both at the reference speed; one pass
each, so it can read below zero).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "chevorbit"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("structure", "census", "classify", "large_p")
FRESH_PROCESS_PER_PASS = ("large_p",)  # its caches must start cold
SETUP_PROBES = {"full": 10, "smoke": 2}
TIME_LIMIT_S = 170  # the whole run, set-up probes and workers included

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "pass_cal_s": "s"}

# seconds per pass on a 2-vCPU x86_64 VM, Python 3.11, numpy 2.4; a run
# of --seconds S does max(1, round(S / nominal)) passes
NOMINAL_PASS_S = {"structure": 3.75, "census": 16.0, "classify": 0.33,
                  "large_p": 5.0}
TIME_CAP_FACTOR = 4  # start no pass after 4 S seconds

# per workload: span names reported as self time "<workload>.<span>.s"
LAYER_TIMES = {
    "structure": (
        "rootsys.build_root_system", "chevalley.build_table_oracle",
        "chevalley.build_table_oracle.E8", "chevalley.verify_table",
        "chevalley.jacobi_check", "chevalley.structure_constant_fast",
    ),
    "census": (
        "rootsys.build_root_system", "chevalley.build_table_oracle",
        "census.enumerate_orbits", "census.enumerate_orbits.D4_F5",
        "census.enumerate_orbits.D5_F3", "census.crosscheck",
        "census.crosscheck.D4_F5", "census.crosscheck.D5_F3",
    ),
    "classify": (
        "rootsys.build_root_system", "chevalley.build_table_oracle",
        "census.predicted_census", "liemod.apply_word", "orbitlab.classify",
    ),
    "large_p": (
        "rootsys.build_root_system", "chevalley.build_table_oracle",
        "census.predicted_census", "orbitlab.canonical_form",
        "orbitlab.classify", "liemod.apply_word",
    ),
}

# per workload: counters reported as "<workload>.<counter>"
LAYER_COUNTS = {
    "structure": ("chevalley.oracle_rounds", "chevalley.instances",
                  "chevalley.jacobi_triples", "chevalley.defined_pairs"),
    "census": ("census.states", "census.orbits", "census.crosscheck.pairs"),
    "classify": ("liemod.word_factors", "orbitlab.classify.calls",
                 "orbitlab.classify.repeat_share"),
    "large_p": ("orbitlab.canonical_form.calls", "orbitlab.classify.calls",
                "orbitlab.classify.repeat_share", "liemod.word_factors"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for w in WORKLOADS:
        out[f"{w}.cli.import_s"] = "s"
        for span in LAYER_TIMES[w]:
            out[f"{w}.{span}.s"] = "s"
        for count in LAYER_COUNTS[w]:
            out[f"{w}.{count}"] = ("ratio" if count.endswith("_share")
                                   else "count")
        out[f"{w}.bench.self_s"] = "s"
        out[f"{w}.trace_overhead_s"] = "s"
    return out


class WorkerFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


class Runner:
    """Starts workers one at a time within the run's time limit."""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.t0 = time.monotonic()
        self.env = {**os.environ, **THREAD_ENV}

    def spawn(self, workload: str, *extra: str) -> tuple[dict, float]:
        """Run one worker to completion; returns its result and wall time."""
        left = TIME_LIMIT_S - (time.monotonic() - self.t0)
        if left <= 1:
            raise WorkerFailed("run time limit reached")
        cmd = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(self.seed), "--size", self.size, *extra]
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, text=True,
                                  capture_output=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(
                f"{workload} worker passed the time limit") from None
        wall = time.perf_counter() - t
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise WorkerFailed(
                f"{workload} worker exited with {proc.returncode}: {tail}")
        return json.loads(lines[-1]), wall


def percentile(xs, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), 0.0 if empty."""
    s = sorted(xs)
    if not s:
        return 0.0
    k = (len(s) - 1) * q / 100
    f = int(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def measure(runner: Runner, workload: str, seconds: int) -> dict:
    """The untraced run: the workload's passes between set-up probes.

    Half the set-up probes run before the passes and half after, so that
    their median spans the run rather than one moment of it.
    """
    n_probes = SETUP_PROBES[runner.size]
    probes = [runner.spawn(workload, "--setup-only")[1]
              for _ in range(n_probes // 2)]
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    cap = str(TIME_CAP_FACTOR * seconds)
    if workload in FRESH_PROCESS_PER_PASS:
        workers = []
        t0 = time.perf_counter()
        while (len(workers) < passes
               and time.perf_counter() - t0 < TIME_CAP_FACTOR * seconds):
            workers.append(runner.spawn(
                workload, "--index", str(len(workers)))[0])
    else:
        workers = [runner.spawn(workload, "--passes", str(passes),
                                "--time-cap-s", cap)[0]]
    probes += [runner.spawn(workload, "--setup-only")[1]
               for _ in range(n_probes - len(probes))]

    pass_s = [v for w in workers for v in w["pass_s"]]
    pass_cal = [v for w in workers for v in w["pass_cal_s"]]
    cal = [v for w in workers for v in w["cal_s"]]
    calls = [v for w in workers for v in w["call_ms"]]
    units = sum(w["units"] for w in workers)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    metrics = {
        "setup_s": statistics.median(probes),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "pass_cal_s": statistics.median(pass_cal),
    }
    n = f"{len(pass_s)} passes"
    named = {
        "setup_s": (metrics["setup_s"], "s", f"median of {len(probes)}"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB",
                        f"max of {len(workers)} process(es)"),
        "pass_cal_s": (metrics["pass_cal_s"], "s",
                       f"median of {n}, at the reference speed"),
        "pass_s": (statistics.median(pass_s), "s", f"median of {n}, raw"),
        "calibration_ms": (statistics.median(cal) * 1e3, "ms",
                           f"median of {len(cal)}; reference "
                           f"{workers[0]['cal_ref_s'] * 1e3:g} ms"),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio",
                       f"{failed} of {attempted} operations"),
    }
    if workload == "structure":
        named["verify_s"] = (statistics.median(pass_s), "s",
                             f"median of {n}, raw")
    elif workload == "census":
        named["census_states_per_s"] = (units / sum(pass_s), "states/s",
                                        f"{units} states, {n}")
    elif workload == "classify":
        named["classify_vectors_per_s"] = (units / sum(pass_s), "vectors/s",
                                           f"{units} vectors, {n}")
        named["classify_p50_us"] = (percentile(calls, 50) * 1e3, "us",
                                    f"{len(calls)} calls")
        named["classify_p99_us"] = (percentile(calls, 99) * 1e3, "us",
                                    f"{len(calls)} calls")
    else:
        predicted = [v for w in workers for v in w["predicted_s"]]
        named["predicted_s"] = (statistics.median(predicted), "s",
                                f"median of {n}")
        named["cold_classify_p50_ms"] = (percentile(calls, 50), "ms",
                                         f"{len(calls)} cold calls")
    if workload in ("structure", "census"):
        what = "systems" if workload == "structure" else "cases"
        for q in (50, 99):
            named[f"call_p{q}_ms"] = (percentile(calls, q), "ms",
                                      f"{len(calls)} {what}")
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": [f for w in workers for f in w["failures"]],
        "metrics": metrics,
        "named": named,
        "pass_s": pass_s,
        "pass_cal_s": pass_cal,
        "cal_s": cal,
        "info": [w["info"] for w in workers],
        "versions": {"python": workers[0]["python"],
                     "numpy": workers[0]["numpy"]},
    }


def trace_suite(runner: Runner) -> dict:
    """The traced run: one fixed pass of every workload, plain and traced."""
    metrics = {}
    attempted = failed = 0
    failures = []
    OUT.mkdir(exist_ok=True)
    for w in WORKLOADS:
        plain, _ = runner.spawn(w, "--passes", "1")
        spans = OUT / f"spans-{w}-seed{runner.seed}.json"
        traced, _ = runner.spawn(w, "--passes", "1", "--trace", "1",
                                 "--spans-out", str(spans))
        for r in (plain, traced):
            attempted += r["attempted"]
            failed += r["failed"]
            failures += r["failures"]
        self_s, counts = traced["self_s"], traced["counts"]
        metrics[f"{w}.cli.import_s"] = self_s.get("cli.import", 0.0)
        for span in LAYER_TIMES[w]:
            metrics[f"{w}.{span}.s"] = self_s.get(span, 0.0)
        for count in LAYER_COUNTS[w]:
            metrics[f"{w}.{count}"] = counts.get(count, 0.0)
        metrics[f"{w}.bench.self_s"] = self_s.get("bench.self", 0.0)
        metrics[f"{w}.trace_overhead_s"] = (
            sum(traced["pass_cal_s"]) - sum(plain["pass_cal_s"]))
        versions = {"python": traced["python"], "numpy": traced["numpy"]}
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "versions": versions}


def environment(args, size: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode())
        digest.update(f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "threads": THREAD_ENV,
    }


def main(argv=None, size: str = "full") -> int:
    ap = argparse.ArgumentParser(description="chevorbit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "__init__.py").is_file():
        print(f"chevorbit sources not found at {SRC}", file=sys.stderr)
        return 2

    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    runner = Runner(args.seed, size)
    try:
        if args.trace:
            res = trace_suite(runner)
            units = per_layer_units()
        else:
            res = measure(runner, args.workload, args.seconds)
            units = E2E_UNITS
    except WorkerFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    env = {**environment(args, size), **res.pop("versions")}

    print(f"# chevorbit bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()
                               if k != "threads"))
    print("# threads: " + " ".join(f"{k}={v}"
                                   for k, v in THREAD_ENV.items()))
    for name, (value, unit, note) in res.get("named", {}).items():
        print(f"# {name} = {value:.6g} {unit} ({note})")
    if "info" in res:
        counts = res["info"][0].get("orbit_counts")
        if counts:
            print("# orbit counts: " + " ".join(
                f"{k}={v}" for k, v in counts.items()))
    if args.trace:
        for name, value in res["metrics"].items():
            print(f"# {name} = {value:.6g} {units[name]}")
    for f in res["failures"]:
        print(f"# FAILED {f}")

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, **res}, indent=1,
                                 default=str))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
