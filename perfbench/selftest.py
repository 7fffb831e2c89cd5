"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload untraced, and the traced suite, at smoke size (a few
seconds in all), and checks that:

* every end-to-end and per-layer metric in BENCHMARK.json is emitted, with
  its unit, and nothing else;
* the report names each workload's own metrics with their units, and
  error_rate is 0 on correct code;
* a deliberately wrong expected orbit count makes error_rate > 0.

Prints "selftest ok" and exits 0, or prints the failed check and exits 1.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

REPORTED = {
    "structure": {"verify_s": "s"},
    "census": {"census_states_per_s": "states/s"},
    "classify": {"classify_vectors_per_s": "vectors/s",
                 "classify_p50_us": "us", "classify_p99_us": "us"},
    "large_p": {"predicted_s": "s", "cold_classify_p50_ms": "ms"},
}
REPORTED_ALL = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}")
        raise SystemExit(1)


def smoke(argv: list[str]) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv, size="smoke")
    lines = buf.getvalue().strip().splitlines()
    check(code == 0 and lines, f"{argv} exited {code}")
    return lines[:-1], json.loads(lines[-1])


def check_metrics(result: dict, want: dict, what: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{what}: metrics {sorted(got)} != {sorted(want)}")
    for k, v in result["metrics"].items():
        check(isinstance(v["value"], (int, float)), f"{what}: {k} not a number")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{what}: correct={result['correct']} failed={result['failed']}")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(run.E2E_UNITS == e2e, "run.py and BENCHMARK.json end_to_end differ")
    check(run.per_layer_units() == layers,
          "run.py and BENCHMARK.json per_layer differ")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "run.py and BENCHMARK.json workloads differ")

    for w in run.WORKLOADS:
        report, result = smoke(["--workload", w, "--seed", "1",
                                "--seconds", "1"])
        check_metrics(result, e2e, w)
        for name, unit in {**REPORTED_ALL, **REPORTED[w]}.items():
            line = next((s for s in report if s.startswith(f"# {name} = ")),
                        None)
            check(line is not None and f" {unit} (" in line,
                  f"{w}: report line for {name} [{unit}]: {line}")
        check(any(s.startswith("# error_rate = 0 ratio") for s in report),
              f"{w}: error_rate is not 0")
    _, traced = smoke(["--workload", "census", "--seed", "1", "--seconds",
                       "1", "--trace", "1"])
    check_metrics(traced, layers, "traced run")

    # a wrong pinned count must be caught: A3/F3 has 7 orbits, not 8
    size = {**worker.SIZES["smoke"], "census": (("A3", 3, 8),)}
    tally, _ = worker.run_workload("census", 1, size, trace=False, passes=1,
                                   time_cap_s=60.0, setup_only=False)
    error_rate = tally.failed / tally.attempted
    check(error_rate > 0 and any("pinned count is 8" in f
                                 for f in tally.failures),
          f"wrong orbit count not caught: error_rate={error_rate}")

    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
