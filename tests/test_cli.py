"""Command-line interface tests: every subcommand, every exit code, output
formats, determinism, and file output."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import random
import resource
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import chevorbit
from chevorbit import (
    ClassificationError,
    InconsistentTable,
    MismatchReport,
    build_root_system,
    build_table_oracle,
)
from chevorbit import census as census_mod
from chevorbit import chevalley
from chevorbit import cli as cli_mod
from chevorbit import orbitlab, rootsys
from chevorbit.cli import main
import helpers
from helpers import first_jacobi_failure, negated_pair


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- roots ------------------------------------------------------------------------


def test_roots_text(capsys):
    code, out, _ = run_cli(capsys, "roots", "A2")
    assert code == 0
    assert "A2" in out and "positive" in out.lower()


def test_roots_text_notes_empty_level_one(capsys):
    code, out, _ = run_cli(capsys, "roots", "A1")
    assert code == 0
    assert "(empty)" in out


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "D4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "D" and data["rank"] == 4
    assert len(data["positive_roots"]) == 12
    assert len(data["phi1"]) == 8


def test_roots_csv(capsys):
    code, out, _ = run_cli(capsys, "roots", "A3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    assert set(rows[0]) == {"id", "root", "height", "level"}


def test_roots_unknown_system_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "roots", "B2")
    assert code == 2
    assert err.strip()


# -- constants --------------------------------------------------------------------


def test_constants_report_all_checks(capsys):
    code, out, _ = run_cli(capsys, "constants", "A3")
    assert code == 0
    data = json.loads(out)
    for key in ("n1", "n2p", "n3pp", "n4", "jacobi", "theorem1"):
        assert data["checks"][key]["status"] == "pass", key


def test_constants_single_check(capsys):
    code, out, _ = run_cli(capsys, "constants", "A2", "--check", "theorem1")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["theorem1"]["status"] == "pass"
    assert "n1" not in data["checks"]


def test_constants_d_family_includes_quadruple_products(capsys):
    # D4 adds a second product, with the roles of rho and sigma exchanged
    for system, count in (("D4", 2), ("D5", 1)):
        code, out, _ = run_cli(capsys, "constants", system)
        assert code == 0
        data = json.loads(out)
        assert data["quadruple_sign_products"] == {
            "status": "pass", "products": [1] * count,
        }


def test_constants_csv_is_the_table(capsys):
    code, out, _ = run_cli(capsys, "constants", "A2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert set(rows[0]) == {"alpha", "beta", "value"}
    assert len(rows) == 12  # defined pairs of A2
    assert {r["value"] for r in rows} <= {"-1", "1"}


@pytest.mark.parametrize("system", ["A16", "D16"])
def test_constants_at_rank_sixteen(capsys, system):
    code, out, _ = run_cli(capsys, "constants", system, "--check", "n1")
    assert code == 0
    assert json.loads(out)["checks"]["n1"]["status"] == "pass"


E8_JACOBI_REPORT = """{
  "system": "E8",
  "stats": {
    "roots": 240,
    "defined_pairs": 13440,
    "pair_orbits": 1120,
    "instances": 362880,
    "seeds": 112,
    "rounds": 5
  },
  "checks": {
    "jacobi": {
      "status": "pass",
      "mode": "sampled",
      "triples": 100000
    }
  }
}
"""


@pytest.mark.parametrize("seed", [-5, 10**30])
def test_constants_jacobi_accepts_any_integer_seed(capsys, seed):
    code, out, _ = run_cli(capsys, "constants", "E8", "--check", "jacobi",
                           "--seed", str(seed))
    assert code == 0
    assert out == E8_JACOBI_REPORT


def test_constants_failure_exits_one(capsys, monkeypatch):
    def broken(table):
        raise InconsistentTable("synthetic corruption")

    monkeypatch.setattr(cli_mod, "verify_table", broken)
    code, _, err = run_cli(capsys, "constants", "A2")
    assert code == 1
    assert "corruption" in err or "Inconsistent" in err


@pytest.mark.parametrize("system, mode", [("D4", "exhaustive"),
                                          ("D7", "sampled")])
def test_constants_names_the_first_triple_that_fails_jacobi(capsys,
                                                           monkeypatch,
                                                           system, mode):
    # the table with a negated antisymmetric pair: the Jacobi branch of
    # constants reports "fail" and names, on stderr, the triple the scalar
    # reference meets first, in the check's own order of triples
    bad, _, _ = negated_pair(system)
    monkeypatch.setattr(cli_mod, "build_table_oracle", lambda rs: bad)
    m = bad.n_basis
    if mode == "exhaustive":
        triples = itertools.combinations(range(m), 3)
    else:
        triples = (tuple(map(int, k)) for chunk in
                   chevalley._sampled_triples(m, 10**5, 1729)
                   for k in zip(*chunk))
    want = first_jacobi_failure(bad, triples)
    code, out, err = run_cli(capsys, "constants", system, "--check", "jacobi")
    assert (code, out) == (1, "")
    first, report = err.split("\n", 1)
    assert first == f"verification failed: {want}"
    assert "Traceback" not in err
    assert json.loads(report)["checks"] == {"jacobi": {"status": "fail"}}


def test_constants_names_a_closed_form_that_disagrees(capsys, monkeypatch):
    # the closed form with the row of a non-simple positive root negated,
    # a row the peel fills, not the sign rule
    real = cli_mod.closed_form_table

    def flipped(rs):
        nt = real(rs)
        a = next(r for r in rs.positive_roots if sum(r) == 2)
        nt[rs.root_id(a)] *= -1
        return nt

    monkeypatch.setattr(cli_mod, "closed_form_table", flipped)
    code, out, err = run_cli(capsys, "constants", "D4")
    assert code == 1 and out == ""
    t = build_table_oracle(build_root_system("D", 4))
    closed = flipped(t.rs)
    i, j = next((i, j) for i, j in t.defined_pairs().tolist()
                if closed[i, j] != t.nv(i, j))
    first, report = err.split("\n", 1)
    assert first == (f"verification failed: D4: peeled closed form disagrees "
                     f"with the table at ({t.rs.roots[i]}, {t.rs.roots[j]})")
    assert [k for k, c in json.loads(report)["checks"].items()
            if c["status"] == "fail"] == ["theorem1"]


def test_an_internal_error_exits_one_without_a_traceback(capsys, monkeypatch):
    # a sum table that marks 2a as a root breaks an internal invariant,
    # checked where the root ids are built, inside constants
    real = rootsys._sum_ids

    def marks_doubles(coeffs, defined):
        return real(coeffs, defined | np.eye(len(defined), dtype=bool))

    monkeypatch.setattr(rootsys, "_sum_ids", marks_doubles)
    code, out, err = run_cli(capsys, "constants", "D4")
    assert (code, out) == (1, "")
    assert err == ("verification failed: a pair marked as summing to a root "
                   "does not\n")


def _constants_report_main():
    path = Path(__file__).parents[1] / "scripts" / "constants_report.py"
    return runpy.run_path(str(path), run_name="constants_report")["main"]


@pytest.mark.parametrize("systems, code, prefix", [
    (["Q7"], 2, "invalid input"),
    (["A40"], 4, "budget exceeded"),  # 1640 roots
    (["A2", "D4", "Q7"], 2, "invalid input"),
    (["A2", "A40"], 4, "budget exceeded"),
])
def test_constants_report_script_refuses_a_name_before_building_a_table(
        monkeypatch, capsys, systems, code, prefix):
    def fail(*args):
        raise AssertionError("built a table")

    # the script imports these from the package when it runs
    monkeypatch.setattr(chevorbit, "build_root_system", fail)
    monkeypatch.setattr(chevorbit, "build_table_oracle", fail)
    assert _constants_report_main()(["--systems", *systems]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{prefix}: ") and err.count("\n") == 1


def test_constants_report_script_reports_a_closed_form_mismatch(
        monkeypatch, capsys):
    # a closed form of zeros agrees with A1's table, which has no defined
    # pair, and not with A2's
    monkeypatch.setattr(chevalley, "closed_form_table",
                        lambda rs: np.zeros((len(rs.roots),) * 2, np.int8))
    assert _constants_report_main()(["--systems", "A1", "A2"]) == 1
    out, err = capsys.readouterr()
    assert [line.split()[6] for line in out.splitlines()[2:]] == ["agree",
                                                                 "MISMATCH"]
    assert err == ("verification failed: the closed form disagrees with the "
                   "table of A2\n")


def test_mismatch_details_reach_stderr(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise MismatchReport("synthetic", {"state": [1, 2]})

    monkeypatch.setattr(cli_mod, "crosscheck", broken)
    code, out, err = run_cli(capsys, "orbits", "A3", "-p", "3", "--compare")
    assert code == 1
    assert out == ""
    assert "synthetic" in err
    assert "state" in err


def test_a_sampled_code_that_names_no_orbit_reaches_stderr(capsys,
                                                           monkeypatch):
    helpers.shift_top_digit_codes(monkeypatch)
    code, out, err = run_cli(capsys, "orbits", "D4", "-p", "5", "--compare")
    assert code == 1 and out == ""
    reason, details = err.splitlines()
    assert reason == ("verification failed: a sampled state's invariant "
                      "code names no orbit")
    assert set(json.loads(details)) == {"state", "code"}


def test_classification_error_exits_one(capsys, monkeypatch):
    def inconsistent(*args):
        raise ClassificationError("invariant code 7 matches nothing")

    monkeypatch.setattr(cli_mod, "classify", inconsistent)
    code, out, err = run_cli(capsys, "classify", "D4", "-p", "3",
                             "--vector", "1,0,0,0,0,0,0,0")
    assert code == 1
    assert out == ""
    assert "verification failed: invariant code 7" in err


@pytest.mark.parametrize("mode", ["compare", "predicted", "classify"])
def test_a_descriptor_that_names_no_orbit_exits_one(capsys, monkeypatch,
                                                     mode):
    # A3's IIa canonical vector broken to zeros: the classifier's own
    # descriptor fails canonical_form's round trip, an internal
    # inconsistency rather than bad input
    K = chevorbit.PrimeField(3)
    table = chevorbit.build_table_oracle(chevorbit.build_root_system("A", 3))
    iia = next(d for d in chevorbit.all_descriptors(table, K)
               if d.label == "IIa")
    vector = ",".join(map(str, chevorbit.canonical_form(table, K, iia)))
    real = orbitlab._Classifier.canonical_vector

    def broken(self, d):
        vec = real(self, d)
        return (0,) * len(vec) if d == iia else vec

    monkeypatch.setattr(orbitlab._Classifier, "canonical_vector", broken)
    argv = {"compare": ["orbits", "A3", "-p", "3", "--compare"],
            "predicted": ["orbits", "A3", "-p", "3"],
            "classify": ["classify", "A3", "-p", "3", "--vector", vector]}
    code, out, err = run_cli(capsys, *argv[mode])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    if mode == "compare":
        assert lines[0] == ("verification failed: canonical form lies in a "
                            "different orbit")
        details = json.loads(lines[1])
        assert set(details) == {"descriptor", "canonical",
                                "expected_representative"}
        assert details["canonical"] == [0, 0, 0, 0]
    else:
        assert lines == [lines[0]]
        assert lines[0].startswith("verification failed: IIa with params {} "
                                   "does not name an orbit")


# -- classify ---------------------------------------------------------------------


def test_classify_pinned_example_d4(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "D4", "-p", "3", "--vector", "1,0,0,0,2,0,0,0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["descriptor"]["label"] == "IIIa"
    assert data["descriptor"]["params"] == {"rho_class": "2"}
    assert len(data["canonical_representative"]) == 8


def test_classify_pinned_example_a3(capsys):
    code, out, _ = run_cli(capsys, "classify", "A3", "-p", "5", "--vector", "0,1,2,0")
    assert code == 0
    data = json.loads(out)
    assert data["descriptor"]["label"] == "VI"
    assert data["descriptor"]["params"] == {"c": 2}


def test_classify_vector_from_file(capsys, tmp_path):
    f = tmp_path / "vec.txt"
    f.write_text("0, 1, 2, 0\n")
    code, out, _ = run_cli(capsys, "classify", "A3", "-p", "5", "--vector", f"@{f}")
    assert code == 0
    assert json.loads(out)["descriptor"]["label"] == "VI"


def test_classify_missing_file_is_a_parse_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "classify", "A3", "-p", "5", "--vector", f"@{tmp_path}/absent.txt"
    )
    assert code == 2


@pytest.mark.parametrize(
    "vector",
    ["0,1,2", "0,1,2,0,0", "0,1,7,0", "0,1,-1,0", "a,b,c,d"],
)
def test_classify_malformed_vectors_exit_two(capsys, vector):
    code, _, err = run_cli(capsys, "classify", "A3", "-p", "5", "--vector", vector)
    assert code == 2, vector
    assert err.strip()


def test_classify_char_two_unsupported(capsys):
    code, _, _ = run_cli(capsys, "classify", "A3", "-p", "2", "--vector", "0,1,1,0")
    assert code == 3


def test_classify_e_family_unsupported(capsys):
    vec = ",".join(["0"] * 20)
    code, _, _ = run_cli(capsys, "classify", "E6", "-p", "3", "--vector", vec)
    assert code == 3


def test_classify_non_prime_modulus(capsys):
    code, _, _ = run_cli(capsys, "classify", "A3", "-p", "9", "--vector", "0,1,2,0")
    assert code == 2


@pytest.mark.parametrize("system", ["A1", "A4", "A8", "D4", "D6", "D8"])
def test_classify_accepts_the_level_one_length(capsys, system):
    rs = chevorbit.build_root_system(system[0], int(system[1:]))
    vec = ",".join(["1"] * len(rs.phi1))
    code, _, _ = run_cli(capsys, "classify", system, "-p", "3", "--vector", vec)
    assert code == 0


def test_classify_checks_length_before_building_the_table(capsys, monkeypatch,
                                                          tmp_path):
    def never(rs):
        raise AssertionError("the table must not be built")

    monkeypatch.setattr(cli_mod, "build_table_oracle", never)
    code, out, err = run_cli(capsys, "classify", "D16", "-p", "1009",
                             "--vector", "1")
    assert code == 2 and out == ""
    assert "needs 56 coefficients, got 1" in err
    f = tmp_path / "batch.txt"
    f.write_text("1,2,3,4\n0,0,0,0\n\n1,2,3\n")
    code, out, err = run_cli(capsys, "classify", "A3", "-p", "5",
                             "--batch", f"@{f}")
    assert code == 2 and out == ""
    assert "line 4" in err and "needs 4 coefficients, got 3" in err
    # the family is still checked first: E stays unsupported, whatever
    # the length
    code, _, _ = run_cli(capsys, "classify", "E6", "-p", "3", "--vector", "1")
    assert code == 3


@pytest.mark.parametrize("system,p", [
    ("D4", 5), ("A3", 5), ("D5", 1009),
    # D4's lane code wrapped from 1,321,213 on; past the int64 bound, and
    # past 2**63 and 2**64, batches run the scalar code
    ("D4", 1321213), ("D4", 1000000007),
    ("A3", 9223372036854775837), ("A3", 18446744073709551629),
])
def test_classify_batch_lines_match_single_vector_output(capsys, tmp_path,
                                                         system, p):
    rs = chevorbit.build_root_system(system[0], int(system[1:]))
    rng = random.Random(p)
    vectors = [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in rs.phi1]
               for _ in range(39)] + [[p - 1] * len(rs.phi1)]
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(",".join(map(str, x)) for x in vectors[:20])
                 + "\n\n  \n"
                 + "\n".join(" ".join(map(str, x)) for x in vectors[20:]))
    code, out, _ = run_cli(capsys, "classify", system, "-p", str(p),
                           "--batch", f"@{f}")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(vectors)
    for x, line in zip(vectors, lines):
        code, single, _ = run_cli(capsys, "classify", system, "-p", str(p),
                                  "--vector", ",".join(map(str, x)))
        assert code == 0
        assert json.loads(line) == json.loads(single)
        assert line == json.dumps(json.loads(single), separators=(",", ":"))


@pytest.mark.parametrize("content,fragment", [
    ("0,1,2,0\n\n0,1,x,0\n", "line 3: vector entry 'x'"),
    ("0,1,2,0\n0,1,5,0\n", "line 2: vector entry 5 is out of range"),
    ("@vec.txt\n", "line 1: vector entry '@vec.txt'"),
])
def test_classify_batch_malformed_line_exits_two(capsys, tmp_path, content,
                                                 fragment):
    f = tmp_path / "batch.txt"
    f.write_text(content)
    code, out, err = run_cli(capsys, "classify", "A3", "-p", "5",
                             "--batch", f"@{f}")
    assert code == 2 and out == ""
    assert fragment in err


def test_classify_batch_usage(capsys, tmp_path):
    f = tmp_path / "batch.txt"
    f.write_text("0,1,2,0\n")
    # the file must be named as @FILE
    code, _, _ = run_cli(capsys, "classify", "A3", "-p", "5", "--batch", str(f))
    assert code == 2
    assert run_cli(capsys, "classify", "A3", "-p", "5", "--batch", f"@{f}",
                   "--vector", "0,1,2,0")[0] == 2
    f.write_text("\n\n")
    assert run_cli(capsys, "classify", "A3", "-p", "5",
                   "--batch", f"@{f}") == (0, "", "")


# -- orbits -----------------------------------------------------------------------


def test_orbits_predicted_census_json(capsys):
    code, out, _ = run_cli(capsys, "orbits", "A3", "-p", "3")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 7
    labels = [o["descriptor"]["label"] for o in data["orbits"]]
    assert labels[0] == "I"


@pytest.mark.parametrize("system", ["D4", "A2"])
def test_orbits_predicted_csv_matches_the_json(capsys, system):
    code, out, _ = run_cli(capsys, "orbits", system, "-p", "3")
    assert code == 0
    entries = json.loads(out)["orbits"]
    code, out, _ = run_cli(capsys, "orbits", system, "-p", "3",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["label"], r["params"], r["size"], r["representative"])
            for r in rows] == [
        (e["descriptor"]["label"],
         ";".join(f"{k}={v}"
                  for k, v in sorted(e["descriptor"]["params"].items())),
         "", " ".join(map(str, e["representative"])))
        for e in entries
    ]


def test_orbits_brute_force_matches_predicted_count(capsys):
    code, out, _ = run_cli(capsys, "orbits", "D4", "-p", "3", "--brute-force")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 14
    assert data["states"] == 3**8
    assert sum(o["size"] for o in data["orbits"]) == 3**8


def test_orbits_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "orbits", "A3", "-p", "5", "--brute-force", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    assert list(rows[0]) == ["label", "params", "size", "representative"]
    assert sum(int(r["size"]) for r in rows) == 5**4


def test_orbits_compare_reports_ok(capsys):
    code, out, _ = run_cli(capsys, "orbits", "A3", "-p", "3", "--compare")
    assert code == 0
    data = json.loads(out)
    assert all(v == "ok" for v in data["checks"].values())


def test_orbits_budget_exhaustion_exits_four(capsys):
    code, _, err = run_cli(
        capsys, "orbits", "D4", "-p", "5", "--brute-force", "--budget", "100"
    )
    assert code == 4


@pytest.mark.parametrize("argv,want", [
    (("D22", "-p", "3", "--brute-force"), 4),
    (("A31", "-p", "1009", "--compare"), 4),
    (("D6", "-p", "101", "--brute-force", "--budget", str(10**40)), 4),
    (("D4", "-p", "3", "--brute-force", "--budget", "0"), 2),
    (("D4", "-p", "3", "--budget", "0"), 2),
    (("D4", "-p", "3", "--budget", "-5"), 2),
])
def test_orbits_budget_is_checked_before_building_the_table(capsys,
                                                            monkeypatch,
                                                            argv, want):
    def never(rs):
        raise AssertionError("the table must not be built")

    monkeypatch.setattr(cli_mod, "build_table_oracle", never)
    code, out, err = run_cli(capsys, "orbits", *argv)
    assert code == want
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("system,budget,reason", [
    ("D4", "100000000000000000000", "physical memory"),  # 101**8 states
    ("D6", str(10**40), "64-bit"),                       # 101**16 states
])
def test_orbits_unallocatable_census_exits_four(capsys, monkeypatch, system,
                                                budget, reason):
    def never(*args):
        raise AssertionError("neither the table nor the orbit kernel is built")

    monkeypatch.setattr(census_mod, "_orbit_partition", never)
    monkeypatch.setattr(cli_mod, "build_table_oracle", never)
    code, out, err = run_cli(
        capsys, "orbits", system, "-p", "101", "--brute-force",
        "--budget", budget,
    )
    assert code == 4
    assert out == ""
    assert "budget exceeded" in err and reason in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_predicted_census_past_physical_memory_exits_four(capsys,
                                                          monkeypatch, fmt):
    def never(*args):
        raise AssertionError("no descriptor is listed")

    # with 1 MB of memory: 10,201 orbits of A2 over F_101 do not fit, the
    # 9 orbits over F_3 do
    monkeypatch.setattr(census_mod, "_physical_memory", lambda: 2**20)
    assert run_cli(capsys, "orbits", "A2", "-p", "3", "--format", fmt)[0] == 0
    monkeypatch.setattr(census_mod, "all_descriptors", never)
    code, out, err = run_cli(capsys, "orbits", "A2", "-p", "101",
                             "--format", fmt)
    assert code == 4 and out == ""
    assert err.startswith("budget exceeded: listing the 10201 orbits of A2 "
                          "over F_101 needs about ")
    assert err.endswith(f"more than the {2**20} bytes of physical memory\n")
    # p + 11 orbits: terabytes on any machine, refused at once
    monkeypatch.undo()
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "orbits", "D4", "-p", "1000000007",
                             "--format", fmt)
    assert time.perf_counter() - t0 < 1.0
    assert code == 4 and out == ""
    assert "listing the 1000000018 orbits of D4" in err


def test_census_past_the_process_memory_limit_exits_four_before_enumerating():
    # a child that sets its own RLIMIT_AS of 400 MB: D5/F5 is within the
    # state budget, but its partition index (5**12 int32 states, 931 MiB)
    # is not within the limit, so it is refused before any allocation
    # instead of at numpy's "Unable to allocate"
    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, hard))

    src = str(Path(chevorbit.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "chevorbit", "orbits", "D5", "-p", "5",
         "--compare", "--budget", "300000000"],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith(
        "budget exceeded: enumerating D5 over F_5 needs about 989145412 "
        "bytes, more than the ")
    assert proc.stderr.endswith(" bytes left under this process's memory "
                                "limit\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="what a process maps is read from /proc")
def test_census_past_what_the_memory_limit_leaves_exits_four_at_once():
    # under the same 400 MB limit, A3/F97's partition (88,529,281 int32
    # states, priced at 366,700,036 bytes) is below the limit but not below
    # what the interpreter, numpy and chevorbit leave of it: refused before
    # any allocation, not at numpy's "Unable to allocate" once work started
    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, hard))

    src = str(Path(chevorbit.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "chevorbit", "orbits", "A3", "-p", "97",
         "--brute-force", "--format", "csv", "--budget", "100000000"],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith(
        "budget exceeded: enumerating A3 over F_97 needs about 366700036 "
        "bytes, more than the ")
    assert proc.stderr.endswith(" bytes left under this process's memory "
                                "limit\n")
    assert "Unable to allocate" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="what a process maps is read from /proc")
def test_memory_left_subtracts_what_each_limit_counts(monkeypatch):
    # RLIMIT_AS counts every mapped byte, RLIMIT_DATA the data bytes alone,
    # which are fewer; without a finite limit nothing is read
    unset = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    limits = {resource.RLIMIT_AS: unset, resource.RLIMIT_DATA: unset}
    monkeypatch.setattr(resource, "getrlimit", limits.__getitem__)
    assert census_mod._memory_left() is None
    limits[resource.RLIMIT_DATA] = (2**40, resource.RLIM_INFINITY)
    data = 2**40 - census_mod._memory_left()
    limits[resource.RLIMIT_AS] = (2**40, resource.RLIM_INFINITY)
    mapped = 2**40 - census_mod._memory_left()
    assert 0 < data < mapped < 2**40


def test_memory_limit_reads_the_least_finite_soft_limit(monkeypatch):
    # where /proc/self/statm cannot be read, the process counts as holding
    # nothing, and what a limit leaves is the whole limit
    def unreadable(*args, **kwargs):
        raise OSError("no statm")

    monkeypatch.setattr(census_mod, "open", unreadable, raising=False)
    unset = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    limits = {resource.RLIMIT_AS: unset,
              resource.RLIMIT_DATA: (5 * 2**30, resource.RLIM_INFINITY)}
    monkeypatch.setattr(resource, "getrlimit", limits.__getitem__)
    assert census_mod._memory_left() == 5 * 2**30
    limits[resource.RLIMIT_AS] = (3 * 2**30, 6 * 2**30)
    assert census_mod._memory_left() == 3 * 2**30
    limits[resource.RLIMIT_DATA] = limits[resource.RLIMIT_AS] = unset
    assert census_mod._memory_left() is None
    monkeypatch.setattr(census_mod, "_physical_memory", lambda: None)
    assert census_mod.check_budget(build_root_system("D", 5), 5,
                                   300_000_000) == 5**12


def test_orbits_memory_error_exits_four(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli_mod, "enumerate_orbits", exhausted)
    code, out, err = run_cli(capsys, "orbits", "A3", "-p", "3",
                             "--brute-force")
    assert code == 4
    assert out == ""


def test_memory_error_without_a_message_still_gives_a_reason(capsys,
                                                            monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "predicted_census", exhausted)
    code, out, err = run_cli(capsys, "orbits", "A3", "-p", "3")
    assert code == 4
    assert out == ""
    assert err == "budget exceeded: out of memory\n"


@pytest.mark.parametrize("p", [10**16 + 61, 2**64 + 13])
def test_predicted_census_past_2_62_orbits_exits_four(capsys, p):
    # A2 has p**2 orbits; the count is refused before any is listed
    code, out, err = run_cli(capsys, "orbits", "A2", "-p", str(p))
    assert code == 4
    assert out == ""
    assert err == (f"budget exceeded: A2 over F_{p} has {p * p} orbits, "
                   f"too many to list\n")


@pytest.mark.parametrize("argv", [
    ("classify", "A2", "-p", "3317044064679887385961981", "--vector", "1,1"),
    ("orbits", "D4", "-p", str(2**89 - 1)),
])
def test_modulus_past_the_exact_primality_range_exits_four(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "largest supported modulus" in err


def test_classify_at_a_17_digit_prime_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "classify", "A2", "-p",
                           "10000000000000061", "--vector", "1,1")
    assert code == 0 and json.loads(out)["descriptor"]
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_orbits_nonpositive_budget_exits_two(capsys, budget):
    code, out, err = run_cli(
        capsys, "orbits", "D4", "-p", "3", "--brute-force", "--budget", budget
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_predicted_orbits_apply_no_state_budget(capsys):
    # 5**8 states, far above a budget of 1, but nothing is enumerated
    code, out, _ = run_cli(capsys, "orbits", "D4", "-p", "5", "--budget", "1")
    assert code == 0
    assert out == run_cli(capsys, "orbits", "D4", "-p", "5")[1]


def test_orbits_zero_budget_from_environment_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("CHEVORBIT_BUDGET", "0")
    code, out, err = run_cli(capsys, "orbits", "D4", "-p", "3", "--brute-force")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_orbits_budget_variable_that_is_no_integer_names_it(capsys,
                                                           monkeypatch):
    monkeypatch.setenv("CHEVORBIT_BUDGET", "1e7")
    code, out, err = run_cli(capsys, "orbits", "D4", "-p", "3", "--brute-force")
    assert (code, out) == (2, "")
    assert err == ("invalid input: CHEVORBIT_BUDGET must be an integer, "
                   "got '1e7'\n")


def test_orbits_char_two_unsupported(capsys):
    code, _, _ = run_cli(capsys, "orbits", "A3", "-p", "2")
    assert code == 3


@pytest.mark.parametrize("system", ["E6", "E7", "E8"])
@pytest.mark.parametrize("mode", [(), ("--brute-force",), ("--compare",),
                                  ("--format", "csv")],
                         ids=["predicted", "brute-force", "compare", "csv"])
def test_orbits_e_family_unsupported_before_building_the_table(
        capsys, monkeypatch, system, mode):
    def never(rs):
        raise AssertionError("the table must not be built")

    monkeypatch.setattr(cli_mod, "build_table_oracle", never)
    code, out, err = run_cli(capsys, "orbits", system, "-p", "3", *mode)
    assert code == 3 and out == ""
    assert err.startswith("unsupported: ")


# -- generic behaviour -------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "classify", "A3")[0] == 2  # missing required flags
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ("roots", "A100000"),
    ("constants", "D1000000"),
    ("orbits", "A32", "-p", "3"),
    ("classify", "D23", "-p", "3", "--vector", "1"),
])
def test_oversized_systems_exit_four_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 4 and out == ""
    assert "more than the limit of 1000" in err


def test_keyboard_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "cmd_roots", interrupted)
    code, out, err = run_cli(capsys, "roots", "A2")
    assert code == 130 and out == ""
    assert err == "interrupted\n"


def test_output_is_byte_deterministic(capsys):
    args = ("orbits", "D4", "-p", "3", "--brute-force")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag_writes_the_same_content(capsys, tmp_path):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(
        capsys, "roots", "A2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert json.loads(text) == json.loads(out) if out.strip() else True
    assert text.endswith("\n")


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_out_to_an_unwritable_path_exits_two(capsys, tmp_path, target):
    # a file inside a missing directory, and a directory
    code, out, err = run_cli(capsys, "orbits", "D4", "-p", "3",
                             "--out", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith("i/o error: ")
    assert [f.name for f in tmp_path.iterdir()] == []


def test_module_entry_point_runs():
    # run from the directory holding the package, so that an uninstalled
    # checkout finds it too
    proc = subprocess.run(
        [sys.executable, "-m", "chevorbit", "roots", "A2", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=Path(chevorbit.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 2


# -- fuzzing ----------------------------------------------------------------------

# fixed-width encodings fail first at the largest rank, so rank 16 gets
# extra weight; ranks past the root-count limit must be refused at once
_SYSTEMS = st.one_of(
    st.sampled_from(["", "X3", "A0", "D3", "E9", "a3"]),
    st.builds("{}{}".format, st.sampled_from("ADE"),
              st.integers(1, 16) | st.just(16) | st.integers(17, 10**6)),
)
_PRIMES = st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 9, 1009, 1321213,
                           18446744073709551629])
_VECTORS = st.one_of(
    st.lists(st.integers(-2, 1010), max_size=30).map(
        lambda xs: ",".join(map(str, xs))),
    st.text(max_size=30),
).filter(lambda t: not t.startswith("@"))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["roots", "constants", "classify", "orbits"]))
    system = draw(_SYSTEMS)
    if cmd == "roots":
        fmt = draw(st.sampled_from(["text", "json", "csv"]))
        return ["roots", system, "--format", fmt]
    if cmd == "constants":
        check = draw(st.sampled_from(cli_mod.CHECK_NAMES + ("all",)))
        return ["constants", system, "--check", check]
    p = str(draw(_PRIMES))
    if cmd == "classify":
        # half of the examples on small classifiable systems, whose vectors
        # reach the classifier, and at the primes past its lane bounds
        system = draw(st.sampled_from(["A2", "A3", "D4", "D5"]) | _SYSTEMS)
        p = str(draw(st.sampled_from([1321213, 18446744073709551629])
                     | _PRIMES))
        if draw(st.booleans()):
            return ["classify", system, "-p", p, f"--vector={draw(_VECTORS)}"]
        # the lines of a --batch file, written for the example; of the
        # system's |phi1| entries where that is small, so most lines parse
        try:
            family, rank = chevorbit.parse_system_name(system)
            m = 2 * chevorbit.root_count(family, rank) // rank - 4
        except ValueError:
            m = 99
        line = (_VECTORS if m > 30 else st.lists(
            st.integers(-2, 1010), min_size=m, max_size=m).map(
                lambda xs: ",".join(map(str, xs))))
        lines = draw(st.lists(line, max_size=4))
        return ["classify", system, "-p", p, "--batch", "\n".join(lines)]
    argv = ["orbits", system, "-p", p,
            "--format", draw(st.sampled_from(["json", "csv"]))]
    mode = draw(st.sampled_from([None, "--brute-force", "--compare"]))
    if mode is not None:
        # at most 1,000 states are ever enumerated
        argv += [mode, "--budget", str(draw(st.sampled_from([-5, 0, 1, 1000])))]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_fuzz_ends_in_a_documented_exit_code(argv):
    # the predicted census of A2 lists p**2 orbits: a million lines at
    # p = 1009, correct but too slow for a fuzz example
    assume(argv[:2] != ["orbits", "A2"] or "1009" not in argv
           or "--budget" in argv)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if "--batch" in argv:
            path = Path(tmp, "batch.txt")
            path.write_text(argv[-1], encoding="utf-8")
            argv = argv[:-1] + [f"@{path}"]
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
    if argv[1][:1] in "AD" and argv[1][1:].isdigit() and int(argv[1][1:]) > 31:
        assert code == 4, argv


def test_pinned_outputs_file_lists_the_pinned_invocations():
    # scripts/pinned_outputs.txt is the script's output, checked in: a change
    # to the list of invocations must come with the file it prints
    scripts = Path(__file__).parents[1] / "scripts"
    script = runpy.run_path(str(scripts / "pinned_outputs.py"),
                            run_name="pinned_outputs")
    batches = {case: "@FILE" for case in script["BATCHES"]}
    want = [" ".join(argv) for argv in script["invocations"](batches)]
    lines = (scripts / "pinned_outputs.txt").read_text(
        encoding="utf-8").splitlines()
    rows = [line.split(" ", 2) for line in lines]
    assert all(len(digest) == 64 for digest, _, _ in rows)
    assert [argv for _, _, argv in rows] == want


def _rerun_pinned(select, tmp_path) -> int:
    """Rerun in-process the pinned invocations for which select(argv) is
    true; each must print the stdout, by sha256, and exit with the code
    that scripts/pinned_outputs.txt records.  The batch files are written
    into tmp_path by the script's own write_batch, as its main does.
    Returns how many ran."""
    scripts = Path(__file__).parents[1] / "scripts"
    script = runpy.run_path(str(scripts / "pinned_outputs.py"),
                            run_name="pinned_outputs")
    pinned = {}
    for line in (scripts / "pinned_outputs.txt").read_text(
            encoding="utf-8").splitlines():
        digest, code, argv = line.split(" ", 2)
        pinned[argv] = (digest, code)
    batches = {}
    for system, p in script["BATCHES"]:
        path = tmp_path / f"{system}_{p}.txt"
        script["write_batch"](path, system, p)
        batches[system, p] = f"@{path}"
    specs = set(batches.values())
    chosen = [argv for argv in script["invocations"](batches) if select(argv)]
    for argv in chosen:
        digest, code = script["run"](argv)
        shown = " ".join("@FILE" if a in specs else a for a in argv)
        assert (digest, str(code)) == pinned[shown], argv
    return len(chosen)


def test_predicted_orbits_invocations_keep_their_pinned_digests(tmp_path):
    # the catalogue path: every pinned `orbits` invocation that lists the
    # predicted census (neither --compare nor --brute-force)
    assert _rerun_pinned(lambda argv: argv[0] == "orbits" and not
                         {"--compare", "--brute-force"} & set(argv),
                         tmp_path) == 16


def test_census_invocations_keep_their_pinned_digests(tmp_path):
    # the partition's path: every pinned invocation that enumerates the
    # orbits (--brute-force) or checks them against the classifier
    # (--compare), so a changed representative, size or report shows here
    assert _rerun_pinned(lambda argv: bool(
        {"--compare", "--brute-force"} & set(argv)), tmp_path) == 35


def test_constants_invocations_keep_their_pinned_digests(tmp_path):
    # the structure path: every pinned `constants` invocation, the 16
    # systems in JSON and CSV and the largest systems' single checks, so
    # any change to a constant, a count or a check's report shows here
    assert _rerun_pinned(lambda argv: argv[0] == "constants", tmp_path) == 40


def test_classify_and_roots_invocations_keep_their_pinned_digests(tmp_path):
    # the root tables and the catalogue: every pinned `roots` dump and every
    # `classify`, which prints the canonical representative of each orbit
    # it names, its batches read from the script's own seeded files, and
    # its refusals; with the three tests above, all pinned invocations
    assert _rerun_pinned(lambda argv: argv[0] in ("classify", "roots"),
                         tmp_path) == 42


def test_reached_script_records_one_classify_invocation(capsys):
    # scripts/reached.py's recorder, on one classify invocation: the
    # command and the classifier are called, the predicted census is not
    path = Path(__file__).parents[1] / "scripts" / "reached.py"
    script = runpy.run_path(str(path), run_name="reached")
    defs = script["functions"]()
    calls = script["record"](lambda: main(
        ["classify", "D4", "-p", "5", "--vector", "1,0,0,0,2,0,0,0"]))
    assert capsys.readouterr().out.startswith("{")
    names = {defs[key][0] for _, key in calls if key in defs}
    assert {"cli.cmd_classify", "orbitlab.classify"} <= names
    assert "census.predicted_census" not in names
    assert "census.predicted_census" in {q for q, _, _ in defs.values()}
    # each call is named by its nearest caller under src/, or by None
    named = script["named_calls"](calls, defs)
    assert (None, "cli.main") in named
    assert ("cli.cmd_classify", "orbitlab.classify") in named


def test_reached_script_checks_each_caller_reason_against_the_calls():
    # the reason checker on synthetic calls, with no recorder run: a reason
    # holds only on a call to the member's own code, so a call named add on
    # another receiver refutes RootSystem.add's
    path = Path(__file__).parents[1] / "scripts" / "reached.py"
    script = runpy.run_path(str(path), run_name="reached")
    defined = {"rootsys.RootSystem.__init__", "rootsys.RootSystem.add",
               "rootsys.build_root_system", "orbitlab.block_gammas",
               "census.crosscheck", "orbitlab._AClassifier.decode"}
    calls = {("rootsys.build_root_system", "rootsys.RootSystem.__init__"),
             ("orbitlab.block_gammas", "rootsys.RootSystem.add"),
             ("census.crosscheck", "numpy.add")}
    reasons = {
        "RootSystem": ("caller", "rootsys.build_root_system"),
        "RootSystem.add": ("caller", "orbitlab.block_gammas"),
        "build_root_system": ("caller", "census.crosscheck"),
        "OrbitDescriptor": ("caller", "orbitlab._AClassifier.decode"),
        "NotARoot": ("failure", "rootsys.RootSystem.root_id"),
    }
    check = script["check_reasons"]
    assert check(calls, reasons, defined) == (
        ["RootSystem", "RootSystem.add"], ["build_root_system"],
        ["OrbitDescriptor"])
    moved = {**reasons, "RootSystem.add": ("caller", "census.crosscheck")}
    assert check(calls, moved, defined)[1] == ["RootSystem.add",
                                               "build_root_system"]
    # the table it checks is test_boundary's
    assert script["reasons"]()["RootSystem.add"] == reasons["RootSystem.add"]
