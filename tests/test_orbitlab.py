"""Orbit-classifier tests: the lift, luminosity, block invariants,
descriptors, canonical forms, and validation errors."""

from __future__ import annotations

import ast
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import pickle
import random
import runpy
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chevorbit
from chevorbit import (
    CharTwo,
    ClassificationError,
    InvalidDescriptor,
    LieVector,
    Luminosity,
    NotTraceZero,
    OrbitDescriptor,
    PrimeField,
    UnsupportedFamily,
    act_on_v1,
    al_pair,
    all_descriptors,
    apply_root_element,
    associated_root_element,
    block_gammas,
    build_root_system,
    build_table_oracle,
    canonical_form,
    classify,
    classify_many,
    crosscheck,
    is_prime,
    luminosity,
    predicted_census,
    same_orbit,
    sl2_invariant,
    sl2_invariant_matrix,
    standard_quadruple,
    w_apply_fast,
    z_blocks,
    ZBlock,
)
from chevorbit import orbitlab
from chevorbit.census import state_of_vector
from chevorbit.gfield import _mod, _pow_mod, integral
from helpers import (
    INTEGERS,
    ArrayField,
    CENSUS_CASES,
    GenericField,
    EXPECTED_ORBITS,
    classify_a_reference,
    get_field,
    get_system,
    get_table,
    lane_rows,
    pack_profile,
    random_level0_word,
    random_v1,
    same_vector,
)


def quad_vector(rs, coeffs):
    """V1 vector with the given coefficients on the standard quadruple."""
    lam, rho, sig, tau = standard_quadruple(rs)
    out = [0] * len(rs.phi1)
    for r, c in zip((lam, rho, sig, tau), coeffs):
        out[rs.phi1_index(r)] = c
    return tuple(out)


def lane_of(t, p):
    """The dtype of t's batch lanes over F_p; None past the int64 bound."""
    return orbitlab._classifier(t, get_field(p)).lane


def batch_codes(t, p, vectors):
    """The codes of vectors through classify_many's batch path: one codes
    call per orbitlab._CHUNK rows."""
    rows = np.array(vectors, dtype=np.int64)
    clf, out = orbitlab._classifier(t, get_field(p)), []
    for lo in range(0, len(rows), orbitlab._CHUNK):
        codes = clf.codes(rows[lo:lo + orbitlab._CHUNK])
        out += codes if isinstance(codes, list) else codes.tolist()
    return out


# -- the lift ---------------------------------------------------------------------


def test_lift_rejects_wrong_family_char_and_shape():
    K = get_field(3)
    with pytest.raises(UnsupportedFamily):
        associated_root_element(get_table("A3"), K, (0, 0, 0, 0))
    with pytest.raises(CharTwo):
        associated_root_element(get_table("D4"), PrimeField(2), (0,) * 8)
    with pytest.raises(ValueError):
        associated_root_element(get_table("D4"), K, (1, 2))


def test_lift_refuses_entries_that_are_not_integers():
    t = get_table("D4")
    K = get_field(5)
    for x in ([1.5] * 8, ["3", 1.9, 0, 0, 0, 0, 0, 0]):
        with pytest.raises(TypeError):
            associated_root_element(t, K, x)
    ints = (np.int64(1), np.int32(2), 3, 4, 0, 0, 0, 1)
    assert same_vector(associated_root_element(t, K, ints),
                       associated_root_element(t, K, [int(c) for c in ints]))


def test_lift_order_must_be_a_permutation():
    t = get_table("D4")
    K = get_field(3)
    x = (1, 0, 2, 0, 1, 0, 0, 2)
    with pytest.raises(ValueError):
        associated_root_element(t, K, x, order=[0, 0, 1, 2, 3, 4, 5, 6])


def test_lift_postconditions_survive_optimized_mode():
    # python -O strips assert statements; the lift's checks must still fire,
    # in the reference lift and when classify compiles the lift of a table,
    # and so must the check of V's catalogue entry behind the dark decode
    script = textwrap.dedent("""
        import chevorbit.orbitlab as ol
        from chevorbit import (
            ClassificationError, PrimeField, build_root_system,
            build_table_oracle,
        )
        from helpers import ArrayField
        import numpy as np
        table = build_table_oracle(build_root_system("D", 4))
        types = ol._orbit_types(table, PrimeField(5))
        params, entries = types["V"]
        types["V"] = (params, tuple((i, 2 if v == 1 else v)
                                    for i, v in entries))
        x = [0] * 8  # V(1)
        for i, _ in entries:
            x[i] = 1
        try:
            ol.classify(table, PrimeField(5), x)
        except ClassificationError:
            print("raised")
        ol.apply_root_element = lambda table, g, t, v: v
        table = build_table_oracle(build_root_system("D", 4))
        # a single vector, then a batch of five in lanes
        for K, x in ((PrimeField(5), (1,) * 8),
                     (ArrayField(5), [np.arange(5)] * 8)):
            try:
                ol.associated_root_element(table, K, x)
            except ClassificationError:
                print("raised")
        try:
            ol.classify(build_table_oracle(build_root_system("D", 4)),
                        PrimeField(5), (0,) * 8)
        except ClassificationError:
            print("raised")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevorbit.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, tests, env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 4


def test_no_module_checks_with_assert():
    # python -O strips assert statements, so no check in the package may be
    # one: every module's syntax tree must be free of them
    pkg = os.path.dirname(os.path.abspath(chevorbit.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert os.path.exists(os.path.join(pkg, "orbitlab.py"))
    assert not found, f"assert statements in chevorbit: {found}"


def test_lift_level_support_is_bounded():
    t = get_table("D5")
    K = get_field(5)
    rng = random.Random(13)
    for _ in range(50):
        x = tuple(rng.randrange(5) for _ in t.rs.phi1)
        y = associated_root_element(t, K, x)
        assert y.level_support() <= {-2, -1, 0, 1, 2}
        assert y.e_coeff(t.rs.delta) == 1


def generic_polynomials(table, x=None):
    """_Polynomials, the level-1 vector x (by default the generic one, x_0,
    ..., x_{m-1}) in it, one more variable t (index m), and the generators
    x_gamma(t) of G0: gamma = +-alpha for the simple level-0 roots alpha,
    each paired with gamma . x on V1 by the full adjoint action."""
    rs, P = table.rs, orbitlab._Polynomials()
    m = len(rs.phi1)
    if x is None:
        x = tuple({(i,): 1} for i in range(m))
    t = {(m,): 1}
    simple0 = [a for a in map(rs.simple, range(1, rs.rank + 1))
               if rs.level(a) == 0]
    moved = {g: apply_root_element(table, g, t, LieVector.from_v1(
        table, P, x)).v1_part() for g in simple0 + [rs.neg(a) for a in simple0]}
    assert all(gx != x for gx in moved.values())
    return P, x, t, moved


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8"])
def test_lift_commutes_with_every_generator_over_polynomials(name):
    # lift(x_gamma(t) . x) = x_gamma(t) . lift(x) over Q[t, x], whose
    # denominators divide 4, so it holds mod every odd p
    table = get_table(name)
    P, x, t, moved = generic_polynomials(table)
    y = associated_root_element(table, P, x)
    for g, gx in moved.items():
        assert (associated_root_element(table, P, gx).coeffs
                == apply_root_element(table, g, t, y).coeffs), g


@pytest.mark.parametrize("name", [f"A{n}" for n in range(3, 9)])
def test_contraction_is_invariant_under_every_generator_over_polynomials(
        name):
    # sum u_j v_j of al_pair's (u, v) is the same polynomial after x_gamma(t)
    table = get_table(name)
    P, x, _, moved = generic_polynomials(table)
    iu, iv = orbitlab._al_indices(table.rs)

    def contraction(v):
        s = P.zero
        for i, j in zip(iu, iv):
            s = P.add(s, P.mul(v[i], v[j]))
        return s

    assert contraction(x)
    for g, gx in moved.items():
        assert contraction(gx) == contraction(x), g


def test_a3_iii_parameter_is_invariant_over_polynomials():
    # on the locus s = u1 v1 + u2 v2 = 0 put v = w (u2, -u1), over Q[u1, u2,
    # w, t]; III's parameter c, the contraction of v with the completion of
    # u, is v2 / u1 = -v1 / u2 = -w there (the code reads one or the other).
    # Each spelling n / d of c, its denominator cleared, must give the same
    # c after every generator: n(gx) d(x) == n(x) d(gx), with d(gx) != 0
    table = get_table("A3")
    iu, iv = orbitlab._al_indices(table.rs)
    P = orbitlab._Polynomials()
    u1, u2, w = ({(i,): 1} for i in range(3))
    x = [P.zero] * 4
    x[iu[0]], x[iu[1]] = u1, u2
    x[iv[0]], x[iv[1]] = P.mul(w, u2), P.neg(P.mul(w, u1))
    _, x, _, moved = generic_polynomials(table, tuple(x))

    def spellings(v):
        """c as (numerator, denominator) pairs."""
        (a1, a2), (b1, b2) = ([v[i] for i in idx] for idx in (iu, iv))
        return (b2, a1), (P.neg(b1), a2)

    assert all(P.mul(P.neg(w), d) == n for n, d in spellings(x))
    for g, gx in moved.items():
        for (n, d), (gn, gd) in zip(spellings(x), spellings(gx)):
            assert gd and P.mul(gn, d) == P.mul(n, gd), g


def test_kernel_digests_script_prints_d4s_sources_and_steps(capsys):
    path = Path(__file__).parents[1] / "scripts" / "kernel_digests.py"
    main = runpy.run_path(str(path), run_name="kernel_digests")["main"]
    assert main(["D4", "--repeat", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    kernel = orbitlab._lift_kernel(get_table("D4"))
    assert out[0].split() == ["system", "kind", "chars", "sha256"]
    assert [line.split() for line in out[1:3]] == [
        ["D4", kind, str(len(kernel.source(kind))),
         hashlib.sha256(kernel.source(kind).encode()).hexdigest()]
        for kind in ("unit", "lanes")]
    assert out[3] == ""
    assert out[4].split() == ["system", "lift[ms]", "identity[ms]",
                              "codegen[ms]", "compile[ms]"]
    row = out[5].split()
    assert len(out) == 6 and row[0] == "D4"
    assert all(float(ms) > 0 for ms in row[1:])


def test_kernel_digests_script_prints_the_family_a_unit(capsys):
    # family A's unit and lanes have digests and a codegen and compile
    # time, and no lift or block identity
    path = Path(__file__).parents[1] / "scripts" / "kernel_digests.py"
    main = runpy.run_path(str(path), run_name="kernel_digests")["main"]
    assert main(["A3", "A5", "--repeat", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    want = []
    for name in ("A3", "A5"):
        kernel = orbitlab._classifier(get_table(name), get_field(7)).kernel
        want += [[name, kind, str(len(kernel.source(kind))),
                  hashlib.sha256(kernel.source(kind).encode()).hexdigest()]
                 for kind in ("unit", "lanes")]
    assert [line.split() for line in out[1:5]] == want
    assert out[5] == "" and len(out) == 9
    for line, name in zip(out[7:], ("A3", "A5")):
        row = line.split()
        assert row[:3] == [name, "-", "-"]
        assert all(float(ms) > 0 for ms in row[3:])


def test_v1_invariance_script_finds_no_change_on_two_small_chunks(capsys):
    # the identities above prove the code invariant; the script runs what
    # they do not, act_on_v1 and the lane code, here on 2 chunks of 64
    path = Path(__file__).parents[1] / "scripts" / "v1_invariance.py"
    main = runpy.run_path(str(path), run_name="v1_invariance")["main"]
    # run_path returns a copy of the script's globals; main reads its own
    main.__globals__.update(CHUNK=64, CHUNKS=2,
                            CASES=(("A3", 1009), ("D4", 1009)))
    assert main(["--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["system", "p", "vectors", "changed", "wall[s]"]
    assert [line.split()[:4] for line in out[1:]] == [
        ["A3", "1009", "128", "0"], ["D4", "1009", "128", "0"]]


@pytest.mark.parametrize("name,p", [("D4", 5), ("D5", 3), ("D4", 1009)])
def test_batch_lift_equals_stacked_scalar_lifts(name, p):
    t = get_table(name)
    K = get_field(p)
    n, m = 200, len(t.rs.phi1)
    rng = np.random.default_rng(7 * p + m)
    # column 0 is zero in every lane, so the batch lift skips its terms;
    # column 1 is one nonzero constant; the others are sparse and random
    X = rng.integers(0, p, size=(n, m)) * (rng.random((n, m)) < 0.3)
    X[:, 0] = 0
    X[:, 1] = p - 1
    lanes = [c.astype(lane_of(t, p)) for c in X.T]
    y = associated_root_element(t, ArrayField(p), lanes)
    want = np.array([associated_root_element(t, K, x).coeffs
                     for x in X.tolist()])
    got = np.stack([np.broadcast_to(c, (n,)) for c in y.coeffs], axis=1)
    assert np.array_equal(got, want)
    # same_vector compares batch vectors lane by lane
    assert same_vector(y, associated_root_element(t, ArrayField(p), lanes))
    lanes[2] = lanes[2].copy()
    lanes[2][-1] = (lanes[2][-1] + 1) % p
    assert not same_vector(y, associated_root_element(t, ArrayField(p),
                                                      lanes))


def branch_batches(t, p, rng):
    """Batches of vectors that drive the lane code down each of its
    branches, chosen by their scalar codes: all dark (the gather of the
    lanes that are not dark is empty), none dark, nilpotent blocks of
    either square class, zero blocks, and one vector alone."""
    rs = t.rs
    clf = orbitlab._classifier(t, get_field(p))
    canonical = [clf.canonical_vector(d) for d in clf.descriptors(skip="V")]
    canonical += [clf.canonical_vector(OrbitDescriptor(
        "D", rs.rank, p, "V", (("k", k),))) for k in (1, 2, p - 1)]
    pool = half_sparse(rng, rs, p, 200) + canonical + [
        act_on_v1(t, get_field(p), random_level0_word(rng, rs, p, 6), x)
        for x in canonical for _ in range(3)]
    blocks = len(block_gammas(rs))
    place = (p + 2) ** blocks
    scalar = clf.code
    dark, light = [], []
    digits: dict = {0: [], 1: [], 2: []}  # block digit -> light vectors
    for x in pool:
        code = scalar(x)
        if code // place == orbitlab._DARK:
            dark.append(x)
            continue
        light.append(x)
        for digit in {code // (p + 2) ** i % (p + 2) for i in range(blocks)}:
            digits[digit].append(x)
    batches = {"all dark": dark, "none dark": light,
               "nilpotent, nonsquare": digits[1], "nilpotent, square": digits[2],
               "zero blocks": digits[0], "one dark": dark[:1],
               "one light": light[:1]}
    assert all(batches.values()), {k: len(v) for k, v in batches.items()}
    return batches


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8"])
def test_compiled_lift_spellings_agree(name):
    # code is the spelling for Python ints, lanes the one that
    # classify_many runs on int32 and int64 lanes: each branches at the
    # dark test, lanes through gathers, so they are compared on random
    # vectors and on batches built to take each branch, with int32 and
    # int64 lanes (D4's own lanes are int64 from p = 719 on)
    t = get_table(name)
    kernel = orbitlab._lift_kernel(t)
    branch_primes = {"D4": (709, 719), "D5": (3, 1009),
                     "D6": (3, 1009)}.get(name, ())
    for p in sorted({3, 5, 1009, *branch_primes}):
        rng = random.Random(p * 31 + t.rs.rank)
        vectors = half_sparse(rng, t.rs, p, 60) + [(p - 1,) * len(t.rs.phi1)]
        batches = {"random": vectors}
        if p in branch_primes:
            batches.update(branch_batches(t, p, rng))
        for label, batch in batches.items():
            want = [orbitlab._classifier(t, get_field(p)).code(x)
                    for x in batch]
            assert all(isinstance(c, int) for c in want)
            for lane in {lane_of(t, p), np.int64}:
                got = kernel.lanes(p, *np.array(batch, dtype=lane).T)
                assert got.tolist() == want, (p, label, lane)


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8"])
def test_block_invariant_is_the_dark_test(name):
    # every block's c**2 + u*w is the e_{-delta} coordinate of the reference
    # lift mod p, so the code's luminosity digit is _DARK exactly where that
    # coordinate is nonzero
    t = get_table(name)
    rs = t.rs
    bottom, _, _, blocks = orbitlab._kernel_plan(t)
    for p in (3, 5, 7, 1009):
        K = get_field(p)
        place = (p + 2) ** len(blocks)
        clf = orbitlab._classifier(t, K)
        rng = random.Random(p * 17 + rs.rank)
        vectors = half_sparse(rng, rs, p, 100) + [
            clf.canonical_vector(d) for d in clf.descriptors(skip="V")] + [
            clf.canonical_vector(OrbitDescriptor("D", rs.rank, p, "V",
                                                 (("k", k),)))
            for k in (1, 2, p - 1)]
        lum = set()
        for x in vectors:
            y = associated_root_element(t, K, x).coeffs
            for c, u, w in blocks:
                assert (y[c] * y[c] + y[u] * y[w] - y[bottom]) % p == 0, (p, x)
            dark = clf.code(x) // place == orbitlab._DARK
            assert dark == (y[bottom] != 0), (p, x)
            lum.add(dark)
        assert lum == {False, True}, p


def test_lift_kernel_refuses_a_plan_whose_bottom_is_not_the_block_invariant(
        monkeypatch):
    t = build_table_oracle(get_system("D4"))  # no kernel compiled yet
    bottom, lev_m1, lev0, blocks = orbitlab._kernel_plan(t)
    monkeypatch.setattr(orbitlab, "_kernel_plan",
                        lambda table: (lev_m1[0], lev_m1, lev0, blocks))
    with pytest.raises(ClassificationError, match="c\\*\\*2 \\+ u\\*w"):
        orbitlab._lift_kernel(t)


def test_lift_kernel_refuses_a_lift_whose_block_is_not_the_invariant(
        monkeypatch):
    real = orbitlab.associated_root_element
    t = build_table_oracle(get_system("D4"))  # no kernel compiled yet
    c = orbitlab._kernel_plan(t)[-1][-1][0]  # c of the last block

    def moved(table, P, x):
        y = real(table, P, x)
        y.coeffs[c] = P.add(y.coeffs[c], P.one)
        return y

    monkeypatch.setattr(orbitlab, "associated_root_element", moved)
    with pytest.raises(ClassificationError, match="c\\*\\*2 \\+ u\\*w"):
        orbitlab._lift_kernel(t)


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8"])
def test_the_integral_lift_is_the_rational_lift_scaled(name):
    # the kernel lifts 2x, and every coefficient of that lift is an int:
    # 2**deg(mono) times the rational lift of x, run here as the oracle
    t = get_table(name)
    m = len(t.rs.phi1)
    lift = orbitlab._doubled_lift(t)
    oracle = associated_root_element(t, orbitlab._Polynomials(),
                                     [{(i,): 1} for i in range(m)]).coeffs
    assert any(type(c) is Fraction for y in oracle for c in y.values())
    assert all(type(c) is int for y in lift for c in y.values())
    assert lift == [{mono: 2 ** len(mono) * c for mono, c in y.items()}
                    for y in oracle]


def test_lift_kernel_refuses_a_coefficient_that_is_not_an_int(monkeypatch):
    real = orbitlab.associated_root_element
    t = build_table_oracle(get_system("D4"))  # no kernel compiled yet
    _, lev_m1, _, _ = orbitlab._kernel_plan(t)
    lift = orbitlab._doubled_lift(t)
    key = next(k for k in lev_m1 if lift[k])  # in no block

    def halved(table, P, x):
        y = real(table, P, x)
        y.coeffs[key] = {mono: Fraction(c, 2)
                         for mono, c in y.coeffs[key].items()}
        return y

    monkeypatch.setattr(orbitlab, "associated_root_element", halved)
    with pytest.raises(ClassificationError,
                       match=f"not an int at basis key {key}$"):
        orbitlab._lift_kernel(t)


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8"])
def test_kernel_sums_only_levels_minus_one_and_zero(name):
    # code and lanes take dark from the blocks, so the kernel never sums
    # e_{-delta}, the degree-4 coordinate, and its bound prices only the
    # coordinates of degree at most 3 that they compute
    t = get_table(name)
    _, lev_m1, lev0, _ = orbitlab._kernel_plan(t)
    kernel = orbitlab._lift_kernel(t)
    assert len(kernel.weights) == len(lev_m1) + len(lev0)
    assert all(degree <= 3 for ws in kernel.weights for degree in ws)
    assert not hasattr(kernel, "lift")
    with pytest.raises(KeyError):
        kernel.spell("lift")


@pytest.mark.parametrize("name,p", [
    ("A3", 3), ("D4", 3), ("D8", 5),  # int8, int16 and int16 lanes
    # the largest primes with int8 lanes, then with int16 lanes
    ("A3", 5), ("D5", 3), ("A8", 3),
    ("A3", 79), ("A8", 67), ("D4", 13), ("D8", 11),
    ("A3", 1009),  # int32 lanes
    ("D4", 709), ("D8", 461),  # the largest primes with int32 lanes
    ("D4", 1009), ("D8", 1009), ("A3", 1_300_021), ("D4", 65521),  # int64
    # the largest primes with int64 lanes
    ("A5", 1_358_187_913), ("A8", 1_147_878_283), ("D4", 1_154_051),
    ("D8", 748_387),
    ("D4", 1_154_119),  # no lanes: batches run the scalar code
])
def test_lane_reduction_equals_python_mod(name, p):
    t = get_table(name)
    rs = t.rs
    lane = lane_of(t, p)
    # the bounds the classifier documents, on every intermediate value of a
    # lane code
    if rs.family == "A":
        bound = max(5, rs.rank - 1) * p * p
    else:
        bound = max(5 * (p + 2) ** len(block_gammas(rs)),
                    orbitlab._lift_kernel(t).bound(p))
    # the narrowest lane whose range holds the bound
    assert lane == next((w for w in (np.int8, np.int16, np.int32, np.int64)
                         if bound < 2 ** (8 * np.dtype(w).itemsize - 1)), None)
    rng = random.Random(p)
    values = [0, 1, -1, p - 1, p, p + 1, -p, -p - 1]
    values += [s * (bound - i) for s in (1, -1) for i in (1, 2, p, p + 1)]
    values += [rng.randrange(-bound + 1, bound) for _ in range(200)]
    if lane is None:
        assert all(_mod(v, p) == v % p for v in values)
        return
    # past the bound too: a // p * p may wrap, the result may not
    info = np.iinfo(lane)
    values += [info.min, info.min + 1, info.max - 1, info.max]
    a = np.array(values, dtype=lane)
    got = _mod(a, p)
    assert got.dtype == a.dtype
    assert got.tolist() == [v % p for v in values]
    e = (p - 1) // 2
    got = _pow_mod(a, e, p)
    assert got.dtype == a.dtype
    assert got.tolist() == [pow(v, e, p) for v in values]
    assert _mod(values[-1], p) == values[-1] % p
    assert _pow_mod(values[-1], e, p) == pow(values[-1], e, p)


def test_lane_reduction_of_unsigned_words():
    # the crosscheck reduces 64-bit random words mod the state count
    words = [0, 1, 2**63, 2**64 - 1] + [random.Random(1).getrandbits(64)
                                        for _ in range(100)]
    for m in (3, 3**8, 5**12, 2**62 - 1):
        got = _mod(np.array(words, dtype=np.uint64), m)
        assert got.dtype == np.uint64
        assert got.tolist() == [w % m for w in words]


# -- luminosity -------------------------------------------------------------------


def test_luminosity_ladder_on_quadruple_shapes():
    t = get_table("D4")
    rs = t.rs
    K = get_field(5)
    cases = [
        ((0, 0, 0, 0), Luminosity.ZERO_VEC),
        ((1, 0, 0, 0), Luminosity.SINGULAR),
        ((1, 1, 0, 0), Luminosity.BRILLIANT),
        ((1, 1, 1, 0), Luminosity.SHINING),
        ((1, 1, 1, 1), Luminosity.DARK),
    ]
    for coeffs, want in cases:
        y = associated_root_element(t, K, quad_vector(rs, coeffs))
        assert luminosity(rs, y) == want, coeffs


def test_luminosity_json_values():
    assert [m.value for m in Luminosity] == [
        "ZeroVec",
        "Singular",
        "Brilliant",
        "Shining",
        "Dark",
    ]


def test_dark_iff_bottom_coefficient_nonzero():
    t = get_table("D4")
    rs = t.rs
    K = get_field(3)
    rng = random.Random(7)
    neg_delta = rs.neg(rs.delta)
    seen = set()
    for _ in range(300):
        x = tuple(rng.randrange(3) for _ in rs.phi1)
        y = associated_root_element(t, K, x)
        lum = luminosity(rs, y)
        seen.add(lum)
        assert (lum == Luminosity.DARK) == (not K.is_zero(y.e_coeff(neg_delta)))
    assert Luminosity.DARK in seen and Luminosity.SHINING in seen


# -- blocks and their invariants --------------------------------------------------


def test_block_gammas_are_pinned_simple_roots():
    assert block_gammas(get_system("D4")) == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    )
    assert block_gammas(get_system("D5")) == ((0, 0, 0, 0, 1),)
    assert block_gammas(get_system("D7")) == ((0,) * 6 + (1,),)


def test_block_count_matches_gammas():
    for name, p in (("D4", 3), ("D5", 3)):
        t = get_table(name)
        K = get_field(p)
        x = tuple(1 for _ in t.rs.phi1)
        y = associated_root_element(t, K, x)
        assert len(z_blocks(t, K, y)) == len(block_gammas(t.rs))


def test_all_ones_d4_blocks_are_regular_with_k_one():
    t = get_table("D4")
    K = get_field(3)
    y = associated_root_element(t, K, quad_vector(t.rs, (1, 1, 1, 1)))
    invs = [sl2_invariant(K, z) for z in z_blocks(t, K, y)]
    assert all(i.kind == "regular" for i in invs)
    assert {i.k for i in invs} == {1}


def test_sl2_invariant_branches():
    K = get_field(7)
    zero = sl2_invariant(K, ZBlock(0, 0, 0))
    assert zero.kind == "zero" and zero.k is None

    nil_u = sl2_invariant(K, ZBlock(0, 2, 0))  # k = 0, u != 0
    assert nil_u.kind == "nilpotent"
    assert nil_u.square.rep in (1, K.least_nonresidue())

    nil_w = sl2_invariant(K, ZBlock(0, 0, 3))  # k = 0, u = 0, w != 0
    assert nil_w.kind == "nilpotent"

    diag = sl2_invariant(K, ZBlock(2, 0, 0))  # k = c^2, u = w = 0
    assert diag.kind == "regular" and diag.k == 4

    generic = sl2_invariant(K, ZBlock(1, 2, 4))
    assert generic.kind == "regular" and generic.k == K.of(1 + 8)

    vanishing_k = sl2_invariant(K, ZBlock(1, 2, 3))  # c^2 + uw = 7 = 0 here
    assert vanishing_k.kind == "nilpotent"

    # nilpotent invariants separate the two square classes
    assert sl2_invariant(K, ZBlock(0, 1, 0)) != sl2_invariant(
        K, ZBlock(0, K.least_nonresidue(), 0)
    )


def test_sl2_invariant_matrix_matches_block_form():
    K = get_field(5)
    for c, u, w in itertools.product(range(5), repeat=3):
        mat = ((c, u), (w, (-c) % 5))
        assert sl2_invariant_matrix(K, mat) == sl2_invariant(K, ZBlock(c, u, w))
    with pytest.raises(NotTraceZero):
        sl2_invariant_matrix(K, ((1, 0), (0, 1)))


def test_sl2_invariant_is_conjugation_invariant_over_f5():
    p = 5
    K = get_field(p)
    rng = random.Random(19)
    group = [
        g
        for g in itertools.product(range(p), repeat=4)
        if (g[0] * g[3] - g[1] * g[2]) % p == 1
    ]
    for _ in range(60):
        c, u, w = (rng.randrange(p) for _ in range(3))
        base = sl2_invariant(K, ZBlock(c, u, w))
        a, b, cc, d = rng.choice(group)
        # m' = g m g^{-1}
        m00, m01, m10 = c, u, w
        m11 = (-c) % p
        n00 = a * m00 + b * m10
        n01 = a * m01 + b * m11
        n10 = cc * m00 + d * m10
        n11 = cc * m01 + d * m11
        conj = (
            ((n00 * d - n01 * cc) % p, (-n00 * b + n01 * a) % p),
            ((n10 * d - n11 * cc) % p, (-n10 * b + n11 * a) % p),
        )
        assert sl2_invariant_matrix(K, conj) == base


@pytest.mark.parametrize("p", [5, 7])
def test_sl2_invariant_partition_is_the_conjugacy_partition(p):
    # exhaustive: the regular invariant is k alone, with no finer class
    # (x**2 - k*y**2 takes every unit value for k != 0), so the invariant
    # must split the trace-zero matrices exactly into SL2(F_p) classes
    K = get_field(p)
    group = [
        g for g in itertools.product(range(p), repeat=4)
        if (g[0] * g[3] - g[1] * g[2]) % p == 1
    ]

    def conjugate(g, c, u, w):
        # g [[c, u], [w, -c]] g^{-1}, with g^{-1} = [[d, -b], [-cc, a]]
        a, b, cc, d = g
        n00, n01 = a * c + b * w, a * u - b * c
        n10, n11 = cc * c + d * w, cc * u - d * c
        return ((n00 * d - n01 * cc) % p, (n01 * a - n00 * b) % p,
                (n10 * d - n11 * cc) % p)

    blocks = list(itertools.product(range(p), repeat=3))
    conjugacy = {frozenset(conjugate(g, *z) for g in group) for z in blocks}
    by_invariant: dict = {}
    for c, u, w in blocks:
        inv = sl2_invariant_matrix(K, ((c, u), (w, (-c) % p)))
        by_invariant.setdefault(inv, set()).add((c, u, w))
    assert {frozenset(s) for s in by_invariant.values()} == conjugacy
    # zero, two nilpotent square classes, and one class per k != 0
    assert len(conjugacy) == p + 2


# -- the invariant kernel ---------------------------------------------------------


@pytest.mark.parametrize(
    "name,p",
    [("D4", 3), ("D4", 5), ("D5", 3), ("D6", 3), ("D7", 3), ("D8", 3),
     ("D4", 1009), ("D5", 1009),
     # int64 lanes, then none past D4's int64 bound
     ("D4", 65521), ("D8", 65521), ("D4", 1_300_021)],
)
def test_invariant_code_matches_reference_invariants(name, p):
    t = get_table(name)
    K = get_field(p)
    rs = t.rs
    m = len(rs.phi1)
    if (name, p) == ("D4", 3):
        vectors = list(itertools.product(range(p), repeat=m))
    else:
        rng = random.Random(31 * p + rs.rank)
        # half uniform (mostly dark) and half sparse, fewer on D7, D8 and
        # past F_1009; with the canonical vectors, every luminosity and both
        # nilpotent square classes occur at large p too, and (p - 1, ...)
        # drives the unreduced sums towards the lane bound
        n = 100 if rs.rank > 6 or p > 1009 else 1000
        vectors = [random_v1(rng, rs, p) for _ in range(n)]
        vectors += [
            tuple(c if rng.random() < 0.3 else 0 for c in random_v1(rng, rs, p))
            for _ in range(n)
        ]
        clf = orbitlab._classifier(t, K)
        vectors += [clf.canonical_vector(d) for d in clf.descriptors(skip="V")]
        vectors.append((p - 1,) * m)
    want = []
    for x in vectors:
        y = associated_root_element(t, K, x)
        invs = tuple(sl2_invariant(K, z) for z in z_blocks(t, K, y))
        want.append(pack_profile(p, luminosity(rs, y), invs))
    kernel = orbitlab._lift_kernel(t)
    assert [orbitlab._classifier(t, K).code(x) for x in vectors] == want
    if lane_of(t, p) is not None:
        columns = np.array(vectors, dtype=lane_of(t, p)).T
        assert kernel.lanes(p, *columns).tolist() == want
    blocks = len(block_gammas(rs))
    assert {c // (p + 2) ** blocks for c in want} == {0, 1, 2, 3, 4}
    # block digits 1 and 2: nilpotent blocks of both square classes
    digits = {c // (p + 2) ** i % (p + 2) for c in want for i in range(blocks)}
    assert {1, 2} <= digits


@pytest.mark.parametrize(
    "name,p",
    [("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3),
     ("A2", 1009), ("A3", 1009), ("A4", 1009), ("A5", 1009)],
)
def test_classify_a_matches_reference(name, p):
    t = get_table(name)
    K = get_field(p)
    rs = t.rs
    if p < 1009:
        vectors = list(itertools.product(range(p), repeat=len(rs.phi1)))
    else:
        rng = random.Random(17 * p + rs.rank)
        # half uniform (mostly VI) and half sparse, so that every label
        # occurs, and on A3 label III with both u_1 = 0 and u_1 != 0
        vectors = [random_v1(rng, rs, p) for _ in range(1000)]
        vectors += [
            tuple(c if rng.random() < 0.3 else 0 for c in random_v1(rng, rs, p))
            for _ in range(1000)
        ]
    want = [classify_a_reference(rs, K, x) for x in vectors]
    assert [classify(t, K, x) for x in vectors] == want
    scalar = [orbitlab._classifier(t, K).code(x) for x in vectors]
    assert batch_codes(t, p, vectors) == scalar
    labels = {d.label for d in want}
    assert labels == {"I", "IIa", "IIb", "VI"} | ({"III"} if rs.rank > 2 else set())
    if rs.rank == 3:
        u1_zero = {al_pair(rs, x)[0][0] == 0
                   for x, d in zip(vectors, want) if d.label == "III"}
        assert u1_zero == {True, False}


def test_one_classifier_per_table_and_prime():
    # classify, same_orbit, canonical_form, classify_many and
    # predicted_census all find one classifier per (table, p), held in a
    # dict keyed by p that grows by one entry per new prime; a refused
    # domain caches nothing
    t = build_table_oracle(get_system("D4"))  # no classifier yet
    x = quad_vector(t.rs, (1, 1, 1, 1))
    for K, error in ((INTEGERS, UnsupportedFamily),
                     (PrimeField(2), CharTwo)):
        for call in (lambda: classify(t, K, x),
                     lambda: classify_many(t, K, [x]),
                     lambda: canonical_form(t, K, classify(t, K, x))):
            with pytest.raises(error):
                call()
    with pytest.raises(CharTwo):
        predicted_census(t, 2)
    assert t.memo == {}
    by_p = {}
    for p in (5, 7, 11):
        K = PrimeField(p)
        d = classify(t, K, x)
        by_p[p] = t.memo[orbitlab._classifier][p]
        assert same_orbit(t, K, x, canonical_form(t, K, d))
        assert classify_many(t, K, [x]) == [d]
        assert d in predicted_census(t, p)
        assert t.memo[orbitlab._classifier] == by_p
        assert all(orbitlab._classifier(t, PrimeField(q)) is by_p[q]
                   for q in by_p)
    # a PrimeField subclass of the same p gets the same classifier, which
    # reads only p; on a table where it comes first, PrimeField(p) gets its
    for K in (ArrayField(5), GenericField(5)):
        assert orbitlab._classifier(t, K) is by_p[5]
        fresh = build_table_oracle(get_system("D4"))
        assert (orbitlab._classifier(fresh, K)
                is orbitlab._classifier(fresh, PrimeField(5)))
        assert classify(fresh, K, x) == classify(t, PrimeField(5), x)
    assert len(t.memo[orbitlab._classifier]) == 3
    # family A takes p = 2, and refuses a domain without p
    a3 = build_table_oracle(get_system("A3"))
    with pytest.raises(UnsupportedFamily):
        classify(a3, INTEGERS, (0,) * len(a3.rs.phi1))
    assert a3.memo == {}
    classify(a3, PrimeField(2), (1,) * len(a3.rs.phi1))
    assert list(a3.memo[orbitlab._classifier]) == [2]


def test_classify_holds_no_memory_per_vector():
    # distinct vectors through classify and through classify_many, after the
    # per-table state is built: at F_5, and at F_1000000007, where uniform
    # vectors are dark and batches run the scalar code
    t = get_table("D4")
    n = 3000
    for p in (5, 1_000_000_007):
        K = get_field(p)
        rng = random.Random(3000 + p)
        vectors = list(dict.fromkeys(random_v1(rng, t.rs, p)
                                     for _ in range(n + 100)))[:n]
        assert len(vectors) == n
        # every orbit type but V, and V(1), by both entry points
        descs = orbitlab._classifier(t, K).descriptors(skip="V")
        classify_many(t, K, [canonical_form(t, K, d) for d in descs]
                      + [quad_vector(t.rs, (1, 1, 1, 1))])
        memo = len(t.memo)
        for run in (lambda xs: [classify(t, K, x) for x in xs],
                    lambda xs: classify_many(t, K, xs)):
            held = {}
            tracemalloc.start()
            try:
                for i in range(0, n, 100):
                    run(vectors[i:i + 100])
                    if i + 100 in (1000, n):
                        gc.collect()  # also empties the free lists
                        held[i + 100] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert held[n] < 16 * 1024, (p, held)
            assert held[n] - held[1000] < 4 * 1024, (p, held)
        assert len(t.memo) == memo, p


def test_tables_are_freed_after_use():
    rs = get_system("D4")
    table = build_table_oracle(rs)
    K = get_field(5)
    x = quad_vector(rs, (1, 2, 0, 0))
    v = LieVector.from_v1(table, K, x)
    apply_root_element(table, rs.phi0[0], 2, v)
    w_apply_fast(table, rs.phi0[0], 2, v)
    assert classify(table, K, x).label == "IIIa"
    assert classify(table, K, quad_vector(rs, (1, 1, 1, 1))).label == "V"
    ref = weakref.ref(table)
    del table, v
    gc.collect()
    assert ref() is None


def test_classify_raises_when_no_canonical_code_matches():
    rs = get_system("D4")
    t = build_table_oracle(rs)  # private code maps, free to tamper with
    K = get_field(3)
    x = quad_vector(rs, (1, 1, 0, 0))
    d = classify(t, K, x)
    codes = orbitlab._classifier(t, K).canonical_codes
    del codes[next(c for c, e in codes.items() if e == d)]
    with pytest.raises(ClassificationError, match="matches no canonical"):
        classify(t, K, x)
    # a dark code names V(k) only while V's catalogue entry has the code
    # the closed form assumes: rho = 2 breaks it, on a fresh table
    t = build_table_oracle(rs)
    types = orbitlab._orbit_types(t, K)
    params, entries = types["V"]
    rho = rs.phi1_index(standard_quadruple(rs)[1])
    types["V"] = (params, tuple((i, 2 if i == rho else v) for i, v in entries))
    with pytest.raises(ClassificationError, match="V.k.'s canonical vector"):
        classify(t, K, quad_vector(rs, (1, 1, 1, 1)))


# -- the batch classifier ---------------------------------------------------------


def half_sparse(rng, rs, p, n):
    """n seeded vectors: half uniform, half with about 70% zero entries."""
    out = [random_v1(rng, rs, p) for _ in range(n // 2)]
    for _ in range(n - n // 2):
        x = random_v1(rng, rs, p)
        out.append(tuple(c if rng.random() < 0.3 else 0 for c in x))
    return out


@pytest.mark.parametrize("name,p", [("A2", 3), ("A3", 5), ("D4", 3)])
def test_classify_many_matches_classify_on_every_state(name, p):
    t = get_table(name)
    K = get_field(p)
    vectors = list(itertools.product(range(p), repeat=len(t.rs.phi1)))
    assert classify_many(t, K, vectors) == [classify(t, K, x) for x in vectors]


@pytest.mark.parametrize("name", ["D4", "D5", "A3", "A5"])
def test_classify_many_matches_classify_at_p_1009(name):
    t = get_table(name)
    K = get_field(1009)
    vectors = half_sparse(random.Random(1009 + len(name) * t.rs.rank),
                          t.rs, 1009, 2000)
    want = [classify(t, K, x) for x in vectors]
    assert classify_many(t, K, vectors) == want
    assert classify_many(t, K, np.array(vectors, dtype=np.int32)) == want
    assert len({d.label for d in want}) >= 4


def test_classify_many_confirms_new_dark_codes_in_one_batch(monkeypatch):
    # fresh tables, so no dark code of F_4001 is confirmed yet
    t, ref = (build_table_oracle(get_system("D4")) for _ in range(2))
    K = get_field(4001)
    vectors = [random_v1(random.Random(i), t.rs, 4001) for i in range(300)]
    want = [classify(ref, K, x) for x in vectors]
    assert sum(d.label == "V" for d in want) > 250
    clf = orbitlab._classifier(t, K)
    clf.canonical_codes
    lanes = []
    for spelling in ("code", "lanes"):
        real = getattr(clf, spelling)

        def counted(x, real=real, spelling=spelling):
            lanes.append(spelling)
            return real(x)

        monkeypatch.setattr(clf, spelling, counted)
    assert classify_many(t, K, vectors) == want
    # the vectors' codes only: V(k) is named from its code in closed form
    assert lanes == ["lanes"]


@pytest.mark.parametrize("name", ["D4", "A3"])
def test_classify_many_runs_the_scalar_code_past_int64(name):
    # past a family's int64 bound int64 lanes could wrap, so batches run
    # the scalar code: D4's lane code passes 2**63 from p = 1,154,119 on, and
    # A3's from 1,358,187,923
    p = {"D4": 1_300_021, "A3": 10**12 + 39}[name]
    t = get_table(name)
    assert lane_of(t, p) is None
    K = get_field(p)
    vectors = half_sparse(random.Random(p), t.rs, p, 200)
    want = [classify(t, K, x) for x in vectors]
    assert classify_many(t, K, vectors) == want
    # rows of an int64 array hold numpy integers, which classify turns into
    # Python ints before the unreduced sums of the compiled lift
    rows = np.array(vectors, dtype=np.int64)
    assert [classify(t, K, x) for x in rows[:50]] == want[:50]
    # entries are reduced mod p on this path too, from arrays and lists
    assert classify_many(t, K, rows - p) == want
    assert classify_many(t, K, [[c + 2**64 * p for c in x]
                                for x in vectors]) == want


@pytest.mark.parametrize(
    "name", [f"A{l}" for l in range(3, 9)] + [f"D{l}" for l in range(4, 9)])
def test_classify_many_matches_classify_across_lane_thresholds(name):
    # classify runs the scalar spelling of the code, classify_many the lane
    # one up to the int64 bound and the scalar one past it: compared on
    # both sides of every threshold (int32 -> int64 -> scalar), at 65521,
    # at 1,321,213 (where the D4 lane code wrapped), and past 2**63 and
    # 2**64
    t = get_table(name)
    m = len(t.rs.phi1)
    lanes = [np.int32, np.int64, None]

    def next_prime(n):
        return next(q for q in itertools.count(n) if is_prime(q))

    def width(n):  # of the least prime >= n, so monotone in n
        return lanes.index(lane_of(t, next_prime(n)))

    primes = []
    for w in (1, 2):
        lo, hi = 3, 2**31  # width(lo) < w <= width(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if width(mid) >= w else (mid, hi)
        above = next_prime(hi)
        below = next(q for q in range(above - 1, 2, -1) if is_prime(q))
        assert (width(below), width(above)) == (w - 1, w)
        primes += [below, above]
    # family D's largest primes with int32 lanes and with int64 lanes, from
    # its bound on the sums of levels -1 and 0 and the block arithmetic
    largest = {"D4": (709, 1_154_051), "D5": (599, 973_411),
               "D6": (523, 870_137), "D7": (491, 800_213),
               "D8": (461, 748_387)}
    assert name not in largest or tuple(primes[::2]) == largest[name]
    primes += [65521, 1_321_213, 2**63 + 29, 2**64 + 13]
    for p in primes:
        K = get_field(p)
        rng = random.Random(p)
        # entries near p - 1 drive the unreduced sums towards the bound;
        # a wrapped lane shows when a coordinate that is 0 mod p reads
        # nonzero, so one vector of each label is moved by random words
        sparse = half_sparse(rng, t.rs, p, 60)
        by_label = {classify(t, K, x).label: x for x in sparse}
        vectors = sparse + [
            tuple(p - 1 - rng.randrange(3) for _ in range(m))
            for _ in range(20)
        ] + [(p - 1,) * m] + [
            act_on_v1(t, K, random_level0_word(rng, t.rs, p, 8), x)
            for x in by_label.values() for _ in range(4)
        ]
        assert classify_many(t, K, vectors) == [
            classify(t, K, x) for x in vectors], (p, lanes[width(p)])


# the largest primes with int8 and with int16 lanes; D4, D7 and D8 have no
# int8 lanes
NARROW_LANES = {
    **{f"A{l}": (5, 79) for l in range(2, 7)},
    "A7": (3, 73), "A8": (3, 67),
    "D4": (None, 13), "D5": (3, 13), "D6": (3, 13), "D7": (None, 13),
    "D8": (None, 11),
}


@pytest.mark.parametrize("name", sorted(NARROW_LANES))
def test_classify_many_matches_classify_across_narrow_lane_thresholds(name):
    # at small p the lane code's values fit 8 or 16 bits: the tiers are
    # bisected as in the test above, and classify_many is compared with
    # the scalar loop on both sides of each threshold
    t = get_table(name)
    m = len(t.rs.phi1)
    lanes = [np.int8, np.int16, np.int32]

    def next_prime(n):
        return next(q for q in itertools.count(n) if is_prime(q))

    def width(n):  # of the least prime >= n, so monotone in n
        return lanes.index(lane_of(t, next_prime(n)))

    largest, primes = [], [3]
    for w in (1, 2):
        if width(3) >= w:  # no prime has lanes narrower than lanes[w]
            largest.append(None)
            continue
        lo, hi = 3, 2**8  # width(lo) < w <= width(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if width(mid) >= w else (mid, hi)
        above = next_prime(hi)
        below = next(q for q in range(above - 1, 2, -1) if is_prime(q))
        assert (width(below), width(above)) == (w - 1, w)
        largest.append(below)
        primes += [below, above]
    assert tuple(largest) == NARROW_LANES[name]
    for p in sorted(set(primes)):
        K = get_field(p)
        rng = random.Random(p)
        sparse = half_sparse(rng, t.rs, p, 60)
        by_label = {classify(t, K, x).label: x for x in sparse}
        vectors = sparse + [
            tuple(p - 1 - rng.randrange(3) for _ in range(m))
            for _ in range(20)
        ] + [(p - 1,) * m] + [
            act_on_v1(t, K, random_level0_word(rng, t.rs, p, 8), x)
            for x in by_label.values() for _ in range(4)
        ]
        assert classify_many(t, K, vectors) == [
            classify(t, K, x) for x in vectors], (p, lanes[width(p)])


@pytest.mark.parametrize("name,p", [("D4", 5), ("D5", 3), ("A3", 5)])
def test_classify_many_interns_its_result(name, p):
    # each distinct code of one call is decoded once, so its vectors share
    # one descriptor object, across chunks too; family A and V(k) build a
    # fresh descriptor at every decode
    t = get_table(name)
    K = get_field(p)
    m = len(t.rs.phi1)
    n = 2 * orbitlab._CHUNK + 100
    rows = np.random.default_rng(p + m).integers(0, p, (n, m), dtype=np.int64)
    rows[n - 50:] = rows[:50]  # the first chunk's vectors in the last
    got = classify_many(t, K, rows)
    assert any(d.label == "V" for d in got) or name[0] == "A"
    assert len({id(d) for d in got}) == len(set(got))
    assert all(a is b for a, b in zip(got[:50], got[n - 50:]))


def test_classify_many_codes_a_chunk_per_lane_call(monkeypatch):
    # 2 * _CHUNK + 1 rows take three lanes calls, the last of one row
    t, K = get_table("D4"), get_field(5)
    n = 2 * orbitlab._CHUNK + 1
    rows = np.random.default_rng(5).integers(0, 5, (n, 8), dtype=np.int64)
    calls = lane_rows(monkeypatch, orbitlab._classifier(t, K))
    assert classify_many(t, K, rows) == [classify(t, K, x)
                                         for x in rows.tolist()]
    assert calls == [orbitlab._CHUNK, orbitlab._CHUNK, 1]


@pytest.mark.parametrize("name,p", [("D5", 3), ("D4", 5), ("A3", 5)])
def test_classify_many_reduces_entries_before_narrow_lanes(name, p):
    # entries outside range(p) are reduced in 64 bits before their chunk is
    # cast to int8 or int16 lanes: negative ones, beside entries that are
    # all in range, as well as ones past p (a cast would keep them mod 2**8
    # or 2**16, not mod p)
    t = get_table(name)
    K = get_field(p)
    vectors = half_sparse(random.Random(p), t.rs, p, 40)
    want = [classify(t, K, x) for x in vectors]
    for shift in (-p * 3**30, -p, p * 3**30):
        assert classify_many(t, K, [(x[0] + shift,) + x[1:]
                                    for x in vectors]) == want, shift


def test_dark_decode_leaves_the_non_v_code_map_unbuilt():
    rs = get_system("D4")
    K = get_field(1009)
    dark = quad_vector(rs, (1, 1, 1, 3))
    for run in (lambda t, x: classify(t, K, x),
                lambda t, x: classify_many(t, K, [x])[0]):
        t = build_table_oracle(rs)  # fresh code maps
        assert run(t, dark).label == "V"
        assert "canonical_codes" not in vars(orbitlab._classifier(t, K))
        assert run(t, quad_vector(rs, (1, 1, 0, 0))).label == "IIIa"
        assert "canonical_codes" in vars(orbitlab._classifier(t, K))


def packed(p, *digits):
    """The code with these digits in radix p + 2, the leading one first."""
    code = 0
    for digit in digits:
        code = code * (p + 2) + digit
    return code


def v_code(rs, p, k):
    """The code of V(k): the dark luminosity digit, then 2 + k per block."""
    return packed(p, orbitlab._DARK, *[2 + k] * len(block_gammas(rs)))


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8"])
def test_v_code_closed_form_equals_canonical_vector_codes(name):
    t = get_table(name)
    rs = t.rs
    primes = [q for q in range(3, 102) if is_prime(q)] + [1009]
    rng = random.Random(rs.rank)
    for p in primes + [65521, 1_300_021]:
        clf = orbitlab._classifier(t, get_field(p))
        if p in primes:
            ks = list(range(1, p))
        else:
            ks = [1, 2, p - 1] + rng.sample(range(3, p - 1), 60)
        vecs = [clf.canonical_vector(OrbitDescriptor(
            "D", rs.rank, p, "V", (("k", k),))) for k in ks]
        want = [v_code(rs, p, k) for k in ks]
        assert batch_codes(t, p, vecs) == want, p
        assert [clf.code(x) for x in vecs[:10]] == want[:10], p
        for k in ks[:3]:
            d = clf.decode(v_code(rs, p, k))
            assert (d.label, d.param("k")) == ("V", k)
    assert lane_of(t, 1_300_021) is None


@pytest.mark.parametrize("rank", range(4, 23))
def test_v_code_identity_holds_for_every_d_rank(rank):
    t = build_table_oracle(build_root_system("D", rank))
    _, entries = orbitlab._orbit_types(t, get_field(3))["V"]
    assert orbitlab._v_code_checked(t, entries) is None


def test_v_code_identity_checks_the_bottom(monkeypatch):
    # the blocks' half of the identity is _lift_kernel's, tested with it;
    # the check evaluates the kernel's e_(-delta) polynomial, moved here by 1
    t = build_table_oracle(get_system("D4"))  # unchecked
    P, kernel = orbitlab._Polynomials(), orbitlab._lift_kernel(t)
    moved = dataclasses.replace(kernel, bottom=P.add(kernel.bottom, P.one))
    monkeypatch.setattr(orbitlab, "_lift_kernel", lambda table: moved)
    _, entries = orbitlab._orbit_types(t, get_field(3))["V"]
    with pytest.raises(ClassificationError, match="closed-form dark code"):
        orbitlab._v_code_checked(t, entries)


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8"])
def test_non_v_canonical_codes_are_never_dark(name):
    t = get_table(name)
    place_exp = len(block_gammas(t.rs))
    for p in (3, 5, 1009):
        codes = orbitlab._classifier(t, get_field(p)).canonical_codes
        assert codes and all(code // (p + 2) ** place_exp != orbitlab._DARK
                             for code in codes), p


def test_malformed_dark_codes_raise():
    t = get_table("D4")
    p = 7
    clf = orbitlab._classifier(t, get_field(p))
    assert clf.decode(packed(p, 4, 3, 3, 3)).label == "V"
    bad = [packed(p, 4, 3, 4, 3), packed(p, 4, 5, 5, 4)]  # unequal k
    bad += [packed(p, 4, d, d, d) for d in (0, 1, 2)]
    bad += [packed(p, 4, 3, 3, d) for d in (0, 1, 2)]
    for code in bad:
        with pytest.raises(ClassificationError, match="matches no canonical"):
            clf.decode(code)


def test_classify_many_crosses_chunk_boundaries():
    t = get_table("D4")
    K = get_field(3)
    states = list(itertools.product(range(3), repeat=8))
    by_state = dict(zip(states, classify_many(t, K, states)))
    rng = random.Random(14)
    n = orbitlab._CHUNK + 1
    rows = np.array([rng.choice(states) for _ in range(n)], dtype=np.int64)
    got = classify_many(t, K, rows)
    assert got == [by_state[tuple(r)] for r in rows.tolist()]
    assert classify_many(t, K, []) == []
    assert classify_many(t, K, np.empty((0, 8), dtype=np.int64)) == []


def test_classify_many_validates_like_classify():
    t = get_table("D4")
    K = get_field(5)
    good = [(0,) * 8, (1,) * 8]
    for bad in ([(0,) * 8, (0,) * 7], [(0,) * 9], np.zeros((3, 7), int),
                np.zeros(8, int)):
        with pytest.raises(ValueError, match="8 coefficients"):
            classify_many(t, K, bad)
    for bad in (np.full((2, 8), 0.5), [(0.5,) * 7 + (2**64 - 1,)],
                [("1",) * 8]):
        with pytest.raises(ValueError, match="integers"):
            classify_many(t, K, bad)
    # a list that no 64-bit dtype holds is read entry by entry, exactly:
    # entries on both sides of 2**63, -1 beside 2**64 - 1, and past 2**64
    for x in ((0,) * 7 + (2**64 - 1,), (-1,) * 7 + (2**64 - 1,),
              (1,) * 7 + (2**70,)):
        assert classify_many(t, K, good + [x])[-1] == classify(t, K, x)
    # entries are reduced mod p, as classify reduces them
    for entry in (-1, 5, 7):
        x = (1,) * 7 + (entry,)
        assert classify_many(t, K, good + [x])[-1] == classify(t, K, x)
    # in every chunk, not only the first
    rows = np.zeros((orbitlab._CHUNK + 3, 8), dtype=np.int64)
    rows[-1] = (1,) * 7 + (-1,)
    assert classify_many(t, K, rows)[-1] == classify(t, K, (1,) * 7 + (4,))
    with pytest.raises(CharTwo):
        classify_many(t, PrimeField(2), good)
    with pytest.raises(TypeError):
        classify(t, K, (0.5,) * 8)
    with pytest.raises(UnsupportedFamily):
        classify_many(get_table("E6"), K, [(0,) * 20])


@pytest.mark.parametrize("name", ["D4", "A3"])
def test_classify_many_reads_any_iterable_once(name):
    # a generator or a map of rows gives the list's descriptors, and a row
    # of the wrong length inside one gives the list's message
    t, K = get_table(name), get_field(5)
    rows = half_sparse(random.Random(44), t.rs, 5, 40)
    want = classify_many(t, K, rows)
    assert classify_many(t, K, (x for x in rows)) == want
    assert classify_many(t, K, map(list, rows)) == want
    m = len(t.rs.phi1)
    bad = rows[:3] + [[0] * (m - 1)]
    with pytest.raises(ValueError) as listed:
        classify_many(t, K, bad)
    with pytest.raises(ValueError) as generated:
        classify_many(t, K, iter(bad))
    assert str(generated.value) == str(listed.value) == (
        f"level-1 vectors for {name} need {m} coefficients each")


@pytest.mark.parametrize("name", ["D4", "A2", "A3"])
@pytest.mark.parametrize("p", [3, 1009, 65521])
def test_classify_many_accepts_every_integer_dtype(name, p):
    # A2's code packs two raw coordinates, so an unreduced entry shows in
    # its descriptor; a narrow negative entry read as unsigned stays below
    # a large p and must still be reduced
    t = get_table(name)
    K = get_field(p)
    m = len(t.rs.phi1)
    rng = np.random.default_rng(p + m)
    for dtype in (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        rows = rng.integers(info.min, info.max, (30, m), dtype=dtype,
                            endpoint=True)
        rows[0], rows[1] = info.min, info.max
        rows[2] = rng.integers(0, min(p, info.max + 1), m)
        want = [classify(t, K, x) for x in rows.tolist()]
        assert classify_many(t, K, rows) == want, dtype
        assert classify_many(t, K, rows.tolist()) == want, dtype


def test_classify_many_widens_narrow_rows_chunk_by_chunk():
    # int8 rows are read a chunk at a time, as int64 rows are, not widened
    # to int64 as a whole first (2**16 rows of D5: 6.3 MB in int64)
    t = get_table("D5")
    K = get_field(3)
    wide = np.random.default_rng(8).integers(
        0, 3, (1 << 16, len(t.rs.phi1)), dtype=np.int64)
    narrow = wide.astype(np.int8)
    want = classify_many(t, K, wide)
    peak = {}
    for rows in (wide, narrow):
        tracemalloc.start()
        try:
            assert classify_many(t, K, rows) == want
            peak[rows.dtype.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak["int8"] < 2 * peak["int64"], peak


@pytest.mark.parametrize("name", ["D4", "A3"])
def test_classify_many_reads_bool_and_object_arrays(name):
    t = get_table(name)
    K = get_field(5)
    m = len(t.rs.phi1)
    rng = np.random.default_rng(m)
    flags = rng.integers(0, 2, (20, m)).astype(bool)
    flags[0], flags[1] = False, True
    # numpy's bool is not an index, so classify reads the rows as lists
    assert classify_many(t, K, flags) == [classify(t, K, x)
                                          for x in flags.tolist()]
    ints = np.empty((20, m), dtype=object)
    ints[...] = rng.integers(-10, 10**6, (20, m)).tolist()
    ints[0] = [2**70] * m
    assert ints.dtype == object and type(ints[1, 0]) is int
    assert classify_many(t, K, ints) == [classify(t, K, x) for x in ints]
    with pytest.raises(ValueError, match="integers"):
        classify_many(t, K, np.full((2, m), 0.5, dtype=object))


@pytest.mark.parametrize("name", ["D4", "A3"])
def test_classify_reads_numpy_bools_as_classify_many_does(name):
    t = get_table(name)
    K = get_field(5)
    m = len(t.rs.phi1)
    flags = np.random.default_rng(m + 1).integers(0, 2, (20, m)).astype(bool)
    flags[0], flags[1] = False, True
    many = classify_many(t, K, flags)
    assert [classify(t, K, x) for x in flags] == many  # rows of np.bool_
    assert [classify(t, K, list(x)) for x in flags] == many
    assert [classify(t, K, x.astype(np.int64)) for x in flags] == many
    for x in (np.full(m, 0.5), ["1"] * m, [np.True_] * (m - 1) + [1.0]):
        with pytest.raises(TypeError):
            classify(t, K, x)


@pytest.mark.parametrize("name", ["D4", "A4"])
def test_numpy_bools_count_as_0_and_1_at_every_entry_point(name):
    # np.bool_ entries, and bool lanes where lanes are accepted, give
    # exactly what the Python ints 0 and 1 give
    t = get_table(name)
    rs = t.rs
    K = get_field(5)
    m = len(rs.phi1)
    rng = np.random.default_rng(m)
    flags = rng.integers(0, 2, (6, m)).astype(bool)
    flags[0], flags[1] = False, True
    assert integral(np.True_) == 1 and type(integral(np.False_)) is int
    word = random_level0_word(random.Random(m), rs, 5, 4, min_len=4)
    for row in flags:
        x, ints = list(row), row.astype(int).tolist()
        assert type(x[0]) is np.bool_
        assert classify(t, K, x) == classify(t, K, ints)
        assert classify_many(t, K, [x]) == classify_many(t, K, [ints])
        assert (LieVector.from_v1(t, K, x).coeffs
                == LieVector.from_v1(t, K, ints).coeffs)
        assert act_on_v1(t, K, word, x) == act_on_v1(t, K, word, ints)
        assert state_of_vector(rs, 5, x) == state_of_vector(rs, 5, ints)
        if name[0] == "A":
            assert al_pair(rs, x) == al_pair(rs, ints)
        else:
            assert (associated_root_element(t, K, x).coeffs
                    == associated_root_element(t, K, ints).coeffs)
    lanes, int_lanes = list(flags.T), list(flags.T.astype(np.int64))
    assert np.array_equal(integral(lanes[0]), int_lanes[0])
    for got, want in zip(act_on_v1(t, K, word, lanes),
                         act_on_v1(t, K, word, int_lanes)):
        assert np.array_equal(got, want)
    if name[0] == "A":
        got, want = al_pair(rs, lanes), al_pair(rs, int_lanes)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert np.array_equal(g, w)


def test_classify_many_memory_does_not_grow_with_the_batch():
    t = get_table("D5")
    K = get_field(3)
    rng = np.random.default_rng(5)
    classify_many(t, K, rng.integers(0, 3, (100, 12)))  # fill the code maps
    extra = {}
    for n in (2**15, 2**17):
        rows = rng.integers(0, 3, (n, 12), dtype=np.int64)
        tracemalloc.start()
        try:
            got = classify_many(t, K, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == n
        extra[n] = peak - 8 * n  # the returned list holds 8 B per entry
    assert extra[2**17] <= extra[2**15] + 16 * 1024


def test_classify_many_frees_each_chunk_before_the_next():
    # a chunk's codes, as an array and as a list of ints, are dropped
    # before the next chunk is built: the traced peak above the result list
    # is the same for one chunk as for four (it grew by about 0.8 MB, one
    # chunk's list and array, on D5/F3)
    t = get_table("D5")
    K = get_field(3)
    rng = np.random.default_rng(6)
    classify_many(t, K, rng.integers(0, 3, (100, 12)))  # fill the code maps
    extra = {}
    for n in (2**14, 2**15, 2**16):
        rows = rng.integers(0, 3, (n, 12), dtype=np.int64)
        tracemalloc.start()
        try:
            got = classify_many(t, K, rows)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == n
        extra[n] = peak - held
        del got
    assert max(extra.values()) - min(extra.values()) <= 100 * 1024, extra


# -- classification ---------------------------------------------------------------


def test_classify_pinned_examples():
    t4 = get_table("D4")
    K3 = get_field(3)
    d = classify(t4, K3, quad_vector(t4.rs, (1, 2, 0, 0)))
    assert (d.label, dict(d.params)) == ("IIIa", {"rho_class": "2"})

    t3 = get_table("A3")
    K5 = get_field(5)
    d = classify(t3, K5, (0, 1, 2, 0))
    assert (d.label, dict(d.params)) == ("VI", {"c": 2})

    d = classify(t4, K3, quad_vector(t4.rs, (1, 1, 1, 1)))
    assert d.label == "V"
    assert dict(d.params) == {"k": 1, "rho_class": "1", "sigma_class": "1"}


def test_classify_label_ladder_d4():
    t = get_table("D4")
    K = get_field(3)
    rs = t.rs
    for coeffs, label in [
        ((0, 0, 0, 0), "I"),
        ((1, 0, 0, 0), "II"),
        ((1, 1, 0, 0), "IIIa"),
        ((1, 0, 1, 0), "IIIb"),
        ((1, 0, 0, 1), "IIIc"),
        ((1, 1, 1, 0), "IV"),
        ((1, 1, 1, 1), "V"),
    ]:
        assert classify(t, K, quad_vector(rs, coeffs)).label == label, coeffs


def test_classify_a_family_small_cases():
    K = get_field(3)
    t1 = get_table("A1")
    assert classify(t1, K, ()).label == "I"
    t2 = get_table("A2")
    assert classify(t2, K, (0, 0)).to_json()["label"] == "I"
    assert classify(t2, K, (0, 1)).label == "IIa"
    assert dict(classify(t2, K, (0, 1)).params) == {"rho": 1}
    assert classify(t2, K, (2, 0)).label == "IIb"
    assert dict(classify(t2, K, (2, 0)).params) == {"delta_minus_rho": 2}
    assert classify(t2, K, (1, 2)).label == "VI"


def test_classified_partition_matches_census_sizes():
    # Independent of crosscheck: classify every state directly and compare
    # the descriptor histogram with the BFS orbit sizes.
    from helpers import get_census

    for name, p in (("A3", 3), ("D4", 3)):
        t = get_table(name)
        K = get_field(p)
        m = len(t.rs.phi1)
        hist = Counter()
        for state in itertools.product(range(p), repeat=m):
            hist[classify(t, K, state)] += 1
        census = get_census(name, p)
        expected = {e.descriptor: e.size for e in census.orbits}
        assert dict(hist) == expected


def test_same_orbit_follows_descriptors_and_action():
    t = get_table("D4")
    K = get_field(3)
    rs = t.rs
    rng = random.Random(37)
    lvl0 = rs.phi0
    for _ in range(50):
        x = tuple(rng.randrange(3) for _ in rs.phi1)
        word = [(rng.choice(lvl0), rng.randrange(3)) for _ in range(3)]
        assert same_orbit(t, K, x, act_on_v1(t, K, word, x))
    assert not same_orbit(
        t, K, quad_vector(rs, (1, 0, 0, 0)), quad_vector(rs, (1, 1, 0, 0))
    )


def test_classify_is_action_invariant():
    for name, p in (("A4", 3), ("D5", 3)):
        t = get_table(name)
        K = get_field(p)
        rs = t.rs
        rng = random.Random(43)
        lvl0 = rs.phi0
        for _ in range(100):
            x = tuple(rng.randrange(p) for _ in rs.phi1)
            word = [(rng.choice(lvl0), rng.randrange(p)) for _ in range(4)]
            assert classify(t, K, x) == classify(t, K, act_on_v1(t, K, word, x))


# -- descriptors and canonical forms ----------------------------------------------


def test_descriptor_counts_match_pinned_censuses():
    for (name, p), count in EXPECTED_ORBITS.items():
        t = get_table(name)
        descs = all_descriptors(t, get_field(p))
        assert len(descs) == count, (name, p)
        assert len(set(descs)) == count
        assert descs[0].label == "I"


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A8", "D4", "D5",
                                  "D8"])
def test_orbit_count_is_the_length_of_the_descriptor_list(name):
    t = get_table(name)
    for p in (3, 5, 31):
        K = get_field(p)
        assert (orbitlab._classifier(t, K).orbit_count()
                == len(all_descriptors(t, K)))



def test_orbit_count_past_2_63():
    # A2 has p**2 orbits; len() of a range this long raises OverflowError
    p = 2**64 + 13
    clf = orbitlab._classifier(get_table("A2"), PrimeField(p))
    assert clf.orbit_count() == p * p


def test_descriptor_list_is_deterministic():
    t = get_table("D4")
    K = get_field(5)
    assert all_descriptors(t, K) == all_descriptors(t, K)


@pytest.mark.parametrize("enabled", [True, False])
def test_all_descriptors_restores_the_collector_state(monkeypatch, enabled):
    t, K = get_table("A3"), get_field(5)

    def broken(*args):
        raise RuntimeError("synthetic")
        yield

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(all_descriptors(t, K)) == EXPECTED_ORBITS["A3", 5]
        assert gc.isenabled() is enabled
        monkeypatch.setattr(orbitlab, "_descriptors_of_type", broken)
        with pytest.raises(RuntimeError, match="synthetic"):
            all_descriptors(t, K)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_descriptors_are_listed_without_copying_the_ranges():
    # the 13th descriptor of D4 is V(1), the first of a range of p - 1
    # values of k; itertools.product would copy that range first, about
    # 360 MB here (at p = 10**9 + 7 it would exhaust memory, not fail)
    t, p = get_table("D4"), 10_000_019
    clf = orbitlab._classifier(t, get_field(p))
    tracemalloc.start()
    try:
        first = list(itertools.islice(clf.descriptors(), 13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [d.label for d in first[-2:]] == ["IV", "V"]
    assert first[-1].param("k") == 1


# every orbit type of both families, each parameter over F_3 (nu = 2)
_CLS = ("1", "2")
PREDICTED_ORDER = {
    "A1": [("I", ())],
    "A2": [("I", ())]
    + [("IIa", (("rho", a),)) for a in (1, 2)]
    + [("IIb", (("delta_minus_rho", b),)) for b in (1, 2)]
    + [("VI", (("delta_minus_rho", b), ("rho", a)))
       for a in (1, 2) for b in (1, 2)],
    "A3": [("I", ()), ("IIa", ()), ("IIb", ())]
    + [("III", (("c", c),)) for c in (1, 2)]
    + [("VI", (("c", c),)) for c in (1, 2)],
    "A4": [("I", ()), ("IIa", ()), ("IIb", ()), ("III", ())]
    + [("VI", (("c", c),)) for c in (1, 2)],
    "D4": [("I", ()), ("II", ())]
    + [("IIIa", (("rho_class", r),)) for r in _CLS]
    + [("IIIb", (("sigma_class", r),)) for r in _CLS]
    + [("IIIc", (("tau_class", r),)) for r in _CLS]
    + [("IV", (("rho_class", r), ("sigma_class", s)))
       for r in _CLS for s in _CLS]
    + [("V", (("k", k), ("rho_class", "1"), ("sigma_class", "1")))
       for k in (1, 2)],
    "D5": [("I", ()), ("II", ())]
    + [("IIIa", (("rho_class", r),)) for r in _CLS]
    + [("IIIb", ())]
    + [("IV", (("rho_class", r),)) for r in _CLS]
    + [("V", (("k", k), ("rho_class", "1"))) for k in (1, 2)],
}


@pytest.mark.parametrize("name", sorted(PREDICTED_ORDER))
def test_predicted_orbit_order_is_pinned(name):
    descs = all_descriptors(get_table(name), get_field(3))
    assert [(d.label, d.params) for d in descs] == PREDICTED_ORDER[name]
    assert {(d.family + str(d.rank), d.p) for d in descs} == {(name, 3)}


def test_canonical_form_round_trips_every_descriptor():
    cases = list(CENSUS_CASES) + [("D4", 7), ("D5", 5), ("A2", 5), ("A4", 5)]
    for name, p in cases:
        t = get_table(name)
        K = get_field(p)
        for d in all_descriptors(t, K):
            x = canonical_form(t, K, d)
            assert len(x) == len(t.rs.phi1)
            assert classify(t, K, x) == d, (name, p, d)


# -- large primes, where brute force cannot reach ----------------------------------

# D4: I, II, IIIa/b/c x 2 square classes, IV x 4, one V per unit k.
# D5: I, II, IIIa x 2, IIIb, IV x 2, one V per unit k.
DESCRIPTOR_COUNT = {"D4": lambda p: p + 11, "D5": lambda p: p + 6}
LARGE_PRIME_CASES = [
    (name, p) for name in ("D4", "D5") for p in (1009, 4099, 9973)
]


# the pinned D cases tie the formula to the brute-force counts
@pytest.mark.parametrize(
    "name,p",
    [k for k in EXPECTED_ORBITS if k[0] in DESCRIPTOR_COUNT] + LARGE_PRIME_CASES,
)
def test_descriptor_count_formula(name, p):
    descs = all_descriptors(get_table(name), get_field(p))
    assert len(descs) == DESCRIPTOR_COUNT[name](p)
    if (name, p) in EXPECTED_ORBITS:
        assert len(descs) == EXPECTED_ORBITS[(name, p)]
    assert len(set(descs)) == len(descs)


@pytest.mark.parametrize("name,p", LARGE_PRIME_CASES)
def test_canonical_form_round_trips_at_large_primes(name, p):
    t = get_table(name)
    K = get_field(p)
    descs = all_descriptors(t, K)
    dark = [d for d in descs if d.label == "V"]
    rng = random.Random(p)
    sample = [d for d in descs if d.label != "V"] + rng.sample(dark, 50)
    for d in sample:
        assert classify(t, K, canonical_form(t, K, d)) == d, (name, p, d)


@pytest.mark.parametrize("name,p", LARGE_PRIME_CASES)
def test_classify_is_action_invariant_at_large_primes(name, p):
    t = get_table(name)
    K = get_field(p)
    rng = random.Random(7919 + p)
    for _ in range(100):
        x = random_v1(rng, t.rs, p)
        word = random_level0_word(rng, t.rs, p)
        gx = act_on_v1(t, K, word, x)
        assert classify(t, K, gx) == classify(t, K, x), (name, p, x, word)


@pytest.mark.parametrize(
    "name", [f"A{l}" for l in range(3, 9)] + [f"D{l}" for l in range(4, 9)])
def test_every_orbit_type_is_action_invariant_at_large_primes(name):
    """Every catalogue label, at p = 1009, 65521, 1,300,021 and 10**12 + 39,
    where batches of both families run the scalar code over Python ints:
    the canonical vector of each orbit type, with a few sampled values of
    each parameter that ranges over the units (V's k, family A's c), moved
    by random level-0 words, classifies back to its descriptor in one
    classify_many batch."""
    t = get_table(name)
    rs = t.rs
    for p in (1009, 65521, 1_300_021, 10**12 + 39):
        K = get_field(p)
        rng = random.Random(p + rs.rank)
        types = orbitlab._orbit_types(t, K)
        want = []
        for label, (params, _) in types.items():
            params = [(n, r if len(r) <= 2 else
                       (1, p - 1, *rng.sample(range(2, p - 1), 3)))
                      for n, r in params]
            for d in orbitlab._descriptors_of_type(rs, p, label, params):
                want += [d] * 8
        vectors = [
            act_on_v1(t, K, random_level0_word(rng, rs, p, 12, min_len=8),
                      canonical_form(t, K, d))
            for d in want
        ]
        got = classify_many(t, K, vectors)
        assert got == want, (name, p)
        assert {d.label for d in got} == set(types)
    assert lane_of(t, p) is None


def test_descriptor_json_round_trip():
    t = get_table("D4")
    K = get_field(3)
    for d in all_descriptors(t, K):
        assert OrbitDescriptor.from_json(d.to_json()) == d


@pytest.mark.parametrize("d,message", [
    ({"family": "D"}, "descriptor has no field 'rank'"),
    ({"rank": 4, "p": 5, "label": "I"}, "descriptor has no field 'family'"),
    ({"family": "D", "rank": 4, "label": "I"}, "descriptor has no field 'p'"),
    ({"family": "D", "rank": 4, "p": 5}, "descriptor has no field 'label'"),
    ({"family": "D", "rank": 4, "p": 5, "label": "V", "params": [["k", 1]]},
     "descriptor params is not a mapping"),
])
def test_descriptor_from_json_refuses_a_malformed_dict(d, message):
    with pytest.raises(InvalidDescriptor) as e:
        OrbitDescriptor.from_json(d)
    assert str(e.value) == message
    # raised by chevorbit itself, not by a dict or list method
    assert Path(e.traceback[-1].path).parent == Path(chevorbit.__file__).parent


def test_descriptor_hash_is_the_generated_one_in_every_process():
    d = OrbitDescriptor("D", 4, 5, "V", (("k", 2),))
    assert hash(d) == hash(("D", 4, 5, "V", (("k", 2),)))
    assert d == ("D", 4, 5, "V", (("k", 2),))  # a named tuple
    moved = d._replace(p=7)
    assert moved != d and hash(moved) == hash(("D", 4, 7, "V", (("k", 2),)))
    assert repr(d) == ("OrbitDescriptor(family='D', rank=4, p=5, label='V', "
                       "params=(('k', 2),))")
    assert d._asdict() == {"family": "D", "rank": 4, "p": 5,
                           "label": "V", "params": (("k", 2),)}
    # string hashes differ between processes, so an unpickled descriptor
    # must hash by its fields there, not carry this process's hash along
    script = ("import pickle, sys; d = pickle.loads(sys.stdin.buffer.read()); "
              "print(hash(d) == hash((d.family, d.rank, d.p, d.label, "
              "d.params)), d in {d: 0})")
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevorbit.__file__)))
    env = dict(os.environ, PYTHONPATH=src,
               PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1"
               else "1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          input=pickle.dumps(d), capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"True", b"True"]


def test_canonical_form_validates_descriptor_context():
    t = get_table("D4")
    K3, K5 = get_field(3), get_field(5)
    d = classify(t, K3, quad_vector(t.rs, (1, 1, 0, 0)))
    with pytest.raises(InvalidDescriptor):
        canonical_form(t, K5, d)  # field mismatch
    with pytest.raises(InvalidDescriptor):
        canonical_form(get_table("D5"), K3, d)  # system mismatch
    bogus = OrbitDescriptor(family="D", rank=4, p=3, label="XX", params=())
    with pytest.raises(InvalidDescriptor):
        canonical_form(t, K3, bogus)
    infinite = OrbitDescriptor.from_json(json.loads(
        '{"family": "D", "rank": 4, "p": 3, "label": "V", "params": '
        '{"k": Infinity, "rho_class": "1", "sigma_class": "1"}}'
    ))
    with pytest.raises(InvalidDescriptor, match="not an integer"):
        canonical_form(t, K3, infinite)


_LABELS = ("I", "II", "IIa", "IIb", "III", "IIIa", "IIIb", "IIIc", "IV",
           "V", "VI", "XX")
_PARAM_NAMES = ("rho", "delta_minus_rho", "c", "rho_class", "sigma_class",
                "tau_class", "k", "extra")
_BAD_VALUES = (0, -1, -1008, 3, 5, 1009, 10**400, -10**400, "1", "2", "x",
               "", None, float("inf"), float("-inf"), float("nan"))


@st.composite
def _descriptor_edits(draw):
    """(system, p, descriptor): a classified random vector's descriptor,
    then maybe a new label, a dropped, added or changed parameter."""
    name = draw(st.sampled_from(["A1", "A2", "A3", "A4", "D4", "D5"]))
    p = draw(st.sampled_from([3, 5, 1009]))
    t = get_table(name)
    x = draw(st.lists(st.integers(0, p - 1), min_size=len(t.rs.phi1),
                      max_size=len(t.rs.phi1)))
    d = classify(t, get_field(p), x).to_json()
    params = d["params"]
    if draw(st.integers(0, 3)) == 0:
        d["label"] = draw(st.sampled_from(_LABELS))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "set", "set own"]))
        if edit == "drop" and params:
            del params[draw(st.sampled_from(sorted(params)))]
        else:
            own = edit == "set own" and params
            key = draw(st.sampled_from(sorted(params) if own
                                       else _PARAM_NAMES))
            params[key] = draw(st.sampled_from(_BAD_VALUES)
                               | st.integers(1, p - 1))
    # through JSON, as the CLI reads descriptors: inf becomes Infinity
    return name, p, OrbitDescriptor.from_json(json.loads(json.dumps(d)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_descriptor_edits())
def test_canonical_form_names_its_orbit_or_raises_invalid_descriptor(case):
    name, p, d = case
    t, K = get_table(name), get_field(p)
    try:
        x = canonical_form(t, K, d)
    except InvalidDescriptor:
        return
    assert classify(t, K, x) == d


def test_classify_rejects_bad_inputs():
    t = get_table("D4")
    with pytest.raises(CharTwo):
        classify(t, PrimeField(2), (0,) * 8)
    with pytest.raises(ValueError):
        classify(t, get_field(3), (0,) * 5)
    with pytest.raises(UnsupportedFamily):
        classify(get_table("E6"), get_field(3), (0,) * len(get_system("E6").phi1))


# -- the A-family pair ------------------------------------------------------------


def test_al_pair_prefix_suffix_coefficients():
    rs = get_system("A3")
    # phi1 holds the level-1 roots; prefix sums alpha_1..alpha_j and suffix
    # sums alpha_{j+1}..alpha_l are exactly its members.
    u, v = al_pair(rs, (0, 1, 2, 0))
    assert u == (1, 0)
    assert v == (2, 0)
    u, v = al_pair(rs, (7, 11, 13, 17))
    assert u == (11, 17)  # coefficients at alpha_1 and alpha_1+alpha_2
    assert v == (13, 7)  # coefficients at alpha_2+alpha_3 and alpha_3


def test_al_pair_refuses_entries_that_are_not_integers():
    rs = get_system("A3")
    for x in ((0, 1.5, 2, 0), (0, 1, "2", 0), (0, 1, 2, 1.0)):
        with pytest.raises(TypeError):
            al_pair(rs, x)
    assert al_pair(rs, (np.int64(7), 11, np.int32(13), 17)) == ((11, 17),
                                                                (13, 7))
    u, v = al_pair(rs, [np.arange(3) + i for i in range(4)])
    assert [list(c) for c in u + v] == [[1, 2, 3], [3, 4, 5], [2, 3, 4],
                                        [0, 1, 2]]


def test_al_pair_scalar_is_action_invariant():
    rs = get_system("A4")
    t = get_table("A4")
    K = get_field(5)
    rng = random.Random(53)
    lvl0 = rs.phi0
    for _ in range(100):
        x = tuple(rng.randrange(5) for _ in rs.phi1)
        word = [(rng.choice(lvl0), rng.randrange(5)) for _ in range(3)]
        gx = act_on_v1(t, K, word, x)
        u1, v1 = al_pair(rs, x)
        u2, v2 = al_pair(rs, gx)
        assert sum(a * b for a, b in zip(u1, v1)) % 5 == sum(
            a * b for a, b in zip(u2, v2)
        ) % 5


# -- the scalar unit: values, errors and compiles ---------------------------------

PARITY_PRIMES = (3, 5, 1009, 4294967311)  # the last past 2**32, without lanes
SPECIALS = (np.True_, np.uint64(2**64 - 1), -1, 2**100)


def parity_vectors(clf, rng, n=200, per_type=64):
    """n uniform vectors, the canonical vectors of the first per_type
    descriptors of each orbit type (all of them at p = 3 and 5), vectors
    with SPECIALS entries or entries off by multiples of p, and the zero
    vector with one entry a nonzero multiple of p, as entry lists."""
    p, m = clf.p, clf.m
    vectors = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    for label, (params, _) in clf.types.items():
        vectors += [list(clf.canonical_vector(d)) for d in itertools.islice(
            orbitlab._descriptors_of_type(clf.rs, p, label, params), per_type)]
    shifts = (p, -p, p << 70)
    for _ in range(20):
        x, y = ([rng.randrange(p) for _ in range(m)] for _ in range(2))
        for i in rng.sample(range(m), min(m, 3)):
            x[i] = rng.choice(SPECIALS)
            y[i] += rng.choice(shifts)
        vectors += [x, y]
    vectors += [[0] * i + [rng.choice(shifts)] + [0] * (m - 1 - i)
                for i in range(m)]
    return vectors


def spellings(x):
    """x as a tuple, a list, a generator, and 1-D int8, uint64 and bool
    arrays, each beside the Python ints its entries stand for."""
    ints = [int(c) for c in x]
    yield "tuple", tuple(x), ints
    yield "list", list(x), ints
    yield "generator", (c for c in x), ints
    wide = np.array([c % 2**64 for c in ints], dtype=np.uint64)
    for form in (wide.astype(np.int8), wide, wide.astype(bool)):
        yield str(form.dtype), form, [int(c) for c in form]


@pytest.mark.parametrize("p", PARITY_PRIMES)
@pytest.mark.parametrize("name", [f"D{r}" for r in range(4, 9)]
                         + [f"A{r}" for r in range(2, 9)])
def test_scalar_classify_equals_the_decoded_code_in_every_spelling(name, p):
    # the value of classify on any spelling of a vector is the decode of the
    # code of its reduced Python ints; classify_many, on lanes wherever the
    # prime has them, gives the same descriptors from a separate spelling
    t = get_table(name)
    K = get_field(p)
    clf = orbitlab._classifier(t, K)
    rng = random.Random(f"{name}/{p}")
    cases = [(form, x, [c % p for c in ints])
             for v in parity_vectors(clf, rng) for form, x, ints in spellings(v)]
    reduced = list(dict.fromkeys(tuple(r) for _, _, r in cases))
    want = dict(zip(reduced, classify_many(t, K, reduced)))
    assert all(clf.decode(clf.code(list(r))) == d for r, d in want.items())
    for form, x, r in cases:
        assert classify(t, K, x) == want[tuple(r)], (form, r)
    if t.rs.family == "D":
        assert {d.label for d in want.values()} >= {"I", "II", "IV", "V"}


# the parent's messages, for every spelling of each bad vector
PARENT_ERRORS = [
    ("short", ValueError, "level-1 vector for {name} needs {m} coefficients, "
                          "got {short}"),
    ("long", ValueError, "level-1 vector for {name} needs {m} coefficients, "
                         "got {long}"),
    (1.5, TypeError, "'float' object cannot be interpreted as an integer"),
    (np.float64(2.0), TypeError,
     "'numpy.float64' object cannot be interpreted as an integer"),
    ("3", TypeError, "'str' object cannot be interpreted as an integer"),
    (None, TypeError, "'NoneType' object cannot be interpreted as an integer"),
    (np.array([1, 2]), TypeError,
     "only integer scalar arrays can be converted to a scalar index"),
    (np.array([True, False]), TypeError,
     "only integer scalar arrays can be converted to a scalar index"),
]


@pytest.mark.parametrize("p", [3, 4294967311])
@pytest.mark.parametrize("name", ["D4", "D6", "A2", "A5"])
def test_scalar_classify_refuses_bad_vectors_with_the_same_messages(name, p):
    t = get_table(name)
    K = get_field(p)
    m = len(t.rs.phi1)
    for bad, exc, message in PARENT_ERRORS:
        if isinstance(bad, str) and bad in ("short", "long"):
            x = [1] * (m - 1 if bad == "short" else m + 1)
        else:
            x = [2] * (m - 1) + [bad]
        text = message.format(name=name, m=m, short=m - 1, long=m + 1)
        for x in (x, tuple(x), iter(x)):
            with pytest.raises(exc) as info:
                classify(t, K, x)
            assert str(info.value) == text, (bad, type(x))


def test_kernel_compiles_one_unit_and_one_lane_code_per_table(monkeypatch):
    # one compile per spelling a table uses, whatever the number of primes:
    # compiling per prime or per root once took large_p's pass from 32 to
    # 42 ms, and that workload compiles D4 and D5 cold in every pass
    made = []

    def counted(source, filename, *args, **kwargs):
        made.append(filename)
        return compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(orbitlab, "compile", counted, raising=False)
    primes = (3, 5, 1009, 4294967311)
    for name in ("D4", "D5", "A3", "A5"):
        t = build_table_oracle(get_system(name))  # nothing compiled yet
        assert made == []
        rng = random.Random(name)
        for p in primes:
            K = get_field(p)
            x, y = random_v1(rng, t.rs, p), random_v1(rng, t.rs, p)
            d = classify(t, K, x)
            assert classify(t, K, canonical_form(t, K, d)) == d
            assert same_orbit(t, K, x, y) == (classify(t, K, y) == d)
        assert made == [f"<unit of {name}>"]
        assert predicted_census(t, 3)
        assert crosscheck(t, 3, pairs=1000)
        assert made == [f"<unit of {name}>", f"<lanes of {name}>"]
        # the batches of every prime run the one lane code (p = 4294967311
        # is past the int64 bound, so its batch runs the unit)
        for p in primes:
            K = get_field(p)
            xs = [random_v1(rng, t.rs, p) for _ in range(20)]
            assert classify_many(t, K, xs) == [classify(t, K, x) for x in xs]
        assert made == [f"<unit of {name}>", f"<lanes of {name}>"]
        made.clear()


def a_reference(clf, x):
    """Family A's second spelling: decode of the kernel's lanes, called on
    the entries reduced as Python ints, or the error reduced raises for
    them."""
    return clf.decode(clf.lanes(clf.reduced(x)))


def lane_codes(clf, vectors):
    """The codes of vectors by the kernel's lanes, called on lane arrays of
    the classifier's dtype."""
    rows = np.array(vectors, dtype=clf.lane).reshape(len(vectors), clf.m)
    return np.broadcast_to(clf.lanes(list(rows.T)), len(rows)).tolist()


def outcome(f):
    """f()'s value, or the type and message of what it raises."""
    try:
        return f()
    except Exception as e:  # compared, not swallowed
        return type(e), str(e)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_family_a_unit_equals_the_decoded_code_on_every_state(name, p):
    # A1 has no level-1 pair, and family A is classified over F_2 too
    t = get_table(name)
    K = get_field(p)
    clf = orbitlab._classifier(t, K)
    labels = set()
    states = list(itertools.product(range(p), repeat=len(t.rs.phi1)))
    for x in states:
        d = a_reference(clf, x)
        assert classify(t, K, x) == d, x
        assert clf.code(x) == clf.lanes(x), x
        labels.add(d.label)
    assert labels == {label for label, _ in clf.labels.values()}
    assert lane_codes(clf, states) == [clf.code(x) for x in states]


@pytest.mark.parametrize("p", [3, 1009, 2**31 - 1])
@pytest.mark.parametrize("name", ["A5", "A6", "A7", "A8"])
def test_family_a_unit_equals_the_decoded_code_on_seeded_vectors(name, p):
    # 10**4 vectors, sparse and dense, a third of them moved onto s = 0 so
    # that III is reached at every p
    t = get_table(name)
    K = get_field(p)
    clf = orbitlab._classifier(t, K)
    iu, iv = orbitlab._al_indices(t.rs)
    rng = random.Random(f"{name}/{p}")
    labels = Counter()
    vectors = []
    for _ in range(10**4):
        density = rng.choice((0.1, 0.5, 1.0))
        x = [rng.randrange(p) if rng.random() < density else 0
             for _ in t.rs.phi1]
        if rng.random() < 1 / 3 and x[iu[-1]]:
            s = sum(x[i] * x[j] for i, j in zip(iu[:-1], iv[:-1]))
            x[iv[-1]] = -s * pow(x[iu[-1]], -1, p) % p
        d = a_reference(clf, x)
        assert classify(t, K, x) == d, x
        assert clf.code(x) == clf.lanes(x), x
        labels[d.label] += 1
        vectors.append(x)
    assert set(labels) == {"I", "IIa", "IIb", "III", "VI"}, labels
    if clf.lane is not None:  # p = 2**31 - 1 is past the int64 bound
        assert lane_codes(clf, vectors) == [clf.code(x) for x in vectors]


@pytest.mark.parametrize("p", [3, 2**31 - 1])
@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A5"])
def test_family_a_unit_reads_and_refuses_what_the_reduced_path_does(name, p):
    # numpy ints and bools, negative and unreduced ints, iterators, wrong
    # lengths and entries that are not integers: the unit's value, or the
    # type and message of its error, is that of decode(lanes(reduced(x)))
    t = get_table(name)
    K = get_field(p)
    clf = orbitlab._classifier(t, K)
    m = len(t.rs.phi1)
    rng = random.Random(name)
    forms = []
    for _ in range(20):
        x = [rng.choice((0, 1, rng.randrange(p))) for _ in range(m)]
        forms += [
            [np.int64(c) for c in x], [np.uint64(c) for c in x],
            [np.bool_(c % 2) for c in x], np.array(x) % 2 == 1,
            np.array(x, dtype=np.int64), [c - p for c in x],
            [c + 5 * p for c in x], [c + 2**70 * p for c in x],
        ]
    for bad in (1.5, "3", None, np.float64(2.0), np.array([1, 2])):
        forms += [[bad] + [1] * (m - 1), [1] * (m - 1) + [bad]][:m or 1]
    forms += [[1] * (m - 1), [1] * (m + 1), [0.5] * (m + 1), []]
    for x in forms:
        for spell in (list, tuple, iter):
            want = outcome(lambda: a_reference(clf, spell(x)))
            assert outcome(lambda: classify(t, K, spell(x))) == want, x
            if isinstance(want, OrbitDescriptor):
                assert clf.code(spell(x)) == clf.lanes(clf.reduced(x)), x


def test_family_a_compiles_one_unit_per_table(monkeypatch):
    # one compile of the unit across 16 primes of one table, and one closure
    # per prime
    made = []

    def counted(source, filename, *args, **kwargs):
        made.append(filename)
        return compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(orbitlab, "compile", counted, raising=False)
    t = build_table_oracle(get_system("A5"))  # nothing compiled yet
    rng = random.Random(5)
    primes = [p for p in range(1009, 1200) if is_prime(p)][:16]
    for p in primes:
        K = get_field(p)
        x = random_v1(rng, t.rs, p)
        d = classify(t, K, x)
        assert classify(t, K, canonical_form(t, K, d)) == d
    assert made == ["<unit of A5>"]
    clfs = [orbitlab._classifier(t, get_field(p)) for p in primes]
    assert len({id(c.kernel) for c in clfs}) == 1
    assert len({id(c.classify) for c in clfs}) == 16


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "D7", "D8"])
def test_lift_blocks_move_by_sl2_conjugation_over_polynomials(name):
    # link 2: each block [[c, u], [w, -c]] of lift(x_gamma(t) . x) is the
    # block of lift(x) conjugated by 1, [[1, s t], [0, 1]] or
    # [[1, 0], [s t, 1]] for a small integer s, over Q[t, x], so mod every
    # odd p; such a conjugation keeps the block's sl2 invariant
    table = get_table(name)
    P, x, t, moved = generic_polynomials(table)
    blocks = orbitlab._kernel_plan(table)[-1]
    y = associated_root_element(table, P, x).coeffs

    def conjugates(c, u, w):
        """(kind, s) -> the conjugated (c, u, w)."""
        out = {("1", 0): (c, u, w)}
        for s in (-2, -1, 1, 2):
            a = P.mul(P.of(s), t)
            aa = P.mul(a, a)
            two_a = P.mul(P.of(2), a)
            out["upper", s] = (P.add(c, P.mul(a, w)),
                               P.sub(P.sub(u, P.mul(two_a, c)), P.mul(aa, w)),
                               w)
            out["lower", s] = (P.sub(c, P.mul(a, u)), u,
                               P.sub(P.add(w, P.mul(two_a, c)), P.mul(aa, u)))
        return out

    kinds = Counter()
    for g, gx in moved.items():
        y2 = associated_root_element(table, P, gx).coeffs
        for keys in blocks:
            got = tuple(y2[k] for k in keys)
            hits = [kind for kind, cuw in conjugates(*(y[k] for k in keys))
                    .items() if cuw == got]
            assert hits, (g, keys)
            kinds[hits[0][0]] += 1
    # every block is moved, by an upper and by a lower conjugation
    assert kinds["upper"] >= len(blocks) and kinds["lower"] >= len(blocks)
    assert sum(kinds.values()) == len(blocks) * len(moved)
