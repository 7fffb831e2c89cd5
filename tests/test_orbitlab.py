"""Orbit-classifier tests: the lift, luminosity, block invariants,
descriptors, canonical forms, and validation errors."""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chevorbit
from chevorbit import (
    ArrayField,
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
    build_table_oracle,
    canonical_form,
    classify,
    classify_many,
    luminosity,
    same_orbit,
    sl2_invariant,
    sl2_invariant_matrix,
    standard_quadruple,
    w_apply_fast,
    z_blocks,
    ZBlock,
)
from chevorbit import orbitlab
from chevorbit.orbitlab import _invariant_code
from helpers import (
    CENSUS_CASES,
    EXPECTED_ORBITS,
    classify_a_reference,
    get_field,
    get_system,
    get_table,
    pack_profile,
    random_level0_word,
    random_v1,
)


def quad_vector(rs, coeffs):
    """V1 vector with the given coefficients on the standard quadruple."""
    lam, rho, sig, tau = standard_quadruple(rs)
    out = [0] * len(rs.phi1)
    for r, c in zip((lam, rho, sig, tau), coeffs):
        out[rs.phi1_index(r)] = c
    return tuple(out)


# -- the lift ---------------------------------------------------------------------


def test_lift_rejects_wrong_family_char_and_shape():
    K = get_field(3)
    with pytest.raises(UnsupportedFamily):
        associated_root_element(get_table("A3"), K, (0, 0, 0, 0))
    with pytest.raises(CharTwo):
        associated_root_element(get_table("D4"), PrimeField(2), (0,) * 8)
    with pytest.raises(ValueError):
        associated_root_element(get_table("D4"), K, (1, 2))


def test_lift_order_must_be_a_permutation():
    t = get_table("D4")
    K = get_field(3)
    x = (1, 0, 2, 0, 1, 0, 0, 2)
    with pytest.raises(ValueError):
        associated_root_element(t, K, x, order=[0, 0, 1, 2, 3, 4, 5, 6])


def test_lift_postconditions_survive_optimized_mode():
    # python -O strips assert statements; the lift's checks must still fire
    script = textwrap.dedent("""
        import chevorbit.orbitlab as ol
        from chevorbit import (
            ArrayField, ClassificationError, PrimeField, build_root_system,
            build_table_oracle,
        )
        import numpy as np
        ol.apply_root_element = lambda table, g, t, v: v
        table = build_table_oracle(build_root_system("D", 4))
        # a single vector, then a batch of five in lanes
        for K, x in ((PrimeField(5), (1,) * 8),
                     (ArrayField(5), [np.arange(5)] * 8)):
            try:
                ol.associated_root_element(table, K, x)
            except ClassificationError:
                print("raised")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevorbit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]


def test_lift_level_support_is_bounded():
    t = get_table("D5")
    K = get_field(5)
    rng = random.Random(13)
    for _ in range(50):
        x = tuple(rng.randrange(5) for _ in t.rs.phi1)
        y = associated_root_element(t, K, x)
        assert y.level_support() <= {-2, -1, 0, 1, 2}
        assert y.e_coeff(t.rs.delta) == 1


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
    lanes = [c.astype(orbitlab._lane(p)) for c in X.T]
    y = associated_root_element(t, ArrayField(p), lanes)
    want = np.array([associated_root_element(t, K, x).coeffs
                     for x in X.tolist()])
    got = np.stack([np.broadcast_to(c, (n,)) for c in y.coeffs], axis=1)
    assert np.array_equal(got, want)
    # LieVector equality compares batch vectors lane by lane
    assert y == associated_root_element(t, ArrayField(p), lanes)
    lanes[2] = lanes[2].copy()
    lanes[2][-1] = (lanes[2][-1] + 1) % p
    assert y != associated_root_element(t, ArrayField(p), lanes)


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


# -- the invariant kernel ---------------------------------------------------------


@pytest.mark.parametrize(
    "name,p",
    [("D4", 3), ("D4", 5), ("D5", 3), ("D6", 3), ("D4", 1009), ("D5", 1009)],
)
def test_invariant_code_matches_reference_invariants(name, p):
    t = get_table(name)
    K = get_field(p)
    rs = t.rs
    if (name, p) == ("D4", 3):
        vectors = list(itertools.product(range(p), repeat=len(rs.phi1)))
    else:
        rng = random.Random(31 * p + rs.rank)
        # half uniform (mostly dark) and half sparse, so that every
        # luminosity and both nilpotent square classes occur at large p too
        vectors = [random_v1(rng, rs, p) for _ in range(1000)]
        vectors += [
            tuple(c if rng.random() < 0.3 else 0 for c in random_v1(rng, rs, p))
            for _ in range(1000)
        ]
    want, scalar = [], []
    for x in vectors:
        y = associated_root_element(t, K, x)
        invs = tuple(sl2_invariant(K, z) for z in z_blocks(t, K, y))
        want.append(pack_profile(p, luminosity(rs, y), invs))
        scalar.append(_invariant_code(t, p, y))
    assert scalar == want
    columns = list(np.array(vectors, dtype=np.int64).T)
    y = associated_root_element(t, ArrayField(p), columns)
    batch = np.broadcast_to(_invariant_code(t, p, y), (len(vectors),))
    assert batch.tolist() == want
    radix = (p + 2) ** len(block_gammas(rs))
    assert {c // radix for c in want} == {0, 1, 2, 3, 4}


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
    scalar = [orbitlab._code_of(t, K, x) for x in vectors]
    columns = list(np.array(vectors, dtype=np.int64).T)
    batch = np.broadcast_to(orbitlab._code_of(t, ArrayField(p), columns),
                            (len(vectors),))
    assert batch.tolist() == scalar
    labels = {d.label for d in want}
    assert labels == {"I", "IIa", "IIb", "VI"} | ({"III"} if rs.rank > 2 else set())
    if rs.rank == 3:
        u1_zero = {al_pair(rs, x)[0][0] == 0
                   for x, d in zip(vectors, want) if d.label == "III"}
        assert u1_zero == {True, False}


def test_classify_holds_no_memory_per_vector():
    t = get_table("D4")
    K = get_field(5)
    rng = random.Random(3000)
    vectors = list(dict.fromkeys(random_v1(rng, t.rs, 5) for _ in range(3100)))
    vectors = vectors[:3000]
    assert len(vectors) == 3000
    for d in all_descriptors(t, K):  # fill the per-table code maps first
        classify(t, K, canonical_form(t, K, d))
    held = {}
    tracemalloc.start()
    try:
        for i, x in enumerate(vectors, 1):
            classify(t, K, x)
            if i in (1000, 3000):
                gc.collect()  # also empties the interpreter's free lists
                held[i] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held[3000] < 16 * 1024
    assert held[3000] - held[1000] < 4 * 1024


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


def test_classify_raises_when_no_canonical_code_matches(monkeypatch):
    rs = get_system("D4")
    t = build_table_oracle(rs)  # private code maps, free to tamper with
    K = get_field(3)
    x = quad_vector(rs, (1, 1, 0, 0))
    d = classify(t, K, x)
    codes = orbitlab._canonical_codes(t, K)
    del codes[next(c for c, e in codes.items() if e == d)]
    with pytest.raises(ClassificationError, match="matches no canonical"):
        classify(t, K, x)
    # V(k) is accepted only when its canonical vector has the same code
    monkeypatch.setattr(orbitlab, "_canonical_vector",
                        lambda t, K, d: quad_vector(t.rs, (1, 1, 1, 2)))
    with pytest.raises(ClassificationError, match="matches no canonical"):
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


@pytest.mark.parametrize("name", ["D4", "A3"])
def test_classify_many_uses_object_lanes_past_int64(name):
    p = 1_300_021  # 5 (p + 2)**3 > 2**63: int64 lanes could wrap
    assert 5 * (p + 2) ** 3 > 2**63 and orbitlab._lane(p) is object
    t = get_table(name)
    K = get_field(p)
    vectors = half_sparse(random.Random(p), t.rs, p, 200)
    assert classify_many(t, K, vectors) == [classify(t, K, x) for x in vectors]


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
    for bad in (np.full((2, 8), 0.5), good + [(1,) * 7 + (2**70,)]):
        with pytest.raises(ValueError, match="integers"):
            classify_many(t, K, bad)
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
    with pytest.raises(UnsupportedFamily):
        classify_many(get_table("E6"), K, [(0,) * 20])


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


def test_descriptor_json_round_trip():
    t = get_table("D4")
    K = get_field(3)
    for d in all_descriptors(t, K):
        assert OrbitDescriptor.from_json(d.to_json()) == d


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
