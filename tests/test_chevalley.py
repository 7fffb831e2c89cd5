"""Structure-constant table tests: hand values, identities, the closed-form
computation, and corruption detection."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from chevorbit import (
    InconsistentTable,
    JacobiViolation,
    StructureConstantTable,
    UndefinedPair,
    build_root_system,
    build_table_oracle,
    jacobi_check,
    min_subtractable_index,
    sign_rule,
    simple_index,
    structure_constant_fast,
    verify_table,
)
from chevorbit.chevalley import (
    _all_triples,
    _bracket_arrays,
    _jacobi_defect,
    _jacobi_fails,
    _sampled_triples,
    _sum_table,
)
from helpers import ALL_SYSTEMS, get_system, get_table


def test_a2_hand_computed_values():
    t = get_table("A2")
    rs = t.rs
    a1, a2, g = (1, 0), (0, 1), (1, 1)
    N = t.structure_constant
    assert N(a1, a2) == 1  # the positivity seed for gamma = a1 + a2
    assert N(a2, a1) == -1  # antisymmetry
    assert N(rs.neg(a1), rs.neg(a2)) == -1  # negation flips the sign
    # rotation through a1 + a2 - g = 0
    assert N(a2, rs.neg(g)) == 1
    assert N(rs.neg(g), a1) == 1
    assert N(g, rs.neg(a2)) == 1
    # rotation through (-a2) + g + (-a1) = 0
    assert N(rs.neg(a2), g) == -1


def test_all_values_are_signs():
    for name in ("A3", "D4", "E6"):
        t = get_table(name)
        rs = t.rs
        for i, j in t.defined_pairs():
            assert t.structure_constant(rs.roots[i], rs.roots[j]) in (-1, 1)


def test_positivity_seeds_hold_everywhere():
    for name in ALL_SYSTEMS:
        t = get_table(name)
        rs = t.rs
        for g in rs.positive_roots:
            if simple_index(g) is not None:
                continue
            j = min_subtractable_index(rs, g)
            assert t.structure_constant(rs.simple(j), rs.sub(g, rs.simple(j))) == 1


def test_undefined_pairs_raise():
    t = get_table("A2")
    with pytest.raises(UndefinedPair):
        t.structure_constant((1, 0), (1, 0))  # sum not a root
    with pytest.raises(UndefinedPair):
        t.structure_constant((1, 0), (-1, 0))  # sum zero: bracket is an h, not an N


def test_closed_form_matches_oracle_on_every_defined_pair():
    for name in ALL_SYSTEMS:
        t = get_table(name)
        rs = t.rs
        memo: dict = {}
        for i, j in t.defined_pairs():
            a, b = rs.roots[i], rs.roots[j]
            assert structure_constant_fast(rs, a, b, memo) == t.structure_constant(
                a, b
            ), (name, a, b)


def test_sign_rule_direction():
    # The rule itself: -1 exactly when the simple index exceeds every index
    # in the support of beta.
    rs = get_system("A3")
    t = get_table("A3")
    for beta in rs.positive_roots:
        support = [i + 1 for i, c in enumerate(beta) if c]
        for i in range(1, 4):
            if not rs.is_positive(rs.add(beta, rs.simple(i))):
                continue
            expected = -1 if i > max(support) else 1
            assert sign_rule(rs, i, beta) == expected
            assert t.structure_constant(rs.simple(i), beta) == expected


def test_verify_table_counts():
    stats = verify_table(get_table("D4"))
    rs = get_system("D4")
    assert stats["seeds"] == rs.n_positive - rs.rank
    assert stats["defined_pairs"] > 0


def test_verify_table_detects_corruption():
    # Build a private copy, then flip a single sign without touching its
    # antisymmetric mirror: every identity family should notice.
    t = build_table_oracle(build_root_system("A", 3))
    rs = t.rs
    i, j = map(int, t.defined_pairs()[0])
    t._nt[i, j] = -t._nt[i, j]
    with pytest.raises(InconsistentTable):
        verify_table(t)


def test_verify_table_detects_symmetric_corruption():
    # Flip a sign together with its mirror so antisymmetry still holds: the
    # rotation / associativity checks must catch it instead.
    t = build_table_oracle(build_root_system("D", 4))
    rs = t.rs
    g = rs.delta
    j = min_subtractable_index(rs, g)
    a = rs.simple(j)
    b = rs.sub(g, a)
    ia, ib = rs.root_id(a), rs.root_id(b)
    t._nt[ia, ib] = -t._nt[ia, ib]
    t._nt[ib, ia] = -t._nt[ib, ia]
    with pytest.raises(InconsistentTable):
        verify_table(t)


def test_jacobi_exhaustive_small_system():
    report = jacobi_check(get_table("A2"))
    assert report == {"mode": "exhaustive", "triples": 56}  # C(8, 3)


def test_jacobi_sampled_large_system():
    report = jacobi_check(get_table("E7"), samples=2000, seed=5)
    assert report["mode"] == "sampled"
    assert report["triples"] == 2000


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_jacobi_exhaustive_on_every_system(name):
    t = get_table(name)
    m = t.n_basis
    report = jacobi_check(t, exhaustive_limit=m)
    assert report == {"mode": "exhaustive", "triples": m * (m - 1) * (m - 2) // 6}


def test_jacobi_rejects_negative_samples():
    with pytest.raises(ValueError):
        jacobi_check(get_table("E7"), samples=-5)
    assert jacobi_check(get_table("E7"), samples=0) == {"mode": "sampled",
                                                        "triples": 0}


def _negated_pair(name: str) -> tuple[StructureConstantTable, int, int]:
    """A copy of name's table with a seeded pair N[i, j], N[j, i] negated:
    antisymmetric still, but no longer a Lie bracket."""
    t = get_table(name)
    pairs = t.defined_pairs()
    i, j = map(int, pairs[random.Random(name).randrange(len(pairs))])
    nt = t._nt.copy()
    nt[i, j] = -nt[i, j]
    nt[j, i] = -nt[j, i]
    return (StructureConstantTable(t.rs, nt, t._sum, t._neg, t._instances,
                                   t.stats), i, j)


@pytest.mark.parametrize("name", ALL_SYSTEMS[1:])
def test_jacobi_catches_a_negated_antisymmetric_pair(name):
    t, _, _ = _negated_pair(name)
    with pytest.raises(JacobiViolation):
        jacobi_check(t, exhaustive_limit=t.n_basis)


@pytest.mark.parametrize("name", ALL_SYSTEMS[1:])
def test_jacobi_verdict_matches_scalar_defect(name):
    # Half the keys come from around the negated pair, so the corrupted
    # table fails on many probes: e-terms, coroot sums and Cartan keys.
    bad, i, j = _negated_pair(name)
    n, m = bad.n_roots, bad.n_basis
    s = int(bad._sum[i, j])
    near = [i, j, s, *(int(bad._neg[k]) for k in (i, j, s)), *range(n, m)]
    rng = random.Random(7)
    triples = [tuple(rng.choice(near) if rng.random() < 0.5 else rng.randrange(m)
                     for _ in range(3)) for _ in range(1500)]
    x, y, z = (np.array(k) for k in zip(*triples))
    for t in (get_table(name), bad):
        want = [bool(_jacobi_defect(t, *k)) for k in triples]
        assert _jacobi_fails(_bracket_arrays(t), x, y, z).tolist() == want
    assert any(want)


def _first_failure(t, triples) -> str:
    for k in triples:
        defect = _jacobi_defect(t, *k)
        if defect:
            return f"{t.rs.name}: Jacobi fails on basis triple {k}: {defect}"
    raise AssertionError("no failing triple")


def test_jacobi_violation_names_the_first_failing_triple():
    t, _, _ = _negated_pair("D4")
    want = _first_failure(t, itertools.combinations(range(t.n_basis), 3))
    with pytest.raises(JacobiViolation) as exc:
        jacobi_check(t)
    assert str(exc.value) == want

    t, _, _ = _negated_pair("A4")
    drawn = (tuple(map(int, k)) for chunk in _sampled_triples(t.n_basis, 5000, 11)
             for k in zip(*chunk))
    want = _first_failure(t, drawn)
    with pytest.raises(JacobiViolation) as exc:
        jacobi_check(t, exhaustive_limit=0, samples=5000, seed=11)
    assert str(exc.value) == want


@pytest.mark.parametrize("m", [3, 4, 7])
def test_sampled_triples_cover_every_ordered_triple_of_distinct_keys(m):
    chunks = list(_sampled_triples(m, 3 * 2**14 + 5, seed=3))
    assert [x.size for x, _, _ in chunks] == [2**14] * 3 + [5]
    drawn = set(zip(*(np.concatenate(k).tolist() for k in zip(*chunks))))
    assert drawn == set(itertools.permutations(range(m), 3))


def test_exhaustive_triples_are_the_combinations_in_order():
    for m in (3, 8, 30):
        got = [k for chunk in _all_triples(m) for k in zip(*(c.tolist() for c in chunk))]
        assert got == list(itertools.combinations(range(m), 3))
    sizes = [x.size for x, _, _ in _all_triples(248)]
    assert max(sizes) == 2**14 and sum(sizes) == 248 * 247 * 246 // 6


def test_oracle_stats_shape():
    t = get_table("A4")
    for key in ("roots", "defined_pairs", "pair_orbits", "seeds", "rounds"):
        assert key in t.stats
    assert t.stats["roots"] == 20


# roots, defined_pairs, pair_orbits, instances, seeds, rounds
ORACLE_STATS = {
    "A1": (2, 0, 0, 0, 0, 0),
    "A2": (6, 12, 1, 0, 1, 0),
    "A3": (12, 48, 4, 48, 3, 1),
    "A4": (20, 120, 10, 240, 6, 2),
    "A5": (30, 240, 20, 720, 10, 2),
    "A6": (42, 420, 35, 1680, 15, 3),
    "A7": (56, 672, 56, 3360, 21, 3),
    "A8": (72, 1008, 84, 6048, 28, 3),
    "D4": (24, 192, 16, 576, 8, 2),
    "D5": (40, 480, 40, 2400, 15, 3),
    "D6": (60, 960, 80, 6720, 24, 3),
    "D7": (84, 1680, 140, 15120, 35, 4),
    "D8": (112, 2688, 224, 29568, 48, 4),
    "E6": (72, 1440, 120, 12960, 30, 4),
    "E7": (126, 4032, 336, 60480, 56, 5),
    "E8": (240, 13440, 1120, 362880, 112, 5),
    "A16": (272, 8160, 680, 114240, 120, 4),
    "D16": (480, 26880, 2240, 725760, 224, 5),
}


@pytest.mark.parametrize("name", ORACLE_STATS)
def test_oracle_stats_are_pinned(name):
    stats = get_table(name).stats
    keys = ("roots", "defined_pairs", "pair_orbits", "instances", "seeds",
            "rounds")
    assert tuple(stats[k] for k in keys) == ORACLE_STATS[name]
    assert stats["pair_orbits"] * 12 == stats["defined_pairs"]


def test_table_key_layout():
    t = get_table("A2")
    rs = t.rs
    n = t.n_roots
    assert n == 6
    assert t.n_basis == 8
    assert {t.e_key(r) for r in rs.roots} == set(range(n))
    assert [t.h_key(i) for i in (1, 2)] == [n, n + 1]


def test_bracket_keys_for_opposite_roots_give_coroot():
    for name in ("A3", "D4"):
        t = get_table(name)
        rs = t.rs
        for a in rs.positive_roots:
            items = dict(t.bracket_keys(t.e_key(a), t.e_key(rs.neg(a))))
            h_coeffs = [items.get(t.h_key(i), 0) for i in range(1, rs.rank + 1)]
            assert tuple(h_coeffs) == a  # [e_a, e_-a] = h_a, coordinates of a
            assert all(k >= t.n_roots for k in items)


def test_bracket_keys_h_action_is_the_pairing():
    t = get_table("D4")
    rs = t.rs
    for i in range(1, rs.rank + 1):
        for b in rs.roots[:8]:
            items = t.bracket_keys(t.h_key(i), t.e_key(b))
            expected = rs.pair(b, rs.simple(i))
            if expected == 0:
                assert items == ()
            else:
                assert items == ((t.e_key(b), expected),)


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("A16", "D16"))
def test_sum_table_matches_brute_force(name):
    rs = get_system(name)
    want = np.full((len(rs.roots), len(rs.roots)), -1, dtype=np.int64)
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            s = rs.add(a, b)
            if rs.is_root(s):
                want[i, j] = rs.root_id(s)
    assert np.array_equal(_sum_table(rs), want)
