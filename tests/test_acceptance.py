"""Acceptance suite: one test per pinned criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Every check here is exact integer / finite-field arithmetic; the
timed criteria assert their wall-clock budgets.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np

import helpers
from chevorbit import (
    associated_root_element,
    act_on_v1,
    al_pair,
    apply_word,
    build_root_system,
    build_table_oracle,
    canonical_form,
    classify,
    crosscheck,
    enumerate_orbits,
    jacobi_check,
    luminosity,
    min_subtractable_index,
    sign_rule,
    simple_index,
    sl2_invariant,
    sl2_invariant_matrix,
    standard_quadruple,
    verify_table,
    w_apply_fast,
    w_word,
    z_blocks,
    LieVector,
)
from helpers import ALL_SYSTEMS, CENSUS_CASES, EXPECTED_ORBITS, get_field, get_table


def _report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS — {text}")


def test_criterion_01_structure_constant_identity_suite():
    """Oracle tables for all 16 systems pass every defining identity plus
    the Jacobi identity, within 60 seconds total."""
    t0 = time.perf_counter()
    jacobi_modes = {}
    for name in ALL_SYSTEMS:
        family, rank = name[0], int(name[1:])
        rs = build_root_system(family, rank)
        table = build_table_oracle(rs)
        stats = verify_table(table)  # raises InconsistentTable on any violation
        if rank >= 2:
            assert stats["defined_pairs"] > 0
        assert stats["seeds"] == rs.n_positive - rank  # one seed per non-simple positive
        jstats = jacobi_check(table)
        jacobi_modes[name] = jstats["mode"]
        helpers.seed_table(name, table)
    elapsed = time.perf_counter() - t0
    # Exhaustive triple check everywhere it is feasible; the two largest
    # systems fall back to >=10^5 sampled triples.
    assert jacobi_modes["E7"] == "sampled"
    assert jacobi_modes["E8"] == "sampled"
    for name in ("A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"):
        assert jacobi_modes[name] == "exhaustive", name
    assert elapsed <= 60.0, f"identity suite took {elapsed:.1f}s (budget 60s)"
    _report(1, f"16 systems verified + Jacobi in {elapsed:.2f}s")


def test_criterion_02_closed_form_sign_rule_matches_table():
    """The closed-form sign rule reproduces the oracle constant on every
    (i, beta) with beta and beta+alpha_i positive, all systems, within 10s."""
    t0 = time.perf_counter()
    pairs = 0
    for name in ALL_SYSTEMS:
        table = get_table(name)
        rs = table.rs
        for beta in rs.positive_roots:
            for i in range(1, rs.rank + 1):
                if rs.is_positive(rs.add(beta, rs.simple(i))):
                    assert sign_rule(rs, i, beta) == table.structure_constant(
                        rs.simple(i), beta
                    ), (name, i, beta)
                    pairs += 1
    elapsed = time.perf_counter() - t0
    # One pair per (non-simple positive gamma, subtractable index) across the
    # 16 systems: 824 in total.
    assert pairs == 824, pairs
    assert elapsed <= 10.0, f"sign-rule sweep took {elapsed:.1f}s (budget 10s)"
    _report(2, f"{pairs} (i, beta) pairs agree in {elapsed:.2f}s")


def test_criterion_03_quadruple_block_constant_products():
    """The two D_4 four-constant products are +1 with every factor -1, and
    the D_l (l=5..8) product is +1 with factors (-1, +1, -1, +1)."""
    for l in (4, 5, 6, 7, 8):
        table = get_table(f"D{l}")
        rs = table.rs
        N = table.structure_constant
        lam, rho, sig, tau = standard_quadruple(rs)
        d = rs.delta
        ld, rd, sd = rs.sub(lam, d), rs.sub(rho, d), rs.sub(sig, d)
        first = (N(ld, d), N(ld, rho), N(sd, d), N(sd, tau))
        assert first[0] * first[1] * first[2] * first[3] == 1, l
        if l == 4:
            second = (N(ld, d), N(ld, sig), N(rd, d), N(rd, tau))
            assert second[0] * second[1] * second[2] * second[3] == 1
            assert all(v == -1 for v in first + second), (first, second)
        else:
            assert first == (-1, 1, -1, 1), (l, first)
    _report(3, "D4 products +1 with all factors -1; D5..D8 factors (-1,+1,-1,+1)")


def test_criterion_04_minimal_subtraction_dichotomy():
    """Subtracting any admissible simple root other than the minimal one
    leaves the minimal index unchanged — with exactly one exceptional triple
    across all 16 systems, at the pinned E8 location."""
    exceptions = []
    triples = 0
    for name in ALL_SYSTEMS:
        rs = helpers.get_system(name)
        for gamma in rs.positive_roots:
            if simple_index(gamma) is not None:
                continue
            subtractable = [
                i
                for i in range(1, rs.rank + 1)
                if rs.is_positive(rs.sub(gamma, rs.simple(i)))
            ]
            j = min_subtractable_index(rs, gamma)
            assert subtractable and subtractable[0] == j, (name, gamma)
            for i in subtractable[1:]:
                triples += 1
                if min_subtractable_index(rs, rs.sub(gamma, rs.simple(i))) != j:
                    exceptions.append((name, gamma, j, i))
    assert triples == 412, triples
    assert exceptions == [("E8", (2, 3, 4, 5, 4, 3, 2, 1), 2, 3)], exceptions
    _report(4, f"{triples} triples, single exception at E8 (2,3,4,5,4,3,2,1) j=2 i=3")


def test_criterion_05_torus_word_fast_action_agreement():
    """The one-parameter torus word (4 elementary factors) acts on every
    basis vector exactly as the closed-form eigenvalue action, for every
    level-0 root and every unit of F_5, in all 16 systems.  The basis
    vectors run as lanes of one batch vector, lane j holding basis vector
    j, so each word is applied once per (system, gamma, a) and still checks
    every key."""
    K = get_field(5)
    lanes = helpers.ArrayField(5)
    checks = 0
    for name in ALL_SYSTEMS:
        table = get_table(name)
        rs = table.rs
        n = table.n_basis
        basis = LieVector(table, lanes, list(np.eye(n, dtype=np.int64)))
        for gamma in rs.phi0:
            for a in (1, 2, 3, 4):
                got = apply_word(table, w_word(K, gamma, a), basis)
                want = w_apply_fast(table, gamma, a, basis)
                differs = np.any(
                    [np.broadcast_to(g != w, (n,))
                     for g, w in zip(got.coeffs, want.coeffs)], axis=0)
                assert not differs.any(), (
                    name, gamma, a, np.flatnonzero(differs).tolist())
                checks += n
    assert checks > 100_000
    _report(5, f"{checks} (system, gamma, a, basis) checks agree")


def test_criterion_06_lift_postconditions_and_order_independence():
    """The extreme-vector lift of x satisfies its three postconditions and
    does not depend on the order the level-1 factors are applied, for 10^3
    random x over each of D4/F5 and D5/F3."""
    for name, p in (("D4", 5), ("D5", 3)):
        table = get_table(name)
        rs = table.rs
        K = get_field(p)
        rng = random.Random(20260814)
        m = len(rs.phi1)
        for _ in range(1000):
            x = helpers.random_v1(rng, rs, p)
            y = associated_root_element(table, K, x)
            assert y.e_coeff(rs.delta) == K.one
            assert y.v1_part() == tuple(K.of(c) for c in x)
            assert K.is_zero(y.h_coeff(rs.rank - 1))
            perm = list(range(m))
            rng.shuffle(perm)
            assert associated_root_element(table, K, x, order=perm) == y, (x, perm)
    _report(6, "2000 random lifts: postconditions hold, order-independent")


def test_criterion_07_sl2_invariants_match_conjugacy():
    """Over F_3 the block invariant separates trace-zero 2x2 matrices into
    exactly the SL(2,F_3)-conjugacy classes (fully exhaustive)."""
    p = 3
    K = get_field(p)
    matrices = [
        ((c, u), (w, (-c) % p))
        for c, u, w in itertools.product(range(p), repeat=3)
    ]
    group = [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p == 1
    ]
    assert len(group) == 24

    def conjugate(g, mat):
        a, b, c, d = g
        (m00, m01), (m10, m11) = mat
        # g * m * g^{-1} with g^{-1} = [[d, -b], [-c, a]]
        n00 = a * m00 + b * m10
        n01 = a * m01 + b * m11
        n10 = c * m00 + d * m10
        n11 = c * m01 + d * m11
        return (
            ((n00 * d - n01 * c) % p, (-n00 * b + n01 * a) % p),
            ((n10 * d - n11 * c) % p, (-n10 * b + n11 * a) % p),
        )

    conj_classes = {}
    for mat in matrices:
        orbit = frozenset(conjugate(g, mat) for g in group)
        conj_classes[mat] = orbit
    true_partition = set(conj_classes.values())

    by_invariant = {}
    for mat in matrices:
        by_invariant.setdefault(sl2_invariant_matrix(K, mat), set()).add(mat)
    invariant_partition = {frozenset(s) for s in by_invariant.values()}

    assert invariant_partition == true_partition
    assert sorted(len(s) for s in true_partition) == [1, 4, 4, 6, 12]
    _report(7, "27 trace-zero matrices: invariant classes == conjugacy classes (24 group elements)")


def test_criterion_08_orbit_censuses_exact():
    """Brute-force BFS reproduces all seven pinned orbit counts, each run
    within its 120-second budget."""
    lines = []
    for name, p in CENSUS_CASES:
        table = get_table(name)
        t0 = time.perf_counter()
        census = enumerate_orbits(table, p)
        elapsed = time.perf_counter() - t0
        expected = EXPECTED_ORBITS[(name, p)]
        m = len(table.rs.phi1)
        assert census.orbit_count == expected, (name, p, census.orbit_count)
        assert census.total_states == p**m
        assert sum(e.size for e in census.orbits) == census.total_states
        assert elapsed <= 120.0, f"{name}/F{p} census took {elapsed:.1f}s"
        helpers.seed_census(name, p, census)
        lines.append(f"{name}/F{p}={census.orbit_count} ({elapsed:.1f}s)")
    _report(8, "; ".join(lines))


def test_criterion_09_classifier_matches_bfs_partition():
    """On every census case the descriptor partition equals the BFS orbit
    partition exactly: constant on orbits, distinct across orbits, canonical
    forms land back in their orbits, predicted census matches."""
    for name, p in CENSUS_CASES:
        table = get_table(name)
        report = crosscheck(table, p, census=helpers.get_census(name, p))
        assert report["orbit_count"] == EXPECTED_ORBITS[(name, p)]
        bad = {k: v for k, v in report["checks"].items() if v != "ok"}
        assert not bad, (name, p, bad)
    _report(9, f"crosscheck clean on all {len(CENSUS_CASES)} censuses")


def test_criterion_10_invariants_unchanged_under_action():
    """Each published invariant is constant along the group action: >=10^3
    random (x, word) pairs per census system, exact equality."""
    pairs_per_case = 1000
    for name, p in CENSUS_CASES:
        table = get_table(name)
        rs = table.rs
        K = get_field(p)
        rng = random.Random(97)
        neg_delta = rs.neg(rs.delta)
        for _ in range(pairs_per_case):
            x = helpers.random_v1(rng, rs, p)
            word = helpers.random_level0_word(rng, rs, p)
            gx = act_on_v1(table, K, word, x)
            if rs.family == "D":
                y1 = associated_root_element(table, K, x)
                y2 = associated_root_element(table, K, gx)
                assert luminosity(rs, y1) == luminosity(rs, y2), (name, x, word)
                assert y1.e_coeff(neg_delta) == y2.e_coeff(neg_delta), (name, x, word)
                inv1 = tuple(sl2_invariant(K, z) for z in z_blocks(table, K, y1))
                inv2 = tuple(sl2_invariant(K, z) for z in z_blocks(table, K, y2))
                assert inv1 == inv2, (name, x, word)
                if inv1 and inv1[0].kind == "regular":
                    assert inv1[0].k == inv2[0].k
            else:
                u1, v1 = al_pair(rs, x)
                u2, v2 = al_pair(rs, gx)
                s1 = sum(a * b for a, b in zip(u1, v1)) % p
                s2 = sum(a * b for a, b in zip(u2, v2)) % p
                assert s1 == s2, (name, x, word)
    _report(10, f"{pairs_per_case} random (x, word) pairs per census system, all invariants constant")
