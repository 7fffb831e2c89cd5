"""Structure-constant table tests: hand values, identities, the closed-form
computation, and corruption detection."""

from __future__ import annotations

import ast
import itertools
import os
import random
import re
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import chevorbit
from chevorbit import (
    InconsistentTable,
    InternalError,
    JacobiViolation,
    NotAPositiveRoot,
    NotARoot,
    StructureConstantTable,
    SystemTooLarge,
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
from chevorbit import chevalley, orbitlab
from chevorbit.chevalley import (
    _PACKED,
    _all_triples,
    _bracket_arrays,
    _instances,
    _jacobi_defect,
    _jacobi_fails,
    _representatives,
    _sampled_triples,
    closed_form_table,
)
from chevorbit.rootsys import MAX_ROOTS, RootIds
from helpers import (
    ALL_SYSTEMS,
    first_jacobi_failure,
    get_field,
    get_system,
    get_table,
    negated_pair,
    unseeded_orbits,
)


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


def _peeled(ids, a: int, b: int, memo: dict) -> int:
    """N(roots[a], roots[b]) for a defined pair, by the scalar chain of
    rewrites the closed form once ran per pair: the reference that
    closed_form_table must equal.  ids holds the tables of rs.ids as
    nested lists.  Every pair on the chain is memoized under a * n + b."""
    sums, negs, top = ids.sum_id, ids.neg_id, ids.top
    n, h = len(negs), len(top)
    chain = []
    while True:
        key = a * n + b
        r = memo.get(key)
        if r is not None:
            break
        if a >= h:
            s = sums[a][b]
            if b >= h:
                sign, a, b = -1, negs[a], negs[b]
            elif s < h:
                sign, a, b = 1, negs[a], s
            else:
                sign, a, b = 1, b, negs[s]
        elif b >= h:
            sign, a, b = -1, b, a
        elif ids.simple_of[a]:
            r = memo[key] = -1 if ids.simple_of[a] > top[b] else 1
            break
        else:
            j = ids.least_sub[a]
            aj = ids.simple_ids[j - 1]
            ap = sums[a][negs[aj]]
            apb = sums[ap][b]
            if apb >= 0:
                sign = (-1 if j > top[ap] else 1) * (-1 if j > top[apb] else 1)
                a = ap
            else:
                ajb = sums[aj][b]
                assert ajb >= 0, "peeling dichotomy"
                sign = -(-1 if j > top[ap] else 1) * (-1 if j > top[b] else 1)
                a, b = ap, ajb
        chain.append((key, sign))
    for key, sign in reversed(chain):
        r = memo[key] = sign * r
    return r


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("D22", "A31"))
def test_closed_form_table_is_the_scalar_peeling_chain(name):
    rs = get_system(name)
    table = closed_form_table(rs)
    assert table.dtype == np.int8 and table.shape == (len(rs.roots),) * 2
    memo: dict = {}
    lists = RootIds(*(f.tolist() for f in rs.ids))
    a, b = np.nonzero(rs.ids.sum_id >= 0)
    want = np.zeros_like(table)
    want[a, b] = [_peeled(lists, i, j, memo)
                  for i, j in zip(a.tolist(), b.tolist())]
    assert np.array_equal(table, want)


def test_closed_form_memo_holds_one_table(monkeypatch):
    rs = build_root_system("E", 6)
    t = get_table("E6")
    builds = []

    def counted(rs):
        builds.append(rs)
        return closed_form_table(rs)

    monkeypatch.setattr(chevalley, "closed_form_table", counted)
    a, b = rs.simple(3), rs.simple(4)
    # errors come before any table is built
    memo: dict = {}
    with pytest.raises(UndefinedPair, match=r"^\(0, 0, 1, 0, 0, 0\) \+ "
                       r"\(0, 0, -1, 0, 0, 0\) is not a root of E6$"):
        structure_constant_fast(rs, a, rs.neg(a), memo)
    with pytest.raises(NotARoot, match=r"^\(0, 0, 7, 0, 0, 0\) is not a root "
                       r"of E6$"):
        structure_constant_fast(rs, a, (0, 0, 7, 0, 0, 0), memo)
    assert memo == {} and builds == []
    for i, j in t.defined_pairs().tolist():
        assert structure_constant_fast(rs, rs.roots[i], rs.roots[j],
                                       memo) == t.nv(i, j)
    assert len(builds) == len(memo) == 1
    assert list(memo.values()) == [closed_form_table(rs).tolist()]
    # with the table in the memo, a call reads the ids of hashable roots
    # directly; lists, arrays, non-roots and undefined pairs still give the
    # same values and messages
    for i, j in t.defined_pairs().tolist()[::7]:
        x, y = rs.roots[i], rs.roots[j]
        for u, v in ((list(x), y), (x, np.array(y)),
                     (tuple(map(np.int64, x)), list(y))):
            assert structure_constant_fast(rs, u, v, memo) == t.nv(i, j)
    for spell in (tuple, list):
        with pytest.raises(UndefinedPair, match=r"^\(0, 0, 1, 0, 0, 0\) \+ "
                           r"\(0, 0, -1, 0, 0, 0\) is not a root of E6$"):
            structure_constant_fast(rs, spell(a), rs.neg(a), memo)
        with pytest.raises(NotARoot, match=r"^\(0, 0, 7, 0, 0, 0\) is not a "
                           r"root of E6$"):
            structure_constant_fast(rs, a, spell((0, 0, 7, 0, 0, 0)), memo)
    assert len(builds) == len(memo) == 1
    # memo=None builds a table for the call alone
    assert structure_constant_fast(rs, a, b) == t.structure_constant(a, b)
    assert structure_constant_fast(rs, rs.neg(a), rs.neg(b)) == -t.nv(
        rs.root_id(a), rs.root_id(b))
    assert len(builds) == 3 and len(memo) == 1


def test_closed_form_refuses_a_broken_peel():
    # remove a' + b and alpha_j + b from a copy of the sum table, for one
    # pair (a, b) of positive roots whose first root is peeled
    rs = get_system("D4")
    ids = rs.ids
    h = rs.n_positive
    a, b = next((a, b) for a in range(h) for b in range(h)
                if not ids.simple_of[a] and ids.sum_id[a, b] >= 0)
    aj = ids.simple_ids[ids.least_sub[a] - 1]
    ap = ids.sum_id[a, ids.neg_id[aj]]
    sum_id = ids.sum_id.copy()
    sum_id[ap, b] = sum_id[b, ap] = sum_id[aj, b] = sum_id[b, aj] = -1
    broken = SimpleNamespace(ids=ids._replace(sum_id=sum_id))
    with pytest.raises(InternalError, match="peeling dichotomy failed"):
        closed_form_table(broken)
    # a root that peels to itself is never filled
    sum_id = ids.sum_id.copy()
    sum_id[a, ids.neg_id[aj]] = a
    broken = SimpleNamespace(ids=ids._replace(sum_id=sum_id))
    with pytest.raises(InternalError, match="peeling reaches no simple root"):
        closed_form_table(broken)


def _reached(tree: ast.Module, start: str) -> set[str]:
    """Every name and attribute that the module-level function or class
    start uses, and, transitively, those of the module's functions and
    classes that it names."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names, todo = set(), [start]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name):
                found = node.id
            elif isinstance(node, ast.Attribute):
                found = node.attr
            else:
                continue
            if found not in names:
                names.add(found)
                if found in defs:
                    todo.append(found)
    return names


def test_the_oracle_and_the_closed_form_reach_nothing_of_each_other():
    # the two computations of the constants check each other only while
    # neither reads the other: the closed form may read the root system's
    # tables (rs.ids) but no oracle table, and the oracle nothing of the
    # closed form, not even the support tops it alone needs
    with open(chevalley.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    oracle = {"_nt", "nv", "structure_constant",
              "StructureConstantTable", "build_table_oracle"}
    closed = {"closed_form_table", "structure_constant_fast", "sign_rule",
              "top"}
    for start in ("structure_constant_fast", "closed_form_table", "sign_rule"):
        reached = _reached(tree, start)
        assert "ids" in reached
        assert not reached & oracle, (start, reached & oracle)
    reached = _reached(tree, "build_table_oracle")
    assert {"_seeds", "_representatives", "_instances", "_nt"} <= reached
    assert not reached & closed, reached & closed


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


def _instances_2d(sum_id, a, b):
    """_instances in its earlier spelling: np.nonzero on each chunk's 2-D
    mask."""
    defined = sum_id >= 0
    step = max(1, chevalley._INSTANCE_CHUNK // len(sum_id))
    for lo in range(0, a.size, step):
        x, y = a[lo:lo + step], b[lo:lo + step]
        i, c = np.nonzero(defined[y] & defined[sum_id[x, y]])
        yield x[i], y[i], c


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_instances_are_the_2d_sweep_in_order(name, monkeypatch):
    sum_id = get_system(name).ids.sum_id
    a, b = np.nonzero(sum_id >= 0)
    for chunk in (chevalley._INSTANCE_CHUNK, 1):  # 1: a pair per chunk
        monkeypatch.setattr(chevalley, "_INSTANCE_CHUNK", chunk)
        got = list(_instances(sum_id, a, b))
        want = list(_instances_2d(sum_id, a, b))
        assert len(got) == len(want)
        assert chunk > 1 or len(got) == a.size
        for g, w in zip(got, want):
            assert all(np.array_equal(u, v) and u.dtype == v.dtype
                       for u, v in zip(g, w))


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_defined_pairs_are_the_argwhere_of_the_mask(name):
    t = get_table(name)
    got, want = t.defined_pairs(), np.argwhere(t.rs.ids.sum_id >= 0)
    assert got.dtype == want.dtype and np.array_equal(got, want)


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


def _tampered(name, nt=None, sum_id=None):
    t = get_table(name)
    bad = StructureConstantTable(t.rs, t._nt if nt is None else nt, t.stats)
    if sum_id is not None:
        bad._sum = sum_id  # the root system's own table stays as it is
    return bad


def test_verify_table_detects_an_asymmetric_mask():
    t = get_table("D4")
    i, j = map(int, t.defined_pairs()[0])
    sum_id = t._sum.copy()
    sum_id[i, j] = -1
    with pytest.raises(InconsistentTable, match="mask is not symmetric"):
        verify_table(_tampered("D4", sum_id=sum_id))


def test_verify_table_detects_a_support_mismatch():
    t = get_table("D4")
    i = int(t.e_key(t.rs.delta))
    assert t._sum[i, i] < 0  # (delta, delta) is not a defined pair
    nt = t._nt.copy()
    nt[i, i] = 1
    with pytest.raises(InconsistentTable, match="support"):
        verify_table(_tampered("D4", nt=nt))


def test_verify_table_detects_flipped_seeds():
    # -N satisfies every identity that is linear or quadratic in N (it is N
    # under e_alpha -> -e_alpha), so only the +1 normalization seeds fail
    t = get_table("D4")
    with pytest.raises(InconsistentTable,
                       match=r"identity checks failed: \['seeds'\]"):
        verify_table(_tampered("D4", nt=-t._nt))


@pytest.mark.parametrize("name,k", [("D4", k) for k in range(8)]
                         + [("A5", None), ("E6", None), ("E8", None)])
def test_verify_table_catches_a_flipped_unseeded_orbit_by_associativity(name,
                                                                      k):
    # negating a whole pair orbit keeps antisymmetry and the rotations, and
    # an orbit without a seed keeps the seeds: associativity alone, which
    # pins every value from the seeds, must fail
    t = get_table(name)
    orbits = unseeded_orbits(t.rs)
    assert len(orbits) == t.stats["pair_orbits"] - t.stats["seeds"]
    orbit = orbits[k] if k is not None else random.Random(name).choice(orbits)
    assert len(orbit) == 12
    nt = t._nt.copy()
    for i, j in orbit:
        nt[i, j] = -nt[i, j]
    with pytest.raises(InconsistentTable,
                       match=r"identity checks failed: \['associativity'\]"):
        verify_table(_tampered(name, nt=nt))


def _cycle_images(rs, rows: np.ndarray) -> np.ndarray:
    """The 16 images (a, b, c) of each instance under the rotations, the
    reversal and the negation of its cycle (a, b, c, -a-b-c): (16, 3, R)."""
    sum_id, neg = rs.ids.sum_id, rs.ids.neg_id
    a, b, c = rows
    cycle = [a, b, c, neg[sum_id[sum_id[a, b], c]]]
    images = []
    for k in range(4):
        turned = cycle[k:] + cycle[:k]
        for way in (turned, turned[::-1]):
            images += [np.stack(way[:3]), neg[np.stack(way[:3])]]
    return np.stack(images)


def _keys(n: int, rows: np.ndarray) -> np.ndarray:
    """Instances (a, b, c) as sorted integers (a * n + b) * n + c."""
    return np.sort(((rows[0] * n + rows[1]) * n + rows[2]).ravel())


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("A16", "D16"))
def test_representatives_are_one_instance_per_class_of_16(name):
    t = get_table(name)
    rs, n = t.rs, t.n_roots
    reps = _representatives(rs.ids)
    images = _keys(n, _cycle_images(rs, reps).transpose(1, 0, 2).reshape(3, -1))
    assert np.all(images[1:] != images[:-1])  # 16 distinct images per row
    aa, bb = np.nonzero(rs.ids.sum_id >= 0)
    full = np.concatenate([np.zeros((3, 0), dtype=np.int64)]
                          + [np.stack(k) for k in _instances(rs.ids.sum_id,
                                                             aa, bb)], axis=1)
    assert np.array_equal(images, _keys(n, full))
    assert 16 * reps.shape[1] == t.stats["instances"] \
        == verify_table(t)["instances"]


@pytest.mark.parametrize("name,count", [("A31", 1_726_080),
                                        ("D22", 2_882_880)])
def test_instance_counts_of_the_largest_systems(name, count):
    t = build_table_oracle(get_system(name))
    assert 16 * _representatives(t.rs.ids).shape[1] == t.stats["instances"] \
        == verify_table(t)["instances"] == count


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


def test_jacobi_check_reads_a_numpy_samples_without_wrapping():
    # samples goes through operator.index: an int16 3000 wrapped inside
    # random before (12 * 3000 does not fit int16)
    t = get_table("D4")
    want = jacobi_check(t, exhaustive_limit=0, samples=3000, seed=3)
    assert want == {"mode": "sampled", "triples": 3000}
    assert jacobi_check(t, exhaustive_limit=np.int8(0),
                        samples=np.int16(3000), seed=3) == want
    for bad in ({"samples": 3000.0}, {"exhaustive_limit": 80.0}):
        with pytest.raises(TypeError):
            jacobi_check(t, **bad)


def test_jacobi_check_reports_samples_as_a_python_int():
    # before, a numpy samples or True reached the report as given
    t = get_table("D4")
    for samples, count in ((np.int64(3000), 3000), (True, 1)):
        report = jacobi_check(t, exhaustive_limit=0, samples=samples)
        assert report == {"mode": "sampled", "triples": count}
        assert type(report["triples"]) is int


@pytest.mark.parametrize("name", ALL_SYSTEMS[1:])
def test_jacobi_catches_a_negated_antisymmetric_pair(name):
    t, _, _ = negated_pair(name)
    with pytest.raises(JacobiViolation):
        jacobi_check(t, exhaustive_limit=t.n_basis)


@pytest.mark.parametrize("name", ALL_SYSTEMS[1:])
def test_jacobi_verdict_matches_scalar_defect(name):
    # Half the keys come from around the negated pair, so the corrupted
    # table fails on many probes: e-terms, coroot sums and Cartan keys.
    bad, i, j = negated_pair(name)
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


def test_jacobi_violation_names_the_first_failing_triple():
    t, _, _ = negated_pair("D4")
    want = first_jacobi_failure(t, itertools.combinations(range(t.n_basis), 3))
    with pytest.raises(JacobiViolation) as exc:
        jacobi_check(t)
    assert str(exc.value) == want

    t, _, _ = negated_pair("A4")
    drawn = (tuple(map(int, k)) for chunk in _sampled_triples(t.n_basis, 5000, 11)
             for k in zip(*chunk))
    want = first_jacobi_failure(t, drawn)
    with pytest.raises(JacobiViolation) as exc:
        jacobi_check(t, exhaustive_limit=0, samples=5000, seed=11)
    assert str(exc.value) == want


@pytest.mark.parametrize("m", [3, 4, 7])
def test_sampled_triples_cover_every_ordered_triple_of_distinct_keys(m):
    chunks = list(_sampled_triples(m, 3 * 2**14 + 5, seed=3))
    assert [x.size for x, _, _ in chunks] == [2**14] * 3 + [5]
    drawn = set(zip(*(np.concatenate(k).tolist() for k in zip(*chunks))))
    assert drawn == set(itertools.permutations(range(m), 3))


@pytest.mark.parametrize("name", ["D22", "A31"])
def test_jacobi_verdict_matches_scalar_defect_at_the_root_cap(name):
    # the largest admitted systems: slot ids up to 2n = 1,984, packed with
    # their coefficients as slot * 8 + coefficient + 4 in int16
    t = get_table(name)
    out, w, inner, wi, _, n = _bracket_arrays(t)
    assert out.dtype == inner.dtype == np.dtype(_PACKED) == np.dtype(np.int16)
    assert (w, wi) == (2 * n + 1, t.n_basis)
    assert out.size == t.n_basis * w and inner.size == t.n_basis * wi
    assert int((out >> 3).max()) == int((inner >> 3).max()) == 2 * n
    assert int(out.max()) == 8 * 2 * n + 4  # the zero slot, coefficient 0
    for table in (out, inner):
        assert 2 <= int((table & 7).min()) and int((table & 7).max()) <= 6
    # with a thousand keys, random probes seldom meet the negated pair, so
    # every ordered triple of keys around it is probed as well, beside the
    # largest keys of each kind: the last root and the last Cartan key
    bad, i, j = negated_pair(name)
    s = int(bad._sum[i, j])
    near = [i, j, s, *(int(bad._neg[k]) for k in (i, j, s)), n - 1, n, wi - 1]
    rng = random.Random(7)
    triples = list(itertools.permutations(near, 3)) + [
        tuple(rng.choice(near) if rng.random() < 0.5 else rng.randrange(wi)
              for _ in range(3)) for _ in range(1500)]
    x, y, z = (np.array(k) for k in zip(*triples))
    for table in (t, bad):
        want = [bool(_jacobi_defect(table, *k)) for k in triples]
        assert _jacobi_fails(_bracket_arrays(table), x, y, z).tolist() == want
    assert any(want)


def test_slot_dtype_holds_every_slot_under_the_root_cap():
    # slot ids run to 2n and pack as slot * 8 + coefficient + 4, so int16
    # holds them up to n = 2,047 roots; a cap raised past that must fail
    # here, and a table past it is refused
    assert 8 * 2 * MAX_ROOTS + 7 <= np.iinfo(_PACKED).max
    assert 8 * 2 * 2047 + 7 <= np.iinfo(_PACKED).max < 8 * 2 * 2048
    big = SimpleNamespace(n_roots=2048, rs=SimpleNamespace(rank=2, name="X"))
    with pytest.raises(SystemTooLarge, match="4097 bracket slots do not fit "
                                             "the int16 gather tables"):
        _bracket_arrays(big)


def test_jacobi_check_does_not_import_numpy_random():
    # a fresh interpreter builds and checks all 16 systems as the constants
    # command does; numpy.random (6 MB of RSS) and numpy.ma (about 14 ms
    # and 1.7 MB, which np.unique imports unless asked for indices) stay out
    script = (
        "import sys; from chevorbit import *\n"
        f"for name in {ALL_SYSTEMS!r}:\n"
        "    rs = build_root_system(*parse_system_name(name))\n"
        "    t = build_table_oracle(rs); verify_table(t); jacobi_check(t)\n"
        "    for i, j in t.defined_pairs()[:1].tolist():\n"
        "        structure_constant_fast(rs, rs.roots[i], rs.roots[j], {})\n"
        "print(*(m in sys.modules for m in "
        "('numpy', 'numpy.random', 'numpy.ma')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevorbit.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"True", b"False", b"False"]


@pytest.mark.parametrize("m, seed", [(91, 1729), (248, 1729), (248, 5)])
def test_sampled_triples_are_the_32_bit_words_of_the_seeded_draw(m, seed):
    # rebuilt with Python ints: three little-endian 32-bit words per triple,
    # reduced mod m, m - 1 and m - 2, each shifted past the keys before it
    rng = random.Random(seed)
    for x, y, z in itertools.islice(_sampled_triples(m, 10**5, seed), 2):
        want = []
        for u, v, w in struct.iter_unpack("<3I", rng.randbytes(12 * 2**14)):
            a, b, c = u % m, v % (m - 1), w % (m - 2)
            b += b >= a
            c += c >= min(a, b)
            c += c >= max(a, b)
            want.append((a, b, c))
        assert list(zip(x.tolist(), y.tolist(), z.tolist())) == want


def test_exhaustive_triples_are_the_combinations_in_order():
    for m in (3, 8, 30, 80):
        got = [k for chunk in _all_triples(m) for k in zip(*(c.tolist() for c in chunk))]
        assert got == list(itertools.combinations(range(m), 3))
    for m in (3, 4, 80, 248):  # full chunks of 2**14 but the last
        total = m * (m - 1) * (m - 2) // 6
        sizes = [x.size for x, _, _ in _all_triples(m)]
        assert sizes == [2**14] * (total // 2**14) + [total % 2**14]


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


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("A16", "D16", "A31", "D22"))
def test_sum_table_matches_brute_force(name):
    rs = get_system(name)
    index = {r: i for i, r in enumerate(rs.roots)}
    want = [[index.get(rs.add(a, b), -1) for b in rs.roots] for a in rs.roots]
    assert rs.ids.sum_id.tolist() == want
    if name in ALL_SYSTEMS:  # the table reads the root system's tables
        t = get_table(name)
        assert t._sum is rs.ids.sum_id and t._neg is rs.ids.neg_id


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("D22",))
def test_each_table_is_kept_in_one_form(name):
    # the root-id tables are read-only arrays, the constants are not kept
    # again as lists, and a catalogue entry names its root by phi1 index;
    # every scalar reader returns a Python int, never a numpy scalar
    rs, t = get_system(name), get_table(name)
    assert len(rs.ids) == 7
    assert all(type(f) is np.ndarray and not f.flags.writeable
               for f in rs.ids)
    assert not [k for k, v in vars(t).items()
                if type(v) is list and any(type(r) is list for r in v)]
    n = len(rs.roots)
    pairs = t.defined_pairs().tolist()  # none on A1
    i, j = pairs[0] if pairs else (0, 1)
    got = [t.nv(i, j), t.nv(i, i)] + [
        t.structure_constant(rs.roots[a], rs.roots[b]) for a, b in pairs[:3]]
    for a, b in ((i, j), (i, rs.root_id(rs.neg(rs.roots[i]))), (n, j), (i, n)):
        got += [x for term in t.bracket_keys(a, b) for x in term]
    got += [min_subtractable_index(rs, g) for g in rs.positive_roots[:3]]
    got += [sign_rule(rs, k, g) for k in range(1, rs.rank + 1)
            for g in rs.positive_roots[:3]
            if rs.is_root(rs.add(rs.simple(k), g))]
    if rs.family in "AD":
        for p in (3, 5):
            clf = orbitlab._classifier(t, get_field(p))
            for _, entries in clf.types.values():
                assert all(type(k) is int and 0 <= k < len(rs.phi1)
                           for k, _ in entries)
            for d in clf.descriptors():
                got += clf.canonical_vector(d)
    assert len(got) > 6 and all(type(x) is int for x in got)


def test_closed_form_needs_no_table_and_keeps_its_messages():
    rs = build_root_system("D", 5)  # fresh: no table, no id tables yet
    assert "ids" not in vars(rs)
    a, b = rs.simple(3), rs.simple(4)
    assert structure_constant_fast(rs, a, b) == sign_rule(rs, 3, b) == 1
    assert structure_constant_fast(rs, rs.neg(a), rs.neg(b)) == -1
    cases = [
        (lambda: structure_constant_fast(rs, (2, 0, 0, 0, 0), b),
         NotARoot, "(2, 0, 0, 0, 0) is not a root of D5"),
        (lambda: structure_constant_fast(rs, a, [0, 0, 0, 0, 7]),
         NotARoot, "(0, 0, 0, 0, 7) is not a root of D5"),
        (lambda: structure_constant_fast(rs, a, rs.neg(a)),
         UndefinedPair, "(0, 0, 1, 0, 0) + (0, 0, -1, 0, 0) is not a root of D5"),
        (lambda: sign_rule(rs, 3, rs.neg(b)),
         NotAPositiveRoot, "(0, 0, 0, -1, 0) is not a positive root of D5"),
        (lambda: sign_rule(rs, 6, b),
         NotARoot, "no simple root alpha_6 in rank 5"),
        (lambda: sign_rule(rs, 1, b),
         UndefinedPair, "alpha_1 + (0, 0, 0, 1, 0) is not a root of D5"),
        (lambda: min_subtractable_index(rs, rs.neg(b)),
         NotAPositiveRoot, "(0, 0, 0, -1, 0) is not a positive root of D5"),
    ]
    for call, exc, message in cases:
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            call()
