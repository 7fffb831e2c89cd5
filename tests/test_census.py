"""Brute-force orbit enumeration tests, including an independent mini-BFS
oracle, determinism, budget handling, and the crosscheck failure path."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import runpy
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chevorbit import (
    BudgetExceeded,
    MismatchReport,
    NotPrime,
    OrbitDescriptor,
    act_on_v1,
    build_table_oracle,
    crosscheck,
    enumerate_orbits,
    predicted_census,
)
from chevorbit import census as census_mod
from chevorbit import cli, liemod, orbitlab
from chevorbit.census import state_of_vector, vector_of_state
from chevorbit.rootsys import InternalError
import helpers
from helpers import (
    ArrayField,
    CENSUS_CASES,
    EXPECTED_ORBITS,
    generator_moves,
    get_census,
    get_field,
    get_table,
    reached_names,
    trivial_torus,
)


def mini_bfs_orbits(table, p):
    """Independent reference enumeration: plain python sets over tuples."""
    rs = table.rs
    K = get_field(p)
    m = len(rs.phi1)
    gens = [(g, a) for g in rs.phi0 for a in range(1, p)]
    seen: set = set()
    orbits = []
    for state in itertools.product(range(p), repeat=m):
        if state in seen:
            continue
        frontier = [state]
        orbit = {state}
        while frontier:
            cur = frontier.pop()
            for g, a in gens:
                nxt = act_on_v1(table, K, [(g, a)], cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize(
    "name,p", [("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3), ("D4", 3)]
)
def test_enumeration_matches_independent_bfs(name, p):
    table = get_table(name)
    reference = mini_bfs_orbits(table, p)
    census = get_census(name, p)
    assert census.orbit_count == len(reference) == EXPECTED_ORBITS[(name, p)]
    ref_by_rep = {min(o): o for o in reference}
    assert {e.representative for e in census.orbits} == set(ref_by_rep)
    for e in census.orbits:
        assert e.size == len(ref_by_rep[e.representative])


def test_orbit_partition_over_blocks_of_p_squared_states(monkeypatch):
    """Blocks of p**2 states fix all but the last two digits, so the pairs
    of the moves and of n_0's signed permutation reach all three kinds of
    _edge_images (both digits in the last two, both in the prefix, one in
    each, with the source or the target in the prefix); n_0 of A4 also
    maps two digits to their negatives, one case of a pair whose source is
    its target."""
    kinds = set()
    for name, p in (("A3", 5), ("A4", 3), ("D4", 3)):
        table = get_table(name)
        chars, maps = census_mod._class_maps(table)
        m = len(table.rs.phi1)
        kinds |= {(s < m - 2, d < m - 2) for pairs, _, _ in maps
                  for s, d, _ in pairs}
        default = census_mod._orbit_partition(maps, p, m, chars)
        with monkeypatch.context() as patch:
            patch.setattr(census_mod, "_BLOCK_STATES", p * p)
            blocked = census_mod._orbit_partition(maps, p, m, chars)
            # the int64 index arrays of 2**31 states and more
            patch.setattr(census_mod, "_index_dtype", lambda total: np.int64)
            wide = census_mod._orbit_partition(maps, p, m, chars)
        for got, want in zip(blocked, default):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert wide[0].dtype == np.int64
        for got, want in zip(wide, default):
            assert np.array_equal(got, want)
        orbit_id, least, sizes = blocked
        reference = sorted(sorted(state_of_vector(table.rs, p, x) for x in o)
                           for o in mini_bfs_orbits(table, p))
        assert least.tolist() == [o[0] for o in reference]
        assert sizes.tolist() == [len(o) for o in reference]
        for i, o in enumerate(reference):
            assert (orbit_id[o] == i).all()
    assert kinds == {(False, False), (True, False), (False, True),
                     (True, True)}


@pytest.mark.parametrize("p,m,n", [(3, 6, 6), (3, 6, 2), (5, 4, 1),
                                   (5, 4, 3)])
def test_images_of_a_signed_permutation_are_its_digits_moved(p, m, n):
    """_edge_images of a keep-0 map sets new x_d = sign_d * x_src(d) for
    every digit: on random signed permutations, with fixed points of both
    signs, over every state of blocks of p**n states (n < m fixes the
    leading digits, the prefix), each image is the state whose digits are
    the old ones moved and signed."""
    rng = random.Random(p * 100 + m * 10 + n)
    states = np.arange(p ** m)
    digits = census_mod._digits(states, p, m)
    fixed = np.arange(p ** n)
    blocks = list(zip(range(0, p ** m, p ** n),
                      itertools.product(range(p), repeat=m - n)))
    for _ in range(4):
        # digits 0 and 1 keep their places, the others are shuffled
        src = [0, 1] + rng.sample(range(2, m), m - 2)
        sign = [rng.choice((1, -1)) for _ in range(m)]
        turn = [(s, d, g) for d, (s, g) in enumerate(zip(src, sign))]
        want = np.zeros(p ** m, dtype=np.int64)
        for d in range(m):
            want = want * p + sign[d] * digits[:, src[d]] % p
        changes = census_mod._changes(turn, 0, (1,), p, m)
        got = np.concatenate([image[0] for _, image in
                              census_mod._edge_images(
                                  changes, p, fixed,
                                  census_mod._digits(fixed, p, n).T, blocks)])
        assert np.array_equal(got, want), (src, sign)


def union_find_partition(moves, p, m):
    """Reference partition: union-find in plain Python over every state and
    its image under every move (the images from each state's digits, in
    numpy), each set rooted at its least state."""
    total = p ** m
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # each move's images, from the digits of every state
    weight = [p ** (m - 1 - i) for i in range(m)]
    states = np.arange(total)
    x = [states // w % p for w in weight]
    for move in moves:
        image = states.copy()
        for s, d, g in move:
            image += ((x[d] + g * x[s]) % p - x[d]) * weight[d]
        for state, im in enumerate(image.tolist()):
            a, b = find(state), find(im)
            parent[max(a, b)] = min(a, b)
    roots = [find(x) for x in range(total)]
    least = sorted(set(roots))
    index = {r: i for i, r in enumerate(least)}
    orbit_id = [index[r] for r in roots]
    return orbit_id, least, [orbit_id.count(i) for i in range(len(least))]


@st.composite
def random_moves(draw):
    """Moves on p**m <= 4,096 states that no Lie generator gives: each a
    random set of pairs with distinct sources, distinct targets, no target
    a source, and random signs."""
    p = draw(st.sampled_from((2, 3, 5)))
    top = {2: 12, 3: 7, 5: 5}[p]  # the largest m with p**m <= 4,096
    m = top - draw(st.integers(0, top - 2))
    moves = []
    for _ in range(draw(st.integers(1, 4))):
        digits = draw(st.permutations(range(m)))
        k = draw(st.integers(1, m // 2))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k,
                              max_size=k))
        moves.append(list(zip(digits[:k], digits[k:2 * k], signs)))
    return p, m, moves


def count_partition_work(patch) -> dict:
    """Counters, for the partitions run under patch, of the calls of the
    image builder (one per map and per group of blocks in every sweep over
    the edges), of the class edges it yields (edges), of the union-find
    hooks, and of the hooks that left pairs apart."""
    seen = {"images": 0, "edges": 0, "joins": 0, "retries": 0}
    images, join = census_mod._edge_images, census_mod._join

    def counted_images(*args):
        seen["images"] += 1
        for lo, image in images(*args):
            seen["edges"] += image.size
            yield lo, image

    def counted_join(*args):
        tree, a, b = join(*args)
        seen["joins"] += 1
        seen["retries"] += bool(a.size)
        return tree, a, b

    patch.setattr(census_mod, "_edge_images", counted_images)
    patch.setattr(census_mod, "_join", counted_join)
    return seen


def class_edges(name, p):
    """The class edges of a census case: for each class, the c of each
    root element's character image, and one for n_0."""
    table = get_table(name)
    chars, maps = census_mod._class_maps(table)
    m = len(table.rs.phi1)
    with pytest.MonkeyPatch.context() as patch:
        seen = count_partition_work(patch)
        census_mod._orbit_partition(maps, p, m, chars)
    return seen["edges"]


@functools.cache
def reference_partition(name, p):
    """union_find_partition over the 2 r0 moves of a census case, which
    reads no torus."""
    table = get_table(name)
    return union_find_partition(generator_moves(table), p,
                                len(table.rs.phi1))


@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_moves())
def test_orbit_partition_matches_union_find_on_random_moves(case):
    """Through the trivial torus, every state is its own class and the
    class edges are the moves.  The union-find compresses its tree a block
    at a time, and the pairs it holds come from edges read a block at a
    time; on random graphs, with blocks of p, p**2 and the default number
    of states, it must still give the reference partition, and read every
    edge once, in one image call per move."""
    p, m, moves = case
    want = union_find_partition(moves, p, m)
    for block in (p, p * p, census_mod._BLOCK_STATES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(census_mod, "_BLOCK_STATES", block)
            seen = count_partition_work(patch)
            got = census_mod._orbit_partition(trivial_torus(moves), p, m,
                                              np.zeros((m, 0)))
        assert [a.tolist() for a in got] == list(want), block
        assert seen["images"] == len(moves), block
        assert seen["edges"] == len(moves) * p ** m, block


@pytest.mark.parametrize("name,p,n", [("D4", 5, 3), ("D5", 3, 4)])
def test_orbit_partition_reads_every_edge_once(monkeypatch, name, p, n):
    """D4/F5 has 24,649 classes and D5/F3 68,921, and the union-find reads
    each class edge once: for each class, 2, 2 and 2 on D4/F5 (the squares
    of F_5 for each x_alpha) and 2, 2, 2 and 1 on D5/F3 (three alpha of
    character image F_3^*, one of the squares), and one for n_0.  So it
    does with blocks of p**n states, where the classes' least states lie in
    hundreds of blocks, and the partition is the reference's."""
    table = get_table(name)
    chars, maps = census_mod._class_maps(table)
    m = len(table.rs.phi1)
    classes, per_class = {("D4", 5): (24_649, 7), ("D5", 3): (68_921, 8)}[
        (name, p)]
    assert class_edges(name, p) == classes * per_class
    monkeypatch.setattr(census_mod, "_BLOCK_STATES", p ** n)
    assert len(census_mod._classes(chars, p, m)[1]) > 200
    seen = count_partition_work(monkeypatch)
    got = census_mod._orbit_partition(maps, p, m, chars)
    assert seen["edges"] == classes * per_class
    assert [a.tolist() for a in got] == list(reference_partition(name, p))


@pytest.mark.parametrize("name,p,n", [("D4", 5, 3), ("D5", 3, 4)])
def test_orbit_partition_joins_a_few_held_pairs_at_a_time(monkeypatch, name,
                                                          p, n):
    """With the union-find's held pairs bounded to 2**10 bytes, 128 pairs
    of int32 roots, far below a quarter of the classes, and blocks of p**n
    states, each block's crossing edges are joined soon after they are
    read: about 200 joins on D4/F5 and 700 on D5/F3, against about 20 at
    the default bound, each compressing the tree, and still the reference
    partition."""
    table = get_table(name)
    chars, maps = census_mod._class_maps(table)
    m = len(table.rs.phi1)
    monkeypatch.setattr(census_mod, "_BLOCK_STATES", p ** n)
    monkeypatch.setattr(census_mod, "_HELD_BYTES", 2**10)
    seen = count_partition_work(monkeypatch)
    got = census_mod._orbit_partition(maps, p, m, chars)
    assert seen["joins"] > 150
    assert [a.tolist() for a in got] == list(reference_partition(name, p))


@pytest.mark.parametrize("name", [f"A{r}" for r in range(3, 9)]
                         + [f"D{r}" for r in range(4, 9)])
def test_n0_conjugates_each_simple_root_element_onto_a_negative_one(name):
    """_class_maps reads x_alpha(1) for the simple level-0 roots alpha, and
    n_0 as a signed permutation of phi1, which over F_101 conjugates each
    x_alpha(1) to x_beta(+-1) for one negative level-0 root beta = w_0
    alpha, the negative of a simple root: so the maps generate U- beside
    U+.  Maps of V1 are linear, so the basis vectors decide equality."""
    table, K, p = get_table(name), get_field(101), 101
    rs, m = table.rs, len(table.rs.phi1)
    simple = [a for a in map(rs.simple, range(1, rs.rank + 1))
              if rs.level(a) == 0]
    chars, maps = census_mod._class_maps(table)
    *shears, (turn, keep, weight) = maps
    assert shears == [(liemod._action_plan(table, a)[5], 1,
                       tuple(rs.pair(a, b) for b in simple))
                      for a in simple]
    assert keep == 0 and weight is None
    assert chars.tolist() == [[rs.pair(b, a) for a in simple]
                              for b in rs.phi1]
    # new x_d = sign_d * x_src(d), each digit a target once
    src, targets, sign = map(list, zip(*turn))
    assert targets == list(range(m)) and sorted(src) == list(range(m))
    assert set(sign) <= {1, -1}

    def n0(x):
        return tuple(sign[d] * x[src[d]] % p for d in range(m))

    def n0_inverse(y):
        x = [0] * m
        for d in range(m):
            x[src[d]] = sign[d] * y[d] % p
        return tuple(x)

    basis = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    negative = [g for g in rs.phi0 if not rs.is_positive(g)]
    images = []
    for a in simple:
        want = [n0(act_on_v1(table, K, [(a, 1)], n0_inverse(e)))
                for e in basis]
        hits = [g for g in negative for c in (1, -1)
                if [act_on_v1(table, K, [(g, c)], e) for e in basis] == want]
        assert len(hits) == 1 and rs.neg(hits[0]) in simple, (name, a)
        images += hits
    assert len(set(images)) == len(simple)


@pytest.mark.parametrize("name,p", [*CENSUS_CASES, ("A4", 7), ("A5", 5)])
def test_orbit_partition_with_n0_matches_union_find_over_all_moves(name, p):
    """The kernel joins the torus classes along the class edges of
    x_alpha(1) and n_0 from r0 = 1 on (_class_maps); the partition is the
    reference's over all 2 r0 moves of the states, which reads no torus."""
    table = get_table(name)
    chars, maps = census_mod._class_maps(table)
    m = len(table.rs.phi1)
    got = census_mod._orbit_partition(maps, p, m, chars)
    assert [a.tolist() for a in got] == list(reference_partition(name, p))


def test_orbit_partition_of_self_loops_ends_after_one_sweep(monkeypatch):
    """A pair with sign 0 maps every state to itself: through the trivial
    torus the union-find reads every edge once, and no pair crosses, so
    every state is an orbit at once, with no join."""
    p, m = 3, 4
    seen = count_partition_work(monkeypatch)
    label, least, sizes = census_mod._orbit_partition(
        trivial_torus([[(0, 1, 0)]]), p, m, np.zeros((m, 0)))
    assert seen == {"images": 1, "edges": p ** m, "joins": 0, "retries": 0}
    states = np.arange(p ** m)
    assert np.array_equal(label, states) and np.array_equal(least, states)
    assert np.array_equal(sizes, np.ones(p ** m))


def test_orbit_partition_rehooks_pairs_that_a_conflicting_write_left_apart(
        monkeypatch):
    """minimum.at keeps the least of the writes to one root, so a pair of
    the same join whose write lost is still apart: the union-find finds and
    hooks it again.  These three moves on 81 states, through the trivial
    torus, need that."""
    p, m = 3, 4
    moves = [[(2, 3, -1)], [(0, 2, 1)], [(1, 0, -1)]]
    seen = count_partition_work(monkeypatch)
    got = census_mod._orbit_partition(trivial_torus(moves), p, m,
                                      np.zeros((m, 0)))
    assert seen["images"] == len(moves) and seen["retries"]
    assert [a.tolist() for a in got] == list(union_find_partition(moves, p,
                                                                  m))


def test_orbit_partition_without_moves_numbers_every_state_at_once(
        monkeypatch):
    """A2 has no level-0 simple root, so its torus is trivial and its
    partition reads no edge: over F_257 its 66,049 states, more than
    _BLOCK_STATES, are each an orbit, numbered as the classes are, and no
    image is built."""
    p, m = 257, 2
    chars, maps = census_mod._class_maps(get_table("A2"))
    assert maps == [] and chars.shape == (m, 0)
    assert p ** m > census_mod._BLOCK_STATES
    seen = count_partition_work(monkeypatch)
    label, least, sizes = census_mod._orbit_partition(maps, p, m, chars)
    assert seen == {"images": 0, "edges": 0, "joins": 0, "retries": 0}
    states = np.arange(p ** m)
    assert np.array_equal(label, states) and np.array_equal(least, states)
    assert np.array_equal(sizes, np.ones(p ** m))


def torus_by_words(table, p):
    """T0 over F_p as the units by which its elements multiply the phi1
    coordinates, generated by the level-0 torus words of liemod.w_word at a
    generator of F_p^*, each read off act_on_v1 on the basis vectors (so
    neither rs.pair nor the census's characters enter)."""
    rs, K, m = table.rs, get_field(p), len(table.rs.phi1)
    c = next(g for g in range(1, p)
             if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    basis = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    generators = []
    for a in map(rs.simple, range(1, rs.rank + 1)):
        if rs.level(a):
            continue
        rows = [act_on_v1(table, K, liemod.w_word(K, a, c), e)
                for e in basis]
        # a diagonal action: each basis vector scaled by a unit
        assert all(row[i] and not any(row[:i] + row[i + 1:])
                   for i, row in enumerate(rows))
        generators.append(tuple(row[i] for i, row in enumerate(rows)))
    elements, todo = {(1,) * m}, [(1,) * m]
    while todo:
        t = todo.pop()
        for g in generators:
            u = tuple(x * y % p for x, y in zip(t, g))
            if u not in elements:
                elements.add(u)
                todo.append(u)
    return np.array(sorted(elements), dtype=np.int64)


@pytest.mark.parametrize("name,p", [("A3", 5), ("A4", 3), ("D4", 3),
                                    ("D4", 5)])
def test_normal_form_is_the_least_state_of_its_torus_class(name, p):
    """With no maps the kernel's orbits are the torus classes: every
    state's class is labelled by the least state of its class under all of
    T0, found by brute force over T0's elements, and each class's size is
    its count of states; the scalar reduce, digit by digit, gives the same
    least state for every state, and the classes' listing (_classes) names
    exactly the states that are their own, in ascending order, with their
    numbers and sizes."""
    table = get_table(name)
    chars, _ = census_mod._class_maps(table)
    m = len(table.rs.phi1)
    units = torus_by_words(table, p)
    states = np.arange(p ** m)
    digits = census_mod._digits(states, p, m)
    weight = p ** np.arange(m - 1, -1, -1)
    least = np.min([(digits * u % p) @ weight for u in units], axis=0)
    label, reps, sizes = census_mod._orbit_partition([], p, m, chars)
    assert np.array_equal(reps.take(label), least)
    assert np.array_equal(sizes, np.bincount(label))
    torus, blocks, count = census_mod._classes(chars, p, m)
    assert len(torus.exps) == len(units)
    assert [torus.reduce(x)[0] for x in digits.tolist()] == (
        census_mod._digits(least, p, m).tolist())
    # the listing that crosscheck codes: the states that are their own
    # normal form, block by block, numbered from each block's first
    listed = [lo + torus.fixed(h) for lo, _, h, _ in blocks]
    assert np.array_equal(np.concatenate(listed), reps)
    assert [first for *_, first in blocks] == np.cumsum(
        [0] + [x.size for x in listed[:-1]]).tolist()
    assert count == reps.size == np.count_nonzero(least == states)
    assert np.array_equal(np.concatenate(
        [torus.sizes(h) for _, _, h, _ in blocks]), sizes)


def tamper_table(monkeypatch, tamper):
    """Patch _Torus.table to hand tamper(h, table) the first table it builds
    for each group at the block's first digit, in place."""
    build = census_mod._Torus.table

    def table(self, h, j):
        new = (h, j) not in self.tables
        out = build(self, h, j)
        if new and j == self.f:
            tamper(h, out)
        return out

    monkeypatch.setattr(census_mod._Torus, "table", table)


def fix_one(h, out):
    """A tamper for tamper_table: the first state that the table of the
    whole torus moves, fixed instead."""
    if h == 0:
        moved = np.flatnonzero(out != np.arange(out.size))
        out[moved[0]] = moved[0]


def test_the_partition_checks_the_class_sizes(monkeypatch):
    """A suffix table that fixes a state it should move makes that state a
    class of its own besides its true class: the classes' sizes then sum to
    more than p**m, and the kernel raises InternalError."""
    table = get_table("D4")
    chars, maps = census_mod._class_maps(table)
    p, m = 3, 8
    tamper_table(monkeypatch, fix_one)
    with pytest.raises(InternalError, match="sizes sum to"):
        census_mod._orbit_partition(maps, p, m, chars)


def test_the_partition_checks_the_class_sizes_before_pricing(monkeypatch):
    """The classes' sizes are checked as the classes are listed (_classes):
    on D4/F3 with one tampered suffix table, the partition raises
    InternalError before it prices its arrays (_check_memory), and so
    before it allocates any."""
    table = get_table("D4")
    chars, maps = census_mod._class_maps(table)

    def priced(need, what):
        raise AssertionError(f"priced {what} first")

    tamper_table(monkeypatch, fix_one)
    monkeypatch.setattr(census_mod, "_check_memory", priced)
    with pytest.raises(InternalError, match="sizes sum to"):
        census_mod._orbit_partition(maps, 3, 8, chars)


def test_the_partition_checks_each_least_state_is_normal(monkeypatch):
    """A suffix table that names another state of a class as its least
    one: on D4/F3, the least state r of an orbit and the next state s of
    its class, which lies below every other class of the orbit, so s
    becomes the orbit's least state, which the digit-by-digit normal form
    moves to r, and the kernel raises InternalError; the classes' sizes
    still sum to p**m."""
    table = get_table("D4")
    chars, maps = census_mod._class_maps(table)
    p, m = 3, 8
    label, least, _ = census_mod._orbit_partition(maps, p, m, chars)
    classes, reps, _ = census_mod._orbit_partition([], p, m, chars)
    for r in least.tolist():
        members = np.flatnonzero(classes == classes[r])
        others = reps[label.take(reps) == label[r]]
        if members.size > 1 and (others.size == 1
                                 or members[1] < others[1]):
            break

    def rename(h, out):
        if h == 0:
            out[members] = members[1]

    tamper_table(monkeypatch, rename)
    with pytest.raises(InternalError, match="is not its own normal form"):
        census_mod._orbit_partition(maps, p, m, chars)


@pytest.mark.parametrize("name,p,error", [
    ("E6", 3, orbitlab.UnsupportedFamily),
    ("E7", 3, orbitlab.UnsupportedFamily),
    ("E8", 3, orbitlab.UnsupportedFamily),
    ("D4", 2, orbitlab.CharTwo),
])
def test_census_entry_points_refuse_an_unsupported_domain_first(
        monkeypatch, name, p, error):
    """enumerate_orbits, and crosscheck through it, refuse a system or
    prime the classification does not cover before the budget is priced or
    any partition runs, with the default budget and with a huge one."""
    def partition(*args):
        raise AssertionError("the partition ran")

    monkeypatch.setattr(census_mod, "_orbit_partition", partition)
    monkeypatch.delenv(census_mod.BUDGET_ENV, raising=False)
    table = get_table(name)
    for budget in (None, 10**30):
        with pytest.raises(error):
            enumerate_orbits(table, p, budget=budget)
        if budget is not None:
            monkeypatch.setenv(census_mod.BUDGET_ENV, str(budget))
        with pytest.raises(error):
            crosscheck(table, p)


def test_the_partition_reaches_no_classifier_name():
    # the census is the classifier's ground truth only while the partition
    # reads nothing of it: follow every name that the partition and the
    # moves of its generators use, into the chevorbit modules they import
    # from, and find none of the classifier's
    classifier = {"classify", "_classifier", "classify_many", "codes",
                  "lanes", "code", "decode", "_lift_kernel"}
    for start, needs in (("_orbit_partition", {"_classes", "_changes",
                                               "_edge_images", "_join"}),
                         ("_Torus", {"_primitive_root", "_digits"}),
                         ("_classes", {"_Torus", "_prefixes", "reduce",
                                       "sizes"}),
                         ("_changes", set()), ("_edge_images", set()),
                         ("_primitive_root", set()),
                         ("_class_maps", {"_action_plan"})):
        reached = reached_names(census_mod, start)
        assert needs <= reached, (start, needs - reached)
        assert not reached & classifier, (start, reached & classifier)
    # the walk sees the classifier where it is reached
    assert {"classify", "_classifier", "_lift_kernel"} <= reached_names(
        census_mod, "enumerate_orbits")


def test_the_bracket_oracle_reaches_no_action_code():
    # helpers.bracket checks x.[u, v] = [x.u, x.v] only while it reads
    # nothing of the action: follow every name it uses into chevorbit and
    # find none of liemod's action code, and no structure constants but
    # the basis brackets of StructureConstantTable.bracket_keys
    action = {"_action_plan", "_plans", "_act_on_ints", "_act_in_domain",
              "apply_word", "apply_root_element"}
    constants = {"_nt", "nv", "structure_constant", "structure_constant_fast",
                 "closed_form_table", "_bracket_arrays"}
    reached = reached_names(helpers, "bracket")
    assert {"bracket_keys", "LieVector", "_phi1_keys"} <= reached
    assert not reached & (action | constants), reached & (action | constants)
    # the walk sees the action where it is reached
    assert action - {"apply_root_element"} <= reached_names(
        liemod, "apply_root_element")


@pytest.mark.parametrize("name,p", CENSUS_CASES)
def test_orbit_id_is_closed_under_every_level0_root_element(name, p):
    """The census walks only x_{+-alpha}(1) for simple level-0 alpha, so its
    components lie inside the orbits of the whole level-0 group.  Closure
    under every x_gamma(t), gamma in phi0 and t in F_p^*, makes each
    component a union of such orbits, so the two partitions are equal."""
    table = get_table(name)
    rs = table.rs
    K = get_field(p)
    orbit_id = get_census(name, p).orbit_id
    m = len(rs.phi1)
    pw = [p ** (m - 1 - i) for i in range(m)]
    states = np.arange(p**m, dtype=np.int64)
    digits = [states // q % p for q in pw]
    unit = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    for g in rs.phi0:
        for t in range(1, p):
            # x_gamma(t) is linear on V1; row i is the image of unit vector i,
            # and only the digits whose column differs from the identity move
            rows = np.array([act_on_v1(table, K, [(g, t)], e) for e in unit])
            image = states.copy()
            for j in np.flatnonzero((rows != np.eye(m)).any(axis=0)):
                new = sum(int(c) * digits[i]
                          for i, c in enumerate(rows[:, j]) if c) % p
                image += (new - digits[j]) * pw[j]
            assert np.array_equal(orbit_id[image], orbit_id), (g, t)


# Brute force against the predicted census beyond the pinned cases; kept out
# of CENSUS_CASES, which the acceptance criteria crosscheck in full.
@pytest.mark.parametrize(
    "name,p,count", [("A5", 5, 8), ("A6", 3, 6), ("D4", 7, 18)]
)
def test_enumeration_matches_predicted_census_beyond_pinned_cases(
        name, p, count):
    table = get_table(name)
    tracemalloc.start()
    try:
        census = enumerate_orbits(table, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if (name, p) == ("D4", 7):
        # the one int32 index array of the partition is 4 bytes per state
        assert peak <= 5 * p ** len(table.rs.phi1)
    assert census.orbit_count == count
    assert ({e.descriptor for e in census.orbits}
            == set(predicted_census(table, p)))
    assert sum(e.size for e in census.orbits) == p ** len(table.rs.phi1)


def test_brute_force_agrees_with_classifier_and_prediction_on_a7_over_f3():
    # 531,441 states, the largest family-A census in this suite: the BFS
    # orbits, their crosscheck against the classifier, and the predicted
    # census (crosscheck's last check) all agree
    table = get_table("A7")
    census = enumerate_orbits(table, 3)
    assert census.orbit_count == 6
    assert ({e.descriptor for e in census.orbits}
            == set(predicted_census(table, 3)))
    report = crosscheck(table, 3, census=census)
    assert report["states"] == 3 ** 12
    assert all(v == "ok" for v in report["checks"].values())


# D6/F3 has 43,046,721 states, past the default budget and too slow for this
# suite: scripts/run_census.py --system D6 -p 3 --budget 43046721 enumerated
# it, with its crosscheck, into these nine orbits
D6_F3_ORBITS = {
    ("I", ()), ("II", ()), ("IIIb", ()),
    ("IIIa", (("rho_class", "1"),)), ("IIIa", (("rho_class", "2"),)),
    ("IV", (("rho_class", "1"),)), ("IV", (("rho_class", "2"),)),
    ("V", (("k", 1), ("rho_class", "1"))),
    ("V", (("k", 2), ("rho_class", "1"))),
}


def test_predicted_census_of_d6_over_f3_is_the_enumerated_one():
    predicted = predicted_census(get_table("D6"), 3)
    assert len(predicted) == 9
    assert {(d.label, tuple(sorted(d.to_json()["params"].items())))
            for d in predicted} == D6_F3_ORBITS


def test_census_metadata_and_sizes():
    census = get_census("A3", 5)
    table = get_table("A3")
    assert (census.family, census.rank, census.p) == ("A", 3, 5)
    m = len(table.rs.phi1)
    assert census.total_states == 5**m
    assert sum(e.size for e in census.orbits) == census.total_states
    # representatives are listed in ascending state order, zero first
    states = [state_of_vector(table.rs, 5, e.representative) for e in census.orbits]
    assert states == sorted(states)
    assert census.orbits[0].representative == (0,) * m


def test_state_encoding_round_trip():
    rs = get_table("D4").rs
    p = 3
    m = len(rs.phi1)
    for s in range(0, 3**m, 97):
        assert state_of_vector(rs, p, vector_of_state(rs, p, s)) == s
    # first coordinate is the most significant digit
    assert state_of_vector(rs, p, (1,) + (0,) * (m - 1)) == 3 ** (m - 1)


@pytest.mark.parametrize("name,p", [("A1", 5), ("A2", 2_147_483_647),
                                    ("D4", 1009)])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_state_codec_round_trips_through_the_one_decoder(name, p, dtype):
    # A1 has no level-1 roots; A2's p**2 is just below the 2**62 states
    # that check_budget admits, so its largest states need int64; D4's
    # 1009**8 states pass 2**64, so its largest are decoded from Python
    # ints, into the same narrow digits
    rs = get_table(name).rs
    m = len(rs.phi1)
    top = min(p ** m, np.iinfo(dtype).max + 1)
    states = np.array(sorted({s for s in (0, 1, p - 1, p, top // 3, top - 1)
                              if s < top}), dtype=dtype)
    digits = census_mod._digits(states, p, m)
    assert digits.dtype == np.min_scalar_type(-p)
    assert digits.shape == (len(states), m)
    for s, row in zip(states.tolist(), digits.tolist()):
        x = vector_of_state(rs, p, s)
        assert x == tuple(row) and all(type(c) is int for c in x)
        assert state_of_vector(rs, p, x) == s
    assert vector_of_state(rs, p, p ** m - 1) == (p - 1,) * m


def test_state_codec_refuses_what_is_not_a_state_or_a_vector():
    rs = get_table("D4").rs
    with pytest.raises(ValueError, match="8 coefficients"):
        state_of_vector(rs, 5, [1] * 7)
    for x in (["3", 1.9, 0, 0, 0, 0, 0, 0], [0.0] * 8):
        with pytest.raises(TypeError):
            state_of_vector(rs, 5, x)
    for s in (-1, 5**8, 5**8 + 1):
        with pytest.raises(ValueError, match="not a state"):
            vector_of_state(rs, 5, s)
    with pytest.raises(TypeError):
        vector_of_state(rs, 5, 3.0)
    # entries are reduced mod p, numpy integers included
    assert state_of_vector(rs, 5, [np.int64(6), -1] + [0] * 6) == 5**7 + 4 * 5**6


@pytest.mark.parametrize("name,p", [("A1", 3), ("A3", 3), ("D4", 3)])
def test_census_representatives_are_their_least_states(name, p):
    table = get_table(name)
    rs = table.rs
    chars, maps = census_mod._class_maps(table)
    orbit_id, least, _ = census_mod._orbit_partition(maps, p, len(rs.phi1),
                                                     chars)
    census = enumerate_orbits(table, p)
    assert [o.representative for o in census.orbits] == [
        vector_of_state(rs, p, s) for s in least.tolist()]
    assert (orbit_id == census.orbit_id).all()


def test_enumeration_is_deterministic():
    table = get_table("A3")
    assert enumerate_orbits(table, 3) == enumerate_orbits(table, 3)


def test_enumeration_is_generator_order_independent(monkeypatch):
    table = get_table("A3")
    base = enumerate_orbits(table, 3)
    original = census_mod._class_maps

    def reversed_maps(t):
        chars, maps = original(t)
        return chars, list(reversed(maps))

    monkeypatch.setattr(census_mod, "_class_maps", reversed_maps)
    assert enumerate_orbits(table, 3) == base


def test_budget_guard():
    table = get_table("D4")
    with pytest.raises(BudgetExceeded):
        enumerate_orbits(table, 5, budget=100)


@pytest.mark.parametrize("p", [0, -3, 1])
def test_check_budget_refuses_a_p_below_two(p):
    # read as a state base, as state_of_vector and vector_of_state read it:
    # 0**8, (-3)**8 and 1**8 are no counts of states
    with pytest.raises(ValueError, match=f"p must be >= 2, got {p}"):
        census_mod.check_budget(get_table("D4").rs, p)


def test_budget_refuses_a_partition_past_physical_memory(monkeypatch):
    rs = get_table("D4").rs  # 11**8 = 214,358,881 states: 857 MB of index
    for megabytes, admitted in ((8192, True), (512, False)):
        monkeypatch.setattr(census_mod, "_physical_memory",
                            lambda: megabytes * 2**20)
        if admitted:
            assert census_mod.check_budget(rs, 11, 10**9) == 11**8
        else:
            with pytest.raises(BudgetExceeded, match="physical memory"):
                census_mod.check_budget(rs, 11, 10**9)


def test_the_partition_prices_its_classes_before_its_label(monkeypatch):
    """A2 has a trivial torus, so each of its 257**2 states over F_257 is a
    class: with physical memory between check_budget's price of the states
    and that price plus the classes', enumerate_orbits passes the budget
    check and is refused by the partition's own, before it allocates the
    index of the states, and the CLI's table gives that exit code 4."""
    table, p, m = get_table("A2"), 257, 2
    states = (p ** m * np.dtype(np.int32).itemsize
              + census_mod._BLOCK_BYTES * census_mod._BLOCK_STATES)
    classes = states + census_mod._CLASS_BYTES * p ** m
    monkeypatch.setattr(census_mod, "_physical_memory",
                        lambda: (states + classes) // 2)
    assert census_mod.check_budget(table.rs, p) == p ** m
    census_mod._class_maps(table)  # cached before tracing
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"joining the {p ** m} "
                           "torus classes") as e:
            enumerate_orbits(table, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p ** m * np.dtype(np.int32).itemsize
    assert cli.exit_status(lambda: enumerate_orbits(table, p)) == 4


def test_budget_env_override(monkeypatch):
    table = get_table("D4")
    monkeypatch.setenv("CHEVORBIT_BUDGET", "50")
    with pytest.raises(BudgetExceeded):
        enumerate_orbits(table, 3)
    # an explicit argument wins over the environment
    assert enumerate_orbits(table, 3, budget=10_000_000).orbit_count == 14


def test_non_prime_modulus_rejected():
    with pytest.raises(Exception) as exc_info:
        enumerate_orbits(get_table("A2"), 4)
    assert exc_info.type.__name__ == "NotPrime"


def test_predicted_census_matches_enumeration():
    for name, p in (("A3", 3), ("D4", 3), ("D4", 5)):
        table = get_table(name)
        predicted = predicted_census(table, p)
        enumerated = [e.descriptor for e in get_census(name, p).orbits]
        assert sorted(d.to_json()["label"] for d in predicted) == sorted(
            d.to_json()["label"] for d in enumerated
        )
        assert set(predicted) == set(enumerated)
        assert len(predicted) == len(enumerated)


def test_crosscheck_happy_path_report():
    report = crosscheck(get_table("A2"), 3, census=get_census("A2", 3))
    assert report["system"] == "A2"
    assert report["orbit_count"] == 9
    assert all(v == "ok" for v in report["checks"].values())


def test_crosscheck_detects_a_broken_classifier(monkeypatch):
    # Collapse the classifier to a constant: descriptor distinctness must fail
    # and the report must say which check tripped.
    table = get_table("A2")
    constant = OrbitDescriptor(family="A", rank=2, p=3, label="I", params=())
    monkeypatch.setattr(census_mod, "classify", lambda t, K, x: constant)
    with pytest.raises(MismatchReport) as exc_info:
        crosscheck(table, 3)
    assert exc_info.value.details


def sampled_states(seed: int, pairs: int, total: int) -> list[int]:
    """The crosscheck's draw, rebuilt with Python ints: little-endian 64-bit
    words of random.Random(seed).randbytes, each reduced mod total."""
    raw = random.Random(seed).randbytes(16 * pairs)
    return [int.from_bytes(raw[i:i + 8], "little") % total
            for i in range(0, len(raw), 8)]


@pytest.mark.parametrize("name,p", [("D4", 5), ("D5", 3)])
def test_crosscheck_names_a_sampled_state_whose_code_decodes_to_nothing(
        monkeypatch, name, p):
    """Codes shifted by one at the states whose first digit is p - 1 pass
    the class pass, which codes least states alone, and reach the sample,
    where decode knows none of them: MismatchReport, with the first
    sampled state of the code that failed, as a vector, and the code."""
    table = get_table(name)
    rs, m = table.rs, len(table.rs.phi1)
    clf = orbitlab._classifier(table, get_field(p))
    helpers.shift_top_digit_codes(monkeypatch)
    with pytest.raises(MismatchReport, match="names no orbit") as e:
        crosscheck(table, p, census=get_census(name, p))
    state, code = e.value.details["state"], e.value.details["code"]
    assert set(e.value.details) == {"state", "code"}
    assert state[0] == p - 1 and code == clf.code(state) + 1
    drawn = [vector_of_state(rs, p, s)
             for s in sampled_states(0, census_mod._PAIR_CHUNK, p ** m)]
    assert state == next(x for x in drawn
                         if x[0] == p - 1 and clf.code(x) + 1 == code)


def test_crosscheck_batch_pairs_catch_one_wrong_descriptor(monkeypatch):
    # state 2i and 2i + 1 of the batch are s1 and s2 of pair i, in the
    # order of the draw; the batch step gives each row its class, and one
    # wrong class is caught
    table = get_table("D4")
    census = get_census("D4", 3)
    real = census_mod._sample_classes
    pair = 700  # past the scalar prefix, so only the batch can see it
    batches = []

    def one_wrong(clf, rows, classes):
        out, codes = real(clf, rows, classes)
        batches.append(np.array(rows))
        a, b = 2 * pair, 2 * pair + 1
        if out[a] == out[b]:
            out[a] = next(d for d in out if d != out[b])
        else:
            out[a] = out[b]
        return out, codes

    monkeypatch.setattr(census_mod, "_sample_classes", one_wrong)
    with pytest.raises(MismatchReport,
                       match="same_orbit disagrees with the enumeration") as e:
        crosscheck(table, 3, census=census, seed=5)
    assert set(e.value.details) == {"x1", "x2", "got", "want"}
    drawn = [vector_of_state(table.rs, 3, st)
             for st in sampled_states(5, 10_000, 3**8)]
    (sampled,) = batches
    assert sampled.tolist() == [list(x) for x in drawn]
    assert (e.value.details["x1"], e.value.details["x2"]) == (
        drawn[2 * pair], drawn[2 * pair + 1])


@pytest.mark.parametrize("pairs,sampled", [(10_000, 500), (40, 40)])
def test_crosscheck_runs_scalar_same_orbit_on_a_sample_prefix(
        monkeypatch, pairs, sampled):
    table = get_table("D4")
    census = get_census("D4", 3)
    calls = []
    real = census_mod.same_orbit

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(census_mod, "same_orbit", counted)
    report = crosscheck(table, 3, census=census, pairs=pairs)
    assert report["pairs_sampled"] == pairs
    assert len(calls) == sampled
    drawn = [vector_of_state(table.rs, 3, st)
             for st in sampled_states(0, pairs, 3**8)]
    assert calls == list(zip(drawn[:2 * sampled:2], drawn[1:2 * sampled:2]))


def test_orbit_id_is_not_serialized_or_compared():
    census = get_census("A3", 3)
    assert "orbit_id" not in census.to_json()
    bare = dataclasses.replace(census, orbit_id=None)
    assert bare == census and hash(bare) == hash(census)


@pytest.mark.parametrize("keep_orbit_id", [True, False])
def test_crosscheck_rejects_tampered_sizes(keep_orbit_id):
    census = get_census("A3", 5)
    orbits = list(census.orbits)
    orbits[1] = dataclasses.replace(orbits[1], size=orbits[1].size + 1)
    tampered = dataclasses.replace(
        census, orbits=tuple(orbits),
        orbit_id=census.orbit_id if keep_orbit_id else None,
    )
    with pytest.raises(MismatchReport, match="sizes"):
        crosscheck(get_table("A3"), 5, census=tampered)


def test_crosscheck_rejects_a_census_without_its_last_orbit():
    # orbit_id names one orbit more than the census lists; the code pass
    # skips it, and the size check reports it
    census = get_census("D4", 3)
    tampered = dataclasses.replace(census, orbits=census.orbits[:-1])
    with pytest.raises(MismatchReport, match="sizes") as e:
        crosscheck(get_table("D4"), 3, census=tampered)
    assert e.value.details["enumerated"] == [o.size for o in census.orbits]


def test_crosscheck_refuses_codes_past_64_bit_lanes():
    # A2's codes pass 2**63 from p = 1,358,187,923 on, at fewer than 2**62
    # states; refused before any state is read
    p = 1_358_187_923
    census = census_mod.OrbitCensus("A", 2, p, p * p, ())
    with pytest.raises(BudgetExceeded, match="64-bit lanes"):
        crosscheck(get_table("A2"), p, census=census)


@pytest.mark.parametrize("keep_orbit_id", [True, False])
def test_crosscheck_rejects_a_representative_that_is_not_least(
        keep_orbit_id):
    table = get_table("D4")
    census = get_census("D4", 3)
    i = next(i for i, o in enumerate(census.orbits) if o.size > 1)
    other = int(np.flatnonzero(census.orbit_id == i)[-1])
    orbits = list(census.orbits)
    orbits[i] = dataclasses.replace(
        orbits[i], representative=vector_of_state(table.rs, 3, other)
    )
    tampered = dataclasses.replace(
        census, orbits=tuple(orbits),
        orbit_id=census.orbit_id if keep_orbit_id else None,
    )
    with pytest.raises(MismatchReport, match="least state"):
        crosscheck(table, 3, census=tampered)


@pytest.mark.parametrize("name,p", [("A3", 5), ("D4", 3)])
def test_crosscheck_rejects_swapped_descriptors(name, p):
    census = get_census(name, p)
    orbits = list(census.orbits)
    i, j = 1, len(orbits) - 1
    orbits[i], orbits[j] = (
        dataclasses.replace(orbits[i], descriptor=orbits[j].descriptor),
        dataclasses.replace(orbits[j], descriptor=orbits[i].descriptor),
    )
    tampered = dataclasses.replace(census, orbits=tuple(orbits))
    with pytest.raises(MismatchReport, match="representative's class") as e:
        crosscheck(get_table(name), p, census=tampered)
    assert e.value.details["representative"] == orbits[i].representative
    assert e.value.details["classified"] == orbits[j].descriptor.to_json()


@pytest.mark.parametrize("name,p", [("A3", 5), ("D4", 3)])
def test_crosscheck_recomputes_a_missing_orbit_id(name, p):
    census = dataclasses.replace(get_census(name, p), orbit_id=None)
    report = crosscheck(get_table(name), p, census=census)
    assert all(v == "ok" for v in report["checks"].values())


@pytest.mark.parametrize("name,p", [("A3", 5), ("A3", 7), ("D4", 3)])
def test_crosscheck_refuses_a_census_of_another_system_or_prime(
        monkeypatch, capsys, name, p):
    def never(*args):
        raise AssertionError("started the crosscheck")

    census = get_census("A3", 3)
    monkeypatch.setattr(census_mod, "PrimeField", never)
    monkeypatch.setattr(census_mod, "_classifier", never)
    with pytest.raises(ValueError) as e:
        crosscheck(get_table(name), p, census=census)
    assert str(e.value) == (f"the census is of A3 over F_3, "
                            f"not {name} over F_{p}")
    assert cli.exit_status(
        lambda: crosscheck(get_table(name), p, census=census)) == 2
    assert capsys.readouterr().err == f"invalid input: {e.value}\n"


@pytest.mark.parametrize("total", [3**8 + 5, 2 * 3**8])
def test_crosscheck_refuses_a_census_of_another_state_count(
        monkeypatch, total):
    def never(*args):
        raise AssertionError("started the crosscheck")

    census = dataclasses.replace(get_census("D4", 3), total_states=total)
    monkeypatch.setattr(census_mod, "PrimeField", never)
    monkeypatch.setattr(census_mod, "_classifier", never)
    with pytest.raises(ValueError, match=(
            rf"^the census counts {total} states, not the 3\*\*8 of D4 "
            rf"over F_3$")):
        crosscheck(get_table("D4"), 3, census=census)


def one_negative(ids):
    ids = ids.copy()
    ids[5] = -1
    return ids


@pytest.mark.parametrize("orbit_id", [
    lambda ids: ids[:-5],  # 5 entries short
    lambda ids: ids.astype(np.float64),
    lambda ids: ids.reshape(3**4, 3**4),
    lambda ids: ids != 0,
    one_negative,
], ids=["short", "float64", "2-D", "bool", "negative"])
def test_crosscheck_refuses_an_orbit_id_that_is_not_one_integer_per_state(
        monkeypatch, capsys, orbit_id):
    def never(*args):
        raise AssertionError("started the crosscheck")

    census = get_census("D4", 3)
    bad = dataclasses.replace(census, orbit_id=orbit_id(census.orbit_id))
    monkeypatch.setattr(census_mod, "PrimeField", never)
    monkeypatch.setattr(census_mod, "_classifier", never)
    with pytest.raises(ValueError) as e:
        crosscheck(get_table("D4"), 3, census=bad)
    assert str(e.value) == (
        "the census's orbit_id is -1 at state 5, not the index of an orbit"
        if orbit_id is one_negative else
        f"the census's orbit_id is {bad.orbit_id.dtype} of shape "
        f"{bad.orbit_id.shape}, not one integer for each of its 6561 states")
    assert cli.exit_status(
        lambda: crosscheck(get_table("D4"), 3, census=bad)) == 2
    assert capsys.readouterr().err == f"invalid input: {e.value}\n"


def test_crosscheck_budgets_the_partition_of_a_census_without_orbit_id(
        monkeypatch):
    # 101**8 states: the partition must be refused before it starts
    def never(*args):
        raise AssertionError("partitioned without a budget check")

    monkeypatch.delenv(census_mod.BUDGET_ENV, raising=False)
    monkeypatch.setattr(census_mod, "_orbit_partition", never)
    census = census_mod.OrbitCensus("D", 4, 101, 101**8, ())
    with pytest.raises(BudgetExceeded, match="more than the budget"):
        crosscheck(get_table("D4"), 101, census=census)


def test_crosscheck_rejects_negative_pairs(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("started the crosscheck")

    with monkeypatch.context() as patched:  # refused before any work
        patched.setattr(census_mod, "PrimeField", never)
        patched.setattr(census_mod, "enumerate_orbits", never)
        with pytest.raises(ValueError, match=r"^pairs must be >= 0, got -1$"):
            crosscheck(get_table("A2"), 3, pairs=-1)
    report = crosscheck(get_table("A2"), 3, census=get_census("A2", 3),
                        pairs=0)
    assert report["pairs_sampled"] == 0


def test_crosscheck_draws_a_sample_of_any_size(monkeypatch):
    # 2**24 pairs, past what one randbytes call can draw, are drawn chunk by
    # chunk: the first chunk reaches the batch step
    class Reached(Exception):
        pass

    def first_batch(clf, rows, classes):
        assert len(rows) == 2 * census_mod._PAIR_CHUNK
        raise Reached

    monkeypatch.setattr(census_mod, "_sample_classes", first_batch)
    with pytest.raises(Reached):
        crosscheck(get_table("A2"), 3, census=get_census("A2", 3),
                   pairs=2**24)


def test_crosscheck_reports_a_later_chunk_pair_as_the_one_call_draw(
        monkeypatch):
    # chunks of 512 pairs: pair 1,300 lies in the third, and the report names
    # the states of pair 1,300 of one randbytes(16 * pairs) call
    table = get_table("D4")
    census = get_census("D4", 3)
    monkeypatch.setattr(census_mod, "_PAIR_CHUNK", 512)
    real = census_mod._sample_classes
    pair, pairs, seed = 1300, 2000, 7
    batches = []

    def one_wrong(clf, rows, classes):
        out, codes = real(clf, rows, classes)
        i = pair - sum(map(len, batches)) // 2
        batches.append(np.array(rows))
        if 0 <= i < len(out) // 2:
            a, b = 2 * i, 2 * i + 1
            out[a] = out[b] if out[a] != out[b] else next(
                d for d in out if d != out[b])
        return out, codes

    monkeypatch.setattr(census_mod, "_sample_classes", one_wrong)
    with pytest.raises(MismatchReport,
                       match="same_orbit disagrees with the enumeration") as e:
        crosscheck(table, 3, census=census, pairs=pairs, seed=seed)
    states = sampled_states(seed, pairs, 3**8)
    assert [len(b) for b in batches] == [1024, 1024, 1024]
    assert np.concatenate(batches).tolist() == [
        list(vector_of_state(table.rs, 3, st)) for st in states[:3072]]
    s1, s2 = states[2 * pair], states[2 * pair + 1]
    want = bool(census.orbit_id[s1] == census.orbit_id[s2])
    assert e.value.details == {"x1": vector_of_state(table.rs, 3, s1),
                               "x2": vector_of_state(table.rs, 3, s2),
                               "got": not want, "want": want}


def test_crosscheck_fails_a_census_built_with_a_tampered_decode(monkeypatch):
    # decode names one orbit's descriptor for another orbit's code, on a new
    # table, so the census and the crosscheck both read the tampered decode:
    # the two orbits share a descriptor, and crosscheck says so
    t = build_table_oracle(get_table("D4").rs)
    K = get_field(3)
    codes = orbitlab._classifier(get_table("D4"), K).canonical_codes
    (c1, d1), (c2, d2) = [(c, d) for c, d in codes.items()
                          if d.label == "IIIa"]
    real = orbitlab._DClassifier.decode

    def tampered(self, code):
        return real(self, c2 if code == c1 else code)

    monkeypatch.setattr(orbitlab._DClassifier, "decode", tampered)
    census = enumerate_orbits(t, 3)
    assert [o.descriptor for o in census.orbits].count(d2) == 2
    assert d1 not in {o.descriptor for o in census.orbits}
    with pytest.raises(MismatchReport,
                       match="two distinct orbits share a descriptor") as e:
        crosscheck(t, 3, census=census)
    assert e.value.details["descriptor"] == d2.to_json()
    # the untampered classifier names both orbits apart
    monkeypatch.undo()
    assert all(v == "ok" for v in crosscheck(
        get_table("D4"), 3, census=get_census("D4", 3))["checks"].values())


@pytest.mark.parametrize("pairs", [10_000, 25_000])
def test_crosscheck_decodes_each_sampled_code_once(monkeypatch, pairs):
    # the batch step decodes each distinct code of the sample once per
    # crosscheck, whatever the number of chunks, and the scalar same_orbit
    # runs on exactly the first _SCALAR_PAIRS pairs
    table = get_table("D4")
    rs, K = table.rs, get_field(3)
    clf = orbitlab._classifier(table, K)
    clf.classify  # the unit binds decode before it is counted
    real_decode, real_step = clf.decode, census_mod._sample_classes
    decoded, batch, scalar = [], [], []

    def counted_decode(code):
        if batch:
            decoded.append(code)
        return real_decode(code)

    def step(*args):
        batch.append(True)
        try:
            return real_step(*args)
        finally:
            batch.pop()

    def counted_same_orbit(*args):
        scalar.append(args[2:])
        return orbitlab.same_orbit(*args)

    monkeypatch.setattr(clf, "decode", counted_decode)
    monkeypatch.setattr(census_mod, "_sample_classes", step)
    monkeypatch.setattr(census_mod, "same_orbit", counted_same_orbit)
    crosscheck(table, 3, census=get_census("D4", 3), pairs=pairs, seed=3)
    assert len(scalar) == census_mod._SCALAR_PAIRS
    sample = {clf.code(vector_of_state(rs, 3, st))
              for st in sampled_states(3, pairs, 3**8)}
    assert len(decoded) == len(set(decoded)) and set(decoded) == sample


def test_sample_classes_partition_rows_as_their_descriptors_do():
    # rows share a class exactly when they share a descriptor: with the
    # classifier's decode, where distinct codes name distinct descriptors,
    # and with one that names one descriptor for two codes; the codes
    # returned are the scalar ones
    t, K = get_table("D4"), get_field(3)
    clf = orbitlab._classifier(t, K)
    rows = census_mod._digits(np.arange(3**8), 3, 8)
    (c1, _), (c2, _) = [(c, d) for c, d in clf.canonical_codes.items()
                        if d.label == "IIIa"]
    merged = types.SimpleNamespace(
        codes=clf.codes,
        decode=lambda c: clf.decode(c2 if c == c1 else c))
    scalar = [clf.code(x) for x in rows.tolist()]
    for classifier in (clf, merged):
        descs = [classifier.decode(c) for c in scalar]
        got, codes = census_mod._sample_classes(classifier, rows, {})
        got = got.tolist()
        assert len(set(zip(descs, got))) == len(set(descs)) == len(set(got))
        assert codes.tolist() == scalar
    assert len(set(descs)) == census_mod.enumerate_orbits(t, 3).orbit_count - 1


def test_crosscheck_scalar_prefix_runs_across_chunks(monkeypatch):
    table = get_table("D4")
    calls = []
    real = census_mod.same_orbit

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(census_mod, "_PAIR_CHUNK", 128)
    monkeypatch.setattr(census_mod, "same_orbit", counted)
    crosscheck(table, 3, census=get_census("D4", 3), pairs=600)
    drawn = [vector_of_state(table.rs, 3, st)
             for st in sampled_states(0, 600, 3**8)]
    assert calls == list(zip(drawn[:1000:2], drawn[1:1000:2]))


def test_crosscheck_sample_memory_does_not_grow_with_pairs():
    # checked 10,000 pairs at a time, 100,000 pairs hold what 10,000 do; a
    # sample held whole grew by about 240 bytes a pair on D5/F3
    table = get_table("D5")
    census = get_census("D5", 3)
    crosscheck(table, 3, census=census, pairs=10)  # builds the caches
    peaks = {}
    for pairs in (10_000, 100_000):
        tracemalloc.start()
        try:
            crosscheck(table, 3, census=census, pairs=pairs)
            peaks[pairs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[100_000] < peaks[10_000] + 2**20, peaks


def test_run_census_script_rejects_negative_pairs(capsys):
    path = Path(__file__).parents[1] / "scripts" / "run_census.py"
    parse_args = runpy.run_path(str(path), run_name="run_census")["parse_args"]
    with pytest.raises(SystemExit) as e:
        parse_args(["--pairs", "-1"])
    assert e.value.code == 2
    assert "--pairs must be >= 0" in capsys.readouterr().err
    assert parse_args(["--pairs", "0"]).pairs == 0


@pytest.mark.parametrize("argv,code,prefix", [
    (["--system", "A2", "-p", "3", "--budget", "0"], 2, "invalid input"),
    (["--budget", "-5"], 2, "invalid input"),
    (["--system", "A2", "-p", "4"], 2, "invalid input"),
    (["--system", "Q3", "-p", "3"], 2, "invalid input"),
    (["--system", "E6", "-p", "3"], 3, "unsupported"),
    (["--system", "E8", "-p", "3", "--budget", "1"], 3, "unsupported"),
    (["--system", "D4", "-p", "2"], 3, "unsupported"),
    (["--system", "A3", "-p", "3", "--budget", "80"], 4, "budget exceeded"),
    (["--budget", "9"], 4, "budget exceeded"),
    (["--system", "A40", "-p", "3"], 4, "budget exceeded"),
    # 101**8 states, within the budget but past physical memory
    (["--system", "D4", "-p", "101", "--budget", "100000000000000000000"], 4,
     "budget exceeded"),
])
def test_run_census_script_refuses_a_case_before_building_a_table(
        monkeypatch, capsys, argv, code, prefix):
    import chevorbit

    def fail(rs):
        raise AssertionError(f"built the {rs.name} table")

    # the script imports build_table_oracle from the package when it runs
    monkeypatch.setattr(chevorbit, "build_table_oracle", fail)
    path = Path(__file__).parents[1] / "scripts" / "run_census.py"
    main = runpy.run_path(str(path), run_name="run_census")["main"]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{prefix}: ") and err.count("\n") == 1


def test_run_census_script_runs_family_a_over_f2(capsys):
    # the CLI documents an odd modulus; the library and the script do not
    path = Path(__file__).parents[1] / "scripts" / "run_census.py"
    main = runpy.run_path(str(path), run_name="run_census")["main"]
    assert main(["--system", "A3", "-p", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].split()[:4] == ["A3", "2", "16", "5"]
    assert out.endswith("  ok\n") and err == ""


def test_run_census_script_reports_a_failed_crosscheck(monkeypatch, capsys):
    import chevorbit

    def mismatch(*args, **kwargs):
        raise MismatchReport("synthetic disagreement", {"state": (1, 2)})

    monkeypatch.setattr(chevorbit, "crosscheck", mismatch)
    path = Path(__file__).parents[1] / "scripts" / "run_census.py"
    main = runpy.run_path(str(path), run_name="run_census")["main"]
    assert main(["--system", "A2", "-p", "3"]) == 1
    _, err = capsys.readouterr()
    assert err == ('verification failed: synthetic disagreement\n'
                   '{"state": [1, 2]}\n')


# -- crosscheck failure reports: each check, tripped by one monkeypatch ------------


def _d4_crosscheck(**kwargs):
    return crosscheck(get_table("D4"), 3, pairs=50, **kwargs)


def shift_code(monkeypatch, clf, state, code):
    """Patch clf's batch codes to give code(old) at every row equal to the
    vector state."""
    real = clf.codes

    def shifted(chunk):
        codes = real(chunk)
        hit = (np.asarray(chunk) == state).all(axis=1)
        if hit.any():
            codes = codes.copy()
            codes[hit] = code(codes[hit])
        return codes

    monkeypatch.setattr(clf, "codes", shifted)


def batch_steps(monkeypatch) -> list:
    """The rows of each call of crosscheck's batch step for its sampled
    pairs, recorded as they are made."""
    real, calls = census_mod._sample_classes, []

    def step(clf, rows, classes):
        calls.append(rows)
        return real(clf, rows, classes)

    monkeypatch.setattr(census_mod, "_sample_classes", step)
    return calls


def test_crosscheck_reports_a_code_that_varies_inside_an_orbit(monkeypatch):
    # check (a) codes the least state of each torus class: a code shifted
    # at the least state of a class that is not its orbit's least, listed
    # past the first chunk of 2**6 classes, is caught there
    table, census = get_table("D4"), get_census("D4", 3)
    rs = table.rs
    chars, _ = census_mod._class_maps(table)
    _, least, _ = census_mod._orbit_partition([], 3, 8, chars)
    monkeypatch.setattr(census_mod, "_CHECK_CHUNK", 1 << 6)
    reps = {state_of_vector(rs, 3, o.representative) for o in census.orbits}
    state = next(s for s in least[1 << 6:].tolist() if s not in reps)
    i = int(census.orbit_id[state])
    clf = orbitlab._classifier(table, get_field(3))
    shift_code(monkeypatch, clf, vector_of_state(rs, 3, state),
               lambda c: c + 1)
    sampled = batch_steps(monkeypatch)
    with pytest.raises(MismatchReport, match="varies inside") as e:
        _d4_crosscheck(census=census)
    assert not sampled
    assert e.value.details == {
        "state": vector_of_state(rs, 3, state),
        "orbit_representative": census.orbits[i].representative,
    }


def test_crosscheck_checks_each_sampled_state_against_its_orbit_code(
        monkeypatch):
    # a sampled state that is no class's least state gets the code of a
    # third orbit's representative: check (a) never codes it, and each of
    # its pairs, with a state of neither orbit, still compares apart, so
    # only the sample's per-state check can catch it
    table, census = get_table("D4"), get_census("D4", 3)
    rs, oid = table.rs, census.orbit_id
    chars, _ = census_mod._class_maps(table)
    least = set(census_mod._orbit_partition([], 3, 8, chars)[1].tolist())
    drawn = sampled_states(0, 50, 3**8)

    def partners(state):  # the orbits of the states paired with state
        return {int(oid[drawn[b ^ 1]]) for b, s in enumerate(drawn)
                if s == state}

    state = next(s for s in drawn if s not in least
                 and oid[s] not in partners(s))
    i = int(oid[state])
    j = next(j for j in range(census.orbit_count)
             if j not in partners(state) | {i})
    clf = orbitlab._classifier(table, get_field(3))
    other = clf.code(census.orbits[j].representative)
    shift_code(monkeypatch, clf, vector_of_state(rs, 3, state),
               lambda c: other)
    sampled = batch_steps(monkeypatch)
    with pytest.raises(MismatchReport, match="varies inside") as e:
        _d4_crosscheck(census=census)
    assert sampled  # found past the sample's pair comparison
    assert e.value.details == {
        "state": vector_of_state(rs, 3, state),
        "orbit_representative": census.orbits[i].representative,
    }


def test_crosscheck_codes_at_most_a_check_chunk_per_lane_call(monkeypatch):
    # D5/F3's 68,921 classes take three calls of the class pass, and the
    # default sample of 10,000 pairs one more: no call has more than
    # _CHECK_CHUNK rows, and each class and sampled state is coded once
    table, census = get_table("D5"), get_census("D5", 3)
    rows = helpers.lane_rows(monkeypatch,
                             orbitlab._classifier(table, get_field(3)))
    crosscheck(table, 3, census=census)
    assert max(rows) <= census_mod._CHECK_CHUNK and len(rows) == 4
    assert sum(rows) == 68_921 + 2 * 10_000


def test_crosscheck_checks_that_the_listed_classes_cover_the_states(
        monkeypatch):
    # the crosscheck lists the torus classes itself: one dropped, the
    # largest, which is no representative, leaves their sizes short of p**m
    table, census = get_table("D4"), get_census("D4", 3)
    chars, _ = census_mod._class_maps(table)
    _, least, _ = census_mod._orbit_partition([], 3, 8, chars)
    assert vector_of_state(table.rs, 3, int(least[-1])) not in {
        o.representative for o in census.orbits}
    real = census_mod._Torus.fixed

    def dropped(self, h):  # D4/F3 is one block: its last class goes
        return real(self, h)[:-1]

    monkeypatch.setattr(census_mod._Torus, "fixed", dropped)
    with pytest.raises(InternalError, match=(
            rf"^the classes' sizes sum to \d+, not to the {3**8} states$")):
        _d4_crosscheck(census=census)


def test_crosscheck_reports_scalar_and_batch_codes_that_disagree(monkeypatch):
    census = get_census("D4", 3)
    rep = census.orbits[3].representative
    clf = orbitlab._classifier(get_table("D4"), get_field(3))
    real = clf.code

    def skewed(x):
        return real(x) + (tuple(x) == rep)

    monkeypatch.setattr(clf, "code", skewed)
    with pytest.raises(MismatchReport, match="scalar and batch") as e:
        _d4_crosscheck(census=census)
    assert e.value.details == {"representative": rep}


def test_crosscheck_reports_two_orbits_sharing_a_descriptor(monkeypatch):
    # orbit j is relabelled with orbit i's descriptor, and the decode agrees,
    # so only the distinctness check can notice
    census = get_census("D4", 3)
    orbits = list(census.orbits)
    i, j = 2, 5
    shared, lost = orbits[i].descriptor, orbits[j].descriptor
    orbits[j] = dataclasses.replace(orbits[j], descriptor=shared)
    clf = orbitlab._classifier(get_table("D4"), get_field(3))
    real = clf.decode

    def merged(code):
        d = real(code)
        return shared if d == lost else d

    monkeypatch.setattr(clf, "decode", merged)
    with pytest.raises(MismatchReport, match="share a descriptor") as e:
        _d4_crosscheck(census=dataclasses.replace(census, orbits=tuple(orbits)))
    assert e.value.details == {
        "first": orbits[i].representative,
        "second": orbits[j].representative,
        "descriptor": shared.to_json(),
    }


def test_crosscheck_reports_a_canonical_form_in_another_orbit(monkeypatch):
    census = get_census("D4", 3)
    wrong, other = census.orbits[4], census.orbits[9]
    real = census_mod.canonical_form

    def swapped(table, K, d):
        return real(table, K, other.descriptor if d == wrong.descriptor else d)

    monkeypatch.setattr(census_mod, "canonical_form", swapped)
    with pytest.raises(MismatchReport, match="different orbit") as e:
        _d4_crosscheck(census=census)
    assert e.value.details == {
        "descriptor": wrong.descriptor.to_json(),
        "canonical": real(get_table("D4"), get_field(3), other.descriptor),
        "expected_representative": wrong.representative,
    }


def test_crosscheck_reports_a_scalar_same_orbit_disagreement(monkeypatch):
    table = get_table("D4")
    real = census_mod.same_orbit
    monkeypatch.setattr(census_mod, "same_orbit",
                        lambda *args: not real(*args))
    with pytest.raises(MismatchReport, match="same_orbit disagrees") as e:
        _d4_crosscheck(census=get_census("D4", 3), seed=3)
    x1, x2 = (vector_of_state(table.rs, 3, st)
              for st in sampled_states(3, 1, 3**8))
    want = real(table, get_field(3), x1, x2)
    assert e.value.details == {"x1": x1, "x2": x2, "got": not want,
                               "want": want}


def test_crosscheck_reports_duplicated_predicted_descriptors(monkeypatch):
    real = census_mod.predicted_census
    twice = real(get_table("D4"), 3)[6]
    monkeypatch.setattr(census_mod, "predicted_census",
                        lambda t, p: real(t, p) + [twice])
    with pytest.raises(MismatchReport, match="duplicates") as e:
        _d4_crosscheck(census=get_census("D4", 3))
    assert e.value.details == {"duplicated": [twice.to_json()]}


def test_crosscheck_reports_predicted_and_enumerated_lists_that_differ(
        monkeypatch):
    real = census_mod.predicted_census
    dropped = real(get_table("D4"), 3)[6]
    extra = OrbitDescriptor(family="D", rank=4, p=3, label="V",
                            params=(("k", 7),))
    monkeypatch.setattr(
        census_mod, "predicted_census",
        lambda t, p: [d for d in real(t, p) if d != dropped] + [extra])
    with pytest.raises(MismatchReport, match="lists differ") as e:
        _d4_crosscheck(census=get_census("D4", 3))
    assert e.value.details == {"only_predicted": [extra.to_json()],
                               "only_enumerated": [dropped.to_json()]}


def test_crosscheck_code_pass_memory_is_bounded():
    table = get_table("D4")
    census = get_census("D4", 5)
    total = 5 ** 8  # 390,625 states
    tracemalloc.start()
    try:
        crosscheck(table, 5, census=census)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the code pass streams its chunks: holding every state's int64 code,
    # and the int64 code wanted at every state, took 16 bytes per state on
    # their own and about 23 for the whole crosscheck; lifting every state
    # at once held about 200 (an int64 and an int16 lane per coefficient)
    assert peak < 20 * total


@pytest.mark.parametrize("system,p,moves", [("D4", 5, 6), ("D5", 3, 8)])
def test_orbit_partition_memory_does_not_grow_with_the_moves(system, p,
                                                             moves):
    # the 2 r0 elements x_{+-alpha}(1) give r0 + 1 maps, x_alpha(1) and n_0
    table = get_table(system)
    chars, maps = census_mod._class_maps(table)
    m = len(table.rs.phi1)
    assert len(generator_moves(table)) == moves
    assert len(maps) == moves // 2 + 1
    peaks = []
    for times in (1, 3):
        tracemalloc.start()
        try:
            census_mod._orbit_partition(maps * times, p, m, chars)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one int32 index array over the states, a working set per block and a
    # few bytes per class (24,649 and 68,921 here), within the price the
    # partition charges, and no more with each map read three times
    classes = census_mod._orbit_partition([], p, m, chars)[1].size
    assert peaks[0] < (p ** m * np.dtype(np.int32).itemsize
                       + census_mod._BLOCK_BYTES * census_mod._BLOCK_STATES
                       + census_mod._CLASS_BYTES * classes)
    assert peaks[1] < peaks[0] * 1.02


def test_orbit_entry_json_schema():
    census = get_census("A2", 3)
    data = census.to_json()
    assert data["states"] == 9
    assert data["orbit_count"] == 9
    entry = data["orbits"][0]
    assert set(entry) >= {"representative", "size", "descriptor"}


def test_array_field_matches_scalar_field():
    p = 7
    K = get_field(p)
    killer = ArrayField(p)
    a = np.arange(1, 30, dtype=np.int64) % p
    b = (np.arange(1, 30, dtype=np.int64) * 3) % p
    assert np.array_equal(killer.add(a, b), (a + b) % p)
    assert np.array_equal(killer.mul(a, b), (a * b) % p)
    assert np.array_equal(killer.neg(a), (-a) % p)
    units = np.arange(1, p, dtype=np.int64)
    inv = killer.inv(units)
    assert np.array_equal((units * inv) % p, np.ones_like(units))
    for u in range(1, p):
        assert killer.inv(u) == K.inv(u)
    # is_zero answers for the whole batch: true only when every lane is 0
    assert killer.is_zero(0)
    assert not killer.is_zero(3)
    for dtype in (np.int32, np.int64, object):
        lanes = np.zeros(5, dtype=dtype)
        assert killer.is_zero(lanes)
        lanes[3] = 1
        assert not killer.is_zero(lanes)
    assert killer != K and K != killer
