"""Root-system enumeration, ordering, pairing, and reflection tests."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevorbit import (
    InternalError,
    NotARoot,
    SystemTooLarge,
    UnsupportedSystem,
    build_root_system,
    min_subtractable_index,
    parse_system_name,
    root_count,
    simple_index,
    standard_quadruple,
)
from chevorbit import rootsys
from chevorbit.rootsys import cartan_matrix, dynkin_edges
from helpers import ALL_SYSTEMS, ROOT_COUNTS, get_system, reflect


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_root_counts_match_classification(name):
    rs = get_system(name)
    assert len(rs.roots) == ROOT_COUNTS[name]
    assert rs.n_positive == ROOT_COUNTS[name] // 2
    assert len(rs.positive_roots) == rs.n_positive


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_root_count_needs_no_closure(name):
    assert root_count(*parse_system_name(name)) == ROOT_COUNTS[name]


def test_root_count_limit(monkeypatch):
    # every rank the suite builds is admitted; the next A and D ranks are not
    assert root_count("A", 31) == 992 and root_count("D", 22) == 924
    for family, rank in (("A", 32), ("D", 23), ("A", 10**6)):
        with pytest.raises(SystemTooLarge, match="more than the limit"):
            root_count(family, rank)
    for family, rank in (("A", 0), ("D", 3), ("E", 9), ("B", 2)):
        with pytest.raises(UnsupportedSystem):
            root_count(family, rank)

    def never(*args):
        raise AssertionError("no Cartan matrix for an oversized system")

    monkeypatch.setattr(rootsys, "cartan_matrix", never)
    with pytest.raises(SystemTooLarge):
        build_root_system("A", 100_000)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_level_one_size_formula(name):
    # |Phi_1| = 2 |Phi| / l - 4 for every simply-laced system: the level-1
    # slice of the adjoint grading has this size whenever it is nonempty,
    # and the formula degenerates to 0 exactly for A1.
    rs = get_system(name)
    assert len(rs.phi1) == 2 * len(rs.roots) // rs.rank - 4


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_positive_roots_ordered_by_height_then_lex(name):
    rs = get_system(name)
    keys = [(sum(r), r) for r in rs.positive_roots]  # (height, lex)
    assert keys == sorted(keys)
    # simples come first (height 1), highest root last
    assert sorted(
        simple_index(r) for r in rs.positive_roots[: rs.rank]
    ) == list(range(1, rs.rank + 1))
    assert rs.positive_roots[-1] == rs.delta


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_roots_are_positives_then_mirrored_negatives(name):
    rs = get_system(name)
    n = rs.n_positive
    assert rs.roots[:n] == rs.positive_roots
    assert rs.roots[n:] == tuple(rs.neg(r) for r in rs.positive_roots)
    for i, r in enumerate(rs.roots):
        assert rs.root_id(r) == i


@pytest.mark.parametrize("name", ["A2", "A4", "D4", "D5", "E6"])
def test_sum_is_root_iff_pairing_is_minus_one(name):
    rs = get_system(name)
    for a, b in itertools.product(rs.roots, repeat=2):
        if b == a or b == rs.neg(a):
            continue
        assert rs.is_root(rs.add(a, b)) == (rs.pair(a, b) == -1), (a, b)


def test_pair_with_a_non_root_raises_not_a_root():
    rs = get_system("A3")
    with pytest.raises(NotARoot):
        rs.pair((1, 0, 0), (5, 5, 5))
    assert rs.pair((5, 5, 5), (1, 0, 0)) == 5  # the first argument is free


def _cartan_row(rs, b) -> list[int]:
    """(C b)_t = <alpha_t, b> straight from the Cartan matrix, by tuple
    arithmetic."""
    return [sum(c * y for c, y in zip(row, b)) for row in rs.cartan]


# the largest coefficient of the highest root, a bound on every root's
# coefficients
_MAX_COEFF = {"A": 1, "D": 2, "E6": 3, "E7": 4, "E8": 6}


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_positive_roots_are_the_norm_two_vectors(name):
    # In a root lattice of type A, D or E the vectors of norm 2 are exactly
    # the roots, so the positive roots are the nonzero nonnegative integer
    # vectors v with v^T C v == 2: searched over a box, in chunks, with no
    # use of the closure.
    rs = get_system(name)
    m = _MAX_COEFF[name if name[0] == "E" else name[0]]
    assert max(rs.delta) == m
    cartan = np.array(rs.cartan)
    tail = min(rs.rank, 6)
    grid = np.array(list(itertools.product(range(m + 1), repeat=tail)))
    found = []
    for head in itertools.product(range(m + 1), repeat=rs.rank - tail):
        v = np.hstack([np.tile(head, (len(grid), 1)).astype(int), grid])
        found += map(tuple, v[((v @ cartan) * v).sum(axis=1) == 2].tolist())
    assert rs.positive_roots == tuple(sorted(found, key=lambda r: (sum(r), r)))


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_pairing_has_simply_laced_range(name):
    rs = get_system(name)
    for a in rs.roots:
        assert rs.pair(a, a) == 2
        assert rs.pair(a, rs.neg(a)) == -2
    vals = {rs.pair(a, b) for a in rs.roots[:10] for b in rs.roots}
    assert vals <= {-2, -1, 0, 1, 2}


def test_cartan_matrices_match_edges():
    for name in ALL_SYSTEMS:
        family, rank = parse_system_name(name)
        C = cartan_matrix(family, rank)
        edges = set(dynkin_edges(family, rank))
        for i in range(rank):
            for j in range(rank):
                if i == j:
                    assert C[i][j] == 2
                else:
                    bonded = (i + 1, j + 1) in edges or (j + 1, i + 1) in edges
                    assert C[i][j] == (-1 if bonded else 0)


def test_dynkin_shapes():
    assert set(dynkin_edges("A", 4)) == {(1, 2), (2, 3), (3, 4)}
    # D fork: tips 1 and 2 hang off node 3, then a chain
    assert set(dynkin_edges("D", 5)) == {(1, 3), (2, 3), (3, 4), (4, 5)}
    # E: node 2 attaches to node 4 of the chain 1-3-4-5-6-...
    assert set(dynkin_edges("E", 6)) == {(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)}


def test_delta_values_pinned():
    assert get_system("A3").delta == (1, 1, 1)
    assert get_system("D4").delta == (1, 1, 2, 1)
    assert get_system("D6").delta == (1, 1, 2, 2, 2, 1)
    assert get_system("E8").delta == (2, 3, 4, 6, 5, 4, 3, 2)


def test_levels_partition_the_roots():
    for name in ("A3", "D5", "E6"):
        rs = get_system(name)
        by_level = {}
        for r in rs.roots:
            by_level.setdefault(rs.level(r), []).append(r)
        m = len(rs.phi1)
        assert sorted(by_level) == ([-2, -1, 0, 1, 2] if m else [-2, 2])
        assert by_level[2] == [rs.delta]
        assert by_level[-2] == [rs.neg(rs.delta)]
        assert len(by_level[1]) == m == len(by_level[-1])
        assert sorted(by_level[1]) == sorted(rs.phi1)
        assert sorted(by_level[0]) == sorted(rs.phi0)


def test_phi1_index_is_the_position_in_phi1():
    rs = get_system("D4")
    for i, r in enumerate(rs.phi1):
        assert rs.phi1_index(r) == i
    with pytest.raises(NotARoot):
        rs.phi1_index(rs.delta)


@settings(deadline=None)
@given(st.sampled_from(["A3", "A5", "D4", "D6", "E6"]), st.data())
def test_reflection_is_an_involution_preserving_roots(name, data):
    rs = get_system(name)
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from(rs.roots))
    rb = reflect(rs, a, b)
    assert rs.is_root(rb)
    assert reflect(rs, a, rb) == b
    assert reflect(rs, a, a) == rs.neg(a)
    # reflection preserves the pairing form
    c = data.draw(st.sampled_from(rs.roots))
    assert rs.pair(rb, reflect(rs, a, c)) == rs.pair(b, c)


def test_min_subtractable_index_is_minimal_and_positive():
    for name in ("A4", "D5", "E6"):
        rs = get_system(name)
        for g in rs.positive_roots:
            j = min_subtractable_index(rs, g)
            rest = rs.sub(g, rs.simple(j))
            zero = (0,) * rs.rank
            assert rest == zero or rs.is_positive(rest)
            for i in range(1, j):
                smaller = rs.sub(g, rs.simple(i))
                assert smaller != zero and not rs.is_positive(smaller)


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("A16", "D16", "A31", "D22"))
def test_root_ids_match_tuple_arithmetic(name):
    # the sum ids are compared with rs.add in test_chevalley
    rs = get_system(name)
    ids = rs.ids
    zero = (0,) * rs.rank
    assert ids.neg_id.tolist() == [rs.root_id(rs.neg(r)) for r in rs.roots]
    assert ids.simple_ids.tolist() == [rs.root_id(rs.simple(i))
                                       for i in range(1, rs.rank + 1)]
    assert len(ids.simple_of) == len(ids.least_sub) == len(ids.top) \
        == rs.n_positive
    for g, r in enumerate(rs.positive_roots):
        assert ids.simple_of[g] == (simple_index(r) or 0)
        assert ids.top[g] == max(i for i, c in enumerate(r, start=1) if c)
        least = next(i for i in range(1, rs.rank + 1)
                     if rs.sub(r, rs.simple(i)) == zero
                     or rs.is_root(rs.sub(r, rs.simple(i))))
        assert ids.least_sub[g] == least == min_subtractable_index(rs, r)
    cb = [_cartan_row(rs, b) for b in rs.roots]
    assert rs.simple_pairs == cb  # the Cartan matrix is symmetric
    level = _cartan_row(rs, rs.delta)
    assert rs.levels == [sum(x * w for x, w in zip(a, level))
                         for a in rs.roots]
    pairing = ids.pairing
    assert pairing.dtype == np.int8 and not pairing.flags.writeable
    # every row up to E8, every 16th row of the four largest systems
    step = 1 if len(rs.roots) <= 240 else 16
    for i in range(0, len(rs.roots), step):
        a = rs.roots[i]
        assert pairing[i].tolist() == [rs.pair(a, b) for b in rs.roots] \
            == [sum(x * w for x, w in zip(a, c)) for c in cb]


def test_root_id_tables_are_checked_and_read_only():
    rs = get_system("D4")
    coeffs = np.array(rs.roots, dtype=np.int64)
    defined = rs.ids.sum_id >= 0
    assert np.array_equal(rootsys._sum_ids(coeffs, defined), rs.ids.sum_id)
    bad = defined.copy()
    bad[0, 0] = True  # 2 * roots[0] is not a root
    with pytest.raises(InternalError, match="does not"):
        rootsys._sum_ids(coeffs, bad)
    moved = coeffs.copy()
    moved[rs.n_positive - 1] = 0  # no row is delta now, so its sums miss
    with pytest.raises(InternalError, match="does not"):
        rootsys._sum_ids(moved, defined)
    for shared in (rs.ids.pairing, rs.ids.sum_id, rs.ids.neg_id):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1
    assert rs.ids.sum_id.dtype == np.int32


def test_standard_quadruple_spans_twice_delta():
    for l in (4, 5, 6, 7, 8):
        rs = get_system(f"D{l}")
        lam, rho, sig, tau = standard_quadruple(rs)
        quad = (lam, rho, sig, tau)
        assert len(set(quad)) == 4
        for r in quad:
            assert rs.level(r) == 1
        total = tuple(a + b + c + d for a, b, c, d in zip(*quad))
        assert total == tuple(2 * c for c in rs.delta)


def test_standard_quadruple_d4_pinned_values():
    rs = get_system("D4")
    assert standard_quadruple(rs) == ((0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 0))


def test_parse_and_validation_errors():
    assert parse_system_name("A1") == ("A", 1)
    assert parse_system_name("E8") == ("E", 8)
    for bad in ("B3", "F4", "G2", "x", "7", "Aq"):
        with pytest.raises(UnsupportedSystem):
            parse_system_name(bad)
    # family A is open-ended in the rank; D needs >= 4 and E is 6..8 only
    assert build_root_system("A", 9).n_positive == 45
    for family, rank in (("A", 0), ("D", 3), ("E", 5), ("E", 9)):
        with pytest.raises(UnsupportedSystem):
            build_root_system(family, rank)


def test_membership_queries_reject_non_roots():
    rs = get_system("A3")
    assert not rs.is_root((0, 0, 0))
    assert not rs.is_root((2, 0, 0))
    assert not rs.is_positive((-1, 0, 0))
    with pytest.raises(NotARoot):
        rs.root_id((5, 5, 5))


def test_to_json_shape():
    rs = get_system("A2")
    data = rs.to_json()
    assert data["family"] == "A"
    assert data["rank"] == 2
    assert len(data["positive_roots"]) == 3
    assert data["delta"] == [1, 1]
    assert data["phi0"] == []
