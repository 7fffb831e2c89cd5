"""Adjoint-module vectors, elementary root-element actions, torus words."""

from __future__ import annotations

import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevorbit import (
    LieVector,
    NotARoot,
    PrimeField,
    ZBlock,
    ZeroScalar,
    act_on_v1,
    apply_root_element,
    apply_word,
    associated_root_element,
    build_table_oracle,
    w_apply_fast,
    sl2_invariant,
    w_word,
)
from chevorbit import liemod
from chevorbit.orbitlab import _Polynomials
from helpers import (
    ALL_SYSTEMS,
    INTEGERS,
    ArrayField,
    ExactIntegers,
    GenericField,
    bracket,
    combine,
    get_field,
    get_system,
    get_table,
    inverse_word,
    random_level0_word,
    random_v1,
    reflect,
    same_vector,
    weyl_word,
)

V1_SYSTEMS = [f"A{l}" for l in range(3, 9)] + [f"D{l}" for l in range(4, 9)]


def rand_vector(rng, table, K):
    return LieVector(table, K, [rng.randrange(K.p)
                                for _ in range(table.n_basis)])


def test_vector_construction_and_coefficients():
    t = get_table("A3")
    K = get_field(5)
    rs = t.rs
    v = combine((3, LieVector.basis(t, K, t.e_key((1, 0, 0)))))
    assert v.e_coeff((1, 0, 0)) == 3
    assert v.e_coeff((0, 1, 0)) == 0
    assert v.h_coeff(2) == 0
    assert {k: c for k, c in enumerate(v.coeffs) if c} == {
        t.e_key((1, 0, 0)): 3}
    assert not any(LieVector.zero(t, K).coeffs)
    w = combine((1, v), (-1, v))
    assert not any(w.coeffs) and same_vector(w, LieVector.zero(t, K))


def test_from_v1_round_trip_and_validation():
    t = get_table("D4")
    K = get_field(3)
    x = (1, 0, 2, 0, 1, 0, 0, 2)
    v = LieVector.from_v1(t, K, x)
    assert v.v1_part() == x
    assert v.level_support() == {1}
    with pytest.raises(ValueError):
        LieVector.from_v1(t, K, (1, 2))


@pytest.mark.parametrize("domain", [INTEGERS, get_field(5)])
def test_from_v1_refuses_entries_that_are_not_integers(domain):
    t = get_table("D4")
    for x in (["3", 1.9, 0, 0, 0, 0, 0, 0], [1.5] * 8):
        with pytest.raises(TypeError):
            LieVector.from_v1(t, domain, x)
    # Python and numpy integers keep working
    x = (np.int64(3), np.int32(1), True, 0, 0, 0, 0, 2)
    assert LieVector.from_v1(t, domain, x).v1_part() == (3, 1, 1, 0, 0, 0, 0, 2)


def test_apply_word_refuses_scalars_that_are_not_integers():
    t = get_table("D4")
    K = get_field(5)
    v = LieVector.from_v1(t, K, (1, 0, 2, 0, 1, 0, 0, 2))
    gamma = t.rs.phi0[0]
    for a in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            apply_word(t, [(gamma, a)], v)
    assert same_vector(apply_word(t, [(gamma, np.int64(2))], v),
                       apply_word(t, [(gamma, 2)], v))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["A3", "D4"]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**30),
)
def test_root_element_action_is_additive_in_the_parameter(name, a, b, seed):
    t = get_table(name)
    K = get_field(7)
    rng = random.Random(seed)
    gamma = rng.choice(t.rs.roots)
    v = rand_vector(rng, t, K)
    lhs = apply_root_element(t, gamma, b, apply_root_element(t, gamma, a, v))
    rhs = apply_root_element(t, gamma, K.add(K.of(a), K.of(b)), v)
    assert same_vector(lhs, rhs)


def test_zero_parameter_acts_as_identity():
    t = get_table("D4")
    K = get_field(5)
    rng = random.Random(11)
    v = rand_vector(rng, t, K)
    for gamma in t.rs.roots[:6]:
        assert same_vector(apply_root_element(t, gamma, 0, v), v)


def test_action_rejects_non_roots():
    t = get_table("A3")
    K = get_field(3)
    v = LieVector.zero(t, K)
    with pytest.raises(NotARoot):
        apply_root_element(t, (1, 1, 1, 1), 1, v)
    with pytest.raises(NotARoot):
        apply_root_element(t, (2, 0, 0), 1, v)


def test_exponential_action_on_opposite_root():
    # x_gamma(a) e_{-gamma} = e_{-gamma} + a h_gamma - a^2 e_gamma
    t = get_table("D4")
    K = get_field(7)
    rs = t.rs
    for gamma in rs.roots[:8]:
        for a in (1, 2, 5):
            v = apply_root_element(
                t, gamma, a, LieVector.basis(t, K, t.e_key(rs.neg(gamma)))
            )
            assert v.e_coeff(rs.neg(gamma)) == 1
            assert v.e_coeff(gamma) == K.neg(K.mul(a, a))
            h = v.coeffs[t.n_roots:]
            assert h == [K.of(a * c) for c in gamma]


def test_single_step_chain_coefficient_is_the_structure_constant():
    t = get_table("E6")
    K = get_field(5)
    rs = t.rs
    rng = random.Random(3)
    for _ in range(200):
        gamma = rng.choice(rs.roots)
        beta = rng.choice(rs.roots)
        if beta in (gamma, rs.neg(gamma)) or not rs.is_root(rs.add(beta, gamma)):
            continue
        a = rng.randrange(1, 5)
        v = apply_root_element(t, gamma, a, LieVector.basis(t, K, t.e_key(beta)))
        assert v.e_coeff(beta) == 1
        got = v.e_coeff(rs.add(beta, gamma))
        assert got == K.of(a * t.structure_constant(gamma, beta))


def test_action_shifts_levels_by_the_root_level():
    t = get_table("D5")
    K = get_field(3)
    rs = t.rs
    rng = random.Random(17)
    for _ in range(100):
        gamma = rng.choice(rs.roots)
        x = tuple(rng.randrange(3) for _ in rs.phi1)
        v = apply_root_element(t, gamma, 1, LieVector.from_v1(t, K, x))
        lg = rs.level(gamma)
        allowed = {1 + k * lg for k in range(3)} | {1}
        assert v.level_support() <= allowed, (gamma, lg, v.level_support())


def test_inverse_word_undoes_any_word():
    t = get_table("D4")
    K = get_field(5)
    rng = random.Random(23)
    for _ in range(50):
        word = [
            (rng.choice(t.rs.roots), rng.randrange(5)) for _ in range(rng.randrange(1, 6))
        ]
        v = rand_vector(rng, t, K)
        w = apply_word(t, inverse_word(K, word), apply_word(t, word, v))
        assert same_vector(w, v)


def test_word_action_is_a_lie_algebra_automorphism():
    # g [u, v] = [g u, g v] couples every sign in the table to the action.
    for name in ("A3", "D4"):
        t = get_table(name)
        K = get_field(5)
        rng = random.Random(41)
        for _ in range(40):
            word = [
                (rng.choice(t.rs.roots), rng.randrange(5))
                for _ in range(rng.randrange(1, 4))
            ]
            u = rand_vector(rng, t, K)
            v = rand_vector(rng, t, K)
            lhs = apply_word(t, word, bracket(t, u, v))
            rhs = bracket(t, apply_word(t, word, u), apply_word(t, word, v))
            assert same_vector(lhs, rhs)


def test_bracket_is_antisymmetric_and_bilinear():
    t = get_table("D4")
    K = get_field(7)
    rng = random.Random(5)
    for _ in range(30):
        u, v, w = (rand_vector(rng, t, K) for _ in range(3))
        assert same_vector(bracket(t, u, v), combine((-1, bracket(t, v, u))))
        assert same_vector(
            bracket(t, combine((1, u), (1, v)), w),
            combine((1, bracket(t, u, w)), (1, bracket(t, v, w))))
        # Jacobi on random triples
        s = combine((1, bracket(t, u, bracket(t, v, w))),
                    (1, bracket(t, v, bracket(t, w, u))),
                    (1, bracket(t, w, bracket(t, u, v))))
        assert same_vector(s, LieVector.zero(t, K))


def test_bracket_over_exact_integers():
    t = get_table("A2")
    rs = t.rs
    ea = LieVector.basis(t, INTEGERS, t.e_key((1, 0)))
    eb = LieVector.basis(t, INTEGERS, t.e_key((0, 1)))
    g = bracket(t, ea, eb)
    assert g.e_coeff((1, 1)) == t.structure_constant((1, 0), (0, 1))
    em = LieVector.basis(t, INTEGERS, t.e_key((-1, 0)))
    h = bracket(t, ea, em)
    assert h.coeffs[t.n_roots:] == [1, 0]
    assert same_vector(bracket(t, h, h), LieVector.zero(t, INTEGERS))


def test_torus_word_requires_a_unit():
    t = get_table("A3")
    K = get_field(5)
    with pytest.raises(ZeroScalar):
        w_word(K, (0, 1, 0), 0)
    with pytest.raises(ZeroScalar):
        w_apply_fast(t, (0, 1, 0), 0, LieVector.zero(t, K))


def test_fast_torus_action_scales_by_pairing_powers():
    t = get_table("D4")
    K = get_field(7)
    rs = t.rs
    gamma = (0, 1, 1, 0)
    assert rs.is_root(gamma)
    a = 3
    inv = K.inv(a)
    for beta in rs.roots:
        v = w_apply_fast(t, gamma, a, LieVector.basis(t, K, t.e_key(beta)))
        scale = {2: K.mul(a, a), 1: a, 0: 1, -1: inv, -2: K.mul(inv, inv)}[
            -rs.pair(beta, gamma)
        ]
        # the action is diagonal with eigenvalue a^{-<beta, gamma>}
        assert v.e_coeff(beta) == K.of(scale) or rs.pair(beta, gamma) in (-2, 2)
        assert v.e_coeff(beta) == K.of(scale)
    for i in range(1, rs.rank + 1):
        v = w_apply_fast(t, gamma, a, LieVector.basis(t, K, t.h_key(i)))
        assert same_vector(v, LieVector.basis(t, K, t.h_key(i)))


def test_torus_word_agrees_with_fast_action_on_random_vectors():
    t = get_table("A4")
    K = get_field(11)
    rng = random.Random(29)
    for _ in range(40):
        gamma = rng.choice(t.rs.roots)
        a = rng.randrange(1, 11)
        v = rand_vector(rng, t, K)
        assert same_vector(apply_word(t, w_word(K, gamma, a), v),
                           w_apply_fast(t, gamma, a, v))


def test_weyl_word_reflects_basis_lines():
    t = get_table("D4")
    K = get_field(5)
    rs = t.rs
    for gamma in rs.roots[:10]:
        word = weyl_word(gamma)
        # e_gamma and e_{-gamma} swap with a sign flip
        v = apply_word(t, word, LieVector.basis(t, K, t.e_key(gamma)))
        assert same_vector(v, combine(
            (-1, LieVector.basis(t, K, t.e_key(rs.neg(gamma))))))
        for beta in rs.roots[:10]:
            w = apply_word(t, word, LieVector.basis(t, K, t.e_key(beta)))
            image = reflect(rs, gamma, beta)
            items = {k: c for k, c in enumerate(w.coeffs) if c}
            assert set(items) == {t.e_key(image)}
            assert items[t.e_key(image)] in (1, K.of(-1))


def test_weyl_word_squares_to_the_minus_one_torus_element():
    t = get_table("A3")
    K = get_field(7)
    rs = t.rs
    gamma = (0, 1, 0)
    twice = weyl_word(gamma) + weyl_word(gamma)
    for beta in rs.roots:
        v = apply_word(t, twice, LieVector.basis(t, K, t.e_key(beta)))
        expect = combine(((-1) ** abs(rs.pair(beta, gamma)),
                          LieVector.basis(t, K, t.e_key(beta))))
        assert same_vector(v, expect)


# the largest prime whose products of two elements fit int64 lanes, and
# the next prime, whose lanes PrimeField.of makes Python ints
INT64_LANES_P, OBJECT_LANES_P = 3_037_000_493, 3_037_000_507


@pytest.mark.parametrize("p", [3, 1009, 65521, INT64_LANES_P, OBJECT_LANES_P])
@pytest.mark.parametrize("name", ["A2"] + V1_SYSTEMS)
def test_act_on_v1_matches_full_module_action(name, p):
    """The V1 gather-adds equal the whole-module action restricted to V1,
    on single vectors, on one word of one factor per level-0 root, and on
    lanes with a separate scalar per lane.  The all-(p - 1) vector and word
    give a first factor the largest sum its one % p reduces, p(p - 1),
    which stays below 2**63 at the last prime of int64 lanes."""
    t = get_table(name)
    K = get_field(p)
    rs = t.rs
    rng = random.Random(31 * p + rs.rank)
    xs = [random_v1(rng, rs, p) for _ in range(20)] + [(p - 1,) * len(rs.phi1)]
    words = [random_level0_word(rng, rs, p, 12, min_len=8) for _ in xs]
    words[-1] = [(g, p - 1) for g, _ in words[-1]]
    words += [[(g, rng.randrange(p))] for g in rs.phi0]
    for i, word in enumerate(words):
        x = xs[i % len(xs)]
        full = apply_word(t, word, LieVector.from_v1(t, K, x))
        assert act_on_v1(t, K, word, x) == full.v1_part()
        assert full.level_support() <= {1}
    roots = [g for g, _ in random_level0_word(rng, rs, p, 8, min_len=8)]
    scalars = np.array([[rng.randrange(p) for _ in roots] for _ in xs],
                       dtype=np.int64)
    scalars[-1] = p - 1
    lanes = act_on_v1(t, K, list(zip(roots, scalars.T)),
                      np.array(xs, dtype=np.int64).T)
    wide = np.int64 if p <= INT64_LANES_P else object
    assert all(c.dtype == wide for c in lanes)
    assert np.array_equal(np.stack(lanes, axis=1), [
        act_on_v1(t, K, list(zip(roots, s.tolist())), x)
        for x, s in zip(xs, scalars)
    ])


def test_act_on_v1_rejects_factors_off_level_zero():
    t = get_table("A3")
    K = get_field(3)
    with pytest.raises(ValueError):
        act_on_v1(t, K, [((1, 0, 0), 1)], (0, 0, 0, 0))
    # factors that are not roots at all
    t = get_table("D4")
    K = get_field(5)
    for g in [(5, 5, 5, 5), (1, 0, 0)]:
        with pytest.raises(NotARoot):
            act_on_v1(t, K, [(g, 1)], (0,) * 8)


def test_act_on_v1_refuses_entries_and_scalars_that_are_not_integers():
    t = get_table("D4")
    K = get_field(5)
    gamma = t.rs.phi0[0]
    with pytest.raises(TypeError):
        act_on_v1(t, K, [], [1.5] * 8)
    for a in (2.5, "2"):
        with pytest.raises(TypeError):
            act_on_v1(t, K, [(gamma, a)], (1,) * 8)
    x = (1, 0, 2, 0, 1, 0, 0, 2)
    assert (act_on_v1(t, K, [(gamma, np.int64(2))], list(map(np.int32, x)))
            == act_on_v1(t, K, [(gamma, 2)], x))


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_action_and_scale_plans_match_tuple_arithmetic(name):
    # the plans read rs.ids and rs.simple_pairs; compare them with their
    # definitions written out over root tuples and the Cartan matrix
    t = get_table(name)
    rs = t.rs
    n = t.n_roots

    def form(a, b):
        return sum(x * c * y for x, row in zip(a, rs.cartan)
                   for c, y in zip(row, b))

    for gid, gamma in enumerate(rs.roots):
        moves = tuple((src, rs.root_id(rs.add(beta, gamma)), t.nv(gid, src))
                      for src, beta in enumerate(rs.roots)
                      if form(beta, gamma) == -1)
        h_coords = tuple((n + i, c) for i, c in enumerate(gamma) if c)
        h_feed = tuple((n + i, w) for i in range(rs.rank)
                       if (w := form(rs.simple(i + 1), gamma)))
        # on V1, a level-0 gamma moves beta in phi1 to beta + gamma
        phi1 = [beta for beta in rs.roots if form(beta, rs.delta) == 1]
        v1 = None if form(gamma, rs.delta) else tuple(
            (phi1.index(beta), phi1.index(rs.add(beta, gamma)),
             t.nv(gid, rs.root_id(beta)))
            for beta in phi1 if form(beta, gamma) == -1)
        assert liemod._action_plan(t, gamma) == (
            gid, rs.root_id(rs.neg(gamma)), moves, h_coords, h_feed, v1)
        assert liemod._scale_plan(t, gamma) == {
            q: tuple(i for i, beta in enumerate(rs.roots)
                     if form(beta, gamma) == q)
            for q in (-2, -1, 1, 2)}


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_int_spelling_matches_the_generic_one(name):
    """Over an exact PrimeField, from_v1, apply_root_element and apply_word
    give exactly the generic spelling's coefficient lists, on every root and
    on words, with scalars 0, p, p + 1 and -1 and unreduced entries: zero
    ones (0, p, -p), which both leave as they are, and nonzero ones."""
    t = get_table(name)
    rs = t.rs
    for p in (3, 5, 1009, 2**31 + 11):
        K, G = PrimeField(p), GenericField(p)
        rng = random.Random(f"{name}/{p}")

        def vector():
            # two in five entries are 0, p or -p, the rest in range(-3p, 3p)
            return [rng.choice((0, p, -p)) if rng.random() < 0.4
                    else rng.randrange(-3 * p, 3 * p)
                    for _ in range(t.n_basis)]

        x = [rng.randrange(-3 * p, 3 * p) for _ in rs.phi1]
        x[:3] = (p, np.int64(p + 1), True)[:len(x)]
        u, w = LieVector.from_v1(t, K, x), LieVector.from_v1(t, G, x)
        assert type(u.domain) is PrimeField and type(w.domain) is GenericField
        assert u.coeffs == w.coeffs
        for gamma in rs.roots:
            coeffs = vector()
            for a in (0, p, p + 1, -1, rng.randrange(p)):
                got = apply_root_element(t, gamma, a, LieVector(t, K, coeffs))
                assert got.coeffs == apply_root_element(
                    t, gamma, a, LieVector(t, G, coeffs)).coeffs
        for _ in range(20):
            word = [(rng.choice(rs.roots), rng.choice((0, p, p + 1, -1, 2)))
                    for _ in range(rng.randrange(6))]
            coeffs = vector()
            got = apply_word(t, word, LieVector(t, K, coeffs)).coeffs
            assert got == apply_word(t, word, LieVector(t, G, coeffs)).coeffs


def test_root_elements_act_as_the_exponential_of_ad():
    """x_gamma(a) v = v + a [e_gamma, v] + (a^2 / 2) [e_gamma, [e_gamma, v]]
    for every root gamma of every system, on random full vectors (root and
    Cartan parts) and a random unit a, through both steps of apply_word: an
    exact PrimeField and a subclass.  On D4 also over ExactIntegers,
    polynomials and lanes.  No domain's action writes to the vector it acts
    on, as apply_root_element or as apply_word."""
    for name in ALL_SYSTEMS:
        t = get_table(name)
        for p in (3, 1009):
            K, G = PrimeField(p), GenericField(p)
            half = K.inv(2)
            rng = random.Random(f"exp/{name}/{p}")
            for gamma in t.rs.roots:
                a = rng.randrange(1, p)
                coeffs = [rng.randrange(p) for _ in range(t.n_basis)]
                v = LieVector(t, K, coeffs)
                e = LieVector.basis(t, K, t.e_key(gamma))
                ad = bracket(t, e, v)
                want = combine((1, v), (a, ad), (K.mul(K.mul(a, a), half),
                                                 bracket(t, e, ad)))
                for dom in (K, G):
                    u = LieVector(t, dom, list(coeffs))
                    # the coefficients: a vector over G is not one over K
                    assert (apply_root_element(t, gamma, a, u).coeffs
                            == want.coeffs), (name, p, gamma, dom)
                    assert u.coeffs == coeffs
    t = get_table("D4")
    rng = random.Random(5)
    P = _Polynomials()
    draws = {
        INTEGERS: lambda: rng.randrange(-9, 10),
        P: lambda: P.mul(P.of(rng.randrange(-3, 4)),
                         {(rng.randrange(3),): 1}),
        ArrayField(13): lambda: np.array([rng.randrange(13)
                                          for _ in range(4)]),
        PrimeField(13): lambda: rng.randrange(13),
        GenericField(13): lambda: rng.randrange(13),
    }
    for dom, draw in draws.items():
        for gamma in t.rs.roots[::3]:
            v = LieVector(t, dom, [draw() for _ in range(t.n_basis)])
            before = LieVector(t, dom, [
                dict(c) if isinstance(c, dict)
                else c.copy() if isinstance(c, np.ndarray) else c
                for c in v.coeffs])
            a = draw()
            # doubled, so that rings without 1/2 can check it too
            e = LieVector.basis(t, dom, t.e_key(gamma))
            ad = bracket(t, e, v)
            twice = combine((2, v), (dom.mul(dom.of(2), a), ad),
                            (dom.mul(a, a), bracket(t, e, ad)))
            got = apply_root_element(t, gamma, a, v)
            assert same_vector(combine((2, got)), twice), (dom, gamma)
            apply_word(t, [(gamma, a), (t.rs.neg(gamma), draw())], v)
            assert same_vector(v, before), (dom, gamma)


def test_int_spelling_raises_as_the_generic_one():
    t = get_table("D4")
    gamma = t.rs.phi0[0]
    for K in (get_field(5), GenericField(5)):
        v = LieVector.from_v1(t, K, (1, 0, 2, 0, 1, 0, 0, 2))
        for act in (lambda g, a: apply_root_element(t, g, a, v),
                    lambda g, a: apply_word(t, [(gamma, 1), (g, a)], v)):
            for g in ((0, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0)):
                with pytest.raises(NotARoot):
                    act(g, 1)
            for a in (2.5, 2.0, "2"):
                with pytest.raises(TypeError):
                    act(gamma, a)
            # the factor acting first raises first
            with pytest.raises(NotARoot):
                apply_word(t, [(gamma, 2.5), ((2, 0, 0, 0), 1)], v)
        for x in ((1.0,) * 8, (np.float64(1),) + (0,) * 7, ("1",) * 8):
            with pytest.raises(TypeError):
                LieVector.from_v1(t, K, x)


BIG_P = 4294967311  # the least prime past 2**32: products pass 2**64


def _numpy_draw(rng, dtype):
    info = np.iinfo(dtype)
    return rng.choice((info.min, info.max, 0, rng.randint(info.min, info.max),
                       rng.randint(info.min, info.max)))


@pytest.mark.parametrize("p", [13, BIG_P])
@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int64,
                                   np.uint64])
def test_numpy_integer_scalars_act_as_python_ints(dtype, p):
    """numpy scalars of every width, in entries and in scalars, give what
    the same values give as Python ints: no arithmetic wraps at their
    width, in either step of the action, in the V1 action, the lift or the
    sl2 invariant."""
    t = get_table("D4")
    rs = t.rs
    K, G = PrimeField(p), GenericField(p)
    rng = random.Random(f"{dtype.__name__}/{p}")
    for _ in range(40):
        x = [_numpy_draw(rng, dtype) for _ in rs.phi1]
        word = [(rng.choice(rs.phi0), _numpy_draw(rng, dtype))
                for _ in range(4)]
        nx = [dtype(c) for c in x]
        nword = [(g, dtype(a)) for g, a in word]
        v = LieVector.from_v1(t, K, x)
        assert LieVector.from_v1(t, K, nx).coeffs == v.coeffs
        for dom in (K, G):
            nv = LieVector.from_v1(t, dom, nx)
            assert (apply_word(t, nword, nv).coeffs
                    == apply_word(t, word, v).coeffs)
            (g, a), (_, na) = word[0], nword[0]
            assert (apply_root_element(t, g, na, nv).coeffs
                    == apply_root_element(t, g, a, v).coeffs)
        assert act_on_v1(t, K, nword, nx) == act_on_v1(t, K, word, x)
        assert same_vector(associated_root_element(t, K, nx),
                           associated_root_element(t, K, x))
        z = ZBlock(*(_numpy_draw(rng, dtype) for _ in range(3)))
        nz = ZBlock(*map(dtype, (z.c, z.u, z.w)))
        assert sl2_invariant(K, nz) == sl2_invariant(K, z)


@pytest.mark.parametrize("p", [13, BIG_P])
@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int64])
def test_numpy_integer_lanes_act_as_python_ints(dtype, p):
    """Lane arrays of every width give, lane by lane, what each lane's
    values give as Python ints: entries and scalars in act_on_v1, and in
    from_v1, apply_word and the lift over lanes."""
    t = get_table("D4")
    rs = t.rs
    K, A = PrimeField(p), ArrayField(p)
    rng = random.Random(f"lanes/{dtype.__name__}/{p}")
    n = 24
    xs = [[_numpy_draw(rng, dtype) for _ in rs.phi1] for _ in range(n)]
    roots = [rng.choice(rs.phi0) for _ in range(4)]
    scalars = [[_numpy_draw(rng, dtype) for _ in roots] for _ in range(n)]
    lane_x = list(np.array(xs, dtype=dtype).T)
    lane_word = list(zip(roots, np.array(scalars, dtype=dtype).T))

    def lane(c, j):
        return int(c[j]) if isinstance(c, np.ndarray) else c

    got = act_on_v1(t, K, lane_word, lane_x)
    lifted = associated_root_element(t, A, lane_x)
    acted = apply_word(t, lane_word, LieVector.from_v1(t, A, lane_x))
    for j, (x, s) in enumerate(zip(xs, scalars)):
        word = list(zip(roots, s))
        assert [lane(c, j) for c in got] == list(act_on_v1(t, K, word, x))
        v = LieVector.from_v1(t, K, x)
        assert ([lane(c, j) for c in acted.coeffs]
                == apply_word(t, word, v).coeffs)
        assert ([lane(c, j) for c in lifted.coeffs]
                == associated_root_element(t, K, x).coeffs)


def test_acting_holds_no_memory_per_vector():
    # distinct D4/F5 vectors through from_v1, a four-factor level-0 word and
    # v1_part, after warm-up, as classify is checked in test_orbitlab; the
    # warm-up adds one plan per root, and the vectors none
    t = build_table_oracle(get_system("D4"))
    K = get_field(5)
    rs = t.rs
    n = 3000
    rng = random.Random(3005)
    vectors = list(dict.fromkeys(random_v1(rng, rs, 5)
                                 for _ in range(n + 100)))[:n]
    assert len(vectors) == n
    words = [random_level0_word(rng, rs, 5, 4, min_len=4) for _ in range(n)]
    v = LieVector.from_v1(t, K, vectors[0])
    v.v1_part()
    memo = len(t.memo)
    apply_word(t, [(g, 1) for g in rs.phi0], v)
    # the plans live in one per-table dict, one memo entry
    assert len(t.memo) == memo + 1 and len(liemod._plans(t)) == len(rs.phi0)
    held = {}
    tracemalloc.start()
    try:
        for i in range(0, n, 100):
            for x, word in zip(vectors[i:i + 100], words[i:i + 100]):
                apply_word(t, word, LieVector.from_v1(t, K, x)).v1_part()
            if i + 100 in (1000, n):
                gc.collect()  # also empties the free lists
                held[i + 100] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held[n] < 16 * 1024, held
    assert held[n] - held[1000] < 4 * 1024, held
    assert len(t.memo) == memo + 1 and len(liemod._plans(t)) == len(rs.phi0)
    # the V1 action reads the same plans, and keeps nothing of its own
    for x, word in zip(vectors, words):
        act_on_v1(t, K, word, x)
    assert len(t.memo) == memo + 1 and len(liemod._plans(t)) == len(rs.phi0)


def test_act_on_v1_refuses_a_domain_without_p():
    t = get_table("D4")
    with pytest.raises(TypeError, match=r"ExactIntegers\(\)"):
        act_on_v1(t, INTEGERS, [(t.rs.phi0[0], 1)], (1,) * 8)


@pytest.mark.parametrize("name", ["D4", "A4"])
def test_numpy_bools_count_as_0_and_1_over_the_integers(name):
    # np.bool_ entries and scalars give exactly what the Python ints 0 and
    # 1 give, over ExactIntegers as over a prime field; lanes stay refused
    t = get_table(name)
    rs = t.rs
    m = len(rs.phi1)
    rng = np.random.default_rng(m)
    flags = rng.integers(0, 2, (4, m)).astype(bool)
    flags[0], flags[1] = False, True
    for row in flags:
        x, ints = list(row), row.astype(int).tolist()
        v = LieVector.from_v1(t, INTEGERS, x)
        vi = LieVector.from_v1(t, INTEGERS, ints)
        assert v.coeffs == vi.coeffs
        assert all(type(c) is int for c in v.coeffs)
        for g in rs.phi0:
            for a in (np.True_, np.False_):
                got = apply_root_element(t, g, a, v)
                assert got.coeffs == apply_root_element(t, g, int(a), vi).coeffs
                assert all(type(c) is int for c in got.coeffs)
        word = [(g, np.bool_(i % 2 == 0)) for i, g in enumerate(rs.phi0)]
        assert (apply_word(t, word, v).coeffs
                == apply_word(t, [(g, int(a)) for g, a in word], vi).coeffs)
    lane = np.array([True, False])
    with pytest.raises(TypeError):
        LieVector.from_v1(t, INTEGERS, [lane] + [0] * (m - 1))
    # over an exact PrimeField too, whose vectors hold ints
    K = get_field(5)
    with pytest.raises(TypeError):
        LieVector.from_v1(t, K, [lane] + [0] * (m - 1))
    with pytest.raises(TypeError):
        apply_root_element(t, rs.phi0[0], lane, vi)
    with pytest.raises(TypeError):
        apply_word(t, [(rs.phi0[0], lane)], vi)


def test_the_same_coefficients_over_other_domains_are_other_vectors():
    # over F_5, F_7 and the integers, [1] * 8 is three vectors, and so are
    # their images under x_gamma(3); no vector is hashable
    t = get_table("D4")
    g = t.rs.phi0[0]
    domains = (PrimeField(5), PrimeField(7), INTEGERS)
    vs = [LieVector.from_v1(t, K, [1] * 8) for K in domains]
    moved = [apply_root_element(t, g, 3, v) for v in vs]
    for i in range(3):
        for j in range(3):
            assert same_vector(vs[i], vs[j]) == (i == j), (i, j)
            assert same_vector(moved[i], moved[j]) == (i == j), (i, j)
    for v in vs:
        with pytest.raises(TypeError):
            hash(v)
    # an equal domain, not the same object, gives an equal vector
    for i, K in ((0, PrimeField(5)), (2, ExactIntegers())):
        assert same_vector(LieVector.from_v1(t, K, [1] * 8), vs[i])
    # lane vectors compare lane by lane, and over their own field
    lanes = [np.arange(3)] * 8
    u = LieVector.from_v1(t, ArrayField(5), lanes)
    assert same_vector(u, LieVector.from_v1(t, ArrayField(5),
                                            [np.arange(3)] * 8))
    assert not same_vector(u, LieVector.from_v1(t, ArrayField(5),
                                                [np.arange(1, 4)] * 8))
    assert not same_vector(u, LieVector.from_v1(t, ArrayField(7), lanes))
    assert not same_vector(u, LieVector.from_v1(t, PrimeField(5), [1] * 8))
