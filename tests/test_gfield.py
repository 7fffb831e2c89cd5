"""Prime-field arithmetic, square classes, and norm-form coset tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevorbit import (
    INTEGERS,
    NotPrime,
    PrimeField,
    UnsupportedField,
    is_prime,
    k_class_equal,
    norm_class_of,
    norm_class_reps,
    norm_form_solvable,
    square_class,
)

PRIMES = (3, 5, 7, 11, 13)


def test_is_prime_small_values():
    primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-5, 50):
        assert is_prime(n) == (n in primes_below_50), n


def test_non_primes_rejected():
    for bad in (-7, -1, 0, 1, 4, 9, 15, 21, 561):
        with pytest.raises(NotPrime):
            PrimeField(bad)


def test_char_two_allowed_but_odd_requirement_raises():
    K = PrimeField(2)
    assert K.add(1, 1) == 0
    with pytest.raises(UnsupportedField):
        K.require_odd()
    PrimeField(3).require_odd()  # no-op for odd p


@settings(deadline=None)
@given(st.sampled_from(PRIMES), st.integers(), st.integers(), st.integers())
def test_field_axioms(p, a, b, c):
    K = PrimeField(p)
    a, b, c = K.of(a), K.of(b), K.of(c)
    assert 0 <= a < p
    assert K.add(a, b) == (a + b) % p
    assert K.mul(a, b) == (a * b) % p
    assert K.sub(a, b) == K.add(a, K.neg(b))
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    if not K.is_zero(a):
        assert K.mul(a, K.inv(a)) == K.one


def test_inverse_of_zero_rejected():
    K = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        K.inv(0)


def test_elements_and_units():
    K = PrimeField(7)
    assert list(K.elements()) == list(range(7))
    assert list(K.units()) == list(range(1, 7))


@pytest.mark.parametrize("p", PRIMES)
def test_squares_and_least_nonresidue(p):
    K = PrimeField(p)
    squares = {(x * x) % p for x in range(1, p)}
    assert len(squares) == (p - 1) // 2
    for a in K.units():
        assert K.is_square(a) == (a in squares)
    nu = K.least_nonresidue()
    assert nu == min(set(K.units()) - squares)


@pytest.mark.parametrize("p", PRIMES)
def test_square_class_is_the_quadratic_character(p):
    K = PrimeField(p)
    nu = K.least_nonresidue()
    for a in K.units():
        cls = square_class(K, a)
        assert cls.rep == (1 if K.is_square(a) else nu)
        for b in K.units():
            same = K.is_square(K.mul(a, K.inv(b)))
            assert (square_class(K, b) == cls) == same


def test_square_class_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        square_class(PrimeField(5), 0)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
def test_norm_form_solvable_matches_brute_force(p):
    K = PrimeField(p)
    for k in K.elements():
        reachable = {(x * x - k * y * y) % p for x in range(p) for y in range(p)}
        for a in K.units():
            assert norm_form_solvable(K, k, a) == (a in reachable), (p, k, a)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
def test_norm_cosets_collapse_for_nonzero_k(p):
    # x^2 - k y^2 represents every unit when k != 0 (factoring for square k,
    # full norm image of the quadratic extension for nonsquare k), so the
    # coset space is trivial; k = 0 leaves the two square classes.
    K = PrimeField(p)
    assert norm_class_reps(K, 0) == (1, K.least_nonresidue())
    for k in K.units():
        assert norm_class_reps(K, k) == (1,)
        for a in K.units():
            assert norm_class_of(K, k, a).rep == 1


@pytest.mark.parametrize("p", (3, 5, 7))
def test_norm_class_is_constant_exactly_on_cosets(p):
    K = PrimeField(p)
    for k in K.elements():
        for a in K.units():
            for b in K.units():
                same = norm_class_of(K, k, a) == norm_class_of(K, k, b)
                assert same == norm_form_solvable(K, k, K.mul(a, b)), (k, a, b)


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_k_class_equality(p):
    K = PrimeField(p)
    for k1 in K.elements():
        for k2 in K.elements():
            got = k_class_equal(K, k1, k2)
            if (k1 == 0) != (k2 == 0):
                assert not got
            elif k1 == 0:
                assert got
            else:
                # nonzero values are equivalent iff they differ by a square
                assert got == K.is_square(K.mul(k1, K.inv(k2)))


def test_exact_integers_domain():
    assert INTEGERS.add(2, 3) == 5
    assert INTEGERS.mul(-4, 6) == -24
    assert INTEGERS.neg(7) == -7
    assert INTEGERS.is_zero(0) and not INTEGERS.is_zero(3)
    assert INTEGERS.of(-2) == -2


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
