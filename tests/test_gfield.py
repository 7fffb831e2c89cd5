"""Prime-field arithmetic and square-class tests."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevorbit import (
    ModulusTooLarge,
    NotPrime,
    PrimeField,
    UnsupportedField,
    build_table_oracle,
    is_prime,
    square_class,
)
from chevorbit.orbitlab import _orbit_types
from helpers import INTEGERS, get_system

PRIMES = (3, 5, 7, 11, 13)


def test_is_prime_small_values():
    primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-5, 50):
        assert is_prime(n) == (n in primes_below_50), n


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == \
        [n for n in range(10**5) if _trial_division(n)]


# n: factors.  Carmichael numbers, then the least strong pseudoprimes to
# the first k prime bases for k = 1..12 where they differ (Jaeschke;
# Sorenson and Webster).
COMPOSITES = {
    561: (3, 11, 17), 1105: (5, 13, 17), 1729: (7, 13, 19),
    2465: (5, 17, 29), 2821: (7, 13, 31), 6601: (7, 23, 41),
    8911: (7, 19, 67), 41041: (7, 11, 13, 41), 825265: (5, 7, 17, 19, 73),
    321197185: (5, 19, 23, 29, 37, 137),
    2047: (23, 89), 1373653: (829, 1657), 25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}


@pytest.mark.parametrize("n", sorted(COMPOSITES))
def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    assert math.prod(COMPOSITES[n]) == n
    assert not is_prime(n)
    with pytest.raises(NotPrime):
        PrimeField(n)


def test_is_prime_accepts_large_primes():
    for p in (2**31 - 1, 2**61 - 1, 10**16 + 61, 1287836182261,
              2575672364521):
        assert is_prime(p), p


def test_is_prime_refuses_moduli_past_its_exact_range():
    from chevorbit.gfield import MAX_MODULUS
    # the least strong pseudoprime to all 13 bases, so the bound is tight
    assert math.prod((1287836182261, 2575672364521)) == MAX_MODULUS
    assert not is_prime(MAX_MODULUS - 1)  # the largest n still decided
    for n in (MAX_MODULUS, MAX_MODULUS + 2, 2**89 - 1):
        with pytest.raises(ModulusTooLarge):
            is_prime(n)
        with pytest.raises(ModulusTooLarge):
            PrimeField(n)


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
    # table_cached keys by the field, so two PrimeField(5) objects share one
    # entry of a fresh table's memo
    t = build_table_oracle(get_system("D4"))
    before = len(t.memo)
    types = _orbit_types(t, PrimeField(5))
    assert _orbit_types(t, PrimeField(5)) is types
    assert len(t.memo) == before + 1


@pytest.mark.parametrize("p", [13, 4294967311])
@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
def test_numpy_integer_scalars_invert_and_square_as_python_ints(dtype, p):
    # 4294967311 is the least prime past 2**32; each value is taken at the
    # width of dtype, and must give what the same Python int gives
    K = PrimeField(p)
    info = np.iinfo(dtype)
    values = [0, 1, 3, 12, 13, 26, 127, 255, -1, -3, -128, 2**32 + 1,
              -(2**40), 2**63 - 1, 2**63 + 5, 2**64 - 1]
    for a in (v for v in values if info.min <= v <= info.max):
        n = dtype(a)
        assert K.is_square(n) == K.is_square(a), a
        if a % p == 0:
            for f in (K.inv, lambda b: square_class(K, b)):
                with pytest.raises(ZeroDivisionError):
                    f(n)
        else:
            assert type(K.inv(n)) is int and K.inv(n) == K.inv(a), a
            assert square_class(K, n) == square_class(K, a), a


def test_prime_field_takes_p_as_an_integer():
    # a numpy integer is read as the Python int: nothing wraps at its width
    K = PrimeField(np.uint8(7))
    assert type(K.p) is int and K == PrimeField(7)
    assert K.p ** 8 == 7**8
    assert K.of(1000) == 1000 % 7
    assert K.inv(3) == 5
    for bad in (7.0, "7", None):
        with pytest.raises(TypeError):
            PrimeField(bad)


def test_a_numpy_bool_modulus_counts_as_0_or_1():
    # as a Python bool does, and as numpy bools do as field elements and
    # vector entries: neither 0 nor 1 is prime.  Before, PrimeField(np.True_)
    # raised TypeError and is_prime(np.True_) OverflowError
    for b in (True, False, np.True_, np.False_):
        assert is_prime(b) is False
        with pytest.raises(NotPrime, match=f"^{int(b)} is not prime$"):
            PrimeField(b)
    assert is_prime(np.int64(7)) is True and is_prime(np.uint64(9)) is False
    for bad in (7.0, "7", np.array([7])):
        with pytest.raises(TypeError):
            is_prime(bad)


# psi_k, the least strong pseudoprime to the first k prime bases, at each k
# where it grows; the last is MAX_MODULUS
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)
ALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _all_bases(n: int) -> bool:
    """Trial division by the 13 bases, then Miller-Rabin to all of them, in
    another spelling than is_prime's: the primality of n below
    MAX_MODULUS, independent of is_prime's prefixes."""
    if n < 2 or any(n % q == 0 for q in ALL_BASES):
        return n in ALL_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return not any(pow(a, d, n) != 1
                   and all(pow(a, d << r, n) != n - 1 for r in range(s))
                   for a in ALL_BASES)


def test_pseudoprime_thresholds_are_the_pinned_composites():
    from chevorbit.gfield import MAX_MODULUS
    assert PSI[-1] == MAX_MODULUS
    assert all(psi in COMPOSITES for psi in PSI[:-1])
    assert all(not _all_bases(psi) for psi in PSI[:-1])


@pytest.mark.parametrize("psi", PSI)
def test_is_prime_at_each_base_prefix_boundary(psi):
    # the largest prime below psi and the least prime above it are accepted,
    # and every n between them, psi itself included, is refused
    below = next(n for n in range(psi - 1, 0, -1) if _all_bases(n))
    assert is_prime(below)
    assert not any(map(is_prime, range(below + 1, psi)))
    if psi == PSI[-1]:
        return  # past it is_prime refuses to decide
    above = next(n for n in range(psi + 1, 2 * psi) if _all_bases(n))
    assert is_prime(above)
    assert not any(map(is_prime, range(psi, above)))
    if psi < 10**8:
        assert _trial_division(below) and _trial_division(above)


def test_is_prime_matches_all_thirteen_bases_below_3e6():
    # every n < 3e6, through the prefixes of one, two and three bases and
    # the thresholds 2,047 and 1,373,653 between them.  Below MAX_MODULUS
    # the answer of all 13 bases is primality itself, so a sieve gives it
    # for every n at once; _all_bases agrees on a sample
    top = 3 * 10**6
    sieve = np.ones(top, bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(top) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    assert [n for n in range(top) if is_prime(n)] == \
        np.flatnonzero(sieve).tolist()
    sample = random.Random(3).sample(range(top), 20_000)
    assert [_all_bases(m) for m in sample] == sieve[sample].tolist()
