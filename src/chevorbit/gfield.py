"""Small prime fields and square classes.

Field elements are plain Python ints in ``range(p)``; the :class:`PrimeField`
object carries the arithmetic.  Coefficient domains share one protocol:
``zero``, ``one``, ``of``, ``add``, ``sub``, ``mul``, ``neg``, ``inv`` and
``is_zero``.  PrimeField implements it over F_p, and orbitlab's
_Polynomials over the polynomials the lift is compiled from; the exact
integers and the lane fields the tests run the action on are in
tests/helpers.py.  PrimeField's ``of`` reads its argument by the integer
rule of rootsys, lane arrays included; ``inv``, ``is_zero`` and
``is_square`` read one int, so a lane raises TypeError.

Square classes of units are represented by a canonical representative:
1 for squares and the least quadratic nonresidue otherwise.

_mod and _pow_mod reduce both Python ints and integer lane arrays (one
lane per vector of a batch) mod p, each in the spelling that is fast for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rootsys import InternalError, as_int, integral


class NotPrime(ValueError):
    """The requested modulus is not a prime number."""


class UnsupportedField(ValueError):
    """The operation needs an odd prime field (characteristic != 2)."""


class ModulusTooLarge(ValueError):
    """The modulus is at least MAX_MODULUS, past which is_prime is not exact."""


# Miller-Rabin to the first k prime bases is exact below psi_k, the least
# strong pseudoprime to all of them; psi_13 is MAX_MODULUS.  is_prime's
# docstring lists the prefixes and their sources.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PRODUCT = math.prod(_MR_BASES)  # gcd(n, it) > 1 iff a base divides n
MAX_MODULUS = 3_317_044_064_679_887_385_961_981
# (psi_k, the first k bases), for each k where psi_k grows
_MR_PREFIXES = tuple((psi, _MR_BASES[:k]) for psi, k in (
    (2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6),
    (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12), (MAX_MODULUS, 13),
))


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division by _MR_BASES (one gcd with
    their product) and then deterministic Miller-Rabin; raises
    ModulusTooLarge for n >= MAX_MODULUS.

    Miller-Rabin runs on the shortest prefix of _MR_BASES that is exact
    below n: the first k bases are exact below psi_k, the least strong
    pseudoprime to all of them.

        n below psi_k                        bases
        2,047                                2
        1,373,653                            2, 3
        25,326,001                           2 .. 5
        3,215,031,751                        2 .. 7
        2,152,302,898,747                    2 .. 11
        3,474,749,660,383                    2 .. 13
        341,550,071,728,321 (= psi_8)        2 .. 17
        3,825,123,056,546,413,051 (= psi_11) 2 .. 23
        318,665,857,834,031,151,167,461      2 .. 37
        MAX_MODULUS                          2 .. 41

    psi_1 to psi_8 are as Jaeschke tabulates them (Math. Comp. 61 (1993)),
    psi_9 = psi_10 = psi_11 is Jiang and Deng's (Math. Comp. 83 (2014)), and
    psi_12 and psi_13 are Sorenson and Webster's (Math. Comp. 86 (2017)).
    So a modulus near 1000 takes one base, not 13."""
    n = as_int(n)
    if n >= MAX_MODULUS:
        raise ModulusTooLarge(
            f"{n} is past the largest supported modulus {MAX_MODULUS - 1}"
        )
    if n < 2 or math.gcd(n, _MR_PRODUCT) != 1:
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # a witnesses that n is composite unless a^d == 1 or a^(d 2^r) == -1
    # for some r < s
    for a in next(b for psi, b in _MR_PREFIXES if n < psi):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic of F_p with elements as ints in range(p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        p = as_int(p)
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        # once, since fields key every table_cached lookup; an int's hash,
        # unlike a str's, is the same in every process, so it survives pickle
        self._hash = hash(p)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.p == self.p

    def __hash__(self) -> int:
        return self._hash

    def of(self, n: int) -> int:
        """n mod p; an integer lane array is reduced into lanes that hold
        the product of two elements: int64 while (p - 1)**2 < 2**63,
        Python ints beyond, as classify_many falls back past its lanes."""
        n = integral(n)
        if isinstance(n, np.ndarray):
            wide = np.int64 if (self.p - 1) ** 2 < 2**63 else object
            if n.dtype in (np.uint64, object):  # reduce as Python ints
                return (n.astype(object) % self.p).astype(wide)
            return n.astype(wide, copy=False) % self.p
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a = as_int(a) % self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a: int) -> bool:
        return as_int(a) % self.p == 0

    def units(self) -> range:
        return range(1, self.p)

    # -- quadratic structure (odd p only) ---------------------------------

    def require_odd(self) -> None:
        if self.p == 2:
            raise UnsupportedField("characteristic 2 is not supported here")

    def is_square(self, a: int) -> bool:
        """True for 0 and for unit squares; needs odd p."""
        self.require_odd()
        a = as_int(a) % self.p
        return a == 0 or pow(a, (self.p - 1) // 2, self.p) == 1

    def least_nonresidue(self) -> int:
        self.require_odd()
        return _least_nonresidue(self.p)


def _mod(a, p: int):
    """a mod p, for ints and integer arrays.

    Fixed-width lanes (int8 to int64, uint64) are reduced as a - a // p * p:
    numpy divides by a scalar through a multiply by a precomputed reciprocal
    (Granlund & Montgomery, PLDI 1994), several times faster than its
    remainder ufunc, which divides every element.  The result is exact even
    where a // p * p wraps: the difference is then taken modulo 2**bits,
    and its true value lies in range(p).  Python ints keep %, the faster
    spelling for them.
    """
    if isinstance(a, np.ndarray):
        q = a // p
        q *= p
        return np.subtract(a, q, out=q)  # in place: one array, as % makes
    return a % p


def _pow_mod(a, e: int, p: int):
    """a**e mod p, for Python ints (built-in pow) and integer arrays
    (square-and-multiply, reducing through _mod)."""
    if isinstance(a, int):
        return pow(a, e, p)
    a = _mod(a, p)
    r = 1
    while e:
        if e & 1:
            r = _mod(r * a, p)
        a = _mod(a * a, p)
        e >>= 1
    return r


@lru_cache(maxsize=None)
def _least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise InternalError(f"no quadratic nonresidue in F_{p}")


@dataclass(frozen=True, order=True)
class SquareClass:
    """A coset of the unit squares in F_p^*, named by its least representative.

    The representative is 1 for the squares and the least nonresidue for the
    other class.
    """

    p: int
    rep: int


def square_class(field: PrimeField, a: int) -> SquareClass:
    """Square class of a unit a (raises on 0)."""
    field.require_odd()
    if field.is_zero(a):
        raise ZeroDivisionError("0 has no square class")
    rep = 1 if field.is_square(a) else field.least_nonresidue()
    return SquareClass(field.p, rep)
