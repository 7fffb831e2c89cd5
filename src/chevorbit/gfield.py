"""Small prime fields, square classes, and quadratic-extension norm classes.

Field elements are plain Python ints in ``range(p)``; the :class:`PrimeField`
object carries the arithmetic.  Coefficient domains share one protocol:
``zero``, ``one``, ``of``, ``add``, ``sub``, ``mul``, ``neg``, ``inv`` and
``is_zero``.  :class:`ExactIntegers` implements it over the integers, and
:class:`ArrayField` over F_p on numpy arrays, one lane per element, where
``is_zero`` is true exactly when every lane is zero: code that skips a term
on ``is_zero`` stays exact for the whole batch.

Square classes of units are represented by a canonical representative:
1 for squares and the least quadratic nonresidue otherwise.  Norm classes are
the cosets of the value group of the form x**2 - k*y**2 inside the unit
group, named by their least member.  They have a closed form over F_p:

* for k != 0 the form takes every unit value (for square k it factors, and
  for nonsquare k it is the norm of F_{p^2}/F_p, which is onto), so there is
  the single class 1 and every unit is represented;
* for k = 0 the values are the unit squares, so the classes are the square
  classes (1, nu) and a unit is represented exactly when it is a square.

The regular sl2 invariant of the orbit module still carries and serializes
its norm class, always "1" there since k != 0, so its JSON states the
invariant in its general form (k, norm class).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NotPrime(ValueError):
    """The requested modulus is not a prime number."""


class UnsupportedField(ValueError):
    """The operation needs an odd prime field (characteristic != 2)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic of F_p with elements as ints in range(p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.p})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.p == self.p

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.p))

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of(self, n: int) -> int:
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
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def elements(self) -> range:
        return range(self.p)

    def units(self) -> range:
        return range(1, self.p)

    # -- quadratic structure (odd p only) ---------------------------------

    def require_odd(self) -> None:
        if self.p == 2:
            raise UnsupportedField("characteristic 2 is not supported here")

    def is_square(self, a: int) -> bool:
        """True for 0 and for unit squares; needs odd p."""
        self.require_odd()
        a %= self.p
        return a == 0 or pow(a, (self.p - 1) // 2, self.p) == 1

    def least_nonresidue(self) -> int:
        self.require_odd()
        return _least_nonresidue(self.p)


class ExactIntegers:
    """The ring of integers under the same operation protocol."""

    zero = 0
    one = 1

    def __repr__(self) -> str:
        return "ExactIntegers()"

    def of(self, n: int) -> int:
        return int(n)

    def add(self, a: int, b: int) -> int:
        return a + b

    def sub(self, a: int, b: int) -> int:
        return a - b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def neg(self, a: int) -> int:
        return -a

    def inv(self, a: int) -> int:
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not invertible over the integers")

    def is_zero(self, a: int) -> bool:
        return a == 0


INTEGERS = ExactIntegers()


def _pow_mod(a, e: int, p: int):
    """a**e mod p by square-and-multiply, for ints and integer arrays."""
    a = a % p
    r = 1
    while e:
        if e & 1:
            r = r * a % p
        a = a * a % p
        e >>= 1
    return r


class ArrayField(PrimeField):
    """F_p arithmetic on numpy arrays of elements (and plain ints), lane-wise.

    Compares unequal to PrimeField(p), so per-field caches keep the two
    apart.  Only inversion and the zero test differ from PrimeField: inv
    runs Fermat's power on every lane, and is_zero is true exactly when
    every lane is 0.
    """

    def inv(self, a):
        return _pow_mod(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return not np.any(a)


@lru_cache(maxsize=None)
def _least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise AssertionError(f"no quadratic nonresidue in F_{p}")


@dataclass(frozen=True, order=True)
class SquareClass:
    """A coset of the unit squares in F_p^*, named by its least representative.

    The representative is 1 for the squares and the least nonresidue for the
    other class.
    """

    p: int
    rep: int

    def __str__(self) -> str:
        return str(self.rep)


def square_class(field: PrimeField, a: int) -> SquareClass:
    """Square class of a unit a (raises on 0)."""
    field.require_odd()
    a %= field.p
    if a == 0:
        raise ZeroDivisionError("0 has no square class")
    rep = 1 if field.is_square(a) else field.least_nonresidue()
    return SquareClass(field.p, rep)


@dataclass(frozen=True, order=True)
class NormClass:
    """A coset of the norm-value group of x**2 - k*y**2, by least representative."""

    p: int
    k: int
    rep: int

    def __str__(self) -> str:
        return str(self.rep)


def norm_class_of(field: PrimeField, k: int, a: int) -> NormClass:
    """Norm class of the unit a relative to the form x**2 - k*y**2."""
    field.require_odd()
    a %= field.p
    if a == 0:
        raise ZeroDivisionError("0 has no norm class")
    k %= field.p
    rep = square_class(field, a).rep if k == 0 else 1
    return NormClass(field.p, k, rep)


def norm_class_reps(field: PrimeField, k: int) -> tuple[int, ...]:
    """Canonical representatives of the norm classes for x**2 - k*y**2."""
    field.require_odd()
    if k % field.p == 0:
        return (1, field.least_nonresidue())
    return (1,)


def norm_form_solvable(field: PrimeField, k: int, a: int) -> bool:
    """Is a represented by x**2 - k*y**2 with (x, y) != (0, 0)?"""
    field.require_odd()
    a %= field.p
    k %= field.p
    if a == 0:
        # nontrivial zero exists exactly when k is a unit square
        return k != 0 and field.is_square(k)
    return k != 0 or field.is_square(a)


def k_class_equal(field: PrimeField, k1: int, k2: int) -> bool:
    """Do k1 and k2 define the same quadratic extension class?

    True when both are zero, or both are units in the same square class.
    """
    field.require_odd()
    k1 %= field.p
    k2 %= field.p
    if k1 == 0 or k2 == 0:
        return k1 == k2
    return field.is_square(k1 * k2 % field.p)
