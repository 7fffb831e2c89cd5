"""Classification of level-1 vectors under the level-0 subgroup.

The module grades the adjoint algebra by pairing with the highest root
delta: levels run -2..2, the level-1 slice V1 is spanned by {e_alpha :
<alpha, delta> = 1}, and the group G0 generated by the root elements
x_gamma(t) for level-0 gamma acts on V1.  Vectors in V1 are given externally
as coefficient tuples in the fixed phi1 order of the root system.

For family D (odd characteristic) the classification goes through an
associated root element y built from x: invariants of y — the coefficient
at e_{-delta}, which levels are populated (the "luminosity" scale), and the
conjugacy invariants of small trace-zero 2x2 blocks cut out of the level-0
part — pin down the orbit.  associated_root_element builds y step by step,
applying m + 1 root elements to e_delta; it is the reference.  y is a
polynomial map of x of degree at most 4, so classification runs a compiled
form of it instead (_lift_kernel): the step-by-step lift of 2x is run once
per table over integer polynomials, its postconditions checked as
identities, and the coordinates the invariants read, with the invariants
themselves, become one generated function of x that returns the invariant
code and serves every p.  Every block's c**2 + u*w equals the e_{-delta}
coefficient, an identity checked there too, so the blocks decide darkness
and that degree-4 coordinate is never computed: the scalar spelling for
single vectors and the lane spelling for batches both stop at a dark
vector's blocks, the lanes through a gather of the vectors that are not
dark.  For family A the invariants are read off the covector/vector pair
(u, v) of prefix/suffix root coefficients: which of u and v vanish, and
their contraction.  Family E is out of scope here.

Orbits are named by OrbitDescriptor values: a label from
{I, IIa, IIb, II, IIIa, IIIb, IIIc, III, IV, V, VI} plus canonical
parameters.  The orbit types of each family and rank are written once, in
the catalogue _orbit_types: per label, its parameters with their ranges and
its canonical vector as (phi1 index, value) pairs, each value a constant or
a parameter.  all_descriptors lists the catalogue's descriptors,
canonical_form fills in its canonical vectors, and the decode below reads
it too.  Each orbit type's parameter names are sorted once per (table, p),
before its first descriptor, and every descriptor is built as one tuple.

For either family the invariants are packed into one integer code, owned
by one classifier per table and prime (_classifier), once check_domain
admits them: the code of a single vector (classify, for either family a
unit generated and compiled once per table, whose closure per prime
reduces the vector, packs its code and names its descriptor in one frame)
or of a batch (classify_many), on the narrowest of int8, int16, int32 and
int64 lanes whose range holds the family's bound on the values of its
lane code (for family D, sums of degree at most 3; on D4 int16 up to
p = 13, int32 up to 709 and int64 up to 1,154,051, and int8 only at p = 3
on D5 and D6; on A3 int8 up to p = 5 and int16 up to 79) and by the
scalar code over Python ints past it, and the decode.  A family-A code
decodes directly into its descriptor, which the family-A unit builds in
closed form as well.  A dark family-D code names V(k) in closed form, an
identity checked once per table; any other family-D code is looked up in
a map built from the codes of the catalogue's other canonical vectors.
So descriptor equality is exactly orbit equality and never depends on
basis-level sign conventions.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .chevalley import StructureConstantTable, table_cached
from .gfield import SquareClass, _mod, _pow_mod, square_class
from .liemod import LieVector, apply_root_element
from .rootsys import (Root, RootSystem, as_int, integral, simple_index,
                      standard_quadruple)


class UnsupportedFamily(ValueError):
    """Orbit classification is implemented for families A and D only."""


class CharTwo(ValueError):
    """The family-D classification needs odd characteristic."""


class NotTraceZero(ValueError):
    """The 2x2 conjugacy invariant is defined for trace-zero matrices."""


class InvalidDescriptor(ValueError):
    """The descriptor does not name an orbit of this module."""


class ClassificationError(RuntimeError):
    """Computed invariants match no canonical representative.

    This indicates an internal inconsistency, not bad input.
    """


class Luminosity(Enum):
    """Which levels of the associated element are populated, coarsest first."""

    ZERO_VEC = "ZeroVec"
    SINGULAR = "Singular"
    BRILLIANT = "Brilliant"
    SHINING = "Shining"
    DARK = "Dark"


@dataclass(frozen=True)
class ZBlock:
    """Trace-zero 2x2 block [[c, u], [w, -c]] cut from the level-0 part."""

    c: int
    u: int
    w: int


@dataclass(frozen=True)
class Sl2Invariant:
    """SL2-conjugacy invariant of a trace-zero 2x2 matrix.

    kind "zero": the zero matrix.
    kind "nilpotent": nonzero with zero determinant; `square` is the square
        class of the upper-right entry after conjugating to upper-triangular
        form.
    kind "regular": nonzero determinant; `k` is minus the determinant, and
        k alone names the class, because conjugation moves the upper-right
        entry of an antidiagonal form [[0, *], [*, 0]] by the unit values of
        x**2 - k*y**2, and for k != 0 those are all units of F_p.
    """

    kind: str
    square: SquareClass | None = None
    k: int | None = None


class OrbitDescriptor(NamedTuple):
    """Canonical name of a G0-orbit on V1: the system, the prime, the orbit
    type's label and its (name, value) parameters, sorted by name.  A named
    tuple of those fields: it unpacks, and it equals, and hashes as, the
    plain tuple of the same fields."""

    family: str
    rank: int
    p: int
    label: str
    params: tuple[tuple[str, int | str], ...] = ()

    def param(self, name: str):
        for n, v in self.params:
            if n == name:
                return v
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "p": self.p,
            "label": self.label,
            "params": {n: v for n, v in self.params},
        }

    @classmethod
    def from_json(cls, d: dict) -> "OrbitDescriptor":
        """The descriptor of a to_json dict; InvalidDescriptor names a
        missing field, or params that is not a mapping."""
        try:
            family, rank, p, label = (d[k] for k in cls._fields[:4])
        except KeyError as e:
            raise InvalidDescriptor(f"descriptor has no field {e}") from None
        params = d.get("params", {})
        if not isinstance(params, Mapping):
            raise InvalidDescriptor("descriptor params is not a mapping")
        return cls(family, as_int(rank, "rank"), as_int(p, "p"), label,
                   tuple(sorted(params.items())))


def _require_odd(K) -> None:
    if getattr(K, "p", None) is None:
        raise UnsupportedFamily("classification needs a prime-field domain")
    if K.p == 2:
        raise CharTwo("family-D classification needs characteristic != 2")


def check_domain(rs: RootSystem, K) -> None:
    """Raise unless the classification covers rs over K: family A over any
    prime field, family D over an odd one.  Needs no table."""
    if rs.family not in ("A", "D"):
        raise UnsupportedFamily(
            f"orbit classification covers families A and D, not {rs.name}"
        )
    if rs.family == "D" or not hasattr(K, "p"):
        _require_odd(K)


# -- the associated root element ----------------------------------------------


def block_gammas(rs: RootSystem) -> tuple[Root, ...]:
    """The simple level-0 roots whose sl2 copies cut the invariant blocks."""
    lam, rho, sig, tau = standard_quadruple(rs)
    d = rs.delta
    if rs.rank == 4:
        return (
            rs.sub(d, rs.add(lam, rho)),
            rs.sub(d, rs.add(lam, sig)),
            rs.sub(d, rs.add(lam, tau)),
        )
    return (rs.sub(d, rs.add(lam, rho)),)


def associated_root_element(table: StructureConstantTable, K, x,
                            order=None) -> LieVector:
    """Apply the coefficient-driven product of level-(-1) elements to e_delta.

    For a level-1 coefficient vector x (phi1 order) the result y satisfies,
    over any coefficient field of odd characteristic:

    * the coefficient of e_delta is 1,
    * the level-1 coefficients of y equal x,
    * the Cartan part of y has zero coordinate on the one simple root of
      level 1 (the factor of the torus correction).

    The factor order is immaterial; `order` (a permutation of phi1 indices)
    exists so tests can verify that.
    """
    rs = table.rs
    if rs.family != "D":
        raise UnsupportedFamily(
            f"the associated root element is defined for family D, "
            f"not {rs.name}"
        )
    p = getattr(K, "p", None)
    if p == 2:
        raise CharTwo("the construction divides by 2")
    m = len(rs.phi1)
    xs = [K.of(c) for c in rs.check_v1(x)]
    idxs = range(m) if order is None else [as_int(i) for i in order]
    if order is not None and sorted(idxs) != list(range(m)):
        raise ValueError("order must be a permutation of the phi1 indices")

    d = rs.delta
    v = LieVector.basis(table, K, table.e_key(d))
    for i in idxs:
        if K.is_zero(xs[i]):  # x_g(0) is the identity
            continue
        g = rs.sub(rs.phi1[i], d)
        nc = table.structure_constant(g, d)
        v = apply_root_element(table, g, K.mul(K.of(nc), xs[i]), v)
    mcoef = v.h_coeff(rs.rank - 1)
    c = K.mul(mcoef, K.inv(K.of(2)))
    v = apply_root_element(table, rs.neg(d), c, v)

    if not K.is_zero(K.sub(v.e_coeff(d), K.one)):
        raise ClassificationError("lift: top coefficient moved")
    if not K.is_zero(v.h_coeff(rs.rank - 1)):
        raise ClassificationError("lift: torus correction failed")
    if not all(K.is_zero(K.sub(a, b)) for a, b in zip(v.v1_part(), xs)):
        raise ClassificationError("lift: level-1 coefficients moved")
    return v


def luminosity(rs: RootSystem, y: LieVector) -> Luminosity:
    """First populated level of y, scanning levels -2, -1, 0, 1.

    Level -2 is e_{-delta} alone; the Cartan part counts as level 0.
    """
    support = y.level_support()
    for level, lum in ((-2, Luminosity.DARK), (-1, Luminosity.SHINING),
                       (0, Luminosity.BRILLIANT), (1, Luminosity.SINGULAR)):
        if level in support:
            return lum
    return Luminosity.ZERO_VEC


def z_blocks(table: StructureConstantTable, K, y: LieVector) -> tuple[ZBlock, ...]:
    """The trace-zero blocks of y along the distinguished simple sl2 copies.

    Block i for the simple level-0 root gamma_i is
    [[c, u], [w, -c]] with c the Cartan coordinate of y on h_{gamma_i},
    u the coefficient of e_{gamma_i} and w the coefficient of e_{-gamma_i}.
    """
    rs = table.rs
    out = []
    for g in block_gammas(rs):
        si = simple_index(g)
        out.append(ZBlock(
            c=K.of(y.h_coeff(si)),
            u=K.of(y.e_coeff(g)),
            w=K.of(y.e_coeff(rs.neg(g))),
        ))
    return tuple(out)


# -- sl2 conjugacy invariants ---------------------------------------------------


def sl2_invariant(K, z: ZBlock) -> Sl2Invariant:
    """SL2(K)-conjugacy invariant of the trace-zero matrix [[c,u],[w,-c]]."""
    _require_odd(K)
    c, u, w = K.of(z.c), K.of(z.u), K.of(z.w)
    k = K.add(K.mul(c, c), K.mul(u, w))
    if K.is_zero(c) and K.is_zero(u) and K.is_zero(w):
        return Sl2Invariant(kind="zero")
    if K.is_zero(k):
        top = u if not K.is_zero(u) else K.neg(w)
        return Sl2Invariant(kind="nilpotent", square=square_class(K, top))
    return Sl2Invariant(kind="regular", k=k)


def sl2_invariant_matrix(K, mat) -> Sl2Invariant:
    """Invariant of a general 2x2 trace-zero matrix ((a,b),(c,d))."""
    (a, b), (c, d) = mat
    if not K.is_zero(K.add(K.of(a), K.of(d))):
        raise NotTraceZero(f"matrix {mat} has nonzero trace")
    return sl2_invariant(K, ZBlock(c=K.of(a), u=K.of(b), w=K.of(c)))


# -- the invariant kernel ----------------------------------------------------------

_DARK = 4  # the luminosity digit of a dark code


def _select(cond, a, b):
    """a where cond holds, else b; cond is a bool or a bool array."""
    return b + cond * (a - b)


@table_cached
def _kernel_plan(table: StructureConstantTable):
    """e_{-delta}, which only the kernel's identity checks read, and the
    basis keys the code reads besides x itself: the keys of levels -1 and 0
    (with the Cartan part), and (c, u, w) for each block."""
    rs = table.rs
    levels = {-1: [], 0: list(range(table.n_roots, table.n_basis))}
    for i, q in enumerate(rs.levels):
        if q in levels:
            levels[q].append(i)
    blocks = tuple(
        (table.h_key(simple_index(g)), table.e_key(g), table.e_key(rs.neg(g)))
        for g in block_gammas(rs)
    )
    bottom = table.e_key(rs.neg(rs.delta))
    return bottom, levels[-1], levels[0], blocks


class _Polynomials:
    """Polynomials over Q in the level-1 coordinates x_0, x_1, ..., under the
    coefficient-domain protocol of liemod, so the lift can run on them.

    A polynomial is a dict {monomial: nonzero coefficient}, a monomial being
    the sorted tuple of its variables' indices; the zero polynomial is {},
    so is_zero is exact.  Operations never mutate their arguments.  A
    Fraction enters only through inv, and mul returns an integral
    coefficient as an int; so in the lift of 2x (_doubled_lift), where the
    torus correction's 1/2 meets only even coefficients, every coefficient
    is an int.
    """

    zero: dict = {}
    one = {(): 1}

    def of(self, c):
        return c if isinstance(c, dict) else ({(): c} if c else {})

    def add(self, a, b):
        out = dict(a)
        for mono, c in b.items():
            c += out.get(mono, 0)
            if c:
                out[mono] = c
            else:
                del out[mono]
        return out

    def neg(self, a):
        return {mono: -c for mono, c in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = tuple(sorted(ma + mb))
                out[mono] = out.get(mono, 0) + ca * cb
        return {mono: c.numerator if c.denominator == 1 else c
                for mono, c in out.items() if c}

    def inv(self, a):
        if set(a) != {()}:
            raise ZeroDivisionError(f"{a} is not a nonzero constant")
        return {(): Fraction(1, a[()])}

    def is_zero(self, a) -> bool:
        return not a


@dataclass(frozen=True)
class _Kernel:
    """The generated code of a table, compiled by _kernel_of.

    Each family's (_lift_kernel, _a_kernel) has the same two functions.
    unit compiles the scalar unit, unit(clf), a factory called once per
    prime with the classifier of F_p, whose head binds what the code reads
    of it, and which returns the closure classify(x, code_only=False): the
    descriptor of one level-1 vector x (integers, in any spelling classify
    takes), or with code_only its invariant code, in one frame.  It reduces
    x's entries, so it takes unreduced ints too, and reads any input it
    cannot unpack or reduce through clf.reduced, which returns its entries
    in range(p) or raises.  lanes(p, *x) gives the codes of a batch, x
    being one lane array per phi1 root, of the narrowest of int8, int16,
    int32 and int64 that holds the family's bound (_Classifier; on D4 int16
    up to p = 13, int32 up to 709, int64 up to 1,154,051, and int8 only at
    p = 3 on D5 and D6).  source(name) is the generated text of the function
    of that name, and spell(name) compiles it, each once per table on first
    use (unit and lanes below): one compiled unit per table and one closure
    per prime, so a process that classifies only single vectors compiles
    one function per table, whatever the number of primes.  For family D,
    weights holds, per coordinate of levels -1 and 0 that the code sums,
    {degree: sum of the absolute integer coefficients of its terms of that
    degree}, and bottom the e_{-delta} coefficient of the lift of 2x, the
    quartic polynomial that no spelling computes (_v_code_checked reads
    it); weights is empty and bottom None for family A.
    """

    source: Callable[[str], str]
    spell: Callable[[str], Callable]
    weights: tuple = ()
    bottom: dict | None = field(default=None, compare=False)

    @functools.cached_property
    def unit(self) -> Callable[..., Callable]:
        return self.spell("unit")

    @functools.cached_property
    def lanes(self) -> Callable:
        return self.spell("lanes")

    @functools.cached_property
    def distinct_weights(self) -> tuple:
        """The distinct weights, as ((degree, sum), ...) tuples, once per
        table: many coordinates share one."""
        return tuple({tuple(sorted(ws.items())) for ws in self.weights})

    def bound(self, p: int) -> int:
        """An upper bound on |every intermediate value| of lanes over F_p
        but the packed code, which _DClassifier bounds: each unreduced sum
        d * y_k, with its monomials and partial sums, within the weight of
        y_k; a reduced sum times d**-1 mod p, and the squares and products
        of Euler's criterion, below p**2; each block's c*c + u*w, below
        2 * p**2."""
        return max([2 * p * p] + [sum(w * (p - 1) ** d for d, w in ws)
                                  for ws in self.distinct_weights])


def _doubled_lift(table: StructureConstantTable) -> list:
    """The coefficients of associated_root_element over _Polynomials at 2x,
    x the generic level-1 vector (x_0, x_1, ...).  Every coefficient is an
    int.

    Before the torus correction every coefficient is an integer
    polynomial.  The torus coordinate is quadratic in x, so at 2x it is 4
    times its value at x and the halving divides it exactly.  A coordinate
    homogeneous of degree n in x is 2**n times the lift of x's, so the
    coefficient of each monomial is 2**deg(monomial) times the rational
    lift's."""
    x = [{(i,): 2} for i in range(len(table.rs.phi1))]
    return associated_root_element(table, _Polynomials(), x).coeffs


def _check_blocks(table: StructureConstantTable, y: list) -> None:
    """Raise ClassificationError unless every block's c**2 + u*w is the
    e_{-delta} coefficient of the lift y, as polynomials (_lift_kernel).
    Every term is homogeneous of degree 4, so the lift of 2x satisfies it
    exactly when the lift of x does."""
    P = _Polynomials()
    bottom, _, _, blocks = _kernel_plan(table)
    if any(P.add(P.mul(y[c], y[c]), P.mul(y[u], y[w])) != y[bottom]
           for c, u, w in blocks):
        raise ClassificationError(f"the lift of {table.rs.name} has a block "
                                  f"whose c**2 + u*w is not its e_(-delta) "
                                  f"coefficient")


@table_cached
def _lift_kernel(table: StructureConstantTable) -> _Kernel:
    """associated_root_element and the invariants of its result, as one
    generated source: the invariant code of a vector, in a scalar and a
    lane spelling, each compiled once per table.  Built in four steps, each
    timed by scripts/kernel_digests.py: the lift (_doubled_lift), the block
    identity (_check_blocks), the codegen (_d_source) and the compile
    (_kernel_of's spell).

    The lift is a fixed polynomial map of x, of degree at most 4, whose
    coefficients have denominators dividing 4 (they come from the halving in
    the torus correction).  It is computed once per table by running the
    unchanged associated_root_element over _Polynomials on 2x, whose
    coefficients are ints: Y_k[mono] = 2**deg(mono) * y_k[mono] for each
    coordinate y_k of the lift of x.  The lift's three postconditions are
    then polynomial identities, checked by that run, so a failure raises
    ClassificationError here, as does a coefficient of Y_k that is not an
    int.  A coordinate of level q is homogeneous of degree 2 - q in x.  The
    code reads those of levels -1 and 0 with the Cartan part (level 1 is x
    itself), so each of its terms is x_a or a prefix x_a * x_b, times one
    more x_c.  Each coordinate is written as d * y_k, an integer polynomial
    with d the least common denominator of y_k's coefficients, each term
    Y_k[mono] * d / 2**deg(mono) in exact integers, summed without
    reduction.  One that is only tested for zero is reduced as it is; one
    whose value is read, a block's c, u or w, is then multiplied by d**-1
    mod p.  So the function serves every odd p, and its only literals are
    the integers of the table.  Prefixes shared across coordinates are
    computed once.

    Neither spelling computes e_{-delta}, the degree-4 coordinate, and
    bound(p) does not price it: every block (c, u, w) of the lift satisfies

        y[e_{-delta}] = c**2 + u*w,

    checked here as a polynomial identity, so a failure raises
    ClassificationError.  Both sides are quartic relative invariants of G0
    on V1, which has one up to scalars: on D4, where V1 holds the cubes
    2 x 2 x 2 and the blocks are the cube's three binary quadratic forms,
    it is the classical fact that these share the cube's discriminant
    (Bhargava, Higher composition laws I, 2004); from D5 on, V1 = 2 x W
    and the one block is the binary form that a pair in W spans.  Its
    denominators divide 4, so it holds mod every odd p: a vector is dark
    (y[e_{-delta}] != 0) exactly when the k = c**2 + u*w of any one block
    is nonzero mod p, and then every block is regular with that same k.

    In radix p + 2 the code's leading digit is the luminosity (0 ZeroVec,
    1 Singular, 2 Brilliant, 3 Shining, 4 Dark), followed by one digit per
    block of z_blocks: 0 for the zero block, 1 or 2 for a nilpotent block
    whose sl2_invariant square class is a nonsquare or a square (Euler's
    criterion on u, or on -w when u = 0), and 2 + k for a regular block (k
    alone names its class).  Both spellings of the one source compute the
    blocks first and take dark from the last block's k:

    * unit, for Python ints, is called once per prime: it binds p, the
      inverses q_d, (p - 1) // 2 and the digit places, and returns the
      closure that classifies one vector in one frame.  That unpacks x
      into locals, reduces each by operator.index(x_i) % p, and reduces by
      % and pow.  It computes each block's digit by if/elif on k, u and w;
      a dark vector returns after the blocks, and no coordinate of levels
      -1 and 0 is ever computed.  Its code is _DARK, then 2 + k in every
      block, exactly when it names V(k), which the closure builds in
      closed form; any other code goes through decode, which raises for
      it.  Otherwise an or chain stops at the first nonzero coordinate of
      level -1, then the same for level 0; a level's prefixes are computed
      just before its chain, and its code goes through decode.
    * lanes, for lane arrays of int8 to int64, reduces through gfield._mod
      (numpy's remainder would be most of its time) and combines through
      _select.  It branches where code does, through two
      gathers (np.flatnonzero): Euler's criterion (_pow_mod) runs only on a
      block's nilpotent lanes, and levels -1 and 0, with their prefixes,
      only on the lanes that are not dark.  Each chain of zero tests (a
      block's nonzero, shining, brilliant, singular) is one test of the
      bitwise or of its terms, zero exactly where every term is.  Its
      values are the unreduced sums and the block arithmetic, within
      bound(p), and the code, below 5 * (p + 2)**blocks.  Its Python ints (the table's coefficients,
      each within its coordinate's weight, the inverses q_d, p, the digits
      and (p + 2)**blocks) are within those two bounds too, so a lane that
      holds them holds every int it meets (numpy raises OverflowError on
      a Python int outside an array's dtype).
    """
    y = _doubled_lift(table)
    _check_blocks(table, y)
    return _kernel_of(table, *_d_source(table, y), y[_kernel_plan(table)[0]])


def _kernel_of(table: StructureConstantTable, source: Callable[[str], str],
               weights: tuple = (), bottom: dict | None = None) -> _Kernel:
    """The _Kernel of a table's generated source: spell(kind) compiles
    source(kind) in the one namespace that the code of both families
    reads."""
    name = table.rs.name

    def spell(kind):
        # new(Desc, fields) builds a descriptor without the named tuple's
        # Python-level __new__
        namespace = {"_mod": _mod, "_pow_mod": _pow_mod, "_select": _select,
                     "np": np, "index": operator.index,
                     "Desc": OrbitDescriptor, "new": tuple.__new__}
        exec(compile(source(kind), f"<{kind} of {name}>", "exec"), namespace)
        return namespace[kind]

    return _Kernel(source, spell, weights, bottom)


def _unpacked(m: int) -> list:
    """The first lines of a unit's classify: x into the locals x0, x1,
    ..., each reduced by index(x_i) % p, or through reduced where it does
    not unpack into m integers."""
    xs = ", ".join(f"x{i}" for i in range(m)) or "()"
    return [
        # an iterator is read once, so a refused one is still there
        "        if type(x) is not tuple and type(x) is not list:",
        "            x = tuple(x)",
        "        try:",
        f"            {xs} = x",
        *(f"            x{i} = index(x{i}) % p" for i in range(m)),
        "        except (TypeError, ValueError):",
        f"            {xs} = reduced(x)",
    ]


def _d_source(table: StructureConstantTable, y: list) -> tuple:
    """_lift_kernel's code from y, the checked lift of 2x: source(kind),
    the generated text of "unit" or "lanes", and the weights."""
    rs = table.rs
    m = len(rs.phi1)
    _, lev_m1, lev0, blocks = _kernel_plan(table)
    names: dict = {}  # monomial of degree >= 2 -> the name of its product

    def name(mono):
        if len(mono) == 1:
            return f"x{mono[0]}"
        return names.setdefault(mono, f"t{len(names)}")

    # key -> (the sum d * y_key, d, the prefixes its terms multiply)
    sums: dict = {}
    weights = []
    for key in [*lev_m1, *lev0]:
        poly = y[key]
        if any(type(c) is not int for c in poly.values()):
            raise ClassificationError(f"the lift of {rs.name} has a "
                                      f"coefficient that is not an int at "
                                      f"basis key {key}")
        # the lift of x has the coefficient c / 2**len(mono), reduced
        d = math.lcm(*(2 ** len(mono) // math.gcd(c, 2 ** len(mono))
                       for mono, c in poly.items()))
        groups: dict = {}
        ws: dict = {}
        for mono, c in sorted(poly.items()):
            c = c * d // 2 ** len(mono)
            groups.setdefault(c, []).append(
                name(mono) if len(mono) == 1
                else f"{name(mono[:-1])} * x{mono[-1]}")
            ws[len(mono)] = ws.get(len(mono), 0) + abs(c)
        expr = ""
        for c, terms in sorted(groups.items(), key=lambda g: -g[0]):
            s = " + ".join(terms)
            if abs(c) != 1:
                s = f"{abs(c)} * ({s})"
            elif c < 0:
                s = f"({s})"
            expr += (" - " if c < 0 else " + ") + s
        sums[key] = (expr.lstrip(" +"), d,
                     [mono[:-1] for mono in sorted(poly) if len(mono) > 2])
        weights.append(ws)
    in_blocks = {key for block in blocks for key in block}
    others = [key for key in lev0 if key not in in_blocks]
    place = f"(p + 2) ** {len(blocks)}"  # of the luminosity digit
    xs = ", ".join(f"x{i}" for i in range(m))

    def source(kind):
        # a KeyError for any other kind
        mod = {"unit": lambda e: f"({e}) % p",
               "lanes": lambda e: f"_mod({e}, p)"}[kind]
        body: list = []
        done: set = set()
        inverses: set = set()

        def residue(key):
            """d * y_key mod p, zero exactly where y_key is, after the lines
            that compute its prefixes, each a product of two coordinates."""
            expr, _, prefixes = sums[key]
            for a, b in prefixes:
                if (a, b) not in done:
                    done.add((a, b))
                    body.append(f"    {name((a, b))} = x{a} * x{b}")
            return mod(expr) if expr else "0"

        def value(key):
            """y_key mod p."""
            e, d = residue(key), sums[key][1]
            if d == 1:
                return e
            inverses.add(d)
            return mod(f"{e} * q{d}")

        def blocks_loop():
            """The loop header over the blocks' (c, u, w) values."""
            triples = "".join(f"({', '.join(map(value, block))}), "
                              for block in blocks)
            return f"    for c, u, w in ({triples}):"

        if kind == "unit":
            def leave(e):
                # a return with the code e, or with the descriptor it names
                return f"        return {e} if code_only else decode({e})"

            body.extend([
                "    code = 0",
                blocks_loop(),
                "        k = (c * c + u * w) % p",
                "        if k:", "            digit = 2 + k",
                "        elif u:",
                "            digit = 1 + (pow(u, half, p) == 1)",
                "        elif w:",
                "            digit = 1 + (pow(p - w, half, p) == 1)",
                "        else:", "            digit = 0",
                "        code = code * radix + digit",
                "    if k:",
                "        if code_only:", "            return code + dark",
                # 2 + k in every block: V(k), as _DClassifier.decode names it
                "        if code == (2 + k) * repunit:",
                '            return new(Desc, ("D", rank, p, "V", '
                '(("k", k),) + v_params))',
                "        return decode(code + dark)",
            ])

            def first_nonzero(lum, keys):
                tests = [residue(key) for key in keys if sums[key][0]]
                if tests:
                    body.extend([f"    if {' or '.join(tests)}:",
                                 leave(f"code + {lum} * place")])

            first_nonzero(3, lev_m1)
            # a nonzero block is a nonzero level-0 coordinate
            body.extend(["    if code:", leave("code + 2 * place")])
            first_nonzero(2, others)
            body.extend([f"    if {' or '.join(f'x{i}' for i in range(m))}:",
                         leave("place"),
                         "    return 0 if code_only else decode(0)"])
        else:
            body.extend([
                "    code = 0",
                blocks_loop(),
                "        k = _mod(c * c + u * w, p)",
                "        nonzero = (c | u | w) != 0",
                "        digit = _select(k == 0, nonzero, 2 + k)",
                "        nil = np.flatnonzero((k == 0) & nonzero)",
                "        u, w = u[nil], w[nil]",
                # _pow_mod reduces p to 0
                "        top = _select(u != 0, u, p - w)",
                "        digit[nil] += _pow_mod(top, (p - 1) // 2, p) == 1",
                "        code = code * (p + 2) + digit",
                "    dark = k != 0",
                # the last block's lanes would stay alive beside the prefixes
                "    del c, u, w, k, nonzero, digit, nil, top",
                "    keep = np.flatnonzero(~dark)",
                f"    {xs} = {', '.join(f'x{i}[keep]' for i in range(m))}",
            ])

            def populated(keys):
                # one zero test of the or of the chain: exact for integers
                tests = [residue(key) for key in keys if sums[key][0]]
                return f"({' | '.join(tests)}) != 0" if tests else "False"

            for var, keys in (("shining", lev_m1), ("brilliant", others)):
                body.append(f"    {var} = {populated(keys)}")
            body.extend([
                "    singular = ("
                + " | ".join(f"x{i}" for i in range(m)) + ") != 0",
                f"    lum = {_DARK} * dark",
                # a lane that is not dark has block digits 0, 1 and 2, so
                # its code is nonzero exactly where a block is
                "    lum[keep] = _select(shining, 3, "
                "_select((code[keep] != 0) | brilliant, 2, singular))",
                f"    return lum * {place} + code",
            ])
        head = [f"    q{d} = pow({d}, -1, p)" for d in sorted(inverses)]
        if kind == "lanes":
            return "\n".join([f"def lanes(p, {xs}):", *head, *body])
        return "\n".join([
            "def unit(clf):",
            "    p, decode, reduced, rank, v_params = clf.p, clf.decode, "
            "clf.reduced, clf.rs.rank, clf.v_params", *head,
            "    half = (p - 1) // 2",
            "    radix = p + 2",
            f"    place = radix ** {len(blocks)}",
            f"    dark = {_DARK} * place",
            "    repunit = (place - 1) // (p + 1)",
            "    def classify(x, code_only=False):",
            *_unpacked(m),
            *("    " + line for line in body),
            "    return classify",
        ])

    return source, tuple(weights)


# -- family A: covector/vector pair ---------------------------------------------


def _al_indices(rs: RootSystem) -> tuple[list, list]:
    """The phi1 indices of the prefix roots alpha_1 + ... + alpha_j and of
    the suffix roots alpha_{j+1} + ... + alpha_l, j = 1..l-1."""
    l, at = rs.rank, rs.phi1_index
    return ([at((1,) * j + (0,) * (l - j)) for j in range(1, l)],
            [at((0,) * j + (1,) * (l - j)) for j in range(1, l)])


def al_pair(rs: RootSystem, x) -> tuple[tuple, tuple]:
    """Prefix-root and suffix-root coefficient lists of a level-1 vector.

    Returns (u, v) with u_j the coefficient at alpha_1 + ... + alpha_j and
    v_j the coefficient at alpha_{j+1} + ... + alpha_l, for j = 1..l-1.
    Under the level-0 subgroup, u transforms as a covector and v as a
    vector of a GL(l-1) action, so the contraction sum(u_j * v_j) is an
    orbit invariant.  Entries are integers or integer lane arrays.
    """
    if rs.family != "A":
        raise UnsupportedFamily(
            f"the covector/vector pair is defined for family A, not {rs.name}"
        )
    x = [integral(c) for c in rs.check_v1(x)]
    iu, iv = _al_indices(rs)
    return tuple([x[i] for i in iu]), tuple([x[i] for i in iv])


_A_LABELS = ("I", "IIa", "IIb", "III", "VI")  # indexed by the label digit


def _a_source(table: StructureConstantTable, labels: dict) -> Callable:
    """Family A's code, source(kind) the generated text of "unit" or
    "lanes", both read off ab, the code's parameters (a, b) per label digit.

    labels is _AClassifier.labels: label digit -> (label, its parameters as
    (name, index into (a, b)) in name order).  The code is (label * p + a)
    * p + b.  With s = sum(u_j * v_j) over al_pair's (u, v), the label
    (_A_LABELS) is I when u and v vanish, IIa when only v does, IIb when
    only u does, else VI when s != 0 and III when s == 0.  (a, b) are the
    label's parameters in _orbit_types order, zero where it has fewer: on
    A2 (u_1, v_1) for VI, u_1 for IIa and v_1 for IIb; otherwise s for VI,
    and for A3's III the contraction c of v with the completion of u to a
    unimodular basis, (0, 1/u_1) when u_1 != 0, else (-1/u_2, 0).  unit(clf)
    returns the closure classify, which branches on s, then on u and v, and
    returns the code or its descriptor, built once per prime for a type
    without parameters.  lanes(p, *x), on lane arrays or ints in range(p),
    sums the label from zero tests and takes a and b by one _select per
    digit, with _mod and _pow_mod for % and pow.  Its values stay below
    max(5, l - 1) * p**2: s sums l - 1 products, A3's c selects between two
    products below p**2, and the code is below 5 * p**2.
    """
    rs = table.rs
    iu, iv = _al_indices(rs)
    u, v = [f"x{i}" for i in iu], [f"x{i}" for i in iv]
    # (a, b) as expressions, for each label digit
    ab = dict.fromkeys(range(5), ("0", "0"))
    ab[4] = ("s", "0")
    if len(u) == 1:  # A2
        ab.update({1: (u[0], "0"), 2: (v[0], "0"), 4: (u[0], v[0])})
    elif len(u) == 2:  # A3
        ab[3] = ("c", "0")
    contraction = " + ".join(map("{} * {}".format, u, v))

    def leave(digit):
        label, names = labels[digit]
        a, b = ab[digit]
        code = " + ".join(t for t in (digit and f"c{digit}",
                                      a != "0" and f"{a} * p",
                                      b != "0" and b) if t) or "0"
        params = "".join(f'("{n}", {(a, b)[j]}),' for n, j in names)
        desc = (f'new(Desc, ("A", rank, p, "{label}", ({params})))' if names
                else f"d{digit}")
        return f"return {code} if code_only else {desc}"

    def chain(j):  # a (j = 0) or b (j = 1) on lanes
        e = "0"
        for digit in labels:
            if ab[digit][j] != "0":
                e = f"_select(label == {digit}, {ab[digit][j]}, {e})"
        return e

    unit, lanes = [], ["return 0"]  # A1 has no pair: every vector is I
    if u:
        unit += [f"s = ({contraction}) % p",
                 "if s:", "    " + leave(4), f"if {' or '.join(u)}:"]
        if 3 in labels:  # A2 has no III: u and v nonzero make s nonzero
            unit.append(f"    if {' or '.join(v)}:")
            if len(u) == 2:
                unit.append(f"        c = {v[1]} * pow({u[0]}, -1, p) % p "
                            f"if {u[0]} else -{v[0]} * pow({u[1]}, -1, p) % p")
            unit.append("        " + leave(3))
        unit += ["    " + leave(1), f"if {' or '.join(v)}:", "    " + leave(2)]
        lanes = [f"s = _mod({contraction}, p)",
                 f"label = (({' | '.join(u)}) != 0) "
                 f"+ 2 * (({' | '.join(v)}) != 0) + (s != 0)"]
        if len(u) == 2:
            inv = "_pow_mod({}, p - 2, p)".format
            lanes.append(f"c = _mod(_select({u[0]} != 0, {inv(u[0])} * {v[1]}"
                         f", -{inv(u[1])} * {v[0]}), p)")
        b = chain(1)
        lanes.append(f"return (label * p + {chain(0)}) * p"
                     + (f" + {b}" if b != "0" else ""))
    unit.append(leave(0))
    head = [f"    c{digit} = {digit} * p * p" for digit in labels if digit]
    head += [f'    d{digit} = new(Desc, ("A", rank, p, "{label}", ()))'
             for digit, (label, names) in labels.items() if not names]
    xs = "".join(f", x{i}" for i in range(len(rs.phi1)))

    def source(kind):
        if kind == "lanes":
            return "\n".join([f"def lanes(p{xs}):",
                              *("    " + line for line in lanes)])
        if kind != "unit":
            raise KeyError(kind)
        return "\n".join(["def unit(clf):",
                          "    p, reduced, rank = clf.p, clf.reduced, "
                          "clf.rs.rank", *head,
                          "    def classify(x, code_only=False):",
                          *_unpacked(len(rs.phi1)),
                          *("        " + line for line in unit),
                          "    return classify"])

    return source


@table_cached
def _a_kernel(table: StructureConstantTable, labels: tuple) -> _Kernel:
    """Family A's generated code (_a_source), each spelling compiled once
    per table on its first use; labels is _AClassifier.labels as a tuple of
    its items."""
    return _kernel_of(table, _a_source(table, dict(labels)))


# -- the orbit catalogue ----------------------------------------------------------


@table_cached
def _orbit_types(table: StructureConstantTable, K) -> dict:
    """Every orbit type of V1 for this system over K, in all_descriptors
    order: label -> (params, entries).

    params lists (name, values) per parameter, the first varying slowest;
    entries lists (phi1 index, value) per nonzero coefficient of the
    canonical vector, the value an int or the name of an int parameter.
    Needs check_domain to have passed.
    """
    rs = table.rs
    at = rs.phi1_index
    units = K.units()
    if rs.family == "A":
        if rs.rank == 1:
            return {"I": ((), ())}
        rho, sig = at(rs.simple(1)), at(rs.simple(rs.rank))
        dmr = at(rs.sub(rs.delta, rs.simple(1)))
        if rs.rank == 2:
            a, b = ("rho", units), ("delta_minus_rho", units)
            return {
                "I": ((), ()),
                "IIa": ((a,), ((rho, "rho"),)),
                "IIb": ((b,), ((dmr, "delta_minus_rho"),)),
                "VI": ((a, b), ((rho, "rho"), (dmr, "delta_minus_rho"))),
            }
        c = ("c", units)
        three = rs.rank == 3  # III of A3 splits by c, from A4 on it is one
        return {
            "I": ((), ()),
            "IIa": ((), ((rho, 1),)),
            "IIb": ((), ((sig, 1),)),
            "III": ((c,) * three, ((rho, 1), (sig, "c" if three else 1))),
            "VI": ((c,), ((rho, 1), (dmr, "c"))),
        }
    lam, rho, sig, tau = map(at, standard_quadruple(rs))
    classes = ("1", str(K.least_nonresidue()))
    # D4 has three blocks, so sigma carries a class and IIIc exists; from
    # D5 on sigma's coefficient is 1.  k != 0 has the single norm class 1,
    # so V(k) has rho = sigma = 1 and tau = k.
    d4 = rs.rank == 4
    s_par = (("sigma_class", classes),) * d4
    s = "sigma_class" if d4 else 1
    types = {
        "I": ((), ()),
        "II": ((), ((lam, 1),)),
        "IIIa": ((("rho_class", classes),), ((lam, 1), (rho, "rho_class"))),
        "IIIb": (s_par, ((lam, 1), (sig, s))),
        "IIIc": ((("tau_class", classes),), ((lam, 1), (tau, "tau_class"))),
        "IV": ((("rho_class", classes),) + s_par,
               ((lam, 1), (rho, "rho_class"), (sig, s))),
        "V": ((("k", units), ("rho_class", ("1",)))
              + (("sigma_class", ("1",)),) * d4,
              ((lam, 1), (rho, 1), (sig, 1), (tau, "k"))),
    }
    if not d4:
        del types["IIIc"]
    return types


def _product(ranges):
    """itertools.product(*ranges), which would first copy every range into
    a tuple: V's range(1, p) holds 10**9 ints at p = 10**9 + 7."""
    if len(ranges) < 2:
        yield from zip(*ranges) if ranges else [()]
    else:
        for head in _product(ranges[:-1]):
            for v in ranges[-1]:
                yield (*head, v)


def _descriptors_of_type(rs: RootSystem, p: int, label: str, params):
    """The descriptors of one orbit type, in all_descriptors order.

    The parameter names are sorted once per type, and each descriptor is
    built as one tuple: the head (family, rank, p, label) and its
    parameters, without the named tuple's Python-level __new__."""
    head = (rs.family, rs.rank, p, label)
    # the positions of the values in name order; a type's names are distinct
    order = sorted(range(len(params)), key=lambda j: params[j][0])
    names = [params[j][0] for j in order]
    # itemgetter returns a tuple from two positions on
    pick = operator.itemgetter(*order) if len(order) > 1 else tuple
    new = tuple.__new__
    for values in _product([r for _, r in params]):
        yield new(OrbitDescriptor, head + (tuple(zip(names, pick(values))),))


# -- the classifier ------------------------------------------------------------------

# vectors per codes call of classify_many; bounds the memory of a batch
# code pass, which holds a lane array for every prefix and block coordinate
# of the compiled code (2**15 traced 20.5 -> 22.2 MB for 2**16 vectors of
# D8/F700,001, int64 lanes).  crosscheck, whose rows are narrow, calls
# codes on chunks of at most census._CHECK_CHUNK
_CHUNK = 1 << 14
# lane dtypes, narrowest first, with the largest value each holds
_LANES = tuple((t, int(np.iinfo(t).max))
               for t in (np.int8, np.int16, np.int32, np.int64))


class _Classifier:
    """The invariant code of one table over one prime field, and its decode.

    Its kernel (_Kernel) spells the code twice, from one generated source:
    classify(x, code_only=False), the scalar unit at p, which reduces one
    vector and returns its descriptor, or its code, and lanes(xs), the
    codes of a batch, one lane array per phi1 coordinate, which codes(rows)
    calls once on a chunk of rows; its callers chunk.  Each family
    gives decode(code), the descriptor a code names, and its bound on
    |every value of lanes|.  lane is the narrowest of int8, int16, int32
    and int64 whose range holds the bound, that is bound < 2**(bits - 1)
    (it covers gfield._mod, exact even where a // p * p wraps, and every
    integer literal of the lane code, each at most the bound), and None
    past 2**63, where batches run code over Python ints.

    It also holds the catalogue of its (table, p), types (_orbit_types):
    descriptors builds each orbit type's descriptors from its parameter
    names, sorted once per type, and canonical_vector fills in the type's
    (phi1 index, value) entries.
    """

    def __init__(self, table: StructureConstantTable, K, bound: int):
        self.rs, self.p, self.types = table.rs, K.p, _orbit_types(table, K)
        self.m = len(self.rs.phi1)
        self.lane = next((t for t, top in _LANES if bound <= top), None)

    @functools.cached_property
    def classify(self) -> Callable:
        """The kernel's scalar unit at this p, built on the first scalar
        call: classify(x), or the code alone with code_only=True."""
        return self.kernel.unit(self)

    def lanes(self, xs):
        return self.kernel.lanes(self.p, *xs)

    def code(self, x) -> int:
        """The code of one vector, by the scalar unit."""
        return self.classify(x, True)

    def reduced(self, x) -> list:
        """x as a list of Python ints in range(p), for a unit that cannot
        unpack it: the compiled lift sums its terms before reducing them.
        TypeError for an entry that is not an integer, ValueError, with the
        system's message, for a vector of the wrong length."""
        p = self.p
        if type(x) is not tuple and type(x) is not list:
            x = tuple(x)  # an iterator is read once
        try:
            x = [operator.index(c) % p for c in x]
        except TypeError:  # numpy bools have no __index__
            x = [as_int(c) % p for c in x]
        if len(x) != self.m:
            self.rs.check_v1(x)  # raises, with the system's message
        return x

    def codes(self, chunk):
        """The codes of a chunk of vectors, an (n, |phi1|) integer or bool
        array or a list of lists of ints, reduced mod p here: a lane array
        from one lanes call, or, past the lane bound or for a list, a list
        from code over Python ints."""
        p, lane = self.p, self.lane
        if lane is None or isinstance(chunk, list):
            return list(map(self.code, chunk if isinstance(chunk, list)
                            else chunk.tolist()))
        # read as unsigned, a 64-bit entry outside range(p), negative or
        # not, is at least p: one pass spares most chunks a reduced copy.  A
        # narrower negative entry reads as at most 2**(8 * itemsize) - 1,
        # which can be below p, so a narrower signed chunk is also tested
        # for one.  The copy of a narrower chunk is made in 64 bits, where
        # numpy divides by any p
        if (chunk.view(f"u{chunk.itemsize}").max(initial=0) >= p
                or chunk.dtype.kind == "i" and chunk.itemsize < 8
                and chunk.min(initial=0) < 0):
            chunk = _mod(chunk if chunk.itemsize == 8
                         else chunk.astype(np.int64), p)
        xs = [c.astype(lane) for c in chunk.T]
        return np.broadcast_to(self.lanes(xs), (len(chunk),))

    def orbit_count(self) -> int:
        """How many descriptors descriptors() lists, without listing them:
        summed over the orbit types, the product of their parameter-range
        sizes.  A range is sized by its ends, since len() of one past 2**63
        raises OverflowError."""
        return sum(math.prod(r.stop - r.start if isinstance(r, range)
                             else len(r) for _, r in params)
                   for params, _ in self.types.values())

    def descriptors(self, skip: str | None = None):
        """The catalogue's descriptors in all_descriptors order, without
        those of the label skip."""
        for label, (params, _) in self.types.items():
            if label != skip:
                yield from _descriptors_of_type(self.rs, self.p, label, params)

    def canonical_vector(self, d: OrbitDescriptor) -> tuple[int, ...]:
        """The entries of d's orbit type filled with d's parameters (phi1
        order); whether the vector classifies back to d is canonical_form's
        check."""
        try:
            entries = self.types[d.label][1]
        except (KeyError, TypeError):
            raise InvalidDescriptor(
                f"no label {d.label} for {self.rs.name}") from None
        out = [0] * self.m
        for i, v in entries:
            out[i] = v if isinstance(v, int) else _int_param(d, v)
        return tuple(out)


class _AClassifier(_Classifier):
    """Family A (_a_kernel): a code names its label and parameters."""

    def __init__(self, table: StructureConstantTable, K):
        super().__init__(table, K, max(5, table.rs.rank - 1) * K.p ** 2)
        # label digit -> the label, and its parameters as (name, index into
        # the code's (a, b)) in name order, the order of descriptor params
        self.labels = {
            digit: (label, tuple(sorted((n, j) for j, (n, _) in
                                        enumerate(self.types[label][0]))))
            for digit, label in enumerate(_A_LABELS) if label in self.types}
        self.kernel = _a_kernel(table, tuple(self.labels.items()))

    def decode(self, code: int) -> OrbitDescriptor:
        p = self.p
        label, names = self.labels[code // (p * p)]
        ab = (code // p % p, code % p)
        return OrbitDescriptor(
            "A", self.rs.rank, p, label, tuple([(n, ab[j]) for n, j in names]))


class _DClassifier(_Classifier):
    """Family D: the compiled lift's code (_lift_kernel).  Its lane values
    are the packed code, below 5 * (p + 2)**blocks, and the sums and block
    arithmetic within kernel.bound(p).  A dark code names V(k) in closed
    form, its digits _DARK and then 2 + k in every block, as
    _v_code_checked proves once per table; any other is looked up in
    canonical_codes, which the first such decode builds.  classify names
    V(k) itself, and sends every other code here."""

    def __init__(self, table: StructureConstantTable, K):
        kernel = self.kernel = _lift_kernel(table)
        # the place of the luminosity digit
        self.place = (K.p + 2) ** len(_kernel_plan(table)[-1])
        super().__init__(table, K, max(5 * self.place, kernel.bound(K.p)))
        params, entries = self.types["V"]
        _v_code_checked(table, entries)
        # V's parameters after k take one value each, in sorted order
        self.v_params = tuple((n, v) for n, (v,) in params[1:])

    def decode(self, code: int) -> OrbitDescriptor:
        p, place = self.p, self.place
        if code // place != _DARK:
            d = self.canonical_codes.get(code)
            if d is not None:
                return d
        # 2 + k in every block: 2 + k times the repunit 1 + (p + 2) + ...
        elif (k := code % (p + 2) - 2) > 0 and code == (
                _DARK * place + (2 + k) * (place - 1) // (p + 1)):
            # as _descriptors_of_type builds it: "k" sorts first
            return OrbitDescriptor("D", self.rs.rank, p, "V",
                                   (("k", k),) + self.v_params)
        raise ClassificationError(
            f"invariant code {code} matches no canonical representative "
            f"of {self.rs.name} over F_{p}"
        )

    @functools.cached_property
    def canonical_codes(self) -> dict:
        """Code -> descriptor for every canonical representative except
        V(k)'s."""
        codes: dict = {}
        for d in self.descriptors(skip="V"):
            code = self.code(self.canonical_vector(d))
            if code in codes:
                raise ClassificationError(
                    f"{codes[code]} and {d} share the invariant code {code}"
                )
            codes[code] = d
        return codes


def _classifier(table: StructureConstantTable, K) -> _Classifier:
    """The classifier of table over K, built once check_domain passes.

    One per (table, p), found by one read of a dict keyed by the int p,
    held in table.memo under _classifier itself, so it dies with its
    table.  A classifier reads only p from K, and its catalogue K's units
    and least nonresidue, which are p's in every PrimeField subclass; so
    a subclass with the same p gets the classifier PrimeField(p) gets,
    whichever of them came first.  A domain without p, and p = 2 on family
    D, raise before anything is cached."""
    try:
        return table.memo[_classifier][K.p]
    except (KeyError, AttributeError):
        check_domain(table.rs, K)
    clf = table.memo.setdefault(_classifier, {})[K.p] = (
        _AClassifier if table.rs.family == "A" else _DClassifier)(table, K)
    return clf


@table_cached
def _v_code_checked(table: StructureConstantTable, entries) -> None:
    """Check, once per table, that V(k)'s canonical vector (entries: ints and
    the parameter k) has the code _DARK, then 2 + k in every block, for every
    odd p and unit k: as a polynomial in k, its lift has e_{-delta}
    coefficient k, an identity that survives reduction mod an odd p (the
    lift's denominators divide 4); c**2 + u*w = k in every block then
    follows from the identity _lift_kernel proves for the table.  It
    evaluates at the entries the e_{-delta} coefficient of the lift of 2x
    that _lift_kernel computed (its kernel's bottom), quartic in x, so 16k
    there.  That polynomial is the lift's value at every x: the lift's one
    branch skips x_g(0), the identity, which does not change the value.
    Raises ClassificationError if it fails or an entry is neither int nor
    k."""
    at = dict(entries)  # phi1 index -> its int or "k"; 0 elsewhere
    for v in at.values():
        if v != "k" and not isinstance(v, int):
            raise ClassificationError(f"V's entry {v!r} is neither k nor an int")
    value: dict = {}  # power of k -> its coefficient
    for mono, c in _lift_kernel(table).bottom.items():
        power = 0
        for i in mono:
            v = at.get(i, 0)
            if v == "k":
                power += 1
            else:
                c *= v
        value[power] = value.get(power, 0) + c
    if {e: c for e, c in value.items() if c} != {1: 16}:
        raise ClassificationError(f"V(k)'s canonical vector of "
                                  f"{table.rs.name} does not have the "
                                  f"closed-form dark code")


def classify(table: StructureConstantTable, K, x) -> OrbitDescriptor:
    """Orbit descriptor of a level-1 coefficient vector (phi1 order) of
    integers.

    The code, and so the descriptor, is constant on G0-orbits.  G0 is
    generated by the x_gamma(t), gamma = +-alpha for the simple level-0
    roots alpha, and tier-1 tests prove that each keeps the code, through
    identities over Q[t, x] whose denominators divide 4, so they hold mod
    every odd p.  Family D: the lift commutes with each generator, which
    keeps each level of the lift, so its luminosity, and conjugates each
    block in SL2, which keeps the block's digit (sl2_invariant).  Family A:
    u and v of al_pair move linearly and their contraction s is invariant,
    so the label and VI's s are; on s = 0 so is A3's III parameter c; A2
    has no level-0 simple root.  That distinct orbits get distinct codes is
    crosscheck's test against the census.
    """
    return _classifier(table, K).classify(x)


# -- batches -----------------------------------------------------------------------


def _batch_rows(rs: RootSystem, p: int, X):
    """X as an (n, |phi1|) array of integers or bools, as it comes (a
    narrow dtype, which need not hold p, is widened chunk by chunk where
    _Classifier reduces it), or, for an object array or a sequence that
    numpy reads as no integer dtype (entries of 2**64 or more, or of 2**63
    or more beside smaller ones), as a list of lists of ints; ValueError for
    rows of the wrong length or entries that are not integers."""
    m = len(rs.phi1)
    if not isinstance(X, (np.ndarray, list, tuple)):
        X = list(X)  # an iterator is read once
    try:
        rows = np.asarray(X)
        if rows.size == 0:  # no vectors, or vectors without entries (A1)
            rows = rows.astype(np.int64).reshape(len(rows), m)
    except ValueError:  # rows of different lengths
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] != m:
        raise ValueError(
            f"level-1 vectors for {rs.name} need {m} coefficients each"
        )
    if rows.dtype.kind in "biu":
        return rows
    with contextlib.suppress(TypeError):
        return [[as_int(c) for c in x] for x in X]
    raise ValueError(f"level-1 vector entries over F_{p} must be integers")


def classify_many(table: StructureConstantTable, K,
                  X) -> list[OrbitDescriptor]:
    """Orbit descriptors of a batch of level-1 vectors, in input order.

    X is an iterable of integer vectors in phi1 order, read once, or an
    (n, |phi1|) integer array.  The result equals [classify(table, K, x)
    for x in X]: the codes come from the same classifier, by its lane
    spelling (codes, one call per _CHUNK rows, whose lanes are freed before
    the next), a second spelling of the scalar unit's, and each distinct
    code is decoded once.  A row of the wrong length, or entries that are
    not integers, raise ValueError.
    """
    clf = _classifier(table, K)
    rows = _batch_rows(clf.rs, clf.p, X)
    out: list = [None] * len(rows)
    seen: dict = {}  # code -> descriptor
    for lo in range(0, len(rows), _CHUNK):
        codes = clf.codes(rows[lo:lo + _CHUNK])
        keys = codes if isinstance(codes, list) else codes.tolist()
        for c in set(keys).difference(seen):
            seen[c] = clf.decode(c)
        out[lo:lo + len(keys)] = map(seen.__getitem__, keys)
        del keys, codes  # before the next chunk is coded
    return out


def same_orbit(table: StructureConstantTable, K, x1, x2) -> bool:
    """Are two level-1 vectors in the same orbit of the level-0 subgroup?"""
    clf = _classifier(table, K)
    return clf.classify(x1) == clf.classify(x2)


# -- canonical forms -----------------------------------------------------------------


def _int_param(d: OrbitDescriptor, name: str) -> int:
    try:
        return int(d.param(name))
    except KeyError:
        raise InvalidDescriptor(
            f"label {d.label} of {d.family}{d.rank} needs parameter {name!r}"
        ) from None
    except (TypeError, ValueError, OverflowError):
        raise InvalidDescriptor(
            f"parameter {name!r} of {d} is not an integer"
        ) from None


def canonical_form(table: StructureConstantTable, K,
                   d: OrbitDescriptor) -> tuple[int, ...]:
    """The canonical level-1 vector named by the descriptor (phi1 order)."""
    clf = _classifier(table, K)
    rs, p = clf.rs, clf.p
    if (d.family, d.rank) != (rs.family, rs.rank) or d.p != p:
        raise InvalidDescriptor(
            f"descriptor {d.family}{d.rank}/F_{d.p} does not match "
            f"{rs.name}/F_{p}"
        )
    vec = clf.canonical_vector(d)
    got = clf.classify(vec)
    if got != d:
        raise InvalidDescriptor(
            f"{d.label} with params {dict(d.params)} does not name an orbit "
            f"of {rs.name}/F_{p} (that vector classifies as {got.label} "
            f"with {dict(got.params)})"
        )
    return vec


# -- the full predicted orbit list ------------------------------------------------


def all_descriptors(table: StructureConstantTable, K) -> list[OrbitDescriptor]:
    """Every orbit descriptor of V1 for this system over K, fixed order.

    The cyclic collector is paused while the list is built: the
    descriptors hold no cycles, and at p >= 1009 (about 10**6 of them)
    its passes over the growing list took about a third of the time."""
    clf = _classifier(table, K)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(clf.descriptors())
    finally:
        if enabled:
            gc.enable()
