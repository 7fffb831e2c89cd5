"""Brute-force orbit enumeration of V1 over F_p, and classifier cross-checks.

States are level-1 coefficient vectors encoded as base-p integers with the
first phi1 coordinate most significant, so numeric order is lexicographic
order.  state_of_vector encodes one vector, and one vectorized decoder,
_digits, serves the census representatives, the crosscheck's states and
sample, and vector_of_state.  The acting group G0 is generated by the 2 r0
elements x_{+-alpha}(1) for the simple level-0 roots alpha: over F_p,
x_gamma(t) = x_gamma(1)^t, and the Weyl group of the level-0 roots
conjugates each of them onto a simple one (Steinberg, Lectures on
Chevalley Groups, 1967).  From r0 = 1 on, r0 + 1 elements generate it too:
the x_alpha(1) and n_0, a lift of the longest level-0 Weyl element, which
conjugates U+ onto U- (_class_maps).  Each generator permutes the states
through a digit map: a root element's move adds multiples of coefficients
along the disjoint source/target pairs of liemod's plan (its v1 moves),
and n_0 permutes the coordinates with signs.

G0 also holds the torus T0 of the h_alpha(c), which multiplies each
coordinate by a character of its own, so each orbit is a union of T0's
classes.  The partition (_orbit_partition) writes each state's class
number, the classes numbered by their least states (normal forms,
_Torus) as _classes lists them, into one array indexed by state, block by
block of states that share their leading digits.  It then joins the
classes along the class edges x_alpha(c) . r, c in the image of alpha's
character, and n_0 . r,
read from each class's least state r alone, in one union-find over the
class numbers.  The orbit index is written over the class numbers in
place, so enumeration holds that one array, a working set of one block,
and a few bytes per class, whatever the number of generators.  Each orbit
is labelled by its least (lexicographically first) state.

The crosscheck compares the invariant-based classifier against the ground
truth partition:

* each census representative is the least state of its orbit, and each
  orbit has the listed size, in one pass over the orbit index,
* the classifier's invariant code is constant on every orbit: the code is
  T0-invariant, so it is computed at one state of each T0-class, its
  least, by classify's own classifier, one codes call per fixed-size
  chunk of those states, which the crosscheck lists itself from T0's
  characters (_classes) and streams in ascending order, so that no array
  of codes of every class is held; each class's code must equal the code
  of its orbit's representative, and that the scalar spelling's code,
* each census descriptor is the one the classifier decodes from its
  representative's code, and the descriptors are pairwise distinct, so
  every pair of representatives is classified apart,
* canonical forms land back in the orbit they were computed from,
* same_orbit agrees with the partition on a random sample of pairs: the
  2 * pairs states are the little-endian 64-bit words of one
  random.Random(seed) stream reduced mod the state count (pair i is words
  2i and 2i + 1), drawn and checked 10,000 pairs at a time, so the
  sample's size costs time, not memory: each chunk goes through the
  classifier's batch code (_sample_classes), whose descriptors, each
  distinct code decoded once, must be equal for the two states of a pair
  exactly when they share an orbit, and the first 500 pairs also through
  the scalar same_orbit; each sampled state's code must also be its
  orbit's, and
* the predicted descriptor list matches the enumerated one as a set.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

try:  # at import: a first import inside a census call costs 0.2 ms
    import resource
except ImportError:  # not on every platform
    resource = None

from .chevalley import StructureConstantTable, table_cached
from .gfield import PrimeField, _mod
from .liemod import _action_plan
from .orbitlab import (
    ClassificationError,
    InvalidDescriptor,
    OrbitDescriptor,
    _classifier,
    all_descriptors,
    canonical_form,
    check_domain,
    classify,
    same_orbit,
)
from .rootsys import InternalError, RootSystem, as_int

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV = "CHEVORBIT_BUDGET"
# sampled crosscheck pairs that also go through the scalar same_orbit
_SCALAR_PAIRS = 500
# sampled crosscheck pairs drawn and classified at a time, in one lane call
# of at most _CHECK_CHUNK rows: a larger sample holds no more memory
_PAIR_CHUNK = 10_000
# most rows per lane call of crosscheck, twice classify_many's
# orbitlab._CHUNK: the digits are int8 up to p = 127, and a call of 2**14
# rows spends 30-40% of its time in costs fixed per call (lanes on 64 rows
# take 0.18 of the 0.61 ms of 2**14 on D4/F5, 0.34 of 0.88 on D5/F3); also
# states per chunk of its pass over orbit_id
_CHECK_CHUNK = 1 << 15


class BudgetExceeded(RuntimeError):
    """The state space p**|phi1| is larger than the enumeration budget."""


class MismatchReport(AssertionError):
    """Classifier and brute-force enumeration disagree; carries the details."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


@dataclass(frozen=True)
class OrbitEntry:
    representative: tuple[int, ...]
    size: int
    descriptor: OrbitDescriptor

    def to_json(self) -> dict:
        return {
            "representative": list(self.representative),
            "size": self.size,
            "descriptor": self.descriptor.to_json(),
        }


@dataclass(frozen=True)
class OrbitCensus:
    family: str
    rank: int
    p: int
    total_states: int
    orbits: tuple[OrbitEntry, ...]
    # state -> orbit index; neither serialized nor compared
    orbit_id: np.ndarray | None = field(default=None, compare=False,
                                        repr=False)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "p": self.p,
            "states": self.total_states,
            "orbit_count": self.orbit_count,
            "orbits": [o.to_json() for o in self.orbits],
        }


def _resolve_budget(budget: int | None) -> int:
    if budget is None:
        env = os.environ.get(BUDGET_ENV)
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise ValueError(f"{BUDGET_ENV} must be an integer, "
                             f"got {env!r}") from None
    return as_int(budget, "the state budget", 1)


def _physical_memory() -> int | None:
    """Bytes of physical memory, None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _memory_left() -> int | None:
    """The least of what a finite soft RLIMIT_AS leaves beside the bytes
    this process maps and what a finite soft RLIMIT_DATA leaves beside its
    data bytes, read from /proc/self/statm (0 bytes where that file cannot
    be read); None without such a limit."""
    if resource is None:
        return None
    limits = [(soft, field) for r, field in ((resource.RLIMIT_AS, 0),
                                             (resource.RLIMIT_DATA, 5))
              if (soft := resource.getrlimit(r)[0]) != resource.RLIM_INFINITY]
    if not limits:
        return None
    try:
        with open("/proc/self/statm", encoding="ascii") as f:
            pages = f.read().split()
    except OSError:
        pages = [0] * 6
    size = os.sysconf("SC_PAGE_SIZE")
    return min(soft - int(pages[field]) * size for soft, field in limits)


def _check_memory(need: int, what: str) -> None:
    """BudgetExceeded, before any allocation, when need bytes exceed
    physical memory or what the process's own limit leaves beside what it
    holds already (_memory_left)."""
    for memory, of in ((_physical_memory(), "of physical memory"),
                       (_memory_left(),
                        "left under this process's memory limit")):
        if memory is not None and need > memory:
            raise BudgetExceeded(f"{what} needs about {need} bytes, more "
                                 f"than the {memory} bytes {of}")


def check_budget(rs: RootSystem, p: int, budget: int | None = None) -> int:
    """The number p**|phi1| of states of V1(F_p), once it is within the
    state budget (budget, else CHEVORBIT_BUDGET, else DEFAULT_BUDGET),
    below 2**62, and partitioned within memory (_check_memory);
    BudgetExceeded otherwise, ValueError for a nonpositive budget or a p
    below 2.  Needs only the root system, so a census can be refused before
    its table is built."""
    p = as_int(p, "p", 2)
    total = p ** len(rs.phi1)
    limit = _resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(
            f"{rs.name} over F_{p} has {total} level-1 vectors, more than "
            f"the budget of {limit}; raise it explicitly or via "
            f"{BUDGET_ENV} if that is intended"
        )
    if total >= 2**62:
        raise BudgetExceeded(
            f"{rs.name} over F_{p} has {total} level-1 vectors, too many to "
            f"index with 64-bit integers"
        )
    _check_memory(
        total * np.dtype(_index_dtype(total)).itemsize
        + _BLOCK_BYTES * _BLOCK_STATES,
        f"enumerating {rs.name} over F_{p}")
    return total


@table_cached
def _class_maps(table: StructureConstantTable):
    """The characters of the level-0 torus on V1 and the digit maps of the
    class edges, as (chars, maps) for _orbit_partition.

    chars is the |phi1| x r0 array of <beta, alpha>, beta in phi1 and alpha
    a simple level-0 root: h_alpha(c) = w_alpha(c) w_alpha(-1) multiplies
    e_beta by c**<beta, alpha> (Steinberg, Lectures on Chevalley Groups,
    1967), so the torus T0 = <h_alpha(c)> acts on the states digit by
    digit.  maps lists (pairs, keep, weight), read by _changes: the
    moves of x_alpha(1) (keep 1), with weight (<alpha, alpha_i>)_i, the
    exponents of the character chi_alpha by which t x_alpha(c) t**-1 =
    x_alpha(chi_alpha(t) c), and n_0's signed permutation of phi1 (keep 0,
    weight None).  A2 has no such root, and so no map.

    n_0 = n_{a_1}(1) ... n_{a_N}(1), n_a(1) = x_a(1) x_{-a}(-1) x_a(1),
    along a reduced word of w_0, the longest element of the level-0 Weyl
    group, lifts w_0 to G0, so n_0 x_beta(t) n_0**-1 = x_{w_0 beta}(+-t)
    (Steinberg, 1967).  w_0 sends the positive level-0 roots onto the
    negative ones, so n_0 conjugates U+, which the x_alpha(1) generate over
    F_p, onto U-, and <U+, U-> = G0.  n_a(1) sends each e_beta to
    +-e_{s_a beta}, and s_a keeps levels, so n_0 acts on V1 as new x_j =
    sign_j * x_src(j), checked here as one +-1 in each row of its matrix (a
    matrix of determinant 1 with that shape is a signed permutation);
    InternalError otherwise."""
    rs = table.rs
    simple = [a for a in map(rs.simple, range(1, rs.rank + 1))
              if not rs.level(a)]
    chars = np.array([[rs.pair(b, a) for a in simple] for b in rs.phi1],
                     dtype=np.int64).reshape(len(rs.phi1), len(simple))
    if not simple:
        return chars, []
    # a reduced word of w_0: w s_a is longer than w exactly when w(a) > 0,
    # and w_0 is the one element that sends every simple root below 0
    word: list = []

    def w(beta):
        for a in reversed(word):
            beta = rs.sub(beta, tuple(rs.pair(beta, a) * c for c in a))
        return beta

    while (a := next((a for a in simple if rs.is_positive(w(a))), None)):
        word.append(a)
    # n_0's matrix on phi1, rightmost factor first: each factor's moves are
    # row operations, and none of its targets is a source
    m = len(rs.phi1)
    n0 = np.eye(m, dtype=np.int64)
    for a in reversed(word):
        for g, t in ((a, 1), (rs.neg(a), -1), (a, 1)):
            for s, d, sgn in _action_plan(table, g)[5]:
                n0[d] += sgn * t * n0[s]
    src = np.abs(n0).argmax(axis=1)
    sign = n0[np.arange(m), src]
    if (np.count_nonzero(n0, axis=1) != 1).any() or (abs(sign) != 1).any():
        raise InternalError(f"n_0 of {rs.name} is not a signed permutation "
                            f"of its level-1 roots")
    turn = tuple((s, d, g) for d, (s, g) in enumerate(zip(src.tolist(),
                                                         sign.tolist())))
    return chars, [(_action_plan(table, a)[5], 1,
                    tuple(rs.pair(a, b) for b in simple))
                   for a in simple] + [(turn, 0, None)]


def state_of_vector(rs: RootSystem, p: int, x) -> int:
    """Base-p encoding of a level-1 vector, first coordinate most
    significant, each entry reduced mod p; ValueError for a vector of the
    wrong length."""
    p, s = as_int(p, "p", 2), 0
    for c in rs.check_v1(x):
        s = s * p + as_int(c) % p
    return s


def vector_of_state(rs: RootSystem, p: int, s: int) -> tuple[int, ...]:
    """The level-1 vector of a state in range(p**|phi1|); ValueError for
    any other integer."""
    m, p, s = len(rs.phi1), as_int(p, "p", 2), as_int(s)
    if s not in range(p ** m):
        raise ValueError(f"{s} is not a state of {rs.name} over F_{p}, "
                         f"which are range({p}**{m})")
    return tuple(_digits(np.array([s]), p, m)[0].tolist())


def _digits(states, p: int, m: int) -> np.ndarray:
    """The base-p digits of an integer array of states, first digit most
    significant, as an (n, m) array of the narrowest dtype that holds -p:
    floor division, as gfield._mod reduces, into columns, so each
    coordinate is contiguous; a digit is in range(p), so the cast is exact."""
    q = np.asarray(states).reshape(-1)
    digits = np.empty((m, q.size), dtype=np.min_scalar_type(-p))
    for j in range(m - 1, -1, -1):
        r = q // p
        np.subtract(q, r * p, out=digits[j], casting="unsafe")
        q = r
    return digits.T


def _index_dtype(total: int):
    return np.int32 if total < 2**31 else np.int64


def _primitive_root(p: int) -> int:
    """The least generator of the units of F_p."""
    q, rest, primes, d = p - 1, p - 1, [], 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(1, p)
                if all(pow(g, q // r, p) != 1 for r in primes))


class _Torus:
    """A torus acting diagonally on the states' digits, and the normal form
    of a state under it, for _orbit_partition.

    The torus is the image of the exponent vectors e in Z**r: e multiplies
    digit j by c**(chars[j] . e) for a generator c of F_p^*, so its elements
    are vectors of exponents mod p - 1, one per digit (exps, the identity
    first), and units the factors they multiply the digits by.  r = 0 gives
    the trivial torus, under which every state is its own normal form.

    The normal form of a state is the least state of its class, found from
    the most significant digit down.  At digit j a subgroup H of the
    elements is still free: those that fix every earlier digit, so H
    depends only on which earlier digits are nonzero.  chi_j(H), the
    exponents of H on digit j, are the multiples of their gcd d with p - 1,
    so a nonzero digit y goes to the least element of its coset y <c**d>,
    by an element of H chosen once for each y; the rest of the state is
    multiplied by that element, and H becomes the elements of H with
    exponent 0 on digit j.  The least state of the class takes the least
    digit at each place, and the elements that reach it from a state are
    the chosen one times the last H, so the chosen element only moves the
    later digits.  Subgroups are numbered as met (groups, by their members).

    reduce takes the f = m - n leading digits of a block, its prefix, one
    at a time (step's tables); table(h, j) is the normal form under group h
    of every state of the digits j..m - 1 at once, built from the tables of
    digit j + 1: a nonzero digit y takes the table of the kernel at the
    states of the later digits multiplied by y's element (scaled), one
    gather each, and a table of few states and elements is the least image
    of each state under every element.  A block's normal forms are then
    the table of its prefix's group at its states multiplied by the
    prefix's units, after the prefix's normal form.  Tables are built on
    first use, never for fewer than the last n digits, so none is larger
    than a block; fixed(h) lists the states a block table fixes, the
    classes' least states, numbers(h) the rank among them of each state's
    normal form, and sizes(h) the classes' sizes."""

    def __init__(self, chars, p: int, m: int, n: int, dtype):
        self.p, self.m, self.f, self.dtype = p, m, m - n, dtype
        q = p - 1
        c = _primitive_root(p)
        self.pow = np.array([pow(c, k, p) for k in range(q)], dtype=np.int64)
        self.log = np.zeros(p, dtype=np.int64)
        self.log[self.pow] = np.arange(q)
        exps = np.zeros((1, m), dtype=np.int64)
        for gen in np.asarray(chars, dtype=np.int64).T % q:
            steps = np.arange(q // np.gcd.reduce(np.append(gen, q)))
            exps = ((exps[:, None] + steps[:, None] * gen) % q).reshape(-1, m)
            exps = exps[np.lexsort(exps.T[::-1])]
            exps = exps[np.append(True, (exps[1:] != exps[:-1]).any(axis=1))]
        self.exps, self.units = exps, self.pow[exps]
        self.groups: list = []
        self.ids: dict = {}
        self.steps: dict = {}
        self.leasts: dict = {}
        self.tables: dict = {}
        self.classes: dict = {}
        self.sized: dict = {}
        self.group(np.ones(len(exps), dtype=bool))

    def group(self, members) -> int:
        """The number of the subgroup whose elements members marks."""
        key = members.tobytes()
        if key not in self.ids:
            self.ids[key] = len(self.groups)
            self.groups.append(np.flatnonzero(members))
        return self.ids[key]

    def least(self, d: int):
        """least[y], the least element of y <c**d> (least[0] = 0)."""
        if (least := self.leasts.get(d)) is None:
            p = self.p
            least = self.leasts[d] = np.zeros(p, dtype=np.int64)
            coset = self.pow[::d]
            for y in range(1, p):  # y is the least of its coset when first met
                if not least[y]:
                    least[coset * y % p] = y
        return least

    def step(self, h: int, j: int):
        """Digit j under group h: (least, pick, kernel), least[y] the digit
        y goes to, pick[y] the element of h that takes it there (0, the
        identity, where y is its own least), and kernel the subgroup of h
        with exponent 0 on digit j."""
        if (step := self.steps.get((h, j))) is None:
            p, q = self.p, self.p - 1
            members = self.groups[h]
            e = self.exps[members, j]
            least = self.least(int(np.gcd.reduce(np.append(e, q))))
            # the first element of h with each exponent on digit j
            first = np.full(q, len(self.exps), dtype=np.int64)
            np.minimum.at(first, e, members)
            pick = np.zeros(p, dtype=np.int64)
            pick[1:] = first[(self.log[least[1:]] - self.log[1:]) % q]
            kernel = np.zeros(len(self.exps), dtype=bool)
            kernel[members[e == 0]] = True
            step = self.steps[h, j] = (least.tolist(), pick.tolist(),
                                       self.group(kernel))
        return step

    def reduce(self, digits):
        """The normal form of the leading digits, as a list; the group that
        fixes it; and the units by which the element chosen multiplies each
        digit (None for the identity)."""
        p, h, units, out = self.p, 0, None, []
        for j, y in enumerate(digits):
            if units is not None:
                y = y * int(units[j]) % p
            if y:
                least, pick, h = self.step(h, j)
                if (t := pick[y]):
                    units = (self.units[t] if units is None
                             else units * self.units[t] % p)
                y = least[y]
            out.append(y)
        return out, h, units

    def scaled(self, units):
        """The states of the last len(units) digits, each digit multiplied
        by its unit, in ascending order of the states multiplied: the
        states of each half of the digits, added in one broadcast."""
        p, halves, units = self.p, [], units.tolist()
        for part in units[:len(units) // 2], units[len(units) // 2:]:
            states = np.zeros(1, dtype=np.intp)
            for u in part:
                states = (states[:, None] * p + np.arange(p) * u % p).ravel()
            halves.append(states)
        high, low = halves
        return (high[:, None] * low.size + low).ravel()

    def table(self, h: int, j: int):
        """The normal forms under group h of the states of digits j..m - 1
        (as states of those digits), built from the tables of digit j + 1."""
        if (table := self.tables.get((h, j))) is None:
            p, m, members = self.p, self.m, self.groups[h]
            if j == m or members.size * p ** (m - j) <= _SMALL_TABLE:
                # few states and elements: the least image of each state
                # under every element of h
                states = _digits(np.arange(p ** (m - j)), p, m - j)
                images = (states * self.units[members, None, j:] % p
                          @ p ** np.arange(m - j - 1, -1, -1))
                table = images.min(axis=0).astype(self.dtype)
            else:
                table = np.empty(p ** (m - j), dtype=self.dtype)
                least, pick, kernel = self.step(h, j)
                size = p ** (m - j - 1)
                table[:size] = self.table(h, j + 1)
                below = self.table(kernel, j + 1)
                for y in range(1, p):
                    part = table[y * size:(y + 1) * size]
                    if pick[y]:
                        np.take(below, self.scaled(
                            self.units[pick[y], j + 1:]), out=part)
                    else:
                        part[...] = below
                    part += least[y] * size
            self.tables[h, j] = table
        return table

    def prune(self):
        """Drops the tables of later digits than the block's first, which
        serve only to build those."""
        self.tables = {key: table for key, table in self.tables.items()
                       if key[1] == self.f}

    def numbers(self, h: int):
        """Each state's class number in a block whose prefix has group h:
        the rank of its normal form among the block's least states, from
        table(h, f), which it drops."""
        fixed = self.fixed(h)
        rank = np.zeros(self.p ** (self.m - self.f), dtype=self.dtype)
        rank[fixed] = np.arange(fixed.size)
        return rank.take(self.tables.pop((h, self.f)))

    def fixed(self, h: int):
        """The least states of the classes in a block whose prefix is its
        own normal form, with group h, as states of the last n digits: the
        states that table(h, f) fixes."""
        if (fixed := self.classes.get(h)) is None:
            table = self.table(h, self.f)
            fixed = self.classes[h] = np.flatnonzero(
                table == np.arange(table.size)).astype(self.dtype)
        return fixed

    def sizes(self, h: int):
        """The size of each class of fixed(h): the elements of the torus
        over those that fix its least state, the elements of h that are 0
        on its support."""
        if (sizes := self.sized.get(h)) is None:
            n = self.m - self.f
            bits = 1 << np.arange(n)
            # bit j of a support is digit j nonzero: added a digit at a
            # time, as a product with bits holds n int64 entries per class
            # (4.7 MB on a D6/F3 block)
            digits = _digits(self.fixed(h), self.p, n)
            support = np.zeros(len(digits), dtype=np.intp)
            for j, row in enumerate(digits.T):
                support += (row != 0).astype(np.intp) << j
            moved = (self.exps[self.groups[h], self.f:] != 0) @ bits
            # the elements of h that fix each support met, by support
            fixing = np.ones(1 << n, dtype=np.int64)
            masks = np.flatnonzero(np.bincount(support, minlength=1))
            fixing[masks] = ((masks[:, None] & moved) == 0).sum(axis=1)
            sizes = self.sized[h] = len(self.exps) // fixing.take(support)
        return sizes


def _block_digits(p: int, m: int) -> int:
    """The number n of last digits that a block's states run over: the
    largest n <= m with p**n <= _BLOCK_STATES."""
    return next(n for n in range(m, -1, -1) if p ** n <= _BLOCK_STATES)


def _prefixes(torus: _Torus):
    """Each block's first state lo and prefix, the first f digits its
    states share, with the prefix's normal form, group and units
    (_Torus.reduce), in ascending order."""
    p, f = torus.p, torus.f
    for lo, prefix in zip(itertools.count(0, p ** (torus.m - f)),
                          itertools.product(range(p), repeat=f)):
        yield (lo, prefix, *torus.reduce(prefix))


def _classes(chars, p: int, m: int):
    """The classes of the torus of chars (as for _Torus) on the p**m
    states: (torus, blocks, count), count the number of classes and blocks
    (lo, prefix, h, first), in ascending order, for each block of the last
    _block_digits(p, m) digits whose prefix is its own normal form, with
    group h (_prefixes): its least states lo + torus.fixed(h), of sizes
    torus.sizes(h), are classes first, first + 1, ...; no other block
    holds a least state.  The torus keeps its block tables alone (prune).
    InternalError when the classes' sizes do not sum to p**m."""
    total = p ** m
    torus = _Torus(chars, p, m, _block_digits(p, m), _index_dtype(total))
    blocks, count = [], 0
    for lo, prefix, head, h, _ in _prefixes(torus):
        if head == list(prefix):
            blocks.append((lo, prefix, h, count))
            count += torus.fixed(h).size
    torus.prune()
    covered = sum(int(torus.sizes(h).sum()) for _, _, h, _ in blocks)
    if covered != total:
        raise InternalError(f"the classes' sizes sum to {covered}, not to "
                            f"the {total} states")
    return torus, blocks, count


def _changes(pairs, keep: int, units, p: int, m: int):
    """A digit map's change of the state for each of its (src, dst, sgn)
    pairs, as (src, dst, change), change[i, x_src, x_dst] the change of
    the state where the map, for the i-th c of units, sets new x_dst =
    keep * x_dst + c * sgn * x_src: a root element x(c)'s move (keep 1),
    whose targets are never sources, or n_0's signed permutation (keep 0,
    units (1,)), which lists every digit as a target once.  Every other
    digit is kept, and the map reads only the old digits, so the image of
    a state is the state plus one change per pair."""
    c = np.asarray(units, dtype=np.int64)[:, None, None]
    src = np.arange(p)[:, None]
    dst = src.T
    return [(s, d, ((keep * dst + g * c * src) % p - dst) * p ** (m - 1 - d))
            for s, d, g in pairs]


def _edge_images(changes, p: int, fixed, digits, blocks):
    """The images under one digit map (_changes) of the states lo + fixed,
    for each (lo, prefix) of blocks: blocks of the p**n states of the last
    n digits, whose first m - n digits are prefix, fixed some of those
    states and digits their digits, one row per digit.  Yields (lo, image),
    image with a row per c and a column per state of fixed.  The pairs with
    both digits in the last n add the same changes to the states of fixed
    in every block, found once; those with both in the prefix add a
    constant to a block; and each of the others one column of its table,
    indexed by the digit that is not in the prefix."""
    f = len(blocks[0][1]) if blocks else 0
    base = fixed + np.zeros((len(changes[0][2]) if changes else 1, 1),
                            dtype=np.int64)
    outer, mixed = [], []
    for s, d, change in changes:
        if s >= f and d >= f:
            pair = digits[s - f].astype(np.intp) * p + digits[d - f]
            base += change.reshape(len(change), -1).take(pair, axis=1)
        elif s < f and d < f:
            outer.append((s, d, change))
        else:
            mixed.append((s, d, change))
    for lo, prefix in blocks:
        image = base + (lo + sum(change[:, prefix[s], prefix[d], None]
                                 for s, d, change in outer))
        for s, d, change in mixed:
            image += (change[:, prefix[s]].take(digits[d - f], axis=1)
                      if s < f else
                      change[:, :, prefix[d]].take(digits[s - f], axis=1))
        yield lo, image


def _join(tree, a, b):
    """One hook of a union-find over trees: tree is compressed (tree[t] is
    the root of t's set, the set's least member) and a, b are the roots of
    pairs of sets to join.  Hooks the larger root of each pair onto the
    smaller, compresses tree again in place, and returns it with the roots
    of the pairs still apart."""
    hi = np.maximum(a, b)
    np.minimum.at(tree, hi, np.minimum(a, b))
    # a hooked root may have been hooked onto one hooked in the same call:
    # chase the hooked roots to theirs, and then every entry points to an
    # entry that points to its root
    while True:
        top = tree.take(hi)
        up = tree.take(top)
        if np.array_equal(up, top):
            break
        tree[hi] = up
    # so one gather compresses each entry, and an entry already compressed
    # reads the same root: a block at a time, with no second tree
    for lo in range(0, tree.size, _BLOCK_STATES):
        view = tree[lo:lo + _BLOCK_STATES]
        view[...] = tree.take(view)
    a, b = tree.take(a), tree.take(b)
    apart = np.flatnonzero(a != b)
    return tree, a[apart], b[apart]


def _orbit_partition(maps, p: int, m: int, chars):
    """Orbit index of every state, and the orbits' least states and sizes,
    under the group G generated by a torus T (chars, as for _Torus; an
    m x 0 array for the trivial one) and the elements whose digit maps
    maps lists, as (pairs, keep, weight) (_class_maps): a root element
    x(1), whose character's exponents on T's generators are weight, or n_0
    (weight None), which normalizes T.

    The classes.  T lies in G, so every orbit is a union of T-classes.  One
    index array, label, gets each state's class number block by block, for
    blocks of p**n <= _BLOCK_STATES states that share their first f = m - n
    digits, the prefix: the class's least state, its normal form, is the
    prefix's normal form followed by a table of the prefix's group at the
    last n digits multiplied by the prefix's units (_Torus), so a block
    costs one gather.  A block whose prefix is its own normal form holds
    the least states of some classes, the states its group's table fixes;
    no other block holds any (_classes).  The classes are numbered by
    ascending least state, so a class's number is the number of the first
    class of its least state's block plus its rank in that block
    (numbers).  A class's size is |T| over the elements that fix its least
    state.  The classes are counted, their sizes checked to sum to p**m,
    and their arrays priced (_check_memory), before label is allocated.

    The class edges.  G's orbits are the connected components of the graph
    joining each state x to t x, t in T, and to g x for each element g of
    maps, since these generate G.  Contract each class to a point: the
    orbits are the components of the graph on classes joining class(x) to
    class(g x) for every state x, and x runs over t r for the class's least
    state r and t in T.  For g = x(1), t x(c) t**-1 = x(chi(t) c), so
    x(1) t r = t x(chi(t)**-1) r, and class(x(1) t r) = class(x(c) r) for
    c = chi(t)**-1: as t runs over T, c runs over the image of chi, the
    units c0**(d k) for a generator c0 of F_p^* and the gcd d of weight and
    p - 1.  For g = n_0, n_0 t = t' n_0 for some t' in T, so class(n_0 t r)
    = class(n_0 r).  So the edges class(r) -> class(x(c) r), c in the
    image, and class(r) -> class(n_0 r) suffice, read from r alone
    (_edge_images); on the trivial torus they are the state-level edges.

    Joining.  One union-find over the class numbers joins them exactly
    (_join): each edge whose ends lie in different sets gives a pair of
    roots, found by one gather in the compressed array.  minimum.at writes
    at the larger root of each pair the least smaller root paired with it,
    so a write lands only on a current root and lowers it: it joins two
    sets and undoes no join.  Where one root is paired with several, all
    but the least stay apart; _join hands them back, and they are found and
    hooked again until every pair shares a root (each call hooks at least
    one root, so the calls end).  The pairs apart are held and joined a
    quarter of the sets, or _HELD_BYTES of pairs, at a time, so the
    compressions cost at most four times the pairs where the sets are few,
    and the pairs held a bounded working set where they are many.  After
    the sweep the two ends of every edge share a set, and only ends of
    edges were joined, so the sets are the orbits.  A set's root is its
    least class number, the class of its least state, and an orbit's index
    is the rank of that root among the roots, written over the tree class
    by class in ascending order, a block's classes at a time: a class's
    root is itself or a smaller class, whose index is written already when
    it lies in an earlier block.  Only the roots' least states are listed.

    One gather per block writes each state's orbit index over its class
    number.  An orbit's size is the sum of its classes' sizes.
    InternalError, from _classes, when the classes' sizes do not sum to
    p**m, and when an orbit's least state is not its own normal form
    (_Torus.reduce, digit by digit, without the tables).
    """
    total = p ** m
    torus, normal, trees = _classes(chars, p, m)
    dtype, f = torus.dtype, torus.f
    n = m - f
    size = p ** n
    # the c of each map's edges: chi_alpha's image, the units c**k for the
    # multiples k of the gcd of its exponents with p - 1; one for n_0
    edges = [(pairs, keep, (1,) if w is None else
              torus.pow[::np.gcd.reduce((*w, p - 1))])
             for pairs, keep, w in maps]

    # the blocks that hold the classes' least states by group, and the
    # number of each one's first class
    blocks, first = {}, {}
    for lo, prefix, h, start in normal:
        blocks.setdefault(h, []).append((lo, prefix))
        first[lo] = start
    itemsize = np.dtype(dtype).itemsize
    _check_memory(total * itemsize + _BLOCK_BYTES * _BLOCK_STATES
                  + _CLASS_BYTES * trees,
                  f"joining the {trees} torus classes of {p}**{m} states")
    # each state's class number, block by block: the numbers of the
    # prefix's group at the states multiplied by the prefix's units, plus
    # the number of the first class of the normal form's block.  A prefix's
    # group is its normal form's, so the blocks' groups are all it meets
    label = np.empty(total, dtype=dtype)
    numbers = {h: torus.numbers(h) for h in blocks}
    for lo, prefix, head, h, unit in _prefixes(torus):
        start = 0
        for y in head:
            start = start * p + y
        view, table = label[lo:lo + size], numbers[h]
        if unit is None or (unit[f:] == 1).all():
            view[...] = table
        else:
            np.take(table, torus.scaled(unit[f:]), out=view)
        if (start := first[start * size]):
            view += start
    numbers = None

    def join(tree, held):
        a = np.concatenate([a for a, _ in held])
        b = np.concatenate([b for _, b in held])
        while a.size:
            tree, a, b = _join(tree, a, b)
        return tree

    # the roots of the pairs held stay roots until they are joined
    tree = np.arange(trees, dtype=dtype)
    limit = max(1, min(trees // 4, _HELD_BYTES // (2 * itemsize)))
    held, count = [], 0
    for h, where in blocks.items():
        fixed = torus.fixed(h)
        found = _digits(fixed, p, n).T
        # at most a block's edges, and tables of a block's entries for each
        # pair, at a time
        step = max(1, size // max(fixed.size, p * p))
        for pairs, keep, c in edges:
            for at in range(0, len(c), step):
                changes = _changes(pairs, keep, c[at:at + step], p, m)
                for lo, image in _edge_images(changes, p, fixed, found,
                                              where):
                    # the classes of lo + fixed are numbered from first[lo]
                    a = tree[first[lo]:first[lo] + fixed.size]
                    b = tree.take(label.take(image))
                    apart = np.flatnonzero(a != b)
                    if apart.size:
                        held.append((a.take(apart % a.size), b.take(apart)))
                        count += apart.size
                        if count >= limit:
                            tree, held, count = join(tree, held), [], 0
    if held:
        tree = join(tree, held)
    # each class's orbit index, the rank of its root among the roots, over
    # its root, and the roots' least states
    roots, k = [], 0
    for lo, _, h, start in normal:
        fixed = torus.fixed(h)
        view = tree[start:start + fixed.size]
        top = view == np.arange(start, start + fixed.size, dtype=dtype)
        rank = np.cumsum(top, dtype=dtype)
        rank += k - 1
        view[...] = np.where(view >= start,
                             rank.take(view - start, mode="clip"),
                             tree.take(view))
        roots.append(lo + fixed[top])
        k += roots[-1].size
    for lo in range(0, total, size):
        ids = label[lo:lo + size]
        ids[...] = tree.take(ids)
    tree = view = None
    least = np.concatenate(roots, dtype=np.intp)
    roots = None
    # an orbit's size is the sum of its classes' sizes
    sizes = np.zeros(least.size, dtype=np.intp)
    for h, where in blocks.items():
        fixed = torus.fixed(h)
        for lo, _ in where:
            np.add.at(sizes, label.take(lo + fixed), torus.sizes(h))
    if len(torus.exps) > 1:
        for i, x in enumerate(_digits(least, p, m).tolist()):
            if torus.reduce(x)[0] != x:
                raise InternalError(f"orbit {i}'s least state {x} is not "
                                    f"its own normal form")
    return label, least, sizes


# states per block of _orbit_partition
_BLOCK_STATES = 2**16
# bytes of pairs of roots that _orbit_partition's union-find holds between
# joins, besides its bound of a quarter of the classes, which only past
# 2**20 classes it lowers: D6/F3's 5,385,761 classes took 3.5, 2.1 and
# 2.4 s at 2**19, 2**21 and 2**23 bytes, and traced 202, 210 and 245 MB
_HELD_BYTES = 2**21
# elements times states of the suffix tables that _Torus.table builds as
# the least images under every element
_SMALL_TABLE = 2**12
# _orbit_partition holds one array of p**m index-sized entries, whatever the
# number of maps, at most _BLOCK_BYTES bytes per state of a block besides
# (the suffix tables, each group's least states and class sizes, a block's
# edges, and the pairs of roots held between joins with _join's copies of
# them), and _CLASS_BYTES per class of the torus: the union-find's tree,
# and then the orbits' least states and sizes, in intp, at most one orbit
# per class.
# Traced beyond the index, in bytes per class: 30.9 on D4/F7 (107,297
# classes), 7.4 on D6/F3 (5,385,761), 16.1 on A3/F97 (922,181) and 16.1 on
# A2/F3001 (9,006,001 classes, each an orbit), each within the price
_BLOCK_BYTES = 192
_CLASS_BYTES = 16


def enumerate_orbits(table: StructureConstantTable, p: int,
                     budget: int | None = None) -> OrbitCensus:
    """Partition V1(F_p) into orbits of the level-0 subgroup.

    Over F_p, x_gamma(t) = x_gamma(1)^t, and the x_{+-alpha}(1) for simple
    level-0 alpha generate the level-0 subgroup, since its Weyl group
    conjugates every level-0 root onto a simple one (Steinberg, Lectures on
    Chevalley Groups, 1967).  The orbits are therefore the connected
    components of those 2 r0 permutations of the states, each labelled by
    its least state.  _orbit_partition joins the classes of the level-0
    torus along the class edges of the r0 + 1 elements x_alpha(1) and n_0
    of _class_maps, which generate the same group with the torus from
    r0 = 1 on (A2 has none).  The census lists the orbits in ascending
    order of that state and carries the state -> orbit index array as
    orbit_id.  A system or prime the classification does not cover
    (check_domain) is refused before the budget is priced.
    """
    rs, p = table.rs, as_int(p)
    K = PrimeField(p)
    check_domain(rs, K)
    m = len(rs.phi1)
    total = check_budget(rs, p, budget)
    chars, maps = _class_maps(table)
    orbit_id, least, sizes = _orbit_partition(maps, p, m, chars)
    reps = map(tuple, _digits(least, p, m).tolist())
    orbits = [OrbitEntry(rep, size, classify(table, K, rep))
              for rep, size in zip(reps, sizes.tolist())]
    return OrbitCensus(rs.family, rs.rank, p, total, tuple(orbits), orbit_id)


def predicted_census(table: StructureConstantTable, p: int,
                     bytes_per_orbit: int = 400) -> list[OrbitDescriptor]:
    """The descriptor-derived orbit list, no enumeration involved.

    Its length is counted first, in closed form: BudgetExceeded when it
    reaches 2**62, the bound check_budget puts on states, or when that many
    orbits at bytes_per_orbit each (by default the list's own: 287 traced
    on A2 from p = 401 to 601, 295 on D8/F100003) would not fit in
    memory (_check_memory)."""
    p = as_int(p)
    bytes_per_orbit = as_int(bytes_per_orbit, "bytes_per_orbit", 1)
    K = PrimeField(p)
    count = _classifier(table, K).orbit_count()
    if count >= 2**62:
        raise BudgetExceeded(
            f"{table.rs.name} over F_{p} has {count} orbits, "
            f"too many to list"
        )
    _check_memory(count * bytes_per_orbit,
                  f"listing the {count} orbits of {table.rs.name} over F_{p}")
    return all_descriptors(table, K)


# -- the crosscheck ---------------------------------------------------------------


def _sample_classes(clf, rows, classes: dict):
    """The batch step of crosscheck's sampled pairs: (ids, codes), one
    index and one code per row of rows, an (n, |phi1|) integer array, the
    indices equal for two rows exactly when the classifier gives them equal
    descriptors, as classify_many would.  The codes come from one
    clf.codes call, and each distinct code is decoded once: classes maps
    each code (an int) and each descriptor (a tuple) met in the calls of
    one crosscheck to an index, equal descriptors to one.  MismatchReport,
    with the first row of the code and the code, for a code that decode
    does not know."""
    # np.unique would hash (1.3 MB more peak RSS), or sort narrow lanes
    # slowly (0.6 ms for 20,000 int8 codes against 0.06 ms in int64), as an
    # argsort does; in int64, it gives each row its distinct code's rank at
    # half the cost of np.searchsorted into the distinct codes
    codes = clf.codes(rows).astype(np.int64)
    order = np.argsort(codes)
    ordered = codes.take(order)
    new = np.append(True, ordered[1:] != ordered[:-1])
    index = []
    for code in ordered[new].tolist():
        if code not in classes:
            try:
                d = clf.decode(code)
            except ClassificationError:
                row = rows[int(np.argmax(codes == code))]
                raise MismatchReport(
                    "a sampled state's invariant code names no orbit",
                    {"state": tuple(row.tolist()), "code": code}) from None
            classes[code] = classes.setdefault(d, len(classes))
        index.append(classes[code])
    ids = np.empty(len(codes), dtype=np.intp)
    ids[order] = np.array(index, dtype=np.intp).take(np.cumsum(new) - 1)
    return ids, codes


def crosscheck(table: StructureConstantTable, p: int,
               pairs: int = 10_000, seed: int = 0,
               census: OrbitCensus | None = None) -> dict:
    """Verify the classifier against brute-force enumeration, on the census
    given or one enumerated under the default budget; raise on mismatch.
    ValueError, before any work, for a census of another system or prime
    than (table, p), for one whose state count is not p**|phi1|, for an
    orbit_id other than one integer per state (None partitions again) or
    with a negative entry, or for a negative number of pairs."""
    rs, p = table.rs, as_int(p)
    pairs, seed = as_int(pairs, "pairs", 0), as_int(seed)
    if census is not None and (census.family, census.rank, census.p) != (
            rs.family, rs.rank, p):
        raise ValueError(f"the census is of {census.family}{census.rank} "
                         f"over F_{census.p}, not {rs.name} over F_{p}")
    if census is not None and census.total_states != p ** len(rs.phi1):
        raise ValueError(f"the census counts {census.total_states} states, "
                         f"not the {p}**{len(rs.phi1)} of {rs.name} over F_{p}")
    given = None if census is None else census.orbit_id
    if given is not None and (given.shape != (census.total_states,)
                              or given.dtype.kind not in "iu"):
        raise ValueError(f"the census's orbit_id is {given.dtype} of shape "
                         f"{given.shape}, not one integer for each of its "
                         f"{census.total_states} states")
    if given is not None and given.size and (low := int(given.min())) < 0:
        raise ValueError(f"the census's orbit_id is {low} at state "
                         f"{int(given.argmin())}, not the index of an orbit")
    K = PrimeField(p)
    if census is None:
        census = enumerate_orbits(table, p)
    total = census.total_states
    clf = _classifier(table, K)
    if clf.lane is None:  # A2 alone, from 1.8e18 states on
        raise BudgetExceeded(f"the codes of {rs.name} over F_{p} do not fit "
                             f"the 64-bit lanes of the code pass")
    checks: dict[str, str] = {}

    rep_states = np.array(
        [state_of_vector(rs, p, o.representative) for o in census.orbits],
        dtype=np.int64,
    )
    m, k, orbit_id = len(rs.phi1), census.orbit_count, census.orbit_id
    chars, maps = _class_maps(table)
    if orbit_id is None:
        check_budget(rs, p)
        orbit_id = _orbit_partition(maps, p, m, chars)[0]

    def not_least(i):
        return MismatchReport(
            "census representative is not the least state of its orbit",
            {"orbit": i, "representative": census.orbits[i].representative},
        )

    def varies(state, i):
        return MismatchReport(
            "invariant code varies inside a brute-force orbit",
            {"state": vector_of_state(rs, p, state),
             "orbit_representative": census.orbits[i].representative},
        )

    def first_met(ids, top, states):
        # the orbits after top that ids, the orbits of ascending states
        # (states(i) the states at positions i), meet, and where each is met
        # first: not_least for one met after a later orbit, or first at
        # another state than its representative
        new = np.arange(top + 1, min(int(ids.max()), k - 1) + 1)
        at = np.searchsorted(np.maximum.accumulate(ids), new)
        bad = (states(at) != rep_states[new]) | (ids[at] != new)
        if bad.any():
            raise not_least(int(new[np.argmax(bad)]))
        return new, at

    # (a) the classifier's code is constant on every orbit, and the batch
    # code agrees with the scalar one at every representative.  Orbits are
    # numbered by least state, so orbit i first appears where the running
    # maximum of the ids of ascending states reaches i.  First one pass over
    # orbit_id, in ascending chunks, checks the census against it:
    # representative i is the least state of orbit i, and orbit i has the
    # listed size; ids past k are orbits the census does not list.
    sizes = np.zeros(max(k, int(orbit_id.max()) + 1), dtype=np.int64)
    top = -1  # the largest orbit id of the chunks so far
    for lo in range(0, total, _CHECK_CHUNK):
        ids = orbit_id[lo:lo + _CHECK_CHUNK]
        if (high := int(ids.max())) > top:
            first_met(ids, top, lambda at: lo + at)
            top = high
        low = int(ids.min())
        counts = np.bincount(ids - low)
        sizes[low:low + len(counts)] += counts
    if top + 1 < k:  # orbits that no state belongs to
        raise not_least(top + 1)
    want_sizes = [o.size for o in census.orbits]
    if sizes.tolist() != want_sizes:
        raise MismatchReport(
            "census orbit sizes differ from the enumeration",
            {"enumerated": sizes.tolist(), "census": want_sizes},
        )
    # Then the codes.  The code is G0-invariant, so T0-invariant, and each
    # orbit is a union of T0's classes: one state per class suffices, its
    # least.  The classes are listed from the characters of T0, block by
    # block, their sizes checked to sum to p**m (_classes), never from the
    # census.  They are coded in ascending chunks of at most _CHECK_CHUNK
    # states, one clf.codes call each.  Each representative, the least
    # state of its orbit, is the least of its class, so orbit i is met
    # first at representative i, whose code is recorded before the later
    # classes of orbit i are compared with it.
    torus, blocks, _ = _classes(chars, p, m)
    fixed = {h: torus.fixed(h) for _, _, h, _ in blocks}
    del torus  # its tables and class sizes serve the partition alone

    def listed():
        # the listed least states, ascending, in chunks of _CHECK_CHUNK or
        # fewer
        held, count = [], 0
        for lo, _, h, _ in blocks:
            for at in range(0, fixed[h].size, _CHECK_CHUNK):
                part = lo + fixed[h][at:at + _CHECK_CHUNK].astype(np.int64)
                if count + part.size > _CHECK_CHUNK:
                    yield np.concatenate(held)
                    held, count = [], 0
                held.append(part)
                count += part.size
        if held:
            yield np.concatenate(held)

    rep_codes = np.empty(k, dtype=np.int64)
    top = -1
    for states in listed():
        ids = orbit_id.take(states)
        codes = clf.codes(_digits(states, p, m))
        if (high := int(ids.max())) > top:
            new, at = first_met(ids, top, states.take)
            rep_codes[new] = codes.take(at)
            top = high
        differ = np.flatnonzero(codes != rep_codes.take(ids))
        if differ.size:
            raise varies(int(states[differ[0]]), int(ids[differ[0]]))
    if top + 1 < k:  # orbits that no listed class belongs to
        raise not_least(top + 1)
    codes = rep_codes.tolist()
    for o, code in zip(census.orbits, codes):
        if clf.code(o.representative) != code:
            raise MismatchReport(
                "scalar and batch invariant codes disagree",
                {"representative": o.representative},
            )
    checks["profile_constant_on_orbits"] = "ok"

    # (b) each census descriptor is its representative's decoded code, and
    # the descriptors are pairwise distinct across orbits
    seen: dict[OrbitDescriptor, tuple] = {}
    for o, code in zip(census.orbits, codes):
        got = clf.decode(code)
        if got != o.descriptor:
            raise MismatchReport(
                "census descriptor differs from its representative's class",
                {"representative": o.representative,
                 "census": o.descriptor.to_json(), "classified": got.to_json()},
            )
        if o.descriptor in seen:
            raise MismatchReport(
                "two distinct orbits share a descriptor",
                {"first": seen[o.descriptor], "second": o.representative,
                 "descriptor": o.descriptor.to_json()},
            )
        seen[o.descriptor] = o.representative
    checks["descriptors_distinct"] = "ok"

    # (c) canonical forms land in the orbit they describe; one that does not
    # classify back to its descriptor lands in another
    for oid, o in enumerate(census.orbits):
        try:
            vec = canonical_form(table, K, o.descriptor)
            moved = int(orbit_id[state_of_vector(rs, p, vec)]) != oid
        except InvalidDescriptor:
            vec, moved = clf.canonical_vector(o.descriptor), True
        if moved:
            raise MismatchReport(
                "canonical form lies in a different orbit",
                {"descriptor": o.descriptor.to_json(),
                 "canonical": vec,
                 "expected_representative": o.representative},
            )
    checks["canonical_forms_in_orbit"] = "ok"

    # (d) same_orbit against ground truth on a sample of pairs, classified
    # _PAIR_CHUNK pairs at a time by their codes (_sample_classes) and
    # compared pair by pair; same_orbit itself also runs on the first
    # _SCALAR_PAIRS (every pair of representatives is covered by (b)).  Then
    # each sampled state's code must be its orbit's, which (a) read at the
    # classes' least states alone.  The chunks read one stream, and
    # randbytes(a) then randbytes(b) gives the bytes of randbytes(a + b)
    def check_chunk(lo, n):
        # pairs lo to lo + n - 1, rows 2i and 2i + 1 of digits; the chunk's
        # arrays are freed on return
        states = _mod(np.frombuffer(rng.randbytes(16 * n), dtype="<u8"),
                      total).astype(_index_dtype(total))
        ids = orbit_id.take(states)
        want = ids[::2] == ids[1::2]
        digits = _digits(states, p, m)

        def disagree(i):
            x1, x2 = map(tuple, digits[2 * i:2 * i + 2].tolist())
            return MismatchReport("same_orbit disagrees with the enumeration",
                                  {"x1": x1, "x2": x2, "got": not want[i],
                                   "want": bool(want[i])})

        # zip and map read their one iterator two rows at a time
        scalar = max(0, _SCALAR_PAIRS - lo)
        head = map(tuple, digits[:2 * scalar].tolist())
        for i, (x1, x2, same) in enumerate(zip(head, head,
                                               want[:scalar].tolist())):
            if same_orbit(table, K, x1, x2) != same:
                raise disagree(i)
        got, codes = _sample_classes(clf, digits, classes)
        bad = np.flatnonzero((got[::2] == got[1::2]) != want)
        if bad.size:
            raise disagree(int(bad[0]))
        bad = np.flatnonzero(codes != rep_codes.take(ids))
        if bad.size:
            raise varies(int(states[bad[0]]), int(ids[bad[0]]))

    classes: dict = {}
    rng = random.Random(seed)
    for lo in range(0, pairs, _PAIR_CHUNK):
        check_chunk(lo, min(_PAIR_CHUNK, pairs - lo))
    checks["same_orbit_sampled"] = "ok"

    # predicted orbit list == enumerated orbit list, as sets
    predicted = predicted_census(table, p)
    dups = [d.to_json() for d, n in Counter(predicted).items() if n > 1]
    if dups:
        raise MismatchReport("predicted descriptor list has duplicates",
                             {"duplicated": dups})
    if set(predicted) != set(seen):
        only_pred = [d.to_json() for d in set(predicted) - set(seen)]
        only_enum = [d.to_json() for d in set(seen) - set(predicted)]
        raise MismatchReport(
            "predicted and enumerated orbit lists differ",
            {"only_predicted": only_pred, "only_enumerated": only_enum},
        )
    checks["predicted_matches_enumerated"] = "ok"

    return {
        "system": rs.name,
        "p": p,
        "states": total,
        "orbit_count": census.orbit_count,
        "pairs_sampled": pairs,
        "checks": checks,
    }
