"""Simply-laced root systems with a fixed numbering convention.

Roots are integer coefficient vectors over the simple roots alpha_1..alpha_l,
stored as plain tuples.  All inner products go through the Cartan matrix in
the normalization <alpha, alpha> = 2 for every root, so pairings are exact
integers in {-2, ..., 2}.  Only this module pairs roots: one product of
the roots with the Cartan matrix, RootSystem.simple_pairs, gives pair, the
levels, phi1/phi0 and the Cartan terms of the bracket and of liemod.

Numbering conventions (everything downstream depends on them):

* A_l: the chain 1 - 2 - ... - l.
* D_l: the two fork tips are nodes 1 and 2, both attached to node 3, then
  the chain 3 - 4 - ... - l.  The highest root is (1, 1, 2, ..., 2, 1) and
  (alpha_1, alpha_3) is the unique adjacent pair with non-consecutive
  indices.
* E_6 / E_7 / E_8: Bourbaki numbering, node 2 attached to node 4.

Positive roots are ordered by height, then lexicographically by coefficient
vector; the full root list is the positive roots followed by their negatives
in the same order.  The ordering of ``phi1`` induced by this is part of the
external data format for level-one vectors.

Root ids are positions in that list.  RootSystem.ids holds the tables over
root ids (see RootIds), the n x n pairing and sum ids among them; they are
built once per root system, on first use, so the CLI's `roots` never
builds them.

The integer rule of the public boundary is stated here, in the module
every other one imports: a numpy integer counts as the Python int it
holds, so nothing wraps at its width, and a Python or numpy bool as 0 or
1; anything else raises TypeError, or ValueError outside the parameter's
range.  Each public entry reads each integer argument once, at entry: a
scalar through as_int, with its range, and a field element, which may be
a lane array, through integral.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

import numpy as np

Root = tuple[int, ...]


class UnsupportedSystem(ValueError):
    """Requested (family, rank) is not A_l (l>=1), D_l (l>=4) or E_6/7/8."""


class SystemTooLarge(UnsupportedSystem):
    """The system has more than MAX_ROOTS roots."""


class NotARoot(ValueError):
    """A vector that is not a root of this system was passed."""


class NotAPositiveRoot(ValueError):
    """The operation requires a positive root."""


class InternalError(RuntimeError):
    """An internal invariant of chevorbit failed: a fault in the program,
    not in its input."""


def as_int(n, name: str = "n", least: int | None = None,
           below: int | None = None) -> int:
    """n as a Python int; ValueError, naming the parameter, unless
    least <= n < below (each bound where given)."""
    n = int(n) if isinstance(n, np.bool_) else operator.index(n)
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    if below is not None and n >= below:
        raise ValueError(f"{name} must be < {below}, got {n}")
    return n


def integral(n):
    """n as a Python int, or an integer lane array (fixed-width, or Python
    ints as PrimeField.of makes them past int64) as it is, bool lanes as
    uint8 lanes."""
    if type(n) is int:
        return n
    if not isinstance(n, np.ndarray):
        return as_int(n)
    if n.dtype.kind == "b":
        return n.astype(np.uint8)
    if n.dtype.kind in "iu" or (n.dtype == object
                                and all(type(c) is int for c in n.flat)):
        return n
    raise TypeError(f"lanes of {n.dtype} are not integers")


# The closure of a root system, and every table built on it, grows with the
# root count, which is known in advance; larger systems are refused before
# any work.  1000 admits A_l up to l = 31, D_l up to l = 22 and all of E.
MAX_ROOTS = 1000


def root_count(family: str, rank: int) -> int:
    """|Phi| of A_l (l(l + 1)), D_l (2l(l - 1)) or E_6/7/8, not built.

    Raises UnsupportedSystem for any other (family, rank), and SystemTooLarge
    past MAX_ROOTS.
    """
    rank = as_int(rank)
    if family == "A" and rank >= 1:
        n = rank * (rank + 1)
    elif family == "D" and rank >= 4:
        n = 2 * rank * (rank - 1)
    elif family == "E" and rank in (6, 7, 8):
        n = (72, 126, 240)[rank - 6]
    else:
        raise UnsupportedSystem(
            f"no supported simply-laced system {family}{rank}"
        )
    if n > MAX_ROOTS:
        raise SystemTooLarge(
            f"{family}{rank} has {n} roots, more than the limit of {MAX_ROOTS}"
        )
    return n


def dynkin_edges(family: str, rank: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram with 1-based node labels."""
    if family == "A" and rank >= 1:
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D" and rank >= 4:
        return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)]
    if family == "E" and rank in (6, 7, 8):
        return [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, rank)]
    raise UnsupportedSystem(f"no supported simply-laced system {family}{rank}")


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        rows[i][i] = 2
    for i, j in dynkin_edges(family, rank):
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
    return tuple(tuple(r) for r in rows)


def simple_index(root: Root) -> int | None:
    """1-based index if the vector is a simple root, else None."""
    if sum(root) != 1 or min(root) < 0:
        return None
    return root.index(1) + 1


class RootIds(NamedTuple):
    """Tables over root ids, built once per root system by _root_ids.

    The sum ids are read by both structure-constant paths and liemod's
    root-element action, the pairing by the Jacobi check and liemod's torus
    action.  Every field is a read-only array, shared by everything built
    on the root system; copy one before editing it.  A scalar read gives a
    numpy integer, so a reader that returns it converts it to an int.
    """

    pairing: np.ndarray  # (n, n) int8: <roots[i], roots[j]>
    sum_id: np.ndarray  # (n, n) int32: id of roots[i] + roots[j], or -1
    neg_id: np.ndarray  # (n,): id of -roots[i]
    simple_ids: np.ndarray  # (rank,): id of alpha_i at position i - 1
    # over positive ids g < n_positive, indices 1-based:
    simple_of: np.ndarray  # i if roots[g] is alpha_i, else 0
    least_sub: np.ndarray  # least i with roots[g] - alpha_i a root or zero
    top: np.ndarray  # greatest i with a nonzero coefficient in roots[g]


def mask_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and column indices of the true entries of a 2-D mask, in
    row-major order as np.nonzero gives them, from one flat search and a
    divmod: about three times faster than np.nonzero on a 2-D mask."""
    flat, n = np.flatnonzero(mask), mask.shape[1]
    rows = flat // n
    flat -= rows * n
    return rows, flat


def _sum_ids(coeffs: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """sum_id[i, j] = the row of coeffs equal to coeffs[i] + coeffs[j]
    where defined[i, j], and -1 elsewhere, as int32 since ids stay below
    MAX_ROOTS; readers widen to int64 before forming id * n + id.

    A row's key is its digits coeffs - min in base max - min + 1, which
    fits int64 for every system under MAX_ROOTS (at most 3**31 on A31,
    5**22 on D22, 13**8 on E8), and the key of a sum is the sum of two keys
    less the key of the zero row.  Each sum is found by a binary search over
    the row keys, then compared with the row found; a sum that is no row
    raises InternalError.
    """
    n, rank = coeffs.shape
    lo = int(coeffs.min())
    base = int(coeffs.max()) - lo + 1
    keys = (coeffs - lo) @ base ** np.arange(rank, dtype=np.int64)
    # numpy's default int64 sort pages in about 0.4 MB of its own code
    order = np.argsort(keys, kind="stable")
    i, j = mask_pairs(defined)
    s = coeffs[i] + coeffs[j]
    zero = -lo * (base**rank - 1) // (base - 1)
    found = order[np.searchsorted(keys[order], keys[i] + keys[j] - zero)
                  .clip(max=n - 1)]
    if not np.array_equal(coeffs[found], s):
        raise InternalError("a pair marked as summing to a root does not")
    sum_id = np.full((n, n), -1, dtype=np.int32)
    sum_id[i, j] = found
    return sum_id


def _root_ids(rs: "RootSystem") -> RootIds:
    n, h, rank = len(rs.roots), rs.n_positive, rs.rank
    coeffs = np.array(rs.roots, dtype=np.int64)
    pairing = (coeffs @ np.array(rs.simple_pairs, dtype=np.int64).T
               ).astype(np.int8)
    # for roots of equal length, a + b is a root exactly when <a, b> == -1
    sum_id = _sum_ids(coeffs, pairing == -1)
    neg_id = (np.arange(n) + h) % n  # negatives follow positives in order
    # the closure puts height 1 first as alpha_l, ..., alpha_1
    simple_ids = np.arange(rank - 1, -1, -1)
    simple_of = np.maximum(rank - np.arange(h), 0)
    # sub[g, i - 1]: roots[g] - alpha_i is a root, or zero
    sub = sum_id[:h, neg_id[simple_ids]] >= 0
    sub[simple_ids, range(rank)] = True
    if not sub.any(axis=1).all():
        raise InternalError("positive root with no subtractable simple root")
    top = rank - (coeffs[:h, ::-1] != 0).argmax(axis=1)
    ids = RootIds(pairing, sum_id, neg_id, simple_ids, simple_of,
                  sub.argmax(axis=1) + 1, top)
    for a in ids:
        a.flags.writeable = False
    return ids


class RootSystem:
    """A simply-laced root system closed up from its Cartan matrix.

    Attributes
    ----------
    positive_roots : tuple of roots, ordered by (height, lexicographic)
    roots          : positive roots followed by their negatives, same order
    delta          : the highest root
    simple_pairs   : per root id j, the list (<roots[j], alpha_t>)_t
    levels         : per root id j, <roots[j], delta>
    phi1           : roots with <beta, delta> == 1, in the global order
    phi0           : roots with <beta, delta> == 0, in the global order
    """

    def __init__(self, family: str, rank: int):
        rank = as_int(rank)
        root_count(family, rank)
        self.family = family
        self.rank = rank
        self.name = f"{family}{rank}"
        self.cartan = cartan_matrix(family, rank)
        cartan = np.array(self.cartan, dtype=np.int64)

        # closure one height at a time: the roots of height h + 1 are the
        # g + alpha_i over the roots g of height h with <g, alpha_i> == -1
        # (Humphreys, Introduction to Lie Algebras, 10.2), sorted
        # lexicographically without repeats by one int64 key per candidate:
        # its digits in base B = 1 + the largest coefficient, the first most
        # significant.  Keys stay below B**rank (2**31 on A31, 3**22 on D22,
        # 7**8 on E8), so they fit int64 for every system under MAX_ROOTS.
        # Asking np.unique for indices keeps it from importing numpy.ma
        # (about 14 ms and 1.7 MB) to test for a masked array.
        eye = np.eye(rank, dtype=np.int64)
        heights = [eye[::-1]]
        while len(heights[-1]):
            g, i = mask_pairs(heights[-1] @ cartan == -1)
            new = heights[-1][g] + eye[i]
            base = int(new.max(initial=0)) + 1
            keys = new @ base ** np.arange(rank - 1, -1, -1)
            heights.append(new[np.unique(keys, return_index=True)[1]])
        if len(heights[-2]) != 1:
            raise InternalError("highest root is not unique")
        pos = np.concatenate(heights)
        coeffs = np.concatenate([pos, -pos])

        self.roots: tuple[Root, ...] = tuple(map(tuple, coeffs.tolist()))
        self.n_positive = len(pos)
        self.positive_roots: tuple[Root, ...] = self.roots[:self.n_positive]
        self._index = {r: i for i, r in enumerate(self.roots)}
        self.delta: Root = self.positive_roots[-1]
        # the one root-by-simple-root product (the Cartan matrix is
        # symmetric): every pairing of roots is read from its rows
        simple_pairs = coeffs @ cartan
        self.simple_pairs: list = simple_pairs.tolist()
        self.levels: list = (simple_pairs @ pos[-1]).tolist()
        self.phi1: tuple[Root, ...] = tuple(
            r for r, q in zip(self.roots, self.levels) if q == 1
        )
        self.phi0: tuple[Root, ...] = tuple(
            r for r, q in zip(self.roots, self.levels) if q == 0
        )
        self._phi1_index = {r: i for i, r in enumerate(self.phi1)}

    @functools.cached_property
    def ids(self) -> RootIds:
        """The tables over root ids (see RootIds), built on first use."""
        return _root_ids(self)

    # -- basic queries ----------------------------------------------------

    def is_root(self, v) -> bool:
        return v in self._index

    def is_positive(self, v) -> bool:
        i = self._index.get(v)
        return i is not None and i < self.n_positive

    def root_id(self, root: Root) -> int:
        try:
            return self._index[root]
        except KeyError:
            raise NotARoot(f"{root} is not a root of {self.name}") from None

    def simple(self, i: int) -> Root:
        """The simple root alpha_i, 1-based."""
        i = as_int(i)
        if not 1 <= i <= self.rank:
            raise NotARoot(f"no simple root alpha_{i} in rank {self.rank}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def neg(self, root: Root) -> Root:
        return tuple(-c for c in root)

    def add(self, a: Root, b: Root) -> Root:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Root, b: Root) -> Root:
        return tuple(x - y for x, y in zip(a, b))

    def pair(self, a: Root, b: Root) -> int:
        """<a, b> for a root b (NotARoot otherwise); a may be any vector."""
        return sum(x * y for x, y in zip(a, self.simple_pairs[self.root_id(b)]))

    def level(self, root: Root) -> int:
        """<root, delta>: the grading used by the classifier."""
        return self.levels[self.root_id(root)]

    def phi1_index(self, root: Root) -> int:
        try:
            return self._phi1_index[root]
        except KeyError:
            raise NotARoot(f"{root!r} is not a level-1 root of {self.name}") from None

    def check_v1(self, x) -> list:
        """x as a list, once it has one entry per level-1 root."""
        x, m = list(x), len(self.phi1)
        if len(x) != m:
            raise ValueError(f"level-1 vector for {self.name} needs {m} "
                             f"coefficients, got {len(x)}")
        return x

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "delta": list(self.delta),
            "positive_roots": [list(r) for r in self.positive_roots],
            "phi0": [list(r) for r in self.phi0],
            "phi1": [list(r) for r in self.phi1],
        }


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system, validating (family, rank)."""
    return RootSystem(family, rank)


def parse_system_name(name: str) -> tuple[str, int]:
    """Parse e.g. 'D4' or 'e6' into ('D', 4); raises UnsupportedSystem."""
    name = name.strip()
    if len(name) < 2 or name[0].upper() not in "ADE" or not name[1:].isdigit():
        raise UnsupportedSystem(f"cannot parse system name {name!r}")
    return name[0].upper(), int(name[1:])


def min_subtractable_index(rs: RootSystem, gamma) -> int:
    """Smallest i (1-based) with gamma - alpha_i a root or zero.

    For a simple root this is its own index.  Only defined for positive
    roots.
    """
    gamma = tuple(gamma)
    if not rs.is_positive(gamma):
        raise NotAPositiveRoot(f"{gamma} is not a positive root of {rs.name}")
    return rs.ids.least_sub.item(rs.root_id(gamma))


def standard_quadruple(rs: RootSystem) -> tuple[Root, Root, Root, Root]:
    """The fixed orthogonal quadruple (lam, rho, sig, tau) for the D family.

    The four roots are pairwise orthogonal and sum to 2*delta.  For D_4 the
    quadruple is (0010, 0111, 1011, 1110); for l > 4 it is
    (alpha_{l-1}, (1,1,2,..,2,1,0), alpha_{l-2}+alpha_{l-1}+alpha_l,
    (1,1,2,..,2,1,1,1) with the 2-run possibly empty).
    """
    if rs.family != "D":
        raise UnsupportedSystem(f"standard quadruple is D-specific, not {rs.name}")
    l = rs.rank
    if l == 4:
        quad = ((0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 0))
    else:
        lam = rs.simple(l - 1)
        rho = rs.sub(rs.sub(rs.delta, lam), rs.simple(l))
        sig = tuple(
            1 if i in (l - 3, l - 2, l - 1) else 0 for i in range(l)
        )
        two_delta = tuple(2 * c for c in rs.delta)
        tau = tuple(
            td - a - b - c for td, a, b, c in zip(two_delta, lam, rho, sig)
        )
        quad = (lam, rho, sig, tau)
    for r in quad:
        if not rs.is_root(r):
            raise InternalError(f"quadruple member {r} is not a root")
    return quad
