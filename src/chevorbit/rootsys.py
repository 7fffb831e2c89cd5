"""Simply-laced root systems with a fixed numbering convention.

Roots are integer coefficient vectors over the simple roots alpha_1..alpha_l,
stored as plain tuples.  All inner products go through the Cartan matrix in
the normalization <alpha, alpha> = 2 for every root, so pairings are exact
integers in {-2, ..., 2}.

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
"""

from __future__ import annotations

Root = tuple[int, ...]


class UnsupportedSystem(ValueError):
    """Requested (family, rank) is not A_l (l>=1), D_l (l>=4) or E_6/7/8."""


class SystemTooLarge(UnsupportedSystem):
    """The system has more than MAX_ROOTS roots."""


class NotARoot(ValueError):
    """A vector that is not a root of this system was passed."""


class NotAPositiveRoot(ValueError):
    """The operation requires a positive root."""


# The closure of a root system, and every table built on it, grows with the
# root count, which is known in advance; larger systems are refused before
# any work.  1000 admits A_l up to l = 31, D_l up to l = 22 and all of E.
MAX_ROOTS = 1000


def root_count(family: str, rank: int) -> int:
    """|Phi| of A_l (l(l + 1)), D_l (2l(l - 1)) or E_6/7/8, not built.

    Raises UnsupportedSystem for any other (family, rank), and SystemTooLarge
    past MAX_ROOTS.
    """
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


def height(root: Root) -> int:
    """Sum of simple-root coefficients; negative for negative roots."""
    return sum(root)


def simple_index(root: Root) -> int | None:
    """1-based index if the vector is a simple root, else None."""
    if sum(root) != 1 or min(root) < 0:
        return None
    return root.index(1) + 1


class RootSystem:
    """A simply-laced root system closed up from its Cartan matrix.

    Attributes
    ----------
    positive_roots : tuple of roots, ordered by (height, lexicographic)
    roots          : positive roots followed by their negatives, same order
    delta          : the highest root
    phi1           : roots with <beta, delta> == 1, in the global order
    phi0           : roots with <beta, delta> == 0, in the global order
    """

    def __init__(self, family: str, rank: int):
        root_count(family, rank)
        self.family = family
        self.rank = rank
        self.cartan = cartan_matrix(family, rank)

        simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        csimple = [self.cartan[i] for i in range(rank)]
        pos = set(simples)
        queue = list(simples)
        while queue:
            g = queue.pop()
            for i in range(rank):
                # for distinct roots of equal length, g + alpha_i is a root
                # exactly when <g, alpha_i> == -1
                if sum(gj * cj for gj, cj in zip(g, csimple[i])) == -1:
                    ng = tuple(gj + sj for gj, sj in zip(g, simples[i]))
                    if ng not in pos:
                        pos.add(ng)
                        queue.append(ng)

        plist = sorted(pos, key=lambda r: (height(r), r))
        self.positive_roots: tuple[Root, ...] = tuple(plist)
        self.n_positive = len(plist)
        self.roots: tuple[Root, ...] = tuple(plist) + tuple(
            tuple(-c for c in r) for r in plist
        )
        self._index = {r: i for i, r in enumerate(self.roots)}
        self._cdot = {
            r: tuple(
                sum(self.cartan[i][j] * r[j] for j in range(rank))
                for i in range(rank)
            )
            for r in self.roots
        }

        top = height(plist[-1])
        if sum(1 for r in plist if height(r) == top) != 1:
            raise AssertionError("highest root is not unique")
        self.delta: Root = plist[-1]
        self._level = {r: self.pair(r, self.delta) for r in self.roots}
        self.phi1: tuple[Root, ...] = tuple(
            r for r in self.roots if self._level[r] == 1
        )
        self.phi0: tuple[Root, ...] = tuple(
            r for r in self.roots if self._level[r] == 0
        )
        self._phi1_index = {r: i for i, r in enumerate(self.phi1)}

    # -- basic queries ----------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name}, {len(self.roots)} roots)"

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
        if not 1 <= i <= self.rank:
            raise NotARoot(f"no simple root alpha_{i} in rank {self.rank}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def neg(self, root: Root) -> Root:
        return tuple(-c for c in root)

    def add(self, a: Root, b: Root) -> Root:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Root, b: Root) -> Root:
        return tuple(x - y for x, y in zip(a, b))

    def cdot(self, root: Root) -> tuple[int, ...]:
        """The vector (<alpha_1, root>, ..., <alpha_l, root>)."""
        return self._cdot[root]

    def pair(self, a: Root, b: Root) -> int:
        """<a, b> without membership validation (b must be a root)."""
        cd = self._cdot[b]
        return sum(x * y for x, y in zip(a, cd))

    def level(self, root: Root) -> int:
        """<root, delta>: the grading used by the classifier."""
        return self._level[root]

    def phi1_index(self, root: Root) -> int:
        try:
            return self._phi1_index[root]
        except KeyError:
            raise NotARoot(f"{root!r} is not a level-1 root of {self.name}") from None

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


def _check_root(rs: RootSystem, v) -> Root:
    v = tuple(v)
    if not rs.is_root(v):
        raise NotARoot(f"{v} is not a root of {rs.name}")
    return v


def reflect(rs: RootSystem, alpha, beta) -> Root:
    """The reflection s_alpha(beta) = beta - <beta, alpha> alpha."""
    alpha = _check_root(rs, alpha)
    beta = _check_root(rs, beta)
    c = rs.pair(beta, alpha)
    return tuple(b - c * a for a, b in zip(alpha, beta))


def min_subtractable_index(rs: RootSystem, gamma) -> int:
    """Smallest i (1-based) with gamma - alpha_i a root or zero.

    For a simple root this is its own index.  Only defined for positive
    roots.
    """
    gamma = tuple(gamma)
    if not rs.is_positive(gamma):
        raise NotAPositiveRoot(f"{gamma} is not a positive root of {rs.name}")
    zero = (0,) * rs.rank
    for i in range(1, rs.rank + 1):
        d = rs.sub(gamma, rs.simple(i))
        if d == zero or rs.is_root(d):
            return i
    raise AssertionError("positive root with no subtractable simple root")


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
            raise AssertionError(f"quadruple member {r} is not a root")
    return quad
