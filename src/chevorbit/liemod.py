"""Adjoint-module vectors and one-parameter root-element actions.

Vectors live in the Chevalley basis {e_beta : beta a root} + {h_1..h_l},
indexed by the basis keys of a StructureConstantTable.  Coefficients come
from a pluggable coefficient domain (a prime field, exact integers, or a
vectorized array domain); every arithmetic step and every zero test goes
through the domain, so the same code serves both single vectors and bulk
batches.  A term is skipped when the domain calls its coefficient zero; for
a batch that means zero in every lane, so the skip is exact there too.

The action of the root element x_gamma(a) on a basis vector:

* e_beta           -> e_beta                      when <beta, gamma> >= 0
                                                  and beta != -gamma
* e_beta           -> e_beta + N(gamma, beta) a e_{gamma+beta}
                                                  when <beta, gamma> == -1
* e_{-gamma}       -> e_{-gamma} + a h_gamma - a^2 e_gamma
* h_t              -> h_t - <alpha_t, gamma> a e_gamma

with h_gamma = sum_t gamma_t h_t (all roots here have the same length).
Group words are lists of (root, scalar) factors and act right-to-left.
"""

from __future__ import annotations

import numpy as np

from .chevalley import StructureConstantTable, table_cached
from .rootsys import NotARoot, Root


class ZeroScalar(ValueError):
    """w_gamma(a) and its word form require a to be invertible."""


GroupWord = list  # list[(Root, scalar)], rightmost factor acts first


class LieVector:
    """Dense adjoint-module vector over a coefficient domain."""

    __slots__ = ("table", "domain", "coeffs")

    def __init__(self, table: StructureConstantTable, domain, coeffs: list):
        self.table = table
        self.domain = domain
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, table: StructureConstantTable, domain) -> "LieVector":
        return cls(table, domain, [domain.zero] * table.n_basis)

    @classmethod
    def basis(cls, table: StructureConstantTable, domain, key: int) -> "LieVector":
        v = cls.zero(table, domain)
        v.coeffs[key] = domain.one
        return v

    @classmethod
    def from_v1(cls, table: StructureConstantTable, domain, x) -> "LieVector":
        """Embed a coefficient tuple over the level-1 roots (phi1 order)."""
        rs = table.rs
        x = list(x)
        if len(x) != len(rs.phi1):
            raise ValueError(
                f"level-1 vector for {rs.name} needs {len(rs.phi1)} "
                f"coefficients, got {len(x)}"
            )
        v = cls.zero(table, domain)
        for root, c in zip(rs.phi1, x):
            v.coeffs[rs.root_id(root)] = domain.of(c)
        return v

    def copy(self) -> "LieVector":
        return LieVector(self.table, self.domain, list(self.coeffs))

    # -- accessors -----------------------------------------------------------

    def e_coeff(self, root):
        return self.coeffs[self.table.e_key(root)]

    def h_coeff(self, t: int):
        """Coefficient of h_t, 1-based t."""
        return self.coeffs[self.table.h_key(t)]

    def h_part(self) -> tuple:
        n = self.table.n_roots
        return tuple(self.coeffs[n:])

    def v1_part(self) -> tuple:
        rs = self.table.rs
        return tuple(self.coeffs[rs.root_id(r)] for r in rs.phi1)

    def nonzero_items(self):
        """(key, coeff) pairs whose coefficient the domain calls nonzero."""
        dom = self.domain
        return [
            (k, c) for k, c in enumerate(self.coeffs) if not dom.is_zero(c)
        ]

    def level_support(self) -> set[int]:
        """Levels carrying a nonzero coefficient; Cartan part counts as 0."""
        rs = self.table.rs
        dom = self.domain
        out = set()
        for i, r in enumerate(rs.roots):
            if not dom.is_zero(self.coeffs[i]):
                out.add(rs.level(r))
        if any(not dom.is_zero(c) for c in self.coeffs[len(rs.roots):]):
            out.add(0)
        return out

    def is_zero(self) -> bool:
        dom = self.domain
        return all(dom.is_zero(c) for c in self.coeffs)

    # -- linear structure ------------------------------------------------------

    def add(self, other: "LieVector") -> "LieVector":
        dom = self.domain
        return LieVector(
            self.table, dom,
            [dom.add(a, b) for a, b in zip(self.coeffs, other.coeffs)],
        )

    def sub(self, other: "LieVector") -> "LieVector":
        dom = self.domain
        return LieVector(
            self.table, dom,
            [dom.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)],
        )

    def scale(self, a) -> "LieVector":
        dom = self.domain
        a = dom.of(a)
        return LieVector(
            self.table, dom, [dom.mul(a, c) for c in self.coeffs]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieVector):
            return NotImplemented
        if self.table.rs.name != other.table.rs.name:
            return False
        try:
            return self.coeffs == other.coeffs
        except ValueError:
            # lane arrays have no single truth value: compare lane by lane,
            # an int coefficient standing for that value in every lane
            return all(np.all(a == b)
                       for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.table.rs.name, tuple(self.coeffs)))

    def __repr__(self) -> str:
        items = ", ".join(f"[{k}]={c}" for k, c in self.nonzero_items())
        return f"LieVector({self.table.rs.name}: {items or '0'})"


# -- root-element action ------------------------------------------------------


@table_cached
def _action_plan(table: StructureConstantTable, gamma: Root):
    """Per-(table, gamma) index plan for the x_gamma(a) action."""
    rs = table.rs
    gid = rs.root_id(gamma)
    mid = rs.root_id(rs.neg(gamma))
    n = table.n_roots
    moves = tuple(
        (src, rs.root_id(rs.add(beta, gamma)), table.nv(gid, src))
        for src, beta in enumerate(rs.roots)
        if rs.pair(beta, gamma) == -1
    )
    h_coords = tuple((n + t, c) for t, c in enumerate(gamma) if c)
    h_feed = tuple((n + t, w) for t, w in enumerate(rs.cdot(gamma)) if w)
    return gid, mid, moves, h_coords, h_feed


def apply_root_element(table: StructureConstantTable, gamma, a,
                       v: LieVector) -> LieVector:
    """x_gamma(a) . v for a root gamma and a scalar a in the domain."""
    gamma = tuple(gamma)
    gid, mid, moves, h_coords, h_feed = _action_plan(table, gamma)
    dom = v.domain
    a = dom.of(a)
    if dom.is_zero(a):
        return v.copy()
    old = v.coeffs
    new = list(old)

    for src, dst, sg in moves:
        c = old[src]
        if dom.is_zero(c):
            continue
        t = dom.mul(a, c)
        new[dst] = dom.add(new[dst], t if sg > 0 else dom.neg(t))

    c = old[mid]
    if not dom.is_zero(c):
        ac = dom.mul(a, c)
        for hk, ct in h_coords:
            new[hk] = dom.add(new[hk], dom.mul(dom.of(ct), ac))
        new[gid] = dom.sub(new[gid], dom.mul(a, ac))

    acc = dom.zero
    for hk, w in h_feed:
        ch = old[hk]
        if dom.is_zero(ch):
            continue
        acc = dom.add(acc, dom.mul(dom.of(w), ch))
    if not dom.is_zero(acc):
        new[gid] = dom.sub(new[gid], dom.mul(a, acc))

    return LieVector(table, dom, new)


def apply_word(table: StructureConstantTable, word, v: LieVector) -> LieVector:
    """Apply a group word (list of (root, scalar)), rightmost factor first."""
    out = v
    for gamma, a in reversed(word):
        out = apply_root_element(table, gamma, a, out)
    return out


# -- torus and Weyl representatives -------------------------------------------


def w_word(domain, gamma, a) -> GroupWord:
    """The four-factor word whose product acts as the torus element w_gamma(a).

    On e_beta the product scales by a^{-<beta, gamma>}; it fixes the Cartan
    part.  Requires invertible a.
    """
    a = domain.of(a)
    if domain.is_zero(a):
        raise ZeroScalar("w_gamma(a) requires a nonzero scalar")
    gamma = tuple(gamma)
    ngam = tuple(-c for c in gamma)
    one = domain.one
    return [
        (ngam, domain.sub(a, domain.mul(a, a))),
        (gamma, domain.neg(domain.inv(a))),
        (ngam, domain.sub(a, one)),
        (gamma, one),
    ]


@table_cached
def _scale_plan(table: StructureConstantTable, gamma: Root):
    """Root ids grouped by <beta, gamma>, for the diagonal torus action."""
    rs = table.rs
    groups: dict[int, list[int]] = {-2: [], -1: [], 1: [], 2: []}
    for i, beta in enumerate(rs.roots):
        q = rs.pair(beta, gamma)
        if q:
            groups[q].append(i)
    return {q: tuple(ids) for q, ids in groups.items()}


def w_apply_fast(table: StructureConstantTable, gamma, a,
                 v: LieVector) -> LieVector:
    """w_gamma(a) . v directly: e_beta scales by a^{-<beta, gamma>}."""
    gamma = tuple(gamma)
    if not table.rs.is_root(gamma):
        raise NotARoot(f"{gamma} is not a root of {table.rs.name}")
    dom = v.domain
    a = dom.of(a)
    if dom.is_zero(a):
        raise ZeroScalar("w_gamma(a) requires a nonzero scalar")
    ia = dom.inv(a)
    factor = {
        -2: dom.mul(a, a),
        -1: a,
        1: ia,
        2: dom.mul(ia, ia),
    }
    new = list(v.coeffs)
    for q, ids in _scale_plan(table, gamma).items():
        f = factor[q]
        for i in ids:
            new[i] = dom.mul(f, new[i])
    return LieVector(table, dom, new)


def weyl_word(gamma) -> GroupWord:
    """Word for the Weyl-group representative attached to gamma."""
    gamma = tuple(gamma)
    ngam = tuple(-c for c in gamma)
    return [(gamma, 1), (ngam, -1), (gamma, 1)]


def inverse_word(domain, word) -> GroupWord:
    """Word for the inverse product: reverse order, negate scalars."""
    return [(g, domain.neg(domain.of(a))) for g, a in reversed(word)]


# -- bracket -------------------------------------------------------------------


def bracket(table: StructureConstantTable, u: LieVector,
            v: LieVector) -> LieVector:
    """[u, v] in the adjoint algebra."""
    dom = u.domain
    out = LieVector.zero(table, dom)
    co = out.coeffs
    for i, ci in enumerate(u.coeffs):
        if dom.is_zero(ci):
            continue
        for j, cj in enumerate(v.coeffs):
            if dom.is_zero(cj):
                continue
            cij = dom.mul(ci, cj)
            for k, w in table.bracket_keys(i, j):
                co[k] = dom.add(co[k], dom.mul(dom.of(w), cij))
    return out
