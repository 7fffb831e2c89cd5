"""Adjoint-module vectors and one-parameter root-element actions.

Vectors live in the Chevalley basis {e_beta : beta a root} + {h_1..h_l},
indexed by the basis keys of a StructureConstantTable.  Coefficients come
from a pluggable coefficient domain (a prime field, or the polynomials
over which orbitlab compiles the lift); outside an exact prime field
every arithmetic step and every zero test goes through the domain, so
the same code serves any domain with that protocol, including one whose
coefficients are arrays of lanes.  A term is skipped when the
domain calls its coefficient zero, so is_zero must be exact: for
polynomials the zero polynomial, for lanes zero in every lane.

The action of the root element x_gamma(a) on a basis vector:

* e_beta           -> e_beta                      when <beta, gamma> >= 0
                                                  and beta != -gamma
* e_beta           -> e_beta + N(gamma, beta) a e_{gamma+beta}
                                                  when <beta, gamma> == -1
* e_{-gamma}       -> e_{-gamma} + a h_gamma - a^2 e_gamma
* h_t              -> h_t - <alpha_t, gamma> a e_gamma

with h_gamma = sum_t gamma_t h_t (all roots here have the same length).
Group words are lists of (root, scalar) factors and act right-to-left.
_action_plan holds these moves per gamma, read from gamma's rows of
rs.ids.sum_id, the constants and rs.simple_pairs, and kept in one
per-table dict keyed by the root (_plans), which apply_word and act_on_v1
read once per factor; for a level-0 gamma it also keeps the moves from
level 1 as phi1 indices, the whole action on V1, which act_on_v1 applies
to level-1 tuples and lanes over a prime field, and the census to states.
_scale_plan groups root ids by gamma's column of rs.ids.pairing.

apply_word is the one driver of the action; apply_root_element is its
one-factor word.  It copies the coefficient list once and runs one step
per factor on it, in place: _act_on_ints, one % p per written coefficient,
when the domain is exactly a PrimeField, whose elements are ints (from_v1
then fills the list with ints too); _act_in_domain, through the domain
protocol, for every other domain (_Polynomials, and the tests' exact
integers, lanes and PrimeField subclasses).  Both write the same coefficients in the same order,
those whose term the domain calls nonzero, so they give the same list.
"""

from __future__ import annotations

import operator

import numpy as np

from .chevalley import StructureConstantTable, table_cached
from .gfield import PrimeField
from .rootsys import Root, as_int


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
        v.coeffs[as_int(key, "key", 0, table.n_basis)] = domain.one
        return v

    @classmethod
    def from_v1(cls, table: StructureConstantTable, domain, x) -> "LieVector":
        """Embed a coefficient tuple over the level-1 roots (phi1 order)."""
        pairs = zip(_phi1_keys(table)[0], table.rs.check_v1(x))
        if type(domain) is PrimeField:
            p = domain.p
            coeffs = [0] * table.n_basis
            for key, c in pairs:  # ints only: a lane raises TypeError
                coeffs[key] = (c if type(c) is int else as_int(c)) % p
            return cls(table, domain, coeffs)
        v = cls.zero(table, domain)
        for key, c in pairs:
            v.coeffs[key] = domain.of(c)
        return v

    # -- accessors -----------------------------------------------------------

    def e_coeff(self, root):
        return self.coeffs[self.table.e_key(root)]

    def h_coeff(self, t: int):
        """Coefficient of h_t, 1-based t."""
        return self.coeffs[self.table.h_key(t)]

    def v1_part(self) -> tuple:
        return _phi1_keys(self.table)[1](self.coeffs)

    def level_support(self) -> set[int]:
        """Levels carrying a nonzero coefficient; Cartan part counts as 0."""
        rs = self.table.rs
        dom = self.domain
        out = {q for q, c in zip(rs.levels, self.coeffs) if not dom.is_zero(c)}
        if any(not dom.is_zero(c) for c in self.coeffs[len(rs.roots):]):
            out.add(0)
        return out

    def __eq__(self, other) -> bool:
        """Same system, equal domains and equal coefficients, as the
        acceptance suite compares two lifts; vectors are not hashable."""
        return (isinstance(other, LieVector)
                and self.table.rs.name == other.table.rs.name
                and self.domain == other.domain
                and self.coeffs == other.coeffs)


@table_cached
def _phi1_keys(table: StructureConstantTable) -> tuple:
    """The basis keys of the level-1 roots in phi1 order, the getter of their
    coefficients, as a tuple, from a coefficient list, and key -> index."""
    keys = tuple(map(table.e_key, table.rs.phi1))
    at = {key: i for i, key in enumerate(keys)}
    # itemgetter returns a tuple from two keys on; A1 has no level-1 root
    return keys, (operator.itemgetter(*keys) if len(keys) > 1
                  else lambda c: tuple([c[k] for k in keys])), at


# -- root-element action ------------------------------------------------------


@table_cached
def _plans(table: StructureConstantTable) -> dict:
    """Root tuple -> its _action_plan, for the roots used so far."""
    return {}


def _action_plan(table: StructureConstantTable, gamma: Root):
    """Per-(table, gamma) index plan for the x_gamma(a) action, kept in the
    table's _plans from its first use; its last field, v1, is the moves from
    level 1 as phi1 indices (gamma's V1 action) at level 0, else None."""
    plans = _plans(table)
    if (plan := plans.get(gamma)) is not None:
        return plan
    rs = table.rs
    gid = rs.root_id(gamma)
    n = table.n_roots
    row, nts = rs.ids.sum_id[gid].tolist(), table._nt[gid].tolist()
    moves = tuple((src, dst, nts[src])
                  for src, dst in enumerate(row) if dst >= 0)
    h_coords = tuple((n + t, c) for t, c in enumerate(gamma) if c)
    h_feed = tuple((n + t, w) for t, w in enumerate(rs.simple_pairs[gid]) if w)
    at = _phi1_keys(table)[2]
    v1 = None if rs.levels[gid] else tuple(
        (at[src], at[dst], sgn) for src, dst, sgn in moves if src in at)
    plan = plans[gamma] = (gid, rs.ids.neg_id.item(gid), moves, h_coords,
                           h_feed, v1)
    return plan


def act_on_v1(table: StructureConstantTable, K, word, x) -> tuple:
    """Apply a level-0 word to a level-1 coefficient vector over K = F_p.

    On V1, x_gamma(t) is x -> x + t sum N(gamma, beta) x_beta e_{beta+gamma}
    over the beta in phi1 with <beta, gamma> = -1 (no t^2, no Cartan term),
    so each factor, rightmost first, is one gather-add along its plan's v1,
    whose targets are never sources.  Entries and scalars are ints or lane
    arrays of K; K.of's int64 lanes hold x + t x' < p(p - 1) < 2**63.  The
    result is in phi1 order.  A factor that is not a root raises NotARoot,
    one of another level ValueError, and a K without p TypeError.
    """
    if (p := getattr(K, "p", None)) is None:
        raise TypeError(f"act_on_v1 needs a prime field, got {K!r}")
    plans = _plans(table)
    x = [c % p if type(c) is int else K.of(c) for c in table.rs.check_v1(x)]
    for g, t in reversed(word):
        try:
            v1 = plans[g][5]
        except (KeyError, TypeError):  # a new root, or an unhashable one
            v1 = _action_plan(table, tuple(g))[5]
        if v1 is None:
            raise ValueError(f"{tuple(g)} has level {table.rs.level(tuple(g))}"
                             f"; the V1 action needs level-0 factors")
        t = t % p if type(t) is int else K.of(t)
        for src, dst, sgn in v1:
            x[dst] = (x[dst] + sgn * t * x[src]) % p
    return tuple(x)


def apply_root_element(table: StructureConstantTable, gamma, a,
                       v: LieVector) -> LieVector:
    """x_gamma(a) . v for a root gamma and a scalar a in the domain."""
    return apply_word(table, [(gamma, a)], v)


def apply_word(table: StructureConstantTable, word, v: LieVector) -> LieVector:
    """Apply a group word (list of (root, scalar)), rightmost factor first.

    Each factor's plan costs one read of the table's _plans; a root not
    used yet, or one given as a list, goes through _action_plan."""
    dom = v.domain
    step, arith = ((_act_on_ints, dom.p) if type(dom) is PrimeField
                   else (_act_in_domain, dom))
    plans = _plans(table)
    x = list(v.coeffs)
    for gamma, a in reversed(word):
        try:
            plan = plans[gamma]
        except (KeyError, TypeError):  # a new root, or an unhashable one
            plan = _action_plan(table, tuple(gamma))
        step(plan, a, arith, x)
    return LieVector(table, dom, x)


def _act_on_ints(plan, a, p: int, x: list) -> None:
    """x_gamma(a) on the coefficient list x of a PrimeField vector, in place.

    The moves' sources and targets are disjoint: a root string of a
    simply-laced system has at most two roots, so no target beta + gamma is
    the source of another move.  The moves touch neither e_{+-gamma} nor
    the Cartan part, which is read before it is written.  So every read
    sees the coefficient of the vector the factor acts on, here and in
    _act_in_domain, which writes the same coefficients in the same order.
    """
    # an int skips the call; a lane array is refused (TypeError)
    a = (a if type(a) is int else as_int(a)) % p
    if not a:
        return
    gid, mid, moves, h_coords, h_feed, _ = plan
    # most sources are 0: the truth test spares them the % p
    for src, dst, sg in moves:
        c = x[src]
        if c and c % p:
            x[dst] = (x[dst] + sg * a * c) % p
    acc = 0
    for hk, w in h_feed:
        acc += w * x[hk]
    c = x[mid]
    if c % p:
        ac = a * c % p
        for hk, ct in h_coords:
            x[hk] = (x[hk] + ct * ac) % p
        x[gid] = (x[gid] - a * ac) % p
    if acc % p:
        x[gid] = (x[gid] - a * acc) % p


def _act_in_domain(plan, a, dom, x: list) -> None:
    """_act_on_ints through the domain protocol, for any other domain."""
    a = dom.of(a)
    if dom.is_zero(a):
        return
    gid, mid, moves, h_coords, h_feed, _ = plan
    for src, dst, sg in moves:
        if not dom.is_zero(c := x[src]):
            t = dom.mul(a, c)
            x[dst] = dom.add(x[dst], t) if sg > 0 else dom.sub(x[dst], t)
    acc = dom.zero
    for hk, w in h_feed:
        if not dom.is_zero(ch := x[hk]):
            acc = dom.add(acc, dom.mul(dom.of(w), ch))
    c = x[mid]
    if not dom.is_zero(c):
        ac = dom.mul(a, c)
        for hk, ct in h_coords:
            x[hk] = dom.add(x[hk], dom.mul(dom.of(ct), ac))
        x[gid] = dom.sub(x[gid], dom.mul(a, ac))
    if not dom.is_zero(acc):
        x[gid] = dom.sub(x[gid], dom.mul(a, acc))


# -- torus elements ------------------------------------------------------------


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
    col = rs.ids.pairing[:, rs.root_id(gamma)]
    return {q: tuple(np.flatnonzero(col == q).tolist()) for q in (-2, -1, 1, 2)}


def w_apply_fast(table: StructureConstantTable, gamma, a,
                 v: LieVector) -> LieVector:
    """w_gamma(a) . v directly: e_beta scales by a^{-<beta, gamma>}."""
    groups = _scale_plan(table, tuple(gamma))  # NotARoot for a non-root
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
    for q, ids in groups.items():
        f = factor[q]
        for i in ids:
            new[i] = dom.mul(f, new[i])
    return LieVector(table, dom, new)
