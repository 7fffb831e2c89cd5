"""Brute-force orbit enumeration of V1 over F_p, and classifier cross-checks.

States are level-1 coefficient vectors encoded as base-p integers with the
first phi1 coordinate most significant, so numeric order is lexicographic
order and the first state reached in each orbit (seeds are scanned in
ascending order) is the lexicographically least element of the orbit.  The
generators are the root elements x_gamma(t) for level-0 gamma and t in
F_p^*; their action on V1 shifts coefficients along disjoint source/target
pairs, which keeps the vectorized transition kernel simple.

The crosscheck compares the invariant-based classifier against the ground
truth partition:

* the invariant profile is constant on every BFS orbit (checked for every
  single state, vectorized for family D, directly for family A),
* orbit representatives get pairwise distinct descriptors,
* canonical forms land back in the orbit they were computed from,
* same_orbit agrees with the partition on all representative pairs and a
  random sample, and
* the predicted descriptor list matches the enumerated one as a set.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

from .chevalley import StructureConstantTable
from .gfield import PrimeField
from .orbitlab import (
    Luminosity,
    OrbitDescriptor,
    _profile_cached,
    all_descriptors,
    associated_root_element,
    canonical_form,
    classify,
    same_orbit,
)
from .rootsys import RootSystem

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV = "CHEVORBIT_BUDGET"


class BudgetExceeded(RuntimeError):
    """The state space p**|phi1| is larger than the enumeration budget."""


class MismatchReport(AssertionError):
    """Classifier and brute-force enumeration disagree; carries the details."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


class ArrayField:
    """Vectorized F_p arithmetic on numpy arrays (and plain ints).

    Implements the coefficient-domain protocol of the gfield module with
    scalar = False: is_zero always answers False, so domain-generic code
    takes no data-dependent shortcuts and every lane of a batch is computed.
    """

    scalar = False

    def __init__(self, p: int):
        self.p = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, a):
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if isinstance(a, (int, np.integer)):
            return pow(int(a), self.p - 2, self.p)
        r = np.ones_like(a)
        b = a % self.p
        e = self.p - 2
        while e:
            if e & 1:
                r = (r * b) % self.p
            b = (b * b) % self.p
            e >>= 1
        return r

    def is_zero(self, a) -> bool:
        return False


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
        budget = int(env) if env else DEFAULT_BUDGET
    if budget <= 0:
        raise ValueError(f"the state budget must be positive, got {budget}")
    return budget


def _generator_moves(table: StructureConstantTable):
    """Per level-0 root: (sources, targets, signs) index arrays on phi1."""
    rs = table.rs
    out = []
    for g in rs.phi0:
        src, dst, sgn = [], [], []
        for alpha in rs.phi1:
            if rs.pair(alpha, g) == -1:
                src.append(rs.phi1_index(alpha))
                dst.append(rs.phi1_index(rs.add(alpha, g)))
                sgn.append(table.nv(rs.root_id(g), rs.root_id(alpha)))
        if src:
            out.append((np.array(src), np.array(dst), np.array(sgn)))
    return out


def _powers(p: int, m: int) -> np.ndarray:
    return p ** np.arange(m - 1, -1, -1, dtype=np.int64)


def state_of_vector(rs: RootSystem, p: int, x) -> int:
    """Base-p encoding of a level-1 vector, first coordinate most significant."""
    s = 0
    for c in x:
        s = s * p + (int(c) % p)
    return s


def vector_of_state(rs: RootSystem, p: int, s: int) -> tuple[int, ...]:
    m = len(rs.phi1)
    out = []
    for _ in range(m):
        s, r = divmod(s, p)
        out.append(r)
    return tuple(reversed(out))


def enumerate_orbits(table: StructureConstantTable, p: int,
                     budget: int | None = None) -> OrbitCensus:
    """Partition V1(F_p) into orbits of the level-0 subgroup by BFS."""
    rs = table.rs
    K = PrimeField(p)
    m = len(rs.phi1)
    total = p ** m
    limit = _resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(
            f"{rs.name} over F_{p} has {total} level-1 vectors, more than "
            f"the budget of {limit}; raise it explicitly or via "
            f"{BUDGET_ENV} if that is intended"
        )
    if m == 0:
        entry = OrbitEntry((), 1, classify(table, K, ()))
        return OrbitCensus(rs.family, rs.rank, p, 1, (entry,))

    moves = _generator_moves(table)
    pw = _powers(p, m)
    orbit_id = np.full(total, -1, dtype=np.int32)
    orbits: list[OrbitEntry] = []
    ptr = 0
    while True:
        while ptr < total and orbit_id[ptr] >= 0:
            ptr += 1
        if ptr >= total:
            break
        oid = len(orbits)
        seed = ptr
        orbit_id[seed] = oid
        size = 1
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            digits = (frontier[:, None] // pw) % p
            layer = []
            for src, dst, sgn in moves:
                for t in range(1, p):
                    new = digits.copy()
                    new[:, dst] = (digits[:, dst]
                                   + (sgn * t) * digits[:, src]) % p
                    enc = (new * pw).sum(axis=1)
                    enc = enc[orbit_id[enc] < 0]
                    if enc.size:
                        enc = np.unique(enc)
                        orbit_id[enc] = oid
                        size += enc.size
                        layer.append(enc)
            frontier = (np.concatenate(layer) if layer
                        else np.empty(0, dtype=np.int64))
        rep = vector_of_state(rs, p, seed)
        orbits.append(OrbitEntry(rep, int(size), classify(table, K, rep)))
    return OrbitCensus(rs.family, rs.rank, p, total, tuple(orbits))


def predicted_census(table: StructureConstantTable, p: int) -> list[OrbitDescriptor]:
    """The descriptor-derived orbit list, no enumeration involved."""
    return all_descriptors(table, PrimeField(p))


# -- vectorized invariant profiles (family D) -----------------------------------


def _legendre_row(p: int) -> np.ndarray:
    row = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        row[a] = 1 if pow(a, (p - 1) // 2, p) == 1 else 0
    return row


_LUM_CODE = {
    Luminosity.ZERO_VEC: 0,
    Luminosity.SINGULAR: 1,
    Luminosity.BRILLIANT: 2,
    Luminosity.SHINING: 3,
    Luminosity.DARK: 4,
}


def _pack_block_scalar(inv) -> int:
    if inv.kind == "zero":
        return 0
    if inv.kind == "nilpotent":
        return 1 + (1 if inv.square.rep == 1 else 0)
    # a regular block's norm class is always 1, so k alone names it
    return 2 + inv.k


def pack_profile(p: int, profile) -> int:
    """Single-integer encoding of (luminosity, block invariants)."""
    lum, invs = profile
    code = _LUM_CODE[lum]
    for inv in invs:
        code = code * (p + 2) + _pack_block_scalar(inv)
    return code


def _bulk_profiles_d(table: StructureConstantTable, p: int) -> np.ndarray:
    """pack_profile of every state of V1(F_p), vectorized, family D."""
    rs = table.rs
    m = len(rs.phi1)
    total = p ** m
    pw = _powers(p, m)
    states = np.arange(total, dtype=np.int64)
    xs = [((states // pw[i]) % p).astype(np.int16) for i in range(m)]

    AF = ArrayField(p)
    y = associated_root_element(table, AF, xs)

    def arr(c):
        return np.broadcast_to(np.asarray(c, dtype=np.int64), (total,))

    nd = arr(y.e_coeff(rs.neg(rs.delta)))
    lvm1 = np.zeros(total, dtype=bool)
    lv0 = np.zeros(total, dtype=bool)
    lv1 = np.zeros(total, dtype=bool)
    for i, r in enumerate(rs.roots):
        lv = rs.level(r)
        if lv == -1:
            lvm1 |= arr(y.coeffs[i]) != 0
        elif lv == 0:
            lv0 |= arr(y.coeffs[i]) != 0
        elif lv == 1:
            lv1 |= arr(y.coeffs[i]) != 0
    for c in y.h_part():
        lv0 |= arr(c) != 0
    lum = np.select([nd != 0, lvm1, lv0, lv1], [4, 3, 2, 1], default=0)

    leg = _legendre_row(p)
    from .orbitlab import block_gammas
    from .rootsys import simple_index

    code = lum.astype(np.int64)
    for g in block_gammas(rs):
        c = arr(y.h_coeff(simple_index(g)))
        u = arr(y.e_coeff(g))
        w = arr(y.e_coeff(rs.neg(g)))
        k = (c * c + u * w) % p
        is_zero = (c == 0) & (u == 0) & (w == 0)
        top = np.where(u != 0, u, (-w) % p)
        nilp_code = 1 + leg[top]
        bc = np.where(is_zero, 0, np.where(k == 0, nilp_code, 2 + k))
        code = code * (p + 2) + bc
    return code


# -- the crosscheck ---------------------------------------------------------------


def crosscheck(table: StructureConstantTable, p: int,
               budget: int | None = None, pairs: int = 10_000,
               seed: int = 0,
               census: OrbitCensus | None = None) -> dict:
    """Verify the classifier against brute-force enumeration; raise on mismatch."""
    rs = table.rs
    K = PrimeField(p)
    if census is None:
        census = enumerate_orbits(table, p, budget=budget)
    m = len(rs.phi1)
    total = census.total_states
    checks: dict[str, str] = {}

    # rebuild the state -> orbit map from the census representatives; this
    # also re-validates that the orbits are disjoint and cover the space
    if m == 0:
        orbit_id = np.zeros(1, dtype=np.int32)
    else:
        orbit_id = _orbit_id_array(table, p, census)

    # (a) the invariant profile is constant state-by-state on every orbit
    if rs.family == "D":
        fp = _bulk_profiles_d(table, p)
        rep_states = np.array(
            [state_of_vector(rs, p, o.representative) for o in census.orbits],
            dtype=np.int64,
        )
        want = fp[rep_states][orbit_id]
        if not np.array_equal(fp, want):
            bad = int(np.nonzero(fp != want)[0][0])
            raise MismatchReport(
                "invariant profile varies inside a brute-force orbit",
                {
                    "state": vector_of_state(rs, p, bad),
                    "orbit_representative": census.orbits[
                        int(orbit_id[bad])
                    ].representative,
                },
            )
        # tie the vectorized packing to the scalar one at every representative
        for o, st in zip(census.orbits, rep_states):
            sc = pack_profile(
                p, _profile_cached(table, K, tuple(o.representative))
            )
            if sc != int(fp[st]):
                raise MismatchReport(
                    "scalar and vectorized invariant profiles disagree",
                    {"representative": o.representative},
                )
    else:
        desc_of = {
            state_of_vector(rs, p, o.representative): o.descriptor
            for o in census.orbits
        }
        for s in range(total):
            d = classify(table, K, vector_of_state(rs, p, s))
            want_d = desc_of[
                state_of_vector(
                    rs, p, census.orbits[int(orbit_id[s])].representative
                )
            ]
            if d != want_d:
                raise MismatchReport(
                    "descriptor varies inside a brute-force orbit",
                    {"state": vector_of_state(rs, p, s),
                     "got": d.to_json(), "want": want_d.to_json()},
                )
    checks["profile_constant_on_orbits"] = "ok"

    # (b) pairwise distinct descriptors across orbits
    seen: dict[OrbitDescriptor, tuple] = {}
    for o in census.orbits:
        if o.descriptor in seen:
            raise MismatchReport(
                "two distinct orbits share a descriptor",
                {"first": seen[o.descriptor], "second": o.representative,
                 "descriptor": o.descriptor.to_json()},
            )
        seen[o.descriptor] = o.representative
    checks["descriptors_distinct"] = "ok"

    # (c) canonical forms land in the orbit they describe
    for oid, o in enumerate(census.orbits):
        vec = canonical_form(table, K, o.descriptor)
        st = state_of_vector(rs, p, vec)
        if int(orbit_id[st]) != oid:
            raise MismatchReport(
                "canonical form lies in a different orbit",
                {"descriptor": o.descriptor.to_json(),
                 "canonical": vec,
                 "expected_representative": o.representative},
            )
    checks["canonical_forms_in_orbit"] = "ok"

    # (d) same_orbit against ground truth: all representative pairs + sample
    reps = [o.representative for o in census.orbits]
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            got = same_orbit(table, K, reps[i], reps[j])
            if got != (i == j):
                raise MismatchReport(
                    "same_orbit wrong on representatives",
                    {"x1": reps[i], "x2": reps[j], "got": got},
                )
    rng = random.Random(seed)
    for _ in range(pairs):
        s1 = rng.randrange(total)
        s2 = rng.randrange(total)
        x1 = vector_of_state(rs, p, s1)
        x2 = vector_of_state(rs, p, s2)
        got = same_orbit(table, K, x1, x2)
        want = orbit_id[s1] == orbit_id[s2]
        if got != want:
            raise MismatchReport(
                "same_orbit disagrees with the enumeration",
                {"x1": x1, "x2": x2, "got": got, "want": bool(want)},
            )
    checks["same_orbit_sampled"] = "ok"

    # predicted orbit list == enumerated orbit list, as sets
    predicted = predicted_census(table, p)
    if len(set(predicted)) != len(predicted):
        raise MismatchReport("predicted descriptor list has duplicates", {})
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


def _orbit_id_array(table: StructureConstantTable, p: int,
                    census: OrbitCensus) -> np.ndarray:
    """Recompute the state -> orbit index array matching the census order."""
    rs = table.rs
    m = len(rs.phi1)
    total = p ** m
    moves = _generator_moves(table)
    pw = _powers(p, m)
    orbit_id = np.full(total, -1, dtype=np.int32)
    for oid, o in enumerate(census.orbits):
        seed = state_of_vector(rs, p, o.representative)
        if orbit_id[seed] >= 0:
            raise MismatchReport(
                "census representative already covered by an earlier orbit",
                {"representative": o.representative},
            )
        orbit_id[seed] = oid
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            digits = (frontier[:, None] // pw) % p
            layer = []
            for src, dst, sgn in moves:
                for t in range(1, p):
                    new = digits.copy()
                    new[:, dst] = (digits[:, dst]
                                   + (sgn * t) * digits[:, src]) % p
                    enc = (new * pw).sum(axis=1)
                    enc = enc[orbit_id[enc] < 0]
                    if enc.size:
                        enc = np.unique(enc)
                        orbit_id[enc] = oid
                        layer.append(enc)
            frontier = (np.concatenate(layer) if layer
                        else np.empty(0, dtype=np.int64))
    if int((orbit_id < 0).sum()):
        raise MismatchReport("census orbits do not cover the state space", {})
    return orbit_id
