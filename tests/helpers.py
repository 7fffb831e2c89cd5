"""Shared cached builders for the test suite.

Root systems and structure-constant tables are immutable once built, so the
whole suite shares one instance per system.  The memos are plain dicts so a
test that has just built (and timed) a fresh object can seed them for everyone
else.
"""

from __future__ import annotations

from chevorbit import (
    Luminosity,
    OrbitCensus,
    OrbitDescriptor,
    PrimeField,
    RootSystem,
    StructureConstantTable,
    build_root_system,
    al_pair,
    build_table_oracle,
    enumerate_orbits,
    parse_system_name,
)

ALL_SYSTEMS: tuple[str, ...] = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8",
)

# The seven (system, p) pairs with pinned brute-force orbit counts.
CENSUS_CASES: tuple[tuple[str, int], ...] = (
    ("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3),
    ("D4", 3), ("D4", 5), ("D5", 3),
)

EXPECTED_ORBITS: dict[tuple[str, int], int] = {
    ("A2", 3): 9,
    ("A3", 3): 7,
    ("A3", 5): 11,
    ("A4", 3): 6,
    ("D4", 3): 14,
    ("D4", 5): 16,
    ("D5", 3): 9,
}

# Total root counts per system, from the classification of simply-laced
# systems; used as an oracle for the enumeration code.
ROOT_COUNTS: dict[str, int] = {
    **{f"A{l}": l * (l + 1) for l in range(1, 9)},
    **{f"D{l}": 2 * l * (l - 1) for l in range(4, 9)},
    "E6": 72, "E7": 126, "E8": 240,
}

_systems: dict[str, RootSystem] = {}
_tables: dict[str, StructureConstantTable] = {}
_fields: dict[int, PrimeField] = {}
_censuses: dict[tuple[str, int], OrbitCensus] = {}


def get_system(name: str) -> RootSystem:
    if name not in _systems:
        family, rank = parse_system_name(name)
        _systems[name] = build_root_system(family, rank)
    return _systems[name]


def get_table(name: str) -> StructureConstantTable:
    if name not in _tables:
        _tables[name] = build_table_oracle(get_system(name))
    return _tables[name]


def get_field(p: int) -> PrimeField:
    if p not in _fields:
        _fields[p] = PrimeField(p)
    return _fields[p]


def get_census(name: str, p: int) -> OrbitCensus:
    key = (name, p)
    if key not in _censuses:
        _censuses[key] = enumerate_orbits(get_table(name), p)
    return _censuses[key]


def seed_table(name: str, table: StructureConstantTable) -> None:
    """Let a test that built a table fresh (e.g. to time it) share it."""
    _tables[name] = table
    _systems[name] = table.rs


def seed_census(name: str, p: int, census: OrbitCensus) -> None:
    _censuses[(name, p)] = census


def random_v1(rng, rs: RootSystem, p: int) -> tuple[int, ...]:
    """A uniformly random level-1 coefficient vector over F_p."""
    return tuple(rng.randrange(p) for _ in rs.phi1)


def random_level0_word(rng, rs: RootSystem, p: int, max_len: int = 4) -> list:
    """A random word in the elementary generators of the level-0 group.

    A2 has no level-0 roots at all (the acting group is trivial there), in
    which case the only word is the empty one.
    """
    lvl0 = rs.phi0
    if not lvl0:
        return []
    length = rng.randrange(1, max_len + 1)
    return [(rng.choice(lvl0), rng.randrange(1, p)) for _ in range(length)]


# Luminosity digit of the packed invariant code, coarsest first.
LUMINOSITY_DIGIT: dict[Luminosity, int] = {
    Luminosity.ZERO_VEC: 0,
    Luminosity.SINGULAR: 1,
    Luminosity.BRILLIANT: 2,
    Luminosity.SHINING: 3,
    Luminosity.DARK: 4,
}


def pack_profile(p: int, lum: Luminosity, invs) -> int:
    """Reference packing of a luminosity and Sl2Invariants into one integer.

    Radix p + 2, luminosity digit first, then one digit per block: 0 zero,
    1 nilpotent with nonsquare class, 2 nilpotent with square class, 2 + k
    regular (whose norm class is always 1, so k alone names it).
    """
    code = LUMINOSITY_DIGIT[lum]
    for inv in invs:
        if inv.kind == "zero":
            digit = 0
        elif inv.kind == "nilpotent":
            digit = 2 if inv.square.rep == 1 else 1
        else:
            digit = 2 + inv.k
        code = code * (p + 2) + digit
    return code


def classify_a_reference(rs: RootSystem, K: PrimeField, x) -> OrbitDescriptor:
    """Reference family-A classifier, read branch by branch off al_pair.

    I when u and v vanish, IIa when only v does, IIb when only u does; then
    VI(c = u.v) when the contraction is nonzero, and III otherwise, whose A3
    parameter contracts v with the completion of u to a unimodular basis.
    On A2 every vector is its own orbit, named by its raw coordinates.
    """
    p = K.p

    def desc(label, **params):
        return OrbitDescriptor(rs.family, rs.rank, p, label,
                               tuple(sorted(params.items())))

    xs = [K.of(c) for c in x]
    if rs.rank == 1:
        return desc("I")
    u, v = al_pair(rs, xs)
    uz = all(K.is_zero(c) for c in u)
    vz = all(K.is_zero(c) for c in v)
    if rs.rank == 2:
        if uz and vz:
            return desc("I")
        if vz:
            return desc("IIa", rho=u[0])
        if uz:
            return desc("IIb", delta_minus_rho=v[0])
        return desc("VI", rho=u[0], delta_minus_rho=v[0])
    if uz and vz:
        return desc("I")
    if vz:
        return desc("IIa")
    if uz:
        return desc("IIb")
    s = K.zero
    for a, b in zip(u, v):
        s = K.add(s, K.mul(a, b))
    if not K.is_zero(s):
        return desc("VI", c=s)
    if rs.rank > 3:
        return desc("III")
    u1, u2 = u
    if not K.is_zero(u1):
        w = (K.zero, K.inv(u1))
    else:
        w = (K.neg(K.inv(u2)), K.zero)
    return desc("III", c=K.add(K.mul(w[0], v[0]), K.mul(w[1], v[1])))
