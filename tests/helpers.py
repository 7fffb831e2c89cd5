"""Shared cached builders and references for the test suite.

Root systems and structure-constant tables are immutable once built, so the
whole suite shares one instance per system.  The memos are plain dicts so a
test that has just built (and timed) a fresh object can seed them for everyone
else.  ArrayField runs the library's coefficient-domain code on batches of
lanes, for reference computations, and ExactIntegers on the integers.  The
oracles the library has no use for live here too: the bracket of two
vectors, their comparison and linear combinations, word helpers and the
reflection of roots.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import random

import numpy as np

from chevorbit import (
    LieVector,
    Luminosity,
    NotARoot,
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
from chevorbit import orbitlab
from chevorbit.chevalley import _jacobi_defect, _seeds
from chevorbit.gfield import _pow_mod
from chevorbit.liemod import _action_plan
from chevorbit.rootsys import as_int

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


class ArrayField(PrimeField):
    """F_p arithmetic on numpy arrays of elements (and plain ints), lane-wise.

    The batch coefficient domain of the reference lift: LieVector and the
    root-element actions run on it unchanged, one lane per vector.  Compares
    unequal to PrimeField(p), so per-field caches keep the two apart.  Only
    inversion and the zero test differ from PrimeField: inv runs Fermat's
    power on every lane, and is_zero is true exactly when every lane is 0,
    so code that skips a term on is_zero stays exact for the whole batch.
    """

    def inv(self, a):
        return _pow_mod(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return not np.any(a)


class GenericField(PrimeField):
    """F_p as a PrimeField subclass: liemod's generic, domain-protocol
    spelling of the action, which an exact PrimeField does not take."""


class ExactIntegers:
    """The ring of integers under the coefficient-domain protocol: the
    action's generic step run without any reduction mod p."""

    zero = 0
    one = 1

    def __repr__(self) -> str:
        return "ExactIntegers()"

    # every instance is the one ring, as vector equality reads it
    def __eq__(self, other) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(ExactIntegers)

    of = staticmethod(as_int)  # n as a Python int

    def add(self, a: int, b: int) -> int:
        return a + b

    def sub(self, a: int, b: int) -> int:
        return a - b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def neg(self, a: int) -> int:
        return -a

    def inv(self, a: int) -> int:
        a = self.of(a)
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not invertible over the integers")

    def is_zero(self, a: int) -> bool:
        return a == 0


INTEGERS = ExactIntegers()


def bracket(table: StructureConstantTable, u: LieVector,
            v: LieVector) -> LieVector:
    """[u, v] in the adjoint algebra, from the table's basis brackets alone:
    the oracle for x.[u, v] = [x.u, x.v], independent of liemod's action."""
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


def combine(*terms) -> LieVector:
    """The linear combination of the (scalar, vector) terms, over the first
    vector's domain, each scalar read by the domain's of."""
    table, dom = terms[0][1].table, terms[0][1].domain
    out = [dom.zero] * table.n_basis
    for a, v in terms:
        a = dom.of(a)
        out = [dom.add(o, dom.mul(a, c)) for o, c in zip(out, v.coeffs)]
    return LieVector(table, dom, out)


def same_vector(u: LieVector, v: LieVector) -> bool:
    """Whether u and v are one vector: the same system, the same field p
    (none over the integers) and equal coefficients, lane by lane where a
    coefficient is a lane array, an int standing for its value in every
    lane.  The same coefficients over F_5 and F_7 are different vectors."""
    return (u.table.rs.name == v.table.rs.name
            and getattr(u.domain, "p", None) == getattr(v.domain, "p", None)
            and all(np.all(a == b) for a, b in zip(u.coeffs, v.coeffs)))


def weyl_word(gamma) -> list:
    """Word for the Weyl-group representative attached to gamma."""
    gamma = tuple(gamma)
    ngam = tuple(-c for c in gamma)
    return [(gamma, 1), (ngam, -1), (gamma, 1)]


def inverse_word(domain, word) -> list:
    """Word for the inverse product: reverse order, negate scalars."""
    return [(g, domain.neg(domain.of(a))) for g, a in reversed(word)]


def reflect(rs: RootSystem, alpha, beta) -> tuple:
    """The reflection s_alpha(beta) = beta - <beta, alpha> alpha of roots
    (NotARoot otherwise)."""
    alpha, beta = tuple(alpha), tuple(beta)
    for v in (alpha, beta):
        if not rs.is_root(v):
            raise NotARoot(f"{v} is not a root of {rs.name}")
    c = rs.pair(beta, alpha)
    return tuple(b - c * a for a, b in zip(alpha, beta))


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


def generator_moves(table: StructureConstantTable) -> list:
    """The V1 moves of the 2 r0 elements x_{+-alpha}(1), alpha a simple
    level-0 root, which generate the level-0 group: the state-level edges
    of the reference partitions."""
    rs = table.rs
    simple = [a for a in map(rs.simple, range(1, rs.rank + 1))
              if not rs.level(a)]
    return [_action_plan(table, g)[5]
            for g in simple + [rs.neg(a) for a in simple]]


def trivial_torus(moves) -> list:
    """moves as census._orbit_partition's maps under the trivial torus:
    each a root element x(1) whose character is trivial, so the classes
    are the states and the class edges the moves."""
    return [(move, 1, ()) for move in moves]


def lane_rows(monkeypatch, clf) -> list:
    """The number of rows of each call of clf's lanes, recorded as the
    calls are made."""
    real, rows = clf.lanes, []

    def lanes(xs):
        rows.append(len(xs[0]))
        return real(xs)

    monkeypatch.setattr(clf, "lanes", lanes)
    return rows


def shift_top_digit_codes(monkeypatch) -> None:
    """Patch every family-D classifier's batch codes to be one more at the
    rows whose first digit is p - 1: no class's least state has that digit
    on D4/F5 or D5/F3, so only crosscheck's sampled states meet the shifted
    codes, which decode to no orbit there."""
    real = orbitlab._DClassifier.codes

    def shifted(self, chunk):
        codes = real(self, chunk)
        hit = np.asarray(chunk)[:, 0] == self.p - 1
        if hit.any():
            codes = codes.copy()
            codes[hit] += 1
        return codes

    monkeypatch.setattr(orbitlab._DClassifier, "codes", shifted)


def negated_pair(name: str) -> tuple[StructureConstantTable, int, int]:
    """A copy of name's table with a seeded pair N[i, j], N[j, i] negated:
    antisymmetric still, but no longer a Lie bracket."""
    t = get_table(name)
    pairs = t.defined_pairs()
    i, j = map(int, pairs[random.Random(name).randrange(len(pairs))])
    nt = t._nt.copy()
    nt[i, j] = -nt[i, j]
    nt[j, i] = -nt[j, i]
    return StructureConstantTable(t.rs, nt, t.stats), i, j


def unseeded_orbits(rs) -> list[list[tuple[int, int]]]:
    """The pair orbits (see build_table_oracle) that hold no seed, each as
    its 12 pairs sorted, in order: (x, y), (y, x), (-x, -y), (-y, -x) for
    the pairs (x, y) of a zero-sum triple in cyclic order."""
    sums, negs = rs.ids.sum_id.tolist(), rs.ids.neg_id.tolist()
    seeds = set(zip(*(s.tolist() for s in _seeds(rs.ids))))
    orbits = set()
    for a, b in zip(*np.nonzero(rs.ids.sum_id >= 0)):
        a, b = int(a), int(b)
        c = negs[sums[a][b]]
        orbits.add(frozenset(
            q for x, y in ((a, b), (b, c), (c, a))
            for q in ((x, y), (y, x), (negs[x], negs[y]), (negs[y], negs[x]))
        ))
    return sorted(sorted(o) for o in orbits if not o & seeds)


def first_jacobi_failure(t: StructureConstantTable, triples) -> str:
    """The JacobiViolation message of the first triple, in the given order,
    on which the scalar reference _jacobi_defect is nonzero."""
    for k in triples:
        defect = _jacobi_defect(t, *k)
        if defect:
            return f"{t.rs.name}: Jacobi fails on basis triple {k}: {defect}"
    raise AssertionError("no failing triple")


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


def random_level0_word(rng, rs: RootSystem, p: int, max_len: int = 4,
                       min_len: int = 1) -> list:
    """A random word in the elementary generators of the level-0 group, of
    length min_len to max_len.

    A2 has no level-0 roots at all (the acting group is trivial there), in
    which case the only word is the empty one.
    """
    lvl0 = rs.phi0
    if not lvl0:
        return []
    length = rng.randrange(min_len, max_len + 1)
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


def run_time_names(node) -> set[str]:
    """Every name and attribute under an AST node, annotations left out:
    under postponed evaluation they are strings at run time, and name a
    class without using any of it."""
    out, todo = set(), [node]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo += [c for c in (value if isinstance(value, list)
                                     else [value]) if isinstance(c, ast.AST)]
    return out


def reached_names(module, start: str) -> set[str]:
    """Every name and attribute that the module-level function, class or
    assignment start of a module uses, and, transitively, those of the
    module-level definitions that it names: the module's own, and those it
    imports from a chevorbit module (relatively, inside the package, or
    from chevorbit by name, as the tests do), read in that module; all
    read by run_time_names, so an annotation reaches nothing."""
    trees: dict = {}

    def defs_of(name):
        # (module-level defs, names imported from chevorbit modules)
        if name not in trees:
            mod = importlib.import_module(name)
            with open(mod.__file__, encoding="utf-8") as f:
                tree = ast.parse(f.read())
            defs = {node.name: node for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            defs.update((target.id, node) for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in (node.targets
                                       if isinstance(node, ast.Assign)
                                       else [node.target])
                        if isinstance(target, ast.Name))
            imports = {alias.asname or alias.name:
                       (importlib.util.resolve_name(
                           "." * node.level + (node.module or ""),
                           mod.__package__), alias.name)
                       for node in tree.body
                       if isinstance(node, ast.ImportFrom) and (
                           node.level or node.module.partition(".")[0]
                           == "chevorbit")
                       for alias in node.names}
            trees[name] = defs, imports
        return trees[name]

    names, seen, todo = set(), set(), [(module.__name__, start)]
    while todo:
        where, what = todo.pop()
        if (where, what) in seen:
            continue
        seen.add((where, what))
        defs, imports = defs_of(where)
        if what not in defs:  # a name imported again, from a third module
            todo.append(imports[what])
            continue
        for found in run_time_names(defs[what]):
            names.add(found)
            if found in defs:
                todo.append((where, found))
            elif found in imports:
                todo.append(imports[found])
    return names
