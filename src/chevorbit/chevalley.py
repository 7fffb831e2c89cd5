"""Chevalley structure constants for simply-laced systems, two independent ways.

For a simply-laced system every constant N(alpha, beta) with alpha + beta a
root is +-1.  This module computes the whole table by constraint propagation
from a small set of normalization seeds, and separately by a closed-form sign
rule plus a recursive peeling reduction.  The two paths share only the root
system, so agreement between them is a meaningful cross-check, and both are
validated against the defining identities and the Jacobi identity of the
resulting bracket.

The identities used (all specialized to the simply-laced case, where defined
constants are units):

* antisymmetry family:  N(a,b) = -N(b,a) = N(-b,-a) = -N(-a,-b)
* zero-sum rotation:    N(a,b) = N(b,c) = N(c,a)      when a + b + c = 0
* associativity:        N(b,c) N(a,b+c) = N(a+b,c) N(a,b)
                        whenever a+b, b+c and a+b+c are all roots
* normalization seeds:  N(alpha_j, g - alpha_j) = +1 for every positive
                        non-simple root g, with j the smallest index such
                        that g - alpha_j is a root

The propagation works on the quotient of defined pairs by the group generated
by the first two identity families.  Every orbit has exactly 12 pairs, in
closed form: with c = -a - b, the ordered pairs of distinct elements of
{a, b, c} and of {-a, -b, -c} (see build_table_oracle).  The associativity
instances then become product-of-four relations on canonical
representatives, solved to a fixpoint with vectorized rounds.  A final
exhaustive re-check of every instance guards against scatter conflicts.

jacobi_check evaluates basis triples with array gathers: every bracket of
two basis elements is tabulated once per check, so each double bracket
[a, [b, c]] is two gathers, in batches of at most 2**14 triples.  It checks
every x < y < z when the basis has at most 80 elements (A1-A8, D4-D6, E6)
and 10**5 triples of distinct keys drawn from random.Random(seed) otherwise;
the tests run it exhaustively on all 16 systems.  _jacobi_defect is the
scalar reference the tests compare it against.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .rootsys import (
    NotAPositiveRoot,
    NotARoot,
    Root,
    RootSystem,
    min_subtractable_index,
    simple_index,
)


class UndefinedPair(ValueError):
    """N(alpha, beta) is only defined when alpha + beta is a root."""


class InconsistentTable(RuntimeError):
    """The propagated constants violate one of the defining identities."""


class UnderdeterminedTable(RuntimeError):
    """Propagation finished with some constants still unknown."""


class JacobiViolation(RuntimeError):
    """The bracket built from the table fails the Jacobi identity."""


# -- closed-form path ------------------------------------------------------


def sign_rule(rs: RootSystem, i: int, beta) -> int:
    """N(alpha_i, beta) for positive beta with alpha_i + beta a root.

    The constant is -1 exactly when i exceeds every index in the support
    of beta, and +1 otherwise.
    """
    beta = tuple(beta)
    if not rs.is_positive(beta):
        raise NotAPositiveRoot(f"{beta} is not a positive root of {rs.name}")
    s = rs.add(rs.simple(i), beta)
    if not rs.is_root(s):
        raise UndefinedPair(f"alpha_{i} + {beta} is not a root of {rs.name}")
    top = max(j for j, c in enumerate(beta, start=1) if c)
    return -1 if i > top else 1


def structure_constant_fast(rs: RootSystem, alpha, beta, memo: dict | None = None) -> int:
    """N(alpha, beta) by sign rule plus recursive peeling; no table needed.

    Mixed-sign pairs are first rewritten into pairs of positive roots using
    the antisymmetry and zero-sum identities; a positive non-simple first
    argument is then peeled at its smallest subtractable index, which lowers
    its height until the sign rule applies directly.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    for r in (alpha, beta):
        if not rs.is_root(r):
            raise NotARoot(f"{r} is not a root of {rs.name}")
    if not rs.is_root(rs.add(alpha, beta)):
        raise UndefinedPair(f"{alpha} + {beta} is not a root of {rs.name}")
    if memo is None:
        memo = {}
    return _fast(rs, alpha, beta, memo)


def _fast(rs: RootSystem, a: Root, b: Root, memo: dict) -> int:
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    s = rs.add(a, b)
    if not rs.is_positive(a):
        if not rs.is_positive(b):
            r = -_fast(rs, rs.neg(a), rs.neg(b), memo)
        elif rs.is_positive(s):
            # N(a,b) = N(-a, a+b) via the zero-sum rotation of (-a, s, -b)
            r = _fast(rs, rs.neg(a), s, memo)
        else:
            # N(a,b) = N(b, -a-b) via the rotation of (b, -s, -a)
            r = _fast(rs, b, rs.neg(s), memo)
    elif not rs.is_positive(b):
        r = -_fast(rs, b, a, memo)
    else:
        i = simple_index(a)
        if i is not None:
            r = sign_rule(rs, i, b)
        else:
            j = min_subtractable_index(rs, a)
            aj = rs.simple(j)
            ap = rs.sub(a, aj)
            apb = rs.add(ap, b)
            if rs.is_root(apb):
                # associativity instance (alpha_j, ap, b)
                r = sign_rule(rs, j, ap) * sign_rule(rs, j, apb) * _fast(rs, ap, b, memo)
            else:
                ajb = rs.add(aj, b)
                if not rs.is_root(ajb):
                    raise AssertionError(
                        "peeling dichotomy failed: neither ap+b nor alpha_j+b is a root"
                    )
                # associativity instance (ap, alpha_j, b)
                r = -sign_rule(rs, j, ap) * sign_rule(rs, j, b) * _fast(rs, ap, ajb, memo)
    memo[key] = r
    return r


# -- propagation oracle ----------------------------------------------------


def _sum_table(rs: RootSystem) -> np.ndarray:
    """sum_id[i, j] = root id of roots[i] + roots[j], or -1 if not a root.

    For roots of equal length, a + b is a root exactly when <a, b> == -1.
    """
    r = np.array(rs.roots, dtype=np.int64)
    i, j = np.nonzero(r @ np.array(rs.cartan) @ r.T == -1)
    sum_id = np.full((len(r), len(r)), -1, dtype=np.int64)
    sum_id[i, j] = [rs.root_id(s) for s in map(tuple, (r[i] + r[j]).tolist())]
    return sum_id


class StructureConstantTable:
    """Dense table of N(alpha, beta) with bracket plumbing on basis keys.

    Basis keys: ints 0..n-1 are the root vectors e_{roots[i]} in the global
    root order, keys n..n+rank-1 are the Cartan generators h_1..h_rank.
    """

    def __init__(self, rs: RootSystem, nt: np.ndarray, sum_id: np.ndarray,
                 neg_id: np.ndarray, instances: np.ndarray, stats: dict):
        self.rs = rs
        self._nt = nt
        self._sum = sum_id
        self._neg = neg_id
        self._instances = instances  # (4, I) flat pair indices, raw
        self.stats = stats
        # derived per-table data (see table_cached); freed with the table
        self.memo: dict = {}
        self._n = len(rs.roots)
        # plain-list mirrors: scalar indexing of ndarrays is slow in the
        # per-key loops of bracket_keys and liemod
        self._nt_list = nt.tolist()
        self._sum_list = sum_id.tolist()
        self._neg_list = neg_id.tolist()
        # _sp[t - 1][j] = <alpha_t, roots[j]>
        self._sp = (np.array(rs.roots) @ np.array(rs.cartan)).T.tolist()

    # -- sizes and keys ----------------------------------------------------

    @property
    def n_roots(self) -> int:
        return self._n

    @property
    def n_basis(self) -> int:
        return self._n + self.rs.rank

    def e_key(self, root) -> int:
        return self.rs.root_id(tuple(root))

    def h_key(self, t: int) -> int:
        """Key of h_t, 1-based t."""
        if not 1 <= t <= self.rs.rank:
            raise ValueError(f"no Cartan generator h_{t} in rank {self.rs.rank}")
        return self._n + t - 1

    # -- constants ---------------------------------------------------------

    def nv(self, i: int, j: int) -> int:
        """N over root ids; 0 when undefined."""
        return self._nt_list[i][j]

    def structure_constant(self, alpha, beta) -> int:
        alpha = tuple(alpha)
        beta = tuple(beta)
        i = self.rs.root_id(alpha)
        j = self.rs.root_id(beta)
        v = self._nt_list[i][j]
        if v == 0:
            raise UndefinedPair(f"{alpha} + {beta} is not a root of {self.rs.name}")
        return v

    def defined_pairs(self) -> np.ndarray:
        """(P, 2) array of root-id pairs with alpha + beta a root."""
        return np.argwhere(self._sum >= 0)

    # -- bracket on basis keys ----------------------------------------------

    def bracket_keys(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """[basis_i, basis_j] as a tuple of (key, integer coefficient)."""
        n = self._n
        if i >= n:
            if j >= n:
                return ()
            c = self._sp[i - n][j]
            return ((j, c),) if c else ()
        if j >= n:
            c = self._sp[j - n][i]
            return ((i, -c),) if c else ()
        s = self._sum_list[i][j]
        if s >= 0:
            return ((s, self._nt_list[i][j]),)
        if self._neg_list[i] == j:
            # [e_a, e_{-a}] = h_a expanded over the Cartan generators
            r = self.rs.roots[i]
            return tuple((n + t, c) for t, c in enumerate(r) if c)
        return ()


def table_cached(fn):
    """Memoize fn(table, *args) in table.memo, so an entry lives exactly as
    long as its table; a module-level cache keyed on tables would keep every
    table alive."""

    @functools.wraps(fn)
    def cached(table, *args):
        key = (fn, *args)
        try:
            return table.memo[key]
        except KeyError:
            value = table.memo[key] = fn(table, *args)
            return value

    return cached


def build_table_oracle(rs: RootSystem) -> StructureConstantTable:
    """Solve for all constants from the normalization seeds by propagation.

    The pair orbits are in closed form.  For a defined pair (a, b) put
    c = -a - b.  The antisymmetry and rotation identities are the action of
    the order-12 group that permutes a, b, c and negates all three, so the
    orbit of (a, b) is the 12 pairs

        +1:  (a,b) (b,c) (c,a) (-b,-a) (-a,-c) (-c,-b)
        -1:  (b,a) (c,b) (a,c) (-a,-b) (-b,-c) (-c,-a)

    each with value sign * N(a, b).  The six roots +-a, +-b, +-c are
    pairwise distinct: a != b because 2a is not a root, a != -b because
    a + b != 0, a = -c or b = -c would make b or a zero, and a = c or b = c
    would make b = -2a or a = -2b a root.  So the group acts freely, every
    orbit has exactly 12 pairs, and no pair is reached with two signs.  The
    canonical pair of an orbit is the one with the least flat index.
    """
    n = len(rs.roots)
    sum_id = _sum_table(rs)
    neg_id = np.array([rs.root_id(rs.neg(r)) for r in rs.roots],
                      dtype=np.int64)

    # quotient of defined pairs by the antisymmetry + rotation group;
    # stored sign means value(pair) == sign * value(canonical pair)
    defined = sum_id >= 0
    a, b = np.nonzero(defined)
    ab = sum_id[a, b]
    c = neg_id[ab]
    x = np.stack([a, b, c, neg_id[b], neg_id[a], neg_id[c]])
    y = np.stack([b, c, a, neg_id[a], neg_id[c], neg_id[b]])
    images = np.concatenate([x * n + y, y * n + x])  # (12, P), signs + then -
    first = images.argmin(axis=0)
    pflat = images[0]
    canon_flat = np.full(n * n, -1, dtype=np.int64)
    canon_flat[pflat] = images[first, np.arange(pflat.size)]
    rel_sign = np.zeros(n * n, dtype=np.int8)
    rel_sign[pflat] = np.where(first < 6, 1, -1)

    # associativity instances (a, b, c): a+b, b+c, a+b+c all roots
    i, cs = np.nonzero(defined[b] & defined[ab])
    flat = np.stack([b[i] * n + cs, a[i] * n + sum_id[b[i], cs],
                     ab[i] * n + cs, pflat[i]])  # (4, I)
    unknowns = canon_flat[flat]
    rel_prod = rel_sign[flat].astype(np.int16).prod(axis=0).astype(np.int8)

    # seeds
    val = np.zeros(n * n, dtype=np.int8)
    zero = (0,) * rs.rank
    n_seeds = 0
    for g in rs.positive_roots:
        j = min_subtractable_index(rs, g)
        rest = rs.sub(g, rs.simple(j))
        if rest == zero:
            continue
        f = rs.root_id(rs.simple(j)) * n + rs.root_id(rest)
        val[canon_flat[f]] = rel_sign[f]
        n_seeds += 1

    # propagation rounds: rows with exactly one unknown pin it
    rounds = 0
    while unknowns.shape[1]:
        v = val[unknowns]  # (4, I)
        open_mask = v == 0
        cnt = open_mask.sum(axis=0)
        rows = np.nonzero(cnt == 1)[0]
        if rows.size == 0:
            break
        rounds += 1
        vr = v[:, rows]
        prod = np.where(vr == 0, 1, vr).astype(np.int16).prod(axis=0)
        prod = (prod * rel_prod[rows]).astype(np.int8)
        tgt = unknowns[open_mask[:, rows].argmax(axis=0), rows]
        val[tgt] = prod

    # resolve all pairs and check completeness
    resolved = rel_sign[pflat] * val[canon_flat[pflat]]
    if np.any(resolved == 0):
        raise UnderdeterminedTable(
            f"{int(np.sum(resolved == 0))} constants left unknown in {rs.name}"
        )
    nt_flat = np.zeros(n * n, dtype=np.int8)
    nt_flat[pflat] = resolved
    nt = nt_flat.reshape(n, n)

    # exhaustive instance re-check guards against scatter conflicts
    w = nt_flat[flat].astype(np.int16)
    if not np.all(w[0] * w[1] == w[2] * w[3]):
        raise InconsistentTable(
            f"associativity violated after propagation in {rs.name}"
        )

    stats = {
        "roots": n,
        "defined_pairs": int(pflat.size),
        "pair_orbits": int(np.count_nonzero(first == 0)),  # canonical pairs
        "instances": int(flat.shape[1]),
        "seeds": n_seeds,
        "rounds": rounds,
    }
    return StructureConstantTable(rs, nt, sum_id, neg_id, flat, stats)


# -- verification ----------------------------------------------------------


def verify_table(table: StructureConstantTable) -> dict:
    """Re-check every defining identity on the finished table.

    Raises InconsistentTable on any violation; returns check counts.
    """
    rs = table.rs
    n = table.n_roots
    nt = table._nt
    sum_id = table._sum
    neg = table._neg
    defined = sum_id >= 0

    if not np.array_equal(defined, defined.T):
        raise InconsistentTable("defined-pair mask is not symmetric")
    if np.any(nt[~defined] != 0) or np.any(nt[defined] == 0):
        raise InconsistentTable("support of the table does not match defined pairs")

    aa, bb = np.nonzero(defined)
    ss = sum_id[aa, bb]
    v = nt[aa, bb].astype(np.int16)
    checks = {
        "antisymmetry": np.array_equal(v, -nt[bb, aa]),
        "negated_pair": np.array_equal(v, -nt[neg[aa], neg[bb]]),
        "reversed_negated_pair": np.array_equal(v, nt[neg[bb], neg[aa]]),
        "rotation_1": np.array_equal(v, nt[bb, neg[ss]]),
        "rotation_2": np.array_equal(v, nt[neg[ss], aa]),
    }
    flat = table._instances
    if flat.shape[1]:
        w = nt.reshape(-1)[flat].astype(np.int16)
        checks["associativity"] = bool(np.all(w[0] * w[1] == w[2] * w[3]))
    else:
        checks["associativity"] = True

    zero = (0,) * rs.rank
    seeds_ok = True
    n_seeds = 0
    for g in rs.positive_roots:
        j = min_subtractable_index(rs, g)
        rest = rs.sub(g, rs.simple(j))
        if rest == zero:
            continue
        n_seeds += 1
        if table.structure_constant(rs.simple(j), rest) != 1:
            seeds_ok = False
    checks["seeds"] = seeds_ok

    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise InconsistentTable(f"{rs.name}: identity checks failed: {bad}")
    return {
        "defined_pairs": int(aa.size),
        "instances": int(flat.shape[1]),
        "seeds": n_seeds,
    }


def _jacobi_defect(table: StructureConstantTable, x: int, y: int, z: int) -> dict:
    """Coefficients of [x,[y,z]] + [y,[z,x]] + [z,[x,y]] over the basis.

    The scalar reference for the vectorized check below; jacobi_check uses
    it only to describe a failing triple."""
    acc: dict[int, int] = {}
    bk = table.bracket_keys
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for k1, c1 in bk(b, c):
            for k2, c2 in bk(a, k1):
                acc[k2] = acc.get(k2, 0) + c1 * c2
    return {k: v for k, v in acc.items() if v}


_JACOBI_CHUNK = 1 << 14  # triples per gather batch: bounds the check's memory


def _bracket_arrays(table: StructureConstantTable) -> tuple:
    """The bracket as gather tables over slots, for _jacobi_fails.

    Every bracket of two basis elements, and of a basis element with such a
    bracket, is one multiple of a slot: e_r (slot r), the coroot
    h_r = sum_t r_t h_t of a root r (slot n + r), or zero (slot 2n).
    Returns (out, coef, inner, inner_c, hroot, n):
    [basis_a, slot s] = coef[a, s] * slot out[a, s];
    [basis_b, basis_c] = inner_c[b, c] * slot inner[b, c];
    hroot[s] is the root of an h slot and 0 for the others.
    """
    rs = table.rs
    n, rank = table.n_roots, rs.rank
    zero = 2 * n
    roots = np.array(rs.roots, dtype=np.int64)
    pairing = roots @ np.array(rs.cartan, dtype=np.int64) @ roots.T
    ids = np.arange(n)
    simple = np.array([rs.root_id(rs.simple(t)) for t in range(1, rank + 1)])
    out = np.full((n + rank, zero + 1), zero, dtype=np.intp)
    coef = np.zeros((n + rank, zero + 1), dtype=np.int64)
    a, b = np.nonzero(table._sum >= 0)
    out[a, b] = table._sum[a, b]  # [e_a, e_b] = N(a, b) e_{a+b}
    coef[a, b] = table._nt[a, b]
    out[ids, table._neg] = n + ids  # [e_a, e_-a] = h_a
    coef[ids, table._neg] = 1
    out[:n, n:zero] = ids[:, None]  # [e_a, h_r] = -<a, r> e_a
    coef[:n, n:zero] = -pairing
    out[n:, :n] = ids  # [h_t, e_b] = <alpha_t, b> e_b; [h, h] = 0
    coef[n:, :n] = pairing[simple]
    slot = np.concatenate([ids, n + simple])  # h_t is the coroot of alpha_t
    hroot = np.zeros((zero + 1, rank), dtype=np.int64)
    hroot[n:zero] = roots
    return out, coef, out[:, slot], coef[:, slot], hroot, n


def _jacobi_fails(brackets: tuple, x: np.ndarray, y: np.ndarray,
                  z: np.ndarray) -> np.ndarray:
    """Per triple of basis keys, whether [x,[y,z]] + [y,[z,x]] + [z,[x,y]]
    is nonzero: each double bracket is one multiple of a slot, the e-slots
    must cancel slot by slot and the h-slots must sum to the zero coroot."""
    out, coef, inner, inner_c, hroot, n = brackets
    terms = []
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        s = inner[b, c]
        terms.append((out[a, s], inner_c[b, c] * coef[a, s]))
    (s0, c0), (s1, c1), (s2, c2) = terms
    e0, e1, e2 = (np.where(s < n, c, 0) for s, c in terms)
    eq01, eq02, eq12 = s0 == s1, s0 == s2, s1 == s2
    bad = ((e0 + eq01 * e1 + eq02 * e2 != 0)
           | (e1 + eq01 * e0 + eq12 * e2 != 0)
           | (e2 + eq02 * e0 + eq12 * e1 != 0))
    # only the few triples with a nonzero h-term need the coroot sum
    rows = np.flatnonzero((c0 != e0) | (c1 != e1) | (c2 != e2))
    h = sum(hroot[s[rows]] * c[rows, None] for s, c in terms)
    bad[rows] |= h.any(axis=1)
    return bad


def _all_triples(m: int):
    """Chunks of x < y < z in lexicographic order, one x at a time."""
    ys, zs = np.triu_indices(m, 1)  # y < z, ordered by y then z
    for x in range(m - 2):
        first = int(np.searchsorted(ys, x + 1))
        for lo in range(first, ys.size, _JACOBI_CHUNK):
            y, z = ys[lo:lo + _JACOBI_CHUNK], zs[lo:lo + _JACOBI_CHUNK]
            yield np.full(y.size, x), y, z


def _sampled_triples(m: int, samples: int, seed: int):
    """Chunks of `samples` triples of distinct keys drawn from
    random.Random(seed): three 64-bit words per triple, reduced mod m,
    m - 1 and m - 2 and shifted past the keys already used."""
    rng = random.Random(seed)
    for lo in range(0, samples, _JACOBI_CHUNK):
        size = min(_JACOBI_CHUNK, samples - lo)
        w = np.frombuffer(rng.randbytes(24 * size), dtype="<u8").reshape(size, 3)
        x = (w[:, 0] % m).astype(np.intp)
        y = (w[:, 1] % (m - 1)).astype(np.intp)
        z = (w[:, 2] % (m - 2)).astype(np.intp)
        y += y >= x
        z += z >= np.minimum(x, y)
        z += z >= np.maximum(x, y)
        yield x, y, z


def jacobi_check(table: StructureConstantTable, exhaustive_limit: int = 80,
                 samples: int = 100_000, seed: int = 1729) -> dict:
    """Check the Jacobi identity over basis triples.

    The bracket is antisymmetric by construction once the table passes
    verify_table, so triples of distinct keys suffice.  With at most
    exhaustive_limit basis elements every x < y < z is checked; otherwise
    `samples` triples of distinct keys drawn from random.Random(seed).
    Triples are evaluated as array gathers on the bracket tables of
    _bracket_arrays, at most 2**14 at a time, so memory does not grow with
    `samples`.  Raises JacobiViolation on the first failing triple in draw
    order, ValueError when samples is negative.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    m = table.n_basis
    if m <= exhaustive_limit:
        chunks = _all_triples(m)
        mode = "exhaustive"
        count = m * (m - 1) * (m - 2) // 6
    else:
        chunks = _sampled_triples(m, samples, seed)
        mode = "sampled"
        count = samples
    brackets = _bracket_arrays(table)
    for x, y, z in chunks:
        bad = np.flatnonzero(_jacobi_fails(brackets, x, y, z))
        if bad.size:
            i = bad[0]
            triple = (int(x[i]), int(y[i]), int(z[i]))
            raise JacobiViolation(
                f"{table.rs.name}: Jacobi fails on basis triple {triple}: "
                f"{_jacobi_defect(table, *triple)}"
            )
    return {"mode": mode, "triples": count}
