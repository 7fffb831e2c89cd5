"""Chevalley structure constants for simply-laced systems, two independent ways.

For a simply-laced system every constant N(alpha, beta) with alpha + beta a
root is +-1.  This module computes the whole table by constraint propagation
from a small set of normalization seeds, and separately by a closed-form sign
rule plus a recursive peeling reduction, evaluated once per root system as
a table filled by increasing height of the first root (closed_form_table;
structure_constant_fast reads it, kept in the caller's memo after the first
call).  Both run on root ids and share
only facts about the root system, the tables of rs.ids: the sum id of every
pair (which sums are roots, checked against the coefficient vectors when
the tables are built), negation, the simple roots, and per positive root its
simple index, least subtractable index and support top.  The closed form
reads no constant of the propagated table and the propagation none of the
closed form, so agreement between them is a meaningful cross-check, and
both are validated against the defining identities and the Jacobi identity
of the resulting bracket.

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
representatives.  With d = -a-b-c an instance is the zero-sum 4-cycle
(a, b, c, d) and its relation is N(a,b) N(c,d) = N(b,c) N(d,a); the order-16
group of the cycle's rotations, reversal and negation acts freely on the
instances and keeps the relation, so the oracle solves it to a fixpoint with
vectorized rounds over one instance per class, and re-checks those rows to
guard against scatter conflicts.  verify_table re-checks every instance,
regenerated from the defined-pair mask in bounded chunks.  Every sweep of
an n x n root mask goes through rootsys.mask_pairs, one flat search.

jacobi_check evaluates basis triples with array gathers: every bracket of
two basis elements is tabulated once per check, in flat int16 tables that
pack a slot and its coefficient in one entry, so each double bracket
[a, [b, c]] is two gathers, in batches of 2**14 triples.  By default it
checks every x < y < z when the basis has at most 80 elements (A1-A8,
D4-D6, E6), and otherwise 10**5 triples of distinct keys, drawn as 32-bit
words from random.Random(seed); the tests run it exhaustively on all 16
systems.  _jacobi_defect is the scalar reference the tests compare it
against.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .rootsys import (
    InternalError,
    NotAPositiveRoot,
    RootIds,
    RootSystem,
    SystemTooLarge,
    as_int,
    mask_pairs,
)


class UndefinedPair(ValueError):
    """N(alpha, beta) is only defined when alpha + beta is a root."""


class InconsistentTable(RuntimeError):
    """The propagated constants violate one of the defining identities; from
    verify_table, failed names them and counts holds its counts (both None
    for a table refused as a whole, by its mask or its support)."""

    def __init__(self, message: str, failed=None, counts=None):
        super().__init__(message)
        self.failed, self.counts = failed, counts


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
    i, beta = as_int(i), tuple(beta)
    if not rs.is_positive(beta):
        raise NotAPositiveRoot(f"{beta} is not a positive root of {rs.name}")
    b = rs.root_id(beta)
    if rs.ids.sum_id[rs.root_id(rs.simple(i)), b] < 0:
        raise UndefinedPair(f"alpha_{i} + {beta} is not a root of {rs.name}")
    return -1 if i > rs.ids.top[b] else 1


def structure_constant_fast(rs: RootSystem, alpha, beta, memo: dict | None = None) -> int:
    """N(alpha, beta) by sign rule plus recursive peeling, no oracle table.

    The value is read from closed_form_table, which fills every defined
    pair of the root system at once.  memo, shared by calls on the same root
    system, holds that table after the first call, so each later call is
    one id read per root and one entry read (0: no defined pair);
    memo=None builds the table for this call alone, which takes about
    1.5 ms on E8.  NotARoot and UndefinedPair are raised before any table
    is built.
    """
    try:
        v = memo[closed_form_table][rs._index[alpha]][rs._index[beta]]
        if v:
            return v
    except (KeyError, TypeError):  # no table yet, a non-root, or a list
        pass
    alpha, beta = tuple(alpha), tuple(beta)
    a, b = rs.root_id(alpha), rs.root_id(beta)
    if rs.ids.sum_id[a, b] < 0:
        raise UndefinedPair(f"{alpha} + {beta} is not a root of {rs.name}")
    if memo is None:
        memo = {}
    table = memo.get(closed_form_table)
    if table is None:
        table = memo[closed_form_table] = closed_form_table(rs).tolist()
    return table[a][b]


def closed_form_table(rs: RootSystem) -> np.ndarray:
    """N over root ids by sign rule plus recursive peeling: an (n, n) int8
    array, 0 on the pairs that sum to no root.

    Read from rs.ids alone, in three steps, with t(x) the greatest index in
    the support of a positive root x:

    1. a pair of positive roots whose first root alpha_i is simple takes
       the sign rule, N(alpha_i, b) = -1 exactly when i > t(b);
    2. a positive non-simple first root a is peeled at its least
       subtractable index j, a = alpha_j + a', and with s(x) = -1 when
       j > t(x), else +1, the associativity instances (alpha_j, a', b) and
       (a', alpha_j, b) give

           N(a, b) = s(a') s(a' + b) N(a', b)            if a' + b is a root,
           N(a, b) = -s(a') s(b) N(a', alpha_j + b)      otherwise,

       where alpha_j + b is then a root (InternalError if it is not).  a'
       has one height less than a, so the pairs of positive roots are
       filled in rounds, one height of a per round;
    3. every other pair reduces to a pair of positive roots: N(a, b) =
       -N(b, a) for a positive and b negative, then N(a, b) = -N(-a, -b)
       when both are negative, N(a, b) = N(-a, a + b) when a + b is
       positive (the rotation of (-a, a + b, -b)), and N(a, b) =
       N(b, -a - b) otherwise (that of (b, -a - b, -a)).
    """
    ids = rs.ids
    sum_id, neg = ids.sum_id, ids.neg_id
    n, h = len(neg), len(ids.top)
    top, j = ids.top, ids.least_sub
    aj = ids.simple_ids[j - 1]
    peel = sum_id[np.arange(h), neg[aj]]  # a - alpha_j, or -1 for simple a
    positive = sum_id[:h, :h] >= 0
    nt = np.zeros((n, n), dtype=np.int8)

    # the sign rule: the least subtractable index of alpha_i is i
    done = peel < 0
    rows = np.flatnonzero(done)
    i, b = mask_pairs(positive[rows])
    a = rows[i]
    nt[a, b] = np.where(j[a] > top[b], -1, 1)
    while not done.all():
        # the roots a whose a' is filled, one height up (a simple root's
        # peel -1 reads done[-1], but simple roots are filled already)
        rows = np.flatnonzero(~done & done[peel])
        if rows.size == 0:
            raise InternalError("peeling reaches no simple root")
        done[rows] = True
        i, b = mask_pairs(positive[rows])
        a = rows[i]
        ja, ap = j[a], peel[a]
        apb = sum_id[ap, b]
        first = apb >= 0
        c = np.where(first, b, sum_id[aj[a], b])  # N(a', c) gives N(a, b)
        if np.any(c < 0):
            raise InternalError(
                "peeling dichotomy failed: neither ap+b nor alpha_j+b is a root"
            )
        flip = ~first ^ (ja > top[ap]) ^ (ja > top[np.where(first, apb, b)])
        nt[a, b] = np.where(flip, -1, 1) * nt[ap, c]

    a0, b0 = mask_pairs(sum_id >= 0)
    s = sum_id[a0, b0]
    turn = (a0 < h) & (b0 >= h)
    a, b = np.where(turn, b0, a0), np.where(turn, a0, b0)
    both = b >= h
    up = (a >= h) & ~both & (s < h)
    down = (a >= h) & ~both & ~up
    x = np.select([both | up, down], [neg[a], b], a)
    y = np.select([both, up, down], [neg[b], s, neg[s]], b)
    nt[a0, b0] = np.where(turn | both, -1, 1) * nt[x, y]
    return nt


# -- propagation oracle ----------------------------------------------------


def _seeds(ids: RootIds) -> tuple[np.ndarray, np.ndarray]:
    """Root ids (alpha_j, g - alpha_j) of the normalization seeds: one per
    positive non-simple root g, with j its least subtractable index."""
    g = np.flatnonzero(ids.simple_of == 0)
    aj = ids.simple_ids[ids.least_sub[g] - 1]
    return aj, ids.sum_id[g, ids.neg_id[aj]]


_INSTANCE_CHUNK = 1 << 18  # mask entries per chunk: bounds an instance sweep


def _instances(sum_id: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The associativity instances (a, b, c) over the given defined pairs
    (a, b), in that order and then by c: every c with b + c and a + b + c
    roots.  Yields them as chunks of three int64 arrays, each chunk tested
    on a mask of at most 2**18 entries (at least one pair), so the sweep
    holds no array that grows with the instance count."""
    defined = sum_id >= 0
    step = max(1, _INSTANCE_CHUNK // len(sum_id))
    for lo in range(0, a.size, step):
        x, y = a[lo:lo + step], b[lo:lo + step]
        i, c = mask_pairs(defined[y] & defined[sum_id[x, y]])
        yield x[i], y[i], c


def _rows(sum_id: np.ndarray, a: np.ndarray, b: np.ndarray,
          c: np.ndarray) -> np.ndarray:
    """The flat pair indices (4, m) of instances (a, b, c): the pairs
    (b, c), (a, b+c), (a+b, c), (a, b), whose constants N0..N3 satisfy
    N0 N1 == N2 N3, each read from the flat sum table at the flat index of
    its pair.  Sum ids are widened to int64 before they multiply."""
    n = len(sum_id)
    flat = sum_id.reshape(-1)
    ab, bc = a * n + b, b * n + c
    return np.stack([bc, a * n + flat[bc], flat[ab].astype(np.int64) * n + c,
                     ab])


def _representatives(ids: RootIds) -> np.ndarray:
    """One associativity instance (a, b, c) per class of 16, as a (3, I / 16)
    int64 array (see build_table_oracle): a the least id of the cycle's
    eight roots, so positive, and b < d."""
    sum_id, neg_id, h = ids.sum_id, ids.neg_id, len(ids.simple_of)
    a, b = mask_pairs(sum_id >= 0)
    lead = (a < h) & (b % h > a)
    reps = [np.zeros((3, 0), dtype=np.int64)]
    for x, y, z in _instances(sum_id, a[lead], b[lead]):
        d = neg_id[sum_id[sum_id[x, y], z]]
        keep = (z % h > x) & (d % h > x) & (y < d)
        reps.append(np.stack([x[keep], y[keep], z[keep]]))
    return np.concatenate(reps, axis=1)


class StructureConstantTable:
    """Dense table of N(alpha, beta) with bracket plumbing on basis keys.

    Basis keys: ints 0..n-1 are the root vectors e_{roots[i]} in the global
    root order, keys n..n+rank-1 are the Cartan generators h_1..h_rank.
    The constants are one (n, n) int8 array, and the sum and negation
    tables are the root system's own (rs.ids), not copies; the scalar
    readers return Python ints.
    """

    def __init__(self, rs: RootSystem, nt: np.ndarray, stats: dict):
        self.rs = rs
        self._nt = nt
        self._sum, self._neg = rs.ids.sum_id, rs.ids.neg_id
        self.stats = stats
        # derived per-table data (see table_cached); freed with the table
        self.memo: dict = {}
        self.n_roots = len(rs.roots)
        self.n_basis = self.n_roots + rs.rank

    # -- keys --------------------------------------------------------------

    def e_key(self, root) -> int:
        return self.rs.root_id(tuple(root))

    def h_key(self, t: int) -> int:
        """Key of h_t, 1-based t."""
        return self.n_roots + as_int(t, "t", 1, self.rs.rank + 1) - 1

    # -- constants ---------------------------------------------------------

    def nv(self, i: int, j: int) -> int:
        """N over root ids; 0 when undefined."""
        return self._nt.item(i, j)

    def structure_constant(self, alpha, beta) -> int:
        alpha = tuple(alpha)
        beta = tuple(beta)
        i = self.rs.root_id(alpha)
        j = self.rs.root_id(beta)
        v = self._nt.item(i, j)
        if v == 0:
            raise UndefinedPair(f"{alpha} + {beta} is not a root of {self.rs.name}")
        return v

    def defined_pairs(self) -> np.ndarray:
        """(P, 2) array of root-id pairs with alpha + beta a root."""
        return np.stack(mask_pairs(self._sum >= 0), axis=1)

    # -- bracket on basis keys ----------------------------------------------

    def bracket_keys(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """[basis_i, basis_j] as a tuple of (key, integer coefficient)."""
        n = self.n_roots
        if i >= n:
            if j >= n:
                return ()
            c = self.rs.simple_pairs[j][i - n]
            return ((j, c),) if c else ()
        if j >= n:
            c = self.rs.simple_pairs[i][j - n]
            return ((i, -c),) if c else ()
        s = self._sum.item(i, j)
        if s >= 0:
            return ((s, self._nt.item(i, j)),)
        if self._neg[i] == j:
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

    The associativity instances are the (a, b, c) with a+b, b+c and a+b+c
    roots.  Put d = -a-b-c.  The rotation identity on the zero-sum triples
    (a, b+c, d) and (a+b, c, d) gives N(a, b+c) = N(d, a) and
    N(a+b, c) = N(c, d), so each instance says

        N(a,b) N(c,d) = N(b,c) N(d,a),

    and the instances are exactly the zero-sum 4-cycles (a, b, c, d) of
    roots whose neighbours sum to roots (c+d = -(a+b), d+a = -(b+c)).  The
    cycle's 4 rotations, its reversal (d, c, b, a) and its negation
    (-a, -b, -c, -d) generate a group of order 16 that maps such cycles to
    such cycles, and every instance is one cycle.

    The group acts freely.  The eight roots +-a, +-b, +-c, +-d are pairwise
    distinct: neighbours x, y are neither equal nor opposite, as x + y is a
    root and neither 2x nor 0 is; a = c would make a+b+c = 2a+b a root of
    squared length 8 - 4 + 2 = 6, as <a, b> = -1; a = -c would need
    <a, b> = -1 for a+b and <a, b> = +1 for b+c = b-a to be roots; and the
    same holds for b and d by rotation.  A nontrivial element negates (and
    moves a to one of -a, -b, -c, -d), or moves the first place to b, c or d,
    or is the reflection (a, d, c, b), which moves b to d.  So no element
    fixes a cycle, and every class has exactly 16 instances.

    Every instance of a class gives the same equation.  The row of (a, b, c)
    is the pairs (b,c), (a,b+c), (a+b,c), (a,b); with the stored signs,
    N(pair) = rel_sign[pair] * val[canonical pair], and as the constants are
    units the row says that the product of val over its four canonical
    pairs is the product of their four rel_signs.  (a, b+c) lies in the
    orbit of (d, a) and (a+b, c) in that of (c, d), each with the same sign,
    so the row's canonical pairs and sign product are those of the four
    edges (a,b), (b,c), (c,d), (d,a) of its cycle.  A rotation permutes the
    edges; reversal turns each edge (x, y) into (y, x) and negation into
    (-x, -y), each the same orbit with the opposite sign, four flips in all.
    So the rows of a class have one multiset of canonical unknowns and one
    sign product: in every round they are open together and pin the same
    value.  Propagating over one row per class therefore gives the values
    and the round count of propagating over all rows, and the re-check of
    those rows on the finished table, whose pairs are filled from the
    canonical values by rel_sign, checks every instance.

    The rows of a class that start at a given root x are (x, y, z, w) and
    (x, w, z, y), for each of the eight roots.  The representative starts at
    the least id of the eight, which is positive (negatives follow the
    positives, so x % h is the id of the positive one of +-x), and has
    b < d.  stats["instances"] counts all instances, 16 per representative.
    """
    n = len(rs.roots)
    sum_id, neg_id = rs.ids.sum_id, rs.ids.neg_id

    # quotient of defined pairs by the antisymmetry + rotation group;
    # stored sign means value(pair) == sign * value(canonical pair)
    a, b = mask_pairs(sum_id >= 0)
    c = neg_id[sum_id[a, b]]
    x = np.stack([a, b, c, neg_id[b], neg_id[a], neg_id[c]])
    y = np.stack([b, c, a, neg_id[a], neg_id[c], neg_id[b]])
    images = np.concatenate([x * n + y, y * n + x])  # (12, P), signs + then -
    first = images.argmin(axis=0)
    pflat = images[0]
    canon_flat = np.full(n * n, -1, dtype=np.int64)
    canon_flat[pflat] = images[first, np.arange(pflat.size)]
    rel_sign = np.zeros(n * n, dtype=np.int8)
    rel_sign[pflat] = np.where(first < 6, 1, -1)

    flat = _rows(sum_id, *_representatives(rs.ids))  # (4, I / 16)
    unknowns = canon_flat[flat]
    rel_prod = rel_sign[flat].astype(np.int16).prod(axis=0).astype(np.int8)

    # seeds
    val = np.zeros(n * n, dtype=np.int8)
    sa, sb = _seeds(rs.ids)
    f = sa * n + sb
    val[canon_flat[f]] = rel_sign[f]

    # propagation rounds: rows with exactly one unknown pin it
    rounds = 0
    while unknowns.shape[1]:
        v = val[unknowns]  # (4, I / 16)
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

    # re-checking the representatives guards against scatter conflicts
    w = nt_flat[flat].astype(np.int16)
    if not np.all(w[0] * w[1] == w[2] * w[3]):
        raise InconsistentTable(
            f"associativity violated after propagation in {rs.name}"
        )

    stats = {
        "roots": n,
        "defined_pairs": int(pflat.size),
        "pair_orbits": int(np.count_nonzero(first == 0)),  # canonical pairs
        "instances": 16 * int(flat.shape[1]),
        "seeds": int(f.size),
        "rounds": rounds,
    }
    return StructureConstantTable(rs, nt, stats)


# -- verification ----------------------------------------------------------


def verify_table(table: StructureConstantTable) -> dict:
    """Re-check every defining identity on the finished table.

    Raises InconsistentTable on any violation; returns check counts.
    """
    rs = table.rs
    nt = table._nt
    sum_id = table._sum
    neg = table._neg
    defined = sum_id >= 0

    if not np.array_equal(defined, defined.T):
        raise InconsistentTable("defined-pair mask is not symmetric")
    if not np.array_equal(nt != 0, defined):
        raise InconsistentTable("support of the table does not match defined pairs")

    aa, bb = mask_pairs(defined)
    ss = sum_id[aa, bb]
    v = nt[aa, bb].astype(np.int16)
    checks = {
        "antisymmetry": np.array_equal(v, -nt[bb, aa]),
        "negated_pair": np.array_equal(v, -nt[neg[aa], neg[bb]]),
        "reversed_negated_pair": np.array_equal(v, nt[neg[bb], neg[aa]]),
        "rotation_1": np.array_equal(v, nt[bb, neg[ss]]),
        "rotation_2": np.array_equal(v, nt[neg[ss], aa]),
    }
    # every instance, regenerated from the mask in bounded chunks
    nt_flat, instances, holds = nt.reshape(-1).astype(np.int16), 0, True
    for a, b, c in _instances(sum_id, aa, bb):
        w = nt_flat[_rows(sum_id, a, b, c)]
        holds &= bool(np.all(w[0] * w[1] == w[2] * w[3]))
        instances += a.size
    checks["associativity"] = holds

    sa, sb = _seeds(rs.ids)
    checks["seeds"] = bool(np.all(nt[sa, sb] == 1))

    counts = {"defined_pairs": int(aa.size), "instances": instances,
              "seeds": int(sa.size)}
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise InconsistentTable(f"{rs.name}: identity checks failed: {bad}",
                                tuple(bad), counts)
    return counts


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

# a gather-table entry packs a slot and its coefficient as slot * 8 +
# coefficient + 4: a coefficient is a constant (+-1) or a pairing (-2..2),
# so it takes the low 3 bits, and slot ids run to 2n, so the entry fits
# int16 up to 2,047 roots (rootsys.MAX_ROOTS is 1,000)
_PACKED = np.int16


def _bracket_arrays(table: StructureConstantTable) -> tuple:
    """The bracket as flat packed gather tables over slots, for
    _jacobi_fails.

    Every bracket of two basis elements, and of a basis element with such a
    bracket, is one multiple of a slot: e_r (slot r), the coroot
    h_r = sum_t r_t h_t of a root r (slot n + r), or zero (slot 2n).
    Returns (out, w, inner, wi, hroot, n), the int16 tables raveled row by
    row, with row widths w = 2n + 1 and wi = n + rank, each entry the
    slot * 8 + coefficient + 4 of one bracket:
    [basis_a, slot s] is the entry out[a*w + s];
    [basis_b, basis_c] is the entry inner[b*wi + c];
    hroot[s] is the root of an h slot and 0 for the others.  So a bracket
    is one gather of two bytes; SystemTooLarge when slot 2n does not pack
    into int16.
    """
    rs = table.rs
    n, rank = table.n_roots, rs.rank
    zero = 2 * n
    if 8 * zero + 7 > np.iinfo(_PACKED).max:
        raise SystemTooLarge(f"{rs.name}: {zero + 1} bracket slots do not fit "
                             f"the {np.dtype(_PACKED).name} gather tables")
    pairing = rs.ids.pairing
    ids = np.arange(n)
    simple = rs.ids.simple_ids
    out = np.full((n + rank, zero + 1), 8 * zero + 4, dtype=_PACKED)
    a, b = mask_pairs(table._sum >= 0)
    # [e_a, e_b] = N(a, b) e_{a+b}
    out[a, b] = 8 * table._sum[a, b] + table._nt[a, b] + 4
    out[ids, table._neg] = 8 * (n + ids) + 5  # [e_a, e_-a] = h_a
    out[:n, n:zero] = 8 * ids[:, None] + 4 - pairing  # [e_a, h_r] = -<a, r> e_a
    # [h_t, e_b] = <alpha_t, b> e_b; [h, h] = 0
    out[n:, :n] = 8 * ids + 4 + pairing[simple]
    slot = np.concatenate([ids, n + simple])  # h_t is the coroot of alpha_t
    hroot = np.zeros((zero + 1, rank), dtype=np.int64)
    hroot[n:zero] = rs.roots
    return out.ravel(), zero + 1, out[:, slot].ravel(), n + rank, hroot, n


def _jacobi_fails(brackets: tuple, x: np.ndarray, y: np.ndarray,
                  z: np.ndarray) -> np.ndarray:
    """Per triple of basis keys, whether [x,[y,z]] + [y,[z,x]] + [z,[x,y]]
    is nonzero: each double bracket is one multiple of a slot, read by one
    gather per bracket level and unpacked with a shift (the slot) and a
    mask (the coefficient + 4); the e-slots must cancel slot by slot and
    the h-slots must sum to the zero coroot."""
    out, w, inner, wi, hroot, n = brackets
    terms = []
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        bc = inner.take(b * wi + c)
        abc = out.take(a * w + (bc >> 3))
        terms.append((abc >> 3, ((bc & 7) - 4) * ((abc & 7) - 4)))
    (s0, c0), (s1, c1), (s2, c2) = terms
    e0, e1, e2 = (c * (s < n) for s, c in terms)
    eq01, eq02, eq12 = s0 == s1, s0 == s2, s1 == s2
    bad = ((e0 + eq01 * e1 + eq02 * e2) | (e1 + eq01 * e0 + eq12 * e2)
           | (e2 + eq02 * e0 + eq12 * e1)) != 0
    # only the few triples with a nonzero h-term need the coroot sum, in int64
    rows = np.flatnonzero((c0 != e0) | (c1 != e1) | (c2 != e2))
    h = sum(hroot[s[rows]] * c[rows, None] for s, c in terms)
    bad[rows] |= h.any(axis=1)
    return bad


def _all_triples(m: int):
    """Chunks of 2**14 triples x < y < z in lexicographic order (the last
    chunk may be shorter).  The triples of one x are x with the slice of
    the y < z pairs that starts at y = x + 1; slices are gathered until
    they fill a chunk."""
    ys, zs = np.triu_indices(m, 1)  # y < z, ordered by y then z
    held, size = [], 0
    for x, f in enumerate(np.searchsorted(ys, np.arange(1, m - 1)).tolist()):
        held.append((np.full(ys.size - f, x), ys[f:], zs[f:]))
        size += ys.size - f
        while size >= _JACOBI_CHUNK:
            joined = [np.concatenate(c) for c in zip(*held)]
            yield tuple(c[:_JACOBI_CHUNK] for c in joined)
            held = [tuple(c[_JACOBI_CHUNK:] for c in joined)]
            size -= _JACOBI_CHUNK
    if size:
        yield tuple(np.concatenate(c) for c in zip(*held))


def _sampled_triples(m: int, samples: int, seed: int):
    """Chunks of `samples` triples of distinct keys drawn from
    random.Random(seed): three little-endian 32-bit words per triple, from
    randbytes(12 * size) per chunk, reduced mod m, m - 1 and m - 2 and
    shifted past the keys already used.  The modulo bias is below
    m / 2**32 < 3e-7 for every admitted basis size m."""
    rng = random.Random(seed)
    for lo in range(0, samples, _JACOBI_CHUNK):
        size = min(_JACOBI_CHUNK, samples - lo)
        w = np.frombuffer(rng.randbytes(12 * size), dtype="<u4").reshape(size, 3)
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
    `samples` triples of distinct keys drawn from random.Random(seed), three
    32-bit words per triple (see _sampled_triples).
    Triples are evaluated as array gathers on the packed int16 tables of
    _bracket_arrays, at most 2**14 at a time, so memory does not grow with
    `samples`.  Raises JacobiViolation on the
    first failing triple in draw order, ValueError when samples is negative.
    """
    exhaustive_limit, seed = as_int(exhaustive_limit), as_int(seed)
    samples = as_int(samples, "samples", 0)
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
