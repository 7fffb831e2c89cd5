"""Brute-force orbit enumeration of V1 over F_p, and classifier cross-checks.

States are level-1 coefficient vectors encoded as base-p integers with the
first phi1 coordinate most significant, so numeric order is lexicographic
order.  state_of_vector encodes one vector, and one vectorized decoder,
_digits, serves the census representatives, the crosscheck's states and
sample, and vector_of_state.  The acting group G0 is generated by the 2 r0
elements x_{+-alpha}(1) for the simple level-0 roots alpha: over F_p,
x_gamma(t) = x_gamma(1)^t, and the Weyl group of the level-0 roots
conjugates each of them onto a simple one (Steinberg, Lectures on
Chevalley Groups, 1967).  From r0 = 2 on, r0 + 1 elements generate it too:
the x_alpha(1) and n_0, a lift of the longest level-0 Weyl element, which
conjugates U+ onto U- (_sweep_maps).  Each generator permutes the states
through a digit map: a root element's move adds multiples of coefficients
along the disjoint source/target pairs of liemod's plan (its v1 moves),
and n_0 permutes the coordinates with signs.  The orbits are the connected
components of those permutations, each labelled by its least
(lexicographically first) state.  They are found in two sweeps over edges:
a round of hooking in place over the 2 r0 moves, on one array indexed by
state, then a union-find over the few trees that round leaves, which reads
the r0 + 1 maps where there are fewer.  The work runs through blocks of
states that share their leading digits: each permutation is rebuilt from
its shift tables block by block when it is needed, so enumeration holds
that one array and a working set of one block, whatever the number of
generators.

The crosscheck compares the invariant-based classifier against the ground
truth partition:

* each census representative is the least state of its orbit, and each
  orbit has the listed size,
* the classifier's invariant code is constant on every orbit, checked for
  every single state by classify's own classifier on batches of
  fixed-size chunks of states, streamed in ascending order so that no
  array of codes of every state is held, their rows copied from a table
  of the last digits of the states (_state_rows), and equal to the code
  of the scalar spelling at every representative,
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
  the scalar same_orbit, and
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
# sampled crosscheck pairs drawn and classified at a time: the default
# sample is one chunk, so a larger one holds no more memory than it
_PAIR_CHUNK = 10_000
# rows per lane call of crosscheck's state pass and sample, twice
# classify_many's orbitlab._CHUNK: its rows and sample digits are int8 up to
# p = 127, and a call of 2**14 rows spends 30-40% of its time in costs fixed
# per call (lanes on 64 rows take 0.18 of the 0.61 ms of 2**14 on D4/F5,
# 0.34 of 0.88 on D5/F3).  The state pass took 17.6 -> 14.5 ms on D4/F5
# and 23.1 -> 18.2 on D5/F3 (best of 9)
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


def _generator_moves(table: StructureConstantTable):
    """The non-empty liemod._action_plan v1 moves of x_{+-alpha}(1), alpha
    simple (None off level 0): (source, target, sign) triples on phi1."""
    rs = table.rs
    simple = list(map(rs.simple, range(1, rs.rank + 1)))
    return [moves for g in simple + [rs.neg(a) for a in simple]
            if (moves := _action_plan(table, g)[5])]


@table_cached
def _sweep_maps(table: StructureConstantTable):
    """The digit maps that _orbit_partition's exact sweep reads, as
    (pairs, keep) for _images: the moves of x_alpha(1) for the simple
    level-0 roots alpha (keep 1), and n_0's signed permutation of phi1
    (keep 0); None below two such roots, where that is no fewer maps than
    the 2 r0 moves.

    n_0 = n_{a_1}(1) ... n_{a_N}(1), n_a(1) = x_a(1) x_{-a}(-1) x_a(1),
    along a reduced word of w_0, the longest element of the level-0 Weyl
    group, lifts w_0 to G0, so n_0 x_beta(t) n_0**-1 = x_{w_0 beta}(+-t)
    (Steinberg, Lectures on Chevalley Groups, 1967).  w_0 sends the positive
    level-0 roots onto the negative ones, so n_0 conjugates U+, which the
    x_alpha(1) generate over F_p, onto U-, and <U+, U-> = G0.  n_a(1) sends
    each e_beta to +-e_{s_a beta}, and s_a keeps levels, so n_0 acts on V1
    as new x_j = sign_j * x_src(j), checked here as one +-1 in each row of
    its matrix (a matrix of determinant 1 with that shape is a signed
    permutation); InternalError otherwise."""
    rs = table.rs
    simple = [a for a in map(rs.simple, range(1, rs.rank + 1))
              if not rs.level(a)]
    if len(simple) < 2:
        return None
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
    return [(_action_plan(table, a)[5], 1) for a in simple] + [(turn, 0)]


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


def _digits(states, p: int, m: int, dtype=None) -> np.ndarray:
    """The base-p digits of an integer array of states, first digit most
    significant, as an (n, m) array of dtype, by default the states': floor
    division, as gfield._mod reduces, into columns, so each coordinate is
    contiguous."""
    q = np.asarray(states).reshape(-1)
    digits = np.empty((m, q.size), dtype=q.dtype if dtype is None else dtype)
    for j in range(m - 1, -1, -1):
        r = q // p
        np.subtract(q, r * p, out=digits[j])
        q = r
    return digits.T


def _state_rows(p: int, m: int):
    """rows(lo, hi), the digits of states lo..hi-1 as _digits gives them,
    in the narrowest signed dtype that holds p - 1, for chunk_codes in
    chunks of at most _CHECK_CHUNK.  The last k digits, k the largest with
    p**k <= _CHECK_CHUNK, repeat with period p**k: they are one slice of a
    table of the last k digits of the states 0, 1, 2, ... up to what a
    chunk can reach, which _digits builds once.  The states of each run of
    p**k that share their first m - k digits take those from one _digits
    row of the run's index."""
    k = 0
    while k < m and p ** (k + 1) <= _CHECK_CHUNK:
        k += 1
    size, dtype = p ** k, np.min_scalar_type(-p)
    # a chunk starts at most size - 1 into the period and ends by p**m
    reach = min(size + _CHECK_CHUNK - 1, p ** m)
    tail = np.tile(_digits(np.arange(size), p, k).T.astype(dtype),
                   -(-reach // size))[:, :reach]

    def rows(lo, hi):
        out = np.empty((m, hi - lo), dtype=dtype)
        runs = np.arange(lo // size, (hi - 1) // size + 1)
        # how many of the chunk's states each run holds
        counts = np.minimum(runs * size + size, hi) - np.maximum(runs * size,
                                                                  lo)
        out[:m - k] = _digits(runs, p, m - k).T.repeat(counts, axis=1)
        out[m - k:] = tail[:, lo % size:lo % size + hi - lo]
        return out.T

    return rows


def _index_dtype(total: int):
    return np.int32 if total < 2**31 else np.int64


def _images(move, p: int, m: int, n: int, keep: int = 1):
    """The image of every state under one digit map, block by block in
    ascending order: (first state of the block, image of its p**n states),
    the image one array reused for every block.

    A digit map sets new x_dst = keep * x_dst + sgn * x_src for each of its
    (src, dst, sgn) pairs, every other digit kept, and reads only the old
    digits: a root element's move (keep 1), whose targets are never
    sources, or n_0's signed permutation (keep 0), which lists every digit
    as a target once.  So the image is keep times the state plus one shift
    per pair: for a move a p x p table indexed by the pair's two digits,
    for keep 0 a table of x_src alone, the new x_dst at its place, which is
    read as a pair of x_src with itself.  A block is the p**n states that
    share their first m - n digits (the fixed digits).  The pairs with both
    digits free give the in-block image, built once with a broadcast add;
    each block adds to it keep times its first state, the shifts of the
    pairs with both digits fixed, and one row of the table for each pair
    with one digit fixed (a move's alone).  A fixed target, or for keep 0
    a fixed source, sends the image to another block."""
    fixed, size = m - n, p ** n
    digit = np.arange(p)
    # each pair's state shift as a table [x_src, x_dst], sorted by the pair's
    # fixed digits: none, both, or one (the table then indexed by the fixed
    # digit first)
    inner, both, rows = [], [], []
    for s, d, g in move:
        if keep:
            t = ((digit + g * digit[:, None]) % p - digit) * p ** (m - 1 - d)
        else:
            t, d = np.diag(g * digit % p * p ** (m - 1 - d)), s
        if s < fixed and d < fixed:
            both.append((s, d, t))
        elif s < fixed:
            rows.append((s, d - fixed, t))
        elif d < fixed:
            rows.append((d, s - fixed, t.T))
        else:
            inner.append((s - fixed, d - fixed, t))
    # the in-block image of the pairs with both digits free, through a 5-D
    # view of the block, or a 3-D one for a pair of a digit with itself
    base = keep * np.arange(size)
    for s, d, shift in inner:
        lo, hi = sorted((s, d))
        if s == d:
            shape = (p ** lo, p, p ** (n - 1 - lo))
            table = shift.diagonal()[:, None]
        else:
            shape = (p ** lo, p, p ** (hi - lo - 1), p, p ** (n - 1 - hi))
            table = (shift if s < d else shift.T)[:, None, :, None]
        if lo:
            # numpy's inner loop runs over the last axis, which is short when
            # hi is a late digit: spell the table out over every digit after
            # x_lo, at most size / p entries, and add it over the leading
            # digits instead
            table = np.broadcast_to(table, shape[1:]).reshape(-1)
            shape = (shape[0], -1)
        view = base.reshape(shape)
        view += table
    img = np.empty(size, dtype=np.intp)
    for q, xs in enumerate(itertools.product(range(p), repeat=fixed)):
        np.add(base, keep * q * size
               + sum(int(t[xs[s], xs[d]]) for s, d, t in both), out=img)
        for f, i, t in rows:  # add row x_f of t over free digit x_i
            img.reshape(p ** i, p, -1)[...] += t[xs[f], :, None]
        yield q * size, img


def _join(tree, a, b):
    """One hook of a union-find over trees: tree is compressed (tree[t] is
    the root of t's set) and a, b are the roots of pairs of sets to join.
    Hooks the larger root of each pair onto the smaller, compresses tree
    again, and returns it with the roots of the pairs still apart."""
    hi = np.maximum(a, b)
    np.minimum.at(tree, hi, np.minimum(a, b))
    # a hooked root may have been hooked onto one hooked in the same call:
    # chase the hooked roots to theirs, and then every entry is at most one
    # step from its root
    while True:
        top = tree.take(hi)
        up = tree.take(top)
        if np.array_equal(up, top):
            break
        tree[hi] = up
    tree = tree.take(tree)
    a, b = tree.take(a), tree.take(b)
    apart = np.flatnonzero(a != b)
    return tree, a[apart], b[apart]


def _orbit_partition(moves, p: int, m: int, sweep=None):
    """Orbit index of every state, and the orbits' least states and sizes.

    The orbits are the connected components of the graph joining each state
    to its image under each move.  One index array, label, starts as the
    identity, and the work runs over blocks of p**n <= _BLOCK_STATES states
    (_images), so the kernel holds that one array and a working set per
    block, whatever the number of moves.  The hooking rounds read the moves;
    the exact sweep reads the digit maps of sweep, (pairs, keep) for
    _images, by default the moves.  Any maps serve it whose permutations
    generate the group the moves generate (_sweep_maps): each set the sweep
    leaves is then closed under that group, and each tree of the rounds
    lies inside an orbit.

    A round hooks the larger label across every edge onto the smaller, in
    place (the asynchronous form of Shiloach & Vishkin, 1982).  A label only
    ever moves to a smaller state of its own component: both ends of an
    edge lie in one component, so do their labels, and hooking lowers the
    larger label to the smaller one, even where a label was read after an
    earlier hook of the same round changed it.  So the labels form a forest
    inside each component, each tree rooted at its least state.  The first
    round hooks every edge without first picking out those whose labels
    differ: at its start every label is the identity, so nearly all of them
    do (2.33M of 2.34M on D4/F5).

    One sweep then jumps every label to its tree's root and numbers the
    trees 0, 1, ... by ascending root, writing each state's tree number
    over its label.  It runs block by block in ascending order: a label only
    points to a smaller state, so a block's labels chase their pointers
    inside the block, to a root of the block or a state of an earlier block,
    which already holds its tree number.  A tree's number never exceeds its
    root, so it fits the index dtype.

    A round starts with every label its root, so minimum.at lowers a label
    only by hooking a root onto a smaller state, outside its tree, or by
    moving a subtree hooked earlier in the round: a round merged trees
    exactly when it left fewer of them.  One that merged none leaves the two
    ends of every edge one label, so its trees are the orbits (a round that
    reads no edge, as on A2, numbers every state an orbit at once).  While
    a round leaves more than _BLOCK_STATES trees and merged some, each
    state's root is written back over its tree number, and the next round
    hooks the edges whose two labels differ.

    The first round leaves a few trees (76 on D4/F5, 4,321 on A3/F31).
    Once at most _BLOCK_STATES are left, one sweep over the edges of the
    sweep's maps joins them exactly, in a union-find over tree numbers
    (_join): each edge whose ends lie in different trees gives a pair of
    roots, found by one gather in the compressed array.  minimum.at writes at the larger root of
    each pair the least smaller root paired with it, so a write lands only
    on a current root and lowers it: it joins two sets and undoes no join.
    Where one root is paired with several, all but the least stay apart;
    _join hands them back, and they are found and hooked again until every
    pair of the block shares a root (each call hooks at least one root, so
    the calls end).  After the sweep the two ends of every edge of the maps
    share a set, so each set is a union of orbits of the group they
    generate, and only trees and ends of those edges were joined, all
    inside orbits, so the sets are the orbits.  A set's
    root is its least tree number, the tree of its least state, and an
    orbit's index is the rank of that root among the roots.  One gather per
    block writes it over the tree numbers.  Sizes are counted over each
    block's own range of orbit indices.
    """
    total = p ** m
    dtype = _index_dtype(total)
    n = 0
    while n < m and p ** (n + 1) <= _BLOCK_STATES:
        n += 1
    size = p ** n

    def crossing(every, maps):
        # the labels at the two ends of each block's edges: every pair, or
        # only the pairs that differ
        for move, keep in maps:
            for lo, img in _images(move, p, m, n, keep):
                a = label[lo:lo + size]
                b = label.take(img)
                if not every:
                    cross = np.flatnonzero(a != b)
                    if not cross.size:
                        continue
                    a, b = a[cross], b[cross]
                yield a, b

    def number():
        # jump every label to its root and number the trees; returns the roots
        local = np.arange(size, dtype=dtype)
        roots, k = [], 0
        for lo in range(0, total, size):
            view = label[lo:lo + size]
            ptr = np.where(view >= lo, view - lo, local)
            while True:
                up = ptr.take(ptr)
                if np.array_equal(up, ptr):
                    break
                ptr = up
            # each state's pointer at the end of its chain in the block: a
            # root of the block, or a state of an earlier block
            end = view.take(ptr)
            new = lo + np.flatnonzero(view == lo + local)
            label[new] = np.arange(k, k + new.size)
            roots.append(new)
            k += new.size
            view[...] = label.take(end)
        return np.concatenate(roots)

    hooks = [(move, 1) for move in moves]
    label = np.arange(total, dtype=dtype)
    trees, every = total, True
    while True:
        for a, b in crossing(every, hooks):
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        a = b = None  # free the last block's labels before the numbering
        least = number()
        if least.size == trees or least.size <= _BLOCK_STATES:
            break
        trees, every = least.size, False
        for lo in range(0, total, size):
            ids = label[lo:lo + size]
            ids[...] = least.take(ids)
    index = None
    if least.size < trees:
        # the exact sweep: the orbit index of every tree, and which trees
        # hold their orbit's least state
        tree = np.arange(least.size, dtype=dtype)
        for a, b in crossing(False, hooks if sweep is None else sweep):
            a, b = tree.take(a), tree.take(b)
            apart = np.flatnonzero(a != b)
            a, b = a[apart], b[apart]
            while a.size:
                tree, a, b = _join(tree, a, b)
        top = tree == np.arange(tree.size)
        index = (np.cumsum(top, dtype=dtype) - 1).take(tree)
        least = least[top]
    sizes = np.zeros(least.size, dtype=np.intp)
    for lo in range(0, total, size):
        ids = label[lo:lo + size]
        if index is not None:
            ids[...] = index.take(ids)
        low = int(ids.min())
        counts = np.bincount(ids - low)
        sizes[low:low + counts.size] += counts
    return label, least, sizes


# states per block of _orbit_partition
_BLOCK_STATES = 2**16
# _orbit_partition holds one array of p**m index-sized entries, whatever the
# number of moves, and at most _BLOCK_BYTES bytes per state of a block
# besides, the union-find's array of at most _BLOCK_STATES trees included:
# 4.04 to 4.10 bytes per state in all, traced on D6/F3 and D4/F7, and 29 to
# 34 bytes per block state (33.3, 29.4, 33.7 and 30.2 on D4/F5, D5/F3,
# D4/F7 and D6/F3, the same with n_0's map in the exact sweep as with the
# 2 r0 moves).  A round that leaves more than _BLOCK_STATES trees holds 8
# bytes per tree for their roots, 1.3 MB for A3/F127's 159,161: inside the
# margin, as its peak RSS shows
_BLOCK_BYTES = 56


def enumerate_orbits(table: StructureConstantTable, p: int,
                     budget: int | None = None) -> OrbitCensus:
    """Partition V1(F_p) into orbits of the level-0 subgroup.

    Over F_p, x_gamma(t) = x_gamma(1)^t, and the x_{+-alpha}(1) for simple
    level-0 alpha generate the level-0 subgroup, since its Weyl group
    conjugates every level-0 root onto a simple one (Steinberg, Lectures on
    Chevalley Groups, 1967).  The orbits are therefore the connected
    components of those 2 r0 permutations of the states, each labelled by
    its least state.  _orbit_partition hooks along all 2 r0 and joins what
    is left along the r0 + 1 of _sweep_maps, x_alpha(1) and n_0, which
    generate the same group.  The census lists the orbits in ascending
    order of that state and carries the state -> orbit index array as
    orbit_id.  A system or prime the classification does not cover
    (check_domain) is refused before the budget is priced.
    """
    rs, p = table.rs, as_int(p)
    K = PrimeField(p)
    check_domain(rs, K)
    m = len(rs.phi1)
    total = check_budget(rs, p, budget)
    orbit_id, least, sizes = _orbit_partition(_generator_moves(table), p, m,
                                              _sweep_maps(table))
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


def _sample_classes(clf, rows, classes: dict) -> np.ndarray:
    """The batch step of crosscheck's sampled pairs: one index per row of
    rows, an (n, |phi1|) integer array, equal for two rows exactly when the
    classifier gives them equal descriptors, as classify_many would.  The
    codes come from clf.chunk_codes, and each distinct code is decoded
    once: classes maps each code (an int) and each descriptor (a tuple) met
    in the calls of one crosscheck to an index, equal descriptors to one."""
    codes = np.concatenate([c for _, c in clf.chunk_codes(
        len(rows), lambda lo, hi: rows[lo:hi], size=_CHECK_CHUNK)],
        dtype=np.int64)
    # np.unique would hash (1.3 MB more peak RSS), or sort narrow lanes
    # slowly (0.6 ms for 20,000 int8 codes against 0.06 ms in int64); an
    # argsort gives each row its distinct code's rank at half the cost of
    # np.searchsorted into the distinct codes
    order = np.argsort(codes)
    ordered = codes.take(order)
    new = np.append(True, ordered[1:] != ordered[:-1])
    index = []
    for code in ordered[new].tolist():
        if code not in classes:
            d = clf.decode(code)
            classes[code] = classes.setdefault(d, len(classes))
        index.append(classes[code])
    ids = np.empty(len(codes), dtype=np.intp)
    ids[order] = np.array(index, dtype=np.intp).take(np.cumsum(new) - 1)
    return ids


def crosscheck(table: StructureConstantTable, p: int,
               pairs: int = 10_000, seed: int = 0,
               census: OrbitCensus | None = None) -> dict:
    """Verify the classifier against brute-force enumeration, on the census
    given or one enumerated under the default budget; raise on mismatch.
    ValueError, before any work, for a census of another system or prime
    than (table, p), for one whose state count is not p**|phi1|, for an
    orbit_id other than one integer per state (None partitions again), or
    for a negative number of pairs."""
    rs, p = table.rs, as_int(p)
    pairs, seed = as_int(pairs, "pairs", 0), as_int(seed)
    if census is not None and (census.family, census.rank, census.p) != (
            rs.family, rs.rank, p):
        raise ValueError(f"the census is of {census.family}{census.rank} "
                         f"over F_{census.p}, not {rs.name} over F_{p}")
    if census is not None and census.total_states != p ** len(rs.phi1):
        raise ValueError(f"the census counts {census.total_states} states, "
                         f"not the {p}**{len(rs.phi1)} of {rs.name} over F_{p}")
    if census is not None and (given := census.orbit_id) is not None and (
            given.shape != (census.total_states,)
            or given.dtype.kind not in "iu"):
        raise ValueError(f"the census's orbit_id is {given.dtype} of shape "
                         f"{given.shape}, not one integer for each of its "
                         f"{census.total_states} states")
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
    if orbit_id is None:
        check_budget(rs, p)
        orbit_id = _orbit_partition(_generator_moves(table), p, m,
                                    _sweep_maps(table))[0]

    def not_least(i):
        return MismatchReport(
            "census representative is not the least state of its orbit",
            {"orbit": i, "representative": census.orbits[i].representative},
        )

    # (a) the classifier's code is constant state-by-state on every orbit,
    # and the batch code agrees with the scalar one at every representative.
    # One pass over the states, in ascending chunks, also checks the census
    # against orbit_id: representative i is the least state of orbit i, and
    # orbit i has the listed size.  Orbits are numbered by least state, so
    # orbit i first appears where the running maximum of the ids reaches i;
    # each chunk's new orbits are checked, and their codes recorded, before
    # its other states are compared with them.
    rep_codes = np.empty(k, dtype=clf.lane)
    # ids past k are orbits the census does not list
    sizes = np.zeros(max(k, int(orbit_id.max()) + 1), dtype=np.int64)
    top = -1  # the largest orbit id of the chunks so far
    for lo, chunk in clf.chunk_codes(total, _state_rows(p, m),
                                     size=_CHECK_CHUNK):
        ids = orbit_id[lo:lo + len(chunk)]
        high = int(ids.max())
        if high > top:  # the chunk holds orbits met first in it
            running = np.maximum.accumulate(ids)
            new = np.arange(top + 1, min(high, k - 1) + 1)
            least = np.searchsorted(running, new)
            bad = (lo + least != rep_states[new]) | (ids[least] != new)
            if bad.any():
                raise not_least(int(new[np.argmax(bad)]))
            rep_codes[new] = chunk[least]
            top = high
        low = int(ids.min())
        counts = np.bincount(ids - low)
        sizes[low:low + len(counts)] += counts
        if top >= k:
            continue  # the size check below reports the unlisted orbits
        differ = chunk != rep_codes.take(ids)
        if differ.any():
            bad = np.flatnonzero(differ)
            raise MismatchReport(
                "invariant code varies inside a brute-force orbit",
                {
                    "state": vector_of_state(rs, p, lo + int(bad[0])),
                    "orbit_representative": census.orbits[
                        int(ids[bad[0]])
                    ].representative,
                },
            )
    if top + 1 < k:  # orbits that no state belongs to
        raise not_least(top + 1)
    want_sizes = [o.size for o in census.orbits]
    if sizes.tolist() != want_sizes:
        raise MismatchReport(
            "census orbit sizes differ from the enumeration",
            {"enumerated": sizes.tolist(), "census": want_sizes},
        )
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
    # _SCALAR_PAIRS (every pair of representatives is covered by (b)).  The
    # chunks read one stream, and randbytes(a) then randbytes(b) gives the
    # bytes of randbytes(a + b)
    def check_chunk(lo, n):
        # pairs lo to lo + n - 1, rows 2i and 2i + 1 of digits; the chunk's
        # arrays are freed on return
        states = _mod(np.frombuffer(rng.randbytes(16 * n), dtype="<u8"),
                      total).astype(_index_dtype(total))
        want = orbit_id[states[::2]] == orbit_id[states[1::2]]
        digits = _digits(states, p, m, np.min_scalar_type(-p))

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
        ids = _sample_classes(clf, digits, classes)
        bad = np.flatnonzero((ids[::2] == ids[1::2]) != want)
        if bad.size:
            raise disagree(int(bad[0]))

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
