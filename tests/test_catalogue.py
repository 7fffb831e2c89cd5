"""Catalogue parity: the descriptors and canonical vectors that the
per-(table, p) plans build equal those of the plain per-descriptor
construction, in order, value, hash, JSON and errors."""

from __future__ import annotations

import itertools

import pytest

from chevorbit import InvalidDescriptor, OrbitDescriptor, all_descriptors
from chevorbit import orbitlab
from chevorbit.rootsys import standard_quadruple
from helpers import get_field, get_table

SYSTEMS = [f"A{r}" for r in range(1, 9)] + [f"D{r}" for r in range(4, 9)]
CASES = [(name, p) for name in SYSTEMS for p in (3, 5, 101)] + [("D4", 1009)]


def reference_descriptors(rs, p, types):
    """Each descriptor through the named tuple's keyword constructor, its
    parameters sorted per descriptor."""
    for label, (params, _) in types.items():
        names = [n for n, _ in params]
        for values in itertools.product(*[r for _, r in params]):
            yield OrbitDescriptor(family=rs.family, rank=rs.rank, p=p,
                                  label=label,
                                  params=tuple(sorted(zip(names, values))))


def named_roots(rs, label):
    """The roots that label's canonical vector is written on, in entry
    order: on family A of rho = alpha_1, sigma = alpha_l and delta - rho,
    on family D of the standard quadruple (lam, rho, sig, tau)."""
    if rs.family == "A":
        rho = rs.simple(1)
        roots = {"r": rho, "s": rs.simple(rs.rank), "m": rs.sub(rs.delta, rho)}
        # A2's IIb is written on delta - rho, which is sigma there
        on = {"IIa": "r", "IIb": "s", "III": "rs", "VI": "rm"}
    else:
        roots = dict(zip("lrst", standard_quadruple(rs)))
        on = {"II": "l", "IIIa": "lr", "IIIb": "ls", "IIIc": "lt",
              "IV": "lrs", "V": "lrst"}
    return [roots[c] for c in on.get(label, "")]


def reference_vector(clf, d):
    """d's canonical vector, filled per call, each entry's phi1 index
    checked through rs.phi1 to name the root the catalogue means."""
    rs = clf.rs
    try:
        _, entries = clf.types[d.label]
    except (KeyError, TypeError):
        raise InvalidDescriptor(f"no label {d.label} for {rs.name}") from None
    out = [0] * len(rs.phi1)
    for (i, v), root in zip(entries, named_roots(rs, d.label), strict=True):
        assert rs.phi1[i] == root, (d.label, i, root)
        out[i] = v if isinstance(v, int) else orbitlab._int_param(d, v)
    return tuple(out)


@pytest.mark.parametrize("name,p", CASES)
def test_catalogue_equals_the_per_descriptor_construction(name, p):
    t, K = get_table(name), get_field(p)
    clf = orbitlab._classifier(t, K)
    got = all_descriptors(t, K)
    want = list(reference_descriptors(t.rs, p, clf.types))
    assert len(got) == len(want) == clf.orbit_count()
    for g, w in zip(got, want):
        assert type(g) is OrbitDescriptor
        assert g == w and tuple(g) == tuple(w)
        assert hash(g) == hash(w)
        assert g.to_json() == w.to_json()
        assert clf.canonical_vector(g) == reference_vector(clf, w)


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as e:  # noqa: BLE001  (compared, not raised)
        return type(e), str(e)


@pytest.mark.parametrize("name,p", [("A2", 5), ("A3", 5), ("D4", 5),
                                    ("D5", 3)])
def test_canonical_vector_errors_equal_the_reference(name, p):
    t, K = get_table(name), get_field(p)
    clf = orbitlab._classifier(t, K)
    rs = t.rs
    # a label with one parameter, and a well-formed value of it
    label, key, value = {"A2": ("IIa", "rho", 1), "A3": ("VI", "c", 1),
                         "D4": ("IIIa", "rho_class", "1"),
                         "D5": ("IIIa", "rho_class", "1")}[name]
    descriptors = [
        OrbitDescriptor(rs.family, rs.rank, p, "X"),  # unknown label
        OrbitDescriptor(rs.family, rs.rank, p, ["VI"]),  # unhashable label
        OrbitDescriptor(rs.family, rs.rank, p, label),  # missing parameter
        OrbitDescriptor(rs.family, rs.rank, p, label, ((key, "a"),)),
        OrbitDescriptor(rs.family, rs.rank, p, label, ((key, None),)),
        OrbitDescriptor(rs.family, rs.rank, p, label,
                        ((key, float("inf")),)),
        OrbitDescriptor(rs.family, rs.rank, p, label, ((key, 2.5),)),
        OrbitDescriptor(rs.family, rs.rank, p, label, ((key, 10**400),)),
        OrbitDescriptor(rs.family, rs.rank, p, label, ((key, value),)),
    ]
    for d in descriptors:
        got = _outcome(clf.canonical_vector, d)
        assert got == _outcome(reference_vector, clf, d), d
    assert [_outcome(clf.canonical_vector, d)[0] for d in descriptors] == \
        [InvalidDescriptor] * 6 + ["ok"] * 3
