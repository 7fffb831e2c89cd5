"""Failure branches reached through injected faults.

Each test plants one fault (a dropped or contradicting seed, a tampered
table, sign rule, lift step, catalogue entry or census) and checks the
exception and its message, and through cli.main the exit code 1 and the
"verification failed" prefix.  Nothing here changes chevorbit; the faults
are monkeypatched in, or built as tampered copies.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from chevorbit import (
    ClassificationError,
    InconsistentTable,
    LieVector,
    MismatchReport,
    StructureConstantTable,
    UnderdeterminedTable,
    build_root_system,
    build_table_oracle,
    classify,
    crosscheck,
    standard_quadruple,
    verify_table,
)
from chevorbit import chevalley, orbitlab
from chevorbit import cli as cli_mod
from chevorbit.census import vector_of_state
from chevorbit.cli import main
from helpers import get_census, get_field, get_table, unseeded_orbits

CLASSIFY_D4 = ["classify", "D4", "-p", "5", "--vector", "1,0,0,0,0,0,0,0"]


def failed(capsys, argv, message: str) -> str:
    """Run cli.main, check exit 1 and the one-line reason, return stderr."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"verification failed: {message}"), err
    return err


# -- the oracle ----------------------------------------------------------------------


def test_a_dropped_seed_leaves_the_table_underdetermined(capsys, monkeypatch):
    seeds = chevalley._seeds
    monkeypatch.setattr(chevalley, "_seeds",
                        lambda ids: tuple(s[1:] for s in seeds(ids)))
    with pytest.raises(UnderdeterminedTable,
                       match="^48 constants left unknown in D4$"):
        build_table_oracle(build_root_system("D", 4))
    failed(capsys, ["constants", "D4"], "48 constants left unknown in D4")


def test_a_contradicting_seed_violates_associativity(capsys, monkeypatch):
    # N(roots[0], roots[5]) of D4 is -1, and its pair orbit holds no seed,
    # so seeding it as +1 contradicts the seeds that determine it
    assert get_table("D4").nv(0, 5) == -1
    seeds = chevalley._seeds
    monkeypatch.setattr(chevalley, "_seeds", lambda ids: tuple(
        np.append(s, extra) for s, extra in zip(seeds(ids), (0, 5))))
    with pytest.raises(InconsistentTable,
                       match="^associativity violated after propagation "
                             "in D4$"):
        build_table_oracle(build_root_system("D", 4))
    failed(capsys, ["constants", "D4"],
           "associativity violated after propagation in D4")


# -- verify_table and the constants report ---------------------------------------


def zeroed_pair(name: str) -> StructureConstantTable:
    """A copy of name's table with one defined constant set to 0."""
    t = get_table(name)
    nt = t._nt.copy()
    a, b = t.defined_pairs()[0]
    nt[a, b] = 0
    return StructureConstantTable(t.rs, nt, t.stats)


def test_verify_table_refuses_a_table_whose_support_is_not_the_pairs(
        capsys, monkeypatch):
    with pytest.raises(InconsistentTable,
                       match="^support of the table does not match defined "
                             "pairs$"):
        verify_table(zeroed_pair("D4"))
    monkeypatch.setattr(cli_mod, "build_table_oracle",
                        lambda rs: zeroed_pair(rs.name))
    err = failed(capsys, ["constants", "D4", "--check", "n1"],
                 "support of the table does not match defined pairs")
    assert '"status": "fail"' in err


def test_constants_reports_a_sign_rule_that_disagrees(capsys, monkeypatch):
    # one entry negated in a simple root's row, which the sign rule fills
    real = cli_mod.closed_form_table

    def tampered(rs):
        nt = real(rs)
        nt[rs.root_id((1, 0, 0, 0)), rs.root_id((0, 0, 1, 0))] *= -1
        return nt

    monkeypatch.setattr(cli_mod, "closed_form_table", tampered)
    failed(capsys, ["constants", "D4", "--check", "theorem1"],
           "D4: sign rule disagrees with the table at ((1, 0, 0, 0), "
           "(0, 0, 1, 0))\n")


def test_constants_fails_only_the_checks_whose_identities_fail(
        capsys, monkeypatch):
    # one pair orbit without a seed negated keeps antisymmetry, the
    # rotations and the seeds, and fails associativity alone: n3pp fails,
    # and n1, n2p and n4 pass with their own counts
    t = get_table("D4")
    nt = t._nt.copy()
    for i, j in unseeded_orbits(t.rs)[0]:
        nt[i, j] = -nt[i, j]
    monkeypatch.setattr(cli_mod, "build_table_oracle",
                        lambda rs: StructureConstantTable(rs, nt, t.stats))
    counts = verify_table(t)
    for check, key in (("n1", "defined_pairs"), ("n2p", "defined_pairs"),
                       ("n4", "seeds")):
        assert main(["constants", "D4", "--check", check]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["checks"] == {
            check: {"status": "pass", "checked": counts[key]}}
    message = "D4: identity checks failed: ['associativity']"
    err = failed(capsys, ["constants", "D4", "--check", "n3pp"],
                 message + "\n")
    assert json.loads(err.split("\n", 1)[1])["checks"] == {
        "n3pp": {"status": "fail", "checked": counts["instances"]}}
    err = failed(capsys, ["constants", "D4"], message)
    checks = json.loads(err.split("\n", 1)[1])["checks"]
    assert {k: checks[k]["status"] for k in ("n1", "n2p", "n3pp", "n4")} == {
        "n1": "pass", "n2p": "pass", "n3pp": "fail", "n4": "pass"}


def test_constants_reports_a_quadruple_sign_product_that_is_not_one(
        capsys, monkeypatch):
    # one factor of the first product, N(lambda - delta, rho), negated
    def tampered(rs):
        t = build_table_oracle(rs)
        lam, rho, _, _ = standard_quadruple(rs)
        target = (rs.sub(lam, rs.delta), rho)
        n = t.structure_constant
        t.structure_constant = lambda a, b: (
            -n(a, b) if (tuple(a), tuple(b)) == target else n(a, b))
        return t

    monkeypatch.setattr(cli_mod, "build_table_oracle", tampered)
    err = failed(capsys, ["constants", "D4"],
                 "quadruple sign products [-1, 1] != +1")
    assert json.loads(err.split("\n", 1)[1])["quadruple_sign_products"] == {
        "status": "fail", "products": [-1, 1]}


# -- the lift's postconditions ----------------------------------------------------


def raised_by_a_new_lift(exc, message: str) -> None:
    t = build_table_oracle(build_root_system("D", 4))  # compiles its own lift
    with pytest.raises(exc, match=f"^{message}$"):
        classify(t, get_field(5), [1] * 8)


def test_the_lift_refuses_a_moved_top_coefficient(capsys, monkeypatch):
    e_coeff = LieVector.e_coeff
    monkeypatch.setattr(LieVector, "e_coeff", lambda v, root: v.domain.add(
        e_coeff(v, root), v.domain.one))
    raised_by_a_new_lift(ClassificationError, "lift: top coefficient moved")
    failed(capsys, CLASSIFY_D4, "lift: top coefficient moved")


def test_the_lift_refuses_a_wrong_torus_correction(capsys, monkeypatch):
    # the last factor, x_{-delta}(c), applied with 2c instead of c
    apply = orbitlab.apply_root_element

    def doubled(table, gamma, a, v):
        if gamma == table.rs.neg(table.rs.delta):
            a = v.domain.add(a, a)
        return apply(table, gamma, a, v)

    monkeypatch.setattr(orbitlab, "apply_root_element", doubled)
    raised_by_a_new_lift(ClassificationError, "lift: torus correction failed")
    failed(capsys, CLASSIFY_D4, "lift: torus correction failed")


def test_the_lift_refuses_moved_level_one_coefficients(capsys, monkeypatch):
    v1_part = LieVector.v1_part
    monkeypatch.setattr(LieVector, "v1_part", lambda v: (
        v.domain.add(v1_part(v)[0], v.domain.one), *v1_part(v)[1:]))
    raised_by_a_new_lift(ClassificationError,
                         "lift: level-1 coefficients moved")
    failed(capsys, CLASSIFY_D4, "lift: level-1 coefficients moved")


# -- the catalogue and the crosscheck -----------------------------------------------


def test_two_catalogue_entries_with_one_code_are_refused(capsys, monkeypatch):
    # IIIb given II's canonical vector: both decode from one code
    types = orbitlab._orbit_types

    def tampered(table, K):
        out = dict(types(table, K))
        out["IIIb"] = out["II"]
        return out

    monkeypatch.setattr(orbitlab, "_orbit_types", tampered)
    message = ("OrbitDescriptor(family='D', rank=4, p=5, label='II', "
               "params=()) and OrbitDescriptor(family='D', rank=4, p=5, "
               "label='IIIb', params=()) share the invariant code 343")
    t = build_table_oracle(build_root_system("D", 4))
    with pytest.raises(ClassificationError) as e:
        classify(t, get_field(5), [0] * 8)
    assert str(e.value) == message
    failed(capsys, CLASSIFY_D4, message)


def test_crosscheck_reports_a_representative_that_is_not_least(capsys,
                                                               monkeypatch):
    census = get_census("D4", 3)
    i = next(i for i, o in enumerate(census.orbits) if o.size > 1)
    other = int(np.flatnonzero(census.orbit_id == i)[-1])
    rep = vector_of_state(get_table("D4").rs, 3, other)
    orbits = list(census.orbits)
    orbits[i] = dataclasses.replace(orbits[i], representative=rep)
    tampered = dataclasses.replace(census, orbits=tuple(orbits))
    with pytest.raises(MismatchReport) as e:
        crosscheck(get_table("D4"), 3, census=tampered)
    assert str(e.value) == ("census representative is not the least state "
                            "of its orbit")
    assert e.value.details == {"orbit": i, "representative": rep}
    monkeypatch.setattr(cli_mod, "enumerate_orbits",
                        lambda table, p, budget=None: tampered)
    err = failed(capsys, ["orbits", "D4", "-p", "3", "--compare"],
                 "census representative is not the least state of its "
                 "orbit\n")
    assert json.loads(err.split("\n", 1)[1]) == {
        "orbit": i, "representative": list(rep)}
