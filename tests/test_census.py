"""Brute-force orbit enumeration tests, including an independent mini-BFS
oracle, determinism, budget handling, and the crosscheck failure path."""

from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from chevorbit import (
    BudgetExceeded,
    MismatchReport,
    OrbitDescriptor,
    act_on_v1,
    crosscheck,
    enumerate_orbits,
    predicted_census,
)
from chevorbit import census as census_mod
from chevorbit.census import ArrayField, state_of_vector, vector_of_state
from helpers import (
    CENSUS_CASES,
    EXPECTED_ORBITS,
    get_census,
    get_field,
    get_table,
)


def mini_bfs_orbits(table, p):
    """Independent reference enumeration: plain python sets over tuples."""
    rs = table.rs
    K = get_field(p)
    m = len(rs.phi1)
    gens = [(g, a) for g in rs.phi0 for a in range(1, p)]
    seen: set = set()
    orbits = []
    for state in itertools.product(range(p), repeat=m):
        if state in seen:
            continue
        frontier = [state]
        orbit = {state}
        while frontier:
            cur = frontier.pop()
            for g, a in gens:
                nxt = act_on_v1(table, K, [(g, a)], cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize(
    "name,p", [("A2", 3), ("A3", 3), ("A3", 5), ("A4", 3), ("D4", 3)]
)
def test_enumeration_matches_independent_bfs(name, p):
    table = get_table(name)
    reference = mini_bfs_orbits(table, p)
    census = get_census(name, p)
    assert census.orbit_count == len(reference) == EXPECTED_ORBITS[(name, p)]
    ref_by_rep = {min(o): o for o in reference}
    assert {e.representative for e in census.orbits} == set(ref_by_rep)
    for e in census.orbits:
        assert e.size == len(ref_by_rep[e.representative])


@pytest.mark.parametrize("name,p", CENSUS_CASES)
def test_orbit_id_is_closed_under_every_level0_root_element(name, p):
    """The census walks only x_{+-alpha}(1) for simple level-0 alpha, so its
    components lie inside the orbits of the whole level-0 group.  Closure
    under every x_gamma(t), gamma in phi0 and t in F_p^*, makes each
    component a union of such orbits, so the two partitions are equal."""
    table = get_table(name)
    rs = table.rs
    K = get_field(p)
    orbit_id = get_census(name, p).orbit_id
    m = len(rs.phi1)
    pw = [p ** (m - 1 - i) for i in range(m)]
    states = np.arange(p**m, dtype=np.int64)
    digits = [states // q % p for q in pw]
    unit = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    for g in rs.phi0:
        for t in range(1, p):
            # x_gamma(t) is linear on V1; row i is the image of unit vector i,
            # and only the digits whose column differs from the identity move
            rows = np.array([act_on_v1(table, K, [(g, t)], e) for e in unit])
            image = states.copy()
            for j in np.flatnonzero((rows != np.eye(m)).any(axis=0)):
                new = sum(int(c) * digits[i]
                          for i, c in enumerate(rows[:, j]) if c) % p
                image += (new - digits[j]) * pw[j]
            assert np.array_equal(orbit_id[image], orbit_id), (g, t)


# Brute force against the predicted census beyond the pinned cases; kept out
# of CENSUS_CASES, which the acceptance criteria crosscheck in full.
@pytest.mark.parametrize(
    "name,p,count", [("A5", 5, 8), ("A6", 3, 6), ("D4", 7, 18)]
)
def test_enumeration_matches_predicted_census_beyond_pinned_cases(
        name, p, count):
    table = get_table(name)
    census = enumerate_orbits(table, p)
    assert census.orbit_count == count
    assert ({e.descriptor for e in census.orbits}
            == set(predicted_census(table, p)))
    assert sum(e.size for e in census.orbits) == p ** len(table.rs.phi1)


def test_census_metadata_and_sizes():
    census = get_census("A3", 5)
    table = get_table("A3")
    assert (census.family, census.rank, census.p) == ("A", 3, 5)
    m = len(table.rs.phi1)
    assert census.total_states == 5**m
    assert sum(e.size for e in census.orbits) == census.total_states
    # representatives are listed in ascending state order, zero first
    states = [state_of_vector(table.rs, 5, e.representative) for e in census.orbits]
    assert states == sorted(states)
    assert census.orbits[0].representative == (0,) * m


def test_state_encoding_round_trip():
    rs = get_table("D4").rs
    p = 3
    m = len(rs.phi1)
    for s in range(0, 3**m, 97):
        assert state_of_vector(rs, p, vector_of_state(rs, p, s)) == s
    # first coordinate is the most significant digit
    assert state_of_vector(rs, p, (1,) + (0,) * (m - 1)) == 3 ** (m - 1)


def test_enumeration_is_deterministic():
    table = get_table("A3")
    assert enumerate_orbits(table, 3) == enumerate_orbits(table, 3)


def test_enumeration_is_generator_order_independent(monkeypatch):
    table = get_table("A3")
    base = enumerate_orbits(table, 3)
    original = census_mod._generator_moves

    def reversed_moves(t):
        return list(reversed(original(t)))

    monkeypatch.setattr(census_mod, "_generator_moves", reversed_moves)
    assert enumerate_orbits(table, 3) == base


def test_budget_guard():
    table = get_table("D4")
    with pytest.raises(BudgetExceeded):
        enumerate_orbits(table, 5, budget=100)


def test_budget_env_override(monkeypatch):
    table = get_table("D4")
    monkeypatch.setenv("CHEVORBIT_BUDGET", "50")
    with pytest.raises(BudgetExceeded):
        enumerate_orbits(table, 3)
    # an explicit argument wins over the environment
    assert enumerate_orbits(table, 3, budget=10_000_000).orbit_count == 14


def test_non_prime_modulus_rejected():
    with pytest.raises(Exception) as exc_info:
        enumerate_orbits(get_table("A2"), 4)
    assert exc_info.type.__name__ == "NotPrime"


def test_predicted_census_matches_enumeration():
    for name, p in (("A3", 3), ("D4", 3), ("D4", 5)):
        table = get_table(name)
        predicted = predicted_census(table, p)
        enumerated = [e.descriptor for e in get_census(name, p).orbits]
        assert sorted(d.to_json()["label"] for d in predicted) == sorted(
            d.to_json()["label"] for d in enumerated
        )
        assert set(predicted) == set(enumerated)
        assert len(predicted) == len(enumerated)


def test_crosscheck_happy_path_report():
    report = crosscheck(get_table("A2"), 3, census=get_census("A2", 3))
    assert report["system"] == "A2"
    assert report["orbit_count"] == 9
    assert all(v == "ok" for v in report["checks"].values())


def test_crosscheck_detects_a_broken_classifier(monkeypatch):
    # Collapse the classifier to a constant: descriptor distinctness must fail
    # and the report must say which check tripped.
    table = get_table("A2")
    constant = OrbitDescriptor(family="A", rank=2, p=3, label="I", params=())
    monkeypatch.setattr(census_mod, "classify", lambda t, K, x: constant)
    with pytest.raises(MismatchReport) as exc_info:
        crosscheck(table, 3)
    assert exc_info.value.details


def test_crosscheck_batch_pairs_catch_one_wrong_descriptor(monkeypatch):
    # the pairs are drawn as before: state 2i and 2i + 1 of the batch are
    # s1 and s2 of pair i, in random.Random(seed) order
    table = get_table("D4")
    census = get_census("D4", 3)
    real = census_mod.classify_many
    pair = 700  # past the scalar prefix, so only the batch can see it
    batches = []

    def one_wrong(t, K, X):
        out = real(t, K, X)
        batches.append(np.array(X))
        a, b = 2 * pair, 2 * pair + 1
        if out[a] == out[b]:
            out[a] = next(d for d in out if d != out[b])
        else:
            out[a] = out[b]
        return out

    monkeypatch.setattr(census_mod, "classify_many", one_wrong)
    with pytest.raises(MismatchReport,
                       match="same_orbit disagrees with the enumeration") as e:
        crosscheck(table, 3, census=census, seed=5)
    assert set(e.value.details) == {"x1", "x2", "got", "want"}
    rng = random.Random(5)
    drawn = [vector_of_state(table.rs, 3, rng.randrange(3**8))
             for _ in range(20_000)]
    (sampled,) = batches
    assert sampled.tolist() == [list(x) for x in drawn]
    assert (e.value.details["x1"], e.value.details["x2"]) == (
        drawn[2 * pair], drawn[2 * pair + 1])


@pytest.mark.parametrize("pairs,sampled", [(10_000, 500), (40, 40)])
def test_crosscheck_runs_scalar_same_orbit_on_a_sample_prefix(
        monkeypatch, pairs, sampled):
    table = get_table("D4")
    census = get_census("D4", 3)
    calls = []
    real = census_mod.same_orbit

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(census_mod, "same_orbit", counted)
    report = crosscheck(table, 3, census=census, pairs=pairs)
    assert report["pairs_sampled"] == pairs
    assert len(calls) == sampled
    rng = random.Random(0)
    first = (vector_of_state(table.rs, 3, rng.randrange(3**8)),
             vector_of_state(table.rs, 3, rng.randrange(3**8)))
    assert calls[0] == first


def test_orbit_id_is_not_serialized_or_compared():
    census = get_census("A3", 3)
    assert "orbit_id" not in census.to_json()
    bare = dataclasses.replace(census, orbit_id=None)
    assert bare == census and hash(bare) == hash(census)


@pytest.mark.parametrize("keep_orbit_id", [True, False])
def test_crosscheck_rejects_tampered_sizes(keep_orbit_id):
    census = get_census("A3", 5)
    orbits = list(census.orbits)
    orbits[1] = dataclasses.replace(orbits[1], size=orbits[1].size + 1)
    tampered = dataclasses.replace(
        census, orbits=tuple(orbits),
        orbit_id=census.orbit_id if keep_orbit_id else None,
    )
    with pytest.raises(MismatchReport, match="sizes"):
        crosscheck(get_table("A3"), 5, census=tampered)


@pytest.mark.parametrize("keep_orbit_id", [True, False])
def test_crosscheck_rejects_a_representative_that_is_not_least(
        keep_orbit_id):
    table = get_table("D4")
    census = get_census("D4", 3)
    i = next(i for i, o in enumerate(census.orbits) if o.size > 1)
    other = int(np.flatnonzero(census.orbit_id == i)[-1])
    orbits = list(census.orbits)
    orbits[i] = dataclasses.replace(
        orbits[i], representative=vector_of_state(table.rs, 3, other)
    )
    tampered = dataclasses.replace(
        census, orbits=tuple(orbits),
        orbit_id=census.orbit_id if keep_orbit_id else None,
    )
    with pytest.raises(MismatchReport, match="least state"):
        crosscheck(table, 3, census=tampered)


@pytest.mark.parametrize("name,p", [("A3", 5), ("D4", 3)])
def test_crosscheck_rejects_swapped_descriptors(name, p):
    census = get_census(name, p)
    orbits = list(census.orbits)
    i, j = 1, len(orbits) - 1
    orbits[i], orbits[j] = (
        dataclasses.replace(orbits[i], descriptor=orbits[j].descriptor),
        dataclasses.replace(orbits[j], descriptor=orbits[i].descriptor),
    )
    tampered = dataclasses.replace(census, orbits=tuple(orbits))
    with pytest.raises(MismatchReport, match="representative's class") as e:
        crosscheck(get_table(name), p, census=tampered)
    assert e.value.details["representative"] == orbits[i].representative
    assert e.value.details["classified"] == orbits[j].descriptor.to_json()


@pytest.mark.parametrize("name,p", [("A3", 5), ("D4", 3)])
def test_crosscheck_recomputes_a_missing_orbit_id(name, p):
    census = dataclasses.replace(get_census(name, p), orbit_id=None)
    report = crosscheck(get_table(name), p, census=census)
    assert all(v == "ok" for v in report["checks"].values())


def test_crosscheck_code_pass_memory_is_bounded():
    table = get_table("D4")
    total = 5 ** 8  # 390,625 states
    tracemalloc.start()
    try:
        codes = census_mod._state_codes(table, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.shape == (total,)
    # the codes take 8 bytes per state; lifting every state at once held
    # about 200 (an int64 and an int16 lane per lift coefficient)
    assert peak < 40 * total


def test_orbit_entry_json_schema():
    census = get_census("A2", 3)
    data = census.to_json()
    assert data["states"] == 9
    assert data["orbit_count"] == 9
    entry = data["orbits"][0]
    assert set(entry) >= {"representative", "size", "descriptor"}


def test_array_field_matches_scalar_field():
    p = 7
    K = get_field(p)
    killer = ArrayField(p)
    a = np.arange(1, 30, dtype=np.int64) % p
    b = (np.arange(1, 30, dtype=np.int64) * 3) % p
    assert np.array_equal(killer.add(a, b), (a + b) % p)
    assert np.array_equal(killer.mul(a, b), (a * b) % p)
    assert np.array_equal(killer.neg(a), (-a) % p)
    units = np.arange(1, p, dtype=np.int64)
    inv = killer.inv(units)
    assert np.array_equal((units * inv) % p, np.ones_like(units))
    for u in range(1, p):
        assert killer.inv(u) == K.inv(u)
    # is_zero answers for the whole batch: true only when every lane is 0
    assert killer.is_zero(0)
    assert not killer.is_zero(3)
    for dtype in (np.int32, np.int64, object):
        lanes = np.zeros(5, dtype=dtype)
        assert killer.is_zero(lanes)
        lanes[3] = 1
        assert not killer.is_zero(lanes)
    assert killer != K and K != killer
