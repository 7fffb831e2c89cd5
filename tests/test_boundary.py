"""The integer rule at the public boundary, held by one table, and the
reason each public name is public, held by another.

The rule (stated once, in rootsys): a numpy integer counts as the Python
int it holds and a Python or numpy bool as 0 or 1; anything else raises
TypeError or ValueError from chevorbit itself.  ROWS names every integer
parameter of the public surface, each with a call that feeds it one value
and returns a JSON-able view of the result.  Every row gets a Python int,
True, np.True_, the row's int in every numpy integer dtype that holds it,
every dtype's least and greatest value, 2**70, a float and a str; a
field-element row also gets a lane array of every dtype, bool and uint64
included.  A cell passes when

* the call equals the call with the Python int (lane by lane for a lane
  array), and its result holds no numpy scalar, so json.dumps of any
  report works; or
* it raises what the Python-int call raises, or, for a float or a str,
  TypeError (ValueError from classify_many, which refuses a batch as a
  whole), or, for a lane array the callable does not take, TypeError or
  ValueError; in every case from a frame under src/chevorbit, not from
  numpy or random.

Counts that drive work (crosscheck's pairs, jacobi_check's sampled draw)
get only the values below their row's cap, so every cell stays bounded.

REASONS gives every name chevorbit exports, and every public method of an
exported class, one reason to be public, and each reason is checked
against the code, the acceptance suite or the README.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import os
import traceback
import types

import numpy as np
import pytest

import chevorbit
from chevorbit import (
    LieVector,
    OrbitDescriptor,
    PrimeField,
    RootSystem,
    SystemTooLarge,
    ZBlock,
    act_on_v1,
    al_pair,
    apply_root_element,
    apply_word,
    associated_root_element,
    build_root_system,
    build_table_oracle,
    classify,
    classify_many,
    crosscheck,
    enumerate_orbits,
    is_prime,
    jacobi_check,
    predicted_census,
    root_count,
    same_orbit,
    sign_rule,
    sl2_invariant,
    sl2_invariant_matrix,
    square_class,
    w_apply_fast,
    w_word,
)
from chevorbit.census import check_budget, state_of_vector, vector_of_state
from chevorbit.cli import EXIT_CODES, main
from helpers import (
    INTEGERS,
    get_census,
    get_field,
    get_system,
    get_table,
    inverse_word,
    reached_names,
    run_time_names,
)

SRC = os.path.dirname(os.path.abspath(chevorbit.__file__))
DTYPES = (np.int8, np.int16, np.int32, np.int64,
          np.uint8, np.uint16, np.uint32, np.uint64)


def extremes():
    return [t(v) for t in DTYPES for v in (np.iinfo(t).min, np.iinfo(t).max)]


def integer_values(base: int) -> list:
    """The values a row is fed that hold an integer, base's own spellings
    first."""
    fits = [t(base) for t in DTYPES
            if np.iinfo(t).min <= base <= np.iinfo(t).max]
    return [base, True, False, np.True_, np.False_, *fits, *extremes(), 2**70]


NOT_INTEGERS = (2.0, 3.5, "3")


def lanes(base: int) -> list:
    """Lane arrays of every integer dtype (base, 0, 1 and its extremes),
    one of bools, and one of Python ints past 2**64."""
    out = []
    for t in DTYPES:
        info = np.iinfo(t)
        values = [v for v in (base, 0, 1, info.min, info.max)
                  if info.min <= v <= info.max]
        out.append(np.array(values, dtype=t))
    return out + [np.array([True, False, True]),
                  np.array([base, 2**70, -(2**70)], dtype=object)]


# -- views: the JSON-able form of a result ---------------------------------------


def descs(ds):
    return [d.to_json() for d in ds]


def inv_view(s):
    return [s.kind, s.square and [s.square.p, s.square.rep], s.k]


def word_view(word):
    return [[list(g), a] for g, a in word]


# -- the rows ------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Row:
    key: str  # "callable.parameter", as the completeness check reads them
    call: object  # value -> a JSON-able view of the result
    base: int  # the row's ordinary Python int
    cap: int | None = None  # values above it would not stay bounded
    field: bool = False  # a field element: also fed lane arrays
    label: str = ""
    refuses: type = TypeError  # what a float or a str raises

    @property
    def id(self):
        return self.key + (f"[{self.label}]" if self.label else "")


def d4():
    return get_table("D4")


def a3():
    return get_table("A3")


def x_d4(v):
    return [v, 1, 0, 2, 0, 0, 1, 0]


def level0_root():
    rs = get_system("D4")
    return next(a for a in rs.positive_roots if rs.level(a) == 0)


def rs_view(rs):
    return rs.to_json()


def classify_built(family, v):
    """Build the system of rank v, its table, and classify a vector of
    ones: a numpy rank used to reach _orbit_types as given."""
    rs = build_root_system(family, v)
    d = classify(build_table_oracle(rs), get_field(5), (1,) * len(rs.phi1))
    return [rs_view(rs), d.to_json()]


def descriptor_json(**fields):
    """A D4/F5 descriptor read back from JSON with some fields replaced."""
    d = {"family": "D", "rank": 4, "p": 5, "label": "I", **fields}
    return OrbitDescriptor.from_json(d).to_json()


ROWS = [
    # -- scalars: primes, ranks, indices, keys ----------------------------------------
    Row("PrimeField.p", lambda v: PrimeField(v).p, 7),
    Row("is_prime.n", is_prime, 7),
    Row("root_count.rank", lambda v: root_count("A", v), 3, label="A"),
    Row("root_count.rank", lambda v: root_count("D", v), 4, label="D"),
    Row("RootSystem.rank", lambda v: rs_view(RootSystem("E", v)), 6),
    Row("build_root_system.rank",
        lambda v: rs_view(build_root_system("D", v)), 4),
    Row("build_root_system.rank", lambda v: classify_built("A", v), 3,
        label="classify A"),
    Row("build_root_system.rank", lambda v: classify_built("D", v), 4,
        label="classify D"),
    Row("RootSystem.simple.i", lambda v: get_system("D4").simple(v), 2),
    Row("sign_rule.i",
        lambda v: sign_rule(get_system("D4"), v, (0, 1, 0, 0)), 3),
    Row("StructureConstantTable.h_key.t", lambda v: d4().h_key(v), 3),
    Row("LieVector.basis.key",
        lambda v: LieVector.basis(d4(), get_field(5), v).coeffs, 3),
    Row("LieVector.h_coeff.t",
        lambda v: LieVector.basis(d4(), get_field(5),
                                  d4().h_key(2)).h_coeff(v), 2),
    Row("associated_root_element.order",
        lambda v: associated_root_element(d4(), get_field(5), x_d4(3),
                                          order=[v, *range(1, 8)]).coeffs,
        0),
    Row("OrbitDescriptor.from_json.rank",
        lambda v: descriptor_json(rank=v), 4),
    Row("OrbitDescriptor.from_json.p", lambda v: descriptor_json(p=v), 5),
    # -- counts, seeds, budgets, states -----------------------------------------------
    Row("jacobi_check.exhaustive_limit",
        lambda v: jacobi_check(d4(), exhaustive_limit=v, samples=50, seed=3),
        0),
    Row("jacobi_check.samples",
        lambda v: jacobi_check(d4(), exhaustive_limit=10**6, samples=v), 50,
        label="exhaustive"),
    Row("jacobi_check.samples",
        lambda v: jacobi_check(d4(), exhaustive_limit=0, samples=v, seed=3),
        300, cap=40_000, label="sampled"),
    Row("jacobi_check.seed",
        lambda v: jacobi_check(d4(), exhaustive_limit=0, samples=200,
                               seed=v), 3),
    # 5**4 states: past 8 bits
    Row("enumerate_orbits.p", lambda v: enumerate_orbits(a3(), v).to_json(),
        5),
    Row("enumerate_orbits.budget",
        lambda v: enumerate_orbits(a3(), 3, budget=v).to_json(), 100),
    Row("check_budget.p", lambda v: check_budget(a3().rs, v), 5),
    Row("check_budget.budget",
        lambda v: check_budget(a3().rs, 3, budget=v), 100),
    Row("predicted_census.p", lambda v: descs(predicted_census(a3(), v)), 5),
    Row("predicted_census.bytes_per_orbit",
        lambda v: descs(predicted_census(a3(), 5, bytes_per_orbit=v)), 400),
    Row("crosscheck.p",
        lambda v: crosscheck(a3(), v, pairs=20, census=get_census("A3", 3)),
        3),
    Row("crosscheck.pairs",
        lambda v: crosscheck(a3(), 3, pairs=v, census=get_census("A3", 3)),
        20, cap=40_000),
    Row("crosscheck.seed",
        lambda v: crosscheck(a3(), 3, pairs=20, seed=v,
                             census=get_census("A3", 3)), 1),
    Row("state_of_vector.p",
        lambda v: state_of_vector(get_system("D4"), v, x_d4(3)), 5),
    Row("vector_of_state.p",
        lambda v: vector_of_state(get_system("D4"), v, 7), 5),
    Row("vector_of_state.s",
        lambda v: vector_of_state(get_system("D4"), 5, v), 7),
    # -- field elements and vector entries ----------------------------------------
    Row("PrimeField.of.n", lambda v: get_field(5).of(v), 3, field=True),
    Row("PrimeField.inv.a", lambda v: get_field(5).inv(v), 3, field=True),
    Row("PrimeField.is_square.a", lambda v: get_field(5).is_square(v), 3,
        field=True),
    Row("PrimeField.is_zero.a", lambda v: get_field(5).is_zero(v), 3,
        field=True),
    Row("square_class.a",
        lambda v: dataclasses.astuple(square_class(get_field(5), v)), 3,
        field=True),
    Row("classify.x", lambda v: classify(d4(), get_field(5),
                                         x_d4(v)).to_json(), 2, field=True),
    Row("classify.x", lambda v: classify(a3(), get_field(5),
                                         [v, 1, 0, 2]).to_json(), 2,
        field=True, label="A"),
    Row("classify_many.X",
        lambda v: descs(classify_many(d4(), get_field(5), [x_d4(v)])), 2,
        field=True, refuses=ValueError),
    # an entry past 2**64 sends the batch to its list path
    Row("classify_many.X",
        lambda v: descs(classify_many(d4(), get_field(5),
                                      [[v, 2**70, 0, 0, 0, 0, 0, 0]])), 2,
        field=True, label="list path", refuses=ValueError),
    Row("same_orbit.x1",
        lambda v: same_orbit(d4(), get_field(5), x_d4(v), x_d4(2)), 2,
        field=True),
    Row("state_of_vector.x",
        lambda v: state_of_vector(get_system("D4"), 5, x_d4(v)), 2,
        field=True),
    Row("LieVector.from_v1.x",
        lambda v: LieVector.from_v1(d4(), get_field(5), x_d4(v)).coeffs, 2,
        field=True),
    Row("act_on_v1.x",
        lambda v: list(act_on_v1(d4(), get_field(5),
                                 [(level0_root(), 2)], x_d4(v))), 2,
        field=True),
    Row("act_on_v1.word",
        lambda v: list(act_on_v1(d4(), get_field(5),
                                 [(level0_root(), v)], x_d4(3))), 2,
        field=True),
    Row("apply_root_element.a",
        lambda v: apply_root_element(
            d4(), level0_root(), v,
            LieVector.from_v1(d4(), get_field(5), x_d4(3))).coeffs, 2,
        field=True),
    Row("apply_word.word",
        lambda v: apply_word(
            d4(), [(level0_root(), v), (level0_root(), 1)],
            LieVector.from_v1(d4(), get_field(5), x_d4(3))).coeffs, 2,
        field=True),
    # over an exact PrimeField the vector holds ints, so a scalar is one
    # int: a one-lane array is refused like any lane array, never written
    # into the coefficients
    Row("apply_root_element.a",
        lambda v: apply_root_element(
            d4(), level0_root(), np.array([v]),
            LieVector.from_v1(d4(), get_field(5), x_d4(3))).coeffs, 2,
        label="one lane"),
    Row("apply_word.word",
        lambda v: apply_word(
            d4(), [(level0_root(), np.array([v]))],
            LieVector.from_v1(d4(), get_field(5), x_d4(3))).coeffs, 2,
        label="one lane"),
    Row("w_word.a", lambda v: word_view(w_word(get_field(5),
                                               level0_root(), v)), 2,
        field=True),
    Row("w_apply_fast.a",
        lambda v: w_apply_fast(
            d4(), level0_root(), v,
            LieVector.from_v1(d4(), get_field(5), x_d4(3))).coeffs, 2,
        field=True),
    Row("al_pair.x", lambda v: [list(h) for h in al_pair(get_system("A3"),
                                                         [v, 1, 0, 2])], 2,
        field=True),
    Row("associated_root_element.x",
        lambda v: associated_root_element(d4(), get_field(5),
                                          x_d4(v)).coeffs, 2, field=True),
    Row("sl2_invariant.z",
        lambda v: inv_view(sl2_invariant(get_field(5), ZBlock(1, v, 2))), 3,
        field=True),
    Row("sl2_invariant_matrix.mat",
        lambda v: inv_view(sl2_invariant_matrix(get_field(5),
                                                ((1, v), (2, -1)))), 3,
        field=True),
    # -- the tests' integer domain and inverse word (tests/helpers.py), which
    # other tests feed every spelling: they read it by the same rule --------
    Row("ExactIntegers.of.n", INTEGERS.of, 3, field=True),
    Row("inverse_word.word",
        lambda v: word_view(inverse_word(get_field(5),
                                         [(level0_root(), v)])), 2,
        field=True),
]


# -- the cells ----------------------------------------------------------------------


def outcome(call, v):
    try:
        return True, call(v)
    except Exception as e:  # every outcome is compared below
        return False, e


def last_frame(e: BaseException) -> str:
    return traceback.extract_tb(e.__traceback__)[-1].filename


def numpy_scalars(view) -> list:
    """The numpy scalars anywhere in a view (lane arrays are allowed)."""
    if isinstance(view, np.generic):
        return [view]
    if isinstance(view, dict):
        return numpy_scalars(list(view.items()))
    if isinstance(view, (list, tuple)):
        return [s for item in view for s in numpy_scalars(item)]
    return []


def lane(view, i: int):
    """Lane i of a view: every array replaced by its i-th entry."""
    if isinstance(view, np.ndarray):
        return int(view[i])
    if isinstance(view, dict):
        return {k: lane(v, i) for k, v in view.items()}
    if isinstance(view, (list, tuple)):
        return type(view)(lane(item, i) for item in view)
    return view


def check_refused(row: Row, v, e) -> None:
    assert isinstance(e, (TypeError, ValueError)), (row.id, v, e)
    assert last_frame(e).startswith(SRC), (row.id, v, last_frame(e))


def check_integer(row: Row, v) -> None:
    want_ok, want = outcome(row.call, int(v))
    got_ok, got = outcome(row.call, v)
    if not want_ok:
        assert not got_ok, (row.id, v, "returned", got, "where", want)
        assert (type(got), str(got)) == (type(want), str(want)), (row.id, v)
        for e in (want, got):
            assert last_frame(e).startswith(SRC), (row.id, v, e,
                                                   last_frame(e))
        return
    assert got_ok, (row.id, v, got, "where the int returned", want)
    assert got == want, (row.id, v)
    assert not numpy_scalars(got), (row.id, v, numpy_scalars(got))
    json.dumps(got)


@pytest.mark.parametrize("row", ROWS, ids=lambda r: r.id)
def test_every_integer_spelling_reads_as_its_python_int(row):
    for v in integer_values(row.base):
        if row.cap is None or int(v) <= row.cap:
            check_integer(row, v)
    for v in NOT_INTEGERS:
        ok, got = outcome(row.call, v)
        assert not ok, (row.id, v, got)
        assert type(got) is row.refuses, (row.id, v, got)
        check_refused(row, v, got)


@pytest.mark.parametrize("row", [r for r in ROWS if r.field],
                         ids=lambda r: r.id)
def test_lanes_of_every_dtype_equal_the_int_calls_lane_by_lane(row):
    for x in lanes(row.base):
        ok, got = outcome(row.call, x)
        if not ok:
            check_refused(row, x, got)
            continue
        assert not numpy_scalars(got), (row.id, x.dtype)
        for i, c in enumerate(x.tolist()):
            want_ok, want = outcome(row.call, int(c))
            assert want_ok, (row.id, x.dtype, c, want)
            assert lane(got, i) == want, (row.id, x.dtype, c)


def test_classify_many_reads_an_array_of_every_dtype_as_its_ints():
    # each row of the batch equals classify of its Python ints, through
    # the array path, or for an object array the list path
    t, K = d4(), get_field(5)
    for x in lanes(2):
        X = np.resize(x, (7, 8))
        want = [classify(t, K, [int(c) for c in row]) for row in X]
        assert classify_many(t, K, X) == want, X.dtype


# -- cli.main ----------------------------------------------------------------------


CLI_ROWS = [
    ("orbits -p", ["orbits", "A3", "-p", "{}"], "3"),
    ("classify -p", ["classify", "D4", "-p", "{}", "--vector",
                     "1,0,0,0,0,0,0,0"], "3"),
    ("orbits --budget", ["orbits", "A3", "-p", "3", "--brute-force",
                         "--budget", "{}"], "100"),
    ("orbits --seed", ["orbits", "A3", "-p", "3", "--compare", "--seed",
                       "{}"], "0"),
    ("constants --seed", ["constants", "D7", "--check", "jacobi", "--seed",
                          "{}"], "1729"),
]


@pytest.mark.parametrize("argv,base", [r[1:] for r in CLI_ROWS],
                         ids=[r[0] for r in CLI_ROWS])
def test_cli_integer_options_end_in_a_documented_exit_code(capsys, argv,
                                                           base):
    # an option argparse cannot read as an int exits 2 with its usage;
    # anything else ends in an EXIT_CODES code and its one-line reason
    values = [base, "True", *map(str, map(int, extremes())), str(2**70),
              "2.0", "x"]
    for v in dict.fromkeys(values):
        code = main([a.format(v) for a in argv])
        out, err = capsys.readouterr()
        assert "Traceback" not in err, (argv, v)
        if code == 0:
            assert err == "" and out, (argv, v)
        elif err.startswith("usage:"):
            assert (code, out) == (2, ""), (argv, v)
        else:
            assert out == "" and any(
                code == c and err.startswith(f"{prefix}: ")
                for _, c, prefix in EXIT_CODES), (argv, v, code, err)


# -- the defects a probe found before the rule held at every entry ---------------


DEFECTS = {
    "numpy rank is stored as given": lambda: json.loads(json.dumps(
        build_root_system("D", np.int8(4)).to_json()))["rank"] == 4,
    "numpy rank reaches classify": lambda: classify_built(
        "D", np.int64(4)) == classify_built("D", 4),
    "rank wraps past MAX_ROOTS": lambda: raises(
        SystemTooLarge, root_count, "D", np.int64(2**62)),
    "huge numpy rank builds": lambda: raises(
        SystemTooLarge, build_root_system, "D", np.int64(2**63 - 1)),
    "bool rank": lambda: rs_view(build_root_system("A", True)) == rs_view(
        build_root_system("A", 1)),
    "memory price wraps": lambda: raises(
        chevorbit.BudgetExceeded, predicted_census, d4(), 5,
        bytes_per_orbit=np.int64(2**62)),
    "memory price out of range": lambda: all(
        raises(ValueError, predicted_census, d4(), 5, bytes_per_orbit=b)
        for b in (-5, 0)) and raises(TypeError, predicted_census, d4(), 5,
                                     bytes_per_orbit=2.5),
    "batch refuses what classify takes": lambda: classify_many(
        d4(), get_field(5), [[np.True_, 2**70, 0, 0, 0, 0, 0, 0]]) == [
        classify(d4(), get_field(5), [np.True_, 2**70, 0, 0, 0, 0, 0, 0])],
    "numpy bool counts": lambda: (
        jacobi_check(d4(), exhaustive_limit=0, samples=np.True_,
                     seed=np.True_)
        == jacobi_check(d4(), exhaustive_limit=0, samples=1, seed=1)
        and jacobi_check(d4(), exhaustive_limit=np.True_, samples=1)
        == jacobi_check(d4(), exhaustive_limit=1, samples=1)
        and raises(chevorbit.BudgetExceeded, enumerate_orbits, a3(), 3,
                   budget=np.True_)
        and crosscheck(a3(), 3, pairs=np.True_, seed=np.True_,
                       census=get_census("A3", 3))
        == crosscheck(a3(), 3, pairs=1, seed=1, census=get_census("A3", 3))
        and vector_of_state(get_system("D4"), 5, np.True_) == (0,) * 7 + (1,)),
    "float index": lambda: all(raises(TypeError, f) for f in (
        lambda: get_table("D5").h_key(3.0),
        lambda: get_system("D4").simple(2.0),
        lambda: sign_rule(get_system("D4"), 3.0, (0, 1, 0, 0)))),
}


def raises(exc, f, *args, **kwargs) -> bool:
    try:
        f(*args, **kwargs)
    except exc:
        return True
    return False


@pytest.mark.parametrize("name", list(DEFECTS))
def test_probed_defect_is_gone(name):
    assert DEFECTS[name]()


# Over an exact PrimeField a field element is one int (lanes run over a
# PrimeField subclass such as helpers.ArrayField): inv, is_zero and
# is_square read theirs by as_int, so a lane is refused with TypeError
# here as in from_v1, apply_word and classify, not truth-tested by numpy.
LANE_CALLS = {
    "w_word": lambda lane: w_word(get_field(5), level0_root(), lane),
    "w_apply_fast": lambda lane: w_apply_fast(
        d4(), level0_root(), lane,
        LieVector.from_v1(d4(), get_field(5), x_d4(3))),
    "associated_root_element": lambda lane: associated_root_element(
        d4(), get_field(5), [lane, *x_d4(3)[1:]]),
    "sl2_invariant": lambda lane: sl2_invariant(get_field(5),
                                                ZBlock(1, lane, 2)),
    "sl2_invariant_matrix": lambda lane: sl2_invariant_matrix(
        get_field(5), ((lane, 1), (2, -lane))),
    "square_class": lambda lane: square_class(get_field(5), lane),
    "PrimeField.inv": lambda lane: get_field(5).inv(lane),
}


@pytest.mark.parametrize("name", list(LANE_CALLS))
def test_a_lane_over_an_exact_prime_field_raises_type_error(name):
    with pytest.raises(TypeError) as e:
        LANE_CALLS[name](np.arange(1, 4))
    assert last_frame(e.value).startswith(SRC)


# -- tooling: the table covers the surface, and the rule lives in one place -------

# records whose fields the library fills with ints it has already read
# (exception classes are skipped too)
VALUE_TYPES = {"OrbitCensus", "OrbitDescriptor", "OrbitEntry",
               "Sl2Invariant", "SquareClass", "ZBlock"}


def integer_parameters():
    """(callable, parameter) for every parameter annotated int of every
    callable chevorbit exports, and of three census entry points."""
    found = set()
    surface = dict(vars(chevorbit))
    surface.update(check_budget=check_budget, state_of_vector=state_of_vector,
                   vector_of_state=vector_of_state)
    for name, obj in surface.items():
        if (name.startswith("_") or not callable(obj) or name in VALUE_TYPES
                or isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        for p in inspect.signature(obj).parameters.values():
            if "int" in str(p.annotation):
                found.add(f"{name}.{p.name}")
    return found


def test_every_integer_parameter_has_a_row():
    keys = {r.key for r in ROWS}
    params = integer_parameters()
    assert params, "no integer parameter found"
    assert not params - keys, f"no row for {sorted(params - keys)}"


# Why each public name is public: every name chevorbit exports, and every
# public method, property and class or static method of an exported
# class, with one (reason, where) entry:
#   caller      a function under src/ that names it, where cli.main's code
#               reaches that function by name; scripts/reached.py
#               --check-reasons also checks that it calls the member's own
#               code (the first read, for a cached property);
#   failure     the same, for an exception or a method on a failure path:
#               the function that raises it or reports through it;
#   acceptance  the test of tests/test_acceptance.py that reaches it, by
#               name or through the chevorbit functions it calls;
#   readme      the README section that documents it, in backticks;
#   protocol    the coefficient-domain protocol, which gfield's docstring
#               lists.
# A name without one is moved to tests/helpers.py, if a test uses it as an
# oracle, or deleted; REASONS reads the real surface, so there is no
# __all__ to keep beside the imports.
REASONS = {
    # census
    "BudgetExceeded": ("failure", "census.check_budget"),
    "MismatchReport": ("failure", "census.crosscheck"),
    "OrbitCensus": ("caller", "census.enumerate_orbits"),
    "OrbitCensus.orbit_count": ("caller", "census.OrbitCensus.to_json"),
    "OrbitCensus.to_json": ("caller", "cli.cmd_orbits"),
    "OrbitEntry": ("caller", "census.enumerate_orbits"),
    "OrbitEntry.to_json": ("caller", "census.OrbitCensus.to_json"),
    "crosscheck": ("caller", "cli.cmd_orbits"),
    "enumerate_orbits": ("caller", "cli.cmd_orbits"),
    "predicted_census": ("caller", "cli.cmd_orbits"),
    # chevalley
    "InconsistentTable": ("failure", "chevalley.verify_table"),
    "JacobiViolation": ("failure", "chevalley.jacobi_check"),
    "StructureConstantTable": ("caller", "chevalley.build_table_oracle"),
    "StructureConstantTable.e_key": ("caller", "liemod._phi1_keys"),
    "StructureConstantTable.h_key": ("caller", "orbitlab._kernel_plan"),
    "StructureConstantTable.nv": ("caller", "cli.cmd_constants"),
    "StructureConstantTable.structure_constant": (
        "caller", "orbitlab.associated_root_element"),
    "StructureConstantTable.defined_pairs": ("caller", "cli.cmd_constants"),
    "StructureConstantTable.bracket_keys": ("failure",
                                            "chevalley._jacobi_defect"),
    "UndefinedPair": ("failure",
                      "chevalley.StructureConstantTable.structure_constant"),
    "UnderdeterminedTable": ("failure", "chevalley.build_table_oracle"),
    "build_table_oracle": ("caller", "cli.cmd_constants"),
    "jacobi_check": ("caller", "cli.cmd_constants"),
    "sign_rule": ("acceptance",
                  "test_criterion_02_closed_form_sign_rule_matches_table"),
    "structure_constant_fast": ("readme", "What it does"),
    "verify_table": ("caller", "cli.cmd_constants"),
    # gfield
    "ModulusTooLarge": ("failure", "gfield.is_prime"),
    "NotPrime": ("failure", "gfield.PrimeField.__init__"),
    "PrimeField": ("caller", "cli.cmd_classify"),
    "PrimeField.of": ("protocol", "gfield"),
    "PrimeField.add": ("protocol", "gfield"),
    "PrimeField.sub": ("protocol", "gfield"),
    "PrimeField.mul": ("protocol", "gfield"),
    "PrimeField.neg": ("protocol", "gfield"),
    "PrimeField.inv": ("protocol", "gfield"),
    "PrimeField.is_zero": ("protocol", "gfield"),
    "PrimeField.units": ("caller", "orbitlab._orbit_types"),
    "PrimeField.require_odd": ("caller", "cli.cmd_classify"),
    "PrimeField.is_square": ("acceptance",
                             "test_criterion_07_sl2_invariants_match_conjugacy"),
    "PrimeField.least_nonresidue": ("caller", "orbitlab._orbit_types"),
    "SquareClass": ("acceptance",
                    "test_criterion_07_sl2_invariants_match_conjugacy"),
    "UnsupportedField": ("failure", "gfield.PrimeField.require_odd"),
    "is_prime": ("caller", "gfield.PrimeField.__init__"),
    "square_class": ("acceptance",
                     "test_criterion_07_sl2_invariants_match_conjugacy"),
    # liemod
    "LieVector": ("caller", "liemod.apply_word"),
    "LieVector.zero": ("caller", "liemod.LieVector.basis"),
    "LieVector.basis": ("caller", "orbitlab.associated_root_element"),
    "LieVector.from_v1": ("readme", "Python API"),
    "LieVector.e_coeff": ("caller", "orbitlab.associated_root_element"),
    "LieVector.h_coeff": ("caller", "orbitlab.associated_root_element"),
    "LieVector.v1_part": ("caller", "orbitlab.associated_root_element"),
    "LieVector.level_support": (
        "acceptance", "test_criterion_10_invariants_unchanged_under_action"),
    "ZeroScalar": ("acceptance",
                   "test_criterion_05_torus_word_fast_action_agreement"),
    "act_on_v1": ("acceptance",
                  "test_criterion_10_invariants_unchanged_under_action"),
    "apply_root_element": ("caller", "orbitlab.associated_root_element"),
    "apply_word": ("caller", "liemod.apply_root_element"),
    "w_apply_fast": ("acceptance",
                     "test_criterion_05_torus_word_fast_action_agreement"),
    "w_word": ("acceptance",
               "test_criterion_05_torus_word_fast_action_agreement"),
    # orbitlab
    "CharTwo": ("failure", "orbitlab._require_odd"),
    "ClassificationError": ("failure", "orbitlab._check_blocks"),
    "InvalidDescriptor": ("failure", "orbitlab.canonical_form"),
    "Luminosity": ("acceptance",
                   "test_criterion_10_invariants_unchanged_under_action"),
    "NotTraceZero": ("acceptance",
                     "test_criterion_07_sl2_invariants_match_conjugacy"),
    "OrbitDescriptor": ("caller", "orbitlab._AClassifier.decode"),
    "OrbitDescriptor.param": ("caller", "orbitlab._int_param"),
    "OrbitDescriptor.to_json": ("caller", "cli.cmd_classify.entry"),
    "OrbitDescriptor.from_json": ("readme", "Python API"),
    "Sl2Invariant": ("acceptance",
                     "test_criterion_07_sl2_invariants_match_conjugacy"),
    "UnsupportedFamily": ("failure", "orbitlab.check_domain"),
    "ZBlock": ("acceptance",
               "test_criterion_07_sl2_invariants_match_conjugacy"),
    "al_pair": ("acceptance",
                "test_criterion_10_invariants_unchanged_under_action"),
    "all_descriptors": ("caller", "census.predicted_census"),
    "associated_root_element": ("caller", "orbitlab._doubled_lift"),
    "block_gammas": ("caller", "orbitlab._kernel_plan"),
    "canonical_form": ("caller", "cli._canonical"),
    "classify": ("caller", "cli.cmd_classify"),
    "classify_many": ("caller", "cli.cmd_classify"),
    "luminosity": ("acceptance",
                   "test_criterion_10_invariants_unchanged_under_action"),
    "same_orbit": ("caller", "census.crosscheck.check_chunk"),
    "sl2_invariant": ("acceptance",
                      "test_criterion_10_invariants_unchanged_under_action"),
    "sl2_invariant_matrix": (
        "acceptance", "test_criterion_07_sl2_invariants_match_conjugacy"),
    "z_blocks": ("acceptance",
                 "test_criterion_10_invariants_unchanged_under_action"),
    # rootsys
    "InternalError": ("failure", "rootsys.standard_quadruple"),
    "NotAPositiveRoot": (
        "acceptance", "test_criterion_04_minimal_subtraction_dichotomy"),
    "NotARoot": ("failure", "rootsys.RootSystem.root_id"),
    "RootSystem": ("caller", "rootsys.build_root_system"),
    "RootSystem.ids": ("caller", "chevalley.build_table_oracle"),
    "RootSystem.is_root": ("caller", "rootsys.standard_quadruple"),
    "RootSystem.is_positive": (
        "acceptance", "test_criterion_04_minimal_subtraction_dichotomy"),
    "RootSystem.root_id": ("caller", "liemod._action_plan"),
    "RootSystem.simple": ("caller", "rootsys.standard_quadruple"),
    "RootSystem.neg": ("caller", "orbitlab.associated_root_element"),
    "RootSystem.add": ("caller", "orbitlab.block_gammas"),
    "RootSystem.sub": ("caller", "orbitlab.block_gammas"),
    "RootSystem.pair": ("readme", "What it does"),
    "RootSystem.level": ("caller", "cli.cmd_roots"),
    "RootSystem.phi1_index": ("caller", "orbitlab._orbit_types"),
    "RootSystem.check_v1": ("caller", "cli.cmd_classify"),
    "RootSystem.to_json": ("caller", "cli.cmd_roots"),
    "SystemTooLarge": ("failure", "rootsys.root_count"),
    "UnsupportedSystem": ("failure", "rootsys.parse_system_name"),
    "build_root_system": ("caller", "cli.cmd_roots"),
    "min_subtractable_index": (
        "acceptance", "test_criterion_04_minimal_subtraction_dichotomy"),
    "parse_system_name": ("caller", "cli.cmd_roots"),
    "root_count": ("caller", "rootsys.RootSystem.__init__"),
    "simple_index": ("caller", "orbitlab._kernel_plan"),
    "standard_quadruple": ("caller", "orbitlab.block_gammas"),
}


def public_members(package) -> set:
    """Every name the package exports (its submodules aside), and every
    public method, property and class or static method that an exported
    class defines, as Class.name."""
    out = set()
    for name, obj in vars(package).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        out.add(name)
        if isinstance(obj, type):
            out.update(f"{name}.{k}" for k, v in vars(obj).items()
                       if not k.startswith("_") and (callable(v) or isinstance(
                           v, (classmethod, staticmethod, property,
                               functools.cached_property))))
    return out


def definition(path: str, dotted: str):
    """The def or class node of a dotted module-level path in a source."""
    with open(path, encoding="utf-8") as f:
        body = ast.parse(f.read()).body
    for name in dotted.split("."):
        node = next(n for n in body if isinstance(
            n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
        body = node.body
    return node


@functools.cache
def reached_from_main() -> set:
    import chevorbit.cli
    return reached_names(chevorbit.cli, "main") | {"main"}


def reason_holds(member: str, reason: str, where: str) -> bool:
    name = member.rsplit(".", 1)[-1]
    if reason in ("caller", "failure"):
        module, dotted = where.split(".", 1)
        return (name in run_time_names(definition(
                    os.path.join(SRC, module + ".py"), dotted))
                and dotted.split(".")[0] in reached_from_main())
    if reason == "acceptance":
        return name in reached_names(
            importlib.import_module("test_acceptance"), where)
    if reason == "readme":
        with open(os.path.join(SRC, "..", "..", "README.md"),
                  encoding="utf-8") as f:
            section = f.read().partition(f"\n## {where}\n")[2]
        section = section.partition("\n## ")[0]
        return f"`{member}`" in section or f"`{name}`" in section
    if reason == "protocol":
        return f"``{name}``" in importlib.import_module(
            f"chevorbit.{where}").__doc__
    return False


def test_every_exported_name_has_a_reason():
    members = public_members(chevorbit)
    assert len(members) > 64, "no method found"
    assert not members - set(REASONS), \
        f"no reason for {sorted(members - set(REASONS))}"
    assert not set(REASONS) - members, \
        f"reasons for names not exported: {sorted(set(REASONS) - members)}"


@pytest.mark.parametrize("member", sorted(REASONS))
def test_each_reason_holds(member):
    assert reason_holds(member, *REASONS[member]), (member, REASONS[member])


def test_a_reason_that_does_not_hold_is_refused():
    assert not reason_holds("classify", "caller", "cli.cmd_roots")
    assert not reason_holds("w_word", "caller", "liemod.w_apply_fast")
    assert not reason_holds("luminosity", "acceptance",
                            "test_criterion_07_sl2_invariants_match_conjugacy")
    assert not reason_holds("RootSystem.pair", "readme", "Python API")
    assert not reason_holds("PrimeField.units", "protocol", "gfield")
    # sign_rule is named in cli, but only on a path main does not reach
    assert not reason_holds("sign_rule", "caller", "chevalley.sign_rule")


# where a numpy bool or operator.index may appear: the two boundary helpers,
# and the hot paths that keep their own spelling (the compiled unit's
# index(x_i) % p, _Classifier.reduced's first pass, classify_many's array
# path)
ALLOWED = {("rootsys.py", "as_int"), ("rootsys.py", "integral"),
           ("orbitlab.py", "_kernel_of.spell"),
           ("orbitlab.py", "_Classifier.reduced"),
           ("orbitlab.py", "_batch_rows")}


def integer_rule_sites(source: str) -> list:
    """(enclosing function, line) of every operator.index, numpy bool name
    and bool-dtype kind test in a module's source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            hit = (isinstance(child, ast.Attribute)
                   and (child.attr == "index"
                        and getattr(child.value, "id", "") == "operator"
                        or child.attr in ("bool_", "bool")
                        and getattr(child.value, "id", "") in ("np",
                                                               "numpy"))
                   or isinstance(child, ast.ImportFrom)
                   and child.module == "operator"
                   and any(a.name == "index" for a in child.names)
                   or isinstance(child, ast.Compare)
                   and isinstance(child.left, ast.Attribute)
                   and child.left.attr == "kind"
                   and any(isinstance(c, ast.Constant)
                           and "b" in str(c.value)
                           for c in child.comparators))
            if hit:
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_integer_checks_live_only_in_the_boundary_helpers():
    sites = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                sites += [(name, scope, line)
                          for scope, line in integer_rule_sites(f.read())]
    assert {(name, scope) for name, scope, _ in sites} == ALLOWED, sites
    # the finder sees each spelling it looks for
    assert integer_rule_sites(
        "def f(x):\n    return operator.index(x), np.bool_, x.kind == 'b'\n"
        "from operator import index\n") == [("f", 2), ("f", 2), ("f", 2),
                                            ("", 3)]
