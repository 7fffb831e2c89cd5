"""Command-line surface: roots | constants | classify | orbits.

Exit codes: 0 success, else the code EXIT_CODES gives the exception: 1
failed verification, crosscheck or classification (an internal
inconsistency), or a broken internal invariant (InternalError), 2
malformed input, 3 unsupported request, 4 a request past the state budget,
physical memory or the process's memory limit, rootsys.MAX_ROOTS (1000
roots) or gfield.MAX_MODULUS, 130 interrupted (Ctrl-C).  Output goes to
stdout, or to --out FILE; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from .census import (
    BudgetExceeded,
    MismatchReport,
    _resolve_budget,
    check_budget,
    crosscheck,
    enumerate_orbits,
    predicted_census,
)
from .chevalley import (
    InconsistentTable,
    JacobiViolation,
    StructureConstantTable,
    UnderdeterminedTable,
    build_table_oracle,
    closed_form_table,
    jacobi_check,
    verify_table,
)
from .gfield import ModulusTooLarge, PrimeField, UnsupportedField
from .orbitlab import (
    CharTwo,
    ClassificationError,
    InvalidDescriptor,
    UnsupportedFamily,
    canonical_form,
    check_domain,
    classify,
    classify_many,
)
from .rootsys import (
    InternalError,
    SystemTooLarge,
    build_root_system,
    parse_system_name,
    standard_quadruple,
)


class CheckFailed(RuntimeError):
    """A requested verification check did not pass."""


def _root_str(root) -> str:
    return " ".join(str(c) for c in root)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2)


# -- roots -----------------------------------------------------------------


def cmd_roots(args) -> str:
    family, rank = parse_system_name(args.system)
    rs = build_root_system(family, rank)
    if args.format == "json":
        return _dump(rs.to_json())
    if args.format == "csv":
        lines = ["id,root,height,level"]
        for i, r in enumerate(rs.roots):
            lines.append(f"{i},{_root_str(r)},{sum(r)},{rs.level(r)}")
        return "\n".join(lines)
    lines = [
        f"system {rs.name}: {len(rs.roots)} roots "
        f"({rs.n_positive} positive), highest root {_root_str(rs.delta)}",
        f"levels: |phi1| = {len(rs.phi1)}, |phi0| = {len(rs.phi0)}",
        "",
        "phi1 order (vector coordinates for classify/orbits):",
    ]
    if rs.phi1:
        for i, r in enumerate(rs.phi1):
            lines.append(f"  [{i}] {_root_str(r)}")
    else:
        lines.append("  (empty)")
    lines.append("")
    lines.append("positive roots (height order):")
    for r in rs.positive_roots:
        lines.append(f"  {_root_str(r)}  height {sum(r)}  level {rs.level(r)}")
    return "\n".join(lines)


# -- constants ---------------------------------------------------------------


CHECK_NAMES = ("n1", "n2p", "n3pp", "n4", "jacobi", "theorem1")
# the checks verify_table runs: (name, the count it reports, its identities)
TABLE_CHECKS = (
    ("n1", "defined_pairs",
     ("antisymmetry", "negated_pair", "reversed_negated_pair")),
    ("n2p", "defined_pairs", ("rotation_1", "rotation_2")),
    ("n3pp", "instances", ("associativity",)),
    ("n4", "seeds", ("seeds",)),
)


def _sign_rule_agreement(table: StructureConstantTable) -> dict:
    """The closed form (closed_form_table) versus the oracle table on every
    pair.  A first disagreement where the first root is simple and both are
    positive lies in the part the sign rule fills."""
    rs = table.rs
    h = rs.n_positive
    # row-major, so the first disagreement is the first in defined_pairs
    bad = np.flatnonzero(closed_form_table(rs) != table._nt)
    if bad.size:
        a, b = divmod(int(bad[0]), len(rs.roots))
        what = ("sign rule" if a in rs.ids.simple_ids and b < h
                else "peeled closed form")
        raise CheckFailed(f"{rs.name}: {what} disagrees with the table "
                          f"at ({rs.roots[a]}, {rs.roots[b]})")
    simple = rs.ids.sum_id[rs.ids.simple_ids, :h]
    return {"sign_rule_pairs": int(np.count_nonzero(simple >= 0)),
            "all_pairs": int(np.count_nonzero(rs.ids.sum_id >= 0))}


def cmd_constants(args) -> str:
    family, rank = parse_system_name(args.system)
    rs = build_root_system(family, rank)
    table = build_table_oracle(rs)

    wanted = CHECK_NAMES if args.check == "all" else (args.check,)
    report: dict = {"system": rs.name, "stats": table.stats, "checks": {}}
    failures = []

    checks = [row for row in TABLE_CHECKS if row[0] in wanted]
    if checks:
        try:
            counts, failed = verify_table(table), ()
        except InconsistentTable as e:
            # failed None: the table is refused as a whole, every check fails
            counts, failed, error = e.counts or {}, e.failed, str(e)
        wrong = False
        for name, key, identities in checks:
            ok = failed is not None and not set(failed) & set(identities)
            report["checks"][name] = {"status": "pass" if ok else "fail",
                                      "checked": counts.get(key, 0)}
            wrong |= not ok
        if wrong:
            failures.append(error)
    if "jacobi" in wanted:
        try:
            jb = jacobi_check(table, seed=args.seed)
            report["checks"]["jacobi"] = {"status": "pass", **jb}
        except JacobiViolation as e:
            report["checks"]["jacobi"] = {"status": "fail"}
            failures.append(str(e))
    if "theorem1" in wanted:
        try:
            counts = _sign_rule_agreement(table)
            report["checks"]["theorem1"] = {"status": "pass", **counts}
        except CheckFailed as e:
            report["checks"]["theorem1"] = {"status": "fail"}
            failures.append(str(e))

    if rs.family == "D" and args.check == "all":
        lam, rho, sig, tau = standard_quadruple(rs)
        d = rs.delta
        N = table.structure_constant
        ld, sd, rd = rs.sub(lam, d), rs.sub(sig, d), rs.sub(rho, d)
        products = [N(ld, d) * N(ld, rho) * N(sd, d) * N(sd, tau)]
        if rs.rank == 4:
            products.append(N(ld, d) * N(ld, sig) * N(rd, d) * N(rd, tau))
        ok = all(v == 1 for v in products)
        report["quadruple_sign_products"] = {
            "status": "pass" if ok else "fail",
            "products": products,
        }
        if not ok:
            failures.append(f"quadruple sign products {products} != +1")

    if args.format == "csv":
        lines = ["alpha,beta,value"]
        for i, j in table.defined_pairs():
            i, j = int(i), int(j)
            lines.append(
                f"{_root_str(rs.roots[i])},{_root_str(rs.roots[j])},"
                f"{table.nv(i, j)}"
            )
        out = "\n".join(lines)
    else:
        out = _dump(report)
    if failures:
        raise CheckFailed("; ".join(failures) + "\n" + out)
    return out


# -- classify ------------------------------------------------------------------


def _canonical(table: StructureConstantTable, K, d) -> tuple[int, ...]:
    """canonical_form of the classifier's own descriptor d: one that names
    no orbit is an internal inconsistency, ClassificationError."""
    try:
        return canonical_form(table, K, d)
    except InvalidDescriptor as e:
        raise ClassificationError(str(e)) from None


def _parse_vector(text: str, p: int) -> list[int]:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    return _parse_entries(text, p)


def _parse_entries(text: str, p: int) -> list[int]:
    toks = [t for t in text.replace(",", " ").split() if t]
    out = []
    for t in toks:
        try:
            v = int(t)
        except ValueError:
            raise ValueError(f"vector entry {t!r} is not an integer") from None
        if not 0 <= v < p:
            raise ValueError(
                f"vector entry {v} is out of range for F_{p} (need 0..{p - 1})"
            )
        out.append(v)
    return out


def _parse_batch(spec: str, p: int) -> list[tuple[int, list[int]]]:
    """(line number, vector) for each nonempty line of the @FILE spec."""
    if not spec.startswith("@"):
        raise ValueError(f"--batch takes @FILE, not {spec!r}")
    with open(spec[1:], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = []
    for n, line in enumerate(lines, 1):
        if line.strip():
            try:
                out.append((n, _parse_entries(line, p)))
            except ValueError as e:
                raise ValueError(f"line {n}: {e}") from None
    return out


def cmd_classify(args) -> str:
    rs = build_root_system(*parse_system_name(args.system))
    K = PrimeField(args.p)
    K.require_odd()
    if args.batch is None:
        rows = [(None, _parse_vector(args.vector, args.p))]
    else:
        rows = _parse_batch(args.batch, args.p)
    check_domain(rs, K)
    for n, x in rows:
        try:
            rs.check_v1(x)
        except ValueError as e:
            where = "" if n is None else f"line {n}: "
            raise ValueError(f"{where}{e}") from None
    table = build_table_oracle(rs)

    def entry(d):
        return {"descriptor": d.to_json(),
                "canonical_representative": list(_canonical(table, K, d))}

    if args.batch is None:
        return _dump(entry(classify(table, K, rows[0][1])))
    # one compact line per vector, built once per distinct descriptor
    line_of: dict = {}
    lines = []
    for d in classify_many(table, K, [x for _, x in rows]):
        if (line := line_of.get(d)) is None:
            line = line_of[d] = json.dumps(entry(d), separators=(",", ":"))
        lines.append(line)
    return "\n".join(lines)


# -- orbits --------------------------------------------------------------------


def _census_csv(rows) -> str:
    """One line per (descriptor, size or None, representative) row."""
    lines = ["label,params,size,representative"]
    for d, size, rep in rows:
        ptxt = ";".join(f"{k}={v}" for k, v in d.params)
        stxt = "" if size is None else str(size)
        lines.append(f"{d.label},{ptxt},{stxt},{_root_str(rep)}")
    return "\n".join(lines)


def cmd_orbits(args) -> str:
    rs = build_root_system(*parse_system_name(args.system))
    K = PrimeField(args.p)
    K.require_odd()
    # every mode classifies, so family E is refused before any budget check
    # or table build
    check_domain(rs, K)
    if args.compare or args.brute_force:
        check_budget(rs, args.p, args.budget)
    elif args.budget is not None:
        # a predicted census applies no budget, but a nonpositive one is
        # bad input in every mode
        _resolve_budget(args.budget)
    table = build_table_oracle(rs)

    if args.compare:
        census = enumerate_orbits(table, args.p, budget=args.budget)
        report = crosscheck(table, args.p, census=census, seed=args.seed)
        report["mode"] = "compare"
        return _dump(report)

    if args.brute_force:
        census = enumerate_orbits(table, args.p, budget=args.budget)
        if args.format == "csv":
            return _census_csv((o.descriptor, o.size, o.representative)
                               for o in census.orbits)
        body = census.to_json()
        body["mode"] = "brute-force"
        return _dump(body)

    # peak RSS per orbit, base + per_entry * |phi1|: A2 (p = 211 to 601)
    # and D8 (p = 100,003 to 200,003) measured 3,535 and 5,731 bytes in
    # json, 598 and 856 in csv
    base, per_entry = {"json": (3400, 100), "csv": (1250, 13)}[args.format]
    descs = predicted_census(table, args.p, base + per_entry * len(rs.phi1))
    rows = [(d, None, _canonical(table, K, d)) for d in descs]
    if args.format == "csv":
        return _census_csv(rows)
    return _dump({
        "family": rs.family,
        "rank": rs.rank,
        "p": args.p,
        "mode": "predicted",
        "orbit_count": len(rows),
        "orbits": [{"descriptor": d.to_json(), "representative": list(rep)}
                   for d, _, rep in rows],
    })


# -- plumbing ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chevorbit",
        description=(
            "Chevalley structure constants and level-1 orbit classification "
            "for simply-laced root systems"
        ),
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p_roots = sub.add_parser("roots", help="dump a root system")
    p_roots.add_argument("system", help="system name, e.g. A3, D4, E6")
    p_roots.add_argument("--format", choices=("text", "json", "csv"),
                         default="text")
    p_roots.add_argument("--out", default=None)
    p_roots.set_defaults(func=cmd_roots)

    p_con = sub.add_parser(
        "constants", help="build the structure-constant table and verify it"
    )
    p_con.add_argument("system")
    p_con.add_argument(
        "--check", choices=CHECK_NAMES + ("all",), default="all",
        help=(
            "n1: antisymmetry family; n2p: zero-sum rotation; "
            "n3pp: associativity; n4: normalization seeds; jacobi: Jacobi "
            "identity; theorem1: closed-form sign rule vs the table"
        ),
    )
    p_con.add_argument("--format", choices=("json", "csv"), default="json",
                       help="json: verification report; csv: the full table")
    p_con.add_argument("--seed", type=int, default=1729)
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=cmd_constants)

    p_cls = sub.add_parser(
        "classify", help="classify level-1 vectors over F_p"
    )
    p_cls.add_argument("system")
    p_cls.add_argument("-p", type=int, required=True, help="odd prime modulus")
    given = p_cls.add_mutually_exclusive_group(required=True)
    given.add_argument(
        "--vector",
        help="comma-separated coefficients in phi1 order, or @FILE",
    )
    given.add_argument(
        "--batch", metavar="@FILE",
        help="one vector per nonempty line of FILE; writes one compact JSON "
        "object per vector",
    )
    p_cls.add_argument("--out", default=None)
    p_cls.set_defaults(func=cmd_classify)

    p_orb = sub.add_parser(
        "orbits", help="orbit census of the level-1 module over F_p"
    )
    p_orb.add_argument("system")
    p_orb.add_argument("-p", type=int, required=True, help="odd prime modulus")
    p_orb.add_argument("--brute-force", action="store_true",
                       help="enumerate orbits over all of V1(F_p) instead of "
                       "predicting")
    p_orb.add_argument("--compare", action="store_true",
                       help="enumerate and cross-check the classifier")
    p_orb.add_argument("--budget", type=int, default=None,
                       help="state budget override (also CHEVORBIT_BUDGET)")
    p_orb.add_argument("--format", choices=("json", "csv"), default="json",
                       help="the census as json or csv; --compare always "
                       "writes its json report")
    p_orb.add_argument("--seed", type=int, default=0)
    p_orb.add_argument("--out", default=None)
    p_orb.set_defaults(func=cmd_orbits)
    return ap


# exit code and stderr prefix per exception class, the first match winning:
# ValueError's subclasses come before it
EXIT_CODES = (
    ((UnsupportedFamily, CharTwo, UnsupportedField), 3, "unsupported"),
    ((BudgetExceeded, MemoryError, SystemTooLarge, ModulusTooLarge), 4,
     "budget exceeded"),
    ((InconsistentTable, UnderdeterminedTable, JacobiViolation,
      MismatchReport, CheckFailed, ClassificationError, InternalError), 1,
     "verification failed"),
    ((ValueError,), 2, "invalid input"),
    ((OSError,), 2, "i/o error"),
    ((KeyboardInterrupt,), 130, "interrupted"),
)


def exit_status(work) -> int:
    """Run work(): 0 when it returns, else the EXIT_CODES code of what it
    raises, with one stderr line (and a MismatchReport's details line)."""
    try:
        work()
    except tuple(c for row in EXIT_CODES for c in row[0]) as e:
        code, prefix = next(row[1:] for row in EXIT_CODES
                            if isinstance(e, row[0]))
        reason = str(e)
        if isinstance(e, MemoryError):  # which usually carries no message
            reason = reason or "out of memory"
        print(f"{prefix}: {reason}" if reason else prefix, file=sys.stderr)
        if isinstance(e, MismatchReport):
            print(json.dumps(e.details, sort_keys=True, default=str),
                  file=sys.stderr)
        return code
    return 0


def _write(args) -> None:
    text = args.func(args)
    # an empty batch writes nothing
    text += "\n" if text else ""
    out = getattr(args, "out", None)
    if out:
        with io.open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return exit_status(lambda: _write(args))


if __name__ == "__main__":
    sys.exit(main())
