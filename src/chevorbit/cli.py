"""Command-line surface: roots | constants | classify | orbits.

Exit codes: 0 success, 1 failed verification, crosscheck or classification
(an internal inconsistency), 2 malformed input, 3 unsupported request
(family E classification, characteristic 2), 4 enumeration budget
exceeded, out of memory, or a system with more than rootsys.MAX_ROOTS
(1000) roots, 130 interrupted (Ctrl-C).  Output goes to stdout, or to
--out FILE; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

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
    jacobi_check,
    sign_rule,
    structure_constant_fast,
    verify_table,
)
from .gfield import NotPrime, PrimeField, UnsupportedField
from .orbitlab import (
    CharTwo,
    ClassificationError,
    UnsupportedFamily,
    canonical_form,
    classify,
    classify_many,
)
from .rootsys import (
    SystemTooLarge,
    UnsupportedSystem,
    build_root_system,
    parse_system_name,
    root_count,
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


def _sign_rule_agreement(table: StructureConstantTable) -> dict:
    """Closed-form sign rule and recursive peel versus the oracle table."""
    rs = table.rs
    rule_pairs = 0
    for i in range(1, rs.rank + 1):
        a = rs.simple(i)
        for b in rs.positive_roots:
            s = rs.add(a, b)
            if not rs.is_root(s):
                continue
            rule_pairs += 1
            if sign_rule(rs, i, b) != table.structure_constant(a, b):
                raise CheckFailed(
                    f"{rs.name}: sign rule disagrees with the table "
                    f"at ({a}, {b})"
                )
    memo: dict = {}
    for i, j in table.defined_pairs():
        a, b = rs.roots[int(i)], rs.roots[int(j)]
        if structure_constant_fast(rs, a, b, memo) != table.nv(int(i), int(j)):
            raise CheckFailed(
                f"{rs.name}: peeled closed form disagrees with the table "
                f"at ({a}, {b})"
            )
    return {"sign_rule_pairs": rule_pairs,
            "all_pairs": int(table.defined_pairs().shape[0])}


def cmd_constants(args) -> str:
    family, rank = parse_system_name(args.system)
    rs = build_root_system(family, rank)
    table = build_table_oracle(rs)

    wanted = CHECK_NAMES if args.check == "all" else (args.check,)
    report: dict = {"system": rs.name, "stats": table.stats, "checks": {}}
    failures = []

    if {"n1", "n2p", "n3pp", "n4"} & set(wanted):
        try:
            counts = verify_table(table)
            status = "pass"
        except InconsistentTable as e:
            counts = {"defined_pairs": 0, "instances": 0, "seeds": 0}
            status = "fail"
            failures.append(str(e))
        for name, key in (("n1", "defined_pairs"), ("n2p", "defined_pairs"),
                          ("n3pp", "instances"), ("n4", "seeds")):
            if name in wanted:
                report["checks"][name] = {
                    "status": status, "checked": counts[key],
                }
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
    family, rank = parse_system_name(args.system)
    n_roots = root_count(family, rank)
    K = PrimeField(args.p)
    if args.p == 2:
        raise CharTwo("classification over F_2 is unsupported")
    if args.batch is None:
        rows = [(None, _parse_vector(args.vector, args.p))]
    else:
        rows = _parse_batch(args.batch, args.p)
    if family == "E":
        raise UnsupportedFamily(
            f"orbit classification covers families A and D, not {family}{rank}"
        )
    # every simply-laced system has |phi1| = 2 |Phi| / l - 4, so the length
    # is checked before the table is built
    m = 2 * n_roots // rank - 4
    for n, x in rows:
        if len(x) != m:
            where = "" if n is None else f"line {n}: "
            raise ValueError(
                f"{where}level-1 vector for {family}{rank} needs {m} "
                f"coefficients, got {len(x)}"
            )
    table = build_table_oracle(build_root_system(family, rank))

    def entry(d):
        return {"descriptor": d.to_json(),
                "canonical_representative": list(canonical_form(table, K, d))}

    if args.batch is None:
        return _dump(entry(classify(table, K, rows[0][1])))
    # one compact line per vector, built once per distinct descriptor
    line_of: dict = {}
    lines = []
    for d in classify_many(table, K, [x for _, x in rows]):
        if d not in line_of:
            line_of[d] = json.dumps(entry(d), separators=(",", ":"))
        lines.append(line_of[d])
    return "\n".join(lines)


# -- orbits --------------------------------------------------------------------


def _census_csv(rows) -> str:
    lines = ["label,params,size,representative"]
    for label, params, size, rep in rows:
        ptxt = ";".join(f"{k}={v}" for k, v in sorted(params.items()))
        stxt = "" if size is None else str(size)
        lines.append(f"{label},{ptxt},{stxt},{_root_str(rep)}")
    return "\n".join(lines)


def cmd_orbits(args) -> str:
    family, rank = parse_system_name(args.system)
    rs = build_root_system(family, rank)
    K = PrimeField(args.p)
    K.require_odd()
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
            rows = [
                (o.descriptor.label, o.descriptor.to_json()["params"],
                 o.size, o.representative)
                for o in census.orbits
            ]
            return _census_csv(rows)
        body = census.to_json()
        body["mode"] = "brute-force"
        return _dump(body)

    descs = predicted_census(table, args.p)
    entries = []
    for d in descs:
        rep = canonical_form(table, K, d)
        entries.append({"descriptor": d.to_json(),
                        "representative": list(rep)})
    if args.format == "csv":
        rows = [
            (e["descriptor"]["label"], e["descriptor"]["params"],
             None, e["representative"])
            for e in entries
        ]
        return _census_csv(rows)
    return _dump({
        "family": rs.family,
        "rank": rs.rank,
        "p": args.p,
        "mode": "predicted",
        "orbit_count": len(entries),
        "orbits": entries,
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
    p_orb.add_argument("--format", choices=("json", "csv"), default="json")
    p_orb.add_argument("--seed", type=int, default=0)
    p_orb.add_argument("--out", default=None)
    p_orb.set_defaults(func=cmd_orbits)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        text = args.func(args)
    except (UnsupportedFamily, CharTwo, UnsupportedField) as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 3
    except (BudgetExceeded, MemoryError, SystemTooLarge) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 4
    except (InconsistentTable, UnderdeterminedTable, JacobiViolation,
            MismatchReport, CheckFailed, ClassificationError) as e:
        print(f"verification failed: {e}", file=sys.stderr)
        if isinstance(e, MismatchReport):
            print(json.dumps(e.details, sort_keys=True, default=str),
                  file=sys.stderr)
        return 1
    except (UnsupportedSystem, NotPrime, ValueError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    # an empty batch writes nothing
    text += "\n" if text else ""
    out = getattr(args, "out", None)
    if out:
        with io.open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
