#!/usr/bin/env python3
"""List the functions under src/chevorbit that no command, script or
benchmark workload calls, or check each caller reason against the calls.

Runs, in this one process and under a sys.setprofile call recorder, every
pinned CLI invocation (scripts/pinned_outputs.py), scripts/run_census.py,
scripts/constants_report.py, scripts/v1_invariance.py --seed 0,
scripts/kernel_digests.py --repeat 1, and one pass of each
perfbench/worker.py workload, each through runpy as its own command line
runs it, with its stdout discarded; the import of chevorbit is recorded
too, so a decorator counts as called.  Then it prints each function or
method defined under src/chevorbit that none of them called, with its
line count, marked * where code under src/chevorbit names it outside its
own definition (a failure path, say, or a method the domain protocol
calls), and the totals.  Nested functions count on their own; lambdas and
generated code do not.

With --check-reasons it prints instead, for each ("caller", where) entry
of REASONS in tests/test_boundary.py, whether where called the member's
own code in those runs: the function or method itself, or a class's
__init__.  A call counts from where's own frame, or from a comprehension,
generator expression or lambda inside it, with only frames outside
src/chevorbit in between (functools.cached_property's, or a generated
classify unit's), so np.add never counts for RootSystem.add.  A member
with no code of its own under src/chevorbit (a dataclass's generated
__init__, say) cannot be observed, and is listed apart.  The other
reasons (failure, acceptance, readme, protocol) are left to the tier-1
name check in tests/test_boundary.py.

    PYTHONPATH=src python3 scripts/reached.py
    PYTHONPATH=src python3 scripts/reached.py --check-reasons

Either takes about a minute on 2 vCPUs.  Exit 0, or 1 when --check-reasons
refutes a reason (each refuted reason is listed), or 2 on a bad argument.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# found, not imported: the import runs under the recorder, in main
SRC = Path(importlib.util.find_spec("chevorbit").origin).resolve().parent
ENTRY_POINTS = (
    ("scripts/pinned_outputs.py", []),
    ("scripts/run_census.py", []),
    ("scripts/constants_report.py", []),
    ("scripts/v1_invariance.py", ["--seed", "0"]),
    ("scripts/kernel_digests.py", ["--repeat", "1"]),
    *(("perfbench/worker.py", ["--workload", w, "--seed", "0"])
      for w in ("structure", "census", "classify", "large_p")),
)


def functions() -> dict:
    """(file, first line) -> (qualified name, lines, names) for every def
    under src/chevorbit: the first line is that of its code object (the
    first decorator's, if any), and names is every name and attribute its
    body reads."""
    out = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(child)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                out[str(path), first] = (
                    f"{path.stem}.{'.'.join(scope + [child.name])}",
                    child.end_lineno - first + 1, names)
                visit(child, path, scope + [child.name])
            else:
                visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [])
    return out


def record(run) -> set:
    """(caller, callee) for every call that run() makes, directly or not,
    to a function under src/chevorbit, each a code's (file, first line):
    the caller is the nearest frame out whose code lies under
    src/chevorbit, or None where there is none."""
    keys: dict = {}  # code -> its (file, first line) under src, else None
    calls = set()

    def key(code):
        try:
            return keys[code]
        except KeyError:
            path = Path(code.co_filename).resolve()
            keys[code] = ((str(path), code.co_firstlineno)
                          if path.parent == SRC else None)
            return keys[code]

    def hook(frame, event, arg):
        if event == "call" and (callee := key(frame.f_code)):
            back = frame.f_back
            while back is not None and not key(back.f_code):
                back = back.f_back
            calls.add((back and key(back.f_code), callee))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def named_calls(calls: set, defs: dict) -> set:
    """The recorded calls as (caller, callee) qualified names.  A caller
    that is no def (a comprehension, generator expression or lambda) is
    the innermost def around it, and None at module level; a callee that
    is no def is dropped."""
    spans = [(file, first, first + lines, qual)
             for (file, first), (qual, lines, _) in defs.items()]

    def owner(key):
        around = [s for s in spans
                  if key and s[0] == key[0] and s[1] <= key[1] < s[2]]
        return max(around)[3] if around else None

    return {(owner(a), defs[b][0]) for a, b in calls if b in defs}


def check_reasons(calls: set, reasons: dict, defined: set) -> tuple:
    """(held, refuted, unobservable): the members whose ("caller", where)
    reason the calls prove, refute or cannot show, each list sorted.
    calls holds (caller, callee) qualified names, defined every def's.
    A member's own code is the def module.member, or a class's
    module.member.__init__; the reason holds only if where called it."""
    held, refuted, unobservable = [], [], []
    for member, (reason, where) in sorted(reasons.items()):
        if reason != "caller":
            continue
        own = {q for q in defined
               if q.partition(".")[2] in (member, f"{member}.__init__")}
        if not own:
            unobservable.append(member)
        elif any((where, q) in calls for q in own):
            held.append(member)
        else:
            refuted.append(member)
    return held, refuted, unobservable


def reasons() -> dict:
    """REASONS, read from the source of tests/test_boundary.py."""
    tree = ast.parse((ROOT / "tests" / "test_boundary.py").read_text(
        encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["REASONS"])


def run_entry_point(script: str, argv: list) -> None:
    """Run one script as __main__ with argv, its stdout discarded."""
    path = ROOT / script
    saved = sys.argv, list(sys.path)
    sys.argv = [str(path), *argv]
    sys.path.insert(0, str(path.parent))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit as e:
        if e.code:
            raise RuntimeError(f"{script} {' '.join(argv)} exited {e.code}")
    finally:
        sys.argv, sys.path[:] = saved


def named_elsewhere(defs: dict) -> set:
    """The keys of defs whose short name some other def under src names."""
    return {key for key, (qual, _, _) in defs.items()
            if any(qual.rsplit(".", 1)[1] in names
                   for other, (_, _, names) in defs.items() if other != key)}


def print_uncalled(defs: dict, called: set) -> None:
    missed = sorted(set(defs) - called)
    named = named_elsewhere(defs)
    print("functions under src/chevorbit that no entry point calls "
          "(* = named elsewhere under src/):")
    for key in missed:
        qual, lines, _ = defs[key]
        mark = " *" if key in named else ""
        print(f"  {Path(key[0]).name}:{key[1]:<5} {qual} ({lines} lines){mark}")
    lines = sum(defs[k][1] for k in missed)
    print(f"{len(missed)} of {len(defs)} functions ({lines} lines) not "
          f"called; {len(named.intersection(missed))} of them named "
          f"elsewhere under src/")


def print_reasons(calls: set, table: dict, defined: set) -> int:
    held, refuted, unobservable = check_reasons(calls, table, defined)
    for title, members in (("refuted: where never called the member's own "
                            "code", refuted),
                           ("not observable: no code of its own under "
                            "src/chevorbit", unobservable)):
        print(f"{title}:")
        for member in members:
            print(f"  {member} ({table[member][1]})")
    print(f"{len(held)} held, {len(refuted)} refuted, {len(unobservable)} "
          f"not observable, of "
          f"{len(held) + len(refuted) + len(unobservable)} caller reasons")
    return 1 if refuted else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check-reasons", action="store_true",
                        help="check each caller reason of REASONS against "
                             "the recorded calls; exit 1 if one is refuted")
    args = parser.parse_args(argv)
    defs = functions()
    calls = record(lambda: [importlib.import_module("chevorbit")] + [
        run_entry_point(s, a) for s, a in ENTRY_POINTS])
    if args.check_reasons:
        return print_reasons(named_calls(calls, defs), reasons(),
                             {qual for qual, _, _ in defs.values()})
    print_uncalled(defs, {callee for _, callee in calls})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
