#!/usr/bin/env python3
"""List the functions under src/chevorbit that no command, script or
benchmark workload calls.

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

    PYTHONPATH=src python3 scripts/reached.py
"""

from __future__ import annotations

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
    """The (file, first line) of every function under src/chevorbit that
    run() calls, directly or not."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    files = {f: Path(f).resolve() for f in {c.co_filename for c in codes}}
    return {(str(files[c.co_filename]), c.co_firstlineno) for c in codes
            if files[c.co_filename].parent == SRC}


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


def main() -> int:
    defs = functions()
    called = record(lambda: [importlib.import_module("chevorbit")] + [
        run_entry_point(s, a) for s, a in ENTRY_POINTS])
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
