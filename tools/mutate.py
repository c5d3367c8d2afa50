"""Mutation analysis of chosen functions with the standard library's ``ast``.

    python tools/mutate.py src/galoischeck/connections.py:_parts \\
        src/galoischeck/oracle.py:oracle_spec [--workdir DIR]

Each FILE:FUNCTION argument names a top-level function, its file relative
to the repository root.  Every mutation point inside that function (nested
functions included) gives one mutant per operator:

- flip a comparison: negate it (``<`` to ``>=``, ``is`` to ``is not``,
  ``in`` to ``not in``, ...) or move its boundary (``<`` to ``<=``, ...);
- add or subtract 1 on a subscript index or slice bound (not on a string
  key, nor inside a type annotation);
- add or subtract 1 on an integer constant that is an operand of a binary
  operator (``x >> 3``, ``n - 1``);
- swap ``&`` and ``|``, and turn ``^`` into ``|``;
- swap ``and`` and ``or``, the calls ``all`` and ``any``, and the calls
  ``min`` and ``max``;
- swap the two branches of a conditional expression (``a if c else b`` to
  ``b if c else a``);
- drop a ``not``.

The working tree (without ``.git`` and caches) is copied once into a fresh
directory under ``--workdir``, which must lie outside the repository, and
the copy is removed when the run ends.  Each mutant in turn is written into
that copy, the fixed test subset ``TESTS`` runs against it with ``-x``, and
the original file is put back.  The subset must pass on the unmutated copy
first, and that run's wall time, times ``TIMEOUT_FACTOR``, is each mutant's
timeout: a mutant that makes a loop never end costs a few subset runs, not
a fixed allowance.  A mutant is killed when the subset fails or runs past
its timeout, and survives when it passes.  One line per mutant and the
score go to stdout.

``EQUIVALENT`` lists the mutants argued equivalent to the original, each
with its argument, and a listed mutant must survive.  What fails the run
is printed in upper case: an unlisted mutant that survives (``SURVIVED``),
a listed one that is killed (``KILLED``), and an entry for a function the
run mutates that matches no generated mutant (``MISSING``), so the list
follows the code.  The exit status is 0 when nothing fails, 1 when
anything does and 2 when the subset fails unmutated.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_connections.py", "tests/test_oracle.py",
         "tests/test_golden_reports.py", "tests/test_law_mutants.py",
         "tests/test_spec_mutants.py", "tests/test_orders.py",
         "tests/test_cli.py::test_help_and_missing_command",
         "tests/test_cli.py::"
         "test_oracle_zip_walks_only_the_shorter_inputs_length",
         "tests/test_core.py", "tests/test_combinators.py")
TIMEOUT_FACTOR = 4
# (FILE:FUNCTION, operator, change as printed) -> why no test can tell the
# mutant from the original.  An entry covers every mutant it matches.
EQUIVALENT = {
    ("src/galoischeck/connections.py:_lowest", "&/|",
     "row & -row -> (row | -row)"):
        "for row > 0, row | -row == -(row & -row), and bit_length "
        "ignores the sign",
    ("src/galoischeck/orders.py:check_order_laws", "index -1",
     "0 -> (0) - 1"):
        "bottoms is indexed only when it has one element, so bottoms[-1] "
        "is bottoms[0]",
    ("src/galoischeck/orders.py:check_order_laws", "and/or",
     "flag is True or flag is False -> (flag is True and flag is False)"):
        "the test only lets a bool skip _decided, which returns a bool "
        "unchanged, so with it never true only the cost changes",
}

_NEGATE = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE,
           ast.LtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
           ast.NotIn: ast.In}
_BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
             ast.GtE: ast.Gt}
# call name -> (the name it becomes, the operator's label)
_SWAP_CALL = {"all": ("any", "all/any"), "any": ("all", "all/any"),
              "min": ("max", "min/max"), "max": ("min", "min/max")}
_SWAP_BIT = {ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
             ast.BitXor: ast.BitOr}


def _span(lines: list[bytes], node: ast.AST) -> tuple[int, int]:
    """Byte offsets of ``node`` in the file whose lines are ``lines``."""
    def at(lineno, col):
        return sum(map(len, lines[:lineno - 1])) + col
    return (at(node.lineno, node.col_offset),
            at(node.end_lineno, node.end_col_offset))


def _edits(fn: ast.AST, src: bytes):
    """(node, replacement text, operator) for every mutant of ``fn``."""
    def text(node):
        start, end = _span(lines, node)
        return src[start:end].decode()
    lines = src.splitlines(keepends=True)
    annotations = {id(a) for n in ast.walk(fn) for top in (
        getattr(n, "annotation", None), getattr(n, "returns", None))
        if top is not None for a in ast.walk(top)}
    for node in ast.walk(fn):
        if id(node) in annotations:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                for table, label in ((_NEGATE, "negate"),
                                     (_BOUNDARY, "boundary")):
                    if type(op) in table:
                        ops = list(node.ops)
                        ops[i] = table[type(op)]()
                        new = ast.Compare(node.left, ops, node.comparators)
                        yield node, f"({ast.unparse(new)})", label
        elif isinstance(node, ast.BinOp):
            if type(node.op) in _SWAP_BIT:
                new = ast.BinOp(node.left, _SWAP_BIT[type(node.op)](),
                                node.right)
                yield node, f"({ast.unparse(new)})", "&/|"
            for c in (node.left, node.right):
                if isinstance(c, ast.Constant) and type(c.value) is int:
                    for sign, v in (("+", c.value + 1), ("-", c.value - 1)):
                        yield c, f"({v})", f"constant {sign}1"
        elif isinstance(node, ast.BoolOp):
            new = ast.BoolOp(ast.Or() if isinstance(node.op, ast.And)
                             else ast.And(), node.values)
            yield node, f"({ast.unparse(new)})", "and/or"
        elif isinstance(node, ast.IfExp):
            new = ast.IfExp(node.test, node.orelse, node.body)
            yield node, f"({ast.unparse(new)})", "if/else"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, f"({text(node.operand)})", "drop not"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _SWAP_CALL):
            yield node.func, *_SWAP_CALL[node.func.id]
        elif isinstance(node, ast.Subscript):
            s = node.slice
            bounds = (s.lower, s.upper) if isinstance(s, ast.Slice) else (s,)
            for b in bounds:
                if b is None or (isinstance(b, ast.Constant)
                                 and isinstance(b.value, str)):
                    continue
                for sign in "+-":
                    yield b, f"({text(b)}) {sign} 1", f"index {sign}1"


def mutants(path: Path, function: str) -> list[tuple[int, str, str, bytes]]:
    """(line, operator, change, mutated source) for ``function`` in
    ``path``, in source order."""
    src = path.read_bytes()
    lines = src.splitlines(keepends=True)
    tree = ast.parse(src)
    [fn] = [n for n in tree.body if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == function]
    out = []
    for node, new, label in _edits(fn, src):
        start, end = _span(lines, node)
        mutated = src[:start] + new.encode() + src[end:]
        compile(mutated, str(path), "exec")
        old = " ".join(src[start:end].decode().split())
        out.append((node.lineno, label, f"{old} -> {' '.join(new.split())}",
                    mutated))
    return sorted(out, key=lambda m: (m[0], m[1], m[2]))


def _passes(copy: Path, timeout: float | None = None) -> bool:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", *TESTS]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("targets", nargs="+", metavar="FILE:FUNCTION")
    ap.add_argument("--workdir", help="where the copy goes, outside the "
                    "repository (default: a new temporary directory)")
    args = ap.parse_args(argv)
    where = Path(args.workdir or tempfile.gettempdir()).resolve()
    if where.is_relative_to(ROOT):
        ap.error(f"the copy would go inside the repository, under {where}")
    plan = []
    for target in args.targets:
        file, _, function = target.partition(":")
        plan += [(file, function, m) for m in mutants(ROOT / file, function)]
    generated = {(f"{file}:{function}", label, change)
                 for file, function, (_, label, change, _) in plan}
    missing = [key for key in EQUIVALENT if key[0] in args.targets
               and key not in generated]
    for target, label, change in missing:
        print(f"MISSING  {target} [{label}] {change}: listed as equivalent "
              "but not generated", flush=True)

    base = Path(tempfile.mkdtemp(prefix="mutate-", dir=args.workdir))
    try:
        copy = base / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        started = time.monotonic()
        if not _passes(copy):
            print("the test subset fails on the unmutated copy",
                  file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.monotonic() - started)
        print(f"timeout: {timeout:.1f} s a mutant", flush=True)
        killed_count = equivalent = wrong = 0
        for file, function, (line, label, change, mutated) in plan:
            original = (copy / file).read_bytes()
            (copy / file).write_bytes(mutated)
            try:
                killed = not _passes(copy, timeout)
            finally:
                (copy / file).write_bytes(original)
            argument = EQUIVALENT.get((f"{file}:{function}", label, change))
            listed = argument is not None
            killed_count += killed
            equivalent += listed and not killed
            wrong += killed == listed
            status = (("KILLED  " if listed else "killed  ") if killed
                      else ("survived" if listed else "SURVIVED"))
            note = f" (listed as equivalent: {argument})" if listed else ""
            print(f"{status} {file}:{line} {function} [{label}] {change}"
                  f"{note}", flush=True)
        print(f"score: {killed_count}/{len(plan)} killed, {equivalent} "
              "listed as equivalent")
        return 1 if wrong or missing else 0
    finally:
        shutil.rmtree(base)


if __name__ == "__main__":
    sys.exit(main())
