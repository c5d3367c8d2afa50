"""CLI output compared byte for byte with the files under ``tests/data``:

- every ``check-laws``, ``check-spec`` and ``check-gc`` report, text and
  JSON, at (2,3) and (2,4); ``check-gc`` also covers the two splitters at
  (2,6), and ``check-laws`` indirect equality at (3,5);
- every ``check-order`` report at (2,3), (3,2) and (2,4);
- ``check-spec --target take --n k`` at (2,3) for k = 0 to 4;
- every ``find-counterexample`` report at (2,4) and (2,6);
- fixed ``oracle`` queries for every combinator at (2,5) and (3,3);
- ``list-targets``;
- the exit status and stderr of every usage error in ``test_cli.py`` and
  of four budget or search refusals, in ``usage-errors.json``.

The files pin each report's output (law name, cases, verdict, witness), so a
refactor of the battery, of the scan or of the oracle carries its own
byte-identity check.  A run may fail on purpose, so each directory but
``check-laws`` also holds ``exit-status.json``, the exit status of every run
by file name.  To write the files afresh from a commit whose output is known
good, run ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from galoischeck import GC_TARGETS, LAW_NAMES, ORDERS, PAIR_NAMES, SPEC_NAMES
from galoischeck.cli import main
from test_cli import USAGE_ERRORS

DATA = pathlib.Path(__file__).parent / "data"
UNIVERSES = ((2, 3), (2, 4))
FORMATS = {"text": "txt", "json": "json"}
CASES = [(law, u, fmt) for law in LAW_NAMES for u in UNIVERSES
         for fmt in FORMATS]
# indirect equality compares a down-set row per pair of the 364 sequences
CASES += [("indirect-equality", (3, 5), fmt) for fmt in FORMATS]
CHECK_CASES = [
    (command, target, u, fmt)
    for command, targets in (("check-spec", SPEC_NAMES),
                             ("check-gc", GC_TARGETS))
    for target in targets
    for u in UNIVERSES + (((2, 6),) if target in PAIR_NAMES else ())
    for fmt in FORMATS]

# universe -> combinator -> the arguments of each query
ORACLE_QUERIES = {
    (2, 5): {
        "dropWhile": [("--pred", "0b01", "--input", "0,0,1,0"),
                      ("--pred", "0b11", "--input", "1,0")],
        "filter": [("--pred", "0b01", "--input", "1,0,1"),
                   ("--pred", "0b10", "--input", "0,1,1,0,1")],
        "take": [("--n", "2", "--input", "0,1,0"),
                 ("--n", "0", "--input", "1")],
        "takeWhile": [("--pred", "0b01", "--input", "0,0,1,0"),
                      ("--pred", "0b00", "--input", "")],
        "zip": [("--input", "0,1", "--input", "1"),
                ("--input", "1,0,1", "--input", "0,1,1")],
    },
    (3, 3): {
        "dropWhile": [("--pred", "0b101", "--input", "0,2,1"),
                      ("--pred", "0b010", "--input", "2,1")],
        "filter": [("--pred", "0b110", "--input", "0,1,2"),
                   ("--pred", "0b001", "--input", "2,2")],
        "take": [("--n", "4", "--input", "2,1,0"),
                 ("--n", "1", "--input", "1,2")],
        "takeWhile": [("--pred", "0b011", "--input", "1,0,2"),
                      ("--pred", "0b100", "--input", "2,2,2")],
        "zip": [("--input", "2,1", "--input", "0,1,2"),
                ("--input", "", "--input", "1")],
    },
}

# command -> (file stem, argv) of every run pinned by exit-status.json
RUNS = {
    "check-order": [
        (f"{o}-{k}-{n}", ("--target", o, "--alphabet", str(k),
                          "--max-len", str(n)))
        for o in sorted(ORDERS) for k, n in ((2, 3), (3, 2), (2, 4))],
    "find-counterexample": [
        (f"{p}-2-{n}", ("--target", p, "--max-len", str(n)))
        for p in PAIR_NAMES for n in (4, 6)],
    "oracle": [
        (f"{t}-{k}-{n}-{i}", ("--target", t, "--alphabet", str(k),
                              "--max-len", str(n), *args))
        for (k, n), queries in ORACLE_QUERIES.items()
        for t, arglists in queries.items()
        for i, args in enumerate(arglists, 1)],
    "list-targets": [("list-targets", ())],
    "check-spec": [
        (f"take-n{k}-2-3", ("--target", "take", "--alphabet", "2",
                            "--max-len", "3", "--n", str(k)))
        for k in range(5)],
}
RUN_CASES = [(command, stem, argv, fmt) for command, runs in RUNS.items()
             for stem, argv in runs for fmt in FORMATS]

REFUSALS = [
    ("check-spec", "--target", "zip", "--budget", "1000"),
    ("check-laws", "--target", "idempotent", "--max-len", "4",
     "--budget", "124"),
    ("check-laws", "--target", "order-laws", "--max-len", "3",
     "--budget", "50"),
    ("find-counterexample", "--target", "words-unwords", "--max-len", "0"),
]
USAGE_CASES = [tuple(argv) for argv in USAGE_ERRORS] + REFUSALS


def run(*argv):
    """(exit status, stdout, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def report(command, target, u, fmt):
    return run(command, "--target", target, "--alphabet", str(u[0]),
               "--max-len", str(u[1]), "--format", fmt)


def golden_name(target, u, fmt):
    return f"{target}-{u[0]}-{u[1]}.{FORMATS[fmt]}"


def exit_status(command):
    return json.loads((DATA / command / "exit-status.json").read_text())


def usage_errors():
    return json.loads((DATA / "usage-errors.json").read_text())


@pytest.mark.parametrize("law,u,fmt", CASES)
def test_check_laws_report_matches_golden_file(law, u, fmt):
    code, out, err = report("check-laws", law, u, fmt)
    assert (code, err) == (0, "")
    assert out == (DATA / "check-laws" / golden_name(law, u, fmt)).read_text()


@pytest.mark.parametrize("command,target,u,fmt", CHECK_CASES)
def test_check_report_matches_golden_file(command, target, u, fmt):
    name = golden_name(target, u, fmt)
    code, out, err = report(command, target, u, fmt)
    assert (code, err) == (exit_status(command)[name], "")
    assert out == (DATA / command / name).read_text()


@pytest.mark.parametrize("command,stem,argv,fmt", RUN_CASES)
def test_run_matches_golden_file(command, stem, argv, fmt):
    name = f"{stem}.{FORMATS[fmt]}"
    code, out, err = run(command, *argv, "--format", fmt)
    assert (code, err) == (exit_status(command)[name], "")
    assert out == (DATA / command / name).read_text()


@pytest.mark.parametrize("argv", USAGE_CASES)
def test_refusal_matches_golden_file(argv):
    code, out, err = run(*argv)
    assert out == ""
    assert [code, err] == usage_errors()[" ".join(argv)]


if __name__ == "__main__":
    status = {command: {} for command in ("check-spec", "check-gc", *RUNS)}
    runs = [("check-laws", *case) for case in CASES] + CHECK_CASES
    for command, target, u, fmt in runs:
        code, out, err = report(command, target, u, fmt)
        if err or (code and command == "check-laws"):
            sys.exit(f"{command} {target} at {u} {fmt}: exit {code}: {err}")
        name = golden_name(target, u, fmt)
        (DATA / command).mkdir(parents=True, exist_ok=True)
        (DATA / command / name).write_text(out)
        if command in status:
            status[command][name] = code
    for command, stem, argv, fmt in RUN_CASES:
        code, out, err = run(command, *argv, "--format", fmt)
        if err:
            sys.exit(f"{command} {' '.join(argv)} {fmt}: exit {code}: {err}")
        name = f"{stem}.{FORMATS[fmt]}"
        (DATA / command).mkdir(parents=True, exist_ok=True)
        (DATA / command / name).write_text(out)
        status[command][name] = code
    for command, codes in status.items():
        (DATA / command / "exit-status.json").write_text(
            json.dumps(codes, indent=1, sort_keys=True) + "\n")
    refusals = {}
    for argv in USAGE_CASES:
        code, out, err = run(*argv)
        if out or code != 2:
            sys.exit(f"{' '.join(argv)}: exit {code}, stdout {out!r}")
        refusals[" ".join(argv)] = [code, err]
    (DATA / "usage-errors.json").write_text(
        json.dumps(refusals, indent=1, sort_keys=True) + "\n")
