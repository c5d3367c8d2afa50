"""Every ``check-laws``, ``check-spec`` and ``check-gc`` report, text and
JSON, at (2,3) and (2,4), compared byte for byte with the files under
``tests/data/<command>``; ``check-gc`` also covers the two splitters at
(2,6).

The files pin each report's output (law name, cases, verdict, witness), so a
refactor of the battery or of the scan carries its own byte-identity check.
A spec or gc run may fail on purpose, so each of those directories also
holds ``exit-status.json``, the exit status of every run by file name.  To
write the files afresh from a commit whose output is known good, run
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from galoischeck import GC_TARGETS, LAW_NAMES, PAIR_NAMES, SPEC_NAMES
from galoischeck.cli import main

DATA = pathlib.Path(__file__).parent / "data"
UNIVERSES = ((2, 3), (2, 4))
FORMATS = {"text": "txt", "json": "json"}
CASES = [(law, u, fmt) for law in LAW_NAMES for u in UNIVERSES
         for fmt in FORMATS]
CHECK_CASES = [
    (command, target, u, fmt)
    for command, targets in (("check-spec", SPEC_NAMES),
                             ("check-gc", GC_TARGETS))
    for target in targets
    for u in UNIVERSES + (((2, 6),) if target in PAIR_NAMES else ())
    for fmt in FORMATS]


def report(command, target, u, fmt):
    """(exit status, stdout, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--target", target, "--alphabet", str(u[0]),
                     "--max-len", str(u[1]), "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def golden_name(target, u, fmt):
    return f"{target}-{u[0]}-{u[1]}.{FORMATS[fmt]}"


def exit_status(command):
    return json.loads((DATA / command / "exit-status.json").read_text())


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


if __name__ == "__main__":
    status = {"check-spec": {}, "check-gc": {}}
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
    for command, codes in status.items():
        (DATA / command / "exit-status.json").write_text(
            json.dumps(codes, indent=1, sort_keys=True) + "\n")
