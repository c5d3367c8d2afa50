"""Every ``check-laws`` report, text and JSON, at (2,3) and (2,4), compared
byte for byte with the files under ``tests/data/check-laws``.

The files pin the law battery's output (law name, cases, verdict, witness),
so a refactor of the battery carries its own byte-identity check.  To write
them afresh from a commit whose output is known good, run
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from galoischeck import LAW_NAMES
from galoischeck.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "check-laws"
UNIVERSES = ((2, 3), (2, 4))
FORMATS = {"text": "txt", "json": "json"}
CASES = [(law, u, fmt) for law in LAW_NAMES for u in UNIVERSES
         for fmt in FORMATS]


def report(law, u, fmt):
    """(exit status, stdout, stderr) of one ``check-laws`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-laws", "--target", law, "--alphabet", str(u[0]),
                     "--max-len", str(u[1]), "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def golden_path(law, u, fmt):
    return DATA / f"{law}-{u[0]}-{u[1]}.{FORMATS[fmt]}"


@pytest.mark.parametrize("law,u,fmt", CASES)
def test_check_laws_report_matches_golden_file(law, u, fmt):
    code, out, err = report(law, u, fmt)
    assert (code, err) == (0, "")
    assert out == golden_path(law, u, fmt).read_text()


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for law, u, fmt in CASES:
        code, out, err = report(law, u, fmt)
        if code or err:
            sys.exit(f"check-laws {law} at {u} {fmt}: exit {code}: {err}")
        golden_path(law, u, fmt).write_text(out)
