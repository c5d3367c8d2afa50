"""End-to-end command line behavior: deterministic output bytes, JSON
payload shape, exit codes, and argument validation."""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from galoischeck import oracle
from galoischeck.cli import build_parser, main
from galoischeck.connections import TARGETS

# every check payload carries exactly these keys, in this order
REPORT_KEYS = ["command", "target", "universe", "cases_checked", "verdict",
               "counterexample", "elapsed_ms", "tool_version"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_spec_text_report(capsys):
    code, out, err = run_cli(
        capsys, "check-spec", "--target", "takeWhile", "--max-len", "4")
    assert code == 0 and err == ""
    assert out == ("law: spec:takeWhile\n"
                   "universe: alphabet=2 max_len=4\n"
                   "cases: 3844\n"
                   "verdict: pass\n")


def test_check_gc_json_failure_payload(capsys):
    code, out, err = run_cli(
        capsys, "check-gc", "--target", "words-unwords",
        "--max-len", "6", "--format", "json")
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert list(payload) == REPORT_KEYS
    assert payload["command"] == "check-gc"
    assert payload["target"] == "words-unwords"
    assert payload["universe"] == {"alphabet_size": 2, "max_len": 6}
    assert payload["cases_checked"] == 2
    assert payload["verdict"] == "fail"
    assert payload["counterexample"] == {"xs": [], "ws": [[]]}
    assert payload["elapsed_ms"] is None
    assert payload["tool_version"] == "0.1.0"


@pytest.mark.parametrize("argv", [
    ("check-spec", "--target", "takeWhile", "--max-len", "4",
     "--format", "json"),
    ("check-gc", "--target", "words-unwords", "--max-len", "6",
     "--format", "json"),
    ("check-laws", "--target", "idempotent", "--max-len", "4",
     "--format", "json"),
])
def test_output_bytes_do_not_depend_on_workers(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv, "--workers", "1")
    code4, out4, _ = run_cli(capsys, *argv, "--workers", "4")
    assert (code1, out1) == (code4, out4)


def test_oracle_text_output(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--target", "filter", "--pred", "0b01",
        "--input", "1,0,1")
    assert code == 0 and err == ""
    assert out == ("target: filter\n"
                   "universe: alphabet=2 max_len=5\n"
                   "xs: (1, 0, 1)\n"
                   "pred: 0b01\n"
                   "result: (0,)\n")


def test_oracle_json_output(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--target", "take", "--n", "2",
        "--input", "0,1,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "target", "universe", "inputs",
                             "result", "tool_version"]
    assert payload["inputs"] == {"xs": [0, 1, 0], "n": 2}
    assert payload["result"] == [0, 1]


ZIP_QUERY = ("oracle", "--target", "zip", "--alphabet", "6",
             "--input", "1,2,3", "--input", "4,5", "--format", "json")


def test_oracle_zip_two_inputs(capsys):
    code, out, _ = run_cli(capsys, *ZIP_QUERY)
    assert code == 0
    assert json.loads(out)["result"] == [[1, 4], [2, 5]]


def test_oracle_zip_walks_only_the_shorter_inputs_length(capsys, monkeypatch):
    # pair sequences of length at most 2 over 36 pairs: 1 + 36 + 1,296
    walked = 0
    enum_pair_seqs = oracle.enum_pair_seqs

    def counted(u):
        nonlocal walked
        for zs in enum_pair_seqs(u):
            walked += 1
            yield zs
    monkeypatch.setattr(oracle, "enum_pair_seqs", counted)
    assert run_cli(capsys, *ZIP_QUERY)[0] == 0
    assert 0 < walked <= 1333


ORACLE_FAILURE = ("oracle", "--target", "filter", "--pred", "0b11",
                  "--input", "0,1")


def test_oracle_reports_incomparable_maxima(capsys, monkeypatch):
    monkeypatch.setitem(TARGETS, "filter", replace(
        TARGETS["filter"], easy=lambda p, y: len(y) <= 1))
    error = ("no greatest candidate below (0, 1) for: all elements satisfy "
             "0b11; 2 maximal candidates")
    code, out, err = run_cli(capsys, *ORACLE_FAILURE)
    assert (code, err) == (1, "")
    assert out == (f"target: filter\nerror: {error}\n"
                   "  maximal: (0,)\n  maximal: (1,)\n")
    code, out, err = run_cli(capsys, *ORACLE_FAILURE, "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert (payload["error"], payload["maxima"]) == (error, [[0], [1]])


def test_oracle_reports_an_empty_feasible_set(capsys, monkeypatch):
    monkeypatch.setitem(TARGETS, "filter", replace(
        TARGETS["filter"], easy=lambda p, y: False))
    error = "no candidate below (0, 1) satisfies: all elements satisfy 0b11"
    code, out, err = run_cli(capsys, *ORACLE_FAILURE)
    assert (code, err) == (1, "")
    assert out == f"target: filter\nerror: {error}\n"
    code, out, err = run_cli(capsys, *ORACLE_FAILURE, "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["error"] == error and "maxima" not in payload


# argv the CLI refuses as a usage error
USAGE_ERRORS = [
    ("check-spec", "--target", "reverse"),
    ("check-order", "--target", "lexicographic"),
    ("check-gc", "--target", "reverse"),
    ("check-laws", "--target", "associativity"),
    ("find-counterexample", "--target", "take"),
    ("oracle", "--target", "words-unwords", "--input", "0"),
    ("check-spec", "--target", "takeWhile", "--pred", "0b111"),
    ("check-spec", "--target", "takeWhile", "--pred", "junk"),
    ("check-spec", "--target", "zip", "--pred", "0b01"),
    ("check-spec", "--target", "filter", "--n", "2"),
    ("check-spec", "--target", "take", "--n", "-1"),
    ("oracle", "--target", "filter", "--pred", "0b01", "--input", "2,0"),
    ("oracle", "--target", "filter", "--pred", "0b01",
     "--input", "0,0,0,0,0,0"),
    ("oracle", "--target", "zip", "--input", "0,1"),
    ("oracle", "--target", "filter", "--input", "0,1"),
    ("oracle", "--target", "take", "--input", "0,1"),
    ("oracle", "--target", "take", "--n", "-1", "--input", "0"),
    ("oracle", "--target", "zip", "--n", "1",
     "--input", "0", "--input", "1"),
    ("oracle", "--target", "filter", "--pred", "0b01", "--input", "0,x"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_find_counterexample_words(capsys):
    code, out, err = run_cli(
        capsys, "find-counterexample", "--target", "words-unwords",
        "--max-len", "6")
    assert code == 1 and err == ""
    assert "verdict: fail" in out
    assert "  ws = ((), ())" in out
    assert "  joined = (0,)" in out


def test_find_counterexample_exhausted_search(capsys):
    code, out, err = run_cli(
        capsys, "find-counterexample", "--target", "words-unwords",
        "--max-len", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "all 1 word lists" in err


def test_check_laws_fusion(capsys):
    code, out, _ = run_cli(
        capsys, "check-laws", "--target", "fusion", "--max-len", "4")
    assert code == 0
    assert "law: fusion\n" in out
    assert "cases: 992\n" in out
    assert "verdict: pass\n" in out


def test_check_order_text_has_least_line(capsys):
    code, out, _ = run_cli(
        capsys, "check-order", "--target", "prefix", "--max-len", "4")
    assert code == 0
    assert out.endswith("least: ()\n")
    assert "verdict: pass" in out


def test_check_order_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "check-order", "--target", "prefix", "--max-len", "4",
        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == REPORT_KEYS
    assert payload["verdict"] == "pass"
    assert payload["counterexample"] is None


def test_list_targets_text(capsys):
    code, out, err = run_cli(capsys, "list-targets")
    assert code == 0 and err == ""
    assert out == (
        "orders: pair-prefix prefix product sublist suffix\n"
        "specs: dropWhile filter take takeWhile zip\n"
        "pairs: lines-unlines words-unwords\n"
        "laws: cancellation-left cancellation-right fusion gc idempotent "
        "indirect-equality injective-adjoint order-laws semi-inverse "
        "split-append\n")


def test_list_targets_json(capsys):
    code, out, _ = run_cli(capsys, "list-targets", "--format", "json")
    assert code == 0
    groups = json.loads(out)
    assert list(groups) == ["orders", "specs", "pairs", "laws"]
    assert groups["specs"] == ["dropWhile", "filter", "take", "takeWhile",
                               "zip"]


def test_list_targets_ignores_the_universe_flags(capsys):
    plain = run_cli(capsys, "list-targets")
    assert run_cli(capsys, "list-targets", "--alphabet", "0") == plain
    assert plain[0] == 0


def test_budget_exhaustion_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "check-spec", "--target", "zip", "--budget", "1000")
    assert code == 2
    assert out == ""
    assert "exceed budget 1000" in err


def test_check_laws_refusal_projects_the_whole_law(capsys):
    code, out, err = run_cli(
        capsys, "check-laws", "--target", "idempotent", "--max-len", "4",
        "--budget", "124")
    assert (code, out) == (2, "")
    assert err == ("error: idempotent: projected 372 evaluations exceed "
                   "budget 124\n")


@pytest.mark.parametrize("argv", [
    ("oracle", "--target", "filter", "--pred", "0b01", "--input", "1,0,1"),
    ("oracle", "--target", "zip", "--input", "0,1", "--input", "1"),
    ("find-counterexample", "--target", "words-unwords"),
])
def test_search_commands_honour_budget(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--budget", "10")
    assert code == 2
    assert out == ""
    assert "exceed budget 10" in err


def test_help_and_missing_command(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    code, _, err = run_cli(capsys)
    assert code == 2 and "command" in err


COMMON_FLAGS = {"alphabet": 2, "max_len": 5, "format": "text",
                "budget": 100_000_000, "workers": 1}
# subcommand -> the defaults of its own flags, after the common ones
OWN_FLAGS = {
    "check-order": {},
    "check-spec": {"pred": None, "n": None},
    "check-gc": {"pred": None},
    "check-laws": {},
    "find-counterexample": {},
    "oracle": {"pred": None, "n": None, "input": []},
    "list-targets": {},
}


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_parser_keys_and_defaults(command):
    args = build_parser().parse_args([command, "--target", "x"])
    assert list(vars(args).items()) == list({
        "command": command, "target": "x", **COMMON_FLAGS,
        **OWN_FLAGS[command]}.items())


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_parser_requires_a_target_except_for_list_targets(capsys, command):
    if command == "list-targets":
        assert build_parser().parse_args([command]).target is None
        return
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command])
    assert exc.value.code == 2
    assert "--target" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "galoischeck", "list-targets"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("orders: ")
