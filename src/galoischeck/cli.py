"""Command line front end.

Each subcommand is one ``_COMMANDS`` row.  Its runner, called as
``runner(args, u)``, returns (exit status, JSON payload, text lines), and
``run`` prints the form that ``--format`` names.  Output is deterministic
for a given query: JSON reports never include timing (the elapsed_ms field
is always null) so identical runs produce identical bytes regardless of
worker count or machine speed.

Exit status: 0 when the check passes or is not applicable, 1 when a
counterexample is found or the oracle cannot determine a result, 2 for usage
errors, unknown targets, exhausted search spaces, and blown budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__ as TOOL_VERSION
from .connections import (
    COUNT,
    GC_TARGETS,
    LAW_NAMES,
    PAIR_NAMES,
    PRED,
    SPEC_NAMES,
    TARGETS,
    WitnessNotFoundError,
    check_canonical_gc,
    check_easy_hard,
    check_law,
    find_non_gc_counterexample,
    order_laws_report,
)
from .core import (
    DEFAULT_BUDGET,
    CheckReport,
    Pred,
    Universe,
    UniverseTooLargeError,
    _known,
)
from .oracle import NoGreatestError, OracleError, oracle_spec
from .orders import ORDERS


def encode_value(v):
    """JSON encoding of witness and oracle values: predicates by bitmask,
    sequences as nested arrays."""
    if isinstance(v, Pred):
        return v.mask
    if isinstance(v, tuple):
        return [encode_value(x) for x in v]
    return v


def render_value(v) -> str:
    if isinstance(v, Pred):
        return v.bits()
    return repr(v)


def _payload(command: str, target: str, u: Universe, **fields) -> dict:
    universe = {"alphabet_size": u.alphabet_size, "max_len": u.max_len}
    return {"command": command, "target": target, "universe": universe,
            **fields, "tool_version": TOOL_VERSION}


def _universe_line(u: Universe) -> str:
    return f"universe: alphabet={u.alphabet_size} max_len={u.max_len}"


def _report(args, u: Universe, rep: CheckReport, *extra: str) -> tuple:
    """A check report's outcome; ``extra`` lines end its text form."""
    cx = rep.counterexample
    lines = [f"law: {rep.law_name}", _universe_line(u),
             f"cases: {rep.cases_checked}", f"verdict: {rep.verdict}"]
    if cx is not None:
        lines += ["counterexample:",
                  *(f"  {name} = {render_value(val)}" for name, val in cx)]
        cx = {name: encode_value(val) for name, val in cx}
    payload = _payload(args.command, args.target, u,
                       cases_checked=rep.cases_checked, verdict=rep.verdict,
                       counterexample=cx, elapsed_ms=None)
    status = 0 if rep.verdict in ("pass", "not-applicable") else 1
    return status, payload, [*lines, *extra]


def _check_order(args, u: Universe) -> tuple:
    rep, least = order_laws_report(args.target, u, budget=args.budget)
    return _report(args, u, rep, "least: " + (
        "none" if least is None else render_value(least)))


def _parse_pred(text: str | None, u: Universe) -> Pred | None:
    if text is None:
        return None
    try:
        mask = int(text, 0)
    except ValueError:
        raise ValueError(f"invalid predicate bitmask {text!r}")
    if not 0 <= mask < (1 << u.alphabet_size):
        raise ValueError(f"predicate bitmask {text} out of range for "
                         f"alphabet size {u.alphabet_size}")
    return Pred(mask, u.alphabet_size)


def _target_pred(args, u: Universe) -> Pred | None:
    """Parse --pred; refuse --pred or --n for a target of another kind."""
    param = TARGETS[args.target].param
    pred = _parse_pred(args.pred, u)
    if pred is not None and param is not PRED:
        raise ValueError(f"--pred does not apply to {args.target}")
    if getattr(args, "n", None) is not None and param is not COUNT:
        raise ValueError("--n only applies to take")
    return pred


def _parse_seq(text: str, u: Universe) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        xs = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"invalid sequence {text!r}")
    for e in xs:
        if not 0 <= e < u.alphabet_size:
            raise ValueError(f"element {e} out of range for alphabet size "
                             f"{u.alphabet_size}")
    if len(xs) > u.max_len:
        raise ValueError(f"sequence {text!r} longer than max_len {u.max_len}")
    return xs


def _list_targets(args, u) -> tuple:
    groups = {
        "orders": sorted(ORDERS),
        "specs": sorted(SPEC_NAMES),
        "pairs": sorted(PAIR_NAMES),
        "laws": sorted(LAW_NAMES),
    }
    return 0, groups, [f"{key}: {' '.join(names)}"
                       for key, names in groups.items()]


def _run_oracle(args, u: Universe) -> tuple:
    flags = {"pred": _target_pred(args, u), "n": args.n}
    key = TARGETS[args.target].param.key
    seqs = [_parse_seq(text, u) for text in args.input]
    # a parameter without a flag of its own (zip's ys) is a second --input
    want = 1 + (key not in flags)
    if len(seqs) != want:
        raise ValueError(f"{args.target} oracle takes exactly {want} --input")
    inputs = {"xs": seqs[0], key: flags.get(key, seqs[-1])}
    if inputs[key] is None:
        raise ValueError(f"{args.target} oracle needs --{key}")

    fields = {"inputs": {k: encode_value(v) for k, v in inputs.items()}}
    lines = [f"target: {args.target}"]
    try:
        result = oracle_spec(args.target, u, budget=args.budget, **inputs)
    except OracleError as exc:
        fields["error"] = str(exc)
        lines.append(f"error: {exc}")
        if isinstance(exc, NoGreatestError):
            fields["maxima"] = [encode_value(m) for m in exc.maxima]
            lines += [f"  maximal: {render_value(m)}" for m in exc.maxima]
        return 1, _payload("oracle", args.target, u, **fields), lines
    lines += [_universe_line(u),
              *(f"{k}: {render_value(v)}" for k, v in inputs.items()),
              f"result: {render_value(result)}"]
    return 0, _payload("oracle", args.target, u, **fields,
                       result=encode_value(result)), lines


_PRED = ("--pred", {"help": "restrict to one predicate bitmask"})

# command -> (its help, --target help, the targets it accepts, the noun its
# unknown-target message uses, its own flags after the common ones, its
# runner).  A runner calls its entry point through this module's globals,
# so that a caller that rebinds one of them is honoured.
_COMMANDS = {
    "check-order": ("partial order laws for a named ordering",
                    "ordering name (see list-targets)", ORDERS, "ordering",
                    (), _check_order),
    "check-spec": ("easy/hard split specification of a combinator",
                   "combinator name (see list-targets)", SPEC_NAMES,
                   "combinator", (_PRED, ("--n", {
                       "type": int, "help": "restrict take to one count"})),
                   lambda a, u: _report(a, u, check_easy_hard(
                       a.target, u, pred=_target_pred(a, u), n=a.n,
                       budget=a.budget))),
    "check-gc": ("defining equivalence of the adjoint pair",
                 "combinator or splitter/joiner pair name", GC_TARGETS,
                 "adjoint pair target", (_PRED,),
                 lambda a, u: _report(a, u, check_canonical_gc(
                     a.target, u, pred=_target_pred(a, u), budget=a.budget))),
    "check-laws": ("one named law across all applicable targets",
                   "law name (see list-targets)", LAW_NAMES, "law", (),
                   lambda a, u: _report(a, u, check_law(
                       a.target, u, budget=a.budget))),
    "find-counterexample": ("search for a round-trip failure refuting a "
                            "claimed adjunction", "splitter/joiner pair name",
                            PAIR_NAMES, "splitter/joiner pair", (),
                            lambda a, u: _report(
                                a, u, find_non_gc_counterexample(
                                    a.target, u, budget=a.budget))),
    "oracle": ("compute one combinator application from its split "
               "specification alone", "combinator name", SPEC_NAMES,
               "combinator", (
                   ("--pred", {"help": "predicate bitmask"}),
                   ("--n", {"type": int, "help": "count for take"}),
                   ("--input", {"action": "append", "default": [], "help":
                                "comma separated sequence; repeat for zip"})),
               _run_oracle),
    "list-targets": ("everything the check commands accept", "ignored", None,
                     None, (), _list_targets),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``galois`` parser, built once per process and shared by every
    call: a library caller or a test that runs ``main`` many times pays for
    it once.  A fresh ``galois`` process calls ``main`` once, so it gains
    nothing from the cache.  Callers must not modify the returned parser."""
    parser = argparse.ArgumentParser(
        prog="galois",
        description="Exhaustive checking of split specifications and "
                    "adjoint-pair laws for sequence combinators over small "
                    "finite universes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, row in _COMMANDS.items():
        summary, target_help, targets, _, flags, _ = row
        p = sub.add_parser(command, help=summary)
        p.add_argument("--target", required=targets is not None,
                       help=target_help)
        p.add_argument("--alphabet", type=int, default=2,
                       help="alphabet size (default 2)")
        p.add_argument("--max-len", type=int, default=5,
                       help="maximum sequence length (default 5)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="maximum evaluations before refusing to run")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility and ignored; scans "
                            "run sequentially")
        for flag, kw in flags:
            p.add_argument(flag, **kw)
    return parser


def run(args: argparse.Namespace) -> int:
    """Run the command's row and print its outcome in the chosen format."""
    *_, targets, noun, _, runner = _COMMANDS[args.command]
    u = None
    if targets is not None:
        u = Universe(args.alphabet, args.max_len)
        _known(noun, args.target, targets)
    status, payload, lines = runner(args, u)
    print(json.dumps(payload, indent=2) if args.format == "json"
          else "\n".join(lines))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args)
    except SystemExit as exc:
        return exc.code or 0
    except (UniverseTooLargeError, WitnessNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
