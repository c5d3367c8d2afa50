"""Command line front end.

Subcommands map one-to-one onto the library's check entry points.  Output is
deterministic for a given query: JSON reports never include timing (the
elapsed_ms field is always null) so identical runs produce identical bytes
regardless of worker count or machine speed.

Exit status: 0 when the check passes or is not applicable, 1 when a
counterexample is found or the oracle cannot determine a result, 2 for usage
errors, unknown targets, exhausted search spaces, and blown budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__ as TOOL_VERSION
from .connections import (
    GC_TARGETS,
    LAW_NAMES,
    PAIR_NAMES,
    SPEC_NAMES,
    SPECS,
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
)
from .oracle import NoGreatestError, OracleError, oracle_spec
from .orders import ORDERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galois",
        description="Exhaustive checking of split specifications and "
                    "adjoint-pair laws for sequence combinators over small "
                    "finite universes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, target_help: str,
               target_required: bool = True) -> None:
        p.add_argument("--target", required=target_required,
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

    p = sub.add_parser("check-order",
                       help="partial order laws for a named ordering")
    common(p, "ordering name (see list-targets)")

    p = sub.add_parser("check-spec",
                       help="easy/hard split specification of a combinator")
    common(p, "combinator name (see list-targets)")
    p.add_argument("--pred", help="restrict to one predicate bitmask")
    p.add_argument("--n", type=int, help="restrict take to one count")

    p = sub.add_parser("check-gc",
                       help="defining equivalence of the adjoint pair")
    common(p, "combinator or splitter/joiner pair name")
    p.add_argument("--pred", help="restrict to one predicate bitmask")

    p = sub.add_parser("check-laws",
                       help="one named law across all applicable targets")
    common(p, "law name (see list-targets)")

    p = sub.add_parser("find-counterexample",
                       help="search for a round-trip failure refuting a "
                            "claimed adjunction")
    common(p, "splitter/joiner pair name")

    p = sub.add_parser("oracle",
                       help="compute one combinator application from its "
                            "split specification alone")
    common(p, "combinator name")
    p.add_argument("--pred", help="predicate bitmask")
    p.add_argument("--n", type=int, help="count for take")
    p.add_argument("--input", action="append", default=[],
                   help="comma separated sequence; repeat for zip")

    p = sub.add_parser("list-targets",
                       help="everything the check commands accept")
    common(p, "ignored", target_required=False)

    return parser


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


def report_payload(command: str, target: str, u: Universe,
                   rep: CheckReport) -> dict:
    cx = None
    if rep.counterexample is not None:
        cx = {name: encode_value(val) for name, val in rep.counterexample}
    return _payload(command, target, u, cases_checked=rep.cases_checked,
                    verdict=rep.verdict, counterexample=cx, elapsed_ms=None)


def emit_report(command: str, target: str, u: Universe, rep: CheckReport,
                fmt: str, extra_text: list[str] | None = None) -> int:
    if fmt == "json":
        print(json.dumps(report_payload(command, target, u, rep), indent=2))
    else:
        print(f"law: {rep.law_name}")
        print(f"universe: alphabet={u.alphabet_size} max_len={u.max_len}")
        print(f"cases: {rep.cases_checked}")
        print(f"verdict: {rep.verdict}")
        if rep.counterexample is not None:
            print("counterexample:")
            for name, val in rep.counterexample:
                print(f"  {name} = {render_value(val)}")
        for line in extra_text or []:
            print(line)
    return 0 if rep.verdict in ("pass", "not-applicable") else 1


def _parse_pred(text: str | None, u: Universe) -> Pred | None:
    if text is None:
        return None
    try:
        mask = int(text, 0)
    except ValueError:
        raise SystemExit(_usage(f"invalid predicate bitmask {text!r}"))
    if not 0 <= mask < (1 << u.alphabet_size):
        raise SystemExit(_usage(
            f"predicate bitmask {text} out of range for alphabet size "
            f"{u.alphabet_size}"))
    return Pred(mask, u.alphabet_size)


def _target_pred(args, u: Universe) -> Pred | None:
    """Parse --pred, and refuse --pred or --n where the target's parameter
    axis is not a predicate or a count."""
    param = SPECS[args.target].param if args.target in SPECS else None
    pred = _parse_pred(args.pred, u)
    if pred is not None and param != "p":
        raise SystemExit(_usage(f"--pred does not apply to {args.target}"))
    if getattr(args, "n", None) is not None and param != "n":
        raise SystemExit(_usage("--n only applies to take"))
    return pred


def _parse_seq(text: str, u: Universe) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        xs = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SystemExit(_usage(f"invalid sequence {text!r}"))
    for e in xs:
        if not 0 <= e < u.alphabet_size:
            raise SystemExit(_usage(
                f"element {e} out of range for alphabet size "
                f"{u.alphabet_size}"))
    if len(xs) > u.max_len:
        raise SystemExit(_usage(
            f"sequence {text!r} longer than max_len {u.max_len}"))
    return xs


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _list_targets(fmt: str) -> int:
    groups = {
        "orders": sorted(ORDERS),
        "specs": sorted(SPEC_NAMES),
        "pairs": sorted(PAIR_NAMES),
        "laws": sorted(LAW_NAMES),
    }
    if fmt == "json":
        print(json.dumps(groups, indent=2))
    else:
        for key, names in groups.items():
            print(f"{key}: {' '.join(names)}")
    return 0


def _run_oracle(args, u: Universe) -> int:
    pred = _target_pred(args, u)
    param = SPECS[args.target].param
    seqs = [_parse_seq(text, u) for text in args.input]
    # zip, the one combinator without a parameter, takes two sequences
    want = 1 if param else 2
    if len(seqs) != want:
        return _usage(f"{args.target} oracle takes exactly {want} --input")
    inputs: dict = {"xs": seqs[0]}
    if param is None:
        inputs["ys"] = seqs[1]
    elif param == "n":
        if args.n is None:
            return _usage(f"{args.target} oracle needs --n")
        inputs["n"] = args.n
    elif pred is None:
        return _usage(f"{args.target} oracle needs --pred")
    else:
        inputs["pred"] = pred

    encoded = {k: encode_value(v) for k, v in inputs.items()}
    try:
        result = oracle_spec(args.target, u, budget=args.budget, **inputs)
    except OracleError as exc:
        if args.format == "json":
            outcome = {"error": str(exc)}
            if isinstance(exc, NoGreatestError):
                outcome["maxima"] = [encode_value(m) for m in exc.maxima]
            print(json.dumps(_payload("oracle", args.target, u,
                                      inputs=encoded, **outcome), indent=2))
        else:
            print(f"target: {args.target}")
            print(f"error: {exc}")
            if isinstance(exc, NoGreatestError):
                for m in exc.maxima:
                    print(f"  maximal: {render_value(m)}")
        return 1
    if args.format == "json":
        print(json.dumps(_payload("oracle", args.target, u, inputs=encoded,
                                  result=encode_value(result)), indent=2))
    else:
        print(f"target: {args.target}")
        print(f"universe: alphabet={u.alphabet_size} max_len={u.max_len}")
        for k, v in inputs.items():
            print(f"{k}: {render_value(v)}")
        print(f"result: {render_value(result)}")
    return 0


# command -> (the targets it accepts, the noun its unknown-target message uses)
_TARGETS = {
    "check-order": (ORDERS, "ordering"),
    "check-spec": (SPEC_NAMES, "combinator"),
    "check-gc": (GC_TARGETS, "adjoint pair target"),
    "check-laws": (LAW_NAMES, "law"),
    "find-counterexample": (PAIR_NAMES, "splitter/joiner pair"),
    "oracle": (SPEC_NAMES, "combinator"),
}


def run(args: argparse.Namespace) -> int:
    u = Universe(args.alphabet, args.max_len)
    command, target, fmt = args.command, args.target, args.format
    if command == "list-targets":
        return _list_targets(fmt)
    targets, noun = _TARGETS[command]
    if target not in targets:
        return _usage(f"unknown {noun} {target!r}")
    if command == "oracle":
        return _run_oracle(args, u)

    # Entry points are looked up when the command runs, so that a caller
    # that rebinds one of these module globals is honoured.
    kw = {"budget": args.budget}
    extra = None
    if command == "check-order":
        rep, least = order_laws_report(target, u, **kw)
        if fmt == "text":
            shown = render_value(least) if least is not None else "none"
            extra = [f"least: {shown}"]
    elif command == "check-spec":
        rep = check_easy_hard(target, u, pred=_target_pred(args, u),
                              n=args.n, **kw)
    elif command == "check-gc":
        rep = check_canonical_gc(target, u, pred=_target_pred(args, u), **kw)
    elif command == "check-laws":
        rep = check_law(target, u, **kw)
    else:
        rep = find_non_gc_counterexample(target, u, **kw)
    return emit_report(command, target, u, rep, fmt, extra)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    except (UniverseTooLargeError, WitnessNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
