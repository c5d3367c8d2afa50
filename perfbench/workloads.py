"""The three workloads: seeded inputs, one timed pass, and the check of every
result against perfbench.reference.

Every call into the package goes through a module attribute looked up at
call time (``connections.check_easy_hard``, ``cli.main``, ...), so the
tracer's wrappers see it.  Scans always run with ``workers=1``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import statistics
from time import perf_counter
from typing import Callable

from galoischeck import (Pred, Universe, cli, combinators, connections,
                         oracle, orders)

import reference as ref

# The memoised relation itself, whatever later replaces the module global.
SUBLIST = orders.is_sublist

CHECK_U = (2, 5)        # check-spec, check-gc, check-laws acceptance bounds
ORDER_U = (3, 5)        # check-order acceptance bounds
PAIR_U = (2, 6)         # words/lines refutations
# Mutant checks run at (2, 5), except zip: its 5.4M-case scan takes seconds
# per late witness there, too slow for a hundred failing checks in one run.
REFUTE_U = {"zip": (2, 4)}
MUTANTS_PER_PATH = 16   # per combinator, for check_easy_hard and for gc
ORACLE_U = ((2, 5), (3, 5))
QUERIES_PER_BUCKET = 100  # per target and universe: 1,000 queries a pass

REAL_FN = {"takeWhile": "take_while", "take": "take_n", "filter": "filter_p",
           "dropWhile": "drop_while", "zip": "zip_pair"}
PRED_FAMILIES = ("takeWhile", "filter", "dropWhile")


@dataclasses.dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` and ``cases`` read its
    result afterwards."""

    kind: str
    tag: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    cases: Callable[[object], int] = lambda res: 0
    root: tuple[str, str] = ("cli.command", "cli")  # trace group, layer


def to_json(v):
    """Witness values as the package's JSON encodes them."""
    if isinstance(v, tuple):
        return [to_json(x) for x in v]
    return v


def plain(bindings) -> tuple:
    """Report bindings with predicates replaced by their bitmask."""
    return tuple((k, getattr(v, "mask", v)) for k, v in bindings or ())


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _argv(command: str, target: str, u: tuple[int, int]) -> list[str]:
    return [command, "--target", target, "--alphabet", str(u[0]),
            "--max-len", str(u[1]), "--format", "json", "--workers", "1"]


def _cli_check(command, target, u, rc_want, verdict, cases, cx, outputs):
    """Check a CLI JSON report; the bytes must also repeat every pass."""
    def check(res) -> bool:
        rc, text = res
        if outputs.setdefault(tuple(_argv(command, target, u)), text) != text:
            return False
        d = json.loads(text)
        return (rc == rc_want and d["command"] == command
                and d["target"] == target
                and d["universe"] == {"alphabet_size": u[0], "max_len": u[1]}
                and d["verdict"] == verdict and d["cases_checked"] == cases
                and d["counterexample"] == cx and d["elapsed_ms"] is None)

    def n_cases(res) -> int:
        return json.loads(res[1])["cases_checked"]
    return check, n_cases


def _cli_op(command, target, u, rc_want, verdict, cases, cx, outputs,
            kind=None) -> Op:
    argv = _argv(command, target, u)
    check, n_cases = _cli_check(command, target, u, rc_want, verdict, cases,
                                cx, outputs)
    return Op(kind or command, f"{command}:{target}", lambda: _cli(argv),
              check, n_cases)


# ---------------------------------------------------------------------------
# check-pass: every passing CLI check at the acceptance bounds.


def check_pass_ops(seed: int, check_u=CHECK_U, order_u=ORDER_U) -> list[Op]:
    """The seed only shuffles the order."""
    outputs: dict = {}
    plan = [(c, t, check_u) for t in ref.SPEC_NAMES
            for c in ("check-spec", "check-gc")]
    plan += [("check-order", o, order_u) for o in ref.ORDER_NAMES]
    plan += [("check-laws", law, check_u) for law in ref.LAWS]
    random.Random(seed).shuffle(plan)
    return [_cli_op(c, t, u, 0, "pass", ref.pass_cases(c, t, *u), None,
                    outputs) for c, t, u in plan]


# ---------------------------------------------------------------------------
# check-refute: seeded mutants, caught by the spec scan and the gc scan.


def _stratified(rng: random.Random, valid: list, k: int) -> list[list]:
    """``valid`` cut into k contiguous bins, each bin in random order."""
    bins = [valid[len(valid) * i // k: len(valid) * (i + 1) // k]
            for i in range(k)]
    return [rng.sample(b, len(b)) for b in bins if b]


def mutant_triggers(seed: int) -> list:
    """(combinator, path, trigger args, wrong output, expected witness) for
    MUTANTS_PER_PATH mutants per combinator and path.  Triggers are drawn one per
    bin along the scan order, so witnesses spread over the whole scan; a
    trigger whose difference the check cannot see is skipped."""
    rng = random.Random(seed)
    out = []
    for name in ref.SPEC_NAMES:
        k, L = REFUTE_U.get(name, CHECK_U)
        real, wrong = ref.REAL[name], ref.MUTANTS[name]
        for path, space, witness in (
                ("spec", ref.spec_outer, ref.spec_witness),
                ("gc", ref.gc_outer, ref.gc_witness)):
            valid = [a for a in space(name, k, L) if wrong(*a) != real(*a)]
            for b in _stratified(rng, valid, MUTANTS_PER_PATH):
                for args in b:
                    w = witness(name, k, L, args, wrong(*args))
                    if w is not None:
                        out.append((name, path, args, wrong(*args), w))
                        break
    return out


def _mutant_hard(name: str, trigger: tuple, bad):
    """The real combinator, except that ``trigger`` gets ``bad``."""
    fn_name = REAL_FN[name]

    def hard(*args):
        if args == trigger:
            return bad
        return getattr(combinators, fn_name)(*args)
    return hard


def _refute_spec(name, u, trigger, bad):
    hard = _mutant_hard(name, trigger, bad)
    return lambda: connections.check_easy_hard(name, u, hard_fn=hard,
                                               workers=1)


def _refute_gc(name, u, trigger, bad):
    hard = _mutant_hard(name, trigger, bad)
    if name in PRED_FAMILIES:
        p = trigger[0]
        upper = lambda x: hard(p, x)  # noqa: E731
    else:
        p = None
        upper = lambda v: hard(v[0], v[1])  # noqa: E731

    def run():
        [(_, gc)] = connections.build_gcs(name, u, p)
        gc = dataclasses.replace(gc, upper=upper)
        return connections.check_gc_instance(gc, workers=1)
    return run


def _pkg_args(name: str, k: int, args: tuple) -> tuple:
    if name in PRED_FAMILIES:
        return (Pred(args[0], k), args[1])
    return args


def check_refute_ops(seed: int) -> list[Op]:
    ops = []
    for name, path, args, bad, (pos, cx) in mutant_triggers(seed):
        k, L = REFUTE_U.get(name, CHECK_U)
        trigger = _pkg_args(name, k, args)
        make = _refute_spec if path == "spec" else _refute_gc
        law = f"{path}:{name}"

        def check(rep, law=law, pos=pos, cx=cx):
            return (rep.law_name == law and rep.verdict == "fail"
                    and rep.cases_checked == pos
                    and plain(rep.counterexample) == cx)
        ops.append(Op("refute", f"refute-{path}:{name}@{pos}",
                      make(name, Universe(k, L), trigger, bad), check,
                      lambda rep: rep.cases_checked,
                      ("bench.check", "bench")))
    outputs: dict = {}
    for pair in sorted(ref.PAIRS):
        for command, witness in (("check-gc", ref.pair_gc_witness),
                                 ("find-counterexample",
                                  ref.roundtrip_witness)):
            pos, cx = witness(pair, *PAIR_U)
            ops.append(_cli_op(command, pair, PAIR_U, 1, "fail", pos,
                               {n: to_json(v) for n, v in cx}, outputs,
                               "refute"))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracle-mix: seeded oracle_spec queries.


def _quota(weights: list[int], total: int) -> list[int]:
    """Largest-remainder split of ``total`` in proportion to ``weights``."""
    s = sum(weights)
    raw = [w * total / s for w in weights]
    out = [int(r) for r in raw]
    by_rest = sorted(range(len(raw)), key=lambda i: out[i] - raw[i])
    for i in by_rest[:total - sum(out)]:
        out[i] += 1
    return out


def _spread(rng: random.Random, values: list, weights: list[int],
            total: int) -> list:
    """A fixed multiset of ``values`` in proportion to ``weights``, in random
    order, so every seed asks the same mix of query shapes."""
    out = [v for v, n in zip(values, _quota(weights, total)) for _ in range(n)]
    rng.shuffle(out)
    return out


def oracle_queries(seed: int, per_bucket: int = QUERIES_PER_BUCKET) -> list:
    """(target, (k, L), kwargs with plain values) queries.  Sequence lengths
    follow the share of each length in the carrier, predicates and counts
    cycle evenly; only the contents and the order are random."""
    rng = random.Random(seed)
    queries = []
    for name in ref.SPEC_NAMES:
        for k, L in ORACLE_U:
            lens = list(range(L + 1))
            w = [k ** n for n in lens]

            def word(n):
                return tuple(rng.randrange(k) for _ in range(n))
            if name == "zip":
                shapes = [(a, b) for a in lens for b in lens]
                sizes = _spread(rng, shapes, [w[a] * w[b] for a, b in shapes],
                                per_bucket)
                kws = [{"xs": word(a), "ys": word(b)} for a, b in sizes]
            else:
                xss = [word(n) for n in _spread(rng, lens, w, per_bucket)]
                if name == "take":
                    ns = _spread(rng, ref.nats(L), [1] * (L + 2), per_bucket)
                    kws = [{"xs": xs, "n": n} for xs, n in zip(xss, ns)]
                else:
                    ms = _spread(rng, list(range(1 << k)), [1] * (1 << k),
                                 per_bucket)
                    kws = [{"xs": xs, "pred": m} for xs, m in zip(xss, ms)]
            queries += [(name, (k, L), kw) for kw in kws]
    rng.shuffle(queries)
    return queries


def oracle_mix_ops(seed: int,
                   per_bucket: int = QUERIES_PER_BUCKET) -> list[Op]:
    direct = {name: getattr(combinators, fn) for name, fn in REAL_FN.items()}
    ops = []
    for name, (k, L), kw in oracle_queries(seed, per_bucket):
        u = Universe(k, L)
        if "pred" in kw:
            kw = dict(kw, pred=Pred(kw["pred"], k))
        order = {"zip": ("xs", "ys"), "take": ("n", "xs")}.get(
            name, ("pred", "xs"))
        want = direct[name](*(kw[a] for a in order))

        def run(name=name, u=u, kw=kw):
            return oracle.oracle_spec(name, u, **kw)
        ops.append(Op("query", f"query:{name}@{k},{L}", run,
                      lambda res, want=want: res == want,
                      root=("oracle.query", "oracle")))
    return ops


# ---------------------------------------------------------------------------
# Passes.

WORKLOADS = {"check-pass": check_pass_ops, "check-refute": check_refute_ops,
             "oracle-mix": oracle_mix_ops}
# Each command or check starts from an empty is_sublist cache, as a fresh
# process would; the oracle is a long-lived library caller and keeps it.
FRESH_CACHE = {"check-pass": True, "check-refute": True, "oracle-mix": False}


@dataclasses.dataclass
class Record:
    op: Op
    seconds: float
    result: object
    ok: bool = False
    cases: int = 0


@dataclasses.dataclass
class Pass:
    seconds: float          # on the clock run_pass was given
    wall: float             # plain wall time
    records: list[Record]
    cache_hits: int = 0
    cache_misses: int = 0


def _cache_counts() -> tuple[int, int]:
    info = getattr(SUBLIST, "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


def run_pass(ops: list[Op], fresh_cache: bool, tracer=None,
             clock: Callable[[], float] = perf_counter) -> Pass:
    """Run every op once, in order, timing each on ``clock``, then check the
    results."""
    clear = getattr(SUBLIST, "cache_clear", None)
    records, hits, misses = [], 0, 0
    w_pass, t_pass = perf_counter(), clock()
    for op in ops:
        if fresh_cache and clear:
            clear()
        h0, m0 = _cache_counts()
        if tracer is None:
            t0 = clock()
            try:
                res = op.run()
            except Exception as exc:  # counted as a failed operation
                res = exc
            t1 = clock()
        else:
            with tracer.root(op.tag, *op.root):
                t0 = clock()
                try:
                    res = op.run()
                except Exception as exc:
                    res = exc
                t1 = clock()
        h1, m1 = _cache_counts()
        hits, misses = hits + h1 - h0, misses + m1 - m0
        records.append(Record(op, t1 - t0, res))
    seconds, wall = clock() - t_pass, perf_counter() - w_pass
    for r in records:
        if isinstance(r.result, Exception):
            continue
        try:
            r.ok = bool(r.op.check(r.result))
            r.cases = r.op.cases(r.result)
        except Exception:  # a malformed result is a failed operation
            r.ok = False
    return Pass(seconds, wall, records, hits, misses)


def _pct(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_metrics(p: Pass) -> dict[str, float]:
    """Workload-level figures of one pass; a figure whose operations the
    workload does not run reads 0."""
    by_kind: dict[str, float] = {}
    for r in p.records:
        by_kind[r.op.kind] = by_kind.get(r.op.kind, 0.0) + r.seconds
    checks = [r for r in p.records if r.op.kind != "query"]
    check_s = sum(r.seconds for r in checks)
    refute_ms = [r.seconds * 1e3 for r in p.records if r.op.kind == "refute"]
    query_ms = [r.seconds * 1e3 for r in p.records if r.op.kind == "query"]
    return {
        "pass_s": p.seconds,
        "pass_wall_s": p.wall,
        "check_spec_s": by_kind.get("check-spec", 0.0),
        "check_gc_s": by_kind.get("check-gc", 0.0),
        "check_order_s": by_kind.get("check-order", 0.0),
        "check_laws_s": by_kind.get("check-laws", 0.0),
        "cases_per_s": (sum(r.cases for r in checks) / check_s
                        if check_s else 0.0),
        "refute_p50_ms": _pct(refute_ms, 50),
        "refute_p90_ms": _pct(refute_ms, 90),
        "oracle_p50_ms": _pct(query_ms, 50),
        "oracle_p99_ms": _pct(query_ms, 99),
        "oracle_qps": len(query_ms) / p.seconds if query_ms else 0.0,
    }


def median_metrics(passes: list[Pass]) -> dict[str, float]:
    per = [pass_metrics(p) for p in passes]
    return {k: statistics.median(m[k] for m in per) for k in per[0]}
