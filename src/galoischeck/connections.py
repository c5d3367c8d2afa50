"""Exhaustive checking of split specifications, adjoint-pair laws, and the
consequences that follow from them.

Every check reduces to scanning a cartesian product of finite axes for the
first violation of a boolean condition.  The shared engine scans
sequentially and keeps witness selection deterministic: the reported
counterexample is always the violation with the smallest flat index in the
fixed axis order, and on failure ``cases_checked`` is that violation's
1-based position.  Every entry point accepts ``workers=`` for compatibility
and ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from time import perf_counter
from typing import Callable, Sequence

from .combinators import (
    drop_while,
    filter_p,
    head_fails,
    lines_split,
    take_n,
    take_while,
    unlines_join,
    unwords_join,
    unzip_pair,
    words_split,
    zip_pair,
)
from .core import (
    DEFAULT_BUDGET,
    Carrier,
    CarrierKind,
    CheckReport,
    Pred,
    Universe,
    UniverseTooLargeError,
    all_satisfy,
    count_seq_lists,
    enum_preds,
    materialize_carrier,
    nat_bound,
    pred_and,
)
from .orders import (
    PAIR_PREFIX,
    PREFIX,
    SEQ_LIST_PREFIX,
    SEQ_PAIR_PREFIX,
    SUBLIST,
    SUFFIX,
    ORDERS,
    OrderDef,
    check_order_laws,
    is_prefix,
    is_sublist,
    is_suffix,
)

Axis = tuple[tuple[str, ...], list]

SPEC_NAMES = ("dropWhile", "filter", "take", "takeWhile", "zip")
PAIR_NAMES = ("lines-unlines", "words-unwords")
GC_TARGETS = tuple(sorted(SPEC_NAMES + PAIR_NAMES))
LAW_NAMES = (
    "cancellation-left",
    "cancellation-right",
    "fusion",
    "gc",
    "idempotent",
    "indirect-equality",
    "injective-adjoint",
    "order-laws",
    "semi-inverse",
    "split-append",
)

_PRED_FAMILIES = ("takeWhile", "filter", "dropWhile")


class WitnessNotFoundError(Exception):
    """A counterexample search exhausted its space without a hit."""


def _flatten_bindings(axes: Sequence[Axis], values: Sequence) -> tuple:
    """Pair axis variable names with a concrete value assignment.  An axis
    whose name tuple has several entries holds composite values that are
    unpacked positionally."""
    out = []
    for (names, _), val in zip(axes, values):
        if len(names) == 1:
            out.append((names[0], val))
        else:
            out.extend(zip(names, val))
    return tuple(out)


def _scan(axes: Sequence[Axis],
          violates: Callable) -> tuple[int, tuple] | None:
    """First violation in lexicographic axis order, as (flat index,
    bindings), or None."""
    outer = axes[0][1]
    inner_axes = [vals for _, vals in axes[1:]]
    inner_total = 1
    for vals in inner_axes:
        inner_total *= len(vals)
    for i, v0 in enumerate(outer):
        if inner_axes:
            for j, rest in enumerate(product(*inner_axes)):
                if violates(v0, *rest):
                    return (i * inner_total + j,
                            _flatten_bindings(axes, (v0, *rest)))
        elif violates(v0):
            return i, _flatten_bindings(axes, (v0,))
    return None


def run_check(law_name: str, axes: Sequence[Axis], violates: Callable, *,
              budget: int = DEFAULT_BUDGET, workers: int = 1,
              projected: int | None = None) -> CheckReport:
    """Scan axes in lexicographic order for the first violation.

    ``projected`` overrides the budgeted evaluation count when one case costs
    more than a single evaluation (for instance a nested quantifier inside
    ``violates``).  ``workers`` is accepted for compatibility and ignored:
    the scan is sequential, because under the interpreter lock threads only
    slowed it down.
    """
    del workers
    total = 1
    for _, vals in axes:
        total *= len(vals)
    if (projected if projected is not None else total) > budget:
        raise UniverseTooLargeError(
            projected if projected is not None else total, budget, law_name)

    t0 = perf_counter()
    hit = _scan(axes, violates)
    elapsed = perf_counter() - t0

    if hit is None:
        return CheckReport(law_name, "pass", total, None, elapsed)
    flat, bindings = hit
    return CheckReport(law_name, "fail", flat + 1, bindings, elapsed)


def merge_reports(law_name: str,
                  parts: Sequence[tuple[tuple, CheckReport]]) -> CheckReport:
    """Combine sub-reports run in a fixed order into one report.  Stops at
    the first non-pass, prefixing that sub-report's witness with the given
    bindings; cases accumulate across the parts that ran."""
    cases = 0
    elapsed = 0.0
    for bindings, rep in parts:
        cases += rep.cases_checked
        elapsed += rep.elapsed
        if rep.verdict != "pass":
            cx = bindings + (rep.counterexample or ())
            return CheckReport(law_name, rep.verdict, cases, cx, elapsed)
    return CheckReport(law_name, "pass", cases, None, elapsed)


def _cached(fn: Callable) -> Callable:
    """Memoize a hard-side computation on its argument tuple.  The scans
    revisit the same outer assignment for every candidate, so this turns
    recomputation into one dict lookup per case."""
    cache: dict = {}
    missing = object()

    def wrapped(*args):
        got = cache.get(args, missing)
        if got is missing:
            got = fn(*args)
            cache[args] = got
        return got

    return wrapped


def _preds_axis(u: Universe, pred: Pred | None) -> list[Pred]:
    return [pred] if pred is not None else list(enum_preds(u))


def _nat_axis(u: Universe, n: int | None) -> list[int]:
    if n is not None:
        if n < 0:
            raise ValueError("take count must be non-negative")
        return [n]
    return list(range(nat_bound(u) + 1))


# ---------------------------------------------------------------------------
# Split specifications: easy part + ordering against the combinator output.


def check_easy_hard(name: str, u: Universe, *, pred: Pred | None = None,
                    n: int | None = None, hard_fn: Callable | None = None,
                    budget: int = DEFAULT_BUDGET,
                    workers: int = 1) -> CheckReport:
    """Verify a combinator's split specification exhaustively: the easy
    condition together with the candidate ordering against the input holds
    exactly when the candidate sits below the combinator's output.

    ``hard_fn`` swaps in an alternative implementation with the same calling
    convention as the default combinator; the specification itself is
    unchanged, so this is how a candidate implementation gets validated
    against the spec (or deliberately broken ones get caught).

    The candidate for dropWhile ranges over sequences whose head already
    fails the predicate.  The feasible suffixes of an input are not downward
    closed among all sequences (a short suffix of the result may start with
    a passing element), but they are downward closed inside that restricted
    carrier, which is also the carrier the adjoint presentation uses.
    """
    law = f"spec:{name}"
    seqs = materialize_carrier(Carrier(CarrierKind.SEQ), u)

    if name == "takeWhile":
        hard = _cached(hard_fn or take_while)

        def violates(p, xs, ys):
            lhs = is_prefix(ys, xs) and all_satisfy(p, ys)
            return lhs != is_prefix(ys, hard(p, xs))

        axes = [(("p",), _preds_axis(u, pred)), (("xs",), seqs),
                (("ys",), seqs)]
        return run_check(law, axes, violates, budget=budget, workers=workers)

    if name == "take":
        hard = _cached(hard_fn or take_n)

        def violates(n_, xs, ys):
            lhs = len(ys) <= n_ and is_prefix(ys, xs)
            return lhs != is_prefix(ys, hard(n_, xs))

        axes = [(("n",), _nat_axis(u, n)), (("xs",), seqs), (("ys",), seqs)]
        return run_check(law, axes, violates, budget=budget, workers=workers)

    if name == "filter":
        hard = _cached(hard_fn or filter_p)

        def violates(p, xs, ys):
            lhs = is_sublist(ys, xs) and all_satisfy(p, ys)
            return lhs != is_sublist(ys, hard(p, xs))

        axes = [(("p",), _preds_axis(u, pred)), (("xs",), seqs),
                (("ys",), seqs)]
        return run_check(law, axes, violates, budget=budget, workers=workers)

    if name == "dropWhile":
        hard = _cached(hard_fn or drop_while)
        parts = []
        for p in _preds_axis(u, pred):
            candidates = [z for z in seqs if head_fails(p, z)]
            axes = [(("l",), seqs), (("z",), candidates)]

            def violates(l, z, _p=p):
                lhs = head_fails(_p, z) and is_suffix(z, l)
                return lhs != is_suffix(z, hard(_p, l))

            rep = run_check(law, axes, violates, budget=budget,
                            workers=workers)
            parts.append(((("p", p),), rep))
        return merge_reports(law, parts)

    if name == "zip":
        hard = _cached(hard_fn or zip_pair)
        pair_seqs = materialize_carrier(Carrier(CarrierKind.PAIR_SEQ), u)
        proj = {zs: unzip_pair(zs) for zs in pair_seqs}

        def violates(xs, ys, zs):
            a, b = proj[zs]
            lhs = is_prefix(a, xs) and is_prefix(b, ys)
            return lhs != is_prefix(zs, hard(xs, ys))

        axes = [(("xs",), seqs), (("ys",), seqs), (("zs",), pair_seqs)]
        return run_check(law, axes, violates, budget=budget, workers=workers)

    raise ValueError(f"unknown split specification {name!r}")


# ---------------------------------------------------------------------------
# Adjoint pairs in canonical shape: two maps, two ordered carriers.


@dataclass(frozen=True)
class CanonicalGC:
    """An adjunction candidate: lower(y) below x exactly when y is below
    upper(x).  ``x_axis`` and ``y_axis`` carry the materialized carriers with
    their witness variable names."""

    name: str
    lower: Callable
    upper: Callable
    order_a: OrderDef
    order_b: OrderDef
    x_axis: Axis
    y_axis: Axis


def build_gcs(name: str, u: Universe,
              pred: Pred | None = None) -> list[tuple[tuple, CanonicalGC]]:
    """The canonical adjoint presentations for a named target, paired with
    the bindings (predicate choice) that select each instance."""
    seqs = materialize_carrier(Carrier(CarrierKind.SEQ), u)

    if name in _PRED_FAMILIES:
        order, restrict_of, upper_of, y_name = {
            "takeWhile": (PREFIX,
                          lambda p: (lambda ys: all_satisfy(p, ys)),
                          lambda p: (lambda ys: take_while(p, ys)), "ys"),
            "filter": (SUBLIST,
                       lambda p: (lambda ys: all_satisfy(p, ys)),
                       lambda p: (lambda ys: filter_p(p, ys)), "ys"),
            "dropWhile": (SUFFIX,
                          lambda p: (lambda z: head_fails(p, z)),
                          lambda p: (lambda l: drop_while(p, l)), "z"),
        }[name]
        out = []
        for p in _preds_axis(u, pred):
            keep = restrict_of(p)
            sub = [ys for ys in seqs if keep(ys)]
            x_name = "l" if name == "dropWhile" else "xs"
            gc = CanonicalGC(name, lambda y: y, upper_of(p), order, order,
                             ((x_name,), seqs), ((y_name,), sub))
            out.append(((("p", p),), gc))
        return out

    if name == "take":
        pairs = materialize_carrier(Carrier(CarrierKind.NAT_SEQ), u)
        gc = CanonicalGC(
            name, lambda ys: (len(ys), ys), lambda v: take_n(v[0], v[1]),
            ORDERS["product"], PREFIX, (("n", "xs"), pairs), (("ys",), seqs))
        return [((), gc)]

    if name == "zip":
        seq_pairs = materialize_carrier(Carrier(CarrierKind.SEQ_PAIR), u)
        pair_seqs = materialize_carrier(Carrier(CarrierKind.PAIR_SEQ), u)
        gc = CanonicalGC(
            name, unzip_pair, lambda v: zip_pair(v[0], v[1]),
            SEQ_PAIR_PREFIX, PAIR_PREFIX,
            (("xs", "ys"), seq_pairs), (("zs",), pair_seqs))
        return [((), gc)]

    if name in PAIR_NAMES:
        join, split = ((unwords_join, words_split)
                       if name == "words-unwords"
                       else (unlines_join, lines_split))
        lists = materialize_carrier(Carrier(CarrierKind.SEQ_LIST), u)
        gc = CanonicalGC(name, join, split, PREFIX, SEQ_LIST_PREFIX,
                         (("xs",), seqs), (("ws",), lists))
        return [((), gc)]

    raise ValueError(f"no adjoint presentation for target {name!r}")


def check_gc_instance(gc: CanonicalGC, *, budget: int = DEFAULT_BUDGET,
                      workers: int = 1) -> CheckReport:
    """Check the defining equivalence of one adjunction candidate over the
    full product of its two carriers."""
    leq_a, leq_b = gc.order_a.leq, gc.order_b.leq
    low = _cached(lambda y: gc.lower(y))
    up = _cached(lambda x: gc.upper(x))

    def violates(x, y):
        return leq_a(low(y), x) != leq_b(y, up(x))

    return run_check(f"gc:{gc.name}", [gc.x_axis, gc.y_axis], violates,
                     budget=budget, workers=workers)


def check_canonical_gc(name: str, u: Universe, *, pred: Pred | None = None,
                       budget: int = DEFAULT_BUDGET,
                       workers: int = 1) -> CheckReport:
    """Check the defining equivalence of the adjunction for every instance
    the target generates."""
    parts = [(bindings, check_gc_instance(gc, budget=budget,
                                          workers=workers))
             for bindings, gc in build_gcs(name, u, pred)]
    return merge_reports(f"gc:{name}", parts)


def check_cancellation(name: str, u: Universe, side: str, *,
                       pred: Pred | None = None,
                       budget: int = DEFAULT_BUDGET,
                       workers: int = 1) -> CheckReport:
    """One cancellation consequence of the adjunction.

    left:  applying upper then lower lands at or below the input.
    right: every y sits at or below upper(lower(y)).
    """
    if side not in ("left", "right"):
        raise ValueError(f"cancellation side must be left or right: {side!r}")
    law = f"cancellation-{side}:{name}"
    parts = []
    for bindings, gc in build_gcs(name, u, pred):
        if side == "left":
            def violates(x, _gc=gc):
                return not _gc.order_a.leq(_gc.lower(_gc.upper(x)), x)

            axes = [gc.x_axis]
        else:
            def violates(y, _gc=gc):
                return not _gc.order_b.leq(y, _gc.upper(_gc.lower(y)))

            axes = [gc.y_axis]
        parts.append((bindings, run_check(law, axes, violates,
                                          budget=budget, workers=workers)))
    return merge_reports(law, parts)


def check_semi_inverse(name: str, u: Universe, *, pred: Pred | None = None,
                       budget: int = DEFAULT_BUDGET,
                       workers: int = 1) -> CheckReport:
    """Round-trip identities: upper.lower.upper = upper over the x carrier,
    then lower.upper.lower = lower over the y carrier."""
    law = f"semi-inverse:{name}"
    parts = []
    for bindings, gc in build_gcs(name, u, pred):
        def x_violates(x, _gc=gc):
            gx = _gc.upper(x)
            return _gc.upper(_gc.lower(gx)) != gx

        def y_violates(y, _gc=gc):
            fy = _gc.lower(y)
            return _gc.lower(_gc.upper(fy)) != fy

        x_rep = run_check(law, [gc.x_axis], x_violates,
                          budget=budget, workers=workers)
        parts.append((bindings + (("equation", "g.f.g = g"),), x_rep))
        y_rep = run_check(law, [gc.y_axis], y_violates,
                          budget=budget, workers=workers)
        parts.append((bindings + (("equation", "f.g.f = f"),), y_rep))
    return merge_reports(law, parts)


def check_injective_adjoint(name: str, u: Universe, *,
                            pred: Pred | None = None,
                            budget: int = DEFAULT_BUDGET,
                            workers: int = 1) -> CheckReport:
    """When the lower map is injective on its carrier, upper must invert it
    exactly.  A collision makes the law inapplicable; the report then carries
    the colliding pair instead of failing."""
    law = f"injective-adjoint:{name}"
    parts = []
    for bindings, gc in build_gcs(name, u, pred):
        names, ys = gc.y_axis
        seen: dict = {}
        collision = None
        for y in ys:
            fy = gc.lower(y)
            if fy in seen:
                collision = (seen[fy], y, fy)
                break
            seen[fy] = y
        if collision is not None:
            y1, y2, fy = collision
            cx = bindings + (("y1", y1), ("y2", y2), ("f_y", fy))
            parts.append(((), CheckReport(law, "not-applicable", len(seen) + 1,
                                          cx)))
            return merge_reports(law, parts)

        def violates(y, _gc=gc):
            return _gc.upper(_gc.lower(y)) != y

        rep = run_check(law, [gc.y_axis], violates,
                        budget=budget, workers=workers)
        total = rep.cases_checked + len(ys)
        parts.append((bindings, CheckReport(law, rep.verdict, total,
                                            rep.counterexample, rep.elapsed)))
    return merge_reports(law, parts)


# ---------------------------------------------------------------------------
# Equational consequences on the combinators themselves.


def check_idempotent(name: str, u: Universe, *, pred: Pred | None = None,
                     budget: int = DEFAULT_BUDGET,
                     workers: int = 1) -> CheckReport:
    """Applying the combinator twice with the same predicate changes
    nothing after the first application."""
    fn = {"takeWhile": take_while, "filter": filter_p,
          "dropWhile": drop_while}.get(name)
    if fn is None:
        raise ValueError(f"idempotency does not apply to {name!r}")
    seqs = materialize_carrier(Carrier(CarrierKind.SEQ), u)

    def violates(p, xs):
        once = fn(p, xs)
        return fn(p, once) != once

    axes = [(("p",), _preds_axis(u, pred)), (("xs",), seqs)]
    return run_check(f"idempotent:{name}", axes, violates,
                     budget=budget, workers=workers)


def check_fusion(u: Universe, *, budget: int = DEFAULT_BUDGET,
                 workers: int = 1) -> CheckReport:
    """Two passes with predicates p then q collapse to one pass with their
    conjunction, for the combinators where the split ordering makes both
    sides pick from the same candidates."""
    fns = {"filter": filter_p, "takeWhile": take_while}
    seqs = materialize_carrier(Carrier(CarrierKind.SEQ), u)
    preds = list(enum_preds(u))

    def violates(cname, p, q, xs):
        fn = fns[cname]
        return fn(p, fn(q, xs)) != fn(pred_and(p, q), xs)

    axes = [(("combinator",), sorted(fns)), (("p",), preds),
            (("q",), preds), (("xs",), seqs)]
    return run_check("fusion", axes, violates, budget=budget,
                     workers=workers)


def check_split_append(u: Universe, *, budget: int = DEFAULT_BUDGET,
                       workers: int = 1) -> CheckReport:
    """The kept prefix and the dropped suffix of the same predicate
    reassemble the input exactly."""
    seqs = materialize_carrier(Carrier(CarrierKind.SEQ), u)

    def violates(p, xs):
        return take_while(p, xs) + drop_while(p, xs) != xs

    axes = [(("p",), list(enum_preds(u))), (("xs",), seqs)]
    return run_check("split-append", axes, violates, budget=budget,
                     workers=workers)


def check_indirect_equality(order_name: str, u: Universe, *,
                            budget: int = DEFAULT_BUDGET,
                            workers: int = 1) -> CheckReport:
    """Two elements with identical down-sets must be equal.  The inner
    quantifier makes one case cost up to a full carrier scan, hence the
    cubic budget projection."""
    o = ORDERS[order_name]
    elems = materialize_carrier(o.carrier, u)
    n = len(elems)
    leq = o.leq

    def violates(xs, ys):
        if xs == ys:
            return False
        return all(leq(zs, xs) == leq(zs, ys) for zs in elems)

    axes = [(("xs",), elems), (("ys",), elems)]
    return run_check(f"indirect-equality:{order_name}", axes, violates,
                     budget=budget, workers=workers, projected=n * n * n)


# ---------------------------------------------------------------------------
# Refuting the claimed adjunctions for the word and line splitters.


def find_non_gc_counterexample(name: str, u: Universe, *,
                               budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Search the word-list carrier in enumeration order for a failure of
    the round-trip identity join.split.join = join.  Such a failure refutes
    every adjunction presentation with the joiner as lower map, since the
    identity is forced whenever one exists.  Refuses upfront when the
    carrier holds more than ``budget`` word lists."""
    if name not in PAIR_NAMES:
        raise ValueError(f"not a splitter/joiner pair: {name!r}")
    join, split = ((unwords_join, words_split) if name == "words-unwords"
                   else (unlines_join, lines_split))
    law = f"non-gc:{name}"
    size = count_seq_lists(u)
    if size > budget:
        raise UniverseTooLargeError(size, budget, law)
    t0 = perf_counter()
    lists = materialize_carrier(Carrier(CarrierKind.SEQ_LIST), u)
    for i, ws in enumerate(lists):
        joined = join(ws)
        resplit = split(joined)
        rejoined = join(resplit)
        if rejoined != joined:
            cx = (("ws", ws), ("joined", joined), ("resplit", resplit),
                  ("rejoined", rejoined))
            return CheckReport(law, "fail", i + 1, cx, perf_counter() - t0)
    raise WitnessNotFoundError(
        f"{name}: join.split.join = join holds for all {len(lists)} word "
        f"lists at alphabet={u.alphabet_size} max_len={u.max_len}")


# ---------------------------------------------------------------------------
# Law battery, one aggregated report per named law.


def order_laws_report(order_name: str, u: Universe, *,
                      budget: int = DEFAULT_BUDGET,
                      workers: int = 1) -> tuple[CheckReport, object]:
    """Merged three-law report for one order, plus its least element
    (None when no unique bottom exists)."""
    o = ORDERS[order_name]
    rep = check_order_laws(o, u, budget=budget, workers=workers)
    merged = merge_reports(
        f"order-laws:{order_name}",
        [((("law", "reflexive"),), rep.reflexive),
         ((("law", "transitive"),), rep.transitive),
         ((("law", "antisymmetric"),), rep.antisymmetric)])
    return merged, rep.least_element


def check_law(law: str, u: Universe, *, budget: int = DEFAULT_BUDGET,
              workers: int = 1) -> CheckReport:
    """Run one named law across every target it applies to, in sorted
    target order, aggregated into a single report."""
    kw = {"budget": budget, "workers": workers}

    if law == "order-laws":
        parts = []
        for oname in sorted(ORDERS):
            rep, _ = order_laws_report(oname, u, **kw)
            parts.append(((("order", oname),), rep))
        return merge_reports(law, parts)
    if law == "gc":
        parts = [((("connection", s),), check_canonical_gc(s, u, **kw))
                 for s in SPEC_NAMES]
        return merge_reports(law, parts)
    if law in ("cancellation-left", "cancellation-right"):
        side = law.split("-")[1]
        parts = [((("connection", s),),
                  check_cancellation(s, u, side, **kw))
                 for s in SPEC_NAMES]
        return merge_reports(law, parts)
    if law == "semi-inverse":
        parts = [((("connection", s),), check_semi_inverse(s, u, **kw))
                 for s in SPEC_NAMES]
        return merge_reports(law, parts)
    if law == "injective-adjoint":
        parts = [((("connection", s),), check_injective_adjoint(s, u, **kw))
                 for s in SPEC_NAMES]
        return merge_reports(law, parts)
    if law == "idempotent":
        parts = [((("combinator", c),), check_idempotent(c, u, **kw))
                 for c in sorted(_PRED_FAMILIES)]
        return merge_reports(law, parts)
    if law == "fusion":
        return check_fusion(u, **kw)
    if law == "indirect-equality":
        parts = [((("order", oname),),
                  check_indirect_equality(oname, u, **kw))
                 for oname in ("prefix", "sublist")]
        return merge_reports(law, parts)
    if law == "split-append":
        return check_split_append(u, **kw)
    raise ValueError(f"unknown law {law!r}")
