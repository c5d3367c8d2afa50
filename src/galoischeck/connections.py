"""Exhaustive checking of split specifications, adjoint-pair laws, and the
consequences that follow from them.

Every check reduces to scanning a cartesian product of finite axes for the
first violation of a boolean condition.  The shared engine scans a row (one
assignment of the outer axes against the whole last axis) at a time through
C-level ``map`` iterators, and keeps witness selection deterministic: the
reported counterexample is always the violation with the smallest flat
index in the fixed axis order, and on failure ``cases_checked`` is that
violation's 1-based position.

A spec or gc check scans ``lower(y) <= x  <=>  y <= upper(x)`` one x a row.
It keeps one right-hand row per distinct ``upper(x)`` for that check only,
which assumes that ``order_b.leq`` sees its second argument only through
``==``; unhashable images are not memoized.  The left side runs on the
candidates that meet the easy condition alone.

Each target is described once, in ``SPECS`` (a combinator's split
specification) and ``ADJOINTS`` (an adjoint presentation whose lower map is
not the identity); the spec, gc, oracle and law checks all read these
tables.

Each law lists its parts (bindings, axes, per-case condition, evaluations
per case); one driver budgets them all before the first one runs, scans
them in order and merges their reports once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, count, product, repeat
from math import prod
from operator import ne, not_
from typing import Callable, NamedTuple, Sequence

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
    CarrierKind,
    CheckReport,
    Pred,
    Universe,
    UniverseTooLargeError,
    all_satisfy,
    count_seq_lists,
    enum_preds,
    materialize_carrier,
    pred_and,
)
from .orders import (
    PAIR_PREFIX,
    PREFIX,
    PRODUCT,
    SEQ_LIST_PREFIX,
    SEQ_PAIR_PREFIX,
    SUBLIST,
    SUFFIX,
    ORDERS,
    OrderDef,
    check_order_laws,
)
# Unused here; perfbench/tracing.py wraps these module globals by name.
from .orders import is_prefix, is_sublist, is_suffix  # noqa: F401

Axis = tuple[tuple[str, ...], list]


@dataclass(frozen=True)
class Spec:
    """A combinator's split specification: its output is the greatest
    candidate under ``order`` that lies below the input and meets the easy
    condition ``easy(param, y)``, which ``says`` describes.

    ``param`` is the parameter axis: "p" (a predicate), "n" (a count) or
    None.  ``hard`` is the combinator; ``names`` are the witness names of
    the input and the candidate when the lower map is the identity.  The
    spec's candidate ranges over the whole carrier, or over the easy set
    alone with ``feasible_only`` (when that set is not downward closed).
    """

    name: str
    param: str | None
    order: OrderDef
    easy: Callable | None
    hard: Callable
    says: str
    names: tuple[str, str] = ("xs", "ys")
    feasible_only: bool = False


@dataclass(frozen=True)
class Adjoint:
    """An adjoint presentation ``lower(y) <= x  <=>  y <= upper(x)`` whose
    lower map is not the identity; x and y range over the carriers of
    ``order_a`` and ``order_b``.  A combinator's row has no upper map: its
    hard function, applied to the unpacked x, is the upper map."""

    name: str
    lower: Callable
    upper: Callable | None
    order_a: OrderDef
    order_b: OrderDef
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]


SPECS = {s.name: s for s in (
    Spec("dropWhile", "p", SUFFIX, head_fails, drop_while,
         "empty or head falsifies {}", ("l", "z"), feasible_only=True),
    Spec("filter", "p", SUBLIST, all_satisfy, filter_p,
         "all elements satisfy {}"),
    Spec("take", "n", PREFIX, lambda n, ys: len(ys) <= n, take_n,
         "length at most {}"),
    Spec("takeWhile", "p", PREFIX, all_satisfy, take_while,
         "all elements satisfy {}"),
    Spec("zip", None, PAIR_PREFIX, None, zip_pair,
         "both projections are prefixes of the inputs"),
)}

ADJOINTS = {a.name: a for a in (
    Adjoint("lines-unlines", unlines_join, lines_split, PREFIX,
            SEQ_LIST_PREFIX, ("xs",), ("ws",)),
    Adjoint("take", lambda ys: (len(ys), ys), None, PRODUCT, PREFIX,
            ("n", "xs"), ("ys",)),
    Adjoint("words-unwords", unwords_join, words_split, PREFIX,
            SEQ_LIST_PREFIX, ("xs",), ("ws",)),
    Adjoint("zip", unzip_pair, None, SEQ_PAIR_PREFIX, PAIR_PREFIX,
            ("xs", "ys"), ("zs",)),
)}

SPEC_NAMES = tuple(sorted(SPECS))
PAIR_NAMES = tuple(sorted(set(ADJOINTS) - set(SPECS)))
GC_TARGETS = tuple(sorted(set(SPECS) | set(ADJOINTS)))


class WitnessNotFoundError(Exception):
    """A counterexample search exhausted its space without a hit."""


def _flatten_bindings(axes: Sequence[Axis], values: Sequence) -> tuple:
    """Pair axis variable names with a concrete value assignment.  An axis
    whose name tuple has several entries holds composite values that are
    unpacked positionally."""
    return tuple(pair for (names, _), val in zip(axes, values) for pair in
                 (zip(names, val) if len(names) > 1 else [(names[0], val)]))


@dataclass(frozen=True)
class _Rows:
    """A two-axis law scanned a row at a time: ``start()``, run once the
    budget allows the scan, returns ``first(x)``, the index of the first
    violation in x's row or None."""
    start: Callable


def _scan(axes: Sequence[Axis],
          violates: Callable | _Rows) -> tuple[int, tuple] | None:
    """First violation in lexicographic axis order, as (flat index,
    bindings), or None.  A per-case ``violates`` is mapped lazily along each
    row, so it runs exactly up to the first violation."""
    *outer, last = [vals for _, vals in axes]
    if isinstance(violates, _Rows):
        first = violates.start()
    else:
        def first(*head):
            return next(compress(count(), map(violates, *map(repeat, head),
                                              last)), None)
    for i, head in enumerate(product(*outer)):
        j = first(*head)
        if j is not None:
            return (i * len(last) + j,
                    _flatten_bindings(axes, (*head, last[j])))
    return None


def run_check(law_name: str, axes: Sequence[Axis], violates: Callable, *,
              budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Scan axes in lexicographic order for the first violation, a row (one
    assignment of the outer axes against the whole last axis) at a time,
    calling ``violates`` on every case up to the first violation, no further.
    The scan runs in one thread: under the interpreter lock threads only
    slowed it down."""
    total = prod(len(vals) for _, vals in axes)
    _within_budget(law_name, total, budget)
    hit = _scan(axes, violates)
    if hit is None:
        return CheckReport(law_name, "pass", total)
    flat, bindings = hit
    return CheckReport(law_name, "fail", flat + 1, bindings)


def _within_budget(law: str, projected: int, budget: int) -> None:
    """Refuse upfront a check projected to exceed ``budget`` evaluations."""
    if projected > budget:
        raise UniverseTooLargeError(projected, budget, law)


def merge_reports(law_name: str,
                  parts: Sequence[tuple[tuple, CheckReport]]) -> CheckReport:
    """Combine sub-reports run in a fixed order into one report.  Stops at
    the first non-pass, prefixing that sub-report's witness with the given
    bindings; cases accumulate across the parts that ran."""
    cases = 0
    for bindings, rep in parts:
        cases += rep.cases_checked
        if rep.verdict != "pass":
            cx = bindings + (rep.counterexample or ())
            return CheckReport(law_name, rep.verdict, cases, cx)
    return CheckReport(law_name, "pass", cases)


class _Part(NamedTuple):
    """A scan of ``violates`` over ``axes``, ``cost`` evaluations a case, its
    witness after ``bindings``; ``hit`` rewrites a violation's report."""
    bindings: tuple
    axes: list
    violates: Callable | _Rows
    cost: int = 1
    hit: Callable | None = None


def _run_parts(law: str, parts: list[_Part], budget: int) -> CheckReport:
    """The one law driver: budget every part before the first one runs,
    then run them in order until one does not pass, merged once."""
    _within_budget(law, sum(p.cost * prod(len(vals) for _, vals in p.axes)
                            for p in parts), budget)
    runs = ((p, run_check(law, p.axes, p.violates, budget=budget))
            for p in parts)
    return merge_reports(law, ((p.bindings, p.hit(rep) if p.hit and not rep.ok
                                else rep) for p, rep in runs))


def _preds_axis(u: Universe, pred: Pred | None) -> list[Pred]:
    return [pred] if pred is not None else list(enum_preds(u))


def refuse_inapplicable(name: str, pred: Pred | None = None,
                        n: int | None = None, ys: tuple | None = None) -> None:
    """Refuse an input that does not apply to target ``name``: ``pred``
    unless its parameter axis is a predicate, ``n`` unless it is a count, a
    negative count, and ``ys`` unless it is zip, the one combinator without
    a parameter."""
    s = SPECS.get(name)
    param = s and s.param
    if pred is not None and param != "p":
        raise ValueError(f"a predicate does not apply to {name!r}")
    if n is not None and param != "n":
        raise ValueError(f"a count does not apply to {name!r}")
    if n is not None and n < 0:
        raise ValueError("take count must be non-negative")
    if ys is not None and (s is None or param is not None):
        raise ValueError(f"a second sequence does not apply to {name!r}")


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


def _parts(name: str, u: Universe, pred: Pred | None = None,
           n: int | None = None, hard: Callable | None = None,
           spec: bool = False) -> list[tuple[tuple, CanonicalGC, list | None]]:
    """The instances a gc check of ``name`` runs, in order, as (bindings,
    instance, feasible), with ``hard`` (by default the combinator) as the
    upper map.  A target without an ``ADJOINTS`` row has the identity as
    lower map and one instance per predicate, whose candidate ranges over
    the easy set.  For a ``spec`` that ranges it over the whole carrier,
    ``feasible`` flags each candidate in the easy set, which the left side
    then also requires.
    """
    s, adj = SPECS.get(name), ADJOINTS.get(name)
    if s is None and adj is None:
        raise ValueError(f"no adjoint presentation for target {name!r}")
    refuse_inapplicable(name, pred, n)
    seqs = materialize_carrier(CarrierKind.SEQ, u)
    hard = hard or (s and s.hard)
    if adj is None:
        whole = spec and not s.feasible_only
        parts = []
        for p in _preds_axis(u, pred):
            flags = [s.easy(p, y) for y in seqs]
            gc = CanonicalGC(name, lambda y: y, partial(hard, p), s.order,
                             s.order, ((s.names[0],), seqs), ((s.names[1],),
                             seqs if whole else list(compress(seqs, flags))))
            parts.append(((("p", p),), gc, flags if whole else None))
        return parts

    def carrier(o: OrderDef) -> list:
        if o.carrier is CarrierKind.SEQ:
            return seqs
        return materialize_carrier(o.carrier, u)

    if n is not None:
        xs = [(n, x) for x in seqs]
    else:
        xs = carrier(adj.order_a)
    gc = CanonicalGC(name, adj.lower, adj.upper or (lambda v: hard(*v)),
                     adj.order_a, adj.order_b, (adj.x_names, xs),
                     (adj.y_names, carrier(adj.order_b)))
    return [((), gc, None)]


def build_gcs(name: str, u: Universe,
              pred: Pred | None = None) -> list[tuple[tuple, CanonicalGC]]:
    """The canonical adjoint presentations for a named target, paired with
    the bindings (predicate choice) that select each instance."""
    return [(bindings, gc) for bindings, gc, _ in _parts(name, u, pred)]


def _equivalence(bindings: tuple, gc: CanonicalGC,
                 feasible: list | None = None) -> _Part:
    """The defining equivalence of ``gc`` over the product of its carriers,
    one x against every y per row, with a false left side wherever a
    ``feasible`` flag is false.

    The right-hand side depends on x only through ``upper(x)``, so each
    check keeps one right-hand row per distinct image, filled the first
    time a row meets it and dropped with the check.  This assumes that
    ``order_b.leq`` sees its second argument only through ``==``; an
    unhashable image is evaluated afresh on every row.  The left-hand side
    is evaluated on the feasible candidates alone: elsewhere the case
    fails exactly when the right flag is true, and each image stores the
    first such index once, next to its row.
    """
    ys = gc.y_axis[1]

    def start():
        leq_a, leq_b, upper = gc.order_a.leq, gc.order_b.leq, gc.upper
        flags = [True] * len(ys) if feasible is None else feasible
        off = list(map(not_, flags))
        lows = list(map(gc.lower, compress(ys, flags)))
        at = list(compress(count(), flags))
        stray_at = list(compress(count(), off))
        rows: dict = {}

        def row(image):
            """The image's right flags on the feasible candidates, and the
            first infeasible index whose right flag is true, or None."""
            right = bytes(map(leq_b, ys, repeat(image)))
            k = bytes(compress(right, off)).find(1)
            stray = None if k < 0 else stray_at[k]
            return bytes(compress(right, flags)), stray

        def first(x):
            image = upper(x)
            try:
                right, stray = rows[image]
            except KeyError:
                right, stray = rows[image] = row(image)
            except TypeError:
                right, stray = row(image)
            left = bytes(map(leq_a, lows, repeat(x)))
            if left == right:
                return stray
            j = at[next(compress(count(), map(ne, left, right)))]
            return j if stray is None else min(j, stray)
        return first
    return _Part(bindings, [gc.x_axis, gc.y_axis], _Rows(start))


# ``workers`` is ignored; perfbench/workloads.py still passes it.
def check_gc_instance(gc: CanonicalGC, *, budget: int = DEFAULT_BUDGET,
                      workers: int = 1) -> CheckReport:
    """Check the defining equivalence of one adjunction candidate over the
    full product of its two carriers."""
    part = _equivalence((), gc)
    return run_check(f"gc:{gc.name}", part.axes, part.violates, budget=budget)


def _gc_parts(name: str, u: Universe, pred: Pred | None = None) -> list:
    return [_equivalence(b, gc) for b, gc in build_gcs(name, u, pred)]


def check_canonical_gc(name: str, u: Universe, *, pred: Pred | None = None,
                       budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Check the defining equivalence of the adjunction for every instance
    the target generates."""
    return _run_parts(f"gc:{name}", _gc_parts(name, u, pred), budget)


# ---------------------------------------------------------------------------
# Split specifications: easy part + ordering against the combinator output.


# ``workers`` is ignored; perfbench/workloads.py still passes it.
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

    For take, zip and dropWhile the specification is the defining
    equivalence of the adjunction, with the same axes in the same order.
    For takeWhile and filter it is that equivalence with the candidate over
    the whole carrier and the easy condition added to the left side.

    The candidate for dropWhile ranges over sequences whose head already
    fails the predicate.  The feasible suffixes of an input are not downward
    closed among all sequences (a short suffix of the result may start with
    a passing element), but they are downward closed inside that restricted
    carrier, which is also the carrier the adjoint presentation uses.
    """
    if name not in SPECS:
        raise ValueError(f"unknown split specification {name!r}")
    return _run_parts(f"spec:{name}", [_equivalence(*i) for i in _parts(
        name, u, pred, n, hard_fn, spec=True)], budget)


# ---------------------------------------------------------------------------
# Consequences of the adjunction, each listed as its parts for one target.


def _cancellation_parts(name: str, u: Universe, side: str,
                        pred: Pred | None = None) -> list:
    if side not in ("left", "right"):
        raise ValueError(f"cancellation side must be left or right: {side!r}")
    if side == "left":
        return [_Part(b, [gc.x_axis], lambda x, gc=gc: not gc.order_a.leq(
            gc.lower(gc.upper(x)), x)) for b, gc in build_gcs(name, u, pred)]
    return [_Part(b, [gc.y_axis], lambda y, gc=gc: not gc.order_b.leq(
        y, gc.upper(gc.lower(y)))) for b, gc in build_gcs(name, u, pred)]


def check_cancellation(name: str, u: Universe, side: str, *,
                       pred: Pred | None = None,
                       budget: int = DEFAULT_BUDGET) -> CheckReport:
    """One cancellation consequence of the adjunction.

    left:  applying upper then lower lands at or below the input.
    right: every y sits at or below upper(lower(y)).
    """
    return _run_parts(f"cancellation-{side}:{name}",
                      _cancellation_parts(name, u, side, pred), budget)


def _round_trip_moves(f: Callable, g: Callable, v) -> bool:
    """f.g.f differs from f at v."""
    fv = f(v)
    return f(g(fv)) != fv


def _semi_inverse_parts(name: str, u: Universe,
                        pred: Pred | None = None) -> list:
    return [part for b, gc in build_gcs(name, u, pred) for part in (
        _Part(b + (("equation", "g.f.g = g"),), [gc.x_axis],
              partial(_round_trip_moves, gc.upper, gc.lower)),
        _Part(b + (("equation", "f.g.f = f"),), [gc.y_axis],
              partial(_round_trip_moves, gc.lower, gc.upper)))]


def check_semi_inverse(name: str, u: Universe, *, pred: Pred | None = None,
                       budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Round-trip identities: upper.lower.upper = upper over the x carrier,
    then lower.upper.lower = lower over the y carrier."""
    return _run_parts(f"semi-inverse:{name}",
                      _semi_inverse_parts(name, u, pred), budget)


def _injective_parts(name: str, u: Universe,
                     pred: Pred | None = None) -> list:
    """Per instance, a scan for a repeated lower image, then the inverse."""
    parts = []
    for b, gc in build_gcs(name, u, pred):
        seen: dict = {}

        def not_applicable(rep, gc=gc, seen=seen):
            y2 = rep.counterexample[-1][1]
            fy = gc.lower(y2)
            return replace(rep, verdict="not-applicable", counterexample=(
                ("y1", seen[fy]), ("y2", y2), ("f_y", fy)))
        parts += [_Part(b, [gc.y_axis], lambda y, gc=gc, seen=seen:
                        seen.setdefault(gc.lower(y), y) != y,
                        hit=not_applicable),
                  _Part(b, [gc.y_axis], lambda y, gc=gc:
                        gc.upper(gc.lower(y)) != y)]
    return parts


def check_injective_adjoint(name: str, u: Universe, *,
                            pred: Pred | None = None,
                            budget: int = DEFAULT_BUDGET) -> CheckReport:
    """When the lower map is injective on its carrier, upper must invert it
    exactly.  A collision makes the law inapplicable; the report then carries
    the colliding pair instead of failing."""
    return _run_parts(f"injective-adjoint:{name}",
                      _injective_parts(name, u, pred), budget)


# ---------------------------------------------------------------------------
# Equational consequences on the combinators themselves, read from SPECS.


def _idempotent_parts(name: str, u: Universe,
                      pred: Pred | None = None) -> list:
    spec = SPECS.get(name)
    if spec is None or spec.param != "p":
        raise ValueError(f"idempotency does not apply to {name!r}")
    fn = spec.hard
    seqs = materialize_carrier(CarrierKind.SEQ, u)

    def violates(p, xs):
        once = fn(p, xs)
        return fn(p, once) != once
    return [_Part((), [(("p",), _preds_axis(u, pred)), (("xs",), seqs)],
                  violates)]


def check_idempotent(name: str, u: Universe, *, pred: Pred | None = None,
                     budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Applying the combinator twice with the same predicate changes
    nothing after the first application."""
    return _run_parts(f"idempotent:{name}",
                      _idempotent_parts(name, u, pred), budget)


def _fusion_parts(u: Universe) -> list:
    def violates(name, p, q, xs):
        fn = SPECS[name].hard
        return fn(p, fn(q, xs)) != fn(pred_and(p, q), xs)
    preds = list(enum_preds(u))
    seqs = materialize_carrier(CarrierKind.SEQ, u)
    return [_Part((), [(("combinator",), ["filter", "takeWhile"]),
                       (("p",), preds), (("q",), preds), (("xs",), seqs)],
                  violates)]


def _split_append_parts(u: Universe) -> list:
    take, drop = SPECS["takeWhile"].hard, SPECS["dropWhile"].hard
    seqs = materialize_carrier(CarrierKind.SEQ, u)

    def violates(p, xs):
        return take(p, xs) + drop(p, xs) != xs
    return [_Part((), [(("p",), list(enum_preds(u))), (("xs",), seqs)],
                  violates)]


def _indirect_equality_parts(order_name: str, u: Universe) -> list:
    o = ORDERS[order_name]
    elems = materialize_carrier(o.carrier, u)
    leq = o.leq

    def violates(xs, ys):
        return xs != ys and all(leq(zs, xs) == leq(zs, ys) for zs in elems)
    return [_Part((), [(("xs",), elems), (("ys",), elems)], violates,
                  len(elems))]


def check_indirect_equality(order_name: str, u: Universe, *,
                            budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Two elements with identical down-sets must be equal.  The inner
    quantifier makes one case cost up to a full carrier scan, hence the
    cubic budget projection."""
    return _run_parts(f"indirect-equality:{order_name}",
                      _indirect_equality_parts(order_name, u), budget)


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
    join, split = ADJOINTS[name].lower, ADJOINTS[name].upper
    law = f"non-gc:{name}"
    size = count_seq_lists(u)
    if size > budget:
        raise UniverseTooLargeError(size, budget, law)
    lists = materialize_carrier(CarrierKind.SEQ_LIST, u)
    for i, ws in enumerate(lists):
        joined = join(ws)
        resplit = split(joined)
        rejoined = join(resplit)
        if rejoined != joined:
            cx = (("ws", ws), ("joined", joined), ("resplit", resplit),
                  ("rejoined", rejoined))
            return CheckReport(law, "fail", i + 1, cx)
    raise WitnessNotFoundError(
        f"{name}: join.split.join = join holds for all {len(lists)} word "
        f"lists at alphabet={u.alphabet_size} max_len={u.max_len}")


# ---------------------------------------------------------------------------
# Law battery, one aggregated report per named law.


def order_laws_report(
        order_name: str, u: Universe, *,
        budget: int = DEFAULT_BUDGET) -> tuple[CheckReport, object]:
    """Merged three-law report for one order, plus its least element
    (None when no unique bottom exists)."""
    o = ORDERS[order_name]
    rep = check_order_laws(o, u, budget=budget)
    merged = merge_reports(
        f"order-laws:{order_name}",
        [((("law", "reflexive"),), rep.reflexive),
         ((("law", "transitive"),), rep.transitive),
         ((("law", "antisymmetric"),), rep.antisymmetric)])
    return merged, rep.least_element


def _across(key: str, targets: Sequence[str], parts: Callable) -> Callable:
    """A law's parts over its targets, each under its (key, target) binding."""
    return lambda u: [p._replace(bindings=((key, t),) + p.bindings)
                      for t in targets for p in parts(t, u)]


# law -> its parts at a universe
_LAWS = {
    "gc": _across("connection", SPEC_NAMES, _gc_parts),
    "cancellation-left": _across("connection", SPEC_NAMES, partial(
        _cancellation_parts, side="left")),
    "cancellation-right": _across("connection", SPEC_NAMES, partial(
        _cancellation_parts, side="right")),
    "semi-inverse": _across("connection", SPEC_NAMES, _semi_inverse_parts),
    "injective-adjoint": _across("connection", SPEC_NAMES, _injective_parts),
    "idempotent": _across("combinator", [
        s for s in SPEC_NAMES if SPECS[s].param == "p"], _idempotent_parts),
    "fusion": _fusion_parts,
    "split-append": _split_append_parts,
    "indirect-equality": _across("order", ("prefix", "sublist"),
                                 _indirect_equality_parts),
}
LAW_NAMES = tuple(sorted([*_LAWS, "order-laws"]))


def check_fusion(u: Universe, *, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Two passes with predicates p then q collapse to one pass with their
    conjunction, for the combinators where the split ordering makes both
    sides pick from the same candidates."""
    return _run_parts("fusion", _fusion_parts(u), budget)


def check_split_append(u: Universe, *,
                       budget: int = DEFAULT_BUDGET) -> CheckReport:
    """The kept prefix and the dropped suffix of the same predicate
    reassemble the input exactly."""
    return _run_parts("split-append", _split_append_parts(u), budget)


def check_law(law: str, u: Universe, *,
              budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Run one named law across every target it applies to, in sorted
    target order, aggregated into a single report.  The budget covers every
    part of every target, so a refusal names the law alone.  order-laws is
    the exception: each order budgets the evaluations its scan makes, as its
    pruned cost is not known before the scan."""
    if law == "order-laws":
        return merge_reports(law, (
            ((("order", t),), order_laws_report(t, u, budget=budget)[0])
            for t in sorted(ORDERS)))
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}")
    return _run_parts(law, _LAWS[law](u), budget)
