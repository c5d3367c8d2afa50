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
A row is one int, candidate i's flag at bit 8·i (so each relation must
return a bool; a row refuses any other result with a ``ValueError``), and a
row's first mismatch is the lowest set bit of left XOR right.
It keeps one right-hand row per distinct ``upper(x)`` for that check only,
which assumes that ``order_b.leq`` sees its second argument only through
``==``; unhashable images are not memoized.  The left side runs on the
candidates that meet the easy condition alone.  When ``order_a.leq`` is a
componentwise order (it carries ``factors``), the check also keeps one left
row per factor and distinct component of x, ANDed with one ``&``, which
assumes that each factor sees its side of x only through ``==``;
unhashable components are not memoized either.

Each target is described once, by its ``TARGETS`` row: y solves input x
when ``easy(y)`` holds and ``lower(y) <= x``, and the greatest solution is
``upper(x)``.  The spec, gc, oracle and law checks and the CLI all read
that one row.

Each law lists its parts (bindings, axes, per-case condition, evaluations
per case); one driver budgets them all before the first one runs, scans
them in order and merges their reports once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import compress, count, product, repeat
from math import prod
from operator import and_, not_
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
    _known,
    _within_budget,
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


def _identity(y):
    return y


@dataclass(frozen=True)
class Target:
    """One target: y solves input x when ``easy(param, y)`` holds (None:
    always) and ``lower(y) <= x`` under ``order_a`` (None: ``order``), and
    ``upper(x)`` is the greatest solution under ``order``.  A combinator has
    a parameter axis ``param`` ("p" a predicate, "n" a count, or None), its
    ``hard`` function, which applied to the predicate or to the unpacked x
    is the upper map, and ``says``, the condition as the oracle's errors
    describe it.  Its spec ranges the candidate over the whole carrier, or
    over the easy set alone with ``feasible_only`` (when that set is not
    downward closed).  A splitter/joiner pair has no ``hard``: ``lower``
    joins, ``upper`` splits.  ``x_names`` and ``y_names`` name the
    witnesses."""

    name: str
    param: str | None
    order: OrderDef
    hard: Callable | None
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]
    easy: Callable | None = None
    says: str = ""
    feasible_only: bool = False
    lower: Callable = _identity
    upper: Callable | None = None
    order_a: OrderDef | None = None


TARGETS = {t.name: t for t in (
    Target("dropWhile", "p", SUFFIX, drop_while, ("l",), ("z",), head_fails,
           "empty or head falsifies {}", feasible_only=True),
    Target("filter", "p", SUBLIST, filter_p, ("xs",), ("ys",), all_satisfy,
           "all elements satisfy {}"),
    Target("lines-unlines", None, SEQ_LIST_PREFIX, None, ("xs",), ("ws",),
           lower=unlines_join, upper=lines_split, order_a=PREFIX),
    Target("take", "n", PREFIX, take_n, ("n", "xs"), ("ys",),
           says="length at most {}", lower=lambda ys: (len(ys), ys),
           order_a=PRODUCT),
    Target("takeWhile", "p", PREFIX, take_while, ("xs",), ("ys",),
           all_satisfy, "all elements satisfy {}"),
    Target("words-unwords", None, SEQ_LIST_PREFIX, None, ("xs",), ("ws",),
           lower=unwords_join, upper=words_split, order_a=PREFIX),
    Target("zip", None, PAIR_PREFIX, zip_pair, ("xs", "ys"), ("zs",),
           says="both projections are prefixes of the inputs",
           lower=unzip_pair, order_a=SEQ_PAIR_PREFIX),
)}

SPEC_NAMES = tuple(sorted(n for n, t in TARGETS.items() if t.hard))
PAIR_NAMES = tuple(sorted(n for n, t in TARGETS.items() if not t.hard))
GC_TARGETS = tuple(sorted(TARGETS))


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


def refuse_inapplicable(name: str, u: Universe, pred: Pred | None = None,
                        n: int | None = None, ys: tuple | None = None) -> None:
    """Refuse an input that does not apply to target ``name``: ``pred``
    unless its parameter axis is a predicate, ``pred`` over another
    alphabet than ``u``'s, ``n`` unless the axis is a count, a negative
    count, and ``ys`` unless the target has no parameter (zip)."""
    t = TARGETS[name]
    if pred is not None and t.param != "p":
        raise ValueError(f"a predicate does not apply to {name!r}")
    if pred is not None and pred.alphabet_size != u.alphabet_size:
        raise ValueError(f"predicate over alphabet {pred.alphabet_size} does "
                         f"not match universe alphabet {u.alphabet_size}")
    if n is not None and t.param != "n":
        raise ValueError(f"a count does not apply to {name!r}")
    if n is not None and n < 0:
        raise ValueError("take count must be non-negative")
    if ys is not None and t.param is not None:
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
    upper map.  A row with an easy condition has one instance per
    predicate, whose candidate ranges over the easy set; for a ``spec`` it
    ranges over the whole carrier, and ``feasible`` flags each candidate in
    the easy set, which the left side then also requires.  x ranges over
    ``order_a``'s carrier, or over (n, xs) for a given count n.
    """
    _known("adjoint pair target", name, GC_TARGETS)
    t = TARGETS[name]
    refuse_inapplicable(name, u, pred, n)
    seqs = materialize_carrier(CarrierKind.SEQ, u)

    def carrier(o: OrderDef) -> list:
        if o.carrier is CarrierKind.SEQ:
            return seqs
        return materialize_carrier(o.carrier, u)

    hard, order_a = hard or t.hard, t.order_a or t.order
    xs = carrier(order_a) if n is None else [(n, x) for x in seqs]
    ys = carrier(t.order)
    if t.easy is None:
        instances = [((), t.upper or (lambda v: hard(*v)), None)]
    else:
        instances = [((("p", p),), partial(hard, p), [t.easy(p, y) for y in ys])
                     for p in ([pred] if pred is not None else enum_preds(u))]
    whole = spec and not t.feasible_only
    parts = []
    for b, upper, flags in instances:
        easy_ys = ys if whole or flags is None else list(compress(ys, flags))
        gc = CanonicalGC(name, t.lower, upper, order_a, t.order,
                         (t.x_names, xs), (t.y_names, easy_ys))
        parts.append((b, gc, flags if whole else None))
    return parts


def build_gcs(name: str, u: Universe,
              pred: Pred | None = None) -> list[tuple[tuple, CanonicalGC]]:
    """The canonical adjoint presentations for a named target, paired with
    the bindings (predicate choice) that select each instance."""
    return [(bindings, gc) for bindings, gc, _ in _parts(name, u, pred)]


def _memoized(memo: dict, key, make: Callable):
    """``make(key)``, kept in ``memo`` when ``key`` is hashable."""
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = make(key)
        return value
    except TypeError:
        return make(key)


def _flags_of(leq: Callable, lows: list) -> Callable:
    """x's flags: ``leq(low, x)`` for every low, one byte each.  A result
    other than a bool (or 0 or 1) is refused with a ``ValueError`` that
    names ``leq``, the result and its arguments."""
    def checked(low, x):
        flag = leq(low, x)
        if not isinstance(flag, int) or flag not in (0, 1):
            raise ValueError(f"relation {getattr(leq, '__name__', leq)} "
                             f"returned {flag!r} for ({low!r}, {x!r}); it "
                             f"must return a bool")
        return flag

    def flags(x) -> bytes:
        try:
            row = bytes(map(leq, lows, repeat(x)))
            if not row.translate(None, b"\0\1"):
                return row
        except (TypeError, ValueError):
            pass
        # Some result is not 0 or 1: evaluate again, one checked call per
        # low, to name it.  An error that leq itself raises propagates.
        return bytes(map(checked, lows, repeat(x)))
    return flags


def _row_of(leq: Callable, lows: list) -> Callable:
    """x's row: ``leq(low, x)`` for every low, as an int with low i's flag
    at bit 8·i (``leq`` must return a bool; see ``_flags_of``)."""
    flags = _flags_of(leq, lows)
    return lambda x: int.from_bytes(flags(x), "little")


def _left_rows(leq: Callable, lows: list) -> Callable:
    """x's left int row over ``lows``: one ``&`` of the memoized rows of
    each factor and component of x when ``leq`` carries ``factors``, else
    one call per low."""
    factors = getattr(leq, "factors", None)
    if factors is None:
        return _row_of(leq, lows)
    parts = [_row_of(f, [low[i] for low in lows])
             for i, f in enumerate(factors)]
    memos = [{} for _ in factors]
    return lambda x: reduce(and_, map(_memoized, memos, x, parts))


def _equivalence(bindings: tuple, gc: CanonicalGC,
                 feasible: list | None = None) -> _Part:
    """The defining equivalence of ``gc`` over the product of its carriers,
    one x against every y per row, with a false left side wherever a
    ``feasible`` flag is false.  Rows are ints, feasible candidate i's flag
    at bit 8·i; a row's first mismatch is the lowest set bit of their XOR.

    The right-hand side depends on x only through ``upper(x)``, so each
    check keeps one right-hand row per distinct image, filled the first
    time a row meets it and dropped with the check.  This assumes that
    ``order_b.leq`` sees its second argument only through ``==``; an
    unhashable image is evaluated afresh on every row.  The left-hand side
    is evaluated on the feasible candidates alone: elsewhere the case
    fails exactly when the right flag is true, and each image stores the
    first such index once, next to its row.

    When ``order_a.leq`` carries ``factors``, the left side likewise keeps
    one row per factor and distinct component of x, and a case's left row
    is one ``&`` of its components' rows.  This assumes that each factor sees
    its side of x only through ``==``; an unhashable component is evaluated
    afresh.  Any other relation runs once per feasible case.
    """
    ys = gc.y_axis[1]

    def start():
        right_of, upper = _flags_of(gc.order_b.leq, ys), gc.upper
        flags = [True] * len(ys) if feasible is None else feasible
        off = list(map(not_, flags))
        left_of = _left_rows(gc.order_a.leq,
                             list(map(gc.lower, compress(ys, flags))))
        at = list(compress(count(), flags))
        stray_at = list(compress(count(), off))
        rows: dict = {}

        def row(image):
            """The image's right flags on the feasible candidates, and the
            first infeasible index whose right flag is true, or None."""
            right = right_of(image)
            k = bytes(compress(right, off)).find(1)
            stray = None if k < 0 else stray_at[k]
            return (int.from_bytes(bytes(compress(right, flags)), "little"),
                    stray)

        def first(x):
            right, stray = _memoized(rows, upper(x), row)
            diff = left_of(x) ^ right
            if not diff:
                return stray
            j = at[((diff & -diff).bit_length() - 1) >> 3]
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
    _known("combinator", name, SPEC_NAMES)
    return _run_parts(f"spec:{name}", [_equivalence(*i) for i in _parts(
        name, u, pred, n, hard_fn, spec=True)], budget)


# ---------------------------------------------------------------------------
# Consequences of the adjunction, each listed as its parts for one target.


def _cancellation_parts(name: str, u: Universe, side: str) -> list:
    if side not in ("left", "right"):
        raise ValueError(f"cancellation side must be left or right: {side!r}")
    if side == "left":
        return [_Part(b, [gc.x_axis], lambda x, gc=gc: not gc.order_a.leq(
            gc.lower(gc.upper(x)), x)) for b, gc in build_gcs(name, u)]
    return [_Part(b, [gc.y_axis], lambda y, gc=gc: not gc.order_b.leq(
        y, gc.upper(gc.lower(y)))) for b, gc in build_gcs(name, u)]


def check_cancellation(name: str, u: Universe, side: str, *,
                       budget: int = DEFAULT_BUDGET) -> CheckReport:
    """One cancellation consequence of the adjunction.

    left:  applying upper then lower lands at or below the input.
    right: every y sits at or below upper(lower(y)).
    """
    return _run_parts(f"cancellation-{side}:{name}",
                      _cancellation_parts(name, u, side), budget)


def _round_trip_moves(f: Callable, g: Callable, v) -> bool:
    """f.g.f differs from f at v."""
    fv = f(v)
    return f(g(fv)) != fv


def _semi_inverse_parts(name: str, u: Universe) -> list:
    return [part for b, gc in build_gcs(name, u) for part in (
        _Part(b + (("equation", "g.f.g = g"),), [gc.x_axis],
              partial(_round_trip_moves, gc.upper, gc.lower)),
        _Part(b + (("equation", "f.g.f = f"),), [gc.y_axis],
              partial(_round_trip_moves, gc.lower, gc.upper)))]


def check_semi_inverse(name: str, u: Universe, *,
                       budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Round-trip identities: upper.lower.upper = upper over the x carrier,
    then lower.upper.lower = lower over the y carrier."""
    return _run_parts(f"semi-inverse:{name}",
                      _semi_inverse_parts(name, u), budget)


def _injective_parts(name: str, u: Universe) -> list:
    """Per instance, a scan for a repeated lower image, then the inverse."""
    parts = []
    for b, gc in build_gcs(name, u):
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
                            budget: int = DEFAULT_BUDGET) -> CheckReport:
    """When the lower map is injective on its carrier, upper must invert it
    exactly.  A collision makes the law inapplicable; the report then carries
    the colliding pair instead of failing."""
    return _run_parts(f"injective-adjoint:{name}",
                      _injective_parts(name, u), budget)


# ---------------------------------------------------------------------------
# Equational consequences on the combinators themselves, read from TARGETS.


def _idempotent_parts(name: str, u: Universe) -> list:
    _known("combinator", name, SPEC_NAMES)
    t = TARGETS[name]
    if t.param != "p":
        raise ValueError(f"idempotency does not apply to {name!r}")
    fn = t.hard
    seqs = materialize_carrier(CarrierKind.SEQ, u)

    def violates(p, xs):
        once = fn(p, xs)
        return fn(p, once) != once
    return [_Part((), [(("p",), list(enum_preds(u))), (("xs",), seqs)],
                  violates)]


def check_idempotent(name: str, u: Universe, *,
                     budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Applying the combinator twice with the same predicate changes
    nothing after the first application."""
    return _run_parts(f"idempotent:{name}",
                      _idempotent_parts(name, u), budget)


def _fusion_parts(u: Universe) -> list:
    def violates(name, p, q, xs):
        fn = TARGETS[name].hard
        return fn(p, fn(q, xs)) != fn(pred_and(p, q), xs)
    preds = list(enum_preds(u))
    seqs = materialize_carrier(CarrierKind.SEQ, u)
    return [_Part((), [(("combinator",), ["filter", "takeWhile"]),
                       (("p",), preds), (("q",), preds), (("xs",), seqs)],
                  violates)]


def _split_append_parts(u: Universe) -> list:
    take, drop = TARGETS["takeWhile"].hard, TARGETS["dropWhile"].hard
    seqs = materialize_carrier(CarrierKind.SEQ, u)

    def violates(p, xs):
        return take(p, xs) + drop(p, xs) != xs
    return [_Part((), [(("p",), list(enum_preds(u))), (("xs",), seqs)],
                  violates)]


def _indirect_equality_parts(order_name: str, u: Universe) -> list:
    _known("ordering", order_name, ORDERS)
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
    _known("splitter/joiner pair", name, PAIR_NAMES)
    join, split = TARGETS[name].lower, TARGETS[name].upper
    law = f"non-gc:{name}"
    _within_budget(law, count_seq_lists(u), budget)
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
    _known("ordering", order_name, ORDERS)
    rep = check_order_laws(ORDERS[order_name], u, budget=budget)
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
        s for s in SPEC_NAMES if TARGETS[s].param == "p"], _idempotent_parts),
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
    _known("law", law, _LAWS)
    return _run_parts(law, _LAWS[law](u), budget)
