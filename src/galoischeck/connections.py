"""Exhaustive checking of split specifications, adjoint-pair laws, and the
consequences that follow from them.

Every check reduces to scanning a cartesian product of finite axes for the
first violation of a boolean condition.  The shared engine scans a row (one
assignment of the outer axes against the whole last axis) at a time through
C-level ``map`` iterators, and keeps witness selection deterministic: the
reported counterexample is always the violation with the smallest flat
index in the fixed axis order, and on failure ``cases_checked`` is that
violation's 1-based position.

A spec or gc check scans ``lower(y) <= x  <=>  y <= upper(x)`` one x a row,
each side one int with one bit per candidate, read from one table of
masks, the easy condition one mask on the left side and one right-row
function per check (see ``_equivalences``).

Each target is described once, by its ``TARGETS`` row (see ``Target``),
and each kind of parameter by one ``Param`` record.  The spec, gc, oracle
and law checks and the CLI all read them.  Each law lists its parts, which
``_run_parts`` budgets together and then runs in order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, count, product, repeat
from math import prod
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
    _ints,
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
    _decided,
    check_order_laws,
)
# Unused here; perfbench/tracing.py wraps these module globals by name.
from .orders import is_prefix, is_sublist, is_suffix  # noqa: F401

Axis = tuple[tuple[str, ...], list]


def _identity(y):
    return y


class Param(NamedTuple):
    """A kind of parameter, read by the refusals, the oracle and the CLI."""
    key: str  # its one word: library keyword, oracle input and CLI flag
    noun: str  # what a refusal calls it
    check: Callable | None = None  # check(value, u) refuses a misfit
    show: Callable = str  # a value as a row's ``says`` renders it


def _check_pred(p: Pred, u: Universe) -> None:
    if not isinstance(p, Pred):
        raise ValueError(f"pred={p!r} is not a Pred")
    if p.alphabet_size != u.alphabet_size:
        raise ValueError(f"predicate over alphabet {p.alphabet_size} does "
                         f"not match universe alphabet {u.alphabet_size}")


def _check_count(n: int, u: Universe) -> None:
    _ints(n=n)
    if n < 0:
        raise ValueError("take count must be non-negative")


PRED = Param("pred", "predicate", _check_pred, Pred.bits)
COUNT = Param("n", "count", _check_count)
SECOND_SEQ = Param("ys", "second sequence")


@dataclass(frozen=True)
class Target:
    """One target: y solves input x when ``easy(param, y)`` holds (None:
    always) and ``lower(y) <= x`` under ``order_a`` (None: ``order``), and
    ``upper(x)`` is the greatest solution under ``order``.  A combinator
    names its ``param`` kind and its ``hard`` function, the upper map once
    given the parameter or the unpacked x; ``says`` is its condition in the
    oracle's errors, and ``feasible_only`` ranges its spec's candidate over
    the easy set alone (one that is not downward closed).  A splitter/joiner
    pair has neither: ``lower`` joins, ``upper`` splits.  ``x_names`` and
    ``y_names`` name the witnesses."""

    name: str
    param: Param | None
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
    Target("dropWhile", PRED, SUFFIX, drop_while, ("l",), ("z",), head_fails,
           "empty or head falsifies {}", feasible_only=True),
    Target("filter", PRED, SUBLIST, filter_p, ("xs",), ("ys",), all_satisfy,
           "all elements satisfy {}"),
    Target("lines-unlines", None, SEQ_LIST_PREFIX, None, ("xs",), ("ws",),
           lower=unlines_join, upper=lines_split, order_a=PREFIX),
    Target("take", COUNT, PREFIX, take_n, ("n", "xs"), ("ys",),
           says="length at most {}", lower=lambda ys: (len(ys), ys),
           order_a=PRODUCT),
    Target("takeWhile", PRED, PREFIX, take_while, ("xs",), ("ys",),
           all_satisfy, "all elements satisfy {}"),
    Target("words-unwords", None, SEQ_LIST_PREFIX, None, ("xs",), ("ws",),
           lower=unwords_join, upper=words_split, order_a=PREFIX),
    Target("zip", SECOND_SEQ, PAIR_PREFIX, zip_pair, ("xs", "ys"), ("zs",),
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
    return tuple(pair for (names, _), val in zip(axes, values)
                 for pair in zip(names, val if len(names) > 1 else (val,)))


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
    """Refuse a value of another kind than ``name``'s ``param``, or one its
    kind's ``check`` refuses: kind by kind, applicability first."""
    for kind, value in ((PRED, pred), (COUNT, n), (SECOND_SEQ, ys)):
        if value is not None and kind is not TARGETS[name].param:
            raise ValueError(f"a {kind.noun} does not apply to {name!r}")
        if value is not None and kind.check:
            kind.check(value, u)


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
           spec: bool = False) -> list[tuple[tuple, CanonicalGC, int]]:
    """The instances a gc check of ``name`` runs, in order, as (bindings,
    instance, mask), with ``hard`` (by default the combinator) as the
    upper map.  A row with an easy condition has one instance per
    predicate, whose candidate ranges over the easy set; for a ``spec`` it
    ranges over the whole carrier, one list for every predicate, and
    ``mask`` sets bit i where candidate i meets the easy condition (by
    truth value), which the left side then also requires; elsewhere it is
    -1.  x ranges over ``order_a``'s carrier, or over (n, xs) for a given
    count n.
    """
    _known("adjoint pair target", name, GC_TARGETS)
    t = TARGETS[name]
    refuse_inapplicable(name, u, pred, n)
    hard, order_a = hard or t.hard, t.order_a or t.order
    x_kind = order_a.carrier if n is None else CarrierKind.SEQ
    carriers = {kind: materialize_carrier(kind, u) for kind in dict.fromkeys(
        (x_kind, t.order.carrier))}
    xs = carriers[x_kind] if n is None else [(n, x) for x in carriers[x_kind]]
    ys = carriers[t.order.carrier]
    gc = partial(CanonicalGC, name, t.lower, order_a=order_a,
                 order_b=t.order, x_axis=(t.x_names, xs))
    if t.easy is None:
        return [((), gc(upper=t.upper or (lambda v: hard(*v)),
                        y_axis=(t.y_names, ys)), -1)]
    whole = spec and not t.feasible_only
    parts = []
    for p in [pred] if pred is not None else enum_preds(u):
        flags = [t.easy(p, y) for y in ys]
        y_axis = (t.y_names, ys if whole else list(compress(ys, flags)))
        parts.append(((("p", p),), gc(upper=partial(hard, p), y_axis=y_axis),
                      sum(1 << i for i, f in enumerate(flags) if f)
                      if whole else -1))
    return parts


def build_gcs(name: str, u: Universe,
              pred: Pred | None = None) -> list[tuple[tuple, CanonicalGC]]:
    """The canonical adjoint presentations for a named target, paired with
    the bindings (predicate choice) that select each instance."""
    return [(bindings, gc) for bindings, gc, _ in _parts(name, u, pred)]


def _row_of(leq: Callable, lows: list) -> Callable:
    """x's row: ``leq(low, x)`` for every low, as an int with low i's flag
    at bit i, kept by point for the check; an unhashable point is evaluated
    afresh.  One table maps each distinct hashable low, in first-occurrence
    order, to the mask of its positions (if any low is unhashable, every
    position is its own entry).  ``leq`` runs once per entry, must see a low
    only through ``==``, and a row is the sum (the OR: masks are disjoint)
    of the masks whose flags are true; a non-bool flag is refused.  With
    ``factors``, the row is the ``&`` of the factors' rows, each kept by
    component, never by x.  With its own below-generator, ``below`` (as
    ``is_suffix``), and every low a hashable tuple, a hashable tuple x's
    row is the sum of the table's masks over what ``leq.below`` yields,
    with no ``leq`` call.  That needs distinct yields, exactly the tuples
    below x, and a dict's lookup, by hash and ``==``, to agree with ``leq``,
    as it does for ``is_suffix`` on every tuple whose elements each equal
    themselves (a NaN does not).  Any other case is evaluated per entry."""
    factors = getattr(leq, "factors", None)
    if factors is not None:
        first, second = (_row_of(f, [low[i] for low in lows])
                         for i, f in enumerate(factors))
        return lambda x: first(x[0]) & second(x[1])
    table: dict | None = {}
    try:
        for i, low in enumerate(lows):
            table[low] = table.get(low, 0) | 1 << i
        keys, masks = list(table), list(table.values())
    except TypeError:  # an unhashable low: every position is its own entry
        table, keys, masks = None, lows, [1 << i for i in range(len(lows))]
    below = getattr(leq, "below", None)
    if below is not None and (table is None or any(
            low.__class__ is not tuple for low in lows)):
        below = None

    def evaluate(x) -> int:
        try:
            flags = bytes(map(leq, keys, repeat(x)))
        except (TypeError, ValueError):
            flags = None
        if flags is None or flags.translate(None, b"\0\1"):
            # Some result is not 0 or 1: evaluate again, checked, to name
            # it.  An error that leq itself raises propagates.
            flags = bytes(_decided(leq(low, x), leq, low, x) for low in keys)
        return sum(compress(masks, flags))

    rows: dict = {}

    def kept(x) -> int:
        # a miss is evaluated after its handler, so that an error leq
        # raises carries no KeyError or TypeError as its context
        try:
            return rows[x]
        except KeyError:
            keep = True
        except TypeError:
            keep = False
        if keep and below is not None and x.__class__ is tuple:
            # the generator reads no universe
            value = sum(map(table.get, below(x, None), repeat(0)))
        else:
            value = evaluate(x)
        if keep:
            rows[x] = value
        return value
    return kept


def _lowest(row: int) -> int:
    """The index of a nonzero row's first true flag: its lowest set bit."""
    return (row & -row).bit_length() - 1


def _equivalences(instances: list) -> list[_Part]:
    """The defining equivalence of each (bindings, gc, mask) instance over
    the product of its carriers, one x against every y per row, the left
    side also requiring the easy condition: ``mask`` has bit i set where
    candidate i meets it (-1: every candidate).  Each side of a row is an
    int, candidate i's flag at bit i, and a row's first mismatch is the
    lowest set bit of ``right ^ (left & mask)``.

    Every row comes from a row function (``_row_of``), which keeps each
    point's row for the check.  The right-hand side depends on x only
    through ``upper(x)``.  Instances that scan the same candidate list under
    the same ``order_b.leq`` (every predicate of a takeWhile or filter spec)
    share one right-row function, so each (candidate, image) pair is
    evaluated once per check.  This assumes that ``order_b.leq`` sees its
    second argument only through ``==``.  x's left row is read last, on the
    candidates' lower images, each distinct image evaluated once (zip's and
    take's components and the word lists' joins repeat), which assumes the
    same of ``order_a.leq``'s first argument.  When ``lower`` is the
    identity and both sides share one relation (as for takeWhile, filter
    and dropWhile), it is the right row of the point x itself, read from
    the same row function, so each (candidate, point) pair is evaluated
    once per check, whichever side asks first.  Where the relation carries
    its below-generator (dropWhile's ``is_suffix``), a row costs what lies
    below its point and no relation call: x's suffixes, looked up in the
    candidates' mask table.
    """
    shared = None  # (relation, candidates, their right-row function)

    def part(bindings, gc, mask):
        ys = gc.y_axis[1]

        def start():
            nonlocal shared
            leq = gc.order_b.leq
            if shared is None or shared[0] is not leq or shared[1] is not ys:
                shared = leq, ys, _row_of(leq, ys)
            right_of = left_of = shared[2]
            if gc.lower is not _identity or gc.order_a.leq is not leq:
                left_of = _row_of(gc.order_a.leq, list(map(gc.lower, ys)))
            upper = gc.upper

            def first(x):
                diff = right_of(upper(x)) ^ (left_of(x) & mask)
                return _lowest(diff) if diff else None
            return first
        return _Part(bindings, [gc.x_axis, gc.y_axis], _Rows(start))
    return [part(*i) for i in instances]


# ``workers`` is ignored; perfbench/workloads.py still passes it.
def check_gc_instance(gc: CanonicalGC, *, budget: int = DEFAULT_BUDGET,
                      workers: int = 1) -> CheckReport:
    """Check the defining equivalence of one adjunction candidate over the
    full product of its two carriers."""
    return _run_parts(f"gc:{gc.name}", _equivalences([((), gc, -1)]), budget)


def _gc_parts(name: str, u: Universe, pred: Pred | None = None) -> list:
    return _equivalences(_parts(name, u, pred))


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
    return _run_parts(f"spec:{name}", _equivalences(_parts(
        name, u, pred, n, hard_fn, spec=True)), budget)


# ---------------------------------------------------------------------------
# Consequences of the adjunction, each listed as its parts for one target.


def _cancellation_parts(name: str, u: Universe, side: str) -> list:
    if side not in ("left", "right"):
        raise ValueError(f"cancellation side must be left or right: {side!r}")

    def fails(leq, a, b) -> bool:
        return not _decided(leq(a, b), leq, a, b)
    if side == "left":
        return [_Part(b, [gc.x_axis], lambda x, gc=gc: fails(gc.order_a.leq,
            gc.lower(gc.upper(x)), x)) for b, gc in build_gcs(name, u)]
    return [_Part(b, [gc.y_axis], lambda y, gc=gc: fails(gc.order_b.leq, y,
        gc.upper(gc.lower(y)))) for b, gc in build_gcs(name, u)]


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
            [(_, y2)] = rep.counterexample
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
    if TARGETS[name].param is not PRED:
        raise ValueError(f"idempotency does not apply to {name!r}")
    fn = TARGETS[name].hard
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
    row = _row_of(o.leq, elems)

    def violates(xs, ys):
        return xs != ys and row(xs) == row(ys)
    return [_Part((), [(("xs",), elems), (("ys",), elems)], violates,
                  len(elems))]


def check_indirect_equality(order_name: str, u: Universe, *,
                            budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Two elements with identical down-sets must be equal.  Each down-set
    is one row read from ``_row_of``: |C|² evaluations, a non-bool refused.
    The budget, pinned by tests, still projects |C| evaluations a case."""
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

    def witness(rep):
        [(_, ws)] = rep.counterexample
        resplit = split(join(ws))
        return replace(rep, counterexample=(
            ("ws", ws), ("joined", join(ws)), ("resplit", resplit),
            ("rejoined", join(resplit))))
    rep = _run_parts(law, [_Part((), [(("ws",), lists)], partial(
        _round_trip_moves, join, split), hit=witness)], budget)
    if not rep.ok:
        return rep
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
        s for s in SPEC_NAMES if TARGETS[s].param is PRED], _idempotent_parts),
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
