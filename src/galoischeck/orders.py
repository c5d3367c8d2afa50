"""Sequence orderings defined by their inductive clauses, plus an exhaustive
partial-order law checker.

The relations are written by unfolding the defining clauses step by step; the
closed-form characterizations (slice equality, index selection) live in the
test suite as independent cross-checks.  ``is_prefix``, ``is_sublist`` and
``is_suffix`` decide one clause before any other: a longer sequence is never
below a shorter one, read off the two lengths.  Only then do they peel
heads, so a pair whose first sequence is the longer is refused without a
loop.

The suffix order's down-set is written once, as ``_suffixes``: x and each
of its tails, one head peeled a step.  ``SUFFIX.below`` holds it, the law
checker checks it against ``is_suffix``, and ``is_suffix.below`` is the
same function, so a spec or gc row reads x's row off x's suffixes instead
of calling the relation once per low (see ``connections._row_of``), which
is what makes dropWhile's rows cost what x has below it.  ``is_prefix`` and
``is_sublist`` carry no ``below`` yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Callable, Iterable

from .core import (
    DEFAULT_BUDGET,
    CarrierKind,
    CheckReport,
    Seq,
    Universe,
    UniverseTooLargeError,
    materialize_carrier,
)


def is_prefix(ys: Seq, xs: Seq) -> bool:
    """ys starts xs.

    A longer sequence never starts a shorter one.  Otherwise the empty
    sequence starts anything, and a nonempty one needs the heads to agree
    and the tails to stay related.  Each loop step peels one head off both
    sides.
    """
    n = len(ys)
    if n > len(xs):
        return False
    i = 0
    while i < n:
        if ys[i] != xs[i]:
            return False
        i += 1
    return True


def is_sublist(ys: Seq, xs: Seq) -> bool:
    """ys is an order-preserving selection from xs.

    A longer sequence is never a selection from a shorter one.  Otherwise
    each step peels the head off xs: it matches the head of what is left of
    ys when the two are equal, and is skipped otherwise.  Matching greedily
    is complete, because if ys is a selection from xs at all, its head can
    take the earliest equal element of xs, which leaves the longest tail of
    xs for the rest.
    """
    n = len(ys)
    if n > len(xs):
        return False
    i = 0
    for x in xs:
        if i < n and ys[i] == x:
            i += 1
    return i == n


def is_suffix(s: Seq, l: Seq) -> bool:
    """s ends l.

    A longer sequence never ends a shorter one.  Otherwise s ends l when s
    is l itself or ends l's tail, and only the tail as long as s can be s:
    the one that starts ``off`` elements into l, for the ``off`` elements l
    has beyond s.  Each loop step peels one head off s and off that tail,
    read by index, so a list and a tuple compare element by element.
    """
    n = len(s)
    off = len(l) - n
    if off < 0:
        return False
    i = 0
    while i < n:
        if s[i] != l[off + i]:
            return False
        i += 1
    return True


def _decided(flag, leq: Callable, a, b) -> bool:
    """``flag``, the result of ``leq(a, b)``, if it is a bool (or 0 or 1);
    else a ``ValueError`` that names ``leq``, the result and its arguments."""
    if isinstance(flag, int) and flag in (0, 1):
        return flag
    raise ValueError(f"relation {getattr(leq, '__name__', leq)} returned "
                     f"{flag!r} for ({a!r}, {b!r}); it must return a bool")


def componentwise(first: Callable, second: Callable, *,
                  name: str) -> Callable:
    """The product of two orders on pairs: a pair is below another exactly
    when each component is below its counterpart under the factor at its
    position.  The relation keeps its factors in ``.factors``, so a scan can
    evaluate each component on its own."""
    def leq(a: tuple, b: tuple) -> bool:
        return first(a[0], b[0]) and second(a[1], b[1])
    leq.__name__ = leq.__qualname__ = name
    leq.factors = (first, second)
    return leq


# Componentwise order on (count, sequence): numeric on the left, prefix on
# the right.
product_order = componentwise(le, is_prefix, name="product_order")
# Componentwise prefix on pairs of sequences.
seq_pair_prefix = componentwise(is_prefix, is_prefix, name="seq_pair_prefix")


# Pair sequences and word lists compare their elements by equality, so their
# prefix orders are is_prefix itself; the names stay as public aliases.
pair_prefix = is_prefix
seq_list_prefix = is_prefix


def _counts(n: int, u: Universe):
    return range(n + 1)


def _prefixes(y, u: Universe):
    return [y[:i] for i in range(len(y) + 1)]


def _suffixes(l, u: Universe):
    """l and each of its tails, one head peeled a step.  As
    ``is_suffix.below``, it gives suffix rows the down-set the laws check."""
    yield l
    while l:
        l = l[1:]
        yield l


is_suffix.below = _suffixes


def _subsequences(y, u: Universe):
    subs = {()}
    for e in y:
        subs |= {s + (e,) for s in subs}
    return subs


def _pairs_below(first: Callable, second: Callable) -> Callable:
    """A componentwise order's below-generator, from its factors'."""
    def below(v, u: Universe):
        a, b = v
        return [(x, y) for x in first(a, u) for y in second(b, u)]
    return below


@dataclass(frozen=True)
class OrderDef:
    """A named decidable relation with its carrier and a generator of the
    elements below a given one, which every order needs.

    ``below`` must yield precisely { x : leq(x, y) }.  The law checker
    validates every yielded element against leq and the test suite checks
    generator completeness against full scans at small bounds, so the big
    exhaustive runs can skip the quadratic all-pairs pass.
    """

    name: str
    leq: Callable[[object, object], bool]
    carrier: CarrierKind
    below: Callable[[object, Universe], Iterable[object]]


PREFIX = OrderDef("prefix", is_prefix, CarrierKind.SEQ, _prefixes)
SUBLIST = OrderDef("sublist", is_sublist, CarrierKind.SEQ, _subsequences)
SUFFIX = OrderDef("suffix", is_suffix, CarrierKind.SEQ, _suffixes)
PRODUCT = OrderDef("product", product_order, CarrierKind.NAT_SEQ,
                   _pairs_below(_counts, _prefixes))
PAIR_PREFIX = OrderDef("pair-prefix", is_prefix, CarrierKind.PAIR_SEQ,
                       _prefixes)

# Used by connection checks, not part of the named registry.
SEQ_PAIR_PREFIX = OrderDef("prefix*prefix", seq_pair_prefix,
                           CarrierKind.SEQ_PAIR,
                           _pairs_below(_prefixes, _prefixes))
SEQ_LIST_PREFIX = OrderDef("list-prefix", is_prefix, CarrierKind.SEQ_LIST,
                           _prefixes)

ORDERS: dict[str, OrderDef] = {
    o.name: o for o in (PREFIX, SUBLIST, SUFFIX, PRODUCT, PAIR_PREFIX)
}


@dataclass(frozen=True)
class OrderLawReport:
    reflexive: CheckReport
    transitive: CheckReport
    antisymmetric: CheckReport
    least_element: object | None


def check_order_laws(o: OrderDef, u: Universe, *,
                     budget: int = DEFAULT_BUDGET) -> OrderLawReport:
    """Exhaustively verify reflexivity, transitivity and antisymmetry of o
    over its carrier, and report the unique least element if one exists.

    The scans visit only the related pairs that the order's below-generator
    yields, which are kept as one ascending ``above`` row per element: ``()``
    while nothing is known above the element, its own index alone when x <= x
    is all that is known, and a list otherwise.  Most elements of a large
    carrier are maximal (59,049 of pair-prefix's 66,430 at (3, 5)), and a
    list for each of those rows held about a third of the check's peak
    memory.  The row indices are the index dict's own ints, so no second
    copy of them is made.

    Transitivity reuses the rows: a chain x <= y <= z needs ``leq(x, z)``
    only when z is not already known to be above x, and an element with
    nothing above it but itself needs no set at all.  When reflexivity held
    for every element, a yield of y itself (an element equal to y) is not
    evaluated again: ``leq(y, y)`` is already known to hold.  That assumes
    ``leq`` sees its arguments only through ``==``, as every order here
    does.  Every evaluation that is made goes through one counted relation,
    so the budget counts exactly the evaluations made and none that is
    skipped, and a non-bool result is refused.  Failures carry the first
    witness in enumeration order of the quantifiers.
    """
    elems = materialize_carrier(o.carrier, u)
    n = len(elems)
    leq = o.leq
    context = f"order-laws:{o.name}"
    evals = 0
    # above[i] holds, ascending, every j with leq(elems[i], elems[j]) known
    # to hold: () for none, i itself for x <= x alone, else a list.  Rows
    # are filled in increasing j, so a repeated yield for the current y is
    # the one whose row already ends in j.
    above: list[tuple[()] | int | list[int]] = [()] * n

    def holds(a, b) -> bool:
        nonlocal evals
        evals += 1
        if evals > budget:
            raise UniverseTooLargeError(evals, budget, context)
        flag = leq(a, b)
        return flag if flag is True or flag is False else _decided(
            flag, leq, a, b)

    def report(law: str, cases: int, cx: tuple | None) -> CheckReport:
        return CheckReport(f"{law}:{o.name}", "fail" if cx else "pass",
                           cases, cx)

    def reflexive():
        for cases, x in enumerate(elems, 1):
            if not holds(x, x):
                return cases, (("x", x),)
        return n, None

    def antisymmetric():
        cases = 0
        for i, x in enumerate(elems):
            row = above[i]
            if row.__class__ is int:
                # x <= x alone: nothing to evaluate
                cases += 1
                continue
            for j in row:
                cases += 1
                if i != j and holds(elems[j], x):
                    return cases, (("x", x), ("y", elems[j]))
        return cases, None

    def transitive():
        cases = 0
        for i, x in enumerate(elems):
            mine = above[i]
            if mine.__class__ is int:
                # the one chain x <= x <= x is proven; no set needed
                cases += 1
                continue
            proven = set(mine)
            for j in mine:
                row = above[j]
                if row.__class__ is int:
                    # j's row is j alone, and j is in proven
                    cases += 1
                    continue
                if proven.issuperset(row):
                    cases += len(row)
                    continue
                for k in row:
                    cases += 1
                    if k in proven:
                        continue
                    if not holds(x, elems[k]):
                        return cases, (("x", x), ("y", elems[j]),
                                       ("z", elems[k]))
                    proven.add(k)
        return cases, None

    refl = report("reflexive", *reflexive())
    reflexive_holds = refl.ok
    index = {v: i for i, v in enumerate(elems)}
    for y, j in index.items():
        for x in o.below(y, u):
            i = index.get(x)
            if i is None:
                raise ValueError(f"below-generator for {o.name} yielded a "
                                 f"value outside the carrier: {x!r}")
            # j goes into x's row before the check: a failed check raises,
            # and the rows die with this call
            row = above[i]
            if row.__class__ is list:
                if row[-1] == j:
                    continue
                row.append(j)
            elif row == j:
                continue
            else:
                above[i] = [row, j] if row.__class__ is int else (
                    j if i == j else [j])
            # i == j means x == y, and leq(y, y) held in the reflexivity scan
            if (i != j or not reflexive_holds) and not holds(x, y):
                raise ValueError(f"below-generator for {o.name} yielded "
                                 f"{x!r} which is not below {y!r}")
    del index  # not needed past here; freeing it lowers the peak
    anti = report("antisymmetric", *antisymmetric())
    trans = report("transitive", *transitive())

    bottoms = [i for i, row in enumerate(above)
               if (1 if row.__class__ is int else len(row)) == n]
    least = elems[bottoms[0]] if len(bottoms) == 1 else None
    return OrderLawReport(refl, trans, anti, least)
