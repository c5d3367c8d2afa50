"""Sequence orderings defined by their inductive clauses, plus an exhaustive
partial-order law checker.

The relations are written by unfolding the defining clauses step by step; the
closed-form characterizations (slice equality, index selection) live in the
test suite as independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Empty is below everything; otherwise the heads must agree and the tails
    must stay related.  Each loop step peels one head off both sides.
    """
    n, m = len(ys), len(xs)
    i = 0
    while i < n:
        if i >= m or ys[i] != xs[i]:
            return False
        i += 1
    return True


def is_sublist(ys: Seq, xs: Seq) -> bool:
    """ys is an order-preserving selection from xs.

    Each step peels the head off xs: it matches the head of what is left of
    ys when the two are equal, and is skipped otherwise.  Matching greedily
    is complete, because if ys is a selection from xs at all, its head can
    take the earliest equal element of xs, which leaves the longest tail of
    xs for the rest.
    """
    n, i = len(ys), 0
    for x in xs:
        if i < n and ys[i] == x:
            i += 1
    return i == n


def is_suffix(s: Seq, l: Seq) -> bool:
    """s ends l: either s is l itself, or s is a suffix of l's tail."""
    while True:
        if s == l:
            return True
        if not l:
            return False
        l = l[1:]


def product_order(a: tuple[int, Seq], b: tuple[int, Seq]) -> bool:
    """Componentwise order on (count, sequence): numeric on the left,
    prefix on the right."""
    m, ys = a
    n, xs = b
    return m <= n and is_prefix(ys, xs)


def seq_pair_prefix(a: tuple[Seq, Seq], b: tuple[Seq, Seq]) -> bool:
    """Componentwise prefix on pairs of sequences."""
    return is_prefix(a[0], b[0]) and is_prefix(a[1], b[1])


# Pair sequences and word lists compare their elements by equality, so their
# prefix orders are is_prefix itself; the names stay as public aliases.
pair_prefix = is_prefix
seq_list_prefix = is_prefix


def _prefixes(y, u: Universe):
    return [y[:i] for i in range(len(y) + 1)]


def _suffixes(l, u: Universe):
    return [l[i:] for i in range(len(l) + 1)]


def _subsequences(y, u: Universe):
    subs = {()}
    for e in y:
        subs |= {s + (e,) for s in subs}
    return sorted(subs, key=lambda t: (len(t), t))


def _product_below(v, u: Universe):
    n, xs = v
    return [(m, p) for m in range(n + 1) for p in _prefixes(xs, u)]


def _seq_pair_below(v, u: Universe):
    a, b = v
    return [(x, y) for x in _prefixes(a, u) for y in _prefixes(b, u)]


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
                   _product_below)
PAIR_PREFIX = OrderDef("pair-prefix", is_prefix, CarrierKind.PAIR_SEQ,
                       _prefixes)

# Used by connection checks, not part of the named registry.
SEQ_PAIR_PREFIX = OrderDef("prefix*prefix", seq_pair_prefix,
                           CarrierKind.SEQ_PAIR, _seq_pair_below)
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

    @property
    def ok(self) -> bool:
        return (self.reflexive.ok and self.transitive.ok
                and self.antisymmetric.ok)


def check_order_laws(o: OrderDef, u: Universe, *,
                     budget: int = DEFAULT_BUDGET) -> OrderLawReport:
    """Exhaustively verify reflexivity, transitivity and antisymmetry of o
    over its carrier, and report the unique least element if one exists.

    The scans visit only the related pairs that the order's below-generator
    yields, which are kept as one ascending ``above`` index list per
    element.  Transitivity reuses them: a chain x <= y <= z needs
    ``leq(x, z)`` only when z is not already known to be above x.  The
    budget counts the evaluations actually made.  Failures carry the first
    witness in enumeration order of the quantifiers.
    """
    elems = materialize_carrier(o.carrier, u)
    n = len(elems)
    leq = o.leq
    context = f"order-laws:{o.name}"

    refl_cases = 0
    refl_cx = None
    for x in elems:
        refl_cases += 1
        if refl_cases > budget:
            raise UniverseTooLargeError(refl_cases, budget, context)
        if not leq(x, x):
            refl_cx = (("x", x),)
            break
    reflexive = CheckReport(f"reflexive:{o.name}",
                            "fail" if refl_cx else "pass",
                            refl_cases, refl_cx)
    evals = refl_cases

    # above[i] lists, ascending, every j with leq(elems[i], elems[j]) known
    # to hold.  Rows are filled in increasing j, so a repeated yield for the
    # current y is the one whose list already ends in j.
    above: list[list[int]] = [[] for _ in range(n)]
    index = {v: i for i, v in enumerate(elems)}
    for j, y in enumerate(elems):
        for x in o.below(y, u):
            i = index.get(x)
            if i is None:
                raise ValueError(f"below-generator for {o.name} yielded a "
                                 f"value outside the carrier: {x!r}")
            row = above[i]
            if row and row[-1] == j:
                continue
            evals += 1
            if evals > budget:
                raise UniverseTooLargeError(evals, budget, context)
            if not leq(x, y):
                raise ValueError(f"below-generator for {o.name} yielded "
                                 f"{x!r} which is not below {y!r}")
            row.append(j)
    del index  # not needed past here; freeing it lowers the peak

    anti_cases = 0
    anti_cx = None
    for i, x in enumerate(elems):
        for j in above[i]:
            anti_cases += 1
            if i == j:
                continue
            evals += 1
            if evals > budget:
                raise UniverseTooLargeError(evals, budget, context)
            if leq(elems[j], x):
                anti_cx = (("x", x), ("y", elems[j]))
                break
        if anti_cx:
            break
    antisymmetric = CheckReport(f"antisymmetric:{o.name}",
                                "fail" if anti_cx else "pass",
                                anti_cases, anti_cx)

    trans_cases = 0
    trans_cx = None
    for i, x in enumerate(elems):
        proven = set(above[i])
        for j in above[i]:
            row = above[j]
            if proven.issuperset(row):
                trans_cases += len(row)
                continue
            for k in row:
                trans_cases += 1
                if k in proven:
                    continue
                evals += 1
                if evals > budget:
                    raise UniverseTooLargeError(evals, budget, context)
                if not leq(x, elems[k]):
                    trans_cx = (("x", x), ("y", elems[j]), ("z", elems[k]))
                    break
                proven.add(k)
            if trans_cx:
                break
        if trans_cx:
            break
    transitive = CheckReport(f"transitive:{o.name}",
                             "fail" if trans_cx else "pass",
                             trans_cases, trans_cx)

    bottoms = [i for i in range(n) if len(above[i]) == n]
    least = elems[bottoms[0]] if len(bottoms) == 1 else None

    return OrderLawReport(reflexive, transitive, antisymmetric, least)
