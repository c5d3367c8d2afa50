"""The law battery against a plain nested-loop reference, on the real
registry and on wrong rows swapped into it.

The reference walks each law's quantifiers in the documented order, with
the enumeration and relations of ``loop_reference``: targets in sorted
order, then each target's instances (the predicate outermost), then the
carrier the law quantifies over.  It returns the verdict, the number of
cases up to and including the first violation (all of them on a pass) and
that violation's bindings, which ``check_law`` must reproduce exactly.

Mutants are injected only by swapping a ``TARGETS`` or ``ORDERS`` row for a
``dataclasses.replace`` of it, so every law sees them through the registry
it reads.  Each mutant names the laws it breaks; every
one of those laws must reject it, and every law must agree with the
reference on it, whether it rejects it or not.
"""

import dataclasses
import itertools

import pytest

from galoischeck import Pred, Universe, check_law, drop_while, filter_p
from galoischeck import connections, orders
from loop_reference import (
    REAL,
    first_violation,
    flat,
    flipped_take_while,
    instances,
    preds,
    prefix,
    seqs,
    sublist,
)

UNIVERSES = ((2, 3), (3, 2))
LAWS = ("cancellation-left", "cancellation-right", "fusion", "idempotent",
        "indirect-equality", "injective-adjoint", "semi-inverse",
        "split-append")
CONNECTIONS = ("dropWhile", "filter", "take", "takeWhile", "zip")


@dataclasses.dataclass
class World:
    """What a law computes with: the combinators, take's lower map (None:
    the real one) and the named orders of the indirect-equality law."""

    hard: dict
    take_lower: object = None
    orders: dict = dataclasses.field(
        default_factory=lambda: {"prefix": prefix, "sublist": sublist})

    def instances(self, name, k, L):
        return instances(name, k, L, self.hard[name],
                         take_lower=self.take_lower)


# --- one generator of (verdict, bindings) per case, per law ------------------


def cancellation_left(name, k, L, w):
    for b, xn, X, _, _, lower, upper, leq_a, _ in w.instances(name, k, L):
        for x in X:
            yield not leq_a(lower(upper(x)), x), b + flat(xn, x)


def cancellation_right(name, k, L, w):
    for b, _, _, yn, Y, lower, upper, _, leq_b in w.instances(name, k, L):
        for y in Y:
            yield not leq_b(y, upper(lower(y))), b + ((yn, y),)


def semi_inverse(name, k, L, w):
    for b, xn, X, yn, Y, lower, upper, _, _ in w.instances(name, k, L):
        for x in X:
            yield (upper(lower(upper(x))) != upper(x),
                   b + (("equation", "g.f.g = g"),) + flat(xn, x))
        for y in Y:
            yield (lower(upper(lower(y))) != lower(y),
                   b + (("equation", "f.g.f = f"), (yn, y)))


def injective_adjoint(name, k, L, w):
    """A repeated image of the lower map makes the law not applicable."""
    for b, _, _, yn, Y, lower, upper, _, _ in w.instances(name, k, L):
        seen = {}
        for y in Y:
            fy = lower(y)
            yield (fy in seen and "not-applicable",
                   b + (("y1", seen.get(fy)), ("y2", y), ("f_y", fy)))
            seen[fy] = y
        for y in Y:
            yield upper(lower(y)) != y, b + ((yn, y),)


def idempotent(name, k, L, w):
    hard = w.hard[name]
    for p, xs in itertools.product(preds(k), seqs(k, L)):
        once = hard(p, xs)
        yield hard(p, once) != once, (("p", p), ("xs", xs))


def fusion(name, k, L, w):
    hard = w.hard[name]
    for p, q, xs in itertools.product(preds(k), preds(k), seqs(k, L)):
        both = Pred(p.mask & q.mask, k)
        yield (hard(p, hard(q, xs)) != hard(both, xs),
               (("p", p), ("q", q), ("xs", xs)))


def split_append(_, k, L, w):
    tw, dw = w.hard["takeWhile"], w.hard["dropWhile"]
    for p, xs in itertools.product(preds(k), seqs(k, L)):
        yield tw(p, xs) + dw(p, xs) != xs, (("p", p), ("xs", xs))


def indirect_equality(order, k, L, w):
    leq, S = w.orders[order], seqs(k, L)
    for xs, ys in itertools.product(S, S):
        yield (xs != ys and all(leq(zs, xs) == leq(zs, ys) for zs in S),
               (("xs", xs), ("ys", ys)))


# law -> (binding name, targets, cases of one target)
REFERENCE = {
    "cancellation-left": ("connection", CONNECTIONS, cancellation_left),
    "cancellation-right": ("connection", CONNECTIONS, cancellation_right),
    "semi-inverse": ("connection", CONNECTIONS, semi_inverse),
    "injective-adjoint": ("connection", CONNECTIONS, injective_adjoint),
    "idempotent": ("combinator", ("dropWhile", "filter", "takeWhile"),
                   idempotent),
    "fusion": ("combinator", ("filter", "takeWhile"), fusion),
    "split-append": (None, (None,), split_append),
    "indirect-equality": ("order", ("prefix", "sublist"), indirect_equality),
}


def reference(law, k, L, w):
    """(verdict, cases up to the first hit, its bindings) of the whole law;
    a case that yields a verdict string ends the law with that verdict."""
    key, targets, cases = REFERENCE[law]
    return first_violation((hit, (((key, t),) if key else ()) + b)
                           for t in targets for hit, b in cases(t, k, L, w))


def engine(law, k, L):
    rep = check_law(law, Universe(k, L))
    return rep.verdict, rep.cases_checked, rep.counterexample


# --- the catalogue ----------------------------------------------------------


# name -> (registry, row, field, value, laws that must reject it)
MUTANTS = {
    "filter-not-idempotent": (
        "TARGETS", "filter", "hard", lambda p, xs: filter_p(p, xs)[:-1],
        {"idempotent", "fusion", "cancellation-right", "semi-inverse",
         "injective-adjoint"}),
    "takeWhile-breaks-fusion": (
        "TARGETS", "takeWhile", "hard", flipped_take_while,
        {"fusion", "split-append", "cancellation-right", "semi-inverse",
         "injective-adjoint"}),
    "dropWhile-breaks-split-append": (
        "TARGETS", "dropWhile", "hard", lambda p, l: drop_while(p, l)[1:],
        {"split-append", "idempotent", "cancellation-right",
         "semi-inverse", "injective-adjoint"}),
    "take-lower-not-injective": (
        "TARGETS", "take", "lower", lambda ys: (len(ys), ()),
        {"injective-adjoint", "cancellation-right", "semi-inverse"}),
    "take-off-by-one": (
        "TARGETS", "take", "hard", lambda n, xs: xs[:n + 1],
        {"cancellation-left"}),
    "prefix-spurious-pair": (
        "ORDERS", "prefix", "leq",
        lambda a, b: prefix(a, b) or (a, b) == ((0,), ()),
        {"indirect-equality"}),
}


def inject(monkeypatch, mutant):
    """Swap the mutant's row into the registry; returns the reference's
    world with the same wrong function in it."""
    table, row, field, value, _ = MUTANTS[mutant]
    registry = {"TARGETS": connections.TARGETS,
                "ORDERS": orders.ORDERS}[table]
    monkeypatch.setitem(registry, row,
                        dataclasses.replace(registry[row], **{field: value}))
    w = World(dict(REAL))
    if field == "hard":
        w.hard[row] = value
    elif field == "lower":
        w.take_lower = value
    else:
        w.orders[row] = value
    return w


def _ids(v):
    return f"{v[0]}-{v[1]}" if isinstance(v, tuple) else None


@pytest.mark.parametrize("law,u", [(law, u) for law in LAWS
                                   for u in UNIVERSES], ids=_ids)
def test_real_registry_matches_reference(law, u):
    assert engine(law, *u) == reference(law, *u, World(dict(REAL)))
    assert engine(law, *u)[0] == "pass"


@pytest.mark.parametrize("mutant,law,u", [
    (mutant, law, u) for mutant in sorted(MUTANTS) for law in LAWS
    for u in UNIVERSES], ids=_ids)
def test_mutant_matches_reference(monkeypatch, mutant, law, u):
    w = inject(monkeypatch, mutant)
    got = engine(law, *u)
    assert got == reference(law, *u, w)
    if law in MUTANTS[mutant][4]:
        assert got[0] != "pass", (mutant, law, u)
