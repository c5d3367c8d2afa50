"""Orderings against independent closed-form characterizations, plus the
law checker's behavior on healthy and broken relations."""

from dataclasses import replace
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, strategies as st

from galoischeck import (
    DEFAULT_BUDGET,
    ORDERS,
    CarrierKind,
    CheckReport,
    OrderDef,
    OrderLawReport,
    Universe,
    UniverseTooLargeError,
    check_order_laws,
    enum_seqs,
    is_prefix,
    is_sublist,
    is_suffix,
    materialize_carrier,
    pair_prefix,
    product_order,
    seq_list_prefix,
    seq_pair_prefix,
)
from galoischeck.orders import PAIR_PREFIX, SEQ_LIST_PREFIX, SEQ_PAIR_PREFIX

short_seq = st.lists(st.integers(0, 3), max_size=6).map(tuple)


def slice_prefix(ys, xs):
    return xs[: len(ys)] == ys


def selection_sublist(ys, xs):
    return any(tuple(xs[i] for i in combo) == ys
               for combo in combinations(range(len(xs)), len(ys)))


def tail_suffix(s, l):
    return any(l[i:] == s for i in range(len(l) + 1))


@given(short_seq, short_seq)
def test_is_prefix_matches_slice_characterization(ys, xs):
    assert is_prefix(ys, xs) == slice_prefix(ys, xs)


@given(short_seq, short_seq)
def test_is_sublist_matches_selection_characterization(ys, xs):
    assert is_sublist(ys, xs) == selection_sublist(ys, xs)


@given(short_seq, short_seq)
def test_is_suffix_matches_tail_characterization(s, l):
    assert is_suffix(s, l) == tail_suffix(s, l)


def test_frozen_relation_examples():
    assert is_prefix((), (5, 1))
    assert is_prefix((2, 4), (2, 4, 5))
    assert not is_prefix((5,), (2, 4, 5))
    assert is_sublist((5,), (2, 4, 5))
    assert is_sublist((), (2, 4, 5))
    assert not is_sublist((4, 2), (2, 4, 5))
    assert is_suffix((4, 5), (2, 4, 5))
    assert is_suffix((2, 4, 5), (2, 4, 5))
    assert not is_suffix((2, 4), (2, 4, 5))
    assert is_suffix((), ())
    assert product_order((0, ()), (3, (1, 2)))
    assert product_order((2, (2, 4)), (2, (2, 4, 5)))
    assert not product_order((3, (2, 4)), (2, (2, 4, 5)))
    assert pair_prefix((), ((1, 0), (2, 1)))
    assert pair_prefix(((1, 0),), ((1, 0), (2, 1)))
    assert not pair_prefix(((2, 1),), ((1, 0), (2, 1)))


def test_prefix_implies_sublist_exhaustively():
    seqs = list(enum_seqs(Universe(2, 4)))
    for ys in seqs:
        for xs in seqs:
            if is_prefix(ys, xs):
                assert is_sublist(ys, xs)


def test_prefix_concatenation_characterization_exhaustively():
    seqs = list(enum_seqs(Universe(2, 3)))
    for ys in seqs:
        for xs in seqs:
            splits = any(ys + zs == xs for zs in seqs)
            assert is_prefix(ys, xs) == splits


@pytest.mark.parametrize("order", [
    ORDERS["prefix"], ORDERS["sublist"], ORDERS["suffix"],
    ORDERS["product"], ORDERS["pair-prefix"], SEQ_PAIR_PREFIX,
    SEQ_LIST_PREFIX,
])
@pytest.mark.parametrize("k,L", [(2, 4), (3, 3)])
def test_below_generators_are_complete_and_sound(order, k, L):
    u = Universe(k, L)
    elems = materialize_carrier(order.carrier, u)
    for y in elems:
        generated = set(order.below(y, u))
        scanned = {x for x in elems if order.leq(x, y)}
        assert generated == scanned


@pytest.mark.parametrize("name,least", [
    ("prefix", ()), ("sublist", ()), ("suffix", ()),
    ("product", (0, ())), ("pair-prefix", ()),
])
def test_order_laws_pass_with_expected_least(name, least):
    report = check_order_laws(ORDERS[name], Universe(2, 4))
    assert report.ok
    assert report.reflexive.ok and report.transitive.ok
    assert report.antisymmetric.ok
    assert report.least_element == least


def scan_below(leq):
    """A below-generator that scans the whole carrier."""
    return lambda y, u: [x for x in enum_seqs(u) if leq(x, y)]


def test_always_true_relation_fails_antisymmetry_with_first_witness():
    def anything(a, b):
        return True

    loose = OrderDef("loose", anything, CarrierKind.SEQ, scan_below(anything))
    report = check_order_laws(loose, Universe(1, 1))
    assert report.reflexive.ok and report.transitive.ok
    assert not report.antisymmetric.ok
    assert report.antisymmetric.counterexample == (("x", ()), ("y", (0,)))
    assert report.least_element is None  # two bottoms, no unique least


def test_non_reflexive_relation_reports_first_element():
    def shorter(a, b):
        return len(a) < len(b)

    strict = OrderDef("strict-len", shorter, CarrierKind.SEQ,
                      scan_below(shorter))
    report = check_order_laws(strict, Universe(2, 2))
    assert not report.reflexive.ok
    assert report.reflexive.counterexample == (("x", ()),)


def test_non_transitive_relation_reports_first_chain():
    def step(a, b):
        return is_prefix(a, b) and len(b) - len(a) <= 1

    gap = OrderDef("prefix-step", step, CarrierKind.SEQ, scan_below(step))
    report = check_order_laws(gap, Universe(1, 2))
    assert report.reflexive.ok and report.antisymmetric.ok
    assert not report.transitive.ok
    assert report.transitive.counterexample == (
        ("x", ()), ("y", (0,)), ("z", (0, 0)))


def test_generator_scan_budget_is_enforced_live():
    with pytest.raises(UniverseTooLargeError):
        check_order_laws(ORDERS["prefix"], Universe(2, 3), budget=10)


def test_lying_generator_is_rejected():
    lying = OrderDef("lying", is_prefix, CarrierKind.SEQ,
                     below=lambda y, u: [(0,)])
    with pytest.raises(ValueError, match="not below"):
        check_order_laws(lying, Universe(2, 2))


def test_out_of_carrier_generator_is_rejected():
    rogue = OrderDef("rogue", lambda a, b: True, CarrierKind.SEQ,
                     below=lambda y, u: [(99,)])
    with pytest.raises(ValueError, match="outside the carrier"):
        check_order_laws(rogue, Universe(2, 2))


def test_composite_prefix_orders_delegate_componentwise():
    assert seq_pair_prefix(((0,), ()), ((0, 1), (1,)))
    assert not seq_pair_prefix(((1,), ()), ((0, 1), (1,)))
    assert seq_list_prefix(((0,),), ((0,), (1, 1)))
    assert not seq_list_prefix(((1, 1),), ((0,), (1, 1)))


# ---------------------------------------------------------------------------
# Differential check of the law engine against a plain nested-loop reference.


def reference_order_laws(o, u, budget=DEFAULT_BUDGET):
    """Nested loops over below-lists: one counted leq evaluation per
    reflexive case, generator yield, antisymmetric pair and transitive
    triple, refusing at the first evaluation past the budget."""
    elems = materialize_carrier(o.carrier, u)
    n = len(elems)
    evals = 0

    def leq(a, b):
        nonlocal evals
        evals += 1
        if evals > budget:
            raise UniverseTooLargeError(evals, budget, o.name)
        return o.leq(a, b)

    def first_failure(law, cases):
        count = 0
        for holds, cx in cases:
            count += 1
            if not holds:
                return CheckReport(f"{law}:{o.name}", "fail", count, cx)
        return CheckReport(f"{law}:{o.name}", "pass", count)

    reflexive = first_failure(
        "reflexive", ((leq(x, x), (("x", x),)) for x in elems))
    index = {v: i for i, v in enumerate(elems)}
    below = []
    for y in elems:
        row = []
        for x in o.below(y, u):
            if index[x] in row:
                continue
            if not leq(x, y):
                raise ValueError(f"{x!r} is not below {y!r}")
            row.append(index[x])
        below.append(row)
    above = [[j for j in range(n) if i in below[j]] for i in range(n)]
    antisymmetric = first_failure("antisymmetric", (
        (not (i != j and leq(elems[j], elems[i])),
         (("x", elems[i]), ("y", elems[j])))
        for i in range(n) for j in above[i]))
    transitive = first_failure("transitive", (
        (leq(elems[i], elems[k]),
         (("x", elems[i]), ("y", elems[j]), ("z", elems[k])))
        for i in range(n) for j in above[i] for k in above[j]))
    bottoms = [i for i in range(n) if len(above[i]) == n]
    least = elems[bottoms[0]] if len(bottoms) == 1 else None
    return OrderLawReport(reflexive, transitive, antisymmetric, least)


def prefix_step(a, b):
    return is_prefix(a, b) and len(b) - len(a) <= 1


def all_prefixes(y, u):
    return [y[:i] for i in range(len(y) + 1)]


SEQ = CarrierKind.SEQ
HAND_MADE = {
    # not transitive: () <= (0,) <= (0, 0) but not () <= (0, 0)
    "prefix-step": OrderDef("prefix-step", prefix_step, SEQ,
                            lambda y, u: [y[:-1], y]),
    # sound but incomplete, and () yields itself twice
    "prefix-incomplete": OrderDef("prefix-incomplete", is_prefix, SEQ,
                                  lambda y, u: [y, y[:-1]]),
    "prefix-twice": OrderDef("prefix-twice", is_prefix, SEQ,
                             lambda y, u: all_prefixes(y, u) * 2),
    # a preorder: equal lengths are related both ways
    "length": OrderDef("length", lambda a, b: len(a) <= len(b), SEQ,
                       lambda y, u: [x for x in enum_seqs(u)
                                     if len(x) <= len(y)]),
}
DIFFERENTIAL_ORDERS = [*ORDERS.values(), SEQ_PAIR_PREFIX, SEQ_LIST_PREFIX,
                       *HAND_MADE.values()]


def counted_check(order, u):
    """The unbounded report on order, and the leq evaluations it made."""
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return order.leq(a, b)

    return check_order_laws(replace(order, leq=counted), u), calls


@pytest.mark.parametrize("order", DIFFERENTIAL_ORDERS,
                         ids=[o.name for o in DIFFERENTIAL_ORDERS])
@pytest.mark.parametrize("k,L", [(2, 3), (3, 2)])
def test_engine_matches_nested_loop_reference(order, k, L):
    u = Universe(k, L)
    expected = reference_order_laws(order, u)
    got, calls = counted_check(order, u)
    assert got == expected
    for budget in (10, 100, 1000, calls - 1, calls):
        try:
            bounded = check_order_laws(order, u, budget=budget)
        except UniverseTooLargeError as exc:
            bounded = None
            if budget == calls - 1:
                # refused at the last evaluation the unbounded check makes
                assert exc.projected == calls
        try:
            reference_order_laws(order, u, budget=budget)
            reference_completes = True
        except UniverseTooLargeError:
            reference_completes = False
        if reference_completes:
            assert bounded == expected
        # refused exactly when the evaluations it makes exceed the budget
        assert (bounded is None) == (calls > budget)
        if bounded is not None:
            assert bounded == expected


def random_order(seed, u):
    """A seeded reflexive relation on the sequences, with a generator that
    yields a seeded part of each down-set, so that transitivity needs both
    proven and unproven pairs."""
    rng = Random(seed)
    elems = list(enum_seqs(u))
    holds = {(a, b) for a in elems for b in elems
             if a == b or rng.random() < 0.4}
    listed = {pair for pair in sorted(holds) if rng.random() < 0.6}
    return OrderDef(f"random-{seed}", lambda a, b: (a, b) in holds, SEQ,
                    lambda y, u: [x for x in elems if (x, y) in listed])


@pytest.mark.parametrize("seed", range(20))
def test_engine_matches_reference_on_random_relations(seed):
    u = Universe(2, 2)
    order = random_order(seed, u)
    expected = reference_order_laws(order, u)
    got, calls = counted_check(order, u)
    assert got == expected
    with pytest.raises(UniverseTooLargeError) as exc:
        check_order_laws(order, u, budget=calls - 1)
    assert exc.value.projected == calls
    assert check_order_laws(order, u, budget=calls) == expected


@pytest.mark.parametrize("name,law,witness", [
    ("prefix-step", "transitive", (("x", ()), ("y", (0,)), ("z", (0, 0)))),
    ("length", "antisymmetric", (("x", (0,)), ("y", (1,)))),
])
def test_generator_orders_reach_failing_laws(name, law, witness):
    report = check_order_laws(HAND_MADE[name], Universe(2, 3))
    assert getattr(report, law).counterexample == witness
    assert not report.ok


@pytest.mark.parametrize("name", ["prefix-incomplete", "prefix-twice"])
def test_partial_or_repeating_generators_still_pass(name):
    report = check_order_laws(HAND_MADE[name], Universe(2, 3))
    assert report.ok
