"""Orderings against independent closed-form characterizations, plus the
law checker's behavior on healthy and broken relations."""

import re
import tracemalloc
from dataclasses import replace
from itertools import combinations, product
from operator import le
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
    componentwise,
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
from galoischeck.orders import (
    PAIR_PREFIX,
    PREFIX,
    SEQ_LIST_PREFIX,
    SEQ_PAIR_PREFIX,
    _counts,
    _pairs_below,
    _prefixes,
    _suffixes,
)
from loop_reference import first_violation, prefix

short_seq = st.lists(st.integers(0, 3), max_size=6).map(tuple)


def selection_sublist(ys, xs):
    return any(tuple(xs[i] for i in combo) == ys
               for combo in combinations(range(len(xs)), len(ys)))


def tail_suffix(s, l):
    return any(l[i:] == s for i in range(len(l) + 1))


@given(short_seq, short_seq)
def test_is_prefix_matches_slice_characterization(ys, xs):
    assert is_prefix(ys, xs) == prefix(ys, xs)


@given(short_seq, short_seq)
def test_is_sublist_matches_selection_characterization(ys, xs):
    assert is_sublist(ys, xs) == selection_sublist(ys, xs)


@given(short_seq, short_seq)
def test_is_suffix_matches_tail_characterization(s, l):
    assert is_suffix(s, l) == tail_suffix(s, l)


def test_prefix_and_sublist_match_closed_forms_on_every_pair():
    """Every pair at (3, 4), so every length combination, including each
    one that the length clause decides before any loop, and each pair
    again with either side or both as lists."""
    seqs = list(enum_seqs(Universe(3, 4)))
    for ys, xs in product(seqs, repeat=2):
        want = prefix(ys, xs), selection_sublist(ys, xs)
        for a, b in ((ys, xs), (list(ys), xs), (ys, list(xs)),
                     (list(ys), list(xs))):
            assert (is_prefix(a, b), is_sublist(a, b)) == want, (a, b)


def test_suffix_matches_its_closed_form_on_every_pair():
    """The same pairs for ``is_suffix``, which compares a list and a tuple
    element by element, as ``is_prefix`` and ``is_sublist`` do."""
    seqs = list(enum_seqs(Universe(3, 4)))
    for s, l in product(seqs, repeat=2):
        want = tail_suffix(s, l)
        for a, b in ((s, l), (list(s), l), (s, list(l)), (list(s), list(l))):
            assert is_suffix(a, b) == want, (a, b)


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


BELOW_ORDERS = [
    ORDERS["prefix"], ORDERS["sublist"], ORDERS["suffix"],
    ORDERS["product"], ORDERS["pair-prefix"], SEQ_PAIR_PREFIX,
    SEQ_LIST_PREFIX,
]


# every order at (2,4) and (3,3); prefix, sublist and suffix also at (2,5)
# and (3,5), the bounds at which the oracle searches their down-sets
@pytest.mark.parametrize("order,k,L", [
    pytest.param(order, k, L, id=f"{k}-{L}-order{i}")
    for k, L, orders in ((2, 4, BELOW_ORDERS), (3, 3, BELOW_ORDERS),
                         (2, 5, BELOW_ORDERS[:3]), (3, 5, BELOW_ORDERS[:3]))
    for i, order in enumerate(orders)])
def test_below_generators_are_complete_and_sound(order, k, L):
    u = Universe(k, L)
    elems = materialize_carrier(order.carrier, u)
    for y in elems:
        generated = set(order.below(y, u))
        scanned = {x for x in elems if order.leq(x, y)}
        assert generated == scanned


def test_a_suffix_row_reads_the_down_set_the_law_checker_checks():
    # a row of the suffix order sums one mask per yield, so the yields are
    # distinct, and they come from the generator that check-order checks
    assert ORDERS["suffix"].below is is_suffix.below
    for y in materialize_carrier(CarrierKind.SEQ, Universe(2, 4)):
        below = list(is_suffix.below(y, None))
        assert len(set(below)) == len(below) == len(y) + 1


@pytest.mark.parametrize("carrier", [CarrierKind.SEQ, CarrierKind.PAIR_SEQ])
def test_a_prefix_down_set_is_each_prefix_once(carrier):
    # a row that sums one mask per yield needs the yields distinct; a list
    # y gives list prefixes, as slicing y does
    assert PREFIX.below is PAIR_PREFIX.below is _prefixes
    for y in materialize_carrier(carrier, Universe(2, 4)):
        for seq in (y, list(y)):
            below = list(_prefixes(seq, None))
            assert len(below) == len({len(x) for x in below}) == len(y) + 1
            assert sorted(below, key=len) == [
                seq[:i] for i in range(len(y) + 1)], seq


@pytest.mark.parametrize("second", [_prefixes, _suffixes])
def test_a_pair_down_set_builds_the_second_factors_once(second):
    """``_pairs_below`` asks the second factor for b's down-set once per
    pair, and pairs every count with every one of its yields, though a
    generator's yields can be walked only once."""
    asked = []

    def counted(b, u):
        asked.append(b)
        return second(b, u)

    below = _pairs_below(_counts, counted)
    for n, b in product(range(3), materialize_carrier(CarrierKind.SEQ,
                                                    Universe(2, 3))):
        asked.clear()
        assert below((n, b), None) == [
            (c, x) for c in range(n + 1) for x in second(b, None)]
        assert asked == [b]


@pytest.mark.parametrize("name,least", [
    ("prefix", ()), ("sublist", ()), ("suffix", ()),
    ("product", (0, ())), ("pair-prefix", ()),
])
def test_order_laws_pass_with_expected_least(name, least):
    report = check_order_laws(ORDERS[name], Universe(2, 4))
    assert report.reflexive.ok and report.transitive.ok
    assert report.antisymmetric.ok
    assert report.least_element == least


def scan_below(leq):
    """A below-generator that scans the whole carrier."""
    return lambda y, u: [x for x in enum_seqs(u) if leq(x, y)]


@pytest.mark.parametrize("name", ["prefix", "sublist", "suffix",
                                  "pair-prefix"])
def test_a_one_element_carrier_is_its_own_least(name):
    """At max_len 0 the carrier is (), whose one row holds only itself."""
    report = check_order_laws(ORDERS[name], Universe(2, 0))
    assert report.reflexive.ok and report.transitive.ok
    assert report.antisymmetric.ok
    assert report.least_element == ()


def test_maximal_elements_keep_no_list():
    """6,561 of pair-prefix's 7,381 elements at (3, 4) have nothing above
    them but themselves.  Under tracemalloc on Python 3.11 the check peaked
    at 2.20-2.39 MB with a list for each of those rows, and at 1.62-1.81 MB
    with the index alone; the lower figure is the one after other tests,
    whose freed tuples the interpreter reuses without a new allocation."""
    tracemalloc.start()
    try:
        report = check_order_laws(PAIR_PREFIX, Universe(3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.least_element == ()
    assert peak < 2_100_000


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


def test_componentwise_orders_carry_their_factors():
    assert product_order.factors == (le, is_prefix)
    assert seq_pair_prefix.factors == (is_prefix, is_prefix)
    assert [f.__name__ for f in (product_order, seq_pair_prefix)] == [
        "product_order", "seq_pair_prefix"]
    # the whole relation is the AND of its factors, one per position
    seqs = materialize_carrier(CarrierKind.SEQ, Universe(2, 2))
    leq = componentwise(is_sublist, is_suffix, name="sublist*suffix")
    assert leq.__name__ == "sublist*suffix"
    for a, b in product(product(seqs, repeat=2), repeat=2):
        assert leq(a, b) == (is_sublist(a[0], b[0]) and is_suffix(a[1], b[1]))


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
        return CheckReport(f"{law}:{o.name}", *first_violation(cases))

    reflexive = first_failure(
        "reflexive", ((not leq(x, x), (("x", x),)) for x in elems))
    index = {v: i for i, v in enumerate(elems)}
    below = []
    for y in elems:
        row = []
        for x in o.below(y, u):
            if index[x] in row:
                continue
            if not leq(x, y):
                raise ValueError(f"below-generator for {o.name} yielded "
                                 f"{x!r} which is not below {y!r}")
            row.append(index[x])
        below.append(row)
    above = [[j for j in range(n) if i in below[j]] for i in range(n)]
    antisymmetric = first_failure("antisymmetric", (
        (i != j and leq(elems[j], elems[i]),
         (("x", elems[i]), ("y", elems[j])))
        for i in range(n) for j in above[i]))
    transitive = first_failure("transitive", (
        (not leq(elems[i], elems[k]),
         (("x", elems[i]), ("y", elems[j]), ("z", elems[k])))
        for i in range(n) for j in above[i] for k in above[j]))
    bottoms = [i for i in range(n) if len(above[i]) == n]
    least = elems[bottoms[0]] if len(bottoms) == 1 else None
    return OrderLawReport(reflexive, transitive, antisymmetric, least)


def prefix_step(a, b):
    return is_prefix(a, b) and len(b) - len(a) <= 1


def all_prefixes(y, u):
    return [y[:i] for i in range(len(y) + 1)]


def parent_if_last_0(y, u):
    """y without its last symbol when that symbol is 0, else nothing.  Only
    x + (0,) is above x, so every row is empty or the list ``[j]`` of one
    other index; none is the int row of x <= x alone."""
    return [y[:-1]] if y[-1:] == (0,) else []


def always(a, b):
    return True


def prefix_but_not_at_0(a, b):
    """Prefix, except that (0,) is not below itself."""
    return is_prefix(a, b) and not a == b == (0,)


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
    # every yield a new tuple, so y comes back equal to itself, not as y
    "prefix-copies": OrderDef("prefix-copies", is_prefix, SEQ,
                              lambda y, u: [tuple(list(x))
                                            for x in all_prefixes(y, u)]),
    # fails reflexivity at (0,), and the generator yields (0,) below (0,)
    "prefix-irreflexive": OrderDef("prefix-irreflexive", prefix_but_not_at_0,
                                   SEQ, all_prefixes),
    # rows that are () or the list [j] of one other index
    "prefix-last-0": OrderDef("prefix-last-0", is_prefix, SEQ,
                              parent_if_last_0),
    # the same rows, and (0,) <= () as well as () <= (0,): the row [j] of
    # (), unlike an int row, must be scanned for antisymmetry
    "always-last-0": OrderDef("always-last-0", always, SEQ,
                              parent_if_last_0),
}
DIFFERENTIAL_ORDERS = [*ORDERS.values(), SEQ_PAIR_PREFIX, SEQ_LIST_PREFIX,
                       *HAND_MADE.values()]


def outcome(check, order, u, **kw):
    """check's report on order, or the message of the ValueError it raises
    for a yield that is not below."""
    try:
        return check(order, u, **kw)
    except ValueError as exc:
        return str(exc)


def counted_check(order, u):
    """The unbounded outcome on order, and the leq evaluations it made."""
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return order.leq(a, b)

    got = outcome(check_order_laws, replace(order, leq=counted), u)
    return got, calls


@pytest.mark.parametrize("order", DIFFERENTIAL_ORDERS,
                         ids=[o.name for o in DIFFERENTIAL_ORDERS])
@pytest.mark.parametrize("k,L", [(2, 3), (3, 2)])
def test_engine_matches_nested_loop_reference(order, k, L):
    u = Universe(k, L)
    expected = outcome(reference_order_laws, order, u)
    got, calls = counted_check(order, u)
    assert got == expected
    for budget in (10, 100, 1000, calls - 1, calls):
        try:
            bounded = outcome(check_order_laws, order, u, budget=budget)
        except UniverseTooLargeError as exc:
            bounded = None
            if budget == calls - 1:
                # refused at the last evaluation the unbounded check makes
                assert exc.projected == calls
        try:
            outcome(reference_order_laws, order, u, budget=budget)
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
    ("always-last-0", "antisymmetric", (("x", ()), ("y", (0,)))),
])
def test_generator_orders_reach_failing_laws(name, law, witness):
    report = check_order_laws(HAND_MADE[name], Universe(2, 3))
    assert getattr(report, law).counterexample == witness
    assert not getattr(report, law).ok


@pytest.mark.parametrize("name", ["prefix-incomplete", "prefix-twice",
                                  "prefix-last-0"])
def test_partial_or_repeating_generators_still_pass(name):
    report = check_order_laws(HAND_MADE[name], Universe(2, 3))
    assert report.reflexive.ok and report.transitive.ok
    assert report.antisymmetric.ok


def test_a_yield_that_fails_reflexivity_is_still_refused():
    with pytest.raises(ValueError, match=r"yielded \(0,\) which is not "
                       r"below \(0,\)"):
        check_order_laws(HAND_MADE["prefix-irreflexive"], Universe(2, 3))


def two_at_0(a, b):
    """Prefix, except that the generator pair ((), (0,)) scores 2."""
    return 2 if (a, b) == ((), (0,)) else is_prefix(a, b)


def none_reversed(a, b):
    """Prefix, except that the reversed pair ((0,), ()) scores None."""
    return None if (a, b) == ((0,), ()) else is_prefix(a, b)


@pytest.mark.parametrize("leq,pair,result", [
    # x <= x is a bool everywhere, so the fill is the first to see the 2
    (two_at_0, "((), (0,))", 2),
    # only the antisymmetry scan evaluates a yielded pair the other way round
    (none_reversed, "((0,), ())", None),
])
def test_a_non_bool_in_a_hot_loop_is_named(leq, pair, result):
    odd = replace(ORDERS["prefix"], name=leq.__name__, leq=leq)
    message = (f"relation {leq.__name__} returned {result} for {pair}; it "
               f"must return a bool")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_order_laws(odd, Universe(2, 2))


def test_a_0_1_relation_refuses_a_yield_it_scores_0():
    lying = OrderDef("lying-0-1", lambda a, b: int(is_prefix(a, b)), SEQ,
                     below=lambda y, u: [(0,)])
    with pytest.raises(ValueError, match=r"yielded \(0,\) which is not "
                       r"below \(\)"):
        check_order_laws(lying, Universe(2, 2))


def test_a_0_1_relation_reports_the_bool_relations_witness():
    bool_version = HAND_MADE["always-last-0"]
    twin = replace(bool_version, leq=lambda a, b: 1)
    u = Universe(2, 3)
    report = check_order_laws(twin, u)
    assert report.antisymmetric.counterexample == (("x", ()), ("y", (0,)))
    assert report == check_order_laws(bool_version, u)


def test_reflexive_yields_are_not_evaluated_again():
    """Once reflexivity holds, a yield equal to y costs no evaluation, so
    prefix at (2, 3) makes one evaluation per element fewer than a check
    that evaluates every yield; a yield of an equal copy counts the same."""
    u = Universe(2, 3)
    _, calls = counted_check(ORDERS["prefix"], u)
    # 15 reflexive, 34 proper-prefix yields and their 34 antisymmetry
    # checks; the 15 yields of y itself are not evaluated
    assert calls == 83
    assert counted_check(HAND_MADE["prefix-copies"], u)[1] == calls
