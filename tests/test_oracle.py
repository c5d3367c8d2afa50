"""The search-based reference oracle: greatest feasible candidate under an
order, checked against frozen examples and the direct implementations."""

import dataclasses
import itertools
import re
import tracemalloc
from functools import partial

import pytest

from galoischeck import (
    EmptyCandidatesError,
    NoGreatestError,
    Pred,
    Universe,
    UniverseTooLargeError,
    all_satisfy,
    best_under,
    candidates_below,
    check_easy_hard,
    drop_while,
    enum_preds,
    enum_seqs,
    filter_p,
    oracle_spec,
    take_n,
    take_while,
    zip_pair,
)
from galoischeck.connections import COUNT, SPEC_NAMES, TARGETS
from galoischeck.core import (
    enum_pair_seqs,
    enumerate_carrier,
    materialize_carrier,
)
from galoischeck.orders import (
    ORDERS,
    PREFIX,
    SEQ_LIST_PREFIX,
    SEQ_PAIR_PREFIX,
    SUBLIST,
    is_prefix,
)

U6 = Universe(6, 3)
EVEN = Pred(0b010101, 6)
ODD = Pred(0b101010, 6)


def test_candidates_below_prefix():
    assert candidates_below(PREFIX, (2, 4, 5), U6) == [
        (),
        (2,),
        (2, 4),
        (2, 4, 5),
    ]
    assert candidates_below(PREFIX, (), U6) == [()]


def test_candidates_below_sublist():
    got = candidates_below(SUBLIST, (2, 4, 5), U6)
    assert len(got) == 8
    assert set(got) == {
        (), (2,), (4,), (5,), (2, 4), (2, 5), (4, 5), (2, 4, 5),
    }


SHIPPED_ORDERS = [*ORDERS.values(), SEQ_PAIR_PREFIX, SEQ_LIST_PREFIX]


@pytest.mark.parametrize("order", SHIPPED_ORDERS,
                         ids=[o.name for o in SHIPPED_ORDERS])
def test_below_generators_yield_each_element_once(order):
    # the down-set and the law checker drop repeats, so a generator that
    # yields an element twice would only cost both of them work
    u = Universe(2, 3)
    for y in materialize_carrier(order.carrier, u):
        below = list(order.below(y, u))
        assert len(below) == len(set(below)), (y, below)


def test_best_under_picks_greatest_feasible():
    def all_even(c):
        return all_satisfy(EVEN, c)
    assert best_under(PREFIX, all_even, "every element even", (2, 4, 5),
                      candidates_below(PREFIX, (2, 4, 5), U6)) == (2, 4)

    def all_odd(c):
        return all_satisfy(ODD, c)
    assert best_under(SUBLIST, all_odd, "every element odd", (2, 4, 5),
                      candidates_below(SUBLIST, (2, 4, 5), U6)) == (5,)

    assert best_under(PREFIX, all_even, "every element even", (),
                      candidates_below(PREFIX, (), U6)) == ()


def test_best_under_empty_feasible_set():
    with pytest.raises(EmptyCandidatesError, match="nothing qualifies"):
        best_under(PREFIX, lambda c: False, "nothing qualifies", (2, 4, 5),
                   candidates_below(PREFIX, (2, 4, 5), U6))


def test_best_under_reports_incomparable_maxima():
    with pytest.raises(NoGreatestError, match="exactly one element") as info:
        best_under(SUBLIST, lambda c: len(c) == 1, "exactly one element",
                   (2, 4), candidates_below(SUBLIST, (2, 4), U6))
    # maxima come in carrier order: shortest first, lexicographic within
    assert info.value.maxima == ((2,), (4,))
    with pytest.raises(NoGreatestError) as info:
        best_under(SUBLIST, lambda c: len(set(c)) <= 1, "one symbol",
                   (0, 1, 0), candidates_below(SUBLIST, (0, 1, 0), U6))
    assert info.value.maxima == ((1,), (0, 0))


def _two_or_zero(a, b):
    return 2 if is_prefix(a, b) else 0


def test_the_oracle_refuses_a_relation_that_is_not_a_bool(monkeypatch):
    # the first comparison of each is prefix at ((), x)
    bad = dataclasses.replace(PREFIX, leq=_two_or_zero)
    with pytest.raises(ValueError, match=re.escape(
            "relation _two_or_zero returned 2 for ((), ()); it must return "
            "a bool")):
        best_under(bad, lambda c: True, "", (0,), [(), (0,)])
    t = TARGETS["takeWhile"]
    query = partial(oracle_spec, "takeWhile", Universe(2, 3), xs=(0, 1),
                    pred=Pred(1, 2))
    plain = query()
    monkeypatch.setitem(TARGETS, "takeWhile", dataclasses.replace(t, order=bad))
    with pytest.raises(ValueError, match=re.escape(
            "relation _two_or_zero returned 2 for ((), (0, 1)); it must "
            "return a bool")):
        query()
    # 0 and 1 are bools enough
    monkeypatch.setitem(TARGETS, "takeWhile", dataclasses.replace(
        t, order=dataclasses.replace(PREFIX, leq=lambda a, b: int(
            is_prefix(a, b)))))
    assert plain == (0,) and query() == plain


def test_oracle_spec_examples():
    assert oracle_spec("takeWhile", U6, xs=(2, 4, 5), pred=EVEN) == (2, 4)
    assert oracle_spec("take", U6, xs=(2, 4, 5), n=2) == (2, 4)
    assert oracle_spec("filter", U6, xs=(2, 4, 5), pred=ODD) == (5,)
    assert oracle_spec("dropWhile", U6, xs=(2, 4, 5), pred=EVEN) == (5,)
    assert oracle_spec("zip", U6, xs=(1, 2, 3), ys=(4, 5)) == ((1, 4), (2, 5))


def test_oracle_spec_argument_validation():
    outside = "is outside the universe alphabet=6 max_len=3"
    for name, kw, message in (
            ("takeWhile", {}, "takeWhile oracle needs xs and pred"),
            ("filter", {}, "filter oracle needs xs and pred"),
            ("take", {}, "take oracle needs xs and n"),
            ("zip", {}, "zip oracle needs xs and ys"),
            ("filter", {"xs": None, "pred": EVEN},
             "filter oracle needs xs and pred"),
            # a list input is refused before any candidate is built
            ("takeWhile", {"xs": [0, 1], "pred": EVEN},
             "xs=[0, 1] is not a tuple"),
            ("zip", {"ys": [0, 1]}, "ys=[0, 1] is not a tuple"),
            # a parameter of the wrong type is refused by its kind's check
            ("takeWhile", {"pred": 1}, "pred=1 is not a Pred"),
            ("filter", {"pred": 0b01}, "pred=1 is not a Pred"),
            ("take", {"n": 1.5}, "n=1.5 is not an int"),
            ("take", {"n": "2"}, "n='2' is not an int"),
            ("take", {"n": True}, "n=True is not an int"),
            # an element that is not an int is outside the universe
            ("zip", {"xs": (0,), "ys": (0.5,)}, f"ys=(0.5,) {outside}"),
            ("take", {"xs": (0.5,), "n": 1}, f"xs=(0.5,) {outside}"),
            ("take", {"xs": (True,), "n": 1}, f"xs=(True,) {outside}"),
            ("take", {"xs": ("1",), "n": 1}, f"xs=('1',) {outside}"),
            ("filter", {"xs": (None,), "pred": EVEN},
             f"xs=(None,) {outside}"),
            ("reverse", {}, "unknown combinator 'reverse'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            oracle_spec(name, U6, **{"xs": (2,), **kw})


ORACLE_INAPPLICABLE = [
    ("zip", {"ys": (1,), "n": 1}, "a count does not apply to 'zip'"),
    ("filter", {"pred": Pred(1, 2), "n": -3, "ys": (1,)},
     "a count does not apply to 'filter'"),
    ("filter", {"pred": Pred(1, 2), "ys": (1,)},
     "a second sequence does not apply to 'filter'"),
    ("take", {"n": 1, "pred": Pred(1, 2)},
     "a predicate does not apply to 'take'"),
    ("zip", {"ys": (1,), "pred": Pred(1, 2)},
     "a predicate does not apply to 'zip'"),
    ("take", {"n": 1, "ys": (1,)},
     "a second sequence does not apply to 'take'"),
]


@pytest.mark.parametrize("name,kw,message", ORACLE_INAPPLICABLE, ids=[
    f"{name}-kw{i}" for i, (name, *_) in enumerate(ORACLE_INAPPLICABLE)])
def test_oracle_refuses_parameters_that_do_not_apply(name, kw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        oracle_spec(name, Universe(2, 5), xs=(0, 1), **kw)


@pytest.mark.parametrize("name,kw,bad", [
    ("take", {"xs": (1, 1, 1, 1, 1), "n": 4}, "xs=(1, 1, 1, 1, 1)"),
    ("take", {"xs": (5, 5, 5, 5, 5), "n": 2}, "xs=(5, 5, 5, 5, 5)"),
    ("filter", {"xs": (0, 2, 1), "pred": Pred(1, 2)}, "xs=(0, 2, 1)"),
    ("zip", {"xs": (0,), "ys": (0, 0, 0, 0)}, "ys=(0, 0, 0, 0)"),
    ("zip", {"xs": (0,), "ys": (2,)}, "ys=(2,)"),
])
def test_oracle_refuses_inputs_outside_its_universe(name, kw, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(bad)} is outside the "
                       r"universe alphabet=2 max_len=3$"):
        oracle_spec(name, Universe(2, 3), budget=0, **kw)


def test_oracle_refuses_an_inapplicable_parameter_before_the_input():
    with pytest.raises(ValueError,
                       match="^a predicate does not apply to 'take'$"):
        oracle_spec("take", Universe(2, 3), xs=(5,), n=1, pred=Pred(1, 2))


def test_oracle_refuses_a_negative_count_before_its_budget():
    with pytest.raises(ValueError, match="take count must be non-negative"):
        oracle_spec("take", Universe(2, 3), xs=(), n=-1, budget=0)


def test_oracle_and_spec_check_read_the_same_take_row(monkeypatch):
    # take's easy condition lives in its TARGETS row alone: an off-by-one
    # lower map there fails the spec check and changes the oracle's answer
    u = Universe(2, 3)
    assert oracle_spec("take", u, xs=(0, 1, 0), n=2) == (0, 1)
    monkeypatch.setitem(TARGETS, "take", dataclasses.replace(
        TARGETS["take"], lower=lambda ys: (len(ys) + 1, ys)))
    assert check_easy_hard("take", u).verdict == "fail"
    assert oracle_spec("take", u, xs=(0, 1, 0), n=2) == (0,)


def test_oracle_budget_boundary_is_the_carrier_size():
    # filter searches the 15 sequences of Universe(2, 3)
    u, kw = Universe(2, 3), {"xs": (1, 0, 1), "pred": Pred(0b01, 2)}
    with pytest.raises(UniverseTooLargeError) as exc:
        oracle_spec("filter", u, budget=14, **kw)
    assert (exc.value.projected, exc.value.budget, exc.value.context) == (
        15, 14, "oracle:filter")
    assert oracle_spec("filter", u, budget=15, **kw) == (0,)


def test_oracle_matches_direct_implementations_exhaustively():
    u = Universe(2, 3)
    seqs = list(enum_seqs(u))
    preds = list(enum_preds(u))
    for p, xs in itertools.product(preds, seqs):
        assert oracle_spec("takeWhile", u, xs=xs, pred=p) == take_while(p, xs)
        assert oracle_spec("filter", u, xs=xs, pred=p) == filter_p(p, xs)
        assert oracle_spec("dropWhile", u, xs=xs, pred=p) == drop_while(p, xs)
    for n, xs in itertools.product(range(u.max_len + 2), seqs):
        assert oracle_spec("take", u, xs=xs, n=n) == take_n(n, xs)


def test_one_zip_query_keeps_no_carrier_sized_list():
    # the whole-carrier walk listed all 66,430 pair sequences at (3, 5)
    xs, ys = (0, 1, 2, 0, 1), (2, 2, 1, 0, 0)
    tracemalloc.start()
    try:
        got = oracle_spec("zip", Universe(3, 5), xs=xs, ys=ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == zip_pair(xs, ys)
    assert peak < 64 * 1024


def test_oracle_matches_zip_exhaustively():
    u = Universe(2, 2)
    seqs = list(enum_seqs(u))
    for xs, ys in itertools.product(seqs, seqs):
        assert oracle_spec("zip", u, xs=xs, ys=ys) == zip_pair(xs, ys)


def test_weaker_predicate_never_shortens_oracle_result():
    u = Universe(2, 2)
    for p, q, xs in itertools.product(enum_preds(u), enum_preds(u),
                                      enum_seqs(u)):
        weaker = Pred(p.mask | q.mask, u.alphabet_size)
        tight = oracle_spec("takeWhile", u, xs=xs, pred=p)
        loose = oracle_spec("takeWhile", u, xs=xs, pred=weaker)
        assert len(loose) >= len(tight)


# --- the down-set walk against the whole-carrier walk -----------------------
#
# The oracle once walked the order's whole carrier, keeping what ``below``
# yields (zip: every pair sequence no longer than the shorter input), then
# picked the greatest feasible candidate.  That walk is kept here as the
# reference: the down-set walk must give the same answer, or raise the same
# error with the same maximal candidates in the same order, on every input.


def whole_carrier_oracle(name, u, xs, arg):
    t = TARGETS[name]
    ys = arg if name == "zip" else None
    x = xs if ys is None else (xs, ys)
    x_a = (arg, xs) if t.param is COUNT else x
    says = t.says.format(t.param.show(arg))
    leq_a = (t.order_a or t.order).leq
    if ys is None:
        members = set(t.order.below(x, u))
        candidates = [v for v in enumerate_carrier(t.order.carrier, u)
                      if v in members]
    else:
        bound = min(len(xs), len(ys))
        candidates = [zs for zs in enum_pair_seqs(u) if len(zs) <= bound]
    feasible = [y for y in candidates if leq_a(t.lower(y), x_a) and (
        t.easy is None or t.easy(arg, y))]
    if not feasible:
        raise EmptyCandidatesError(
            f"no candidate below {x!r} satisfies: {says}")
    for top in feasible:
        if all(t.order.leq(c, top) for c in feasible):
            return top
    maxima = tuple(m for m in feasible if not any(
        m != c and t.order.leq(m, c) for c in feasible))
    raise NoGreatestError(
        f"no greatest candidate below {x!r} for: {says}; "
        f"{len(maxima)} maximal candidates", maxima)


def outcome(query):
    try:
        return "result", query()
    except (EmptyCandidatesError, NoGreatestError) as e:
        return type(e).__name__, str(e), getattr(e, "maxima", None)


def oracle_inputs(name, u):
    """(xs, keyword, argument) for every query of ``name`` over ``u``."""
    seqs = list(enum_seqs(u))
    if name == "zip":
        return [(xs, "ys", ys) for xs in seqs for ys in seqs]
    if TARGETS[name].param is COUNT:
        return [(xs, "n", n) for n in range(u.max_len + 2) for xs in seqs]
    return [(xs, "pred", p) for p in enum_preds(u) for xs in seqs]


# Row changes that make the oracle raise: nothing feasible, and several
# maxima, which only the sublist order can have (below x the other orders
# are chains).  One-symbol sublists of (0, 1, 0) have the maxima (1,) and
# (0, 0), which only carrier order (shortest first) puts in that order.
ROWS = {
    "real": ({}, {"result"}),
    "nothing-feasible": ({"easy": lambda arg, y: False},
                         {"EmptyCandidatesError"}),
    "one-symbol": ({"easy": lambda p, y: len(set(y)) <= 1
                    and all_satisfy(p, y)}, {"result", "NoGreatestError"}),
}
DIFFERENTIAL = [(name, row, u) for name in SPEC_NAMES for row in ROWS
                for u in ("2x4", "3x3")
                if row != "one-symbol" or name == "filter"]


@pytest.mark.parametrize("name,row,u", DIFFERENTIAL)
def test_oracle_matches_the_whole_carrier_walk(name, row, u, monkeypatch):
    u = Universe(*map(int, u.split("x")))
    change, kinds = ROWS[row]
    monkeypatch.setitem(TARGETS, name, dataclasses.replace(
        TARGETS[name], **change))
    seen = set()
    for xs, key, arg in oracle_inputs(name, u):
        got = outcome(lambda: oracle_spec(name, u, xs=xs, **{key: arg}))
        assert got == outcome(lambda: whole_carrier_oracle(name, u, xs, arg))
        seen.add(got[0])
    assert seen == kinds
