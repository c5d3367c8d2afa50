"""The exhaustive checking engine: split specifications, adjunction
candidates and their consequences, refutation search, and the law battery."""

import collections
import dataclasses
import itertools
import operator
import random
import re
from functools import partial

import pytest

from galoischeck import (
    CanonicalGC,
    GC_TARGETS,
    PAIR_NAMES,
    Pred,
    SPEC_NAMES,
    Universe,
    UniverseTooLargeError,
    WitnessNotFoundError,
    all_satisfy,
    build_gcs,
    check_cancellation,
    check_canonical_gc,
    check_easy_hard,
    check_fusion,
    check_gc_instance,
    check_idempotent,
    check_indirect_equality,
    check_injective_adjoint,
    check_law,
    check_semi_inverse,
    check_split_append,
    drop_while,
    find_non_gc_counterexample,
    oracle_spec,
    order_laws_report,
    run_check,
    take_n,
    take_while,
    unlines_join,
    unwords_join,
    zip_pair,
)
from galoischeck import cli, connections, oracle
from galoischeck.connections import TARGETS
from galoischeck.core import CarrierKind, materialize_carrier
from galoischeck.orders import (
    ORDERS, PREFIX, componentwise, is_prefix, is_suffix)
from loop_reference import first_violation, flat

U23 = Universe(2, 3)
U26 = Universe(2, 6)


# --- the generic engine ----------------------------------------------------


def test_run_check_finds_first_violation_in_order():
    seqs = materialize_carrier(CarrierKind.SEQ, U23)

    def violates(xs):
        return tuple(reversed(xs)) != xs

    rep = run_check("palindromes-only", [(("xs",), seqs)], violates)
    assert rep.verdict == "fail"
    assert rep.cases_checked == 5
    assert rep.counterexample == (("xs", (0, 1)),)


def test_run_check_enforces_budget():
    axes = [(("a",), [1, 2, 3]), (("b",), [1, 2])]
    with pytest.raises(UniverseTooLargeError):
        run_check("x", axes, lambda a, b: False, budget=5)
    # a case that costs several evaluations is budgeted at that cost: one
    # indirect-equality case scans the whole carrier of 3 sequences
    with pytest.raises(UniverseTooLargeError) as exc:
        check_indirect_equality("prefix", Universe(2, 1), budget=26)
    assert exc.value.projected == 27
    assert check_indirect_equality("prefix", Universe(2, 1), budget=27).ok
    rep = run_check("x", axes, lambda a, b: False, budget=6)
    assert rep.ok and rep.cases_checked == 6


def test_run_check_reports_the_first_violation_position():
    seqs = materialize_carrier(CarrierKind.SEQ, U23)

    def violates(xs):
        return len(xs) == 3

    rep = run_check("len3", [(("xs",), seqs)], violates)
    assert rep == run_check("len3", [(("xs",), seqs)], violates)
    assert rep.cases_checked == 8


def _product_loop(axes, violates):
    """The plain reference: every case of the axes' product in order, up to
    and including the first violation."""
    return first_violation(
        (violates(*case),
         sum((flat(names, v) for (names, _), v in zip(axes, case)), ()))
        for case in itertools.product(*(vals for _, vals in axes)))


def _random_axes(rng):
    """One to four axes of up to four values; an axis may be empty or hold
    composite values under several names."""
    axes = []
    for a in range(rng.randint(1, 4)):
        size = rng.choice((0, 1, 2, 3, 4, 4, 4))
        if rng.random() < 0.3:
            vals = [(a, i, -i) for i in range(size)]
            axes.append(((f"u{a}", f"v{a}", f"w{a}"), vals))
        else:
            axes.append(((f"a{a}",), [(a, i) for i in range(size)]))
    return axes


def test_run_check_agrees_with_a_product_loop():
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        axes = _random_axes(rng)
        cases = list(itertools.product(*(vals for _, vals in axes)))
        bad = {c for c in cases if rng.random() < rng.choice((0, 0.02, 0.3))}
        calls = []

        def violates(*case):
            calls.append(case)
            return case in bad

        rep = run_check("random", axes, violates)
        outcome = (rep.verdict, rep.cases_checked, rep.counterexample)
        assert outcome == _product_loop(axes, lambda *c: c in bad), seed
        # the cost follows the answer: one call per case checked, in order
        assert calls == cases[:rep.cases_checked], seed
        seen.add(rep.verdict)
        seen.add(len(axes))
        seen |= {"composite" for names, _ in axes if len(names) > 1}
        seen |= {"empty" for _, vals in axes if not vals}
    assert seen == {"pass", "fail", 1, 2, 3, 4, "composite", "empty"}


# --- split specifications --------------------------------------------------


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_all_specs_pass(name):
    rep = check_easy_hard(name, U23)
    assert rep.ok, rep


def test_spec_case_counts_are_frozen():
    assert check_easy_hard("takeWhile", Universe(2, 4)).cases_checked == 3844
    assert check_easy_hard("dropWhile", Universe(2, 5)).cases_checked == 8064
    assert check_easy_hard("zip", Universe(2, 2)).cases_checked == 1029


@pytest.mark.parametrize("check,name,u,small,total", [
    (check_easy_hard, "takeWhile", Universe(2, 4), 1000, 3844),
    (check_canonical_gc, "takeWhile", Universe(2, 4), 1000, 1302),
    (check_easy_hard, "dropWhile", Universe(2, 5), 5000, 8064),
    (partial(check_cancellation, side="left"), "takeWhile", Universe(2, 4),
     40, 124),
    (partial(check_cancellation, side="right"), "takeWhile", Universe(2, 4),
     40, 42),
    (check_semi_inverse, "takeWhile", Universe(2, 4), 40, 166),
    # the collision scan and the inverse check, 42 cases each
    (check_injective_adjoint, "takeWhile", Universe(2, 4), 40, 84),
])
def test_spec_and_gc_budget_the_whole_check(check, name, u, small, total):
    # one part per predicate, but the budget covers all of them, upfront
    for budget in (small, total - 1):
        with pytest.raises(UniverseTooLargeError) as exc:
            check(name, u, budget=budget)
        assert exc.value.projected == total
    rep = check(name, u, budget=total)
    assert rep.ok and rep.cases_checked == total


def test_negative_take_count_is_refused_before_any_work():
    with pytest.raises(ValueError, match="take count must be non-negative"):
        check_easy_hard("take", U23, n=-1, budget=0)


def test_spec_catches_broken_take_while():
    rep = check_easy_hard("takeWhile", Universe(1, 1), pred=Pred(0, 1),
                          hard_fn=lambda p, xs: xs)
    assert rep.verdict == "fail"
    assert rep.cases_checked == 4
    assert rep.counterexample == (
        ("p", Pred(0, 1)), ("xs", (0,)), ("ys", (0,)))


def test_spec_catches_broken_take_at_one_count():
    rep = check_easy_hard("take", U23, n=2,
                          hard_fn=lambda n, xs: xs[:n + 1])
    assert rep.verdict == "fail"
    assert rep.cases_checked == 113
    assert rep.counterexample == (
        ("n", 2), ("xs", (0, 0, 0)), ("ys", (0, 0, 0)))


def test_spec_catches_broken_drop_while():
    rep = check_easy_hard("dropWhile", Universe(2, 2),
                          hard_fn=lambda p, l: ())
    assert rep.verdict == "fail"
    assert rep.cases_checked == 9
    assert rep.counterexample == (
        ("p", Pred(0, 2)), ("l", (0,)), ("z", (0,)))


def test_specs_agree_with_oracle_as_hard_side():
    u = U23
    wrappers = {
        "takeWhile": lambda p, xs: oracle_spec("takeWhile", u, xs=xs, pred=p),
        "filter": lambda p, xs: oracle_spec("filter", u, xs=xs, pred=p),
        "dropWhile": lambda p, l: oracle_spec("dropWhile", u, xs=l, pred=p),
        "take": lambda n, xs: oracle_spec("take", u, xs=xs, n=n),
    }
    for name, fn in wrappers.items():
        assert check_easy_hard(name, u, hard_fn=fn).ok

    uz = Universe(2, 2)
    rep = check_easy_hard(
        "zip", uz, hard_fn=lambda xs, ys: oracle_spec("zip", uz, xs=xs, ys=ys))
    assert rep.ok


def test_spec_unknown_name():
    with pytest.raises(ValueError):
        check_easy_hard("reverse", U23)


@pytest.mark.parametrize("name,hard,verdict,cases,witness", [
    ("takeWhile", lambda p, xs: list(take_while(p, xs)), "pass", 900, None),
    ("take", lambda n, xs: list(take_n(n, xs)), "pass", 1125, None),
    ("zip", lambda xs, ys: [list(z) for z in zip_pair(xs, ys)], "fail", 1362,
     (("xs", (0,)), ("ys", (0,)), ("zs", ((0, 0),)))),
    ("dropWhile", lambda p, l: list(drop_while(p, l)), "pass", 480, None),
])
def test_unhashable_upper_images_keep_the_verdict(name, hard, verdict, cases,
                                                  witness):
    # list images cannot key the per-image row memo; each row evaluates its
    # own, with the report an unmemoized scan gives
    rep = check_easy_hard(name, U23, hard_fn=hard)
    assert (rep.verdict, rep.cases_checked, rep.counterexample) == (
        verdict, cases, witness)


def _counting(order, calls, key):
    def leq(a, b):
        calls[key] += 1
        return order.leq(a, b)
    return dataclasses.replace(order, leq=leq)


def test_right_rows_are_shared_across_equal_upper_images():
    calls = {"a": 0, "b": 0}
    [(_, gc)] = build_gcs("zip", U23)
    gc = dataclasses.replace(gc, order_a=_counting(gc.order_a, calls, "a"),
                             order_b=_counting(gc.order_b, calls, "b"))
    rep = check_gc_instance(gc)
    assert rep.ok and rep.cases_checked == 19125
    # every case on the left, one right-hand row per image: 85 images x 85 ys
    assert calls == {"a": 19125, "b": 85 * 85}


def test_componentwise_left_rows_are_kept_per_component_value():
    calls = {"xs": 0, "ys": 0, "b": 0}

    def counting(key):
        def leq(a, b):
            calls[key] += 1
            return is_prefix(a, b)
        return leq
    [(_, gc)] = build_gcs("zip", U23)
    order_a = dataclasses.replace(gc.order_a, leq=componentwise(
        counting("xs"), counting("ys"), name="counted"))
    gc = dataclasses.replace(gc, order_a=order_a,
                             order_b=_counting(gc.order_b, calls, "b"))
    rep = check_gc_instance(gc)
    assert rep.ok and rep.cases_checked == 19125
    # one row per distinct xs and per distinct ys (15 each), over the 15
    # distinct components among the 85 candidates' unzipped lows
    assert calls == {"xs": 15 * 15, "ys": 15 * 15, "b": 85 * 85}


def test_takes_count_factor_runs_once_per_distinct_length():
    calls = {"n": 0, "xs": 0}

    def counting(key, leq):
        def counted(a, b):
            calls[key] += 1
            return leq(a, b)
        return counted
    [(_, gc)] = build_gcs("take", U23)
    gc = dataclasses.replace(gc, order_a=dataclasses.replace(
        gc.order_a, leq=componentwise(counting("n", operator.le),
                                      counting("xs", is_prefix), name="c")))
    assert check_gc_instance(gc).cases_checked == 1125
    # 5 counts (0..4) against the 4 lengths of the 15 candidates; the
    # sequence factor's 15 lows are all distinct, one call each per xs
    assert calls == {"n": 5 * 4, "xs": 15 * 15}


def test_words_left_side_runs_once_per_distinct_joined_low():
    calls = {"a": 0, "b": 0}
    [(_, gc)] = build_gcs("words-unwords", U23)
    gc = dataclasses.replace(gc, order_a=_counting(gc.order_a, calls, "a"),
                             order_b=_counting(gc.order_b, calls, "b"))
    rep = check_gc_instance(gc)
    assert rep.verdict == "fail" and rep.cases_checked == 2
    # x = () is the one row read: its 14 word lists join to 7 sequences
    assert len(set(map(gc.lower, gc.y_axis[1]))) == 7
    assert calls == {"a": 7, "b": 14}


def _loose_prefix(a, b):
    # 0 and 1 are flags too; lists compare by their elements
    return int(is_prefix(tuple(a), tuple(b)))


SEQS = materialize_carrier(CarrierKind.SEQ, U23)
ROW_LOWS = {
    "repeats": [s[1:] for s in SEQS],
    "distinct": SEQS[::-1],
    "unhashable": [list(s[1:]) for s in SEQS],
}


def _flags(leq, lows, x):
    """x's row as the relation mapped over every low: bit i for low i."""
    flags = map(leq, lows, itertools.repeat(x))
    return sum(1 << i for i, f in enumerate(flags) if f)


def _always(a, b):
    return True


@pytest.mark.parametrize("leq", [is_prefix, _loose_prefix, _always])
@pytest.mark.parametrize("lows", [*ROW_LOWS.values(), []],
                         ids=[*ROW_LOWS, "empty"])
def test_a_row_is_the_relation_mapped_over_every_low(leq, lows):
    row = connections._row_of(leq, lows)
    for x in SEQS:
        assert row(x) == _flags(leq, lows, x), x


SEQS34 = materialize_carrier(CarrierKind.SEQ, Universe(3, 4))
SUFFIX_ROWS = {  # lows, points
    "every-pair": (SEQS34, SEQS34),
    "empty": ([], SEQS),
    # every low ends every point: every flag is set
    "every-flag": ([()] * 9, SEQS),
    "repeats": ([s[1:] for s in SEQS34], SEQS34),
    # True == 1 == 1.0, and equal lows of other types share one mask
    "bool-float": ([(True,), (1,), (1.0,), (), (0, True), (0.0, 1)],
                   [(True,), (1,), (1.0,), (0, 1), (False, 1.0), (1, 1)]),
    "nested": ([(), ((1,),), ((0,), (1,)), ((0, 1),), (((),),)],
               [((0,), (1,)), ((1,), (0,), (1,)), ((0, 1),), (((),),), ()]),
    # an unhashable low or point, and a hashable one that is not a tuple
    # (a range equals no tuple, yet matches one element by element), take
    # the map path
    "list-low": ([(), [1], (0, 1), [0, 1]], SEQS),
    "list-x": (SEQS, [list(s) for s in SEQS] + [((0,), [1])]),
    "range-low": ([(), range(2), (0, 1), range(1, 2)], SEQS),
    "range-x": (SEQS, [range(2), range(1, 2), range(0)]),
}


@pytest.mark.parametrize("lows,xs", SUFFIX_ROWS.values(), ids=SUFFIX_ROWS)
def test_a_suffix_row_is_is_suffix_mapped_over_every_low(lows, xs):
    row = connections._row_of(is_suffix, lows)
    for x in xs:
        assert row(x) == _flags(is_suffix, lows, x), x


def test_a_row_form_stands_in_for_every_call_on_tuples():
    # a tuple x against tuple lows is read from the below-generator alone;
    # the map path still runs for a list x
    def refused(a, b):
        raise AssertionError((a, b))
    refused.below = is_suffix.below
    row = connections._row_of(refused, SEQS)
    assert row((0, 1)) == connections._row_of(is_suffix, SEQS)((0, 1))
    with pytest.raises(AssertionError):
        row([0, 1])


@pytest.mark.parametrize("lows", ROW_LOWS.values(), ids=ROW_LOWS)
def test_a_non_bool_names_the_first_bad_low_in_lows_order(lows):
    # lows that end in 1 are bad; the first of them is (1,), wherever its
    # value first repeats
    def bad_on_1(a, b):
        return None if a[-1:] in ((1,), [1]) else is_prefix(a, b)
    first = next(low for low in lows if low[-1:] in ((1,), [1]))
    row = connections._row_of(bad_on_1, lows)
    message = (f"relation bad_on_1 returned None for ({first!r}, (0, 1, 1))"
               f"; it must return a bool")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        row((0, 1, 1))


def test_unhashable_components_keep_the_report():
    # list components cannot key the per-component row memo; each row
    # evaluates its own, with the report the per-case relation gives
    [(_, gc)] = build_gcs("zip", U23)
    xs = [(list(a), list(b)) for a, b in gc.x_axis[1]]
    gc = dataclasses.replace(gc, x_axis=(gc.x_axis[0], xs),
                             upper=lambda v: zip_pair(*v)[:-1])
    plain = dataclasses.replace(gc, order_a=dataclasses.replace(
        gc.order_a, leq=lambda a, b: gc.order_a.leq(a, b)))
    rep = check_gc_instance(gc)
    assert rep.verdict == "fail" and rep == check_gc_instance(plain)


def _raising(message):
    def leq(a, b):
        raise ValueError(message)
    return leq


def test_a_case_reads_its_right_row_before_its_left_row():
    # both sides are broken, each with its own error: a case reads its
    # image's right row first, so the right side's error is the one shown
    [(_, gc)] = build_gcs("take", Universe(2, 2))
    gc = dataclasses.replace(
        gc, order_a=dataclasses.replace(gc.order_a, leq=componentwise(
            _raising("left count"), is_prefix, name="broken_count")),
        order_b=dataclasses.replace(gc.order_b, leq=_raising("right side")))
    with pytest.raises(ValueError, match="^right side$"):
        check_gc_instance(gc)


@pytest.mark.parametrize("image", [tuple, list], ids=["kept", "unhashable"])
def test_a_broken_relations_error_carries_no_lookup_context(image):
    # a row is evaluated after the memo's lookup has failed, not inside its
    # handler, so the relation's own error is not chained to a KeyError
    # (a new image) or a TypeError (an image that cannot key the memo)
    [(_, gc)] = build_gcs("take", Universe(2, 2))
    gc = dataclasses.replace(
        gc, upper=lambda v: image(take_n(*v)),
        order_b=dataclasses.replace(gc.order_b, leq=_raising("right side")))
    with pytest.raises(ValueError, match="^right side$") as exc:
        check_gc_instance(gc)
    assert exc.value.__context__ is None


def test_every_predicate_of_a_spec_shares_one_row_per_point(monkeypatch):
    for name, order in (("filter", "sublist"), ("takeWhile", "prefix")):
        calls = {order: 0}
        spec = TARGETS[name]
        monkeypatch.setitem(TARGETS, name, dataclasses.replace(
            spec, order=_counting(spec.order, calls, order)))
        rep = check_easy_hard(name, U23)
        assert rep.ok and rep.cases_checked == 900
        # the four predicates scan one candidate list under one relation,
        # so they read one right-row function, and x's left row is the
        # right row of the point x: each of the 15 candidates meets each
        # of the 15 points once (225)
        assert calls[order] == 225, name


@pytest.mark.parametrize("check", [check_easy_hard, check_canonical_gc])
@pytest.mark.parametrize("name", ["takeWhile", "filter", "dropWhile"])
def test_no_candidate_meets_a_point_twice(monkeypatch, check, name):
    # lower is the identity and both sides share one order, so the left
    # and right rows of a point are one row, evaluated once per check; a
    # spec whose candidates range over the whole carrier shares that row
    # across all its predicates too
    spec = TARGETS[name]
    preds = [Pred(mask, 2) for mask in range(4)]
    if check is check_easy_hard and not spec.feasible_only:
        preds.append(None)
    for pred in preds:
        seen = collections.Counter()

        def leq(a, b, seen=seen):
            seen[a, b] += 1
            return spec.order.leq(a, b)
        monkeypatch.setitem(TARGETS, name, dataclasses.replace(
            spec, order=dataclasses.replace(spec.order, leq=leq)))
        assert check(name, U23, pred=pred).ok
        assert max(seen.values()) == 1, (pred, seen.most_common(1))


@pytest.mark.parametrize("pred", [Pred(1, 2), None], ids=["p1", "every-p"])
def test_the_easy_set_is_read_by_each_flags_truth_value(monkeypatch, pred):
    # an easy condition returning 2 for true must set candidate i's bit
    # of the mask alone, not bit i + 1, candidate i + 1's bit
    plain = check_easy_hard("takeWhile", U23, pred=pred)
    t = TARGETS["takeWhile"]
    monkeypatch.setitem(TARGETS, "takeWhile", dataclasses.replace(
        t, easy=lambda p, ys: 2 if t.easy(p, ys) else 0))
    assert plain.ok and check_easy_hard("takeWhile", U23, pred=pred) == plain


INAPPLICABLE = [
    (check_easy_hard, "filter", {"n": 3},
     "a count does not apply to 'filter'"),
    (check_easy_hard, "zip", {"n": 1}, "a count does not apply to 'zip'"),
    (check_easy_hard, "take", {"pred": Pred(1, 2)},
     "a predicate does not apply to 'take'"),
    (check_easy_hard, "zip", {"pred": Pred(1, 2)},
     "a predicate does not apply to 'zip'"),
    (check_canonical_gc, "words-unwords", {"pred": Pred(1, 2)},
     "a predicate does not apply to 'words-unwords'"),
    # a value of the wrong type is refused by its kind's check, and a kind
    # that does not apply is refused whatever the value's type
    (check_easy_hard, "takeWhile", {"pred": 1}, "pred=1 is not a Pred"),
    (check_canonical_gc, "filter", {"pred": (1, 2)},
     "pred=(1, 2) is not a Pred"),
    (check_easy_hard, "take", {"n": 1.5}, "n=1.5 is not an int"),
    (check_easy_hard, "take", {"n": "2"}, "n='2' is not an int"),
    (check_easy_hard, "filter", {"n": "2"},
     "a count does not apply to 'filter'"),
    (check_easy_hard, "take", {"n": True}, "n=True is not an int"),
]


@pytest.mark.parametrize("check,name,kw,message", INAPPLICABLE, ids=[
    f"{check.__name__}-{name}-kw{i}"
    for i, (check, name, *_) in enumerate(INAPPLICABLE)])
def test_parameters_that_do_not_apply_are_refused(check, name, kw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(name, Universe(2, 2), **kw)


def _no_carrier(*args):
    raise AssertionError("a carrier was built before the refusal")


# (call, the predicate's alphabet, the universe's alphabet); the last call
# also gives a count that does not apply, and the predicate is named first
@pytest.mark.parametrize("call,pred_k,u_k", [
    (lambda: check_easy_hard("filter", Universe(3, 2), pred=Pred(1, 2)),
     2, 3),
    (lambda: check_easy_hard("filter", Universe(2, 3), pred=Pred(1, 3)),
     3, 2),
    (lambda: check_canonical_gc("takeWhile", Universe(2, 3),
                                pred=Pred(1, 3)), 3, 2),
    (lambda: build_gcs("dropWhile", Universe(3, 2), Pred(1, 2)), 2, 3),
    (lambda: oracle_spec("filter", Universe(2, 3), xs=(0, 1),
                         pred=Pred(1, 3)), 3, 2),
    (lambda: check_easy_hard("filter", Universe(2, 3), pred=Pred(1, 3), n=2),
     3, 2),
], ids=["spec-narrower", "spec-wider", "gc", "build-gcs", "oracle",
        "spec-and-count"])
def test_a_predicate_over_another_alphabet_is_refused_upfront(
        monkeypatch, call, pred_k, u_k):
    monkeypatch.setattr(connections, "materialize_carrier", _no_carrier)
    monkeypatch.setattr(oracle, "enumerate_carrier", _no_carrier)
    with pytest.raises(ValueError, match=f"^predicate over alphabet {pred_k} "
                       f"does not match universe alphabet {u_k}$"):
        call()


def test_a_check_builds_only_the_carriers_its_axes_scan(monkeypatch):
    # zip's axes range over sequence pairs and pair sequences, so no plain
    # sequence carrier is built
    asked = []
    build = connections.materialize_carrier

    def recorded(kind, u):
        asked.append(kind)
        return build(kind, u)
    monkeypatch.setattr(connections, "materialize_carrier", recorded)
    assert check_easy_hard("zip", Universe(2, 2)).ok
    assert asked == [CarrierKind.SEQ_PAIR, CarrierKind.PAIR_SEQ]


def test_one_row_reaches_every_reader(monkeypatch, capsys):
    all_true = Pred(0b11, 2)
    assert check_canonical_gc("takeWhile", U23).cases_checked == 360
    assert oracle_spec("takeWhile", U23, xs=(0, 0, 1), pred=all_true) == (
        0, 0, 1)
    # takeWhile's easy set cut to length at most 1, in its one row
    monkeypatch.setitem(TARGETS, "takeWhile", dataclasses.replace(
        TARGETS["takeWhile"], easy=lambda p, y: len(y) <= 1
        and all_satisfy(p, y)))
    rep = check_easy_hard("takeWhile", U23)
    assert (rep.verdict, rep.cases_checked, rep.counterexample) == (
        "fail", 274, (("p", Pred(0b01, 2)), ("xs", (0, 0)), ("ys", (0, 0))))
    # the y axis is the easy set: 8 candidates over the 4 predicates
    gc = check_canonical_gc("takeWhile", U23)
    assert (gc.verdict, gc.cases_checked) == ("pass", 120)
    assert oracle_spec("takeWhile", U23, xs=(0, 0, 1), pred=all_true) == (0,)
    assert cli.main(["check-spec", "--target", "takeWhile",
                     "--max-len", "3"]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_target_names_split_into_specs_and_pairs():
    assert not set(SPEC_NAMES) & set(PAIR_NAMES)
    assert sorted(SPEC_NAMES + PAIR_NAMES) == list(GC_TARGETS)
    assert set(GC_TARGETS) == set(TARGETS)


# --- adjunction candidates -------------------------------------------------


def test_identity_adjunction_passes():
    seqs = materialize_carrier(CarrierKind.SEQ, U23)
    gc = CanonicalGC("identity", lambda y: y, lambda x: x, PREFIX, PREFIX,
                     (("x",), seqs), (("y",), seqs))
    rep = check_gc_instance(gc)
    assert rep.ok and rep.cases_checked == 225


def test_gc_verdict_split_between_combinators_and_splitters():
    passing = {n for n in GC_TARGETS if check_canonical_gc(n, U23).ok}
    assert passing == set(SPEC_NAMES)


def test_gc_consequences_follow_where_gc_holds():
    for name in SPEC_NAMES:
        assert check_cancellation(name, U23, "left").ok
        assert check_cancellation(name, U23, "right").ok
        assert check_semi_inverse(name, U23).ok


def test_cancellation_side_is_validated():
    with pytest.raises(ValueError):
        check_cancellation("take", U23, "up")


def test_adjoint_maps_are_monotone():
    for name in SPEC_NAMES:
        for _, gc in build_gcs(name, U23):
            xs_vals, ys_vals = gc.x_axis[1], gc.y_axis[1]
            leq_a, leq_b = gc.order_a.leq, gc.order_b.leq
            ups = {x: gc.upper(x) for x in xs_vals}
            lows = {y: gc.lower(y) for y in ys_vals}
            for x1 in xs_vals:
                for x2 in xs_vals:
                    if leq_a(x1, x2):
                        assert leq_b(ups[x1], ups[x2]), (name, x1, x2)
            for y1 in ys_vals:
                for y2 in ys_vals:
                    if leq_b(y1, y2):
                        assert leq_a(lows[y1], lows[y2]), (name, y1, y2)


def test_words_gc_fails_with_frozen_witness():
    rep = check_canonical_gc("words-unwords", U26)
    assert rep.verdict == "fail"
    assert rep.cases_checked == 2
    assert rep.counterexample == (("xs", ()), ("ws", ((),)))


def test_lines_gc_fails_with_frozen_witness():
    rep = check_canonical_gc("lines-unlines", U26)
    assert rep.verdict == "fail"
    assert rep.cases_checked == 367
    assert rep.counterexample == (("xs", (0,)), ("ws", ((),)))


def test_gc_counterexamples_self_validate():
    for name, join in (("words-unwords", unwords_join),
                       ("lines-unlines", unlines_join)):
        rep = check_canonical_gc(name, U26)
        env = dict(rep.counterexample)
        _, gc = build_gcs(name, U26)[0]
        lhs = gc.order_a.leq(join(env["ws"]), env["xs"])
        rhs = gc.order_b.leq(env["ws"], gc.upper(env["xs"]))
        assert lhs != rhs


def test_semi_inverse_fails_for_words():
    rep = check_semi_inverse("words-unwords", U26)
    assert rep.verdict == "fail"
    assert rep.cases_checked == 130
    assert rep.counterexample == (
        ("equation", "f.g.f = f"), ("ws", ((), ())))


def test_injective_adjoint_not_applicable_for_words():
    rep = check_injective_adjoint("words-unwords", U26)
    assert rep.verdict == "not-applicable"
    assert rep.cases_checked == 2
    assert rep.counterexample == (("y1", ()), ("y2", ((),)), ("f_y", ()))


def test_injective_adjoint_passes_for_take():
    assert check_injective_adjoint("take", U23).ok


# --- refutation search -----------------------------------------------------


def test_non_gc_words_witness():
    rep = find_non_gc_counterexample("words-unwords", U26)
    assert rep.verdict == "fail"
    assert rep.cases_checked == 3
    assert rep.counterexample == (
        ("ws", ((), ())), ("joined", (0,)), ("resplit", ()),
        ("rejoined", ()))


def test_non_gc_lines_witness():
    rep = find_non_gc_counterexample("lines-unlines", U26)
    assert rep.verdict == "fail"
    assert rep.cases_checked == 2
    assert rep.counterexample == (
        ("ws", ((),)), ("joined", (0,)), ("resplit", ()), ("rejoined", ()))


def test_non_gc_witnesses_self_validate():
    for name, join in (("words-unwords", unwords_join),
                       ("lines-unlines", unlines_join)):
        env = dict(find_non_gc_counterexample(name, U26).counterexample)
        assert join(env["ws"]) == env["joined"]
        assert join(env["resplit"]) == env["rejoined"]
        assert env["rejoined"] != env["joined"]


def test_non_gc_budget_boundary_is_the_word_list_count():
    # Universe(2, 4) holds 41 word lists
    u = Universe(2, 4)
    with pytest.raises(UniverseTooLargeError) as exc:
        find_non_gc_counterexample("words-unwords", u, budget=40)
    assert (exc.value.projected, exc.value.budget, exc.value.context) == (
        41, 40, "non-gc:words-unwords")
    rep = find_non_gc_counterexample("words-unwords", u, budget=41)
    assert (rep.cases_checked, rep.counterexample[0]) == (3, ("ws", ((), ())))


def test_non_gc_search_can_come_up_empty():
    with pytest.raises(WitnessNotFoundError, match="all 1 word"):
        find_non_gc_counterexample("words-unwords", Universe(2, 0))
    with pytest.raises(ValueError):
        find_non_gc_counterexample("take", U26)


# --- equational consequences -----------------------------------------------


def test_idempotent_and_applicability():
    rep = check_idempotent("takeWhile", Universe(2, 4))
    assert rep.ok and rep.cases_checked == 124
    with pytest.raises(ValueError):
        check_idempotent("zip", Universe(2, 4))


def test_fusion_case_count():
    rep = check_fusion(Universe(2, 4))
    assert rep.ok and rep.cases_checked == 992


def test_split_append_case_count():
    rep = check_split_append(Universe(2, 5))
    assert rep.ok and rep.cases_checked == 252


def test_indirect_equality_prefix_and_sublist():
    for order_name in ("prefix", "sublist"):
        rep = check_indirect_equality(order_name, Universe(2, 4))
        assert rep.ok and rep.cases_checked == 961
    with pytest.raises(UniverseTooLargeError):
        check_indirect_equality("prefix", Universe(2, 4), budget=1000)


def test_indirect_equality_reads_one_row_per_element(monkeypatch):
    calls = {"prefix": 0}
    monkeypatch.setitem(ORDERS, "prefix",
                        _counting(ORDERS["prefix"], calls, "prefix"))
    assert check_indirect_equality("prefix", U23).ok
    # one down-set row per sequence, over all 15 sequences: 15 x 15
    assert calls == {"prefix": 225}


def test_indirect_equality_refuses_a_relation_that_is_not_a_bool(
        monkeypatch):
    monkeypatch.setitem(ORDERS, "prefix", dataclasses.replace(
        ORDERS["prefix"], leq=lambda a, b: None))
    with pytest.raises(ValueError, match="must return a bool"):
        check_indirect_equality("prefix", U23)


def _two_or_zero(a, b):
    return 2 if is_prefix(a, b) else 0


def _with_prefix_leq(monkeypatch, leq):
    """Prefix, and takeWhile's order, read through ``leq``."""
    monkeypatch.setitem(ORDERS, "prefix", dataclasses.replace(
        ORDERS["prefix"], leq=leq))
    t = TARGETS["takeWhile"]
    monkeypatch.setitem(TARGETS, "takeWhile", dataclasses.replace(
        t, order=dataclasses.replace(t.order, leq=leq)))


LAWS_ON_PREFIX = {
    "order-laws": lambda: order_laws_report("prefix", U23)[0],
    "cancellation-left": lambda: check_cancellation("takeWhile", U23, "left"),
    "cancellation-right":
        lambda: check_cancellation("takeWhile", U23, "right"),
    "spec": lambda: check_easy_hard("takeWhile", U23),
    "gc": lambda: check_canonical_gc("takeWhile", U23),
    "indirect-equality": lambda: check_indirect_equality("prefix", U23),
    "oracle": lambda: oracle_spec("takeWhile", U23, xs=(), pred=Pred(1, 2)),
}


@pytest.mark.parametrize("law", LAWS_ON_PREFIX)
def test_the_laws_refuse_a_relation_that_is_not_a_bool(monkeypatch, law):
    # the first evaluation of each law is prefix at ((), ())
    _with_prefix_leq(monkeypatch, _two_or_zero)
    message = ("relation _two_or_zero returned 2 for ((), ()); it must "
               "return a bool")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LAWS_ON_PREFIX[law]()


@pytest.mark.parametrize("law", LAWS_ON_PREFIX)
def test_the_laws_take_0_and_1_as_flags(monkeypatch, law):
    # the oracle's result is a tuple, not a report
    plain = LAWS_ON_PREFIX[law]()
    _with_prefix_leq(monkeypatch, lambda a, b: int(is_prefix(a, b)))
    assert (plain == () if law == "oracle" else plain.ok)
    assert LAWS_ON_PREFIX[law]() == plain


# --- the law battery -------------------------------------------------------


def test_order_laws_report_carries_least_element():
    rep, least = order_laws_report("prefix", U23)
    assert rep.ok and least == ()
    assert rep.law_name == "order-laws:prefix"


@pytest.mark.parametrize("law,total,cases", [
    ("idempotent", 372, 372),
    ("cancellation-left", 1519, 1519),
    ("cancellation-right", 520, 520),
    ("semi-inverse", 2039, 2039),
    ("injective-adjoint", 1040, 1040),
    ("gc", 338055, 338055),
    # a case compares two down-sets over all 31 sequences: 31 evaluations
    ("indirect-equality", 59582, 1922),
    ("fusion", 992, 992),
    ("split-append", 124, 124),
])
def test_check_law_budgets_the_whole_law(law, total, cases):
    # every target's parts count against one budget, checked upfront
    u = Universe(2, 4)
    with pytest.raises(UniverseTooLargeError) as exc:
        check_law(law, u, budget=total - 1)
    assert (exc.value.projected, exc.value.context) == (total, law)
    rep = check_law(law, u, budget=total)
    assert rep.ok and rep.cases_checked == cases


def test_check_law_dispatch():
    u = U23
    assert check_law("order-laws", u).ok
    assert check_law("gc", u).ok
    assert check_law("semi-inverse", u).ok
    assert check_law("idempotent", u).ok
    assert check_law("split-append", u).ok
    with pytest.raises(ValueError):
        check_law("associativity", u)


# every library entry point that takes a name refuses an unknown one alike
UNKNOWN_NAMES = [
    (check_easy_hard, "reverse", "combinator"),
    (check_easy_hard, "lines-unlines", "combinator"),
    (partial(oracle_spec, xs=()), "reverse", "combinator"),
    (check_canonical_gc, "reverse", "adjoint pair target"),
    (build_gcs, "reverse", "adjoint pair target"),
    (partial(check_cancellation, side="left"), "reverse",
     "adjoint pair target"),
    (check_semi_inverse, "reverse", "adjoint pair target"),
    (check_injective_adjoint, "reverse", "adjoint pair target"),
    (check_idempotent, "reverse", "combinator"),
    (find_non_gc_counterexample, "take", "splitter/joiner pair"),
    (check_law, "associativity", "law"),
    (order_laws_report, "nope", "ordering"),
    (check_indirect_equality, "nope", "ordering"),
]


@pytest.mark.parametrize("entry,name,noun", UNKNOWN_NAMES,
                         ids=[f"{getattr(e, 'func', e).__name__}-{n}"
                              for e, n, _ in UNKNOWN_NAMES])
def test_unknown_names_are_refused_alike(entry, name, noun):
    with pytest.raises(ValueError) as exc:
        entry(name, U23)
    assert str(exc.value) == f"unknown {noun} {name!r}"


def test_reports_do_not_depend_on_worker_count():
    passing = check_easy_hard("takeWhile", U23)
    assert passing == check_easy_hard("takeWhile", U23, workers=4)
    failing = check_canonical_gc("words-unwords", U26)
    assert failing == check_canonical_gc("words-unwords", U26)
