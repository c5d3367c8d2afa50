"""The exhaustive checking engine: split specifications, adjunction
candidates and their consequences, refutation search, and the law battery."""

import dataclasses
import itertools
import random
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
from galoischeck.connections import SPECS
from galoischeck.core import CarrierKind, materialize_carrier
from galoischeck.orders import PREFIX

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
    n = 0
    for case in itertools.product(*(vals for _, vals in axes)):
        n += 1
        if violates(*case):
            bindings = []
            for (names, _), val in zip(axes, case):
                bindings += (zip(names, val) if len(names) > 1
                             else [(names[0], val)])
            return "fail", n, tuple(bindings)
    return "pass", n, None


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


def test_left_side_runs_on_easy_candidates_only(monkeypatch):
    calls = {"sublist": 0}
    spec = SPECS["filter"]
    monkeypatch.setitem(SPECS, "filter", dataclasses.replace(
        spec, order=_counting(spec.order, calls, "sublist")))
    rep = check_easy_hard("filter", U23)
    assert rep.ok and rep.cases_checked == 900
    # 24 easy candidates against 15 inputs, 24 images against 15 candidates
    assert calls["sublist"] == 720


@pytest.mark.parametrize("check,name,kw", [
    (check_easy_hard, "filter", {"n": 3}),
    (check_easy_hard, "zip", {"n": 1}),
    (check_easy_hard, "take", {"pred": Pred(1, 2)}),
    (check_easy_hard, "zip", {"pred": Pred(1, 2)}),
    (check_canonical_gc, "words-unwords", {"pred": Pred(1, 2)}),
])
def test_parameters_that_do_not_apply_are_refused(check, name, kw):
    with pytest.raises(ValueError, match="does not apply to"):
        check(name, Universe(2, 2), **kw)


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


def test_reports_do_not_depend_on_worker_count():
    passing = check_easy_hard("takeWhile", U23)
    assert passing == check_easy_hard("takeWhile", U23, workers=4)
    failing = check_canonical_gc("words-unwords", U26)
    assert failing == check_canonical_gc("words-unwords", U26)
