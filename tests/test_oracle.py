"""The search-based reference oracle: greatest feasible candidate under an
order, checked against frozen examples and the direct implementations."""

import itertools
import re

import pytest

from galoischeck import (
    EmptyCandidatesError,
    NoGreatestError,
    Pred,
    Universe,
    all_satisfy,
    best_under,
    candidates_below,
    drop_while,
    enum_preds,
    enum_seqs,
    filter_p,
    oracle_spec,
    take_n,
    take_while,
    zip_pair,
)
from galoischeck.orders import PREFIX, SUBLIST

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


def test_best_under_picks_greatest_feasible():
    def all_even(c):
        return all_satisfy(EVEN, c)
    assert best_under(PREFIX, all_even, "every element even",
                      (2, 4, 5), U6) == (2, 4)

    def all_odd(c):
        return all_satisfy(ODD, c)
    assert best_under(SUBLIST, all_odd, "every element odd",
                      (2, 4, 5), U6) == (5,)

    assert best_under(PREFIX, all_even, "every element even", (), U6) == ()


def test_best_under_empty_feasible_set():
    with pytest.raises(EmptyCandidatesError, match="nothing qualifies"):
        best_under(PREFIX, lambda c: False, "nothing qualifies",
                   (2, 4, 5), U6)


def test_best_under_reports_incomparable_maxima():
    with pytest.raises(NoGreatestError, match="exactly one element") as info:
        best_under(SUBLIST, lambda c: len(c) == 1, "exactly one element",
                   (2, 4), U6)
    assert set(info.value.maxima) == {(2,), (4,)}


def test_oracle_spec_examples():
    assert oracle_spec("takeWhile", U6, xs=(2, 4, 5), pred=EVEN) == (2, 4)
    assert oracle_spec("take", U6, xs=(2, 4, 5), n=2) == (2, 4)
    assert oracle_spec("filter", U6, xs=(2, 4, 5), pred=ODD) == (5,)
    assert oracle_spec("dropWhile", U6, xs=(2, 4, 5), pred=EVEN) == (5,)
    assert oracle_spec("zip", U6, xs=(1, 2, 3), ys=(4, 5)) == ((1, 4), (2, 5))


def test_oracle_spec_argument_validation():
    with pytest.raises(ValueError):
        oracle_spec("takeWhile", U6, xs=(2,))
    with pytest.raises(ValueError):
        oracle_spec("take", U6, xs=(2,))
    with pytest.raises(ValueError):
        oracle_spec("zip", U6, xs=(2,))
    with pytest.raises(ValueError):
        oracle_spec("reverse", U6, xs=(2,))


@pytest.mark.parametrize("name,kw", [
    ("zip", {"ys": (1,), "n": 1}),
    ("filter", {"pred": Pred(1, 2), "n": -3, "ys": (1,)}),
    ("filter", {"pred": Pred(1, 2), "ys": (1,)}),
    ("take", {"n": 1, "pred": Pred(1, 2)}),
    ("zip", {"ys": (1,), "pred": Pred(1, 2)}),
])
def test_oracle_refuses_parameters_that_do_not_apply(name, kw):
    with pytest.raises(ValueError, match="does not apply to"):
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
    with pytest.raises(ValueError, match="does not apply to"):
        oracle_spec("take", Universe(2, 3), xs=(5,), n=1, pred=Pred(1, 2))


def test_oracle_refuses_a_negative_count_before_its_budget():
    with pytest.raises(ValueError, match="take count must be non-negative"):
        oracle_spec("take", Universe(2, 3), xs=(), n=-1, budget=0)


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
