"""Enumeration primitives: counts, orders, and carrier plumbing."""

import pytest
from hypothesis import given, strategies as st

from galoischeck import (
    CarrierKind,
    CheckReport,
    Pred,
    Universe,
    UniverseTooLargeError,
    all_satisfy,
    count_pair_seqs,
    count_seq_lists,
    count_seqs,
    enum_pair_seqs,
    enum_preds,
    enum_seq_lists,
    enum_seqs,
    enumerate_carrier,
    materialize_carrier,
    nat_bound,
    pred_and,
)
from galoischeck import core


# Closed forms frozen independently: sum of k^n is (k^(L+1)-1)/(k-1), and the
# seq-list counts come from the recurrence c(w) = sum_l k^l * c(w-l-1).
SEQ_COUNTS = {(2, 2): 7, (2, 3): 15, (2, 4): 31, (2, 5): 63, (2, 6): 127,
              (3, 5): 364}
PAIR_SEQ_COUNTS = {(2, 3): 85, (2, 4): 341, (2, 5): 1365}


@pytest.mark.parametrize("k,L", sorted(SEQ_COUNTS))
def test_seq_counts(k, L):
    u = Universe(k, L)
    expected = SEQ_COUNTS[(k, L)]
    assert count_seqs(u) == expected
    assert len(list(enum_seqs(u))) == expected


@pytest.mark.parametrize("k,L", sorted(PAIR_SEQ_COUNTS))
def test_pair_seq_counts(k, L):
    u = Universe(k, L)
    expected = PAIR_SEQ_COUNTS[(k, L)]
    assert count_pair_seqs(u) == expected
    assert len(list(enum_pair_seqs(u))) == expected


def test_seq_list_count_against_manual_recurrence():
    # weights 0..6 at k=2 contribute 1,1,3,9,27,81,243
    u = Universe(2, 6)
    assert count_seq_lists(u) == 365
    lists = list(enum_seq_lists(u))
    assert len(lists) == 365
    assert len(set(lists)) == 365


def test_seq_enumeration_is_shortest_first_then_lex():
    got = list(enum_seqs(Universe(2, 2)))
    assert got == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_seq_enumeration_has_no_duplicates():
    seqs = list(enum_seqs(Universe(3, 4)))
    assert len(seqs) == len(set(seqs))


def test_seq_list_enumeration_starts_with_small_weights():
    got = list(enum_seq_lists(Universe(2, 2)))
    # weight 0: empty list; weight 1: one empty word; weight 2: two empty
    # words, then the two singleton words
    assert got == [(), ((),), ((), ()), ((0,),), ((1,),)]


def test_seq_list_weights_are_bounded_and_ascending():
    def weight(ws):
        return len(ws) + sum(len(w) for w in ws)

    weights = [weight(ws) for ws in enum_seq_lists(Universe(2, 5))]
    assert all(w <= 5 for w in weights)
    assert weights == sorted(weights)


def test_pred_enumeration_is_ascending_mask():
    masks = [p.mask for p in enum_preds(Universe(2, 3))]
    assert masks == [0, 1, 2, 3]


def test_pred_enumeration_refuses_more_than_the_cap_upfront(monkeypatch):
    # the refusal comes from the call, before any predicate is built
    with pytest.raises(UniverseTooLargeError) as exc:
        enum_preds(Universe(20, 0))
    assert str(exc.value) == ("predicate materialization: projected 1048576 "
                              "evaluations exceed budget 1000000")
    monkeypatch.setattr(core, "MATERIALIZE_CAP", 16)
    assert len(list(enum_preds(Universe(4, 0)))) == 16
    with pytest.raises(UniverseTooLargeError, match="projected 32 "):
        enum_preds(Universe(5, 0))


def test_pred_membership_and_call():
    even = Pred(0b010101, 6)
    assert even(2) and even(4) and not even(5)
    assert even.bits() == "0b010101"
    with pytest.raises(ValueError):
        even(6)
    with pytest.raises(ValueError):
        even(-1)


def test_pred_mask_out_of_range():
    with pytest.raises(ValueError):
        Pred(4, 2)
    with pytest.raises(ValueError):
        Pred(-1, 2)


@pytest.mark.parametrize("mask,k,message", [
    (1.0, 2, "mask=1.0 is not an int"),
    (True, 2, "mask=True is not an int"),
    (1, 2.0, "alphabet_size=2.0 is not an int"),
    (1, True, "alphabet_size=True is not an int"),
    (0, 0, "alphabet_size must be at least 1"),
])
def test_pred_refuses_malformed_fields(mask, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Pred(mask, k)


@pytest.mark.parametrize("e", [0.0, "0", None, True, False],
                         ids=["float", "str", "none", "true", "false"])
def test_pred_refuses_an_element_that_is_not_an_int(e):
    # a bool compares as 0 or 1, yet names no element: Pred(2, 2)(True)
    # must not read element 1's bit
    for p in (Pred(1, 2), Pred(2, 2)):
        with pytest.raises(ValueError,
                           match=f"^element {e!r} is not an int$"):
            p(e)


def test_pred_and_intersects_masks():
    p = Pred(0b011, 3)
    q = Pred(0b110, 3)
    assert pred_and(p, q).mask == 0b010
    with pytest.raises(ValueError):
        pred_and(p, Pred(0b01, 2))


@given(st.integers(0, 63))
def test_pred_agrees_with_mask_bits(mask):
    p = Pred(mask, 6)
    for e in range(6):
        assert p(e) == bool(mask >> e & 1)


def test_all_satisfy_vacuous_on_empty():
    p = Pred(0, 2)
    assert all_satisfy(p, ())
    assert not all_satisfy(p, (0,))


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe(0, 3)
    with pytest.raises(ValueError):
        Universe(2, -1)
    assert Universe(1, 0) == Universe(1, 0)


@pytest.mark.parametrize("k,n,message", [
    (2.0, 2, "alphabet_size=2.0 is not an int"),
    (2, 2.0, "max_len=2.0 is not an int"),
    (True, 3, "alphabet_size=True is not an int"),
    (2, True, "max_len=True is not an int"),
])
def test_universe_refuses_a_bound_that_is_not_an_int(k, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Universe(k, n)


def test_nat_bound_exceeds_every_length():
    assert nat_bound(Universe(2, 5)) == 6


def test_composite_carriers_sizes_and_order():
    u = Universe(2, 2)
    nat_seq = list(enumerate_carrier(CarrierKind.NAT_SEQ, u))
    assert len(nat_seq) == 4 * 7
    assert nat_seq[0] == (0, ())
    assert nat_seq[7] == (1, ())  # n-major

    seq_pair = list(enumerate_carrier(CarrierKind.SEQ_PAIR, u))
    assert len(seq_pair) == 49
    assert seq_pair[1] == ((), (0,))  # xs-major


def test_materialize_cap_enforced():
    with pytest.raises(UniverseTooLargeError) as exc:
        materialize_carrier(CarrierKind.SEQ, Universe(4, 10))
    assert exc.value.projected > exc.value.budget
    assert "materialization" in str(exc.value)


def test_check_report_equality_and_ok():
    a = CheckReport("law", "pass", 10, None)
    b = CheckReport("law", "pass", 10, None)
    assert a == b
    assert a.ok
    assert not CheckReport("law", "fail", 3, (("x", ()),)).ok
