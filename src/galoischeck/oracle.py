"""Generic construction of a combinator's output from its easy/hard split
specification: the result must be the greatest candidate y, under the hard
ordering, that meets the one condition ``lower(y) <= x and easy(y)`` of the
combinator's ``TARGETS`` row.

This module never calls the combinator under test.  It takes the candidates
below the input from the order's ``below`` generator (for zip, every pair
sequence no longer than the shorter input), filters them by the easy
condition, and picks the maximum by pairwise comparison, so it serves as an
independent oracle for the direct implementations.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .core import (
    DEFAULT_BUDGET,
    Pred,
    Seq,
    Universe,
    _known,
    _within_budget,
    carrier_size_upper,
    enum_pair_seqs,
)
# Unused here; perfbench/tracing.py wraps these module globals by name.
from .combinators import head_fails  # noqa: F401
from .core import enumerate_carrier  # noqa: F401
from .connections import SPEC_NAMES, TARGETS, refuse_inapplicable
from .orders import OrderDef, _decided


class OracleError(Exception):
    """The easy/hard split does not determine a unique answer."""


class EmptyCandidatesError(OracleError):
    """No candidate satisfies the easy condition (a sanity failure: the
    feasible set of a well-formed split always contains a bottom element)."""


class NoGreatestError(OracleError):
    """The feasible set has no greatest element; carries the maximal
    candidates so the caller can display the ambiguity."""

    def __init__(self, message: str, maxima: tuple):
        super().__init__(message)
        self.maxima = maxima


def candidates_below(o: OrderDef, x, u: Universe) -> list:
    """The down-set of x under o: what ``o.below`` yields, duplicate-free,
    shortest first and lexicographic within a length, which is the carrier
    enumeration order of the SEQ and PAIR_SEQ carriers that every target's
    ``order`` ranges over.  No carrier is walked, so the list is only as
    complete as ``below``; tier-1 proves that generator complete only at
    small bounds (``test_below_generators_are_complete_and_sound``)."""
    return sorted(set(o.below(x, u)), key=lambda v: (len(v), v))


def _related(leq: Callable, a, b) -> bool:
    """``leq(a, b)``, refused by ``_decided`` unless it is a bool."""
    flag = leq(a, b)
    return flag if flag.__class__ is bool else _decided(flag, leq, a, b)


def best_under(o: OrderDef, easy: Callable[[object], bool], says: str, x,
               candidates: Iterable):
    """The greatest element, under o, among the candidates below x that
    satisfy the easy condition ``easy``, which ``says`` describes.
    ``candidates`` is any iterable, walked once in order; only the feasible
    ones are kept.

    Raises EmptyCandidatesError when nothing qualifies and NoGreatestError
    when the qualifying set has maximal elements but no single top, and
    ValueError when ``o.leq`` returns anything but a bool (or 0 or 1).
    """
    feasible = [c for c in candidates if easy(c)]
    if not feasible:
        raise EmptyCandidatesError(
            f"no candidate below {x!r} satisfies: {says}")
    for top in feasible:
        if all(_related(o.leq, c, top) for c in feasible):
            return top
    maxima = tuple(m for m in feasible
                   if not any(m != c and _related(o.leq, m, c)
                              for c in feasible))
    raise NoGreatestError(
        f"no greatest candidate below {x!r} for: {says}; "
        f"{len(maxima)} maximal candidates", maxima)


# Unused here; perfbench/tracing.py wraps this module global by name.
def _zip_candidates(xs: Seq, ys: Seq, u: Universe) -> list:
    bound = min(len(xs), len(ys))
    return [zs for zs in enum_pair_seqs(u) if len(zs) <= bound]


def oracle_spec(name: str, u: Universe, *, xs: Seq | None = None,
                pred: Pred | None = None, n: int | None = None,
                ys: Seq | None = None, budget: int = DEFAULT_BUDGET):
    """Compute a combinator's output purely from its split specification.

    name selects the combinator; the keyword arguments supply its inputs:
    xs, and the one its row's ``param`` names (pred, n or ys).  An input
    sequence is refused unless it is a tuple of ints in the universe ``u``.
    The search walks x's down-set under the order (``candidates_below``),
    which trusts the order's ``below`` generator to be complete; zip walks,
    in carrier order, only the pair sequences no longer than the shorter
    input.  The budget still counts the order's whole carrier: the query
    refuses upfront when it holds more than ``budget`` elements.
    """
    _known("combinator", name, SPEC_NAMES)
    t = TARGETS[name]
    arg = {"pred": pred, "n": n, "ys": ys}[t.param.key]
    if xs is None or arg is None:
        raise ValueError(f"{name} oracle needs xs and {t.param.key}")
    refuse_inapplicable(name, u, pred, n, ys)
    for label, seq in (("xs", xs), ("ys", ys)):
        if seq is not None and not isinstance(seq, tuple):
            raise ValueError(f"{label}={seq!r} is not a tuple")
        if seq is not None and (len(seq) > u.max_len or not all(
                type(e) is int and 0 <= e < u.alphabet_size for e in seq)):
            raise ValueError(f"{label}={seq!r} is outside the universe "
                             f"alphabet={u.alphabet_size} max_len={u.max_len}")
    x = xs if ys is None else (xs, ys)
    # x as order_a sees it: (n, xs) for take
    x_a = x if n is None else (n, xs)
    says = t.says.format(t.param.show(arg))
    easy, lower, leq = t.easy, t.lower, (t.order_a or t.order).leq

    def solves(y):
        flag = leq(lower(y), x_a)  # _related inline: once per candidate
        if flag.__class__ is not bool:
            flag = _decided(flag, leq, lower(y), x_a)
        return flag and (easy is None or easy(arg, y))

    _within_budget(f"oracle:{name}", carrier_size_upper(t.order.carrier, u),
                   budget)
    candidates = candidates_below(t.order, x, u) if ys is None else (
        enum_pair_seqs(Universe(u.alphabet_size, min(len(xs), len(ys)))))
    return best_under(t.order, solves, says, x, candidates)
