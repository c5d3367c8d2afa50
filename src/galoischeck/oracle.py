"""Generic construction of a combinator's output from its easy/hard split
specification: the result must be the greatest candidate, under the hard
ordering, among those satisfying the easy condition.

This module never calls the combinator under test.  It enumerates candidates
below the input, filters by the easy condition, and picks the maximum by
pairwise comparison, so it serves as an independent oracle for the direct
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import (
    DEFAULT_BUDGET,
    Pred,
    Seq,
    Universe,
    UniverseTooLargeError,
    carrier_size_upper,
    enum_pair_seqs,
    enumerate_carrier,
)
from .orders import PAIR_PREFIX, PREFIX, SUBLIST, SUFFIX, OrderDef
from .combinators import head_fails


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


@dataclass(frozen=True)
class EasyCondition:
    """The decidable part of a split specification: a relation between a
    candidate and the input it is a candidate for."""

    holds: Callable[[object, object], bool]
    description: str


def candidates_below(o: OrderDef, x, u: Universe) -> list:
    """All carrier elements below x under o, duplicate-free, in carrier
    enumeration order."""
    if o.below is not None:
        members = set(o.below(x, u))
        return [v for v in enumerate_carrier(o.carrier, u) if v in members]
    return [v for v in enumerate_carrier(o.carrier, u) if o.leq(v, x)]


def best_under(o: OrderDef, easy: EasyCondition, x, u: Universe,
               candidates: Sequence | None = None):
    """The greatest element, under o, among candidates below x satisfying
    the easy condition.

    Raises EmptyCandidatesError when nothing qualifies and NoGreatestError
    when the qualifying set has maximal elements but no single top.
    """
    if candidates is None:
        candidates = candidates_below(o, x, u)
    feasible = [c for c in candidates if easy.holds(c, x)]
    if not feasible:
        raise EmptyCandidatesError(
            f"no candidate below {x!r} satisfies: {easy.description}")
    for top in feasible:
        if all(o.leq(c, top) for c in feasible):
            return top
    maxima = tuple(m for m in feasible
                   if not any(m != c and o.leq(m, c) for c in feasible))
    raise NoGreatestError(
        f"no greatest candidate below {x!r} for: {easy.description}; "
        f"{len(maxima)} maximal candidates", maxima)


def _zip_candidates(xs: Seq, ys: Seq, u: Universe) -> list:
    bound = min(len(xs), len(ys))
    return [zs for zs in enum_pair_seqs(u) if len(zs) <= bound]


def oracle_spec(name: str, u: Universe, *, xs: Seq | None = None,
                pred: Pred | None = None, n: int | None = None,
                ys: Seq | None = None, budget: int = DEFAULT_BUDGET):
    """Compute a combinator's output purely from its split specification.

    name selects the combinator; the keyword arguments supply its inputs
    (xs always; pred for the predicate family, n for take, ys for zip).
    The search walks the order's whole carrier, so it refuses upfront when
    that carrier holds more than ``budget`` elements.
    """
    if name == "takeWhile":
        if xs is None or pred is None:
            raise ValueError("takeWhile oracle needs xs and pred")
        order, x = PREFIX, xs
        easy = EasyCondition(lambda v, _x: all(pred(e) for e in v),
                             f"all elements satisfy {pred.bits()}")
    elif name == "take":
        if xs is None or n is None:
            raise ValueError("take oracle needs xs and n")
        order, x = PREFIX, xs
        easy = EasyCondition(lambda v, _x: len(v) <= n,
                             f"length at most {n}")
    elif name == "filter":
        if xs is None or pred is None:
            raise ValueError("filter oracle needs xs and pred")
        order, x = SUBLIST, xs
        easy = EasyCondition(lambda v, _x: all(pred(e) for e in v),
                             f"all elements satisfy {pred.bits()}")
    elif name == "dropWhile":
        if xs is None or pred is None:
            raise ValueError("dropWhile oracle needs xs and pred")
        order, x = SUFFIX, xs
        easy = EasyCondition(lambda v, _x: head_fails(pred, v),
                             f"empty or head falsifies {pred.bits()}")
    elif name == "zip":
        if xs is None or ys is None:
            raise ValueError("zip oracle needs xs and ys")

        def holds(zs, x) -> bool:
            a, b = x
            return (all(zs[i][0] == a[i] for i in range(len(zs)))
                    and all(zs[i][1] == b[i] for i in range(len(zs))))

        order, x = PAIR_PREFIX, (xs, ys)
        easy = EasyCondition(
            holds, "both projections are prefixes of the inputs")
    else:
        raise ValueError(f"no oracle for combinator {name!r}")

    size = carrier_size_upper(order.carrier, u)
    if size > budget:
        raise UniverseTooLargeError(size, budget, f"oracle:{name}")
    candidates = _zip_candidates(xs, ys, u) if name == "zip" else None
    return best_under(order, easy, x, u, candidates=candidates)
