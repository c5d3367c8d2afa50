"""Generic construction of a combinator's output from its easy/hard split
specification: the result must be the greatest candidate, under the hard
ordering, among those satisfying the easy condition.

This module never calls the combinator under test.  It enumerates candidates
below the input, filters by the easy condition, and picks the maximum by
pairwise comparison, so it serves as an independent oracle for the direct
implementations.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

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
# Unused here; perfbench/tracing.py wraps this module global by name.
from .combinators import head_fails  # noqa: F401
from .connections import ADJOINTS, SPECS, refuse_inapplicable
from .orders import OrderDef


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
    """All carrier elements below x under o, duplicate-free, in carrier
    enumeration order."""
    members = set(o.below(x, u))
    return [v for v in enumerate_carrier(o.carrier, u) if v in members]


def best_under(o: OrderDef, easy: Callable[[object], bool], says: str, x,
               u: Universe, candidates: Sequence | None = None):
    """The greatest element, under o, among candidates below x satisfying
    the easy condition ``easy``, which ``says`` describes.

    Raises EmptyCandidatesError when nothing qualifies and NoGreatestError
    when the qualifying set has maximal elements but no single top.
    """
    if candidates is None:
        candidates = candidates_below(o, x, u)
    feasible = [c for c in candidates if easy(c)]
    if not feasible:
        raise EmptyCandidatesError(
            f"no candidate below {x!r} satisfies: {says}")
    for top in feasible:
        if all(o.leq(c, top) for c in feasible):
            return top
    maxima = tuple(m for m in feasible
                   if not any(m != c and o.leq(m, c) for c in feasible))
    raise NoGreatestError(
        f"no greatest candidate below {x!r} for: {says}; "
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
    An input sequence outside the universe ``u`` is refused.  The search
    walks the order's whole carrier, so it refuses upfront when that
    carrier holds more than ``budget`` elements.
    """
    spec = SPECS.get(name)
    if spec is None:
        raise ValueError(f"no oracle for combinator {name!r}")
    # The second input is the parameter, or for zip the second sequence.
    arg_name, arg = {"p": ("pred", pred), "n": ("n", n)}.get(
        spec.param, ("ys", ys))
    if xs is None or arg is None:
        raise ValueError(f"{name} oracle needs xs and {arg_name}")
    refuse_inapplicable(name, pred, n, ys)
    for label, seq in (("xs", xs), ("ys", ys)):
        if seq is not None and (len(seq) > u.max_len or not all(
                0 <= e < u.alphabet_size for e in seq)):
            raise ValueError(f"{label}={seq!r} is outside the universe "
                             f"alphabet={u.alphabet_size} max_len={u.max_len}")
    if spec.easy is None:
        # zip's easy condition reads the input: unzip zs <= (xs, ys)
        leq, lower = ADJOINTS[name].order_a.leq, ADJOINTS[name].lower
        x, says = (xs, ys), spec.says

        def easy(zs):
            return leq(lower(zs), x)
    else:
        x, easy = xs, partial(spec.easy, arg)
        says = spec.says.format(arg.bits() if spec.param == "p" else arg)

    size = carrier_size_upper(spec.order.carrier, u)
    if size > budget:
        raise UniverseTooLargeError(size, budget, f"oracle:{name}")
    candidates = _zip_candidates(xs, ys, u) if spec.easy is None else None
    return best_under(spec.order, easy, says, x, u, candidates=candidates)
