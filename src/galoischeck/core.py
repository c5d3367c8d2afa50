"""Finite sequence universes with deterministic bounded enumeration.

Everything downstream (orderings, oracles, law checkers) quantifies over the
value streams defined here, so enumeration order is part of the contract:
sequences come shortest first and lexicographic within a length, predicates
come in ascending bitmask order, and composite carriers derive their order
from those two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

Elem = int
Seq = tuple[Elem, ...]
PairSeq = tuple[tuple[Elem, Elem], ...]
SeqList = tuple[Seq, ...]

DEFAULT_BUDGET = 10**8

# Hard ceiling on how many carrier elements a check may materialize,
# independent of the evaluation budget.
MATERIALIZE_CAP = 1_000_000


class UniverseTooLargeError(Exception):
    """Projected work for a check exceeds the configured budget."""

    def __init__(self, projected: int, budget: int, context: str = "") -> None:
        self.projected = projected
        self.budget = budget
        self.context = context
        msg = f"projected {projected} evaluations exceed budget {budget}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


@dataclass(frozen=True)
class Universe:
    """Enumeration bounds: alphabet {0..alphabet_size-1}, lengths 0..max_len."""

    alphabet_size: int
    max_len: int

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        if self.max_len < 0:
            raise ValueError("max_len must be non-negative")


@dataclass(frozen=True)
class Pred:
    """Total predicate on alphabet elements, stored extensionally as a bitmask.

    Bit e of ``mask`` says whether element e satisfies the predicate, so two
    predicates agreeing on every element are the same object value.
    """

    mask: int
    alphabet_size: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.alphabet_size):
            raise ValueError(f"mask {self.mask:#b} out of range for alphabet "
                             f"of size {self.alphabet_size}")

    def __call__(self, e: Elem) -> bool:
        if not 0 <= e < self.alphabet_size:
            raise ValueError(f"element {e} outside alphabet of size "
                             f"{self.alphabet_size}")
        return bool(self.mask >> e & 1)

    def bits(self) -> str:
        """Render as a 0b literal padded to the alphabet width."""
        return format(self.mask, f"#0{self.alphabet_size + 2}b")


def enum_seqs(u: Universe) -> Iterator[Seq]:
    """All sequences over the alphabet, shortest first, lexicographic within
    a length."""
    alphabet = range(u.alphabet_size)
    for n in range(u.max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def count_seqs(u: Universe) -> int:
    return sum(u.alphabet_size**n for n in range(u.max_len + 1))


def enum_pair_seqs(u: Universe) -> Iterator[PairSeq]:
    """Sequences of element pairs, same length-then-lexicographic order."""
    pairs = list(itertools.product(range(u.alphabet_size), repeat=2))
    for n in range(u.max_len + 1):
        yield from itertools.product(pairs, repeat=n)


def count_pair_seqs(u: Universe) -> int:
    return sum((u.alphabet_size**2)**n for n in range(u.max_len + 1))


def enum_preds(u: Universe) -> Iterator[Pred]:
    """All predicates over the alphabet in ascending bitmask order."""
    for mask in range(1 << u.alphabet_size):
        yield Pred(mask, u.alphabet_size)


def enum_seq_lists(u: Universe) -> Iterator[SeqList]:
    """Lists of sequences, bounded and ordered by weight.

    The weight of a list is its length plus the lengths of its words, i.e.
    each word costs one slot plus one per element.  Lists come in ascending
    weight; within a weight the first word grows by length then value, and
    the remainder recurses.
    """
    k = u.alphabet_size

    def exact(w: int) -> Iterator[SeqList]:
        if w == 0:
            yield ()
            return
        for length in range(w):
            for first in itertools.product(range(k), repeat=length):
                for rest in exact(w - length - 1):
                    yield (first,) + rest

    for w in range(u.max_len + 1):
        yield from exact(w)


def count_seq_lists(u: Universe) -> int:
    k = u.alphabet_size
    counts = [1]
    for w in range(1, u.max_len + 1):
        counts.append(sum(k**length * counts[w - length - 1]
                          for length in range(w)))
    return sum(counts)


def all_satisfy(p: Callable[[Elem], bool], xs: Seq) -> bool:
    """Every element of xs satisfies p; vacuously true for the empty
    sequence."""
    return all(p(e) for e in xs)


def pred_and(p: Pred, q: Pred) -> Pred:
    """Pointwise conjunction of two predicates over the same alphabet."""
    if p.alphabet_size != q.alphabet_size:
        raise ValueError("predicates range over different alphabets")
    return Pred(p.mask & q.mask, p.alphabet_size)


class CarrierKind(Enum):
    """What a quantifier ranges over."""

    SEQ = "seq"
    PAIR_SEQ = "pair-seq"
    NAT_SEQ = "nat-seq"
    SEQ_PAIR = "seq-pair"
    SEQ_LIST = "seq-list"


def nat_bound(u: Universe) -> int:
    # One past max_len, so checks cover counts that exceed every sequence.
    return u.max_len + 1


# kind -> (enumeration, exact size)
_CARRIERS = {
    CarrierKind.SEQ: (enum_seqs, count_seqs),
    CarrierKind.PAIR_SEQ: (enum_pair_seqs, count_pair_seqs),
    CarrierKind.NAT_SEQ: (
        lambda u: ((n, xs) for n in range(nat_bound(u) + 1)
                   for xs in enum_seqs(u)),
        lambda u: (nat_bound(u) + 1) * count_seqs(u)),
    CarrierKind.SEQ_PAIR: (
        lambda u: ((xs, ys) for xs in enum_seqs(u) for ys in enum_seqs(u)),
        lambda u: count_seqs(u) ** 2),
    CarrierKind.SEQ_LIST: (enum_seq_lists, count_seq_lists),
}


def enumerate_carrier(kind: CarrierKind, u: Universe) -> Iterator[object]:
    return _CARRIERS[kind][0](u)


def carrier_size_upper(kind: CarrierKind, u: Universe) -> int:
    """Number of elements in the carrier."""
    return _CARRIERS[kind][1](u)


def materialize_carrier(kind: CarrierKind, u: Universe) -> list:
    upper = carrier_size_upper(kind, u)
    if upper > MATERIALIZE_CAP:
        raise UniverseTooLargeError(upper, MATERIALIZE_CAP,
                                    f"carrier {kind.value} materialization")
    return list(enumerate_carrier(kind, u))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exhaustive check.

    cases_checked is the full case count on a pass and the 1-based position
    of the minimal counterexample in enumeration order on a fail, which keeps
    reports identical regardless of how the scan was partitioned.
    """

    law_name: str
    verdict: str  # "pass" | "fail" | "not-applicable"
    cases_checked: int
    counterexample: tuple[tuple[str, object], ...] | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"
