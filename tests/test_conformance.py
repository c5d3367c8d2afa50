"""The paper's cross-language comparison, run against Python: each split
specification checked with the standard library's counterpart as its
implementation, and the splitter/joiner pairs with ``str.split`` and
``str.splitlines`` as the splitter.

A splitter is swapped in through ``dataclasses.replace`` on its ``ADJOINTS``
row.  It sees a sequence as a string: element 0, the separator, becomes a
newline and every other element a letter.
"""

import dataclasses
import itertools

import pytest

from galoischeck import (
    SEPARATOR,
    Universe,
    WitnessNotFoundError,
    check_canonical_gc,
    check_easy_hard,
    find_non_gc_counterexample,
)
from galoischeck import connections

# combinator, standard library counterpart, universe, cases of a pass
STDLIB = [
    ("takeWhile", lambda p, xs: tuple(itertools.takewhile(p, xs)), (2, 5),
     15876),
    ("dropWhile", lambda p, xs: tuple(itertools.dropwhile(p, xs)), (2, 5),
     8064),
    ("filter", lambda p, xs: tuple(filter(p, xs)), (2, 5), 15876),
    ("take", lambda n, xs: xs[:n], (2, 5), 27783),
    # 1.35 s at (2, 5)
    ("zip", lambda xs, ys: tuple(zip(xs, ys)), (2, 4), 327701),
]


@pytest.mark.parametrize("name,hard,u,cases", STDLIB,
                         ids=[row[0] for row in STDLIB])
def test_stdlib_counterpart_meets_the_spec(name, hard, u, cases):
    rep = check_easy_hard(name, Universe(*u), hard_fn=hard)
    assert (rep.verdict, rep.cases_checked) == ("pass", cases)


def _text(xs):
    return "".join("\n" if e == SEPARATOR else chr(ord("a") + e - 1)
                   for e in xs)


def _seq(text):
    return tuple(SEPARATOR if c == "\n" else ord(c) - ord("a") + 1
                 for c in text)


def _splitter(split):
    return lambda xs: tuple(_seq(w) for w in split(_text(xs)))


U26 = Universe(2, 6)

# label -> (pair, splitter, gc failure, round-trip failure or None)
SPLITTERS = {
    "str.split()": (
        "words-unwords", str.split,
        (2, (("xs", ()), ("ws", ((),)))),
        (3, (("ws", ((), ())), ("joined", (0,)), ("resplit", ()),
             ("rejoined", ())))),
    # Haskell's lines: the round trip holds, the adjunction still fails
    "str.splitlines()": (
        "lines-unlines", str.splitlines,
        (735, (("xs", (1,)), ("ws", ((1,),)))),
        None),
    'str.split("\\n")': (
        "lines-unlines", lambda s: s.split("\n"),
        (2, (("xs", ()), ("ws", ((),)))),
        (1, (("ws", ()), ("joined", ()), ("resplit", ((),)),
             ("rejoined", (0,))))),
}


@pytest.mark.parametrize("label", SPLITTERS)
def test_stdlib_splitter_against_its_joiner(monkeypatch, label):
    pair, split, gc_fail, round_trip_fail = SPLITTERS[label]
    monkeypatch.setitem(connections.ADJOINTS, pair, dataclasses.replace(
        connections.ADJOINTS[pair], upper=_splitter(split)))
    rep = check_canonical_gc(pair, U26)
    assert (rep.verdict, rep.cases_checked, rep.counterexample) == (
        "fail", *gc_fail)
    if round_trip_fail is None:
        with pytest.raises(WitnessNotFoundError, match="all 365 word lists"):
            find_non_gc_counterexample(pair, U26)
    else:
        rep = find_non_gc_counterexample(pair, U26)
        assert (rep.verdict, rep.cases_checked, rep.counterexample) == (
            "fail", *round_trip_fail)
