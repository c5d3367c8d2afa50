"""Spec and gc checks against a plain nested-loop reference, on the real
combinators and on wrong ones.

The reference loops over each law's quantifiers in the documented order,
with its own enumeration and relations: the predicate or count outermost,
then the input, then the candidate.  It returns the verdict, the number of
cases up to and including the first violation (all of them on a pass) and
that violation's bindings, which the engine must reproduce exactly.

Every wrong combinator here must be rejected.  The catalogue mutants are
the classic slips; the seeded ones differ from the real combinator on one
input only, and their wrong output is drawn from the candidates both laws
range over (the easy set for the predicate families), where antisymmetry of
the order forces a law that holds to pin the output.  So none of them can
survive as an equivalent mutant.
"""

import dataclasses
import itertools
import random
import re
from operator import le

import pytest

from galoischeck import (
    Pred,
    Universe,
    build_gcs,
    check_canonical_gc,
    check_easy_hard,
    check_gc_instance,
    drop_while,
    filter_p,
    merge_reports,
    take_n,
    take_while,
    zip_pair,
)
from galoischeck.orders import componentwise

NAMES = ("dropWhile", "filter", "take", "takeWhile", "zip")
REAL = {"dropWhile": drop_while, "filter": filter_p, "take": take_n,
        "takeWhile": take_while, "zip": zip_pair}
UNIVERSES = {name: ((2, 3), (3, 2)) for name in NAMES}
UNIVERSES["zip"] = ((2, 2), (2, 3))
SEEDED_PER_UNIVERSE = 10


# --- the reference ----------------------------------------------------------


def seqs(k, L):
    return [s for n in range(L + 1)
            for s in itertools.product(range(k), repeat=n)]


def pair_seqs(k, L):
    pairs = list(itertools.product(range(k), repeat=2))
    return [s for n in range(L + 1) for s in itertools.product(pairs, repeat=n)]


def preds(k):
    return [Pred(mask, k) for mask in range(1 << k)]


def prefix(a, b):
    return b[:len(a)] == a


def suffix(a, b):
    return len(a) <= len(b) and b[len(b) - len(a):] == a


def sublist(a, b):
    rest = iter(b)
    return all(e in rest for e in a)


def all_pass(p, ys):
    return all(p(e) for e in ys)


def head_fails(p, z):
    return not z or not p(z[0])


# name -> (order, easy condition, input name, candidate name)
FAMILIES = {
    "takeWhile": (prefix, all_pass, "xs", "ys"),
    "filter": (sublist, all_pass, "xs", "ys"),
    "dropWhile": (suffix, head_fails, "l", "z"),
}


def spec_cases(name, k, L, hard):
    """(bindings, left side, right side) of the split specification
    ``easy and candidate <= input  <=>  candidate <= hard(input)``, in scan
    order.  dropWhile's candidate ranges over the sequences whose head fails
    the predicate, the others' over the whole carrier."""
    S = seqs(k, L)
    if name in FAMILIES:
        leq, easy, x_name, y_name = FAMILIES[name]
        for p in preds(k):
            for x in S:
                out = hard(p, x)
                for y in S:
                    if name == "dropWhile" and not easy(p, y):
                        continue
                    yield (((("p", p), (x_name, x), (y_name, y))),
                           easy(p, y) and leq(y, x), leq(y, out))
    elif name == "take":
        for n in range(L + 2):
            for xs in S:
                out = hard(n, xs)
                for ys in S:
                    yield ((("n", n), ("xs", xs), ("ys", ys)),
                           len(ys) <= n and prefix(ys, xs), prefix(ys, out))
    else:
        for xs in S:
            for ys in S:
                out = hard(xs, ys)
                for zs in pair_seqs(k, L):
                    left = tuple(a for a, _ in zs)
                    right = tuple(b for _, b in zs)
                    yield ((("xs", xs), ("ys", ys), ("zs", zs)),
                           prefix(left, xs) and prefix(right, ys),
                           prefix(zs, out))


def gc_cases(name, k, L, hard, leq_a=None, leq_b=None):
    """The adjunction ``lower y <= x  <=>  y <= upper x`` with upper the
    combinator; ``leq_a`` and ``leq_b`` replace the order of the left and
    the right side.  The predicate families have the identity as lower map
    and their candidate ranges over the easy set.  Take (lower
    ``ys -> (len ys, ys)`` under count-and-prefix) and zip (lower unzip
    under componentwise prefix) are written out; with the real orders they
    are the split specification itself."""
    S = seqs(k, L)
    if name in FAMILIES:
        leq, easy, x_name, y_name = FAMILIES[name]
        leq_a, leq_b = leq_a or leq, leq_b or leq
        for p in preds(k):
            feasible = [y for y in S if easy(p, y)]
            for x in S:
                out = hard(p, x)
                for y in feasible:
                    yield ((("p", p), (x_name, x), (y_name, y)),
                           leq_a(y, x), leq_b(y, out))
        return
    leq_b = leq_b or prefix
    if name == "take":
        leq_a = leq_a or (lambda a, b: a[0] <= b[0] and prefix(a[1], b[1]))
        for n in range(L + 2):
            for xs in S:
                out = hard(n, xs)
                for ys in S:
                    yield ((("n", n), ("xs", xs), ("ys", ys)),
                           leq_a((len(ys), ys), (n, xs)), leq_b(ys, out))
    else:
        leq_a = leq_a or (lambda a, b: prefix(a[0], b[0])
                          and prefix(a[1], b[1]))
        for xs in S:
            for ys in S:
                out = hard(xs, ys)
                for zs in pair_seqs(k, L):
                    unzipped = (tuple(a for a, _ in zs),
                                tuple(b for _, b in zs))
                    yield ((("xs", xs), ("ys", ys), ("zs", zs)),
                           leq_a(unzipped, (xs, ys)), leq_b(zs, out))


def reference(cases):
    n = 0
    for bindings, lhs, rhs in cases:
        n += 1
        if lhs != rhs:
            return "fail", n, bindings
    return "pass", n, None


# --- the engine under test --------------------------------------------------


def outcome(rep):
    return rep.verdict, rep.cases_checked, rep.counterexample


def engine_spec(name, k, L, hard):
    return outcome(check_easy_hard(name, Universe(k, L), hard_fn=hard))


def engine_gc(name, k, L, hard):
    """Every instance build_gcs makes, with hard as its upper map."""
    parts = []
    for bindings, gc in build_gcs(name, Universe(k, L)):
        if bindings:
            upper = (lambda p: lambda x: hard(p, x))(bindings[0][1])
        else:
            def upper(v):
                return hard(*v)
        parts.append((bindings, check_gc_instance(
            dataclasses.replace(gc, upper=upper))))
    return outcome(merge_reports(f"gc:{name}", parts))


def agree(name, k, L, hard):
    """Engine and reference outcomes on both laws; returns the verdicts."""
    spec = reference(spec_cases(name, k, L, hard))
    assert engine_spec(name, k, L, hard) == spec
    gc = reference(gc_cases(name, k, L, hard))
    assert engine_gc(name, k, L, hard) == gc
    return spec[0], gc[0]


CASES = [(name, u) for name in NAMES for u in UNIVERSES[name]]


@pytest.mark.parametrize("name,u", CASES)
def test_real_combinators_match_reference(name, u):
    k, L = u
    assert agree(name, k, L, REAL[name]) == ("pass", "pass")
    assert (outcome(check_canonical_gc(name, Universe(k, L)))
            == reference(gc_cases(name, k, L, REAL[name])))


# --- the catalogue ----------------------------------------------------------


def _flipped_take_while(p, xs):
    return take_while(Pred(~p.mask & ((1 << p.alphabet_size) - 1),
                           p.alphabet_size), xs)


CATALOGUE = {
    "take-off-by-one": ("take", lambda n, xs: xs[:n + 1]),
    "takeWhile-polarity-flipped": ("takeWhile", _flipped_take_while),
    "filter-drops-last-kept": ("filter", lambda p, xs: filter_p(p, xs)[:-1]),
    "filter-stops-at-first-failure": ("filter", take_while),
    "dropWhile-drops-one-more": ("dropWhile",
                                 lambda p, l: drop_while(p, l)[1:]),
    "zip-pads-with-0": ("zip", lambda xs, ys: tuple(
        itertools.zip_longest(xs, ys, fillvalue=0))),
}


@pytest.mark.parametrize("mutant", sorted(CATALOGUE))
def test_catalogue_mutants_are_rejected(mutant):
    name, hard = CATALOGUE[mutant]
    for k, L in UNIVERSES[name]:
        assert agree(name, k, L, hard) == ("fail", "fail"), (mutant, k, L)


# --- seeded single-point mutants --------------------------------------------


def _trigger(rng, name, k, L):
    """A random input of the combinator, and the candidates its output can
    be wrongly replaced with."""
    S = seqs(k, L)
    if name in FAMILIES:
        _, easy, _, _ = FAMILIES[name]
        p = rng.choice(preds(k))
        return (p, rng.choice(S)), [y for y in S if easy(p, y)]
    if name == "take":
        return (rng.randrange(L + 2), rng.choice(S)), S
    return (rng.choice(S), rng.choice(S)), pair_seqs(k, L)


def seeded_mutants(name, k, L):
    rng = random.Random(f"{name}/{k}/{L}")
    real = REAL[name]
    out = []
    while len(out) < SEEDED_PER_UNIVERSE:
        trigger, candidates = _trigger(rng, name, k, L)
        wrong = [c for c in candidates if c != real(*trigger)]
        if not wrong:
            continue
        bad = rng.choice(wrong)

        def hard(*args, _trigger=trigger, _bad=bad):
            return _bad if args == _trigger else real(*args)
        out.append((trigger, bad, hard))
    return out


@pytest.mark.parametrize("name,u", CASES)
def test_seeded_mutants_are_rejected(name, u):
    k, L = u
    for trigger, bad, hard in seeded_mutants(name, k, L):
        assert agree(name, k, L, hard) == ("fail", "fail"), (trigger, bad)


# --- mutant orders on the gc path -------------------------------------------
#
# Each mutant keeps the order's real ``below`` generator and replaces its
# relation, so an engine that read related pairs off the generators instead
# of calling ``leq`` on every case would disagree with the reference.  The
# mutants are wrong prefix relations on sequences; on take's (count, xs)
# and zip's (xs, ys) carriers they replace every prefix component.

MUTANT_PREFIXES = {
    "strict-prefix": lambda a, b: a != b and prefix(a, b),
    "one-step-prefix": lambda a, b: prefix(a, b) and len(b) - len(a) <= 1,
    "prefix-ignoring-last": lambda a, b: prefix(a[:-1], b),
    "always-true": lambda a, b: True,
}
MUTANT_UNIVERSES = {name: ((2, 3), (3, 2)) for name in NAMES}
MUTANT_UNIVERSES["zip"] = ((2, 2),)


def mutant_leq(name, side, mut):
    """``mut`` on the elements the ``side`` order of the target relates."""
    if side == "order_b" or name in FAMILIES:
        return mut
    if name == "take":
        return lambda a, b: a[0] <= b[0] and mut(a[1], b[1])
    return lambda a, b: mut(a[0], b[0]) and mut(a[1], b[1])


MUTANT_ORDER_CASES = [
    (name, u, side, mutant)
    for name in NAMES for u in MUTANT_UNIVERSES[name]
    for side in ("order_a", "order_b") for mutant in sorted(MUTANT_PREFIXES)]


@pytest.mark.parametrize("name,u,side,mutant", MUTANT_ORDER_CASES)
def test_mutant_orders_match_reference(name, u, side, mutant):
    k, L = u
    leq = mutant_leq(name, side, MUTANT_PREFIXES[mutant])
    parts = []
    for bindings, gc in build_gcs(name, Universe(k, L)):
        order = dataclasses.replace(getattr(gc, side), leq=leq)
        parts.append((bindings, check_gc_instance(
            dataclasses.replace(gc, **{side: order}))))
    engine = outcome(merge_reports(f"gc:{name}", parts))
    ref = reference(gc_cases(name, k, L, REAL[name], **{
        "leq_a" if side == "order_a" else "leq_b": leq}))
    assert engine == ref
    assert engine[0] == "fail"


# --- componentwise mutant orders on take's and zip's left side ---------------
#
# The mutants above reach take's and zip's ``order_a`` as plain lambdas, which
# the engine calls once per case.  Here each is built again from its two
# factors (count or xs, then the sequence or ys), once through
# ``componentwise``, whose factors the engine evaluates one component at a
# time, and once as a plain lambda (for the mutants above, that build is
# the test above).  Two more mutants break one factor alone.
# The componentwise build reaches the engine as ``factors_only``, which
# fails if called on a whole case, so an engine that ignored the factors
# fails every componentwise case.

FACTOR_MUTANTS = {
    **{("take", m): (le, mut) for m, mut in MUTANT_PREFIXES.items()},
    **{("zip", m): (mut, mut) for m, mut in MUTANT_PREFIXES.items()},
    ("take", "always-true-count"): (MUTANT_PREFIXES["always-true"], prefix),
    ("zip", "strict-prefix-ys"): (prefix, MUTANT_PREFIXES["strict-prefix"]),
}


def factors_only(leq):
    """``leq``'s factors on a relation that fails when called whole."""
    def whole(a, b):
        pytest.fail("a componentwise order was called on a whole case")
    whole.factors = leq.factors
    return whole


FACTOR_CASES = [
    (name, u, mutant, build)
    for (name, mutant) in sorted(FACTOR_MUTANTS)
    for u in MUTANT_UNIVERSES[name]
    for build in ("componentwise", "plain")
    if build == "componentwise" or mutant not in MUTANT_PREFIXES]


@pytest.mark.parametrize("name,u,mutant,build", FACTOR_CASES)
def test_factor_mutant_orders_match_reference(name, u, mutant, build):
    k, L = u
    first, second = FACTOR_MUTANTS[name, mutant]
    if build == "componentwise":
        leq = componentwise(first, second, name=mutant)
        engine_leq = factors_only(leq)
    else:
        leq = engine_leq = (lambda a, b: first(a[0], b[0])
                            and second(a[1], b[1]))
    [(_, gc)] = build_gcs(name, Universe(k, L))
    order = dataclasses.replace(gc.order_a, leq=engine_leq)
    engine = outcome(check_gc_instance(dataclasses.replace(gc, order_a=order)))
    assert engine == reference(gc_cases(name, k, L, REAL[name], leq_a=leq))
    assert engine[0] == "fail"


# --- the first mismatch of a row ---------------------------------------------
#
# The engine holds a row's left and right flags as ints, candidate i's flag
# at bit 8·i, and reads the first mismatch off the lowest set bit of their
# XOR.  Each seeded output below first differs from the real one at a chosen
# candidate of the trigger's row: at the edges of a byte and of 32- and
# 64-bit words, and at the row's last candidate.  Take's row is the AND of
# its factor rows, takeWhile's (all elements pass) one call per candidate.
# No wrong output differs at candidate 0, the empty sequence, which is below
# every output; the strict-prefix order mutants above disagree there.

MISMATCH_POSITIONS = (1, 7, 8, 29, 30, 31, 63, 64, -1)


@pytest.mark.parametrize("name", ("take", "takeWhile"))
@pytest.mark.parametrize("pos", MISMATCH_POSITIONS)
def test_first_mismatch_at_each_bit_position(name, pos):
    k, L = 2, 6
    s = seqs(k, L)[pos]
    wide = s + (0,) * (L - len(s))
    if name == "take":
        # real output s[:-1], wrong output above it: the right row is wider
        trigger, bad = (len(s) - 1, s[:-1]), wide
    else:
        # real output wide, wrong output below it: the left row is wider
        trigger, bad = (Pred(0b11, k), wide), s[:-1]

    def hard(*args):
        return bad if args == trigger else REAL[name](*args)
    assert agree(name, k, L, hard) == ("fail", "fail")
    assert engine_spec(name, k, L, hard)[2][-1] == ("ys", s)


# takeWhile's spec ranges over the whole carrier: a candidate that fails the
# predicate has a false left side, and the first one with a true right flag
# (the stray) is kept apart from the feasible row.  dropWhile's spec ranges
# over its easy set alone, so it has no stray.
STRAYS = {
    # p keeps 1: stray (0,) at 1 before the feasible (1,) at 2
    "stray-first": (0b10, (1, 1), (0,), (0,)),
    # p keeps 0: feasible (0,) at 1 before the stray (1,) at 2
    "stray-after": (0b01, (0, 0), (1,), (0,)),
    # p keeps 0: the feasible rows agree, the stray (1,) alone differs
    "stray-alone": (0b01, (1,), (1,), (1,)),
}


@pytest.mark.parametrize("case", sorted(STRAYS))
def test_stray_and_feasible_mismatch_in_either_order(case):
    mask, xs, bad, witness = STRAYS[case]
    trigger = (Pred(mask, 2), xs)

    def hard(*args):
        return bad if args == trigger else take_while(*args)
    # an infeasible wrong output leaves the gc check, over the easy set, intact
    assert agree("takeWhile", 2, 3, hard)[0] == "fail"
    assert engine_spec("takeWhile", 2, 3, hard)[2] == (
        ("p", trigger[0]), ("xs", xs), ("ys", witness))


# --- relations must return a bool -------------------------------------------
#
# A row holds one byte per candidate, so a relation result other than 0 or 1
# would be misread (2 as a mismatch) or crash the row (None).  The engine
# refuses either with a ValueError that names the relation, the result and
# its arguments, on the right row, a plain left row and a factor row alike.


def prefix_two(a, b):
    return 2 if prefix(a, b) else False


def prefix_or_none(a, b):
    # () is below every image, so the row's first result is a good True
    return prefix(a, b) or None


def on_take_side(side, second):
    """``second`` as take's relation on ``side``: itself on order_b, else
    the product with the count order, componentwise or plain."""
    if side == "order_b":
        return second
    leq = componentwise(le, second, name="product")
    if side == "factor":
        return leq
    return lambda a, b: leq(a, b)


# (relation, side) -> the refusal, at the first bad result of the scan
BAD_FLAGS = {
    (prefix_two, "order_b"): "prefix_two returned 2 for ((), ())",
    (prefix_two, "factor"): "prefix_two returned 2 for ((), ())",
    (prefix_two, "plain"): "<lambda> returned 2 for ((0, ()), (0, ()))",
    (prefix_or_none, "order_b"): "prefix_or_none returned None for ((0,), ())",
    (prefix_or_none, "factor"): "prefix_or_none returned None for ((0,), ())",
    (prefix_or_none, "plain"):
        "<lambda> returned None for ((1, (0,)), (1, ()))",
}


def _take_gc_with(side, leq):
    [(_, gc)] = build_gcs("take", Universe(2, 2))
    field = "order_b" if side == "order_b" else "order_a"
    order = dataclasses.replace(getattr(gc, field), leq=leq)
    return dataclasses.replace(gc, **{field: order})


@pytest.mark.parametrize("bad,side", BAD_FLAGS,
                         ids=lambda v: getattr(v, "__name__", v))
def test_a_relation_that_does_not_return_a_bool_is_refused(bad, side):
    gc = _take_gc_with(side, on_take_side(side, bad))
    message = "relation " + BAD_FLAGS[bad, side] + "; it must return a bool"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_gc_instance(gc)


@pytest.mark.parametrize("side", ("order_b", "factor", "plain"))
def test_a_relation_may_return_0_and_1(side):
    gc = _take_gc_with(side, on_take_side(
        side, lambda a, b: int(prefix(a, b))))
    [(_, real)] = build_gcs("take", Universe(2, 2))
    assert outcome(check_gc_instance(gc)) == outcome(check_gc_instance(real))
    assert check_gc_instance(gc).verdict == "pass"


def test_an_error_the_relation_raises_is_not_renamed():
    def broken(a, b):
        raise TypeError("broken relation")
    with pytest.raises(TypeError, match="^broken relation$"):
        check_gc_instance(_take_gc_with("order_b", broken))
