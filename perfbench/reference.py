"""Naive reference answers for the benchmark's correctness gate.

Nothing here imports galoischeck.  Universes are (alphabet size k, length
bound L) pairs, predicates are alphabet bitmasks, and every enumeration is
written out again from the ordering the package documents, so a wrong
answer from the package cannot also be the expected answer.
"""

from __future__ import annotations

import itertools

SEPARATOR = 0


# ---------------------------------------------------------------------------
# Enumerations, in the package's documented order.


def seqs(k: int, L: int) -> list:
    """Shortest first, lexicographic within a length."""
    return [t for n in range(L + 1)
            for t in itertools.product(range(k), repeat=n)]


def pair_seqs(k: int, L: int) -> list:
    pairs = list(itertools.product(range(k), repeat=2))
    return [t for n in range(L + 1)
            for t in itertools.product(pairs, repeat=n)]


def seq_lists(k: int, L: int) -> list:
    """Word lists by ascending weight (list length plus word lengths); within
    a weight the first word grows by length then value."""
    def exact(w):
        if w == 0:
            return [()]
        return [(first,) + rest
                for n in range(w)
                for first in itertools.product(range(k), repeat=n)
                for rest in exact(w - n - 1)]
    return [ws for w in range(L + 1) for ws in exact(w)]


def nats(L: int) -> list:
    """Counts for take: one past every sequence length."""
    return list(range(L + 2))


def holds(mask: int, e: int) -> bool:
    return bool(mask >> e & 1)


# ---------------------------------------------------------------------------
# Relations and combinators, from their closed forms.


def prefix(a, b) -> bool:
    return len(a) <= len(b) and b[:len(a)] == a


def suffix(a, b) -> bool:
    return len(a) <= len(b) and b[len(b) - len(a):] == a


def sublist(a, b) -> bool:
    it = iter(b)
    return all(e in it for e in a)


def unzip(zs):
    return tuple(a for a, _ in zs), tuple(b for _, b in zs)


def all_sat(mask: int, ys) -> bool:
    return all(holds(mask, e) for e in ys)


def head_fails(mask: int, zs) -> bool:
    return not zs or not holds(mask, zs[0])


def take_while(mask, xs):
    return tuple(itertools.takewhile(lambda e: holds(mask, e), xs))


def drop_while(mask, xs):
    return tuple(itertools.dropwhile(lambda e: holds(mask, e), xs))


def filter_(mask, xs):
    return tuple(e for e in xs if holds(mask, e))


def take(n, xs):
    return xs[:n]


def zip_(xs, ys):
    return tuple(zip(xs, ys))


REAL = {"takeWhile": take_while, "take": take, "filter": filter_,
        "dropWhile": drop_while, "zip": zip_}


def words_split(xs):
    out, cur = [], []
    for e in xs + (SEPARATOR,):
        if e == SEPARATOR:
            if cur:
                out.append(tuple(cur))
            cur = []
        else:
            cur.append(e)
    return tuple(out)


def unwords_join(ws):
    out = []
    for i, w in enumerate(ws):
        out += ([SEPARATOR] if i else []) + list(w)
    return tuple(out)


def lines_split(xs):
    segs, cur = [], []
    for e in xs:
        if e == SEPARATOR:
            segs.append(tuple(cur))
            cur = []
        else:
            cur.append(e)
    segs.append(tuple(cur))
    while segs and not segs[-1]:
        segs.pop()
    return tuple(segs)


def unlines_join(ws):
    return tuple(e for w in ws for e in w + (SEPARATOR,))


PAIRS = {"words-unwords": (unwords_join, words_split),
         "lines-unlines": (unlines_join, lines_split)}


# ---------------------------------------------------------------------------
# What each mutant returns on its trigger input; on every other input a
# mutant is the real combinator.


def _pad_zip(xs, ys):
    return tuple(itertools.zip_longest(xs, ys, fillvalue=0))


MUTANTS = {
    "take": lambda n, xs: xs[:n + 1],                   # off by one
    "takeWhile": lambda m, xs: take_while(~m, xs),      # polarity flipped
    "dropWhile": lambda m, xs: drop_while(m, xs)[:-1],  # last element dropped
    "filter": take_while,                               # stops at a failure
    "zip": _pad_zip,                                    # pads with 0
}


# ---------------------------------------------------------------------------
# The specification and adjunction scans, naive, for one input slice.


def _spec_slice(name: str, k: int, L: int, args, out):
    """Inner axis values and the violation test of the split specification
    for one outer assignment ``args`` whose hard-side output is ``out``."""
    ss = seqs(k, L)
    if name in ("takeWhile", "filter"):
        m, xs = args
        rel = prefix if name == "takeWhile" else sublist
        return ss, lambda ys: (rel(ys, xs) and all_sat(m, ys)) != rel(ys, out)
    if name == "take":
        n, xs = args
        return ss, lambda ys: ((len(ys) <= n and prefix(ys, xs))
                              != prefix(ys, out))
    if name == "dropWhile":
        m, l = args
        cand = [z for z in ss if head_fails(m, z)]
        return cand, lambda z: suffix(z, l) != suffix(z, out)
    if name == "zip":
        xs, ys = args

        def viol(zs):
            a, b = unzip(zs)
            return (prefix(a, xs) and prefix(b, ys)) != prefix(zs, out)
        return pair_seqs(k, L), viol
    raise ValueError(name)


def spec_outer(name: str, k: int, L: int) -> list:
    """Outer assignments of the split specification, in scan order."""
    ss = seqs(k, L)
    if name == "take":
        return [(n, xs) for n in nats(L) for xs in ss]
    if name == "zip":
        return [(xs, ys) for xs in ss for ys in ss]
    return [(m, xs) for m in range(1 << k) for xs in ss]


def spec_witness(name: str, k: int, L: int, args, out):
    """Expected (cases_checked, bindings) of the split specification check
    when the hard side differs from the real combinator only at ``args``,
    or None when that difference is invisible to the specification."""
    inner, viol = _spec_slice(name, k, L, args, out)
    j = next((j for j, v in enumerate(inner) if viol(v)), None)
    if j is None:
        return None
    ss = seqs(k, L)
    if name == "dropWhile":
        m, l = args
        before = sum(len(ss) * sum(head_fails(q, z) for z in ss)
                     for q in range(m))
        pos = before + ss.index(l) * len(inner) + j + 1
        return pos, (("p", m), ("l", l), ("z", inner[j]))
    pos = spec_outer(name, k, L).index(args) * len(inner) + j + 1
    a, b = args
    first = {"take": "n", "zip": "xs"}.get(name, "p")
    second = "ys" if name == "zip" else "xs"
    third = "zs" if name == "zip" else "ys"
    return pos, ((first, a), (second, b), (third, inner[j]))


def gc_outer(name: str, k: int, L: int) -> list:
    """Mutant inputs for the adjunction check, ordered by where they sit on
    the x axis of the canonical presentation (for the predicate families
    the predicate picks the instance, so x leads)."""
    ss = seqs(k, L)
    if name in ("takeWhile", "filter", "dropWhile"):
        return [(m, xs) for xs in ss for m in range(1 << k)]
    return spec_outer(name, k, L)


def gc_witness(name: str, k: int, L: int, args, out):
    """Expected (cases_checked, bindings) of the defining equivalence of the
    canonical presentation whose upper map differs from the combinator only
    at ``args``, or None when the difference is invisible to it."""
    ss = seqs(k, L)
    if name in ("takeWhile", "filter", "dropWhile"):
        m, x = args
        if name == "dropWhile":
            ys = [z for z in ss if head_fails(m, z)]
            viol = lambda y: suffix(y, x) != suffix(y, out)  # noqa: E731
            names = ("l", "z")
        else:
            rel = prefix if name == "takeWhile" else sublist
            ys = [y for y in ss if all_sat(m, y)]
            viol = lambda y: rel(y, x) != rel(y, out)  # noqa: E731
            names = ("xs", "ys")
        j = next((j for j, y in enumerate(ys) if viol(y)), None)
        if j is None:
            return None
        return (ss.index(x) * len(ys) + j + 1,
                ((names[0], x), (names[1], ys[j])))
    if name == "take":
        n, xs = args
        ys = ss
        viol = lambda y: ((len(y) <= n and prefix(y, xs))  # noqa: E731
                          != prefix(y, out))
        names = ("n", "xs", "ys")
    else:
        xs, x2 = args
        ys = pair_seqs(k, L)

        def viol(zs):
            a, b = unzip(zs)
            return (prefix(a, xs) and prefix(b, x2)) != prefix(zs, out)
        names = ("xs", "ys", "zs")
    j = next((j for j, y in enumerate(ys) if viol(y)), None)
    if j is None:
        return None
    pos = spec_outer(name, k, L).index(args) * len(ys) + j + 1
    return pos, ((names[0], args[0]), (names[1], args[1]), (names[2], ys[j]))


def pair_gc_witness(name: str, k: int, L: int):
    """First violation of join y <= x  <=>  y <= split x, over x then y."""
    join, split = PAIRS[name]
    lists = seq_lists(k, L)
    for i, x in enumerate(seqs(k, L)):
        sx = split(x)
        for j, ws in enumerate(lists):
            if prefix(join(ws), x) != prefix(ws, sx):
                return i * len(lists) + j + 1, (("xs", x), ("ws", ws))
    return None


def roundtrip_witness(name: str, k: int, L: int):
    """First word list whose join.split.join differs from its join."""
    join, split = PAIRS[name]
    for i, ws in enumerate(seq_lists(k, L)):
        joined = join(ws)
        resplit = split(joined)
        rejoined = join(resplit)
        if rejoined != joined:
            return i + 1, (("ws", ws), ("joined", joined),
                           ("resplit", resplit), ("rejoined", rejoined))
    return None


# ---------------------------------------------------------------------------
# Closed-form case counts of the passing checks.


def _prefix_sizes(length: int) -> tuple[int, int]:
    """(|below y|, chains ending at y) for a prefix-style order."""
    return length + 1, (length + 1) * (length + 2) // 2


def _sublist_sizes(k: int, L: int) -> list[tuple[int, int]]:
    below: dict = {}

    def subs(y):
        if y not in below:
            out = {()}
            for e in y:
                out |= {s + (e,) for s in out}
            below[y] = out
        return below[y]

    return [(len(subs(y)), sum(len(subs(x)) for x in subs(y)))
            for y in seqs(k, L)]


def order_battery_cases(order: str, k: int, L: int) -> int:
    """Reflexive cases (one per element) plus antisymmetric cases (one per
    related pair) plus transitive cases (one per chain x <= y <= z)."""
    if order == "sublist":
        sizes = _sublist_sizes(k, L)
    elif order in ("prefix", "suffix"):
        sizes = [_prefix_sizes(len(y)) for y in seqs(k, L)]
    elif order == "pair-prefix":
        sizes = [_prefix_sizes(len(y)) for y in pair_seqs(k, L)]
    elif order == "product":
        sizes = [(bn * bs, cn * cs)
                 for n in nats(L) for (bn, cn) in [_prefix_sizes(n)]
                 for y in seqs(k, L) for (bs, cs) in [_prefix_sizes(len(y))]]
    else:
        raise ValueError(order)
    return len(sizes) + sum(b for b, _ in sizes) + sum(c for _, c in sizes)


ORDER_NAMES = ("pair-prefix", "prefix", "product", "sublist", "suffix")
SPEC_NAMES = ("dropWhile", "filter", "take", "takeWhile", "zip")
LAWS = ("cancellation-left", "cancellation-right", "fusion", "idempotent",
        "indirect-equality", "injective-adjoint", "order-laws",
        "semi-inverse", "split-append")


def pass_cases(command: str, target: str, k: int, L: int) -> int:
    """Closed-form cases_checked of a passing CLI check."""
    ss = seqs(k, L)
    S, P, N = len(ss), 1 << k, len(nats(L))
    allsat = sum(all_sat(m, y) for m in range(P) for y in ss)
    headfail = sum(head_fails(m, z) for m in range(P) for z in ss)
    PS = len(pair_seqs(k, L))
    x_sizes = {"takeWhile": P * S, "filter": P * S, "dropWhile": P * S,
               "take": N * S, "zip": S * S}
    y_sizes = {"takeWhile": allsat, "filter": allsat, "dropWhile": headfail,
               "take": S, "zip": PS}
    if command == "check-spec":
        return {"takeWhile": P * S * S, "filter": P * S * S,
                "take": N * S * S, "dropWhile": S * headfail,
                "zip": S * S * PS}[target]
    if command == "check-gc":
        return {"takeWhile": S * allsat, "filter": S * allsat,
                "dropWhile": S * headfail, "take": N * S * S,
                "zip": S * S * PS}[target]
    if command == "check-order":
        return order_battery_cases(target, k, L)
    if command == "check-laws":
        left, right = sum(x_sizes.values()), sum(y_sizes.values())
        return {"cancellation-left": left, "cancellation-right": right,
                "semi-inverse": left + right, "injective-adjoint": 2 * right,
                "fusion": 2 * P * P * S, "idempotent": 3 * P * S,
                "split-append": P * S, "indirect-equality": 2 * S * S,
                "order-laws": sum(order_battery_cases(o, k, L)
                                  for o in ORDER_NAMES)}[target]
    raise ValueError(command)
