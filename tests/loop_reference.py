"""The test suite's plain nested-loop reference, written once.

Its enumeration and relations are written out again from the orders the
package documents; only ``Pred`` and the five combinators under test come
from the package, so a wrong engine answer cannot also be the expected
one.  Each law is a generator of ``(hit, bindings)`` cases in scan order,
and ``first_violation`` reads the first hit off it.
"""

import itertools

from galoischeck import (
    Pred, drop_while, filter_p, take_n, take_while, zip_pair)

REAL = {"dropWhile": drop_while, "filter": filter_p, "take": take_n,
        "takeWhile": take_while, "zip": zip_pair}


# --- enumeration, relations and easy conditions ------------------------------


def seqs(k, L):
    return [s for n in range(L + 1)
            for s in itertools.product(range(k), repeat=n)]


def pair_seqs(k, L):
    pairs = list(itertools.product(range(k), repeat=2))
    return [s for n in range(L + 1)
            for s in itertools.product(pairs, repeat=n)]


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


def unzip(zs):
    return tuple(a for a, _ in zs), tuple(b for _, b in zs)


# name -> (order, easy condition, input name, candidate name)
FAMILIES = {
    "dropWhile": (suffix, head_fails, "l", "z"),
    "filter": (sublist, all_pass, "xs", "ys"),
    "takeWhile": (prefix, all_pass, "xs", "ys"),
}


def flipped_take_while(p, xs):
    """takeWhile under the complement of ``p``: a classic polarity slip."""
    return take_while(Pred(~p.mask & ((1 << p.alphabet_size) - 1),
                           p.alphabet_size), xs)


# --- the five adjoint instances ----------------------------------------------


def flat(names, value):
    """The bindings of ``value`` under ``names``, one per name."""
    return tuple(zip(names, value)) if len(names) > 1 else ((names[0], value),)


def instances(name, k, L, hard, take_lower=None, leq_a=None, leq_b=None):
    """(bindings, x names, x carrier, y name, y carrier, lower, upper, left
    order, right order) of each adjoint instance of a target, with upper
    the combinator ``hard``; ``leq_a`` and ``leq_b`` replace the order of
    the left and the right side.  The predicate families have one instance
    per predicate, the identity as lower map and the easy set as y carrier.
    Take's lower map is ``take_lower``, by default ``ys -> (len ys, ys)``,
    under count-and-prefix; zip's is unzip under componentwise prefix."""
    S = seqs(k, L)
    if name in FAMILIES:
        leq, easy, x_name, y_name = FAMILIES[name]
        for p in preds(k):
            yield ((("p", p),), (x_name,), S, y_name,
                   [y for y in S if easy(p, y)], lambda y: y,
                   lambda x, p=p: hard(p, x), leq_a or leq, leq_b or leq)
    elif name == "take":
        yield ((), ("n", "xs"), [(n, xs) for n in range(L + 2) for xs in S],
               "ys", S, take_lower or (lambda ys: (len(ys), ys)),
               lambda v: hard(*v),
               leq_a or (lambda a, b: a[0] <= b[0] and prefix(a[1], b[1])),
               leq_b or prefix)
    else:
        yield ((), ("xs", "ys"), [(xs, ys) for xs in S for ys in S],
               "zs", pair_seqs(k, L), unzip, lambda v: hard(*v),
               leq_a or (lambda a, b: prefix(a[0], b[0])
                         and prefix(a[1], b[1])),
               leq_b or prefix)


def gc_cases(name, k, L, hard, leq_a=None, leq_b=None):
    """The adjunction ``lower y <= x  <=>  y <= upper x`` of each instance,
    x outer and y inner; a hit is a case whose two sides differ.  With the
    real orders it is dropWhile's, take's and zip's split specification."""
    for b, x_names, X, y_name, Y, lower, upper, leq_a, leq_b in instances(
            name, k, L, hard, leq_a=leq_a, leq_b=leq_b):
        images = [(y, lower(y)) for y in Y]
        for x in X:
            out, bx = upper(x), b + flat(x_names, x)
            for y, fy in images:
                yield leq_a(fy, x) != leq_b(y, out), bx + ((y_name, y),)


def first_violation(cases):
    """(verdict, cases up to and including the first hit, its bindings):
    every case and None on a pass.  A hit that is a string is itself the
    verdict, such as "not-applicable"; any other true hit is a "fail"."""
    n = 0
    for n, (hit, bindings) in enumerate(cases, 1):
        if hit:
            return hit if isinstance(hit, str) else "fail", n, bindings
    return "pass", n, None
