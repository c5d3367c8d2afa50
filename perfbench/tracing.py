"""Per-layer tracing from outside the package.

Wrappers go where each layer looks up the one below it: the module globals
(``galoischeck.connections.is_prefix``, ``galoischeck.cli.check_law``, ...)
and the ``leq`` field of every ``OrderDef`` record, which holds a direct
reference to its relation.  Coarse calls (entry points, ``run_check``,
materialization, ``build_gcs``, oracle candidate generation and search) get
one span each; hot leaves (relations, combinators) get counts and, for the
outermost leaf call only, accumulated time.  A span's self time is its
duration minus what its child spans and leaf calls cover.

Every number is accumulated per root span (one CLI command, one library
check, one oracle query), so totals split by workload and by subcommand.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

RELATIONS = ("is_prefix", "is_sublist", "is_suffix", "product_order",
             "pair_prefix", "seq_pair_prefix", "seq_list_prefix")
COMBINATORS = ("take_while", "take_n", "filter_p", "drop_while",
               "head_fails", "zip_pair", "unzip_pair", "words_split",
               "unwords_join", "lines_split", "unlines_join")
ENTRIES = ("check_easy_hard", "check_canonical_gc", "check_gc_instance",
           "check_cancellation", "check_semi_inverse",
           "check_injective_adjoint", "check_idempotent", "check_fusion",
           "check_split_append", "check_indirect_equality", "check_law",
           "order_laws_report", "find_non_gc_counterexample")

# attribute name -> (kind, metric group, layer)
PLAN = {
    "run_check": ("span", "connections.run_check", "connections"),
    "build_gcs": ("span", "connections.build_gcs", "connections"),
    "check_order_laws": ("span", "orders.check_order_laws", "orders"),
    "materialize_carrier": ("span", "core.materialize", "core"),
    "candidates_below": ("span", "oracle.candidates_below", "oracle"),
    # zip's stand-in for candidates_below
    "_zip_candidates": ("span", "oracle.candidates_below", "oracle"),
    "best_under": ("span", "oracle.best_under", "oracle"),
    "enumerate_carrier": ("enum", "core.enumerate", "core"),
    "enum_pair_seqs": ("enum", "core.enumerate", "core"),
    **{n: ("span", "connections.entry", "connections") for n in ENTRIES},
    **{n: ("leaf", "orders.relation", "orders") for n in RELATIONS},
    **{n: ("leaf", "combinators", "combinators") for n in COMBINATORS},
}

# module -> the names other code looks up in that module's globals
SITES = {
    "cli": ("check_canonical_gc", "check_easy_hard", "check_law",
            "find_non_gc_counterexample", "order_laws_report"),
    "connections": ENTRIES + ("is_prefix", "is_sublist", "is_suffix")
    + COMBINATORS + ("run_check", "build_gcs", "check_order_laws",
                     "materialize_carrier"),
    "orders": RELATIONS + ("materialize_carrier",),
    "oracle": ("candidates_below", "_zip_candidates", "best_under",
               "enumerate_carrier", "enum_pair_seqs", "head_fails"),
    "combinators": COMBINATORS,
}

LEAF_LAYER = {"orders.relation": "orders", "combinators": "combinators"}
LAYERS = ("cli", "connections", "orders", "combinators", "core", "oracle")

_ID, _PARENT, _NAME, _GROUP, _LAYER, _T0, _COVERED = range(7)


class Tracer:
    """Spans kept in memory, plus per-root accumulators.

    ``acc`` keys: ``<group>.calls``, ``<group>.s`` and ``<group>.self_s`` for
    spans; ``<group>.<fn>.calls`` for every leaf call, ``<group>.calls`` and
    ``<group>.s`` for outermost leaf calls; ``layer.<layer>.self_s`` for span
    self time; plus whatever the result hooks count.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.roots: list[dict] = []
        self.acc: Counter = Counter()
        self.in_leaf = False
        self._stack: list[list] = [[0, None, "outside", "", "", 0.0, 0.0]]
        self._next_id = 1
        self._tag = ""
        self._undo: list = []
        self._wrappers: dict = {}
        self.installed: set[str] = set()
        self.unmeasured: list[str] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str, group: str, layer: str) -> list:
        sp = [self._next_id, self._stack[-1][_ID], name, group, layer,
              0.0, 0.0]
        self._next_id += 1
        self._stack.append(sp)
        sp[_T0] = perf_counter()
        return sp

    def _close(self, sp: list) -> None:
        t1 = perf_counter()
        self._stack.pop()
        dur = t1 - sp[_T0]
        self_s = dur - sp[_COVERED]
        self._stack[-1][_COVERED] += dur
        acc, group = self.acc, sp[_GROUP]
        acc[group + ".calls"] += 1
        acc[group + ".s"] += dur
        acc[group + ".self_s"] += self_s
        acc["layer." + sp[_LAYER] + ".self_s"] += self_s
        self.spans.append((sp[_ID], sp[_PARENT], sp[_NAME], sp[_LAYER],
                           sp[_T0], t1, self_s, self._tag))

    @contextmanager
    def root(self, tag: str, group: str, layer: str):
        """One command, check or query; its numbers are kept apart."""
        self.acc = Counter()
        self._tag = tag
        sp = self._open(tag, group, layer)
        try:
            yield
        finally:
            self._close(sp)
            self.roots.append({"tag": tag, "acc": dict(self.acc)})

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, fn, group: str, layer: str):
        tr, name = self, fn.__name__

        def wrapped(*args, **kwargs):
            sp = tr._open(name, group, layer)
            try:
                res = fn(*args, **kwargs)
            finally:
                tr._close(sp)
            if group == "core.materialize":
                tr.acc["core.materialize.elems"] += len(res)
            elif group == "connections.run_check":
                tr.acc["connections.cases"] += res.cases_checked
            elif group == "oracle.candidates_below":
                tr.acc["oracle.candidates"] += len(res)
            return res
        return wrapped

    def _leaf_wrapper(self, fn, group: str):
        tr = self
        key = f"{group}.{fn.__name__}.calls"
        calls, secs = group + ".calls", group + ".s"

        def wrapped(*args):
            acc = tr.acc
            acc[key] += 1
            if tr.in_leaf:
                return fn(*args)
            tr.in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                tr.in_leaf = False
                acc[calls] += 1
                acc[secs] += dt
                tr._stack[-1][_COVERED] += dt
        return wrapped

    def _enum_wrapper(self, fn):
        tr = self

        def wrapped(*args, **kwargs):
            for v in fn(*args, **kwargs):
                tr.acc["core.enumerate.elems"] += 1
                yield v
        return wrapped

    def _wrap(self, fn, kind: str, group: str, layer: str):
        """One wrapper per function, however many sites hold it."""
        if id(fn) not in self._wrappers:
            if kind == "span":
                w = self._span_wrapper(fn, group, layer)
            elif kind == "leaf":
                w = self._leaf_wrapper(fn, group)
            else:
                w = self._enum_wrapper(fn)
            self._wrappers[id(fn)] = (fn, w)  # fn kept alive: ids stay unique
        return self._wrappers[id(fn)][1]

    def install(self, package) -> None:
        """Patch every site in SITES and every OrderDef record.  A site the
        package no longer has is listed in ``unmeasured``."""
        for mod_name, names in SITES.items():
            mod = getattr(package, mod_name, None)
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.unmeasured.append(f"{mod_name}.{name}")
                    continue
                kind, group, layer = PLAN[name]
                self._undo.append((mod, name, fn))
                setattr(mod, name, self._wrap(fn, kind, group, layer))
                self.installed.add(group)
                if kind == "leaf":
                    self.installed.add(f"{group}.{fn.__name__}")
        orders = package.orders
        records = [v for v in vars(orders).values()
                   if isinstance(v, getattr(orders, "OrderDef", ()))]
        if not records:
            self.unmeasured.append("orders.OrderDef.leq")
        for od in records:
            self._undo.append((od, "leq", od.leq))
            object.__setattr__(od, "leq", self._wrap(
                od.leq, "leaf", "orders.relation", "orders"))

    def uninstall(self) -> None:
        for obj, name, fn in reversed(self._undo):
            object.__setattr__(obj, name, fn)
        self._undo.clear()

    # -- output --------------------------------------------------------

    def totals(self) -> Counter:
        out: Counter = Counter()
        for r in self.roots:
            out.update(r["acc"])
        return out

    def layer_seconds(self, totals: Counter) -> dict[str, float]:
        secs = {layer: totals.get(f"layer.{layer}.self_s", 0.0)
                for layer in LAYERS}
        for group, layer in LEAF_LAYER.items():
            secs[layer] += totals.get(group + ".s", 0.0)
        return secs

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "layer", "start", "end", "self_s",
                  "root")
        with open(path, "w") as fh:
            json.dump({"meta": meta, "unmeasured": self.unmeasured,
                       "roots": self.roots,
                       "span_fields": fields, "spans": self.spans}, fh)
