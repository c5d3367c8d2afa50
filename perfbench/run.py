"""galoischeck benchmark.

python3 perfbench/run.py --workload check-pass --seed 1 --seconds 20 --trace 0

Runs one workload (check-pass, check-refute, oracle-mix) against the package
under ``src/`` of the checkout this file sits in, for about ``--seconds``
seconds of whole passes, and prints one JSON object as the last line of
stdout.  With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` it runs untraced passes for half the time, then one traced
pass, and holds the per-layer metrics (spans go to ``perfbench/out/``).
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11
WORKLOADS = ("check-pass", "check-refute", "oracle-mix")


def load_package():
    """Import galoischeck from this checkout's src/, and only from there."""
    pkg_dir = SRC / "galoischeck"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"error: no galoischeck package under {SRC}")
    sys.path.insert(0, str(SRC))
    import galoischeck
    if Path(galoischeck.__file__).resolve().parent != pkg_dir.resolve():
        sys.exit(f"error: imported galoischeck from {galoischeck.__file__}, "
                 f"not from {pkg_dir}")
    return galoischeck


def setup_seconds(workload: str, seed: int, clock) -> float:
    """Median, over fresh interpreters, of the time from process start to
    the first operation being ready: start, import, input generation."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(clock() - t0)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            sys.exit("error: setup probe failed")
    return statistics.median(times)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr, traced, untraced: dict, fail_ratio: float,
                  has_cache: bool) -> dict:
    """Per-layer metrics of the traced pass, plus the workload figures of
    the untraced passes.  A metric whose wrapper site the package no longer
    has reads -1 (unmeasured)."""
    T = tr.totals()
    cases = T["connections.cases"]
    comb_calls = sum(v for k, v in T.items()
                     if k.startswith("combinators.") and k.count(".") == 2)
    hits, misses = traced.cache_hits, traced.cache_misses
    shares = tr.layer_seconds(T)
    rows = [
        ("orders.is_prefix.calls", "count",
         T["orders.relation.is_prefix.calls"], "orders.relation.is_prefix"),
        ("orders.is_sublist.calls", "count",
         T["orders.relation.is_sublist.calls"], "orders.relation.is_sublist"),
        ("orders.is_suffix.calls", "count",
         T["orders.relation.is_suffix.calls"], "orders.relation.is_suffix"),
        ("orders.relation.s", "s", T["orders.relation.s"], "orders.relation"),
        ("orders.relation_calls_per_case", "calls/case",
         _ratio(T["orders.relation.calls"], cases), "orders.relation"),
        ("orders.is_sublist.cache_hit_ratio", "ratio",
         _ratio(hits, hits + misses), "cache_info"),
        ("orders.check_order_laws.self_s", "s",
         T["orders.check_order_laws.self_s"], "orders.check_order_laws"),
        ("connections.run_check.calls", "count",
         T["connections.run_check.calls"], "connections.run_check"),
        ("connections.cases", "count", cases, "connections.run_check"),
        ("connections.run_check.self_s", "s",
         T["connections.run_check.self_s"], "connections.run_check"),
        ("connections.cases_per_s", "1/s",
         _ratio(cases, T["connections.run_check.s"]), "connections.run_check"),
        ("connections.entry.self_s", "s", T["connections.entry.self_s"],
         "connections.entry"),
        ("connections.build_gcs.s", "s", T["connections.build_gcs.s"],
         "connections.build_gcs"),
        ("combinators.calls", "count", comb_calls, "combinators"),
        ("combinators.s", "s", T["combinators.s"], "combinators"),
        ("combinators.calls_per_case", "calls/case",
         _ratio(comb_calls, cases), "combinators"),
        ("core.materialize.calls", "count", T["core.materialize.calls"],
         "core.materialize"),
        ("core.materialize.elems", "count", T["core.materialize.elems"],
         "core.materialize"),
        ("core.materialize.s", "s", T["core.materialize.s"],
         "core.materialize"),
        ("core.enumerate.elems", "count", T["core.enumerate.elems"],
         "core.enumerate"),
        ("oracle.calls", "count", T["oracle.query.calls"], None),
        ("oracle.candidates_below.s", "s", T["oracle.candidates_below.s"],
         "oracle.candidates_below"),
        ("oracle.candidates.useful_ratio", "ratio",
         _ratio(T["oracle.candidates"], T["core.enumerate.elems"]),
         "core.enumerate"),
        ("oracle.best_under.s", "s", T["oracle.best_under.self_s"],
         "oracle.best_under"),
        ("cli.calls", "count", T["cli.command.calls"], None),
        ("cli.self_s", "s", T["cli.command.self_s"], "connections.entry"),
        ("cli.out_bytes", "bytes",
         sum(len(r.result[1]) for r in traced.records
             if r.op.root[1] == "cli" and isinstance(r.result, tuple)), None),
        ("trace.overhead_ratio", "ratio",
         _ratio(traced.seconds, untraced["pass_s"]), None),
        ("pass_wall_s", "s", untraced["pass_wall_s"], None),
    ]
    rows += [(f"layer.{layer}.share", "ratio",
              _ratio(secs, traced.wall), None)
             for layer, secs in shares.items()]
    rows += [(name, unit, untraced[name], None) for name, unit in (
        ("check_spec_s", "s"), ("check_gc_s", "s"), ("check_order_s", "s"),
        ("check_laws_s", "s"), ("cases_per_s", "1/s"),
        ("refute_p50_ms", "ms"), ("refute_p90_ms", "ms"),
        ("oracle_p50_ms", "ms"), ("oracle_p99_ms", "ms"),
        ("oracle_qps", "1/s"))]
    rows.append(("fail_ratio", "ratio", fail_ratio, None))
    reached = tr.installed | ({"cache_info"} if has_cache else set())
    return {name: {"value": value if need is None or need in reached else -1,
                   "unit": unit}
            for name, unit, value, need in rows}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    package = load_package()
    from clock import SpeedClock
    if args.setup_probe:
        import workloads as wl
        wl.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    clock = SpeedClock()
    clock.start()
    try:
        result = measure(args, package, clock)
    finally:
        clock.stop()
    print(json.dumps(result))
    return 0


def measure(args, package, clock) -> dict:
    setup_s = None
    if not args.trace:
        setup_s = setup_seconds(args.workload, args.seed, clock.now)
    import workloads as wl
    from tracing import Tracer
    ops = wl.WORKLOADS[args.workload](args.seed)
    fresh = wl.FRESH_CACHE[args.workload]

    checked = []
    if args.workload == "oracle-mix":
        checked.append(wl.run_pass(ops, fresh))  # warm-up, not timed
    timed = []
    budget = args.seconds / 2 if args.trace else args.seconds
    t0 = perf_counter()
    while not timed or perf_counter() - t0 < budget:
        timed.append(wl.run_pass(ops, fresh, clock=clock.now))
    checked += timed
    untraced = wl.median_metrics(timed)

    if args.trace:
        tracer = Tracer()
        tracer.install(package)
        try:
            traced = wl.run_pass(ops, fresh, tracer, clock.now)
        finally:
            tracer.uninstall()
        checked.append(traced)

    records = [r for p in checked for r in p.records]
    failed = [r for r in records if not r.ok]
    for r in failed[:10]:
        print(f"failed: {r.op.tag}: {r.result!r}"[:300], file=sys.stderr)
    machine = machine_facts()
    print("machine: " + json.dumps(machine), file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced,
                                len(failed) / len(records),
                                hasattr(wl.SUBLIST, "cache_info"))
        if tracer.unmeasured:
            print("unmeasured: " + " ".join(tracer.unmeasured),
                  file=sys.stderr)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "machine": machine, "traced_pass_s": traced.seconds,
                      "metrics": metrics})
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "pass_s": {"value": untraced["pass_s"], "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    return {"correct": not failed, "attempted": len(records),
            "failed": len(failed), "metrics": metrics}


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


if __name__ == "__main__":
    sys.exit(main())
