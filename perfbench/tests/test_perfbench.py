"""Tests of the benchmark itself: seeded generators, the correctness gate and
the tracer.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import galoischeck
import pytest
from galoischeck import cli, connections, orders

import reference as ref
import run
import workloads as wl
from tracing import Tracer

BENCH = Path(__file__).resolve().parents[1]


def _tags(ops):
    return [op.tag for op in ops]


def test_same_seed_same_inputs():
    assert wl.oracle_queries(7) == wl.oracle_queries(7)
    assert wl.mutant_triggers(7) == wl.mutant_triggers(7)
    assert _tags(wl.check_pass_ops(7)) == _tags(wl.check_pass_ops(7))
    assert _tags(wl.check_refute_ops(7)) == _tags(wl.check_refute_ops(7))


def test_other_seed_changes_inputs():
    assert wl.oracle_queries(7) != wl.oracle_queries(8)
    triggers = [{t[:3] for t in wl.mutant_triggers(s)} for s in (7, 8)]
    assert triggers[0] != triggers[1]
    assert _tags(wl.check_pass_ops(7)) != _tags(wl.check_pass_ops(8))


def test_oracle_mix_shape():
    qs = wl.oracle_queries(3)
    assert len(qs) >= 1000
    per = Counter((name, u) for name, u, _ in qs)
    assert len(per) == 10 and len(set(per.values())) == 1


def test_closed_forms_match_acceptance_pins():
    assert ref.pass_cases("check-spec", "takeWhile", 2, 5) == 4 * 63 * 63
    assert ref.pass_cases("check-spec", "take", 2, 5) == 7 * 63 * 63
    assert ref.pass_cases("check-spec", "dropWhile", 2, 5) == 8064
    assert ref.pass_cases("check-spec", "zip", 2, 5) == 63 * 63 * 1365
    assert ref.pass_cases("check-laws", "fusion", 2, 5) == 2016
    assert ref.pass_cases("check-laws", "indirect-equality", 2, 4) == 2 * 961


def test_every_mutant_fails_with_the_expected_witness():
    ops = wl.check_refute_ops(5)
    assert len(ops) >= 100
    p = wl.run_pass(ops, fresh_cache=True)
    bad = [r.op.tag for r in p.records if not r.ok]
    assert not bad


def _gc_cases(name, k, L, m):
    """Cases in the adjunction check of the instance for predicate m."""
    ss = ref.seqs(k, L)
    if name in ("takeWhile", "filter"):
        return len(ss) * sum(ref.all_sat(m, y) for y in ss)
    if name == "dropWhile":
        return len(ss) * sum(ref.head_fails(m, z) for z in ss)
    return ref.pass_cases("check-gc", name, k, L)


def test_witnesses_spread_over_the_scan():
    by_path: dict = {}
    for name, path, args, _, (pos, _) in wl.mutant_triggers(5):
        k, L = wl.REFUTE_U.get(name, wl.CHECK_U)
        if path == "spec":
            total = ref.pass_cases("check-spec", name, k, L)
        else:
            total = _gc_cases(name, k, L, args[0])
        by_path.setdefault((name, path), []).append(pos / total)
    assert len(by_path) == 10
    for key, fracs in by_path.items():
        assert len(fracs) == wl.MUTANTS_PER_PATH, key
        assert sum(f > 0.1 for f in fracs) >= len(fracs) // 2, (key, fracs)
        assert max(fracs) > 0.5, (key, fracs)


def _traced_totals(ops, fresh):
    tr = Tracer()
    tr.install(galoischeck)
    try:
        p = wl.run_pass(ops, fresh, tr)
    finally:
        tr.uninstall()
    assert all(r.ok for r in p.records)
    counts = {k: v for k, v in tr.totals().items()
              if k.endswith((".calls", ".elems")) or k == "connections.cases"}
    return tr, p, counts


@pytest.mark.parametrize("workload", ["check-pass", "oracle-mix"])
def test_tracing_keeps_results_and_counts_repeat(workload):
    if workload == "check-pass":
        ops, fresh = wl.check_pass_ops(1, (2, 3), (2, 3)), True
    else:
        ops, fresh = wl.oracle_mix_ops(1, per_bucket=5), False
    untraced = wl.run_pass(ops, fresh)
    assert all(r.ok for r in untraced.records)
    tr, traced, first = _traced_totals(ops, fresh)
    _, _, second = _traced_totals(ops, fresh)
    assert first == second
    assert not tr.unmeasured
    # the package is left as it was found
    assert cli.check_law is connections.check_law
    assert orders.PREFIX.leq is orders.is_prefix
    # the JSON bytes of every command match the untraced pass
    texts = [r.result[1] for r in untraced.records if r.op.root[1] == "cli"]
    assert texts == [r.result[1] for r in traced.records
                     if r.op.root[1] == "cli"]

    metrics = run.layer_metrics(tr, traced, wl.median_metrics([untraced]),
                                0.0, True)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert all(metrics[m["name"]]["unit"] == m["unit"]
               for m in spec["per_layer"])
    assert -1 not in [m["value"] for m in metrics.values()]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-pass",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
