"""Benchmark of the search's effect on executed latency.

**Measured end-to-end** on the largest model-zoo graphs (InceptionV3 is the
largest convolutional entry, BERT the largest transformer entry): the
TASO-optimised graphs executed for real with the numpy backend — the
cost-model win must survive contact with actual kernels.

The test asserts that the search rewrote something and records the executed
speedup to ``BENCH_search.json`` (see ``_harness.py``); its 0.97x floor
lives in ``tools/check_bench.py``, which CI's bench job runs on the
recording: a wall-clock ratio on a shared host is no reason for the test
suite to go red.  It also records, per model, the identities the search
took (``graphs_hashed``), the structural hashes it needed to settle
signature ties (``graphs_digested``) and the duplicates it found; the gate
holds ``digest_share`` = digested / hashed under a ceiling, so a search that
went back to hashing every kept graph fails on a count, not on wall-clock.
And it records, per model, ``warm_nodes_derived``: the node costs plus
kernel times a second TASO search, of a fresh build of the model, derived.
Those are memoised per node template, process-wide, so the gate holds it at
0 — a count, whatever the host.  Search wall-clock itself is judged by
``python3 -m xbench --workload search_cold``; that the engine and delta
costing retrace a from-scratch search bit-for-bit is pinned by
``tests/rules/test_engine_equivalence.py`` and
``tests/search/test_taso_queue.py``.

Whichever graph an executor runs first reads slower (allocator and cache
warm-up: xbench documents it), so the two sides are interleaved — each
repeat alternates which graph goes first — and each side keeps its best, the
estimator of ``NumpyExecutor.measure``.

Set ``SEARCH_BENCH_SMOKE=1`` (CI) for a single repetition with fewer TASO
iterations.
"""

import math
import os
from functools import partial

import _harness
from repro.exec import NumpyExecutor
from repro.experiments import ExperimentReport, build_small_model
from repro.search import TASOOptimizer

SMOKE = os.environ.get("SEARCH_BENCH_SMOKE") == "1"
#: Even outside smoke runs, so each graph goes first equally often.
REPEATS = 1 if SMOKE else 6
TASO_ITERATIONS = 8 if SMOKE else 30
#: Largest zoo graphs by node count: convolutional and transformer family.
LARGEST_MODELS = ["inception_v3", "bert"]

record = partial(_harness.record, "search", smoke=SMOKE)


def _measure_pair(executor, baseline, optimised):
    """Best-of-``REPEATS`` executed ms of both graphs, order alternated."""
    graphs, best = (baseline, optimised), [math.inf, math.inf]
    for repeat in range(REPEATS):
        for side in ((0, 1), (1, 0))[repeat % 2]:
            best[side] = min(best[side], executor.run(graphs[side])[1])
    return best


def test_measured_end_to_end(benchmark):
    """TASO-optimised graphs and their inputs executed under the numpy
    backend: the search must have rewritten something, and the executed
    speedup is recorded (``tools/check_bench.py`` holds its floor)."""
    report = ExperimentReport(
        experiment="Search bench",
        description="executed latency before vs after TASO optimisation")
    payload = {}
    executor = NumpyExecutor()

    def run():
        rows = []
        for name in LARGEST_MODELS:
            graph = build_small_model(name)
            result = TASOOptimizer(
                max_iterations=TASO_ITERATIONS).optimise(graph, name)
            warm = TASOOptimizer(max_iterations=TASO_ITERATIONS)
            warm.optimise(build_small_model(name), name)
            derived = {"warm_nodes_derived": warm.cost_model.nodes_derived
                                             + warm.e2e.nodes_priced}
            baseline_ms, optimised_ms = _measure_pair(
                executor, graph, result.final_graph)
            rows.append((name, baseline_ms, optimised_ms,
                         len(result.applied_rules), result.stats, derived))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    identity, derivations = {}, {}
    for name, baseline_ms, optimised_ms, rules, stats, derived in rows:
        derivations[name] = derived
        speedup = baseline_ms / optimised_ms
        report.add(name, baseline_ms=baseline_ms, optimised_ms=optimised_ms,
                   speedup_x=speedup, rules=float(rules))
        payload[name] = {
            "baseline_execute_ms": baseline_ms,
            "optimised_execute_ms": optimised_ms,
            "speedup": speedup,
            "rules_applied": rules,
        }
        hashed, digested = stats["graphs_hashed"], stats["graphs_digested"]
        identity[name] = {
            "graphs_hashed": hashed,
            "graphs_digested": digested,
            "duplicates": 1 + stats["candidates_evaluated"]
                          - stats["graphs_seen"],
            "digest_share": digested / hashed,
        }
    print("\n" + report.to_text())
    print("identities:", identity)
    print("derivations:", derivations)
    record("measured_end_to_end", payload)
    record("identity", identity)
    record("derivations", derivations)
    for name, _, _, rules, _, _ in rows:
        assert rules > 0, f"{name}: search applied no rewrites"
