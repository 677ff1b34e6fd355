"""Benchmarks for the incremental rewrite engine.

Three measurements on the largest model-zoo graphs (InceptionV3 is the
largest convolutional entry, BERT the largest transformer entry):

* **candidate throughput** — how many rewrite candidates per second the
  engine can enumerate, materialise and rank.  The eager baseline is the
  seed path (``RuleSet.all_candidates`` + full ``CostModel.estimate`` per
  candidate); the incremental path is lazy candidates + delta costing.
* **end-to-end TASO search** — ``TASOOptimizer.optimise`` wall-clock,
  eager vs incremental.
* **measured end-to-end** — the TASO-optimised graphs executed for real
  with the numpy backend: the cost-model win must survive contact with
  actual kernels.

Every variant must produce *identical* results (costs bit-for-bit, graph
hashes byte-for-byte) — that is what the tests assert.  The speedups are
recorded to ``BENCH_search.json`` (see ``_harness.py``) and gated by
``tools/check_bench.py`` (3x / 2x / 0.97x floors), which CI's bench job
runs on the recording: a wall-clock ratio on a shared host is no reason
for the test suite to go red.

Set ``SEARCH_BENCH_SMOKE=1`` (CI) for a single repetition with fewer TASO
iterations.
"""

import os
from functools import partial

import _harness
from repro.cost import CostModel
from repro.exec import NumpyExecutor
from repro.experiments import ExperimentReport, build_small_model
from repro.rules import default_ruleset
from repro.search import TASOOptimizer

SMOKE = os.environ.get("SEARCH_BENCH_SMOKE") == "1"
REPEATS = 1 if SMOKE else 3
TASO_ITERATIONS = 8 if SMOKE else 30
#: Largest zoo graphs by node count: convolutional and transformer family.
LARGEST_MODELS = ["inception_v3", "bert"]

record = partial(_harness.record, "search", smoke=SMOKE)
best_of = partial(_harness.best_of, repeats=REPEATS)


def test_candidate_generation_throughput(benchmark):
    """Lazy + delta-cost candidate ranking costs what the eager seed path
    costs, bit-for-bit; the throughput of both is recorded."""
    report = ExperimentReport(
        experiment="Search bench",
        description="candidate enumeration + ranking throughput (cand/s)")
    payload = {}

    def run():
        rows = []
        for name in LARGEST_MODELS:
            graph = build_small_model(name)
            ruleset = default_ruleset()

            def eager_pass():
                pure = CostModel()
                candidates = ruleset.all_candidates(graph)
                return [pure.estimate(c.graph) for c in candidates]

            incremental_cm = CostModel()
            parent_cost = incremental_cm.estimate_cached(graph)

            def lazy_pass():
                costs = []
                for candidate in ruleset.lazy_candidates(graph):
                    child = candidate.materialise()
                    if child is None:
                        continue
                    costs.append(incremental_cm.estimate_delta(
                        graph, child, parent_cost=parent_cost))
                return costs

            eager_s, eager_costs = best_of(eager_pass)
            lazy_s, lazy_costs = best_of(lazy_pass)
            # Equivalence gate: identical candidates, bit-identical costs.
            assert lazy_costs == eager_costs, name
            rows.append((name, len(eager_costs), eager_s, lazy_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, count, eager_s, lazy_s in rows:
        speedup = eager_s / lazy_s
        report.add(name, candidates=float(count),
                   eager_cand_per_s=count / eager_s,
                   lazy_cand_per_s=count / lazy_s,
                   speedup_x=speedup)
        payload[name] = {
            "candidates": count,
            "eager_candidates_per_sec": count / eager_s,
            "lazy_candidates_per_sec": count / lazy_s,
            "speedup": speedup,
        }
    print("\n" + report.to_text())
    record("candidate_throughput", payload)


def test_taso_end_to_end_speedup(benchmark):
    """Incremental TASO retraces the eager search exactly; both
    wall-clocks are recorded."""
    report = ExperimentReport(
        experiment="Search bench",
        description="TASOOptimizer.optimise wall-clock, eager vs incremental")
    payload = {}

    def run():
        rows = []
        for name in LARGEST_MODELS:
            graph = build_small_model(name)

            def eager_run():
                return TASOOptimizer(
                    max_iterations=TASO_ITERATIONS,
                    incremental=False).optimise(graph, name)

            def incremental_run():
                return TASOOptimizer(
                    max_iterations=TASO_ITERATIONS,
                    incremental=True).optimise(graph, name)

            eager_s, eager = best_of(eager_run)
            incremental_s, incremental = best_of(incremental_run)
            # Equivalence gate: the incremental engine must retrace the
            # eager search exactly.
            assert incremental.final_cost_ms == eager.final_cost_ms, name
            assert incremental.final_graph.structural_hash() \
                == eager.final_graph.structural_hash(), name
            assert incremental.applied_rules == eager.applied_rules, name
            assert incremental.stats == eager.stats, name
            rows.append((name, eager_s, incremental_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, eager_s, incremental_s in rows:
        speedup = eager_s / incremental_s
        report.add(name, eager_s=eager_s, incremental_s=incremental_s,
                   speedup_x=speedup)
        payload[name] = {
            "eager_seconds": eager_s,
            "incremental_seconds": incremental_s,
            "speedup": speedup,
            "iterations": TASO_ITERATIONS,
        }
    print("\n" + report.to_text())
    record("taso_end_to_end", payload)


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
            baseline_ms = executor.measure(graph, repeats=REPEATS)
            optimised_ms = executor.measure(result.final_graph,
                                            repeats=REPEATS)
            rows.append((name, baseline_ms, optimised_ms,
                         len(result.applied_rules)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, baseline_ms, optimised_ms, rules in rows:
        speedup = baseline_ms / optimised_ms
        report.add(name, baseline_ms=baseline_ms, optimised_ms=optimised_ms,
                   speedup_x=speedup, rules=float(rules))
        payload[name] = {
            "baseline_execute_ms": baseline_ms,
            "optimised_execute_ms": optimised_ms,
            "speedup": speedup,
            "rules_applied": rules,
        }
    print("\n" + report.to_text())
    record("measured_end_to_end", payload)
    for name, _, _, rules in rows:
        assert rules > 0, f"{name}: search applied no rewrites"
