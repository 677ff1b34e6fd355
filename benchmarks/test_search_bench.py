"""Benchmarks for the incremental rewrite engine.

Four measurements on the largest model-zoo graphs (InceptionV3 is the
largest convolutional entry, BERT the largest transformer entry):

* **candidate throughput** — how many rewrite candidates per second the
  engine can enumerate, materialise and rank.  The eager baseline is the
  seed path (``RuleSet.all_candidates`` + full ``CostModel.estimate`` per
  candidate); the incremental path is lazy candidates + delta costing.
* **end-to-end TASO search** — ``TASOOptimizer.optimise`` wall-clock,
  eager vs incremental.
* **intra-search parallelism** — the same search sharded across the
  persistent worker pool, with a per-stage overhead breakdown
  (serialise / dispatch / compute) and the host core count recorded so
  the CI gate knows whether a scaling floor is even physical.
* **measured end-to-end** — the TASO-optimised graphs executed for real
  with the numpy backend: the cost-model win must survive contact with
  actual kernels.

Every variant must produce *identical* results (costs bit-for-bit, graph
hashes byte-for-byte); the speedup assertions make regressions in the lazy
path fail loudly.  Results are appended to ``BENCH_search.json`` at the
repo root so the perf trajectory is recorded over time.

Set ``SEARCH_BENCH_SMOKE=1`` (CI) for a single repetition with relaxed
speedup thresholds — CI boxes are too noisy for the full 3x/2x gates, which
are asserted in the default (full) mode.
"""

import json
import os
import time
from pathlib import Path

from repro.cost import CostModel
from repro.exec import NumpyExecutor
from repro.experiments import ExperimentReport, build_small_model
from repro.rules import default_ruleset
from repro.search import TASOOptimizer, WorkerPool
from repro.service.profiling import StageProfiler

SMOKE = os.environ.get("SEARCH_BENCH_SMOKE") == "1"
REPEATS = 1 if SMOKE else 3
TASO_ITERATIONS = 8 if SMOKE else 30
#: Acceptance gates: >=3x candidate throughput, >=2x TASO end-to-end.
MIN_CANDIDATE_SPEEDUP = 1.1 if SMOKE else 3.0
MIN_E2E_SPEEDUP = 1.1 if SMOKE else 2.0
#: Largest zoo graphs by node count: convolutional and transformer family.
LARGEST_MODELS = ["inception_v3", "bert"]

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_search.json"


def _record(section: str, payload: dict) -> None:
    """Merge one benchmark section into the repo's BENCH_search.json."""
    data = {"benchmark": "search", "schema": 1, "results": {}}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            pass
    data.setdefault("results", {})[section] = payload
    data["smoke"] = SMOKE
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _best_of(fn, repeats=REPEATS):
    """Minimum wall-clock over ``repeats`` runs (robust to scheduler noise),
    with the *best repeat's* result — so whatever rides along with it
    describes the same run as the reported time."""
    best_s, best_result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best_s:
            best_s, best_result = elapsed, result
    return best_s, best_result


def test_candidate_generation_throughput(benchmark):
    """Lazy + delta-cost candidate ranking is >=3x the eager seed path."""
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

            eager_s, eager_costs = _best_of(eager_pass)
            lazy_s, lazy_costs = _best_of(lazy_pass)
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
    _record("candidate_throughput", payload)
    for name, count, eager_s, lazy_s in rows:
        assert eager_s / lazy_s >= MIN_CANDIDATE_SPEEDUP, \
            (f"{name}: lazy candidate path only {eager_s / lazy_s:.2f}x "
             f"faster (gate {MIN_CANDIDATE_SPEEDUP}x)")


def test_taso_end_to_end_speedup(benchmark):
    """Incremental TASO is >=2x eager wall-clock with identical results."""
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

            eager_s, eager = _best_of(eager_run)
            incremental_s, incremental = _best_of(incremental_run)
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
    _record("taso_end_to_end", payload)
    for name, eager_s, incremental_s in rows:
        assert eager_s / incremental_s >= MIN_E2E_SPEEDUP, \
            (f"{name}: incremental TASO only "
             f"{eager_s / incremental_s:.2f}x faster (gate {MIN_E2E_SPEEDUP}x)")


def test_intra_search_parallel(benchmark):
    """Pooled candidate evaluation retraces the serial search exactly.

    The speedup is recorded together with ``cores`` — on a single-core CI
    box sharding CPU-bound work over processes cannot beat serial, so the
    CI gate (``tools/check_bench.py``) only enforces its scaling floor
    when the recording host actually had cores to scale onto.  The
    equivalence witnesses are enforced unconditionally.
    """
    report = ExperimentReport(
        experiment="Search bench",
        description="TASO serial vs worker-pool sharded (4 workers)")
    payload = {"cores": os.cpu_count() or 1}
    profiler = StageProfiler()

    def run():
        rows = []
        with WorkerPool(num_workers=4, profiler=profiler) as pool:
            for name in LARGEST_MODELS:
                graph = build_small_model(name)

                def serial_run():
                    return TASOOptimizer(
                        max_iterations=TASO_ITERATIONS).optimise(graph, name)

                def pooled_run():
                    return TASOOptimizer(
                        max_iterations=TASO_ITERATIONS,
                        pool=pool).optimise(graph, name)

                serial_s, serial = _best_of(serial_run)
                pooled_s, pooled = _best_of(pooled_run)
                # Equivalence gate: bit-for-bit, not approximate.
                assert pooled.final_cost_ms == serial.final_cost_ms, name
                assert pooled.final_graph.structural_hash() \
                    == serial.final_graph.structural_hash(), name
                assert pooled.applied_rules == serial.applied_rules, name
                assert pooled.stats["fallback_batches"] == 0, name
                rows.append((name, serial_s, pooled_s, pooled.stats))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    stages = profiler.snapshot()
    stage_total = sum(stages.values()) or 1.0
    for name, serial_s, pooled_s, stats in rows:
        speedup = serial_s / pooled_s
        report.add(name, serial_s=serial_s, parallel_s=pooled_s,
                   speedup_x=speedup)
        payload[name] = {
            "serial_seconds": serial_s,
            "parallel_seconds": pooled_s,
            "speedup": speedup,
            "workers": 4,
            "bytes_shipped": stats["bytes_shipped"],
            "equivalence": {
                "final_hash": "matched",
                "final_cost_float64": "matched",
                "rules_checked": len(LARGEST_MODELS),
            },
        }
    payload["stages"] = {
        name: {"seconds": seconds, "fraction": seconds / stage_total}
        for name, seconds in stages.items()}
    for name, seconds in sorted(stages.items()):
        report.add(f"stage:{name}", seconds=seconds,
                   fraction=seconds / stage_total)
    print("\n" + report.to_text())
    _record("intra_search_parallel", payload)
    # Core-aware floor, mirrored by the CI gate: with real cores the pool
    # must win outright; on a single-core host sharding CPU-bound work
    # over processes is pure timeslicing, so only pathological overhead
    # (e.g. re-shipping full graphs every iteration) fails.
    floor = 1.2 if (os.cpu_count() or 1) >= 2 else 0.15
    for name, serial_s, pooled_s, _ in rows:
        assert serial_s / pooled_s >= floor, \
            (f"{name}: pooled search {serial_s / pooled_s:.2f}x vs serial "
             f"(floor {floor}x on {os.cpu_count()} core(s))")


def test_measured_end_to_end(benchmark):
    """The cost-model win survives real execution: TASO-optimised graphs
    run faster under the numpy backend than their inputs."""
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
    _record("measured_end_to_end", payload)
    for name, baseline_ms, optimised_ms, rules in rows:
        assert rules > 0, f"{name}: search applied no rewrites"
        # Executed wins are genuinely small on reduced-size graphs (the
        # fusions help, but numpy pays no kernel-launch overhead); the gate
        # is "never slower beyond timer noise".
        assert baseline_ms / optimised_ms >= 0.97, \
            (f"{name}: optimised graph executes slower "
             f"({baseline_ms:.2f}ms -> {optimised_ms:.2f}ms)")
