"""Benchmarks for the optimisation service.

Six measurements, all recorded to ``BENCH_service.json`` (see
``_harness.py``):

* **hit path** — what a request that does not search costs, per catalogue
  model, one pinned client: the fingerprint of a fresh graph, a memory hit
  through the service, a disk hit and a disk store at the cache;
* **eviction** — the searches a fixed Zipf replay repeats through the two
  cache tiers, in misses and recompute seconds, and its disk reads, against
  both tiers evicting by LRU, the order GreedyDual replaced
  (``tests/oracles/lru_disk_tier.py``);
* **cold vs warm** — re-submitting a known model returns from the in-memory
  fingerprint cache;
* **warm shared cache** — a *second service* pointed at the first one's
  cache directory serves the whole batch from disk without re-searching;
* **dedup under contention** — N identical concurrent submissions coalesce
  onto one search, vs N full searches with dedup opted out;
* **cross-process dedup** — N service *processes* submitting the identical
  request against one shared cache directory run exactly one search,
  vs N private searches with the lease protocol disabled.

Set ``SERVICE_BENCH_SMOKE=1`` (CI) to shrink budgets.  The tests assert
correctness and equivalence and record the timings; the wall-clock floors
(10x / 1x / 1x) and the ceilings of the hit path and the eviction replay
live in ``tools/check_bench.py`` alone, so a loud host cannot turn the test
run red.
"""

import multiprocessing
import os
import statistics
import sys
import threading
import time
import uuid
from functools import partial
from pathlib import Path

import _harness
from repro.experiments import ExperimentReport, build_small_model
from repro.search.result import SearchResult
from repro.service import (CacheEntry, EvictionPolicy, FingerprintCache,
                           OptimisationService, register_optimiser,
                           request_fingerprint)

# The LRU tiers the eviction replay is held against.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"
                       / "oracles"))
from lru_disk_tier import lru_misses, replay_misses, zipf_replay  # noqa: E402

SMOKE = os.environ.get("SERVICE_BENCH_SMOKE") == "1"
MODELS = ["squeezenet", "resnext50", "bert", "vit"]
TASO_CONFIG = {"max_iterations": 10 if SMOKE else 25}
#: Identical concurrent submissions in the dedup benchmark.
CONTENTION = 4 if SMOKE else 8

record = partial(_harness.record, "service", smoke=SMOKE)


def _graphs():
    return [(build_small_model(name), name) for name in MODELS]


def _run_batch(service, graphs, use_cache=True):
    started = time.perf_counter()
    results = service.optimise_batch(graphs, "taso", TASO_CONFIG,
                                     use_cache=use_cache)
    return results, time.perf_counter() - started


#: The serving catalogue of ``xbench``'s ``serve_mixed`` (reduced models).
CATALOGUE = ["bert", "squeezenet"] if SMOKE else [
    "bert", "squeezenet", "vit", "inception_v3", "dalle", "resnext50", "tt",
    "resnet18"]
#: Samples behind every hit-path median.
HIT_SAMPLES = 30


def _median_ms(fn, make):
    """Median wall-clock of ``fn(make())`` over :data:`HIT_SAMPLES` calls, in
    milliseconds; ``make`` (a fresh graph, a fresh cache) runs just before
    each call, outside the clock — as a caller builds, then submits."""
    samples = []
    for _ in range(HIT_SAMPLES):
        x = make()
        started = time.perf_counter()
        fn(x)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def test_hit_path(tmp_path):
    """What the requests that need no search pay: one client, one CPU."""
    config = {"max_iterations": 10}
    affinity = getattr(os, "sched_getaffinity", lambda _: None)(0)
    if affinity:
        os.sched_setaffinity(0, {max(affinity)})
    try:
        rows = {}
        with OptimisationService(num_workers=1) as service:
            for name in CATALOGUE:
                fresh = partial(build_small_model, name)
                cold = service.optimise(fresh(), "taso", config,
                                        model_name=name)
                assert not cold.cache_hit
                fingerprint = request_fingerprint(fresh(), "taso", config)
                entry = CacheEntry.from_result(fingerprint, cold.search)
                directory = tmp_path / name
                writer = FingerprintCache(cache_dir=directory)
                rows[name] = row = {
                    "nodes": cold.search.initial_graph.num_nodes,
                    "fingerprint_ms": _median_ms(
                        lambda g: request_fingerprint(g, "taso", config),
                        fresh),
                    "memory_hit_ms": _median_ms(
                        lambda g: service.optimise(g, "taso", config,
                                                   model_name=name),
                        fresh),
                    "disk_put_ms": _median_ms(writer.put, lambda: entry),
                    # A fresh cache object per sample: an empty memory tier.
                    "disk_hit_ms": _median_ms(
                        lambda cache: cache.get(fingerprint),
                        partial(FingerprintCache, cache_dir=directory)),
                }
                row["fingerprint_us_per_node"] = \
                    1e3 * row["fingerprint_ms"] / row["nodes"]
                row["disk_over_memory"] = \
                    row["disk_hit_ms"] / row["memory_hit_ms"]
                reader = FingerprintCache(cache_dir=directory)
                loaded = reader.get(fingerprint)
                assert reader.stats.persistent_hits == 1
                assert loaded.final_graph.structural_hash() \
                    == cold.graph.structural_hash()
            stats = service.stats()
    finally:
        if affinity:
            os.sched_setaffinity(0, affinity)

    report = ExperimentReport(
        experiment="Service bench",
        description=f"hit path, median of {HIT_SAMPLES}, one pinned client")
    for name, row in rows.items():
        report.add(name, **row)
    print("\n" + report.to_text())
    record("hit_path", {"samples": HIT_SAMPLES, "pinned": bool(affinity),
                        **rows})

    assert stats["cache"]["memory_hits"] == HIT_SAMPLES * len(CATALOGUE)
    assert stats["cache"]["misses"] == len(CATALOGUE)


def test_eviction_replay(tmp_path):
    """What the misses of serve_mixed's tiers (16 entries in memory, 48 on
    disk) re-search under a fixed Zipf(1.1) replay over 64 entries, and how
    often the disk is read, the cache against both tiers evicting by LRU;
    the ceiling is in check_bench."""
    sequence, costs = zipf_replay()
    cache = FingerprintCache(capacity=16, cache_dir=tmp_path,
                             policy=EvictionPolicy(max_entries=48))
    sides = {"cache": replay_misses(cache, sequence, costs),
             "lru": lru_misses(sequence, capacity=16, max_entries=48)}
    payload = {"requests": len(sequence)}
    for side, (misses, disk_reads) in sides.items():
        payload[f"{side}_misses"] = len(misses)
        payload[f"{side}_recompute_s"] = sum(costs[sequence[i]]
                                             for i in misses)
        payload[f"{side}_disk_reads"] = disk_reads
    payload["recompute_ratio"] = \
        payload["cache_recompute_s"] / payload["lru_recompute_s"]
    print(f"\neviction replay: {payload}")
    record("eviction", payload)

    assert cache.stats.misses == payload["cache_misses"]


def test_service_cold_vs_warm_throughput(benchmark):
    """Re-submitting a known model returns from the memory cache."""
    graphs = _graphs()

    def run():
        with OptimisationService(num_workers=2) as service:
            cold, cold_s = _run_batch(service, graphs)
            warm, warm_s = _run_batch(service, graphs)
            return cold, warm, cold_s, warm_s, service.stats()

    cold, warm, cold_s, warm_s, stats = benchmark.pedantic(
        run, rounds=1, iterations=1)

    report = ExperimentReport(
        experiment="Service bench",
        description="cold vs warm batch over the evaluation models")
    for (c, w, name) in zip(cold, warm, MODELS):
        report.add(name, cold_s=c.run_time_s, warm_s=w.run_time_s,
                   speedup_pct=c.search.speedup_percent)
    report.add("batch_total", cold_s=cold_s, warm_s=warm_s,
               speedup_x=cold_s / warm_s)
    print("\n" + report.to_text())
    record("cold_vs_warm", {"cold_seconds": cold_s, "warm_seconds": warm_s,
                            "speedup": cold_s / warm_s})

    assert all(not r.cache_hit for r in cold)
    assert all(r.cache_hit for r in warm)
    for c, w in zip(cold, warm):
        assert c.graph.structural_hash() == w.graph.structural_hash()
    assert stats["cache"]["misses"] == len(MODELS)
    assert stats["cache"]["memory_hits"] == len(MODELS)


def test_warm_shared_cache_across_services(benchmark, tmp_path):
    """A second service on the same cache directory never re-searches.

    This is the multi-process story measured in one process: service B is a
    cold process-equivalent (fresh memory tier) whose only warmth is the
    shared locked directory service A populated.
    """
    graphs = _graphs()

    def run():
        with OptimisationService(num_workers=2,
                                 cache_dir=tmp_path) as service_a:
            cold, cold_s = _run_batch(service_a, graphs)
        with OptimisationService(num_workers=2,
                                 cache_dir=tmp_path) as service_b:
            shared, shared_s = _run_batch(service_b, graphs)
            return cold, cold_s, shared, shared_s, service_b.stats()

    cold, cold_s, shared, shared_s, stats_b = benchmark.pedantic(
        run, rounds=1, iterations=1)

    report = ExperimentReport(
        experiment="Service bench",
        description="cold search vs warm *shared-directory* cache")
    report.add("cold_populate", seconds=cold_s)
    report.add("shared_warm", seconds=shared_s,
               speedup_x=cold_s / shared_s)
    print("\n" + report.to_text())
    record("warm_shared_cache", {
        "cold_seconds": cold_s, "shared_warm_seconds": shared_s,
        "speedup": cold_s / shared_s,
        "persistent_hits": stats_b["cache"]["persistent_hits"],
    })

    assert all(not r.cache_hit for r in cold)
    assert all(r.cache_hit for r in shared)  # zero searches in service B
    assert stats_b["cache"]["persistent_hits"] == len(MODELS)
    for c, s in zip(cold, shared):
        assert c.graph.structural_hash() == s.graph.structural_hash()


def test_dedup_under_contention(benchmark):
    """N identical concurrent submissions cost ~one search, not N."""
    graph = build_small_model("squeezenet")

    def hammer(service, use_cache):
        job_ids = [None] * CONTENTION
        barrier = threading.Barrier(CONTENTION)

        def admit(slot):
            barrier.wait()
            job_ids[slot] = service.submit(graph, "taso", TASO_CONFIG,
                                           model_name=f"caller{slot}",
                                           use_cache=use_cache)

        threads = [threading.Thread(target=admit, args=(i,))
                   for i in range(CONTENTION)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = service.gather(job_ids, timeout=300)
        return results, time.perf_counter() - started

    def run():
        with OptimisationService(num_workers=4) as service:
            deduped, dedup_s = hammer(service, use_cache=True)
            searches_dedup = service.stats()["jobs"]["succeeded"] \
                - sum(r.coalesced or r.cache_hit for r in deduped)
        with OptimisationService(num_workers=4) as service:
            duplicated, dup_s = hammer(service, use_cache=False)
        return deduped, dedup_s, searches_dedup, duplicated, dup_s

    deduped, dedup_s, searches_dedup, duplicated, dup_s = benchmark.pedantic(
        run, rounds=1, iterations=1)

    report = ExperimentReport(
        experiment="Service bench",
        description=f"{CONTENTION} identical concurrent submissions")
    report.add("deduplicated", seconds=dedup_s, searches=float(searches_dedup))
    report.add("duplicated", seconds=dup_s, searches=float(CONTENTION))
    report.add("contention", speedup_x=dup_s / dedup_s)
    print("\n" + report.to_text())
    record("dedup_under_contention", {
        "submissions": CONTENTION,
        "dedup_seconds": dedup_s, "duplicated_seconds": dup_s,
        "speedup": dup_s / dedup_s, "searches_with_dedup": searches_dedup,
    })

    # Exactly one search ran for the deduplicated batch.
    assert searches_dedup == 1
    assert sum(1 for r in deduped if r.coalesced) == CONTENTION - 1
    assert all(not r.coalesced for r in duplicated)
    hashes = {r.graph.structural_hash() for r in deduped + duplicated}
    assert len(hashes) == 1


# ---------------------------------------------------------------------------
# cross-process dedup

_XPROC = 3 if SMOKE else 4
_XPROC_SEARCH_S = 0.4 if SMOKE else 0.8


class _TouchingOptimizer:
    """Sleeping optimiser that records each execution as a unique file."""

    name = "touch-bench"

    def __init__(self, touch_dir: str = "", delay_s: float = 0.5):
        self.touch_dir = touch_dir
        self.delay_s = delay_s

    def optimise(self, graph, model_name: str = "") -> SearchResult:
        with open(os.path.join(self.touch_dir,
                               f"exec-{uuid.uuid4().hex}"), "w") as handle:
            handle.write(str(os.getpid()))
        time.sleep(self.delay_s)
        return SearchResult(
            optimiser=self.name, model=model_name or graph.name,
            initial_graph=graph, final_graph=graph,
            initial_latency_ms=1.0, final_latency_ms=0.5,
            initial_cost_ms=1.0, final_cost_ms=0.5,
            optimisation_time_s=self.delay_s)


def test_cross_process_dedup(benchmark, tmp_path):
    """N simultaneous identical submissions from N OS processes: 1 search."""
    register_optimiser("touch-bench", _TouchingOptimizer, {},
                       "cross-process dedup probe", replace=True)
    graph = build_small_model("squeezenet")
    ctx = multiprocessing.get_context("fork")

    def hammer(dedup: bool, cache_root: Path, touch_dir: Path) -> float:
        touch_dir.mkdir(parents=True, exist_ok=True)
        barrier = ctx.Barrier(_XPROC + 1)

        def child(index: int) -> None:
            cache_dir = (cache_root if dedup
                         else cache_root / f"private{index}")
            with OptimisationService(num_workers=2, cache_dir=cache_dir,
                                     cross_process_dedup=dedup) as service:
                barrier.wait(timeout=60)
                service.optimise(
                    graph, "touch-bench",
                    {"touch_dir": str(touch_dir),
                     "delay_s": _XPROC_SEARCH_S}, timeout=120)

        procs = [ctx.Process(target=child, args=(i,))
                 for i in range(_XPROC)]
        for proc in procs:
            proc.start()
        barrier.wait(timeout=60)
        started = time.perf_counter()
        for proc in procs:
            proc.join(timeout=180)
            assert proc.exitcode == 0, f"submitter exit {proc.exitcode}"
        return time.perf_counter() - started

    def run():
        dedup_s = hammer(True, tmp_path / "shared", tmp_path / "t1")
        dup_s = hammer(False, tmp_path / "priv", tmp_path / "t2")
        return dedup_s, dup_s

    dedup_s, dup_s = benchmark.pedantic(run, rounds=1, iterations=1)
    searches_dedup = len(list((tmp_path / "t1").iterdir()))
    searches_dup = len(list((tmp_path / "t2").iterdir()))
    speedup = searches_dup / max(1, searches_dedup)

    report = ExperimentReport(
        experiment="Service bench",
        description=f"{_XPROC} identical submissions from separate processes")
    report.add("lease_dedup", seconds=dedup_s,
               searches=float(searches_dedup))
    report.add("no_leases", seconds=dup_s, searches=float(searches_dup))
    report.add("work_reduction", speedup_x=float(speedup))
    print("\n" + report.to_text())
    record("cross_process_dedup", {
        "processes": _XPROC,
        "searches_with_leases": searches_dedup,
        "searches_without_leases": searches_dup,
        "dedup_seconds": dedup_s,
        "duplicated_seconds": dup_s,
        "speedup": speedup,
    })

    # Exactly one search across every process; without leases, every
    # process runs its own.
    assert searches_dedup == 1
    assert searches_dup == _XPROC
