"""Benchmarks for the optimisation service.

Five measurements, all recorded to ``BENCH_service.json`` (see
``_harness.py``):

* **hit path** — what a request that does not search costs, per catalogue
  model, one pinned client: the fingerprint of a fresh graph (next to the
  build of that graph) as a repeat reads it, from a warm digest table, and
  as a first sight pays it, the table emptied; a memory hit through the
  service, a disk hit and a disk store at the cache; each a median with its
  minimum and quartiles;
* **eviction** — the searches a fixed Zipf replay repeats through the two
  cache tiers, in misses and recompute seconds, and its disk reads, against
  both tiers evicting by LRU, the order GreedyDual replaced
  (``tests/oracles/lru_disk_tier.py``);
* **cold vs warm** — re-submitting a known model returns from the in-memory
  fingerprint cache;
* **warm shared cache** — a *second service* pointed at the first one's
  cache directory serves the whole batch from disk without re-searching;
* **dedup under contention** — N identical concurrent submissions coalesce
  onto one search, vs N full searches with dedup opted out.

Set ``SERVICE_BENCH_SMOKE=1`` (CI) to shrink budgets.  The tests assert
correctness and equivalence and record the timings; the wall-clock floors
(10x / 1x / 1x) and the ceilings of the hit path and the eviction replay
live in ``tools/check_bench.py`` alone, so a loud host cannot turn the test
run red.
"""

import os
import statistics
import sys
import threading
import time
from functools import partial
from pathlib import Path

import _harness
from repro.experiments import ExperimentReport, build_small_model
from repro.ir import graph as graph_module
from repro.service import (CacheEntry, EvictionPolicy, FingerprintCache,
                           OptimisationService, request_fingerprint)

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


def _timed(fn, make):
    """Wall-clock seconds of ``make()`` and of ``fn(make())``, each over
    :data:`HIT_SAMPLES` calls: ``make`` (a fresh graph, a fresh cache) runs
    just before each call and is timed apart from it — as a caller builds,
    then submits."""
    made, called = [], []
    for _ in range(HIT_SAMPLES):
        started = time.perf_counter()
        x = make()
        between = time.perf_counter()
        fn(x)
        called.append(time.perf_counter() - between)
        made.append(between - started)
    return made, called


def _unseen(make):
    """``make()`` after emptying the process's node-digest table: a graph
    whose every payload is a first sight."""
    graph_module._DIGESTS.clear()
    return make()


def _spread(key, samples, scale):
    """``key``: the median of ``samples`` times ``scale``, and beside it
    ``key_min`` / ``key_q1`` / ``key_q3``, so a loud host reads as a wide
    spread rather than as slow code."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {key: statistics.median(samples) * scale,
            f"{key}_min": min(samples) * scale,
            f"{key}_q1": q1 * scale, f"{key}_q3": q3 * scale}


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
                nodes = cold.search.initial_graph.num_nodes
                # Build and fingerprint of the same graphs: add_node leaves
                # each node's hash payload on it, so the fingerprint is
                # read together with what the build paid.  The search and
                # the fingerprint above filled the digest table: these
                # are repeats, as every cache hit is.
                fingerprinted = partial(request_fingerprint,
                                        optimiser="taso", config=config)
                build_s, fingerprint_s = _timed(fingerprinted, fresh)
                first_s = _timed(fingerprinted, partial(_unseen, fresh))[1]
                rows[name] = row = {
                    "nodes": nodes,
                    **_spread("fingerprint_ms", fingerprint_s, 1e3),
                    **_spread("fingerprint_us_per_node", fingerprint_s,
                              1e6 / nodes),
                    **_spread("fingerprint_first_us_per_node", first_s,
                              1e6 / nodes),
                    **_spread("build_us_per_node", build_s, 1e6 / nodes),
                    **_spread("memory_hit_ms", _timed(
                        lambda g: service.optimise(g, "taso", config,
                                                   model_name=name),
                        fresh)[1], 1e3),
                    **_spread("disk_put_ms",
                              _timed(writer.put, lambda: entry)[1], 1e3),
                    # A fresh cache object per sample: an empty memory tier.
                    **_spread("disk_hit_ms", _timed(
                        lambda cache: cache.get(fingerprint),
                        partial(FingerprintCache, cache_dir=directory))[1],
                        1e3),
                }
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
        report.add(name, **{key: value for key, value in row.items()
                            if not key.endswith(("_min", "_q1", "_q3"))})
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
        submitted = [None] * CONTENTION
        barrier = threading.Barrier(CONTENTION)

        def admit(slot):
            barrier.wait()
            submitted[slot] = service.submit(graph, "taso", TASO_CONFIG,
                                             model_name=f"caller{slot}",
                                             use_cache=use_cache)

        threads = [threading.Thread(target=admit, args=(i,))
                   for i in range(CONTENTION)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [future.result(timeout=300) for future in submitted]
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
