"""Concurrency hardening tests: shared cache directories and in-flight dedup.

The acceptance bar for the distributed-service work:

* two OS processes hammering one cache directory observe **zero lost or
  torn entries** (atomic publishes + advisory locking);
* N concurrent identical submissions execute the underlying search
  **exactly once** (admission-time dedup), with the result fanned out to
  every waiter;
* processes sharing a cache directory that search one request at once all
  return the same graph and leave exactly one entry behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
import uuid

import pytest
from lru_disk_tier import lru_misses, replay_misses, zipf_replay

from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.search.result import SearchResult
from repro.service import (CacheEntry, EvictionPolicy, FingerprintCache,
                           JobState, OptimisationService, QueueFullError,
                           register_optimiser)
from repro.service import scheduler as scheduler_module
from repro.service.cache import ENTRY_VERSION

# ---------------------------------------------------------------------------
# helpers shared with the worker subprocesses (must be module-level /
# picklable for the spawn start method)

#: Keys both hammer processes write and read — fully overlapping on purpose.
SHARED_KEYS = [f"sharedkey{i:02d}" for i in range(12)]


def _tiny_graph(tag: str = "tiny"):
    builder = GraphBuilder(tag)
    x = builder.input((2, 4), name="x")
    return builder.build([builder.relu(x)])


def _entry(fingerprint: str, graph, model: str,
           cost: float = 0.01) -> CacheEntry:
    """An entry whose search took ``cost`` seconds (its recompute cost)."""
    result = SearchResult(
        optimiser="taso", model=model,
        initial_graph=graph, final_graph=graph,
        initial_latency_ms=1.0, final_latency_ms=0.5,
        initial_cost_ms=1.0, final_cost_ms=0.5,
        optimisation_time_s=cost)
    return CacheEntry.from_result(fingerprint, result)


def _hammer_cache(cache_dir: str, worker_id: int, rounds: int) -> None:
    """Subprocess body: interleave puts and gets over the shared key space.

    Raises (→ nonzero exit code) on any lost update: once a key has been
    written, every subsequent read must return a valid entry.
    """
    graph = _tiny_graph(f"worker{worker_id}")
    cache = FingerprintCache(capacity=4, cache_dir=cache_dir)
    for round_no in range(rounds):
        for key in SHARED_KEYS:
            cache.put(_entry(key, graph, model=f"w{worker_id}r{round_no}"))
        # Fresh cache object per round: defeat the memory tier so every
        # read exercises the shared persistent tier.
        reader = FingerprintCache(capacity=4, cache_dir=cache_dir)
        for key in SHARED_KEYS:
            entry = reader.get(key)
            if entry is None:
                raise AssertionError(
                    f"worker {worker_id} lost entry {key} in round {round_no}")
            if entry.fingerprint != key:
                raise AssertionError(
                    f"worker {worker_id} read torn entry for {key}")


def _hammer_bounded(cache_dir: str, worker_id: int, rounds: int) -> None:
    """Subprocess body: concurrent writes under an eviction policy."""
    graph = _tiny_graph(f"bounded{worker_id}")
    cache = FingerprintCache(
        capacity=4, cache_dir=cache_dir,
        policy=EvictionPolicy(max_entries=6))
    for round_no in range(rounds):
        for key in SHARED_KEYS:
            cache.put(_entry(key, graph, model=f"w{worker_id}r{round_no}"))


def _read_then_store(cache_dir: str, key: str, reads: int,
                     probe: str) -> None:
    """Subprocess body: read ``key`` from disk ``reads`` times, then store
    ``probe`` (if given) under the directory's three-entry bound."""
    cache = FingerprintCache(capacity=1, cache_dir=cache_dir,
                             policy=EvictionPolicy(max_entries=3))
    for _ in range(reads):
        if cache.get(key) is None:
            raise AssertionError(f"lost {key}")
        cache.clear()  # the next read goes to disk again
    if probe:
        cache.put(_entry(probe, _tiny_graph(), "m", cost=1.0))


#: A small TASO request for the multi-process test.
SMALL_TASO = {"max_iterations": 2}


def _optimise_shared(cache_dir: str, barrier, results) -> None:
    """Subprocess body: submit :data:`SMALL_TASO` on bert when every
    process is ready, and report the result's cost and graph hash."""
    graph = build_small_model("bert")
    with OptimisationService(num_workers=1, cache_dir=cache_dir) as service:
        barrier.wait(timeout=60)
        result = service.optimise(graph, "taso", SMALL_TASO, timeout=120)
    results.put((result.search.final_cost_ms,
                 result.graph.structural_hash()))


class _MarkingOptimizer:
    """Optimiser that leaves one file in ``mark_dir`` per execution, so
    searches are counted across processes, then waits while ``hold_path``
    exists (at most a minute)."""

    name = "marking-test"

    def __init__(self, mark_dir: str = "", hold_path: str = ""):
        self.mark_dir = mark_dir
        self.hold_path = hold_path

    def optimise(self, graph, model_name: str = "",
                 progress=None) -> SearchResult:
        path = os.path.join(self.mark_dir, f"exec-{uuid.uuid4().hex}")
        with open(path, "w") as handle:
            handle.write(str(os.getpid()))
        deadline = time.monotonic() + 60
        while (self.hold_path and os.path.exists(self.hold_path)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return SearchResult(
            optimiser=self.name, model=model_name or graph.name,
            initial_graph=graph, final_graph=graph,
            initial_latency_ms=1.0, final_latency_ms=0.5,
            initial_cost_ms=1.0, final_cost_ms=0.5,
            optimisation_time_s=0.01)


@pytest.fixture()
def marking_optimiser():
    """Registered before any fork, so child processes inherit it."""
    register_optimiser("marking-test", _MarkingOptimizer, {},
                       "cross-process search counter", replace=True)
    return "marking-test"


def _optimise_marked(cache_dir: str, config: dict, results) -> None:
    """Subprocess body: one request through a service on ``cache_dir``;
    reports whether it hit and how many searches the service ran."""
    with OptimisationService(num_workers=1, cache_dir=cache_dir) as service:
        result = service.optimise(_tiny_graph("marked"), "marking-test",
                                  config, timeout=60)
        succeeded = service.stats()["jobs"]["succeeded"]
    if results is not None:
        results.put((result.cache_hit, succeeded - result.cache_hit))


def _hold_directory_lock(cache_dir: str, held) -> None:
    """Subprocess body: take the cache directory's exclusive lock, say so,
    then hang until killed."""
    cache = FingerprintCache(cache_dir=cache_dir)
    with cache._dir_lock.exclusive():
        held.set()
        time.sleep(300)


def _spawn(target, *args) -> multiprocessing.Process:
    # fork (not spawn): the child must run functions defined in this test
    # module, which is not importable by name under pytest's rootdir mode.
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=target, args=args)
    proc.start()
    return proc


# ---------------------------------------------------------------------------
class TestSharedCacheDirectory:
    def test_two_processes_no_lost_or_torn_entries(self, tmp_path):
        """The headline stress test: two processes, one directory."""
        procs = [_spawn(_hammer_cache, str(tmp_path), worker_id, 5)
                 for worker_id in (1, 2)]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0, \
                f"hammer process failed (exit {proc.exitcode})"
        # Every shared key survived, every file is a complete entry: the
        # header parses and the payload is the bytes its digest was taken of.
        files = sorted(tmp_path.glob("*.json"))
        assert {p.stem for p in files} == set(SHARED_KEYS)
        for path in files:
            blob = path.read_bytes()
            header = json.loads(blob.partition(b"\n")[0])
            assert header["entry_version"] == ENTRY_VERSION
            CacheEntry.from_bytes(blob)  # raises on a torn write
        # ... and no reader ever saw anything else.
        reader = FingerprintCache(capacity=len(files), cache_dir=tmp_path)
        assert all(reader.get(key) is not None for key in SHARED_KEYS)
        assert reader.stats.corrupt_entries == 0
        assert reader.stats.stale_version_entries == 0
        # Atomic publishes leave no temp litter behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_concurrent_eviction_keeps_directory_bounded(self, tmp_path):
        procs = [_spawn(_hammer_bounded, str(tmp_path), worker_id, 4)
                 for worker_id in (1, 2)]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        files = sorted(tmp_path.glob("*.json"))
        assert 0 < len(files) <= 6
        for path in files:  # survivors are intact entries
            CacheEntry.from_bytes(path.read_bytes())

    def test_lock_file_is_not_mistaken_for_an_entry(self, tmp_path):
        cache = FingerprintCache(cache_dir=tmp_path,
                                 policy=EvictionPolicy(max_entries=1))
        cache.put(_entry("entryone", _tiny_graph(), "m"))
        assert (tmp_path / ".lock").exists()
        assert cache.persistent_usage()["entries"] == 1

    def test_processes_racing_on_one_request_leave_one_entry(self, tmp_path):
        """Dedup is per-process: three processes that miss at once may each
        search, but they agree on the result and publish one entry, which
        the next service hits."""
        n = 3
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n)
        results = ctx.Queue()
        procs = [_spawn(_optimise_shared, str(tmp_path), barrier, results)
                 for _ in range(n)]
        outcomes = [results.get(timeout=120) for _ in range(n)]
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0, \
                f"submitter failed (exit {proc.exitcode})"
        assert len(set(outcomes)) == 1  # equal final_cost_ms and hash
        (path,) = tmp_path.glob("*.json")
        CacheEntry.from_bytes(path.read_bytes())
        assert list(tmp_path.glob("*.lease")) == []
        with OptimisationService(num_workers=1,
                                 cache_dir=str(tmp_path)) as service:
            again = service.optimise(build_small_model("bert"), "taso",
                                     SMALL_TASO)
            stats = service.stats()
        assert again.cache_hit
        assert stats["cache"]["misses"] == 0
        assert (again.search.final_cost_ms,
                again.graph.structural_hash()) == outcomes[0]


    def test_a_process_killed_mid_search_leaves_no_entry(
            self, tmp_path, marking_optimiser):
        """A search dies with its process: nothing half-written is left in
        the directory, and the next service searches and publishes."""
        cache_dir, marks = tmp_path / "cache", tmp_path / "marks"
        marks.mkdir()
        hold = tmp_path / "hold"
        hold.touch()
        config = {"mark_dir": str(marks), "hold_path": str(hold)}
        victim = _spawn(_optimise_marked, str(cache_dir), config, None)
        try:
            deadline = time.monotonic() + 60
            while not any(marks.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert any(marks.iterdir()), "the victim never started searching"
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.join(timeout=30)
        assert victim.exitcode == -signal.SIGKILL
        assert list(cache_dir.glob("*.json")) == []
        assert list(cache_dir.glob("*.tmp")) == []
        hold.unlink()
        with OptimisationService(num_workers=1,
                                 cache_dir=str(cache_dir)) as service:
            result = service.optimise(_tiny_graph("marked"), marking_optimiser,
                                      config, timeout=60)
        assert not result.cache_hit
        assert len(list(marks.iterdir())) == 2
        (path,) = cache_dir.glob("*.json")
        CacheEntry.from_bytes(path.read_bytes())

    def test_a_killed_lock_holder_frees_the_directory_at_once(self, tmp_path):
        """The directory lock is the kernel's: a process that dies holding
        it blocks the next publish only until it is gone."""
        ctx = multiprocessing.get_context("fork")
        held = ctx.Event()
        holder = _spawn(_hold_directory_lock, str(tmp_path), held)
        published = threading.Event()
        cache = FingerprintCache(cache_dir=tmp_path)

        def publish() -> None:
            cache.put(_entry("lockedkey", _tiny_graph(), "m"))
            published.set()

        writer = threading.Thread(target=publish)
        try:
            assert held.wait(timeout=30)
            writer.start()
            assert not published.wait(0.3)  # blocked behind the holder
            killed = time.monotonic()
            os.kill(holder.pid, signal.SIGKILL)
            assert published.wait(timeout=10)
            assert time.monotonic() - killed < 2.0
        finally:
            holder.join(timeout=10)
            writer.join(timeout=10)
        reader = FingerprintCache(cache_dir=tmp_path)
        assert reader.get("lockedkey") is not None
        assert reader.stats.corrupt_entries == 0

    def test_a_later_process_hits_what_an_earlier_one_published(
            self, tmp_path, marking_optimiser):
        """Sequential repeats across processes share the directory: the
        second process answers from disk and runs no search."""
        marks = tmp_path / "marks"
        marks.mkdir()
        config = {"mark_dir": str(marks)}
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        outcomes = []
        for _ in range(2):
            proc = _spawn(_optimise_marked, str(tmp_path / "cache"), config,
                          results)
            outcomes.append(results.get(timeout=60))
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert outcomes == [(False, 1), (True, 0)]
        assert len(list(marks.iterdir())) == 1

    def test_a_disk_hit_needs_no_free_worker(self, tmp_path,
                                             marking_optimiser):
        """An entry another service published answers while every pool
        thread of this one is busy: a hit never waits for the pool."""
        marks = tmp_path / "marks"
        marks.mkdir()
        config = {"mark_dir": str(marks)}
        with OptimisationService(num_workers=1,
                                 cache_dir=str(tmp_path)) as writer:
            writer.optimise(_tiny_graph("marked"), marking_optimiser, config)
        started, release = threading.Event(), threading.Event()

        def hold() -> None:
            started.set()
            release.wait(30)

        with OptimisationService(num_workers=1,
                                 cache_dir=str(tmp_path)) as service:
            blocker = service.scheduler.submit(hold, label="blocker")
            try:
                assert started.wait(10)  # the blocker holds the only thread
                hit = service.optimise(_tiny_graph("marked"),
                                       marking_optimiser, config, timeout=5)
                assert service.poll(blocker) is JobState.RUNNING
            finally:
                release.set()
            service.scheduler.result(blocker, timeout=10)
        assert hit.cache_hit
        assert len(list(marks.iterdir())) == 1


# ---------------------------------------------------------------------------
def _on_disk(directory) -> set:
    return {path.stem for path in directory.glob("*.json")}


class TestEvictionPolicy:
    """GreedyDual-Frequency: an entry file's mtime is ``L + F·C`` (``C`` its
    recompute seconds, ``F`` uses since its store, ``L`` the inflation
    value), its atime the last store or read; the lowest mtime goes."""

    def test_a_disk_read_outranks_an_unread_entry_of_equal_cost(
            self, tmp_path):
        graph = _tiny_graph()
        cache = FingerprintCache(capacity=1, cache_dir=tmp_path,
                                 policy=EvictionPolicy(max_entries=2))
        cache.put(_entry("older", graph, "a"))
        cache.put(_entry("newer", graph, "b"))
        # The memory tier holds "newer" only, so this read is a disk read:
        # "older" now counts two uses of its cost against one.
        assert cache.get("older") is not None
        assert cache.stats.persistent_hits == 1
        cache.put(_entry("third", graph, "c", cost=0.05))
        assert _on_disk(tmp_path) == {"older", "third"}

    def test_at_equal_reads_the_cheaper_entry_goes_first(self, tmp_path):
        graph = _tiny_graph()
        # An unbounded writer never scans, so all three share one L.
        writer = FingerprintCache(cache_dir=tmp_path)
        for name, cost in (("dear", 0.5), ("cheap", 0.01), ("middling", 0.1)):
            writer.put(_entry(name, graph, "m", cost))
        bounded = FingerprintCache(cache_dir=tmp_path,
                                   policy=EvictionPolicy(max_entries=2))
        assert bounded.prune_persistent() == {"expired": 0, "evicted": 1}
        # "dear" is the least recently stored, and it stays.
        assert _on_disk(tmp_path) == {"dear", "middling"}

    @pytest.mark.parametrize("reads, survivor", [(2, "dear"), (4, "cheap")])
    def test_a_cheap_entry_read_often_outlives_a_dear_one_read_once(
            self, tmp_path, reads, survivor):
        graph = _tiny_graph()
        writer = FingerprintCache(cache_dir=tmp_path)
        writer.put(_entry("dear", graph, "m", cost=0.3))
        writer.put(_entry("cheap", graph, "m", cost=0.1))
        reader = FingerprintCache(capacity=1, cache_dir=tmp_path)
        assert reader.get("dear") is not None
        for _ in range(reads):
            reader.clear()  # every read goes to disk
            assert reader.get("cheap") is not None
        # reads·0.1 against 1·0.3: two reads lose to it, four beat it
        # (and in both cases "cheap" is the more recent access).
        FingerprintCache(cache_dir=tmp_path,
                         policy=EvictionPolicy(max_entries=1)
                         ).prune_persistent()
        assert _on_disk(tmp_path) == {survivor}

    def test_an_entry_no_longer_read_ages_out_as_inflation_rises(
            self, tmp_path):
        graph = _tiny_graph()
        writer = FingerprintCache(cache_dir=tmp_path)
        writer.put(_entry("dear", graph, "m", cost=0.35))
        writer.put(_entry("first", graph, "m", cost=0.1))
        cache = FingerprintCache(capacity=1, cache_dir=tmp_path,
                                 policy=EvictionPolicy(max_entries=2))
        survived = 0
        while "dear" in _on_disk(tmp_path):
            # Each store of a 0.1 s entry evicts one and raises L, and a
            # newcomer lands at L + 0.1: sooner or later above "dear".
            cache.put(_entry(f"cheap{survived}", graph, "m", cost=0.1))
            survived += 1
            assert survived < 10, "an idle entry must not live forever"
        # Its cost bought it stores of cheaper entries, not immortality.
        assert survived == 4
        assert len(_on_disk(tmp_path)) == 2

    def test_an_older_builds_entries_go_first_in_access_order(self, tmp_path):
        """No migration: a file whose mtime is a wall-clock time at or after
        its atime (what the LRU build left) carries no priority."""
        graph = _tiny_graph()
        writer = FingerprintCache(cache_dir=tmp_path)
        for name in ("old_idle", "old_read", "old_recent"):
            writer.put(_entry(name, graph, "m", cost=5.0))
        writer.put(_entry("new", graph, "m", cost=0.01))
        now = time.time()
        for name, age in (("old_idle", 7200), ("old_read", 3600),
                          ("old_recent", 60)):
            os.utime(tmp_path / f"{name}.json", (now - age, now - age))
        cache = FingerprintCache(capacity=1, cache_dir=tmp_path,
                                 policy=EvictionPolicy(max_entries=4))
        assert cache.get("old_read") is not None  # stamped into the order
        cache.put(_entry("newer", graph, "m", cost=0.01))
        assert _on_disk(tmp_path) == {"old_read", "old_recent", "new",
                                      "newer"}
        cache.put(_entry("newest", graph, "m", cost=0.01))
        assert _on_disk(tmp_path) == {"old_read", "new", "newer", "newest"}

    def test_ttl_counts_from_the_access_stamp(self, tmp_path):
        graph = _tiny_graph()
        cache = FingerprintCache(cache_dir=tmp_path,
                                 policy=EvictionPolicy(ttl_s=10.0))
        cache.put(_entry("cheap", graph, "m", cost=0.001))
        cache.put(_entry("idle", graph, "m", cost=1000.0))
        path = tmp_path / "idle.json"
        priority = path.stat().st_mtime
        # Both mtimes are priorities, seconds after 1970, not access times.
        assert (tmp_path / "cheap.json").stat().st_mtime < priority < 2000.0
        os.utime(path, (time.time() - 60, priority))  # idle for a minute
        fresh = FingerprintCache(cache_dir=tmp_path,
                                 policy=EvictionPolicy(ttl_s=10.0))
        assert fresh.get("idle") is None
        assert not path.exists()
        assert fresh.stats.disk_expirations == 1
        assert fresh.get("cheap") is not None

    def test_two_processes_sharing_a_directory_pick_the_same_victim(
            self, tmp_path):
        graph = _tiny_graph()
        survivors = []
        for evictor in ("writer", "reader"):
            directory = tmp_path / evictor
            writer = FingerprintCache(capacity=1, cache_dir=directory,
                                      policy=EvictionPolicy(max_entries=3))
            for name, cost in (("x", 0.3), ("y", 0.1), ("z", 0.2)):
                writer.put(_entry(name, graph, "m", cost))
            # Another process reads "x" twice: its stamp rises past "y"'s,
            # which the writer's own counts (one store each) cannot know.
            reader = _spawn(_read_then_store, str(directory), "x", 2,
                            "probe" if evictor == "reader" else "")
            reader.join(timeout=60)
            assert reader.exitcode == 0
            if evictor == "writer":
                writer.put(_entry("probe", graph, "m", cost=1.0))
            survivors.append(_on_disk(directory))
        assert survivors == [{"x", "z", "probe"}] * 2

    def test_max_bytes_bound(self, tmp_path):
        graph = _tiny_graph()
        cache = FingerprintCache(cache_dir=tmp_path)
        cache.put(_entry("sizer", graph, "m"))
        entry_bytes = (tmp_path / "sizer.json").stat().st_size
        bounded = FingerprintCache(
            cache_dir=tmp_path,
            policy=EvictionPolicy(max_bytes=int(entry_bytes * 2.5)))
        for name in ("aa", "bb", "cc", "dd"):
            bounded.put(_entry(name, graph, "m"))
        usage = bounded.persistent_usage()
        assert usage["bytes"] <= int(entry_bytes * 2.5)
        assert bounded.stats.disk_evictions >= 2

    def test_ttl_expires_idle_entries(self, tmp_path):
        graph = _tiny_graph()
        cache = FingerprintCache(cache_dir=tmp_path,
                                 policy=EvictionPolicy(ttl_s=10.0))
        cache.put(_entry("stale", graph, "m"))
        path = tmp_path / "stale.json"
        past = time.time() - 60
        os.utime(path, (past, past))
        fresh = FingerprintCache(cache_dir=tmp_path,
                                 policy=EvictionPolicy(ttl_s=10.0))
        assert fresh.get("stale") is None
        assert not path.exists()
        assert fresh.stats.disk_expirations == 1

    def test_prune_persistent_reports_work(self, tmp_path):
        graph = _tiny_graph()
        unbounded = FingerprintCache(cache_dir=tmp_path)
        for i in range(5):
            unbounded.put(_entry(f"prune{i}", graph, "m"))
        past = time.time() - 3600
        os.utime(tmp_path / "prune0.json", (past, past))
        cache = FingerprintCache(
            cache_dir=tmp_path,
            policy=EvictionPolicy(max_entries=2, ttl_s=600.0))
        removed = cache.prune_persistent()
        assert removed == {"expired": 1, "evicted": 2}
        assert cache.persistent_usage()["entries"] == 2

    def test_unknown_entry_version_is_a_miss(self, tmp_path):
        graph = _tiny_graph()
        cache = FingerprintCache(cache_dir=tmp_path)
        cache.put(_entry("versioned", graph, "m"))
        path = tmp_path / "versioned.json"
        head, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header["entry_version"] = ENTRY_VERSION + 99
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        fresh = FingerprintCache(cache_dir=tmp_path)
        assert fresh.get("versioned") is None
        assert fresh.stats.stale_version_entries == 1
        assert fresh.stats.corrupt_entries == 0


class TestEvictionReplay:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_misses_cost_at_most_seven_tenths_of_lru(self, tmp_path, seed):
        """serve_mixed's tiers (16 in memory, 48 on disk) under Zipf(1.1)
        traffic over 64 entries: what the misses re-search and how often
        the disk is read, against both tiers evicting by LRU."""
        sequence, costs = zipf_replay(seed)
        cache = FingerprintCache(capacity=16, cache_dir=tmp_path,
                                 policy=EvictionPolicy(max_entries=48))
        misses, disk_reads = replay_misses(cache, sequence, costs)
        oracle, lru_disk_reads = lru_misses(sequence, capacity=16,
                                            max_entries=48)
        assert cache.stats.misses == len(misses)
        assert cache.persistent_usage()["entries"] == 48
        spent = sum(costs[sequence[i]] for i in misses)
        lru_spent = sum(costs[sequence[i]] for i in oracle)
        assert spent <= 0.7 * lru_spent, (spent, lru_spent)
        # The memory tier keeps what the disk would be read for.
        assert disk_reads < lru_disk_reads, (disk_reads, lru_disk_reads)


# ---------------------------------------------------------------------------
#: Executions of the counting optimiser (index 0), guarded by its lock.
_EXECUTIONS = [0]
_EXECUTIONS_LOCK = threading.Lock()


class _CountingOptimizer:
    """Deliberately slow optimiser that counts how many times it ran."""

    name = "counting-test"

    def __init__(self, delay_s: float = 0.3):
        self.delay_s = delay_s

    def optimise(self, graph, model_name: str = "",
                 progress=None) -> SearchResult:
        with _EXECUTIONS_LOCK:
            _EXECUTIONS[0] += 1
        time.sleep(self.delay_s)
        return SearchResult(
            optimiser=self.name, model=model_name or graph.name,
            initial_graph=graph, final_graph=graph,
            initial_latency_ms=1.0, final_latency_ms=0.5,
            initial_cost_ms=1.0, final_cost_ms=0.5,
            optimisation_time_s=self.delay_s)


class _ExplodingOptimizer:
    name = "exploding-test"

    def __init__(self, delay_s: float = 0.2):
        self.delay_s = delay_s

    def optimise(self, graph, model_name: str = "", progress=None):
        time.sleep(self.delay_s)
        raise RuntimeError("search exploded for every waiter")


@pytest.fixture()
def counting_optimiser():
    register_optimiser("counting-test", _CountingOptimizer,
                       {"delay_s": 0.3}, "dedup test probe", replace=True)
    with _EXECUTIONS_LOCK:
        _EXECUTIONS[0] = 0
    return "counting-test"


@pytest.fixture()
def exploding_optimiser():
    register_optimiser("exploding-test", _ExplodingOptimizer,
                       {"delay_s": 0.2}, "dedup failure probe", replace=True)
    return "exploding-test"


class TestInflightDedup:
    def test_n_concurrent_identical_submissions_run_once(
            self, mlp_graph, counting_optimiser):
        """The headline dedup test: 10 submissions, exactly 1 execution."""
        n = 10
        barrier = threading.Barrier(n)
        job_ids: list = [None] * n
        with OptimisationService(num_workers=4) as service:
            def admit(slot: int) -> None:
                barrier.wait()  # maximal admission contention
                job_ids[slot] = service.submit(
                    mlp_graph, counting_optimiser, model_name=f"caller{slot}")

            threads = [threading.Thread(target=admit, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            results = service.gather(job_ids, timeout=30)
            stats = service.stats()

        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 1, \
                f"dedup failed: search ran {_EXECUTIONS[0]} times for {n} waiters"
        assert sum(1 for r in results if not r.coalesced and not r.cache_hit) == 1
        assert sum(1 for r in results if r.coalesced) == n - 1
        assert stats["dedup"]["coalesced"] == n - 1
        assert stats["dedup"]["inflight"] == 0  # table drained
        # Every waiter got the shared outcome under its own label.
        assert {r.search.model for r in results} == \
            {f"caller{i}" for i in range(n)}
        hashes = {r.graph.structural_hash() for r in results}
        assert len(hashes) == 1

    def test_next_submission_after_completion_hits_the_cache(
            self, mlp_graph, counting_optimiser):
        with OptimisationService(num_workers=2) as service:
            first = service.optimise(mlp_graph, counting_optimiser)
            warm = service.optimise(mlp_graph, counting_optimiser)
        assert not first.cache_hit and not first.coalesced
        assert warm.cache_hit and not warm.coalesced
        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 1

    def test_a_miss_that_a_finishing_search_overtakes_hits_the_cache(
            self, mlp_graph, counting_optimiser, monkeypatch):
        """B misses while the identical search A runs; A stores and leaves
        the in-flight table before B reaches it.  B must read A's entry,
        not dispatch a second search."""
        real_get = FingerprintCache.get
        b_missed, a_retired = threading.Event(), threading.Event()

        def get(cache, fingerprint):
            entry = real_get(cache, fingerprint)
            if (threading.current_thread().name == "request-b"
                    and not b_missed.is_set()):
                b_missed.set()
                assert a_retired.wait(30)
            return entry

        monkeypatch.setattr(FingerprintCache, "get", get)
        admitted: dict = {}
        with OptimisationService(num_workers=2) as service:
            a = service.submit(mlp_graph, counting_optimiser)
            b_thread = threading.Thread(
                target=lambda: admitted.update(
                    b=service.submit(mlp_graph, counting_optimiser)),
                name="request-b")
            b_thread.start()
            assert b_missed.wait(30)
            first = service.result(a, timeout=30)  # stored and retired
            assert service.stats()["dedup"]["inflight"] == 0
            a_retired.set()
            b_thread.join(30)
            assert not b_thread.is_alive()
            second = service.result(admitted["b"], timeout=30)
            stats = service.stats()
        assert not first.cache_hit and second.cache_hit
        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 1
        # A's search and B's inline completion; B ran no search.
        assert stats["jobs"]["succeeded"] == 2
        assert stats["dedup"]["coalesced"] == 0

    def test_identical_traffic_under_thread_churn_searches_once(
            self, mlp_graph, counting_optimiser):
        """More submitting threads than cores, switching every microsecond:
        every submission after the one search is a hit or a follower."""
        n, rounds = 8, 25
        barrier = threading.Barrier(n)
        job_ids: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with OptimisationService(num_workers=4) as service:
                def admit() -> None:
                    barrier.wait()
                    for _ in range(rounds):
                        job_ids.append(service.submit(
                            mlp_graph, counting_optimiser,
                            {"delay_s": 0.001}))

                threads = [threading.Thread(target=admit) for _ in range(n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                    assert not t.is_alive()
                results = service.gather(job_ids, timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == n * rounds
        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 1

    def test_failure_fans_out_to_every_waiter(self, mlp_graph,
                                              exploding_optimiser):
        with OptimisationService(num_workers=2) as service:
            primary = service.submit(mlp_graph, exploding_optimiser)
            follower = service.submit(mlp_graph, exploding_optimiser)
            for job_id in (primary, follower):
                with pytest.raises(RuntimeError, match="every waiter"):
                    service.result(job_id, timeout=30)
            stats = service.stats()
        assert stats["dedup"]["coalesced"] == 1
        assert stats["dedup"]["inflight"] == 0
        assert stats["jobs"]["failed"] == 2

    def test_failed_fingerprint_can_be_resubmitted(self, mlp_graph,
                                                   exploding_optimiser):
        """A failure clears the in-flight slot instead of poisoning it."""
        with OptimisationService(num_workers=2) as service:
            job_id = service.submit(mlp_graph, exploding_optimiser)
            with pytest.raises(RuntimeError):
                service.result(job_id, timeout=30)
            retry = service.submit(mlp_graph, exploding_optimiser)
            assert retry != job_id
            with pytest.raises(RuntimeError):
                service.result(retry, timeout=30)
        assert service.stats()["dedup"]["coalesced"] == 0

    def test_use_cache_false_opts_out_of_dedup(self, mlp_graph,
                                               counting_optimiser):
        with OptimisationService(num_workers=2) as service:
            ids = [service.submit(mlp_graph, counting_optimiser,
                                  use_cache=False) for _ in range(2)]
            results = service.gather(ids, timeout=30)
        assert all(not r.coalesced for r in results)
        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 2

    def test_different_configs_do_not_coalesce(self, mlp_graph,
                                               counting_optimiser):
        with OptimisationService(num_workers=2) as service:
            a = service.submit(mlp_graph, counting_optimiser,
                               {"delay_s": 0.3})
            b = service.submit(mlp_graph, counting_optimiser,
                               {"delay_s": 0.31})
            service.gather([a, b], timeout=30)
        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 2


class TestAdmission:
    """What admission reads and leaves behind around one search."""

    @staticmethod
    def _count_gets(monkeypatch) -> list:
        looked_up: list = []
        real_get = FingerprintCache.get

        def get(cache, fingerprint):
            looked_up.append(fingerprint)
            return real_get(cache, fingerprint)

        monkeypatch.setattr(FingerprintCache, "get", get)
        return looked_up

    @pytest.mark.parametrize("on_disk", [False, True],
                             ids=["memory", "disk"])
    def test_a_cold_request_reads_the_cache_once(
            self, mlp_graph, counting_optimiser, monkeypatch, tmp_path,
            on_disk):
        looked_up = self._count_gets(monkeypatch)
        cache_dir = str(tmp_path) if on_disk else None
        with OptimisationService(num_workers=1,
                                 cache_dir=cache_dir) as service:
            result = service.optimise(mlp_graph, counting_optimiser)
            stats = service.stats()["cache"]
        assert not result.cache_hit
        assert len(looked_up) == 1
        assert stats["misses"] == 1

    def test_a_store_of_another_request_is_no_hit(
            self, mlp_graph, counting_optimiser, monkeypatch):
        """B misses while an unrelated search A stores and retires: B reads
        the cache again, finds nothing of its own and searches."""
        real_get = FingerprintCache.get
        looked_up: list = []
        b_missed, a_retired = threading.Event(), threading.Event()

        def get(cache, fingerprint):
            entry = real_get(cache, fingerprint)
            if threading.current_thread().name == "request-b":
                looked_up.append(fingerprint)
                if not b_missed.is_set():
                    b_missed.set()
                    assert a_retired.wait(30)
            return entry

        monkeypatch.setattr(FingerprintCache, "get", get)
        admitted: dict = {}
        with OptimisationService(num_workers=2) as service:
            a = service.submit(mlp_graph, counting_optimiser,
                               {"delay_s": 0.05})
            b_thread = threading.Thread(
                target=lambda: admitted.update(
                    b=service.submit(mlp_graph, counting_optimiser)),
                name="request-b")
            b_thread.start()
            assert b_missed.wait(30)
            service.result(a, timeout=30)  # stored and retired
            a_retired.set()
            b_thread.join(30)
            assert not b_thread.is_alive()
            second = service.result(admitted["b"], timeout=30)
        assert not second.cache_hit and not second.coalesced
        assert len(looked_up) == 2 and len(set(looked_up)) == 1
        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 2

    def test_a_rejected_admission_leaves_the_request_searchable(
            self, mlp_graph, counting_optimiser):
        """A QueueFullError registers nothing: once the queue drains, the
        same request searches."""
        release = threading.Event()
        with OptimisationService(num_workers=1, max_pending=1) as service:
            occupant = service.scheduler.submit(release.wait, 30,
                                                label="occupant")
            with pytest.raises(QueueFullError):
                service.submit(mlp_graph, counting_optimiser)
            assert service.stats()["dedup"]["inflight"] == 0
            release.set()
            service.scheduler.result(occupant, timeout=30)
            retry = service.optimise(mlp_graph, counting_optimiser,
                                     timeout=30)
        assert not retry.cache_hit and not retry.coalesced
        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 1

    def test_a_cancelled_search_frees_its_request(
            self, mlp_graph, counting_optimiser, monkeypatch):
        """A search cancelled while it waits in the pool's queue leaves the
        in-flight table, so the next identical request searches anew
        instead of following a job that never runs."""
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 1)
        started, release = threading.Event(), threading.Event()

        def hold() -> None:
            started.set()
            release.wait(30)

        with OptimisationService(num_workers=2) as service:
            blocker = service.scheduler.submit(hold, label="blocker")
            assert started.wait(10)  # the blocker holds the only thread
            doomed = service.submit(mlp_graph, counting_optimiser)
            assert service.scheduler.cancel(doomed) is True
            assert service.stats()["dedup"]["inflight"] == 0
            release.set()
            service.scheduler.result(blocker, timeout=10)
            retry = service.optimise(mlp_graph, counting_optimiser,
                                     timeout=30)
            assert service.poll(doomed) is JobState.CANCELLED
        assert not retry.cache_hit and not retry.coalesced
        with _EXECUTIONS_LOCK:
            assert _EXECUTIONS[0] == 1

    def test_a_search_publishes_its_entry_to_disk_once(
            self, mlp_graph, counting_optimiser, monkeypatch, tmp_path):
        writes: list = []
        store = FingerprintCache._store_persistent
        monkeypatch.setattr(
            FingerprintCache, "_store_persistent",
            lambda cache, entry: writes.append(entry.fingerprint)
            or store(cache, entry))
        with OptimisationService(num_workers=2,
                                 cache_dir=str(tmp_path)) as service:
            cold = service.optimise(mlp_graph, counting_optimiser)
            warm = service.optimise(mlp_graph, counting_optimiser)
            assert len(service.cache) == 1
        assert not cold.cache_hit and warm.cache_hit
        assert len(writes) == 1
        assert _on_disk(tmp_path) == set(writes)

    def test_a_failed_search_publishes_nothing(
            self, mlp_graph, exploding_optimiser, tmp_path):
        with OptimisationService(num_workers=1,
                                 cache_dir=str(tmp_path)) as service:
            for _ in range(2):  # a failure is not remembered: both search
                job_id = service.submit(mlp_graph, exploding_optimiser)
                with pytest.raises(RuntimeError):
                    service.result(job_id, timeout=30)
            stats = service.stats()
        assert stats["jobs"]["failed"] == 2
        assert stats["cache"]["misses"] == 2
        assert stats["cache"]["puts"] == 0
        assert _on_disk(tmp_path) == set()
