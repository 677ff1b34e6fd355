"""Tests for the optimisation service: registry dispatch, fingerprint cache
accounting, scheduler semantics, batch ordering and parallel/serial
equivalence."""

import functools
import logging
import random
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError

import pytest

from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.models import MODEL_REGISTRY, build_model
import repro.search
from repro.search.result import SearchResult
from repro.service import (CacheEntry, FingerprintCache, JobScheduler,
                           JobState, OptimisationService, OptimiserSpec,
                           QueueFullError, UnknownJobError, create_optimiser,
                           default_config, list_optimisers, optimiser_spec,
                           register_optimiser, request_fingerprint)
from repro.service import cli
from repro.service import scheduler as scheduler_module
from repro.service.cli import main as cli_main
from repro.service.worker import JobRequest, execute_request

TASO_FAST = {"max_iterations": 10}


@pytest.fixture(scope="module")
def squeezenet():
    return build_small_model("squeezenet")


# ---------------------------------------------------------------------------
class TestRegistry:
    def test_every_search_optimiser_is_registered(self):
        assert {"taso", "greedy", "tensat", "pet", "random",
                "xrlflow"} <= set(list_optimisers())

    def test_create_applies_defaults_and_overrides(self):
        taso = create_optimiser("taso")
        assert taso.max_iterations == 100
        assert create_optimiser("taso", max_iterations=7).max_iterations == 7
        # Defaults are copies: mutating them must not leak into the registry.
        default_config("taso")["max_iterations"] = 1
        assert default_config("taso")["max_iterations"] == 100

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="taso"):
            create_optimiser("does-not-exist")

    def test_duplicate_registration_guard(self):
        with pytest.raises(ValueError):
            register_optimiser("taso", lambda: None)
        register_optimiser("taso", type(create_optimiser("taso")),
                           default_config("taso"), replace=True)

    def test_search_package_hookup(self):
        # The registry is the one name → optimiser table; the search
        # package exports the classes it builds, not a second lookup.
        greedy = create_optimiser("greedy", max_iterations=3)
        assert isinstance(greedy, repro.search.GreedyOptimizer)
        assert greedy.max_iterations == 3
        assert not hasattr(repro.search, "get_optimiser")

    def test_accepted_keys_come_from_the_factory_signature(self):
        taso = optimiser_spec("taso").accepted
        assert {"alpha", "max_iterations", "e2e"} <= taso
        assert not {"self", "parallel", "incremental", "cost_source",
                    "executor"} & taso
        # **kwargs forwarded to the base: greedy and pet take what taso does.
        assert optimiser_spec("greedy").accepted == taso
        assert optimiser_spec("pet").accepted == taso
        assert {"num_episodes", "e2e"} <= optimiser_spec("xrlflow").accepted
        # The learning stack has one precision: no ``dtype`` key.
        assert "dtype" not in optimiser_spec("xrlflow").accepted
        for name in list_optimisers():
            spec = optimiser_spec(name)
            spec.check_config(spec.defaults)
        # A factory that swallows **kwargs itself cannot be checked.
        open_ended = OptimiserSpec("kwargs-test", lambda **config: None)
        assert open_ended.accepted is None
        open_ended.check_config({"anything": 1})


# ---------------------------------------------------------------------------
class TestFingerprint:
    def test_identical_requests_share_a_fingerprint(self, squeezenet):
        rebuilt = build_small_model("squeezenet")
        assert request_fingerprint(squeezenet, "taso", {"max_iterations": 5}) \
            == request_fingerprint(rebuilt, "taso", {"max_iterations": 5})

    def test_config_key_order_is_canonical(self, squeezenet):
        a = request_fingerprint(squeezenet, "taso", {"alpha": 1.1, "max_iterations": 5})
        b = request_fingerprint(squeezenet, "taso", {"max_iterations": 5, "alpha": 1.1})
        assert a == b

    def test_fingerprint_varies_with_inputs(self, squeezenet, mlp_graph):
        base = request_fingerprint(squeezenet, "taso", TASO_FAST)
        assert request_fingerprint(squeezenet, "tensat", TASO_FAST) != base
        assert request_fingerprint(squeezenet, "taso", {"max_iterations": 11}) != base
        assert request_fingerprint(mlp_graph, "taso", TASO_FAST) != base


# ---------------------------------------------------------------------------
def _entry_for(graph, tag, fingerprint=None):
    request = JobRequest(graph=graph, optimiser="taso",
                         config={"max_iterations": 3}, model_name=tag)
    result = execute_request(request)
    return CacheEntry.from_result(fingerprint or request.fingerprint(),
                                  result.search)


class TestFingerprintCache:
    def test_hit_miss_accounting(self, mlp_graph):
        cache = FingerprintCache(capacity=4)
        entry = _entry_for(mlp_graph, "mlp")
        assert cache.get(entry.fingerprint) is None
        cache.put(entry)
        hit = cache.get(entry.fingerprint)
        assert hit is entry
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5

    def test_persistent_tier_survives_the_process(self, tmp_path, mlp_graph):
        entry = _entry_for(mlp_graph, "mlp")
        FingerprintCache(capacity=4, cache_dir=tmp_path).put(entry)
        fresh = FingerprintCache(capacity=4, cache_dir=tmp_path)
        loaded = fresh.get(entry.fingerprint)
        assert loaded is not None
        assert fresh.stats.persistent_hits == 1
        assert loaded.final_graph.structural_hash() \
            == entry.final_graph.structural_hash()
        assert loaded.applied_rules == entry.applied_rules

    def test_corrupt_persistent_entry_is_a_miss(self, tmp_path, mlp_graph,
                                                caplog):
        entry = _entry_for(mlp_graph, "mlp")
        path = tmp_path / f"{entry.fingerprint}.json"
        path.write_text("{not json")
        cache = FingerprintCache(cache_dir=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.service.cache"):
            assert cache.get(entry.fingerprint) is None
        assert cache.stats.misses == 1
        # ... and not one that looks like "never stored".
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.stale_version_entries == 0
        assert cache.stats.to_dict()["corrupt_entries"] == 1
        (record,) = caplog.records
        assert record.name == "repro.service.cache"
        assert record.levelno == logging.WARNING
        assert str(path) in record.getMessage()
        assert "corrupt" in record.getMessage()

    def test_rehydrated_result_reports_cache_hit(self, mlp_graph):
        entry = _entry_for(mlp_graph, "mlp")
        result = entry.to_result(mlp_graph, retrieval_time_s=0.001)
        assert result.stats["cache_hit"] == 1.0
        assert result.optimisation_time_s > 0
        assert result.initial_graph is mlp_graph

    def test_an_xrlflow_entry_costs_its_training_too(self, tmp_path):
        """A miss on an X-RLflow entry retrains, so what it records — the
        disk tier's recompute cost, the ``search_time_s`` a hit reports —
        is evaluation plus training, not evaluation alone."""
        graph = build_model("bert", num_layers=1, seq_len=16, hidden=32,
                            num_heads=2, vocab_size=64)
        config = {"num_episodes": 2, "max_steps": 4, "max_candidates": 8,
                  "update_frequency": 2, "eval_episodes": 1,
                  "num_gat_layers": 1, "hidden_dim": 16, "embedding_dim": 16}
        with OptimisationService(num_workers=1, cache_dir=tmp_path) as service:
            cold = service.optimise(graph, "xrlflow", config)
        train_s = cold.search.stats["train_time_s"]
        assert train_s > 0
        with OptimisationService(num_workers=1, cache_dir=tmp_path) as service:
            warm = service.optimise(graph, "xrlflow", config)
        assert warm.cache_hit
        assert warm.search.stats["search_time_s"] >= train_s
        assert warm.search.stats["search_time_s"] == \
            cold.search.optimisation_time_s + train_s


def _fake_entry(fingerprint, cost=0.0):
    """An entry whose search took ``cost`` seconds, without a search."""
    builder = GraphBuilder("fake")
    graph = builder.build([builder.relu(builder.input((2, 4), name="x"))])
    return CacheEntry.from_result(fingerprint, SearchResult(
        optimiser="taso", model=fingerprint, initial_graph=graph,
        final_graph=graph, initial_latency_ms=1.0, final_latency_ms=1.0,
        initial_cost_ms=1.0, final_cost_ms=1.0, optimisation_time_s=cost))


def _resident(cache):
    """The memory tier's fingerprints, without hit accounting."""
    return set(cache._entries)


class TestMemoryTier:
    """GreedyDual-Frequency in memory: priority ``L + F·C`` (``C`` the
    entry's ``search_time_s``, ``F`` its memory hits since it was stored or
    promoted, ``L`` the inflation value); the lowest goes, the least
    recently used first among equals."""

    def test_at_equal_hits_the_cheaper_entry_goes_first(self):
        cache = FingerprintCache(capacity=2)
        for name, cost in (("dear", 0.5), ("cheap", 0.01),
                           ("middling", 0.1)):
            cache.put(_fake_entry(name, cost))
        # "dear" is the least recently stored, and it stays.
        assert _resident(cache) == {"dear", "middling"}

    @pytest.mark.parametrize("hits, survivor", [(4, "dear"), (6, "cheap")])
    def test_a_cheap_entry_hit_often_outlives_a_dear_one_hit_once(
            self, hits, survivor):
        cache = FingerprintCache(capacity=2)
        cache.put(_fake_entry("dear", 0.3))
        cache.put(_fake_entry("cheap", 0.1))
        assert cache.get("dear") is not None
        for _ in range(hits):
            assert cache.get("cheap") is not None
        # (1 + hits)·0.1 against 2·0.3: four hits lose to it, six beat it
        # (and in both cases "cheap" is the more recent use).
        cache.put(_fake_entry("probe", 1.0))
        assert _resident(cache) == {survivor, "probe"}

    def test_an_entry_no_longer_hit_ages_out_as_inflation_rises(self):
        cache = FingerprintCache(capacity=2)
        cache.put(_fake_entry("dear", 0.35))
        stored = 0
        while "dear" in cache:
            # Each store evicts the previous 0.1 s entry and raises L to
            # its priority, so each newcomer lands 0.1 higher: sooner or
            # later above "dear".
            cache.put(_fake_entry(f"cheap{stored}", 0.1))
            stored += 1
            assert stored < 20, "an idle entry must not live forever"
        # Its cost bought it stores of cheaper entries, not residence.
        assert stored == 5
        assert len(cache) == 2

    def test_zero_cost_entries_evict_in_exact_lru_order(self):
        rng = random.Random(0)
        cache = FingerprintCache(capacity=3)
        oracle: "OrderedDict[str, None]" = OrderedDict()
        for _ in range(300):
            key = f"zero{rng.randrange(6)}"
            if key in oracle:
                oracle.move_to_end(key)
                assert cache.get(key) is not None
            else:
                assert cache.get(key) is None
                cache.put(_fake_entry(key))
                oracle[key] = None
                if len(oracle) > 3:
                    oracle.popitem(last=False)
            assert list(cache._entries) == list(oracle)
        assert cache.stats.misses - 3 == cache.stats.evictions

    def test_a_disk_promotion_enters_with_one_use(self, tmp_path):
        cache = FingerprintCache(capacity=2, cache_dir=tmp_path)
        cache.put(_fake_entry("a", 0.1))
        for _ in range(5):  # F = 6, priority 0.6
            assert cache.get("a") is not None
        cache.put(_fake_entry("b", 1.0))
        cache.put(_fake_entry("c", 0.55))  # "a" goes, L = 0.6, "c" at 1.15
        assert cache.get("a") is not None  # "b" goes, L = 1.0
        assert cache.stats.persistent_hits == 1
        assert cache._memory.uses["a"] == 1
        # Promoted at L + 1·0.1 = 1.1, below "c": "a" goes next (its old
        # six uses would have put it at 1.7 and evicted "c").
        cache.put(_fake_entry("d", 0.05))
        assert _resident(cache) == {"c", "d"}
        assert cache.stats.evictions == 3

    def test_a_memory_hit_leaves_the_disk_alone(self, tmp_path):
        cache = FingerprintCache(capacity=2, cache_dir=tmp_path)
        cache.put(_fake_entry("a", 0.1))
        path = tmp_path / "a.json"
        stamps = (path.stat().st_atime_ns, path.stat().st_mtime_ns)
        for _ in range(3):
            assert cache.get("a") is not None
        assert cache.stats.memory_hits == 3
        assert (path.stat().st_atime_ns, path.stat().st_mtime_ns) == stamps

    def test_every_eviction_is_counted(self):
        cache = FingerprintCache(capacity=2)
        for i in range(5):
            cache.put(_fake_entry(f"cheap{i}", 0.1))
        assert cache.stats.evictions == 3
        # A newcomer enters even when worth less than everything resident,
        # and storing a resident entry again evicts nothing.
        cache.put(_fake_entry("probe", 0.0))
        cache.put(_fake_entry("probe", 0.0))
        assert "probe" in cache
        assert cache.stats.to_dict()["evictions"] == 4
        assert len(cache) == 2

    def test_clear_resets_the_inflation_and_the_use_counts(self):
        cache = FingerprintCache(capacity=2)
        for i in range(3):
            cache.put(_fake_entry(f"cheap{i}", 0.1))
        assert cache.get("cheap2") is not None
        assert cache._memory.inflation == 0.1
        assert cache._memory.uses == {"cheap1": 1, "cheap2": 2}
        cache.clear()
        assert len(cache) == 0
        assert cache._memory.inflation == 0.0
        assert cache._memory.uses == {}
        # ... and the tier then behaves as a fresh one.
        for name, cost in (("dear", 0.5), ("cheap", 0.01),
                           ("middling", 0.1)):
            cache.put(_fake_entry(name, cost))
        assert _resident(cache) == {"dear", "middling"}


# ---------------------------------------------------------------------------
def _hold(started: threading.Event, release: threading.Event) -> bool:
    """Job body that holds its pool thread until released."""
    started.set()
    return release.wait(30)


class TestJobScheduler:
    def test_submit_poll_result_lifecycle(self):
        with JobScheduler(num_workers=2) as scheduler:
            job_id = scheduler.submit(lambda x: x * 2, 21, label="double")
            assert scheduler.result(job_id) == 42
            assert scheduler.poll(job_id) is JobState.SUCCEEDED
            record = scheduler.record(job_id)
            assert record.label == "double"
            assert record.queue_time_s >= 0
            assert record.run_time_s >= 0

    def test_failure_is_reported_and_reraised(self):
        def boom():
            raise RuntimeError("search exploded")

        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(boom)
            with pytest.raises(RuntimeError, match="search exploded"):
                scheduler.result(job_id)
            assert scheduler.poll(job_id) is JobState.FAILED
            assert "search exploded" in scheduler.record(job_id).error

    def test_bounded_queue_rejects_overload(self):
        release = threading.Event()
        with JobScheduler(num_workers=1, max_pending=2) as scheduler:
            ids = [scheduler.submit(release.wait) for _ in range(2)]
            with pytest.raises(QueueFullError):
                scheduler.submit(release.wait)
            release.set()
            assert scheduler.wait_all(timeout=10)
            # Capacity frees up once jobs finish.
            done_id = scheduler.submit(lambda: "ok")
            assert scheduler.result(done_id) == "ok"
            assert all(scheduler.poll(i) is JobState.SUCCEEDED for i in ids)

    def test_unknown_job_id(self):
        with JobScheduler(num_workers=1) as scheduler:
            with pytest.raises(UnknownJobError):
                scheduler.poll(999)

    def test_results_follow_submission_order(self):
        with JobScheduler(num_workers=2) as scheduler:
            ids = [scheduler.submit(abs, -i) for i in range(6)]
            assert [scheduler.result(i, timeout=60) for i in ids] == \
                list(range(6))

    def test_a_job_waiting_for_a_compute_slot_can_be_cancelled(
            self, monkeypatch):
        """One core, so one pool thread: the second job waits in the
        pool's queue, pending and cancellable."""
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 1)
        release = threading.Event()
        ran = []
        with JobScheduler(num_workers=2, max_pending=2) as scheduler:
            blocker = scheduler.submit(release.wait, 30)
            waiter = scheduler.submit(ran.append, "body")
            time.sleep(0.2)  # it waits in the pool's queue
            assert scheduler.poll(waiter) is JobState.PENDING
            assert scheduler.cancel(waiter) is True
            assert scheduler.poll(waiter) is JobState.CANCELLED
            with pytest.raises(CancelledError):
                scheduler.result(waiter)
            # Its admission slot is free again: a second job is admitted.
            after = scheduler.submit(lambda: "ok")
            release.set()
            assert scheduler.result(blocker, timeout=10) is True
            assert scheduler.result(after, timeout=10) == "ok"
            assert scheduler.wait_all(timeout=10)
            assert scheduler.counts()["cancelled"] == 1
        assert ran == []  # its body never ran

    def test_followers_of_a_cancelled_slot_waiter_end_cancelled(
            self, monkeypatch):
        """A follower shares its primary's future: when the primary is
        cancelled while it waits in the pool's queue, so is every follower,
        and none of them holds an admission slot afterwards."""
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 1)
        started, release = threading.Event(), threading.Event()
        ran = []
        with JobScheduler(num_workers=2, max_pending=2) as scheduler:
            blocker = scheduler.submit(_hold, started, release)
            assert started.wait(10)  # the blocker holds the only thread
            waiter = scheduler.submit(ran.append, "body")
            followers = [scheduler.attach(waiter) for _ in range(2)]
            time.sleep(0.2)  # it waits in the pool's queue
            assert scheduler.cancel(waiter) is True
            for job_id in [waiter] + followers:
                assert scheduler.poll(job_id) is JobState.CANCELLED
                with pytest.raises(CancelledError):
                    scheduler.result(job_id)
            after = scheduler.submit(lambda: "ok")
            release.set()
            assert scheduler.result(blocker, timeout=10) is True
            assert scheduler.result(after, timeout=10) == "ok"
        assert ran == []

    def test_waiting_for_a_slot_is_queue_time(self, monkeypatch):
        """A job that waits in the pool's queue starts running only once a
        pool thread picks it up: the wait counts as queue time, not run
        time."""
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 1)
        started, release = threading.Event(), threading.Event()
        with JobScheduler(num_workers=2) as scheduler:
            blocker = scheduler.submit(_hold, started, release)
            assert started.wait(10)  # the blocker holds the only thread
            waiter = scheduler.submit(lambda: None)
            time.sleep(0.3)
            assert scheduler.poll(waiter) is JobState.PENDING
            release.set()
            scheduler.result(blocker, timeout=10)
            scheduler.result(waiter, timeout=10)
            waited = scheduler.record(waiter)
        assert waited.queue_time_s >= 0.3
        assert waited.run_time_s < waited.queue_time_s

    def test_shutdown_stops_the_worker_threads(self):
        with JobScheduler(num_workers=2) as scheduler:
            workers = {scheduler.result(
                scheduler.submit(threading.current_thread), timeout=10)
                for _ in range(4)}
        assert workers and threading.current_thread() not in workers
        assert not any(worker.is_alive() for worker in workers)

    def test_cancels_racing_the_slot_pickup_stay_consistent(
            self, monkeypatch):
        """Two pool threads race to pick up jobs while every other job is
        cancelled: a job whose cancel succeeded never runs, every other
        job runs exactly once, and every admission slot comes back."""
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 2)
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobScheduler(num_workers=4, max_pending=200) as scheduler:
                ids = [scheduler.submit(ran.append, i) for i in range(200)]
                cancelled = {i for i, job_id in enumerate(ids)
                             if i % 2 and scheduler.cancel(job_id)}
                assert scheduler.wait_all(timeout=30)
                states = [scheduler.poll(job_id) for job_id in ids]
                refill = [scheduler.submit(abs, -i) for i in range(200)]
                assert scheduler.wait_all(timeout=30)
                assert [scheduler.result(i) for i in refill] == \
                    list(range(200))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == sorted(set(range(200)) - cancelled)
        assert {i for i, state in enumerate(states)
                if state is JobState.CANCELLED} == cancelled
        assert all(state is JobState.SUCCEEDED for i, state
                   in enumerate(states) if i not in cancelled)


# ---------------------------------------------------------------------------
class TestOptimisationService:
    def test_cache_hit_is_10x_faster_and_identical(self, squeezenet):
        with OptimisationService(num_workers=2) as service:
            started = time.perf_counter()
            cold = service.optimise(squeezenet, "taso",
                                    {"max_iterations": 25},
                                    model_name="squeezenet")
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            warm = service.optimise(squeezenet, "taso",
                                    {"max_iterations": 25},
                                    model_name="squeezenet")
            warm_s = time.perf_counter() - started
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.graph.structural_hash() == cold.graph.structural_hash()
        assert warm.search.applied_rules == cold.search.applied_rules
        assert cold_s >= 10.0 * warm_s, \
            f"warm hit not 10x faster: cold={cold_s:.4f}s warm={warm_s:.4f}s"

    def test_cache_accounting_miss_then_hit(self, mlp_graph):
        with OptimisationService(num_workers=1) as service:
            service.optimise(mlp_graph, "taso", TASO_FAST)
            service.optimise(mlp_graph, "taso", TASO_FAST)
            # Different config digests are different cache slots.
            service.optimise(mlp_graph, "taso", {"max_iterations": 4})
            stats = service.stats()
        assert stats["cache"]["misses"] == 2
        assert stats["cache"]["memory_hits"] == 1
        assert stats["cache"]["puts"] == 2
        assert stats["jobs"]["succeeded"] == 3

    def test_use_cache_false_bypasses_the_cache(self, mlp_graph):
        with OptimisationService(num_workers=1) as service:
            first = service.optimise(mlp_graph, "taso", TASO_FAST,
                                     use_cache=False)
            second = service.optimise(mlp_graph, "taso", TASO_FAST,
                                      use_cache=False)
            stats = service.stats()
        assert not first.cache_hit and not second.cache_hit
        assert stats["cache"]["misses"] == 0
        assert stats["cache"]["memory_hits"] == 0
        assert len(service.cache) == 0

    def test_explicit_defaults_share_the_cache_slot(self, mlp_graph):
        # Spelling the registry defaults out must hit the entry produced by
        # omitting them (fingerprints use the effective config).
        with OptimisationService(num_workers=1) as service:
            cold = service.optimise(mlp_graph, "taso")
            warm = service.optimise(mlp_graph, "taso", default_config("taso"))
        assert not cold.cache_hit
        assert warm.cache_hit
        assert cold.fingerprint == warm.fingerprint

    def test_finished_jobs_are_retired_beyond_max_history(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "MAX_HISTORY", 3)
        with JobScheduler(num_workers=1) as scheduler:
            job_ids = [scheduler.submit(lambda i=i: i, label=f"j{i}")
                       for i in range(6)]
            assert scheduler.wait_all(timeout=10)
            assert scheduler.result(job_ids[-1]) == 5
            with pytest.raises(UnknownJobError):
                scheduler.poll(job_ids[0])  # oldest terminal job retired
            assert scheduler.poll(job_ids[-1]) is JobState.SUCCEEDED

    def test_cache_hit_keeps_the_callers_model_name(self, mlp_graph):
        with OptimisationService(num_workers=1) as service:
            service.optimise(mlp_graph, "taso", TASO_FAST,
                             model_name="original")
            warm = service.optimise(mlp_graph, "taso", TASO_FAST,
                                    model_name="alias")
        assert warm.cache_hit
        assert warm.search.model == "alias"

    def test_failed_batch_admission_cancels_pending_jobs(self, mlp_graph):
        release = threading.Event()
        with OptimisationService(num_workers=1, max_pending=2) as service:
            blocker = service.scheduler.submit(release.wait, label="blocker")
            items = [(mlp_graph, "a"), (mlp_graph, "b"), (mlp_graph, "c")]
            with pytest.raises(QueueFullError):
                service.submit_batch(items, "taso", TASO_FAST,
                                     use_cache=False)
            release.set()
            service.scheduler.result(blocker)
            counts = service.scheduler.counts()
        # The one admitted (still pending) job was cancelled on rollback.
        assert counts["cancelled"] == 1
        assert counts["succeeded"] == 1  # just the blocker

    def test_failed_batch_admission_cancels_jobs_waiting_for_a_slot(
            self, mlp_graph, monkeypatch):
        """The rollback holds when the admitted job waits in the pool's
        queue behind the blocker."""
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 1)
        release = threading.Event()

        def items():
            yield (mlp_graph, "a")
            time.sleep(0.2)  # "a" waits in the pool's queue
            yield (mlp_graph, "b")

        with OptimisationService(num_workers=2, max_pending=2) as service:
            blocker = service.scheduler.submit(release.wait, 30,
                                               label="blocker")
            with pytest.raises(QueueFullError):
                service.submit_batch(items(), "taso", TASO_FAST,
                                     use_cache=False)
            release.set()
            service.scheduler.result(blocker, timeout=10)
            assert service.scheduler.wait_all(timeout=10)
            counts = service.scheduler.counts()
        assert counts["cancelled"] == 1
        assert counts["succeeded"] == 1  # just the blocker

    def test_batch_results_follow_submission_order(self):
        names = ["vit", "squeezenet", "bert", "resnet18"]
        graphs = [(build_small_model(name), name) for name in names]
        with OptimisationService(num_workers=4) as service:
            job_ids = service.submit_batch(graphs, "taso", TASO_FAST)
            assert job_ids == sorted(job_ids)
            results = service.gather(job_ids)
        assert [r.search.model for r in results] == names
        assert all(r.job_id == job_id
                   for r, job_id in zip(results, job_ids))

    def test_parallel_matches_serial_over_model_registry(self):
        names = sorted(MODEL_REGISTRY)
        graphs = {name: build_small_model(name) for name in names}

        serial = {}
        for name in names:
            optimiser = create_optimiser("taso", **TASO_FAST)
            serial[name] = optimiser.optimise(graphs[name], name)

        with OptimisationService(num_workers=4) as service:
            job_ids = service.submit_batch(
                [(graphs[name], name) for name in names],
                "taso", TASO_FAST, use_cache=False)
            parallel = service.gather(job_ids)

        for name, result in zip(names, parallel):
            assert result.search.final_graph.structural_hash() \
                == serial[name].final_graph.structural_hash(), \
                f"parallel result diverged from serial on {name}"
            assert result.search.final_cost_ms \
                == pytest.approx(serial[name].final_cost_ms)

    def test_unknown_optimiser_fails_at_submit(self, mlp_graph):
        with OptimisationService(num_workers=1) as service:
            with pytest.raises(KeyError):
                service.submit(mlp_graph, optimiser="nope")

    def test_unknown_config_key_fails_at_submit(self, mlp_graph):
        with OptimisationService(num_workers=1) as service:
            with pytest.raises(ValueError, match=(
                    "unknown config key 'parallel' for optimiser 'taso'; "
                    "accepted: alpha, .*max_iterations")):
                service.submit(mlp_graph, "taso", {"parallel": True})
            for optimiser in ("taso", "greedy", "pet"):
                with pytest.raises(ValueError, match=(
                        f"unknown config key 'incremental' for optimiser "
                        f"'{optimiser}'")):
                    service.submit(mlp_graph, optimiser,
                                   {"incremental": False})
            # The latency provider is ``e2e``; the retired selectors are
            # refused, not ignored.
            for optimiser in ("taso", "greedy", "pet", "tensat", "random"):
                for key, value in (("cost_source", "measured"),
                                   ("executor", None)):
                    with pytest.raises(ValueError, match=(
                            f"unknown config key '{key}' for optimiser "
                            f"'{optimiser}'")):
                        service.submit(mlp_graph, optimiser, {key: value})
            for key, value in (("bogus", 1), ("incremental", 1),
                               ("dtype", "float64")):
                with pytest.raises(ValueError, match=f"'{key}'.*'xrlflow'"):
                    service.submit(mlp_graph, "xrlflow", {key: value})
            assert not any(service.stats()["jobs"].values())  # none admitted

    def test_cli_refuses_an_unknown_config_key(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["squeezenet", "--config", "parallel=true"])
        # ``SystemExit(message)``: the interpreter prints it and exits 1.
        assert str(exit_info.value).startswith(
            "error: unknown config key 'parallel' for optimiser 'taso'; "
            "accepted: ")
        assert capsys.readouterr().out == ""

    def test_cli_reports_memory_evictions(self, monkeypatch, capsys):
        # A one-entry memory tier: the second model's result evicts the
        # first's.  The default tier (256 entries) evicts nothing here.
        for capacity, line in ((1, "cache memory tier: 1 evicted"),
                               (256, None)):
            monkeypatch.setattr(cli, "OptimisationService", functools.partial(
                OptimisationService, cache_capacity=capacity))
            assert cli_main(["squeezenet", "bert", "--workers", "1",
                             "--config", "max_iterations=2"]) == 0
            out = capsys.readouterr().out
            if line:
                assert line in out
            else:
                assert "cache memory tier" not in out

    @pytest.mark.parametrize("flag", [["--router", "round_robin"],
                                      ["--processes"],
                                      ["--remote-worker", "127.0.0.1:1"],
                                      ["--worker-server"],
                                      ["--backend", "thread"],
                                      ["--no-cross-process-dedup"]],
                             ids=["router", "processes", "remote-worker",
                                  "worker-server", "backend",
                                  "no-cross-process-dedup"])
    def test_cli_refuses_a_removed_flag(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["squeezenet"] + flag)
        assert exit_info.value.code == 2  # argparse: unrecognised argument
        assert flag[0] in capsys.readouterr().err

    def test_dedup_is_the_in_process_table_alone(self, mlp_graph):
        """The service reports one dedup mechanism and ships no other."""
        import importlib

        import repro.service

        with OptimisationService(num_workers=1) as service:
            service.optimise(mlp_graph, "taso", TASO_FAST)
            dedup = service.stats()["dedup"]
        assert dedup == {"coalesced": 0, "inflight": 0}
        assert not any("lease" in name.lower()
                       for name in repro.service.__all__)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service.lease")

    def test_removed_constructor_arguments_are_refused(self):
        for removed in ({"router": "health"}, {"use_processes": True},
                        {"cross_process_dedup": False}):
            with pytest.raises(TypeError, match=next(iter(removed))):
                OptimisationService(num_workers=1, **removed)

    @pytest.mark.parametrize("name", ["thread", "async", "process",
                                      "remote"])
    @pytest.mark.parametrize("owner", [JobScheduler, OptimisationService],
                             ids=["scheduler", "service"])
    def test_backend_is_not_an_argument(self, owner, name):
        """One worker flavour: no constructor takes a ``backend``, not even
        the former default, so a caller still choosing one learns at once."""
        with pytest.raises(TypeError, match="backend"):
            owner(num_workers=1, backend=name)

    def test_stats_name_no_backend(self):
        with OptimisationService(num_workers=1) as service:
            assert set(service.stats()) == {"workers", "jobs",
                                            "cache_entries", "cache",
                                            "dedup"}

    def test_cli_reports_its_worker_count(self, capsys):
        assert cli_main(["squeezenet", "--workers", "2",
                         "--config", "max_iterations=2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "workers: 2" in lines
        assert not any(line.startswith("backend") for line in lines)

    def test_failed_job_pollable_and_reraised(self, mlp_graph):
        with OptimisationService(num_workers=1) as service:
            # A value the optimiser constructor rejects fails in the worker.
            job_id = service.submit(mlp_graph, "taso", {"alpha": "guessed"})
            with pytest.raises(ValueError, match="guessed"):
                service.result(job_id)
            assert service.poll(job_id) is JobState.FAILED

    def test_shared_persistent_cache_between_services(self, tmp_path,
                                                      squeezenet):
        with OptimisationService(num_workers=1,
                                 cache_dir=tmp_path) as service:
            cold = service.optimise(squeezenet, "taso", TASO_FAST)
        with OptimisationService(num_workers=1,
                                 cache_dir=tmp_path) as service:
            warm = service.optimise(squeezenet, "taso", TASO_FAST)
            assert warm.cache_hit
            assert service.cache.stats.persistent_hits == 1
        assert warm.graph.structural_hash() == cold.graph.structural_hash()
