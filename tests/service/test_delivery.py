"""A submission's future belongs to its caller.

The service keeps no reference to a finished submission: neither the
``ServiceResult`` nor the caller's graph outlives the caller's own
references to them.  A search stores its cache entry before its future
resolves.
"""

from __future__ import annotations

import gc
import logging
import threading
import time
import weakref
from concurrent.futures import wait

import pytest

from repro.ir import GraphBuilder
from repro.service import (FingerprintCache, JobScheduler,
                           OptimisationService, QueueFullError)

TASO_FAST = {"max_iterations": 4}


def _dense_graph():
    """A fresh two-layer MLP: each call a new object, one fingerprint."""
    b = GraphBuilder("mlp")
    x = b.input((4, 16), name="x")
    h = b.relu(b.linear(x, 16, 32, name="fc1"))
    return b.build([b.linear(h, 32, 8, name="fc2")])


def _fail() -> None:
    raise RuntimeError("search exploded")


class _Payload:
    """A job's return value that a weak reference can follow."""


def _let_the_pool_thread_go(scheduler: JobScheduler) -> None:
    """Run one more job on a one-thread pool, so the thread has dropped
    the job it ran before."""
    assert scheduler.submit(int).result(timeout=10) == 0


class TestSchedulerDelivery:
    """A job's future is the job: the scheduler holds nothing of it once
    it has finished, and reading or cancelling it changes nothing."""

    def test_cancel_of_a_delivered_job_returns_false(self):
        release = threading.Event()
        with JobScheduler(num_workers=1, max_pending=1) as scheduler:
            done = scheduler.submit(lambda: 1)
            assert done.result(timeout=10) == 1
            assert done.cancel() is False
            assert not done.cancelled() and done.result(timeout=0) == 1
            # The refused cancel gave back no second slot: one job fills
            # the queue again.
            held = scheduler.submit(release.wait, 30)
            with pytest.raises(QueueFullError):
                scheduler.submit(lambda: 2)
            release.set()
            assert held.result(timeout=10) is True

    def test_a_timeout_delivers_nothing(self):
        release = threading.Event()
        with JobScheduler(num_workers=1) as scheduler:
            future = scheduler.submit(release.wait, 10)
            try:
                with pytest.raises(TimeoutError):
                    future.result(timeout=0.05)
                assert not future.done() and not future.cancelled()
            finally:
                release.set()
            assert future.result(timeout=10) is True

    def test_a_failed_job_gives_its_slot_back(self):
        with JobScheduler(num_workers=1, max_pending=1) as scheduler:
            failed = scheduler.submit(_fail)
            for _ in range(2):
                with pytest.raises(RuntimeError, match="search exploded"):
                    failed.result(timeout=10)
            assert scheduler.submit(lambda: "ok").result(timeout=10) == "ok"

    def test_a_finished_job_is_not_held_by_the_scheduler(self):
        with JobScheduler(num_workers=1) as scheduler:
            future = scheduler.submit(_Payload)
            result = future.result(timeout=10)
            assert future.result(timeout=0) is result
            _let_the_pool_thread_go(scheduler)
            refs = [weakref.ref(future), weakref.ref(result)]
            del future, result
            gc.collect()
            assert [ref() for ref in refs] == [None, None]


class TestStoreBeforeDelivery:
    """A search stores its cache entry before its result resolves: whoever
    holds a delivered result finds the entry in the cache, and a store
    that fails costs the entry, not the result."""

    def test_a_repeat_after_a_slow_store_is_a_cache_hit(
            self, tmp_path, monkeypatch):
        real_put = FingerprintCache.put

        def slow_put(cache, entry):
            time.sleep(0.3)
            return real_put(cache, entry)

        monkeypatch.setattr(FingerprintCache, "put", slow_put)
        with OptimisationService(num_workers=1,
                                 cache_dir=str(tmp_path)) as service:
            first = service.optimise(_dense_graph(), "taso", TASO_FAST)
            before = service.stats()["cache"]
            repeat = service.submit(_dense_graph(), "taso", TASO_FAST)
            served_inline = repeat.done()
            result = repeat.result(timeout=30)
            after = service.stats()["cache"]
        assert not first.cache_hit and result.cache_hit
        assert served_inline
        assert after["misses"] == before["misses"]
        assert after["puts"] == before["puts"] == 1


    def test_a_repeat_after_a_followers_result_is_a_cache_hit(
            self, monkeypatch):
        real_put = FingerprintCache.put
        storing = threading.Event()

        def slow_put(cache, entry):
            storing.set()
            time.sleep(0.3)
            return real_put(cache, entry)

        monkeypatch.setattr(FingerprintCache, "put", slow_put)
        with OptimisationService(num_workers=1) as service:
            primary = service.submit(_dense_graph(), "taso", TASO_FAST)
            assert storing.wait(30)  # the search is done, its entry not
            follower = service.submit(_dense_graph(), "taso", TASO_FAST)
            followed = follower.result(timeout=30)
            repeat = service.submit(_dense_graph(), "taso", TASO_FAST)
            served_inline = repeat.done()
            result = repeat.result(timeout=30)
            primary.result(timeout=30)
            cache = service.stats()["cache"]
        assert followed.coalesced and not followed.cache_hit
        assert result.cache_hit and served_inline
        assert cache["misses"] == 2 and cache["puts"] == 1

    def test_a_failed_store_is_counted_and_the_result_delivered(
            self, monkeypatch, caplog):
        def broken_put(cache, entry):
            raise OSError("disk full")

        monkeypatch.setattr(FingerprintCache, "put", broken_put)
        with OptimisationService(num_workers=1) as service:
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                first = service.optimise(_dense_graph(), "taso", TASO_FAST,
                                         timeout=30)
            warnings = [r for r in caplog.records
                        if r.levelno == logging.WARNING]
            after_first = service.stats()
            again = service.optimise(_dense_graph(), "taso", TASO_FAST,
                                     timeout=30)
            after_again = service.stats()
        assert not first.cache_hit and first.search.final_graph is not None
        assert len(warnings) == 1
        assert "disk full" in str(warnings[0].exc_info[1])
        assert after_first["cache"]["store_failures"] == 1
        assert after_first["dedup"]["inflight"] == 0
        assert not again.cache_hit and not again.coalesced
        assert after_again["cache"]["misses"] == 2
        assert after_again["cache"]["store_failures"] == 2


class TestServiceDelivery:
    def test_a_cache_hits_future_is_done_when_submit_returns(self):
        with OptimisationService(num_workers=1) as service:
            service.optimise(_dense_graph(), "taso", TASO_FAST)
            hit = service.submit(_dense_graph(), "taso", TASO_FAST)
            assert hit.done()
            assert hit.result(timeout=0).cache_hit

    def test_job_tallies_count_every_submission(self):
        """One search, then 1 100 hits: every submission is counted, not
        only a window of recent ones."""
        with OptimisationService(num_workers=1) as service:
            for _ in range(1101):
                service.optimise(_dense_graph(), "taso", TASO_FAST)
            jobs = service.stats()["jobs"]
        assert jobs["succeeded"] == 1101
        assert (jobs["pending"], jobs["running"], jobs["failed"],
                jobs["cancelled"]) == (0, 0, 0, 0)

    def test_a_result_reads_the_same_each_time(self):
        with OptimisationService(num_workers=1) as service:
            future = service.submit(_dense_graph(), "taso", TASO_FAST)
            first = future.result(timeout=30)
            assert future.result(timeout=0) is first
            jobs = service.stats()["jobs"]
        assert (jobs["succeeded"], jobs["pending"], jobs["running"]) \
            == (1, 0, 0)

    def test_cancel_of_a_delivered_search_returns_false(self):
        with OptimisationService(num_workers=1) as service:
            searched = service.submit(_dense_graph(), "taso", TASO_FAST)
            searched.result(timeout=30)
            hit = service.submit(_dense_graph(), "taso", TASO_FAST)
            assert searched.cancel() is False and hit.cancel() is False
            assert not searched.cancelled() and not hit.cancelled()
            assert hit.result(timeout=0).cache_hit
            jobs = service.stats()["jobs"]
        assert (jobs["succeeded"], jobs["cancelled"]) == (2, 0)

    def test_a_timeout_leaves_the_search_running(self, monkeypatch):
        """A caller that stops waiting cancels nothing: the search goes
        on, a repeat follows it, and its entry is stored once."""
        real_put = FingerprintCache.put
        storing, release = threading.Event(), threading.Event()

        def held_put(cache, entry):
            storing.set()
            assert release.wait(30)
            return real_put(cache, entry)

        monkeypatch.setattr(FingerprintCache, "put", held_put)
        with OptimisationService(num_workers=1) as service:
            with pytest.raises(TimeoutError):
                service.optimise(_dense_graph(), "taso", TASO_FAST,
                                 timeout=0.05)
            assert storing.wait(30)
            follower = service.submit(_dense_graph(), "taso", TASO_FAST)
            release.set()
            followed = follower.result(timeout=30)
            repeat = service.optimise(_dense_graph(), "taso", TASO_FAST,
                                      timeout=30)
            stats = service.stats()
        assert followed.coalesced and repeat.cache_hit
        assert stats["cache"]["puts"] == 1
        assert (stats["jobs"]["succeeded"], stats["jobs"]["cancelled"]) \
            == (3, 0)

    def test_an_unfetched_result_dies_with_its_future(self):
        """A result nobody reads is held by its future alone."""
        with OptimisationService(num_workers=1) as service:
            future = service.submit(_dense_graph(), "taso", TASO_FAST)
            refs: list = []
            future.add_done_callback(
                lambda done: refs.append(weakref.ref(done.result())))
            assert not wait([future], timeout=30).not_done
            _let_the_pool_thread_go(service.scheduler)
            assert len(refs) == 1 and refs[0]() is not None
            del future
            gc.collect()
            assert refs[0]() is None

    def test_finished_searches_are_not_held_by_the_service(self):
        with OptimisationService(num_workers=1) as service:
            submitted = [service.submit(_dense_graph(), "taso",
                                        {"max_iterations": n})
                         for n in (1, 2, 3)]
            submitted.append(service.submit(_dense_graph(), "taso",
                                            TASO_FAST, use_cache=False))
            for future in submitted:
                future.result(timeout=30)
            _let_the_pool_thread_go(service.scheduler)
            refs = [weakref.ref(future) for future in submitted]
            del submitted, future
            gc.collect()
            assert [ref() for ref in refs] == [None] * 4
            assert service.stats()["dedup"]["inflight"] == 0

    @pytest.mark.parametrize("origin", ["miss", "hit"])
    def test_the_callers_graph_dies_with_its_result(self, origin):
        """Once its caller drops the future and the result, the service
        holds neither the result nor the caller's graph."""
        with OptimisationService(num_workers=1) as service:
            if origin == "hit":
                service.optimise(_dense_graph(), "taso", TASO_FAST)
            graph = _dense_graph()
            future = service.submit(graph, "taso", TASO_FAST)
            result = future.result(timeout=30)
            assert result.cache_hit is (origin == "hit")
            refs = [weakref.ref(graph), weakref.ref(result),
                    weakref.ref(result.search.initial_graph)]
            del graph, result, future
            gc.collect()
            assert [ref() for ref in refs] == [None, None, None]
