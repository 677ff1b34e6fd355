"""A finished job's result is delivered once, then belongs to its caller.

``JobScheduler.result`` hands a result over and drops the scheduler's hold
on it; the job's record stays pollable.  Through the service that means
neither the ``ServiceResult`` nor the caller's graph outlives the caller's
own references to them.
"""

from __future__ import annotations

import gc
import logging
import threading
import time
import weakref

import pytest

from repro.ir import GraphBuilder
from repro.service import (FingerprintCache, JobScheduler, JobState,
                           OptimisationService, UnknownJobError,
                           default_config, request_fingerprint)

TASO_FAST = {"max_iterations": 4}


def _dense_graph():
    """A fresh two-layer MLP: each call a new object, one fingerprint."""
    b = GraphBuilder("mlp")
    x = b.input((4, 16), name="x")
    h = b.relu(b.linear(x, 16, 32, name="fc1"))
    return b.build([b.linear(h, 32, 8, name="fc2")])


def _fail() -> None:
    raise RuntimeError("search exploded")


class TestSchedulerDelivery:
    def test_a_second_fetch_is_refused_but_the_record_answers(self):
        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(lambda: 42, label="answer")
            assert scheduler.result(job_id, timeout=10) == 42
            with pytest.raises(UnknownJobError, match="delivered"):
                scheduler.result(job_id)
            assert scheduler.poll(job_id) is JobState.SUCCEEDED
            assert scheduler.record(job_id).label == "answer"
            assert scheduler.counts()["succeeded"] == 1

    def test_a_delivered_failure_is_not_raised_twice(self):
        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(_fail)
            with pytest.raises(RuntimeError, match="search exploded"):
                scheduler.result(job_id, timeout=10)
            with pytest.raises(UnknownJobError, match="delivered"):
                scheduler.result(job_id)
            assert scheduler.poll(job_id) is JobState.FAILED
            assert "search exploded" in scheduler.record(job_id).error

    def test_a_never_issued_id_does_not_read_as_delivered(self):
        with JobScheduler(num_workers=1) as scheduler:
            with pytest.raises(UnknownJobError) as excinfo:
                scheduler.result(999)
        assert "delivered" not in str(excinfo.value)

    def test_cancel_of_a_delivered_job_returns_false(self):
        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(lambda: 1)
            scheduler.result(job_id, timeout=10)
            assert scheduler.cancel(job_id) is False
            with pytest.raises(UnknownJobError):
                scheduler.cancel(999)

    def test_a_timeout_delivers_nothing(self):
        release = threading.Event()
        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(release.wait, 10)
            try:
                with pytest.raises(TimeoutError):
                    scheduler.result(job_id, timeout=0.05)
                assert scheduler.results_held() == 0  # still running
            finally:
                release.set()
            assert scheduler.result(job_id, timeout=10) is True

    def test_wait_all_after_delivery(self):
        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(lambda: "done")
            assert scheduler.result(job_id, timeout=10) == "done"
            assert scheduler.wait_all(timeout=10)

    def test_results_held_counts_the_unfetched(self):
        with JobScheduler(num_workers=1) as scheduler:
            job_ids = [scheduler.submit(lambda i=i: i) for i in range(3)]
            assert scheduler.wait_all(timeout=10)
            assert scheduler.results_held() == 3
            scheduler.result(job_ids[1])
            assert scheduler.results_held() == 2


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
            label = service.scheduler.record(repeat).label
            result = service.result(repeat, timeout=30)
            after = service.stats()["cache"]
        assert not first.cache_hit and result.cache_hit
        assert label.endswith("(cached)")
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
            followed = service.result(follower, timeout=30)
            repeat = service.submit(_dense_graph(), "taso", TASO_FAST)
            label = service.scheduler.record(repeat).label
            result = service.result(repeat, timeout=30)
            service.result(primary, timeout=30)
            cache = service.stats()["cache"]
        assert followed.coalesced and not followed.cache_hit
        assert result.cache_hit and label.endswith("(cached)")
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
    def test_results_held_reads_zero_after_synchronous_calls(self):
        with OptimisationService(num_workers=1) as service:
            for _ in range(2000):
                service.optimise(_dense_graph(), "taso", TASO_FAST)
            assert service.stats()["jobs"]["results_held"] == 0
            job_id = service.submit(_dense_graph(), "taso", TASO_FAST)
            assert service.scheduler.wait_all(timeout=30)
            assert service.stats()["jobs"]["results_held"] == 1
            service.result(job_id)
            assert service.stats()["jobs"]["results_held"] == 0

    def test_a_second_fetch_is_refused_but_poll_answers(self):
        with OptimisationService(num_workers=1) as service:
            job_id = service.submit(_dense_graph(), "taso", TASO_FAST)
            assert service.result(job_id, timeout=30).job_id == job_id
            with pytest.raises(UnknownJobError, match="delivered"):
                service.result(job_id)
            assert service.poll(job_id) is JobState.SUCCEEDED

    @pytest.mark.parametrize("origin", ["miss", "hit"])
    def test_the_callers_graph_dies_with_its_result(self, origin):
        with OptimisationService(num_workers=1) as service:
            if origin == "hit":
                service.optimise(_dense_graph(), "taso", TASO_FAST)
            graph = _dense_graph()
            result = service.optimise(graph, "taso", TASO_FAST)
            assert result.cache_hit is (origin == "hit")
            refs = [weakref.ref(graph),
                    weakref.ref(result.search.initial_graph)]
            del graph, result
            gc.collect()
            assert [ref() for ref in refs] == [None, None]

    def test_attach_to_a_delivered_primary_dispatches_afresh(self):
        with OptimisationService(num_workers=1) as service:
            other = service.submit(_dense_graph(), "taso",
                                   {"max_iterations": 2})
            service.result(other, timeout=30)
            # A stale in-flight entry naming a delivered job: attaching to
            # it is refused, so the request searches for itself.
            graph = _dense_graph()
            fingerprint = request_fingerprint(
                graph, "taso", {**default_config("taso"), **TASO_FAST})
            service._inflight[fingerprint] = other
            result = service.optimise(graph, "taso", TASO_FAST)
            assert not result.coalesced and not result.cache_hit
            assert result.fingerprint == fingerprint
            assert service.stats()["dedup"]["coalesced"] == 0
