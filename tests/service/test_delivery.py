"""A finished job's result is delivered once, then belongs to its caller.

``JobScheduler.result`` hands a result over and drops the scheduler's hold
on it; the job's record stays pollable.  Through the service that means
neither the ``ServiceResult`` nor the caller's graph outlives the caller's
own references to them.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.ir import GraphBuilder
from repro.service import (JobScheduler, JobState, OptimisationService,
                           UnknownJobError, default_config,
                           request_fingerprint)

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

    def test_events_and_wait_all_after_delivery(self):
        def body(progress):
            progress(1, 2.0, "fp")
            return "done"

        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(body, stream=True)
            assert scheduler.result(job_id, timeout=10) == "done"
            assert [e.iteration for e in scheduler.events(job_id)] == [1]
            assert scheduler.wait_all(timeout=10)

    def test_results_held_counts_the_unfetched(self):
        with JobScheduler(num_workers=1) as scheduler:
            job_ids = [scheduler.submit(lambda i=i: i) for i in range(3)]
            assert scheduler.wait_all(timeout=10)
            assert scheduler.results_held() == 3
            scheduler.result(job_ids[1])
            assert scheduler.results_held() == 2


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
