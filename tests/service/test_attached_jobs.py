"""Tests for coalesced (follower) submissions.

A submission whose fingerprint is already being searched follows that
search: it gets a future of its own, completed from the searching future —
relabelled with its own model name and flagged ``coalesced`` — and failed
or cancelled with it.  Cancelling a follower cancels only that follower.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, wait

import pytest

from repro.ir import GraphBuilder
from repro.search.result import SearchResult
from repro.service import (OptimisationService, QueueFullError,
                           register_optimiser)
from repro.service import registry
from repro.service import scheduler as scheduler_module


def _graph():
    builder = GraphBuilder("mlp")
    x = builder.input((4, 16), name="x")
    return builder.build([builder.relu(builder.linear(x, 16, 8, name="fc"))])


class _GatedOptimizer:
    """Waits for ``gate`` once ``started`` is set, then returns its input
    — or raises, with ``fail`` set."""

    name = "gate-test"
    started = threading.Event()
    gate = threading.Event()
    runs = 0

    def __init__(self, fail: bool = False):
        self.fail = fail

    def optimise(self, graph, model_name: str = "",
                 progress=None) -> SearchResult:
        type(self).runs += 1
        type(self).started.set()
        assert type(self).gate.wait(30)
        if self.fail:
            raise RuntimeError("search exploded")
        return SearchResult(
            optimiser=self.name, model=model_name or graph.name,
            initial_graph=graph, final_graph=graph,
            initial_latency_ms=2.0, final_latency_ms=1.0,
            initial_cost_ms=2.0, final_cost_ms=1.0,
            optimisation_time_s=0.01)


@pytest.fixture()
def gated():
    _GatedOptimizer.started = threading.Event()
    _GatedOptimizer.gate = threading.Event()
    _GatedOptimizer.runs = 0
    register_optimiser("gate-test", _GatedOptimizer, {"fail": False},
                       "follower probe")
    try:
        yield _GatedOptimizer
    finally:
        _GatedOptimizer.gate.set()
        del registry._REGISTRY["gate-test"]


class TestAttachedJobs:
    def test_follower_shares_outcome_and_state(self, gated):
        graph = _graph()
        with OptimisationService(num_workers=1) as service:
            primary = service.submit(graph, "gate-test", model_name="first")
            assert gated.started.wait(10)
            follower = service.submit(graph, "gate-test",
                                      model_name="tagalong")
            gated.gate.set()
            searched = primary.result(timeout=10)
            followed = follower.result(timeout=10)
        assert not searched.coalesced and followed.coalesced
        assert (searched.search.model, followed.search.model) \
            == ("first", "tagalong")
        assert followed.search.final_graph is searched.search.final_graph
        assert (followed.queue_time_s, followed.run_time_s) == (0.0, 0.0)
        assert gated.runs == 1

    def test_followers_do_not_consume_admission_slots(self, gated):
        graph = _graph()
        with OptimisationService(num_workers=1, max_pending=1) as service:
            primary = service.submit(graph, "gate-test")
            assert gated.started.wait(10)
            # The queue is full, yet followers still join freely.
            followers = [service.submit(graph, "gate-test")
                         for _ in range(5)]
            with pytest.raises(QueueFullError):
                service.submit(_graph(), "gate-test", {"fail": True})
            gated.gate.set()
            results = [future.result(timeout=10)
                       for future in [primary] + followers]
        assert [result.coalesced for result in results] == [False] + [True] * 5

    def test_cancelling_one_follower_leaves_the_others(self, gated):
        graph = _graph()
        with OptimisationService(num_workers=1) as service:
            primary = service.submit(graph, "gate-test")
            assert gated.started.wait(10)
            doomed, kept = (service.submit(graph, "gate-test")
                            for _ in range(2))
            assert doomed.cancel() is True
            assert doomed.cancelled() and not primary.cancelled()
            gated.gate.set()
            searched = primary.result(timeout=10)
            followed = kept.result(timeout=10)
            with pytest.raises(CancelledError):
                doomed.result()
            jobs = service.stats()["jobs"]
        assert followed.coalesced
        assert followed.search.final_cost_ms == searched.search.final_cost_ms
        assert (jobs["succeeded"], jobs["cancelled"], jobs["pending"]) \
            == (2, 1, 0)

    def test_a_running_search_cannot_be_cancelled(self, gated):
        graph = _graph()
        with OptimisationService(num_workers=1) as service:
            primary = service.submit(graph, "gate-test")
            assert gated.started.wait(10)
            follower = service.submit(graph, "gate-test")
            assert primary.cancel() is False
            gated.gate.set()
            searched = primary.result(timeout=10)
            followed = follower.result(timeout=10)
            jobs = service.stats()["jobs"]
        assert not searched.coalesced and followed.coalesced
        assert (jobs["succeeded"], jobs["cancelled"]) == (2, 0)

    def test_cancelling_every_follower_leaves_the_search(self, gated):
        graph = _graph()
        with OptimisationService(num_workers=1) as service:
            primary = service.submit(graph, "gate-test")
            assert gated.started.wait(10)
            followers = [service.submit(graph, "gate-test")
                         for _ in range(3)]
            assert [future.cancel() for future in followers] == [True] * 3
            assert not primary.done()
            gated.gate.set()
            assert not primary.result(timeout=10).coalesced
            # The search stored its entry all the same.
            repeat = service.submit(graph, "gate-test")
            assert repeat.done() and repeat.result(timeout=0).cache_hit
            jobs = service.stats()["jobs"]
        assert gated.runs == 1
        assert (jobs["succeeded"], jobs["cancelled"], jobs["pending"]) \
            == (2, 3, 0)

    def test_a_follower_keeps_its_result_after_the_primary_is_delivered(
            self, gated):
        graph = _graph()
        with OptimisationService(num_workers=1) as service:
            primary = service.submit(graph, "gate-test")
            assert gated.started.wait(10)
            follower = service.submit(graph, "gate-test")
            gated.gate.set()
            primary.result(timeout=10)
            del primary
            assert follower.result(timeout=10).coalesced

    def test_followers_of_a_failed_job_fail_with_its_error(self, gated):
        graph = _graph()
        config = {"fail": True}
        with OptimisationService(num_workers=1) as service:
            primary = service.submit(graph, "gate-test", config)
            assert gated.started.wait(10)
            followers = [service.submit(graph, "gate-test", config)
                         for _ in range(3)]
            gated.gate.set()
            for future in [primary] + followers:
                with pytest.raises(RuntimeError, match="search exploded"):
                    future.result(timeout=10)
            jobs = service.stats()["jobs"]
        assert (jobs["failed"], jobs["pending"], jobs["running"]) == (4, 0, 0)

    def test_followers_of_a_cancelled_slot_waiter_end_cancelled(
            self, gated, monkeypatch):
        """When a search is cancelled while it waits in the pool's queue,
        so is every follower, and none of them holds an admission slot
        afterwards."""
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 1)
        with OptimisationService(num_workers=2, max_pending=2) as service:
            blocker = service.submit(_graph(), "gate-test", {"fail": True})
            assert gated.started.wait(10)  # it holds the only thread
            waiter = service.submit(_graph(), "gate-test")
            followers = [service.submit(_graph(), "gate-test")
                         for _ in range(2)]
            time.sleep(0.2)  # it waits in the pool's queue
            assert waiter.cancel() is True
            # ``wait`` sees the followers finished at once; the waiter
            # itself is reported when a pool thread dequeues it.
            assert not wait(followers, timeout=5).not_done
            for future in [waiter] + followers:
                assert future.cancelled()
                with pytest.raises(CancelledError):
                    future.result()
            assert service.stats()["dedup"]["inflight"] == 1  # the blocker
            after = service.submit(_graph(), "gate-test", use_cache=False)
            gated.gate.set()
            with pytest.raises(RuntimeError):
                blocker.result(timeout=10)
            assert after.result(timeout=10).search.final_cost_ms == 1.0
            jobs = service.stats()["jobs"]
        assert gated.runs == 2  # the blocker and ``after``; never the waiter
        assert jobs["cancelled"] == 3
