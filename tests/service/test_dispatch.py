"""Tests for health/load-aware remote dispatch and the circuit breaker.

The acceptance bar for the cluster-dispatch work: with one saturated or
dead endpoint in the fleet, dispatch routes around it (no job failures),
quarantined endpoints receive no traffic, and a healed endpoint is
readmitted by the probe loop without operator action.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.experiments import build_small_model
from repro.search.result import SearchResult
from repro.service import (HealthRegistry, OptimisationService, WorkerServer,
                           optimise_async, ping_async, register_optimiser)
from repro.service.worker import JobRequest

TASO_FAST = {"max_iterations": 6}


class _SleepingOptimizer:
    """Optimiser that simulates a long search by sleeping."""

    name = "sleep-test"

    def __init__(self, delay_s: float = 0.5):
        self.delay_s = delay_s

    def optimise(self, graph, model_name: str = "") -> SearchResult:
        time.sleep(self.delay_s)
        return SearchResult(
            optimiser=self.name, model=model_name or graph.name,
            initial_graph=graph, final_graph=graph,
            initial_latency_ms=1.0, final_latency_ms=0.5,
            initial_cost_ms=1.0, final_cost_ms=0.5,
            optimisation_time_s=self.delay_s)


def _occupy_endpoint(endpoint: str, graph, count: int, delay_s: float):
    """Park ``count`` sleeping searches on ``endpoint`` (returns threads)."""
    request = JobRequest(graph=graph, optimiser="sleep-test",
                         config={"delay_s": delay_s})

    def run():
        asyncio.run(optimise_async(endpoint, request))

    threads = [threading.Thread(target=run, daemon=True)
               for _ in range(count)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10
    # Until every occupier has reached the server's semaphore.
    while asyncio.run(ping_async(endpoint))["jobs_inflight"] < count:
        assert time.monotonic() < deadline
        time.sleep(0.02)
    return threads


@pytest.fixture(scope="module")
def squeezenet():
    return build_small_model("squeezenet")


# ---------------------------------------------------------------------------
class TestHealthRegistry:
    def test_least_loaded_endpoint_wins(self):
        registry = HealthRegistry(["a:1", "b:1"], default_capacity=2)
        first = registry.try_acquire()
        assert first == "a:1"  # declaration order breaks the 0-load tie
        assert registry.try_acquire() == "b:1"  # a:1 now carries load
        # a:1 releases; it is again the least loaded.
        registry.release("a:1")
        assert registry.try_acquire() == "a:1"

    def test_ping_capacity_caps_dispatch(self):
        """The satellite bugfix: ping-reported capacity gates slots."""
        registry = HealthRegistry(["a:1"], default_capacity=8)
        registry.observe_ping("a:1", {"capacity": 2, "jobs_inflight": 0})
        assert registry.try_acquire() == "a:1"
        assert registry.try_acquire() == "a:1"
        assert registry.try_acquire() is None  # both real slots taken

    def test_worker_reported_load_counts(self):
        """Load other dispatchers created (via ping) saturates us too."""
        registry = HealthRegistry(["a:1"], default_capacity=4)
        registry.observe_ping("a:1", {"capacity": 4, "jobs_inflight": 4})
        assert registry.try_acquire() is None

    def test_circuit_breaker_quarantines_and_readmits(self):
        registry = HealthRegistry(["a:1"], failure_threshold=3)
        assert not registry.record_failure("a:1")
        assert not registry.record_failure("a:1")
        assert registry.record_failure("a:1")  # third strike trips it
        assert registry.quarantined_endpoints() == ["a:1"]
        assert registry.try_acquire() is None
        # A successful probe readmits immediately.
        registry.observe_ping("a:1", {"capacity": 2, "jobs_inflight": 0})
        assert registry.quarantined_endpoints() == []
        assert registry.snapshot()["a:1"]["readmissions"] == 1
        assert registry.try_acquire() == "a:1"

    def test_success_resets_the_failure_count(self):
        registry = HealthRegistry(["a:1"], failure_threshold=2)
        registry.record_failure("a:1")
        registry.record_success("a:1", 0.1)
        registry.record_failure("a:1")
        assert registry.quarantined_endpoints() == []

    def test_latency_breaks_load_ties(self):
        registry = HealthRegistry(["slow:1", "fast:1"], default_capacity=2)
        registry.record_success("slow:1", 2.0)
        registry.record_success("fast:1", 0.1)
        assert registry.try_acquire() == "fast:1"


# ---------------------------------------------------------------------------
class TestWorkerServerLoad:
    def test_ping_reports_inflight_jobs(self, squeezenet):
        """The server reports currently-running work, not just totals."""
        release = threading.Event()

        class _Stalling:
            name = "stall-test"

            def __init__(self):
                pass

            def optimise(self, graph, model_name=""):
                release.wait(timeout=30)
                from repro.search.greedy import TASOOptimizer
                return TASOOptimizer(max_iterations=1).optimise(
                    graph, model_name)

        from repro.service import register_optimiser
        register_optimiser("stall-test", _Stalling, {},
                           "inflight probe", replace=True)
        with WorkerServer(num_workers=2) as server:
            request = JobRequest(graph=squeezenet, optimiser="stall-test")
            worker = threading.Thread(
                target=lambda: asyncio.run(
                    optimise_async(server.endpoint, request)),
                daemon=True)
            worker.start()
            try:
                deadline = time.monotonic() + 10
                info = {}
                while time.monotonic() < deadline:
                    info = asyncio.run(ping_async(server.endpoint))
                    if info.get("jobs_inflight", 0) >= 1:
                        break
                    time.sleep(0.05)
                assert info["jobs_inflight"] >= 1
                assert info["capacity"] == 2
            finally:
                release.set()
                worker.join(timeout=30)
            drained = asyncio.run(ping_async(server.endpoint))
            assert drained["jobs_inflight"] == 0
            assert drained["jobs_served"] == 1


# ---------------------------------------------------------------------------
class TestHealthAwareDispatch:
    def test_routes_around_a_dead_endpoint(self, squeezenet):
        """One dead box in the fleet: every job completes, none fail."""
        with WorkerServer(num_workers=2) as server:
            with OptimisationService(
                    num_workers=4,
                    remote_endpoints=["127.0.0.1:1", server.endpoint],
                    ) as service:
                for _ in range(3):  # drive the dead box to quarantine
                    service.probe_workers()
                health = service.stats()["pool"]["endpoints"]
                assert health["127.0.0.1:1"]["quarantined"]
                assert not health[server.endpoint]["quarantined"]
                ids = [service.submit(squeezenet, "taso", TASO_FAST,
                                      model_name=f"m{i}", use_cache=False)
                       for i in range(4)]
                results = service.gather(ids, timeout=120)
                stats = service.stats()["pool"]
        assert len(results) == 4  # gather raised nothing: zero job failures
        # Quarantined endpoints get no traffic, so no dispatch-time
        # fallbacks are paid either.
        assert stats["remote_fallbacks"] == 0
        assert stats["dispatched_remote"] >= 1
        assert stats["endpoints"]["127.0.0.1:1"]["inflight"] == 0

    def test_healed_endpoint_is_readmitted(self, squeezenet):
        """Quarantine → worker restarts → probe readmits → traffic returns."""
        # The service first: its pool forks its workers at construction,
        # and a child forked while the server listens would hold the port
        # open past server.stop().
        with socket.socket() as reserved:
            reserved.bind(("127.0.0.1", 0))
            port = reserved.getsockname()[1]
        endpoint = f"127.0.0.1:{port}"
        with OptimisationService(num_workers=2,
                                 remote_endpoints=[endpoint]) as service:
            server = WorkerServer(port=port, num_workers=2).start()
            assert service.probe_workers() == {endpoint: True}
            server.stop()
            for _ in range(3):
                service.probe_workers()
            assert service.stats()["pool"]["endpoints"][endpoint]["quarantined"]

            # While quarantined, jobs run locally without failing.
            local = service.optimise(squeezenet, "taso", TASO_FAST,
                                     use_cache=False, timeout=120)
            assert local.search.model == "squeezenet"
            assert service.stats()["pool"]["remote_fallbacks"] == 0

            # The box comes back on the same port; one probe readmits it.
            revived = WorkerServer(port=port, num_workers=2).start()
            try:
                assert service.probe_workers() == {endpoint: True}
                health = service.stats()["pool"]["endpoints"][endpoint]
                assert not health["quarantined"]
                assert health["readmissions"] == 1
                remote = service.optimise(squeezenet, "taso", TASO_FAST,
                                          use_cache=False, timeout=120)
                assert remote.search.model == "squeezenet"
                assert service.stats()["pool"]["dispatched_remote"] >= 1
            finally:
                revived.stop()

    def test_routes_around_a_saturated_endpoint(self, squeezenet):
        """A 1-worker box parked on long searches next to a free 4-worker
        box: once a probe has seen the parked load, the batch runs without
        a failure and none of it queues behind the busy box."""
        register_optimiser("sleep-test", _SleepingOptimizer,
                           {"delay_s": 0.5}, "saturation probe", replace=True)
        occupiers, jobs = 2, 6
        with WorkerServer(num_workers=4) as free, \
                WorkerServer(num_workers=1) as parked:
            threads = _occupy_endpoint(parked.endpoint, squeezenet,
                                       occupiers, delay_s=1.5)
            with OptimisationService(
                    num_workers=2,
                    remote_endpoints=[parked.endpoint, free.endpoint],
                    ) as service:
                service.probe_workers()  # learn capacity + the parked load
                ids = [service.submit(squeezenet, "sleep-test",
                                      {"delay_s": 0.05}, use_cache=False,
                                      model_name=f"job{i}")
                       for i in range(jobs)]
                results = service.gather(ids, timeout=120)
                stats = service.stats()["pool"]
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            served = {server.endpoint: server.jobs_served
                      for server in (parked, free)}
        assert len(results) == jobs  # gather raised nothing
        assert stats["remote_fallbacks"] == 0
        assert served[parked.endpoint] == occupiers
        assert served[free.endpoint] == stats["dispatched_remote"] >= 1
        assert stats["dispatched_remote"] + stats["dispatched_local"] == jobs
