"""Tests for the async worker pool and the JSON-RPC remote-worker protocol."""

from __future__ import annotations

import asyncio
import gc
import sys
import warnings

import pytest

from repro.experiments import build_small_model
from repro.service import (JobScheduler, JobState, OptimisationService,
                           RemoteUnavailableError, RemoteWorkerError,
                           UnknownJobError, WorkerServer, create_optimiser,
                           optimise_async, ping_async)
from repro.service.async_pool import AsyncWorkerPool
from repro.service.remote import (parse_endpoint, request_from_wire,
                                  request_to_wire, result_from_wire,
                                  result_to_wire)
from repro.service.worker import JobRequest, execute_request

TASO_FAST = {"max_iterations": 8}


@pytest.fixture(scope="module")
def squeezenet():
    return build_small_model("squeezenet")


@pytest.fixture(scope="module")
def worker_server():
    with WorkerServer(num_workers=2) as server:
        yield server


# ---------------------------------------------------------------------------
class TestWireFormat:
    def test_request_round_trip(self, mlp_graph):
        request = JobRequest(graph=mlp_graph, optimiser="taso",
                             config=TASO_FAST, model_name="mlp")
        decoded, fingerprint = request_from_wire(
            request_to_wire(request, "fp42"))
        assert fingerprint == "fp42"
        assert decoded.optimiser == "taso"
        assert dict(decoded.config) == TASO_FAST
        assert decoded.model_name == "mlp"
        assert decoded.graph.structural_hash() == mlp_graph.structural_hash()
        assert not decoded.use_cache  # caching stays on the service side

    def test_result_round_trip(self, mlp_graph):
        request = JobRequest(graph=mlp_graph, optimiser="taso",
                             config=TASO_FAST, model_name="mlp")
        outcome = execute_request(request, "fp42")
        decoded = result_from_wire(result_to_wire(outcome), mlp_graph)
        assert decoded.fingerprint == "fp42"
        assert decoded.search.initial_graph is mlp_graph
        assert decoded.search.final_graph.structural_hash() \
            == outcome.search.final_graph.structural_hash()
        assert decoded.search.applied_rules == outcome.search.applied_rules

    def test_newer_protocol_is_rejected(self, mlp_graph):
        request = JobRequest(graph=mlp_graph)
        wire = request_to_wire(request)
        wire["protocol"] = 999
        with pytest.raises(ValueError, match="protocol"):
            request_from_wire(wire)

    def test_parse_endpoint(self):
        assert parse_endpoint("host:9100") == ("host", 9100)
        assert parse_endpoint("9100") == ("127.0.0.1", 9100)
        with pytest.raises(ValueError):
            parse_endpoint("no-port")


# ---------------------------------------------------------------------------
class TestWorkerServer:
    def test_ping(self, worker_server):
        info = asyncio.run(ping_async(worker_server.endpoint))
        assert info["pong"] is True
        assert info["workers"] == 2

    def test_remote_search_matches_local(self, worker_server, mlp_graph):
        request = JobRequest(graph=mlp_graph, optimiser="taso",
                             config=TASO_FAST, model_name="mlp")
        remote_result = asyncio.run(
            optimise_async(worker_server.endpoint, request, "fp"))
        local = create_optimiser("taso", **TASO_FAST).optimise(mlp_graph)
        assert remote_result.search.final_graph.structural_hash() \
            == local.final_graph.structural_hash()
        assert remote_result.search.final_cost_ms \
            == pytest.approx(local.final_cost_ms)

    def test_remote_search_failure_propagates(self, worker_server, mlp_graph):
        request = JobRequest(graph=mlp_graph, optimiser="taso",
                             config={"not_a_real_knob": 1})
        with pytest.raises(RemoteWorkerError, match="not_a_real_knob"):
            asyncio.run(optimise_async(worker_server.endpoint, request))
        # The worker survives an in-search failure.
        assert asyncio.run(ping_async(worker_server.endpoint))["pong"] is True

    def test_unreachable_endpoint(self, mlp_graph):
        with pytest.raises(RemoteUnavailableError):
            asyncio.run(ping_async("127.0.0.1:1", timeout_s=2.0))
        with pytest.raises(RemoteUnavailableError):
            asyncio.run(optimise_async("127.0.0.1:1",
                                       JobRequest(graph=mlp_graph)))

    def test_large_graph_crosses_the_wire(self, worker_server):
        """Responses bigger than asyncio's 64 KiB default line limit work.

        inception_v3 serialises to ~94 KB; the async path must raise the
        StreamReader limit or every real-size model fails remotely.
        """
        graph = build_small_model("inception_v3")
        request = JobRequest(graph=graph, optimiser="taso",
                             config={"max_iterations": 2},
                             model_name="inception_v3")
        result = asyncio.run(
            optimise_async(worker_server.endpoint, request, "fp-big"))
        assert result.search.model == "inception_v3"
        assert result.fingerprint == "fp-big"


# ---------------------------------------------------------------------------
class TestAsyncBackend:
    def test_async_backend_matches_thread_backend(self, squeezenet):
        with OptimisationService(num_workers=2, backend="async") as service:
            async_result = service.optimise(squeezenet, "taso", TASO_FAST,
                                            timeout=120)
            stats = service.stats()
        with OptimisationService(num_workers=2) as service:
            thread_result = service.optimise(squeezenet, "taso", TASO_FAST)
        assert async_result.graph.structural_hash() \
            == thread_result.graph.structural_hash()
        assert stats["backend"] == "async"
        assert stats["pool"]["dispatched_local"] == 1

    def test_async_backend_with_remote_worker(self, worker_server, squeezenet):
        with OptimisationService(
                num_workers=2,
                remote_endpoints=[worker_server.endpoint]) as service:
            result = service.optimise(squeezenet, "taso", TASO_FAST,
                                      timeout=120)
            stats = service.stats()
        local = create_optimiser("taso", **TASO_FAST).optimise(squeezenet)
        assert result.graph.structural_hash() \
            == local.final_graph.structural_hash()
        assert stats["backend"] == "async"  # implied by remote_endpoints
        assert stats["pool"]["dispatched_remote"] == 1
        assert stats["pool"]["dispatched_local"] == 0

    def test_dead_endpoint_falls_back_to_local(self, squeezenet):
        with OptimisationService(num_workers=2,
                                 remote_endpoints=["127.0.0.1:1"]) as service:
            result = service.optimise(squeezenet, "taso", TASO_FAST,
                                      timeout=120)
            stats = service.stats()
        assert result.search.model == "squeezenet"
        assert stats["pool"]["remote_fallbacks"] == 1
        assert stats["pool"]["dispatched_local"] == 1

    def test_dedup_works_on_the_async_backend(self, squeezenet):
        with OptimisationService(num_workers=2, backend="async") as service:
            ids = [service.submit(squeezenet, "taso", {"max_iterations": 20},
                                  model_name=f"m{i}") for i in range(4)]
            results = service.gather(ids, timeout=120)
            stats = service.stats()
        assert sum(1 for r in results if r.coalesced) == 3
        assert stats["pool"]["dispatched_local"] == 1

    def test_shutdown_closes_the_event_loop(self, monkeypatch):
        # An unclosed loop warns from ``__del__``, where an error-level
        # warning can only reach the unraisable hook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        pool = AsyncWorkerPool(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            pool.shutdown()
            assert pool._loop.is_closed()
            del pool
            gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []


# ---------------------------------------------------------------------------
class TestAttachedJobs:
    def test_follower_shares_outcome_and_state(self):
        with JobScheduler(num_workers=1) as scheduler:
            primary = scheduler.submit(lambda: 42, label="primary")
            follower = scheduler.attach(primary, label="tagalong")
            assert scheduler.result(follower, timeout=10) == 42
            assert scheduler.poll(follower) is JobState.SUCCEEDED
            assert scheduler.record(follower).label == "tagalong"

    def test_followers_do_not_consume_admission_slots(self):
        import threading
        release = threading.Event()
        with JobScheduler(num_workers=1, max_pending=1) as scheduler:
            primary = scheduler.submit(release.wait)
            # The queue is full, yet followers still attach freely.
            followers = [scheduler.attach(primary) for _ in range(5)]
            release.set()
            assert scheduler.wait_all(timeout=10)
            for job_id in followers:
                assert scheduler.result(job_id) is True

    def test_cancel_on_follower_is_refused(self):
        import threading
        release = threading.Event()
        with JobScheduler(num_workers=1) as scheduler:
            primary = scheduler.submit(release.wait)
            follower = scheduler.attach(primary)
            assert scheduler.cancel(follower) is False
            release.set()
            assert scheduler.result(primary, timeout=10) is True

    def test_attach_to_unknown_job(self):
        with JobScheduler(num_workers=1) as scheduler:
            with pytest.raises(UnknownJobError):
                scheduler.attach(999)

    def test_remote_endpoints_require_async_backend(self):
        with pytest.raises(ValueError, match="async"):
            JobScheduler(num_workers=1, backend="thread",
                         remote_endpoints=["h:1"])
        with pytest.raises(ValueError, match="async"):
            OptimisationService(num_workers=1, backend="thread",
                                remote_endpoints=["h:1"])

    def test_process_is_no_longer_a_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'process'"):
            OptimisationService(num_workers=1, backend="process")
