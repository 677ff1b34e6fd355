"""Every model and every optimiser through the service: what a worker
thread returns is what :func:`execute_request` returns in the caller's
thread, and the service runs on threads alone."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import build_small_model
from repro.models import list_models
from repro.search.result import SearchResult
from repro.service import JobScheduler, OptimisationService
from repro.service.worker import JobRequest, ServiceResult, execute_request

TASO_FAST = {"max_iterations": 8}


@pytest.fixture(scope="module")
def squeezenet():
    return build_small_model("squeezenet")


@pytest.fixture(scope="module")
def service():
    """One service for the per-model and per-optimiser cases."""
    with OptimisationService(num_workers=2) as service:
        yield service


def _assert_same_search(search, local) -> None:
    assert search.applied_rules == local.applied_rules
    assert search.final_cost_ms == local.final_cost_ms  # exact
    assert search.final_graph.structural_hash() == \
        local.final_graph.structural_hash()


def _run_python(code: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


class TestWorkerThreads:
    def test_the_thread_path_starts_no_event_loop_or_process_pool(self):
        """A search through the service imports neither ``asyncio`` nor
        ``multiprocessing``."""
        code = ("import sys\n"
                "from repro.experiments import build_small_model\n"
                "from repro.service import OptimisationService\n"
                "with OptimisationService(num_workers=1) as service:\n"
                "    service.optimise(build_small_model('squeezenet'), "
                "'taso', {'max_iterations': 2})\n"
                "print(sorted({'asyncio', 'multiprocessing'} "
                "& set(sys.modules)))\n")
        assert _run_python(code).strip() == "[]"

    def test_importing_the_service_loads_no_asyncio(self):
        code = ("import sys, repro.service\n"
                "print('asyncio' in sys.modules)\n")
        assert _run_python(code).strip() == "False"

    def test_remote_endpoints_are_refused(self):
        for owner in (JobScheduler, OptimisationService):
            with pytest.raises(TypeError, match="remote_endpoints"):
                owner(num_workers=1, remote_endpoints=["127.0.0.1:1"])


class TestPickling:
    """A request and a result pickle whole, so a caller may hand them to
    a process pool of its own."""

    def test_request_pickle_round_trip(self, squeezenet):
        request = JobRequest(graph=squeezenet, optimiser="taso",
                             config={"max_iterations": 3}, model_name="sq",
                             use_cache=False)
        decoded = pickle.loads(pickle.dumps(request))
        assert decoded.graph.structural_hash() == \
            squeezenet.structural_hash()
        assert (decoded.optimiser, decoded.config, decoded.model_name,
                decoded.use_cache) == ("taso", {"max_iterations": 3},
                                       "sq", False)

    def test_result_pickle_round_trip(self, squeezenet):
        search = SearchResult(
            optimiser="taso", model="sq",
            initial_graph=squeezenet, final_graph=squeezenet,
            initial_latency_ms=2.0, final_latency_ms=1.0,
            initial_cost_ms=2.0, final_cost_ms=0.1 + 0.2,
            optimisation_time_s=0.1, applied_rules=["fuse_conv_bn"],
            stats={"iterations": 3})
        result = pickle.loads(pickle.dumps(
            ServiceResult(search=search, cache_hit=False,
                          fingerprint="fp-1")))
        assert result.search.final_graph.structural_hash() == \
            squeezenet.structural_hash()
        assert result.search.final_cost_ms == 0.1 + 0.2  # exact
        assert result.search.applied_rules == ["fuse_conv_bn"]
        assert result.search.stats == {"iterations": 3}
        assert result.fingerprint == "fp-1" and not result.cache_hit


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["plain", "progress", "cached"])
@pytest.mark.parametrize("name", sorted(list_models()))
def test_service_equals_in_process(service, name, mode):
    """``taso`` on a worker thread returns what ``execute_request``
    returns in this one: same rules, same exact cost, same graph.  A
    submission's ``progress`` sees exactly the calls the in-process search
    makes; a searched result is served again from the cache unchanged."""
    graph = build_small_model(name)
    local_calls = []
    local = execute_request(JobRequest(graph=graph, optimiser="taso",
                                       config=TASO_FAST, model_name=name),
                            progress=lambda *call: local_calls.append(call)
                            ).search
    calls = []
    future = service.submit(graph, "taso", TASO_FAST, model_name=name,
                            use_cache=mode == "cached",
                            progress=(lambda *call: calls.append(call))
                            if mode == "progress" else None)
    result = future.result(timeout=120)
    _assert_same_search(result.search, local)
    assert result.search.model == name
    if mode == "progress":
        assert len(calls) == int(result.search.stats["iterations"])
        assert calls == local_calls
    if mode == "cached":
        hit = service.optimise(graph, "taso", TASO_FAST, model_name=name,
                               timeout=120)
        assert hit.cache_hit
        _assert_same_search(hit.search, local)


def test_concurrent_searches_price_as_serial_ones(fresh_templates):
    """Two workers searching catalogue models at once, each model twice,
    fill one template table from both threads: every search returns what
    serial :func:`execute_request` returns, latencies included."""
    names = sorted(list_models())
    serial = {name: execute_request(JobRequest(
        graph=build_small_model(name), optimiser="taso", config=TASO_FAST,
        model_name=name)).search for name in names}
    fresh_templates.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave template lookups and stores
    try:
        with OptimisationService(num_workers=2) as service:
            jobs = [(name, service.submit(build_small_model(name), "taso",
                                          TASO_FAST, model_name=name,
                                          use_cache=False))
                    for name in names for _ in range(2)]
            results = [(name, future.result(timeout=300).search)
                       for name, future in jobs]
    finally:
        sys.setswitchinterval(interval)
    for name, search in results:
        local = serial[name]
        _assert_same_search(search, local)
        assert (search.initial_cost_ms, search.initial_latency_ms,
                search.final_latency_ms) == (local.initial_cost_ms,
                                             local.initial_latency_ms,
                                             local.final_latency_ms)


FAST_CONFIGS = {
    "greedy": {"max_iterations": 6},
    "pet": {"max_iterations": 6},
    "random": {"num_walks": 2, "horizon": 6},
    "taso": TASO_FAST,
    "tensat": {"round_limit": 2, "node_limit": 2000},
    "xrlflow": {"num_episodes": 2, "max_steps": 4, "update_frequency": 2,
                "eval_episodes": 1},
}


@pytest.mark.parametrize("mode", ["plain", "progress", "cached"])
@pytest.mark.parametrize("optimiser", sorted(FAST_CONFIGS))
def test_every_optimiser_through_the_service(squeezenet, optimiser, mode):
    """Every registered search on a worker thread returns what it returns
    in this one.  A submission's ``progress`` sees exactly the calls the
    in-process search makes; a searched result is served again from the
    cache unchanged."""
    config = FAST_CONFIGS[optimiser]
    local_calls = []
    local = execute_request(
        JobRequest(graph=squeezenet, optimiser=optimiser, config=config),
        progress=lambda *call: local_calls.append(call)).search
    calls = []
    # A fresh service per case, so the first request always searches.
    with OptimisationService(num_workers=2) as service:
        future = service.submit(squeezenet, optimiser, config,
                                use_cache=mode == "cached",
                                progress=(lambda *call: calls.append(call))
                                if mode == "progress" else None)
        result = future.result(timeout=300)
        assert not result.cache_hit
        _assert_same_search(result.search, local)
        assert result.search.optimiser == local.optimiser
        if mode == "progress":
            assert local_calls
            assert calls == local_calls
        if mode == "cached":
            hit = service.optimise(squeezenet, optimiser, config,
                                   timeout=300)
            assert hit.cache_hit
            _assert_same_search(hit.search, local)
