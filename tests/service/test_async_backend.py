"""Tests for the async backend: a pool of local worker processes."""

from __future__ import annotations

import logging
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import uuid
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.models import list_models
from repro.search.result import SearchResult
from repro.service import (JobScheduler, JobState, OptimisationService,
                           register_optimiser)
from repro.service.worker import JobRequest, ServiceResult, execute_request

TASO_FAST = {"max_iterations": 8}


@pytest.fixture(scope="module")
def squeezenet():
    return build_small_model("squeezenet")


class _TouchingOptimizer:
    """Optimiser that records each execution as a unique file in a dir."""

    name = "touch-async-test"

    def __init__(self, touch_dir: str = "", delay_s: float = 0.3):
        self.touch_dir = touch_dir
        self.delay_s = delay_s

    def optimise(self, graph, model_name: str = "") -> SearchResult:
        path = os.path.join(self.touch_dir, f"exec-{uuid.uuid4().hex}")
        with open(path, "w") as handle:
            handle.write(str(os.getpid()))
        time.sleep(self.delay_s)
        return SearchResult(
            optimiser=self.name, model=model_name or graph.name,
            initial_graph=graph, final_graph=graph,
            initial_latency_ms=1.0, final_latency_ms=0.5,
            initial_cost_ms=1.0, final_cost_ms=0.5,
            optimisation_time_s=self.delay_s)


def _kill_own_process() -> None:
    """Job body of a worker that dies without a word (``kill -9``)."""
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_in_worker(message: str) -> None:
    raise RuntimeError(message)


def _return_a_lock() -> "threading.Lock":
    """Job body whose result cannot cross back to the submitting process."""
    return threading.Lock()


@pytest.fixture(scope="module")
def async_service():
    """One async service for the per-model and per-optimiser cases."""
    with OptimisationService(num_workers=2, backend="async") as service:
        yield service


def _assert_same_search(search, local) -> None:
    assert search.applied_rules == local.applied_rules
    assert search.final_cost_ms == local.final_cost_ms  # exact
    assert search.final_graph.structural_hash() == \
        local.final_graph.structural_hash()


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
        assert stats["pool_replacements"] == 0

    def test_dedup_works_on_the_async_backend(self, tmp_path):
        # Registered before the pool forks, so its workers know the name.
        register_optimiser("touch-async-test", _TouchingOptimizer, {},
                           "counts its executions", replace=True)
        builder = GraphBuilder("tiny")
        graph = builder.build([builder.relu(builder.input((2, 4)))])
        config = {"touch_dir": str(tmp_path)}
        with OptimisationService(num_workers=2, backend="async") as service:
            ids = [service.submit(graph, "touch-async-test", config,
                                  model_name=f"m{i}") for i in range(4)]
            results = service.gather(ids, timeout=120)
        assert sum(1 for r in results if r.coalesced) == 3
        executions = list(tmp_path.iterdir())
        assert len(executions) == 1  # one search, in a worker process
        assert executions[0].read_text() != str(os.getpid())

    def test_a_killed_worker_fails_only_its_own_job(self, squeezenet,
                                                   caplog):
        with OptimisationService(num_workers=2, backend="async") as service:
            scheduler = service.scheduler
            doomed = scheduler.submit(_kill_own_process)
            with pytest.raises(BrokenProcessPool):
                scheduler.result(doomed, timeout=60)
            assert scheduler.poll(doomed) is JobState.FAILED
            with caplog.at_level(logging.WARNING,
                                 logger="repro.service.scheduler"):
                pids = [scheduler.submit(os.getpid) for _ in range(3)]
                answers = [scheduler.result(job_id, timeout=60)
                           for job_id in pids]
            assert os.getpid() not in answers
            result = service.optimise(squeezenet, "taso", TASO_FAST,
                                      timeout=120)
            stats = service.stats()
        assert result.search.model == "squeezenet"
        assert stats["pool_replacements"] == 1
        assert stats["jobs"]["failed"] == 1
        warnings = [r for r in caplog.records
                    if r.name == "repro.service.scheduler"]
        assert len(warnings) == 1
        assert "broken process pool" in warnings[0].getMessage()

    def test_process_is_no_longer_a_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'process'"):
            OptimisationService(num_workers=1, backend="process")

    def test_the_thread_path_starts_no_event_loop_or_process_pool(self):
        """Only the async branch reaches ``multiprocessing``, and nothing
        in the service imports ``asyncio``."""
        code = ("import sys\n"
                "from repro.experiments import build_small_model\n"
                "from repro.service import OptimisationService\n"
                "with OptimisationService(num_workers=1) as service:\n"
                "    service.optimise(build_small_model('squeezenet'), "
                "'taso', {'max_iterations': 2})\n"
                "print(sorted({'asyncio', 'multiprocessing'} "
                "& set(sys.modules)))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout
        assert out.strip() == "[]"

    def test_jobs_on_a_broken_pool_fail_loudly(self):
        with JobScheduler(num_workers=2, backend="async") as scheduler:
            sleeper = scheduler.submit(time.sleep, 30)
            doomed = scheduler.submit(_kill_own_process)
            for job_id in (sleeper, doomed):
                with pytest.raises(BrokenProcessPool):
                    scheduler.result(job_id, timeout=60)
                assert scheduler.poll(job_id) is JobState.FAILED
            assert scheduler.result(scheduler.submit(abs, -3),
                                    timeout=60) == 3
            assert scheduler.pool_replacements == 1

    def test_each_breakage_is_replaced_once(self):
        with JobScheduler(num_workers=2, backend="async") as scheduler:
            for breakage in (1, 2):
                doomed = scheduler.submit(_kill_own_process)
                with pytest.raises(BrokenProcessPool):
                    scheduler.result(doomed, timeout=60)
                answers = [scheduler.result(scheduler.submit(abs, -i),
                                            timeout=60) for i in range(3)]
                assert answers == [0, 1, 2]
                assert scheduler.pool_replacements == breakage

    def test_an_unpicklable_job_fails_alone(self):
        """A job that cannot be sent to a worker is that job's failure:
        the pool is not broken and is not replaced."""
        with JobScheduler(num_workers=1, backend="async") as scheduler:
            bad = scheduler.submit(lambda: 42)
            with pytest.raises(Exception, match="pickle"):
                scheduler.result(bad, timeout=60)
            assert scheduler.poll(bad) is JobState.FAILED
            assert scheduler.result(scheduler.submit(abs, -1),
                                    timeout=60) == 1
            assert scheduler.pool_replacements == 0

    def test_an_unpicklable_result_fails_alone(self):
        with JobScheduler(num_workers=1, backend="async") as scheduler:
            bad = scheduler.submit(_return_a_lock)
            with pytest.raises(Exception, match="pickle"):
                scheduler.result(bad, timeout=60)
            assert scheduler.poll(bad) is JobState.FAILED
            assert scheduler.result(scheduler.submit(abs, -1),
                                    timeout=60) == 1
            assert scheduler.pool_replacements == 0

    def test_a_worker_exception_crosses_back_with_its_type(self):
        with JobScheduler(num_workers=1, backend="async") as scheduler:
            job_id = scheduler.submit(_raise_in_worker, "search exploded")
            with pytest.raises(RuntimeError, match="search exploded"):
                scheduler.result(job_id, timeout=60)
            assert scheduler.poll(job_id) is JobState.FAILED
            assert "search exploded" in scheduler.record(job_id).error

    def test_records_go_straight_from_pending_to_terminal(self):
        """The running transition happens in another process, so an async
        record has no start time and reports no queue or run time."""
        with JobScheduler(num_workers=1, backend="async") as scheduler:
            job_id = scheduler.submit(abs, -5)
            assert scheduler.result(job_id, timeout=60) == 5
            record = scheduler.record(job_id)
        assert record.state is JobState.SUCCEEDED
        assert record.started_at is None
        assert record.finished_at is not None
        assert record.queue_time_s is None and record.run_time_s is None

    def test_batch_results_follow_submission_order(self):
        with JobScheduler(num_workers=2, backend="async") as scheduler:
            ids = [scheduler.submit(abs, -i) for i in range(6)]
            assert [scheduler.result(i, timeout=60) for i in ids] == \
                list(range(6))

    def test_shutdown_stops_the_worker_processes(self):
        with JobScheduler(num_workers=2, backend="async") as scheduler:
            pids = {scheduler.result(scheduler.submit(os.getpid), timeout=60)
                    for _ in range(4)}
        assert pids and os.getpid() not in pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_stats_have_no_pool_section(self, squeezenet):
        with OptimisationService(num_workers=1, backend="async") as service:
            service.optimise(squeezenet, "taso", TASO_FAST, timeout=120)
            stats = service.stats()
        assert "pool" not in stats
        assert stats["pool_replacements"] == 0


class TestBackendNames:
    @pytest.mark.parametrize("name", ["process", "processes", "remote",
                                      "Async", "THREAD", ""])
    def test_only_thread_and_async_are_backends(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            JobScheduler(num_workers=1, backend=name)

    def test_remote_endpoints_are_refused(self):
        for owner in (JobScheduler, OptimisationService):
            with pytest.raises(TypeError, match="remote_endpoints"):
                owner(num_workers=1, backend="async",
                      remote_endpoints=["127.0.0.1:1"])

    def test_importing_the_service_loads_no_asyncio(self):
        code = ("import sys, repro.service\n"
                "print('asyncio' in sys.modules)\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout
        assert out.strip() == "False"


class TestProcessBoundary:
    """What crosses to a worker and back is a pickle: the request and the
    result keep every field the service relies on."""

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
@pytest.mark.parametrize("mode", ["plain", "stream", "cached"])
@pytest.mark.parametrize("name", sorted(list_models()))
def test_async_equals_in_process(async_service, name, mode):
    """``taso`` in a worker process returns what ``execute_request``
    returns in this one: same rules, same exact cost, same graph.  A
    streamed job yields one event per iteration; a result the worker
    produced is served again from the cache unchanged."""
    graph = build_small_model(name)
    local = execute_request(JobRequest(graph=graph, optimiser="taso",
                                       config=TASO_FAST,
                                       model_name=name)).search
    job_id = async_service.submit(graph, "taso", TASO_FAST, model_name=name,
                                  use_cache=mode == "cached",
                                  stream=mode == "stream")
    events = list(async_service.events(job_id, timeout=120))
    result = async_service.result(job_id, timeout=120)
    _assert_same_search(result.search, local)
    assert result.search.model == name
    if mode == "stream":
        assert len(events) == int(result.search.stats["iterations"])
    else:
        assert events == []
    if mode == "cached":
        hit = async_service.optimise(graph, "taso", TASO_FAST,
                                     model_name=name, timeout=120)
        assert hit.cache_hit
        _assert_same_search(hit.search, local)


FAST_CONFIGS = {
    "greedy": {"max_iterations": 6},
    "pet": {"max_iterations": 6},
    "random": {"num_walks": 2, "horizon": 6},
    "taso": TASO_FAST,
    "tensat": {"round_limit": 2, "node_limit": 2000},
    "xrlflow": {"num_episodes": 2, "max_steps": 4, "update_frequency": 2,
                "eval_episodes": 1},
}


@pytest.mark.parametrize("optimiser", sorted(FAST_CONFIGS))
def test_every_optimiser_crosses_the_process_boundary(async_service,
                                                      squeezenet, optimiser):
    local = execute_request(JobRequest(graph=squeezenet, optimiser=optimiser,
                                       config=FAST_CONFIGS[optimiser])).search
    result = async_service.optimise(squeezenet, optimiser,
                                    FAST_CONFIGS[optimiser], use_cache=False,
                                    timeout=300)
    _assert_same_search(result.search, local)
    assert result.search.optimiser == local.optimiser

