"""Tests for search progress: one callable, handed to the call that runs
the search.

Every optimiser's ``optimise(graph, model_name, progress)`` calls
``progress(iteration, best_cost, best_graph_fp)`` once per iteration; the
service hands a submission's ``progress`` to the search that submission
started and to nothing else, and the CLI's ``--follow`` prints from one.
"""

from __future__ import annotations

import logging
import re
import threading
import time

import pytest

from repro import XRLflow, XRLflowConfig
from repro.experiments import build_small_model
from repro.rl.env import GraphRewriteEnv
from repro.search.greedy import TASOOptimizer
from repro.search.random_search import RandomSearchOptimizer
from repro.search.result import SearchResult
from repro.search.tensat import TensatOptimizer
from repro.service import (OptimisationService, list_optimisers,
                           register_optimiser)
from repro.service import registry
from repro.service import scheduler as scheduler_module
from repro.service.cli import main as cli_main

TASO_FAST = {"max_iterations": 6}


@pytest.fixture(scope="module")
def squeezenet():
    return build_small_model("squeezenet")


# ---------------------------------------------------------------------------
class TestOptimiserProgress:
    def test_taso_reports_once_per_iteration(self, squeezenet):
        calls = []
        result = TASOOptimizer(max_iterations=6).optimise(
            squeezenet, progress=lambda *a: calls.append(a))
        assert len(calls) == int(result.stats["iterations"])
        iterations = [iteration for iteration, _, _ in calls]
        assert iterations == sorted(iterations)
        # The final call's best cost matches the result.
        _, best_cost, best_fp = calls[-1]
        assert best_cost <= calls[0][1]
        assert len(best_fp) > 0

    def test_progress_does_not_change_the_search(self, squeezenet):
        silent = TASOOptimizer(max_iterations=6).optimise(squeezenet)
        noisy = TASOOptimizer(max_iterations=6).optimise(
            squeezenet, progress=lambda *a: None)
        assert silent.final_graph.structural_hash() \
            == noisy.final_graph.structural_hash()
        assert silent.final_cost_ms == pytest.approx(noisy.final_cost_ms)

    def test_tensat_reports_once_per_round(self, squeezenet):
        calls = []
        optimiser = TensatOptimizer(round_limit=3, node_limit=2000,
                                    per_round_cap=30)
        result = optimiser.optimise(squeezenet,
                                    progress=lambda *a: calls.append(a))
        assert len(calls) == int(result.stats["rounds"])
        # Best cost is monotonically non-increasing across rounds.
        costs = [cost for _, cost, _ in calls]
        assert costs == sorted(costs, reverse=True)

    def test_random_search_reports_once_per_walk(self, squeezenet):
        calls = []
        optimiser = RandomSearchOptimizer(num_walks=4, horizon=5)
        result = optimiser.optimise(squeezenet,
                                    progress=lambda *a: calls.append(a))
        assert len(calls) == int(result.stats["walks"]) == 4

    def test_env_reports_once_per_step(self, squeezenet):
        calls = []
        env = GraphRewriteEnv(squeezenet, max_steps=5,
                              progress=lambda *a: calls.append(a))
        obs = env.reset()
        steps = 0
        done = False
        while not done and obs.candidates:
            step = env.step(0)
            obs, done = step.observation, step.done
            steps += 1
        assert len(calls) == steps
        # Calls carry the running best latency and its graph hash.
        _, best_ms, best_fp = calls[-1]
        assert best_ms == pytest.approx(env.best_latency_ms)
        assert best_fp == env.best_graph.structural_hash()

    def test_xrlflow_numbers_each_call_from_one(self, conv_graph):
        """Training's and evaluation's environment steps are one count per
        ``optimise`` call: a second call on the same instance starts at 1
        again."""
        optimiser = XRLflow(XRLflowConfig.fast(
            num_episodes=2, max_steps=3, max_candidates=8,
            update_frequency=2, eval_episodes=1))
        runs = []
        for train in (True, False):
            calls = []
            optimiser.optimise(conv_graph, progress=lambda *a: calls.append(a),
                               train=train)
            runs.append([iteration for iteration, _, _ in calls])
        for iterations in runs:
            assert iterations == list(range(1, len(iterations) + 1))
        assert len(runs[0]) > len(runs[1]) > 0  # training reported too


# ---------------------------------------------------------------------------
class _GatedOptimizer:
    """Optimiser that reports once, waits for ``gate``, then reports again
    and returns its input."""

    name = "gated-test"
    started = threading.Event()
    gate = threading.Event()

    def optimise(self, graph, model_name: str = "",
                 progress=None) -> SearchResult:
        if progress is not None:
            progress(1, 2.0, "fp-1")
        type(self).started.set()
        assert type(self).gate.wait(30)
        if progress is not None:
            progress(2, 1.0, "fp-2")
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
    register_optimiser("gated-test", _GatedOptimizer, {}, "progress probe")
    try:
        yield _GatedOptimizer
    finally:
        _GatedOptimizer.gate.set()
        del registry._REGISTRY["gated-test"]


class TestServiceProgress:
    def test_a_search_reports_once_per_iteration(self, squeezenet):
        calls = []
        with OptimisationService(num_workers=2) as service:
            job_id = service.submit(squeezenet, "taso", TASO_FAST,
                                    progress=lambda *a: calls.append(a))
            result = service.result(job_id, timeout=120)
        assert len(calls) == int(result.search.stats["iterations"])
        assert calls[-1][1] <= calls[0][1]

    def test_a_cache_hit_never_calls_progress(self, squeezenet):
        calls = []
        with OptimisationService(num_workers=2) as service:
            service.optimise(squeezenet, "taso", TASO_FAST)
            job_id = service.submit(squeezenet, "taso", TASO_FAST,
                                    progress=lambda *a: calls.append(a))
            assert service.result(job_id, timeout=30).cache_hit
        assert calls == []

    def test_a_coalesced_follower_never_calls_progress(self, squeezenet,
                                                       gated):
        primary_calls, follower_calls = [], []
        with OptimisationService(num_workers=2) as service:
            primary = service.submit(
                squeezenet, "gated-test",
                progress=lambda *a: primary_calls.append(a))
            assert gated.started.wait(10)
            follower = service.submit(
                squeezenet, "gated-test",
                progress=lambda *a: follower_calls.append(a))
            gated.gate.set()
            assert not service.result(primary, timeout=30).coalesced
            assert service.result(follower, timeout=30).coalesced
        assert [call[0] for call in primary_calls] == [1, 2]
        assert follower_calls == []

    def test_a_job_cancelled_in_the_queue_never_calls_progress(
            self, squeezenet, gated, monkeypatch):
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 1)
        calls = []
        with OptimisationService(num_workers=2) as service:
            blocker = service.submit(squeezenet, "gated-test")
            assert gated.started.wait(10)  # it holds the only thread
            waiter = service.submit(squeezenet, "taso", TASO_FAST,
                                    progress=lambda *a: calls.append(a))
            time.sleep(0.2)  # it waits in the pool's queue
            assert service.scheduler.cancel(waiter) is True
            gated.gate.set()
            service.result(blocker, timeout=30)
            assert service.scheduler.wait_all(timeout=30)
        assert calls == []

    def test_a_raising_progress_leaves_the_search_alone(
            self, squeezenet, gated, caplog):
        calls = []

        def raising(*call):
            calls.append(call)
            raise RuntimeError("progress consumer broke")

        with OptimisationService(num_workers=2) as service:
            with caplog.at_level(logging.WARNING, logger="repro.service.api"):
                primary = service.submit(squeezenet, "gated-test",
                                         progress=raising)
                assert gated.started.wait(10)
                follower = service.submit(squeezenet, "gated-test")
                gated.gate.set()
                result = service.result(primary, timeout=30)
                followed = service.result(follower, timeout=30)
            hit = service.optimise(squeezenet, "gated-test")
            stats = service.stats()
        assert len(calls) == 1  # not called again after it raised
        for served in (result, followed, hit):
            assert served.search.final_graph.structural_hash() \
                == squeezenet.structural_hash()
            assert served.search.final_cost_ms == 1.0
        assert followed.coalesced and hit.cache_hit
        assert stats["jobs"]["progress_failures"] == 1
        assert stats["jobs"]["failed"] == 0
        warnings = [r for r in caplog.records
                    if "progress" in r.getMessage()]
        assert len(warnings) == 1 and warnings[0].exc_info is not None

    @pytest.mark.parametrize("optimiser", ["greedy", "pet", "random", "taso",
                                           "tensat", "xrlflow"])
    def test_progress_is_not_a_config_key(self, squeezenet, optimiser):
        assert optimiser in list_optimisers()
        with OptimisationService(num_workers=1) as service:
            with pytest.raises(ValueError, match="progress_callback"):
                service.submit(squeezenet, optimiser,
                               {"progress_callback": lambda *a: None})
            assert service.stats()["jobs"]["pending"] == 0


# ---------------------------------------------------------------------------
class TestCliFollow:
    def test_follow_prints_one_line_per_iteration(self, capsys):
        code = cli_main(["squeezenet", "--optimiser", "taso",
                         "--config", "max_iterations=4", "--follow"])
        out = capsys.readouterr().out
        assert code == 0
        follow_lines = [line for line in out.splitlines()
                        if line.startswith("[follow]")]
        assert len(follow_lines) == 4  # one per optimiser iteration
        assert "squeezenet" in follow_lines[0]
        assert "iter" in follow_lines[0] and "best" in follow_lines[0]

    def test_concurrent_searches_write_whole_lines(self, capsys):
        """Two searches on two pool threads: every line is whole, and each
        model's follow lines count its iterations 1..4 in order."""
        code = cli_main(["squeezenet", "bert", "--optimiser", "taso",
                         "--config", "max_iterations=4", "--workers", "2",
                         "--follow"])
        out = capsys.readouterr().out
        assert code == 0
        follow = re.compile(r"\[follow\] (\S+) +iter +(\d+)  "
                            r"best +-?\d+\.\d{4}  graph \w{1,12}")
        iterations = {"squeezenet": [], "bert": []}
        for line in out.splitlines():
            if line.startswith("[follow]"):
                match = follow.fullmatch(line)
                assert match, line
                iterations[match.group(1)].append(int(match.group(2)))
            else:
                assert "[follow]" not in line, line
        assert iterations == {"squeezenet": [1, 2, 3, 4],
                              "bert": [1, 2, 3, 4]}
