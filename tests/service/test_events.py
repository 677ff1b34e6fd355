"""Tests for streaming job progress: optimiser callbacks → service events.

The acceptance bar: a streamed job yields at least one progress event per
optimiser iteration through the service, and the CLI's ``--follow`` prints
them live.
"""

from __future__ import annotations

import pytest

from repro.experiments import build_small_model
from repro.rl.env import GraphRewriteEnv
from repro.search.greedy import TASOOptimizer
from repro.search.random_search import RandomSearchOptimizer
from repro.search.tensat import TensatOptimizer
from repro.service import JobScheduler, OptimisationService, ProgressEvent
from repro.service.cli import main as cli_main
from repro.service.events import EventChannel

TASO_FAST = {"max_iterations": 6}


@pytest.fixture(scope="module")
def squeezenet():
    return build_small_model("squeezenet")


# ---------------------------------------------------------------------------
class TestOptimiserCallbacks:
    def test_taso_emits_one_event_per_iteration(self, squeezenet):
        events = []
        optimiser = TASOOptimizer(max_iterations=6,
                                  progress_callback=lambda *a: events.append(a))
        result = optimiser.optimise(squeezenet)
        assert len(events) == int(result.stats["iterations"])
        iterations = [iteration for iteration, _, _ in events]
        assert iterations == sorted(iterations)
        # The final event's best cost matches the result.
        _, best_cost, best_fp = events[-1]
        assert best_cost <= events[0][1]
        assert len(best_fp) > 0

    def test_callbacks_do_not_change_the_search(self, squeezenet):
        silent = TASOOptimizer(max_iterations=6).optimise(squeezenet)
        noisy = TASOOptimizer(
            max_iterations=6,
            progress_callback=lambda *a: None).optimise(squeezenet)
        assert silent.final_graph.structural_hash() \
            == noisy.final_graph.structural_hash()
        assert silent.final_cost_ms == pytest.approx(noisy.final_cost_ms)

    def test_tensat_emits_one_event_per_round(self, squeezenet):
        events = []
        optimiser = TensatOptimizer(round_limit=3, node_limit=2000,
                                    per_round_cap=30,
                                    progress_callback=lambda *a: events.append(a))
        result = optimiser.optimise(squeezenet)
        assert len(events) == int(result.stats["rounds"])
        # Best cost is monotonically non-increasing across rounds.
        costs = [cost for _, cost, _ in events]
        assert costs == sorted(costs, reverse=True)

    def test_random_search_emits_one_event_per_walk(self, squeezenet):
        events = []
        optimiser = RandomSearchOptimizer(num_walks=4, horizon=5,
                                          progress_callback=lambda *a: events.append(a))
        result = optimiser.optimise(squeezenet)
        assert len(events) == int(result.stats["walks"]) == 4

    def test_env_emits_one_event_per_step(self, squeezenet):
        events = []
        env = GraphRewriteEnv(squeezenet, max_steps=5,
                              progress_callback=lambda *a: events.append(a))
        obs = env.reset()
        steps = 0
        done = False
        while not done and obs.candidates:
            step = env.step(0)
            obs, done = step.observation, step.done
            steps += 1
        assert len(events) == steps
        # Events carry the running best latency and its graph hash.
        _, best_ms, best_fp = events[-1]
        assert best_ms == pytest.approx(env.best_latency_ms)
        assert best_fp == env.best_graph.structural_hash()


# ---------------------------------------------------------------------------
class TestEventChannel:
    def test_channel_drains_each_event_once(self):
        channel = EventChannel()
        sink = channel.sink()
        sink(1, 10.0, "aaa")
        sink(2, 9.0, "bbb")
        events = channel.drain()
        assert [e.iteration for e in events] == [1, 2]
        assert all(isinstance(e, ProgressEvent) for e in events)
        assert channel.drain() == []  # drained exactly once
        sink(3, 8.0, "ccc")
        assert [e.iteration for e in channel.drain()] == [3]
        assert not channel.finished
        channel.finish()
        assert channel.finished


# ---------------------------------------------------------------------------
def _counting_job(n: int, progress=None) -> int:
    """Streaming job body: one event per step."""
    for i in range(1, n + 1):
        if progress is not None:
            progress(i, float(n - i), f"fp{i}")
    return n


class TestSchedulerEvents:
    def test_streamed_job_yields_its_events(self):
        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(_counting_job, 5, stream=True)
            events = list(scheduler.events(job_id, timeout=30))
            assert scheduler.result(job_id, timeout=10) == 5
        assert [e.iteration for e in events] == [1, 2, 3, 4, 5]
        assert events[-1].best_graph_fp == "fp5"

    def test_unstreamed_job_yields_no_events(self):
        with JobScheduler(num_workers=1) as scheduler:
            job_id = scheduler.submit(lambda: 42)
            assert scheduler.result(job_id, timeout=10) == 42
            assert list(scheduler.events(job_id, timeout=10)) == []


# ---------------------------------------------------------------------------
class TestServiceStreaming:
    def test_a_search_streams_one_event_per_iteration(self, squeezenet):
        with OptimisationService(num_workers=2) as service:
            job_id = service.submit(squeezenet, "taso", TASO_FAST,
                                    stream=True)
            events = list(service.events(job_id, timeout=120))
            result = service.result(job_id, timeout=120)
        assert len(events) == int(result.search.stats["iterations"])
        assert events[-1].best_cost <= events[0].best_cost

    def test_cache_hit_streams_nothing(self, squeezenet):
        with OptimisationService(num_workers=2) as service:
            service.optimise(squeezenet, "taso", TASO_FAST)
            job_id = service.submit(squeezenet, "taso", TASO_FAST,
                                    stream=True)
            result = service.result(job_id, timeout=30)
            assert result.cache_hit
            assert list(service.events(job_id, timeout=10)) == []


# ---------------------------------------------------------------------------
class TestCliFollow:
    def test_follow_prints_one_line_per_iteration(self, capsys):
        code = cli_main(["squeezenet", "--optimiser", "taso",
                         "--config", "max_iterations=4", "--follow"])
        out = capsys.readouterr().out
        assert code == 0
        follow_lines = [line for line in out.splitlines()
                        if line.startswith("[follow]")]
        assert len(follow_lines) >= 4  # ≥1 event per optimiser iteration
        assert "squeezenet" in follow_lines[0]
        assert "iter" in follow_lines[0] and "best" in follow_lines[0]
