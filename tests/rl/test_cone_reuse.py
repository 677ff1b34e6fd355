"""The environment hands each candidate's rewrite cone down from step to
step, and materialises a candidate only when no cone was handed down or the
agent picks it.

Pinned against the eager oracle (``tests/oracles/eager_env.py``: every
shown candidate materialised and batched from its own graph): the same
training trajectories, the same delta batches field by field, and the
materialisations counted.
"""

import numpy as np
import pytest
from eager_env import EagerEnv, materialised_delta_batch

import repro.core.xrlflow
from repro.core import XRLflow, XRLflowConfig
from repro.experiments import build_small_model
from repro.ir.graph import Graph
from repro.rl import GraphRewriteEnv, Observation
from repro.rl.features import RewriteCone
from repro.rules.base import Candidate
from repro.rules.incremental import IncrementalCandidateEngine

#: ``Graph.copy`` calls per observation built from scratch over the
#: ``rl_train`` training run on reduced bert (every applied rewrite copies
#: its parent once): 11.4 when every shown candidate is materialised, 3.7
#: when cones are handed down.
COPIES_PER_FRESH_OBSERVATION = 6


def rl_train_optimiser():
    """X-RLflow at the end-to-end benchmark's ``rl_train`` configuration."""
    return XRLflow(XRLflowConfig.fast(
        num_episodes=6, max_steps=18, max_candidates=24, update_frequency=3,
        ppo_epochs=2, eval_episodes=2, seed=0))


def trajectory(optimiser, result):
    """What a training run and its evaluation did, bit for bit."""
    history = optimiser.history
    return {
        "episodes": [(float(e.total_reward).hex(), list(e.applied_rules))
                     for e in history.episodes],
        "update_stats": [dict(update) for update in history.update_stats],
        "applied_rules": list(result.applied_rules),
        "final_latency_ms": result.final_latency_ms,
        "stats": {k: v for k, v in result.stats.items()
                  if not k.endswith("_s")},
    }


@pytest.mark.parametrize("name", ["bert", "squeezenet"])
def test_training_retraces_the_eager_oracle(name, monkeypatch):
    optimiser = rl_train_optimiser()
    lazy = trajectory(optimiser, optimiser.optimise(build_small_model(name)))
    monkeypatch.setattr(repro.core.xrlflow, "GraphRewriteEnv", EagerEnv)
    optimiser = rl_train_optimiser()
    eager = trajectory(optimiser, optimiser.optimise(build_small_model(name)))
    assert lazy == eager
    assert len(lazy["episodes"]) == 6 and lazy["update_stats"]


def assert_batches_equal(fast, ref):
    for field in ("node_features", "edge_features", "edge_src", "edge_dst",
                  "graph_ids", "global_features", "pool_rows", "pool_signs",
                  "parents", "graph_sizes"):
        a, b = getattr(fast, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field
    assert (fast.num_graphs, fast.num_cones) == (ref.num_graphs,
                                                 ref.num_cones)


@pytest.mark.parametrize("name", ["bert", "squeezenet"])
def test_every_delta_batch_equals_the_materialise_everything_oracle(
        name, monkeypatch):
    """Over whole training episodes: most candidates are batched from a
    handed-down cone, and every observation's batch is the one applying
    every shown match again gives."""
    batched = {}
    delta_batch = Observation.delta_batch

    def recording(observation, num_layers):
        batched[id(observation)] = (observation, num_layers)
        return delta_batch(observation, num_layers)

    monkeypatch.setattr(Observation, "delta_batch", recording)
    optimiser = rl_train_optimiser()
    optimiser.train(build_small_model(name))
    ruleset = optimiser._training_env.ruleset
    handed = shown = 0
    for observation, num_layers in batched.values():
        shown += len(observation.candidates)
        handed += sum(not c.is_materialised for c in observation.candidates)
        assert_batches_equal(
            observation.delta_batch(num_layers),
            materialised_delta_batch(observation, ruleset, num_layers))
    assert len(batched) > 20
    assert handed > shown / 2


def test_reading_graphs_materialises_every_candidate():
    env = GraphRewriteEnv(build_small_model("squeezenet"), max_candidates=8)
    obs = env.reset()
    obs.delta_batch(2)
    obs = env.step(0).observation
    lazy = [c for c in obs.candidates if not c.is_materialised]
    assert lazy and all(isinstance(c.outcome, RewriteCone) for c in lazy)
    sizes = obs.graph_sizes()
    assert [len(graph.nodes) for graph in obs.graphs] == sizes
    assert all(c.is_materialised for c in obs.candidates)
    assert obs.graphs[0] is obs.current and obs.num_graphs == len(sizes)


class TestCountGuard:
    """A fixed reduced-bert training run at the ``rl_train``
    configuration, counted."""

    @pytest.fixture(scope="class")
    def counts(self):
        handed, applied, chosen = [], {}, []
        copies = [0]
        patch = pytest.MonkeyPatch()
        lazy_candidates = IncrementalCandidateEngine.lazy_candidates
        materialise = Candidate.materialise
        step = GraphRewriteEnv.step
        copy = Graph.copy

        def recording_lazy(engine, graph):
            out = lazy_candidates(engine, graph)
            handed.extend(c for c in out if isinstance(c.outcome, RewriteCone))
            return out

        def recording_materialise(candidate):
            if candidate._graph is None and candidate.error is None:
                key = id(candidate)
                applied[key] = (candidate, applied.get(key, (None, 0))[1] + 1)
            return materialise(candidate)

        def recording_step(env, action):
            observation = env._last_observation
            if 0 <= action < len(observation.candidates) \
                    and observation.action_mask[action]:
                chosen.append(observation.candidates[action])
            return step(env, action)

        def counting_copy(graph):
            copies[0] += 1
            return copy(graph)

        patch.setattr(IncrementalCandidateEngine, "lazy_candidates",
                      recording_lazy)
        patch.setattr(Candidate, "materialise", recording_materialise)
        patch.setattr(GraphRewriteEnv, "step", recording_step)
        patch.setattr(Graph, "copy", counting_copy)
        try:
            optimiser = rl_train_optimiser()
            optimiser.train(build_small_model("bert"))
        finally:
            patch.undo()
        stats = optimiser._training_env.encode_cache_stats()
        return {"handed": handed, "applied": applied, "chosen": chosen,
                "copies": copies[0], "stats": stats}

    def test_a_handed_down_cone_is_materialised_only_if_chosen(self, counts):
        chosen = {id(c) for c in counts["chosen"]}
        assert len(counts["handed"]) > 100
        for candidate in counts["handed"]:
            if id(candidate) not in chosen:
                assert id(candidate) not in counts["applied"]
        assert any(id(c) in chosen for c in counts["handed"])

    def test_the_chosen_candidate_is_materialised_exactly_once(self, counts):
        assert counts["chosen"]
        for candidate in counts["chosen"]:
            assert counts["applied"][id(candidate)][1] == 1

    def test_copies_per_fresh_observation_stay_bounded(self, counts):
        fresh = counts["stats"]["observation_misses"]
        assert fresh > 20
        assert counts["copies"] <= COPIES_PER_FRESH_OBSERVATION * fresh

    def test_the_engine_reports_handed_down_cones(self, counts):
        stats = counts["stats"]
        assert stats["outcomes_inherited"] >= len(counts["handed"]) > 0
        assert stats["outcomes_dropped"] > 0
        assert stats["match_incremental_updates"] > 0
        assert stats["match_full_rebuilds"] >= 1
        for key in ("hits", "misses", "hit_rate", "observation_hits",
                    "observation_misses", "observation_hit_rate"):
            assert key in stats
