"""Tests for the X-RLflow public API: config and optimiser."""

import dataclasses

import numpy as np
import pytest

from repro import XRLflow, XRLflowConfig
from repro.core import PAPER_TABLE4
from repro.models import build_model
from repro.rl import XRLflowAgent


def tiny_transformer(**overrides):
    kwargs = dict(num_layers=1, seq_len=16, hidden=32, num_heads=2, vocab_size=64)
    kwargs.update(overrides)
    return build_model("bert", **kwargs)


@pytest.fixture(scope="module")
def tiny_config():
    return XRLflowConfig.fast(num_episodes=3, max_steps=6, max_candidates=12,
                              update_frequency=2, num_gat_layers=1,
                              hidden_dim=16, embedding_dim=16,
                              mlp_head_sizes=(16,), eval_episodes=1)


class TestConfig:
    def test_defaults_match_paper_table4(self):
        cfg = XRLflowConfig()
        assert cfg.learning_rate == PAPER_TABLE4["learning_rate"]
        assert cfg.value_loss_coef == PAPER_TABLE4["value_loss_coef"]
        assert cfg.entropy_loss_coef == PAPER_TABLE4["entropy_loss_coef"]
        assert cfg.edge_attr_norm == PAPER_TABLE4["edge_attr_norm"]
        assert cfg.num_gat_layers == PAPER_TABLE4["num_gat_layers"]
        assert cfg.update_frequency == PAPER_TABLE4["update_frequency"]
        assert cfg.feedback_interval == PAPER_TABLE4["feedback_interval"]
        assert tuple(cfg.mlp_head_sizes) == tuple(PAPER_TABLE4["mlp_head_sizes"])
        assert cfg.batch_size == PAPER_TABLE4["batch_size"]

    def test_the_harness_preset_is_the_services_xrlflow_default(self):
        from repro.experiments import benchmark_config
        from repro.service import create_optimiser
        assert create_optimiser("xrlflow").config == benchmark_config()

    def test_fast_overrides(self):
        cfg = XRLflowConfig.fast(num_episodes=99)
        assert cfg.num_episodes == 99
        cfg.validate()

    def test_validation_rejects_bad_values(self):
        for field, value in [("learning_rate", -1.0), ("clip_epsilon", 2.0),
                             ("feedback_interval", 0), ("num_gat_layers", 0),
                             ("max_candidates", 0), ("num_episodes", 0)]:
            cfg = XRLflowConfig()
            setattr(cfg, field, value)
            with pytest.raises(ValueError):
                cfg.validate()

    def test_to_dict_round_trips_keys(self):
        d = XRLflowConfig().to_dict()
        assert "learning_rate" in d and "max_candidates" in d


class TestXRLflow:
    def test_optimise_returns_valid_result(self, tiny_config):
        graph = tiny_transformer()
        result = XRLflow(tiny_config).optimise(graph, "tiny-bert")
        result.final_graph.validate()
        assert result.optimiser == "xrlflow"
        assert result.final_latency_ms <= result.initial_latency_ms + 1e-9
        assert result.stats["episodes_trained"] == tiny_config.num_episodes

    @pytest.mark.parametrize("model, seed",
                             [("bert", 1), ("vit", 1), ("tt", 2)])
    def test_applied_rules_replay_to_final_graph(self, model, seed,
                                                 monkeypatch):
        """``applied_rules`` must be the rewrites that produced
        ``final_graph``.  In these three runs the best graph turns up
        mid-episode and the episode walks on; the result used to report the
        whole episode's rules (15 for a graph 13 produced).  Every action
        sequence the environments take is recorded per graph reached; those
        recorded for the final graph are replayed in a fresh environment,
        and one of them must apply exactly the reported rules."""
        from repro.experiments import build_small_model
        from repro.rl import GraphRewriteEnv

        actions_to = {}
        original_reset, original_step = (GraphRewriteEnv.reset,
                                         GraphRewriteEnv.step)

        def reset(env):
            env._actions = []
            return original_reset(env)

        def step(env, action):
            before = env.step_count
            result = original_step(env, action)
            if env.step_count > before:
                env._actions.append(action)
                actions_to.setdefault(env.current_graph.structural_hash(),
                                      set()).add(tuple(env._actions))
            return result

        monkeypatch.setattr(GraphRewriteEnv, "reset", reset)
        monkeypatch.setattr(GraphRewriteEnv, "step", step)
        config = XRLflowConfig.fast(
            num_episodes=4, max_steps=18, max_candidates=24,
            update_frequency=2, ppo_epochs=1, eval_episodes=1, seed=seed)
        graph = build_small_model(model)
        result = XRLflow(config).optimise(graph, model)
        monkeypatch.undo()

        final_hash = result.final_graph.structural_hash()
        assert result.applied_rules, "the run is expected to find rewrites"
        replayed = []
        for actions in actions_to[final_hash]:
            env = GraphRewriteEnv(graph, max_candidates=24, max_steps=18)
            env.reset()
            for action in actions:
                env.step(action)
            assert env.current_graph.structural_hash() == final_hash
            replayed.append(env.applied_rules)
        assert result.applied_rules in replayed

    def test_training_history_available(self, tiny_config):
        opt = XRLflow(tiny_config)
        graph = tiny_transformer()
        history = opt.train(graph, num_episodes=2)
        assert len(history.episodes) == 2

    def test_optimise_without_training_requires_agent(self, tiny_config):
        opt = XRLflow(tiny_config)
        graph = tiny_transformer()
        # train=False but no agent yet: optimise() trains automatically.
        result = opt.optimise(graph, train=False)
        assert result.final_graph is not None

    def test_training_without_an_agent_keeps_exploration_best(self,
                                                              tiny_config):
        """``train=False`` with no agent trains anyway, and that training's
        best graph counts exactly as with ``train=True``.  Seed 1 is a run
        whose exploration beats the deterministic policy."""
        config = dataclasses.replace(tiny_config, seed=1)
        trained = XRLflow(config).optimise(tiny_transformer())
        fallback = XRLflow(config).optimise(tiny_transformer(), train=False)
        policy_latency = (trained.initial_latency_ms
                          / trained.stats["policy_speedup"])
        assert trained.final_latency_ms < policy_latency
        assert fallback.final_latency_ms == trained.final_latency_ms
        assert fallback.applied_rules == trained.applied_rules

    def test_inference_only_reuses_trained_agent(self, tiny_config):
        opt = XRLflow(tiny_config)
        opt.train(tiny_transformer(), num_episodes=2)
        result = opt.optimise(tiny_transformer(seq_len=24), "bert-24", train=False)
        assert result.stats["train_time_s"] == 0.0
        assert result.final_latency_ms <= result.initial_latency_ms + 1e-9

    def test_policy_result_is_reported_apart_from_exploration(self,
                                                              tiny_config):
        """``stats`` says what the deterministic policy reached on its own;
        training exploration's best can only add to it, and without
        training the policy's result is the result."""
        opt = XRLflow(tiny_config)
        trained = opt.optimise(tiny_transformer(), "tiny-bert")
        assert 1.0 <= trained.stats["policy_speedup"] <= trained.speedup
        assert trained.stats["policy_rules"] == int(
            trained.stats["policy_rules"]) >= 0
        policy = opt.optimise(tiny_transformer(), "tiny-bert", train=False)
        assert policy.stats["policy_speedup"] == policy.speedup
        assert policy.stats["policy_rules"] == len(policy.applied_rules)

    def test_save_and_load_agent(self, tiny_config, tmp_path):
        opt = XRLflow(tiny_config)
        opt.train(tiny_transformer(), num_episodes=2)
        path = str(tmp_path / "agent.npz")
        opt.save_agent(path)
        other = XRLflow(tiny_config)
        other.load_agent(path)
        for a, b in zip(opt.agent.parameters(), other.agent.parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_failed_load_keeps_the_trained_agent(self, tiny_config,
                                                 tmp_path):
        opt = XRLflow(tiny_config)
        opt.train(tiny_transformer(), num_episodes=2)
        agent = opt.agent
        weights = [p.data.copy() for p in agent.parameters()]
        half = XRLflowAgent(hidden_dim=16, embedding_dim=8, num_gat_layers=1,
                            head_sizes=(16,))
        path = str(tmp_path / "half.npz")
        np.savez(path, **half.state_dict())
        with pytest.raises(ValueError, match="shape mismatch"):
            opt.load_agent(path)
        assert opt.agent is agent
        for p, before in zip(agent.parameters(), weights):
            assert np.array_equal(p.data, before)

    def test_save_without_training_fails(self, tiny_config, tmp_path):
        with pytest.raises(RuntimeError):
            XRLflow(tiny_config).save_agent(str(tmp_path / "agent.npz"))
