"""Tests for the RL substrate: features, environment, GAE, PPO, training."""

import gc
import weakref

import numpy as np
import pytest
from ppo_reference import agent_forward, evaluate_actions

from repro.ir import GraphBuilder
from repro.rl import (GraphRewriteEnv, PPOTrainer, PPOUpdater, RolloutBuffer,
                      Transition, XRLflowAgent, build_meta_graph, compute_gae,
                      encode_graph)
from repro.rl.features import EDGE_FEATURE_DIM, NODE_FEATURE_DIM
from repro.rl.training import run_episode
from repro.rules import default_ruleset


@pytest.fixture
def small_env(conv_graph):
    return GraphRewriteEnv(conv_graph, feedback_interval=2, max_candidates=8,
                           max_steps=6)


@pytest.fixture
def small_agent():
    return XRLflowAgent(hidden_dim=16, embedding_dim=16, num_gat_layers=1,
                        head_sizes=(16,), seed=0)


class TestFeatures:
    def test_encode_graph_dimensions(self, mlp_graph):
        feats = encode_graph(mlp_graph)
        assert feats.node_features.shape == (mlp_graph.num_nodes, NODE_FEATURE_DIM)
        assert feats.edge_features.shape[1] == EDGE_FEATURE_DIM
        assert feats.edge_src.shape == feats.edge_dst.shape
        # One-hot: every node row sums to exactly one.
        np.testing.assert_allclose(feats.node_features.sum(axis=1), 1.0)

    def test_edge_features_normalised(self, mlp_graph):
        feats = encode_graph(mlp_graph)
        assert np.all(feats.edge_features >= 0.0)
        assert np.all(feats.edge_features <= 1.0)

    def test_meta_graph_offsets(self, mlp_graph, conv_graph):
        batch = build_meta_graph([mlp_graph, conv_graph])
        assert batch.num_graphs == 2
        assert batch.num_nodes == mlp_graph.num_nodes + conv_graph.num_nodes
        assert batch.graph_ids.max() == 1
        # Edges never cross graph boundaries.
        assert (batch.graph_ids[batch.edge_src] == batch.graph_ids[batch.edge_dst]).all()


class TestEnvironment:
    def test_reset_returns_candidates_and_mask(self, small_env):
        obs = small_env.reset()
        assert obs.action_mask[-1]  # No-Op always valid
        assert obs.action_mask[: len(obs.candidates)].all()
        assert not obs.action_mask[len(obs.candidates):-1].any()
        assert len(obs.graphs) == len(obs.candidates) + 1

    def test_step_before_reset_raises(self, small_env):
        with pytest.raises(RuntimeError, match="before reset"):
            small_env.step(0)

    def test_step_applies_candidate(self, small_env):
        obs = small_env.reset()
        before = small_env.current_graph.structural_hash()
        step = small_env.step(0)
        assert small_env.current_graph.structural_hash() != before
        assert small_env.applied_rules
        assert isinstance(step.reward, float)

    def test_noop_terminates(self, small_env):
        obs = small_env.reset()
        step = small_env.step(obs.noop_index)
        assert step.done

    def test_invalid_action_treated_as_noop(self, small_env):
        obs = small_env.reset()
        step = small_env.step(len(obs.candidates))  # first padded slot
        assert step.done

    @pytest.mark.parametrize("offset", [-1, None])
    def test_negative_action_treated_as_noop(self, small_env, offset):
        """``-1`` indexes the No-Op's mask slot and ``-(len + 1)`` the last
        candidate's from the end: neither may apply a candidate."""
        obs = small_env.reset()
        assert obs.candidates
        before = small_env.current_graph
        step = small_env.step(-(len(obs.candidates) + 1)
                              if offset is None else offset)
        assert step.done
        assert small_env.current_graph is before
        assert small_env.applied_rules == []

    def test_feedback_interval_reward(self, conv_graph):
        env = GraphRewriteEnv(conv_graph, feedback_interval=2, step_reward=0.1,
                              max_candidates=8, max_steps=6)
        env.reset()
        first = env.step(0)
        assert first.reward == pytest.approx(0.1)
        second = env.step(0)
        # Measurement step: reward is the latency improvement (non-constant).
        assert second.reward != pytest.approx(0.1)

    def test_best_graph_tracked(self, small_env):
        small_env.reset()
        done = False
        while not done:
            result = small_env.step(0)
            done = result.done
        assert small_env.best_latency_ms <= small_env.initial_latency_ms + 1e-9

    def test_best_rules_are_the_prefix_that_produced_best_graph(self):
        """The episode walks on past its best graph; ``best_rules`` must
        stop where ``best_graph`` was reached, not at the episode's end."""
        from repro.experiments import build_small_model
        graph = build_small_model("squeezenet")
        kwargs = dict(feedback_interval=1, max_candidates=8, max_steps=4)
        scout = GraphRewriteEnv(graph, **kwargs)
        scout.reset()
        visited = []
        for _ in range(4):
            scout.step(0)
            visited.append(scout.current_graph.structural_hash())
        assert len(set(visited)) == 4

        class ScriptedLatency:
            """Best after two rewrites, worse again afterwards."""
            table = dict(zip(visited, (9.0, 5.0, 7.0, 8.0)))

            def latency_ms(self, g):
                return self.table.get(g.structural_hash(), 10.0)

        env = GraphRewriteEnv(graph, e2e=ScriptedLatency(), **kwargs)
        env.reset()
        assert env.best_rules == []
        for _ in range(4):
            env.step(0)
        assert env.applied_rules == scout.applied_rules
        assert len(env.applied_rules) == 4
        assert env.best_graph.structural_hash() == visited[1]
        assert env.best_rules == env.applied_rules[:2]
        # A later, worse episode leaves the record alone.
        env.reset()
        env.step(0)
        assert env.best_rules == scout.applied_rules[:2]

    def test_episode_terminates_within_max_steps(self, small_env):
        small_env.reset()
        steps = 0
        done = False
        while not done and steps < 50:
            done = small_env.step(0).done
            steps += 1
        assert done


class TestCandidateSelection:
    @pytest.fixture
    def parallel_conv_graph(self):
        """Three parallel conv+relu branches: two rule families, many matches."""
        b = GraphBuilder("parallel")
        x = b.input((1, 4, 8, 8), name="image")
        outs = [b.relu(b.conv2d(x, 4, kernel=3)) for _ in range(3)]
        return b.build([b.concat(outs, axis=1)])

    def test_round_robin_when_over_capacity(self, parallel_conv_graph):
        from repro.rules import default_ruleset
        all_cands = default_ruleset().all_candidates(parallel_conv_graph)
        by_rule = {}
        for c in all_cands:
            by_rule[c.rule_name] = by_rule.get(c.rule_name, 0) + 1
        assert by_rule == {"fuse-conv-relu": 3, "merge-convs": 3}

        env = GraphRewriteEnv(parallel_conv_graph, max_candidates=4,
                              max_steps=4)
        obs = env.reset()
        assert len(obs.candidates) == 4
        shown = {}
        for c in obs.candidates:
            shown[c.rule_name] = shown.get(c.rule_name, 0) + 1
        # The quota is split across rules instead of the first rule's
        # matches monopolising the prefix.
        assert shown == {"fuse-conv-relu": 2, "merge-convs": 2}

    def test_no_truncation_preserves_full_enumeration(self, parallel_conv_graph):
        from repro.rules import default_ruleset
        env = GraphRewriteEnv(parallel_conv_graph, max_candidates=16,
                              max_steps=4)
        obs = env.reset()
        eager = default_ruleset().all_candidates(parallel_conv_graph)
        assert [c.match for c in obs.candidates] == [c.match for c in eager]

    def test_only_selected_candidates_are_materialised(self, parallel_conv_graph):
        env = GraphRewriteEnv(parallel_conv_graph, max_candidates=4,
                              max_steps=4)
        obs = env.reset()
        assert all(c.is_materialised for c in obs.candidates)
        assert len(obs.candidates) == 4


class TestGAE:
    def test_single_step_episode(self):
        adv, ret = compute_gae(np.array([1.0]), np.array([0.5]), np.array([True]),
                               gamma=0.9, lam=0.8)
        assert adv[0] == pytest.approx(0.5)
        assert ret[0] == pytest.approx(1.0)

    def test_no_bootstrapping_across_done(self):
        rewards = np.array([1.0, 1.0])
        values = np.array([0.0, 100.0])
        dones = np.array([True, True])
        adv, _ = compute_gae(rewards, values, dones, gamma=1.0, lam=1.0)
        assert adv[0] == pytest.approx(1.0)  # the 100 value never leaks back

    def test_discounting(self):
        rewards = np.array([0.0, 0.0, 1.0])
        values = np.zeros(3)
        dones = np.array([False, False, True])
        adv, _ = compute_gae(rewards, values, dones, gamma=0.5, lam=1.0)
        assert adv[0] == pytest.approx(0.25)

    def test_buffer_normalises_advantages(self, small_env, small_agent):
        buffer = RolloutBuffer()
        obs = small_env.reset()
        for _ in range(3):
            decision = small_agent.act(obs)
            step = small_env.step(decision.action)
            buffer.add(Transition(obs, decision.action, decision.log_prob,
                                  decision.value, step.reward, step.done))
            obs = step.observation
            if step.done:
                obs = small_env.reset()
        adv, ret = buffer.finalise()
        assert len(adv) == len(buffer)
        assert abs(float(adv.mean())) < 1e-6


class TestAgent:
    def test_action_probabilities_respect_mask(self, small_env, small_agent):
        obs = small_env.reset()
        decision = small_agent.act(obs)
        invalid = ~obs.action_mask
        assert decision.probabilities[invalid].sum() < 1e-6
        assert decision.probabilities.sum() == pytest.approx(1.0)
        assert obs.action_mask[decision.action]

    def test_deterministic_action_is_argmax(self, small_env, small_agent):
        obs = small_env.reset()
        decision = small_agent.act(obs, deterministic=True)
        assert decision.action == int(np.argmax(decision.probabilities))

    def test_evaluate_actions_differentiable(self, small_env, small_agent):
        obs = small_env.reset()
        log_prob, value, entropy = evaluate_actions(small_agent, obs, 0)
        (log_prob + value + entropy).sum().backward()
        assert any(p.grad is not None for p in small_agent.parameters())

    def test_state_dict_round_trip(self, small_agent):
        clone = XRLflowAgent(hidden_dim=16, embedding_dim=16, num_gat_layers=1,
                             head_sizes=(16,), seed=99)
        clone.load_state_dict(small_agent.state_dict())
        for a, b in zip(small_agent.parameters(), clone.parameters()):
            np.testing.assert_allclose(a.data, b.data)


class TestDecisionMemo:
    """``act`` memoises its decision on the observation, for one agent and
    one version of its weights; the encoder's row counter says whether a
    call encoded."""

    @staticmethod
    def encodes(agent, obs):
        before = agent.encoder.rows_encoded
        decision = agent.act(obs, deterministic=True)
        return agent.encoder.rows_encoded > before, decision

    def test_acting_twice_encodes_once(self, small_env, small_agent):
        obs = small_env.reset()
        encoded, first = self.encodes(small_agent, obs)
        assert encoded
        encoded, second = self.encodes(small_agent, obs)
        assert not encoded
        assert np.array_equal(first.probabilities, second.probabilities)
        assert first.value == second.value

    def test_a_weight_update_retires_the_decision(self, small_env,
                                                  small_agent):
        buffer = RolloutBuffer()
        run_episode(small_env, small_agent, False, buffer=buffer)
        run_episode(small_env, small_agent, False, buffer=buffer)
        obs = small_env.reset()
        _, before = self.encodes(small_agent, obs)
        PPOUpdater(small_agent, epochs=1, batch_size=4).update(buffer)
        encoded, after = self.encodes(small_agent, obs)
        assert encoded
        assert not np.array_equal(before.probabilities, after.probabilities)
        assert not self.encodes(small_agent, obs)[0]

    def test_loading_weights_retires_the_decision(self, small_env,
                                                  small_agent):
        obs = small_env.reset()
        self.encodes(small_agent, obs)
        small_agent.load_state_dict(small_agent.state_dict())
        assert self.encodes(small_agent, obs)[0]

    def test_a_second_agent_gets_its_own_decision(self, small_env,
                                                  small_agent):
        other = XRLflowAgent(hidden_dim=16, embedding_dim=16,
                             num_gat_layers=1, head_sizes=(16,), seed=7)
        obs = small_env.reset()
        _, mine = self.encodes(small_agent, obs)
        encoded, theirs = self.encodes(other, obs)
        assert encoded
        assert not np.array_equal(mine.probabilities, theirs.probabilities)
        logits, _ = agent_forward(other, obs)
        assert int(np.argmax(logits.numpy())) == theirs.action
        encoded, again = self.encodes(small_agent, obs)
        assert encoded
        assert np.array_equal(mine.probabilities, again.probabilities)

    def test_the_agent_does_not_pin_observations(self, conv_graph,
                                                 small_agent):
        env = GraphRewriteEnv(conv_graph, max_candidates=8, max_steps=6)
        obs = env.reset()
        small_agent.act(obs)
        alive = weakref.ref(obs)
        del obs, env
        gc.collect()
        assert alive() is None


class TestTraining:
    def test_ppo_update_changes_parameters(self, small_env, small_agent):
        updater = PPOUpdater(small_agent, epochs=1, batch_size=4)
        trainer = PPOTrainer(small_env, small_agent, updater, update_frequency=2)
        before = [p.data.copy() for p in small_agent.parameters()]
        trainer.train(num_episodes=2)
        after = [p.data for p in small_agent.parameters()]
        assert any(not np.allclose(a, b) for a, b in zip(before, after))

    def test_training_history_records_episodes(self, small_env, small_agent):
        updater = PPOUpdater(small_agent, epochs=1, batch_size=4)
        trainer = PPOTrainer(small_env, small_agent, updater, update_frequency=2)
        history = trainer.train(num_episodes=2)
        assert len(history.episodes) == 2
        assert history.best_episode is not None
        assert history.mean_reward() != 0.0 or history.episodes[0].steps >= 0
