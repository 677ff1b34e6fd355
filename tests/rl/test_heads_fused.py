"""The fused policy/value heads and PPO loss against the tape they replaced.

``XRLflowAgent._policy`` and ``ppo_loss`` are one autograd op each; their
closures reproduce the composed ops' arithmetic
(``tests/oracles/heads_tape_reference.py``).  Every case compares the
logits, values, log-probs, entropies, the loss, every parameter gradient
(heads and encoder) and the embeddings' gradient with ``np.array_equal`` at
float32; each fused op is also held to central differences on the float64
leg, and one PPO chunk's tape is counted.
"""

import numpy as np
import pytest
import tape
from float64_leg import leaf, upcast
from heads_tape_reference import (TapePPOUpdater, tape_action_terms,
                                  tape_chunk, tape_loss, tape_policy)
from ppo_reference import agent_forward

from repro.experiments import build_small_model
from repro.nn import GraphEmbeddingNetwork, Tensor
from repro.rl import (GraphRewriteEnv, Observation, PPOUpdater, RolloutBuffer,
                      Transition, XRLflowAgent, build_meta_graph)
from repro.rl.ppo import ppo_loss
from repro.rules import default_ruleset

LAYERS = 2
CLIP, VALUE_COEF, ENTROPY_COEF = 0.2, 0.5, 0.01


def agent_of(seed=0, **kwargs):
    return XRLflowAgent(hidden_dim=16, embedding_dim=16,
                        num_gat_layers=LAYERS, head_sizes=(16, 8), seed=seed,
                        **kwargs)


def rollout_observations(name, steps=6, max_candidates=30):
    """A short rollout's observations: at ``max_candidates=30`` bert's
    shrink step by step, so each has its own meta-graph size."""
    env = GraphRewriteEnv(build_small_model(name),
                          max_candidates=max_candidates, max_steps=steps)
    observations = [env.reset()]
    for step in range(steps):
        obs = observations[-1]
        if not obs.candidates:
            break
        result = env.step(step % len(obs.candidates))
        if result.done:
            break
        observations.append(result.observation)
    return observations


def observation_of(graphs, num_actions):
    mask = np.zeros(num_actions, dtype=bool)
    mask[:len(graphs) - 1] = True
    mask[-1] = True
    return Observation(graphs=list(graphs), action_mask=mask)


def transitions(observations, seed=0):
    """A valid action, an old log-prob, an advantage and a return for each
    observation."""
    rng = np.random.default_rng(seed)
    actions = []
    for obs in observations:
        valid = np.flatnonzero(obs.action_mask)
        actions.append(int(rng.choice(valid)))
    size = len(observations)
    return (actions, rng.normal(size=size) - 2.0, rng.normal(size=size),
            rng.normal(size=size))


def run_chunk(agent, observations, fused, monkeypatch, seed=0):
    """Everything one chunk computes: outputs, then every parameter's and
    the embeddings' gradient."""
    actions, old_log_probs, advantages, returns = transitions(observations,
                                                              seed)
    scale = 1.0 / len(observations)
    encoded = []
    forward = GraphEmbeddingNetwork.forward
    with monkeypatch.context() as patch:
        patch.setattr(GraphEmbeddingNetwork, "forward",
                      lambda self, batch: encoded.append(
                          forward(self, batch)) or encoded[-1])
        agent.zero_grad()
        if fused:
            heads, slots = agent.policy_batch(observations)
            loss = ppo_loss(heads, slots, actions, old_log_probs, advantages,
                            returns, CLIP, VALUE_COEF, ENTROPY_COEF, scale)
            loss.total.backward()
            outputs = [heads.data[:, :-1], heads.data[:, -1], loss.log_probs,
                       loss.values, loss.entropies, loss.total.data,
                       np.float32([loss.policy_sum, loss.value_sum,
                                   loss.entropy_sum])]
        else:
            _, logits, values, slots = tape_chunk(agent, observations,
                                                  actions)
            chosen, values_b, entropies = tape_action_terms(
                logits, values, slots, actions)
            total, *sums = tape_loss(
                chosen, values_b, entropies, old_log_probs, advantages,
                returns, CLIP, VALUE_COEF, ENTROPY_COEF, scale)
            total.backward()
            outputs = [logits.data, values.data, chosen.data, values_b.data,
                       entropies.data, total.data,
                       np.float32([float(s.data) for s in sums])]
    (embeddings,) = encoded
    grads = [p.grad.copy() for p in agent.parameters()] + [embeddings.grad]
    agent.zero_grad()
    return outputs, grads


def assert_chunk_bitwise(agent, observations, monkeypatch, seed=0):
    fused, fused_grads = run_chunk(agent, observations, True, monkeypatch,
                                   seed)
    tape, tape_grads = run_chunk(agent, observations, False, monkeypatch,
                                 seed)
    for got, want in zip(fused, tape):
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)
    assert len(fused_grads) == len(agent.parameters()) + 1
    for got, want in zip(fused_grads, tape_grads):
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


def size_groups(observations):
    return len({len(obs.graphs) for obs in observations})


class TestAgainstTheTape:
    def test_one_rollout_observation(self, monkeypatch):
        obs = rollout_observations("squeezenet", steps=2)[-1]
        assert_chunk_bitwise(agent_of(), [obs], monkeypatch)

    @pytest.mark.parametrize("names", [("bert", "vit"), ("tt", "bert")])
    def test_chunk_of_several_sizes_with_duplicates(self, names,
                                                    monkeypatch):
        """Two models' rollouts: bert's and vit's observations come in the
        same sizes, so a size group stacks several distinct meta-graphs."""
        first, second = (rollout_observations(name) for name in names)
        chunk = first + second[::-1] + first[::2] + second[:1]
        assert size_groups(chunk) >= 3
        assert_chunk_bitwise(agent_of(seed=1), chunk, monkeypatch, seed=1)

    def test_zero_candidate_observation(self, monkeypatch):
        observations = rollout_observations("bert")
        num_actions = observations[0].num_actions
        lone = observation_of([build_small_model("squeezenet")], num_actions)
        chunk = [lone] + observations[:3] + [lone]
        assert size_groups(chunk) >= 3
        assert_chunk_bitwise(agent_of(seed=2), chunk, monkeypatch, seed=2)
        assert_chunk_bitwise(agent_of(seed=2), [lone], monkeypatch, seed=3)

    def test_masked_invalid_slots(self, monkeypatch):
        """A candidate slot the environment marked invalid: its logit is
        scored, then masked, and still backpropagates."""
        graph = build_small_model("squeezenet")
        rewrites = [c.graph for c in default_ruleset().all_candidates(graph)]
        obs = observation_of([graph] + rewrites[:4], num_actions=9)
        obs.action_mask[[1, 3]] = False
        other = observation_of([graph] + rewrites[4:6], num_actions=9)
        other.action_mask[0] = False
        assert_chunk_bitwise(agent_of(seed=4), [obs, other, obs],
                             monkeypatch, seed=4)

    def test_agent_forward_full_meta_graph(self):
        """``forward`` on the full meta-graph: the heads op against
        :func:`tape_policy` on the same embeddings."""
        obs = rollout_observations("bert", steps=2)[-1]
        agent = agent_of(seed=5)
        weights = np.random.default_rng(5).normal(size=obs.num_actions)
        weights = tape.Tensor(weights * obs.action_mask)
        sides = []
        for fused in (True, False):
            agent.zero_grad()
            if fused:
                logits, value = agent_forward(agent, obs)
            else:
                embeddings = agent.encoder(build_meta_graph(
                    obs.graphs, cache=obs.feature_cache))
                logits, value = tape_policy(agent, embeddings, [obs],
                                            np.zeros(1, dtype=np.int64))
                logits = logits.reshape(obs.num_actions)
            ((logits * weights).sum() + value.sum()).backward()
            sides.append((logits.data, value.data,
                          [p.grad for p in agent.parameters()]))
        (logits, value, grads), (tape_logits, tape_value, tape_grads) = sides
        assert np.array_equal(logits, tape_logits)
        assert np.array_equal(value, tape_value)
        for grad, tape_grad in zip(grads, tape_grads):
            assert np.array_equal(grad, tape_grad)

    def test_constant_embeddings(self):
        """Embeddings that need no gradient: the heads' parameters still
        get the tape's."""
        observations = rollout_observations("bert", steps=3)
        agent = agent_of(seed=10)
        sizes = [len(obs.graphs) for obs in observations]
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        rng = np.random.default_rng(10)
        embeddings = tape.Tensor(rng.normal(size=(sum(sizes), 16)))
        weights = rng.normal(size=(len(observations),
                                   observations[0].num_actions + 1))
        sides = []
        for fused in (True, False):
            agent.zero_grad()
            if fused:
                heads = agent._policy(embeddings, observations, offsets)
            else:
                logits, values = tape_policy(agent, embeddings, observations,
                                             offsets)
                heads = tape.concat([logits, values.reshape(-1, 1)], axis=1)
            (heads * tape.Tensor(weights)).sum().backward()
            sides.append([p.grad for p in agent.parameters()
                          if p.grad is not None])
        assert embeddings.grad is None
        assert len(sides[0]) == len(sides[1]) == 12
        for got, want in zip(*sides):
            assert np.array_equal(got, want)

    def test_update_is_the_tape_update(self):
        """Whole PPO updates — several minibatches, node-bounded chunks,
        Adam — leave bit-identical weights and stats."""
        graph = build_small_model("bert")
        buffer = RolloutBuffer()
        env = GraphRewriteEnv(graph, max_candidates=30, max_steps=6)
        collector = agent_of(seed=6)
        obs = env.reset()
        for _ in range(14):
            decision = collector.act(obs)
            step = env.step(decision.action)
            buffer.add(Transition(obs, decision.action, decision.log_prob,
                                  decision.value, step.reward, step.done))
            obs = env.reset() if step.done else step.observation
        results = []
        for updater_cls in (PPOUpdater, TapePPOUpdater):
            agent = agent_of(seed=7)
            updater = updater_cls(agent, epochs=2, batch_size=6, seed=0,
                                  max_batch_nodes=400)
            stats = [updater.update(buffer) for _ in range(2)]
            results.append((agent, stats))
        (fused, fused_stats), (tape, tape_stats) = results
        assert fused_stats == tape_stats
        for got, want in zip(fused.parameters(), tape.parameters()):
            assert np.array_equal(got.data, want.data)


def central_difference(f, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat, out = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        high = f()
        flat[i] = keep - eps
        low = f()
        flat[i] = keep
        out[i] = (high - low) / (2 * eps)
    return grad


class TestCentralDifferences:
    """Each fused op on the float64 leg against its numeric gradient."""

    def observations(self):
        observations = rollout_observations("bert", steps=3)
        lone = observation_of([build_small_model("squeezenet")],
                              observations[0].num_actions)
        return observations + [lone]

    def test_heads(self):
        observations = self.observations()
        agent = upcast(agent_of(seed=8))
        sizes = [len(obs.graphs) for obs in observations]
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        rng = np.random.default_rng(8)
        embeddings = leaf(rng.normal(size=(sum(sizes), 16)),
                          requires_grad=True)
        # Weight the valid slots and the value only: a masked logit sits
        # at -1e9, where a float64 difference quotient has no digits left.
        weights = rng.normal(size=(len(observations),
                                   observations[0].num_actions + 1))
        weights[:, :-1] *= np.stack([obs.action_mask
                                     for obs in observations])

        def value():
            heads = agent._policy(embeddings, observations, offsets)
            return float((heads.data * weights).sum())

        agent.zero_grad()
        heads = agent._policy(embeddings, observations, offsets)
        (heads * tape.Tensor(weights)).sum().backward()
        np.testing.assert_allclose(
            embeddings.grad, central_difference(value, embeddings.data),
            rtol=1e-6, atol=1e-8)
        for layer in (agent.policy_head.layers[0], agent.value_head.layers[1],
                      agent.value_head.layers[2]):
            for parameter in (layer.weight, layer.bias):
                np.testing.assert_allclose(
                    parameter.grad,
                    central_difference(value, parameter.data),
                    rtol=1e-6, atol=1e-8)

    def test_loss(self):
        rng = np.random.default_rng(9)
        num_rows, num_actions = 4, 7
        data = rng.normal(size=(num_rows, num_actions + 1))
        data[1, 2] = data[3, 0] = -1e9  # masked slots
        heads = leaf(data, requires_grad=True)
        slots = np.array([0, 1, 2, 3, 1, 0], dtype=np.int64)
        actions = [1, 3, 6, 2, 0, 5]
        old_log_probs = rng.normal(size=6) - 1.5
        advantages, returns = rng.normal(size=6), rng.normal(size=6)

        def loss():
            return ppo_loss(heads, slots, actions, old_log_probs,
                            advantages, returns, CLIP, VALUE_COEF,
                            ENTROPY_COEF, 1.0 / 6)

        result = loss()
        assert result.total.data.dtype == np.float64
        # Away from the clip's corners, where the derivative jumps.
        ratio = np.exp(result.log_probs - old_log_probs)
        assert (np.abs(np.abs(ratio - 1) - CLIP) > 1e-4).all()
        result.total.backward()
        np.testing.assert_allclose(
            heads.grad,
            central_difference(lambda: float(loss().total.data), heads.data),
            rtol=1e-6, atol=1e-9)


class TestTapeSize:
    def test_a_chunk_records_encoder_heads_and_loss(self, monkeypatch):
        """4 encoder ops (node update, two GAT layers, readout), the heads
        and the loss, however many meta-graph sizes the chunk holds."""
        observations = rollout_observations("bert")
        assert size_groups(observations) >= 3
        agent = agent_of()
        actions, old_log_probs, advantages, returns = transitions(
            observations)
        made = []
        make = Tensor._make

        def counting(data, parents, backward):
            out = make(data, parents, backward)
            made.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        heads, slots = agent.policy_batch(observations)
        loss = ppo_loss(heads, slots, actions, old_log_probs, advantages,
                        returns, CLIP, VALUE_COEF, ENTROPY_COEF,
                        1.0 / len(observations))
        assert len(made) == LAYERS + 2 + 1 + 1
        assert all(t.requires_grad for t in made)
        taped, stack, seen = 0, [loss.total], set()
        while stack:
            t = stack.pop()
            if id(t) in seen or not t.requires_grad:
                continue
            seen.add(id(t))
            taped += t._backward is not None
            stack.extend(t._parents)
        assert taped == 6

    def test_act_makes_no_tensor_in_the_heads(self, monkeypatch):
        obs = rollout_observations("bert", steps=1)[0]
        agent = agent_of()
        embeddings = agent.embedder.embed(obs)
        monkeypatch.setattr(agent.embedder, "embed", lambda _: embeddings)
        made = []
        monkeypatch.setattr(Tensor, "_make", staticmethod(
            lambda *args: made.append(args)))
        monkeypatch.setattr(Tensor, "__init__", lambda *args, **kw:
                            made.append(args))
        decision = agent.act(obs)
        assert made == []
        assert decision.probabilities.shape == (obs.num_actions,)
