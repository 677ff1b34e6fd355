"""The fused encoder against the tape it replaced, bit for bit in float32.

Each layer of ``repro.nn.gnn`` is one autograd op whose backward reproduces
the composed ops' arithmetic (``tests/oracles/encoder_tape_reference.py``):
the same expressions, each intermediate gradient cast to its dtype, a tensor
with several consumers summed in the tape's order.  Every case compares the
embeddings and every parameter's ``.grad`` with ``np.array_equal``.
"""

import numpy as np
import pytest
from encoder_tape_reference import tape_forward
from ppo_reference import agent_forward
from segment_reference import add_at_rows
from tape import Tensor, segment_max

import repro.nn.tensor
from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.nn import GraphEmbeddingNetwork, no_grad
from repro.nn.gnn import BatchedGraphs
from repro.rl import GraphRewriteEnv, XRLflowAgent
from repro.rl.features import (build_meta_graph, combine_meta_graphs,
                               encode_graph)

LAYERS = 2


def network(batch, layers=LAYERS):
    return GraphEmbeddingNetwork(
        node_dim=batch.node_features.shape[1],
        edge_dim=batch.edge_features.shape[1], hidden_dim=16,
        embedding_dim=12, num_gat_layers=layers, seed=3)


def side(forward, net, batch, seed=0):
    """``(embeddings, parameter grads)`` of ``forward(batch)`` under a
    seeded upstream gradient."""
    upstream = Tensor(np.random.default_rng(seed).normal(
        size=(batch.num_graphs, net.embedding_dim)))
    net.zero_grad()
    out = forward(batch)
    (out * upstream).sum().backward()
    grads = [p.grad for p in net.parameters()]
    net.zero_grad()
    return out.data, grads


def assert_bitwise(net, batch, seed=0):
    fused, fused_grads = side(net, net, batch, seed)
    tape, tape_grads = side(lambda b: tape_forward(net, b), net, batch, seed)
    assert fused.dtype == tape.dtype == np.float32
    assert np.array_equal(fused, tape)
    assert len(fused_grads) == len(tape_grads) == len(net.parameters())
    for fused_grad, tape_grad in zip(fused_grads, tape_grads):
        assert fused_grad.dtype == np.float32
        assert np.array_equal(fused_grad, tape_grad)


def rollout_observations(name, steps=4, max_candidates=12):
    """A short rollout's observations (the chosen action cycles through the
    candidates, so later observations hold rewrites of rewrites)."""
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


def lone_graph():
    """One node, no edge."""
    b = GraphBuilder("lone")
    b.input((2, 4))
    return b.build()


def edge_graph():
    """Two nodes, one edge."""
    b = GraphBuilder("edge")
    return b.build([b.input((2, 4))])


class TestAgainstTheTape:
    @pytest.mark.parametrize("name", ["squeezenet", "bert"])
    def test_rollout_delta_batch(self, name):
        for obs in rollout_observations(name)[::2]:
            batch = obs.delta_batch(LAYERS)
            assert batch.num_cones > 0
            assert_bitwise(network(batch), batch)

    @pytest.mark.parametrize("name", ["squeezenet", "bert"])
    def test_ppo_combined_minibatch(self, name):
        observations = rollout_observations(name)
        # Duplicates, as a minibatch drawn from a buffer holds them.
        chunk = observations + observations[:2]
        batch, _ = combine_meta_graphs([obs.delta_batch(LAYERS)
                                        for obs in chunk])
        assert (batch.parents >= 0).any() and (batch.pool_signs < 0).any()
        assert_bitwise(network(batch), batch, seed=1)

    def test_agent_forward_full_meta_graph(self, monkeypatch):
        """``XRLflowAgent.forward`` — logits, value and every gradient of
        the agent, heads included — with the encoder swapped for the tape."""
        obs = rollout_observations("squeezenet", steps=2)[-1]
        agent = XRLflowAgent(hidden_dim=16, embedding_dim=16,
                             num_gat_layers=LAYERS, head_sizes=(16,), seed=0)
        weights = Tensor(np.random.default_rng(2).normal(
            size=obs.num_actions))
        sides = []
        for swap in (False, True):
            with monkeypatch.context() as patch:
                if swap:
                    patch.setattr(GraphEmbeddingNetwork, "forward",
                                  lambda self, batch: tape_forward(self, batch))
                agent.zero_grad()
                logits, value = agent_forward(agent, obs)
                masked = logits * Tensor(obs.action_mask.astype(np.float32))
                ((masked * weights).sum() + value.sum()).backward()
                sides.append((logits.data, value.data,
                              [p.grad for p in agent.parameters()]))
        (logits, value, grads), (tape_logits, tape_value, tape_grads) = sides
        assert np.array_equal(logits, tape_logits)
        assert np.array_equal(value, tape_value)
        for grad, tape_grad in zip(grads, tape_grads):
            assert np.array_equal(grad, tape_grad)

    def test_one_graph_batch(self):
        """A one-graph readout runs its product on two copies of the row
        (gemv rounds differently from gemm); so does the tape."""
        batch = encode_graph(build_small_model("bert"))
        assert batch.num_graphs == 1
        assert_bitwise(network(batch), batch)

    def test_edgeless_batch(self):
        batch = build_meta_graph([lone_graph(), lone_graph()])
        assert batch.num_edges == 0
        assert_bitwise(network(batch), batch)

    def test_five_layers_and_unsorted_edges(self):
        """A batch whose edges are not grouped by destination: the segment
        max runs over the plan's sorted layout, the sums in edge order."""
        batch = build_meta_graph([build_small_model("squeezenet"),
                                  build_small_model("bert")])
        order = np.random.default_rng(4).permutation(batch.num_edges)
        shuffled = BatchedGraphs(
            node_features=batch.node_features,
            edge_features=batch.edge_features[order],
            edge_src=batch.edge_src[order], edge_dst=batch.edge_dst[order],
            graph_ids=batch.graph_ids, num_graphs=batch.num_graphs,
            global_features=batch.global_features)
        assert (np.diff(shuffled.edge_dst) < 0).any()
        assert_bitwise(network(shuffled, layers=5), shuffled)

    def test_every_segment_sum_goes_through_the_kernel(self, monkeypatch):
        """Forward and backward call the bincount kernel once per segment
        sum — node update 1, per GAT layer 2 forward and 4 backward, readout
        1 and 2 — and the ``np.add.at`` oracle in its place changes no bit."""
        batch = rollout_observations("squeezenet", steps=1)[0].delta_batch(
            LAYERS)
        net = network(batch)
        expected, expected_grads = side(net, net, batch)
        calls = []

        def add_at(values, index, num_rows):
            calls.append(values.dtype)
            return add_at_rows(values, index, num_rows)

        monkeypatch.setattr(repro.nn.tensor, "_scatter_add_rows", add_at)
        swapped, grads = side(net, net, batch)
        assert len(calls) == 2 + 6 * LAYERS + 2
        assert calls.count(np.float64) == 3  # the readout's wide sums
        assert np.array_equal(swapped, expected)
        for grad, want in zip(grads, expected_grads):
            assert np.array_equal(grad, want)


class TestEdgelessGraphs:
    def test_embedding_does_not_depend_on_the_batch(self):
        """A graph without edges pools the same rows alone as beside a
        graph with edges: the whole batch having no edge takes no special
        path."""
        alone = build_meta_graph([lone_graph()])
        beside = build_meta_graph([lone_graph(), edge_graph()])
        assert alone.num_edges == 0 and beside.num_edges == 1
        net = network(beside)
        with no_grad():
            assert np.array_equal(net(alone).data[0], net(beside).data[0])


class TestSegmentPlan:
    def test_edge_max_is_the_segment_max(self):
        rng = np.random.default_rng(5)
        dst = rng.integers(0, 9, size=40)
        values = rng.normal(size=(40, 1)).astype(np.float32)
        values[::7] = values[1]  # ties
        values[3] = np.inf
        batch = BatchedGraphs(
            node_features=np.zeros((9, 1), np.float32),
            edge_features=np.zeros((40, 1), np.float32),
            edge_src=rng.integers(0, 9, size=40), edge_dst=dst,
            graph_ids=np.zeros(9, dtype=np.int64), num_graphs=1,
            global_features=np.zeros((1, 1), np.float32))
        expected = segment_max(values, dst, 9)[dst]
        assert np.array_equal(batch.plan.edge_max(values), expected)
        order = np.argsort(dst, kind="stable")
        assert np.array_equal(
            BatchedGraphs(
                node_features=batch.node_features,
                edge_features=batch.edge_features, edge_src=batch.edge_src,
                edge_dst=dst[order], graph_ids=batch.graph_ids,
                num_graphs=1, global_features=batch.global_features,
            ).plan.edge_max(values[order]), expected[order])

    def test_a_batch_builds_its_plan_once(self):
        batch = build_meta_graph([edge_graph(), lone_graph()])
        plan = batch.plan
        network(batch)(batch)
        assert batch.plan is plan
