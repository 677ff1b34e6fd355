"""Tests for dense layers, optimisers and the GNN encoder."""

import numpy as np
import pytest
import tape

from repro.nn import (
    Adam,
    GraphEmbeddingNetwork,
    Linear,
    MLP,
    SGD,
    Tensor,
    clip_grad_norm)
from repro.rl.features import build_meta_graph
from repro.ir import GraphBuilder


def tiny_batch(num_graphs=2):
    graphs = []
    for _ in range(num_graphs):
        b = GraphBuilder()
        x = b.input((2, 4))
        graphs.append(b.build([b.relu(b.linear(x, 4, 4))]))
    return build_meta_graph(graphs)


class TestLayers:
    def test_linear_shapes_and_params(self):
        layer = Linear(4, 3)
        out = tape.linear(layer, tape.Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)
        assert len(layer.parameters()) == 2

    def test_mlp_forward_and_param_collection(self):
        mlp = MLP([4, 8, 2])
        out = tape.mlp(mlp, tape.Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert len(mlp.parameters()) == 4

    def test_mlp_rejects_single_size(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_state_dict_round_trip(self):
        mlp = MLP([4, 8, 2])
        state = mlp.state_dict()
        other = MLP([4, 8, 2])
        other.load_state_dict(state)
        for a, b in zip(mlp.parameters(), other.parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_state_dict_shape_mismatch(self):
        mlp = MLP([4, 8, 2])
        with pytest.raises(ValueError):
            MLP([4, 4, 2]).load_state_dict(mlp.state_dict())

    def test_a_failed_load_changes_no_parameter(self):
        """Only the last parameter mismatches; the ones before it keep
        their values."""
        mlp = MLP([4, 8, 2], rng=np.random.default_rng(0))
        before = [p.data.copy() for p in mlp.parameters()]
        state = MLP([4, 8, 2], rng=np.random.default_rng(1)).state_dict()
        state["3"] = np.zeros(3)
        with pytest.raises(ValueError, match="parameter 3 shape mismatch"):
            mlp.load_state_dict(state)
        del state["3"]
        state["4"] = np.zeros(2)
        with pytest.raises(ValueError, match="no parameter 3"):
            mlp.load_state_dict(state)
        for p, data in zip(mlp.parameters(), before):
            assert np.array_equal(p.data, data)


class TestOptimisers:
    def _loss(self, layer):
        x = tape.Tensor(np.ones((8, 4)))
        target = tape.Tensor(np.zeros((8, 2)))
        pred = tape.linear(layer, x)
        return ((pred - target) ** 2).mean()

    def test_sgd_reduces_loss(self):
        layer = Linear(4, 2, rng=np.random.default_rng(1))
        opt = SGD(layer.parameters(), lr=0.05)
        initial = float(self._loss(layer).numpy())
        for _ in range(20):
            opt.zero_grad()
            loss = self._loss(layer)
            loss.backward()
            opt.step()
        assert float(self._loss(layer).numpy()) < initial

    def test_adam_reduces_loss(self):
        layer = Linear(4, 2, rng=np.random.default_rng(1))
        opt = Adam(layer.parameters(), lr=0.01)
        initial = float(self._loss(layer).numpy())
        for _ in range(20):
            opt.zero_grad()
            loss = self._loss(layer)
            loss.backward()
            opt.step()
        assert float(self._loss(layer).numpy()) < initial

    def test_clip_grad_norm(self):
        layer = Linear(4, 2)
        loss = self._loss(layer) * 1e6
        loss.backward()
        norm = clip_grad_norm(layer.parameters(), max_norm=1.0)
        assert norm > 1.0
        clipped = np.sqrt(sum(float((p.grad ** 2).sum()) for p in layer.parameters()))
        assert clipped == pytest.approx(1.0, rel=1e-6)


class TestGNN:
    def test_embedding_shape(self):
        batch = tiny_batch(3)
        net = GraphEmbeddingNetwork(node_dim=batch.node_features.shape[1],
                                    edge_dim=batch.edge_features.shape[1],
                                    hidden_dim=16, embedding_dim=8,
                                    num_gat_layers=2)
        out = net(batch)
        assert out.shape == (3, 8)
        assert np.isfinite(out.numpy()).all()

    def test_gradients_reach_all_parameters(self):
        batch = tiny_batch(2)
        net = GraphEmbeddingNetwork(node_dim=batch.node_features.shape[1],
                                    edge_dim=batch.edge_features.shape[1],
                                    hidden_dim=8, embedding_dim=8, num_gat_layers=2)
        tape.sum(net(batch)).backward()
        grads = [p.grad for p in net.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_backward_computes_no_gradient_for_constants(self, monkeypatch):
        """``_accumulate`` is only ever entered for a tensor that keeps its
        gradient: the encoder's constants (node and edge features, the
        pooling ``1 / counts``, the softmax shift) cost no gradient
        arithmetic — and the parameter gradients are what they were.  Each
        layer is one op: a backward enters once per parameter and once per
        tensor between two ops, none for the node update's constant
        input."""
        batch = tiny_batch(2)
        net = GraphEmbeddingNetwork(node_dim=batch.node_features.shape[1],
                                    edge_dim=batch.edge_features.shape[1],
                                    hidden_dim=8, embedding_dim=8,
                                    num_gat_layers=2, seed=0)
        tape.sum(net(batch)).backward()
        expected = [p.grad.copy() for p in net.parameters()]
        net.zero_grad()

        entered = []
        original = Tensor._accumulate

        def spy(tensor, grad):
            entered.append(tensor.requires_grad)
            original(tensor, grad)

        monkeypatch.setattr(Tensor, "_accumulate", spy)
        tape.sum(net(batch)).backward()
        assert entered and all(entered)
        # The loss, the embeddings, and each GAT layer's and the readout's
        # input.
        assert len(entered) == len(net.parameters()) + net.num_gat_layers + 3
        for p, grad in zip(net.parameters(), expected):
            assert np.array_equal(p.grad, grad)

    def test_distinct_graphs_get_distinct_embeddings(self):
        b1 = GraphBuilder()
        x = b1.input((2, 4))
        g1 = b1.build([b1.relu(x)])
        b2 = GraphBuilder()
        x = b2.input((2, 4))
        g2 = b2.build([b2.tanh(b2.linear(x, 4, 4))])
        batch = build_meta_graph([g1, g2])
        net = GraphEmbeddingNetwork(node_dim=batch.node_features.shape[1],
                                    edge_dim=batch.edge_features.shape[1],
                                    hidden_dim=16, embedding_dim=8, num_gat_layers=2)
        out = net(batch).numpy()
        assert not np.allclose(out[0], out[1])


class TestDefaultRngIndependence:
    """Regression: layers built without an explicit rng used to share
    ``default_rng(0)`` and therefore start with *identical* weights."""

    def test_two_default_linear_layers_differ(self):
        a, b = Linear(8, 8), Linear(8, 8)
        assert not np.array_equal(a.weight.data, b.weight.data)

    def test_default_mlp_hidden_layers_differ_from_each_other(self):
        mlp = MLP([8, 8, 8])
        w0, w1 = mlp.layers[0].weight.data, mlp.layers[1].weight.data
        assert not np.array_equal(w0, w1)

    def test_two_default_gat_layers_differ(self):
        from repro.nn import GATLayer
        a, b = GATLayer(8), GATLayer(8)
        assert not np.array_equal(a.transform.weight.data,
                                  b.transform.weight.data)
        assert not np.array_equal(a.attn_src.data, b.attn_src.data)

    def test_explicit_rng_stays_reproducible(self):
        a = Linear(8, 8, rng=np.random.default_rng(7))
        b = Linear(8, 8, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
