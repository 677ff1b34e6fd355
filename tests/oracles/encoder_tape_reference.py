"""The GNN encoder composed from ``tape``'s primitive ops: the
tape the fused layers of ``repro.nn.gnn`` replaced, compared bit for bit by
``tests/nn/test_encoder_fused.py``.

Each layer records ~20 ops on the autograd tape; the fused layers record
one per layer and reproduce its arithmetic, gradients included.  The three
classes are the encoder's layers as they were composed, with one change:
a batch without edges takes the general path (empty segment sums), so an
edgeless graph's embedding does not depend on what else is in its batch.

:func:`tape_forward` runs these layers on a fused
:class:`~repro.nn.gnn.GraphEmbeddingNetwork`'s own parameters, so both
sides' ``.grad`` land on the same tensors.
"""

import numpy as np

from tape import (Tensor, concat, delta_segment_sum, linear, reshape,
                  segment_softmax, segment_sum)

from repro.nn import Linear, Module, Parameter

__all__ = ["NodeUpdateLayer", "GATLayer", "GlobalUpdateLayer",
           "tape_forward"]


class NodeUpdateLayer(Module):
    """Eq. 6: ``h'_i = sigma(W [sum_j e_j || h_i])``."""

    def __init__(self, node_dim, edge_dim, out_dim, rng=None):
        self.linear = Linear(node_dim + edge_dim, out_dim, rng=rng)

    def forward(self, batch, nodes):
        edge_feats = Tensor(batch.edge_features)
        incoming = segment_sum(edge_feats, batch.edge_dst, batch.num_nodes)
        combined = concat([incoming, nodes], axis=1)
        return linear(self.linear, combined).relu()


class GATLayer(Module):
    """Eq. 7: single-head graph attention layer with residual connection."""

    def __init__(self, dim, rng=None):
        rng = rng if rng is not None else np.random.default_rng()
        self.transform = Linear(dim, dim, rng=rng)
        self.attn_src = Parameter(rng.normal(0, 0.1, (dim, 1)), name="attn_src")
        self.attn_dst = Parameter(rng.normal(0, 0.1, (dim, 1)), name="attn_dst")

    def forward(self, batch, nodes):
        h = linear(self.transform, nodes)               # [N, D]
        src_scores = (h * reshape(self.attn_src, 1, -1)).sum(
            axis=1, keepdims=True)                      # [N, 1]
        dst_scores = (h * reshape(self.attn_dst, 1, -1)).sum(
            axis=1, keepdims=True)                      # [N, 1]
        edge_logits = (src_scores.gather_rows(batch.edge_src) +
                       dst_scores.gather_rows(batch.edge_dst)).leaky_relu(0.2)
        alpha = segment_softmax(edge_logits, batch.edge_dst, batch.num_nodes)
        messages = h.gather_rows(batch.edge_src) * alpha
        aggregated = segment_sum(messages, batch.edge_dst, batch.num_nodes)
        return (nodes + aggregated.relu()) * 0.5


class GlobalUpdateLayer(Module):
    """Eq. 8: per-graph readout ``g' = sigma([sum_N h || g] W)``."""

    def __init__(self, node_dim, global_dim, out_dim, rng=None):
        self.linear = Linear(node_dim + global_dim, out_dim, rng=rng)

    def forward(self, batch, nodes):
        pooled = delta_segment_sum(nodes, batch.pool_rows, batch.pool_signs,
                                   batch.graph_ids, batch.parents,
                                   batch.num_graphs)
        counts = np.maximum(batch.graph_sizes.astype(np.float64), 1.0)
        counts = counts.reshape(-1, 1)
        pooled = pooled * Tensor(1.0 / counts)
        combined = concat([pooled, Tensor(batch.global_features)], axis=1)
        if batch.num_graphs == 1:
            combined = concat([combined, combined], axis=0)
            return linear(self.linear, combined).tanh()[0:1]
        return linear(self.linear, combined).tanh()


def _sharing(cls, layer):
    """A ``cls`` layer holding ``layer``'s parameters (the same tensors)."""
    twin = cls.__new__(cls)
    twin.__dict__.update(layer.__dict__)
    return twin


def tape_forward(network, batch) -> Tensor:
    """``network(batch)`` through the composed layers, on ``network``'s
    parameters."""
    nodes = _sharing(NodeUpdateLayer, network.node_update)(
        batch, Tensor(batch.node_features))
    for layer in network.gat_layers:
        nodes = _sharing(GATLayer, layer)(batch, nodes)
    return _sharing(GlobalUpdateLayer, network.global_update)(batch, nodes)
