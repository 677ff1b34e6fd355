"""Graph neural network layers used by the X-RLflow agent.

The architecture follows Section 3.4 of the paper exactly:

1. a *node update layer* that combines each node's one-hot operator encoding
   with the sum of its incoming edge (tensor-shape) attributes — this layer
   learns to approximate per-kernel launch cost (Eq. 6),
2. ``k`` *graph attention (GAT) layers* performing message passing over the
   computation-graph topology (Eq. 7),
3. a *global update layer* aggregating all node representations together with
   the graph-level attribute into one embedding per graph (Eq. 8).

All layers operate on a :class:`BatchedGraphs` structure so that the current
graph and every rewrite candidate (the "meta-graph") are encoded in a single
forward pass.

A batch is a *row store* plus the readout's entries: signed store rows per
graph, and for each graph the parent whose sum it starts from.  A plain
meta-graph stores every graph's rows once and pools each of them with sign
``+1``, no graph having a parent.  A *delta batch*
(:func:`repro.rl.features.build_delta_batch`) stores a rewrite candidate's
cone only: the candidate's other rows are its parent's rows, so the edges of
its cone read them straight out of the parent's block, and its readout
entries are its cone rows (``+1``) and the parent rows it no longer holds as
they are (``-1``).  Message passing is the same code either way — rows,
edges into rows — and so is the readout, one
:func:`~repro.nn.tensor.delta_segment_sum`: a float64 sum, rounded once,
which is the same float32 sum as over each graph's full row list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .layers import Linear, Module, Parameter, fresh_rng
from .tensor import (Tensor, concat, delta_segment_sum, segment_softmax,
                     segment_sum)

__all__ = ["BatchedGraphs", "NodeUpdateLayer", "GATLayer", "GlobalUpdateLayer",
           "GraphEmbeddingNetwork"]


@dataclass
class BatchedGraphs:
    """A batch of graphs flattened into single node/edge arrays.

    ``edge_src`` / ``edge_dst`` index into the flattened node array (the row
    store).  Readout entry ``i`` adds ``pool_signs[i]`` times store row
    ``pool_rows[i]`` to graph ``graph_ids[i]``, whose sum starts from that
    of graph ``parents[g]`` (``-1``: from zero).  Left ``None``, the readout
    fields describe a plain batch: ``graph_ids[i]`` is the graph of store
    row ``i``, pooled once with sign ``+1``, and no graph has a parent.
    Feature arrays are float32, the encoder's one precision: they are built
    that way (:mod:`repro.rl.features`) and read as they are.
    """

    node_features: np.ndarray   # [N, F_node]
    edge_features: np.ndarray   # [E, F_edge]
    edge_src: np.ndarray        # [E]
    edge_dst: np.ndarray        # [E]
    graph_ids: np.ndarray       # [P]
    num_graphs: int
    global_features: np.ndarray  # [G, F_global]
    pool_rows: Optional[np.ndarray] = None   # [P]
    pool_signs: Optional[np.ndarray] = None  # [P], float64 +-1
    parents: Optional[np.ndarray] = None     # [G]
    #: Node count of each graph ([G]): what the readout's mean divides by.
    graph_sizes: Optional[np.ndarray] = None
    #: How many of the graphs are stored as a rewrite cone only (counted by
    #: whoever built the readout entries; 0 for a plain batch).
    num_cones: int = 0

    def __post_init__(self) -> None:
        if self.pool_rows is None:
            self.pool_rows = np.arange(self.graph_ids.shape[0],
                                       dtype=np.int64)
        if self.pool_signs is None:
            self.pool_signs = np.ones(self.pool_rows.shape[0])
        if self.parents is None:
            self.parents = np.full(self.num_graphs, -1, dtype=np.int64)
        if self.graph_sizes is None:
            self.graph_sizes = np.bincount(self.graph_ids,
                                           minlength=self.num_graphs)

    @property
    def num_nodes(self) -> int:
        """Rows in the store: what every message-passing layer computes."""
        return int(self.node_features.shape[0])

    @property
    def num_edges(self) -> int:
        """Edges message passing runs over."""
        return int(self.edge_src.shape[0])

    @property
    def num_pooled_rows(self) -> int:
        """Rows the graphs hold: their node counts, added up."""
        return int(self.graph_sizes.sum())


class NodeUpdateLayer(Module):
    """Eq. 6: ``h'_i = sigma(W [sum_j e_j || h_i])``."""

    def __init__(self, node_dim: int, edge_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        self.linear = Linear(node_dim + edge_dim, out_dim, rng=rng)

    def forward(self, batch: BatchedGraphs, nodes: Tensor) -> Tensor:
        edge_feats = Tensor(batch.edge_features)
        incoming = segment_sum(edge_feats, batch.edge_dst, batch.num_nodes)
        combined = concat([incoming, nodes], axis=1)
        return self.linear(combined).relu()


class GATLayer(Module):
    """Eq. 7: single-head graph attention layer with residual connection.

    Attention coefficients are computed per edge from the transformed source
    and destination node features and normalised (softmax) over each node's
    incoming edges, following Velickovic et al. (2018).
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else fresh_rng()
        self.transform = Linear(dim, dim, rng=rng)
        self.attn_src = Parameter(rng.normal(0, 0.1, (dim, 1)), name="attn_src")
        self.attn_dst = Parameter(rng.normal(0, 0.1, (dim, 1)), name="attn_dst")

    def forward(self, batch: BatchedGraphs, nodes: Tensor) -> Tensor:
        h = self.transform(nodes)                       # [N, D]
        if batch.num_edges == 0:
            return (nodes + h.relu()) * 0.5
        # Attention scores as an elementwise product + row reduction rather
        # than ``h @ attn`` (a matvec): BLAS gemv accumulates with a
        # different split per call than row-wise reduction, so matvec
        # results are not row-consistent across subsets of ``h`` — which
        # would make a delta batch (a candidate's cone rows only) impossible
        # to keep bit-for-bit equal to the full meta-graph's forward.
        # ``(h * a).sum(axis=1)`` reduces each row independently, so any
        # row subset reproduces the full result exactly.
        src_scores = (h * self.attn_src.reshape(1, -1)).sum(
            axis=1, keepdims=True)                      # [N, 1]
        dst_scores = (h * self.attn_dst.reshape(1, -1)).sum(
            axis=1, keepdims=True)                      # [N, 1]
        edge_logits = (src_scores.gather_rows(batch.edge_src) +
                       dst_scores.gather_rows(batch.edge_dst)).leaky_relu(0.2)
        alpha = segment_softmax(edge_logits, batch.edge_dst, batch.num_nodes)
        messages = h.gather_rows(batch.edge_src) * alpha
        aggregated = segment_sum(messages, batch.edge_dst, batch.num_nodes)
        # Residual connection keeps nodes with no incoming edges informative.
        return (nodes + aggregated.relu()) * 0.5


class GlobalUpdateLayer(Module):
    """Eq. 8: per-graph readout ``g' = sigma([sum_N h || g] W)``."""

    def __init__(self, node_dim: int, global_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        self.linear = Linear(node_dim + global_dim, out_dim, rng=rng)

    def forward(self, batch: BatchedGraphs, nodes: Tensor) -> Tensor:
        pooled = delta_segment_sum(nodes, batch.pool_rows, batch.pool_signs,
                                   batch.graph_ids, batch.parents,
                                   batch.num_graphs)
        # Normalise by node count so large graphs do not dominate numerically.
        counts = np.maximum(batch.graph_sizes.astype(np.float64), 1.0)
        counts = counts.reshape(-1, 1)
        pooled = pooled * Tensor(1.0 / counts)
        combined = concat([pooled, Tensor(batch.global_features)], axis=1)
        if batch.num_graphs == 1:
            # BLAS runs a one-row product as gemv, which rounds differently
            # from gemm's per-row dot products; a graph's embedding must not
            # depend on how many graphs ride along (a zero-candidate
            # observation alone vs inside a PPO minibatch).
            combined = concat([combined, combined], axis=0)
            return self.linear(combined).tanh()[0:1]
        return self.linear(combined).tanh()


class GraphEmbeddingNetwork(Module):
    """The full encoder: node update, ``k`` GAT layers, global readout."""

    def __init__(self, node_dim: int, edge_dim: int, global_dim: int = 1,
                 hidden_dim: int = 64, embedding_dim: int = 64,
                 num_gat_layers: int = 5, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.node_update = NodeUpdateLayer(node_dim, edge_dim, hidden_dim, rng=rng)
        self.gat_layers = [GATLayer(hidden_dim, rng=rng) for _ in range(num_gat_layers)]
        self.global_update = GlobalUpdateLayer(hidden_dim, global_dim, embedding_dim, rng=rng)
        self.hidden_dim = hidden_dim
        self.embedding_dim = embedding_dim
        self.num_gat_layers = num_gat_layers
        #: Rows pushed through message passing / held by the pooled graphs
        #: over every forward so far.  Equal on a plain batch; a delta batch
        #: encodes a fraction of what it pools (``PPOUpdateStats`` reports
        #: the pair per update).
        self.rows_encoded = 0
        self.rows_pooled = 0

    def forward(self, batch: BatchedGraphs) -> Tensor:
        """Return one embedding per graph in the batch: ``[num_graphs, embedding_dim]``."""
        self.rows_encoded += batch.num_nodes
        self.rows_pooled += batch.num_pooled_rows
        nodes = Tensor(batch.node_features)
        nodes = self.node_update(batch, nodes)
        for layer in self.gat_layers:
            nodes = layer(batch, nodes)
        return self.global_update(batch, nodes)
