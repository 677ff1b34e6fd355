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
edges into rows — and so is the readout (:class:`GlobalUpdateLayer`): a
float64 sum, rounded once, which is the same float32 sum as over each
graph's full row list.

Each layer is **one autograd op**: its forward is plain numpy, and its
backward is one closure holding only the arrays it reads.  The encoder
records three ops plus one per GAT layer, where the layers composed from
:mod:`repro.nn.tensor`'s primitives recorded about twenty per layer.  The
closures reproduce that tape's arithmetic exactly: every intermediate
gradient is rounded to its intermediate's dtype where the tape rounded it,
a tensor read twice or three times sums its gradients in the tape's order,
and every segment sum is a call of the one float64 bincount kernel,
:func:`~repro.nn.tensor._scatter_add_rows`.  Embeddings and parameter
gradients are bit for bit the tape's (``tests/nn/test_encoder_fused.py``
against ``tests/oracles/encoder_tape_reference.py``).  Inputs that are
constants (the node and edge features) get no gradient.  What the layers
of one pass share — the segment max's dst-sorted layout, the readout's
inherit mask, signs and ``1 / count`` — is a :class:`SegmentPlan`, built
once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as _tensor
from .layers import Linear, Module, Parameter, fresh_rng
from .tensor import Tensor

__all__ = ["BatchedGraphs", "SegmentPlan", "NodeUpdateLayer", "GATLayer",
           "GlobalUpdateLayer", "GraphEmbeddingNetwork"]


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
    _plan: Optional["SegmentPlan"] = field(
        default=None, init=False, repr=False, compare=False)

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

    @property
    def plan(self) -> "SegmentPlan":
        """The batch's :class:`SegmentPlan`, derived on first use and kept."""
        if self._plan is None:
            self._plan = SegmentPlan(self)
        return self._plan


class SegmentPlan:
    """The index work of one batch's encoder pass, derived once per batch.

    Every fused layer reads its segment max and its readout constants from
    here, so the layers of a forward, and the backward that follows, derive
    each of them once.  A plan belongs to its :class:`BatchedGraphs`
    (:attr:`BatchedGraphs.plan`) and dies with it.

    * The segment max over each node's incoming edges runs over a stable
      dst-sorted layout as one ``np.maximum.reduceat``.  A max does not
      depend on order, so it equals ``np.maximum.at`` exactly.
    * The readout's inherit mask and ancestors, its signs as a column and
      its ``1 / count`` per graph.

    Sums are not planned: every one is a call of the float64 bincount
    kernel, :func:`~repro.nn.tensor._scatter_add_rows`, so it adds in
    input order and rounds once, as the composed ops did.  Their flat
    element ids are not kept either: on the delta batches an observation
    cache holds they outweigh the batch itself, for no measurable gain.
    """

    def __init__(self, batch: "BatchedGraphs"):
        dst = batch.edge_dst
        self._dst_order = None
        if dst.shape[0] > 1 and (dst[1:] < dst[:-1]).any():
            self._dst_order = np.argsort(dst, kind="stable")
            dst = dst[self._dst_order]
        heads = np.ones(dst.shape[0], dtype=bool)
        heads[1:] = dst[1:] != dst[:-1]
        self._dst_starts = np.flatnonzero(heads)
        self._dst_counts = np.diff(np.append(self._dst_starts, dst.shape[0]))
        self.inherit = batch.parents >= 0
        self.ancestors = batch.parents[self.inherit]
        self.signs = batch.pool_signs.reshape(-1, 1)
        # float32, on a float64 leg too, as in the composed ops.
        counts = np.maximum(batch.graph_sizes.astype(np.float64), 1.0)
        self.inv_counts = (1.0 / counts).reshape(-1, 1).astype(np.float32)

    def edge_max(self, values: np.ndarray) -> np.ndarray:
        """``segment_max(values, edge_dst, num_nodes)[edge_dst]``: each
        edge's destination maximum of ``values`` (``[E, 1]``)."""
        if values.shape[0] == 0:
            return values
        order = self._dst_order
        maxes = np.maximum.reduceat(
            values if order is None else values[order], self._dst_starts,
            axis=0)
        maxes[~np.isfinite(maxes)] = 0.0
        spread = np.repeat(maxes, self._dst_counts, axis=0)
        if order is None:
            return spread
        out = np.empty_like(spread)
        out[order] = spread
        return out


def _scatter(values: np.ndarray, index: np.ndarray,
             num_rows: int) -> np.ndarray:
    """The float64 bincount kernel, looked up at call time: a kernel
    swapped into :mod:`repro.nn.tensor` reaches every segment sum."""
    return _tensor._scatter_add_rows(values, index, num_rows)


class NodeUpdateLayer(Module):
    """Eq. 6: ``h'_i = sigma(W [sum_j e_j || h_i])``, one autograd op."""

    def __init__(self, node_dim: int, edge_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        self.linear = Linear(node_dim + edge_dim, out_dim, rng=rng)

    def forward(self, batch: BatchedGraphs, nodes: Tensor) -> Tensor:
        """``[N, out_dim]`` from the node features ``nodes`` (a constant:
        no gradient is computed for it unless it requires one)."""
        weight, bias = self.linear.weight, self.linear.bias
        incoming = _scatter(batch.edge_features, batch.edge_dst,
                            batch.num_nodes)
        combined = np.concatenate([incoming, nodes.data], axis=1)
        edge_dim = incoming.shape[1]
        out = combined @ weight.data
        out += bias.data
        up = out > 0
        out *= up

        def backward(grad):
            grad = grad * up
            bias._accumulate(grad)
            weight._accumulate(combined.T @ grad)
            if nodes.requires_grad:
                nodes._accumulate((grad @ weight.data.T)[:, edge_dim:])
        return Tensor._make(out, (nodes, weight, bias), backward)


class GATLayer(Module):
    """Eq. 7: single-head graph attention layer with residual connection.

    Attention coefficients are computed per edge from the transformed source
    and destination node features and normalised (softmax) over each node's
    incoming edges, following Velickovic et al. (2018).  One autograd op.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else fresh_rng()
        self.transform = Linear(dim, dim, rng=rng)
        self.attn_src = Parameter(rng.normal(0, 0.1, (dim, 1)), name="attn_src")
        self.attn_dst = Parameter(rng.normal(0, 0.1, (dim, 1)), name="attn_dst")

    def forward(self, batch: BatchedGraphs, nodes: Tensor) -> Tensor:
        """The rows after one round of attention over the incoming edges,
        averaged with ``nodes`` (``[N, dim]``)."""
        plan = batch.plan
        src, dst, num_nodes = batch.edge_src, batch.edge_dst, batch.num_nodes
        weight, bias = self.transform.weight, self.transform.bias
        attn_src, attn_dst = self.attn_src, self.attn_dst
        x = nodes.data
        h = x @ weight.data                             # [N, D]
        h += bias.data
        # Attention scores as an elementwise product + row reduction rather
        # than ``h @ attn`` (a matvec): BLAS gemv accumulates with a
        # different split per call than row-wise reduction, so matvec
        # results are not row-consistent across subsets of ``h`` — which
        # would make a delta batch (a candidate's cone rows only) impossible
        # to keep bit-for-bit equal to the full meta-graph's forward.
        # ``(h * a).sum(axis=1)`` reduces each row independently, so any
        # row subset reproduces the full result exactly.
        src_scores = (h * attn_src.data.reshape(1, -1)).sum(
            axis=1, keepdims=True)                      # [N, 1]
        dst_scores = (h * attn_dst.data.reshape(1, -1)).sum(
            axis=1, keepdims=True)                      # [N, 1]
        scores = src_scores[src] + dst_scores[dst]      # [E, 1]
        rising = scores > 0
        logits = np.where(rising, scores, 0.2 * scores)
        # Softmax over each node's incoming edges; the max shift is a
        # float32 constant, on a float64 leg too, as in the composed ops.
        exp = np.exp(logits - plan.edge_max(logits).astype(
            np.float32, copy=False))
        denom = _scatter(exp, dst, num_nodes)[dst] + np.float32(1e-12)
        alpha = exp / denom
        gathered = h[src]
        out = _scatter(gathered * alpha, dst, num_nodes)
        up = out > 0
        out *= up
        # Residual connection keeps nodes with no incoming edges informative.
        out += x
        out *= 0.5

        def backward(grad):
            # Each intermediate's gradient in its dtype, a tensor with
            # several consumers summed in the tape's order: ``exp`` from
            # the quotient then the denominator, ``h`` from the destination
            # score, the source score, then the message gather, the input
            # from the residual then the transform.
            residual = grad * 0.5
            messages = (residual * up)[dst]
            grad_alpha = (messages * gathered).sum(axis=1, keepdims=True)
            grad_exp = grad_alpha / denom
            grad_exp += _scatter(-grad_alpha * exp / denom ** 2, dst,
                                 num_nodes)[dst]
            grad_scores = (grad_exp * exp * np.where(rising, 1.0, 0.2)
                           ).astype(exp.dtype, copy=False)
            grad_src = _scatter(grad_scores, src, num_nodes)
            grad_dst = _scatter(grad_scores, dst, num_nodes)
            grad_h = grad_dst * attn_dst.data.reshape(1, -1)
            grad_h += grad_src * attn_src.data.reshape(1, -1)
            grad_h += _scatter(messages * alpha, src, num_nodes)
            attn_dst._accumulate((grad_dst * h).sum(
                axis=0, keepdims=True).reshape(attn_dst.shape))
            attn_src._accumulate((grad_src * h).sum(
                axis=0, keepdims=True).reshape(attn_src.shape))
            bias._accumulate(grad_h)
            weight._accumulate(x.T @ grad_h)
            if nodes.requires_grad:
                grad = grad_h @ weight.data.T
                grad += residual
                nodes._accumulate(grad)
        return Tensor._make(out, (nodes, weight, bias, attn_src, attn_dst),
                            backward)


class GlobalUpdateLayer(Module):
    """Eq. 8: per-graph readout ``g' = sigma([sum_N h || g] W)``, one
    autograd op.

    The pooled sum is a graph's signed rows on top of its parent's sum, in
    float64, rounded once: exact unless one column's values span about
    2**21 in magnitude, so "parent − old + new" rounds to the float32 of
    the in-order sum.  It is normalised by node count so large graphs do
    not dominate numerically.
    """

    def __init__(self, node_dim: int, global_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        self.linear = Linear(node_dim + global_dim, out_dim, rng=rng)

    def forward(self, batch: BatchedGraphs, nodes: Tensor) -> Tensor:
        """One embedding per graph, ``[num_graphs, out_dim]``."""
        plan = batch.plan
        weight, bias = self.linear.weight, self.linear.bias
        x = nodes.data
        wide = _scatter(x[batch.pool_rows] * plan.signs, batch.graph_ids,
                        batch.num_graphs)
        wide[plan.inherit] += wide[plan.ancestors]
        pooled = wide.astype(x.dtype) * plan.inv_counts
        combined = np.concatenate([pooled, batch.global_features], axis=1)
        single = batch.num_graphs == 1
        if single:
            # BLAS runs a one-row product as gemv, which rounds differently
            # from gemm's per-row dot products; a graph's embedding must not
            # depend on how many graphs ride along (a zero-candidate
            # observation alone vs inside a PPO minibatch).
            combined = np.concatenate([combined, combined], axis=0)
        out = np.tanh(combined @ weight.data + bias.data)

        def backward(grad):
            if single:
                grad = np.concatenate([grad, np.zeros_like(grad)], axis=0)
            grad = grad * (1.0 - out ** 2)
            bias._accumulate(grad)
            weight._accumulate(combined.T @ grad)
            if not nodes.requires_grad:
                return
            grad = grad @ weight.data.T
            if single:
                grad = grad[0:1] + grad[1:2]
            grad = (grad[:, :x.shape[1]] * plan.inv_counts).astype(np.float64)
            grad += _scatter(grad[plan.inherit], plan.ancestors,
                             batch.num_graphs)
            nodes._accumulate(_scatter(grad[batch.graph_ids] * plan.signs,
                                       batch.pool_rows, x.shape[0]))
        return Tensor._make(out[0:1] if single else out,
                            (nodes, weight, bias), backward)


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
