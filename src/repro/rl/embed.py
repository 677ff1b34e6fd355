"""Incremental (delta) GNN forward for rollout action selection.

Every environment step encodes a meta-graph of ~25 graphs that differ from
the previous step's by a handful of nodes each: a candidate is its parent
plus one rewrite.  The full encoder nevertheless re-runs message passing
over every node of every graph.  This module caches the per-node
activations of each message-passing layer *per graph* and, for a graph
produced by ``parent.copy()`` + surgery, recomputes only the nodes the
rewrite can have influenced, splicing the parent's cached rows for the
rest.  The delta pass reads the rewrite's influence cone straight off the
graph structure — :func:`~repro.rl.features.rewrite_cone`, derived once per
candidate graph and shared with the PPO update's delta batch — so a rollout
never materialises a graph's full feature arrays, let alone the meta batch
(see :class:`~repro.rl.features.LazyMetaGraph`).  All candidates of one
observation are recomputed in a single batched pass: their influence cones
are concatenated so each layer costs one set of array ops, not one per
graph.

Bit-for-bit equivalence with :class:`~repro.nn.gnn.GraphEmbeddingNetwork`
(not merely "close") is a hard requirement — the float64 fast path must
retrace the eager baseline action-for-action.  It holds because every
kernel in the full forward is *row-consistent*: the value a row gets does
not depend on which other rows are present.

* GEMMs (``[M, K] @ [K, N]``) compute independent dot products per output
  row for every ``M >= 2``; only the ``M = 1`` gemv kernel accumulates
  differently, so single-row products are padded to two (`_rows_matmul`).
* Attention scores are ``(h * a).sum(axis=1)`` — a per-row reduction —
  rather than the matvec ``h @ a`` (see the note in
  :class:`~repro.nn.gnn.GATLayer`).
* Segment kernels (:func:`~repro.nn.tensor._scatter_add_rows`,
  :func:`~repro.nn.tensor.segment_max`) accumulate per destination bucket
  in edge order, and each destination's edges form one contiguous cached
  block — computing a subset of destinations from their full blocks
  preserves each bucket's accumulation sequence exactly.  The same
  argument covers the per-graph pooling of the readout: a graph's rows
  are contiguous in the meta batch, so its pooled sum accumulates the
  same values in the same order whether or not other graphs ride along
  (which lets the embedder cache each graph's pooled vector).

A node is *dirty* when the rewrite changed its own inputs: the delta's
``added`` and ``rewired`` sets (``remove_node`` marks surviving consumers
rewired, and rewrites never mutate a node's output specs after insertion,
so a node outside these sets has an identical feature row and in-edge
block).  Influence spreads one hop downstream per GAT layer, so the
*cone* — the dirty set spread ``num_gat_layers`` times along out-edges —
covers every row any layer can change.  The delta pass recomputes all
cone rows at every layer.  Recomputing a still-clean row is wasted work
but never wrong: its inputs are correct spliced rows, and row-consistent
kernels give it exactly the value the full forward would.  When the cone
exceeds half the graph the delta pass would not pay for itself and the
graph is re-embedded in full.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.lru import LRUCache
from ..ir.graph import Graph
from ..nn.gnn import GraphEmbeddingNetwork
from ..nn.tensor import (_scatter_add_rows, get_default_dtype, no_grad,
                         segment_max)
from .features import (DEFAULT_EDGE_NORM, GLOBAL_FEATURE_DIM, GraphFeatures,
                       RewriteCone, _one_hot_ops, encode_graph, rewrite_cone)

__all__ = ["IncrementalEmbedder"]


class _State:
    """One cached forward: per-layer activation matrices, row-indexed by
    the graph's encode order, and the graph's pooled readout input.

    The graph reference is strong on purpose: states are keyed by
    ``id(graph)`` and pinning the graph keeps the id from being recycled.
    """

    __slots__ = ("graph", "layers", "pooled")

    def __init__(self, graph: Graph, layers: List[np.ndarray]):
        self.graph = graph
        self.layers = layers      # [h_0 .. h_K], each [n, H]
        self.pooled: Optional[np.ndarray] = None  # [1, H] readout pool


class IncrementalEmbedder:
    """Delta-aware replacement for the encoder's rollout forward.

    ``embed(observation)`` returns exactly what
    ``encoder(observation.meta_graph)`` would — as a plain ndarray, with
    no autograd tape — while reusing cached per-layer activations of each
    graph's ``delta_parent()``.  States become stale the moment the
    encoder weights move: call :meth:`invalidate` (the agent does so from
    ``invalidate_decision_cache``).

    Parameters
    ----------
    encoder:
        The GNN whose forward is being replicated; weights are read fresh
        on every call.
    edge_norm:
        Must match the environment's feature encoding (it shares the
        per-graph feature memo and per-node edge blocks with
        :class:`~repro.rl.features.FeatureCache`).
    capacity:
        Graph states kept (LRU).  Each state pins its graph plus
        ``num_layers + 1`` activation matrices.
    verify:
        When True every :meth:`embed` also runs the full encoder and
        asserts equivalence — the benchmark/equivalence gate.
    """

    def __init__(self, encoder: GraphEmbeddingNetwork,
                 edge_norm: float = DEFAULT_EDGE_NORM,
                 capacity: int = 128,
                 verify: bool = False):
        self.encoder = encoder
        self.edge_norm = float(edge_norm)
        self.verify = bool(verify)
        self._states: LRUCache = LRUCache(max_entries=capacity,
                                          name="embed_state")
        #: ``graph_ids`` arrays per node-count profile: a stable identity
        #: lets the scatter kernel's flat-index memo hit across steps.
        self._graph_ids: LRUCache = LRUCache(max_entries=64)
        #: Diagnostics: graphs embedded via the delta pass, via a full
        #: per-graph pass, delta passes abandoned (cone > n/2), and
        #: verify-mode equivalence checks.
        self.delta_forwards = 0
        self.full_forwards = 0
        self.fallback_fulls = 0
        self.equivalence_checks = 0

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached activations (call whenever weights change)."""
        self._states.clear()

    def stats(self) -> Dict[str, float]:
        """State-cache counters plus how each graph was embedded (delta
        pass, full pass, delta abandoned for a full pass, verify checks)."""
        payload = self._states.stats()
        payload["embed_delta_forwards"] = float(self.delta_forwards)
        payload["embed_full_forwards"] = float(self.full_forwards)
        payload["embed_fallback_fulls"] = float(self.fallback_fulls)
        payload["embed_equivalence_checks"] = float(self.equivalence_checks)
        return payload

    # ------------------------------------------------------------------
    def embed(self, observation) -> np.ndarray:
        """``[num_graphs, embedding_dim]`` — the encoder's output, exactly."""
        dtype = np.dtype(get_default_dtype())
        weights = self._weights()
        graphs = observation.graphs
        states: List[Optional[_State]] = [None] * len(graphs)
        pending: List[Tuple[int, Graph, _State]] = []
        for i, graph in enumerate(graphs):
            key = (id(graph), dtype.str)
            state = self._states.get(key)
            if state is not None and state.graph is graph:
                states[i] = state
                continue
            parent = graph.delta_parent()
            if parent is not None:
                parent_state = self._states.get((id(parent), dtype.str))
                if parent_state is not None and parent_state.graph is parent:
                    pending.append((i, graph, parent_state))
                    continue
            states[i] = self._full_state(graph, dtype, weights)
            self.full_forwards += 1
            self._states.put(key, states[i])

        if pending:
            for (i, graph, _), state in zip(
                    pending, self._delta_states(pending, dtype, weights)):
                if state is None:
                    state = self._full_state(graph, dtype, weights)
                    self.fallback_fulls += 1
                else:
                    self.delta_forwards += 1
                states[i] = state
                self._states.put((id(graph), dtype.str), state)

        # GlobalUpdateLayer, replicated at the meta level from per-graph
        # pooled sums (cached on each state; bit-equal to pooling the
        # spliced batch because bincount buckets accumulate per graph).
        _, _, _, weight_g, bias_g = weights
        num_graphs = len(states)
        pooled_rows = []
        counts = np.zeros(num_graphs, dtype=np.float64)
        for i, state in enumerate(states):
            if state.pooled is None:
                n = state.layers[-1].shape[0]
                state.pooled = _scatter_add_rows(
                    state.layers[-1], self._zero_ids(n), 1)
            pooled_rows.append(state.pooled)
            counts[i] = state.layers[-1].shape[0]
        pooled = np.concatenate(pooled_rows, axis=0) \
            if num_graphs > 1 else pooled_rows[0]
        norm = np.maximum(counts, 1.0).reshape(-1, 1)
        pooled = pooled * (1.0 / norm).astype(dtype, copy=False)
        global_feats = np.zeros((num_graphs, GLOBAL_FEATURE_DIM), dtype=dtype)
        combined = np.concatenate([pooled, global_feats], axis=1)
        out = np.tanh(_rows_matmul(combined, weight_g) + bias_g)

        if self.verify:
            self.equivalence_checks += 1
            with no_grad():
                expected = self.encoder(observation.meta_graph).data
            if dtype == np.float64:
                same = np.array_equal(out, expected)
            else:
                same = np.allclose(out, expected, rtol=1e-4, atol=1e-6)
            if not same:
                raise AssertionError(
                    "incremental GNN forward diverged from the full encoder")
        return out

    # ------------------------------------------------------------------
    def _zero_ids(self, count: int) -> np.ndarray:
        """All-zero segment ids of length ``count`` with stable identity
        (keeps the scatter kernel's flat-index memo warm)."""
        ids = self._graph_ids.get(count)
        if ids is None:
            ids = np.zeros(count, dtype=np.int64)
            self._graph_ids.put(count, ids)
        return ids

    def _weights(self):
        enc = self.encoder
        node = enc.node_update.linear
        gat = [(layer.transform.weight.data, layer.transform.bias.data,
                layer.attn_src.data.reshape(1, -1),
                layer.attn_dst.data.reshape(1, -1))
               for layer in enc.gat_layers]
        readout = enc.global_update.linear
        return (node.weight.data, node.bias.data, gat,
                readout.weight.data, readout.bias.data)

    # ------------------------------------------------------------------
    def _full_state(self, graph: Graph, dtype: np.dtype, weights) -> _State:
        """All layers of one graph from scratch (raw-ndarray replica).

        Runs off the same memoised :class:`GraphFeatures` the environment
        encodes, so the initial graph of an episode costs one dict lookup
        plus the layer arithmetic.
        """
        feats: GraphFeatures = graph.memo(
            ("rl:features", self.edge_norm),
            lambda: encode_graph(graph, self.edge_norm))
        weight_0, bias_0, gat, _, _ = weights
        x = feats.node_features.astype(dtype, copy=False)
        n = x.shape[0]
        edge_feats = feats.edge_features.astype(dtype, copy=False)

        incoming = _scatter_add_rows(edge_feats, feats.edge_dst, n)
        h = _rows_matmul(np.concatenate([incoming, x], axis=1),
                         weight_0) + bias_0
        h = h * (h > 0)
        layers = [h]
        for weight_l, bias_l, attn_src, attn_dst in gat:
            prev = layers[-1]
            h = _rows_matmul(prev, weight_l) + bias_l
            src_scores = (h * attn_src).sum(axis=1, keepdims=True)
            dst_scores = (h * attn_dst).sum(axis=1, keepdims=True)
            logits = src_scores[feats.edge_src] + dst_scores[feats.edge_dst]
            logits = np.where(logits > 0, logits, 0.2 * logits)
            alpha = _segment_softmax(logits, feats.edge_dst, n)
            aggregated = _scatter_add_rows(h[feats.edge_src] * alpha,
                                           feats.edge_dst, n)
            aggregated = aggregated * (aggregated > 0)
            layers.append((prev + aggregated) * 0.5)
        return _State(graph, layers)

    # ------------------------------------------------------------------
    def _delta_states(self, pending: List[Tuple[int, Graph, _State]],
                      dtype: np.dtype, weights
                      ) -> List[Optional[_State]]:
        """Batched delta pass over every pending graph of one observation.

        Works entirely from graph structure (each graph's
        :func:`~repro.rl.features.rewrite_cone`): no graph's full feature
        arrays are touched, which is what lets the rollout path skip
        candidate encoding altogether.  All cones are concatenated so each
        layer is one set of array ops regardless of how many candidates
        the step produced.  A ``None`` entry means "cone too large, do
        that graph in full".
        """
        weight_0, bias_0, gat, _, _ = weights
        states: List[Optional[_State]] = [None] * len(pending)
        # The graphs that need arithmetic, as parallel lists: index into
        # ``pending``, cone structure, parent state, rows per layer so far.
        slots: List[int] = []
        cones: List[RewriteCone] = []
        parents: List[_State] = []
        for k, (_, graph, parent) in enumerate(pending):
            cone = rewrite_cone(graph, len(gat), self.edge_norm)
            count = cone.cone_pos.shape[0]
            if 2 * count > cone.order.shape[0]:
                continue  # would not pay for itself
            if cone.unchanged:
                states[k] = _State(graph, list(parent.layers))
            elif not count:
                # Pure removal: every surviving row is unchanged — splice.
                states[k] = _State(
                    graph, [rows[cone.mapped] for rows in parent.layers])
            else:
                slots.append(k)
                cones.append(cone)
                parents.append(parent)
        if not cones:
            return states
        layers: List[List[np.ndarray]] = [[] for _ in cones]

        # Concatenated index arrays with per-cone row offsets.
        t_offsets = np.zeros(len(cones), dtype=np.int64)
        f_offsets = np.zeros(len(cones), dtype=np.int64)
        t_total = f_total = 0
        for j, cone in enumerate(cones):
            t_offsets[j] = t_total
            f_offsets[j] = f_total
            t_total += cone.transform_pos.shape[0]
            f_total += cone.cone_pos.shape[0]
        edge_src = np.concatenate(
            [c.edge_src_local + t_offsets[j] for j, c in enumerate(cones)])
        segments = np.concatenate(
            [c.segments + f_offsets[j] for j, c in enumerate(cones)])
        cone_local = np.concatenate(
            [c.cone_local + t_offsets[j] for j, c in enumerate(cones)])
        edge_feats = np.concatenate([c.edge_feats for c in cones]) \
            .astype(dtype, copy=False)
        op_indices = np.concatenate([c.op_indices for c in cones])

        def splice(layer_index: int, new_rows: np.ndarray) -> None:
            """Each graph's rows of one layer: the parent's, with the
            recomputed cone rows written over them."""
            for j, cone in enumerate(cones):
                rows = parents[j].layers[layer_index][cone.mapped]
                rows[cone.cone_pos] = new_rows[
                    f_offsets[j]:f_offsets[j] + cone.cone_pos.shape[0]]
                layers[j].append(rows)

        # Layer 0 (node update) over every cone row.
        incoming = _scatter_add_rows(edge_feats, segments, f_total)
        x = _one_hot_ops(op_indices).astype(dtype, copy=False)
        h = _rows_matmul(np.concatenate([incoming, x], axis=1),
                         weight_0) + bias_0
        splice(0, h * (h > 0))

        for layer_index, (weight_l, bias_l, attn_src, attn_dst) \
                in enumerate(gat):
            transformed = np.concatenate(
                [layers[j][-1][c.transform_pos] for j, c in enumerate(cones)])
            h = _rows_matmul(transformed, weight_l) + bias_l
            src_scores = (h * attn_src).sum(axis=1, keepdims=True)
            dst_scores = (h * attn_dst).sum(axis=1, keepdims=True)
            logits = src_scores[edge_src] + dst_scores[cone_local][segments]
            logits = np.where(logits > 0, logits, 0.2 * logits)
            alpha = _segment_softmax(logits, segments, f_total)
            aggregated = _scatter_add_rows(h[edge_src] * alpha,
                                           segments, f_total)
            aggregated = aggregated * (aggregated > 0)
            splice(layer_index + 1,
                   (transformed[cone_local] + aggregated) * 0.5)

        for j, k in enumerate(slots):
            states[k] = _State(pending[k][1], layers[j])
        return states


# ----------------------------------------------------------------------
def _rows_matmul(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``rows @ weight`` with single rows padded to the ``M >= 2`` kernel.

    BLAS dispatches gemv for one-row products, whose accumulation order
    differs from the per-row dot products of gemm — the only shape where a
    row's value depends on how many rows ride along.  Duplicating the row
    (and discarding the copy) restores row consistency.
    """
    if rows.shape[0] == 1:
        return (np.concatenate([rows, rows], axis=0) @ weight)[:1]
    return rows @ weight


def _segment_softmax(logits: np.ndarray, segment_ids: np.ndarray,
                     num_segments: int) -> np.ndarray:
    """Raw-ndarray replica of :func:`~repro.nn.tensor.segment_softmax`."""
    maxes = segment_max(logits, segment_ids, num_segments)
    shifted = logits - maxes[segment_ids]
    exp = np.exp(shifted)
    denom = _scatter_add_rows(exp, segment_ids, num_segments)
    return exp / (denom[segment_ids] + 1e-12)
