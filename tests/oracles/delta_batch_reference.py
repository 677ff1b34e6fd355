"""Per-candidate array oracle for ``repro.rl.features.build_delta_batch``,
compared field by field by ``tests/rl/test_delta_assembly.py``.

The delta batch as it was first assembled: every candidate's cone derived
with its own numpy calls (sorted cone ids, an op-index gather over the
whole graph's table, a ``searchsorted`` for in-cone sources, a parent
position gather, its own divide), then the graphs' blocks joined.  Edge
blocks are read straight from ``graph.in_edges``, not from the per-node
cache.  The one-pass assembly must return the same arrays, bit for bit and
dtype for dtype.
"""

from typing import Sequence

import numpy as np

from repro.ir import Graph
from repro.ir.ops import op_index
from repro.nn import BatchedGraphs
from repro.rl.features import (DEFAULT_EDGE_NORM, EDGE_FEATURE_DIM,
                               GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM,
                               encode_graph, encode_position)

__all__ = ["reference_delta_batch"]


def _in_edges(graph: Graph, nid: int):
    """``(src ids, float64 shape rows)`` of ``nid``'s in-edges, slot order."""
    edges = graph.in_edges(nid)
    return ([e.src for e in edges],
            [graph.nodes[e.src].outputs[e.src_slot].shape.padded(4)
             for e in edges])


def _cone(graph: Graph, parent: Graph, num_layers: int, edge_norm: float):
    """``(op indices, edge feats, edge src, in-cone mask, edge dst, minus
    rows)`` of ``graph``'s rewrite cone, each an array."""
    delta = graph.mutation_delta()
    spread = {n for n in delta.added | delta.rewired if n in graph.nodes}
    for _ in range(num_layers):
        spread |= {e.dst for n in spread for e in graph.out_edges(n)}
    cone_ids = np.sort(np.fromiter(spread, dtype=np.int64, count=len(spread)))
    ops = np.asarray([op_index(graph.nodes[n].op_type) for n in cone_ids],
                     dtype=np.int64)
    position = encode_position(parent)
    removed = np.fromiter(delta.removed, dtype=np.int64,
                          count=len(delta.removed))
    old = cone_ids[cone_ids < position.shape[0]]
    minus = position[np.concatenate([removed, old])]
    srcs, rows, dsts = [], [], []
    for i, nid in enumerate(cone_ids.tolist()):
        block_srcs, block_rows = _in_edges(graph, nid)
        srcs += block_srcs
        rows += block_rows
        dsts += [i] * len(block_srcs)
    if not srcs:
        return (ops, np.zeros((0, EDGE_FEATURE_DIM), dtype=np.float32),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool),
                np.zeros(0, dtype=np.int64), minus)
    srcs = np.asarray(srcs, dtype=np.int64)
    local = np.searchsorted(cone_ids, srcs)
    in_cone = cone_ids[np.minimum(local, cone_ids.shape[0] - 1)] == srcs
    local[~in_cone] = position[srcs[~in_cone]]
    feats = (np.asarray(rows, dtype=np.float64) / edge_norm).astype(np.float32)
    return ops, feats, local, in_cone, np.asarray(dsts, dtype=np.int64), minus


def reference_delta_batch(graphs: Sequence[Graph], num_layers: int,
                          edge_norm: float = DEFAULT_EDGE_NORM
                          ) -> BatchedGraphs:
    """``build_delta_batch(graphs[0], graphs[1:], num_layers, edge_norm)``,
    one candidate's arrays at a time."""
    current = graphs[0]
    ops_blocks, feat_blocks, src_blocks, dst_blocks = [], [], [], []
    minus_blocks, stored, minus_counts, parents = [], [], [], []
    start = 0
    for graph in graphs:
        if graph is not current and graph.delta_parent() is current:
            ops, feats, src, in_cone, dst, minus = _cone(
                graph, current, num_layers, edge_norm)
            src = src + start * in_cone
            minus_blocks.append(minus)
            parents.append(0)
        else:
            full = encode_graph(graph, edge_norm)
            ops = np.argmax(full.node_features, axis=1).astype(np.int64)
            feats, src, dst = full.edge_features, full.edge_src + start, \
                full.edge_dst
            minus = np.zeros(0, dtype=np.int64)
            parents.append(-1)
        ops_blocks.append(ops)
        feat_blocks.append(feats)
        src_blocks.append(src)
        dst_blocks.append(dst + start)
        stored.append(ops.shape[0])
        minus_counts.append(minus.shape[0])
        start += ops.shape[0]
    ops = np.concatenate(ops_blocks)
    node_features = np.zeros((ops.shape[0], NODE_FEATURE_DIM),
                             dtype=np.float32)
    node_features[np.arange(ops.shape[0]), ops] = 1.0
    ids = np.arange(len(graphs), dtype=np.int64)
    return BatchedGraphs(
        node_features=node_features,
        edge_features=np.concatenate(feat_blocks, axis=0),
        edge_src=np.concatenate(src_blocks),
        edge_dst=np.concatenate(dst_blocks),
        graph_ids=np.concatenate([np.repeat(ids, stored),
                                  np.repeat(ids, minus_counts)]),
        num_graphs=len(graphs),
        global_features=np.zeros((len(graphs), GLOBAL_FEATURE_DIM),
                                 dtype=np.float32),
        pool_rows=np.concatenate([np.arange(start, dtype=np.int64)]
                                 + minus_blocks),
        pool_signs=np.concatenate([np.ones(start),
                                   np.full(sum(minus_counts), -1.0)]),
        parents=np.asarray(parents, dtype=np.int64),
        graph_sizes=np.asarray([len(g.nodes) for g in graphs],
                               dtype=np.int64),
        num_cones=parents.count(0),
    )
