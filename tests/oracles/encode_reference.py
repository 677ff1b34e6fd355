"""Per-edge-loop oracle for ``repro.rl.features.encode_graph`` and
``build_meta_graph``, compared by
``tests/rl/test_incremental_features.py`` (``TestIncrementalEncoding``,
``TestDeltaBatch`` and the composite rollout test).

The original one-shot encoder: Python loops over every node and edge, no
per-node blocks, no memo on the graph, everything in float64 and rounded
once to the encoder's float32 at the end.  The vectorised, block-caching
encoder must return bit-for-bit the same arrays.
"""

from typing import List, Sequence

import numpy as np

from repro.ir import Graph
from repro.ir.ops import op_index
from repro.nn import BatchedGraphs
from repro.rl.features import (DEFAULT_EDGE_NORM, EDGE_FEATURE_DIM,
                               GLOBAL_FEATURE_DIM, NODE_FEATURE_DIM)

__all__ = ["reference_encode_graph", "reference_meta_graph"]


def reference_encode_graph(graph: Graph,
                           edge_norm: float = DEFAULT_EDGE_NORM
                           ) -> BatchedGraphs:
    """``encode_graph(graph, edge_norm)``, one node and one edge at a time."""
    order = sorted(graph.nodes)
    index = {nid: i for i, nid in enumerate(order)}
    n = len(order)

    node_features = np.zeros((n, NODE_FEATURE_DIM))
    for nid, i in index.items():
        node_features[i, op_index(graph.nodes[nid].op_type)] = 1.0

    srcs: List[int] = []
    dsts: List[int] = []
    edge_feats: List[np.ndarray] = []
    for nid in order:
        for edge in graph.in_edges(nid):
            srcs.append(index[edge.src])
            dsts.append(index[edge.dst])
            spec = graph.nodes[edge.src].outputs[edge.src_slot]
            edge_feats.append(
                np.asarray(spec.shape.padded(4), dtype=np.float64) / edge_norm)
    if edge_feats:
        edge_features = np.stack(edge_feats)
        edge_src = np.asarray(srcs, dtype=np.int64)
        edge_dst = np.asarray(dsts, dtype=np.int64)
    else:
        edge_features = np.zeros((0, EDGE_FEATURE_DIM))
        edge_src = np.zeros(0, dtype=np.int64)
        edge_dst = np.zeros(0, dtype=np.int64)
    return BatchedGraphs(
        node_features=node_features.astype(np.float32),
        edge_features=edge_features.astype(np.float32),
        edge_src=edge_src, edge_dst=edge_dst,
        graph_ids=np.zeros(n, dtype=np.int64), num_graphs=1,
        global_features=np.zeros((1, GLOBAL_FEATURE_DIM), dtype=np.float32))


def reference_meta_graph(graphs: Sequence[Graph],
                         edge_norm: float = DEFAULT_EDGE_NORM) -> BatchedGraphs:
    """``build_meta_graph(graphs, edge_norm)`` from reference encodings,
    spliced graph by graph."""
    feats = [reference_encode_graph(graph, edge_norm) for graph in graphs]
    offsets = np.cumsum([0] + [f.num_nodes for f in feats[:-1]])
    return BatchedGraphs(
        node_features=np.concatenate([f.node_features for f in feats]),
        edge_features=np.concatenate([f.edge_features for f in feats]),
        edge_src=np.concatenate(
            [f.edge_src + off for f, off in zip(feats, offsets)]),
        edge_dst=np.concatenate(
            [f.edge_dst + off for f, off in zip(feats, offsets)]),
        graph_ids=np.concatenate(
            [np.full(f.num_nodes, i, dtype=np.int64)
             for i, f in enumerate(feats)]),
        num_graphs=len(feats),
        global_features=np.zeros((len(feats), GLOBAL_FEATURE_DIM),
                                 dtype=np.float32),
    )
