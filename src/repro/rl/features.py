"""Feature encoding of computation graphs for the GNN agent.

Node attributes are a one-hot encoding of the operator type (the paper keeps
a table of ~40 operators); edge attributes are the tensor shape padded to
rank 4 and normalised by the constant ``M`` (4096 in the paper's Appendix A);
the global attribute is initialised to zero and refined by the learnable
global-update layer.

The *meta-graph* stacks the current graph and every candidate graph into one
:class:`~repro.nn.gnn.BatchedGraphs` so the whole state is encoded in a
single GNN forward pass.

Encoding is the RL loop's hottest path — every environment step encodes the
current graph plus up to ``max_candidates`` candidate graphs — so it is
incremental on three levels:

* :func:`encode_graph` is vectorised (one-hot rows via fancy indexing, edge
  features assembled from per-node blocks, a single normalisation pass) and
  caches each node's incoming-edge block in the graph's own per-node memo
  table (:meth:`~repro.ir.graph.Graph.node_cache`).  Because ``Graph.copy``
  carries those tables over and every mutation invalidates exactly the
  affected nodes, a candidate produced by ``parent.copy()`` plus surgery
  re-derives *only* the rows its :class:`~repro.ir.graph.GraphDelta`
  touched — everything else is patched in from the parent's arrays.
* :class:`FeatureCache` memoises whole :class:`GraphFeatures` per structural
  hash, so re-visited graphs (the current graph was one of the previous
  step's candidates; rules re-propose similar rewrites every step) are free.
* :func:`build_meta_graph` assembles the batch from the cached blocks with
  pure array ops, and :func:`combine_meta_graphs` splices several
  observations into one batch for the batched PPO update.

The original per-edge Python-loop encoder is kept as the ``incremental=False``
reference path; the equivalence suite asserts both produce bit-for-bit
identical arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.lru import LRUCache
from ..ir.graph import Graph
from ..ir.ops import num_op_types, op_index
from ..nn.gnn import BatchedGraphs

__all__ = ["GraphFeatures", "FeatureCache", "encode_graph", "encode_order",
           "build_meta_graph", "LazyMetaGraph",
           "combine_meta_graphs", "NODE_FEATURE_DIM", "EDGE_FEATURE_DIM",
           "GLOBAL_FEATURE_DIM"]

#: Edge-attribute normalisation constant (Appendix A of the paper).
DEFAULT_EDGE_NORM = 4096.0

NODE_FEATURE_DIM = num_op_types()
EDGE_FEATURE_DIM = 4
GLOBAL_FEATURE_DIM = 1

#: Per-node cache key for incoming-edge blocks (see :func:`encode_graph`).
_EDGE_ROWS_KEY = "rl:edge_rows"

_EMPTY_SRC = np.zeros(0, dtype=np.int64)
_EMPTY_FEATS = np.zeros((0, EDGE_FEATURE_DIM))


@dataclass
class GraphFeatures:
    """Feature arrays of a single graph."""

    node_features: np.ndarray  # [N, NODE_FEATURE_DIM]
    edge_features: np.ndarray  # [E, EDGE_FEATURE_DIM]
    edge_src: np.ndarray       # [E]
    edge_dst: np.ndarray       # [E]

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])


def encode_order(graph: Graph) -> np.ndarray:
    """The row order feature arrays use: live node ids, ascending.

    Any deterministic order works for the GNN — message passing treats rows
    symmetrically and per-graph pooling is bucketed — it only has to be
    *the same* order everywhere features, meta batches and the delta
    embedder meet.  Sorted ids win over the previous topological order
    because they are derived with two C-speed array ops instead of a
    Python Kahn traversal, which dominated per-candidate encoding cost.
    Memoised on the graph (dropped on mutation, carried across ``copy``).
    """
    return graph.memo("rl:order", lambda: np.sort(
        np.fromiter(graph.nodes.keys(), dtype=np.int64,
                    count=len(graph.nodes))))


def _encode_graph_reference(graph: Graph, edge_norm: float) -> GraphFeatures:
    """The original one-shot encoder: Python loops over every node and edge.

    Kept as the eager baseline for benchmarks and as the reference the
    incremental encoder is checked against bit-for-bit.
    """
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
            edge_feats.append(np.asarray(spec.shape.padded(4), dtype=np.float64) / edge_norm)
    if edge_feats:
        edge_features = np.stack(edge_feats)
        edge_src = np.asarray(srcs, dtype=np.int64)
        edge_dst = np.asarray(dsts, dtype=np.int64)
    else:
        edge_features = np.zeros((0, EDGE_FEATURE_DIM))
        edge_src = np.zeros(0, dtype=np.int64)
        edge_dst = np.zeros(0, dtype=np.int64)
    return GraphFeatures(node_features, edge_features, edge_src, edge_dst)


def encode_graph(graph: Graph, edge_norm: float = DEFAULT_EDGE_NORM,
                 incremental: bool = True) -> GraphFeatures:
    """Encode one computation graph into node/edge feature arrays.

    The incremental path (default) assembles everything with array ops and
    reuses per-node incoming-edge blocks cached on the graph itself: the
    block for node ``n`` is ``(src_ids, shape_rows)`` and lives in
    ``graph.node_cache("rl:edge_rows")``, which every mutation invalidates
    per affected node and ``Graph.copy`` hands to rewrite candidates *as
    filled at copy time*.  Encoding a candidate therefore rebuilds only the
    blocks of the nodes its mutation delta changed **if its parent was
    encoded before the copy**; blocks the parent had not built by then are
    rebuilt by each descendant that is encoded.  Under ``LazyMetaGraph``
    (the default RL path) a graph is often copied before anything encoded
    it, so an encode can rebuild more than its delta.

    ``incremental=False`` runs the original per-edge Python loop.  Both
    paths return bit-for-bit identical arrays.
    """
    if not incremental:
        return _encode_graph_reference(graph, edge_norm)

    order_arr = encode_order(graph)
    order = order_arr.tolist()
    n = len(order)
    nodes = graph.nodes

    # One-hot node rows via fancy indexing (no per-node Python writes): the
    # graph maintains an id-indexed op table incrementally across rewrites.
    node_features = np.zeros((n, NODE_FEATURE_DIM))
    node_features[np.arange(n), graph.op_index_table()[order_arr]] = 1.0

    # Incoming-edge blocks, cached per node and invalidated by mutation.
    rows = graph.node_cache(_EDGE_ROWS_KEY)
    rows_get = rows.get
    src_blocks: List[np.ndarray] = []
    feat_blocks: List[np.ndarray] = []
    dst_counts = np.zeros(n, dtype=np.int64)
    for i, nid in enumerate(order):
        block = rows_get(nid)
        if block is None:
            edges = graph.in_edges(nid)
            if edges:
                block = (
                    np.asarray([e.src for e in edges], dtype=np.int64),
                    np.asarray([nodes[e.src].outputs[e.src_slot].shape.padded(4)
                                for e in edges], dtype=np.float64),
                )
            else:
                block = (_EMPTY_SRC, _EMPTY_FEATS)
            rows[nid] = block
        srcs, feats = block
        if srcs.shape[0]:
            src_blocks.append(srcs)
            feat_blocks.append(feats)
            dst_counts[i] = srcs.shape[0]

    if src_blocks:
        # Node-id -> row-position lookup as a dense array (ids are
        # monotonic, so `id_bound` bounds the table size).
        position = np.empty(graph.id_bound, dtype=np.int64)
        position[order_arr] = np.arange(n, dtype=np.int64)
        edge_src = position[np.concatenate(src_blocks)]
        edge_dst = np.repeat(np.arange(n, dtype=np.int64), dst_counts)
        edge_features = np.concatenate(feat_blocks) / edge_norm
    else:
        edge_features = np.zeros((0, EDGE_FEATURE_DIM))
        edge_src = np.zeros(0, dtype=np.int64)
        edge_dst = np.zeros(0, dtype=np.int64)
    return GraphFeatures(node_features, edge_features, edge_src, edge_dst)


class FeatureCache:
    """LRU cache of :class:`GraphFeatures` keyed on the structural hash.

    The environment sees the same graphs over and over: the current graph
    was one of the previous step's candidates, rules re-propose rewrites of
    unchanged regions, and evaluation episodes retrace training ones.  All
    of those are hits: graphs that differ only by node-id relabelling
    (inputs positional) hash equal, and a hash is shared only if a node
    bijection preserves op, attrs, output shapes, ordered input digests and
    every node's consumer digests (see :meth:`Graph.structural_hash`).
    Feature arrays are immutable once built — callers must not write to the
    returned arrays.
    """

    def __init__(self, max_entries: int = 1024,
                 edge_norm: float = DEFAULT_EDGE_NORM):
        self.max_entries = int(max_entries)
        self.edge_norm = float(edge_norm)
        self._entries = LRUCache(max_entries, name="feature")
        #: Hits served by the graph's own whole-graph memo (tier one);
        #: the LRU tracks its own hits/misses (tier two).
        self._memo_hits = 0
        #: Encodes of graphs with no memoised hash: they never consult the
        #: LRU, so its miss counter does not see them.
        self._keyless_misses = 0

    def encode(self, graph: Graph) -> GraphFeatures:
        """Encode ``graph``, reusing the cached arrays when seen before.

        Three tiers, cheapest first:

        * repeat encodes of the *same object* return the graph's own
          whole-graph memo (a dict lookup, no hashing);
        * graphs whose structural hash is *already memoised* — the current
          graph of every environment step, re-visited states — share one
          entry per structure in the LRU;
        * everything else (freshly materialised candidates) is delta-encoded
          directly.  Hashing a candidate costs several times more than
          patching its arrays from the parent's cached blocks, so the hash
          tier is only consulted when the hash comes for free.
        """
        memo_key = ("rl:features", self.edge_norm)
        feats = graph.memo_peek(memo_key)
        if feats is not None:
            self._memo_hits += 1
            return feats
        return graph.memo(memo_key, lambda: self._encode_uncached(graph))

    def _encode_uncached(self, graph: Graph) -> GraphFeatures:
        # "hash" is the memo key Graph.structural_hash() itself uses.
        key = graph.memo_peek("hash")
        if key is not None:
            feats = self._entries.get(key)
            if feats is not None:
                return feats
        else:
            self._keyless_misses += 1
        feats = encode_graph(graph, self.edge_norm)
        if key is not None:
            self._entries.put(key, feats)
        return feats

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._memo_hits + self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses + self._keyless_misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for benchmark / service reporting."""
        return {"hits": float(self.hits), "misses": float(self.misses),
                "hit_rate": self.hit_rate, "entries": float(len(self._entries)),
                "evictions": float(self._entries.evictions)}

    def clear(self) -> None:
        self._entries.clear()
        self._entries.reset_stats()
        self._memo_hits = 0
        self._keyless_misses = 0


def build_meta_graph(graphs: Sequence[Graph],
                     edge_norm: float = DEFAULT_EDGE_NORM,
                     cache: Optional[FeatureCache] = None,
                     incremental: bool = True) -> BatchedGraphs:
    """Batch several graphs (current graph first, then candidates) together.

    With a :class:`FeatureCache` the per-graph arrays come straight from the
    cache (``cache.edge_norm`` applies); assembly is pure concatenation.
    """
    if cache is not None:
        feats_list = [cache.encode(g) for g in graphs]
    else:
        feats_list = [encode_graph(g, edge_norm, incremental=incremental)
                      for g in graphs]
    counts = np.asarray([f.num_nodes for f in feats_list], dtype=np.int64)
    offsets = np.zeros(len(feats_list), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return BatchedGraphs(
        node_features=np.concatenate([f.node_features for f in feats_list],
                                     axis=0),
        edge_features=np.concatenate([f.edge_features for f in feats_list],
                                     axis=0),
        edge_src=np.concatenate([f.edge_src + off
                                 for f, off in zip(feats_list, offsets)]),
        edge_dst=np.concatenate([f.edge_dst + off
                                 for f, off in zip(feats_list, offsets)]),
        graph_ids=np.repeat(np.arange(len(feats_list), dtype=np.int64), counts),
        num_graphs=len(feats_list),
        global_features=np.zeros((len(feats_list), GLOBAL_FEATURE_DIM)),
    )


class LazyMetaGraph:
    """A :class:`BatchedGraphs` that assembles itself on first use.

    On the incremental path the rollout loop never reads the meta batch:
    action selection runs through the delta embedder
    (:class:`~repro.rl.embed.IncrementalEmbedder`), which works off
    per-graph structure.  Materialising the batch eagerly would encode
    every candidate each step just in case — the single largest cost on
    small graphs.  This proxy defers :func:`build_meta_graph` until some
    consumer (PPO's batched update, a gradient forward, verify mode)
    actually touches an attribute, then memoises the result for the
    observation's lifetime, so training epochs still pay for assembly only
    once per observation.
    """

    __slots__ = ("_graphs", "_cache", "_built")

    def __init__(self, graphs: Sequence[Graph],
                 cache: Optional[FeatureCache] = None):
        self._graphs = list(graphs)
        self._cache = cache
        self._built: Optional[BatchedGraphs] = None

    def materialise(self) -> BatchedGraphs:
        if self._built is None:
            self._built = build_meta_graph(self._graphs, cache=self._cache)
        return self._built

    @property
    def is_materialised(self) -> bool:
        return self._built is not None

    def __getattr__(self, name):
        return getattr(self.materialise(), name)


def combine_meta_graphs(batches: Sequence[BatchedGraphs]
                        ) -> Tuple[BatchedGraphs, np.ndarray]:
    """Splice several meta-graphs into one batch for a single GNN forward.

    Returns the combined batch plus, for each input batch, the index of its
    first graph in the combined graph numbering (so callers can recover
    which embedding rows belong to which observation).
    """
    node_offset = 0
    graph_offset = 0
    graph_offsets = np.zeros(len(batches), dtype=np.int64)
    node_blocks, edge_blocks, src_blocks, dst_blocks, gid_blocks = \
        [], [], [], [], []
    global_blocks = []
    for i, batch in enumerate(batches):
        graph_offsets[i] = graph_offset
        node_blocks.append(batch.node_features)
        edge_blocks.append(batch.edge_features)
        src_blocks.append(batch.edge_src + node_offset)
        dst_blocks.append(batch.edge_dst + node_offset)
        gid_blocks.append(batch.graph_ids + graph_offset)
        global_blocks.append(batch.global_features)
        node_offset += batch.num_nodes
        graph_offset += batch.num_graphs
    combined = BatchedGraphs(
        node_features=np.concatenate(node_blocks, axis=0),
        edge_features=np.concatenate(edge_blocks, axis=0),
        edge_src=np.concatenate(src_blocks),
        edge_dst=np.concatenate(dst_blocks),
        graph_ids=np.concatenate(gid_blocks),
        num_graphs=graph_offset,
        global_features=np.concatenate(global_blocks, axis=0),
    )
    return combined, graph_offsets
