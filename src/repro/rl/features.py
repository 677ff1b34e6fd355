"""Feature encoding of computation graphs for the GNN agent.

Node attributes are a one-hot encoding of the operator type (the paper keeps
a table of ~40 operators); edge attributes are the tensor shape padded to
rank 4 and normalised by the constant ``M`` (4096 in the paper's Appendix A);
the global attribute is initialised to zero and refined by the learnable
global-update layer.

The *meta-graph* stacks the current graph and every candidate graph into one
:class:`~repro.nn.gnn.BatchedGraphs` so the whole state is encoded in a
single GNN forward pass.  Feature arrays are born float32, the encoder's one
precision (edge rows are divided in float64 and rounded once).

Encoding is the RL loop's hottest path — every environment step encodes the
current graph plus up to ``max_candidates`` candidate graphs — so it is
incremental on three levels:

* :func:`encode_graph` is vectorised (one-hot rows via fancy indexing, edge
  features assembled from per-node blocks, a single normalisation pass) and
  memoises each node's incoming-edge block on the node
  (:meth:`~repro.ir.graph.Graph.node_memo`).  A candidate produced by
  ``parent.copy()`` plus surgery shares every node but its
  :class:`~repro.ir.graph.GraphDelta`'s added and rewired ones with its
  parent, so it builds *only* those nodes' blocks — whichever of the two
  was encoded first.
* :class:`FeatureCache` memoises a graph's whole encoding — a one-graph
  :class:`~repro.nn.gnn.BatchedGraphs`, the one batch type there is — on
  the graph object, so a graph encoded twice (the current graph was one of
  the previous step's candidates) is free the second time.
* :func:`combine_meta_graphs` splices batches with pure array ops: one-graph
  encodes into a full meta-graph (:func:`build_meta_graph`), several
  observations' delta batches into one batch for the PPO update.

On the default path candidates are not encoded at all.  A candidate is its
parent plus one rewrite, and only its *cone* — the nodes the rewrite changed,
spread one hop downstream per GAT layer — can differ from the parent in any
layer of the encoder.  :func:`rewrite_cone` derives that structure from a
candidate graph in plain Python, as cone-local indices and parent ids; the
environment remembers it per match and hands it to later steps that left
its footprint alone, so a candidate graph is built only when no cone was
handed down (or when the agent picks it).  :func:`build_delta_batch` turns
the cones of a whole observation into one batch, with one set of array ops,
holding the current graph's rows in full and each candidate's cone rows
only.  That one batch, memoised on the observation
(:meth:`~repro.rl.env.Observation.delta_batch`), is what the agent acts on
and what the PPO update trains on.  :func:`build_meta_graph`, the full
meta-graph, is what the reference forward encodes
(``tests/oracles/ppo_reference.py::agent_forward``): what the delta batch is
tested against.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..ir.graph import Graph, GraphDelta, NodeId
from ..ir.ops import num_op_types
from ..nn.gnn import BatchedGraphs

__all__ = ["FeatureCache", "encode_graph", "encode_order",
           "encode_position", "RewriteCone", "rewrite_cone",
           "build_meta_graph", "build_delta_batch", "combine_meta_graphs",
           "NODE_FEATURE_DIM", "EDGE_FEATURE_DIM", "GLOBAL_FEATURE_DIM"]

#: Edge-attribute normalisation constant (Appendix A of the paper).
DEFAULT_EDGE_NORM = 4096.0

NODE_FEATURE_DIM = num_op_types()
EDGE_FEATURE_DIM = 4
GLOBAL_FEATURE_DIM = 1

#: Node-memo key of incoming-edge blocks (see :func:`encode_graph`).
_EDGE_ROWS_KEY = "rl:edge_rows"

_EMPTY_FEATS = np.zeros((0, EDGE_FEATURE_DIM), dtype=np.float32)
_NO_BLOCK = ((), ())


def encode_order(graph: Graph) -> np.ndarray:
    """The row order feature arrays use: live node ids, ascending.

    Any deterministic order works for the GNN — message passing treats rows
    symmetrically and per-graph pooling is bucketed — it only has to be
    *the same* order everywhere features, meta batches and rewrite cones
    meet.  Sorted ids win over the previous topological order
    because they are derived with two C-speed array ops instead of a
    Python Kahn traversal, which dominated per-candidate encoding cost.
    Memoised on the graph (dropped on mutation, carried across ``copy``).
    """
    return graph.memo("rl:order", lambda: np.sort(
        np.fromiter(graph.nodes.keys(), dtype=np.int64,
                    count=len(graph.nodes))))


def encode_position(graph: Graph) -> np.ndarray:
    """Dense node-id -> row table of :func:`encode_order` (memoised likewise).

    Ids are monotonic, so ``graph.id_bound`` bounds the table; entries of
    dead ids are garbage and never read.  Callers must not write to it.
    """
    def build() -> np.ndarray:
        order = encode_order(graph)
        position = np.empty(graph.id_bound, dtype=np.int64)
        position[order] = np.arange(order.shape[0], dtype=np.int64)
        return position
    return graph.memo("rl:position", build)


def _edge_block(graph: Graph, nid: NodeId) -> tuple:
    """Node ``nid``'s incoming-edge block ``(src_ids, shape_rows)``: tuples
    of the source ids and of their padded shapes (ints, not normalised).

    Built on a miss and kept in the node's memo.  The one builder behind the
    full encode and the cone derivation, so a destination's edges — and the
    order its messages accumulate in — are the same whichever path reads
    them.
    """
    memo = graph.node_memo(nid)
    block = memo.get(_EDGE_ROWS_KEY)
    if block is None:
        edges = graph.in_edges(nid)
        if edges:
            nodes = graph.nodes
            block = (
                tuple([e.src for e in edges]),
                tuple([nodes[e.src].outputs[e.src_slot].shape.padded(4)
                       for e in edges]),
            )
        else:
            block = _NO_BLOCK
        memo[_EDGE_ROWS_KEY] = block
    return block


def _normalised(shape_rows: List[Tuple[int, ...]],
                edge_norm: float) -> np.ndarray:
    """Edge feature rows: shapes divided in float64, rounded once to the
    encoder's float32."""
    return (np.asarray(shape_rows, dtype=np.float64) / edge_norm).astype(
        np.float32)


def _one_hot_ops(op_indices: np.ndarray) -> np.ndarray:
    """``[len(op_indices), NODE_FEATURE_DIM]`` one-hot operator rows."""
    rows = np.zeros((op_indices.shape[0], NODE_FEATURE_DIM), dtype=np.float32)
    rows[np.arange(op_indices.shape[0]), op_indices] = 1.0
    return rows


def encode_graph(graph: Graph,
                 edge_norm: float = DEFAULT_EDGE_NORM) -> BatchedGraphs:
    """Encode one computation graph: a one-graph :class:`BatchedGraphs`.

    Everything is assembled with array ops from per-node incoming-edge
    blocks: the block for node ``n`` is ``(src_ids, shape_rows)``, memoised
    on the node and shared with every copy that shares the node.  When the
    chosen candidate becomes the next current graph, its one full encode
    (when the agent first acts on it, see :func:`build_delta_batch`) builds
    at most the blocks of its rewrite's added and rewired nodes — none,
    when its cone was derived from that very graph object.
    """
    order_arr = encode_order(graph)
    order = order_arr.tolist()
    n = len(order)

    # One-hot node rows via fancy indexing (no per-node Python writes): the
    # graph maintains an id-indexed op table incrementally across rewrites.
    node_features = _one_hot_ops(graph.op_index_table()[order_arr])

    src_ids: List[NodeId] = []
    shape_rows: List[Tuple[int, ...]] = []
    dst_counts = [0] * n
    for i, nid in enumerate(order):
        srcs, rows = _edge_block(graph, nid)
        if srcs:
            src_ids += srcs
            shape_rows += rows
            dst_counts[i] = len(srcs)

    if src_ids:
        edge_src = encode_position(graph)[np.asarray(src_ids, dtype=np.int64)]
        edge_dst = np.repeat(np.arange(n, dtype=np.int64), dst_counts)
        edge_features = _normalised(shape_rows, edge_norm)
    else:
        edge_features = _EMPTY_FEATS
        edge_src = np.zeros(0, dtype=np.int64)
        edge_dst = np.zeros(0, dtype=np.int64)
    return BatchedGraphs(
        node_features=node_features, edge_features=edge_features,
        edge_src=edge_src, edge_dst=edge_dst,
        graph_ids=np.zeros(n, dtype=np.int64), num_graphs=1,
        global_features=np.zeros((1, GLOBAL_FEATURE_DIM), dtype=np.float32))


class FeatureCache:
    """Counted access to each graph's own :func:`encode_graph` memo.

    A graph's feature arrays are memoised on the graph itself (the
    whole-graph memo ``("rl:features", edge_norm)``, dropped by any
    mutation), so a repeat encode of the *same object* — the chosen
    candidate becoming the next step's current graph, a meta-graph
    built twice — is a dict lookup.  Re-visited *structures* never
    get here: the environment memoises whole observations per structural
    hash upstream.  Feature arrays are immutable once built — callers must
    not write to the returned arrays.
    """

    def __init__(self, edge_norm: float = DEFAULT_EDGE_NORM):
        self.edge_norm = float(edge_norm)
        #: Encodes served from the graph's memo / that ran
        #: :func:`encode_graph`.
        self.hits = 0
        self.misses = 0

    def encode(self, graph: Graph) -> BatchedGraphs:
        """Encode ``graph``, reusing its memoised arrays when it was encoded
        before (with this ``edge_norm``) and not mutated since."""
        memo_key = ("rl:features", self.edge_norm)
        feats = graph.memo_peek(memo_key)
        if feats is not None:
            self.hits += 1
            return feats
        self.misses += 1
        return graph.memo(memo_key,
                          lambda: encode_graph(graph, self.edge_norm))

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before the first encode."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for benchmark / service reporting."""
        return {"hits": float(self.hits), "misses": float(self.misses),
                "hit_rate": self.hit_rate}


def build_meta_graph(graphs: Sequence[Graph],
                     edge_norm: float = DEFAULT_EDGE_NORM,
                     cache: Optional[FeatureCache] = None) -> BatchedGraphs:
    """Batch several graphs (current graph first, then candidates) together,
    every one in full: :func:`combine_meta_graphs` of their
    :func:`encode_graph` batches (from ``cache``, whose ``edge_norm``
    applies, when one is given)."""
    if cache is not None:
        return combine_meta_graphs([cache.encode(g) for g in graphs])[0]
    return combine_meta_graphs([encode_graph(g, edge_norm)
                                for g in graphs])[0]


class RewriteCone:
    """What one rewrite can change in a candidate's encoding, as structure.

    Plain Python lists as long as the cone, its in-edges or the parent rows
    it replaces — none as long as the graph — holding parent node ids and
    cone-local indices, never an id the rewrite created;
    :func:`build_delta_batch` turns the cones of a whole observation into
    arrays at once.  Nothing depends on weights or on the edge
    normalisation, so one derivation serves every delta batch the candidate
    appears in — and, since it names no fresh id, every later parent whose
    steps left the nodes it was read from (:meth:`reads`) alone.
    """

    __slots__ = ("num_layers", "size_delta", "op_indices", "edge_src",
                 "src_in_cone", "edge_dst", "edge_rows", "minus_ids")

    #: The encoder depth the cone was spread for.
    num_layers: int
    #: The candidate's node count minus its parent's.
    size_delta: int
    #: The operator index of each cone node, in ascending node-id order (a
    #: node the rewrite added sorts after every parent node, in creation
    #: order); a cone node's *cone-local index* is its position here.
    op_indices: List[int]
    #: In-edges of the cone nodes, each destination's block contiguous and in
    #: slot order: the source (a cone-local index where ``src_in_cone``,
    #: else the source's node id in the parent), the destination as a
    #: cone-local index and the source's padded shape (not normalised).
    edge_src: List[int]
    src_in_cone: List[bool]
    edge_dst: List[int]
    edge_rows: List[Tuple[int, ...]]
    #: Parent node ids whose rows the candidate no longer holds as they
    #: are: its removed nodes, then the old ids among its cone nodes.
    minus_ids: List[NodeId]

    def reads(self) -> List[NodeId]:
        """The parent ids the cone was read from beyond the rewrite's own
        footprint: its removed and old cone nodes (each one's op, in-list
        and out-list) and its in-edges' sources outside the cone (each
        one's output shape)."""
        return self.minus_ids + [src for src, inside in zip(
            self.edge_src, self.src_in_cone) if not inside]


def rewrite_cone(graph: Graph, num_layers: int) -> Optional[RewriteCone]:
    """The cone of ``graph``'s rewrite against its ``delta_parent()``.

    ``None`` when the graph has no valid delta parent (the caller then
    treats it as a graph of its own).  A node is *dirty* when the rewrite
    changed its inputs — the delta's ``added`` and ``rewired`` sets; every
    other surviving node has the feature row and in-edge block it had in
    the parent.  Influence travels one hop downstream per GAT layer, so the
    dirty set spread ``num_layers`` hops along out-edges covers every row
    any layer can change; the rows outside it equal the parent's rows in
    every layer.  Derived on every call: the environment keeps a
    candidate's cone with its match, not with a graph.
    """
    parent = graph.delta_parent()
    if parent is None:
        return None
    return _derive_cone(graph, parent, graph.mutation_delta(), num_layers)


def _derive_cone(graph: Graph, parent: Graph, delta: GraphDelta,
                 num_layers: int) -> RewriteCone:
    nodes = graph.nodes
    dirty = {nid for nid in delta.added | delta.rewired if nid in nodes}
    spread = set(dirty)
    out_edges = graph._out_edges
    for _ in range(num_layers):
        grown = set(spread)
        for nid in spread:
            for edge in out_edges[nid]:
                grown.add(edge.dst)
        if len(grown) == len(spread):
            break
        spread = grown

    cone = RewriteCone()
    cone.num_layers = num_layers
    cone.size_delta = len(nodes) - len(parent.nodes)
    cone_ids = sorted(spread)
    op_ids = graph._op_ids
    cone.op_indices = [op_ids[nid] for nid in cone_ids]
    # Ids are monotonic: a cone id below the parent's bound existed in the
    # parent, anything above was added by the rewrite.
    bound = parent.id_bound
    cone.minus_ids = list(delta.removed) + [nid for nid in cone_ids
                                            if nid < bound]
    local = {nid: i for i, nid in enumerate(cone_ids)}
    cone.edge_src, cone.src_in_cone, cone.edge_dst, cone.edge_rows = \
        edge_src, in_cone, edge_dst, edge_rows = [], [], [], []
    for i, nid in enumerate(cone_ids):
        srcs, rows = _edge_block(graph, nid)
        edge_rows += rows
        for src in srcs:
            # A source outside the cone is a surviving node the rewrite
            # left alone: it has its parent row.  Added nodes are all in
            # the cone.
            j = local.get(src)
            in_cone.append(j is not None)
            edge_src.append(src if j is None else j)
            edge_dst.append(i)
    return cone


def build_delta_batch(current: Graph,
                      candidates: Iterable[Union[Graph, RewriteCone]],
                      num_layers: int, edge_norm: float = DEFAULT_EDGE_NORM,
                      cache: Optional[FeatureCache] = None) -> BatchedGraphs:
    """The meta-graph of ``current`` and ``candidates``, candidates stored
    as cones.

    Each candidate is given either as its :class:`RewriteCone` against
    ``current`` (for an encoder of ``num_layers`` GAT layers: its graph is
    never opened) or as a graph; ``candidates`` is iterated once, after
    ``current`` is encoded.  The row store holds the current graph in full
    and, for every candidate given as a cone or as a graph whose
    ``delta_parent()`` is ``current``, only its :func:`rewrite_cone` rows.
    A cone row's in-edges point at the candidate's other cone rows or, for
    every source the rewrite left alone, at the current graph's row for
    that node — the same value in every layer.  The readout pools a
    candidate as its parent's sum (``parents``), minus the parent rows it
    no longer holds as they are (its removed nodes and the old rows of its
    cone nodes, sign ``-1``), plus its cone rows (``+1``), so the encoder
    returns exactly the embeddings :func:`build_meta_graph`'s batch gives
    (bit for bit, see :class:`~repro.nn.gnn.GlobalUpdateLayer`) while
    message passing and the readout run over a fraction of the rows.  A
    candidate of any other lineage is stored in full, like the current
    graph; ``num_cones`` says how many were not.

    The cones are gathered as Python lists and turned into arrays once per
    observation: one array of their edges' shape rows, divided in float64
    and rounded once to float32, and one gather of :func:`encode_position`
    for every parent id they name.
    """
    if cache is not None:
        edge_norm = cache.edge_norm
    current_size = len(current.nodes)
    sizes: List[int] = []
    stored: List[int] = []
    minus_counts: List[int] = []
    parents: List[int] = []
    # Graph by graph, the store's blocks: a fully encoded graph's arrays
    # with its first store row, or ``[row0, row1, edge0, edge1]``, a run of
    # consecutive cones as a slice of the cone arrays built below.
    layout: list = []
    cone_ops: List[int] = []
    cone_rows: List[Tuple[int, ...]] = []
    cone_src: List[int] = []
    cone_inside: List[bool] = []
    cone_dst: List[int] = []
    cone_starts: List[int] = []
    cone_edges: List[int] = []
    minus_ids: List[NodeId] = []
    start = 0
    for graph in chain((current,), candidates):
        if isinstance(graph, RewriteCone):
            cone = graph
        else:
            cone = rewrite_cone(graph, num_layers) \
                if graph is not current and graph.delta_parent() is current \
                else None
        if cone is None:
            sizes.append(len(graph.nodes))
            feats = cache.encode(graph) if cache is not None \
                else encode_graph(graph, edge_norm)
            layout.append((graph.op_index_table()[encode_order(graph)],
                           feats, start))
            stored.append(feats.num_nodes)
            minus_counts.append(0)
            parents.append(-1)
        else:
            sizes.append(current_size + cone.size_delta)
            if not layout or not isinstance(layout[-1], list):
                layout.append([len(cone_ops), 0, len(cone_src), 0])
            cone_ops += cone.op_indices
            cone_rows += cone.edge_rows
            cone_src += cone.edge_src
            cone_inside += cone.src_in_cone
            cone_dst += cone.edge_dst
            cone_starts.append(start)
            cone_edges.append(len(cone.edge_src))
            minus_ids += cone.minus_ids
            layout[-1][1], layout[-1][3] = len(cone_ops), len(cone_src)
            stored.append(len(cone.op_indices))
            minus_counts.append(len(cone.minus_ids))
            parents.append(0)
        start += stored[-1]
    num_rows = start

    # A cone's own rows move with its first store row; a source outside it
    # is a row of the current graph, which starts at store row 0, so its
    # row in the current graph is its store row.
    ops_all = np.asarray(cone_ops, dtype=np.int64)
    feats_all = _normalised(cone_rows, edge_norm) if cone_rows \
        else _EMPTY_FEATS
    offset = np.repeat(np.asarray(cone_starts, dtype=np.int64), cone_edges)
    dst_all = np.asarray(cone_dst, dtype=np.int64) + offset
    src_all = np.asarray(cone_src, dtype=np.int64)
    inside = np.asarray(cone_inside, dtype=bool)
    outside = ~inside
    src_all[inside] += offset[inside]
    rows = encode_position(current)[np.concatenate(
        [src_all[outside], np.asarray(minus_ids, dtype=np.int64)])]
    num_outside = int(outside.sum())
    src_all[outside] = rows[:num_outside]
    minus_rows = rows[num_outside:]
    op_pieces, feat_pieces, src_pieces, dst_pieces = [], [], [], []
    for block in layout:
        if isinstance(block, list):
            row0, row1, edge0, edge1 = block
            op_pieces.append(ops_all[row0:row1])
            feat_pieces.append(feats_all[edge0:edge1])
            src_pieces.append(src_all[edge0:edge1])
            dst_pieces.append(dst_all[edge0:edge1])
        else:
            ops, feats, first = block
            op_pieces.append(ops)
            feat_pieces.append(feats.edge_features)
            src_pieces.append(feats.edge_src + first)
            dst_pieces.append(feats.edge_dst + first)
    num_graphs = len(parents)
    ids = np.arange(num_graphs, dtype=np.int64)
    # Every store row is pooled once (+1), by the graph storing it; then
    # each cone's minus rows (-1).
    return BatchedGraphs(
        node_features=_one_hot_ops(np.concatenate(op_pieces)),
        edge_features=np.concatenate(feat_pieces, axis=0),
        edge_src=np.concatenate(src_pieces),
        edge_dst=np.concatenate(dst_pieces),
        graph_ids=np.concatenate([np.repeat(ids, stored),
                                  np.repeat(ids, minus_counts)]),
        num_graphs=num_graphs,
        global_features=np.zeros((num_graphs, GLOBAL_FEATURE_DIM),
                                 dtype=np.float32),
        pool_rows=np.concatenate(
            [np.arange(num_rows, dtype=np.int64), minus_rows]),
        pool_signs=np.concatenate([np.ones(num_rows),
                                   np.full(minus_rows.shape[0], -1.0)]),
        parents=np.asarray(parents, dtype=np.int64),
        graph_sizes=np.asarray(sizes, dtype=np.int64),
        num_cones=len(parents) - parents.count(-1),
    )


def combine_meta_graphs(batches: Sequence[BatchedGraphs]
                        ) -> Tuple[BatchedGraphs, np.ndarray]:
    """Splice several batches (one-graph encodes, observations' delta
    batches) into one batch for a single GNN forward.

    Returns the combined batch plus, for each input batch, the index of its
    first graph in the combined graph numbering (so callers can recover
    which embedding rows belong to which observation).
    """
    node_offset = 0
    graph_offset = 0
    graph_offsets = np.zeros(len(batches), dtype=np.int64)
    node_blocks, edge_blocks, src_blocks, dst_blocks, gid_blocks = \
        [], [], [], [], []
    global_blocks, pool_blocks, parent_blocks = [], [], []
    for i, batch in enumerate(batches):
        graph_offsets[i] = graph_offset
        node_blocks.append(batch.node_features)
        edge_blocks.append(batch.edge_features)
        src_blocks.append(batch.edge_src + node_offset)
        dst_blocks.append(batch.edge_dst + node_offset)
        gid_blocks.append(batch.graph_ids + graph_offset)
        global_blocks.append(batch.global_features)
        pool_blocks.append(batch.pool_rows + node_offset)
        parent_blocks.append(np.where(batch.parents >= 0,
                                      batch.parents + graph_offset, -1))
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
        pool_rows=np.concatenate(pool_blocks),
        pool_signs=np.concatenate([batch.pool_signs for batch in batches]),
        parents=np.concatenate(parent_blocks),
        graph_sizes=np.concatenate([batch.graph_sizes for batch in batches]),
        num_cones=sum(batch.num_cones for batch in batches),
    )
    return combined, graph_offsets
