"""Computation graph (dataflow graph) IR.

A :class:`Graph` is a directed acyclic graph whose nodes are tensor operators
and whose edges carry :class:`~repro.ir.tensor.TensorSpec` metadata.  This is
the representation the rewrite substrate, the cost models and the RL
environment all operate on.

The design follows TASO's graph abstraction: nodes own their attributes, each
node produces one or more output tensors, and edges reference the producing
node's output slot.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import operator
import weakref
import numpy as np
from dataclasses import dataclass, field
from typing import (
    Callable,
    Collection,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple)

from .ops import OP_REGISTRY, OpType, infer_output_spec, op_index
from .tensor import TensorSpec

__all__ = ["NodeId", "Edge", "Node", "Graph", "GraphDelta",
           "GraphValidationError"]

NodeId = int

_MISSING = object()


def _digest_sum(digests: Iterable[bytes]) -> int:
    """The order-independent combination of node digests: their sum."""
    return sum(map(int.from_bytes, digests, itertools.repeat("little")))


#: Every node template the process has met, from :meth:`Graph.add_node`
#: or a first :meth:`Graph.template_memo`: ``(op, input specs, repr of the
#: attrs) -> (output specs, node-local digest payload, template memo)``.  A
#: model repeats a few dozen distinct nodes, and a rewrite candidate
#: re-creates the same handful thousands of times, so inference, the
#: payload text and every value derived from the template alone (flop and
#: byte counts, cost units, kernel times: the template memo) are each
#: derived once per template per process.  Bounded at 65 536 entries; a
#: plain dict, because racing threads can only store equal values under one
#: key (a memo that loses the race is one its nodes keep to themselves).
_TEMPLATES: Dict[tuple, Tuple[Tuple[TensorSpec, ...], bytes,
                              Dict[Hashable, object]]] = {}
_TEMPLATES_MAX = 65536

#: Every node-local digest payload rendered for a node that did not get one
#: from :data:`_TEMPLATES` (``graph_from_dict``; ``refresh_shapes`` on a
#: template the table does not know), see :func:`_hash_prefix`.  Bounded
#: and shared like :data:`_TEMPLATES`.
_PREFIX_INTERN: Dict[tuple, bytes] = {}
_PREFIX_INTERN_MAX = 65536

#: Every node digest a whole-graph :meth:`Graph._merkle` pass has made:
#: ``exact payload bytes -> their 16-byte blake2b``.  A pure function's
#: memo keyed by its whole input, so a digest cannot depend on what was
#: hashed before; a repeat of a graph (a cache hit: the caller's fresh
#: build, a decoded entry) costs one lookup per node.  Bounded and shared
#: like :data:`_TEMPLATES`.
_DIGESTS: Dict[bytes, bytes] = {}
_DIGESTS_MAX = 65536

_DIMS = operator.attrgetter("shape.dims")


def _template_key(op_type: OpType, input_specs: Sequence[TensorSpec],
                  attrs: Mapping[str, object]) -> tuple:
    """The :data:`_TEMPLATES` key of a node.

    Type-exact, nested values included: ``repr`` tells ``1`` / ``1.0`` /
    ``True``, ``0.0`` / ``-0.0``, ``(1, (2, 3))`` / ``(1, (2.0, 3))`` and
    ``[1, 2]`` / ``(1, 2)`` apart, which value equality would merge — and
    so would the payload text, which is made of each value's ``str()``.
    """
    return (op_type, tuple(input_specs), repr(attrs))


def _infer_outputs(op_type: OpType, input_specs: Sequence[TensorSpec],
                   attrs: Mapping[str, object]) -> Tuple[TensorSpec, ...]:
    return tuple(infer_output_spec(op_type, input_specs, attrs, slot)
                 for slot in range(OP_REGISTRY[op_type].num_outputs))


def _render_prefix(op: str, names: Sequence[str], values: Sequence[str],
                   shapes: Iterable[Tuple[int, ...]]) -> bytes:
    """Op type, attrs (names and ``str()`` of each value) and output shapes
    as length-prefixed text, so the fixed-size records
    :meth:`Graph._merkle` appends can never be read as part of it."""
    body = repr((op, sorted(zip(names, values)),
                 [list(dims) for dims in shapes])).encode()
    return len(body).to_bytes(4, "little") + body


def _template(op_type: OpType, input_specs: Sequence[TensorSpec],
              attrs: Mapping[str, object]
              ) -> Tuple[Tuple[TensorSpec, ...], bytes, Dict[Hashable, object]]:
    """``(output specs, node-local digest payload, template memo)`` of a
    node: one table lookup for a template met before, in any graph.  Past
    :data:`_TEMPLATES_MAX` the triple is made afresh and not kept, so its
    memo is private to the node that gets it."""
    key = _template_key(op_type, input_specs, attrs)
    template = _TEMPLATES.get(key)
    if template is None:
        outputs = _infer_outputs(op_type, input_specs, attrs)
        template = (outputs, _render_prefix(
            op_type._value_, tuple(attrs), tuple(map(str, attrs.values())),
            map(_DIMS, outputs)), {})
        if len(_TEMPLATES) < _TEMPLATES_MAX:
            _TEMPLATES[key] = template
    return template


def _attach(node: "Node", input_specs: Sequence[TensorSpec]
            ) -> Dict[Hashable, object]:
    """The template memo of a node :meth:`Graph.add_node` did not make: its
    template's, when the node's stored outputs are the ones its template
    infers; otherwise (inference refuses the node, or the stored outputs
    differ) a private memo."""
    try:
        outputs, _, memo = _template(node.op_type, input_specs, node.attrs)
    except ValueError:
        return {}
    return memo if outputs == tuple(node.outputs) else {}


def _known_template(op_type: OpType, input_specs: Sequence[TensorSpec],
                    attrs: Mapping[str, object]
                    ) -> Tuple[Tuple[TensorSpec, ...], Optional[bytes]]:
    """A node's output specs and payload from the table, or its inferred
    output specs and ``None`` when the template is unknown: reads the
    table, never stores in it."""
    template = _TEMPLATES.get(_template_key(op_type, input_specs, attrs))
    if template is None:
        return _infer_outputs(op_type, input_specs, attrs), None
    return template[:2]


def _hash_prefix(node: "Node") -> bytes:
    """The node-local part of ``node``'s Merkle digest payload, for a node
    whose :attr:`Node._hash_prefix` is unset (one not made by
    :meth:`Graph.add_node`).

    One table lookup for a payload rendered before, in any graph.  The key
    holds what the text is made of — attr names (strings throughout the IR)
    and the ``str()`` of each value, not the value: ``1`` / ``1.0`` /
    ``True`` and ``0.0`` / ``-0.0`` are equal as Python values and differ
    as text — so equal keys render equal bytes and a digest cannot depend
    on which graph was hashed first.
    """
    attrs = node.attrs
    op = node.op_type._value_
    values = tuple(map(str, attrs.values()))
    shapes = tuple(map(_DIMS, node.outputs))
    key = (op, tuple(attrs), values, shapes)
    prefix = _PREFIX_INTERN.get(key)
    if prefix is None:
        prefix = _render_prefix(op, tuple(attrs), values, shapes)
        if len(_PREFIX_INTERN) < _PREFIX_INTERN_MAX:
            _PREFIX_INTERN[key] = prefix
    return prefix


class GraphValidationError(ValueError):
    """Raised when a graph violates a structural invariant."""


#: Tombstone marking a key deleted in a :class:`_CowEdgeMap` overlay.
_DELETED = object()


class _CowEdgeMap:
    """Copy-on-write mapping of node id to its edge list.

    ``Graph.copy()`` used to clone both adjacency dicts *and* every
    per-node edge list eagerly — ~40% of per-candidate cost, paid even
    when the rewrite touches two nodes out of hundreds.  Instead, a copy
    now shares the parent's map as a frozen ``_base`` dict and records
    its own mutations in a small ``_own`` overlay:

    * reads check the overlay first, then the base;
    * :meth:`edit` clones a single per-node list into the overlay the
      first time a mutation needs it (the actual copy-on-write);
    * deletions write a tombstone over base keys;
    * :meth:`share` hands a frozen base to a new child, merging any
      overlay into a fresh dict first — so chains never grow beyond one
      level of indirection, however long the rewrite sequence.

    The freeze invariant: a dict used as ``_base`` (and every list
    reachable from it) is never mutated in place.  All ``Graph``
    mutators go through ``__setitem__`` / :meth:`edit`, which only ever
    write to the overlay.
    """

    __slots__ = ("_base", "_own", "lists_cloned")

    def __init__(self, base: Optional[Dict[NodeId, List[Edge]]] = None):
        self._base: Dict[NodeId, List[Edge]] = base if base is not None else {}
        self._own: Dict[NodeId, object] = {}
        #: Per-node lists cloned from the base so far (test observability).
        self.lists_cloned = 0

    # -- reads ----------------------------------------------------------
    def __getitem__(self, nid: NodeId) -> List[Edge]:
        value = self._own.get(nid, _MISSING)
        if value is _MISSING:
            return self._base[nid]
        if value is _DELETED:
            raise KeyError(nid)
        return value

    def __contains__(self, nid: NodeId) -> bool:
        value = self._own.get(nid, _MISSING)
        if value is _MISSING:
            return nid in self._base
        return value is not _DELETED

    def __len__(self) -> int:
        count = len(self._base)
        base = self._base
        for nid, value in self._own.items():
            if value is _DELETED:
                count -= 1
            elif nid not in base:
                count += 1
        return count

    def __iter__(self) -> Iterator[NodeId]:
        return (nid for nid, _ in self.items())

    def keys(self) -> Iterator[NodeId]:
        return iter(self)

    def items(self) -> Iterator[Tuple[NodeId, List[Edge]]]:
        own, base = self._own, self._base
        for nid, value in base.items():
            override = own.get(nid, _MISSING)
            if override is _MISSING:
                yield nid, value
            elif override is not _DELETED:
                yield nid, override
        for nid, value in own.items():
            if value is not _DELETED and nid not in base:
                yield nid, value

    def values(self) -> Iterator[List[Edge]]:
        return (edges for _, edges in self.items())

    def to_dict(self) -> Dict[NodeId, List[Edge]]:
        """An eager ``{nid: [edges...]}`` snapshot (fresh lists)."""
        return {nid: list(edges) for nid, edges in self.items()}

    # Bulk reads for the structural hash, which visits too many nodes per
    # candidate to pay a ``__getitem__`` call for each of them.
    def select(self, nids: Iterable[NodeId]) -> Dict[NodeId, List[Edge]]:
        """``{nid: its edge list}`` for live ids (the stored lists, not
        copies; a deleted id maps to the non-iterable tombstone)."""
        own, base = self._own, self._base
        return {nid: own[nid] if nid in own else base[nid] for nid in nids}

    def reachable(self, seeds: Iterable[NodeId]) -> Set[NodeId]:
        """``seeds`` plus every id reachable from them along ``edge.dst``
        (so: the downstream cone, on an out-edge map)."""
        own, base = self._own, self._base
        seen: Set[NodeId] = set()
        stack = list(seeds)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            edges = own.get(nid, _MISSING)
            if edges is _MISSING:
                edges = base[nid]
            elif edges is _DELETED:
                raise KeyError(nid)
            for edge in edges:
                stack.append(edge.dst)
        return seen

    # -- writes ---------------------------------------------------------
    def __setitem__(self, nid: NodeId, edges: List[Edge]) -> None:
        self._own[nid] = edges

    def __delitem__(self, nid: NodeId) -> None:
        value = self._own.get(nid, _MISSING)
        if value is _DELETED:
            raise KeyError(nid)
        if value is not _MISSING:
            if nid in self._base:
                self._own[nid] = _DELETED
            else:
                del self._own[nid]
        elif nid in self._base:
            self._own[nid] = _DELETED
        else:
            raise KeyError(nid)

    def edit(self, nid: NodeId) -> List[Edge]:
        """The edge list for ``nid``, guaranteed safe to mutate in place."""
        value = self._own.get(nid, _MISSING)
        if value is not _MISSING:
            if value is _DELETED:
                raise KeyError(nid)
            return value
        cloned = list(self._base[nid])
        self._own[nid] = cloned
        self.lists_cloned += 1
        return cloned

    def __reduce__(self):
        # Pickled flat: the tombstone is an identity sentinel and would come
        # back from a round trip as a live value.
        return _CowEdgeMap, (dict(self.items()),)

    # -- sharing --------------------------------------------------------
    def share(self) -> Dict[NodeId, List[Edge]]:
        """A frozen base dict for a child map.

        When this map has no overlay the current base is shared as-is
        (zero copies); otherwise base and overlay are merged into one
        fresh dict that becomes both the child's base and this map's new
        base — keeping every COW chain at depth one.
        """
        if self._own:
            if self._base:
                merged = dict(self._base)
                for nid, value in self._own.items():
                    if value is _DELETED:
                        del merged[nid]
                    else:
                        merged[nid] = value
                self._base = merged
            else:  # a freshly built graph: nothing to merge, no tombstones
                self._base = self._own
            self._own = {}
        return self._base

    def snapshot(self) -> "_CowEdgeMap":
        """A map reading as this one does now, sharing the frozen base and
        a shallow copy of the overlay — O(overlay), where :meth:`share`
        would merge a full dict for a graph that is never copied."""
        clone = _CowEdgeMap(self._base)
        clone._own = dict(self._own)
        return clone


@dataclass
class GraphDelta:
    """Mutations recorded on a graph since a checkpoint.

    ``added`` holds node ids created after the checkpoint that still exist;
    ``removed`` holds ids that existed at the checkpoint and have since been
    deleted; ``rewired`` holds ids that existed at the checkpoint, still
    exist, and have had an input edge redirected (so their input specs — and
    therefore their per-node cost — may have changed).  A node that was added
    and later removed appears in neither set.
    """

    added: Set[NodeId] = field(default_factory=set)
    removed: Set[NodeId] = field(default_factory=set)
    rewired: Set[NodeId] = field(default_factory=set)
    #: Ids (of nodes alive at the checkpoint) that have lost at least one
    #: out-edge since — via a consumer being rewired away or removed.  Only
    #: these nodes (plus ``added`` ones) can have become dead, which lets
    #: dead-code elimination seed its worklist from the delta instead of
    #: scanning every node (see ``rules.base.eliminate_dead_nodes``).
    out_shrunk: Set[NodeId] = field(default_factory=set)

    @property
    def is_empty(self) -> bool:
        """Whether no node was added, removed or rewired since the
        checkpoint (``out_shrunk`` follows from those)."""
        return not (self.added or self.removed or self.rewired)

    def changed_nodes(self) -> Set[NodeId]:
        """All node ids whose presence or cost differs from the checkpoint."""
        return self.added | self.removed | self.rewired


class Edge(NamedTuple):
    """A directed edge carrying one tensor from a producer to a consumer.

    ``src_slot`` identifies which output of the producing node is carried;
    ``dst_slot`` identifies which input position of the consumer it feeds.
    An immutable named tuple, so it is made, compared and hashed in C: a
    graph makes one per input of every node it builds or decodes.
    """

    src: NodeId
    dst: NodeId
    src_slot: int = 0
    dst_slot: int = 0


@dataclass
class Node:
    """One operator instance in a computation graph."""

    node_id: NodeId
    op_type: OpType
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Output tensor specs (one per output slot), filled by shape inference.
    outputs: List[TensorSpec] = field(default_factory=list)
    name: str = ""
    #: Node-local part of the Merkle digest payload (op type, attrs, output
    #: shapes — see :func:`_render_prefix`).  :meth:`Graph.add_node` sets it
    #: from the node's template along with ``outputs``, at no cost beyond
    #: the lookup inference already made; a node made otherwise
    #: (``graph_from_dict``) has ``None`` until the first hash that visits
    #: it (:func:`_hash_prefix`).  Node objects are shared between graph
    #: copies, so every copy reuses it.  Re-derived with ``outputs`` by
    #: :meth:`Graph.refresh_shapes`; neither attrs nor outputs are mutated in
    #: place after construction.
    _hash_prefix: Optional[bytes] = field(
        default=None, repr=False, compare=False)
    #: Values derived from this node's own edges (the RL edge block, which
    #: names source node ids), keyed by what derives them; ``None`` until
    #: the first.  Read and created only through :meth:`Graph.node_memo`.
    _derived: Optional[Dict[Hashable, object]] = field(
        default=None, repr=False, compare=False)
    #: Values derived from the node's template alone (flop and byte counts,
    #: cost units, kernel times), shared by every node of the template in
    #: the process: the :data:`_TEMPLATES` entry's memo.
    #: :meth:`Graph.add_node` sets it; a node made otherwise has ``None``
    #: until the first :meth:`Graph.template_memo`.  A :meth:`copy`, and a
    #: pickled node, start without either memo.
    _template_memo: Optional[Dict[Hashable, object]] = field(
        default=None, repr=False, compare=False)

    @property
    def is_source(self) -> bool:
        """Whether the node is an ``INPUT``, ``WEIGHT`` or ``CONSTANT``:
        one that has no in-edges."""
        return self.op_type in (OpType.INPUT, OpType.WEIGHT, OpType.CONSTANT)

    @property
    def output_spec(self) -> TensorSpec:
        """Spec of the node's first (usually only) output."""
        return self.outputs[0]

    def signature(self) -> Tuple:
        """A hashable structural signature (op type + sorted attrs)."""
        attr_items = tuple(sorted((k, _freeze(v)) for k, v in self.attrs.items()))
        return (self.op_type.value, attr_items)

    def copy(self) -> "Node":
        """A node equal to this one with its own ``attrs`` and ``outputs``
        containers, its hash payload kept and both memos dropped: what a
        mutation puts in place of a node it changes."""
        # Hot path (one call per node per rewrite): clone via __dict__ to
        # skip dataclass __init__ overhead.
        clone = Node.__new__(Node)
        state = clone.__dict__
        state.update(self.__dict__)
        state["attrs"] = dict(self.attrs)
        state["outputs"] = list(self.outputs)
        state["_derived"] = state["_template_memo"] = None
        return clone

    def __getstate__(self):
        # The template memo is this process's, shared with every node of the
        # template: a pickled copy of it would be a stale private one.
        state = self.__dict__.copy()
        state["_derived"] = state["_template_memo"] = None
        return state


def _freeze(value):
    """Convert attribute values into hashable equivalents."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class Graph:
    """A mutable tensor computation graph.

    The graph maintains:

    * ``nodes``: mapping of node id to :class:`Node`
    * ``in_edges`` / ``out_edges``: adjacency keyed by node id (every
      stored in-edge list is in ``dst_slot`` order: ``add_node`` appends in
      slot order and ``rewire_input`` replaces in place)
    * a monotonically increasing id counter so that rewrites never reuse ids

    Structural invariants (checked by :meth:`validate`):

    * acyclicity
    * every non-source node's inputs are fully connected, with consistent
      slot numbering and arity within the operator signature
    * every node's output specs agree with shape inference

    Incremental-engine state (maintained across all mutations):

    * ``_nodes_by_op``: op-type index used by anchor-based rule matching
      (each bucket is an insertion-ordered dict, so iteration is in node-id
      order because ids are handed out monotonically)
    * ``_scalar_cache``: whole-graph memos (topological order, structural
      hash and the Merkle digest table behind it, simulated latency, exact
      cost totals), cleared on any mutation
    * per-node memos (:meth:`node_memo`), kept on the shared :class:`Node`
      objects: a node whose inputs change is replaced, not cleared; and the
      process-wide template memos (:meth:`template_memo`) those nodes point
      to, which no mutation touches
    * ``_delta``: mutation recording (see :class:`GraphDelta`), started by
      :meth:`begin_delta` and automatically on every :meth:`copy`
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: Dict[NodeId, Node] = {}
        self._in_edges: _CowEdgeMap = _CowEdgeMap()
        self._out_edges: _CowEdgeMap = _CowEdgeMap()
        self._next_id: NodeId = 0
        #: Monotonic structure-version counter, bumped on every mutation.
        #: Together with ``_parent_ref``/``_parent_version`` (set by
        #: :meth:`copy`) it lets incremental consumers check that a
        #: parent graph is unchanged since the copy — see
        #: :meth:`delta_parent`.
        self._version: int = 0
        self._parent_ref: Optional["weakref.ref[Graph]"] = None
        self._parent_version: int = -1
        self._copy_delta: Optional[GraphDelta] = None
        self._nodes_by_op: Dict[OpType, Dict[NodeId, None]] = {}
        #: ``_op_ids[node_id]`` is the registry index of that node's op type
        #: (stale entries for removed ids are never read — ids are not
        #: reused).  Lets the RL feature encoder build one-hot rows with one
        #: fancy-indexing pass instead of a per-node Python loop.
        self._op_ids: List[int] = []
        self._scalar_cache: Dict[Hashable, object] = {}
        self._delta: Optional[GraphDelta] = None

    def __getstate__(self):
        """Pickle support (a graph may cross into another process, e.g. a
        caller's process pool): the parent weakref cannot be pickled and would be
        meaningless in another process, so the copy lineage is severed —
        an unpickled graph simply has no ``delta_parent()``.  Memos stay
        behind too, the whole-graph ones with the nodes' (their keys name
        the deriving class, which may not be importable elsewhere): an
        unpickled graph derives them again."""
        state = self.__dict__.copy()
        state["_parent_ref"] = None
        state["_parent_version"] = -1
        state["_copy_delta"] = None
        state["_scalar_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        op_type: OpType,
        inputs: Sequence[Tuple[NodeId, int]] | Sequence[NodeId] = (),
        attrs: Optional[Mapping[str, object]] = None,
        name: str = "",
    ) -> NodeId:
        """Add a node and connect its inputs.

        ``inputs`` is a sequence of producer node ids, or ``(node_id, slot)``
        pairs when the producer has multiple outputs.  Output specs are
        inferred immediately so that the graph is always well-typed.
        """
        attrs = dict(attrs or {})
        normalised: List[Tuple[NodeId, int]] = []
        for item in inputs:
            if isinstance(item, tuple):
                normalised.append((int(item[0]), int(item[1])))
            else:
                normalised.append((int(item), 0))

        input_specs = []
        for src, slot in normalised:
            if src not in self.nodes:
                raise GraphValidationError(f"input node {src} does not exist")
            src_node = self.nodes[src]
            if slot >= len(src_node.outputs):
                raise GraphValidationError(
                    f"node {src} has no output slot {slot}"
                )
            input_specs.append(src_node.outputs[slot])

        OP_REGISTRY[op_type].validate_arity(len(normalised))

        node_id = self._next_id
        self._next_id += 1
        # With the id, so the table stays id-indexed even when shape
        # inference below refuses the node and the id goes unused.
        self._op_ids.append(op_index(op_type))
        outputs, prefix, memo = _template(op_type, input_specs, attrs)
        node = Node(node_id=node_id, op_type=op_type, attrs=attrs,
                    outputs=list(outputs),
                    name=name or f"{op_type.value.lower()}_{node_id}",
                    _hash_prefix=prefix, _template_memo=memo)

        self.nodes[node_id] = node
        in_list: List[Edge] = []
        self._in_edges[node_id] = in_list
        self._out_edges[node_id] = []
        for dst_slot, (src, src_slot) in enumerate(normalised):
            edge = Edge(src=src, dst=node_id, src_slot=src_slot, dst_slot=dst_slot)
            in_list.append(edge)
            self._out_edges.edit(src).append(edge)
        self._nodes_by_op.setdefault(op_type, {})[node_id] = None
        self._version += 1
        if self._scalar_cache:
            self._scalar_cache.clear()
        if self._delta is not None:
            self._delta.added.add(node_id)
        return node_id

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node and all edges touching it."""
        if node_id not in self.nodes:
            raise GraphValidationError(f"node {node_id} does not exist")
        consumers = {e.dst for e in self._out_edges[node_id]}
        producers = {e.src for e in self._in_edges[node_id]}
        for edge in list(self._in_edges[node_id]):
            self._out_edges.edit(edge.src).remove(edge)
        for edge in list(self._out_edges[node_id]):
            self._in_edges.edit(edge.dst).remove(edge)
        op_type = self.nodes[node_id].op_type
        del self._in_edges[node_id]
        del self._out_edges[node_id]
        del self.nodes[node_id]
        del self._nodes_by_op[op_type][node_id]
        self._version += 1
        if self._scalar_cache:
            self._scalar_cache.clear()
        nodes = self.nodes
        for consumer in consumers:  # inputs changed: a memo-free node
            nodes[consumer] = nodes[consumer].copy()
        if self._delta is not None:
            delta = self._delta
            if node_id in delta.added:
                delta.added.discard(node_id)
            else:
                delta.removed.add(node_id)
            delta.rewired.discard(node_id)
            delta.out_shrunk.discard(node_id)
            for consumer in consumers:
                if consumer in self.nodes and consumer not in delta.added:
                    delta.rewired.add(consumer)
            for producer in producers:
                if producer not in delta.added:
                    delta.out_shrunk.add(producer)

    def rewire_input(self, dst: NodeId, dst_slot: int, new_src: NodeId,
                     new_src_slot: int = 0) -> None:
        """Redirect input ``dst_slot`` of ``dst`` to a different producer."""
        edges = self._in_edges[dst]
        for i, edge in enumerate(edges):
            if edge.dst_slot == dst_slot:
                self._out_edges.edit(edge.src).remove(edge)
                new_edge = Edge(new_src, dst, new_src_slot, dst_slot)
                self._in_edges.edit(dst)[i] = new_edge
                self._out_edges.edit(new_src).append(new_edge)
                self._version += 1
                if self._scalar_cache:
                    self._scalar_cache.clear()
                # Its inputs changed: a memo-free node (the memoised
                # digest prefix does not depend on inputs).
                self.nodes[dst] = self.nodes[dst].copy()
                if self._delta is not None:
                    if dst not in self._delta.added:
                        self._delta.rewired.add(dst)
                    if edge.src not in self._delta.added:
                        self._delta.out_shrunk.add(edge.src)
                return
        raise GraphValidationError(f"node {dst} has no input slot {dst_slot}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def in_edges(self, node_id: NodeId) -> List[Edge]:
        """In-edges in slot order: the order every mutator stores them in."""
        return list(self._in_edges[node_id])

    def out_edges(self, node_id: NodeId) -> List[Edge]:
        """Edges from ``node_id`` to its consumers, one per consumer slot
        it feeds, as a new list."""
        return list(self._out_edges[node_id])

    def predecessors(self, node_id: NodeId) -> List[NodeId]:
        """Producer ids of ``node_id``'s inputs in slot order, repeated
        when one producer feeds several slots."""
        return [e.src for e in self.in_edges(node_id)]

    def successors(self, node_id: NodeId) -> List[NodeId]:
        """Consumer ids of ``node_id``, one per out-edge (so a consumer
        reading it twice is listed twice)."""
        return [e.dst for e in self._out_edges[node_id]]

    def input_specs(self, node_id: NodeId) -> List[TensorSpec]:
        """Specs of the tensors feeding ``node_id``, in slot order."""
        specs = []
        for edge in self.in_edges(node_id):
            specs.append(self.nodes[edge.src].outputs[edge.src_slot])
        return specs

    @property
    def num_nodes(self) -> int:
        """Number of nodes, sources and ``OUTPUT`` nodes included."""
        return len(self.nodes)

    @property
    def id_bound(self) -> NodeId:
        """Exclusive upper bound on node ids ever handed out by this graph.

        Ids are monotonic and never reused, so a dense array of this length
        can be used as an id-to-position lookup table (the RL feature
        encoder builds one per encoding instead of a Python dict).
        """
        return self._next_id

    @property
    def num_edges(self) -> int:
        """Number of edges: the connected input slots of every node."""
        return sum(len(v) for v in self._in_edges.values())

    def source_nodes(self) -> List[NodeId]:
        """Ids of all Input/Weight/Constant nodes."""
        return [nid for nid, n in self.nodes.items() if n.is_source]

    def input_nodes(self) -> List[NodeId]:
        """Ids of the ``INPUT`` nodes in node-dict order (weights and
        constants are sources but not inputs)."""
        return [nid for nid, n in self.nodes.items() if n.op_type is OpType.INPUT]

    def sink_nodes(self) -> List[NodeId]:
        """Ids of nodes with no consumers (graph outputs)."""
        return [nid for nid in self.nodes if not self._out_edges[nid]]

    def operator_nodes(self) -> List[NodeId]:
        """All nodes that perform computation (non-source, non-Output)."""
        return [
            nid for nid, n in self.nodes.items()
            if not n.is_source and n.op_type is not OpType.OUTPUT
        ]

    # ------------------------------------------------------------------
    # Op-type index / caches / mutation delta
    # ------------------------------------------------------------------
    def op_index_table(self) -> np.ndarray:
        """Node-id-indexed array of operator registry indices (read-only).

        ``table[nid]`` is ``op_index(self.nodes[nid].op_type)`` for every
        live node id; entries for removed ids are stale but never read.
        Maintained incrementally by :meth:`add_node`; the ndarray view is
        memoised until the next mutation — callers must not write to it.
        """
        cached = self._scalar_cache.get("op_ids")
        if cached is None:
            cached = np.asarray(self._op_ids, dtype=np.int64)
            self._scalar_cache["op_ids"] = cached
        return cached

    def nodes_by_op(self, *op_types: OpType) -> List[NodeId]:
        """Ids of all nodes with one of the given op types, in creation order.

        Backed by an index maintained across mutations, so rule matching can
        seed from the handful of anchor operators instead of scanning every
        node in the graph.
        """
        if len(op_types) == 1:
            return list(self._nodes_by_op.get(op_types[0], ()))
        ids = [nid for op in op_types for nid in self._nodes_by_op.get(op, ())]
        ids.sort()
        return ids

    def node_memo(self, nid: NodeId) -> Dict[Hashable, object]:
        """The memo of values derived from node ``nid``'s own in-edges (key
        each by what derives it): values that name source node ids, like
        the RL edge block.  A value that follows from the node's template
        alone belongs in :meth:`template_memo`.

        It lives on the :class:`Node`, which a graph shares with its copies,
        so an entry filled on any of them, before or after the copy, serves
        all of them.  The mutation API gives a node whose inputs change a
        fresh ``Node`` with an empty memo.  Whole-graph facts belong in
        :meth:`memo`.
        """
        node = self.nodes[nid]
        memo = node._derived
        if memo is None:
            memo = node._derived = {}
        return memo

    def template_memo(self, nid: NodeId) -> Dict[Hashable, object]:
        """The memo of values derived from node ``nid``'s template — its op,
        input specs and attrs, and the outputs they infer — alone (key each
        by what derives it, the deriver's class included): flop and byte
        counts, cost units, kernel times.

        Every node of one template shares it, in every graph of the
        process, so a fresh build of a model priced before prices nothing.
        A node :meth:`add_node` made holds it from birth; any other (a
        rewired consumer, a decoded or shape-refreshed node) looks its
        template up on first use and shares the memo only if its stored
        outputs are the template's, keeping a private one otherwise.
        """
        node = self.nodes[nid]
        memo = node._template_memo
        if memo is None:
            memo = node._template_memo = _attach(node, self.input_specs(nid))
        return memo

    def memo(self, key: Hashable, compute: Callable[[], object]):
        """A whole-graph memo for ``key``, dropped on any mutation."""
        value = self._scalar_cache.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self._scalar_cache[key] = value
        return value

    def memo_peek(self, key: Hashable, default=None):
        """The memoised value for ``key``, or ``default`` — never computes."""
        value = self._scalar_cache.get(key, _MISSING)
        return default if value is _MISSING else value

    def begin_delta(self) -> GraphDelta:
        """Start (or restart) mutation recording from the current state."""
        self._delta = GraphDelta()
        return self._delta

    def mutation_delta(self) -> Optional[GraphDelta]:
        """The mutations recorded since the last checkpoint (or ``None``).

        :meth:`copy` checkpoints the copy automatically, so the graph a
        rewrite rule returns always carries the delta of its surgery.
        """
        return self._delta

    @classmethod
    def _assemble(cls, name: str, nodes: Dict[NodeId, Node],
                  in_edges: Dict[NodeId, List[Edge]],
                  out_edges: Dict[NodeId, List[Edge]]) -> "Graph":
        """A graph from internals built without the mutation API (a
        deserialiser's): ``nodes`` keyed by natural-number ids, each id's
        in-edges in ``dst_slot`` order and its out-edges.  The id counter
        restarts at max id + 1."""
        graph = cls(name)
        if list(nodes) != sorted(nodes):
            # The engine iterates ``nodes`` in id (= creation) order, which
            # keeps indexed anchor matching and full-scan matching
            # enumeration-identical.
            nodes = {nid: nodes[nid] for nid in sorted(nodes)}
        graph.nodes = nodes
        graph._in_edges._own = in_edges
        graph._out_edges._own = out_edges
        graph._next_id = max(nodes, default=-1) + 1
        # Bucketed by the op's value string: hashing an enum member is a
        # Python-level call, one per node here.
        by_value: Dict[str, Dict[NodeId, None]] = {}
        for nid, node in nodes.items():
            value = node.op_type._value_
            bucket = by_value.get(value)
            if bucket is None:
                bucket = by_value[value] = {}
            bucket[nid] = None
        op_ids = graph._op_ids = [0] * graph._next_id
        for value, bucket in by_value.items():
            op = OpType(value)
            graph._nodes_by_op[op] = bucket
            index = op_index(op)
            for nid in bucket:
                op_ids[nid] = index
        return graph

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> List[NodeId]:
        """Node ids in a deterministic topological order.

        Raises :class:`GraphValidationError` if the graph contains a cycle.
        The order is memoised until the next mutation.
        """
        cached = self._scalar_cache.get("topo")
        if cached is None:
            cached = self._compute_topological_order()
            self._scalar_cache["topo"] = cached
        return list(cached)

    def _compute_topological_order(self) -> List[NodeId]:
        # Kahn's algorithm with a min-heap of ready nodes: pops the smallest
        # ready id first, which is exactly the order the previous
        # sort-the-ready-list implementation produced.
        in_degree = {nid: len(self._in_edges[nid]) for nid in self.nodes}
        ready = [nid for nid, deg in in_degree.items() if deg == 0]
        heapq.heapify(ready)
        order: List[NodeId] = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for edge in self._out_edges[nid]:
                in_degree[edge.dst] -= 1
                if in_degree[edge.dst] == 0:
                    heapq.heappush(ready, edge.dst)
        if len(order) != len(self.nodes):
            raise GraphValidationError("graph contains a cycle")
        return order

    def __iter__(self) -> Iterator[Node]:
        for nid in self.topological_order():
            yield self.nodes[nid]

    # ------------------------------------------------------------------
    # Validation / hashing / copying
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all structural invariants; raise on violation."""
        self.topological_order()  # acyclicity
        for nid, node in self.nodes.items():
            sig = OP_REGISTRY[node.op_type]
            edges = self.in_edges(nid)
            slots = [e.dst_slot for e in edges]
            if slots != list(range(len(slots))):
                raise GraphValidationError(
                    f"node {nid} ({node.op_type.value}) input slots are not "
                    f"stored gap-free in slot order: {slots}"
                )
            sig.validate_arity(len(edges))
            input_specs = []
            try:
                for edge in edges:
                    if edge.src_slot < 0:
                        raise IndexError(edge.src_slot)
                    input_specs.append(
                        self.nodes[edge.src].outputs[edge.src_slot])
            except (IndexError, TypeError):
                raise GraphValidationError(
                    f"node {nid} ({node.op_type.value}) reads an output "
                    f"slot its producer does not have: {edges}") from None
            inferred, _ = _known_template(node.op_type, input_specs,
                                          node.attrs)
            if len(inferred) != len(node.outputs):
                raise GraphValidationError(
                    f"node {nid} ({node.op_type.value}) stores "
                    f"{len(node.outputs)} outputs, its op makes "
                    f"{len(inferred)}")
            for out_slot, expected in enumerate(inferred):
                actual = node.outputs[out_slot]
                if expected.shape.dims != actual.shape.dims:
                    raise GraphValidationError(
                        f"node {nid} ({node.op_type.value}) output {out_slot} shape "
                        f"{actual.shape.dims} disagrees with inference {expected.shape.dims}"
                    )

    def refresh_shapes(self) -> None:
        """Re-run shape inference over the whole graph in topological order."""
        for nid in self.topological_order():
            node = self.nodes[nid]
            if node.is_source:
                continue
            input_specs = self.input_specs(nid)
            # Nodes may be shared with copies of this graph (see
            # :meth:`copy`), so replace the node instead of mutating it.
            node = node.copy()
            # An unknown template's payload waits for the first hash.
            outputs, node._hash_prefix = _known_template(
                node.op_type, input_specs, node.attrs)
            node.outputs = list(outputs)
            self.nodes[nid] = node
        # Output specs feed every derived value, so a full refresh drops
        # every memo (the fresh nodes carry none, and look their templates
        # up again on first use) and the copy lineage: the delta records no
        # shape change, so it is no longer a faithful diff.
        self._parent_ref = None
        self._version += 1
        self._scalar_cache.clear()

    def structural_hash(self) -> str:
        """A 64-character hex digest of the graph's structure.

        Bottom-up Merkle hash.  A node's digest covers its op type, attrs,
        output shapes and the ordered ``(input digest, src_slot)`` pairs of
        its in-edges; ``INPUT`` nodes are salted with their ordinal among
        the graph's inputs (creation order), because they are the caller's
        interface, while weights and constants of equal shape stay
        interchangeable.  The graph digest combines the *multiset* of all
        node digests, a *fan-out term* for every node with two or more
        consumers — its digest with the multiset of its ``(consumer
        digest, dst_slot)`` pairs — and the node count.  Sink digests alone
        would identify a DAG with its unfolded tree and make every
        merge/CSE rewrite hash equal to its own input; node digests alone
        cannot tell which of two equal-digest producers (``mm(x, W1)`` and
        ``mm(x, W2)``: distinct weights, one digest) feeds which consumers.

        Contract: graphs that differ only by node-id relabelling (inputs
        kept in order; equal-shape weights and constants interchangeable)
        hash equal.  Graphs hash differently unless a bijection between
        their nodes preserves op, attrs, output shapes, ordered input
        digests and each node's consumer digests — so two graphs that are
        *not* relabellings of each other share a digest only if they
        differ solely in how equal-digest producers are paired with
        consumers two or more levels downstream of them.

        Memoised until the next mutation.  A graph that is
        ``parent.copy()`` + surgery with a faithful :meth:`delta_parent`
        re-digests only the downstream cone of its delta's added and
        rewired nodes against the parent's digest table, and keeps just the
        hex digest; any other graph takes one pass over all its nodes in
        ascending id order, over the payload :meth:`add_node` left on each.
        That pass looks each payload up in :data:`_DIGESTS` first: a graph
        the process has not hashed before pays one ``blake2b`` per new
        payload (≈ 1.2–1.6 µs a node for the whole fingerprint of a reduced
        catalogue model, pinned, 2-vCPU host), a repeat — every cache hit —
        one dict lookup per node instead (≈ 0.8–1.1 µs;
        ``docs/architecture.md``, "What a fingerprint costs").
        """
        cached = self._scalar_cache.get("hash")
        if cached is not None:
            return cached
        parent = self.delta_parent()
        if parent is not None and self._input_ids() == parent._input_ids():
            digest_of, total, hubs = self._rehash_cone(*parent._digests())
        else:
            table, total, hubs = self._digests()
            digest_of = table.__getitem__
        blake2b = hashlib.blake2b
        for nid, edges in self._out_edges.select(hubs).items():
            if len(edges) > 1:
                # The consumer's digest already pins which output slot of
                # ``nid`` arrives at ``dst_slot``.
                records = sorted(
                    digest_of(edge.dst) + edge.dst_slot.to_bytes(4, "little")
                    for edge in edges)
                total += int.from_bytes(blake2b(
                    digest_of(nid) + b"".join(records), digest_size=16,
                    person=b"fanout").digest(), "little")
        # 24 bytes hold the sum of 2**63 sixteen-byte terms.
        digest = hashlib.sha256(
            total.to_bytes(24, "little")
            + len(self.nodes).to_bytes(8, "little")).hexdigest()
        self._scalar_cache["hash"] = digest
        return digest

    def _input_ids(self):
        return self._nodes_by_op.get(OpType.INPUT, {}).keys()

    def _digests(self) -> Tuple[Dict[NodeId, bytes], int, Set[NodeId]]:
        """``(digest of every node, their integer sum, ids of the nodes with
        two or more consumers)``, memoised until the next mutation — what
        this graph's candidates re-digest their cones against."""
        cached = self._scalar_cache.get("digests")
        if cached is None:
            table: Dict[NodeId, bytes] = {}
            # ``share()``: the whole edge map as one plain dict, for free
            # once the first ``copy()`` (or this) has flattened the layers.
            self._merkle(table, self.nodes, {}, self._in_edges.share())
            hubs = {nid for nid, edges in self._out_edges.share().items()
                    if len(edges) > 1}
            cached = (table, _digest_sum(table.values()), hubs)
            self._scalar_cache["digests"] = cached
        return cached

    def _rehash_cone(self, table: Dict[NodeId, bytes], total: int,
                     hubs: Set[NodeId]
                     ) -> Tuple[Callable[[NodeId], bytes], int, Set[NodeId]]:
        """This graph's ``(node id -> digest, digest sum, superset of the
        ids with two or more consumers)`` from its parent's
        :meth:`_digests` (read, never written) and the recorded delta."""
        delta = self._delta
        seeds = delta.added | delta.rewired
        cone = self._out_edges.reachable(seeds)
        fresh: Dict[NodeId, bytes] = {}
        in_edges = self._in_edges.select(cone)
        self._merkle(fresh, cone, table, in_edges)
        # Exact integer arithmetic (no modulus), so taking the stale digests
        # back out leaves precisely the sum over live nodes.
        total += _digest_sum(fresh.values()) - _digest_sum(
            table[nid] for nid in itertools.chain(
                delta.removed, cone - delta.added))
        # Rewrites only attach consumers to new nodes and to the producers
        # of new or rewired ones.
        hubs = delta.added.union(
            hubs, (edge.src for nid in seeds for edge in in_edges[nid]))
        hubs -= delta.removed

        def digest_of(nid: NodeId) -> bytes:
            return fresh[nid] if nid in fresh else table[nid]

        return digest_of, total, hubs

    def _merkle(self, table: Dict[NodeId, bytes], todo: Collection[NodeId],
                known: Mapping[NodeId, bytes],
                in_edges: Mapping[NodeId, List[Edge]]) -> None:
        """Fill ``table`` with the Merkle digest of every node in ``todo``.

        ``in_edges`` maps (at least) those nodes to their in-edge lists;
        ``known`` holds the digest of every producer outside ``todo`` (there
        is none on a whole-graph pass) and is only read.  One walk in
        ascending id order: builders create producers before consumers, so
        a node almost always finds its inputs digested.  One that does not
        (a consumer rewired to a newer node) waits for the producer it
        missed and is walked again once that producer is digested; a node
        still waiting when the walk ends is on a cycle or downstream of one.

        A whole-graph pass reads and fills :data:`_DIGESTS`, so a graph the
        process has hashed before costs one lookup per node instead of one
        ``blake2b``; a cone pass (``known`` non-empty) hashes payloads new
        by construction and leaves the table alone.
        """
        nodes = self.nodes
        input_rank = {nid: rank.to_bytes(4, "little")
                      for rank, nid in enumerate(self._input_ids())}
        blake2b = hashlib.blake2b
        memo = None if known else _DIGESTS
        waiting: Dict[NodeId, List[NodeId]] = {}
        order = sorted(todo)
        # Appending to ``order`` while iterating it walks the re-queued
        # consumers after everything queued so far.
        for nid in order:
            node = nodes[nid]
            prefix = node._hash_prefix
            if prefix is None:
                prefix = node._hash_prefix = _hash_prefix(node)
            parts = [prefix]
            # In dst_slot order (every mutator keeps it).
            for src, _, src_slot, _ in in_edges[nid]:
                digest = table.get(src)
                if digest is None:
                    if src in todo:
                        waiting.setdefault(src, []).append(nid)
                        break
                    digest = known[src]
                parts.append(digest)
                parts.append(src_slot.to_bytes(4, "little"))
            else:
                if nid in input_rank:
                    parts.append(input_rank[nid])
                payload = b"".join(parts)
                digest = None if memo is None else memo.get(payload)
                if digest is None:
                    digest = blake2b(payload, digest_size=16).digest()
                    if memo is not None and len(memo) < _DIGESTS_MAX:
                        memo[payload] = digest
                table[nid] = digest
                if waiting and nid in waiting:
                    order += waiting.pop(nid)
        if waiting:
            raise GraphValidationError("graph contains a cycle")

    def copy(self) -> "Graph":
        """A structurally identical graph with the same node ids, sharing
        what neither side writes.

        Not a deep copy.  The copy *shares* the :class:`Node` objects and
        the frozen adjacency (each side's edge maps overlay the same
        snapshot, :class:`_CowEdgeMap`).  It *clones* the node-id table,
        the op-type index, the op-id table and the whole-graph memos (valid
        because the copy is structurally identical), and starts recording a
        fresh mutation delta — so a candidate graph produced by
        ``parent.copy()`` plus surgery knows exactly what changed relative to
        its parent.

        :class:`Node` objects, and with them their :meth:`node_memo`, are
        shared with the copy (copy-on-write): nothing in the mutation API
        writes to an existing node — rewrites add nodes, remove them and
        replace the ones whose inputs they rewire, and
        :meth:`refresh_shapes` replaces nodes too — so a child shares a node
        with its parent exactly when the node is not in its delta's
        ``added | rewired``, and re-derives per-node values only there
        (template values only for templates the process has not met).
        """
        g = Graph(self.name)
        g._next_id = self._next_id
        g.nodes = dict(self.nodes)
        # Adjacency is shared copy-on-write: the child starts from a frozen
        # snapshot of this graph's maps and clones only the per-node lists
        # its own mutations touch (see :class:`_CowEdgeMap`).
        g._in_edges = _CowEdgeMap(self._in_edges.share())
        g._out_edges = _CowEdgeMap(self._out_edges.share())
        g._nodes_by_op = {op: dict(bucket)
                          for op, bucket in self._nodes_by_op.items()}
        g._op_ids = list(self._op_ids)
        g._scalar_cache = dict(self._scalar_cache)
        g.begin_delta()
        g._parent_ref = weakref.ref(self)
        g._parent_version = self._version
        g._copy_delta = g._delta
        return g

    def structure(self) -> "Graph":
        """This graph's nodes and edges and nothing else, for a later
        :meth:`structural_hash`: no caches, no lineage, no delta.

        Shares the node dict, the ``INPUT`` index and the frozen adjacency
        (:meth:`_CowEdgeMap.snapshot`) instead of copying them, and keeps
        no other index, so it holds no table of its own; hash it only, and
        only while this graph is not mutated.
        """
        g = Graph.__new__(Graph)
        state = g.__dict__
        state.update(self.__dict__)
        inputs = self._nodes_by_op.get(OpType.INPUT, {})
        state.update(_in_edges=self._in_edges.snapshot(),
                     _out_edges=self._out_edges.snapshot(),
                     _nodes_by_op={OpType.INPUT: inputs},
                     _op_ids=[], _parent_ref=None, _parent_version=-1,
                     _copy_delta=None, _delta=None, _scalar_cache={})
        return g

    def delta_parent(self) -> Optional["Graph"]:
        """The graph this one was copied from, when the recorded delta is
        still a faithful diff against it.

        Returns ``None`` unless *all* of: this graph was produced by
        :meth:`copy`, the parent object is still alive, the parent's
        structure has not mutated since the copy, and this graph's delta
        recording was never restarted (``begin_delta`` would orphan the
        copy-time checkpoint).  Incremental consumers — the delta GNN
        embedder, the candidate-set maintainer — use this as their
        validity gate and fall back to full recomputation on ``None``.
        """
        if (self._delta is None or self._delta is not self._copy_delta
                or self._parent_ref is None):
            return None
        parent = self._parent_ref()
        if parent is None or parent._version != self._parent_version:
            return None
        return parent

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def op_type_counts(self) -> Dict[str, int]:
        """``{op type name: number of nodes of that op}``."""
        counts: Dict[str, int] = {}
        for node in self.nodes.values():
            counts[node.op_type.value] = counts.get(node.op_type.value, 0) + 1
        return counts

    def total_flops(self) -> float:
        """Approximate floating point operations of one forward pass."""
        from ..cost.op_cost import op_flops  # local import to avoid cycle
        return sum(
            op_flops(node.op_type, self.input_specs(nid), node.outputs, node.attrs)
            for nid, node in self.nodes.items()
        )

    def __repr__(self) -> str:
        return (f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")
