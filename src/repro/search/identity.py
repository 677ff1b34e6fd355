"""How a search tells the graphs it keeps apart.

TASO's queue and Tensat's population each keep a graph only if they have
not kept it before, and "it" is :meth:`Graph.structural_hash`: a Merkle
hash that a candidate re-digests over the whole downstream cone of its
rewrite.  :class:`GraphSet` answers every membership question exactly as a
set of those hashes would, but takes a hash only where two graphs cannot
be told apart otherwise.

Every graph first gets a **signature**, ``(Σ n2(v) as integers, node
count)`` over its nodes ``v``, from three per-node terms (a
Weisfeiler–Lehman refinement two rounds deep, salted with path counts):

* ``n1(v)`` — blake2b of ``v``'s node-local payload (``_hash_prefix``: op,
  attrs, output shapes), then ``(payload of src, src_slot)`` per in-edge in
  slot order, then the ``INPUT`` ordinal;
* ``paths(v)`` — 1 on an ``INPUT`` node, otherwise the sum of ``paths(src)``
  over its in-edges, mod 2**61: how many paths reach it from the inputs;
* ``n2(v)`` — blake2b of ``n1(v)``, then ``(n1(src), src_slot)`` per
  in-edge, then ``paths(v)``.

Each term is a function of ``v``'s Merkle digest, which pins ``v``'s whole
unfolded in-tree, so **equal structural hashes imply equal signatures**.
The converse is never assumed: a graph whose signature no member shares is
new, and one that shares a member's signature is compared by structural
hash with the members of that signature.

A candidate derives its signature from its delta parent's per-node tables
in O(rewrite): ``n1`` of its added and rewired nodes, ``paths`` of those
and downstream only where a count moved, ``n2`` of those plus the consumers
of a changed ``n1``, the old terms taken out of the sum exactly as
integers.  A graph without a live, signed delta parent (the root, a graph
whose parent was collected or mutated) takes one pass over its nodes.
"""

from __future__ import annotations

import hashlib
import itertools
import weakref
from typing import Collection, Dict, List, Mapping, Optional, Set, Tuple, Union

from ..ir.graph import (Edge, Graph, GraphValidationError, Node, NodeId,
                        _hash_prefix)
from ..ir.ops import OpType

__all__ = ["GraphSet"]

#: ``paths`` is kept mod 2**61 (the counts grow exponentially on DAGs).
_PATHS_MASK = (1 << 61) - 1

_INPUT = OpType.INPUT

Signature = Tuple[int, int]


def _prefix(node: Node) -> bytes:
    """``node``'s memoised Merkle payload (shared with the structural hash)."""
    prefix = node._hash_prefix
    if prefix is None:
        prefix = node._hash_prefix = _hash_prefix(node)
    return prefix


def _n1(nodes: Mapping[NodeId, Node], nid: NodeId, edges: List[Edge],
        rank: Optional[bytes]) -> bytes:
    parts = [_prefix(nodes[nid])]
    for edge in edges:  # in dst_slot order (every mutator)
        parts.append(_prefix(nodes[edge.src]))
        parts.append(edge.src_slot.to_bytes(4, "little"))
    if rank is not None:
        parts.append(rank)
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


def _n2(n1: Mapping[NodeId, bytes], nid: NodeId, edges: List[Edge],
        paths: int, fresh: Mapping[NodeId, bytes] = {}) -> int:
    """``n2(nid)``, reading ``n1`` from ``fresh`` first, then ``n1``."""
    get = fresh.get
    parts = [get(nid) or n1[nid]]
    for edge in edges:
        parts.append(get(edge.src) or n1[edge.src])
        parts.append(edge.src_slot.to_bytes(4, "little"))
    parts.append(paths.to_bytes(8, "little"))
    return int.from_bytes(hashlib.blake2b(
        b"".join(parts), digest_size=16, person=b"signature").digest(),
        "little")


def _count_paths(nodes: Mapping[NodeId, Node],
                 in_edges: Mapping[NodeId, List[Edge]],
                 todo: Collection[NodeId],
                 known: Mapping[NodeId, int]) -> Dict[NodeId, int]:
    """``paths`` of every node in ``todo``; ``known`` holds it for every
    producer outside ``todo``.  Depth-first over in-edges, like the Merkle
    pass: nothing here sorts the graph topologically."""
    counts: Dict[NodeId, int] = {}
    visiting: Set[NodeId] = set()
    stack = sorted(todo, reverse=True)
    while stack:
        nid = stack[-1]
        if nid in counts:
            stack.pop()
            continue
        total = 0
        pending = False
        for edge in in_edges[nid]:
            src = edge.src
            count = counts.get(src)
            if count is None:
                if src in todo:
                    stack.append(src)
                    pending = True
                    continue
                count = known[src]
            total += count
        if pending:
            if nid in visiting:
                raise GraphValidationError("graph contains a cycle")
            visiting.add(nid)
            continue
        counts[nid] = 1 if nodes[nid].op_type is _INPUT else total & _PATHS_MASK
        stack.pop()
    return counts


class _Tables:
    """One graph's per-node signature terms (``n2`` is not kept: a rewrite
    re-derives the old terms it takes out from its live delta parent).

    *Flat*: ``n1`` and ``paths`` cover every node and ``base`` is ``None``.
    *Derived*: they hold only what the rewrite re-derived, over the flat
    tables of the delta parent in ``base``, minus ``removed`` — a graph is
    flattened only once a candidate of its own is signed.
    """

    __slots__ = ("n1", "paths", "base", "removed", "version", "signature",
                 "digest")

    def __init__(self, n1: Dict[NodeId, bytes], paths: Dict[NodeId, int],
                 signature: Signature, version: int,
                 base: Optional["_Tables"] = None,
                 removed: Collection[NodeId] = ()):
        self.n1, self.paths = n1, paths
        self.signature = signature
        #: ``Graph._version`` when signed: a mutated graph is signed again.
        self.version = version
        self.base = base
        self.removed = removed
        #: The structural hash, once this set has taken it.
        self.digest: Optional[str] = None

    def flatten(self) -> None:
        base = self.base
        if base is None:
            return
        tables = []
        for own, inherited in ((self.n1, base.n1), (self.paths, base.paths)):
            table = dict(inherited)
            for nid in self.removed:
                del table[nid]
            table.update(own)
            tables.append(table)
        self.n1, self.paths = tables
        self.base, self.removed = None, ()


class GraphSet:
    """The graphs a search has kept, with exact membership by structural
    hash and a structural hash taken only on a signature tie.

    ``graph in seen`` and ``seen.add(graph)`` answer and grow exactly as
    ``graph.structural_hash() in hashes`` and ``hashes.add(...)`` would.
    A member whose signature no later graph shares is held as structure
    only (:meth:`Graph.structure`: its nodes and frozen adjacency, shared,
    no caches), so a later tie can still be settled; a member must not be
    mutated while it is in the set — a search never mutates a graph it
    keeps.

    The per-node tables belong to the set and are keyed weakly by graph:
    nothing is memoised on a graph, and nothing outlives the search.

    ``signed`` counts the signatures taken (one per graph asked about or
    added — the search's "identities"), ``digested`` the structural hashes
    taken to settle ties.
    """

    def __init__(self):
        self._tables: "weakref.WeakKeyDictionary[Graph, _Tables]" = \
            weakref.WeakKeyDictionary()
        self._members: Dict[Signature, List[Union[str, Graph]]] = {}
        self.signed = 0
        self.digested = 0

    def __contains__(self, graph: Graph) -> bool:
        """Whether a member has ``graph``'s structural hash, taking hashes
        only if a member has ``graph``'s signature."""
        tables = self._signed(graph)
        bucket = self._members.get(tables.signature)
        if not bucket:
            return False
        digest = self._digest(graph, tables)
        for index, member in enumerate(bucket):
            if not isinstance(member, str):
                self.digested += 1
                member = bucket[index] = member.structural_hash()
            if member == digest:
                return True
        return False

    def add(self, graph: Graph) -> None:
        """Make ``graph`` a member; it must not be one (test ``in`` first)."""
        tables = self._signed(graph)
        self._members.setdefault(tables.signature, []).append(
            tables.digest or graph.structure())

    def signature(self, graph: Graph) -> Signature:
        """``graph``'s signature: derived from its delta parent's tables
        when this set signed that parent, else one pass over ``graph``."""
        return self._signed(graph).signature

    # ------------------------------------------------------------------
    def _digest(self, graph: Graph, tables: _Tables) -> str:
        if tables.digest is None:
            self.digested += 1
            tables.digest = graph.structural_hash()
        return tables.digest

    def _signed(self, graph: Graph) -> _Tables:
        tables = self._tables.get(graph)
        if tables is not None and tables.version == graph._version:
            return tables
        self.signed += 1
        parent = graph.delta_parent()
        base = None if parent is None else self._tables.get(parent)
        if (base is None or base.version != parent._version
                or graph._input_ids() != parent._input_ids()):
            tables = self._full_pass(graph)
        else:
            base.flatten()
            tables = self._derive(graph, parent, base)
        self._tables[graph] = tables
        return tables

    @staticmethod
    def _full_pass(graph: Graph) -> _Tables:
        nodes = graph.nodes
        in_edges = graph._in_edges.share()
        ranks = {nid: rank.to_bytes(4, "little")
                 for rank, nid in enumerate(graph._input_ids())}
        n1 = {nid: _n1(nodes, nid, in_edges[nid], ranks.get(nid))
              for nid in nodes}
        paths = _count_paths(nodes, in_edges, nodes, {})
        total = sum(_n2(n1, nid, in_edges[nid], paths[nid]) for nid in nodes)
        return _Tables(n1, paths, (total, len(nodes)), graph._version)

    @staticmethod
    def _derive(graph: Graph, parent: Graph, base: _Tables) -> _Tables:
        """``graph``'s tables from its delta parent's flat ``base``.

        With the inputs unchanged no ``INPUT`` node is added or rewired, so
        no re-derived ``n1`` carries an ordinal.
        """
        delta = graph.mutation_delta()
        nodes, in_edges, out_edges = graph.nodes, graph._in_edges, \
            graph._out_edges
        old_n1, old_paths = base.n1, base.paths
        seeds = delta.added | delta.rewired
        fresh = {nid: _n1(nodes, nid, in_edges[nid], None) for nid in seeds}
        # Seeds first, as if every other count stood; where a rewired
        # node's count moved, its whole downstream cone is recounted.
        paths = _count_paths(nodes, in_edges, seeds, old_paths)
        moved = [nid for nid in delta.rewired if paths[nid] != old_paths[nid]]
        redo = set(seeds)
        if moved:
            paths = _count_paths(nodes, in_edges,
                                 out_edges.reachable(moved) | seeds, old_paths)
            redo.update(nid for nid, count in paths.items()
                        if nid not in seeds and count != old_paths[nid])
        for nid in delta.rewired:
            if fresh[nid] != old_n1[nid]:
                redo.update(edge.dst for edge in out_edges[nid])
        total = base.signature[0] + sum(
            _n2(old_n1, nid, in_edges[nid],
                paths[nid] if nid in paths else old_paths[nid], fresh)
            for nid in redo)
        # The parent's terms of what changed, re-derived and taken out as
        # exact integers: no residue.
        old_in_edges = parent._in_edges
        total -= sum(_n2(old_n1, nid, old_in_edges[nid], old_paths[nid])
                     for nid in itertools.chain(redo - delta.added,
                                                delta.removed))
        return _Tables(fresh, paths, (total, len(nodes)), graph._version,
                       base=base, removed=tuple(delta.removed))
