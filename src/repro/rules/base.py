"""Rewrite-rule framework: matches, rules, candidates and rule sets.

A :class:`RewriteRule` knows how to locate every place it applies in a graph
(:meth:`RewriteRule.find_matches`) and how to produce a *new* transformed
graph for a given match (:meth:`RewriteRule.apply`).  The environment and the
baseline optimisers only consume ``(rule, match) -> candidate graph`` tuples,
so rules are free to implement matching either programmatically or via the
generic pattern matcher.

Two incremental-engine features live here:

* **Anchor-based matching** — a rule declares the op types its pattern is
  rooted at (:attr:`RewriteRule.anchor_ops`); :meth:`RewriteRule.anchor_nodes`
  then seeds matching from the graph's op-type index instead of scanning
  every node.
* **Lazy candidates** — :class:`Candidate` holds ``(rule, match, parent)``
  and only runs ``rule.apply`` (which copies the parent graph —
  :meth:`~repro.ir.graph.Graph.copy`: shared nodes and adjacency, cloned
  indexes and memos — then rewrites the copy) when ``candidate.graph`` is
  first accessed, so consumers that discard most candidates (the RL
  environment's action-space cap, random walks) never pay for the graphs
  they do not look at.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property
from dataclasses import dataclass
from typing import (AbstractSet, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from ..ir.graph import Graph, Node, NodeId
from ..ir.ops import OpType

__all__ = ["Match", "Candidate", "RewriteRule", "RuleSet",
           "eliminate_dead_nodes", "replace_all_uses",
           "restricted_anchor_matching"]


#: When non-None, :meth:`RewriteRule.anchor_nodes` yields only these ids —
#: the hook the incremental candidate engine uses to re-run matching on the
#: mutated neighbourhood of a delta instead of the whole graph.  A context
#: variable, not a module global: the service's worker threads run searches
#: concurrently, and a filter installed by one search must never be seen by
#: another thread's ``find_matches``.
_ANCHOR_FILTER: ContextVar[Optional[AbstractSet[NodeId]]] = ContextVar(
    "restricted_anchor_matching", default=None)


@contextmanager
def restricted_anchor_matching(node_ids: AbstractSet[NodeId]):
    """Limit :meth:`RewriteRule.anchor_nodes` to ``node_ids`` for the block.

    For a rule whose matches are rooted at one anchor node and inspect only
    nodes within :attr:`RewriteRule.match_radius` of it, running
    ``find_matches`` under this filter yields exactly the matches anchored
    in ``node_ids`` — the incremental candidate engine re-matches just the
    anchors near a mutation and splices the result into the cached set.
    """
    token = _ANCHOR_FILTER.set(node_ids)
    try:
        yield
    finally:
        _ANCHOR_FILTER.reset(token)


@dataclass(frozen=True)
class Match:
    """One location in a graph where a rule applies.

    ``nodes`` maps rule-defined role names (e.g. ``"conv"``, ``"bn"``) to the
    node ids they bind to; ``params`` carries any extra data ``apply`` needs.
    """

    rule_name: str
    nodes: Tuple[Tuple[str, NodeId], ...]
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def create(cls, rule_name: str, nodes: Dict[str, NodeId],
               params: Optional[Dict[str, object]] = None) -> "Match":
        """A match from dicts; roles and params are stored sorted, so equal
        bindings give equal (and equally hashed) matches."""
        return cls(rule_name,
                   tuple(sorted(nodes.items())),
                   tuple(sorted((params or {}).items())))

    @cached_property
    def node_map(self) -> Dict[str, NodeId]:
        """``{role: node id}`` of :attr:`nodes`."""
        return dict(self.nodes)

    @cached_property
    def param_map(self) -> Dict[str, object]:
        """``{name: value}`` of :attr:`params`."""
        return dict(self.params)

    def node(self, role: str) -> NodeId:
        """The node id bound to ``role`` (``KeyError`` if unbound)."""
        return self.node_map[role]


class Candidate:
    """A transformed graph generated by applying one rule at one match.

    The graph is materialised lazily: a candidate created from ``(rule,
    match, parent)`` only runs ``rule.apply`` — and therefore only copies the
    parent graph (:meth:`~repro.ir.graph.Graph.copy`, which shares the
    parent's nodes and adjacency) — when :attr:`graph` is first read.  A match that fails to
    apply (shape corner case) yields ``None`` from :meth:`materialise`;
    accessing :attr:`graph` on such a candidate re-raises the apply error.

    ``outcome`` is what its caller learnt from an earlier materialisation of
    this match where that still holds — a price for the searches, a rewrite
    cone for the RL environment (set by ``IncrementalCandidateEngine``, see
    its ``remember``) — else ``None``; a remembered apply failure arrives as
    ``error`` and makes the candidate fail again without applying.
    """

    __slots__ = ("rule_name", "match", "outcome", "parent", "error",
                 "_graph", "_rule")

    def __init__(self, *, rule: "RewriteRule", match: Match, parent: Graph):
        self._graph: Optional[Graph] = None
        self._rule = rule
        self.parent = parent
        self.error: Optional[Exception] = None
        self.outcome: object = None
        self.rule_name = rule.name
        self.match = match

    @property
    def is_materialised(self) -> bool:
        """Whether the rule was applied and its graph is held."""
        return self._graph is not None

    def materialise(self) -> Optional[Graph]:
        """The candidate graph, or ``None`` if the rule failed to apply."""
        if self._graph is None and self.error is None:
            try:
                self._graph = self._rule.apply(self.parent, self.match)
            except Exception as exc:
                self.error = exc
        return self._graph

    @property
    def graph(self) -> Graph:
        """The candidate graph, materialised on first read; re-raises the
        apply error of a candidate that failed."""
        graph = self.materialise()
        if graph is None:
            raise self.error
        return graph

    def __repr__(self) -> str:
        if self._graph is not None:
            return (f"Candidate(rule={self.rule_name!r}, "
                    f"nodes={self._graph.num_nodes})")
        return f"Candidate(rule={self.rule_name!r}, lazy)"


class RewriteRule(abc.ABC):
    """Base class for all subgraph-substitution rules."""

    #: Unique rule identifier (used in the Figure 5 heatmap).
    name: str = "rule"
    #: Coarse category: "fusion", "merge", "algebraic", "cleanup", "layout".
    category: str = "generic"
    #: Op types the rule's pattern is rooted at.  ``find_matches`` seeds from
    #: the graph's op-type index over these; an empty tuple means the rule
    #: scans every node (legacy behaviour for rules without a natural root).
    anchor_ops: Tuple[OpType, ...] = ()
    #: The match role bound to the anchor node ``find_matches`` iterates.
    #: When set, the rule promises its matches are *per-anchor independent*:
    #: the matches rooted at one anchor depend only on that anchor's
    #: ``match_radius``-neighbourhood, so the incremental engine can keep
    #: per-anchor match groups alive across rewrites.  ``None`` means match
    #: groups are coupled across anchors (e.g. the merge rules pair anchors
    #: sharing an input) and the engine re-runs the whole rule when any
    #: anchor sits near a mutation.
    anchor_role: Optional[str] = None
    #: Upper bound on the undirected graph distance from the anchor to any
    #: node ``find_matches`` inspects while deciding the matches rooted
    #: there.  The incremental engine re-matches every anchor within this
    #: distance of a delta's touched nodes.
    match_radius: int = 3
    #: Whether the substitution is numerically exact under
    #: :func:`repro.exec.differential_check` (rules that fabricate or repack
    #: weight tensors preserve semantics on real systems, where the weights
    #: are re-computed; the executor draws a fabricated weight from its name).
    exactly_equivalent: bool = True

    def anchor_nodes(self, graph: Graph) -> Iterator[Tuple[NodeId, Node]]:
        """Candidate root nodes for this rule, in node-creation order.

        Uses the graph's op-type index when :attr:`anchor_ops` is declared;
        a rule without anchors scans every node of ``graph.nodes``.
        """
        ops = self.anchor_ops
        allowed = _ANCHOR_FILTER.get()
        if not ops:
            for nid, node in graph.nodes.items():
                if allowed is None or nid in allowed:
                    yield nid, node
            return
        nodes = graph.nodes
        for nid in graph.nodes_by_op(*ops):
            if allowed is None or nid in allowed:
                yield nid, nodes[nid]

    @abc.abstractmethod
    def find_matches(self, graph: Graph) -> List[Match]:
        """Return every location in ``graph`` where this rule applies."""

    @abc.abstractmethod
    def apply(self, graph: Graph, match: Match) -> Graph:
        """Return a new graph with the substitution applied at ``match``.

        Implementations must not mutate ``graph``.
        """

    # ------------------------------------------------------------------
    def lazy_candidates(self, graph: Graph) -> List[Candidate]:
        """Unmaterialised candidates for every match of this rule."""
        return [Candidate(rule=self, match=match, parent=graph)
                for match in self.find_matches(graph)]

    def candidates(self, graph: Graph) -> List[Candidate]:
        """All candidate graphs this rule can produce from ``graph``.

        Eagerly materialised; matches that fail to apply (e.g. shape corner
        cases) are silently skipped, as before.
        """
        return [c for c in self.lazy_candidates(graph)
                if c.materialise() is not None]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class RuleSet:
    """An ordered collection of rewrite rules."""

    def __init__(self, rules: Iterable[RewriteRule]):
        self.rules: List[RewriteRule] = list(rules)
        self._by_name: Dict[str, RewriteRule] = {r.name: r for r in self.rules}
        if len(self._by_name) != len(self.rules):
            raise ValueError(
                f"duplicate rule names in rule set: {[r.name for r in self.rules]}")

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def rule(self, name: str) -> RewriteRule:
        """The rule called ``name`` (``KeyError`` if there is none)."""
        return self._by_name[name]

    def names(self) -> List[str]:
        """The rules' names, in rule order."""
        return [r.name for r in self.rules]

    def lazy_candidates(self, graph: Graph) -> List[Candidate]:
        """Unmaterialised candidates from every rule, in rule order.

        Unlike :meth:`all_candidates` this may include matches whose apply
        would fail — consumers must check :meth:`Candidate.materialise`.
        """
        out: List[Candidate] = []
        for rule in self.rules:
            out.extend(rule.lazy_candidates(graph))
        return out

    def all_candidates(self, graph: Graph) -> List[Candidate]:
        """Candidates from every rule at every match location, in rule order."""
        out: List[Candidate] = []
        for rule in self.rules:
            out.extend(rule.candidates(graph))
        return out

    def extended(self, extra: Iterable[RewriteRule]) -> "RuleSet":
        """A new rule set with ``extra`` rules appended (names must be new)."""
        return RuleSet(self.rules + list(extra))


# ---------------------------------------------------------------------------
# Graph-surgery helpers shared by rule implementations
# ---------------------------------------------------------------------------

def replace_all_uses(graph: Graph, old: NodeId, new: NodeId,
                     old_slot: int = 0, new_slot: int = 0) -> None:
    """Redirect every consumer of ``old``'s output slot to ``new``'s."""
    for edge in list(graph.out_edges(old)):
        if edge.src_slot != old_slot:
            continue
        graph.rewire_input(edge.dst, edge.dst_slot, new, new_slot)


_PRESERVED_OPS = (OpType.INPUT, OpType.OUTPUT)


def eliminate_dead_nodes(graph: Graph) -> int:
    """Remove nodes whose outputs are never consumed.

    Input and Output nodes are preserved (they define the graph's external
    interface).  Returns the number of nodes removed.

    Single worklist pass: removing a node can only orphan its predecessors,
    so dead producers are enqueued as their consumers disappear instead of
    re-scanning the whole graph to a fixed point.

    When the graph is a live copy with a faithful mutation delta (the
    normal candidate-materialisation flow: ``parent.copy()`` + surgery),
    the initial worklist comes from the delta instead of a full scan: only
    nodes that lost an out-edge since the copy (``delta.out_shrunk``) or
    were added by the surgery can be newly dead.  This assumes the parent
    itself carried no dead nodes — true for every graph the optimisers
    hand to a rule, since each is either a freshly built model or the
    output of a previous materialisation (which ran this very pass).
    """
    removed = 0
    delta = graph.mutation_delta()
    if delta is not None and graph.delta_parent() is not None:
        nodes = graph.nodes
        worklist = [nid for nid in (delta.out_shrunk | delta.added)
                    if nid in nodes
                    and nodes[nid].op_type not in _PRESERVED_OPS
                    and not graph._out_edges[nid]]
    else:
        worklist = [nid for nid, node in graph.nodes.items()
                    if node.op_type not in _PRESERVED_OPS
                    and not graph._out_edges[nid]]
    while worklist:
        nid = worklist.pop()
        if nid not in graph.nodes or graph._out_edges[nid]:
            continue  # already removed, or revived by a duplicate entry
        predecessors = {e.src for e in graph._in_edges[nid]}
        graph.remove_node(nid)
        removed += 1
        for pred in predecessors:
            if pred in graph.nodes and \
                    graph.nodes[pred].op_type not in _PRESERVED_OPS and \
                    not graph._out_edges[pred]:
                worklist.append(pred)
    return removed
