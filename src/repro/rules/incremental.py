"""Incremental candidate-set maintenance across rewrite steps.

Most matches survive a rewrite: applying ``fuse-conv-bn`` deep inside
Inception leaves every match in the other towers untouched, yet the RL
environment and the TASO search used to re-run ``find_matches`` for all
rules over the whole graph on every step.  This module keeps the match
set alive across steps and reconciles it against the
:class:`~repro.ir.graph.GraphDelta` each rewrite records:

1. compute the **touched set** — every node whose existence or adjacency
   differs from the parent graph (the delta's added/rewired nodes, plus
   the producers whose out-edge lists changed on either side);
2. BFS outward (undirected) to label every node within the largest
   :attr:`~repro.rules.base.RewriteRule.match_radius` of the touched set;
3. per rule, drop the cached match groups anchored near the mutation —
   or binding a changed node — and re-run matching restricted to just
   those anchors (:func:`~repro.rules.base.restricted_anchor_matching`);
   rules whose matches couple several anchors (``anchor_role is None``)
   are re-run whole whenever any of their anchors sits near the delta;
4. splice cached and fresh groups back together in ascending-anchor
   order, which is exactly the order ``find_matches`` enumerates.

From-scratch matching (``RuleSet.lazy_candidates``) is the equivalence
oracle: for any reachable graph the engine must produce the identical
candidate list, and ``tests/rules/test_engine_equivalence.py`` asserts
it does.

A state also carries **outcomes**: what its caller learnt from applying a
match (:meth:`IncrementalCandidateEngine.remember`) — the TASO search's
price, the RL environment's rewrite cone — with the *footprint* the rewrite
read and wrote, plus whatever else the caller read.  An outcome is handed to
a child state iff its footprint is disjoint from the step's dirty set — the
same surgery on byte-identical nodes removes and adds the same nodes, so it
costs the same and changes the same rows.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.lru import LRUCache
from ..ir.graph import Graph, GraphDelta, NodeId
from ..rules.base import (Candidate, Match, RewriteRule, RuleSet,
                          restricted_anchor_matching)

__all__ = ["IncrementalCandidateEngine"]

#: Matches for one rule: either per-anchor groups (``anchor_role`` rules)
#: or the flat ordered list (coupled rules).
_RuleMatches = Tuple[Optional[Dict[NodeId, List[Match]]], List[Match]]

#: What is remembered about an applied match, and about one never applied.
_Outcome = Tuple[object, Optional[Exception], FrozenSet[NodeId]]
_UNKNOWN: _Outcome = (None, None, frozenset())


class _MatchState:
    """The cached match set of one graph (plus the graph itself).

    The graph reference is strong on purpose: states are keyed by
    ``id(graph)``, and pinning the graph guarantees the id cannot be
    recycled by the allocator while the state is alive.
    """

    __slots__ = ("graph", "per_rule", "outcomes")

    def __init__(self, graph: Graph,
                 per_rule: Dict[str, _RuleMatches]):
        self.graph = graph
        self.per_rule = per_rule
        #: ``{match: (outcome, apply error, footprint)}``, one of the first
        #: two ``None``.  Keyed by value: a re-found match finds its outcome.
        self.outcomes: Dict[Match, _Outcome] = {}


class IncrementalCandidateEngine:
    """Drop-in replacement for ``RuleSet.lazy_candidates`` with reuse.

    ``engine.lazy_candidates(graph)`` returns the same candidates in the
    same order as ``ruleset.lazy_candidates(graph)``.  When ``graph``
    was produced by ``parent.copy()`` + surgery and the parent's match
    state is cached, only the mutated neighbourhood is re-matched;
    otherwise the engine transparently falls back to full matching (and
    caches the result for the next step).  Outcomes told to
    :meth:`remember` come back on the candidates of every later state whose
    steps left the rewrite's footprint alone; a rebuilt state starts with
    none.

    Parameters
    ----------
    ruleset:
        The rules to maintain matches for.
    capacity:
        Number of graph match-states kept (LRU).  Each state pins its
        graph, so this bounds memory alongside reuse across the search
        frontier.
    """

    def __init__(self, ruleset: RuleSet, capacity: int = 64):
        self.ruleset = ruleset
        self._states: LRUCache = LRUCache(max_entries=capacity,
                                          name="match_state")
        self._max_radius = max((rule.match_radius for rule in ruleset.rules),
                               default=0)
        #: Diagnostics: how many ``lazy_candidates`` calls reused a parent
        #: state vs. re-matched from scratch, and how many remembered
        #: outcomes a child state took over vs. dropped (dirty footprint).
        self.incremental_updates = 0
        self.full_rebuilds = 0
        self.outcomes_inherited = 0
        self.outcomes_dropped = 0

    # ------------------------------------------------------------------
    def lazy_candidates(self, graph: Graph) -> List[Candidate]:
        """Unmaterialised candidates for ``graph``, in rule order."""
        state = self._states.get(id(graph))
        if state is not None and state.graph is graph:
            return self._candidates_from(state)
        parent_state = self._parent_state(graph)
        if parent_state is None:
            state = self._rebuild_state(graph)
            self.full_rebuilds += 1
        else:
            state = self._delta_state(parent_state, graph)
            self.incremental_updates += 1
        self._states.put(id(graph), state)
        return self._candidates_from(state)

    def remember(self, candidate: Candidate, child: Optional[Graph],
                 outcome: object = None, reads: Iterable[NodeId] = ()) -> None:
        """Remember that ``candidate``'s match, materialised as ``child``,
        came out as ``outcome`` (opaque here: a price, a rewrite cone);
        ``child`` is ``None`` when the apply failed, and the failure is
        remembered instead.

        Later candidates for the match carry it as ``Candidate.outcome`` —
        on this graph and on every descendant reached by steps that stayed
        clear of the footprint: the nodes the match binds and the rewrite
        removed, rewired or fed (of a failure: the bound nodes and their
        neighbours), plus ``reads``, the parent's nodes the caller read to
        derive ``outcome`` beyond those.  The ids the rewrite *added* are
        left out: every sibling is handed the same fresh ids, so they would
        collide with every step.  The caller promises that ``outcome`` is a
        function of the footprint's nodes and adjacency only.
        """
        parent = candidate.parent
        state = self._states.peek(id(parent))
        if state is None or state.graph is not parent:
            return
        footprint = {nid for _, nid in candidate.match.nodes}
        footprint.update(reads)
        if child is None:
            for nid in tuple(footprint):
                footprint.update(parent.predecessors(nid),
                                 parent.successors(nid))
        else:
            delta = child.mutation_delta()
            footprint |= self._touched_nodes(parent, child, delta)
            footprint |= delta.removed
            footprint -= delta.added
        state.outcomes[candidate.match] = (outcome, candidate.error,
                                           frozenset(footprint))

    def stats(self) -> Dict[str, float]:
        """The match-state cache's counters (``match_state_*``), how many
        states were updated from a parent's or matched from scratch, and
        how many remembered outcomes child states took over or dropped."""
        payload = self._states.stats()
        payload["match_incremental_updates"] = float(self.incremental_updates)
        payload["match_full_rebuilds"] = float(self.full_rebuilds)
        payload["outcomes_inherited"] = float(self.outcomes_inherited)
        payload["outcomes_dropped"] = float(self.outcomes_dropped)
        return payload

    # ------------------------------------------------------------------
    def _parent_state(self, graph: Graph) -> Optional[_MatchState]:
        parent = graph.delta_parent()
        if parent is None:
            return None
        delta = graph.mutation_delta()
        if delta is None or 2 * len(delta.changed_nodes()) > graph.num_nodes:
            # Rewrites this large (DCE cascades, whole-graph surgery)
            # would dirty most anchors anyway — full matching is cheaper
            # than reconciling.
            return None
        state = self._states.get(id(parent))
        if state is None or state.graph is not parent:
            return None
        return state

    def _rebuild_state(self, graph: Graph) -> _MatchState:
        per_rule: Dict[str, _RuleMatches] = {}
        for rule in self.ruleset.rules:
            matches = rule.find_matches(graph)
            per_rule[rule.name] = (self._group(rule, matches), matches)
        return _MatchState(graph, per_rule)

    @staticmethod
    def _group(rule: RewriteRule,
               matches: List[Match]) -> Optional[Dict[NodeId, List[Match]]]:
        if rule.anchor_role is None or not rule.anchor_ops:
            return None
        groups: Dict[NodeId, List[Match]] = {}
        for match in matches:
            groups.setdefault(match.node(rule.anchor_role), []).append(match)
        return groups

    def _candidates_from(self, state: _MatchState) -> List[Candidate]:
        graph, outcomes = state.graph, state.outcomes
        out: List[Candidate] = []
        for rule in self.ruleset.rules:
            _, matches = state.per_rule[rule.name]
            for match in matches:
                candidate = Candidate(rule=rule, match=match, parent=graph)
                candidate.outcome, candidate.error, _ = outcomes.get(
                    match, _UNKNOWN)
                out.append(candidate)
        return out

    # ------------------------------------------------------------------
    def _delta_state(self, parent_state: _MatchState,
                     graph: Graph) -> _MatchState:
        parent = parent_state.graph
        delta = graph.mutation_delta()
        touched = self._touched_nodes(parent, graph, delta)
        distance = self._distances(graph, touched)
        invalid = touched | delta.removed | delta.rewired | delta.added

        per_rule: Dict[str, _RuleMatches] = {}
        for rule in self.ruleset.rules:
            groups, matches = parent_state.per_rule[rule.name]
            if groups is None:
                per_rule[rule.name] = self._refresh_coupled(
                    rule, matches, graph, distance, invalid)
            else:
                per_rule[rule.name] = self._refresh_grouped(
                    rule, groups, graph, distance, invalid)
        state = _MatchState(graph, per_rule)
        dirty = touched | delta.removed
        state.outcomes = {match: known
                          for match, known in parent_state.outcomes.items()
                          if known[2].isdisjoint(dirty)}
        self.outcomes_inherited += len(state.outcomes)
        self.outcomes_dropped += len(parent_state.outcomes) \
            - len(state.outcomes)
        return state

    def _refresh_coupled(self, rule: RewriteRule, cached: List[Match],
                         graph: Graph, distance: Dict[NodeId, int],
                         invalid: Set[NodeId]) -> _RuleMatches:
        """Coupled rules re-run whole if any anchor sits near the delta."""
        radius = rule.match_radius
        stale = any(distance.get(nid, radius + 1) <= radius
                    for nid in graph.nodes_by_op(*rule.anchor_ops))
        if not stale:
            stale = any(nid in invalid
                        for match in cached for _, nid in match.nodes)
        if stale:
            return (None, rule.find_matches(graph))
        return (None, cached)

    def _refresh_grouped(self, rule: RewriteRule,
                         cached: Dict[NodeId, List[Match]], graph: Graph,
                         distance: Dict[NodeId, int],
                         invalid: Set[NodeId]) -> _RuleMatches:
        radius = rule.match_radius
        rematch: Set[NodeId] = {
            nid for nid in graph.nodes_by_op(*rule.anchor_ops)
            if distance.get(nid, radius + 1) <= radius}
        groups: Dict[NodeId, List[Match]] = {}
        for anchor, group in cached.items():
            if anchor in rematch or anchor not in graph.nodes:
                continue
            # Safety net for conservative radii: a cached match binding
            # any node whose adjacency changed is always re-derived.
            if any(nid in invalid for match in group for _, nid in match.nodes):
                rematch.add(anchor)
                continue
            groups[anchor] = group
        if rematch:
            with restricted_anchor_matching(rematch):
                fresh = rule.find_matches(graph)
            for anchor, group in self._group(rule, fresh).items():
                groups[anchor] = group
        matches = [match for anchor in sorted(groups)
                   for match in groups[anchor]]
        return (groups, matches)

    # ------------------------------------------------------------------
    @staticmethod
    def _touched_nodes(parent: Graph, graph: Graph,
                       delta: GraphDelta) -> Set[NodeId]:
        """Nodes (alive in ``graph``) whose adjacency differs from the
        parent: the delta's surviving nodes plus every producer whose
        out-edge list gained or lost an edge on either side."""
        touched: Set[NodeId] = set()
        nodes = graph.nodes
        for nid in delta.added | delta.rewired:
            if nid not in nodes:
                continue
            touched.add(nid)
            for edge in graph._in_edges[nid]:
                touched.add(edge.src)
        parent_nodes = parent.nodes
        for nid in delta.removed | delta.rewired:
            if nid not in parent_nodes:
                continue
            for edge in parent._in_edges[nid]:
                if edge.src in nodes:
                    touched.add(edge.src)
        touched.intersection_update(nodes)
        return touched

    def _distances(self, graph: Graph,
                   touched: Set[NodeId]) -> Dict[NodeId, int]:
        """Undirected BFS distance from the touched set, capped at the
        largest rule radius."""
        distance: Dict[NodeId, int] = {nid: 0 for nid in touched}
        frontier = deque(touched)
        max_radius = self._max_radius
        while frontier:
            nid = frontier.popleft()
            depth = distance[nid]
            if depth >= max_radius:
                continue
            for edge in graph._in_edges[nid]:
                if edge.src not in distance:
                    distance[edge.src] = depth + 1
                    frontier.append(edge.src)
            for edge in graph._out_edges[nid]:
                if edge.dst not in distance:
                    distance[edge.dst] = depth + 1
                    frontier.append(edge.dst)
        return distance
