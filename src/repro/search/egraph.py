"""A bounded graph-space explorer standing in for Tensat's e-graph.

Tensat represents the space of equivalent graphs compactly in an e-graph and
extracts the cheapest representative.  A full congruence-closure e-graph over
our mutable dataflow IR is out of scope; instead :class:`GraphSpace` keeps an
explicit population of distinct graphs (told apart by a
:class:`~repro.search.identity.GraphSet`) grown by rewrite application
rounds.  It preserves the *behavioural* properties Tensat's
evaluation depends on:

* exploration is bounded by a node budget and an iteration budget, so the
  space is usually **not** saturated (exactly as the paper reports for the
  real system),
* "multi-pattern" rules (the merge rules, which blow up the e-graph on
  transformer graphs) are only applied for the first ``multi_pattern_rounds``
  rounds, mirroring Tensat's ``k`` parameter,
* extraction picks the representative with the lowest cost-model estimate,
  because per-node cost extraction cannot use an end-to-end signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..cost.cost_model import CostModel
from ..ir.graph import Graph
from ..rules.base import RuleSet
from .identity import GraphSet

__all__ = ["GraphSpace", "Member", "SaturationStats"]

#: Rule categories treated as "multi-pattern" (they match pairs of operators
#: and therefore grow the space combinatorially, like Tensat's multi-pattern
#: rewrites do for matrix multiplications).
MULTI_PATTERN_CATEGORIES = {"merge"}


class Member(NamedTuple):
    """One graph of the explored population."""

    graph: Graph
    #: Names of the rules applied to the root to reach ``graph``, in order.
    rules: List[str]
    #: Cost-model estimate of ``graph``, taken when it was admitted.
    cost_ms: float


@dataclass
class SaturationStats:
    """Diagnostics of one saturation run."""

    rounds: int = 0
    graphs_explored: int = 0
    total_nodes: int = 0
    saturated: bool = False
    node_budget_hit: bool = False
    applied_rules: Dict[str, int] = field(default_factory=dict)
    #: Identities taken (signatures: one per graph built, the root's
    #: included) and, of those, structural hashes taken to settle ties.
    graphs_hashed: int = 0
    graphs_digested: int = 0


class GraphSpace:
    """Bounded exploration of the rewrite closure of a graph."""

    def __init__(self, ruleset: RuleSet,
                 node_limit: int = 20000,
                 round_limit: int = 10,
                 multi_pattern_rounds: int = 1,
                 per_round_cap: int = 200):
        self.ruleset = ruleset
        self.node_limit = int(node_limit)
        self.round_limit = int(round_limit)
        self.multi_pattern_rounds = int(multi_pattern_rounds)
        self.per_round_cap = int(per_round_cap)

    # ------------------------------------------------------------------
    def explore(self, graph: Graph, cost_model: CostModel,
                on_round: Optional[Callable[[int, List[Member]], None]] = None,
                ) -> Tuple[List[Member], SaturationStats]:
        """Grow the space from ``graph``, costing every member on admission.

        The root is costed on entry and every admitted candidate through
        ``cost_model.estimate_delta`` against the (costed) frontier graph it
        was copied from, so each admission derives only the nodes its
        rewrite added or rewired; the stored costs are bit-for-bit equal to
        ``cost_model.estimate`` of the member.

        ``on_round(round_number, population)`` — when given — is invoked
        after every completed saturation round with the 1-based round
        number and the population grown so far; the Tensat optimiser
        reports its ``progress`` through it.

        Returns the population as :class:`Member` entries (the root graph
        is always first) plus run statistics.
        """
        stats = SaturationStats()
        population = [Member(graph, [], cost_model.estimate_cached(graph))]
        seen = GraphSet()
        seen.add(graph)
        total_nodes = graph.num_nodes
        frontier = [0]  # indices into population

        for round_index in range(self.round_limit):
            stats.rounds = round_index + 1
            new_frontier: List[int] = []
            additions = 0
            allow_multi = round_index < self.multi_pattern_rounds
            for idx in frontier:
                current, applied, _ = population[idx]
                rules = [rule for rule in self.ruleset
                         if allow_multi
                         or rule.category not in MULTI_PATTERN_CATEGORIES]
                for rule in rules:
                    for candidate in rule.lazy_candidates(current):
                        cand_graph = candidate.materialise()
                        if cand_graph is None:  # failed to apply
                            continue
                        if cand_graph in seen:
                            continue
                        num_nodes = cand_graph.num_nodes
                        if total_nodes + num_nodes > self.node_limit:
                            stats.node_budget_hit = True
                            break
                        if additions >= self.per_round_cap:
                            break
                        seen.add(cand_graph)
                        population.append(Member(
                            cand_graph, applied + [rule.name],
                            cost_model.estimate_delta(current, cand_graph)))
                        new_frontier.append(len(population) - 1)
                        total_nodes += num_nodes
                        additions += 1
                        stats.applied_rules[rule.name] = (
                            stats.applied_rules.get(rule.name, 0) + 1)
                    if stats.node_budget_hit or additions >= self.per_round_cap:
                        break
                if stats.node_budget_hit or additions >= self.per_round_cap:
                    break
            if on_round is not None:
                on_round(round_index + 1, population)
            if not new_frontier:
                stats.saturated = not stats.node_budget_hit
                break
            if stats.node_budget_hit:
                break
            frontier = new_frontier

        stats.graphs_explored = len(population)
        stats.total_nodes = total_nodes
        stats.graphs_hashed = seen.signed
        stats.graphs_digested = seen.digested
        return population, stats

    # ------------------------------------------------------------------
    def extract(self, population: List[Member]) -> Member:
        """The member with the lowest cost recorded at admission.

        Costs nothing: :meth:`explore` stored every member's estimate.  Of
        several equally cheap members the first admitted wins.
        """
        return min(population, key=attrgetter("cost_ms"))
