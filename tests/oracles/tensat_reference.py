"""Hash-everything oracle for ``GraphSpace.explore``
(``src/repro/search/egraph.py``), compared by
``tests/search/test_identity.py::TestTensatReproducesHashEverythingSpace``.

The exploration loop as it stood before the space told graphs apart by
signature: every materialised candidate is given a ``structural_hash`` and
tested against a plain ``set`` of the hashes admitted so far.  Test-only:
the space must admit the same members, in the same order, at the same
costs, and stop where this loop stops.
"""

from typing import List, Tuple

from repro.cost import CostModel
from repro.ir import Graph
from repro.search import GraphSpace, Member, SaturationStats
from repro.search.egraph import MULTI_PATTERN_CATEGORIES

__all__ = ["reference_explore"]


def reference_explore(space: GraphSpace, graph: Graph, cost_model: CostModel
                      ) -> Tuple[List[Member], SaturationStats]:
    """Grow ``space``'s population from ``graph`` with a set of structural
    hashes for identity; ``graphs_hashed`` counts the hashes taken and
    ``graphs_digested`` equals it."""
    stats = SaturationStats()
    population = [Member(graph, [], cost_model.estimate_cached(graph))]
    hashes = {graph.structural_hash()}
    taken = 1
    total_nodes = graph.num_nodes
    frontier = [0]

    for round_index in range(space.round_limit):
        stats.rounds = round_index + 1
        new_frontier: List[int] = []
        additions = 0
        allow_multi = round_index < space.multi_pattern_rounds
        for idx in frontier:
            current, applied, _ = population[idx]
            rules = [rule for rule in space.ruleset
                     if allow_multi
                     or rule.category not in MULTI_PATTERN_CATEGORIES]
            for rule in rules:
                for candidate in rule.lazy_candidates(current):
                    cand_graph = candidate.materialise()
                    if cand_graph is None:
                        continue
                    h = cand_graph.structural_hash()
                    taken += 1
                    if h in hashes:
                        continue
                    num_nodes = cand_graph.num_nodes
                    if total_nodes + num_nodes > space.node_limit:
                        stats.node_budget_hit = True
                        break
                    if additions >= space.per_round_cap:
                        break
                    hashes.add(h)
                    population.append(Member(
                        cand_graph, applied + [rule.name],
                        cost_model.estimate_delta(current, cand_graph)))
                    new_frontier.append(len(population) - 1)
                    total_nodes += num_nodes
                    additions += 1
                    stats.applied_rules[rule.name] = (
                        stats.applied_rules.get(rule.name, 0) + 1)
                if stats.node_budget_hit or additions >= space.per_round_cap:
                    break
            if stats.node_budget_hit or additions >= space.per_round_cap:
                break
        if not new_frontier:
            stats.saturated = not stats.node_budget_hit
            break
        if stats.node_budget_hit:
            break
        frontier = new_frontier

    stats.graphs_explored = len(population)
    stats.total_nodes = total_nodes
    stats.graphs_hashed = stats.graphs_digested = taken
    return population, stats
