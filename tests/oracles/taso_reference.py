"""Hash-everything oracle for ``TASOOptimizer.optimise``
(``src/repro/search/greedy.py``), compared by
``tests/search/test_taso_queue.py`` and
``tests/rules/test_engine_equivalence.py::TestOptimiserEquivalence``.

The candidate loop as it stood before the queue was bounded by the pops
that are left: every materialised candidate is given a ``structural_hash``
and tested against ``seen`` *before* it is costed, the queue is a ``heapq``
holding up to ``queue_capacity`` graphs whether or not the budget can still
reach them, and a full queue is resolved by a scan for its most expensive
entry.  With ``eager=True`` it is also the loop as it stood before the
incremental engine: every candidate regenerated and costed from scratch.
Test-only: the search must reproduce its trajectories.
"""

import heapq
import itertools
from typing import List, NamedTuple, Tuple

from repro.ir import Graph
from repro.rules.incremental import IncrementalCandidateEngine
from repro.search import SearchResult, TASOOptimizer

__all__ = ["Trajectory", "reference_search", "trajectory_of"]


class Trajectory(NamedTuple):
    """What two runs of one search must agree on, floats to the last bit."""

    applied_rules: Tuple[str, ...]
    final_cost_hex: str
    final_hash: str
    iterations: int
    candidates_evaluated: int


def trajectory_of(result: SearchResult) -> Trajectory:
    """The :class:`Trajectory` of a finished search."""
    return Trajectory(tuple(result.applied_rules),
                      float(result.final_cost_ms).hex(),
                      result.final_graph.structural_hash(),
                      int(result.stats["iterations"]),
                      int(result.stats["candidates_evaluated"]))


def reference_search(optimiser: TASOOptimizer, graph: Graph,
                     eager: bool = False) -> Tuple[Trajectory, int]:
    """Run the hash-everything loop with ``optimiser``'s rule set, cost
    model, ``alpha``, budget and capacity.

    ``eager`` additionally regenerates every candidate with
    ``RuleSet.all_candidates`` and costs it from scratch with
    ``CostModel.estimate`` instead of using the incremental engine and
    ``estimate_delta``.  Returns the trajectory and the loop's
    ``graphs_seen`` (distinct graphs among *all* candidates, the root
    included).
    """
    self = optimiser
    if not eager:
        initial_cost = self.cost_model.estimate_cached(graph)
        engine = IncrementalCandidateEngine(
            self.ruleset, capacity=max(64, self.queue_capacity))
    else:
        initial_cost = self.cost_model.estimate(graph)
    best_graph, best_cost = graph, initial_cost
    best_rules: List[str] = []

    counter = itertools.count()  # tie-breaker for the heap
    heap: List[Tuple[float, int, Graph, List[str]]] = [
        (initial_cost, next(counter), graph, [])
    ]
    seen = {graph.structural_hash()}
    iterations = 0
    candidates_evaluated = 0

    while heap and iterations < self.max_iterations:
        iterations += 1
        cost, _, current, applied = heapq.heappop(heap)
        if cost > self.alpha * best_cost:
            continue
        if eager:
            candidates = self.ruleset.all_candidates(current)
        else:
            candidates = engine.lazy_candidates(current)
        for candidate in candidates:
            cand_graph = candidate.materialise()
            if cand_graph is None:
                continue
            candidates_evaluated += 1
            cand_hash = cand_graph.structural_hash()
            if cand_hash in seen:
                continue
            seen.add(cand_hash)
            if eager:
                cand_cost = self.cost_model.estimate(cand_graph)
            else:
                cand_cost = self.cost_model.estimate_delta(current,
                                                           cand_graph)
            cand_rules = applied + [candidate.rule_name]
            if cand_cost < best_cost:
                best_graph, best_cost = cand_graph, cand_cost
                best_rules = cand_rules
            if cand_cost <= self.alpha * best_cost:
                entry = (cand_cost, next(counter),
                         cand_graph, cand_rules)
                if len(heap) < self.queue_capacity:
                    heapq.heappush(heap, entry)
                else:
                    # Queue full: evict the most expensive queued
                    # graph rather than dropping the (possibly
                    # cheaper) new candidate.
                    worst = max(range(len(heap)),
                                key=lambda i: heap[i][0])
                    if heap[worst][0] > cand_cost:
                        heap[worst] = entry
                        heapq.heapify(heap)

    return Trajectory(tuple(best_rules), float(best_cost).hex(),
                      best_graph.structural_hash(), iterations,
                      candidates_evaluated), len(seen)
