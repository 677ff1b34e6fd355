"""TASO-style cost-based backtracking search.

TASO's optimiser maintains a priority queue of candidate graphs ordered by
cost-model estimate.  At every step it pops the cheapest graph, generates all
rewrite candidates, and enqueues those whose estimated cost stays within
``alpha`` times the best cost seen so far (``alpha = 1.05`` in the artifact).
The search stops when the queue is exhausted or the iteration budget runs
out, and returns the graph with the lowest *cost-model* estimate.

The queue holds only graphs that can still be popped: a candidate ranked
behind as many queued graphs as there are pops left is dropped once costed;
only one that is kept (or beats the best) is given an identity and tested
against the graphs kept before (:class:`~repro.search.identity.GraphSet`).

Because the objective is the cost model — not the true end-to-end latency —
the returned graph can be worse than the input when the cost model is
misleading, which is exactly what the paper observes on SqueezeNet.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import List, Optional, Tuple

from ..cost.cost_model import CostModel
from ..cost.e2e import E2ESimulator, LatencySource
from ..ir.graph import Graph
from ..rules.base import RuleSet
from ..rules.incremental import IncrementalCandidateEngine
from ..rules.rulesets import default_ruleset
from .identity import GraphSet
from .result import Progress, SearchResult, timed

__all__ = ["TASOOptimizer", "GreedyOptimizer"]


class TASOOptimizer:
    """Cost-model-driven backtracking search over rewrite candidates.

    Candidates come from a per-search
    :class:`~repro.rules.incremental.IncrementalCandidateEngine`.  A rewrite
    is priced once: a candidate is materialised and costed with
    :meth:`CostModel.estimate_delta` only if the engine remembers no price
    for its match (the exact change of the cost total, valid wherever the
    match's neighbourhood is untouched) or if it is about to be kept.

    Parameters
    ----------
    ruleset:
        Rewrite rules to search over (defaults to the curated set).
    cost_model:
        The optimisation objective.  TASO ranks candidates with its
        sum-of-operators cost model.
    e2e:
        The latency provider, used only for *reporting* true latency of
        the initial and final graphs (TASO itself never consults it).
    alpha:
        Backtracking tolerance: candidates up to ``alpha`` times the current
        best estimate are kept in the queue.
    max_iterations:
        Upper bound on the number of queue pops (the "budget" knob the paper
        mentions — increasing it rarely helps but costs time).
    queue_capacity:
        Maximum number of graphs kept in the queue at any time: at most
        ``min(capacity, pops left)`` graphs are kept, the cheapest ones,
        and of equally expensive worst entries the newest goes.
    """

    name = "taso"

    def __init__(self, ruleset: Optional[RuleSet] = None,
                 cost_model: Optional[CostModel] = None,
                 e2e: Optional[LatencySource] = None,
                 alpha: float = 1.05,
                 max_iterations: int = 100,
                 queue_capacity: int = 200):
        self.ruleset = ruleset or default_ruleset()
        self.cost_model = cost_model or CostModel()
        self.e2e = e2e or E2ESimulator()
        self.alpha = float(alpha)
        self.max_iterations = int(max_iterations)
        self.queue_capacity = int(queue_capacity)

    # ------------------------------------------------------------------
    def optimise(self, graph: Graph, model_name: str = "",
                 progress: Optional[Progress] = None) -> SearchResult:
        """Run the backtracking search and return the best graph found.

        Parameters
        ----------
        graph:
            The input graph; never mutated (every rewrite produces a copy).
        model_name:
            Label for the result; defaults to ``graph.name``.
        progress:
            Called once per queue pop with the pop's number, the running
            best cost-model estimate and the structural hash of the best
            graph (:data:`~repro.search.result.Progress`).

        Returns
        -------
        SearchResult
            The graph with the lowest *cost-model* estimate encountered,
            with true end-to-end latencies of the initial and final graphs
            filled in for reporting, and search diagnostics under
            ``stats``: ``iterations`` (queue pops), ``candidates_evaluated``
            (candidates priced), ``candidates_materialised`` (of those, the
            ones built: no remembered price, or kept), ``prices_reused``
            (priced from the engine's memo), ``graphs_hashed`` (identities
            taken, the root's included: signatures, see
            :class:`~repro.search.identity.GraphSet`), ``graphs_digested``
            (of those, the ones that shared a signature with a kept graph,
            plus the kept graphs they shared it with: structural hashes
            taken), ``graphs_seen`` (``1 +
            candidates_evaluated`` minus the duplicates found — they are
            looked for among the candidates that could still be popped, so
            this bounds the duplicates among all candidates from below) and
            ``stop_budget`` (1.0: the whole budget was used; 0.0: the queue
            ran empty first).
        """
        with timed() as elapsed:
            initial_latency = self.e2e.latency_ms(graph)
            initial_cost = self.cost_model.estimate_cached(graph)
            # Fresh per-search engine: match sets carry over between
            # queue pops (the popped graph's parent is usually still
            # cached), not between optimise() calls.
            engine = IncrementalCandidateEngine(
                self.ruleset, capacity=max(64, self.queue_capacity))
            best_graph, best_cost = graph, initial_cost
            best_rules: List[str] = []

            # Sorted by cost, equal costs in arrival order; popped in front.
            queue: List[Tuple[float, Graph, List[str]]] = [
                (initial_cost, graph, [])]
            entry_cost = itemgetter(0)
            seen = GraphSet()
            seen.add(graph)
            iterations = 0
            candidates_evaluated = 0
            materialised = reused = 0
            duplicates = 0
            cost_model = self.cost_model

            while queue and iterations < self.max_iterations:
                iterations += 1
                cost, current, applied = queue.pop(0)
                # An entry ranked beyond the pops that are left can never
                # be popped, so it needs neither an identity nor a slot.
                room = min(self.queue_capacity,
                           self.max_iterations - iterations)
                if progress is not None:
                    progress(iterations, float(best_cost),
                             best_graph.structural_hash())
                if cost > self.alpha * best_cost:
                    continue
                total = cost_model.exact_total(current)
                for candidate in engine.lazy_candidates(current):
                    price = candidate.outcome
                    cand_graph = None
                    if price is None:  # new match, or its neighbourhood moved
                        cand_graph = candidate.materialise()
                        if cand_graph is None:
                            engine.remember(candidate, None)
                            continue
                        materialised += 1
                        cand_cost = cost_model.estimate_delta(
                            current, cand_graph)
                        engine.remember(
                            candidate, cand_graph,
                            cost_model.exact_total(cand_graph) - total)
                    else:
                        reused += 1
                        cand_cost = cost_model.exact_to_ms(total + price)
                    candidates_evaluated += 1
                    improves = cand_cost < best_cost
                    position = bisect_right(queue, cand_cost, key=entry_cost)
                    if not improves and (position >= room or
                                         cand_cost > self.alpha * best_cost):
                        continue
                    if cand_graph is None:  # kept on a remembered price
                        cand_graph = candidate.materialise()
                        materialised += 1
                        # Seeds its cost table and total for when it pops.
                        cost_model.estimate_delta(current, cand_graph)
                    if cand_graph in seen:
                        duplicates += 1
                        continue
                    seen.add(cand_graph)
                    cand_rules = applied + [candidate.rule_name]
                    if improves:
                        best_graph, best_cost = cand_graph, cand_cost
                        best_rules = cand_rules
                    queue.insert(position, (cand_cost, cand_graph, cand_rules))
                    del queue[room:]

            result = SearchResult(
                optimiser=self.name,
                model=model_name or graph.name,
                initial_graph=graph,
                final_graph=best_graph,
                initial_latency_ms=initial_latency,
                final_latency_ms=self.e2e.latency_ms(best_graph),
                initial_cost_ms=initial_cost,
                final_cost_ms=best_cost,
                optimisation_time_s=elapsed(),
                applied_rules=best_rules,
                stats={
                    "iterations": float(iterations),
                    "candidates_evaluated": float(candidates_evaluated),
                    "candidates_materialised": float(materialised),
                    "prices_reused": float(reused),
                    "graphs_hashed": float(seen.signed),
                    "graphs_digested": float(seen.digested),
                    "graphs_seen":
                        float(1 + candidates_evaluated - duplicates),
                    "stop_budget":
                        1.0 if iterations >= self.max_iterations else 0.0,
                },
            )
        return result


class GreedyOptimizer(TASOOptimizer):
    """Pure greedy hill-climbing: ``alpha = 1`` (no tolerance, no backtracking).

    Included as an ablation of how much TASO's backtracking tolerance buys.
    The queue keeps its cheapest ``queue_capacity`` entries (a cheaper
    candidate displaces the queued one, an equally cheap one does not), so
    ``queue_capacity = 1`` makes this steepest-descent: each step follows the
    *best* improving rewrite of the current graph, the first of equals.
    """

    name = "greedy"

    def __init__(self, **kwargs):
        kwargs.setdefault("alpha", 1.0)
        kwargs.setdefault("queue_capacity", 1)
        super().__init__(**kwargs)
