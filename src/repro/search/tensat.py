"""Tensat-style equality-saturation optimiser (baseline for Figure 8)."""

from __future__ import annotations

from typing import Optional

from ..cost.cost_model import CostModel
from ..cost.e2e import E2ESimulator, LatencySource
from ..ir.graph import Graph
from ..rules.base import RuleSet
from ..rules.rulesets import default_ruleset
from .egraph import GraphSpace
from .result import Progress, SearchResult, timed

__all__ = ["TensatOptimizer"]


class TensatOptimizer:
    """Grow a bounded rewrite space, then extract the cheapest graph.

    Mirrors Tensat's published defaults: a node budget (10k nodes in the
    artifact), an iteration budget, and the multi-pattern application limit
    ``k`` (1 by default) that caps how many rounds the combinatorially
    explosive merge rules participate in.  Extraction uses the per-node cost
    model — an end-to-end latency signal cannot be used for extraction, which
    is one of the limitations the paper discusses.

    Parameters
    ----------
    ruleset:
        Rewrite rules to saturate over (defaults to the curated set).
    cost_model:
        Per-node cost model used for extraction.
    e2e:
        The latency provider, used only for *reporting* true latency of the
        initial and extracted graphs.
    node_limit:
        Stop growing the rewrite space beyond this many total nodes.
    round_limit:
        Maximum saturation rounds.
    multi_pattern_rounds:
        Rounds in which the explosive multi-pattern (merge) rules fire —
        the paper's ``k``.
    per_round_cap:
        Maximum candidates admitted into the space per round.
    """

    name = "tensat"

    def __init__(self, ruleset: Optional[RuleSet] = None,
                 cost_model: Optional[CostModel] = None,
                 e2e: Optional[LatencySource] = None,
                 node_limit: int = 20000,
                 round_limit: int = 6,
                 multi_pattern_rounds: int = 1,
                 per_round_cap: int = 150):
        self.ruleset = ruleset or default_ruleset()
        self.cost_model = cost_model or CostModel()
        self.e2e = e2e or E2ESimulator()
        self.space = GraphSpace(self.ruleset, node_limit=node_limit,
                                round_limit=round_limit,
                                multi_pattern_rounds=multi_pattern_rounds,
                                per_round_cap=per_round_cap)

    def _round_reporter(self, progress: Optional[Progress]):
        """Adapt :meth:`GraphSpace.explore`'s per-round hook to ``progress``.

        Reports the round's extraction — the cheapest member by the costs
        :meth:`GraphSpace.explore` stored at admission; nothing is costed
        here, so a search derives the same node costs with and without
        ``progress``.
        """
        if progress is None:
            return None

        def on_round(round_number, population):
            best = self.space.extract(population)
            progress(round_number, best.cost_ms, best.graph.structural_hash())

        return on_round

    def optimise(self, graph: Graph, model_name: str = "",
                 progress: Optional[Progress] = None) -> SearchResult:
        """Saturate the rewrite space around ``graph``, then extract.

        Parameters
        ----------
        graph:
            The input graph; never mutated.
        model_name:
            Label for the result; defaults to ``graph.name``.
        progress:
            Called once per saturation round with the round's number and
            the cost and structural hash of the cheapest extraction so far
            (:data:`~repro.search.result.Progress`).

        Returns
        -------
        SearchResult
            The cheapest extracted graph, with exploration diagnostics
            (rounds, population size, nodes explored, identities and
            structural hashes taken) under ``stats``.
        """
        with timed() as elapsed:
            initial_latency = self.e2e.latency_ms(graph)
            population, stats = self.space.explore(
                graph, self.cost_model, on_round=self._round_reporter(progress))
            best = self.space.extract(population)
            result = SearchResult(
                optimiser=self.name,
                model=model_name or graph.name,
                initial_graph=graph,
                final_graph=best.graph,
                initial_latency_ms=initial_latency,
                final_latency_ms=self.e2e.latency_ms(best.graph),
                initial_cost_ms=population[0].cost_ms,
                final_cost_ms=best.cost_ms,
                optimisation_time_s=elapsed(),
                applied_rules=best.rules,
                stats={
                    "rounds": float(stats.rounds),
                    "graphs_explored": float(stats.graphs_explored),
                    "total_nodes": float(stats.total_nodes),
                    "saturated": float(stats.saturated),
                    "node_budget_hit": float(stats.node_budget_hit),
                    "graphs_hashed": float(stats.graphs_hashed),
                    "graphs_digested": float(stats.graphs_digested),
                },
            )
        return result
