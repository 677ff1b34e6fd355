"""Random-walk baseline: apply uniformly random rewrites for a fixed horizon.

Used as a sanity baseline in ablation benchmarks — it shares the RL agent's
action space (one candidate per step, E2E-evaluated at the end) but has no
learning, so it isolates how much of X-RLflow's gain comes from learning
versus from merely being allowed to take non-greedy steps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cost.cost_model import CostModel
from ..cost.e2e import E2ESimulator, LatencySource
from ..ir.graph import Graph
from ..rules.base import RuleSet
from ..rules.rulesets import default_ruleset
from .result import Progress, SearchResult, timed

__all__ = ["RandomSearchOptimizer"]


class RandomSearchOptimizer:
    """Repeated random rewrite walks, keeping the best end graph seen.

    Parameters
    ----------
    ruleset:
        Rewrite rules to draw random candidates from.
    e2e:
        The latency provider; the walk's objective (each finished walk's
        end graph is measured, best-of-walks wins).
    cost_model:
        Used only to report initial/final cost-model estimates.
    num_walks:
        Independent walks from the input graph.
    horizon:
        Rewrite steps per walk (walks stop early when no rule applies).
    seed:
        RNG seed; fixed seed → deterministic walks.
    """

    name = "random"

    def __init__(self, ruleset: Optional[RuleSet] = None,
                 e2e: Optional[LatencySource] = None,
                 cost_model: Optional[CostModel] = None,
                 num_walks: int = 5,
                 horizon: int = 30,
                 seed: int = 0):
        self.ruleset = ruleset or default_ruleset()
        self.e2e = e2e or E2ESimulator()
        self.cost_model = cost_model or CostModel()
        self.num_walks = int(num_walks)
        self.horizon = int(horizon)
        self._rng = np.random.default_rng(seed)

    def optimise(self, graph: Graph, model_name: str = "",
                 progress: Optional[Progress] = None) -> SearchResult:
        """Run ``num_walks`` random walks and keep the best end graph.

        Parameters
        ----------
        graph:
            The input graph; never mutated.
        model_name:
            Label for the result; defaults to ``graph.name``.
        progress:
            Called once per finished walk with the walk's number and the
            best end-to-end latency so far and its graph's structural hash
            (:data:`~repro.search.result.Progress`).

        Returns
        -------
        SearchResult
            Best-of-walks by ``e2e`` latency (the input graph
            itself if no walk improved on it), with ``stats`` recording
            walks taken and total steps.
        """
        with timed() as elapsed:
            initial_latency = self.e2e.latency_ms(graph)
            initial_cost = self.cost_model.estimate_cached(graph)
            best_graph, best_latency, best_rules = graph, initial_latency, []
            steps_total = 0
            for walk_index in range(self.num_walks):
                current, applied = graph, []
                for _ in range(self.horizon):
                    # Lazy candidates: only the randomly chosen one is ever
                    # materialised; the rest never copy the graph.
                    candidates = self.ruleset.lazy_candidates(current)
                    chosen = None
                    while candidates:
                        index = int(self._rng.integers(len(candidates)))
                        chosen = candidates[index]
                        if chosen.materialise() is not None:
                            break
                        # Match failed to apply (shape corner case): discard
                        # it and redraw among the remaining candidates.
                        candidates.pop(index)
                        chosen = None
                    if chosen is None:
                        break
                    current, applied = chosen.graph, applied + [chosen.rule_name]
                    steps_total += 1
                latency = self.e2e.latency_ms(current)
                if latency < best_latency:
                    best_graph, best_latency, best_rules = current, latency, applied
                if progress is not None:
                    progress(walk_index + 1, float(best_latency),
                             best_graph.structural_hash())
            return SearchResult(
                optimiser=self.name,
                model=model_name or graph.name,
                initial_graph=graph,
                final_graph=best_graph,
                initial_latency_ms=initial_latency,
                final_latency_ms=best_latency,
                initial_cost_ms=initial_cost,
                final_cost_ms=self.cost_model.estimate_cached(best_graph),
                optimisation_time_s=elapsed(),
                applied_rules=best_rules,
                stats={"steps": float(steps_total),
                       "walks": float(self.num_walks)},
            )
