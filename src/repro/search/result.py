"""Common result type returned by every optimiser in this repository, and
the progress callable every optimiser's ``optimise`` takes."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..ir.graph import Graph

__all__ = ["SearchResult", "Progress", "timed"]

#: ``progress(iteration, best_cost, best_graph_fp)``: what an optimiser's
#: ``optimise(graph, model_name, progress)`` calls once per search iteration
#: (1-based) with the best objective value so far and the structural hash
#: of the graph it belongs to.
Progress = Callable[[int, float, str], None]


@dataclass
class SearchResult:
    """Outcome of one optimisation run.

    ``initial_latency_ms`` / ``final_latency_ms`` come from the optimiser's
    ``e2e`` latency provider (the paper's figure of merit);
    ``initial_cost_ms`` / ``final_cost_ms`` are the optimiser's own objective
    (for cost-model-driven optimisers the two differ — that difference is
    the paper's Table 1).
    """

    optimiser: str
    model: str
    initial_graph: Graph
    final_graph: Graph
    initial_latency_ms: float
    final_latency_ms: float
    initial_cost_ms: float
    final_cost_ms: float
    optimisation_time_s: float
    #: Sequence of rule names applied along the chosen trajectory.
    applied_rules: List[str] = field(default_factory=list)
    #: Free-form per-optimiser diagnostics (candidates explored, episodes, …).
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """End-to-end speedup: initial latency divided by final latency."""
        if self.final_latency_ms <= 0:
            return 1.0
        return self.initial_latency_ms / self.final_latency_ms

    @property
    def speedup_percent(self) -> float:
        """Speedup expressed as a percentage improvement over the input graph."""
        return (self.speedup - 1.0) * 100.0

    def rule_counts(self) -> Dict[str, int]:
        """How many times each rule was applied (Figure 5's heatmap rows)."""
        counts: Dict[str, int] = {}
        for name in self.applied_rules:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def summary(self) -> str:
        """One line for logs: latencies before and after, the gain, the
        search time and the number of substitutions applied."""
        return (f"{self.optimiser} on {self.model}: "
                f"{self.initial_latency_ms:.3f} ms -> {self.final_latency_ms:.3f} ms "
                f"({self.speedup_percent:+.1f}%) in {self.optimisation_time_s:.2f}s, "
                f"{len(self.applied_rules)} substitutions")


@contextmanager
def timed():
    """Context manager yielding a callable that returns elapsed seconds."""
    start = time.perf_counter()
    yield lambda: time.perf_counter() - start
