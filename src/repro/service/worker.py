"""Worker-side job execution: one fresh optimiser per job.

Search objects are stateful (priority queues, e-graph populations, RL agents)
and must not be shared between concurrent jobs, so each worker constructs its
optimiser from the registry per request.  The only state shared across jobs is
the fingerprint cache, which the service consults at admission time and
populates from the search job's body before its result resolves — workers
themselves are cache-oblivious.  A submission's ``progress`` callable reaches
the optimiser here, as an argument of the ``optimise`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..ir.graph import Graph
from ..search.result import Progress, SearchResult
from .cache import CacheEntry, request_fingerprint
from .registry import create_optimiser

__all__ = ["JobRequest", "ServiceResult", "execute_request", "cached_result"]


@dataclass(frozen=True)
class JobRequest:
    """A fully self-describing optimisation job: graph + optimiser + config."""

    graph: Graph
    optimiser: str = "taso"
    config: Mapping[str, Any] = field(default_factory=dict)
    model_name: str = ""
    use_cache: bool = True

    @property
    def label(self) -> str:
        """Human-readable job tag: ``optimiser:model``."""
        return f"{self.optimiser}:{self.model_name or self.graph.name}"

    def fingerprint(self) -> str:
        """The request's canonical cache key (see
        :func:`~repro.service.cache.request_fingerprint`)."""
        return request_fingerprint(self.graph, self.optimiser, self.config)


@dataclass(frozen=True)
class ServiceResult:
    """What the service hands back for one job.

    Attributes:
        search: The underlying optimiser outcome.
        cache_hit: The result was served from the fingerprint cache
            (no search ran for this submission).
        fingerprint: The request fingerprint the job was keyed under.
        queue_time_s: Seconds from admission until a pool thread picked
            the search up (0 for cache hits and coalesced followers, which
            wait for no worker).
        run_time_s: Seconds the search's job body ran, its cache store
            included (0 for cache hits and coalesced followers).
        coalesced: This submission was deduplicated onto another in-flight
            identical request; ``search`` is that primary job's outcome
            (relabelled with this caller's model name).
    """

    search: SearchResult
    cache_hit: bool
    fingerprint: str
    queue_time_s: float = 0.0
    run_time_s: float = 0.0
    coalesced: bool = False

    @property
    def graph(self) -> Graph:
        """The optimised graph."""
        return self.search.final_graph

    @property
    def speedup(self) -> float:
        """End-to-end speedup of the optimised graph (initial / final)."""
        return self.search.speedup

    def summary(self) -> str:
        """One-line description including the result's origin
        (search / cache / coalesced)."""
        origin = "cache" if self.cache_hit else (
            "coalesced" if self.coalesced else "search")
        return f"[{origin}] {self.search.summary()}"


def execute_request(request: JobRequest, fingerprint: str = "",
                    progress: Optional[Progress] = None) -> ServiceResult:
    """Run one search job from scratch (no cache consultation).

    ``fingerprint`` lets the caller pass the admission-time fingerprint
    along instead of re-hashing the whole graph in the worker.

    ``progress`` goes to the optimiser's ``optimise(graph, model_name,
    progress=...)``, which calls it once per search iteration with
    ``(iteration, best_cost, best_graph_fp)``
    (:data:`~repro.search.result.Progress`).
    """
    optimiser = create_optimiser(request.optimiser, **dict(request.config))
    result = optimiser.optimise(request.graph,
                                request.model_name or request.graph.name,
                                progress=progress)
    return ServiceResult(search=result, cache_hit=False,
                         fingerprint=fingerprint or request.fingerprint())


def cached_result(request: JobRequest, entry: CacheEntry,
                  retrieval_time_s: float = 0.0) -> ServiceResult:
    """Rehydrate a cache entry into the result for ``request``."""
    return ServiceResult(
        search=entry.to_result(request.graph, retrieval_time_s,
                               model_name=request.model_name
                               or request.graph.name),
        cache_hit=True,
        fingerprint=entry.fingerprint,
    )
