"""Worker-side job execution: one fresh optimiser per job.

Search objects are stateful (priority queues, e-graph populations, RL agents)
and must not be shared between concurrent jobs, so each worker constructs its
optimiser from the registry per request.  The only state shared across jobs is
the fingerprint cache, which the service consults at admission time and
populates from the job's completion callback — workers themselves are
cache-oblivious.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..ir.graph import Graph
from ..search.result import SearchResult
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
        job_id: Scheduler job id (filled in by
            :meth:`~repro.service.api.OptimisationService.result`).
        queue_time_s: Time spent queued before a worker picked the job up
            (0 for cache hits and coalesced followers, which wait for no
            worker).
        run_time_s: Worker-side execution time (0 for cache hits and
            coalesced followers).
        coalesced: This submission was deduplicated onto another in-flight
            identical request; ``search`` is that primary job's outcome
            (relabelled with this caller's model name).
    """

    search: SearchResult
    cache_hit: bool
    fingerprint: str
    job_id: int = -1
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
        """One-line description including the job's origin
        (search / cache / coalesced)."""
        origin = "cache" if self.cache_hit else (
            "coalesced" if self.coalesced else "search")
        return f"[job {self.job_id} via {origin}] {self.search.summary()}"


def execute_request(request: JobRequest, fingerprint: str = "",
                    progress: Any = None) -> ServiceResult:
    """Run one search job from scratch (no cache consultation).

    ``fingerprint`` lets the caller pass the admission-time fingerprint
    along instead of re-hashing the whole graph in the worker.

    ``progress`` — when given — is installed as the optimiser's
    ``progress_callback``: a callable ``f(iteration, best_cost,
    best_graph_fp)`` the search invokes once per iteration.  The serving
    layer passes an event sink here (see :mod:`repro.service.events`); a
    custom optimiser without the attribute simply streams nothing.
    """
    optimiser = create_optimiser(request.optimiser, **dict(request.config))
    if progress is not None and hasattr(optimiser, "progress_callback"):
        optimiser.progress_callback = progress
    result = optimiser.optimise(request.graph,
                                request.model_name or request.graph.name)
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
