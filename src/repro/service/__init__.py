"""Optimisation-as-a-service: registry, cache, scheduler, worker backends.

The offline loop (build a graph, run one optimiser, report latency) becomes a
serving layer here:

* :mod:`repro.service.registry` — name → optimiser factory with defaults
* :mod:`repro.service.cache` — fingerprint cache (an in-memory tier + a
  locked, multi-process-safe JSON tier, both evicting by
  GreedyDual-Frequency)
* :mod:`repro.service.lease` — cross-process dedup leases: a held
  ``flock`` per fingerprint in the cache directory, freed when its holder
  releases it or dies
* :mod:`repro.service.scheduler` — bounded submit/poll/result job scheduler
  over the thread and async worker backends, with per-job event
  channels (:meth:`JobScheduler.events`)
* :mod:`repro.service.events` — streaming progress events and their
  in-memory / spool-file transports
* :mod:`repro.service.async_pool` — asyncio event loop driving local process
  workers and remote JSON-RPC boxes
* :mod:`repro.service.health` — per-endpoint health records and the
  least-loaded / circuit-breaker routing the async pool dispatches by
* :mod:`repro.service.remote` — the off-box worker protocol
  (:class:`WorkerServer`; :func:`optimise_async` / :func:`ping_async` are
  its client)
* :mod:`repro.service.worker` — per-worker job execution
* :mod:`repro.service.api` — the :class:`OptimisationService` batch façade
  (admission-time caching + in-flight and cross-process dedup)
* :mod:`repro.service.cli` — ``python -m repro.service`` front end

See ``docs/service.md`` for the operations guide.
"""

from .api import OptimisationService
from .async_pool import AsyncWorkerPool
from .cache import (CacheEntry, CacheStats, EvictionPolicy, FingerprintCache,
                    request_fingerprint)
from .events import EventChannel, ProgressEvent
from .health import EndpointHealth, HealthRegistry
from .lease import LeaseManager
from .registry import (create_optimiser, default_config, list_optimisers,
                       optimiser_spec, register_optimiser, OptimiserSpec)
from .remote import (RemoteUnavailableError, RemoteWorkerError, WorkerServer,
                     optimise_async, ping_async)
from .scheduler import (JobRecord, JobScheduler, JobState, QueueFullError,
                        UnknownJobError)
from .worker import JobRequest, ServiceResult, execute_request

__all__ = [
    "OptimisationService",
    "AsyncWorkerPool",
    "CacheEntry", "CacheStats", "EvictionPolicy", "FingerprintCache",
    "request_fingerprint",
    "EventChannel", "ProgressEvent",
    "EndpointHealth", "HealthRegistry",
    "LeaseManager",
    "OptimiserSpec", "create_optimiser", "default_config", "list_optimisers",
    "optimiser_spec", "register_optimiser",
    "RemoteUnavailableError", "RemoteWorkerError", "WorkerServer",
    "optimise_async", "ping_async",
    "JobRecord", "JobScheduler", "JobState", "QueueFullError",
    "UnknownJobError",
    "JobRequest", "ServiceResult", "execute_request",
]
