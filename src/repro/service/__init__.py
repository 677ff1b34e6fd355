"""Optimisation-as-a-service: registry, cache, scheduler, workers.

The offline loop (build a graph, run one optimiser, report latency) becomes a
serving layer here.  Every search runs on this host, on a worker thread:

* :mod:`repro.service.registry` — name → optimiser factory with defaults
* :mod:`repro.service.cache` — fingerprint cache (an in-memory tier + a
  locked, multi-process-safe JSON tier, both evicting by
  GreedyDual-Frequency)
* :mod:`repro.service.lease` — cross-process dedup leases: a held
  ``flock`` per fingerprint in the cache directory, freed when its holder
  releases it or dies
* :mod:`repro.service.scheduler` — bounded submit/poll/result job scheduler
  over a prewarmed thread pool with one compute slot per core, and per-job
  event channels (:meth:`JobScheduler.events`)
* :mod:`repro.service.events` — streaming progress events, their sink and
  their channel
* :mod:`repro.service.worker` — per-worker job execution
* :mod:`repro.service.api` — the :class:`OptimisationService` batch façade
  (admission-time caching + in-flight and cross-process dedup)
* :mod:`repro.service.cli` — ``python -m repro.service`` front end

See ``docs/service.md`` for the operations guide.
"""

from .api import OptimisationService
from .cache import (CacheEntry, CacheStats, EvictionPolicy, FingerprintCache,
                    request_fingerprint)
from .events import EventChannel, ProgressEvent
from .lease import LeaseManager
from .registry import (create_optimiser, default_config, list_optimisers,
                       optimiser_spec, register_optimiser, OptimiserSpec)
from .scheduler import (JobRecord, JobScheduler, JobState, QueueFullError,
                        UnknownJobError)
from .worker import JobRequest, ServiceResult, execute_request

__all__ = [
    "OptimisationService",
    "CacheEntry", "CacheStats", "EvictionPolicy", "FingerprintCache",
    "request_fingerprint",
    "EventChannel", "ProgressEvent",
    "LeaseManager",
    "OptimiserSpec", "create_optimiser", "default_config", "list_optimisers",
    "optimiser_spec", "register_optimiser",
    "JobRecord", "JobScheduler", "JobState", "QueueFullError",
    "UnknownJobError",
    "JobRequest", "ServiceResult", "execute_request",
]
