"""Optimisation-as-a-service: registry, cache, scheduler, workers.

The offline loop (build a graph, run one optimiser, report latency) becomes a
serving layer here.  Every search runs on this host, on a worker thread:

* :mod:`repro.service.registry` — name → optimiser factory with defaults
* :mod:`repro.service.cache` — fingerprint cache (an in-memory tier + a
  locked, multi-process-safe JSON tier, both evicting by
  GreedyDual-Frequency)
* :mod:`repro.service.scheduler` — bounded submit/poll/result job scheduler
  over a prewarmed thread pool of at most one thread per core
* :mod:`repro.service.worker` — per-worker job execution: builds the
  optimiser and hands a submission's ``progress`` callable to its
  ``optimise`` call
* :mod:`repro.service.api` — the :class:`OptimisationService` batch façade
  (admission-time caching + in-flight dedup, its one dedup mechanism)
* :mod:`repro.service.cli` — ``python -m repro.service`` front end

See ``docs/service.md`` for the operations guide.
"""

from .api import OptimisationService
from .cache import (CacheEntry, CacheStats, EvictionPolicy, FingerprintCache,
                    request_fingerprint)
from .registry import (create_optimiser, default_config, list_optimisers,
                       optimiser_spec, register_optimiser, OptimiserSpec)
from .scheduler import (JobRecord, JobScheduler, JobState, QueueFullError,
                        UnknownJobError)
from .worker import JobRequest, ServiceResult, execute_request

__all__ = [
    "OptimisationService",
    "CacheEntry", "CacheStats", "EvictionPolicy", "FingerprintCache",
    "request_fingerprint",
    "OptimiserSpec", "create_optimiser", "default_config", "list_optimisers",
    "optimiser_spec", "register_optimiser",
    "JobRecord", "JobScheduler", "JobState", "QueueFullError",
    "UnknownJobError",
    "JobRequest", "ServiceResult", "execute_request",
]
