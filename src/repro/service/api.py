"""The :class:`OptimisationService` batch façade.

Ties the registry, fingerprint cache and job scheduler together behind
submit / poll / result semantics::

    from repro import build_model
    from repro.service import OptimisationService

    with OptimisationService(num_workers=4) as service:
        job_id = service.submit(build_model("squeezenet"), optimiser="taso")
        result = service.result(job_id)          # blocks; ServiceResult
        service.poll(job_id)                     # JobState.SUCCEEDED
        again = service.optimise(build_model("squeezenet"))
        assert again.cache_hit                   # fingerprint cache warm

A result is delivered once: :meth:`OptimisationService.result` hands it to
its caller and the service keeps no reference to it (nor to the caller's
graph) afterwards — a second ``result(job_id)`` raises
:class:`~repro.service.scheduler.UnknownJobError`, while ``poll`` and the
job's record still answer.  A result nobody fetches is held until 1 024
newer jobs have finished (:data:`~repro.service.scheduler.MAX_HISTORY`).

Cache policy: the cache is consulted at submission time.  A hit
short-circuits the search entirely (the job completes with the cached graph
in microseconds).  A miss checks the *in-flight table*: if an identical
fingerprint is already searching, the new submission is attached to that
job (admission-time dedup — one search, every waiter gets the result).
Only a genuinely novel request dispatches a search, whose job writes its
result back to the cache before that result resolves.  ``use_cache=False``
opts a submission out of both the cache *and* dedup.

The in-flight table is the service's one dedup mechanism, and it is
per-process.  Processes that share a cache directory share its entries,
not their searches: two that miss on one fingerprint at the same moment
each search and each publish the same entry.

A submission's ``progress`` callable —
``progress(iteration, best_cost, best_graph_fp)`` — is called once per
iteration by the search that submission started, on the worker thread, and
by nothing else: a cache hit, a coalesced follower and a job cancelled
before it ran never call it.  One that raises is logged once, counted
(``stats()["jobs"]["progress_failures"]``) and not called again; the search
goes on.

Every search runs on this host, on the scheduler's thread pool; see
:mod:`repro.service.scheduler`.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import replace
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Union)

from ..ir.graph import Graph
from ..search.result import Progress
from .cache import CacheEntry, EvictionPolicy, FingerprintCache
from .registry import optimiser_spec
from .scheduler import JobScheduler, JobState, UnknownJobError
from .worker import JobRequest, ServiceResult, cached_result, execute_request

__all__ = ["OptimisationService"]

_LOG = logging.getLogger(__name__)

#: Things submit_batch accepts per item: a graph, (graph, model_name),
#: a JobRequest, or a kwargs dict for submit().
BatchItem = Union[Graph, "JobRequest", Mapping[str, Any], tuple]


class OptimisationService:
    """Optimisation-as-a-service over the optimiser registry.

    Args:
        num_workers: Worker-pool size for concurrent search jobs.
        cache: A pre-built :class:`FingerprintCache` to share between
            services; built from ``cache_capacity`` / ``cache_dir`` /
            ``cache_policy`` when omitted.
        cache_capacity: In-memory tier size (entries); beyond it the
            entry whose loss costs least goes (GreedyDual-Frequency).
        cache_dir: Enables the persistent JSON cache tier under this
            directory.  The tier is multi-process safe (advisory locking +
            atomic publishes), so many services — on one host or a shared
            filesystem — can point at the same directory.
        cache_policy: Eviction bounds for the persistent tier (max entries
            / max bytes / TTL); unbounded when omitted.
        max_pending: Bounded admission queue (see :class:`JobScheduler`).
    """

    def __init__(self, num_workers: int = 4,
                 cache: Optional[FingerprintCache] = None,
                 cache_capacity: int = 256,
                 cache_dir: Optional[str] = None,
                 cache_policy: Optional[EvictionPolicy] = None,
                 max_pending: int = 256):
        self.cache = cache if cache is not None else FingerprintCache(
            capacity=cache_capacity, cache_dir=cache_dir, policy=cache_policy)
        self.scheduler = JobScheduler(num_workers=num_workers,
                                      max_pending=max_pending)
        # Admission-time dedup: fingerprint → primary job id, plus the
        # original request of every follower so its result can be
        # relabelled at pickup.
        self._inflight: Dict[str, int] = {}
        self._followers: Dict[int, JobRequest] = {}
        self._dedup_lock = threading.Lock()
        self._coalesced_total = 0
        # Entries this service's searches have stored, under _dedup_lock:
        # admission re-reads the cache only when a store landed during its
        # lookup (see submit_request).
        self._published = 0
        self._store_failures = 0
        self._progress_failures = 0

    # -- submission ----------------------------------------------------
    def submit(self, graph: Graph, optimiser: str = "taso",
               config: Optional[Mapping[str, Any]] = None,
               model_name: str = "", use_cache: bool = True,
               progress: Optional[Progress] = None) -> int:
        """Queue one optimisation job; returns its job id immediately.

        Args:
            graph: The tensor graph to optimise.
            optimiser: Registered optimiser name (see
                :func:`~repro.service.registry.list_optimisers`).
            config: Optimiser config overrides, merged over the registry
                defaults before fingerprinting.
            model_name: Label for reporting; defaults to the graph's name.
            use_cache: Consult the fingerprint cache and in-flight dedup
                table at admission.  ``False`` forces a fresh search and
                leaves the cache untouched.
            progress: Called once per search iteration with
                ``(iteration, best_cost, best_graph_fp)``, on the worker
                thread, if this submission starts a search (a cache hit or
                a coalesced follower does not).

        Returns:
            The job id (pass to :meth:`poll` / :meth:`result`).

        Raises:
            KeyError: For an unknown optimiser name — raised here, not in
                the worker.
            ValueError: For a config key the optimiser does not take —
                likewise raised here.
            QueueFullError: If the admission queue is at capacity.
        """
        request = JobRequest(graph=graph, optimiser=optimiser,
                             config=dict(config or {}),
                             model_name=model_name, use_cache=use_cache)
        return self.submit_request(request, progress=progress)

    def submit_request(self, request: JobRequest,
                       progress: Optional[Progress] = None) -> int:
        """Admit one :class:`JobRequest`; returns its job id.

        Admission order: cache lookup → in-flight dedup → dispatch.  A
        cache hit completes inline; a fingerprint already being searched
        in this process attaches this submission to the in-flight job (no
        new work); only a genuinely novel fingerprint runs a search, and
        only that search calls ``progress`` (see :meth:`submit`).

        Raises:
            KeyError: For an unknown optimiser name.
            ValueError: For a config key the optimiser does not take.
            QueueFullError: If ``max_pending`` novel jobs are already open
                (cache hits and coalesced followers are exempt — they add
                no work).
        """
        # Canonicalise to the *effective* config — registry defaults merged
        # under the overrides — so spelling a default out explicitly shares a
        # cache slot with omitting it, and a later change to a registry
        # default cannot resurrect persistent entries computed under the old
        # default.
        spec = optimiser_spec(request.optimiser)
        spec.check_config(request.config)
        effective = {**spec.defaults, **dict(request.config)}
        if request.optimiser != spec.name or effective != dict(request.config):
            request = replace(request, optimiser=spec.name, config=effective)
        fingerprint = request.fingerprint()
        if progress is not None:
            progress = self._guarded(progress, request.label)
        if not request.use_cache:
            return self.scheduler.submit(execute_request, request, fingerprint,
                                         progress, label=request.label)
        started = time.perf_counter()
        published = self._published
        entry = self.cache.get(fingerprint)
        if entry is not None:
            return self._complete_cached(request, entry, started)
        with self._dedup_lock:
            primary_id = self._inflight.get(fingerprint)
            if primary_id is not None:
                try:
                    follower_id = self.scheduler.attach(
                        primary_id, label=f"{request.label} (coalesced)")
                except UnknownJobError:
                    # A registration whose job can no longer be followed
                    # (its result delivered or its record retired): fall
                    # through to a fresh dispatch.
                    pass
                else:
                    self._followers[follower_id] = request
                    self._coalesced_total += 1
                    return follower_id
            if self._published != published:
                # A search stored its entry and left the in-flight table
                # between our lookup and now — possibly this fingerprint's.
                entry = self.cache.get(fingerprint)
                if entry is not None:
                    return self._complete_cached(request, entry, started)

            def retire(_future: Any = None) -> None:
                with self._dedup_lock:
                    if self._inflight.get(fingerprint) == job_id:
                        del self._inflight[fingerprint]

            def search() -> ServiceResult:
                # Store, leave the in-flight table, then resolve: whoever
                # holds the result finds its entry in the cache.
                try:
                    result = execute_request(request, fingerprint, progress)
                    self._store(fingerprint, result)
                    return result
                finally:
                    retire()

            # The done callback retires a job cancelled before it ran.
            # Neither path can run before the registration below: retire()
            # waits for the lock this admission holds, and nobody has the
            # job id to cancel yet.
            job_id = self.scheduler.submit(search, label=request.label,
                                           on_done=retire)
            self._inflight[fingerprint] = job_id
            return job_id

    def _guarded(self, progress: Progress, label: str) -> Progress:
        """``progress`` as a search calls it: the first exception it raises
        is logged with its traceback and counted, and it is not called
        again, so the search, its cache entry and its followers' results
        do not depend on it."""
        failed = False

        def guarded(iteration: int, best_cost: float,
                    best_graph_fp: str) -> None:
            nonlocal failed
            if failed:
                return
            try:
                progress(iteration, best_cost, best_graph_fp)
            except Exception:
                failed = True
                _LOG.warning("the progress callable of %s raised; it is not "
                             "called again", label, exc_info=True)
                with self._dedup_lock:
                    self._progress_failures += 1

        return guarded

    def _store(self, fingerprint: str, result: ServiceResult) -> None:
        """Cache a finished search's entry.  A store that fails is logged
        and counted, and the search's result is delivered all the same."""
        try:
            self.cache.put(CacheEntry.from_result(fingerprint, result.search))
        except Exception:
            _LOG.warning("could not cache the result of %s", fingerprint,
                         exc_info=True)
            with self._dedup_lock:
                self._store_failures += 1
        else:
            with self._dedup_lock:
                self._published += 1

    def _complete_cached(self, request: JobRequest, entry: CacheEntry,
                         started: float) -> int:
        """A finished job serving ``entry``: a hit never touches the worker
        pool, so warm traffic costs no dispatch."""
        result = cached_result(request, entry, time.perf_counter() - started)
        return self.scheduler.submit_completed(
            result, label=f"{request.label} (cached)")

    def submit_batch(self, jobs: Iterable[BatchItem],
                     optimiser: str = "taso",
                     config: Optional[Mapping[str, Any]] = None,
                     use_cache: bool = True) -> List[int]:
        """Queue many jobs; returns job ids in submission order.

        ``optimiser`` / ``config`` / ``use_cache`` are defaults applied to
        items that do not carry their own; a kwargs dict item may also name
        its own ``progress`` (see :meth:`submit`).  Admission
        is all-or-nothing: if any item is rejected (bad item, unknown
        optimiser, full queue), the batch's already-admitted still-pending
        jobs are cancelled before the error propagates, so no work is
        stranded without its job ids.
        """
        job_ids: List[int] = []
        try:
            for item in jobs:
                if isinstance(item, JobRequest):
                    job_ids.append(self.submit_request(item))
                elif isinstance(item, Graph):
                    job_ids.append(self.submit(item, optimiser=optimiser,
                                               config=config,
                                               use_cache=use_cache))
                elif isinstance(item, tuple):
                    graph, model_name = item
                    job_ids.append(self.submit(graph, optimiser=optimiser,
                                               config=config,
                                               model_name=model_name,
                                               use_cache=use_cache))
                elif isinstance(item, Mapping):
                    kwargs = {"optimiser": optimiser, "config": config,
                              "use_cache": use_cache, **item}
                    job_ids.append(self.submit(**kwargs))
                else:
                    raise TypeError(
                        f"cannot submit {type(item).__name__}: expected "
                        "Graph, (graph, model_name), JobRequest or kwargs "
                        "dict")
        except Exception:
            for job_id in job_ids:
                try:
                    self.scheduler.cancel(job_id)
                except Exception:
                    pass
            raise
        return job_ids

    # -- polling / results ---------------------------------------------
    def poll(self, job_id: int) -> JobState:
        """Non-blocking job state.

        Args:
            job_id: A job id from any of the submit methods.

        Returns:
            The job's current :class:`JobState`.

        Raises:
            UnknownJobError: If the id was never issued or was retired.
        """
        return self.scheduler.poll(job_id)

    def result(self, job_id: int,
               timeout: Optional[float] = None) -> ServiceResult:
        """Block until ``job_id`` finishes and return its result.

        For a coalesced (deduplicated) submission this returns the primary
        job's outcome relabelled with *this* submission's model name and
        flagged ``coalesced=True``.

        The result is delivered once: after this returns it (or raises the
        job's own error) the service holds no reference to it, so the
        result and the submitted graph live only as long as the caller
        keeps them.  ``poll(job_id)`` still answers; a second
        ``result(job_id)`` raises :class:`UnknownJobError`.  A timeout
        delivers nothing.

        Args:
            job_id: A job id from any of the submit methods.
            timeout: Seconds to wait before raising
                :class:`concurrent.futures.TimeoutError`.

        Returns:
            The job's :class:`ServiceResult` with timing fields filled in.

        Raises:
            UnknownJobError: If the id was never issued or was retired, or
                its result was already delivered.
            Exception: Whatever the search job itself raised (a failed
                primary fans its error out to every coalesced follower).
        """
        try:
            outcome: ServiceResult = self.scheduler.result(job_id, timeout)
        except TimeoutError:
            raise  # job still running — keep the follower mapping for retry
        except BaseException:
            # Terminal failure: drop the follower bookkeeping (it pins the
            # request graph) before fanning the error out.
            with self._dedup_lock:
                self._followers.pop(job_id, None)
            raise
        with self._dedup_lock:
            follower_request = self._followers.pop(job_id, None)
        if follower_request is not None:
            name = follower_request.model_name or follower_request.graph.name
            outcome = replace(outcome, coalesced=True,
                              search=replace(outcome.search, model=name))
        try:
            record = self.scheduler.record(job_id)
            queue_time = record.queue_time_s or 0.0
            run_time = record.run_time_s or 0.0
        except UnknownJobError:
            # The record was retired (MAX_HISTORY) between resolving the
            # future and snapshotting timings; the result itself is intact.
            queue_time = run_time = 0.0
        return replace(outcome, job_id=job_id,
                       queue_time_s=queue_time, run_time_s=run_time)

    def gather(self, job_ids: Sequence[int],
               timeout: Optional[float] = None) -> List[ServiceResult]:
        """Results for ``job_ids``, in the given (submission) order.

        Args:
            job_ids: Ids to collect, typically from :meth:`submit_batch`.
            timeout: Per-job wait bound, applied to each id in turn.

        Returns:
            One :class:`ServiceResult` per id, order-aligned.

        Raises:
            Exception: The first failing job's error, like :meth:`result`.
        """
        return [self.result(job_id, timeout) for job_id in job_ids]

    # -- synchronous conveniences --------------------------------------
    def optimise(self, graph: Graph, optimiser: str = "taso",
                 config: Optional[Mapping[str, Any]] = None,
                 model_name: str = "", use_cache: bool = True,
                 timeout: Optional[float] = None) -> ServiceResult:
        """submit + result in one call (arguments as in :meth:`submit`)."""
        job_id = self.submit(graph, optimiser=optimiser, config=config,
                             model_name=model_name, use_cache=use_cache)
        return self.result(job_id, timeout)

    def optimise_batch(self, jobs: Iterable[BatchItem],
                       optimiser: str = "taso",
                       config: Optional[Mapping[str, Any]] = None,
                       use_cache: bool = True,
                       timeout: Optional[float] = None) -> List[ServiceResult]:
        """submit_batch + gather in one call (results in submission order)."""
        job_ids = self.submit_batch(jobs, optimiser=optimiser, config=config,
                                    use_cache=use_cache)
        return self.gather(job_ids, timeout)

    # -- introspection / lifecycle -------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Service counters: worker pool, job states, cache, dedup.

        Returns:
            A dict with ``workers``, ``jobs`` (state tallies over the
            retained records, plus ``results_held``: finished jobs whose
            result nobody has fetched yet, and ``progress_failures``:
            progress callables that raised), ``cache_entries`` / ``cache``
            (tier accounting, plus ``store_failures``: searches whose entry
            could not be stored) and ``dedup`` (coalesced submissions and
            the current in-flight table size).
        """
        with self._dedup_lock:
            dedup = {"coalesced": self._coalesced_total,
                     "inflight": len(self._inflight)}
            store_failures = self._store_failures
            progress_failures = self._progress_failures
        return {
            "workers": self.scheduler.num_workers,
            "jobs": {**self.scheduler.counts(),
                     "results_held": self.scheduler.results_held(),
                     "progress_failures": progress_failures},
            "cache_entries": len(self.cache),
            "cache": {**self.cache.stats.to_dict(),
                      "store_failures": store_failures},
            "dedup": dedup,
        }

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down.

        Args:
            wait: Block until in-flight jobs finish (results stay
                retrievable); ``False`` abandons them.
        """
        self.scheduler.shutdown(wait=wait)
        with self._dedup_lock:
            self._inflight.clear()
            self._followers.clear()

    def __enter__(self) -> "OptimisationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (f"OptimisationService(workers={self.scheduler.num_workers}, "
                f"cache={self.cache!r})")
