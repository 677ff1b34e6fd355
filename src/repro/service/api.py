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

Cache policy: the cache is consulted once, at submission time.  A hit
short-circuits the search entirely (the job completes with the cached graph
in microseconds).  A miss checks the *in-flight table*: if an identical
fingerprint is already searching, the new submission is attached to that
job (admission-time dedup — one search, every waiter gets the result).
Only a genuinely novel request dispatches a search, whose result is written
back to the cache on success.  ``use_cache=False`` opts a submission out of
both the cache *and* dedup.

When the cache has a persistent directory, dedup additionally extends
**across processes** via fingerprint leases (see
:mod:`repro.service.lease`): the service only dispatches a search while
holding the fingerprint's lease, a ``flock`` on a file in the cache
directory; losing the race to another process turns the submission into a
*waiter* job that polls the shared cache tier for the winner's result —
and searches itself if the lease frees with no entry published (the
winner failed or its process died).

Jobs submitted with ``stream=True`` emit progress events — one per
optimiser iteration — consumable via :meth:`OptimisationService.events`.

Every search runs on this host, on the scheduler's thread pool; see
:mod:`repro.service.scheduler`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Union)

from ..ir.graph import Graph
from .cache import CacheEntry, EvictionPolicy, FingerprintCache
from .events import ProgressEvent
from .lease import Lease, LeaseManager, leases_supported, wait_for_result
from .registry import optimiser_spec
from .scheduler import JobScheduler, JobState, UnknownJobError
from .worker import JobRequest, ServiceResult, cached_result, execute_request

__all__ = ["OptimisationService"]

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
        cross_process_dedup: Extend exactly-once to simultaneous
            submissions from *other service processes* via lease files in
            the cache directory.  Effective only with a persistent cache
            tier on a platform with ``flock``; on by default.  A lease
            is freed when its holder releases it or dies; a holder that
            is alive but stopped keeps it.
    """

    def __init__(self, num_workers: int = 4,
                 cache: Optional[FingerprintCache] = None,
                 cache_capacity: int = 256,
                 cache_dir: Optional[str] = None,
                 cache_policy: Optional[EvictionPolicy] = None,
                 max_pending: int = 256,
                 cross_process_dedup: bool = True):
        self.cache = cache if cache is not None else FingerprintCache(
            capacity=cache_capacity, cache_dir=cache_dir, policy=cache_policy)
        self.scheduler = JobScheduler(num_workers=num_workers,
                                      max_pending=max_pending)
        self._leases: Optional[LeaseManager] = None
        if (cross_process_dedup and self.cache.cache_dir is not None
                and leases_supported()):
            self._leases = LeaseManager(self.cache.cache_dir)
        # Admission-time dedup: fingerprint → primary job id, plus the
        # original request of every follower so its result can be
        # relabelled at pickup.
        self._inflight: Dict[str, int] = {}
        self._followers: Dict[int, JobRequest] = {}
        # RLock: a job that finishes before its done-callback is registered
        # runs the in-flight cleanup synchronously on the submitting thread,
        # re-entering while submit_request still holds the lock.
        self._dedup_lock = threading.RLock()
        self._coalesced_total = 0

    # -- submission ----------------------------------------------------
    def submit(self, graph: Graph, optimiser: str = "taso",
               config: Optional[Mapping[str, Any]] = None,
               model_name: str = "", use_cache: bool = True,
               stream: bool = False) -> int:
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
            stream: Emit per-iteration progress events, consumable via
                :meth:`events` while the job runs.

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
        return self.submit_request(request, stream=stream)

    def submit_request(self, request: JobRequest, stream: bool = False) -> int:
        """Admit one :class:`JobRequest`; returns its job id.

        Admission order: cache lookup → in-flight dedup → cross-process
        lease → dispatch.  A cache hit completes inline; a fingerprint
        already being searched in this process attaches this submission to
        the in-flight job (no new work); a fingerprint being searched by
        *another process* (lease held elsewhere) dispatches a waiter that
        polls the shared cache tier instead of re-searching; only a
        genuinely novel fingerprint runs a search.

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
        if not request.use_cache:
            return self.scheduler.submit(execute_request, request, fingerprint,
                                         label=request.label, stream=stream)
        started = time.perf_counter()
        entry = self.cache.get(fingerprint)
        if entry is not None:
            # Complete the job inline: a hit never touches the worker
            # pool, so warm traffic costs no dispatch.
            result = cached_result(request, entry,
                                   time.perf_counter() - started)
            return self.scheduler.submit_completed(
                result, label=f"{request.label} (cached)")
        with self._dedup_lock:
            primary_id = self._inflight.get(fingerprint)
            if primary_id is not None:
                try:
                    follower_id = self.scheduler.attach(
                        primary_id, label=f"{request.label} (coalesced)")
                except UnknownJobError:
                    # The primary finished and was retired between its
                    # in-flight cleanup and now; fall through to a fresh
                    # dispatch (the cache very likely serves the next one).
                    pass
                else:
                    self._followers[follower_id] = request
                    self._coalesced_total += 1
                    return follower_id
            # Cross-process dedup: only the process holding the
            # fingerprint's lease searches; everyone else waits on the
            # shared cache tier.
            lease: Optional[Lease] = None
            if self._leases is not None:
                lease = self._leases.acquire(fingerprint)
                if lease is not None:
                    # Between our cache miss and winning the lease,
                    # another process may have published and released;
                    # re-check so we don't re-run a finished search.
                    entry = self.cache.get(fingerprint)
                    if entry is not None:
                        self._leases.release(fingerprint, lease)
                        result = cached_result(
                            request, entry, time.perf_counter() - started)
                        return self.scheduler.submit_completed(
                            result, label=f"{request.label} (cached)")

            # The registration cell closes the race with ultra-fast jobs:
            # if the job is already terminal when its done-callback is
            # attached, ``release`` runs (on this thread) before we learn
            # the job id — it records that fact so we skip registering a
            # fingerprint that would never be cleaned up.
            cell: Dict[str, Any] = {"job_id": None, "done": False}

            def release(_future: Any) -> None:
                if lease is not None:
                    # After on_success published the entry, so a released
                    # lease with no entry means the search failed.
                    self._leases.release(fingerprint, lease)
                with self._dedup_lock:
                    cell["done"] = True
                    job_id = cell["job_id"]
                    if job_id is not None and \
                            self._inflight.get(fingerprint) == job_id:
                        del self._inflight[fingerprint]

            try:
                if self._leases is not None and lease is None:
                    job_id = self.scheduler.submit(
                        wait_for_result, request, fingerprint,
                        str(self.cache.cache_dir),
                        label=f"{request.label} (lease-wait)",
                        on_success=self._store_callback(fingerprint),
                        on_done=release, stream=stream, compute=False)
                else:
                    job_id = self.scheduler.submit(
                        execute_request, request, fingerprint,
                        label=request.label,
                        on_success=self._store_callback(fingerprint),
                        on_done=release, stream=stream)
            except BaseException:
                # A rejected admission (e.g. QueueFullError) never created
                # the job whose done-callback would release the lease —
                # releasing here keeps the fingerprint searchable by
                # everyone (a leaked lease would wedge it cluster-wide
                # until this process exits).
                if lease is not None:
                    self._leases.release(fingerprint, lease)
                raise
            cell["job_id"] = job_id
            if not cell["done"]:
                self._inflight[fingerprint] = job_id
            return job_id

    def submit_batch(self, jobs: Iterable[BatchItem],
                     optimiser: str = "taso",
                     config: Optional[Mapping[str, Any]] = None,
                     use_cache: bool = True,
                     stream: bool = False) -> List[int]:
        """Queue many jobs; returns job ids in submission order.

        ``optimiser`` / ``config`` / ``use_cache`` / ``stream`` are
        defaults applied to items that do not carry their own.  Admission
        is all-or-nothing: if any item is rejected (bad item, unknown
        optimiser, full queue), the batch's already-admitted still-pending
        jobs are cancelled before the error propagates, so no work is
        stranded without its job ids.
        """
        job_ids: List[int] = []
        try:
            for item in jobs:
                if isinstance(item, JobRequest):
                    job_ids.append(self.submit_request(item, stream=stream))
                elif isinstance(item, Graph):
                    job_ids.append(self.submit(item, optimiser=optimiser,
                                               config=config,
                                               use_cache=use_cache,
                                               stream=stream))
                elif isinstance(item, tuple):
                    graph, model_name = item
                    job_ids.append(self.submit(graph, optimiser=optimiser,
                                               config=config,
                                               model_name=model_name,
                                               use_cache=use_cache,
                                               stream=stream))
                elif isinstance(item, Mapping):
                    kwargs = {"optimiser": optimiser, "config": config,
                              "use_cache": use_cache, "stream": stream,
                              **item}
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

    def _store_callback(self, fingerprint: str):
        """Store a job's result under ``fingerprint`` — unless it is a
        cache hit.  A searched result (``execute_request``, a lease
        waiter's takeover search) is never one; a waiter's entry polled
        from the shared tier always is, and republishing it would reset
        its provenance for no gain."""
        def store(result: ServiceResult) -> None:
            if not result.cache_hit:
                self.cache.put(
                    CacheEntry.from_result(fingerprint, result.search))
        return store

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

    def events(self, job_id: int, poll_interval_s: float = 0.05,
               timeout: Optional[float] = None) -> Iterator[ProgressEvent]:
        """Yield a streaming job's progress events until it finishes.

        One :class:`~repro.service.events.ProgressEvent` per optimiser
        iteration, for jobs submitted with ``stream=True`` (a coalesced
        follower shares — and competes for — its primary's stream; a
        cache hit yields nothing).  Events are consumed: two iterators
        over the same job split the stream between them.

        Args:
            job_id: A job id from any of the submit methods.
            poll_interval_s: Sleep between drains while the job runs.
            timeout: Overall bound in seconds (``TimeoutError`` beyond).

        Raises:
            UnknownJobError: If the id was never issued or was retired.
            TimeoutError: If ``timeout`` elapsed with the job unfinished.
        """
        return self.scheduler.events(job_id, poll_interval_s=poll_interval_s,
                                     timeout=timeout)

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
            result nobody has fetched yet), ``cache_entries`` / ``cache``
            (tier accounting) and ``dedup`` (coalesced submissions,
            current in-flight table size and, with cross-process dedup,
            ``leases_held`` and ``lease_errors`` — lease locks the
            filesystem refused, whose searches ran without the lease).
        """
        with self._dedup_lock:
            dedup = {"coalesced": self._coalesced_total,
                     "inflight": len(self._inflight)}
        dedup["cross_process"] = self._leases is not None
        if self._leases is not None:
            dedup["leases_held"] = len(self._leases.held())
            dedup["lease_errors"] = self._leases.errors
        return {
            "workers": self.scheduler.num_workers,
            "jobs": {**self.scheduler.counts(),
                     "results_held": self.scheduler.results_held()},
            "cache_entries": len(self.cache),
            "cache": self.cache.stats.to_dict(),
            "dedup": dedup,
        }

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down.

        Args:
            wait: Block until in-flight jobs finish (results stay
                retrievable); ``False`` abandons them.
        """
        self.scheduler.shutdown(wait=wait)
        if self._leases is not None:
            self._leases.close()
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
