"""The :class:`OptimisationService` batch façade.

Ties the registry, fingerprint cache and job scheduler together.  A
submission is a :class:`concurrent.futures.Future` of its
:class:`~repro.service.worker.ServiceResult`::

    from repro import build_model
    from repro.service import OptimisationService

    with OptimisationService(num_workers=4) as service:
        future = service.submit(build_model("squeezenet"), optimiser="taso")
        result = future.result()                 # blocks; ServiceResult
        again = service.optimise(build_model("squeezenet"))
        assert again.cache_hit                   # fingerprint cache warm

The future belongs to its caller: the service keeps no reference to a
finished submission, so its result and the caller's graph live only as
long as the caller keeps them.  ``Future.cancel()`` cancels a search still
waiting for a pool thread (its body never runs) or a coalesced follower.

Cache policy: the cache is consulted at submission time.  A hit
short-circuits the search entirely (the submission's future is already
complete when :meth:`~OptimisationService.submit` returns).  A miss checks
the *in-flight table*: if an identical fingerprint is already searching,
the new submission follows that search (admission-time dedup — one search,
every waiter gets the result).  Only a genuinely novel request dispatches a
search, whose job writes its result back to the cache before that result
resolves.  ``use_cache=False`` opts a submission out of both the cache
*and* dedup.

The in-flight table is the service's one dedup mechanism, and it is
per-process.  Processes that share a cache directory share its entries,
not their searches: two that miss on one fingerprint at the same moment
each search and each publish the same entry.

A submission's ``progress`` callable —
``progress(iteration, best_cost, best_graph_fp)`` — is called once per
iteration by the search that submission started, on the worker thread, and
by nothing else: a cache hit, a coalesced follower and a search cancelled
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
from concurrent.futures import Future
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from ..ir.graph import Graph
from ..search.result import Progress
from .cache import CacheEntry, EvictionPolicy, FingerprintCache
from .registry import optimiser_spec
from .scheduler import JobScheduler
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
        self._lock = threading.Lock()
        # Admission-time dedup: fingerprint → the searching future.
        self._inflight: Dict[str, Future] = {}
        self._coalesced_total = 0
        # Entries this service's searches have stored, under _lock:
        # admission re-reads the cache only when a store landed during its
        # lookup (see submit_request).
        self._published = 0
        self._store_failures = 0
        self._progress_failures = 0
        self._jobs = dict.fromkeys(
            ("pending", "running", "succeeded", "failed", "cancelled"), 0)

    # -- submission ----------------------------------------------------
    def submit(self, graph: Graph, optimiser: str = "taso",
               config: Optional[Mapping[str, Any]] = None,
               model_name: str = "", use_cache: bool = True,
               progress: Optional[Progress] = None) -> Future:
        """Queue one optimisation job; returns its future immediately.

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
            A :class:`~concurrent.futures.Future` of the job's
            :class:`ServiceResult`.  A coalesced follower's result is the
            search's outcome relabelled with *this* submission's model
            name and flagged ``coalesced=True``; a failed search raises
            its error from every waiter's future.

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
                       progress: Optional[Progress] = None) -> Future:
        """Admit one :class:`JobRequest`; returns its future.

        Admission order: cache lookup → in-flight dedup → dispatch.  A
        cache hit completes inline; a fingerprint already being searched
        in this process makes this submission a follower of that search
        (no new work); only a genuinely novel fingerprint runs a search,
        and only that search calls ``progress`` (see :meth:`submit`).

        Raises:
            KeyError: For an unknown optimiser name.
            ValueError: For a config key the optimiser does not take.
            QueueFullError: If ``max_pending`` searches are already open
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
            with self._lock:
                return self._dispatch(request, fingerprint, progress,
                                      shared=False)
        started = time.perf_counter()
        published = self._published
        entry = self.cache.get(fingerprint)
        if entry is None:
            with self._lock:
                primary = self._inflight.get(fingerprint)
                if primary is None and self._published != published:
                    # A search stored its entry and left the in-flight
                    # table between our lookup and now — possibly this
                    # fingerprint's.
                    entry = self.cache.get(fingerprint)
                if primary is None and entry is None:
                    return self._dispatch(request, fingerprint, progress,
                                          shared=True)
            if primary is not None:
                return self._follow(primary, request)
        result = cached_result(request, entry, time.perf_counter() - started)
        self._count(None, "succeeded")
        future: Future = Future()
        future.set_result(result)
        return future

    def _dispatch(self, request: JobRequest, fingerprint: str,
                  progress: Optional[Progress], shared: bool) -> Future:
        """Queue ``request``'s search on the pool; the caller holds
        ``_lock``.

        A ``shared`` search is the one in-flight search of its fingerprint:
        it stores its entry and leaves the in-flight table before its
        future resolves, so whoever holds the result finds the entry in
        the cache.  The body stamps the result's ``queue_time_s``
        (admission to pickup) and ``run_time_s`` (pickup to the end of the
        body).
        """
        admitted = time.monotonic()

        def search() -> ServiceResult:
            started = time.monotonic()
            self._count("pending", "running")
            try:
                result = execute_request(request, fingerprint, progress)
                if shared:
                    self._store(fingerprint, result)
            except BaseException:
                self._count("running", "failed")
                raise
            finally:
                if shared:
                    self._retire(fingerprint, future)
            self._count("running", "succeeded")
            return replace(result, queue_time_s=started - admitted,
                           run_time_s=time.monotonic() - started)

        def cancelled(_: Future) -> None:
            # Runs inside ``cancel()`` of a search that never ran.
            if future.cancelled():
                if shared:
                    self._retire(fingerprint, future)
                self._count("pending", "cancelled")

        # The body and ``cancelled`` both wait for the lock this admission
        # holds, so they find the future registered and counted.
        future = self.scheduler.submit(search)
        self._jobs["pending"] += 1
        if shared:
            self._inflight[fingerprint] = future
        future.add_done_callback(cancelled)
        return future

    def _follow(self, primary: Future, request: JobRequest) -> Future:
        """A future of ``primary``'s outcome for a coalesced ``request``.

        It resolves — relabelled with ``request``'s model name, flagged
        ``coalesced`` — or fails or is cancelled when ``primary`` does.
        Cancelling it cancels only this follower.
        """
        name = request.model_name or request.graph.name
        follower: Future = Future()
        with self._lock:
            self._coalesced_total += 1
            self._jobs["pending"] += 1
        follower.add_done_callback(self._count_if_cancelled)

        def relay(done: Future) -> None:
            if done.cancelled():
                follower.cancel()
            # Either claims the follower or, for a cancelled one, reports
            # it to ``concurrent.futures.wait`` / ``as_completed`` — as an
            # executor does for a cancelled job it dequeues.
            if not follower.set_running_or_notify_cancel():
                return
            error = done.exception()
            if error is not None:
                self._count("pending", "failed")
                follower.set_exception(error)
                return
            result = done.result()
            self._count("pending", "succeeded")
            follower.set_result(replace(
                result, coalesced=True, queue_time_s=0.0, run_time_s=0.0,
                search=replace(result.search, model=name)))

        primary.add_done_callback(relay)
        return follower

    def _retire(self, fingerprint: str, future: Future) -> None:
        """Take ``future``'s search out of the in-flight table."""
        with self._lock:
            if self._inflight.get(fingerprint) is future:
                del self._inflight[fingerprint]

    def _count_if_cancelled(self, future: Future) -> None:
        if future.cancelled():
            self._count("pending", "cancelled")

    def _count(self, leaving: Optional[str], entering: str) -> None:
        """Move one submission between the ``stats()["jobs"]`` tallies."""
        with self._lock:
            if leaving is not None:
                self._jobs[leaving] -= 1
            self._jobs[entering] += 1

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
                with self._lock:
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
            with self._lock:
                self._store_failures += 1
        else:
            with self._lock:
                self._published += 1

    def submit_batch(self, jobs: Iterable[BatchItem],
                     optimiser: str = "taso",
                     config: Optional[Mapping[str, Any]] = None,
                     use_cache: bool = True) -> List[Future]:
        """Queue many jobs; returns their futures in submission order.

        ``optimiser`` / ``config`` / ``use_cache`` are defaults applied to
        items that do not carry their own; a kwargs dict item may also name
        its own ``progress`` (see :meth:`submit`).  Admission
        is all-or-nothing: if any item is rejected (bad item, unknown
        optimiser, full queue), the batch's already-admitted futures are
        cancelled before the error propagates, so no work is stranded
        without its futures.
        """
        admitted: List[Future] = []
        try:
            for item in jobs:
                if isinstance(item, JobRequest):
                    admitted.append(self.submit_request(item))
                elif isinstance(item, Graph):
                    admitted.append(self.submit(item, optimiser=optimiser,
                                                config=config,
                                                use_cache=use_cache))
                elif isinstance(item, tuple):
                    graph, model_name = item
                    admitted.append(self.submit(graph, optimiser=optimiser,
                                                config=config,
                                                model_name=model_name,
                                                use_cache=use_cache))
                elif isinstance(item, Mapping):
                    kwargs = {"optimiser": optimiser, "config": config,
                              "use_cache": use_cache, **item}
                    admitted.append(self.submit(**kwargs))
                else:
                    raise TypeError(
                        f"cannot submit {type(item).__name__}: expected "
                        "Graph, (graph, model_name), JobRequest or kwargs "
                        "dict")
        except Exception:
            for future in admitted:
                future.cancel()
            raise
        return admitted

    # -- synchronous conveniences --------------------------------------
    def optimise(self, graph: Graph, optimiser: str = "taso",
                 config: Optional[Mapping[str, Any]] = None,
                 model_name: str = "", use_cache: bool = True,
                 timeout: Optional[float] = None) -> ServiceResult:
        """``submit(...).result(timeout)`` (arguments as in :meth:`submit`)."""
        return self.submit(graph, optimiser=optimiser, config=config,
                           model_name=model_name,
                           use_cache=use_cache).result(timeout)

    def optimise_batch(self, jobs: Iterable[BatchItem],
                       optimiser: str = "taso",
                       config: Optional[Mapping[str, Any]] = None,
                       use_cache: bool = True,
                       timeout: Optional[float] = None) -> List[ServiceResult]:
        """The results of :meth:`submit_batch`, in submission order;
        ``timeout`` bounds each wait in turn."""
        return [future.result(timeout) for future in self.submit_batch(
            jobs, optimiser=optimiser, config=config, use_cache=use_cache)]

    # -- introspection / lifecycle -------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Service counters: worker pool, job states, cache, dedup.

        Returns:
            A dict with ``workers``, ``jobs`` (how many submissions —
            cache hits and coalesced followers included — are pending,
            running, succeeded, failed or cancelled, plus
            ``progress_failures``: progress callables that raised),
            ``cache_entries`` / ``cache`` (tier accounting, plus
            ``store_failures``: searches whose entry could not be stored)
            and ``dedup`` (coalesced submissions and the current in-flight
            table size).
        """
        with self._lock:
            jobs = {**self._jobs,
                    "progress_failures": self._progress_failures}
            dedup = {"coalesced": self._coalesced_total,
                     "inflight": len(self._inflight)}
            store_failures = self._store_failures
        return {
            "workers": self.scheduler.num_workers,
            "jobs": jobs,
            "cache_entries": len(self.cache),
            "cache": {**self.cache.stats.to_dict(),
                      "store_failures": store_failures},
            "dedup": dedup,
        }

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down.

        Args:
            wait: Block until queued and running searches finish; their
                futures resolve either way.
        """
        self.scheduler.shutdown(wait=wait)
        with self._lock:
            self._inflight.clear()

    def __enter__(self) -> "OptimisationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (f"OptimisationService(workers={self.scheduler.num_workers}, "
                f"cache={self.cache!r})")
