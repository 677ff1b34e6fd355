"""Asyncio-driven worker pool: local process workers + remote JSON-RPC boxes.

:class:`AsyncWorkerPool` is an :class:`concurrent.futures.Executor`-shaped
backend for :class:`~repro.service.scheduler.JobScheduler` (``backend=
"async"``).  A dedicated thread runs an asyncio event loop; every submitted
job becomes a coroutine on that loop, which either

* awaits a **local process worker** (``loop.run_in_executor`` over a
  :class:`~concurrent.futures.ProcessPoolExecutor`), or
* awaits a **remote worker** over the JSON-RPC protocol in
  :mod:`repro.service.remote`, when the pool was given
  ``remote_endpoints`` and the job is an optimisation request
  (``execute_request``-shaped — the only job type with a wire encoding).

Remote dispatch is **health- and load-aware** (see
:mod:`repro.service.health`): every endpoint carries a live record —
capacity and in-flight jobs learned from periodic ``ping`` probes, an
EWMA of observed call latency, and a consecutive-failure circuit
breaker — and each job goes to the least-loaded live endpoint.  A dead
box is quarantined after three consecutive transport
failures and receives no further work; the probe loop keeps pinging it
and readmits it the moment it answers, so a rebooted worker rejoins the
rotation automatically.  When every endpoint is quarantined or saturated
the job spills to the local pool — jobs never fail because a box died.

A *transport* failure (box unreachable / dropped mid-call) falls back to
local execution and is counted in :attr:`AsyncWorkerPool.stats` — an
in-search failure on the remote side propagates to the caller like any
job error.

Because one event loop multiplexes every in-flight job, thousands of queued
jobs cost one coroutine each rather than one thread each, and slow remote
calls never occupy a local worker slot.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent import futures
from typing import Any, Callable, Dict, Optional, Sequence

from . import remote
from .health import HealthRegistry
from .worker import execute_request

__all__ = ["AsyncWorkerPool"]

#: Concurrent calls assumed allowed per endpoint until the first successful
#: ``ping`` reports the worker's real capacity (which then takes over).
_ASSUMED_REMOTE_CAPACITY = 4
#: Consecutive transport failures that quarantine an endpoint.
_FAILURE_THRESHOLD = 3
#: Seconds between background health-probe rounds (``ping`` of every
#: endpoint); :meth:`AsyncWorkerPool.probe_endpoints` runs one at once.
_PROBE_INTERVAL_S = 5.0


def _pool_noop() -> None:
    """Picklable no-op; submitting it spawns the process pool's workers."""


class AsyncWorkerPool:
    """Event-loop executor over local process workers and remote endpoints.

    Satisfies the slice of the :class:`concurrent.futures.Executor`
    interface the scheduler uses (``submit`` / ``shutdown``), so it drops
    in behind :class:`~repro.service.scheduler.JobScheduler`.

    Args:
        num_workers: Local process-pool size, and the cap on concurrently
            *dispatched* local jobs.
        remote_endpoints: ``"host:port"`` strings of
            :class:`~repro.service.remote.WorkerServer` boxes.  Empty means
            all work runs locally.
    """

    def __init__(self, num_workers: int = 4,
                 remote_endpoints: Optional[Sequence[str]] = None):
        self.num_workers = max(1, int(num_workers))
        self.remote_endpoints = [str(e) for e in (remote_endpoints or [])]
        self.health = HealthRegistry(self.remote_endpoints,
                                     default_capacity=_ASSUMED_REMOTE_CAPACITY,
                                     failure_threshold=_FAILURE_THRESHOLD)
        self._stats_lock = threading.Lock()
        self._dispatched_local = 0
        self._dispatched_remote = 0
        self._remote_fallbacks = 0
        self._local = futures.ProcessPoolExecutor(
            max_workers=self.num_workers)
        # The stdlib pool starts its workers on first use, so the first
        # burst of jobs (the first request after a deploy) would pay the
        # spawns inside the request: one no-op makes it fork the full
        # complement now, before this pool's own thread exists.
        self._local.submit(_pool_noop)
        self._loop = asyncio.new_event_loop()
        self._local_slots = asyncio.Semaphore(self.num_workers)
        self._inflight: set = set()
        self._closed = False
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-async-pool", daemon=True)
        self._thread.start()
        self._probe_task: Optional["futures.Future"] = None
        if self.remote_endpoints:
            self._probe_task = asyncio.run_coroutine_threadsafe(
                self._probe_loop(), self._loop)

    # -- executor interface --------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> "futures.Future":
        """Schedule ``fn(*args, **kwargs)`` on the event loop.

        Returns:
            A :class:`concurrent.futures.Future` (what
            ``asyncio.run_coroutine_threadsafe`` hands back), so scheduler
            bookkeeping is backend-agnostic.

        Raises:
            RuntimeError: If the pool has been shut down.
        """
        if self._closed:
            raise RuntimeError("AsyncWorkerPool is shut down")
        future = asyncio.run_coroutine_threadsafe(
            self._dispatch(fn, args, kwargs), self._loop)
        self._inflight.add(future)
        future.add_done_callback(self._inflight.discard)
        return future

    async def _dispatch(self, fn: Callable[..., Any], args: tuple,
                        kwargs: dict) -> Any:
        if self.remote_endpoints and fn is execute_request:
            endpoint = self.health.try_acquire()
            if endpoint is not None:
                started = self._loop.time()
                try:
                    result = await remote.optimise_async(
                        endpoint, *args, progress=kwargs.get("progress"))
                except remote.RemoteUnavailableError:
                    self.health.record_failure(endpoint)
                    with self._stats_lock:
                        self._remote_fallbacks += 1
                else:
                    self.health.record_success(
                        endpoint, self._loop.time() - started)
                    with self._stats_lock:
                        self._dispatched_remote += 1
                    return result
                finally:
                    self.health.release(endpoint)
        async with self._local_slots:
            with self._stats_lock:
                self._dispatched_local += 1
            return await self._loop.run_in_executor(
                self._local, functools.partial(fn, *args, **kwargs))

    # -- health probing ------------------------------------------------
    async def _probe_once(self) -> Dict[str, bool]:
        """Ping every endpoint concurrently; feed the health registry."""
        async def probe(endpoint: str) -> bool:
            try:
                info = await remote.ping_async(endpoint, timeout_s=5.0)
            except (remote.RemoteUnavailableError,
                    remote.RemoteWorkerError, OSError):
                self.health.observe_ping(endpoint, None)
                return False
            self.health.observe_ping(endpoint, info)
            return True

        results = await asyncio.gather(
            *(probe(e) for e in self.remote_endpoints))
        return dict(zip(self.remote_endpoints, results))

    async def _probe_loop(self) -> None:
        """Background probe: refresh load records, readmit healed boxes."""
        while not self._closed:
            try:
                await self._probe_once()
            except Exception:  # pragma: no cover - probe must never die
                pass
            await asyncio.sleep(_PROBE_INTERVAL_S)

    def probe_endpoints(self) -> Dict[str, bool]:
        """Run one probe round now; ``{endpoint: reachable}``.

        Synchronous front end to the background probe — a successful ping
        updates capacity/load and readmits a quarantined endpoint
        immediately, which is how tests (and impatient operators) avoid
        waiting out the probe interval.
        """
        if not self.remote_endpoints:
            return {}
        return asyncio.run_coroutine_threadsafe(
            self._probe_once(), self._loop).result(timeout=30)

    # -- introspection -------------------------------------------------
    @property
    def stats(self) -> Dict[str, Any]:
        """Dispatch counters plus per-endpoint health snapshots.

        ``dispatched_local`` / ``dispatched_remote`` / ``remote_fallbacks``
        as before; ``endpoints`` maps each endpoint to its
        :meth:`~repro.service.health.EndpointHealth.to_dict` record when
        any are configured.
        """
        with self._stats_lock:
            counters: Dict[str, Any] = {
                "dispatched_local": self._dispatched_local,
                "dispatched_remote": self._dispatched_remote,
                "remote_fallbacks": self._remote_fallbacks,
            }
        if self.remote_endpoints:
            counters["endpoints"] = self.health.snapshot()
        return counters

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for in-flight jobs."""
        if self._closed:
            return
        self._closed = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                # One no-op round trip lets the loop actually process the
                # cancellation before run_forever is stopped below.
                asyncio.run_coroutine_threadsafe(
                    asyncio.sleep(0), self._loop).result(timeout=5)
            except Exception:  # pragma: no cover - teardown best effort
                pass
        if wait:
            futures.wait(list(self._inflight))
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        # A loop may be closed only once run_forever has returned.
        if not self._thread.is_alive():
            self._loop.close()
        self._local.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (f"AsyncWorkerPool(workers={self.num_workers}, "
                f"endpoints={self.remote_endpoints}, stats={self.stats})")
