"""Bounded job scheduler with submit / poll / result semantics.

Wraps a :class:`concurrent.futures.ThreadPoolExecutor` with the bookkeeping a
serving layer needs: integer job ids, per-job state and timing records, a
bounded admission queue (``QueueFullError`` instead of unbounded memory
growth), and completion callbacks used by the service to populate the
fingerprint cache.

A finished job's result is held until :meth:`JobScheduler.result` hands it
to its caller, and no longer: the scheduler then keeps only the job's
:class:`JobRecord`, so a long-lived service does not pin the graphs of the
requests it has already answered.  A result nobody fetches is dropped with
its record, once :data:`MAX_HISTORY` newer jobs have finished.

Every pool thread starts at construction.  No more compute jobs execute
at once than the host has cores (the *compute slots*); the rest wait for
a slot, still pending and still cancellable.

The scheduler also supports *attached* (follower) jobs — :meth:`attach`
registers a new job id that shares an existing job's future, which is how
the service coalesces concurrent identical requests onto one in-flight
search.

Jobs submitted with ``stream=True`` additionally get an **event channel**:
the job body receives a ``progress`` callable (see
:mod:`repro.service.events`) and everything it emits can be followed live
through :meth:`JobScheduler.events`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import threading
import time
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterator, Optional

from .events import EventChannel, ProgressEvent

__all__ = ["JobScheduler", "JobState", "JobRecord",
           "QueueFullError", "UnknownJobError", "MAX_HISTORY"]

#: How many *finished* jobs keep their :class:`JobRecord` (and, if nobody
#: has fetched it, their result).  Beyond it the oldest are purged, and
#: polling a purged id raises :class:`UnknownJobError`.
MAX_HISTORY = 1024


def _pool_warmup(barrier: "threading.Barrier") -> None:
    """Rendezvous task used to force every pool thread into existence."""
    try:
        barrier.wait(timeout=2.0)
    except threading.BrokenBarrierError:
        pass


class JobState(str, Enum):
    """Lifecycle of one job: pending → running → (succeeded|failed|cancelled)."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        """Whether the state is final (no further transitions)."""
        return self in (JobState.SUCCEEDED, JobState.FAILED,
                        JobState.CANCELLED)


class QueueFullError(RuntimeError):
    """Raised on submit when the bounded admission queue is at capacity."""


class UnknownJobError(KeyError):
    """Raised for a job id this scheduler never issued or has retired, and
    by :meth:`JobScheduler.result` for a result already delivered."""


@dataclass
class JobRecord:
    """State and timing snapshot of one job."""

    job_id: int
    label: str
    state: JobState
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None

    @property
    def queue_time_s(self) -> Optional[float]:
        """Seconds between submission and pickup (holding a compute slot).

        ``None`` for a coalesced follower (it runs nothing itself) and for
        a job that has not started.
        """
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_time_s(self) -> Optional[float]:
        """Worker-side execution seconds; ``None`` for a follower and for
        a job that has not finished running."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class JobScheduler:
    """Submit/poll/result façade over a bounded thread pool.

    Args:
        num_workers: Size of the worker pool.
        max_pending: Maximum simultaneously *open* (pending or running)
            jobs; further submissions raise :class:`QueueFullError` so
            overload surfaces at admission instead of as unbounded queue
            growth.  Attached (follower) jobs from :meth:`attach` do not
            consume slots — they add no work.
    """

    def __init__(self, num_workers: int = 4, max_pending: int = 256):
        self.num_workers = max(1, int(num_workers))
        self.max_pending = max(1, int(max_pending))
        self._executor = futures.ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix="repro-worker")
        #: Workers run CPU-bound pure-Python searches, so letting more of
        #: them *execute* than the machine has cores buys nothing and costs
        #: real money: GIL hand-offs every switch interval plus the
        #: CPU-cache thrash of interleaved working sets (measured ~7% on the
        #: 4-jobs-1-core service benchmark).  Jobs beyond the core count
        #: wait on this semaphore — still admitted, still pending, still
        #: cancellable, just not fighting for the GIL.  Jobs submitted with
        #: ``compute=False`` (the cross-process lease waiters, which
        #: sleep-poll a shared cache) bypass it, so a full complement of
        #: compute jobs can never starve a waiter or deadlock on one.
        self._compute_slots = threading.BoundedSemaphore(
            min(self.num_workers, os.cpu_count() or self.num_workers))
        self._prewarm_threads()
        self._lock = threading.RLock()
        self._records: Dict[int, JobRecord] = {}
        self._futures: Dict[int, futures.Future] = {}
        self._on_success: Dict[int, Callable[[Any], None]] = {}
        self._on_done: Dict[int, Callable[[futures.Future], None]] = {}
        self._attached: set = set()
        self._terminal: "deque[int]" = deque()
        self._channels: Dict[int, EventChannel] = {}
        self._open_jobs = 0
        self._ids = itertools.count(1)
        self._closed = False

    def _prewarm_threads(self) -> None:
        """Spawn every pool thread now, not on first use.

        The stdlib executor creates workers lazily, one per submission —
        so a burst of N first jobs pays N spawns *inside* the measured
        batch (and the first request after a deploy eats the whole pool
        start-up).  Construction is the right place for that cost.
        Threads rendezvous on a barrier so each warm-up task pins a
        distinct worker.
        """
        barrier = threading.Barrier(self.num_workers)
        warmups = [self._executor.submit(_pool_warmup, barrier)
                   for _ in range(self.num_workers)]
        futures.wait(warmups, timeout=5.0)

    # -- submission ----------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any, label: str = "",
               on_success: Optional[Callable[[Any], None]] = None,
               on_done: Optional[Callable[[futures.Future], None]] = None,
               stream: bool = False, compute: bool = True,
               **kwargs: Any) -> int:
        """Queue ``fn(*args, **kwargs)``; returns the job id.

        Args:
            fn: The job body, run on a pool thread.
            *args: Positional arguments for ``fn``.
            label: Human-readable tag kept on the :class:`JobRecord`.
            on_success: Runs exactly once with the job's result after it
                succeeds — in the pool thread that ran the job, or in the
                caller's thread when :meth:`result` finalises the job
                first.  Either way it has completed before :meth:`result`
                returns, so e.g. a cache populated by the callback is
                visible to whoever observed the result.
            on_done: Runs exactly once with the job's future on *any*
                terminal state (after ``on_success`` for successes) — used
                by the service to retire in-flight dedup registrations.
            compute: The job body is CPU-bound (the default).  Compute
                jobs wait for a compute slot (one per core) before
                executing; pass ``False`` for bodies that mostly wait
                (lease waiters) so they run immediately regardless of
                compute load.
            stream: Open an event channel for the job and pass its sink to
                ``fn`` as a ``progress`` keyword argument — ``fn`` must
                accept it.  Follow the events via :meth:`events`.
            **kwargs: Keyword arguments for ``fn``.

        Returns:
            The integer job id.

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
            job_id = next(self._ids)
            self._records[job_id] = JobRecord(
                job_id=job_id,
                label=label or getattr(fn, "__name__", "job"),
                state=JobState.PENDING,
                submitted_at=time.monotonic(),
            )
            self._open_jobs += 1
            if stream:
                channel = self._channels[job_id] = EventChannel()
                kwargs = {**kwargs, "progress": channel.sink()}
            # The job's own future, settled by :meth:`_run`: it stays
            # pending until the job holds its compute slot, so a job still
            # waiting for one can be cancelled.
            future: futures.Future = futures.Future()
            try:
                self._executor.submit(self._run, job_id, future, fn, compute,
                                      *args, **kwargs)
            except BaseException:
                self._open_jobs -= 1
                del self._records[job_id]
                self._channels.pop(job_id, None)
                raise
            self._futures[job_id] = future
            if on_success is not None:
                self._on_success[job_id] = on_success
            if on_done is not None:
                self._on_done[job_id] = on_done
        future.add_done_callback(
            lambda f, job_id=job_id: self._finalise(job_id, f))
        return job_id

    def attach(self, primary_job_id: int, label: str = "") -> int:
        """Register a *follower* job sharing ``primary_job_id``'s future.

        The follower has its own id and record but no work of its own: it
        becomes terminal when (and however) the primary does, and
        :meth:`result` on it returns — or re-raises — the primary's
        outcome.  Followers do not consume ``max_pending`` slots.  This is
        the mechanism behind admission-time dedup of identical in-flight
        requests.

        Args:
            primary_job_id: An open job id, or a finished one whose
                result has not been delivered.
            label: Human-readable tag for the follower's record.

        Returns:
            The follower's job id.

        Raises:
            UnknownJobError: If the primary id was never issued, its
                record has been retired or its result delivered.
            RuntimeError: If the scheduler has been shut down.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            future = self._futures.get(primary_job_id)
            if future is None:
                raise self._unknown_locked(primary_job_id)
            primary = self._records[primary_job_id]
            job_id = next(self._ids)
            self._records[job_id] = JobRecord(
                job_id=job_id,
                label=label or f"{primary.label} (coalesced)",
                state=JobState.PENDING,
                submitted_at=time.monotonic(),
            )
            self._futures[job_id] = future
            self._attached.add(job_id)
            primary_channel = self._channels.get(primary_job_id)
            if primary_channel is not None:
                # Followers watch the primary's stream: one search, every
                # waiter sees its progress.
                self._channels[job_id] = primary_channel
        future.add_done_callback(
            lambda f, job_id=job_id: self._finalise(job_id, f))
        return job_id

    def submit_completed(self, result: Any, label: str = "") -> int:
        """Register an already-available result as a finished job.

        Used for admission-time cache hits: the job never touches the worker
        pool (no dispatch), it is born ``SUCCEEDED`` and its
        result is immediately available via :meth:`result`.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            job_id = next(self._ids)
            now = time.monotonic()
            self._records[job_id] = JobRecord(
                job_id=job_id, label=label or "completed",
                state=JobState.SUCCEEDED, submitted_at=now,
                started_at=now, finished_at=now)
            future: futures.Future = futures.Future()
            future.set_result(result)
            self._futures[job_id] = future
            self._retire_locked(job_id)
        return job_id

    def _retire_locked(self, job_id: int) -> None:
        """Track a terminal job and purge the oldest beyond
        :data:`MAX_HISTORY`."""
        self._terminal.append(job_id)
        while len(self._terminal) > MAX_HISTORY:
            retired = self._terminal.popleft()
            self._records.pop(retired, None)
            self._futures.pop(retired, None)
            self._channels.pop(retired, None)

    def _run(self, job_id: int, future: futures.Future,
             fn: Callable[..., Any], compute: bool,
             *args: Any, **kwargs: Any) -> None:
        """Run one job on a pool thread and settle its ``future``.

        A compute job takes a compute slot first.  Waiting for it is
        queueing, not running: the record stays PENDING and the future
        cancellable until the slot is held, so ``queue_time_s`` /
        ``run_time_s`` keep meaning what they say.  A job cancelled
        meanwhile never runs its body.  The future is settled after the
        slot is released, so completion callbacks (cache population) do
        not hold up the next compute job.
        """
        slot = (self._compute_slots if compute and not future.cancelled()
                else contextlib.nullcontext())
        try:
            with slot:
                if not future.set_running_or_notify_cancel():
                    return  # cancelled while it waited
                with self._lock:
                    record = self._records[job_id]
                    record.state = JobState.RUNNING
                    record.started_at = time.monotonic()
                result = fn(*args, **kwargs)
        except BaseException as exc:
            # The job's outcome, as an executor's own work item stores it:
            # result() re-raises it to the caller.
            future.set_exception(exc)
        else:
            future.set_result(result)

    def _finalise(self, job_id: int, future: futures.Future) -> None:
        """Record a finished job's terminal state; idempotent.

        Runs from the future's done callback *and* synchronously from
        :meth:`result` / :meth:`wait_all` — ``Future.set_result`` wakes
        ``result()`` waiters before done callbacks fire, so without the
        synchronous path a caller could observe a result whose record was
        still RUNNING and whose ``on_success`` (cache population) had not
        happened yet.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.state.is_terminal:
                return
            record.finished_at = time.monotonic()
            if future.cancelled():
                record.state = JobState.CANCELLED
            elif future.exception() is not None:
                record.state = JobState.FAILED
                record.error = repr(future.exception())
            else:
                record.state = JobState.SUCCEEDED
            state = record.state
            if job_id in self._attached:
                self._attached.discard(job_id)  # followers hold no slot
            else:
                self._open_jobs -= 1
            self._retire_locked(job_id)
            on_success = self._on_success.pop(job_id, None)
            on_done = self._on_done.pop(job_id, None)
            channel = self._channels.get(job_id)
            if channel is not None:
                channel.finish()  # events() iterators drain and stop
        if on_success is not None and state is JobState.SUCCEEDED:
            try:
                on_success(future.result())
            except Exception:
                # A cache-population failure must not poison the job result.
                pass
        if on_done is not None:
            try:
                on_done(future)
            except Exception:
                # Dedup bookkeeping failures must not poison the job result.
                pass

    # -- polling -------------------------------------------------------
    def poll(self, job_id: int) -> JobState:
        """Current state of ``job_id`` (non-blocking)."""
        return self.record(job_id).state

    def events(self, job_id: int, poll_interval_s: float = 0.05,
               timeout: Optional[float] = None) -> Iterator[ProgressEvent]:
        """Yield ``job_id``'s progress events until it finishes.

        Generator over :class:`~repro.service.events.ProgressEvent`; it
        ends once the job is terminal and every buffered event has been
        delivered.  A job submitted without ``stream=True`` (or one that
        completed inline, like a cache hit) yields nothing.

        Args:
            job_id: A job id from :meth:`submit` / :meth:`attach`.
            poll_interval_s: Sleep between drains while the job runs.
            timeout: Overall bound in seconds; raises
                :class:`TimeoutError` when exceeded before the job ends.

        Raises:
            UnknownJobError: If the id was never issued or was retired
                before the first drain.
            TimeoutError: If ``timeout`` elapsed with the job unfinished.
        """
        with self._lock:
            channel = self._channels.get(job_id)
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        # Validate the id (and learn whether the job already ended).
        state = self.poll(job_id)
        while True:
            if channel is not None:
                for event in channel.drain():
                    yield event
            if state.is_terminal or (channel is not None and channel.finished):
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {state.value} after {timeout}s")
            time.sleep(poll_interval_s)
            try:
                state = self.poll(job_id)
            except UnknownJobError:
                break  # retired mid-iteration: deliver what we have
        if channel is not None:
            for event in channel.drain():  # events raced the finish flag
                yield event

    def record(self, job_id: int) -> JobRecord:
        """Snapshot of the job's record (a copy, safe to keep)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise UnknownJobError(job_id)
            return dataclasses.replace(record)

    def _unknown_locked(self, job_id: int) -> UnknownJobError:
        """The error for an id with no future: delivered, retired or never
        issued.

        A job whose result was delivered keeps its record, so a record
        without a future means exactly that.
        """
        if job_id in self._records:
            return UnknownJobError(
                f"job {job_id}'s result was already delivered; its record "
                "stays pollable")
        return UnknownJobError(job_id)

    def result(self, job_id: int, timeout: Optional[float] = None) -> Any:
        """Block until the job finishes; re-raises the job's exception.

        The job's record is terminal and its ``on_success`` callback has run
        by the time this returns (or raises the job's error).  This is
        where the result passes to its caller: once it has been returned,
        or the job's own error raised, the scheduler drops it and keeps
        only the record (``poll`` / ``record`` still answer).  A
        :class:`TimeoutError` delivers nothing, so the call can be retried.

        Raises:
            UnknownJobError: If the id was never issued or was retired, or
                its result was already delivered.
            TimeoutError: If ``timeout`` elapsed with the job unfinished.
        """
        with self._lock:
            future = self._futures.get(job_id)
            if future is None:
                raise self._unknown_locked(job_id)
        try:
            value = future.result(timeout)
        except BaseException as exc:
            # The job's own error (or cancellation) is its outcome; a
            # TimeoutError is not.
            if future.done() and (future.cancelled()
                                  or exc is future.exception()):
                self._deliver(job_id, future)
            raise
        self._deliver(job_id, future)
        return value

    def _deliver(self, job_id: int, future: futures.Future) -> None:
        """Finalise ``job_id`` synchronously, then drop its hold on the
        result; the record stays.

        Only this id's entry goes: a coalesced follower shares the future
        and keeps it until its own caller fetches it.
        """
        self._finalise(job_id, future)
        with self._lock:
            if self._futures.get(job_id) is future:
                del self._futures[job_id]

    def results_held(self) -> int:
        """Finished jobs whose result nobody has fetched yet."""
        with self._lock:
            return sum(1 for job_id in self._futures
                       if self._records[job_id].state.is_terminal)

    def cancel(self, job_id: int) -> bool:
        """Try to cancel a still-pending job; returns whether it worked.

        A job is pending until it holds a compute slot, so a job waiting
        for one is cancelled too: its body never runs, its record ends
        CANCELLED, :meth:`result` raises
        :class:`concurrent.futures.CancelledError` and its admission slot
        is freed.

        Follower jobs (:meth:`attach`) are never cancelled through this —
        their future is shared with the primary (and its other followers),
        so cancelling would revoke work other waiters still want.  A job
        whose result was delivered is finished: ``False``.

        Raises:
            UnknownJobError: If the id was never issued or was retired.
        """
        with self._lock:
            future = self._futures.get(job_id)
            if future is None:
                if job_id in self._records:
                    return False  # delivered
                raise UnknownJobError(job_id)
            if job_id in self._attached:
                return False
        return future.cancel()

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` over every job this scheduler has seen."""
        with self._lock:
            tally = {state.value: 0 for state in JobState}
            for record in self._records.values():
                tally[record.state.value] += 1
            return tally

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Wait for every submitted job; True if all finished in time.

        Finished jobs are finalised (records terminal, callbacks run)
        before this returns.
        """
        with self._lock:
            snapshot = dict(self._futures)
        futures.wait([f for f in snapshot.values() if not f.done()],
                     timeout=timeout)
        all_done = True
        for job_id, future in snapshot.items():
            if future.done():
                self._finalise(job_id, future)
            else:
                all_done = False
        return all_done

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Close the scheduler and its worker pool.

        Args:
            wait: Block until in-flight jobs finish; results of finished
                jobs nobody has fetched stay retrievable either way.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)
        with self._lock:
            for channel in self._channels.values():
                channel.finish()  # events() iterators stop
            self._channels.clear()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (f"JobScheduler({self.num_workers} workers, "
                f"max_pending={self.max_pending}, jobs={self.counts()})")
