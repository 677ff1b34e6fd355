"""Streaming job progress: events, sinks and per-job channels.

Every optimiser in this repository can report progress through a
``progress_callback(iteration, best_cost, best_graph_fp)`` — one call per
search iteration with the iteration number, the best objective value seen
so far, and the structural hash of the best graph.  This module carries
those callbacks from the worker thread running the search back to whoever
submitted the job:

* :class:`ProgressEvent` — one immutable progress observation.
* :class:`QueueProgressSink` — the producer side: the callback appends to
  a thread-safe deque.
* :class:`EventChannel` — the consumer side: one channel per streaming
  job, owned by the scheduler, draining the job's sink.

The scheduler surfaces channels as
:meth:`~repro.service.scheduler.JobScheduler.events`; the CLI's ``--follow``
flag and :meth:`~repro.service.api.OptimisationService.events` sit on top.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import List

__all__ = ["ProgressEvent", "QueueProgressSink", "EventChannel"]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress observation from a running search.

    Attributes:
        iteration: The optimiser's iteration counter (1-based; queue pops
            for TASO-family searches, saturation rounds for Tensat, walks
            for random search, environment steps for the RL searches).
        best_cost: Best objective value seen so far — cost-model estimate
            for cost-driven optimisers, simulated end-to-end latency (ms)
            for latency-driven ones.
        best_graph_fp: Structural hash of the best graph so far, so a
            follower can tell *which* graph the number belongs to.
        timestamp: Wall-clock seconds when the event was emitted.
    """

    iteration: int
    best_cost: float
    best_graph_fp: str
    timestamp: float = 0.0

    def summary(self) -> str:
        """One-line rendering used by the CLI's ``--follow`` output."""
        return (f"iter {self.iteration:4d}  best {self.best_cost:10.4f}  "
                f"graph {self.best_graph_fp[:12]}")


class QueueProgressSink:
    """Events land in a lock-guarded deque; the search runs in the same
    process as the consumer, so nothing is serialised."""

    def __init__(self) -> None:
        self._events: "deque[ProgressEvent]" = deque()
        self._lock = threading.Lock()

    def __call__(self, iteration: int, best_cost: float,
                 best_graph_fp: str) -> None:
        """The ``progress_callback`` signature optimisers invoke."""
        event = ProgressEvent(iteration=int(iteration),
                              best_cost=float(best_cost),
                              best_graph_fp=str(best_graph_fp),
                              timestamp=time.time())
        with self._lock:
            self._events.append(event)

    def drain(self) -> List[ProgressEvent]:
        """Remove and return every event published since the last drain."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events


class EventChannel:
    """The consumer end of one streaming job's progress events.

    Owned by the scheduler (one per streaming job id); drains the
    :class:`QueueProgressSink` it hands to the job body.
    """

    def __init__(self) -> None:
        self._sink = QueueProgressSink()
        self._finished = threading.Event()

    def sink(self) -> QueueProgressSink:
        """The callable to hand to the job body as ``progress``."""
        return self._sink

    @property
    def finished(self) -> bool:
        """Whether the producing job has reached a terminal state."""
        return self._finished.is_set()

    def finish(self) -> None:
        """Mark the producing job terminal (no further events expected)."""
        self._finished.set()

    def drain(self) -> List[ProgressEvent]:
        """Every event published since the previous drain (non-blocking)."""
        return self._sink.drain()
