"""Streaming job progress: events, sinks and per-job channels.

Every optimiser in this repository can report progress through a
``progress_callback(iteration, best_cost, best_graph_fp)`` — one call per
search iteration with the iteration number, the best objective value seen
so far, and the structural hash of the best graph.  This module is the
transport that carries those callbacks from wherever the search runs back
to whoever submitted the job:

* :class:`ProgressEvent` — one immutable progress observation.
* :class:`QueueProgressSink` — in-process transport: the callback appends
  to a thread-safe deque (the thread worker backend).
* :class:`FileProgressSink` — cross-process transport: the callback
  appends one JSON line per event to a spool file.  The sink is picklable
  (it carries only the path), so it crosses the process-pool boundary of
  the async backend.
* :class:`EventChannel` — the consumer side: one channel per streaming
  job, owned by the scheduler, draining whichever sink the job was given.

The scheduler surfaces channels as
:meth:`~repro.service.scheduler.JobScheduler.events`; the CLI's ``--follow``
flag and :meth:`~repro.service.api.OptimisationService.events` sit on top.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["ProgressEvent", "QueueProgressSink", "FileProgressSink",
           "EventChannel"]


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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (the spool-file encoding)."""
        return {"iteration": self.iteration, "best_cost": self.best_cost,
                "best_graph_fp": self.best_graph_fp,
                "timestamp": self.timestamp}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProgressEvent":
        """Decode a spool-file event document."""
        return cls(iteration=int(data.get("iteration", 0)),
                   best_cost=float(data.get("best_cost", 0.0)),
                   best_graph_fp=str(data.get("best_graph_fp", "")),
                   timestamp=float(data.get("timestamp", 0.0)))

    def summary(self) -> str:
        """One-line rendering used by the CLI's ``--follow`` output."""
        return (f"iter {self.iteration:4d}  best {self.best_cost:10.4f}  "
                f"graph {self.best_graph_fp[:12]}")


class QueueProgressSink:
    """In-process sink: events land in a lock-guarded deque.

    Used by the thread worker backend, where the search runs in the same
    process as the consumer and no serialisation is needed.
    """

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


class FileProgressSink:
    """Cross-process sink: one JSON line per event, appended to a file.

    Pickles by spool path alone, so it crosses the process-pool boundary;
    the ``O_APPEND`` descriptor is opened lazily on first use in whichever
    process ends up emitting (and kept open — the callback sits inside the
    search's hot loop, so per-event open/close syscalls would tax streamed
    jobs).  Single-``write`` appends keep concurrently-written lines whole
    for the same-host tailer.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = str(path)
        self._fd: Optional[int] = None

    def __call__(self, iteration: int, best_cost: float,
                 best_graph_fp: str) -> None:
        """The ``progress_callback`` signature optimisers invoke."""
        event = ProgressEvent(iteration=int(iteration),
                              best_cost=float(best_cost),
                              best_graph_fp=str(best_graph_fp),
                              timestamp=time.time())
        line = json.dumps(event.to_dict()) + "\n"
        if self._fd is None:
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        os.write(self._fd, line.encode())

    def close(self) -> None:
        """Release the spool descriptor (reopened on next use)."""
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover - already gone
                pass
            self._fd = None

    def __del__(self):  # noqa: D105 - fd hygiene for pooled workers
        self.close()

    def __getstate__(self) -> Dict[str, Any]:
        return {"path": self.path}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self._fd = None


class EventChannel:
    """The consumer end of one streaming job's progress events.

    Owned by the scheduler (one per streaming job id); reads from either
    an in-memory :class:`QueueProgressSink` or a :class:`FileProgressSink`
    spool file, whichever transport the job's backend required.

    Args:
        spool_path: Tail this file for JSON-line events (cross-process
            backends).  ``None`` means in-memory transport.
    """

    def __init__(self, spool_path: Optional[Union[str, Path]] = None):
        self.spool_path = str(spool_path) if spool_path is not None else None
        self._queue_sink: Optional[QueueProgressSink] = None
        if self.spool_path is None:
            self._queue_sink = QueueProgressSink()
        self._offset = 0
        self._finished = threading.Event()

    def sink(self):
        """The callable to hand to the job body as ``progress``."""
        if self._queue_sink is not None:
            return self._queue_sink
        return FileProgressSink(self.spool_path)

    @property
    def finished(self) -> bool:
        """Whether the producing job has reached a terminal state."""
        return self._finished.is_set()

    def finish(self) -> None:
        """Mark the producing job terminal (no further events expected)."""
        self._finished.set()

    def drain(self) -> List[ProgressEvent]:
        """Every event published since the previous drain (non-blocking)."""
        if self._queue_sink is not None:
            return self._queue_sink.drain()
        return self._drain_spool()

    def _drain_spool(self) -> List[ProgressEvent]:
        try:
            with open(self.spool_path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return []
        events: List[ProgressEvent] = []
        consumed = 0
        for raw in chunk.split(b"\n"):
            # A trailing fragment without its newline is a half-written
            # event; leave the offset at its start and pick it up whole on
            # the next drain.
            end = consumed + len(raw) + 1
            if end > len(chunk):
                break
            consumed = end
            if not raw.strip():
                continue
            try:
                events.append(ProgressEvent.from_dict(json.loads(raw)))
            except (ValueError, TypeError):
                continue
        self._offset += consumed
        return events

    def close(self) -> None:
        """Release the channel's spool file (idempotent)."""
        self.finish()
        if self.spool_path is not None:
            try:
                os.unlink(self.spool_path)
            except OSError:
                pass
