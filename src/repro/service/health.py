"""Per-endpoint health records and load-aware endpoint selection.

The async worker pool routes remote work by how loaded — or how dead —
each worker box is.  This module is that brain:

* :class:`EndpointHealth` — one endpoint's record: capacity (seeded from
  configuration, corrected by every ``ping``), in-flight jobs (our own
  dispatches plus the load the worker itself reports, which covers other
  services sharing the fleet), an EWMA of observed call latency, a
  consecutive-transport-failure counter, and a circuit-breaker state.
* :class:`HealthRegistry` — the thread-safe collection the dispatcher
  consults: :meth:`try_acquire` picks the **least-loaded live** endpoint
  and reserves a slot; successes/failures/probes feed the records back.

Circuit breaking: ``failure_threshold`` consecutive transport failures
quarantine an endpoint — it stops receiving work entirely, so a dead box
costs at most ``failure_threshold`` fallbacks, not one per job.  The
pool's probe loop keeps pinging quarantined endpoints and readmits any
that answer, so a rebooted worker rejoins the rotation without operator
action.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["EndpointHealth", "HealthRegistry"]

#: Smoothing factor of the per-endpoint latency average (higher reacts
#: faster).
_EWMA_ALPHA = 0.3


@dataclass
class EndpointHealth:
    """Mutable health record of one remote worker endpoint.

    Attributes:
        endpoint: The ``"host:port"`` this record describes.
        capacity: Concurrent searches the worker can run.  Seeded from
            the pool's assumed capacity; corrected to the
            worker's real ``num_workers`` by every successful ping.
        inflight: Jobs *we* have dispatched and not yet completed.
        reported_inflight: In-flight jobs the worker itself reported on
            the last ping — includes load from other dispatchers.
        jobs_served: Lifetime total the worker reported on the last ping.
        ewma_latency_s: Exponentially-weighted moving average of observed
            call latency (dispatch → result), the load tie-breaker.
        consecutive_failures: Transport failures since the last success.
        quarantined: Circuit breaker state — a quarantined endpoint
            receives no work until a probe readmits it.
        readmissions: Times the endpoint came back from quarantine.
    """

    endpoint: str
    capacity: int = 1
    inflight: int = 0
    reported_inflight: int = 0
    jobs_served: int = 0
    ewma_latency_s: float = 0.0
    consecutive_failures: int = 0
    quarantined: bool = False
    readmissions: int = 0

    @property
    def effective_inflight(self) -> int:
        """Best current load estimate.

        Our own dispatch count is exact but blind to other dispatchers;
        the worker's self-report covers everyone but goes stale between
        pings.  Taking the max never *under*-estimates load from either
        view.
        """
        return max(self.inflight, self.reported_inflight)

    @property
    def load(self) -> float:
        """Utilisation in [0, ∞): effective in-flight jobs over capacity."""
        return self.effective_inflight / max(1, self.capacity)

    @property
    def saturated(self) -> bool:
        """Whether every known execution slot is already occupied."""
        return self.effective_inflight >= max(1, self.capacity)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot for ``stats()`` / logs."""
        return {
            "capacity": self.capacity,
            "inflight": self.inflight,
            "reported_inflight": self.reported_inflight,
            "jobs_served": self.jobs_served,
            "ewma_latency_s": self.ewma_latency_s,
            "consecutive_failures": self.consecutive_failures,
            "quarantined": self.quarantined,
            "readmissions": self.readmissions,
        }


class HealthRegistry:
    """Thread-safe endpoint selection over a set of health records.

    Args:
        endpoints: The ``"host:port"`` strings in the fleet.
        default_capacity: Capacity assumed per endpoint until a ping
            reports the worker's real ``num_workers``.
        failure_threshold: Consecutive transport failures that trip the
            circuit breaker (quarantine).
    """

    def __init__(self, endpoints: Sequence[str],
                 default_capacity: int = 1,
                 failure_threshold: int = 3):
        self.failure_threshold = max(1, int(failure_threshold))
        self._lock = threading.Lock()
        self._records: Dict[str, EndpointHealth] = {
            str(e): EndpointHealth(endpoint=str(e),
                                   capacity=max(1, int(default_capacity)))
            for e in endpoints
        }
        self._order: List[str] = list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def endpoints(self) -> List[str]:
        """Configured endpoints, in declaration order."""
        return list(self._order)

    # -- selection -----------------------------------------------------
    def try_acquire(self) -> Optional[str]:
        """Reserve a slot on the best available endpoint, or ``None``.

        "Best" means: not quarantined, has a free slot, lowest load
        factor — ties broken by EWMA latency, then declaration order.
        ``None`` means every endpoint is quarantined or saturated and the
        job should run locally.

        The returned endpoint's ``inflight`` is already incremented;
        every ``try_acquire`` must be paired with exactly one
        :meth:`release`.
        """
        with self._lock:
            record = self._pick_least_loaded()
            if record is None:
                return None
            record.inflight += 1
            return record.endpoint

    def _pick_least_loaded(self) -> Optional[EndpointHealth]:
        best: Optional[EndpointHealth] = None
        best_key: Any = None
        for index, endpoint in enumerate(self._order):
            record = self._records[endpoint]
            if record.quarantined or record.saturated:
                continue
            key = (record.load, record.ewma_latency_s, index)
            if best is None or key < best_key:
                best, best_key = record, key
        return best

    def release(self, endpoint: str) -> None:
        """Return the slot :meth:`try_acquire` reserved on ``endpoint``."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is not None and record.inflight > 0:
                record.inflight -= 1

    # -- feedback ------------------------------------------------------
    def record_success(self, endpoint: str, latency_s: float) -> None:
        """Fold one successful call's latency into the endpoint's record."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is None:
                return
            record.consecutive_failures = 0
            if record.ewma_latency_s <= 0.0:
                record.ewma_latency_s = float(latency_s)
            else:
                record.ewma_latency_s += _EWMA_ALPHA * (
                    float(latency_s) - record.ewma_latency_s)

    def record_failure(self, endpoint: str) -> bool:
        """Count one transport failure; returns True if it tripped the
        circuit breaker (the endpoint is now quarantined)."""
        with self._lock:
            record = self._records.get(endpoint)
            if record is None:
                return False
            record.consecutive_failures += 1
            if (not record.quarantined
                    and record.consecutive_failures >= self.failure_threshold):
                record.quarantined = True
                return True
            return False

    def observe_ping(self, endpoint: str,
                     info: Optional[Mapping[str, Any]]) -> None:
        """Fold one probe outcome into the endpoint's record.

        ``info`` is the worker's ``ping`` payload — ``None`` means the
        probe failed (counts as a transport failure).  A successful probe
        updates capacity and the worker-reported load, and **readmits** a
        quarantined endpoint.
        """
        if info is None:
            self.record_failure(endpoint)
            return
        with self._lock:
            record = self._records.get(endpoint)
            if record is None:
                return
            capacity = info.get("capacity", info.get("workers"))
            if capacity:
                record.capacity = max(1, int(capacity))
            record.reported_inflight = max(0, int(info.get("jobs_inflight", 0)))
            record.jobs_served = int(info.get("jobs_served",
                                              record.jobs_served))
            record.consecutive_failures = 0
            if record.quarantined:
                record.quarantined = False
                record.readmissions += 1

    # -- introspection -------------------------------------------------
    def quarantined_endpoints(self) -> List[str]:
        """Endpoints currently held out of the rotation."""
        with self._lock:
            return [e for e, r in self._records.items() if r.quarantined]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-endpoint health dicts (for ``stats()`` and the CLI)."""
        with self._lock:
            return {e: r.to_dict() for e, r in self._records.items()}
