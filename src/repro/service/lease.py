"""Cross-process dedup leases: exactly-once search across service processes.

The in-flight dedup table in :mod:`repro.service.api` is per-process, so
two *service processes* sharing one cache directory could each run the
same search at once.  A **lease** extends exactly-once to that case: an
exclusive ``flock`` on ``<cache_dir>/<fingerprint>.lease``, held on an open
descriptor for the whole search.  The kernel drops the lock when its
holder closes the descriptor or dies (``kill -9`` included), so nothing
beats, stamps or times out; a holder that is alive but stopped (SIGSTOP,
a paused VM) keeps its lease, and so does a child it forked while holding
it, until that child exits.

Losers do not search: they run :func:`wait_for_result`, polling the
persistent cache tier until the winner publishes the entry.  The winner
stores *before* releasing, so a waiter that wins the lease and finds no
entry knows the previous holder failed or died, and searches, publishes
and releases exactly as a winner does.

Leases need :mod:`fcntl` (POSIX); where it is unavailable the service
skips cross-process dedup, and where the filesystem refuses locks
(``ENOLCK``, ``EOPNOTSUPP``, some NFS mounts) it searches without the
lease.  Either way the shared cache still prevents sequential duplicate
work.
"""

from __future__ import annotations

import errno
import logging
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .cache import CacheEntry, FingerprintCache
from .worker import JobRequest, ServiceResult, cached_result, execute_request

try:  # POSIX advisory locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None

__all__ = ["Lease", "LeaseManager", "try_acquire", "wait_for_result",
           "leases_supported", "LEASE_SUFFIX"]

_LOG = logging.getLogger(__name__)

#: Lease files live next to the cache entries they guard:
#: ``<cache_dir>/<fingerprint>.lease``.
LEASE_SUFFIX = ".lease"
#: How often a waiter re-checks the cache tier and tries the lease.
POLL_INTERVAL_S = 0.1
#: Bound on one waiter's total wait (a holder that is alive but stopped
#: keeps its lease); the waiter raises :class:`TimeoutError` beyond it.
MAX_WAIT_S = 600.0


def leases_supported() -> bool:
    """Whether this platform can run cross-process dedup leases."""
    return fcntl is not None


def _lease_path(cache_dir: Union[str, Path], fingerprint: str) -> Path:
    return Path(cache_dir) / f"{fingerprint}{LEASE_SUFFIX}"


class Lease:
    """An exclusive ``flock`` on the lease file ``path``, held on ``fd``.

    ``fd`` is ``None`` once released, and for an *unlocked* lease (the
    filesystem refused the lock), whose release does nothing.
    """

    __slots__ = ("path", "fd")

    def __init__(self, path: Path, fd: Optional[int]):
        self.path = path
        self.fd = fd

    def release(self) -> None:
        """Unlink the file while still holding the lock, then unlock and
        close.  A second call frees nothing a later holder holds."""
        fd, self.fd = self.fd, None
        if fd is None:
            return
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass  # the next acquirer locks the same file instead
        finally:
            try:  # frees the lock in a forked child sharing ``fd`` too
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)


def try_acquire(cache_dir: Union[str, Path],
                fingerprint: str) -> Optional[Lease]:
    """Try to become ``fingerprint``'s search owner, without blocking.

    The lock is kept only if the descriptor still names the path's file: a
    holder that released between our ``open`` and our ``flock`` unlinked
    the file we locked.

    Returns:
        The held :class:`Lease`, or ``None`` if another process holds it.

    Raises:
        OSError: If the lease file cannot be opened or locked for any
            reason other than another holder (e.g. ``ENOLCK``).
    """
    path = _lease_path(cache_dir, fingerprint)
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        locked = os.fstat(fd)
        try:
            current = os.stat(path)
        except FileNotFoundError:
            current = None
    except OSError as exc:
        os.close(fd)
        if exc.errno in (errno.EWOULDBLOCK, errno.EAGAIN):
            return None
        raise
    if current is None or (current.st_dev, current.st_ino) != \
            (locked.st_dev, locked.st_ino):
        os.close(fd)  # a released lease's file: closing drops the lock
        return None
    return Lease(path, fd)


class LeaseManager:
    """The leases one service holds, by fingerprint.

    The service acquires a lease at admission time and releases it from
    the job's done-callback, *after* the success path published the cache
    entry.  ``errors`` counts acquisitions the filesystem refused (each
    searched without the lease; the first logged a warning).
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)
        self.errors = 0
        self._held: Dict[str, Lease] = {}
        self._lock = threading.Lock()

    def acquire(self, fingerprint: str) -> Optional[Lease]:
        """Try to own ``fingerprint``'s search.

        Returns:
            The held lease; ``None`` if another process holds it; an
            unlocked lease if the filesystem refused the lock, so the
            caller searches without cross-process dedup.
        """
        try:
            lease = try_acquire(self.cache_dir, fingerprint)
        except OSError as exc:
            with self._lock:
                self.errors += 1
                first = self.errors == 1
            path = _lease_path(self.cache_dir, fingerprint)
            if first:
                _LOG.warning("cannot lock %s (%s): searching without "
                             "cross-process dedup", path, exc)
            return Lease(path, None)
        if lease is not None:
            with self._lock:
                self._held[fingerprint] = lease
        return lease

    def release(self, fingerprint: str, lease: Lease) -> None:
        """Release ``lease`` if this manager still holds it (idempotent)."""
        with self._lock:
            if self._held.get(fingerprint) is not lease:
                return
            del self._held[fingerprint]
        lease.release()

    def held(self) -> Dict[str, Lease]:
        """Currently-held ``{fingerprint: lease}`` (a copy)."""
        with self._lock:
            return dict(self._held)

    def close(self) -> None:
        """Release every held lease."""
        for fingerprint, lease in self.held().items():
            self.release(fingerprint, lease)


def wait_for_result(request: JobRequest, fingerprint: str, cache_dir: str,
                    progress: Any = None) -> ServiceResult:
    """Job body for lease *losers*: poll the cache, search if the lease frees.

    Every :data:`POLL_INTERVAL_S`: return the winner's published entry as
    a cache hit (``stats["cross_process_dedup"]`` marks the origin), or
    win the lease — its holder released without publishing or died — and
    search, publish and release here.  ``progress`` is forwarded to a
    search run here.

    It polls through a private :class:`FingerprintCache` on
    ``cache_dir``: the entry it waits for can only be on disk (another
    process published it), and its repeated misses stay out of the
    service's hit / miss accounting.

    Raises:
        TimeoutError: If nothing was published within :data:`MAX_WAIT_S`.
        OSError: If the lease file cannot be opened or locked.
        Exception: Whatever a search run here itself raised.
    """
    cache = FingerprintCache(capacity=4, cache_dir=cache_dir)
    deadline = time.monotonic() + MAX_WAIT_S
    started = time.perf_counter()

    def published() -> Optional[ServiceResult]:
        entry = cache.get(fingerprint)
        if entry is None:
            return None
        result = cached_result(request, entry,
                               time.perf_counter() - started)
        result.search.stats["cross_process_dedup"] = 1.0
        return result

    while True:
        result = published()
        if result is not None:
            return result
        lease = try_acquire(cache_dir, fingerprint)
        if lease is not None:
            try:
                # Between our miss and winning the lease the holder may
                # have published and released; re-check before searching,
                # or exactly-once degrades to at-least-once under that race.
                result = published()
                if result is not None:
                    return result
                outcome = execute_request(request, fingerprint,
                                          progress=progress)
                cache.put(CacheEntry.from_result(fingerprint, outcome.search))
                return outcome
            finally:
                lease.release()
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"gave up waiting {MAX_WAIT_S}s for fingerprint "
                f"{fingerprint[:12]} (lease held elsewhere, no entry "
                f"published)")
        time.sleep(POLL_INTERVAL_S)
