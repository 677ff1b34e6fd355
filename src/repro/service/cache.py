"""Canonical fingerprint cache for optimisation results.

A *fingerprint* identifies an optimisation request up to everything that can
change its outcome: the input graph (via :meth:`Graph.structural_hash`, a
Merkle digest invariant to node-id relabelling and to the creation order of
independent branches), the optimiser name, and a canonical digest of the
optimiser config.  Two callers submitting the same model built through
different code paths therefore share one cache slot.

Results live in an in-memory tier and are optionally mirrored to a
directory of entry files (a JSON header line, then the graph as
:mod:`repro.ir.serialize` JSON), so a warmed cache survives the process and
can be shipped between machines.  Both tiers evict by one rule,
GreedyDual-Frequency (:class:`_GreedyDual`): the entry whose loss costs
least goes first, so the two tiers do not hold the same hot set.

The persistent tier is safe to share between many service processes on one
host (or one shared filesystem):

* every entry write goes to a unique temporary file and is published with an
  atomic ``rename``, so readers never observe a torn document;
* mutating multi-file operations (store + evict, prune, clear) run under an
  advisory ``flock`` on ``<cache_dir>/.lock``; readers take a shared lock;
* each entry records a version (:data:`ENTRY_VERSION`), its creation time
  and a digest of its graph payload; the writer validates the graph, the
  reader checks the digest and rebuilds without re-inferring a shape; a
  file that fails either check is a counted, logged miss;
* every store and every read stamps the file: its mtime is the entry's
  GreedyDual priority (what a miss would cost — see
  :meth:`FingerprintCache._stamp`), its atime the *access stamp*;
* an :class:`EvictionPolicy` (max entries / max bytes / TTL) bounds the
  directory, evicting the lowest priority first; policy is enforced after
  every store and on demand via :meth:`FingerprintCache.prune_persistent`.

Everything here touches ``*.json`` entries only, so the ``.lock`` file
and anything else in the directory is never counted, evicted or cleared
as cache content.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..ir.graph import Graph
from ..ir.serialize import graph_from_dict, graph_to_dict
from ..search.result import SearchResult

try:  # POSIX advisory locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None

__all__ = ["CacheEntry", "CacheStats", "EvictionPolicy", "FingerprintCache",
           "request_fingerprint", "ENTRY_VERSION"]

_LOG = logging.getLogger(__name__)

#: Version of the per-entry on-disk layout.  Version 2 added ``created_at``;
#: version 3 is a one-line JSON header carrying a ``blake2b`` of the graph
#: payload that follows it; version 4's payload is the template-table graph
#: document (``format_version`` 2).  Only the current version is read: any
#: other (older or newer) is a counted miss, so a mixed-version fleet or an
#: old directory degrades to searching once more instead of crashing.
ENTRY_VERSION = 4

_LOCK_FILENAME = ".lock"


class _StaleEntryVersion(ValueError):
    """An entry file of another :data:`ENTRY_VERSION`."""


def _payload_digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _priority(stat: os.stat_result) -> float:
    """The eviction priority an entry file's stamp carries (its mtime).

    A stamped file's priority is seconds of recompute cost, far below its
    atime (a wall-clock time).  A file nobody stamped — an older build's,
    whose mtime is the wall-clock time of its last use, no earlier than
    its atime — has none and goes first, oldest access first: an existing
    directory needs no migration.
    """
    return stat.st_mtime if stat.st_mtime < stat.st_atime else -math.inf


class _GreedyDual:
    """GreedyDual-Frequency bookkeeping of one cache tier (Cao & Irani,
    USITS 1997): an entry's priority is ``H = L + F·C``, lowest goes first.

    ``C`` is what a miss on the entry would cost (``search_time_s``), ``F``
    its uses since it entered the tier, ``L`` the tier's inflation value,
    which never falls and rises to each victim's ``H`` — so an entry nobody
    uses any more ages out as newcomers land above it.  The units of ``C``
    cancel: no weight.
    """

    def __init__(self) -> None:
        self.inflation = 0.0
        self.uses: Dict[str, int] = {}

    def use(self, key: str, cost: float, entered: bool = False) -> float:
        """Count one use of ``key`` — its first if it just ``entered`` the
        tier — and return its priority ``H``."""
        uses = 1 if entered else self.uses.get(key, 0) + 1
        self.uses[key] = uses
        return self.inflation + uses * cost

    def age(self, *priorities: float) -> None:
        """Raise ``L`` to the highest of ``priorities``; it never falls."""
        self.inflation = max([self.inflation, *priorities])


def _freeze(value: Any) -> Any:
    """Reduce ``value`` to a deterministic JSON-compatible form.

    Primitives pass through; containers are recursed with sorted keys;
    arbitrary objects contribute their class name plus public attributes, so
    two equivalently-configured instances digest identically regardless of
    identity or memory address.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_freeze(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _freeze(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        public = {k: _freeze(v) for k, v in sorted(state.items())
                  if not k.startswith("_")}
        return {"__class__": type(value).__name__, **public}
    return type(value).__name__


def request_fingerprint(graph: Graph, optimiser: str,
                        config: Optional[Mapping[str, Any]] = None) -> str:
    """The canonical cache key for optimising ``graph`` with ``optimiser``.

    Args:
        graph: The input graph; enters the key via its structural hash.
            Graphs that differ only by node-id relabelling share a
            fingerprint (equal-shape weights are interchangeable; node
            names do not enter); inputs are positional, so swapping two
            same-shape inputs is a different request.  Two graphs that
            are *not* relabellings of each other get different
            fingerprints unless a node bijection preserves op, attrs,
            output shapes, ordered input digests and every node's
            consumer digests — the residue is spelled out in
            :meth:`Graph.structural_hash` and ``docs/service.md``.
        optimiser: Registered optimiser name (case-insensitive).
        config: Optimiser config overrides; canonicalised with sorted keys
            so spelling order cannot split the cache.

    Returns:
        A hex SHA-256 digest identifying the request.
    """
    payload = {
        "graph": graph.structural_hash(),
        "optimiser": str(optimiser).lower(),
        "config": _freeze(dict(config or {})),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`FingerprintCache`.

    Counters are *per-process*: a cache directory shared between service
    processes is observed through each process's own stats object.
    """

    memory_hits: int = 0
    persistent_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_evictions: int = 0
    disk_expirations: int = 0
    #: Entry files read and refused: torn, unparsable or failing their
    #: payload digest / written under another :data:`ENTRY_VERSION`.  Each
    #: also counts as a miss and logs one warning.
    corrupt_entries: int = 0
    stale_version_entries: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.persistent_hits

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over requests, 0.0 before any lookup."""
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict[str, float]:
        """All counters plus the derived hit rate, JSON-friendly."""
        return {
            "memory_hits": self.memory_hits,
            "persistent_hits": self.persistent_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk_evictions": self.disk_evictions,
            "disk_expirations": self.disk_expirations,
            "corrupt_entries": self.corrupt_entries,
            "stale_version_entries": self.stale_version_entries,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class EvictionPolicy:
    """Bounds for the persistent cache tier.

    Any field left ``None`` is unlimited.  Beyond ``max_entries`` /
    ``max_bytes`` the entry whose loss costs least goes first: each entry
    file's mtime is its GreedyDual-Frequency priority (recompute seconds ×
    uses, plus an inflation value that ages idle entries out), its atime
    the time it was last stored or read.  Equal priorities evict the older
    access first.

    Attributes:
        max_entries: Keep at most this many entry files on disk.
        max_bytes: Keep the directory's entry files under this many bytes.
        ttl_s: Entries not *accessed* (atime) for longer than this many
            seconds are expired (deleted on the next lookup or prune),
            whatever their priority.
    """

    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    ttl_s: Optional[float] = None

    @property
    def bounded(self) -> bool:
        """Whether any limit is actually set."""
        return (self.max_entries is not None or self.max_bytes is not None
                or self.ttl_s is not None)

    def to_dict(self) -> Dict[str, Optional[float]]:
        """The three bounds as a JSON-friendly dict."""
        return {"max_entries": self.max_entries, "max_bytes": self.max_bytes,
                "ttl_s": self.ttl_s}


class _DirectoryLock:
    """Advisory inter-process lock on ``<cache_dir>/.lock`` via ``flock``.

    Reentrant per-process (guarded by an ``RLock``); degrades to
    process-local locking where :mod:`fcntl` is unavailable.  Shared
    (reader) and exclusive (writer) modes map to ``LOCK_SH``/``LOCK_EX``.
    """

    def __init__(self, directory: Path):
        self._path = directory / _LOCK_FILENAME
        self._thread_lock = threading.RLock()
        self._depth = 0
        self._fd: Optional[int] = None

    def _acquire(self, exclusive: bool) -> None:
        self._thread_lock.acquire()
        self._depth += 1
        if self._depth > 1 or fcntl is None:
            return
        fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        except OSError:  # pragma: no cover - e.g. NFS without lock support
            os.close(fd)
            return
        self._fd = fd

    def _release(self) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None
        self._thread_lock.release()

    def shared(self) -> "_LockContext":
        return _LockContext(self, exclusive=False)

    def exclusive(self) -> "_LockContext":
        return _LockContext(self, exclusive=True)


class _LockContext:
    def __init__(self, lock: _DirectoryLock, exclusive: bool):
        self._lock = lock
        self._exclusive = exclusive

    def __enter__(self) -> None:
        self._lock._acquire(self._exclusive)

    def __exit__(self, *exc_info: Any) -> None:
        self._lock._release()


@dataclass
class CacheEntry:
    """One cached optimisation outcome.

    The *input* graph is deliberately not stored: the fingerprint already
    identifies it, and the submitting caller supplies it when the entry is
    rehydrated into a :class:`SearchResult`.
    """

    fingerprint: str
    optimiser: str
    model: str
    final_graph: Graph
    initial_latency_ms: float
    final_latency_ms: float
    initial_cost_ms: float
    final_cost_ms: float
    search_time_s: float
    applied_rules: List[str] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    created_at: float = 0.0

    @classmethod
    def from_result(cls, fingerprint: str, result: SearchResult) -> "CacheEntry":
        """Build an entry from a finished search.

        Args:
            fingerprint: The request fingerprint the entry is keyed under.
            result: The completed search whose outcome should be cached.

        Returns:
            A :class:`CacheEntry` stamped with the current wall-clock time.
            Its ``search_time_s`` is what a miss would cost again: the
            search plus any training before it (X-RLflow reports its
            training apart from ``optimisation_time_s``).
        """
        return cls(
            fingerprint=fingerprint,
            optimiser=result.optimiser,
            model=result.model,
            final_graph=result.final_graph,
            initial_latency_ms=result.initial_latency_ms,
            final_latency_ms=result.final_latency_ms,
            initial_cost_ms=result.initial_cost_ms,
            final_cost_ms=result.final_cost_ms,
            search_time_s=(result.optimisation_time_s
                           + result.stats.get("train_time_s", 0.0)),
            applied_rules=list(result.applied_rules),
            stats=dict(result.stats),
            created_at=time.time(),
        )

    def to_result(self, initial_graph: Graph,
                  retrieval_time_s: float = 0.0,
                  model_name: str = "") -> SearchResult:
        """Rehydrate into a :class:`SearchResult` for the submitted graph.

        Args:
            initial_graph: The graph the requesting caller submitted.
            retrieval_time_s: How long the cache lookup took; reported as
                the result's ``optimisation_time_s`` (the original search
                cost is kept under ``stats["search_time_s"]``).
            model_name: Relabels the result for the requesting caller —
                structurally identical graphs submitted under different
                names share the entry but keep their own label.

        Returns:
            A :class:`SearchResult` flagged with ``stats["cache_hit"]``.
        """
        return SearchResult(
            optimiser=self.optimiser,
            model=model_name or self.model,
            initial_graph=initial_graph,
            final_graph=self.final_graph,
            initial_latency_ms=self.initial_latency_ms,
            final_latency_ms=self.final_latency_ms,
            initial_cost_ms=self.initial_cost_ms,
            final_cost_ms=self.final_cost_ms,
            optimisation_time_s=max(retrieval_time_s, 1e-9),
            applied_rules=list(self.applied_rules),
            stats={**self.stats, "cache_hit": 1.0,
                   "search_time_s": self.search_time_s},
        )

    def to_bytes(self) -> bytes:
        """The version-:data:`ENTRY_VERSION` entry file: a one-line JSON
        header (everything but the graph, plus the payload's digest), a
        newline, the graph as :func:`graph_to_dict` JSON."""
        payload = json.dumps(graph_to_dict(self.final_graph)).encode()
        header = {
            "entry_version": ENTRY_VERSION,
            "fingerprint": self.fingerprint,
            "optimiser": self.optimiser,
            "model": self.model,
            "initial_latency_ms": self.initial_latency_ms,
            "final_latency_ms": self.final_latency_ms,
            "initial_cost_ms": self.initial_cost_ms,
            "final_cost_ms": self.final_cost_ms,
            "search_time_s": self.search_time_s,
            "applied_rules": list(self.applied_rules),
            "stats": dict(self.stats),
            "created_at": self.created_at,
            "payload_blake2b": _payload_digest(payload),
        }
        return json.dumps(header).encode() + b"\n" + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CacheEntry":
        """Rehydrate an entry file written by :meth:`to_bytes`.

        The payload is trusted once its digest matches the header's: the
        writer validated the graph, so it is rebuilt without re-running
        shape inference.

        Raises:
            ValueError: If the header is of another ``entry_version``, or
                the payload is not the bytes the header's digest was taken
                of (flipped, truncated, or no digest at all).
        """
        head, _, payload = blob.partition(b"\n")
        header = json.loads(head)
        if header.get("entry_version") != ENTRY_VERSION:
            raise _StaleEntryVersion(
                f"entry version {header.get('entry_version')}, "
                f"this build reads {ENTRY_VERSION}")
        digest = header.get("payload_blake2b")
        if digest != _payload_digest(payload):
            raise ValueError("header carries no payload digest"
                             if digest is None else "payload digest mismatch")
        return cls(
            fingerprint=header["fingerprint"],
            optimiser=header["optimiser"],
            model=header["model"],
            final_graph=graph_from_dict(json.loads(payload), validate=False),
            initial_latency_ms=float(header["initial_latency_ms"]),
            final_latency_ms=float(header["final_latency_ms"]),
            initial_cost_ms=float(header["initial_cost_ms"]),
            final_cost_ms=float(header["final_cost_ms"]),
            search_time_s=float(header["search_time_s"]),
            applied_rules=list(header["applied_rules"]),
            stats=dict(header["stats"]),
            created_at=float(header["created_at"]),
        )


class FingerprintCache:
    """Two-tier (memory + JSON directory) cache of optimisation results,
    each tier evicting by GreedyDual-Frequency (:class:`_GreedyDual`).

    Thread-safe within a process (scheduler workers and the submitting
    thread hit it concurrently) and — for the persistent tier — safe across
    *processes* sharing one directory: writes are atomic rename-publishes
    and multi-file operations take an advisory ``flock`` (see the module
    docstring).

    Args:
        capacity: Maximum entries in the in-memory tier.  Beyond it the
            lowest priority ``L + F·C`` goes (``F`` counting memory hits
            since the entry was stored or promoted from disk), the least
            recently used first among equal priorities.
        cache_dir: Optional directory for the persistent tier.  Entries
            evicted from memory remain on disk and are transparently
            reloaded on access.
        policy: Bounds for the persistent tier (unbounded when omitted).
            Enforced after every store; :meth:`prune_persistent` applies it
            on demand.
    """

    def __init__(self, capacity: int = 256,
                 cache_dir: Optional[Union[str, Path]] = None,
                 policy: Optional[EvictionPolicy] = None):
        self.capacity = max(1, int(capacity))
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.policy = policy or EvictionPolicy()
        self._dir_lock: Optional[_DirectoryLock] = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._dir_lock = _DirectoryLock(self.cache_dir)
        # The memory tier in recency order (least recent first), and each
        # resident entry's priority H.
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._priorities: Dict[str, float] = {}
        self._memory = _GreedyDual()
        self._lock = threading.RLock()
        self.stats = CacheStats()
        # The disk tier's L is unknown until this process first scans the
        # directory; its F counts this process's store and disk reads.
        self._disk = _GreedyDual()
        self._disk_scanned = False

    # -- lookup --------------------------------------------------------
    def fingerprint(self, graph: Graph, optimiser: str,
                    config: Optional[Mapping[str, Any]] = None) -> str:
        """Convenience wrapper around :func:`request_fingerprint`."""
        return request_fingerprint(graph, optimiser, config)

    def get(self, fingerprint: str) -> Optional[CacheEntry]:
        """Return the cached entry or ``None``; updates hit/miss accounting.

        A memory hit raises the entry's memory priority by one more use of
        its recompute cost and leaves the disk alone.  A persistent-tier hit
        re-stamps the entry file (its priority rises by one more use, its
        access stamp is now) and promotes the entry into the memory tier.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self._priorities[fingerprint] = self._memory.use(
                    fingerprint, entry.search_time_s)
                self.stats.memory_hits += 1
                return entry
        # Disk I/O happens outside the lock so a slow persistent load cannot
        # stall concurrent admission-time lookups.
        entry = self._load_persistent(fingerprint)
        with self._lock:
            if entry is not None:
                self.stats.persistent_hits += 1
                self._insert(fingerprint, entry)
            else:
                self.stats.misses += 1
            return entry

    def put(self, entry: CacheEntry) -> None:
        """Insert (or refresh) an entry in both tiers.

        The persistent store publishes atomically (unique temp file +
        rename) and then enforces the eviction policy under the directory
        lock.
        """
        with self._lock:
            self.stats.puts += 1
            self._insert(entry.fingerprint, entry)
        # Serialising the graph to the persistent tier stays outside the
        # lock for the same reason as in :meth:`get`.
        self._store_persistent(entry)

    def __contains__(self, fingerprint: str) -> bool:
        """Presence probe in either tier — no hit/miss accounting."""
        with self._lock:
            if fingerprint in self._entries:
                return True
        path = self._persistent_path(fingerprint)
        return path is not None and path.exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self, persistent: bool = False) -> None:
        """Drop the memory tier and its bookkeeping (``L`` and every ``F``);
        also wipe disk entries if ``persistent``."""
        with self._lock:
            self._entries.clear()
            self._priorities.clear()
            self._memory = _GreedyDual()
        if persistent and self.cache_dir is not None:
            with self._dir_lock.exclusive():
                for path in self.cache_dir.glob("*.json"):
                    path.unlink(missing_ok=True)
                self._disk.uses.clear()

    # -- persistent-tier maintenance -----------------------------------
    def prune_persistent(self) -> Dict[str, int]:
        """Apply the eviction policy to the disk tier now.

        Returns:
            ``{"expired": n, "evicted": m}`` — entries removed because
            their access stamp exceeded ``ttl_s``, and entries removed to
            satisfy ``max_entries`` / ``max_bytes``.
        """
        if self.cache_dir is None:
            return {"expired": 0, "evicted": 0}
        with self._dir_lock.exclusive():
            return self._enforce_policy_locked()

    def persistent_usage(self) -> Dict[str, int]:
        """Entry count and total byte size of the disk tier (0s if none)."""
        entries = 0
        size = 0
        if self.cache_dir is not None:
            for _, stat in self._scan_entries():
                entries += 1
                size += stat.st_size
        return {"entries": entries, "bytes": size}

    # -- internals -----------------------------------------------------
    def _insert(self, fingerprint: str, entry: CacheEntry) -> None:
        """Put ``entry`` in the memory tier with ``F = 1`` (a store or a
        disk promotion).  A newcomer to a full tier first evicts the lowest
        priority, the least recently used among equals (``min`` keeps the
        first of the recency order), and ``L`` rises to the victim's; the
        newcomer then enters at ``L + C``, always — as on disk, where ``L``
        tracks the lowest survivor."""
        if fingerprint not in self._entries:
            while len(self._entries) >= self.capacity:
                victim = min(self._entries, key=self._priorities.__getitem__)
                del self._entries[victim]
                del self._memory.uses[victim]
                self._memory.age(self._priorities.pop(victim))
                self.stats.evictions += 1
        self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        self._priorities[fingerprint] = self._memory.use(
            fingerprint, entry.search_time_s, entered=True)

    def _persistent_path(self, fingerprint: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{fingerprint}.json"

    def _load_persistent(self, fingerprint: str) -> Optional[CacheEntry]:
        path = self._persistent_path(fingerprint)
        if path is None or not path.exists():
            return None
        ttl = self.policy.ttl_s
        if ttl is not None:
            try:
                expired = time.time() - path.stat().st_atime > ttl
            except OSError:
                return None
            if expired:
                # Deleting is a mutation, so it takes the exclusive lock
                # (re-checking the stamp under it — another process may
                # have refreshed or already removed the entry).
                with self._dir_lock.exclusive():
                    try:
                        if time.time() - path.stat().st_atime > ttl:
                            path.unlink(missing_ok=True)
                            self.stats.disk_expirations += 1
                    except OSError:
                        pass
                return None
        try:
            with self._dir_lock.shared():
                blob = path.read_bytes()
            # Decoded outside the lock: a publish is an atomic rename, so
            # the bytes are one writer's whole file or none of it.
            entry = CacheEntry.from_bytes(blob)
        except FileNotFoundError:  # evicted since the existence check
            return None
        except Exception as exc:
            # Torn, corrupt, unreadable or of another version: a miss that
            # says so (the search that follows overwrites the file).
            stale = isinstance(exc, _StaleEntryVersion)
            with self._lock:
                if stale:
                    self.stats.stale_version_entries += 1
                else:
                    self.stats.corrupt_entries += 1
            _LOG.warning("ignoring %s cache entry %s: %s",
                         "stale-version" if stale else "corrupt", path,
                         exc if stale else f"{type(exc).__name__}: {exc}")
            return None
        self._stamp(path, entry, stored=False)
        return entry

    def _store_persistent(self, entry: CacheEntry) -> None:
        path = self._persistent_path(entry.fingerprint)
        if path is None:
            return
        # The reader trusts a payload whose digest matches, so nothing
        # unchecked may ever get one.
        entry.final_graph.validate()
        blob = entry.to_bytes()
        # Unique temp name: two processes publishing the same fingerprint
        # must not truncate each other's in-flight temp file.
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        with self._dir_lock.exclusive():
            try:
                tmp.write_bytes(blob)
                # Stamped before the rename: the entry appears with its
                # priority, never with the write's wall-clock mtime.
                self._stamp(tmp, entry, stored=True)
                tmp.replace(path)
            finally:
                tmp.unlink(missing_ok=True)
            if self.policy.bounded:
                self._enforce_policy_locked()

    def _stamp(self, path: Path, entry: CacheEntry, stored: bool) -> None:
        """Write ``entry``'s GreedyDual-Frequency priority into ``path``.

        The priority is the disk tier's ``H = L + F·C`` (:class:`_GreedyDual`),
        ``F`` counting this process's store and disk reads of the entry
        since that store.  ``H`` becomes the file's mtime and now its atime,
        so one ``utime`` puts the entry where every process sharing the
        directory will find it (:meth:`_scan_entries`).
        """
        with self._lock:
            if not self._disk_scanned:
                self._scan_entries()
            priority = self._disk.use(entry.fingerprint, entry.search_time_s,
                                      entered=stored)
        try:
            os.utime(path, (time.time(), priority))
        except OSError:  # evicted by another process since it was read
            pass

    def _scan_entries(self) -> List[Tuple[os.DirEntry, os.stat_result]]:
        """(directory entry, stat) for every entry file, the next victim
        first: one directory read, one ``stat`` per file, no ``Path`` made.

        Lowest :func:`_priority` first; equal priorities go by access
        stamp (atime), oldest first — on a filesystem whose timestamps are
        too coarse to tell priorities apart that is access order.  A scan
        raises the inflation value to the lowest priority found, so a
        process that has not scanned before starts where the directory is.
        """
        found: List[Tuple[os.DirEntry, os.stat_result]] = []
        with os.scandir(self.cache_dir) as listing:
            for item in listing:
                if not item.name.endswith(".json"):
                    continue
                try:
                    found.append((item, item.stat()))
                except OSError:  # raced with another process's eviction
                    continue
        found.sort(key=lambda item: (_priority(item[1]), item[1].st_atime))
        lowest = next((_priority(stat) for _, stat in found
                       if _priority(stat) > -math.inf), 0.0)
        with self._lock:
            self._disk.age(lowest)
            self._disk_scanned = True
        return found

    def _enforce_policy_locked(self) -> Dict[str, int]:
        """Delete expired / excess entries.  Caller holds the exclusive lock.

        Expiry goes by access stamp; eviction takes the lowest priorities
        (:meth:`_scan_entries`' order).  Afterwards the inflation value
        ``L`` rises to the last victim's priority and to the lowest
        surviving one, and the use counts of entries no longer on disk are
        dropped.
        """
        expired = evicted = 0
        entries = self._scan_entries()
        if self.policy.ttl_s is not None:
            cutoff = time.time() - self.policy.ttl_s
            keep = []
            for item, stat in entries:
                if stat.st_atime < cutoff:
                    Path(item.path).unlink(missing_ok=True)
                    expired += 1
                else:
                    keep.append((item, stat))
            entries = keep
        total_bytes = sum(stat.st_size for _, stat in entries)
        index = 0
        while index < len(entries):
            over_entries = (self.policy.max_entries is not None
                            and len(entries) - index > self.policy.max_entries)
            over_bytes = (self.policy.max_bytes is not None
                          and total_bytes > self.policy.max_bytes)
            if not over_entries and not over_bytes:
                break
            item, stat = entries[index]
            Path(item.path).unlink(missing_ok=True)
            total_bytes -= stat.st_size
            evicted += 1
            index += 1
        # The last victim and the first survivor, whichever exist.
        stamps = [_priority(stat)
                  for _, stat in entries[max(index - 1, 0):index + 1]]
        live = {item.name.removesuffix(".json")
                for item, _ in entries[index:]}
        with self._lock:
            self._disk.age(*stamps)
            self._disk.uses = {fingerprint: uses for fingerprint, uses
                               in self._disk.uses.items() if fingerprint in live}
        self.stats.disk_expirations += expired
        self.stats.disk_evictions += evicted
        return {"expired": expired, "evicted": evicted}

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        tier = f", dir={str(self.cache_dir)!r}" if self.cache_dir else ""
        return (f"FingerprintCache(entries={len(self)}/{self.capacity}"
                f"{tier}, hits={self.stats.hits}, misses={self.stats.misses})")
