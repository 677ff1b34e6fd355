"""A capped LRU cache for the hot-path memos that need a bound.

Two owners use it: the rule engine's match states (keyed on the graph
object, each pinning the parent TASO's incremental pricing reads) and the
environment's observation cache (keyed on a structural hash).  Both need
the same ``OrderedDict`` + ``move_to_end`` + ``popitem(last=False)`` dance
and the same counters; a memo that belongs to one object lives on that
object instead (a graph's ``memo``, an observation's delta batch and
decision).

Design notes
------------
* **Counters are part of the contract.**  ``hits`` / ``misses`` /
  ``evictions`` are plain ints updated on every ``get``/``put``;
  :meth:`LRUCache.stats` renders them as ``<name>_hits`` … keys, the
  shape ``GraphRewriteEnv.encode_cache_stats()`` reports for its
  observation cache.  ``clear()``
  drops the entries but keeps the counters — a cache flush mid-run must
  not erase the evidence of what happened before it.
* **No locking.**  Both owners are single-threaded; a caller that shared
  a cache across threads would serialise its own calls.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Capped mapping with least-recently-used eviction and hit counters.

    Parameters
    ----------
    max_entries:
        Eviction threshold.  ``0`` disables caching entirely (every
        ``put`` is a no-op and every ``get`` a miss); a negative value
        means unbounded.
    name:
        Label used as the key prefix in :meth:`stats` so several caches
        can merge their counters into one flat benchmark payload.
    """

    __slots__ = ("max_entries", "name", "hits", "misses", "evictions",
                 "_entries")

    def __init__(self, max_entries: int, name: str = ""):
        self.max_entries = int(max_entries)
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recently used) or
        ``default``; updates the hit/miss counters."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but touches neither recency nor counters."""
        value = self._entries.get(key, _MISSING)
        return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the oldest entry if full."""
        if self.max_entries == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.max_entries > 0:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key`` without touching the counters."""
        return self._entries.pop(key, default)

    def clear(self) -> None:
        """Drop every entry; the counters survive (see module docstring)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def stats(self) -> Dict[str, float]:
        """Flat counter dict, keys prefixed with ``<name>_`` when named."""
        total = self.hits + self.misses
        payload = {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "hit_rate": self.hits / total if total else 0.0,
            "entries": float(len(self._entries)),
        }
        if self.name:
            payload = {f"{self.name}_{key}": value
                       for key, value in payload.items()}
        return payload
