"""Unit tests for the shared :class:`repro.core.lru.LRUCache`."""

import pytest

from repro.core.lru import LRUCache


def test_basic_get_put():
    cache = LRUCache(max_entries=4)
    assert cache.get("a") is None
    assert cache.get("a", 7) == 7
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert "a" in cache
    assert len(cache) == 1
    assert cache.hits == 1 and cache.misses == 2


def test_lru_eviction_order():
    cache = LRUCache(max_entries=3)
    for key in "abc":
        cache.put(key, key.upper())
    cache.get("a")           # refresh "a" — "b" becomes the oldest
    cache.put("d", "D")
    assert "b" not in cache
    assert list(cache) == ["c", "a", "d"]
    assert cache.evictions == 1


def test_overwrite_does_not_evict():
    cache = LRUCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)       # overwrite, still 2 entries
    assert len(cache) == 2
    assert cache.evictions == 0
    assert cache.get("a") == 10


def test_zero_capacity_disables_cache():
    cache = LRUCache(max_entries=0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is None
    assert cache.misses == 1


def test_negative_capacity_is_unbounded():
    cache = LRUCache(max_entries=-1)
    for i in range(1000):
        cache.put(i, i)
    assert len(cache) == 1000
    assert cache.evictions == 0


def test_peek_and_pop_do_not_count():
    cache = LRUCache(max_entries=4)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert cache.peek("zz", "dflt") == "dflt"
    assert cache.pop("a") == 1
    assert cache.pop("a", "gone") == "gone"
    assert cache.hits == 0 and cache.misses == 0
    # peek must not refresh recency: "b" was inserted after "a", so after
    # peeking "b" the oldest entry is still evicted in insertion order.
    cache2 = LRUCache(max_entries=2)
    cache2.put("x", 1)
    cache2.put("y", 2)
    cache2.peek("x")
    cache2.put("z", 3)
    assert "x" not in cache2 and "y" in cache2


def test_clear_keeps_counters():
    cache = LRUCache(max_entries=2)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1 and cache.misses == 1


def test_stats_shape_and_prefix():
    cache = LRUCache(max_entries=2, name="decision")
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    stats = cache.stats()
    assert stats["decision_hits"] == 1.0
    assert stats["decision_misses"] == 1.0
    assert stats["decision_hit_rate"] == pytest.approx(0.5)
    assert stats["decision_entries"] == 1.0
    unnamed = LRUCache(max_entries=2).stats()
    assert set(unnamed) == {"hits", "misses", "evictions", "hit_rate",
                            "entries"}
    assert unnamed["hit_rate"] == 0.0
