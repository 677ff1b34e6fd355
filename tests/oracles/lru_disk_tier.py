"""Both cache tiers evicting by LRU — the order before GreedyDual — and the
replay that compares it with :class:`repro.service.FingerprintCache`
(``tests/service/test_concurrency.py::TestEvictionReplay`` and the
``eviction`` section of ``benchmarks/test_service_bench.py``).

:func:`lru_misses` is the old order restated in plain dictionaries: an LRU
memory tier in front of an LRU disk tier that evicted the oldest access
stamp, where a store or a disk read refreshed the stamp and a memory hit did
not touch the disk.  :func:`zipf_replay` is one fixed request sequence with
a recompute cost per entry; :func:`replay_misses` sends it through a real
cache, searching (storing an entry of that cost) on every miss.  Both count
the disk reads too: requests the memory tier missed and the disk answered.
"""

import random
from collections import OrderedDict
from typing import List, Sequence, Tuple

from repro.ir import GraphBuilder
from repro.search.result import SearchResult
from repro.service import CacheEntry, FingerprintCache

__all__ = ["lru_misses", "zipf_replay", "replay_misses"]


def lru_misses(sequence: Sequence[str], capacity: int,
               max_entries: int) -> Tuple[List[int], int]:
    """``(indices of the requests in sequence that searched, disk reads)``
    with both tiers LRU."""
    memory: "OrderedDict[str, None]" = OrderedDict()
    disk: "OrderedDict[str, None]" = OrderedDict()
    misses = []
    disk_reads = 0
    for index, key in enumerate(sequence):
        if key in memory:
            memory.move_to_end(key)
            continue
        if key in disk:
            disk_reads += 1
        else:
            misses.append(index)
        for tier, bound in ((disk, max_entries), (memory, capacity)):
            tier[key] = None
            tier.move_to_end(key)
            while len(tier) > bound:
                tier.popitem(last=False)
    return misses, disk_reads


def zipf_replay(seed: int = 0, entries: int = 64, length: int = 1500,
                dear_rank: int = 20) -> Tuple[List[str], dict]:
    """``(sequence, {key: recompute seconds})``: Zipf(1.1) requests over
    ``entries`` keys, searches of 7–47 ms but one of 2 s (an X-RLflow entry,
    at popularity rank ``dear_rank``)."""
    rng = random.Random(seed)
    keys = [f"replay{rank:02d}" for rank in range(entries)]
    costs = {key: rng.uniform(0.007, 0.047) for key in keys}
    costs[keys[dear_rank]] = 2.0
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(entries)]
    return rng.choices(keys, weights=weights, k=length), costs


def replay_misses(cache: FingerprintCache, sequence: Sequence[str],
                  costs: dict) -> Tuple[List[int], int]:
    """``(indices of the requests that missed cache, disk reads)``; each
    miss stores an entry (a tiny graph) whose recompute cost is
    ``costs[key]``."""
    builder = GraphBuilder("replay")
    graph = builder.build([builder.relu(builder.input((2, 4), name="x"))])
    misses = []
    disk_reads = cache.stats.persistent_hits
    for index, key in enumerate(sequence):
        if cache.get(key) is None:
            misses.append(index)
            cache.put(CacheEntry.from_result(key, SearchResult(
                optimiser="taso", model=key, initial_graph=graph,
                final_graph=graph, initial_latency_ms=1.0,
                final_latency_ms=1.0, initial_cost_ms=1.0, final_cost_ms=1.0,
                optimisation_time_s=costs[key])))
    return misses, cache.stats.persistent_hits - disk_reads
