"""The four workloads: which requests run, in what mix, and why.

Every workload is the same pipeline over its own rows — a cold request,
repeats of it, and (for rows marked ``execute``) real execution of the graph
before and after — because the driver wants every end-to-end metric from
every workload.  What differs is where the time goes:

* ``search_cold``  full-size paper models through TASO and Tensat
  (``search``/``rules``/``ir``/``cost`` do the work),
* ``rl_train``     X-RLflow training on two reduced models (``rl``/``nn``),
* ``serve_mixed``  eight reduced models, then Zipf traffic from two clients
  over a catalogue larger than both cache tiers (``service``),
* ``exec_verify``  one cold request per model, then execution and
  differential verification for most of the run (``exec``).

``--seed`` decides the order of requests, where the traffic starts, the inputs
of the differential checks and which rows get the untimed ones.  It does not
pick which model is popular or the RL seed: those move a metric's expected
value, and a benchmark run under ten seeds has to answer with one number.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import small_model_kwargs
from repro.models.registry import (PAPER_EVAL_MODELS, TENSAT_MODELS,
                                   build_model)

__all__ = ["Row", "Traffic", "Workload", "workload", "zipf_sequence",
           "trajectory_digest", "WORKLOAD_NAMES", "CLIENTS", "HITS_PER_PASS",
           "TRAFFIC_CYCLE"]

WORKLOAD_NAMES = ("search_cold", "rl_train", "serve_mixed", "exec_verify")

#: Client threads of the traffic: never more than the host has cores.
CLIENTS = 2

#: Exponent of the traffic's popularity law.
ZIPF_S = 1.1

#: Requests in one cycle of the traffic's fixed order (see
#: :func:`zipf_sequence`).
TRAFFIC_CYCLE = 1000

#: Cache hits sent in a request pass, about: a hit costs a millisecond, so a
#: row can afford many samples, and they are spread between the cold requests
#: so that they see the same mix of host speeds as those do.
HITS_PER_PASS = 120

#: TASO budget on the full-size suite.  Cost is linear in candidates
#: (~1 ms each on inception_v3), so ten iterations keep a pass over all
#: eleven rows under 3 s and a run fits five: on a shared host the number of
#: repeats behind a row's median matters more than the depth of one search.
FULL_SIZE_TASO = (("max_iterations", 10),)

#: X-RLflow through the service; the RL seed is fixed (see module docstring).
RL_CONFIG = (("num_episodes", 6), ("max_steps", 18), ("max_candidates", 24),
             ("update_frequency", 3), ("ppo_epochs", 2), ("eval_episodes", 2),
             ("seed", 0))

#: Models of the serving catalogue, small and large alternating so every
#: block of eight popularity ranks holds each of them once.
CATALOGUE_MODELS = ("bert", "squeezenet", "vit", "inception_v3", "dalle",
                    "resnext50", "tt", "resnet18")

#: Eight configurations per catalogue model (the issue's, at half the
#: iterations); the first is the cold row.
CATALOGUE_CONFIGS = (
    ("taso", (("max_iterations", 10),)), ("greedy", (("max_iterations", 10),)),
    ("random", (("seed", 0),)), ("taso", (("max_iterations", 11),)),
    ("greedy", (("max_iterations", 11),)), ("taso", (("max_iterations", 12),)),
    ("random", (("seed", 1),)), ("taso", (("max_iterations", 13),)),
)

#: Reduced-size models whose results are executed for real.
EXEC_VERIFY_MODELS = ("bert", "vit", "dalle", "tt", "squeezenet", "resnet18",
                      "inception_v3")


@dataclass(frozen=True)
class Row:
    """One (model, optimiser, config) request, built fresh every time."""

    model: str
    optimiser: str
    config: Tuple[Tuple[str, Any], ...] = ()
    full_size: bool = False
    #: Execute the graph before and after for real (exec metrics).
    execute: bool = False

    @property
    def key(self) -> str:
        """Names the row; unique among the rows of one workload."""
        return f"{self.optimiser}:{self.model}"

    def build(self):
        """A new ``Graph`` object: no memoised hash, no cost tables."""
        kwargs = {} if self.full_size else small_model_kwargs(self.model)
        return build_model(self.model, **kwargs)


@dataclass(frozen=True)
class Traffic:
    """Closed-loop Zipf traffic from :data:`CLIENTS` threads over a catalogue.

    One service answers it for the whole run.  Its memory tier holds a
    quarter of the catalogue and its disk tier three quarters, so most
    requests are hits, a third of those from disk, and LRU eviction from the
    disk tier keeps a trickle of repeated searches and cache writes running
    beside the reads.
    """

    catalogue: Tuple[Row, ...]
    #: Requests between two host probes; a run sends as many windows as fit.
    window: int
    memory_entries: int
    disk_entries: int


@dataclass(frozen=True)
class Workload:
    name: str
    rows: Tuple[Row, ...]
    #: Exec rounds after every request pass.  One where executing is the
    #: purpose (``exec_verify``) or a round is already a seventh of a pass
    #: (``rl_train``); two where that left a median over four samples of one
    #: row as the noisiest number of the run.
    rounds_per_pass: int
    traffic: Optional[Traffic] = None

    @property
    def exec_rows(self) -> Tuple[Row, ...]:
        return tuple(row for row in self.rows if row.execute)


def _catalogue(models: Sequence[str], configs) -> Tuple[Row, ...]:
    # Rank order: config-major, so ranks 1..len(models) are the cold rows.
    return tuple(Row(model, optimiser, config)
                 for optimiser, config in configs for model in models)


def workload(name: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks it to a two-model sketch.

    Every workload reports every end-to-end metric (the driver's contract),
    so each also runs the others' work in miniature: a few cache hits after
    every cold request, and executions and differential checks of the rows
    marked ``execute`` — kept to a seventh of a pass where executing is not
    the workload's purpose.
    """
    if name == "search_cold":
        taso = PAPER_EVAL_MODELS if not smoke else ["squeezenet", "tt"]
        tensat = TENSAT_MODELS if not smoke else ["squeezenet"]
        # Executing every full-size model costs more than the whole run;
        # the cheapest stands in for "does the result run faster".
        rows = [Row(m, "taso", FULL_SIZE_TASO, full_size=not smoke,
                    execute=m == "squeezenet") for m in taso]
        rows += [Row(m, "tensat", full_size=not smoke) for m in tensat]
        return Workload(name, tuple(rows), rounds_per_pass=2)
    if name == "rl_train":
        config = RL_CONFIG if not smoke else tuple(
            (k, 2 if k in ("num_episodes", "update_frequency") else v)
            for k, v in RL_CONFIG)
        models = ["bert", "squeezenet"] if not smoke else ["bert"]
        rows = [Row(m, "xrlflow", config, execute=True) for m in models]
        return Workload(name, tuple(rows), rounds_per_pass=1)
    if name == "serve_mixed":
        models = CATALOGUE_MODELS if not smoke else CATALOGUE_MODELS[:2]
        configs = CATALOGUE_CONFIGS if not smoke else CATALOGUE_CONFIGS[:2]
        catalogue = _catalogue(models, configs)
        # The canary of ``search_cold``: the 13 ms graphs (bert, vit, tt)
        # read a fifth faster in a loud hour than in a quiet one, the probe
        # slowing more than their per-node dispatch does.
        rows = tuple(Row(r.model, r.optimiser, r.config,
                         execute=r.model == "squeezenet")
                     for r in catalogue[:len(models)])
        traffic = Traffic(catalogue, window=250, memory_entries=16,
                          disk_entries=48) if not smoke else Traffic(
            catalogue, window=100, memory_entries=1, disk_entries=3)
        return Workload(name, rows, rounds_per_pass=2, traffic=traffic)
    if name == "exec_verify":
        models = EXEC_VERIFY_MODELS if not smoke else EXEC_VERIFY_MODELS[:2]
        rows = [Row(m, "taso", (("max_iterations", 30),), execute=True)
                for m in models]
        return Workload(name, tuple(rows), rounds_per_pass=1)
    raise KeyError(f"unknown workload {name!r}; one of {WORKLOAD_NAMES}")


def zipf_sequence(seed: int, size: int) -> List[int]:
    """One cycle of the traffic: :data:`TRAFFIC_CYCLE` catalogue ranks
    (0-based) with Zipf(:data:`ZIPF_S`) frequencies; ``seed`` picks where in
    one fixed cyclic order it starts.

    Every rank appears as often as the law expects (largest remainders round
    the counts) and the order is one fixed shuffle, rotated by the seed.
    Both came from measurement and a simulation of the two cache tiers: over
    1500 requests an independent draw per seed moves the number of searches
    by 16 % from seed to seed and a fresh shuffle of the fixed multiset by
    12 % — which unpopular entry is asked for again before it is evicted
    depends on the order — while a rotation keeps the neighbourhoods and
    moves it by 2–4 %.
    """
    count = TRAFFIC_CYCLE
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]
    exact = [count * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(size), key=lambda r: exact[r] - counts[r],
                          reverse=True)
    for rank in by_remainder[:count - sum(counts)]:
        counts[rank] += 1
    sequence = [rank for rank in range(size) for _ in range(counts[rank])]
    random.Random(size).shuffle(sequence)
    start = seed * 37 % count
    return sequence[start:] + sequence[:start]


def trajectory_digest(search) -> str:
    """What the optimiser did, independent of ``structural_hash``.

    sha256 over the applied rules, the exact final cost and the final
    graph's op histogram: equal across passes unless the search changed.
    """
    histogram: Dict[str, int] = search.final_graph.op_type_counts()
    payload = repr((list(search.applied_rules), search.final_cost_ms.hex(),
                    sorted(histogram.items())))
    return hashlib.sha256(payload.encode()).hexdigest()
