"""One workload in one fresh interpreter: set up, measure, check, report.

Started by ``python -m xbench`` once per measured run and a few more times
with ``--setup-only``, so ``setup_s`` is a median over fresh launches and
``peak_rss_mb`` belongs to one workload.  The system is driven through its
public entry points only: ``OptimisationService.optimise``,
``NumpyExecutor.run``, ``differential_check`` and ``build_model``.

A run repeats one unit of seeded work until ``--seconds`` are used:

* a **request pass** — a fresh service; every row sent cold, in seeded
  order, and after each cold request a few repeats of every row cached so
  far (cache hits, spread over the pass).  On ``serve_mixed`` then a window
  of the Zipf traffic: two clients against the one service that keeps its
  two cache tiers for the whole run.  Every request hands over a newly built
  graph.
* one or two **exec rounds** — for every row marked ``execute``:
  ``run(before)`` and ``run(after)`` in alternating order, then a
  ``differential_check`` of the pair.

Every timed operation is bracketed by a :class:`HostProbe` and each row
reports the median of its samples scaled to the reference host speed (see
:mod:`xbench.stats`).  With ``--trace 1`` every pass and round runs under the
tracer and gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import gc
import itertools
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from xbench.host import HostProbe, pin_cpu, pin_environment, steady
from xbench.stats import geomean, summary

ROOT = Path(__file__).resolve().parent.parent
READY_MARK = "@xbench-ready "

#: A run must end within the contract's 180 s.  A stuck one dumps every
#: thread's stack and exits non-zero instead of hanging the driver.
WATCHDOG_S = 170

#: Rows the exec rounds do not cover get one untimed differential check in
#: one run out of this many: every third of them, in the workload's own
#: order, starting at ``seed % 3``.  All eleven full-size rows of
#: ``search_cold`` take 20 s to check (8 s of that materialises parameters),
#: as long as the run measures; a third takes 7 s, and any three consecutive
#: seeds cover every row.
CHECK_ONE_RUN_IN = 3

#: Calls in one batch of the tracer's calibration, and batches.
CALIBRATION_CALLS = 20_000
CALIBRATION_BATCHES = 5


def settle(everything: bool = False) -> None:
    """Start the next timed operation from the same collector state.

    A search allocates thousands of graphs, so where the cyclic collector's
    full passes fall — and how much of the benchmark's own bookkeeping they
    walk — was the largest run-to-run noise on an allocation-heavy row (its
    minimum over 40 repeats spread 21 %; 4 % with this).  The collector
    stays **on** during the operation: only its starting point is fixed.
    ``everything`` also moves what is alive now out of the collector's
    sight, as a long-lived caller's heap would be.
    """
    if everything:
        gc.unfreeze()
    gc.collect()
    if everything:
        gc.freeze()


def bootstrap() -> None:
    """Make ``repro`` importable from the checkout this file lives in."""
    pin_environment(os.environ)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"xbench: {src}/repro not found; run from a full "
                         "checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))


def set_up():
    """Import the system and pay every first-call cost once.

    One small request, one execution and one differential check run here,
    so lazy imports and first-use tables count as set-up rather than as
    the slow first sample of a timed row.
    """
    from repro.exec import NumpyExecutor, differential_check
    from repro.service import OptimisationService

    from xbench.workloads import Row

    warm = Row("squeezenet", "taso", (("max_iterations", 2),))
    graph = warm.build()
    with OptimisationService(num_workers=1) as service:
        result = service.optimise(graph, warm.optimiser, dict(warm.config))
    differential_check(graph, result.graph, executor=NumpyExecutor(),
                       trials=1, require_values=False)
    return NumpyExecutor()


def share_to_check(rows: List[Any], seed: int) -> List[Any]:
    """This run's share of the rows that get an untimed check."""
    return rows[seed % CHECK_ONE_RUN_IN::CHECK_ONE_RUN_IN]


def service_counters(stats: Dict[str, Any]) -> Dict[str, int]:
    """What of ``service.stats()`` the service's layer metrics are made of."""
    return {"coalesced": stats["dedup"]["coalesced"],
            **{name: stats["cache"][name] for name in (
                "memory_hits", "persistent_hits", "misses",
                "disk_evictions")}}


class Run:
    """State of one measured run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, executor, probe: Optional[HostProbe] = None):
        from xbench.trace import Tracer

        from repro.rules.rulesets import default_ruleset

        self.exact = {rule.name: rule.exactly_equivalent
                      for rule in default_ruleset()}
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.executor = executor
        self.tracer = Tracer() if trace else None
        self.probe = probe or HostProbe()
        self.order = list(workload.rows)
        random.Random(seed).shuffle(self.order)
        self.passes: List[Dict[str, Any]] = []
        self.rounds: List[Dict[str, Any]] = []
        #: Guards the two tallies below: traffic clients share them.
        self.tally = threading.Lock()
        self.attempted = 0
        self.failures: List[str] = []
        self.inputs_s = 0.0
        #: The traffic's service, the cold ``final_cost_ms`` of every
        #: catalogue rank, one cycle of ranks and how many were sent.
        self.service = None
        self.reference: Dict[int, str] = {}
        self.sequence: List[int] = []
        self.sent = 0
        self.checked: List[str] = []
        self.digests: Dict[str, str] = {}
        self.fill_s = 0.0
        self.frontend_s = 0.0
        self.wrapper_s = 0.0
        self.peak_rss_mb = 0.0

    # -- bookkeeping --------------------------------------------------------
    def attempt(self) -> None:
        with self.tally:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self.tally:
            self.failures.append(what)

    @contextlib.contextmanager
    def tracing(self):
        """Patches in, and a clean slate, for one pass or round of a traced
        run."""
        if self.tracer is None:
            yield
            return
        self.tracer.reset()
        with self.tracer:
            yield

    def compares_values(self, result) -> bool:
        """Whether the result must compute the same *values* as its input.

        A rule that fabricates weights (``exactly_equivalent=False``) keeps
        shapes only, under the executor's name-seeded parameters.
        """
        return all(self.exact.get(name, True)
                   for name in result.search.applied_rules)

    def build(self, row):
        started = time.perf_counter()
        graph = row.build()
        self.inputs_s += time.perf_counter() - started
        return graph

    def harness_span(self, name: str, request: str = ""):
        if self.tracer is not None:
            return self.tracer.span("harness." + name, request)
        return contextlib.nullcontext()

    def request(self, service, row, graph) -> Tuple[float, Any]:
        """One closed-loop request: ``(wall seconds, result or None)``."""
        self.attempt()
        started = time.perf_counter()
        try:
            with self.harness_span("request", row.key):
                result = service.optimise(graph, row.optimiser,
                                          dict(row.config),
                                          model_name=row.model)
        except Exception as exc:  # the run goes on; the failure is counted
            self.fail(f"{row.key}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - started, None
        return time.perf_counter() - started, result

    # -- request passes -----------------------------------------------------
    def request_pass(self) -> Dict[str, Any]:
        from repro.service import OptimisationService

        from xbench.workloads import HITS_PER_PASS

        record: Dict[str, Any] = {"cold": {}, "warm": {}, "results": {},
                                  "traffic": None}
        # After each cold request, this many hits of every row cached so far.
        cached = len(self.order) * (len(self.order) + 1) // 2
        repeats = max(1, round(HITS_PER_PASS / cached))
        settle(everything=True)
        with self.tracing():
            with OptimisationService(num_workers=1) as service:
                for index, row in enumerate(self.order):
                    graph = self.build(row)
                    settle()
                    before = self.probe()
                    wall, result = self.request(service, row, graph)
                    after = self.probe()
                    record["cold"][row.key] = (wall, (before + after) / 2)
                    record["results"][row.key] = result
                    if result is not None and result.cache_hit:
                        self.fail(f"{row.key}: cold request hit the cache")
                    hits = []
                    for again in self.order[:index + 1] * repeats:
                        wall, result = self.request(
                            service, again, self.build(again))
                        hits.append((again.key, wall))
                        self.check_hit(again.key, result,
                                       record["results"][again.key])
                    host = (after + self.probe()) / 2
                    for key, wall in hits:
                        record["warm"].setdefault(key, []).append(
                            (wall, host))
                record["stats"] = service.stats()
            if self.wl.traffic is not None:
                record["traffic"] = self.traffic_window()
            record["wall"] = sum(wall for wall, _ in pass_samples(record))
            if self.tracer is not None:
                record["snapshot"] = self.tracer.snapshot()
                record["rl"] = self.rl_cache_shares()
        return record

    def check_hit(self, key: str, hit, cold) -> None:
        if hit is None or cold is None:
            return
        if not hit.cache_hit:
            self.fail(f"{key}: repeat request was not a cache hit")
        elif hit.search.final_cost_ms != cold.search.final_cost_ms:
            self.fail(f"{key}: cache hit returned another final_cost_ms")

    def rl_cache_shares(self) -> Dict[str, float]:
        """Ask the RL objects the traced pass saw for their own counters."""
        obs_hits = obs_total = delta = forwards = 0.0
        for env in self.tracer.instances("env"):
            stats = env.encode_cache_stats()
            obs_hits += stats.get("observation_hits", 0.0)
            obs_total += (stats.get("observation_hits", 0.0)
                          + stats.get("observation_misses", 0.0))
        for embedder in self.tracer.instances("embedder"):
            stats = embedder.stats()
            delta += stats["embed_delta_forwards"]
            forwards += (stats["embed_delta_forwards"]
                         + stats["embed_full_forwards"]
                         + stats["embed_fallback_fulls"])
        return {"obs_cache_hit_share": obs_hits / obs_total if obs_total
                else 0.0,
                "embed_delta_share": delta / forwards if forwards else 0.0}

    # -- serve_mixed traffic ------------------------------------------------
    @contextlib.contextmanager
    def traffic_service(self):
        """The one service that answers the traffic, for the whole run.

        Every catalogue entry is first requested cold, least popular first:
        the reference every later answer is compared with, and a start from
        the state a long-running service is in — the most popular entries
        in the memory tier, the least popular already evicted from disk.
        """
        from repro.service import EvictionPolicy, OptimisationService

        from xbench.workloads import CLIENTS, zipf_sequence

        traffic = self.wl.traffic
        if traffic is None:
            yield
            return
        started = time.perf_counter()
        with OptimisationService(
                num_workers=CLIENTS, cache_dir=str(self.workdir / "cache"),
                cache_capacity=traffic.memory_entries,
                cache_policy=EvictionPolicy(
                    max_entries=traffic.disk_entries)) as service:
            for rank in reversed(range(len(traffic.catalogue))):
                row = traffic.catalogue[rank]
                _, result = self.request(service, row, self.build(row))
                if result is not None:
                    self.reference[rank] = result.search.final_cost_ms.hex()
            self.sequence = zipf_sequence(self.seed, len(traffic.catalogue))
            self.service = service
            # One window unmeasured: the tiers leave the filled state for
            # the one the traffic keeps them in (simulated, the number of
            # searches then spreads by 3 % from seed to seed, not 5 %).
            self.traffic_window()
            self.fill_s = time.perf_counter() - started
            yield

    def traffic_window(self) -> Dict[str, Any]:
        """The next ``window`` requests of the cycle, from two clients."""
        from xbench.workloads import CLIENTS

        traffic = self.wl.traffic
        ranks = [self.sequence[(self.sent + i) % len(self.sequence)]
                 for i in range(traffic.window)]
        self.sent += len(ranks)
        graphs = [self.build(traffic.catalogue[rank]) for rank in ranks]
        records: List[Optional[Tuple[float, Any]]] = [None] * len(graphs)
        ticket = itertools.count()
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    i = next(ticket)
                if i >= len(graphs):
                    return
                # Hand the graph over and keep the answer's facts only: a
                # window then never holds more than its own 250 graphs.
                graph, graphs[i] = graphs[i], None
                latency, result = self.request(
                    self.service, traffic.catalogue[ranks[i]], graph)
                records[i] = (latency, result and (
                    result.search.final_cost_ms.hex(), result.cache_hit,
                    result.coalesced, result.run_time_s, result.queue_time_s))

        settle(everything=True)
        counters = service_counters(self.service.stats())
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        before = self.probe()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        host = (before + self.probe()) / 2
        counters = {name: value - counters[name] for name, value
                    in service_counters(self.service.stats()).items()}

        hits: List[float] = []
        misses: List[float] = []
        run_s = queue_s = 0.0
        for rank, (latency, answer) in zip(ranks, records):
            if answer is None:
                continue
            cost, cache_hit, coalesced, run_time_s, queue_time_s = answer
            if cost != self.reference.get(rank):
                self.fail(f"traffic rank {rank}: final_cost_ms differs "
                          "from the cold result")
            if cache_hit:
                hits.append(latency)
            elif not coalesced:
                misses.append(latency)
                run_s += run_time_s
                queue_s += queue_time_s
        return {"wall": wall, "host": host, "requests": len(ranks),
                "latency_s": sum(record[0] for record in records),
                "hit_s": hits, "miss_s": misses, "run_s": run_s,
                "queue_s": queue_s, "counters": counters}

    def frontend_roundtrip(self) -> float:
        """``to_onnx`` → ``import_model`` of every catalogue model, traced;
        the import must give back the same structure."""
        # Through the module: the tracer patches its attributes, not names
        # this function bound earlier.
        from repro import frontend

        self.tracer.reset()
        with self.tracer:
            for row in self.wl.rows:
                graph = row.build()
                path = self.workdir / f"{row.model}.onnx"
                frontend.to_onnx(graph, path)
                imported, _ = frontend.import_model(path)
                if imported.structural_hash() != graph.structural_hash():
                    self.fail(f"{row.model}: ONNX round trip changed the "
                              "graph")
            table = self.tracer.table()
        return table["frontend.roundtrip"]["self_s"]

    # -- exec rounds --------------------------------------------------------
    def exec_pairs(self) -> Dict[str, Tuple[Any, Any, bool]]:
        """``key -> (before, after, compare values)`` from the first pass.

        Parameters are materialised here, untimed: both graphs run once.
        """
        pairs = {}
        for row in self.wl.exec_rows:
            result = self.passes[0]["results"].get(row.key)
            if result is None:
                continue
            before, after = self.build(row), result.graph
            self.executor.run(before)
            self.executor.run(after)
            pairs[row.key] = (before, after, self.compares_values(result))
        return pairs

    def timed_run(self, key: str, graph) -> float:
        self.attempt()
        started = time.perf_counter()
        try:
            with self.harness_span("exec", key):
                self.executor.run(graph)
        except Exception as exc:
            self.fail(f"{key}: run raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - started

    def verify(self, key: str, before, after, values: bool,
               executor=None) -> float:
        from repro.exec import differential_check

        self.attempt()
        started = time.perf_counter()
        try:
            with self.harness_span("verify", key):
                report = differential_check(
                    before, after, executor=executor or self.executor,
                    trials=1, seed=1234 + self.seed, require_values=values)
        except Exception as exc:
            self.fail(f"{key}: differential_check raised "
                      f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - started
        wall = time.perf_counter() - started
        if not report.equivalent:
            self.fail(f"{key}: returned graph is not equivalent to its "
                      f"input: {report.problems[:2]}")
        if report.fallback_ops:
            self.fail(f"{key}: executor fell back on {report.fallback_ops}")
        return wall

    def exec_round(self, pairs, turn: int) -> Dict[str, Any]:
        record: Dict[str, Any] = {"turn": turn, "before": {}, "after": {},
                                  "verify": {}}
        settle(everything=True)
        with self.tracing():
            for key, (before, after, values) in pairs.items():
                settle()
                # Alternate which graph runs first: the first is the slower
                # one (1.3x on inception_v3), whichever it is.
                graphs = {"before": before, "after": after}
                parts = ["before", "after"]
                if turn % 2:
                    parts.reverse()
                parts.append("verify")
                probed = self.probe()
                for part in parts:
                    if part == "verify":
                        wall = self.verify(key, before, after, values)
                    else:
                        wall = self.timed_run(key, graphs[part])
                    last, probed = probed, self.probe()
                    record[part][key] = (wall, (last + probed) / 2)
            record["wall"] = sum(
                wall for part in ("before", "after", "verify")
                for wall, _ in record[part].values())
            if self.tracer is not None:
                record["snapshot"] = self.tracer.snapshot()
        return record

    def untimed_checks(self, pairs) -> None:
        """One differential check of this run's share of the rows the exec
        rounds did not cover (:data:`CHECK_ONE_RUN_IN`)."""
        from repro.exec import NumpyExecutor

        rows = [row for row in self.wl.rows if row.key not in pairs]
        executor = NumpyExecutor()
        for row in share_to_check(rows, self.seed):
            result = self.passes[0]["results"].get(row.key)
            if result is None:
                continue
            self.verify(row.key, row.build(), result.graph,
                        self.compares_values(result), executor=executor)
            self.checked.append(row.key)

    def wrapper_cost(self) -> float:
        """What one span-recording wrapper adds to a call, in reference
        seconds: probes around each batch, the median over batches."""
        from xbench.trace import wrapper_batch_s

        costs = []
        for _ in range(CALIBRATION_BATCHES):
            probed = self.probe()
            added = wrapper_batch_s(CALIBRATION_CALLS)
            host = (probed + self.probe()) / 2
            costs.append(steady((added / CALIBRATION_CALLS, host)))
        return statistics.median(costs)

    # -- the run ------------------------------------------------------------
    def measure(self) -> None:
        """Units of one request pass and its exec rounds until ``--seconds``
        are used."""
        pairs: Dict[str, Tuple[Any, Any, bool]] = {}
        used = 0.0
        with self.traffic_service():
            for unit in itertools.count(1):
                started = time.perf_counter()
                self.passes.append(self.request_pass())
                if unit == 1:
                    prepare = time.perf_counter()
                    pairs = self.exec_pairs()
                    started += time.perf_counter() - prepare  # not measuring
                for turn in range(self.wl.rounds_per_pass * (unit - 1),
                                  self.wl.rounds_per_pass * unit):
                    self.rounds.append(self.exec_round(pairs, turn))
                used += time.perf_counter() - started
                # Stop where the units done come closest to ``--seconds``.
                if used + used / unit / 2 > self.seconds:
                    break
        self.check_determinism()
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            self.wrapper_s = self.wrapper_cost()
            if self.wl.traffic is not None:
                self.frontend_s = self.frontend_roundtrip()
        self.untimed_checks(pairs)

    def check_determinism(self) -> None:
        """Every pass of a row took the same trajectory to the same graph."""
        from xbench.workloads import trajectory_digest

        for record in self.passes:
            for key, result in record["results"].items():
                if result is None:
                    continue
                digest = trajectory_digest(result.search)
                if self.digests.setdefault(key, digest) != digest:
                    self.fail(f"{key}: passes disagree on the trajectory")


# -- reporting ------------------------------------------------------------
def row_samples(units: List[Dict[str, Any]], part: str
                ) -> Dict[str, List[float]]:
    """``row -> seconds`` of every repeat of one timed part (cold, warm,
    after, …), each :func:`steady`."""
    samples: Dict[str, List[float]] = {}
    for unit in units:
        for key, value in unit[part].items():
            for sample in value if isinstance(value, list) else [value]:
                samples.setdefault(key, []).append(steady(sample))
    return samples


def pass_samples(record: Dict[str, Any]) -> List[Tuple[float, float]]:
    """Every request one client sent in a pass: cold, then hits."""
    return list(itertools.chain(record["cold"].values(),
                                *record["warm"].values()))


def either_order(rounds: List[Dict[str, Any]], value) -> List[float]:
    """Per executed row, ``value(round, row)`` balanced over which graph of
    the pair ran first: the geometric mean of the median over even turns
    and the median over odd turns."""
    return [geomean(
        statistics.median(value(r, key) for r in rounds
                          if r["turn"] % 2 == order)
        for order in {r["turn"] % 2 for r in rounds})
        for key in rounds[0]["after"]]


def end_to_end(run: Run) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The user-facing metrics of an untraced run, plus row detail."""
    passes, rounds = run.passes, run.rounds
    cold = row_samples(passes, "cold")
    warm = row_samples(passes, "warm")
    after = row_samples(rounds, "after")
    verify = row_samples(rounds, "verify")
    results = {key: result for key, result in passes[0]["results"].items()
               if result is not None}
    ratios = {key: [r["before"][key][0] / r["after"][key][0] for r in rounds]
              for key in after}
    attempted = max(run.attempted, 1)

    def medians(samples: Dict[str, List[float]]) -> List[float]:
        return [statistics.median(row) for row in samples.values()]

    if run.wl.traffic is None:
        # One client: the pass's cold requests and the hits between them.
        requests = sum(len(pass_samples(p)) for p in passes)
        busy_s = sum(steady(sample) for p in passes
                     for sample in pass_samples(p))
        searches = sum(len(p["cold"]) for p in passes)
    else:
        # Two clients: the windows of the traffic.
        windows = [p["traffic"] for p in passes]
        requests = sum(w["requests"] for w in windows)
        busy_s = sum(steady((w["wall"], w["host"])) for w in windows)
        searches = sum(len(w["miss_s"]) for w in windows)

    metrics = {
        "optimise_s": geomean(medians(cold)),
        "optimise_total_s": sum(medians(cold)),
        "sim_speedup": geomean(r.search.speedup for r in results.values()),
        "hit_ms": geomean(medians(warm)) * 1e3,
        "requests_per_s": requests / busy_s,
        "search_share": searches / requests,
        "exec_ms": geomean(either_order(
            rounds, lambda r, key: steady(r["after"][key]))) * 1e3,
        # Both runs of a pair sit in the same second: no scaling needed.
        "exec_speedup": geomean(either_order(
            rounds, lambda r, key: r["before"][key][0] / r["after"][key][0])),
        "verify_s": sum(medians(verify)),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_share": (attempted - len(run.failures)) / attempted,
    }
    detail = {
        "rows": {key: {
            "optimise_s": summary(samples),
            "hit_ms": summary([w * 1e3 for w in warm[key]]),
            "sim_speedup": results[key].search.speedup
            if key in results else None,
            "digest": run.digests.get(key),
        } for key, samples in cold.items()},
        "exec_rows": {key: {
            "exec_ms": summary([w * 1e3 for w in samples]),
            "exec_speedup": summary(ratios[key]),
            "verify_s": summary(verify[key]),
        } for key, samples in after.items()},
        "passes": len(passes), "requests": requests, "searches": searches,
        "inputs_s": run.inputs_s, "fill_s": run.fill_s,
        "host_probe_ms": summary([s * 1e3 for s in run.probe.samples]),
        "checked_rows": run.checked,
    }
    return metrics, detail


def print_rows(detail: Dict[str, Any]) -> None:
    """Every row on its own line: median, then [q1..q3], min and n."""
    def cell(s: Dict[str, float], fmt: str) -> str:
        return (f"{s['median']:{fmt}}  ([{s['q1']:{fmt}}..{s['q3']:{fmt}}] "
                f"min {s['min']:{fmt}} n={s['n']})")

    for key, row in detail["rows"].items():
        print(f"  {key:32s} optimise_s {cell(row['optimise_s'], '.4f')}  "
              f"hit_ms {row['hit_ms']['median']:.3f}  "
              f"sim_speedup {row['sim_speedup']}")
    for key, row in detail["exec_rows"].items():
        print(f"  {key:32s} exec_ms {cell(row['exec_ms'], '.2f')}  "
              f"exec_speedup {row['exec_speedup']['median']:.4f}  "
              f"verify_s {row['verify_s']['median']:.4f}")
    print(f"  passes={detail['passes']} requests={detail['requests']} "
          f"searches={detail['searches']} "
          f"inputs_s={detail['inputs_s']:.3f} fill_s={detail['fill_s']:.3f} "
          f"host_probe_ms={detail['host_probe_ms']['min']:.3f}"
          f"..{detail['host_probe_ms']['median']:.3f} "
          f"checked_rows={detail['checked_rows']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m xbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    pin_cpu()
    probe = HostProbe()
    probe()  # the first one in a new interpreter is slow
    before = probe()
    bootstrap()
    executor = set_up()
    # Wall-clock, because the launcher's interval starts in another process.
    ready = time.time()
    print(READY_MARK + json.dumps([ready, (before + probe()) / 2]),
          flush=True)
    if args.setup_only:
        return 0

    from xbench.workloads import workload

    workdir = Path(args.workdir)
    run = Run(workload(args.workload, smoke=args.smoke), args.seed,
              args.seconds, bool(args.trace), workdir, executor, probe)
    run.measure()
    if args.trace:
        from xbench.layers import per_layer, write_trace

        metrics, detail = per_layer(run)
        write_trace(run, workdir)
    else:
        metrics, detail = end_to_end(run)
        print_rows(detail)
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")
    (workdir / "detail.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
