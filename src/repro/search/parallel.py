"""Persistent worker pool for intra-search parallelism.

Every optimiser in this repository evaluates its per-iteration candidate set
— match, materialise, cost — on one core.  This module shards that work
across a pool of long-lived worker processes while preserving the serial
search trajectory *bit-for-bit*:

* **Base graph once.**  A search opens a :class:`PoolSession`, which ships
  the base graph to every worker a single time (binary wire format, see
  :mod:`repro.ir.wire`).  Afterwards only compact deltas travel: when the
  search moves to a new current graph, workers reconstruct it from the
  parent replica they already hold via :func:`repro.ir.wire.apply_delta`.
  Replicas carry the exact node ids and id counter of the searcher's graphs,
  so worker-side rule application allocates identical ids and computes
  identical float64 costs.
* **Deterministic merge.**  Work items are ``(candidate index, rule name,
  match)`` triples; results come back keyed by candidate index and the
  searcher merges them in index order, replaying exactly the decisions the
  serial loop would make (dedup against ``seen``, best updates, queue
  admission).  ``parallel=True`` therefore reproduces the serial trajectory
  bit-for-bit — asserted in ``tests/search/test_parallel_search.py``.
* **Graceful degradation.**  A worker that dies mid-search (killed, OOM,
  crashed) is detected on its next reply; its shard is re-evaluated
  in-process with the *same* code path workers run
  (:func:`evaluate_candidates_inline`), so results are unaffected.  A pool
  with no live workers degrades to fully serial evaluation.

The pool is deliberately persistent: process spin-up and module imports are
paid once per process lifetime (see :func:`shared_pool`), not per search —
the profiling that motivated this design showed pool spin-up and whole-graph
pickling were exactly where the old 0.91x "parallel" scaling went.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..ir.graph import Graph
from ..ir.wire import apply_delta, decode_graph, encode_delta, encode_graph
from ..rules.base import Candidate, Match, RuleSet

if False:  # typing only — the runtime import is deferred (cycle via
    from ..service.profiling import StageProfiler  # repro.service.__init__)

__all__ = ["EvalResult", "WorkerPool", "PoolSession", "open_session",
           "evaluate_candidates_inline", "shared_pool", "close_shared_pool"]


class EvalResult(NamedTuple):
    """Outcome of one candidate evaluation (order-preserving merge unit)."""

    ok: bool
    cost: float
    structural_hash: str
    num_nodes: int


# ---------------------------------------------------------------------------
# Evaluation kernel — the one code path used by workers AND the in-process
# fallback, so a dead worker can never change results.
# ---------------------------------------------------------------------------

def evaluate_candidates_inline(graph: Graph, ruleset: RuleSet,
                               items: Sequence[Tuple[int, str, Match]],
                               cost_model=None, latency_source=None,
                               parent_cost: Optional[float] = None,
                               ) -> List[Tuple[int, EvalResult]]:
    """Materialise + hash + cost each ``(index, rule_name, match)`` item.

    ``cost_model`` scores via :meth:`CostModel.estimate_delta` when
    ``parent_cost`` is given (the incremental search path) and a full
    :meth:`CostModel.estimate` otherwise — mirroring the serial optimiser's
    two modes exactly.  ``latency_source`` (mutually exclusive) scores with
    ``latency_ms``.  With neither, candidates are hashed but not scored
    (the saturation explorer's mode).
    """
    out: List[Tuple[int, EvalResult]] = []
    for index, rule_name, match in items:
        rule = ruleset.rule(rule_name)
        candidate = Candidate(rule_name=rule_name, match=match, rule=rule,
                              parent=graph)
        cand_graph = candidate.materialise()
        if cand_graph is None:
            out.append((index, EvalResult(False, 0.0, "", 0)))
            continue
        cand_hash = cand_graph.structural_hash()
        if cost_model is not None:
            if parent_cost is not None:
                cost = cost_model.estimate_delta(graph, cand_graph,
                                                 parent_cost=parent_cost)
            else:
                cost = cost_model.estimate(cand_graph)
        elif latency_source is not None:
            cost = latency_source.latency_ms(cand_graph)
        else:
            cost = 0.0
        out.append((index, EvalResult(True, cost, cand_hash,
                                      cand_graph.num_nodes)))
    return out


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

class _WorkerSession:
    """Per-search state held inside one worker process."""

    __slots__ = ("graphs", "ruleset", "cost_model", "latency_source")

    def __init__(self, base: Graph, ruleset: RuleSet, cost_model,
                 latency_source) -> None:
        self.graphs: Dict[int, Graph] = {0: base}
        self.ruleset = ruleset
        self.cost_model = cost_model
        self.latency_source = latency_source
        self._warm(base)

    def _warm(self, graph: Graph) -> None:
        # Populate the replica's per-node cost table so candidate deltas
        # recompute only the nodes their rewrite touched — the same cache
        # state the searcher-side graph is in.
        if self.cost_model is not None:
            self.cost_model.estimate_cached(graph)

    def install(self, key: int, parent_key: int, payload: bytes) -> None:
        parent = self.graphs[parent_key]
        child = apply_delta(parent, payload)
        # Seed the child's cost table from the parent replica (they share
        # unchanged node objects but not cache tables).
        if self.cost_model is not None:
            self.cost_model.estimate_delta(parent, child)
        self.graphs[key] = child


def _worker_main(conn) -> None:
    """Request/reply loop of one pool worker (runs in a child process)."""
    sessions: Dict[int, _WorkerSession] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        try:
            if kind == "eval":
                _, sid, key, parent_cost, items = message
                session = sessions[sid]
                start = time.perf_counter()
                results = evaluate_candidates_inline(
                    session.graphs[key], session.ruleset, items,
                    cost_model=session.cost_model,
                    latency_source=session.latency_source,
                    parent_cost=parent_cost)
                conn.send(("ok", results, time.perf_counter() - start))
            elif kind == "graph":
                _, sid, key, parent_key, payload = message
                sessions[sid].install(key, parent_key, payload)
                conn.send(("ok", None, 0.0))
            elif kind == "matches":
                _, sid, key, rule_names = message
                session = sessions[sid]
                graph = session.graphs[key]
                start = time.perf_counter()
                found = [(name, session.ruleset.rule(name).find_matches(graph))
                         for name in rule_names]
                conn.send(("ok", found, time.perf_counter() - start))
            elif kind == "cost":
                _, sid, keys = message
                session = sessions[sid]
                start = time.perf_counter()
                costs = [session.cost_model.estimate_cached(
                    session.graphs[key]) for key in keys]
                conn.send(("ok", costs, time.perf_counter() - start))
            elif kind == "open":
                _, sid, base_payload, ruleset, cost_model, latency = message
                sessions[sid] = _WorkerSession(
                    decode_graph(base_payload), ruleset, cost_model, latency)
                conn.send(("ok", None, 0.0))
            elif kind == "close":
                sessions.pop(message[1], None)
                conn.send(("ok", None, 0.0))
            elif kind == "ping":
                conn.send(("ok", os.getpid(), 0.0))
            elif kind == "stop":
                conn.send(("ok", None, 0.0))
                return
            else:
                conn.send(("err", f"unknown message kind {kind!r}", 0.0))
        except Exception as exc:  # must answer every request exactly once
            try:
                conn.send(("err", repr(exc), 0.0))
            except (OSError, ValueError):
                return


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "conn", "alive")

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child_conn,),
                                   daemon=True, name="repro-pool-worker")
        self.process.start()
        child_conn.close()
        self.alive = True

    def request(self, message) -> Tuple[object, float]:
        """One round trip; raises on transport failure (caller marks dead)."""
        self.conn.send(message)
        reply = self.conn.recv()
        if reply[0] == "err":
            raise RuntimeError(f"pool worker failed: {reply[1]}")
        return reply[1], reply[2]

    def send(self, message) -> None:
        self.conn.send(message)

    def recv(self) -> Tuple[object, float]:
        reply = self.conn.recv()
        if reply[0] == "err":
            raise RuntimeError(f"pool worker failed: {reply[1]}")
        return reply[1], reply[2]

    def stop(self) -> None:
        if self.alive:
            try:
                self.conn.send(("stop",))
                self.conn.recv()
            except (OSError, EOFError, BrokenPipeError):
                pass
        self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=2)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2)


# ---------------------------------------------------------------------------
# Pool + session
# ---------------------------------------------------------------------------

class WorkerPool:
    """A persistent, prewarmed pool of search-evaluation processes.

    Parameters
    ----------
    num_workers:
        Worker process count; defaults to ``os.cpu_count()``.
    context:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` where
        available (cheap start, inherits imported modules — rules defined in
        the calling process remain picklable by reference), else ``"spawn"``.
    prewarm:
        Round-trip a ping to every worker before returning, so the first
        search never pays process start-up inside its timed region.
    profiler:
        Optional shared :class:`~repro.service.profiling.StageProfiler`;
        a fresh one is created when omitted (see :attr:`profiler`).
    """

    def __init__(self, num_workers: Optional[int] = None,
                 context: Optional[str] = None, prewarm: bool = True,
                 profiler: Optional["StageProfiler"] = None):
        from ..service.profiling import StageProfiler
        start = time.perf_counter()
        self.num_workers = int(num_workers or os.cpu_count() or 1)
        if context is None:
            context = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                       else "spawn")
        self._ctx = multiprocessing.get_context(context)
        self.profiler = profiler if profiler is not None else StageProfiler()
        self._workers: List[_Worker] = []
        self._session_ids = itertools.count(1)
        self._closed = False
        for _ in range(self.num_workers):
            try:
                self._workers.append(_Worker(self._ctx))
            except OSError:  # pragma: no cover - fork failure
                break
        if prewarm:
            self._prewarm()
        self.spinup_s = time.perf_counter() - start
        self.profiler.add("spinup", self.spinup_s)

    def _prewarm(self) -> None:
        for worker in self._workers:
            try:
                worker.request(("ping",))
            except (OSError, EOFError, BrokenPipeError, RuntimeError):
                worker.alive = False

    # ------------------------------------------------------------------
    def alive_workers(self) -> List[_Worker]:
        """The workers whose transport has not failed so far."""
        return [w for w in self._workers if w.alive]

    @property
    def healthy(self) -> bool:
        """At least one worker is accepting requests."""
        return not self._closed and any(w.alive for w in self._workers)

    def start_search(self, base_graph: Graph, ruleset: RuleSet,
                     cost_model=None, latency_source=None) -> "PoolSession":
        """Open a session: ship ``base_graph`` (once) plus the evaluation
        config to every live worker.  Always returns a session; check
        :attr:`PoolSession.healthy` — an unhealthy session falls back to
        in-process evaluation transparently."""
        return PoolSession(self, next(self._session_ids), base_graph,
                           ruleset, cost_model, latency_source)

    def close(self) -> None:
        """Stop every worker process (idempotent)."""
        self._closed = True
        for worker in self._workers:
            worker.stop()
        self._workers = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"WorkerPool(workers={len(self.alive_workers())}/"
                f"{self.num_workers}, closed={self._closed})")


class PoolSession:
    """One search's window onto the pool: graph replicas + sharded work.

    The session tracks which graphs each worker holds (every shipped graph is
    retained on both sides until the session closes — memory stays modest
    because replicas share unchanged node objects with their parents).  All
    public methods degrade gracefully: transport failures mark the worker
    dead and the affected shard is recomputed in-process with identical
    results.
    """

    def __init__(self, pool: WorkerPool, sid: int, base_graph: Graph,
                 ruleset: RuleSet, cost_model, latency_source):
        self.pool = pool
        self.sid = sid
        self.ruleset = ruleset
        self.cost_model = cost_model
        self.latency_source = latency_source
        self.profiler = pool.profiler
        #: graph object id -> wire key; the companion dict keeps the graphs
        #: alive so object ids can never be recycled mid-session.
        self._keys: Dict[int, int] = {id(base_graph): 0}
        self._graphs: Dict[int, Graph] = {0: base_graph}
        self._next_key = 1
        self.fallback_batches = 0
        self.bytes_shipped = 0
        self._members: List[_Worker] = []
        with self.profiler.stage("serialise"):
            payload = encode_graph(base_graph)
        self.bytes_shipped += len(payload)
        with self.profiler.stage("dispatch"):
            for worker in pool.alive_workers():
                try:
                    worker.request(("open", sid, payload, ruleset,
                                    cost_model, latency_source))
                    self._members.append(worker)
                except (OSError, EOFError, BrokenPipeError, RuntimeError,
                        TypeError, AttributeError):
                    # Transport death or unpicklable config: this worker
                    # cannot serve the session.
                    pass

    @property
    def healthy(self) -> bool:
        """At least one worker that joined this session is still alive;
        when none is, every batch is evaluated inline."""
        return any(w.alive for w in self._members)

    def _live(self) -> List[_Worker]:
        return [w for w in self._members if w.alive]

    # ------------------------------------------------------------------
    def ensure_graph(self, graph: Graph, parent: Optional[Graph]) -> bool:
        """Make sure every live worker holds a replica of ``graph``.

        ``parent`` must be a graph the session has already shipped (the
        search's previous current graph / the candidate's origin); ``graph``
        travels as a delta against it.  Returns False when the graph cannot
        be shipped (no live workers, unknown parent) — callers then stay on
        the in-process path.
        """
        if id(graph) in self._keys:
            return True
        if parent is None or id(parent) not in self._keys:
            return False
        workers = self._live()
        if not workers:
            return False
        parent_key = self._keys[id(parent)]
        key = self._next_key
        with self.profiler.stage("serialise"):
            payload = encode_delta(parent, graph)
        self.bytes_shipped += len(payload)
        shipped = False
        with self.profiler.stage("dispatch"):
            for worker in workers:
                try:
                    worker.request(("graph", self.sid, key, parent_key,
                                    payload))
                    shipped = True
                except (OSError, EOFError, BrokenPipeError, RuntimeError):
                    worker.alive = False
        if not shipped:
            return False
        self._next_key = key + 1
        self._keys[id(graph)] = key
        self._graphs[key] = graph
        return True

    def ensure_lineage(self, graph: Graph) -> bool:
        """Ship ``graph`` by walking its ``delta_parent`` chain back to an
        already-shipped ancestor (deltas shipped oldest-first).

        Used by callers that did not track parents explicitly (e.g. the RL
        environment, whose current graph descends from the episode's initial
        graph by per-step copies).  Returns False when the chain is broken
        (a parent was garbage-collected) before reaching shipped ground.
        """
        chain: List[Graph] = []
        node: Optional[Graph] = graph
        while node is not None and id(node) not in self._keys:
            chain.append(node)
            node = node.delta_parent()
        if node is None:
            return not chain
        for member in reversed(chain):
            if not self.ensure_graph(member, member.delta_parent()):
                return False
        return True

    # ------------------------------------------------------------------
    def evaluate(self, graph: Graph, candidates: Sequence[Candidate],
                 parent_cost: Optional[float] = None) -> List[EvalResult]:
        """Shard ``candidates`` of ``graph`` across workers; merge by index.

        The returned list is index-aligned with ``candidates`` and identical
        (bit-for-bit, float64) to what serial evaluation would produce.
        ``graph`` must have been shipped via :meth:`ensure_graph` (or be the
        base graph); otherwise everything is evaluated in-process.
        """
        items = [(i, c.rule_name, c.match) for i, c in enumerate(candidates)]
        merged: List[Optional[EvalResult]] = [None] * len(items)
        key = self._keys.get(id(graph))
        workers = self._live() if key is not None else []
        shards: List[Tuple[_Worker, List[Tuple[int, str, Match]]]] = []
        if workers:
            per_worker: List[List[Tuple[int, str, Match]]] = [
                [] for _ in workers]
            for i, item in enumerate(items):
                per_worker[i % len(workers)].append(item)
            shards = [(w, shard) for w, shard in zip(workers, per_worker)
                      if shard]
        pending: List[Tuple[_Worker, List[Tuple[int, str, Match]]]] = []
        with self.profiler.stage("dispatch"):
            for worker, shard in shards:
                try:
                    worker.send(("eval", self.sid, key, parent_cost, shard))
                    pending.append((worker, shard))
                except (OSError, BrokenPipeError):
                    worker.alive = False
                    self.fallback_batches += 1
                    self._fallback(graph, shard, parent_cost, merged)
            for worker, shard in pending:
                try:
                    results, compute_s = worker.recv()
                except (OSError, EOFError, BrokenPipeError, RuntimeError):
                    worker.alive = False
                    self.fallback_batches += 1
                    self._fallback(graph, shard, parent_cost, merged)
                    continue
                self.profiler.add("compute", compute_s)
                for index, result in results:
                    merged[index] = result
        leftover = [item for item in items if merged[item[0]] is None]
        if leftover:
            if shards:
                self.fallback_batches += 1
            self._fallback(graph, leftover, parent_cost, merged)
        return [result for result in merged]  # type: ignore[misc]

    def _fallback(self, graph: Graph, shard, parent_cost, merged) -> None:
        with self.profiler.stage("compute"):
            for index, result in evaluate_candidates_inline(
                    graph, self.ruleset, shard, cost_model=self.cost_model,
                    latency_source=self.latency_source,
                    parent_cost=parent_cost):
                merged[index] = result

    # ------------------------------------------------------------------
    def find_matches(self, graph: Graph,
                     rule_names: Sequence[str]) -> Dict[str, List[Match]]:
        """Shard per-rule match finding on ``graph`` across workers.

        Replicas enumerate nodes in the same (ascending-id) order as the
        original, so the returned matches are exactly what serial
        ``rule.find_matches`` yields.  Rules whose worker died are matched
        in-process.
        """
        out: Dict[str, List[Match]] = {}
        key = self._keys.get(id(graph))
        workers = self._live() if key is not None else []
        pending: List[Tuple[_Worker, List[str]]] = []
        if workers:
            per_worker: List[List[str]] = [[] for _ in workers]
            for i, name in enumerate(rule_names):
                per_worker[i % len(workers)].append(name)
            with self.profiler.stage("dispatch"):
                for worker, names in zip(workers, per_worker):
                    if not names:
                        continue
                    try:
                        worker.send(("matches", self.sid, key, names))
                        pending.append((worker, names))
                    except (OSError, BrokenPipeError):
                        worker.alive = False
                for worker, names in pending:
                    try:
                        found, compute_s = worker.recv()
                    except (OSError, EOFError, BrokenPipeError, RuntimeError):
                        worker.alive = False
                        continue
                    self.profiler.add("compute", compute_s)
                    for name, matches in found:
                        out[name] = matches
        missing = [name for name in rule_names if name not in out]
        if missing:
            if workers:
                self.fallback_batches += 1
            with self.profiler.stage("compute"):
                for name in missing:
                    out[name] = self.ruleset.rule(name).find_matches(graph)
        return out

    # ------------------------------------------------------------------
    def cost_graphs(self, graphs: Sequence[Graph],
                    parents: Sequence[Optional[Graph]]) -> List[float]:
        """Batched cost-model estimates for already-materialised graphs.

        Each graph is shipped (as a delta against its parent) if needed and
        costed worker-side with ``estimate_cached`` — bit-for-bit equal to a
        local estimate.  Used by the RL environment's batched candidate
        costing.  Graphs that cannot be shipped are costed in-process.
        """
        costs: List[Optional[float]] = [None] * len(graphs)
        assignments: Dict[_Worker, List[Tuple[int, int]]] = {}
        workers = self._live() if self.cost_model is not None else []
        if workers:
            for i, (graph, parent) in enumerate(zip(graphs, parents)):
                if not self.ensure_graph(graph, parent):
                    continue
                worker = workers[i % len(workers)]
                if not worker.alive:
                    continue
                assignments.setdefault(worker, []).append(
                    (i, self._keys[id(graph)]))
            pending = []
            with self.profiler.stage("dispatch"):
                for worker, pairs in assignments.items():
                    try:
                        worker.send(("cost", self.sid,
                                     [key for _, key in pairs]))
                        pending.append((worker, pairs))
                    except (OSError, BrokenPipeError):
                        worker.alive = False
                for worker, pairs in pending:
                    try:
                        values, compute_s = worker.recv()
                    except (OSError, EOFError, BrokenPipeError, RuntimeError):
                        worker.alive = False
                        continue
                    self.profiler.add("compute", compute_s)
                    for (i, _), value in zip(pairs, values):
                        costs[i] = value
        with self.profiler.stage("compute"):
            for i, graph in enumerate(graphs):
                if costs[i] is None:
                    costs[i] = self.cost_model.estimate_cached(graph)
        return [float(c) for c in costs]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release replicas on every worker (the pool itself stays up)."""
        for worker in self._live():
            try:
                worker.request(("close", self.sid))
            except (OSError, EOFError, BrokenPipeError, RuntimeError):
                worker.alive = False
        self._keys.clear()
        self._graphs.clear()

    def __enter__(self) -> "PoolSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Shared default pool
# ---------------------------------------------------------------------------

def open_session(parallel: bool, pool: Optional[WorkerPool],
                 num_workers: Optional[int], graph: Graph, ruleset: RuleSet,
                 cost_model=None, latency_source=None
                 ) -> Optional[PoolSession]:
    """Resolve an optimiser's ``parallel=`` / ``pool=`` knobs into a session.

    Returns ``None`` (→ serial evaluation) when parallelism is off or no
    worker can serve the session; otherwise a healthy :class:`PoolSession`
    the caller must close.  An explicit ``pool=`` implies ``parallel=True``.
    """
    if pool is None:
        if not parallel:
            return None
        pool = shared_pool(num_workers)
    if not pool.healthy:
        return None
    session = pool.start_search(graph, ruleset, cost_model=cost_model,
                                latency_source=latency_source)
    if not session.healthy:
        session.close()
        return None
    return session


_SHARED: Dict[int, WorkerPool] = {}


def shared_pool(num_workers: Optional[int] = None) -> WorkerPool:
    """The process-wide persistent pool for ``num_workers`` (created once).

    Optimisers constructed with ``parallel=True`` but no explicit ``pool=``
    use this, so repeated searches amortise worker start-up — the
    "persistent, prewarmed" part of the design.  Closed automatically at
    interpreter exit.
    """
    size = int(num_workers or os.cpu_count() or 1)
    pool = _SHARED.get(size)
    if pool is None or not pool.healthy:
        pool = _SHARED[size] = WorkerPool(num_workers=size)
    return pool


def close_shared_pool() -> None:
    """Tear down every shared pool (tests; also runs atexit)."""
    for pool in _SHARED.values():
        pool.close()
    _SHARED.clear()


atexit.register(close_shared_pool)
