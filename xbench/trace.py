"""Outside-in tracer: one patch table, span-recording wrappers, self times.

For a traced run only, every callable named in :data:`PATCHES` is replaced by
a wrapper that records a span (name, start, end, parent, request id) on a
thread-local stack and counts the call at the same boundary.  Class
attributes are patched on the class that defines them; module-level
functions in every loaded module of the listed namespaces that holds a
reference to them (``from x import f`` copies the binding).  Nothing under
``src/`` is edited and :meth:`Tracer.uninstall` puts every original back,
also when the traced code raised.

A span's *self time* is its duration minus the part its child spans cover,
so self times of one thread's span tree sum to its root span exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Patch", "PATCHES", "Tracer", "HARNESS", "wrapper_batch_s"]

#: Prefix of the spans the benchmark opens around its own calls into the
#: system; everything else is a span of the program under test.
HARNESS = "harness."

#: Spans of the load generator: the benchmark builds every request's graph
#: itself, outside the request it then times.
INPUT_SPANS = ("models.build",)


@dataclass(frozen=True)
class Patch:
    """One row of the patch table.

    ``span`` is ``<layer>.<stage>``; its self time is reported as
    ``<span>_s`` and its call count as ``<span>_calls``.  ``before`` /
    ``after`` are optional hooks ``f(state, args[, result])`` run at the
    same boundary (counters, request ids, instances to query later).
    """

    span: str
    module: str
    qualname: str
    before: Optional[Callable[["_ThreadState", tuple], None]] = None
    after: Optional[Callable[["_ThreadState", tuple, Any], None]] = None


class _ThreadState:
    """Everything one thread records; merged when the table is read."""

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[Any, float] = defaultdict(float)
        self.instances: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self.request: str = ""
        self.next_id = 0


# -- hooks ----------------------------------------------------------------
def _count_none(state: _ThreadState, args: tuple, result: Any) -> None:
    if result is None:
        state.counters["rules.materialise_none"] += 1


def _execution_report(state: _ThreadState, args: tuple, result: Any) -> None:
    graph = args[1]
    state.counters["exec.kernel_ms"] += result.wall_ms
    state.counters["exec.fallback_ops"] += result.num_fallbacks
    nodes = graph.nodes
    for nid, ms in result.per_node_ms.items():
        state.counters[("exec.op_ms", nodes[nid].op_type.value)] += ms


def _count_env_step(state: _ThreadState, args: tuple, result: Any) -> None:
    state.counters["rl.env_steps"] += 1


def _keep(kind: str) -> Callable[[_ThreadState, tuple], None]:
    def before(state: _ThreadState, args: tuple) -> None:
        state.instances[kind][id(args[0])] = args[0]
    return before


def _request_from_result(state: _ThreadState, args: tuple,
                         result: Any) -> None:
    state.request = result


def _request_from_args(state: _ThreadState, args: tuple) -> None:
    if len(args) > 1 and args[1]:
        state.request = args[1]


#: (metric prefix, module, qualname): the layer boundaries of ``repro``.
PATCHES: Tuple[Patch, ...] = (
    # ir
    Patch("ir.hash", "repro.ir.graph", "Graph.structural_hash"),
    Patch("ir.topo", "repro.ir.graph", "Graph.topological_order"),
    Patch("ir.copy", "repro.ir.graph", "Graph.copy"),
    Patch("ir.serialize", "repro.ir.serialize", "graph_to_dict"),
    Patch("ir.serialize", "repro.ir.serialize", "graph_from_dict"),
    # rules
    Patch("rules.match", "repro.rules.incremental",
          "IncrementalCandidateEngine.lazy_candidates"),
    Patch("rules.match", "repro.rules.base", "RuleSet.lazy_candidates"),
    Patch("rules.materialise", "repro.rules.base", "Candidate.materialise",
          after=_count_none),
    # cost
    Patch("cost.estimate", "repro.cost.cost_model", "CostModel.estimate"),
    Patch("cost.estimate", "repro.cost.cost_model",
          "CostModel.estimate_cached"),
    Patch("cost.estimate", "repro.cost.cost_model",
          "CostModel.estimate_delta"),
    Patch("cost.e2e", "repro.cost.e2e", "E2ESimulator.latency_ms"),
    # search
    Patch("search.self", "repro.search.greedy", "TASOOptimizer.optimise"),
    Patch("search.self", "repro.search.tensat", "TensatOptimizer.optimise"),
    Patch("search.self", "repro.search.random_search",
          "RandomSearchOptimizer.optimise"),
    Patch("search.self", "repro.search.egraph", "GraphSpace.explore"),
    Patch("search.self", "repro.search.egraph", "GraphSpace.extract"),
    # nn
    Patch("nn.gnn_forward", "repro.nn.gnn", "GraphEmbeddingNetwork.forward"),
    Patch("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    Patch("nn.optim_step", "repro.nn.optim", "Adam.step"),
    Patch("nn.optim_step", "repro.nn.optim", "SGD.step"),
    # rl
    Patch("rl.observe", "repro.rl.features", "FeatureCache.encode"),
    Patch("rl.observe", "repro.rl.features", "build_meta_graph"),
    Patch("rl.embed", "repro.rl.embed", "IncrementalEmbedder.embed",
          before=_keep("embedder")),
    Patch("rl.act", "repro.rl.ppo", "XRLflowAgent.act"),
    Patch("rl.step", "repro.rl.env", "GraphRewriteEnv.reset",
          before=_keep("env")),
    Patch("rl.step", "repro.rl.env", "GraphRewriteEnv.step",
          after=_count_env_step),
    Patch("rl.update", "repro.rl.ppo", "PPOUpdater.update"),
    # core
    Patch("core.xrlflow_self", "repro.core.xrlflow", "XRLflow.train"),
    Patch("core.xrlflow_self", "repro.core.xrlflow", "XRLflow.optimise"),
    # exec
    Patch("exec.run", "repro.exec.executor", "NumpyExecutor.run_detailed",
          after=_execution_report),
    Patch("exec.verify", "repro.exec.differential", "differential_check"),
    # service
    Patch("service.admit", "repro.service.api",
          "OptimisationService.submit_request"),
    Patch("service.fingerprint", "repro.service.worker",
          "JobRequest.fingerprint", after=_request_from_result),
    Patch("service.cache_get", "repro.service.cache", "FingerprintCache.get"),
    Patch("service.cache_get", "repro.service.cache", "CacheEntry.to_result"),
    Patch("service.cache_put", "repro.service.cache", "FingerprintCache.put"),
    Patch("service.cache_put", "repro.service.cache",
          "CacheEntry.from_result"),
    Patch("service.execute", "repro.service.worker", "execute_request",
          before=_request_from_args),
    # models, frontend
    Patch("models.build", "repro.models.registry", "build_model"),
    Patch("frontend.roundtrip", "repro.frontend.onnx", "to_onnx"),
    Patch("frontend.roundtrip", "repro.frontend.onnx", "import_model"),
)


class Tracer:
    """Installs :class:`Patch` rows, records spans, restores the originals.

    Args:
        patches: The patch table.
        namespaces: Package prefixes whose loaded modules are scanned for
            copies of a patched module-level function.
        clock: Monotonic seconds; injectable for tests.
    """

    def __init__(self, patches: Iterable[Patch] = PATCHES,
                 namespaces: Tuple[str, ...] = ("repro", "xbench"),
                 clock: Callable[[], float] = time.perf_counter):
        self.patches = tuple(patches)
        self.namespaces = tuple(namespaces)
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: (owner object, attribute name, original value) for every edit.
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- per-thread state ---------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed).

        Only call between traced units, when no span is open: every thread
        starts a fresh state on its next span.
        """
        with self._lock:
            self._local = threading.local()
            self._states = []

    # -- recording ----------------------------------------------------------
    def _enter(self, state: _ThreadState, name: str) -> list:
        # frame: [name, child seconds, start, span id]
        frame = [name, 0.0, 0.0, state.next_id]
        state.next_id += 1
        state.stack.append(frame)
        frame[2] = self.clock()
        return frame

    def _exit(self, state: _ThreadState, frame: list) -> None:
        end = self.clock()
        stack = state.stack
        stack.pop()
        name, child_s, start, span_id = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        state.self_s[name] += duration - child_s
        state.calls[name] += 1
        state.spans.append((span_id, parent[3] if parent is not None else -1,
                            name, start, end, state.request))

    @contextmanager
    def span(self, name: str, request: str = ""):
        """A span opened by the benchmark itself (a root, usually)."""
        state = self._state()
        state.request = request
        frame = self._enter(state, name)
        try:
            yield
        finally:
            self._exit(state, frame)

    def _wrap(self, patch: Patch, fn: Callable) -> Callable:
        span, before, after = patch.span, patch.before, patch.after
        get_state, enter, leave = self._state, self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = get_state()
            if before is not None:
                before(state, args)
            frame = enter(state, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(state, frame)
            if after is not None:
                after(state, args, result)
            return result

        traced.__xbench_original__ = fn
        return traced

    # -- patching -----------------------------------------------------------
    def install(self) -> "Tracer":
        """Replace every listed callable; idempotent per tracer."""
        if self._undo:
            return self
        try:
            for patch in self.patches:
                self._install_one(patch)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_one(self, patch: Patch) -> None:
        module = importlib.import_module(patch.module)
        *path, attr = patch.qualname.split(".")
        owner: Any = module
        for part in path:
            owner = getattr(owner, part)
        if path:  # a class attribute: keep static/classmethod-ness
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new: Any = staticmethod(self._wrap(patch, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(patch, raw.__func__))
            else:
                new = self._wrap(patch, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(module, attr)
        wrapper = self._wrap(patch, original)
        for name, holder in list(sys.modules.items()):
            if holder is None or not any(
                    name == ns or name.startswith(ns + ".")
                    for ns in (*self.namespaces, patch.module)):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back (reverse order of installation)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """``span -> {"self_s", "calls"}`` merged over all threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            for state in self._states:
                for name, value in state.self_s.items():
                    row = merged.setdefault(name, {"self_s": 0.0, "calls": 0})
                    row["self_s"] += value
                    row["calls"] += state.calls[name]
        return merged

    def counters(self) -> Dict[Any, float]:
        """Hook counters merged over all threads."""
        merged: Dict[Any, float] = defaultdict(float)
        with self._lock:
            for state in self._states:
                for key, value in state.counters.items():
                    merged[key] += value
        return merged

    def instances(self, kind: str) -> List[Any]:
        """Objects a ``before=_keep(kind)`` hook saw, each once."""
        seen: Dict[int, Any] = {}
        with self._lock:
            for state in self._states:
                seen.update(state.instances.get(kind, {}))
        return list(seen.values())

    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded since the last :meth:`reset`, detached."""
        with self._lock:
            spans = [(state.tid, *span) for state in self._states
                     for span in state.spans]
        return {"table": self.table(), "counters": dict(self.counters()),
                "spans": spans}


def wrapper_batch_s(calls: int) -> float:
    """Seconds that ``calls`` span-recording wrappers add: a wrapped no-op
    timed against the bare one."""
    def bare() -> None:
        return None

    wrapped = Tracer(patches=())._wrap(Patch("calibration", "", ""), bare)
    walls = []
    for fn in (wrapped, bare):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        walls.append(time.perf_counter() - started)
    return walls[0] - walls[1]


def coverage_share(table: Dict[str, Dict[str, float]],
                   root_seconds: float) -> float:
    """Σ self times of the program's spans / wall of the timed requests."""
    covered = sum(row["self_s"] for name, row in table.items()
                  if not name.startswith(HARNESS) and name not in INPUT_SPANS)
    return covered / root_seconds if root_seconds > 0 else 0.0


def chrome_trace(spans: Iterable[tuple]) -> Dict[str, Any]:
    """Spans as Chrome-trace JSON (open in ``chrome://tracing`` / Perfetto)."""
    spans = list(spans)
    origin = min((span[4] for span in spans), default=0.0)
    events = []
    for tid, span_id, parent_id, name, start, end, request in spans:
        events.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": tid,
            "args": {"id": span_id, "parent": parent_id, "request": request},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
