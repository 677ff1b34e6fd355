"""Numpy reference executor: actually *run* a computation graph.

The rest of the stack reasons about latency analytically
(:class:`~repro.cost.e2e.E2ESimulator`); this module is the ground truth
it is checked against.  :class:`NumpyExecutor` walks the graph's memoised
topological order, dispatches every node through the per-op kernel table
(:data:`~repro.exec.kernels.KERNELS`), times each kernel call, and
reference-counts intermediate buffers so a value is dropped as soon as
its last consumer has run.

Weights, constants and unfed inputs are materialised deterministically
from the node *name and shape* (:func:`deterministic_tensor`), so a
rewrite that re-wires existing weight nodes sees identical values before
and after — the property the differential harness in
:mod:`repro.exec.differential` relies on.

Execution is float32, the precision the modelled networks are deployed
at: sources materialise as float32, feeds are handed over as float32, and
every kernel computes in its inputs' dtype.

Unknown operators — anything absent from the kernel table, e.g. an op
added to the registry before a kernel lands — degrade to a *counted*
pass-through of their first input instead of crashing; the fallback
count is part of every :class:`ExecutionReport` so silent coverage holes
cannot hide.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.graph import Graph, NodeId
from ..ir.ops import SOURCE_OPS, OpType
from .kernels import KERNELS

__all__ = ["NumpyExecutor", "ExecutionReport", "MeasuredLatency",
           "deterministic_tensor"]


def _seed_from(name: str, shape: Sequence[int]) -> int:
    payload = f"{name}:{tuple(shape)}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "little")


def deterministic_tensor(name: str, shape: Sequence[int]) -> np.ndarray:
    """Pseudo-random float32 tensor derived from ``(name, shape)`` only.

    The value of a weight/constant/input is a pure function of its name
    and shape, so every executor (and every rewrite of the same graph)
    agrees on it.  It is drawn in double precision and rounded once to
    float32, the precision the executor runs at; ``.astype(np.float64)``
    recovers it exactly for a float64 oracle.
    """
    rng = np.random.default_rng(_seed_from(name, shape))
    return (rng.standard_normal(tuple(shape)) * 0.1).astype(np.float32)


@dataclass
class ExecutionReport:
    """Everything one :meth:`NumpyExecutor.run_detailed` call observed."""

    #: Sink-node values keyed by node name.
    outputs: Dict[str, np.ndarray]
    #: Sum of per-kernel wall times (materialisation excluded), in ms.
    wall_ms: float
    #: Measured wall time of each executed (non-source) node, in ms.
    per_node_ms: Dict[NodeId, float] = field(default_factory=dict)
    #: ``op name -> count`` of nodes that ran through the pass-through
    #: fallback because no kernel covers their operator.
    fallback_ops: Dict[str, int] = field(default_factory=dict)

    @property
    def num_fallbacks(self) -> int:
        """Nodes that ran through the pass-through fallback, over all ops."""
        return sum(self.fallback_ops.values())


class NumpyExecutor:
    """Executes graphs with concrete numpy tensors, timing every kernel.

    Parameters
    ----------
    kernels:
        Override the dispatch table (tests restrict it to exercise the
        pass-through fallback).  Defaults to the full
        :data:`~repro.exec.kernels.KERNELS` registry.
    """

    def __init__(self, kernels: Optional[Mapping[OpType, object]] = None):
        self.kernels = dict(KERNELS if kernels is None else kernels)
        self._param_cache: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}

    # ------------------------------------------------------------------
    def run(self, graph: Graph,
            inputs: Optional[Mapping[str, np.ndarray]] = None
            ) -> Tuple[Dict[str, np.ndarray], float]:
        """Execute ``graph`` and return ``(outputs, wall_ms)``.

        ``outputs`` maps sink-node names to their values; ``wall_ms`` is
        the summed wall time of the executed kernels.  ``inputs`` maps
        Input-node names to arrays; missing inputs are materialised
        deterministically from the node name.
        """
        report = self.run_detailed(graph, inputs)
        return report.outputs, report.wall_ms

    def run_detailed(self, graph: Graph,
                     inputs: Optional[Mapping[str, np.ndarray]] = None
                     ) -> ExecutionReport:
        """Execute ``graph`` and return the full :class:`ExecutionReport`."""
        feeds = dict(inputs or {})
        sinks = set(graph.sink_nodes())
        # Buffer plan: free each node's value once its last consumer ran.
        refcount = {nid: len(graph.out_edges(nid)) + (1 if nid in sinks else 0)
                    for nid in graph.nodes}
        values: Dict[NodeId, List[np.ndarray]] = {}
        per_node_ms: Dict[NodeId, float] = {}
        fallback_ops: Dict[str, int] = {}

        for nid in graph.topological_order():
            node = graph.nodes[nid]
            op = node.op_type
            out_shapes = [tuple(spec.shape.dims) for spec in node.outputs]

            if op in SOURCE_OPS:
                values[nid] = [self._materialise(node, feeds)]
                continue

            in_vals = [values[e.src][e.src_slot] for e in graph.in_edges(nid)]
            kernel = self.kernels.get(op)
            started = time.perf_counter()
            if kernel is None:
                outs = _passthrough(in_vals, out_shapes)
                # Opaque imported nodes are counted under their *foreign*
                # op name so an ImportReport and an ExecutionReport tell
                # the same per-op story.
                key = op.value
                if op is OpType.CUSTOM:
                    key = f"Custom:{node.attrs.get('op', '?')}"
                fallback_ops[key] = fallback_ops.get(key, 0) + 1
            else:
                outs = kernel(in_vals, node.attrs, out_shapes)
            per_node_ms[nid] = (time.perf_counter() - started) * 1e3

            values[nid] = outs
            for edge in graph.in_edges(nid):
                refcount[edge.src] -= 1
                if refcount[edge.src] == 0:
                    del values[edge.src]

        outputs = {graph.nodes[nid].name: values[nid][0] for nid in sinks}
        return ExecutionReport(
            outputs=outputs,
            wall_ms=sum(per_node_ms.values()),
            per_node_ms=per_node_ms,
            fallback_ops=fallback_ops,
        )

    # ------------------------------------------------------------------
    def measure(self, graph: Graph,
                inputs: Optional[Mapping[str, np.ndarray]] = None,
                repeats: int = 3) -> float:
        """Best-of-``repeats`` executed latency of ``graph``, in ms.

        Taking the minimum mirrors how kernel timings are usually reported:
        it is the run least perturbed by the host (GC pauses, scheduler).
        """
        return min(self.run(graph, inputs)[1] for _ in range(max(1, repeats)))

    # ------------------------------------------------------------------
    def _materialise(self, node, feeds: Mapping[str, np.ndarray]) -> np.ndarray:
        shape = tuple(node.outputs[0].shape.dims) if node.outputs else ()
        if node.op_type is OpType.INPUT:
            if node.name in feeds:
                # A read-only view: kernels may not write into the caller's
                # array, and the caller's own flags stay untouched.  A
                # float32 feed is viewed, any other is cast once.
                feed = np.asarray(feeds[node.name], dtype=np.float32).view()
                feed.setflags(write=False)
                return feed
            prefix = "input:"
        else:
            prefix = "param:"
        key = (prefix + node.name, shape)
        cached = self._param_cache.get(key)
        if cached is None:
            cached = deterministic_tensor(*key)
            cached.setflags(write=False)  # outlives the run: no kernel may write
            self._param_cache[key] = cached
        return cached


def _passthrough(in_vals: List[np.ndarray],
                 out_shapes: List[Tuple[int, ...]]) -> List[np.ndarray]:
    """Fallback for uncovered ops: forward the first input per output slot,
    reshaped when element counts line up, zero-filled (in the first input's
    dtype) otherwise."""
    dtype = in_vals[0].dtype if in_vals else np.float32
    outs = []
    for shape in out_shapes:
        if in_vals and in_vals[0].size == int(np.prod(shape, dtype=np.int64)):
            outs.append(in_vals[0].reshape(shape))
        else:
            outs.append(np.zeros(shape, dtype=dtype))
    return outs or [np.zeros((), dtype=dtype)]


class MeasuredLatency:
    """Executed-latency provider (a :class:`~repro.cost.e2e.LatencySource`).

    ``e2e=MeasuredLatency(executor)`` makes an optimiser or the RL
    environment read executed wall clock instead of the simulator; results
    are memoised on the graph, so reporting one graph twice executes it once.
    """

    def __init__(self, executor: Optional[NumpyExecutor] = None,
                 repeats: int = 2):
        self.executor = executor or NumpyExecutor()
        self.repeats = int(repeats)
        self._memo_key = ("exec-measured-latency", self.repeats)

    def latency_ms(self, graph: Graph) -> float:
        """Best-of-``repeats`` executed wall time of ``graph`` in ms."""
        return graph.memo(
            self._memo_key,
            lambda: self.executor.measure(graph, repeats=self.repeats))
