"""End-to-end inference latency simulator.

This plays the role of "actually running the optimised graph on the GPU" in
the paper.  In addition to the raw per-kernel costs it models the pipeline
effects that a sum-of-operators cost model cannot see:

* **Constant folding** — any node whose transitive inputs are all weights or
  constants is computed once ahead of time and contributes nothing to
  inference latency.  The paper attributes the 40% ViT win to exactly this
  effect surfacing after a sequence of rewrites.
* **Kernel-shape efficiency** — grouped and depthwise convolutions, batched
  matmuls and very small kernels run below peak efficiency, unlike in the
  idealised cost-model view.
* **Measurement noise** — repeated measurements jitter by a configurable
  relative standard deviation, so downstream experiments can report mean and
  standard deviation over 5 runs exactly as the paper does.

The runtime fuses nothing behind the optimiser's back: in the TASO/X-RLflow
setting operator fusion is what the rewrite rules introduce explicitly
(FusedConvBNRelu, FusedMatMulAdd, ...).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Set

import numpy as np

from ..ir.graph import Graph, NodeId
from ..ir.ops import OpType
from .device import SimulatedDevice
from .op_cost import is_zero_cost, node_flops_bytes

__all__ = ["E2ESimulator", "E2EMeasurement", "LatencyProfile",
           "LatencySource"]


@dataclass
class LatencyProfile:
    """Detailed account of one simulated inference pass."""

    total_ms: float
    kernel_count: int
    folded_nodes: Set[NodeId] = field(default_factory=set)
    per_node_ms: Dict[NodeId, float] = field(default_factory=dict)


@dataclass
class E2EMeasurement:
    """Mean and standard deviation over repeated simulated runs."""

    mean_ms: float
    std_ms: float
    samples: List[float] = field(default_factory=list)


class LatencySource(Protocol):
    """What ``e2e=`` takes: this simulator or ``exec.MeasuredLatency``."""
    def latency_ms(self, graph: Graph) -> float:
        """End-to-end latency of ``graph`` in milliseconds."""


#: Operators whose value is constant by construction.
_CONSTANT_SOURCES = (OpType.WEIGHT, OpType.CONSTANT)

#: Whole-graph memo key of the constant-valued node set (device-independent).
_CONSTANT_KEY = "e2e-constant-valued"


def _constant_valued(graph: Graph) -> Set[NodeId]:
    """Nodes whose value is known before inference: weights and constants,
    and every node other than an input or output whose inputs all are.

    Memoised on the graph; callers must not modify the set.  A graph whose
    ``delta_parent()`` holds its set starts from that set minus the removed
    nodes and re-decides only the delta's added and rewired nodes, plus the
    consumers of any node whose answer changed, in topological order — so
    every node is decided after its inputs and at most once.  Without one,
    every node is decided.
    """
    def derive() -> Set[NodeId]:
        parent = graph.delta_parent()
        inherited = parent.memo_peek(_CONSTANT_KEY) \
            if parent is not None else None
        nodes = graph.nodes
        if inherited is None:
            constant: Set[NodeId] = set()
            worklist = None
        else:
            delta = graph.mutation_delta()
            constant = inherited - delta.removed
            worklist = {nid for nid in delta.added | delta.rewired
                        if nid in nodes}
        for nid in graph.topological_order():
            if worklist is not None and nid not in worklist:
                continue
            op_type = nodes[nid].op_type
            if op_type in _CONSTANT_SOURCES:
                now = True
            elif op_type in (OpType.INPUT, OpType.OUTPUT):
                now = False
            else:
                preds = graph.predecessors(nid)
                now = bool(preds) and all(p in constant for p in preds)
            if now == (nid in constant):
                continue
            if now:
                constant.add(nid)
            else:
                constant.discard(nid)
            if worklist is not None:
                worklist.update(graph.successors(nid))
        return constant
    return graph.memo(_CONSTANT_KEY, derive)


class E2ESimulator:
    """Simulated end-to-end inference latency of a computation graph.

    A profile works from the graph's parent where it can.  Kernel times are
    template memos (:meth:`~repro.ir.graph.Graph.template_memo`), like
    ``CostModel``'s node costs, so a kernel time is priced once per distinct
    template per process: a candidate prices at most the templates its
    rewrite added or rewired that no graph met before.  The constant-valued
    set is derived from the ``delta_parent()``'s by a worklist over the
    delta's nodes.  The total is still summed in ``topological_order()``,
    so every latency is the full pass's to the last digit.

    Attributes
    ----------
    nodes_priced:
        How many kernel times this instance derived — the work the template
        memos exist to avoid, on the model of ``CostModel.nodes_derived``.
        A plain unsynchronised diagnostic counter.
    """

    def __init__(self, device: Optional[SimulatedDevice] = None,
                 seed: int = 0):
        self.device = device or SimulatedDevice()
        self._rng = np.random.default_rng(seed)
        # Whole-graph latency memo key and template-memo kernel-time key:
        # two simulators of one class with the same device produce the same
        # latency; a subclass pricing otherwise never reads their entries.
        config = dataclasses.astuple(self.device.config)
        self._latency_key = ("e2e-latency", type(self), config)
        self._node_key = ("e2e-node-ms", type(self), config)
        self.nodes_priced = 0

    # ------------------------------------------------------------------
    # Graph analysis
    # ------------------------------------------------------------------
    def constant_foldable_nodes(self, graph: Graph) -> Set[NodeId]:
        """Nodes whose transitive inputs are all weights/constants.

        These can be evaluated once before deployment, so they cost nothing
        at inference time.  Source nodes themselves are excluded (they never
        launch kernels anyway).
        """
        nodes = graph.nodes
        return {nid for nid in _constant_valued(graph)
                if nodes[nid].op_type not in _CONSTANT_SOURCES}

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    def profile(self, graph: Graph) -> LatencyProfile:
        """Simulate one inference pass and return a detailed profile."""
        constant = _constant_valued(graph)
        nodes = graph.nodes
        folded: Set[NodeId] = set()
        total = 0.0
        kernels = 0
        per_node: Dict[NodeId, float] = {}
        for nid in graph.topological_order():
            op_type = nodes[nid].op_type
            if nid in constant:
                if op_type not in _CONSTANT_SOURCES:
                    folded.add(nid)
                per_node[nid] = 0.0
                continue
            if is_zero_cost(op_type):
                per_node[nid] = 0.0
                continue
            memo = graph.template_memo(nid)
            time_ms = memo.get(self._node_key)
            if time_ms is None:
                self.nodes_priced += 1
                flops, bytes_moved = node_flops_bytes(graph, nid)
                time_ms = memo[self._node_key] = self.device.kernel_time_ms(
                    op_type, flops, bytes_moved)
            kernels += 1
            per_node[nid] = time_ms
            total += time_ms
        return LatencyProfile(total_ms=total, kernel_count=kernels,
                              folded_nodes=folded, per_node_ms=per_node)

    def latency_ms(self, graph: Graph) -> float:
        """Deterministic (noise-free) end-to-end latency in milliseconds.

        Memoised on the graph until its next mutation — the RL environment
        measures the same graph several times per step (reward, info dict,
        best-graph tracking) and only the first call pays for the profile.
        """
        return graph.memo(self._latency_key,
                          lambda: self.profile(graph).total_ms)

    def measure(self, graph: Graph, repeats: int = 5) -> E2EMeasurement:
        """Simulate ``repeats`` noisy measurements, like timing real runs."""
        base = self.latency_ms(graph)
        noise = self.device.config.measurement_noise
        samples = [
            float(base * (1.0 + self._rng.normal(0.0, noise)))
            for _ in range(max(1, repeats))
        ]
        return E2EMeasurement(mean_ms=float(np.mean(samples)),
                              std_ms=float(np.std(samples)),
                              samples=samples)

    def __repr__(self) -> str:
        return f"E2ESimulator(device={self.device.config.name!r})"
