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


class E2ESimulator:
    """Simulated end-to-end inference latency of a computation graph."""

    def __init__(self, device: Optional[SimulatedDevice] = None,
                 seed: int = 0):
        self.device = device or SimulatedDevice()
        self._rng = np.random.default_rng(seed)
        # Whole-graph latency memo key: two simulators with the same device
        # produce the same latency.
        self._latency_key = ("e2e-latency",
                             dataclasses.astuple(self.device.config))

    # ------------------------------------------------------------------
    # Graph analysis
    # ------------------------------------------------------------------
    def constant_foldable_nodes(self, graph: Graph) -> Set[NodeId]:
        """Nodes whose transitive inputs are all weights/constants.

        These can be evaluated once before deployment, so they cost nothing
        at inference time.  Source nodes themselves are excluded (they never
        launch kernels anyway).
        """
        foldable: Set[NodeId] = set()
        constant_valued: Set[NodeId] = set()
        for nid in graph.topological_order():
            node = graph.nodes[nid]
            if node.op_type in (OpType.WEIGHT, OpType.CONSTANT):
                constant_valued.add(nid)
                continue
            if node.op_type in (OpType.INPUT, OpType.OUTPUT):
                continue
            preds = graph.predecessors(nid)
            if preds and all(p in constant_valued for p in preds):
                constant_valued.add(nid)
                foldable.add(nid)
        return foldable

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    def profile(self, graph: Graph) -> LatencyProfile:
        """Simulate one inference pass and return a detailed profile."""
        folded = self.constant_foldable_nodes(graph)

        total = 0.0
        kernels = 0
        per_node: Dict[NodeId, float] = {}
        for nid in graph.topological_order():
            node = graph.nodes[nid]
            if is_zero_cost(node.op_type) or nid in folded:
                per_node[nid] = 0.0
                continue
            flops, bytes_moved = node_flops_bytes(graph, nid)
            time_ms = self.device.kernel_time_ms(node.op_type, flops, bytes_moved)
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
