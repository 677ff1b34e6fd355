"""TASO-style sum-of-operators cost model.

TASO estimates the quality of a candidate graph by measuring every operator
*in isolation* and summing the measurements.  The paper (Table 1) shows this
deviates from true end-to-end latency by 5–24% because isolated measurement
hides pipeline effects: cold memory traffic, kernel-shape inefficiencies,
runtime fusion and constant folding.

Our :class:`CostModel` reproduces that behaviour by evaluating each operator
on an *idealised* view of the device:

* memory traffic is discounted by a warm-cache factor (operands measured in a
  micro-benchmark are already resident),
* kernel-shape efficiency penalties (grouped convolutions, tiny kernels) are
  not observed,
* graph-level effects (fusion, constant folding) are invisible by
  construction because operators are summed independently.

The true latency is produced by :class:`repro.cost.e2e.E2ESimulator`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.graph import Graph, GraphDelta, NodeId
from .device import DeviceConfig, SimulatedDevice, default_device
from .op_cost import is_zero_cost, op_flops, op_memory_bytes

__all__ = ["CostModel", "CostBreakdown"]


@dataclass
class CostBreakdown:
    """Per-node cost estimates plus the total."""

    total_ms: float
    per_node_ms: Dict[NodeId, float]

    def top_nodes(self, k: int = 10) -> list[tuple[NodeId, float]]:
        """The ``k`` most expensive nodes, sorted by descending cost."""
        return sorted(self.per_node_ms.items(), key=lambda kv: -kv[1])[:k]


class CostModel:
    """Sum-of-isolated-operator cost model (the TASO baseline signal).

    Parameters
    ----------
    device:
        The simulated device whose raw throughput numbers are used.
    warm_cache_fraction:
        Fraction of memory traffic assumed to hit cache during isolated
        micro-benchmarking.  ``0.8`` means only 80% of true traffic is paid.
    launch_amortisation:
        Fraction of the true kernel-launch overhead that shows up in an
        isolated micro-benchmark (repeated invocations amortise it).
    ignore_elementwise:
        When True, element-wise operators are costed at zero.  PET's cost
        model behaves this way (the paper calls this out); TASO's does not.

    Attributes
    ----------
    nodes_derived:
        How many times :meth:`node_cost_ms` ran on this instance — the work
        the per-node tables exist to avoid.  A diagnostic read by tests
        (``tests/search/test_cost_reuse.py`` pins it per search); it is a
        plain unsynchronised integer, exact only while one thread costs
        with this instance, which is how every optimiser uses its own.
    """

    def __init__(self, device: Optional[SimulatedDevice] = None,
                 warm_cache_fraction: float = 0.95,
                 launch_amortisation: float = 0.65,
                 ignore_elementwise: bool = False):
        self.device = device or default_device()
        self.warm_cache_fraction = float(warm_cache_fraction)
        self.launch_amortisation = float(launch_amortisation)
        self.ignore_elementwise = bool(ignore_elementwise)
        # The cost model's idealised device: no kernel-shape penalties.
        cfg = self.device.config
        self._ideal_device = SimulatedDevice(DeviceConfig(
            name=cfg.name + "-idealised",
            flops_per_ms=cfg.flops_per_ms,
            bytes_per_ms=cfg.bytes_per_ms,
            kernel_launch_ms=cfg.kernel_launch_ms * self.launch_amortisation,
            peak_efficiency=cfg.peak_efficiency,
            grouped_conv_efficiency=cfg.peak_efficiency,
            batch_matmul_efficiency=cfg.peak_efficiency,
            small_kernel_efficiency=1.0,
            small_kernel_flops=0.0,
            measurement_noise=0.0,
            # The window-gather pathology is real memory behaviour, not a
            # kernel-shape penalty — the idealised device keeps it.
            pool_gather_efficiency=cfg.pool_gather_efficiency,
        ))
        # Key for per-node cost tables carried on graphs: two cost models
        # with identical parameters share (and may reuse) cached entries.
        self._cache_key = ("node-cost",
                           dataclasses.astuple(self.device.config),
                           self.warm_cache_fraction,
                           self.launch_amortisation,
                           self.ignore_elementwise)
        self.nodes_derived = 0

    # ------------------------------------------------------------------
    def node_cost_ms(self, graph: Graph, node_id: NodeId) -> float:
        """Estimated isolated runtime of one node, in milliseconds."""
        self.nodes_derived += 1
        node = graph.nodes[node_id]
        if is_zero_cost(node.op_type):
            return 0.0
        inputs = graph.input_specs(node_id)
        flops = op_flops(node.op_type, inputs, node.outputs, node.attrs)
        if self.ignore_elementwise and flops <= sum(o.num_elements for o in node.outputs):
            # Element-wise / trivially cheap kernels ignored (PET behaviour).
            return 0.0
        bytes_moved = op_memory_bytes(node.op_type, inputs, node.outputs, node.attrs)
        bytes_moved *= self.warm_cache_fraction
        return self._ideal_device.kernel_time_ms(node.op_type, flops, bytes_moved)

    def estimate(self, graph: Graph) -> float:
        """Total estimated latency of ``graph`` in milliseconds.

        Always re-derives every node from scratch; the incremental search
        paths use :meth:`estimate_cached` / :meth:`estimate_delta`, which are
        bit-for-bit equal but only recompute mutated nodes.
        """
        return self.breakdown(graph).total_ms

    def breakdown(self, graph: Graph) -> CostBreakdown:
        """Per-node cost estimates for ``graph``."""
        per_node = {nid: self.node_cost_ms(graph, nid) for nid in graph.nodes}
        return CostBreakdown(total_ms=sum(per_node.values()), per_node_ms=per_node)

    # ------------------------------------------------------------------
    # Incremental estimation
    # ------------------------------------------------------------------
    def estimate_cached(self, graph: Graph) -> float:
        """Like :meth:`estimate`, but reusing per-node costs carried on the
        graph.

        ``Graph.copy`` hands the copy the parent's per-node cost table *as
        filled at copy time* and graph mutations invalidate exactly the
        affected entries, so costing a rewrite candidate only recomputes the
        handful of nodes its rule touched — provided the parent was costed
        before it was copied; a table inherited empty saves nothing.
        Values and summation order are identical to :meth:`estimate`, so
        the result is bit-for-bit equal.
        """
        table = graph.node_cache(self._cache_key)
        node_cost = self.node_cost_ms
        total = 0.0
        for nid in graph.nodes:
            value = table.get(nid)
            if value is None:
                value = node_cost(graph, nid)
                table[nid] = value
            total += value
        return total

    def estimate_delta(self, parent: Graph, child: Graph,
                       parent_cost: Optional[float] = None,
                       delta: Optional[GraphDelta] = None) -> float:
        """Cost ``child`` as ``parent``'s total adjusted by the mutation delta.

        Conceptually: parent cost, minus the costs of removed/rewired nodes,
        plus the costs of added/rewired nodes.  The adjustment is applied to
        the parent's *per-node* cost table rather than to the scalar total so
        the result is bit-for-bit equal to a full :meth:`estimate` of the
        child (same per-node values, same summation order).

        ``delta`` defaults to the child's recorded mutation delta (see
        :meth:`Graph.mutation_delta`); without one the child is fully
        re-estimated.  ``parent_cost``, when given, short-circuits the empty
        delta (no mutations — the graphs are identical).
        """
        delta = delta if delta is not None else child.mutation_delta()
        if delta is None:
            return self.estimate(child)
        if parent_cost is not None and delta.is_empty:
            return parent_cost
        table = child.node_cache(self._cache_key)
        if not table:
            # The child did not carry the parent's table (e.g. it was built
            # outside ``Graph.copy``): seed the unchanged nodes from the
            # parent so only the delta is recomputed below.
            parent_table = parent.node_cache(self._cache_key)
            changed = delta.changed_nodes()
            for nid in child.nodes:
                if nid in changed:
                    continue
                value = parent_table.get(nid)
                if value is not None:
                    table[nid] = value
        return self.estimate_cached(child)

    def __repr__(self) -> str:
        return (f"CostModel(device={self.device.config.name!r}, "
                f"warm_cache_fraction={self.warm_cache_fraction})")
