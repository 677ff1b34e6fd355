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
* graph-level effects (constant folding) are invisible by construction
  because operators are summed independently.

The true latency is produced by :class:`repro.cost.e2e.E2ESimulator`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.graph import Graph, NodeId
from .device import SimulatedDevice
from .op_cost import is_zero_cost, node_flops_bytes

__all__ = ["CostModel", "CostBreakdown"]

#: Fraction of memory traffic an isolated micro-benchmark pays: its operands
#: are already resident in cache, so only 95 % of the true traffic shows.
WARM_CACHE_FRACTION = 0.95

#: Fraction of the true kernel-launch overhead an isolated micro-benchmark
#: sees (repeated invocations amortise the rest).
LAUNCH_AMORTISATION = 0.65

#: Exact totals count multiples of 2**-1074 ms (the smallest subnormal).
_UNIT = 1 << 1074


def _units(graph: Graph, nid: NodeId, ms: float) -> int:
    """``ms`` as an exact multiple of 2**-1074; non-finite costs raise."""
    try:
        numerator, denominator = ms.as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"node {nid} ({graph.nodes[nid].op_type.value}) of "
                         f"{graph.name!r} has non-finite cost {ms!r}") from None
    return numerator * (_UNIT // denominator)


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

    A graph's cost is the correctly rounded *exact* sum of its node costs,
    whichever of :meth:`estimate`, :meth:`estimate_cached` and
    :meth:`estimate_delta` returns it (see :meth:`exact_total`).

    Parameters
    ----------
    device:
        The simulated device whose raw throughput numbers are used.
    ignore_elementwise:
        When True, element-wise operators are costed at zero.  PET's cost
        model behaves this way (the paper calls this out); TASO's does not.

    Attributes
    ----------
    nodes_derived:
        How many times :meth:`node_cost_ms` ran on this instance — the work
        the template memos (and TASO's remembered prices) exist to avoid.
        A diagnostic read by tests (``tests/search/test_cost_reuse.py`` pins
        it per search); it is a plain unsynchronised integer, exact only
        while one thread costs with this instance, which is how every
        optimiser uses its own.
    """

    def __init__(self, device: Optional[SimulatedDevice] = None,
                 ignore_elementwise: bool = False):
        self.device = device or SimulatedDevice()
        self.ignore_elementwise = bool(ignore_elementwise)
        # The idealised view of ``device``: no kernel-shape penalties, a
        # partly amortised launch, no noise.  Every field not named here
        # (throughput, bandwidth, the pool-gather pathology, which is real
        # memory behaviour) carries over unchanged.
        cfg = self.device.config
        self._ideal_device = self.device.with_config(
            name=cfg.name + "-idealised",
            kernel_launch_ms=cfg.kernel_launch_ms * LAUNCH_AMORTISATION,
            grouped_conv_efficiency=cfg.peak_efficiency,
            batch_matmul_efficiency=cfg.peak_efficiency,
            small_kernel_efficiency=1.0,
            small_kernel_flops=0.0,
            measurement_noise=0.0,
        )
        # Template-memo key of a node's cost: two cost models of one class
        # with identical parameters share (and may reuse) memoised entries;
        # a subclass that prices otherwise never reads them.
        self._cache_key = ("node-cost", type(self),
                           dataclasses.astuple(self.device.config),
                           self.ignore_elementwise)
        self._total_key = ("cost-total",) + self._cache_key[1:]
        self.nodes_derived = 0

    # ------------------------------------------------------------------
    def node_cost_ms(self, graph: Graph, node_id: NodeId) -> float:
        """Estimated isolated runtime of one node, in milliseconds.

        Must be a function of the node's template (op, input specs, attrs)
        and this instance's parameters alone: :meth:`exact_total` keeps the
        result in the template memo every node of the template shares
        (:meth:`~repro.ir.graph.Graph.template_memo`), under a key naming
        the concrete class, the device and ``ignore_elementwise``.
        """
        self.nodes_derived += 1
        node = graph.nodes[node_id]
        if is_zero_cost(node.op_type):
            return 0.0
        flops, bytes_moved = node_flops_bytes(graph, node_id)
        if self.ignore_elementwise and flops <= sum(o.num_elements for o in node.outputs):
            # Element-wise / trivially cheap kernels ignored (PET behaviour).
            return 0.0
        bytes_moved *= WARM_CACHE_FRACTION
        return self._ideal_device.kernel_time_ms(node.op_type, flops, bytes_moved)

    def estimate(self, graph: Graph) -> float:
        """Total estimated latency of ``graph`` in milliseconds.

        The total is the *correctly rounded exact sum* of the node costs
        (``math.fsum`` of them): it does not depend on node order, is equal
        on isomorphic graphs, and is what :meth:`estimate_cached` and
        :meth:`estimate_delta` return too, bit for bit.  This method always
        re-derives every node's cost and leaves no cost on the graph; only
        the device-independent flop and byte counts
        (:func:`~repro.cost.op_cost.node_flops_bytes`) stay memoised.
        """
        return self.breakdown(graph).total_ms

    def breakdown(self, graph: Graph) -> CostBreakdown:
        """Per-node cost estimates for ``graph`` and their exact total."""
        per_node = {nid: self.node_cost_ms(graph, nid) for nid in graph.nodes}
        total = sum(_units(graph, nid, ms) for nid, ms in per_node.items())
        return CostBreakdown(total_ms=self.exact_to_ms(total),
                             per_node_ms=per_node)

    # ------------------------------------------------------------------
    # Incremental estimation
    # ------------------------------------------------------------------
    def exact_total(self, graph: Graph) -> int:
        """The sum of ``graph``'s node costs as an integer count of
        2**-1074 ms, the unit every finite float is a whole multiple of.

        Memoised on the graph until its next mutation.  Integer totals add
        and subtract without rounding, so the difference between a child's
        and its parent's is a property of the rewrite alone — the *price*
        the TASO loop remembers per match; :meth:`exact_to_ms` rounds one.
        Per-node costs come from (and fill) the template memos, as exact
        units.
        """
        return graph.memo(self._total_key, lambda: sum(
            self._node_units(graph, nid) for nid in graph.nodes))

    @staticmethod
    def exact_to_ms(total: int) -> float:
        """An exact total in milliseconds, correctly rounded."""
        return total / _UNIT

    def estimate_cached(self, graph: Graph) -> float:
        """:meth:`estimate` from the totals and per-node costs memoised on
        the graph: O(1) once costed, else only missing nodes are derived."""
        return self.exact_to_ms(self.exact_total(graph))

    def estimate_delta(self, parent: Graph, child: Graph) -> float:
        """Cost ``child`` as ``parent``'s exact total minus the removed and
        rewired nodes' old costs plus the added and rewired nodes' new ones.

        O(rewrite) when ``parent`` was costed, and bit-for-bit equal to
        :meth:`estimate` of the child; the child's total is memoised on it.
        The rewrite is the child's recorded mutation delta (see
        :meth:`Graph.mutation_delta`); without one the child is costed with
        :meth:`estimate_cached`.
        """
        delta = child.mutation_delta()
        if delta is None:
            return self.estimate_cached(child)

        def adjusted() -> int:
            total = self.exact_total(parent)
            for nid in delta.removed | delta.rewired:
                total -= self._node_units(parent, nid)
            for nid in delta.added | delta.rewired:
                total += self._node_units(child, nid)
            return total

        return self.exact_to_ms(child.memo(self._total_key, adjusted))

    def _node_units(self, graph: Graph, nid: NodeId) -> int:
        """One node's exact cost, through its template's memo."""
        memo = graph.template_memo(nid)
        units = memo.get(self._cache_key)
        if units is None:
            units = memo[self._cache_key] = _units(
                graph, nid, self.node_cost_ms(graph, nid))
        return units

    def __repr__(self) -> str:
        return f"CostModel(device={self.device.config.name!r})"
