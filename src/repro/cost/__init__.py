"""Cost modelling and end-to-end latency simulation.

Two signals are provided:

* :class:`CostModel` — the TASO-style sum-of-isolated-operators estimate.
* :class:`E2ESimulator` — the "ground truth" end-to-end latency, with
  constant folding, kernel-shape efficiencies and measurement noise.

Both price one :class:`DeviceConfig` from code (:data:`GTX1080` unless
``device=`` says otherwise); the cost model's idealised view derives from it.

The gap between them is the central quantitative observation the paper
builds on (its Table 1), and is what the RL agent exploits by using the
end-to-end signal as its reward.
"""

from .device import DeviceConfig, GTX1080, SimulatedDevice
from .op_cost import is_zero_cost, op_flops, op_memory_bytes
from .cost_model import CostBreakdown, CostModel
from .e2e import E2EMeasurement, E2ESimulator, LatencyProfile, LatencySource

__all__ = [
    "DeviceConfig", "GTX1080", "SimulatedDevice",
    "is_zero_cost", "op_flops", "op_memory_bytes",
    "CostBreakdown", "CostModel",
    "E2EMeasurement", "E2ESimulator", "LatencyProfile", "LatencySource",
]
