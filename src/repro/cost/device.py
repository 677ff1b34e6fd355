"""Analytical model of the execution device.

The paper measures end-to-end inference latency on an NVIDIA GTX 1080 with
CUDA/CuDNN.  We do not have a GPU, so the device is simulated: each kernel's
runtime is ``max(compute time, memory time) + launch overhead`` with per-op
efficiency factors.  The numbers are loosely calibrated to a GTX 1080-class
part (8.9 TFLOP/s peak, ~320 GB/s, ~5 µs kernel launch) but the *absolute*
values are not the point — what matters is that the simulator exposes the
same second-order effects the paper's evaluation hinges on:

* per-kernel launch overhead (many small kernels are slower than their
  FLOP count suggests),
* imperfect efficiency for small or oddly shaped kernels (grouped
  convolutions, tiny matmuls),
* constant folding of weight-only subgraphs.

The runtime fuses nothing itself: fused kernels come only from rewrite rules.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from ..ir.ops import OpType

__all__ = ["DeviceConfig", "SimulatedDevice", "GTX1080", "load_preset"]


@dataclass(frozen=True)
class DeviceConfig:
    """Static capabilities of a simulated accelerator."""

    name: str = "sim-gtx1080"
    #: Peak single-precision throughput in FLOPs per millisecond.
    flops_per_ms: float = 8.9e9
    #: Main memory bandwidth in bytes per millisecond.
    bytes_per_ms: float = 3.2e8
    #: Per-kernel launch overhead in milliseconds.
    kernel_launch_ms: float = 0.003
    #: Fraction of peak throughput reached by a well-shaped large kernel.
    peak_efficiency: float = 0.72
    #: Efficiency penalty factor for grouped / depthwise convolutions, which
    #: map poorly onto dense tensor cores.
    grouped_conv_efficiency: float = 0.25
    #: Efficiency for batched (strided) matmuls relative to plain GEMM.
    batch_matmul_efficiency: float = 0.60
    #: Multiplier applied to the arithmetic cost of kernels whose working set
    #: is small — they cannot saturate the device.
    small_kernel_efficiency: float = 0.55
    #: FLOP threshold below which a kernel counts as "small".
    small_kernel_flops: float = 2.0e6
    #: Relative standard deviation of measurement noise for end-to-end runs.
    measurement_noise: float = 0.004
    #: Fraction of peak memory bandwidth the strided access pattern of
    #: window pooling achieves (overlapping windows defeat both streaming
    #: prefetch and cache-line reuse).  Applied to the memory term of
    #: MaxPool2D/AvgPool2D kernels, whose traffic
    #: :func:`repro.cost.op_cost.op_memory_bytes` counts as kernel² reads
    #: per output element.  0.10 was fitted against an earlier numpy pool
    #: kernel that paid a nan-reduction on top of the gather; against the
    #: slice-reduction kernel of ``exec/kernels.py`` it over-prices pools
    #: about 5x (BENCH_exec ``op_class_ratio.MaxPool2D`` 0.2) — refitting
    #: it moves ``sim_speedup`` and is the gated first step of the
    #: cost-model refit (ROADMAP, "'Optimised' must mean faster").
    pool_gather_efficiency: float = 0.10


#: Default device roughly matching the paper's GTX 1080 testbed.
GTX1080 = DeviceConfig()


class SimulatedDevice:
    """Computes kernel runtimes for a :class:`DeviceConfig`.

    The device distinguishes between *isolated* execution (what a cost model
    measuring one operator at a time would see — inputs resident in cache,
    launch overhead partially hidden) and *end-to-end* execution (all
    overheads and memory traffic paid for real).  This split is what produces
    the cost-model vs end-to-end discrepancy reported in Table 1 of the
    paper.
    """

    def __init__(self, config: Optional[DeviceConfig] = None):
        self.config = config or GTX1080

    # ------------------------------------------------------------------
    def _efficiency(self, op_type: OpType, flops: float) -> float:
        cfg = self.config
        eff = cfg.peak_efficiency
        if op_type in (OpType.GROUP_CONV2D, OpType.DEPTHWISE_CONV2D):
            eff *= cfg.grouped_conv_efficiency / cfg.peak_efficiency
        elif op_type is OpType.BATCH_MATMUL:
            eff *= cfg.batch_matmul_efficiency / cfg.peak_efficiency
        if flops < cfg.small_kernel_flops:
            eff *= cfg.small_kernel_efficiency
        return max(eff, 1e-3)

    def kernel_time_ms(self, op_type: OpType, flops: float,
                       bytes_moved: float) -> float:
        """Runtime of a single kernel on the device, in milliseconds."""
        cfg = self.config
        eff = self._efficiency(op_type, flops)
        compute_ms = flops / (cfg.flops_per_ms * eff) if flops > 0 else 0.0
        bandwidth = cfg.bytes_per_ms
        if op_type in (OpType.MAXPOOL2D, OpType.AVGPOOL2D):
            bandwidth *= max(cfg.pool_gather_efficiency, 1e-3)
        memory_ms = bytes_moved / bandwidth if bytes_moved > 0 else 0.0
        return max(compute_ms, memory_ms) + cfg.kernel_launch_ms

    def with_config(self, **overrides) -> "SimulatedDevice":
        """Return a device with some configuration fields replaced."""
        return SimulatedDevice(replace(self.config, **overrides))

    def __repr__(self) -> str:
        return f"SimulatedDevice({self.config.name!r})"


def load_preset(path: Union[str, Path]) -> SimulatedDevice:
    """Load a device preset written by ``repro.exec.calibrate.save_preset``.

    Unknown keys are ignored (forward compatibility); missing ones keep
    their :class:`DeviceConfig` defaults.  Nothing loads a preset
    implicitly: pass the result on as ``device=``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    config = payload.get("device", payload)
    fields = {f.name for f in dataclasses.fields(DeviceConfig)}
    kwargs = {k: v for k, v in config.items() if k in fields}
    return SimulatedDevice(DeviceConfig(**kwargs))
