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
* elementwise producer-consumer fusion at runtime,
* constant folding of weight-only subgraphs.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple, Union

from ..ir.ops import OpType

__all__ = ["DeviceConfig", "SimulatedDevice", "GTX1080", "default_device",
           "preset_path", "load_preset", "clear_preset_cache"]


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
    #: it moves ``sim_speedup`` and is ROADMAP item 1(a)'s gated step.
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

    def kernel_time_ms(self, op_type: OpType, flops: float, bytes_moved: float,
                       include_launch: bool = True) -> float:
        """Runtime of a single kernel on the device, in milliseconds."""
        cfg = self.config
        eff = self._efficiency(op_type, flops)
        compute_ms = flops / (cfg.flops_per_ms * eff) if flops > 0 else 0.0
        bandwidth = cfg.bytes_per_ms
        if op_type in (OpType.MAXPOOL2D, OpType.AVGPOOL2D):
            bandwidth *= max(cfg.pool_gather_efficiency, 1e-3)
        memory_ms = bytes_moved / bandwidth if bytes_moved > 0 else 0.0
        time_ms = max(compute_ms, memory_ms)
        if include_launch:
            time_ms += cfg.kernel_launch_ms
        return time_ms

    def launch_overhead_ms(self) -> float:
        """Fixed cost of launching one kernel, whatever its size."""
        return self.config.kernel_launch_ms

    def with_config(self, **overrides) -> "SimulatedDevice":
        """Return a device with some configuration fields replaced."""
        return SimulatedDevice(replace(self.config, **overrides))

    def __repr__(self) -> str:
        return f"SimulatedDevice({self.config.name!r})"


# ---------------------------------------------------------------------------
# Persisted calibration presets
# ---------------------------------------------------------------------------
#
# ``repro.exec.calibrate.save_preset`` writes the fitted device constants to
# a small JSON file; ``default_device`` picks it up on the next start so a
# one-off calibration run keeps paying off.  ``REPRO_DEVICE_PRESET`` selects
# the file ("off" disables loading entirely, e.g. for hermetic test runs).

_DEFAULT_PRESET = Path.home() / ".cache" / "repro" / "device_preset.json"

#: (resolved path, mtime_ns) -> loaded device, so the hot ``default_device``
#: call stats the file instead of re-parsing it.
_preset_cache: dict = {}


def preset_path() -> Optional[Path]:
    """The preset file ``default_device`` consults, or None when disabled."""
    env = os.environ.get("REPRO_DEVICE_PRESET", "")
    if env.strip().lower() == "off":
        return None
    return Path(env) if env else _DEFAULT_PRESET


def load_preset(path: Union[str, Path]) -> SimulatedDevice:
    """Load a device preset written by ``save_preset``.

    Unknown keys are ignored (forward compatibility); missing ones keep
    their :class:`DeviceConfig` defaults.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    config = payload.get("device", payload)
    fields = {f.name for f in dataclasses.fields(DeviceConfig)}
    kwargs = {k: v for k, v in config.items() if k in fields}
    return SimulatedDevice(DeviceConfig(**kwargs))


def clear_preset_cache() -> None:
    """Drop the memoised preset (tests; or after deleting the file)."""
    _preset_cache.clear()


def _preset_device() -> Optional[SimulatedDevice]:
    path = preset_path()
    if path is None:
        return None
    try:
        key: Tuple[str, int] = (str(path), path.stat().st_mtime_ns)
    except OSError:
        return None
    if key not in _preset_cache:
        try:
            _preset_cache[key] = load_preset(path)
        except (OSError, ValueError, TypeError):
            # A corrupt preset must never take the toolchain down.
            _preset_cache[key] = None
    return _preset_cache[key]


def default_device() -> SimulatedDevice:
    """The device used throughout the evaluation.

    A persisted calibration preset (see :func:`preset_path`) takes
    precedence; otherwise the GTX 1080-like defaults apply.
    """
    return _preset_device() or SimulatedDevice(GTX1080)
