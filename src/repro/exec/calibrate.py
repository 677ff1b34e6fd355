"""Fit the analytic device model against measured numpy kernels.

The :class:`~repro.cost.device.SimulatedDevice` constants were hand-set
to a GTX 1080-class part; the executor gives us *measured* per-kernel
wall times on the actual host, so the two can be reconciled.
:func:`calibrate` collects ``(op, flops, bytes, measured_ms)`` samples by
timing every kernel of the given graphs, then grid-searches scale
factors for ``flops_per_ms`` / ``bytes_per_ms`` minimising the mean
squared log-ratio between simulated and measured kernel times.  The
identity scale is always in the grid, so the fitted error is never worse
than the starting error — ``BENCH_exec.json`` gates on exactly that
ratio.

Per-op-class sim/measured agreement (before and after the fit) is
reported alongside, which is the honest headline: a single two-parameter
scale cannot make an analytic GPU model match numpy on every op class,
and the residual spread quantifies how much the simulator should be
trusted per op family.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..cost.device import SimulatedDevice
from ..cost.op_cost import is_zero_cost, node_flops_bytes
from ..ir.graph import Graph
from ..ir.ops import SOURCE_OPS, OpType
from .executor import NumpyExecutor

__all__ = ["KernelSample", "CalibrationResult", "collect_kernel_samples",
           "calibrate", "save_preset"]


@dataclass(frozen=True)
class KernelSample:
    """One timed kernel: its static cost counts and measured wall time."""

    op_type: OpType
    flops: float
    bytes_moved: float
    measured_ms: float


@dataclass
class CalibrationResult:
    """Outcome of fitting the device constants to measured kernels."""

    #: The device the fit started from and the fitted device.
    device_before: SimulatedDevice
    device_after: SimulatedDevice
    #: Multipliers applied to ``flops_per_ms`` / ``bytes_per_ms``.
    flops_scale: float
    bytes_scale: float
    #: RMS log-ratio error sim-vs-measured, before and after the fit.
    error_before: float
    error_after: float
    samples: List[KernelSample] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """``error_before / error_after`` — >= 1.0 by construction."""
        return self.error_before / max(self.error_after, 1e-12)

    def op_class_ratios(self, fitted: bool = True) -> Dict[str, float]:
        """Geometric-mean measured/simulated time ratio per op class."""
        device = self.device_after if fitted else self.device_before
        logs: Dict[str, List[float]] = {}
        for sample in self.samples:
            sim = device.kernel_time_ms(sample.op_type, sample.flops,
                                        sample.bytes_moved)
            logs.setdefault(sample.op_type.value, []).append(
                math.log(max(sample.measured_ms, 1e-9) / max(sim, 1e-9)))
        return {op: float(math.exp(np.mean(vals)))
                for op, vals in sorted(logs.items())}


def collect_kernel_samples(graphs: Sequence[Graph],
                           executor: Optional[NumpyExecutor] = None,
                           repeats: int = 2) -> List[KernelSample]:
    """Time every compute kernel of ``graphs`` (best of ``repeats``)."""
    executor = executor or NumpyExecutor()
    samples: List[KernelSample] = []
    for graph in graphs:
        reports = [executor.run_detailed(graph)
                   for _ in range(max(1, repeats))]
        for nid, node in graph.nodes.items():
            if node.op_type in SOURCE_OPS or is_zero_cost(node.op_type):
                continue
            times = [rep.per_node_ms[nid] for rep in reports
                     if nid in rep.per_node_ms]
            if not times:
                continue
            flops, bytes_moved = node_flops_bytes(graph, nid)
            samples.append(KernelSample(node.op_type, flops, bytes_moved,
                                        min(times)))
    return samples


def _rms_log_error(device: SimulatedDevice,
                   samples: Sequence[KernelSample]) -> float:
    errs = []
    for sample in samples:
        sim = device.kernel_time_ms(sample.op_type, sample.flops,
                                    sample.bytes_moved)
        errs.append(math.log(max(sim, 1e-9) /
                             max(sample.measured_ms, 1e-9)) ** 2)
    return math.sqrt(sum(errs) / len(errs)) if errs else 0.0


def calibrate(graphs: Sequence[Graph],
              executor: Optional[NumpyExecutor] = None,
              device: Optional[SimulatedDevice] = None,
              repeats: int = 2,
              grid: Optional[Sequence[float]] = None) -> CalibrationResult:
    """Fit ``flops_per_ms`` / ``bytes_per_ms`` to measured kernel times.

    ``grid`` is the set of candidate scale multipliers tried for each
    constant (defaults to a log-spaced sweep over four decades, identity
    included).  Returns a :class:`CalibrationResult` whose
    ``device_after`` can be handed to :class:`~repro.cost.e2e.E2ESimulator`
    or :class:`~repro.cost.cost_model.CostModel` as a drop-in device.
    """
    device = device or SimulatedDevice()
    samples = collect_kernel_samples(graphs, executor, repeats=repeats)
    if grid is None:
        grid = np.geomspace(1e-2, 1e2, 33)
    scales = sorted(set(float(s) for s in grid) | {1.0})

    error_before = _rms_log_error(device, samples)
    best = (error_before, 1.0, 1.0, device)
    for fs in scales:
        for bs in scales:
            candidate = device.with_config(
                flops_per_ms=device.config.flops_per_ms * fs,
                bytes_per_ms=device.config.bytes_per_ms * bs)
            err = _rms_log_error(candidate, samples)
            if err < best[0]:
                best = (err, fs, bs, candidate)

    error_after, flops_scale, bytes_scale, fitted = best
    return CalibrationResult(
        device_before=device,
        device_after=fitted,
        flops_scale=flops_scale,
        bytes_scale=bytes_scale,
        error_before=error_before,
        error_after=error_after,
        samples=samples,
    )


def save_preset(result: CalibrationResult, path: Union[str, Path]) -> Path:
    """Write the fitted device to ``path``; :func:`~repro.cost.device.load_preset`
    reads it back.

    The file holds the :class:`~repro.cost.device.DeviceConfig` of
    ``result.device_after`` plus fit metadata, for humans.  Nothing loads it
    implicitly: pass the loaded device on as ``device=``.  Returns ``path``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": "repro-device-preset",
        "version": 1,
        "device": dataclasses.asdict(result.device_after.config),
        "fit": {
            "flops_scale": result.flops_scale,
            "bytes_scale": result.bytes_scale,
            "error_before": result.error_before,
            "error_after": result.error_after,
            "num_samples": len(result.samples),
        },
    }
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    tmp.replace(target)
    return target
