"""Numpy execution backend: run graphs for real, then check and calibrate.

The one place a graph is executed, and :func:`differential_check` the one
equivalence check.  Layers on top of the IR only:

* :mod:`repro.exec.kernels` — per-``OpType`` numpy kernel dispatch table.
* :mod:`repro.exec.executor` — timed topo-order executor with
  deterministic weight materialisation and a counted pass-through
  fallback for uncovered ops.
* :mod:`repro.exec.differential` — before/after output-equivalence
  checks on random inputs (the rewrite engine's ground-truth oracle).
* :mod:`repro.exec.calibrate` — fit the analytic device constants
  against measured kernel wall times.
"""

from .calibrate import (CalibrationResult, KernelSample, calibrate,
                        collect_kernel_samples)
from .differential import (DEFAULT_ATOL, DEFAULT_RTOL, DifferentialReport,
                           differential_check, random_inputs)
from .executor import (ExecutionReport, MeasuredLatency, NumpyExecutor,
                       deterministic_tensor)
from .kernels import KERNELS, erf, uncovered_ops

__all__ = [
    "KERNELS", "erf", "uncovered_ops",
    "NumpyExecutor", "ExecutionReport", "MeasuredLatency",
    "deterministic_tensor",
    "DEFAULT_RTOL", "DEFAULT_ATOL", "DifferentialReport",
    "differential_check", "random_inputs",
    "CalibrationResult", "KernelSample", "calibrate",
    "collect_kernel_samples",
]
