"""Experiment harness reproducing every table and figure of the paper.

* Table 1 — cost-model vs end-to-end latency discrepancy
* Table 2 — PET vs TASO on ResNet-18 / ResNeXt-50
* Table 3 — evaluated DNN properties (family, rewrite complexity)
* Figure 4 — end-to-end speedup, TASO vs X-RLflow
* Figure 5 — rewrite-rule application heatmap
* Figure 6 — optimisation time, TASO vs X-RLflow
* Figure 7 — generalisation to unseen tensor shapes
* Figure 8 — comparison with Tensat

The figures are views of one run: ``results = optimise_suite()`` searches
each model once with TASO and X-RLflow, and ``run_figure4(results)`` …
``run_figure8(results)`` read it — Figure 7 evaluates the agents that run
trained at unseen shapes, without retraining.
"""

from .common import (ExperimentReport, ExperimentRow, benchmark_config,
                     build_small_model, format_table, small_model_kwargs)
from .tables import run_table1, run_table2, run_table3
from .figures import (optimise_suite, run_figure4, run_figure5, run_figure6,
                      run_figure7, run_figure8)

__all__ = [
    "ExperimentReport", "ExperimentRow", "benchmark_config", "build_small_model",
    "format_table", "small_model_kwargs",
    "run_table1", "run_table2", "run_table3",
    "optimise_suite", "run_figure4", "run_figure5", "run_figure6",
    "run_figure7", "run_figure8",
]
