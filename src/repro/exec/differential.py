"""Differential correctness checks built on the numpy executor.

The rewrite engine's core claim — "the optimised graph computes the same
function" — is validated here by actually executing graph pairs on random
inputs and comparing outputs, the random-testing methodology TASO uses
for its generated rules.

Tolerance policy (documented in ``docs/executor.md``, with the sweep it
rests on): execution is float32 end to end and rewrites only reassociate
float arithmetic, so outputs must agree to ``rtol=1e-5, atol=1e-6``.
Rules flagged ``exactly_equivalent=False`` (EnlargeConv fabricates a fresh
weight tensor, PET's Winograd rewrite adds a correction term) are checked
shape-only via ``require_values=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..ir.graph import Graph
from .executor import NumpyExecutor

__all__ = ["DEFAULT_RTOL", "DEFAULT_ATOL", "DifferentialReport",
           "random_inputs", "differential_check"]

#: Documented output-agreement tolerances for float32 execution.
DEFAULT_RTOL = 1e-5
DEFAULT_ATOL = 1e-6


def random_inputs(graph: Graph, seed: int = 0) -> Dict[str, np.ndarray]:
    """Random feeds (float32, 0.1 scale) for every Input node of ``graph``.

    Drawn in double precision and rounded once, as
    :func:`~repro.exec.executor.deterministic_tensor` is.
    """
    rng = np.random.default_rng(seed)
    feeds = {}
    for nid in graph.input_nodes():
        node = graph.nodes[nid]
        shape = tuple(node.output_spec.shape.dims)
        feeds[node.name] = (rng.standard_normal(shape) * 0.1).astype(
            np.float32)
    return feeds


@dataclass
class DifferentialReport:
    """Outcome of one before/after differential comparison."""

    equivalent: bool
    #: Largest absolute output deviation observed across all trials
    #: (0.0 when shapes already disagree).
    max_abs_err: float = 0.0
    trials: int = 0
    #: Human-readable reasons for a failed comparison.
    problems: List[str] = field(default_factory=list)
    #: Fallback-executed ops seen while running either graph (a non-empty
    #: map means the comparison exercised the pass-through path and is
    #: weaker than it looks).
    fallback_ops: Dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.equivalent


def _sorted_outputs(outputs: Mapping[str, np.ndarray]) -> List[np.ndarray]:
    return [outputs[name] for name in sorted(outputs)]


def differential_check(before: Graph, after: Graph,
                       executor: Optional[NumpyExecutor] = None,
                       trials: int = 2,
                       rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL,
                       seed: int = 1234,
                       require_values: bool = True) -> DifferentialReport:
    """Execute ``before`` and ``after`` on shared random inputs and compare.

    Both graphs must expose the same Input-node names; outputs are the
    sink-node values compared in name-sorted order.  With
    ``require_values=False`` only output *shapes* must agree — the right
    check for partially-equivalent rewrites.
    """
    executor = executor or NumpyExecutor()
    report = DifferentialReport(equivalent=True)

    names_a = sorted(before.nodes[n].name for n in before.input_nodes())
    names_b = sorted(after.nodes[n].name for n in after.input_nodes())
    if names_a != names_b:
        report.equivalent = False
        report.problems.append(
            f"input sets differ: {names_a} vs {names_b}")
        return report

    for trial in range(max(1, trials)):
        feeds = random_inputs(before, seed=seed + trial)
        rep_a = executor.run_detailed(before, feeds)
        rep_b = executor.run_detailed(after, feeds)
        for fb in (rep_a.fallback_ops, rep_b.fallback_ops):
            for op, count in fb.items():
                report.fallback_ops[op] = report.fallback_ops.get(op, 0) + count
        vals_a = _sorted_outputs(rep_a.outputs)
        vals_b = _sorted_outputs(rep_b.outputs)
        report.trials += 1
        if len(vals_a) != len(vals_b):
            report.equivalent = False
            report.problems.append(
                f"trial {trial}: {len(vals_a)} vs {len(vals_b)} outputs")
            continue
        for index, (a, b) in enumerate(zip(vals_a, vals_b)):
            if a.shape != b.shape:
                report.equivalent = False
                report.problems.append(
                    f"trial {trial}: output {index} shape {a.shape} "
                    f"vs {b.shape}")
                continue
            if not require_values:
                continue
            err = float(np.max(np.abs(a - b))) if a.size else 0.0
            report.max_abs_err = max(report.max_abs_err, err)
            if not np.allclose(a, b, rtol=rtol, atol=atol):
                report.equivalent = False
                report.problems.append(
                    f"trial {trial}: output {index} deviates by {err:g} "
                    f"(rtol={rtol}, atol={atol})")
    return report
