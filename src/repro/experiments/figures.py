"""Reproduction of the paper's figures (4, 5, 6, 7 and 8).

Every figure is a view of one :func:`optimise_suite` run: each search runs
once, and Figure 7 reuses the agents Figure 4 trained.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..core.config import XRLflowConfig
from ..core.xrlflow import XRLflow
from ..cost.e2e import E2ESimulator
from ..models.registry import PAPER_EVAL_MODELS, TENSAT_MODELS, build_model
from ..search.greedy import TASOOptimizer
from ..search.result import SearchResult
from ..search.tensat import TensatOptimizer
from .common import (ExperimentReport, benchmark_config, build_small_model,
                     small_model_kwargs)

__all__ = ["run_figure4", "run_figure5", "run_figure6", "run_figure7",
           "run_figure8", "optimise_suite"]

#: ``{model: {"taso": SearchResult, "xrlflow": SearchResult,
#: "agent": XRLflow}}`` — what :func:`optimise_suite` returns.
SuiteResults = Dict[str, Dict[str, Any]]

#: Figure 7's shapes per model: ``(label, builder overrides)``, the
#: training shape (the reduced build Figure 4 trained on) first.
_FIGURE7_SHAPES = {
    "dalle": [("dalle-32 (train)", {"text_len": 32}),
              ("dalle-48", {"text_len": 48}),
              ("dalle-64", {"text_len": 64})],
    "inception_v3": [("inception-299 (train)", {"image_size": 299}),
                     ("inception-225", {"image_size": 225}),
                     ("inception-187", {"image_size": 187})],
}


def optimise_suite(models: Optional[Sequence[str]] = None,
                   config: Optional[XRLflowConfig] = None,
                   taso_iterations: int = 40) -> SuiteResults:
    """Optimise every model's reduced build with TASO and X-RLflow.

    Returns ``{model: {"taso": result, "xrlflow": result, "agent":
    optimiser}}`` — the data behind Figures 4–8.  ``agent`` is the
    :class:`XRLflow` whose training produced ``xrlflow``; Figure 7 reuses
    it on unseen shapes without retraining.
    """
    models = list(models or PAPER_EVAL_MODELS)
    config = config or benchmark_config()
    results: SuiteResults = {}
    for name in models:
        graph = build_small_model(name)
        taso = TASOOptimizer(max_iterations=taso_iterations)
        xrlflow = XRLflow(config, e2e=E2ESimulator())
        results[name] = {
            "taso": taso.optimise(graph, name),
            "xrlflow": xrlflow.optimise(graph, name),
            "agent": xrlflow,
        }
    return results


def run_figure4(results: SuiteResults) -> ExperimentReport:
    """Figure 4: end-to-end inference speedup, TASO vs X-RLflow, per DNN.

    X-RLflow has two columns: ``xrlflow_speedup_pct``, the returned graph
    (training exploration's best included), and
    ``xrlflow_policy_speedup_pct``, what the deterministic policy reached
    on its own.
    """
    report = ExperimentReport(
        experiment="Figure 4",
        description="end-to-end speedup (%) over the unoptimised graph",
    )
    for name, by_opt in results.items():
        report.add(name,
                   taso_speedup_pct=by_opt["taso"].speedup_percent,
                   xrlflow_speedup_pct=by_opt["xrlflow"].speedup_percent,
                   xrlflow_policy_speedup_pct=_policy_speedup_pct(
                       by_opt["xrlflow"]))
    return report


def run_figure5(results: SuiteResults) -> ExperimentReport:
    """Figure 5: heatmap of rewrite rules applied by X-RLflow per DNN."""
    report = ExperimentReport(
        experiment="Figure 5",
        description="count of each rewrite rule applied by X-RLflow",
    )
    for name, by_opt in results.items():
        counts = by_opt["xrlflow"].rule_counts()
        report.add(name, **{rule: float(count) for rule, count in counts.items()},
                   total_substitutions=float(len(by_opt["xrlflow"].applied_rules)))
    return report


def run_figure6(results: SuiteResults) -> ExperimentReport:
    """Figure 6: optimisation wall-clock time, TASO vs X-RLflow.

    As in the paper, ``xrlflow_seconds`` excludes agent training (the
    trained policy is reused across deployments) but includes its per-step
    inference; ``xrlflow_train_seconds`` is the training, reported apart.
    """
    report = ExperimentReport(
        experiment="Figure 6",
        description="optimisation time (seconds)",
    )
    for name, by_opt in results.items():
        report.add(name,
                   taso_seconds=by_opt["taso"].optimisation_time_s,
                   xrlflow_seconds=by_opt["xrlflow"].optimisation_time_s,
                   xrlflow_train_seconds=by_opt["xrlflow"].stats[
                       "train_time_s"])
    return report


def run_figure7(results: SuiteResults) -> ExperimentReport:
    """Figure 7: generalisation of a trained agent to unseen tensor shapes.

    The agents :func:`optimise_suite` trained on DALL-E (text length 32)
    and InceptionV3 (image size 299) optimise, inference only, the same
    architecture at other text lengths and image sizes.

    Raises:
        KeyError: If ``results`` lacks ``dalle`` or ``inception_v3``.
    """
    report = ExperimentReport(
        experiment="Figure 7",
        description="speedup (%) at unseen tensor shapes (trained shape marked)",
    )
    agents = {name: results[name]["agent"] for name in _FIGURE7_SHAPES}
    for name, shapes in _FIGURE7_SHAPES.items():
        for label, overrides in shapes:
            graph = build_model(name, **{**small_model_kwargs(name), **overrides})
            result = agents[name].optimise(graph, label, train=False)
            report.add(label, speedup_pct=result.speedup_percent)
    return report


def run_figure8(results: SuiteResults,
                models: Optional[Sequence[str]] = None,
                tensat_rounds: int = 4) -> ExperimentReport:
    """Figure 8: end-to-end speedup comparison between Tensat and X-RLflow
    (both X-RLflow columns, as in :func:`run_figure4`).

    The X-RLflow runs are read from ``results``; Tensat runs per model.
    """
    models = list(models or TENSAT_MODELS)
    report = ExperimentReport(
        experiment="Figure 8",
        description="end-to-end speedup (%): Tensat vs X-RLflow",
    )
    for name in models:
        tensat = TensatOptimizer(round_limit=tensat_rounds)
        tensat_result = tensat.optimise(build_small_model(name), name)
        xrlflow_result = results[name]["xrlflow"]
        report.add(name,
                   tensat_speedup_pct=tensat_result.speedup_percent,
                   xrlflow_speedup_pct=xrlflow_result.speedup_percent,
                   xrlflow_policy_speedup_pct=_policy_speedup_pct(
                       xrlflow_result))
    return report


def _policy_speedup_pct(result: SearchResult) -> float:
    """The deterministic policy's own speedup (%), apart from exploration."""
    return (result.stats["policy_speedup"] - 1.0) * 100.0
