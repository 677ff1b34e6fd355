"""Reproduction of the paper's figures (4, 5, 6, 7 and 8)."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

from ..core.config import XRLflowConfig
from ..core.generalise import ShapeVariant, evaluate_generalisation
from ..core.xrlflow import XRLflow
from ..cost.e2e import E2ESimulator
from ..models.registry import PAPER_EVAL_MODELS, TENSAT_MODELS, build_model
from ..search.result import SearchResult
from ..search.tensat import TensatOptimizer
from .common import (ExperimentReport, benchmark_config, build_small_model,
                     optimise_via_service, small_model_kwargs)

__all__ = ["run_figure4", "run_figure5", "run_figure6", "run_figure7",
           "run_figure8", "optimise_suite"]


def optimise_suite(models: Optional[Sequence[str]] = None,
                   config: Optional[XRLflowConfig] = None,
                   taso_iterations: int = 40,
                   ) -> Dict[str, Dict[str, SearchResult]]:
    """Optimise every model with TASO and X-RLflow.

    Returns ``{model: {"taso": result, "xrlflow": result}}`` — the raw data
    behind Figures 4, 5 and 6 (speedup, rule heatmap and optimisation time).
    """
    models = list(models or PAPER_EVAL_MODELS)
    config = config or benchmark_config()
    results: Dict[str, Dict[str, SearchResult]] = {}
    for name in models:
        graph = build_small_model(name)
        # The TASO leg routes through the shared optimisation service, so a
        # second sweep over the same models returns from the warm cache.
        # (E2ESimulator.latency_ms is deterministic, so the service worker's
        # own simulator reports the same numbers as a shared instance.)
        taso_result = optimise_via_service(
            graph, "taso", {"max_iterations": taso_iterations},
            model_name=name).search
        if taso_result.stats.get("cache_hit"):
            # Figure 6 plots optimisation wall-clock time; a cache hit
            # reports retrieval time, so restore the original search time
            # the cache entry preserved.
            taso_result = dataclasses.replace(
                taso_result,
                optimisation_time_s=taso_result.stats["search_time_s"])
        xrlflow = XRLflow(config, e2e=E2ESimulator())
        results[name] = {
            "taso": taso_result,
            "xrlflow": xrlflow.optimise(graph, name),
        }
    return results


def run_figure4(results: Optional[Dict[str, Dict[str, SearchResult]]] = None,
                models: Optional[Sequence[str]] = None,
                config: Optional[XRLflowConfig] = None) -> ExperimentReport:
    """Figure 4: end-to-end inference speedup, TASO vs X-RLflow, per DNN.

    X-RLflow has two columns: ``xrlflow_speedup_pct``, the returned graph
    (training exploration's best included), and
    ``xrlflow_policy_speedup_pct``, what the deterministic policy reached
    on its own.
    """
    results = results or optimise_suite(models, config)
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


def run_figure5(results: Optional[Dict[str, Dict[str, SearchResult]]] = None,
                models: Optional[Sequence[str]] = None,
                config: Optional[XRLflowConfig] = None) -> ExperimentReport:
    """Figure 5: heatmap of rewrite rules applied by X-RLflow per DNN."""
    results = results or optimise_suite(models, config)
    report = ExperimentReport(
        experiment="Figure 5",
        description="count of each rewrite rule applied by X-RLflow",
    )
    for name, by_opt in results.items():
        counts = by_opt["xrlflow"].rule_counts()
        report.add(name, **{rule: float(count) for rule, count in counts.items()},
                   total_substitutions=float(len(by_opt["xrlflow"].applied_rules)))
    return report


def run_figure6(results: Optional[Dict[str, Dict[str, SearchResult]]] = None,
                models: Optional[Sequence[str]] = None,
                config: Optional[XRLflowConfig] = None) -> ExperimentReport:
    """Figure 6: optimisation wall-clock time, TASO vs X-RLflow.

    As in the paper, ``xrlflow_seconds`` excludes agent training (the
    trained policy is reused across deployments) but includes its per-step
    inference; ``xrlflow_train_seconds`` is the training, reported apart.
    """
    results = results or optimise_suite(models, config)
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


def run_figure7(config: Optional[XRLflowConfig] = None) -> ExperimentReport:
    """Figure 7: generalisation of a trained agent to unseen tensor shapes.

    DALL-E is trained at one text length and evaluated at others; InceptionV3
    is trained at one image resolution and evaluated at others.
    """
    config = config or benchmark_config()
    report = ExperimentReport(
        experiment="Figure 7",
        description="speedup (%) at unseen tensor shapes (trained shape marked)",
    )

    dalle_variants = [
        ShapeVariant("dalle-32", dict(small_model_kwargs("dalle"), text_len=32),
                     is_training_shape=True),
        ShapeVariant("dalle-48", dict(small_model_kwargs("dalle"), text_len=48)),
        ShapeVariant("dalle-64", dict(small_model_kwargs("dalle"), text_len=64)),
    ]
    dalle_report = evaluate_generalisation(
        lambda **kw: build_model("dalle", **kw), dalle_variants, config, "dalle")
    for label, result in zip(dalle_report.labels, dalle_report.results):
        report.add(label, speedup_pct=result.speedup_percent)

    inception_variants = [
        ShapeVariant("inception-299",
                     dict(small_model_kwargs("inception_v3"), image_size=299),
                     is_training_shape=True),
        ShapeVariant("inception-225",
                     dict(small_model_kwargs("inception_v3"), image_size=225)),
        ShapeVariant("inception-187",
                     dict(small_model_kwargs("inception_v3"), image_size=187)),
    ]
    inception_report = evaluate_generalisation(
        lambda **kw: build_model("inception_v3", **kw), inception_variants,
        config, "inception_v3")
    for label, result in zip(inception_report.labels, inception_report.results):
        report.add(label, speedup_pct=result.speedup_percent)
    return report


def run_figure8(results: Optional[Dict[str, Dict[str, SearchResult]]] = None,
                models: Optional[Sequence[str]] = None,
                config: Optional[XRLflowConfig] = None,
                tensat_rounds: int = 4) -> ExperimentReport:
    """Figure 8: end-to-end speedup comparison between Tensat and X-RLflow
    (both X-RLflow columns, as in :func:`run_figure4`).

    The X-RLflow runs are read from ``results`` (Figure 4's
    :func:`optimise_suite` output) and trained here only when it is
    omitted; Tensat runs per model.
    """
    models = list(models or TENSAT_MODELS)
    if results is None:
        config = config or benchmark_config()
        results = {name: {"xrlflow": XRLflow(config, e2e=E2ESimulator())
                          .optimise(build_small_model(name), name)}
                   for name in models}
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
