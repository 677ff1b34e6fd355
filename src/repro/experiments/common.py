"""Shared infrastructure for the per-table / per-figure experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.config import HARNESS_PRESET, XRLflowConfig
from ..ir.graph import Graph
from ..models.registry import build_model

__all__ = ["ExperimentRow", "ExperimentReport", "small_model_kwargs",
           "benchmark_config", "format_table"]

#: Reduced-size builder arguments used by the experiment harness so that the
#: pure-Python optimisers finish in seconds.  The architecture (operator mix,
#: connectivity) is unchanged — only depth/sequence length shrink.
_SMALL_KWARGS: Dict[str, Dict[str, object]] = {
    "inception_v3": {"blocks_a": 1, "blocks_b": 1, "blocks_c": 1},
    "squeezenet": {},
    "resnext50": {"layers": (1, 1, 1, 1)},
    "resnet18": {},
    "bert": {"num_layers": 2, "seq_len": 64, "hidden": 256, "num_heads": 4},
    "vit": {"num_layers": 2, "hidden": 256, "num_heads": 4, "image_size": 128},
    "dalle": {"num_layers": 2, "hidden": 256, "num_heads": 4,
              "text_len": 32, "image_tokens": 64},
    "tt": {"audio_layers": 1, "label_layers": 1, "hidden": 256, "num_heads": 4,
           "audio_frames": 100},
}


def small_model_kwargs(name: str) -> Dict[str, object]:
    """Builder kwargs for the reduced-size experiment configuration."""
    return dict(_SMALL_KWARGS.get(name, {}))


def build_small_model(name: str) -> Graph:
    """Build the reduced-size variant of a registry model."""
    return build_model(name, **small_model_kwargs(name))


def benchmark_config(**overrides) -> XRLflowConfig:
    """X-RLflow configuration used by the benchmark harness.

    Smaller than the paper's 1000-episode training runs (pure-numpy training
    is orders of magnitude slower per step than JAX on a GPU) but on the same
    code path; pass overrides to scale up.  Without overrides it is the
    service's ``xrlflow`` default (both read
    :data:`~repro.core.config.HARNESS_PRESET`).
    """
    return XRLflowConfig.fast(**{**HARNESS_PRESET, **overrides})


@dataclass
class ExperimentRow:
    """One row of a reproduced table/figure."""

    label: str
    values: Dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentReport:
    """A reproduced table or figure: rows of named values."""

    experiment: str
    description: str
    rows: List[ExperimentRow] = field(default_factory=list)

    def add(self, label: str, **values: float) -> None:
        self.rows.append(ExperimentRow(label=label, values=dict(values)))

    def column(self, key: str) -> Dict[str, float]:
        return {row.label: row.values[key] for row in self.rows if key in row.values}

    def to_text(self) -> str:
        return format_table(self)

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.to_text()


def format_table(report: ExperimentReport) -> str:
    """Render a report as a fixed-width text table (what the benches print)."""
    if not report.rows:
        return f"== {report.experiment} ==\n(no rows)"
    columns = sorted({key for row in report.rows for key in row.values})
    label_width = max(len(r.label) for r in report.rows) + 2
    header = f"== {report.experiment}: {report.description} ==\n"
    header += "".ljust(label_width) + "".join(c.rjust(18) for c in columns) + "\n"
    lines = []
    for row in report.rows:
        cells = []
        for c in columns:
            value = row.values.get(c)
            cells.append(("-" if value is None else f"{value:.4f}").rjust(18))
        lines.append(row.label.ljust(label_width) + "".join(cells))
    return header + "\n".join(lines)
