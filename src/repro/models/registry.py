"""Model registry: name → graph builder, plus the paper's evaluation suite.

The seven DNNs in the paper's Table 3 are: InceptionV3, SqueezeNet,
ResNeXt-50 (convolutional) and BERT, DALL-E, T-T, ViT (transformer).
ResNet-18 is used only for the PET comparison (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..ir.graph import Graph
from .convnets import (build_inception_v3, build_resnet18, build_resnext50,
                       build_squeezenet)
from .transformers import (build_bert, build_dalle,
                           build_transformer_transducer, build_vit)

__all__ = ["ModelInfo", "MODEL_REGISTRY", "build_model", "list_models",
           "PAPER_EVAL_MODELS", "TABLE1_MODELS", "TENSAT_MODELS"]


@dataclass(frozen=True)
class ModelInfo:
    """Metadata about one model-zoo entry."""

    name: str
    family: str  # "convolutional" or "transformer"
    builder: Callable[..., Graph]
    description: str


MODEL_REGISTRY: Dict[str, ModelInfo] = {
    "inception_v3": ModelInfo(
        "inception_v3", "convolutional", build_inception_v3,
        "InceptionV3 image classifier (Szegedy et al., 2016)"),
    "squeezenet": ModelInfo(
        "squeezenet", "convolutional", build_squeezenet,
        "SqueezeNet v1.1 image classifier (Iandola et al., 2016)"),
    "resnext50": ModelInfo(
        "resnext50", "convolutional", build_resnext50,
        "ResNeXt-50 32x4d image classifier"),
    "resnet18": ModelInfo(
        "resnet18", "convolutional", build_resnet18,
        "ResNet-18 image classifier (He et al., 2016)"),
    "bert": ModelInfo(
        "bert", "transformer", build_bert,
        "BERT encoder (Devlin et al., 2019)"),
    "vit": ModelInfo(
        "vit", "transformer", build_vit,
        "Vision Transformer (ViT-Base style)"),
    "dalle": ModelInfo(
        "dalle", "transformer", build_dalle,
        "DALL-E style decoder-only transformer (Ramesh et al., 2021)"),
    "tt": ModelInfo(
        "tt", "transformer", build_transformer_transducer,
        "Transformer-Transducer for streaming ASR (Zhang et al., 2020)"),
}

#: The seven DNNs evaluated in the paper (Table 3 / Figure 4).
PAPER_EVAL_MODELS: List[str] = [
    "inception_v3", "squeezenet", "resnext50", "bert", "dalle", "tt", "vit",
]

#: Models reported in Table 1 (cost-model vs end-to-end discrepancy).
TABLE1_MODELS: List[str] = [
    "dalle", "inception_v3", "bert", "squeezenet", "resnext50", "tt",
]

#: Models used for the Tensat comparison (Figure 8).
TENSAT_MODELS: List[str] = ["bert", "inception_v3", "squeezenet", "resnext50"]


def build_model(name: str, **kwargs) -> Graph:
    """Build the named model's computation graph.

    ``kwargs`` are forwarded to the underlying builder (batch size, image
    size, number of layers, …).  A foreign model enters through
    :func:`repro.frontend.import_model` instead.
    """
    key = name.lower().replace("-", "_")
    if key not in MODEL_REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[key].builder(**kwargs)


def list_models(family: Optional[str] = None) -> List[str]:
    """Names of all registered models, optionally filtered by family."""
    return [
        name for name, info in MODEL_REGISTRY.items()
        if family is None or info.family == family
    ]
