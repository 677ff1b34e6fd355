"""numpy autodiff tape core, parameter holders, GNN layers and optimisers."""

from .tensor import Tensor, no_grad
from .layers import Linear, MLP, Module, Parameter, fresh_rng
from .optim import Adam, SGD, clip_grad_norm
from .gnn import (BatchedGraphs, GATLayer, GlobalUpdateLayer,
                  GraphEmbeddingNetwork, NodeUpdateLayer)

__all__ = [
    "Tensor", "no_grad",
    "Linear", "MLP", "Module", "Parameter", "fresh_rng",
    "Adam", "SGD", "clip_grad_norm",
    "BatchedGraphs", "GATLayer", "GlobalUpdateLayer", "GraphEmbeddingNetwork",
    "NodeUpdateLayer",
]
