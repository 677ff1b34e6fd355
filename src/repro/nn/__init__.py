"""numpy autodiff engine, dense layers, GNN layers and optimisers."""

from .tensor import (Tensor, as_tensor, concat, delta_segment_sum, no_grad,
                     segment_max, segment_softmax, segment_sum, stack)
from .layers import Linear, MLP, Module, Parameter, fresh_rng
from .optim import Adam, SGD, clip_grad_norm
from .gnn import (BatchedGraphs, GATLayer, GlobalUpdateLayer,
                  GraphEmbeddingNetwork, NodeUpdateLayer)

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "segment_sum",
    "delta_segment_sum", "segment_softmax", "segment_max",
    "no_grad",
    "Linear", "MLP", "Module", "Parameter", "fresh_rng",
    "Adam", "SGD", "clip_grad_norm",
    "BatchedGraphs", "GATLayer", "GlobalUpdateLayer", "GraphEmbeddingNetwork",
    "NodeUpdateLayer",
]
