"""Tensor computation graph intermediate representation.

Public surface:

* :class:`~repro.ir.tensor.TensorShape`, :class:`~repro.ir.tensor.TensorSpec`
* :class:`~repro.ir.ops.OpType` and shape inference
* :class:`~repro.ir.graph.Graph` and :class:`~repro.ir.builder.GraphBuilder`
* JSON (ONNX-like) serialisation helpers (:mod:`repro.ir.serialize`) — the
  one graph codec: files and the service's disk tier both carry this
  document
"""

from .tensor import DataType, TensorShape, TensorSpec, make_spec
from .ops import OpType, OP_REGISTRY, infer_output_spec, op_index, num_op_types
from .graph import Edge, Graph, GraphDelta, GraphValidationError, Node, NodeId
from .builder import GraphBuilder
from .serialize import graph_from_dict, graph_to_dict, load_graph, save_graph

__all__ = [
    "DataType", "TensorShape", "TensorSpec", "make_spec",
    "OpType", "OP_REGISTRY", "infer_output_spec", "op_index", "num_op_types",
    "Edge", "Graph", "GraphDelta", "GraphValidationError", "Node", "NodeId",
    "GraphBuilder",
    "graph_from_dict", "graph_to_dict", "load_graph", "save_graph",
]
