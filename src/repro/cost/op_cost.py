"""Per-operator arithmetic and memory-traffic estimates.

These are the primitives both the TASO-style cost model and the end-to-end
simulator are built from.  FLOP counts follow the standard conventions
(2 * M * N * K for matmul, 2 * K_h * K_w * C_in * C_out * H_out * W_out for
convolution, etc.); memory traffic counts one read per input element and one
write per output element.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence, Tuple

from ..ir.ops import ELEMENTWISE_BINARY, ELEMENTWISE_UNARY, OpType
from ..ir.tensor import TensorSpec

if TYPE_CHECKING:
    from ..ir.graph import Graph, NodeId

__all__ = ["op_flops", "op_memory_bytes", "node_flops_bytes", "is_zero_cost"]

#: Operators that perform no device work at inference time (metadata only or
#: resolved at graph-compile time).
_ZERO_COST_OPS = {
    OpType.INPUT, OpType.WEIGHT, OpType.CONSTANT, OpType.OUTPUT,
    OpType.NOOP, OpType.IDENTITY, OpType.DROPOUT,
}

#: Data-movement operators whose cost is purely memory traffic.  CUSTOM is
#: here by definition: its executed semantics *are* the pass-through copy,
#: so the calibrated bytes/ms constant prices it (the "calibrated
#: pass-through" costing of imported unknown ops).
_MOVEMENT_OPS = {
    OpType.RESHAPE, OpType.TRANSPOSE, OpType.CONCAT, OpType.SPLIT,
    OpType.SLICE, OpType.SQUEEZE, OpType.UNSQUEEZE, OpType.FLATTEN,
    OpType.PAD, OpType.CAST, OpType.GATHER, OpType.EMBEDDING,
    OpType.CUSTOM,
}


def is_zero_cost(op_type: OpType) -> bool:
    """True if the operator launches no kernel at inference time."""
    return op_type in _ZERO_COST_OPS


def _output_elements(outputs: Sequence[TensorSpec]) -> int:
    return sum(o.num_elements for o in outputs)


def op_flops(op_type: OpType, inputs: Sequence[TensorSpec],
             outputs: Sequence[TensorSpec],
             attrs: Mapping[str, object] | None = None) -> float:
    """Floating-point operations performed by one application of ``op_type``."""
    attrs = attrs or {}
    if op_type in _ZERO_COST_OPS:
        return 0.0
    out_elems = _output_elements(outputs)

    if op_type in (OpType.MATMUL, OpType.BATCH_MATMUL, OpType.FUSED_MATMUL_ADD):
        a, b = inputs[0], inputs[1]
        k = a.shape.dims[-1]
        flops = 2.0 * out_elems * k
        if op_type is OpType.FUSED_MATMUL_ADD:
            flops += out_elems
        return flops

    if op_type in (OpType.CONV2D, OpType.GROUP_CONV2D, OpType.DEPTHWISE_CONV2D,
                   OpType.ENLARGE_CONV, OpType.FUSED_CONV_BN,
                   OpType.FUSED_CONV_RELU, OpType.FUSED_CONV_BN_RELU):
        weight = inputs[1]
        # weight is [C_out, C_in/groups, kh, kw]; per output element we do
        # 2 * C_in/groups * kh * kw FLOPs.
        per_out = 2.0 * weight.shape.dims[1] * weight.shape.dims[2] * weight.shape.dims[3]
        flops = per_out * out_elems
        if attrs.get("algorithm") == "winograd":
            # Winograd F(4x4, 3x3) — the variant cuDNN uses for dense 3x3
            # convolutions — performs ~4x fewer multiplications.
            flops /= 4.0
        if op_type in (OpType.FUSED_CONV_BN, OpType.FUSED_CONV_BN_RELU):
            flops += 4.0 * out_elems  # folded scale + shift
        if op_type in (OpType.FUSED_CONV_RELU, OpType.FUSED_CONV_BN_RELU):
            flops += out_elems
        return flops

    if op_type in (OpType.MAXPOOL2D, OpType.AVGPOOL2D):
        kernel = int(attrs.get("kernel", 2))
        return float(out_elems * kernel * kernel)
    if op_type is OpType.GLOBAL_AVGPOOL:
        return float(inputs[0].num_elements)

    if op_type in ELEMENTWISE_BINARY:
        return float(out_elems)
    if op_type in ELEMENTWISE_UNARY:
        # transcendental activations cost a handful of FLOPs per element
        per_elem = {OpType.RELU: 1.0, OpType.IDENTITY: 0.0, OpType.CAST: 0.0,
                    OpType.DROPOUT: 0.0}.get(op_type, 8.0)
        return per_elem * out_elems

    if op_type is OpType.BATCHNORM:
        return 4.0 * out_elems
    if op_type is OpType.LAYERNORM:
        return 8.0 * out_elems
    if op_type is OpType.SOFTMAX:
        return 10.0 * out_elems
    if op_type in (OpType.REDUCE_SUM, OpType.REDUCE_MEAN, OpType.REDUCE_MAX):
        return float(inputs[0].num_elements)

    if op_type in _MOVEMENT_OPS:
        return 0.0
    return float(out_elems)


def op_memory_bytes(op_type: OpType, inputs: Sequence[TensorSpec],
                    outputs: Sequence[TensorSpec],
                    attrs: Mapping[str, object] | None = None) -> float:
    """Bytes read plus written by one application of ``op_type``."""
    if op_type in _ZERO_COST_OPS:
        return 0.0
    read = sum(i.size_bytes for i in inputs)
    written = sum(o.size_bytes for o in outputs)

    if op_type in (OpType.MAXPOOL2D, OpType.AVGPOOL2D) and inputs:
        # A pool does not stream its input once: every output element
        # reads its kernel×kernel window (overlapping windows re-read the
        # same input elements up to kernel² times — the numpy backend makes
        # kernel² strided passes), and edge windows of a "same" pool first
        # materialise a padded copy of the input.  Counting only
        # input+output bytes under-states the traffic by ~kernel².  With
        # the device's ``pool_gather_efficiency`` on top the term now reads
        # high (BENCH_exec measured/sim 0.2 for MaxPool2D; see device.py).
        attrs = attrs or {}
        kernel = int(attrs.get("kernel", 2))
        elem_bytes = (inputs[0].size_bytes / inputs[0].num_elements
                      if inputs[0].num_elements else 4.0)
        gathered = _output_elements(outputs) * kernel * kernel * elem_bytes
        padded_copy = 2.0 * inputs[0].size_bytes  # pad read + write
        return float(gathered + padded_copy + written)

    return float(read + written)


#: Template-memo key of the ``(flops, bytes)`` counts.  They depend only on
#: the node's template, not on any device, so every cost model, simulator
#: and calibration run in the process shares one entry per template.
_FLOPS_BYTES_KEY = "op-flops-bytes"


def node_flops_bytes(graph: "Graph", nid: "NodeId") -> Tuple[float, float]:
    """``(op_flops, op_memory_bytes)`` of node ``nid`` of ``graph``,
    memoised on its template
    (:meth:`~repro.ir.graph.Graph.template_memo`)."""
    memo = graph.template_memo(nid)
    cached = memo.get(_FLOPS_BYTES_KEY)
    if cached is None:
        node = graph.nodes[nid]
        inputs = graph.input_specs(nid)
        cached = memo[_FLOPS_BYTES_KEY] = (
            op_flops(node.op_type, inputs, node.outputs, node.attrs),
            op_memory_bytes(node.op_type, inputs, node.outputs, node.attrs))
    return cached
