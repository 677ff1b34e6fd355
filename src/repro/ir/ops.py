"""Operator registry for the tensor graph IR.

Mirrors TASO's operator set (the paper notes "around 40 different tensor
operators").  Each operator has a kind, an arity, an attribute schema and a
shape-inference function.  Shape inference keeps graphs well-typed across
rewrites: every substitution must reproduce the same output specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence

from .tensor import DataType, TensorShape, TensorSpec

__all__ = ["OpType", "OpSignature", "OP_REGISTRY", "infer_output_spec",
           "op_index", "num_op_types", "OPAQUE_OPS"]


class OpType(Enum):
    """Tensor operators supported by the IR (TASO-compatible subset)."""

    # Sources / sinks
    INPUT = "Input"
    WEIGHT = "Weight"
    CONSTANT = "Constant"
    OUTPUT = "Output"

    # Dense linear algebra
    MATMUL = "MatMul"
    BATCH_MATMUL = "BatchMatMul"

    # Convolutions
    CONV2D = "Conv2D"
    DEPTHWISE_CONV2D = "DepthwiseConv2D"
    GROUP_CONV2D = "GroupConv2D"

    # Pooling
    MAXPOOL2D = "MaxPool2D"
    AVGPOOL2D = "AvgPool2D"
    GLOBAL_AVGPOOL = "GlobalAvgPool"

    # Elementwise binary
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    DIV = "Div"

    # Elementwise unary / activations
    RELU = "Relu"
    GELU = "Gelu"
    SIGMOID = "Sigmoid"
    TANH = "Tanh"
    EXP = "Exp"
    SQRT = "Sqrt"
    ERF = "Erf"
    IDENTITY = "Identity"
    CAST = "Cast"
    DROPOUT = "Dropout"

    # Normalisation
    BATCHNORM = "BatchNorm"
    LAYERNORM = "LayerNorm"
    SOFTMAX = "Softmax"

    # Shape manipulation
    RESHAPE = "Reshape"
    TRANSPOSE = "Transpose"
    CONCAT = "Concat"
    SPLIT = "Split"
    SLICE = "Slice"
    SQUEEZE = "Squeeze"
    UNSQUEEZE = "Unsqueeze"
    FLATTEN = "Flatten"
    PAD = "Pad"

    # Reductions
    REDUCE_SUM = "ReduceSum"
    REDUCE_MEAN = "ReduceMean"
    REDUCE_MAX = "ReduceMax"

    # Misc / composite
    EMBEDDING = "Embedding"
    GATHER = "Gather"
    ENLARGE_CONV = "EnlargeConv"
    FUSED_CONV_BN = "FusedConvBN"
    FUSED_CONV_RELU = "FusedConvRelu"
    FUSED_CONV_BN_RELU = "FusedConvBNRelu"
    FUSED_MATMUL_ADD = "FusedMatMulAdd"
    NOOP = "NoOp"

    # Opaque foreign operator (frontend importer fallback).  Carries the
    # original op name plus *declared* output shape/dtype in its attrs; the
    # executor runs it through the counted pass-through and no rewrite rule
    # may match into it.  Keep this the last member: appending preserves the
    # stable ``op_index`` values of every existing operator.
    CUSTOM = "Custom"


#: Stable ordering of operator types used for one-hot node encodings in the
#: GNN.  The order is the enum declaration order.
_OP_ORDER: List[OpType] = list(OpType)
_OP_INDEX: Dict[OpType, int] = {op: i for i, op in enumerate(_OP_ORDER)}


def op_index(op: OpType) -> int:
    """Return the stable integer index of ``op`` (used for one-hot encoding)."""
    return _OP_INDEX[op]


def num_op_types() -> int:
    """Total number of operator types in the registry."""
    return len(_OP_ORDER)


ELEMENTWISE_UNARY = {
    OpType.RELU, OpType.GELU, OpType.SIGMOID, OpType.TANH, OpType.EXP,
    OpType.SQRT, OpType.ERF, OpType.IDENTITY, OpType.CAST, OpType.DROPOUT,
}
ELEMENTWISE_BINARY = {OpType.ADD, OpType.SUB, OpType.MUL, OpType.DIV}
SOURCE_OPS = {OpType.INPUT, OpType.WEIGHT, OpType.CONSTANT}
#: Operators that are opaque by contract: no kernel exists (the executor's
#: counted pass-through is their defined behaviour) and rewrite rules must
#: never bind one of their nodes into a match.
OPAQUE_OPS = {OpType.CUSTOM}
FUSED_OPS = {
    OpType.FUSED_CONV_BN, OpType.FUSED_CONV_RELU, OpType.FUSED_CONV_BN_RELU,
    OpType.FUSED_MATMUL_ADD,
}


@dataclass(frozen=True)
class OpSignature:
    """Static description of an operator."""

    op_type: OpType
    min_inputs: int
    max_inputs: int
    num_outputs: int = 1
    #: Attributes the operator understands, mapped to their default values.
    attr_schema: Mapping[str, object] = field(default_factory=dict)
    #: Whether the operator performs no arithmetic (pure data movement).
    is_data_movement: bool = False

    def validate_arity(self, n_inputs: int) -> None:
        if not (self.min_inputs <= n_inputs <= self.max_inputs):
            raise ValueError(
                f"{self.op_type.value} expects between {self.min_inputs} and "
                f"{self.max_inputs} inputs, got {n_inputs}"
            )


def _sig(op, lo, hi, outs=1, attrs=None, data_movement=False) -> OpSignature:
    return OpSignature(op, lo, hi, outs, attrs or {}, data_movement)


OP_REGISTRY: Dict[OpType, OpSignature] = {
    OpType.INPUT: _sig(OpType.INPUT, 0, 0, attrs={"shape": None}),
    OpType.WEIGHT: _sig(OpType.WEIGHT, 0, 0, attrs={"shape": None}),
    OpType.CONSTANT: _sig(OpType.CONSTANT, 0, 0, attrs={"shape": None}),
    OpType.OUTPUT: _sig(OpType.OUTPUT, 1, 64, data_movement=True),

    OpType.MATMUL: _sig(OpType.MATMUL, 2, 2),
    OpType.BATCH_MATMUL: _sig(OpType.BATCH_MATMUL, 2, 2),

    OpType.CONV2D: _sig(
        OpType.CONV2D, 2, 3,
        attrs={"stride": 1, "padding": "same", "kernel": None},
    ),
    OpType.DEPTHWISE_CONV2D: _sig(
        OpType.DEPTHWISE_CONV2D, 2, 3, attrs={"stride": 1, "padding": "same"},
    ),
    OpType.GROUP_CONV2D: _sig(
        OpType.GROUP_CONV2D, 2, 3,
        attrs={"stride": 1, "padding": "same", "groups": 1},
    ),

    OpType.MAXPOOL2D: _sig(
        OpType.MAXPOOL2D, 1, 1, attrs={"kernel": 2, "stride": 2, "padding": "valid"},
    ),
    OpType.AVGPOOL2D: _sig(
        OpType.AVGPOOL2D, 1, 1, attrs={"kernel": 2, "stride": 2, "padding": "valid"},
    ),
    OpType.GLOBAL_AVGPOOL: _sig(OpType.GLOBAL_AVGPOOL, 1, 1),

    OpType.ADD: _sig(OpType.ADD, 2, 2),
    OpType.SUB: _sig(OpType.SUB, 2, 2),
    OpType.MUL: _sig(OpType.MUL, 2, 2),
    OpType.DIV: _sig(OpType.DIV, 2, 2),

    OpType.RELU: _sig(OpType.RELU, 1, 1),
    OpType.GELU: _sig(OpType.GELU, 1, 1),
    OpType.SIGMOID: _sig(OpType.SIGMOID, 1, 1),
    OpType.TANH: _sig(OpType.TANH, 1, 1),
    OpType.EXP: _sig(OpType.EXP, 1, 1),
    OpType.SQRT: _sig(OpType.SQRT, 1, 1),
    OpType.ERF: _sig(OpType.ERF, 1, 1),
    OpType.IDENTITY: _sig(OpType.IDENTITY, 1, 1, data_movement=True),
    OpType.CAST: _sig(OpType.CAST, 1, 1, attrs={"to": "float32"}, data_movement=True),
    OpType.DROPOUT: _sig(OpType.DROPOUT, 1, 1, attrs={"rate": 0.0}),

    OpType.BATCHNORM: _sig(OpType.BATCHNORM, 1, 5, attrs={"epsilon": 1e-5}),
    OpType.LAYERNORM: _sig(OpType.LAYERNORM, 1, 3, attrs={"epsilon": 1e-5}),
    OpType.SOFTMAX: _sig(OpType.SOFTMAX, 1, 1, attrs={"axis": -1}),

    OpType.RESHAPE: _sig(OpType.RESHAPE, 1, 1, attrs={"shape": None}, data_movement=True),
    OpType.TRANSPOSE: _sig(OpType.TRANSPOSE, 1, 1, attrs={"perm": None}, data_movement=True),
    OpType.CONCAT: _sig(OpType.CONCAT, 2, 64, attrs={"axis": 0}, data_movement=True),
    OpType.SPLIT: _sig(OpType.SPLIT, 1, 1, outs=2, attrs={"axis": 0, "parts": 2}, data_movement=True),
    OpType.SLICE: _sig(OpType.SLICE, 1, 1, attrs={"axis": 0, "start": 0, "end": None}, data_movement=True),
    OpType.SQUEEZE: _sig(OpType.SQUEEZE, 1, 1, attrs={"axis": 0}, data_movement=True),
    OpType.UNSQUEEZE: _sig(OpType.UNSQUEEZE, 1, 1, attrs={"axis": 0}, data_movement=True),
    OpType.FLATTEN: _sig(OpType.FLATTEN, 1, 1, data_movement=True),
    OpType.PAD: _sig(OpType.PAD, 1, 1, attrs={"pads": None}, data_movement=True),

    OpType.REDUCE_SUM: _sig(OpType.REDUCE_SUM, 1, 1, attrs={"axis": -1, "keepdims": False}),
    OpType.REDUCE_MEAN: _sig(OpType.REDUCE_MEAN, 1, 1, attrs={"axis": -1, "keepdims": False}),
    OpType.REDUCE_MAX: _sig(OpType.REDUCE_MAX, 1, 1, attrs={"axis": -1, "keepdims": False}),

    OpType.EMBEDDING: _sig(OpType.EMBEDDING, 2, 2),
    OpType.GATHER: _sig(OpType.GATHER, 2, 2, attrs={"axis": 0}),
    OpType.ENLARGE_CONV: _sig(OpType.ENLARGE_CONV, 2, 3, attrs={"kernel": 3}),
    OpType.FUSED_CONV_BN: _sig(OpType.FUSED_CONV_BN, 2, 7, attrs={"stride": 1, "padding": "same"}),
    OpType.FUSED_CONV_RELU: _sig(OpType.FUSED_CONV_RELU, 2, 3, attrs={"stride": 1, "padding": "same"}),
    OpType.FUSED_CONV_BN_RELU: _sig(OpType.FUSED_CONV_BN_RELU, 2, 7, attrs={"stride": 1, "padding": "same"}),
    OpType.FUSED_MATMUL_ADD: _sig(OpType.FUSED_MATMUL_ADD, 3, 3),
    OpType.NOOP: _sig(OpType.NOOP, 0, 0),
    OpType.CUSTOM: _sig(
        OpType.CUSTOM, 0, 64,
        attrs={"op": "", "shape": None, "dtype": "float32"},
    ),
}


# ---------------------------------------------------------------------------
# Shape inference
# ---------------------------------------------------------------------------

def _conv2d_output(inp: TensorSpec, weight: TensorSpec, attrs: Mapping) -> TensorSpec:
    """Shape inference for NCHW 2-D convolution.

    ``inp`` is ``[N, C_in, H, W]`` and ``weight`` is ``[C_out, C_in/groups, kh, kw]``.
    """
    n, _, h, w = inp.shape.dims
    c_out = weight.shape.dims[0]
    kh, kw = weight.shape.dims[2], weight.shape.dims[3]
    stride = int(attrs.get("stride", 1))
    padding = attrs.get("padding", "same")
    if padding == "same":
        oh = math.ceil(h / stride)
        ow = math.ceil(w / stride)
    else:  # "valid"
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"conv output collapsed to {oh}x{ow}")
    return TensorSpec(TensorShape((n, c_out, oh, ow)), inp.dtype)


def _pool_output(inp: TensorSpec, attrs: Mapping) -> TensorSpec:
    n, c, h, w = inp.shape.dims
    kernel = int(attrs.get("kernel", 2))
    stride = int(attrs.get("stride", kernel))
    padding = attrs.get("padding", "valid")
    if padding == "same":
        oh, ow = math.ceil(h / stride), math.ceil(w / stride)
    else:
        oh = (h - kernel) // stride + 1
        ow = (w - kernel) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"pool output collapsed to {oh}x{ow}")
    return TensorSpec(TensorShape((n, c, oh, ow)), inp.dtype)


def _matmul_output(a: TensorSpec, b: TensorSpec) -> TensorSpec:
    ad, bd = a.shape.dims, b.shape.dims
    if len(ad) < 2 or len(bd) < 2:
        raise ValueError(f"matmul requires rank>=2 inputs, got {ad} x {bd}")
    if ad[-1] != bd[-2]:
        raise ValueError(f"matmul inner-dim mismatch: {ad} x {bd}")
    # Batch dims broadcast elementwise (numpy semantics), not "whichever
    # operand has more of them" — the executor surfaced the difference.
    abatch, bbatch = ad[:-2], bd[:-2]
    rank = max(len(abatch), len(bbatch))
    abatch = (1,) * (rank - len(abatch)) + abatch
    bbatch = (1,) * (rank - len(bbatch)) + bbatch
    batch = []
    for x, y in zip(abatch, bbatch):
        if x != y and x != 1 and y != 1:
            raise ValueError(f"matmul batch-dim mismatch: {ad} x {bd}")
        batch.append(max(x, y))
    return TensorSpec(TensorShape(tuple(batch) + (ad[-2], bd[-1])), a.dtype)


def _broadcast_output(a: TensorSpec, b: TensorSpec) -> TensorSpec:
    ad, bd = a.shape.dims, b.shape.dims
    rank = max(len(ad), len(bd))
    ad = (1,) * (rank - len(ad)) + ad
    bd = (1,) * (rank - len(bd)) + bd
    out = []
    for x, y in zip(ad, bd):
        if x != y and x != 1 and y != 1:
            raise ValueError(f"cannot broadcast {a.shape} with {b.shape}")
        out.append(max(x, y))
    return TensorSpec(TensorShape(out), a.dtype)


def infer_output_spec(
    op_type: OpType,
    inputs: Sequence[TensorSpec],
    attrs: Optional[Mapping[str, object]] = None,
    output_index: int = 0,
) -> TensorSpec:
    """Infer the output :class:`TensorSpec` of an operator application.

    Raises ``ValueError`` when the inputs are not compatible with the
    operator; the substitution engine relies on this to reject ill-typed
    rewrites.  Pure and unmemoised: a graph infers a node once per distinct
    (op, input specs, attrs) per process, through its node-template table
    (``ir/graph.py::_TEMPLATES``).
    """
    if attrs is None:
        attrs = {}
    sig = OP_REGISTRY[op_type]
    sig.validate_arity(len(inputs))

    if op_type in SOURCE_OPS:
        shape = attrs.get("shape")
        if shape is None:
            raise ValueError(f"{op_type.value} requires a 'shape' attribute")
        return TensorSpec(
            TensorShape(shape),
            is_constant=op_type in (OpType.WEIGHT, OpType.CONSTANT),
        )

    if op_type is OpType.OUTPUT or op_type is OpType.IDENTITY or op_type is OpType.CAST:
        return inputs[0]
    if op_type is OpType.CUSTOM:
        # Opaque node: the importer *declares* the output spec; inference
        # only replays the declaration (stable under input rewiring).
        shape = attrs.get("shape")
        if shape is None:
            raise ValueError("Custom requires a declared 'shape' attribute")
        return TensorSpec(TensorShape(shape),
                          DataType(attrs.get("dtype", "float32")))
    if op_type is OpType.NOOP:
        return TensorSpec(TensorShape(()), DataType.FLOAT32)

    if op_type in ELEMENTWISE_UNARY or op_type in (
        OpType.BATCHNORM, OpType.LAYERNORM, OpType.SOFTMAX, OpType.DROPOUT, OpType.PAD
    ):
        if op_type is OpType.PAD and attrs.get("pads"):
            pads = attrs["pads"]
            dims = [d + pads[2 * i] + pads[2 * i + 1] for i, d in enumerate(inputs[0].shape.dims)]
            return inputs[0].with_shape(dims)
        return inputs[0]

    if op_type in ELEMENTWISE_BINARY:
        return _broadcast_output(inputs[0], inputs[1])

    if op_type in (OpType.MATMUL, OpType.BATCH_MATMUL):
        return _matmul_output(inputs[0], inputs[1])
    if op_type is OpType.FUSED_MATMUL_ADD:
        out = _matmul_output(inputs[0], inputs[1])
        return _broadcast_output(out, inputs[2])

    if op_type in (OpType.CONV2D, OpType.GROUP_CONV2D, OpType.DEPTHWISE_CONV2D,
                   OpType.ENLARGE_CONV, OpType.FUSED_CONV_BN, OpType.FUSED_CONV_RELU,
                   OpType.FUSED_CONV_BN_RELU):
        return _conv2d_output(inputs[0], inputs[1], attrs)

    if op_type in (OpType.MAXPOOL2D, OpType.AVGPOOL2D):
        return _pool_output(inputs[0], attrs)
    if op_type is OpType.GLOBAL_AVGPOOL:
        n, c = inputs[0].shape.dims[0], inputs[0].shape.dims[1]
        return TensorSpec(TensorShape((n, c)), inputs[0].dtype)

    if op_type is OpType.RESHAPE:
        target = attrs.get("shape")
        if target is None:
            raise ValueError("Reshape requires a 'shape' attribute")
        target_shape = TensorShape(target)
        if target_shape.num_elements != inputs[0].shape.num_elements:
            raise ValueError(
                f"reshape element mismatch: {inputs[0].shape} -> {target_shape}"
            )
        return inputs[0].with_shape(target_shape)

    if op_type is OpType.TRANSPOSE:
        perm = attrs.get("perm")
        dims = inputs[0].shape.dims
        if perm is None:
            perm = tuple(reversed(range(len(dims))))
        if sorted(perm) != list(range(len(dims))):
            raise ValueError(f"invalid transpose permutation {perm} for rank {len(dims)}")
        return inputs[0].with_shape([dims[p] for p in perm])

    if op_type is OpType.CONCAT:
        axis = int(attrs.get("axis", 0))
        out_shape = inputs[0].shape
        for other in inputs[1:]:
            out_shape = out_shape.concat(other.shape, axis)
        return inputs[0].with_shape(out_shape)

    if op_type is OpType.SPLIT:
        axis = int(attrs.get("axis", 0)) % inputs[0].shape.rank
        parts = int(attrs.get("parts", 2))
        dim = inputs[0].shape.dims[axis]
        if dim % parts != 0:
            raise ValueError(f"cannot split dim {dim} into {parts} equal parts")
        return inputs[0].with_shape(inputs[0].shape.with_dim(axis, dim // parts))

    if op_type is OpType.SLICE:
        axis = int(attrs.get("axis", 0)) % inputs[0].shape.rank
        start = int(attrs.get("start", 0))
        end = attrs.get("end")
        dim = inputs[0].shape.dims[axis]
        end = dim if end is None else int(end)
        if not (0 <= start < end <= dim):
            raise ValueError(f"invalid slice [{start}:{end}] of dim {dim}")
        return inputs[0].with_shape(inputs[0].shape.with_dim(axis, end - start))

    if op_type is OpType.SQUEEZE:
        axis = int(attrs.get("axis", 0)) % inputs[0].shape.rank
        dims = list(inputs[0].shape.dims)
        if dims[axis] != 1:
            raise ValueError(f"cannot squeeze non-unit dim {dims[axis]}")
        dims.pop(axis)
        return inputs[0].with_shape(dims)

    if op_type is OpType.UNSQUEEZE:
        axis = int(attrs.get("axis", 0))
        dims = list(inputs[0].shape.dims)
        axis = axis % (len(dims) + 1)
        dims.insert(axis, 1)
        return inputs[0].with_shape(dims)

    if op_type is OpType.FLATTEN:
        dims = inputs[0].shape.dims
        if not dims:
            return inputs[0].with_shape((1,))
        return inputs[0].with_shape((dims[0], int(math.prod(dims[1:])) or 1))

    if op_type in (OpType.REDUCE_SUM, OpType.REDUCE_MEAN, OpType.REDUCE_MAX):
        axis = int(attrs.get("axis", -1)) % inputs[0].shape.rank
        keepdims = bool(attrs.get("keepdims", False))
        dims = list(inputs[0].shape.dims)
        if keepdims:
            dims[axis] = 1
        else:
            # Reducing the only axis yields a scalar — the executed shape
            # is () (numpy drops the axis), not (1,).
            dims.pop(axis)
        return inputs[0].with_shape(dims)

    if op_type in (OpType.EMBEDDING, OpType.GATHER):
        # indices [..., L] gathering rows of a [V, D] table
        table, indices = inputs[0], inputs[1]
        if op_type is OpType.EMBEDDING:
            return TensorSpec(
                TensorShape(indices.shape.dims + (table.shape.dims[-1],)),
                table.dtype,
            )
        axis = int(attrs.get("axis", 0)) % table.shape.rank
        dims = list(table.shape.dims)
        dims[axis] = indices.shape.num_elements
        return table.with_shape(dims)

    raise NotImplementedError(f"shape inference missing for {op_type.value}")
