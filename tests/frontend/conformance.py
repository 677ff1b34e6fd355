"""Per-op importer conformance cases.

:data:`CONFORMANCE_CASES` maps every bridged default-domain ONNX op name to
a builder returning a minimal :class:`~repro.frontend.serialize.ModelSpec`
exercising that bridge.  The suite in ``tests/frontend`` imports each case
(asserting zero fallbacks and a correct executed shape) and the coverage
tool ``tools/check_import_coverage.py`` fails CI if a bridged op ever loses
its case here.

Keys match bridge-table registrations exactly — adding a bridge without a
matching case (or vice versa) is a test failure, not a silent gap.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.frontend.serialize import ModelSpec, TensorInfo
from zoo import SpecBuilder

__all__ = ["CONFORMANCE_CASES"]

CONFORMANCE_CASES: Dict[str, Callable[[], ModelSpec]] = {}


def case(op: str):
    def wrap(fn: Callable[[], ModelSpec]) -> Callable[[], ModelSpec]:
        CONFORMANCE_CASES[op] = fn
        return fn
    return wrap


def _binary(op: str) -> Callable[[], ModelSpec]:
    @case(op)
    def build() -> ModelSpec:
        b = SpecBuilder(f"conf-{op.lower()}")
        x = b.input("x", (2, 4))
        w = b.init("w", (2, 4))
        y = b.node(op, [x, w])
        b.output(y, (2, 4))
        return b.finish()
    return build


def _unary(op: str) -> Callable[[], ModelSpec]:
    @case(op)
    def build() -> ModelSpec:
        b = SpecBuilder(f"conf-{op.lower()}")
        x = b.input("x", (2, 4))
        y = b.node(op, [x])
        b.output(y, (2, 4))
        return b.finish()
    return build


for _op in ("Add", "Sub", "Mul", "Div"):
    _binary(_op)
for _op in ("Relu", "Gelu", "Sigmoid", "Tanh", "Exp", "Sqrt", "Erf",
            "Identity", "Neg"):
    _unary(_op)


@case("MatMul")
def _matmul() -> ModelSpec:
    b = SpecBuilder("conf-matmul")
    x = b.input("x", (2, 8))
    w = b.init("w", (8, 4))
    y = b.node("MatMul", [x, w])
    b.output(y, (2, 4))
    return b.finish()


@case("Gemm")
def _gemm() -> ModelSpec:
    b = SpecBuilder("conf-gemm")
    x = b.input("x", (2, 8))
    w = b.init("w", (4, 8))
    bias = b.init("b", (4,))
    y = b.node("Gemm", [x, w, bias], {"transB": 1})
    b.output(y, (2, 4))
    return b.finish()


@case("Conv")
def _conv() -> ModelSpec:
    b = SpecBuilder("conf-conv")
    x = b.input("x", (1, 3, 8, 8))
    w = b.init("w", (4, 3, 3, 3))
    y = b.node("Conv", [x, w], {"kernel_shape": (3, 3), "strides": (1, 1),
                                "auto_pad": "SAME_UPPER"})
    b.output(y, (1, 4, 8, 8))
    return b.finish()


@case("BatchNormalization")
def _batchnorm() -> ModelSpec:
    b = SpecBuilder("conf-batchnorm")
    x = b.input("x", (1, 4, 8, 8))
    args = [b.init(n, (4,)) for n in ("scale", "bias", "mean", "var")]
    y = b.node("BatchNormalization", [x] + args, {"epsilon": 1e-5})
    b.output(y, (1, 4, 8, 8))
    return b.finish()


@case("LayerNormalization")
def _layernorm() -> ModelSpec:
    b = SpecBuilder("conf-layernorm")
    x = b.input("x", (2, 8, 16))
    scale = b.init("scale", (16,))
    bias = b.init("bias", (16,))
    y = b.node("LayerNormalization", [x, scale, bias],
               {"epsilon": 1e-5, "axis": -1})
    b.output(y, (2, 8, 16))
    return b.finish()


@case("Softmax")
def _softmax() -> ModelSpec:
    b = SpecBuilder("conf-softmax")
    x = b.input("x", (2, 8))
    y = b.node("Softmax", [x], {"axis": -1})
    b.output(y, (2, 8))
    return b.finish()


@case("MaxPool")
def _maxpool() -> ModelSpec:
    b = SpecBuilder("conf-maxpool")
    x = b.input("x", (1, 4, 8, 8))
    y = b.node("MaxPool", [x], {"kernel_shape": (2, 2), "strides": (2, 2)})
    b.output(y, (1, 4, 4, 4))
    return b.finish()


@case("AveragePool")
def _avgpool() -> ModelSpec:
    b = SpecBuilder("conf-avgpool")
    x = b.input("x", (1, 4, 8, 8))
    y = b.node("AveragePool", [x],
               {"kernel_shape": (2, 2), "strides": (2, 2)})
    b.output(y, (1, 4, 4, 4))
    return b.finish()


@case("GlobalAveragePool")
def _global_avgpool() -> ModelSpec:
    b = SpecBuilder("conf-globalavgpool")
    x = b.input("x", (1, 4, 8, 8))
    y = b.node("GlobalAveragePool", [x])
    b.output(y, (1, 4, 1, 1))
    return b.finish()


@case("Reshape")
def _reshape() -> ModelSpec:
    b = SpecBuilder("conf-reshape")
    x = b.input("x", (2, 8))
    y = b.node("Reshape", [x, b.const_shape((4, -1))])
    b.output(y, (4, 4))
    return b.finish()


@case("Transpose")
def _transpose() -> ModelSpec:
    b = SpecBuilder("conf-transpose")
    x = b.input("x", (2, 8))
    y = b.node("Transpose", [x], {"perm": (1, 0)})
    b.output(y, (8, 2))
    return b.finish()


@case("Concat")
def _concat() -> ModelSpec:
    b = SpecBuilder("conf-concat")
    x = b.input("x", (2, 4))
    w = b.init("w", (2, 4))
    y = b.node("Concat", [x, w], {"axis": -1})
    b.output(y, (2, 8))
    return b.finish()


@case("Split")
def _split() -> ModelSpec:
    b = SpecBuilder("conf-split")
    x = b.input("x", (2, 8))
    lhs, rhs = b.node("Split", [x], {"axis": 1}, num_outputs=2)
    b.output(lhs, (2, 4))
    b.output(rhs, (2, 4))
    return b.finish()


@case("Slice")
def _slice() -> ModelSpec:
    b = SpecBuilder("conf-slice")
    x = b.input("x", (2, 8))
    starts = b.init("starts", (1,), "int64", [2])
    ends = b.init("ends", (1,), "int64", [6])
    axes = b.init("axes", (1,), "int64", [1])
    y = b.node("Slice", [x, starts, ends, axes])
    b.output(y, (2, 4))
    return b.finish()


@case("Squeeze")
def _squeeze() -> ModelSpec:
    b = SpecBuilder("conf-squeeze")
    x = b.input("x", (2, 1, 4))
    axes = b.init("axes", (1,), "int64", [1])
    y = b.node("Squeeze", [x, axes])
    b.output(y, (2, 4))
    return b.finish()


@case("Unsqueeze")
def _unsqueeze() -> ModelSpec:
    b = SpecBuilder("conf-unsqueeze")
    x = b.input("x", (2, 4))
    y = b.node("Unsqueeze", [x], {"axes": (0,)})
    b.output(y, (1, 2, 4))
    return b.finish()


@case("Flatten")
def _flatten() -> ModelSpec:
    b = SpecBuilder("conf-flatten")
    x = b.input("x", (2, 4, 3))
    y = b.node("Flatten", [x], {"axis": 1})
    b.output(y, (2, 12))
    return b.finish()


@case("Pad")
def _pad() -> ModelSpec:
    b = SpecBuilder("conf-pad")
    x = b.input("x", (2, 4))
    # ONNX layout: [begin_0, begin_1, end_0, end_1]
    y = b.node("Pad", [x], {"mode": "constant", "pads": (0, 1, 0, 1)})
    b.output(y, (2, 6))
    return b.finish()


def _reduce_case(op: str) -> Callable[[], ModelSpec]:
    @case(op)
    def build() -> ModelSpec:
        b = SpecBuilder(f"conf-{op.lower()}")
        x = b.input("x", (2, 4, 8))
        y = b.node(op, [x], {"axes": (1,), "keepdims": 0})
        b.output(y, (2, 8))
        return b.finish()
    return build


for _op in ("ReduceSum", "ReduceMean", "ReduceMax"):
    _reduce_case(_op)


@case("Gather")
def _gather() -> ModelSpec:
    b = SpecBuilder("conf-gather")
    table = b.init("table", (16, 8))
    idx = b.input("idx", (2, 4), "int64")
    y = b.node("Gather", [table, idx], {"axis": 0})
    b.output(y, (2, 4, 8))
    return b.finish()


@case("Cast")
def _cast() -> ModelSpec:
    b = SpecBuilder("conf-cast")
    x = b.input("x", (2, 4))
    y = b.node("Cast", [x], {"to": 6})  # ONNX enum 6 == int32
    b.output(y, (2, 4), "int32")
    return b.finish()


@case("Dropout")
def _dropout() -> ModelSpec:
    b = SpecBuilder("conf-dropout")
    x = b.input("x", (2, 4))
    y = b.node("Dropout", [x], {"ratio": 0.5})
    b.output(y, (2, 4))
    return b.finish()


@case("Pow")
def _pow() -> ModelSpec:
    b = SpecBuilder("conf-pow")
    x = b.input("x", (2, 4))
    exp = b.init("exp", (1,), data=[2.0])
    y = b.node("Pow", [x, exp])
    b.output(y, (2, 4))
    return b.finish()


@case("Constant")
def _constant() -> ModelSpec:
    b = SpecBuilder("conf-constant")
    x = b.input("x", (2, 4))
    c = b.node("Constant", [],
               {"value": TensorInfo("c_val", (2, 4), "float32",
                                    tuple(float(i) for i in range(8)))})
    y = b.node("Add", [x, c])
    b.output(y, (2, 4))
    return b.finish()
