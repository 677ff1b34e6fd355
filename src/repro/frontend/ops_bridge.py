"""Declarative ONNX-op -> IR bridge table.

Every supported foreign operator gets one :class:`OpBridge` entry keyed on
``(domain, op_type)``.  A bridge is a small handler that translates one
:class:`~repro.frontend.serialize.NodeSpec` into IR nodes on an
:class:`ImportContext` — renaming attributes, adapting shape/dtype
conventions, or lowering a single foreign node into several IR nodes
(Gemm -> Transpose+MatMul+Add, GlobalAveragePool -> GlobalAvgPool+Reshape).

Two invariants keep imported graphs indistinguishable from built ones:

* **Attribute exactness.**  The structural hash stringifies attrs, so a
  bridge must reconstruct exactly the attr dict the corresponding
  :class:`~repro.ir.builder.GraphBuilder` method would have produced —
  same key set, tuples not lists, real bools not 0/1.  This is what makes
  the export -> import round-trip hash-identical.

* **Honest failure.**  A bridge that cannot express a node faithfully
  raises :class:`UnsupportedOp`; the importer then degrades the node to an
  opaque ``Custom`` fallback (declared output shape, counted pass-through)
  instead of mistranslating it.

Ops the IR can represent but ONNX cannot (fused ops, ``EnlargeConv``,
2-rank ``GlobalAvgPool``, opaque ``Custom`` nodes) travel under the
custom :data:`~repro.frontend.serialize.REPRO_DOMAIN` operator set; their
bridges reconstruct the IR node verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir.graph import Graph, NodeId
from ..ir.ops import OpType
from ..ir.tensor import TensorSpec
from .serialize import REPRO_DOMAIN, NodeSpec, TensorInfo

__all__ = ["BRIDGE", "OpBridge", "ImportContext", "ImportError_",
           "UnsupportedOp", "register", "bridged_ops"]


class ImportError_(Exception):
    """A malformed graph, or in strict mode a node that cannot be bridged."""


class UnsupportedOp(Exception):
    """A bridge declining a node it cannot translate faithfully."""


@dataclass(frozen=True)
class OpBridge:
    """One row of the bridge table."""

    op_type: str
    domain: str
    handler: Callable[["ImportContext", NodeSpec], None]
    #: One-line lowering description for the coverage report.
    summary: str = ""


#: ``(domain, op_type) -> OpBridge``.  "" is the default ONNX domain.
BRIDGE: Dict[Tuple[str, str], OpBridge] = {}


def register(op_type: str, domain: str = "", summary: str = ""):
    """Class-level decorator adding a handler to :data:`BRIDGE`."""
    def deco(fn):
        BRIDGE[(domain, op_type)] = OpBridge(op_type, domain, fn, summary)
        return fn
    return deco


def bridged_ops(domain: str = "") -> List[str]:
    """Sorted op names bridged for ``domain``."""
    return sorted(op for (dom, op) in BRIDGE if dom == domain)


def _f32(value: float) -> float:
    """Undo float32 quantisation from the protobuf wire format.

    ``AttributeProto.f`` is a single-precision float, so ``0.1`` arrives
    as ``0.10000000149...``; six significant digits recover every
    human-entered constant and keep attr stringification (and therefore
    structural hashes) stable across a protobuf round-trip.
    """
    return float(f"{float(value):.6g}")


# ---------------------------------------------------------------------------
# Import context
# ---------------------------------------------------------------------------

class ImportContext:
    """Mutable state threaded through the bridges while importing a graph.

    Maps ONNX *value names* onto IR ``(node_id, output_slot)`` pairs.
    Initializers and Constant-node payloads are registered as *pending
    sources* and only materialised into Weight/Constant nodes when some
    bridge actually consumes them as tensors — values consumed as
    attribute data (Reshape targets, Slice bounds) never become nodes.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.env: Dict[str, Tuple[NodeId, int]] = {}
        #: value name -> flat numeric payload, for shape-feeding inputs.
        self.const_data: Dict[str, Tuple[float, ...]] = {}
        #: pending sources: value name -> (op_type, dims, dtype)
        self._pending: Dict[str, Tuple[OpType, Tuple[int, ...], str]] = {}
        self.notes: List[str] = []
        #: True when re-importing our own export (source_ranks present).
        #: Bridges then reconstruct only attrs the file actually carries,
        #: instead of materialising ONNX defaults — the original IR node
        #: may have relied on registry defaults, and hash fidelity demands
        #: the same omissions.  Foreign files keep the explicit defaults
        #: (ONNX and IR defaults disagree, e.g. zero-pad vs "same").
        self.faithful = False

    # -- sources -----------------------------------------------------------
    def add_initializer(self, tensor: TensorInfo) -> None:
        self._pending[tensor.name] = (OpType.WEIGHT, tuple(tensor.dims),
                                      tensor.dtype)
        if tensor.data is not None:
            self.const_data[tensor.name] = tuple(tensor.data)

    def add_constant(self, name: str, dims: Sequence[int],
                     data: Optional[Sequence[float]], dtype: str) -> None:
        self._pending[name] = (OpType.CONSTANT, tuple(dims), dtype)
        if data is not None:
            self.const_data[name] = tuple(data)

    def add_input(self, name: str, dims: Sequence[int], dtype: str) -> None:
        # Lazy like every other source: the Input node is created at first
        # consumption, so imported node ids follow consumption order and
        # the memoised topological order matches builder-constructed graphs.
        self._pending[name] = (OpType.INPUT, tuple(dims), dtype)

    def touch_graph_inputs(self, names: Sequence[str]) -> None:
        """Materialise pending graph Inputs among ``names``, in order.

        Called before each node is bridged: a model author necessarily
        creates an Input before the op (and the op's inline weights) that
        consumes it, so Inputs must claim their node ids before any
        sibling Weight operand does — this keeps the imported graph's
        topological order, and therefore its structural hash, aligned
        with builder-constructed graphs (the Embedding op consumes
        ``(table, indices)``, which would otherwise flip the order).
        """
        for name in names:
            pending = self._pending.get(name)
            if pending is not None and pending[0] is OpType.INPUT:
                self.value(name)

    # -- lookups -----------------------------------------------------------
    def has(self, name: str) -> bool:
        return bool(name) and (name in self.env or name in self._pending)

    def value(self, name: str) -> Tuple[NodeId, int]:
        """Resolve ``name`` to an IR input, materialising pending sources."""
        if name in self.env:
            return self.env[name]
        pending = self._pending.pop(name, None)
        if pending is None:
            raise UnsupportedOp(f"undefined value '{name}'")
        op_type, dims, dtype = pending
        nid = self.graph.add_node(op_type, (), {"shape": dims}, name)
        if dtype not in ("float32", "float64"):
            self.note(f"{op_type.value.lower()} '{name}' dtype {dtype} "
                      "coerced to float32")
        self.env[name] = (nid, 0)
        return self.env[name]

    def spec(self, name: str) -> TensorSpec:
        """Output spec of the value behind ``name`` (materialises it)."""
        nid, slot = self.value(name)
        return self.graph.nodes[nid].outputs[slot]

    def dims(self, name: str) -> Tuple[int, ...]:
        """Declared dims of ``name`` without materialising a node."""
        if name in self._pending:
            return self._pending[name][1]
        return tuple(self.spec(name).shape.dims)

    def const_ints(self, name: str) -> Optional[Tuple[int, ...]]:
        """Integer payload of ``name`` if it is a known constant."""
        data = self.const_data.get(name)
        if data is None:
            return None
        return tuple(int(v) for v in data)

    def const_floats(self, name: str) -> Optional[Tuple[float, ...]]:
        data = self.const_data.get(name)
        if data is None:
            return None
        return tuple(float(v) for v in data)

    # -- emission ----------------------------------------------------------
    def emit(self, op_type: OpType, inputs: Sequence, attrs=None,
             name: str = "") -> NodeId:
        """Add an IR node; shape-inference errors become UnsupportedOp."""
        try:
            return self.graph.add_node(op_type, tuple(inputs),
                                       dict(attrs or {}), name)
        except (ValueError, NotImplementedError) as exc:
            raise UnsupportedOp(str(exc)) from exc

    def bind(self, name: str, nid: NodeId, slot: int = 0) -> None:
        if name:
            self.env[name] = (nid, slot)

    def note(self, message: str) -> None:
        self.notes.append(message)


# ---------------------------------------------------------------------------
# Shared attribute helpers
# ---------------------------------------------------------------------------

def _square(values, what: str) -> int:
    values = tuple(int(v) for v in values)
    if len(values) != 2 or values[0] != values[1]:
        raise UnsupportedOp(f"non-square {what} {values}")
    return values[0]


def _padding_mode(node: NodeSpec, kernel: int) -> str:
    """Map ONNX padding attrs onto the IR's "same"/"valid" vocabulary."""
    auto_pad = node.attrs.get("auto_pad", "NOTSET")
    if auto_pad in ("SAME_UPPER", "SAME_LOWER"):
        return "same"
    if auto_pad == "VALID":
        return "valid"
    pads = tuple(int(p) for p in node.attrs.get("pads", ()))
    if not pads or not any(pads):
        return "valid"
    if all(p == (kernel - 1) // 2 for p in pads) and kernel % 2 == 1:
        return "same"
    raise UnsupportedOp(f"asymmetric pads {pads} for kernel {kernel}")


def _single_axis(ctx: ImportContext, node: NodeSpec, input_index: int = 1,
                 attr: str = "axes") -> int:
    """Resolve a one-element ``axes`` list from attr or const input."""
    axes = node.attrs.get(attr)
    if axes is None and len(node.inputs) > input_index:
        axes = ctx.const_ints(node.inputs[input_index])
    if axes is None:
        raise UnsupportedOp("axes unavailable (dynamic or defaulted)")
    axes = tuple(int(a) for a in axes)
    if len(axes) != 1:
        raise UnsupportedOp(f"multi-axis {axes} unsupported")
    return axes[0]


# ---------------------------------------------------------------------------
# Default-domain bridges: dense linear algebra
# ---------------------------------------------------------------------------

@register("Conv", summary="group attr dispatches Conv2D/GroupConv2D/DepthwiseConv2D")
def _conv(ctx: ImportContext, node: NodeSpec) -> None:
    x = ctx.value(node.inputs[0])
    w = ctx.value(node.inputs[1])
    x_dims = ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims
    w_dims = ctx.graph.nodes[w[0]].outputs[w[1]].shape.dims
    if len(x_dims) != len(w_dims) or len(w_dims) < 3:
        # ONNX Conv takes X and W of equal rank >= 3: anything else is a
        # malformed node, not a convolution to fall back on.
        raise ImportError_(
            f"Conv node '{node.name or node.outputs[0]}': input of rank "
            f"{len(x_dims)} against a weight of rank {len(w_dims)} (ONNX "
            "Conv needs both of the same rank, at least 3)")
    if any(int(d) != 1 for d in node.attrs.get("dilations", (1, 1))):
        raise UnsupportedOp("dilated convolution")
    if len(w_dims) != 4:
        raise UnsupportedOp(f"non-2D convolution weight {w_dims}")
    kernel = _square(node.attrs.get("kernel_shape", w_dims[2:4]), "kernel")
    stride = _square(node.attrs.get("strides", (1, 1)), "strides")
    padding = _padding_mode(node, kernel)
    group = int(node.attrs.get("group", 1))
    inputs = [x, w]
    if len(node.inputs) > 2 and ctx.has(node.inputs[2]):
        inputs.append(ctx.value(node.inputs[2]))
    in_channels = x_dims[1]
    attrs = {"stride": stride, "padding": padding, "kernel": kernel}
    if group == 1:
        op = OpType.CONV2D
    elif group == in_channels and w_dims[1] == 1:
        op = OpType.DEPTHWISE_CONV2D
    else:
        op = OpType.GROUP_CONV2D
        attrs["groups"] = group
    if ctx.faithful:
        if "kernel_shape" not in node.attrs:
            attrs.pop("kernel")
        if "strides" not in node.attrs:
            attrs.pop("stride")
        if "auto_pad" not in node.attrs and "pads" not in node.attrs:
            attrs.pop("padding")
    nid = ctx.emit(op, inputs, attrs, node.name)
    ctx.bind(node.outputs[0], nid)


@register("MatMul", summary="rank>2 on both sides selects BatchMatMul")
def _matmul(ctx: ImportContext, node: NodeSpec) -> None:
    a = ctx.value(node.inputs[0])
    b = ctx.value(node.inputs[1])
    # Rank-3 activations times a rank-2 weight is how the builder spells
    # Linear layers: that stays MatMul.  Only a genuinely batched product
    # (batch dims on both operands) becomes BatchMatMul.
    rank = min(len(ctx.graph.nodes[a[0]].outputs[a[1]].shape.dims),
               len(ctx.graph.nodes[b[0]].outputs[b[1]].shape.dims))
    op = OpType.BATCH_MATMUL if rank > 2 else OpType.MATMUL
    nid = ctx.emit(op, [a, b], name=node.name)
    ctx.bind(node.outputs[0], nid)


@register("Gemm", summary="lowered to [Transpose+]MatMul+Add (alpha=beta=1)")
def _gemm(ctx: ImportContext, node: NodeSpec) -> None:
    if _f32(node.attrs.get("alpha", 1.0)) != 1.0:
        raise UnsupportedOp("Gemm alpha != 1")
    if _f32(node.attrs.get("beta", 1.0)) != 1.0:
        raise UnsupportedOp("Gemm beta != 1")
    if int(node.attrs.get("transA", 0)):
        raise UnsupportedOp("Gemm transA")
    a = ctx.value(node.inputs[0])
    b = ctx.value(node.inputs[1])
    if int(node.attrs.get("transB", 0)):
        b = (ctx.emit(OpType.TRANSPOSE, [b], name=f"{node.name}_transB"), 0)
        ctx.note(f"Gemm '{node.name}': transB lowered to explicit Transpose")
    out = ctx.emit(OpType.MATMUL, [a, b], name=node.name)
    if len(node.inputs) > 2 and ctx.has(node.inputs[2]):
        out = ctx.emit(OpType.ADD, [out, ctx.value(node.inputs[2])],
                       name=f"{node.name}_bias")
    ctx.bind(node.outputs[0], out)


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------

def _register_binary(onnx_op: str, op_type: OpType) -> None:
    @register(onnx_op, summary="elementwise with numpy broadcasting")
    def handler(ctx: ImportContext, node: NodeSpec,
                _op: OpType = op_type) -> None:
        nid = ctx.emit(_op, [ctx.value(node.inputs[0]),
                             ctx.value(node.inputs[1])], name=node.name)
        ctx.bind(node.outputs[0], nid)


def _register_unary(onnx_op: str, op_type: OpType, summary: str = "") -> None:
    @register(onnx_op, summary=summary or "direct unary mapping")
    def handler(ctx: ImportContext, node: NodeSpec,
                _op: OpType = op_type) -> None:
        nid = ctx.emit(_op, [ctx.value(node.inputs[0])], name=node.name)
        ctx.bind(node.outputs[0], nid)


for _name, _op in (("Add", OpType.ADD), ("Sub", OpType.SUB),
                   ("Mul", OpType.MUL), ("Div", OpType.DIV)):
    _register_binary(_name, _op)

for _name, _op in (("Relu", OpType.RELU), ("Gelu", OpType.GELU),
                   ("Sigmoid", OpType.SIGMOID), ("Tanh", OpType.TANH),
                   ("Exp", OpType.EXP), ("Sqrt", OpType.SQRT),
                   ("Erf", OpType.ERF), ("Identity", OpType.IDENTITY)):
    _register_unary(_name, _op)


@register("Cast", summary="'to' dtype enum renamed to IR dtype string")
def _cast(ctx: ImportContext, node: NodeSpec) -> None:
    to = node.attrs.get("to", 1)
    dtype = {1: "float32", 6: "int32", 7: "int64", 9: "bool",
             10: "float16"}.get(int(to) if not isinstance(to, str) else 0,
                                to if isinstance(to, str) else "float32")
    nid = ctx.emit(OpType.CAST, [ctx.value(node.inputs[0])],
                   {"to": dtype}, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Dropout", summary="ratio attr/input becomes 'rate'; mask output unsupported")
def _dropout(ctx: ImportContext, node: NodeSpec) -> None:
    rate: Optional[float] = _f32(node.attrs.get("ratio", 0.5))
    if len(node.inputs) > 1 and node.inputs[1]:
        ratio = ctx.const_floats(node.inputs[1])
        if ratio is None:
            raise UnsupportedOp("dynamic dropout ratio")
        rate = _f32(ratio[0])
    elif ctx.faithful and "ratio" not in node.attrs:
        rate = None  # the original node relied on the registry default
    attrs = {} if rate is None else {"rate": rate}
    nid = ctx.emit(OpType.DROPOUT, [ctx.value(node.inputs[0])],
                   attrs, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Pow", summary="const exponent 2 -> Mul(x,x); 0.5 -> Sqrt; 1 -> Identity")
def _pow(ctx: ImportContext, node: NodeSpec) -> None:
    exponent = ctx.const_floats(node.inputs[1])
    if exponent is None or len(exponent) != 1:
        raise UnsupportedOp("non-constant Pow exponent")
    x = ctx.value(node.inputs[0])
    exp = exponent[0]
    if exp == 2.0:
        nid = ctx.emit(OpType.MUL, [x, x], name=node.name)
        ctx.note(f"Pow '{node.name}': x**2 lowered to Mul(x, x)")
    elif exp == 0.5:
        nid = ctx.emit(OpType.SQRT, [x], name=node.name)
    elif exp == 1.0:
        nid = ctx.emit(OpType.IDENTITY, [x], name=node.name)
    else:
        raise UnsupportedOp(f"Pow exponent {exp}")
    ctx.bind(node.outputs[0], nid)


@register("Neg", summary="lowered to Mul by a -1 constant")
def _neg(ctx: ImportContext, node: NodeSpec) -> None:
    x = ctx.value(node.inputs[0])
    neg_one = ctx.emit(OpType.CONSTANT, [], {"shape": (1,)},
                       f"{node.name}_neg1")
    nid = ctx.emit(OpType.MUL, [x, (neg_one, 0)], name=node.name)
    ctx.note(f"Neg '{node.name}': lowered to Mul by -1 constant")
    ctx.bind(node.outputs[0], nid)


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------

def _epsilon_attrs(node: NodeSpec) -> Dict[str, object]:
    # The builder stores no attrs for the default epsilon; matching that
    # exactly keeps imported graphs hash-identical to built ones.
    epsilon = _f32(node.attrs.get("epsilon", 1e-5))
    return {} if epsilon == 1e-5 else {"epsilon": epsilon}


@register("BatchNormalization",
          summary="(x, scale, bias) kept; running mean/var inputs dropped")
def _batchnorm(ctx: ImportContext, node: NodeSpec) -> None:
    if any(name for name in node.outputs[1:]):
        raise UnsupportedOp("training-mode BatchNormalization outputs")
    inputs = [ctx.value(node.inputs[0])]
    for name in node.inputs[1:3]:
        inputs.append(ctx.value(name))
    if len(node.inputs) > 3:
        ctx.note(f"BatchNormalization '{node.name}': running statistics "
                 "inputs dropped (inference-time folding)")
    nid = ctx.emit(OpType.BATCHNORM, inputs, _epsilon_attrs(node), node.name)
    ctx.bind(node.outputs[0], nid)


@register("LayerNormalization", summary="last-axis only; (x, scale, bias) inputs")
def _layernorm(ctx: ImportContext, node: NodeSpec) -> None:
    axis = int(node.attrs.get("axis", -1))
    x = ctx.value(node.inputs[0])
    rank = len(ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims)
    if axis not in (-1, rank - 1):
        raise UnsupportedOp(f"LayerNormalization over axis {axis}")
    inputs = [x] + [ctx.value(n) for n in node.inputs[1:3] if n]
    nid = ctx.emit(OpType.LAYERNORM, inputs, _epsilon_attrs(node), node.name)
    ctx.bind(node.outputs[0], nid)


@register("Softmax", summary="axis attr (default -1) stored explicitly")
def _softmax(ctx: ImportContext, node: NodeSpec) -> None:
    nid = ctx.emit(OpType.SOFTMAX, [ctx.value(node.inputs[0])],
                   {"axis": int(node.attrs.get("axis", -1))}, node.name)
    ctx.bind(node.outputs[0], nid)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def _pool(ctx: ImportContext, node: NodeSpec, op_type: OpType) -> None:
    if int(node.attrs.get("ceil_mode", 0)):
        raise UnsupportedOp("ceil_mode pooling")
    if len(node.outputs) > 1 and node.outputs[1]:
        raise UnsupportedOp("pooling indices output")
    kernel = _square(node.attrs["kernel_shape"], "kernel")
    stride = _square(node.attrs.get("strides", (1, 1)), "strides")
    padding = _padding_mode(node, kernel)
    nid = ctx.emit(op_type, [ctx.value(node.inputs[0])],
                   {"kernel": kernel, "stride": stride, "padding": padding},
                   node.name)
    ctx.bind(node.outputs[0], nid)


@register("MaxPool", summary="square windows; ceil_mode/indices unsupported")
def _maxpool(ctx: ImportContext, node: NodeSpec) -> None:
    _pool(ctx, node, OpType.MAXPOOL2D)


@register("AveragePool", summary="square windows; count_include_pad ignored")
def _avgpool(ctx: ImportContext, node: NodeSpec) -> None:
    if int(node.attrs.get("count_include_pad", 0)):
        ctx.note(f"AveragePool '{node.name}': count_include_pad ignored")
    _pool(ctx, node, OpType.AVGPOOL2D)


@register("GlobalAveragePool",
          summary="lowered to GlobalAvgPool + Reshape back to [N,C,1,1]")
def _global_avgpool(ctx: ImportContext, node: NodeSpec) -> None:
    x = ctx.value(node.inputs[0])
    dims = ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims
    if len(dims) != 4:
        raise UnsupportedOp(f"GlobalAveragePool on rank-{len(dims)} input")
    pooled = ctx.emit(OpType.GLOBAL_AVGPOOL, [x], name=node.name)
    nid = ctx.emit(OpType.RESHAPE, [pooled],
                   {"shape": (dims[0], dims[1], 1, 1)},
                   f"{node.name}_nchw")
    ctx.note(f"GlobalAveragePool '{node.name}': IR op emits [N,C]; "
             "Reshape restores [N,C,1,1]")
    ctx.bind(node.outputs[0], nid)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

@register("Reshape", summary="constant shape input resolved (0/-1 expanded)")
def _reshape(ctx: ImportContext, node: NodeSpec) -> None:
    target = node.attrs.get("shape")
    if target is None and len(node.inputs) > 1:
        target = ctx.const_ints(node.inputs[1])
    if target is None:
        raise UnsupportedOp("dynamic Reshape target")
    x = ctx.value(node.inputs[0])
    in_dims = ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims
    dims = [int(d) for d in target]
    for i, d in enumerate(dims):
        if d == 0:
            if int(node.attrs.get("allowzero", 0)):
                raise UnsupportedOp("Reshape allowzero")
            dims[i] = in_dims[i]
    if dims.count(-1) > 1:
        raise UnsupportedOp(f"Reshape target {dims}")
    if -1 in dims:
        known = 1
        for d in dims:
            if d != -1:
                known *= d
        total = 1
        for d in in_dims:
            total *= d
        dims[dims.index(-1)] = total // max(known, 1)
    nid = ctx.emit(OpType.RESHAPE, [x], {"shape": tuple(dims)}, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Transpose", summary="perm kept; ONNX and IR share the reverse default")
def _transpose(ctx: ImportContext, node: NodeSpec) -> None:
    perm = node.attrs.get("perm")
    attrs = {"perm": tuple(int(p) for p in perm)} if perm is not None else {}
    nid = ctx.emit(OpType.TRANSPOSE, [ctx.value(node.inputs[0])],
                   attrs, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Concat", summary="negative axis normalised against input rank")
def _concat(ctx: ImportContext, node: NodeSpec) -> None:
    inputs = [ctx.value(n) for n in node.inputs]
    rank = len(ctx.graph.nodes[inputs[0][0]].outputs[inputs[0][1]].shape.dims)
    axis = int(node.attrs.get("axis", 0)) % rank
    nid = ctx.emit(OpType.CONCAT, inputs, {"axis": axis}, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Split", summary="two equal parts only (the IR's Split arity)")
def _split(ctx: ImportContext, node: NodeSpec) -> None:
    if len(node.outputs) != 2:
        raise UnsupportedOp(f"{len(node.outputs)}-way Split")
    sizes = node.attrs.get("split")
    if sizes is None and len(node.inputs) > 1:
        sizes = ctx.const_ints(node.inputs[1])
    x = ctx.value(node.inputs[0])
    rank = len(ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims)
    axis = int(node.attrs.get("axis", 0)) % rank
    if sizes is not None and len(set(int(s) for s in sizes)) != 1:
        raise UnsupportedOp(f"unequal Split sizes {tuple(sizes)}")
    nid = ctx.emit(OpType.SPLIT, [x], {"axis": axis, "parts": 2}, node.name)
    ctx.bind(node.outputs[0], nid, 0)
    ctx.bind(node.outputs[1], nid, 1)


@register("Slice", summary="single axis, unit step, constant bounds")
def _slice(ctx: ImportContext, node: NodeSpec) -> None:
    if len(node.inputs) >= 3:  # opset >= 10: bounds travel as inputs
        starts = ctx.const_ints(node.inputs[1])
        ends = ctx.const_ints(node.inputs[2])
        axes = (ctx.const_ints(node.inputs[3])
                if len(node.inputs) > 3 and node.inputs[3] else None)
        steps = (ctx.const_ints(node.inputs[4])
                 if len(node.inputs) > 4 and node.inputs[4] else None)
    else:  # opset 1 attribute form
        starts = node.attrs.get("starts")
        ends = node.attrs.get("ends")
        axes = node.attrs.get("axes")
        steps = None
    if starts is None or ends is None:
        raise UnsupportedOp("dynamic Slice bounds")
    if len(starts) != 1 or len(ends) != 1:
        raise UnsupportedOp("multi-axis Slice")
    if steps is not None and tuple(int(s) for s in steps) != (1,):
        raise UnsupportedOp(f"strided Slice {tuple(steps)}")
    x = ctx.value(node.inputs[0])
    dims = ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims
    axis = int(axes[0]) % len(dims) if axes is not None else 0
    dim = dims[axis]
    start = int(starts[0])
    end = int(ends[0])
    start = max(start + dim, 0) if start < 0 else min(start, dim)
    end = max(end + dim, 0) if end < 0 else min(end, dim)
    nid = ctx.emit(OpType.SLICE, [x],
                   {"axis": axis, "start": start, "end": end}, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Squeeze", summary="single constant axis")
def _squeeze(ctx: ImportContext, node: NodeSpec) -> None:
    x = ctx.value(node.inputs[0])
    rank = len(ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims)
    axis = _single_axis(ctx, node) % rank
    nid = ctx.emit(OpType.SQUEEZE, [x], {"axis": axis}, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Unsqueeze", summary="single constant axis")
def _unsqueeze(ctx: ImportContext, node: NodeSpec) -> None:
    x = ctx.value(node.inputs[0])
    rank = len(ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims)
    axis = _single_axis(ctx, node) % (rank + 1)
    nid = ctx.emit(OpType.UNSQUEEZE, [x], {"axis": axis}, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Flatten", summary="axis=1 maps to Flatten; other axes to Reshape")
def _flatten(ctx: ImportContext, node: NodeSpec) -> None:
    axis = int(node.attrs.get("axis", 1))
    x = ctx.value(node.inputs[0])
    dims = ctx.graph.nodes[x[0]].outputs[x[1]].shape.dims
    axis = axis % (len(dims) + 1) if axis < 0 else axis
    if axis == 1:
        nid = ctx.emit(OpType.FLATTEN, [x], name=node.name)
    else:
        head = 1
        for d in dims[:axis]:
            head *= d
        tail = 1
        for d in dims[axis:]:
            tail *= d
        nid = ctx.emit(OpType.RESHAPE, [x], {"shape": (head, tail)},
                       node.name)
        ctx.note(f"Flatten '{node.name}': axis={axis} lowered to Reshape")
    ctx.bind(node.outputs[0], nid)


@register("Pad", summary="constant mode; [begins..ends] reordered to interleaved")
def _pad(ctx: ImportContext, node: NodeSpec) -> None:
    if node.attrs.get("mode", "constant") != "constant":
        raise UnsupportedOp(f"Pad mode {node.attrs.get('mode')}")
    pads = node.attrs.get("pads")
    if pads is None and len(node.inputs) > 1:
        pads = ctx.const_ints(node.inputs[1])
    if pads is None:
        raise UnsupportedOp("dynamic Pad amounts")
    pads = tuple(int(p) for p in pads)
    rank = len(pads) // 2
    interleaved = []
    for i in range(rank):
        interleaved += [pads[i], pads[rank + i]]
    nid = ctx.emit(OpType.PAD, [ctx.value(node.inputs[0])],
                   {"pads": tuple(interleaved)}, node.name)
    ctx.bind(node.outputs[0], nid)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _reduce(ctx: ImportContext, node: NodeSpec, op_type: OpType) -> None:
    axis = _single_axis(ctx, node)
    keepdims = bool(int(node.attrs.get("keepdims", 1)))
    nid = ctx.emit(op_type, [ctx.value(node.inputs[0])],
                   {"axis": int(axis), "keepdims": keepdims}, node.name)
    ctx.bind(node.outputs[0], nid)


@register("ReduceSum", summary="single axis; keepdims int becomes bool")
def _reduce_sum(ctx: ImportContext, node: NodeSpec) -> None:
    _reduce(ctx, node, OpType.REDUCE_SUM)


@register("ReduceMean", summary="single axis; keepdims int becomes bool")
def _reduce_mean(ctx: ImportContext, node: NodeSpec) -> None:
    _reduce(ctx, node, OpType.REDUCE_MEAN)


@register("ReduceMax", summary="single axis; keepdims int becomes bool")
def _reduce_max(ctx: ImportContext, node: NodeSpec) -> None:
    _reduce(ctx, node, OpType.REDUCE_MAX)


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------

@register("Gather", summary="axis=0 over a rank-2 table becomes Embedding")
def _gather(ctx: ImportContext, node: NodeSpec) -> None:
    table = ctx.value(node.inputs[0])
    indices = ctx.value(node.inputs[1])
    table_dims = ctx.graph.nodes[table[0]].outputs[table[1]].shape.dims
    axis = int(node.attrs.get("axis", 0)) % max(len(table_dims), 1)
    if axis == 0 and len(table_dims) == 2:
        nid = ctx.emit(OpType.EMBEDDING, [table, indices], name=node.name)
    else:
        nid = ctx.emit(OpType.GATHER, [table, indices],
                       {"axis": axis}, node.name)
    ctx.bind(node.outputs[0], nid)


@register("Constant", summary="payload registered; node materialised on demand")
def _constant(ctx: ImportContext, node: NodeSpec) -> None:
    value = node.attrs.get("value")
    if isinstance(value, TensorInfo):
        ctx.add_constant(node.outputs[0], value.dims, value.data, value.dtype)
        return
    for key, dtype in (("value_ints", "int64"), ("value_floats", "float32")):
        if key in node.attrs:
            data = tuple(node.attrs[key])
            ctx.add_constant(node.outputs[0], (len(data),), data, dtype)
            return
    for key, dtype in (("value_int", "int64"), ("value_float", "float32")):
        if key in node.attrs:
            ctx.add_constant(node.outputs[0], (), (node.attrs[key],), dtype)
            return
    raise UnsupportedOp("Constant without a readable payload")


# ---------------------------------------------------------------------------
# repro-domain bridges: IR ops with no standard ONNX spelling
# ---------------------------------------------------------------------------

def _verbatim_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    """Wire attrs -> IR attrs for repro-domain nodes (lists -> tuples)."""
    out: Dict[str, object] = {}
    for key, value in attrs.items():
        if isinstance(value, (list, tuple)):
            out[key] = tuple(int(v) for v in value)
        elif key == "keepdims":
            out[key] = bool(value)
        else:
            out[key] = value
    return out


def _register_repro(onnx_op: str, op_type: OpType, summary: str) -> None:
    @register(onnx_op, domain=REPRO_DOMAIN, summary=summary)
    def handler(ctx: ImportContext, node: NodeSpec,
                _op: OpType = op_type) -> None:
        inputs = [ctx.value(n) for n in node.inputs]
        nid = ctx.emit(_op, inputs, _verbatim_attrs(node.attrs), node.name)
        for slot, out_name in enumerate(node.outputs):
            ctx.bind(out_name, nid, slot)


for _name, _op, _summary in (
    ("MatMul", OpType.MATMUL, "MatMul whose rank pattern reads as batched"),
    ("BatchMatMul", OpType.BATCH_MATMUL, "BatchMatMul with a rank-2 operand"),
    ("Gather", OpType.GATHER, "IR Gather (ambiguous vs Embedding in ONNX)"),
    ("GlobalAvgPool", OpType.GLOBAL_AVGPOOL, "rank-2 [N,C] global pool"),
    ("EnlargeConv", OpType.ENLARGE_CONV, "TASO kernel-enlargement op"),
    ("FusedConvBN", OpType.FUSED_CONV_BN, "fused Conv+BatchNorm"),
    ("FusedConvRelu", OpType.FUSED_CONV_RELU, "fused Conv+Relu"),
    ("FusedConvBNRelu", OpType.FUSED_CONV_BN_RELU, "fused Conv+BN+Relu"),
    ("FusedMatMulAdd", OpType.FUSED_MATMUL_ADD, "fused MatMul+bias"),
    ("Split", OpType.SPLIT, "IR two-way Split with explicit parts attr"),
    ("Flatten", OpType.FLATTEN, "IR attr-less Flatten"),
    ("Reshape", OpType.RESHAPE, "IR Reshape with resolved shape attr"),
    ("GroupConv2D", OpType.GROUP_CONV2D,
     "grouped conv whose shape would read as depthwise"),
):
    _register_repro(_name, _op, _summary)


@register("Constant", domain=REPRO_DOMAIN,
          summary="IR Constant source (synthetic payload)")
def _repro_constant(ctx: ImportContext, node: NodeSpec) -> None:
    shape = tuple(int(d) for d in node.attrs.get("shape", ()))
    ctx.add_constant(node.outputs[0], shape, None, "float32")


@register("Custom", domain=REPRO_DOMAIN,
          summary="opaque foreign op with declared output spec")
def _repro_custom(ctx: ImportContext, node: NodeSpec) -> None:
    inputs = [ctx.value(n) for n in node.inputs]
    nid = ctx.emit(
        OpType.CUSTOM, inputs,
        {"op": str(node.attrs.get("op", node.name or "?")),
         "shape": tuple(int(d) for d in node.attrs.get("shape", ())),
         "dtype": str(node.attrs.get("dtype", "float32"))},
        node.name)
    ctx.bind(node.outputs[0], nid)
