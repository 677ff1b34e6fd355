"""ONNX frontend: import foreign models into the IR and export back.

:func:`import_model` walks a :class:`~repro.frontend.serialize.ModelSpec`
node list in order, dispatching each node through the declarative bridge
table (:mod:`repro.frontend.ops_bridge`).  Ops outside the table — or
configurations a bridge cannot express faithfully — degrade gracefully to
opaque ``Custom`` nodes with *declared* output shapes: they execute as
counted pass-throughs, no rewrite rule matches into them, and every
fallback is recorded in the :class:`ImportReport` so coverage holes are
visible, never silent.

:func:`to_spec` / :func:`to_onnx` export IR graphs the other way, using
standard ONNX ops wherever the inverse bridge provably reconstructs the
node attr-for-attr and the ``ai.repro`` custom domain for everything else
(fused ops, ``EnlargeConv``, rank-2 ``GlobalAvgPool``, ``Custom``).  The
invariant the round-trip tests enforce:
``structural_hash(import(export(g))) == structural_hash(g)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple, Union

from ..ir.graph import Graph, NodeId
from ..ir.ops import OpType
from .ops_bridge import BRIDGE, ImportContext, ImportError_, UnsupportedOp
from .serialize import (DEFAULT_OPSET, REPRO_DOMAIN, GraphSpec, ModelSpec,
                        NodeSpec, TensorInfo, ValueInfo, load_model_spec,
                        loads_model_spec, save_model_spec)

__all__ = ["ImportError_", "ImportReport", "import_model", "to_spec",
           "to_onnx"]


class _Slots(tuple):
    """A node's input or output names as its bridge reads them: a slot past
    the end is a malformed node (:class:`ImportError_`), never a fallback."""

    def __new__(cls, names, missing: str):
        slots = super().__new__(cls, names)
        slots.missing = missing
        return slots

    def __getitem__(self, key):
        try:
            return super().__getitem__(key)
        except IndexError:
            raise ImportError_(f"{self.missing} {key}") from None


class _Attrs(dict):
    """A node's attributes as its bridge reads them (see :class:`_Slots`)."""

    def __init__(self, attrs, missing: str):
        super().__init__(attrs)
        self.missing = missing

    def __missing__(self, key):
        raise ImportError_(f"{self.missing} '{key}'")


@dataclass
class ImportReport:
    """Per-op accounting of one import run."""

    model: str
    #: foreign op -> nodes translated through its bridge.
    bridged: Dict[str, int] = field(default_factory=dict)
    #: foreign op -> nodes degraded to opaque Custom fallbacks.
    fallbacks: Dict[str, int] = field(default_factory=dict)
    #: node name -> why its bridge declined (or "no bridge").
    fallback_reasons: Dict[str, str] = field(default_factory=dict)
    #: human-readable lowering notes emitted by the bridges.
    notes: List[str] = field(default_factory=list)

    @property
    def total_nodes(self) -> int:
        return sum(self.bridged.values()) + sum(self.fallbacks.values())

    @property
    def num_fallbacks(self) -> int:
        return sum(self.fallbacks.values())

    @property
    def coverage(self) -> float:
        """Fraction of foreign nodes imported through a real bridge."""
        total = self.total_nodes
        return 1.0 if total == 0 else sum(self.bridged.values()) / total

    def summary(self) -> str:
        lines = [f"import '{self.model}': {self.total_nodes} foreign nodes, "
                 f"coverage {self.coverage:.1%}"]
        for op in sorted(self.bridged):
            lines.append(f"  bridged {op} x{self.bridged[op]}")
        for op in sorted(self.fallbacks):
            lines.append(f"  FALLBACK {op} x{self.fallbacks[op]}")
        for name, reason in sorted(self.fallback_reasons.items()):
            lines.append(f"    {name}: {reason}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _op_key(node: NodeSpec) -> str:
    return f"{node.domain}::{node.op_type}" if node.domain else node.op_type


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------

def import_model(source: Union[str, Path, bytes, ModelSpec],
                 strict: bool = False) -> Tuple[Graph, ImportReport]:
    """Import an ONNX model into an IR :class:`Graph`.

    ``source`` may be an ONNX protobuf file path, raw model bytes, or an
    already-parsed :class:`ModelSpec`; bytes that are not ONNX protobuf
    raise ``ValueError``.  A node reading a value nothing defines, or
    redefining one, or lacking an input, output or attribute its bridge
    needs, raises :class:`ImportError_`.  With ``strict=True``
    any unbridgeable node raises it too instead of degrading to a Custom
    fallback.
    """
    if isinstance(source, ModelSpec):
        spec = source
    elif isinstance(source, bytes):
        spec = loads_model_spec(source)
    else:
        spec = load_model_spec(source)

    gspec = spec.graph
    graph = Graph(gspec.name or "imported")
    ctx = ImportContext(graph)
    ctx.faithful = bool(gspec.source_ranks)
    report = ImportReport(model=gspec.name or "imported")

    for tensor in gspec.initializers:
        ctx.add_initializer(tensor)
    initializer_names = {t.name for t in gspec.initializers}
    for info in gspec.inputs:
        if info.name not in initializer_names:
            ctx.add_input(info.name, info.dims, info.dtype)

    # Declared intermediate/output shapes back the Custom fallback.
    declared: Dict[str, ValueInfo] = {}
    for info in list(gspec.value_infos) + list(gspec.outputs):
        declared[info.name] = info

    # When the exporter recorded source creation ranks, replay them: a
    # ranked source is materialised as soon as the graph has grown to its
    # recorded rank, reproducing the exporting graph's node-creation order
    # exactly (and with it the structural hash).  Foreign models carry no
    # ranks and fall back to the consumption-order heuristic.
    ranked = sorted(
        ((rank, name) for name, rank in gspec.source_ranks.items()),
    )
    ranked_idx = 0

    def _replay_ranked_sources() -> None:
        nonlocal ranked_idx
        while (ranked_idx < len(ranked)
               and ranked[ranked_idx][0] <= len(graph.nodes)):
            src_name = ranked[ranked_idx][1]
            if not ctx.has(src_name):
                # A Constant registered by a later spec node: wait for it.
                break
            ranked_idx += 1
            ctx.value(src_name)

    for node in gspec.nodes:
        _check_names(ctx, node)
        bridge = BRIDGE.get((node.domain, node.op_type))
        if ranked:
            _replay_ranked_sources()
        else:
            ctx.touch_graph_inputs(node.inputs)
        before = len(ctx.notes)
        if bridge is not None:
            where = _where(node)
            try:
                bridge.handler(ctx, replace(
                    node, inputs=_Slots(node.inputs, f"{where} lacks input"),
                    outputs=_Slots(node.outputs, f"{where} lacks output"),
                    attrs=_Attrs(node.attrs, f"{where} lacks attribute")))
                key = _op_key(node)
                report.bridged[key] = report.bridged.get(key, 0) + 1
                continue
            except UnsupportedOp as exc:
                reason = str(exc)
                del ctx.notes[before:]  # notes from the aborted attempt
        else:
            reason = "no bridge"
        if strict:
            raise ImportError_(
                f"cannot import {_op_key(node)} node "
                f"'{node.name or node.outputs[0]}': {reason}")
        _fallback(ctx, node, declared, report, reason)

    if ranked:
        _replay_ranked_sources()
    report.notes.extend(ctx.notes)

    outputs = []
    for info in gspec.outputs:
        try:
            outputs.append(ctx.value(info.name))
        except UnsupportedOp as exc:
            raise ImportError_(f"graph output '{info.name}' was never "
                               f"produced: {exc}") from exc
    if outputs:
        graph.add_node(OpType.OUTPUT, tuple(outputs), {}, "output")
    graph.validate()
    return graph, report


def _where(node: NodeSpec) -> str:
    return f"{_op_key(node)} node '{node.name or ','.join(node.outputs)}'"


def _check_names(ctx: ImportContext, node: NodeSpec) -> None:
    """Refuse a node reading an undefined value or redefining one."""
    where = _where(node)
    for name in node.inputs:
        if name and not ctx.has(name):
            raise ImportError_(f"{where} reads undefined value '{name}'")
    for name in node.outputs:
        if name and ctx.has(name):
            raise ImportError_(f"{where} redefines value '{name}'")


def _fallback(ctx: ImportContext, node: NodeSpec,
              declared: Dict[str, ValueInfo], report: ImportReport,
              reason: str) -> None:
    """Degrade ``node`` to opaque Custom nodes with declared shapes."""
    key = _op_key(node)
    report.fallbacks[key] = report.fallbacks.get(key, 0) + 1
    report.fallback_reasons[node.name or node.outputs[0]] = reason

    inputs = [ctx.value(name) for name in node.inputs if name]
    for slot, out_name in enumerate(node.outputs):
        if not out_name:
            continue
        info = declared.get(out_name)
        if info is not None and info.dims:
            shape, dtype = tuple(info.dims), info.dtype
        elif inputs:
            # No declaration: assume shape-preserving, first input's spec.
            src = ctx.graph.nodes[inputs[0][0]].outputs[inputs[0][1]]
            shape, dtype = tuple(src.shape.dims), src.dtype.value
            ctx.notes.append(
                f"fallback '{out_name}': no declared shape, "
                f"assumed input shape {shape}")
        else:
            raise ImportError_(
                f"cannot infer output shape for un-bridged source node "
                f"'{node.name or out_name}' ({key})")
        nid = ctx.emit(
            OpType.CUSTOM, inputs,
            {"op": key, "shape": shape, "dtype": dtype},
            node.name if len(node.outputs) == 1 else f"{node.name}#{slot}")
        ctx.bind(out_name, nid)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

#: IR elementwise/unary ops whose standard-ONNX spelling round-trips
#: attr-for-attr through the default-domain bridges.
_DIRECT_EXPORT = {
    OpType.ADD: "Add", OpType.SUB: "Sub", OpType.MUL: "Mul",
    OpType.DIV: "Div", OpType.RELU: "Relu", OpType.GELU: "Gelu",
    OpType.SIGMOID: "Sigmoid", OpType.TANH: "Tanh", OpType.EXP: "Exp",
    OpType.SQRT: "Sqrt", OpType.ERF: "Erf", OpType.IDENTITY: "Identity",
    OpType.FLATTEN: "Flatten",
}

_REPRO_EXPORT = {
    OpType.GATHER: "Gather", OpType.GLOBAL_AVGPOOL: "GlobalAvgPool",
    OpType.ENLARGE_CONV: "EnlargeConv", OpType.FUSED_CONV_BN: "FusedConvBN",
    OpType.FUSED_CONV_RELU: "FusedConvRelu",
    OpType.FUSED_CONV_BN_RELU: "FusedConvBNRelu",
    OpType.FUSED_MATMUL_ADD: "FusedMatMulAdd", OpType.NOOP: "NoOp",
    OpType.SPLIT: "Split", OpType.CUSTOM: "Custom",
}

_CONV_EXPORT = {OpType.CONV2D, OpType.GROUP_CONV2D, OpType.DEPTHWISE_CONV2D}


def _auto_pad(padding: str) -> str:
    return "SAME_UPPER" if padding == "same" else "VALID"


def _export_attrs(node, graph: Graph) -> Tuple[str, str, Dict[str, object]]:
    """Map one IR node onto ``(onnx_op, domain, onnx_attrs)``."""
    op = node.op_type
    attrs = node.attrs

    if op in _DIRECT_EXPORT:
        return _DIRECT_EXPORT[op], "", {}

    if op in (OpType.MATMUL, OpType.BATCH_MATMUL):
        # The import bridge reads "MatMul" as batched iff *both* operands
        # have batch dims; nodes whose rank pattern contradicts their op
        # type must travel under the repro domain to survive round-trip.
        ranks = [len(graph.nodes[e.src].outputs[e.src_slot].shape.dims)
                 for e in graph.in_edges(node.node_id)]
        canonical = (OpType.BATCH_MATMUL if min(ranks) > 2 else OpType.MATMUL)
        if canonical is op:
            return "MatMul", "", {}
        return ("MatMul" if op is OpType.MATMUL else "BatchMatMul",
                REPRO_DOMAIN, {})
    if op in _REPRO_EXPORT:
        out: Dict[str, object] = {}
        for key, value in attrs.items():
            if value is None:
                continue
            out[key] = int(value) if isinstance(value, bool) else value
        if op is OpType.CUSTOM and "dtype" not in out:
            out["dtype"] = "float32"
        return _REPRO_EXPORT[op], REPRO_DOMAIN, out

    if op in _CONV_EXPORT:
        edges = graph.in_edges(node.node_id)
        if op is OpType.GROUP_CONV2D:
            in_ch = graph.nodes[edges[0].src].outputs[
                edges[0].src_slot].shape.dims[1]
            w_dims = graph.nodes[edges[1].src].outputs[
                edges[1].src_slot].shape.dims
            groups = attrs.get("groups")
            if groups is None or (int(groups) == in_ch and w_dims[1] == 1):
                # Conv's group dispatch would read this back as Conv2D or
                # DepthwiseConv2D; keep the IR identity via the repro domain.
                out = {k: int(v) if isinstance(v, bool) else v
                       for k, v in attrs.items() if v is not None}
                return "GroupConv2D", REPRO_DOMAIN, out
        out = {}
        if attrs.get("kernel") is not None:
            kernel = int(attrs["kernel"])
            out["kernel_shape"] = (kernel, kernel)
        if "stride" in attrs:
            out["strides"] = (int(attrs["stride"]),) * 2
        if "padding" in attrs:
            out["auto_pad"] = _auto_pad(attrs["padding"])
        if op is OpType.GROUP_CONV2D:
            out["group"] = int(attrs["groups"])
        elif op is OpType.DEPTHWISE_CONV2D:
            out["group"] = graph.nodes[edges[0].src].outputs[
                edges[0].src_slot].shape.dims[1]
        return "Conv", "", out

    if op in (OpType.MAXPOOL2D, OpType.AVGPOOL2D):
        kernel = int(attrs.get("kernel", 2))
        return ("MaxPool" if op is OpType.MAXPOOL2D else "AveragePool", "",
                {"kernel_shape": (kernel, kernel),
                 "strides": (int(attrs.get("stride", kernel)),) * 2,
                 "auto_pad": _auto_pad(attrs.get("padding", "valid"))})

    if op in (OpType.BATCHNORM, OpType.LAYERNORM):
        name = ("BatchNormalization" if op is OpType.BATCHNORM
                else "LayerNormalization")
        out = {}
        if "epsilon" in attrs:
            out["epsilon"] = float(attrs["epsilon"])
        return name, "", out
    if op is OpType.SOFTMAX:
        return "Softmax", "", {"axis": int(attrs.get("axis", -1))}
    if op is OpType.DROPOUT:
        return ("Dropout", "",
                {"ratio": float(attrs["rate"])} if "rate" in attrs else {})
    if op is OpType.CAST:
        return "Cast", "", {"to": str(attrs.get("to", "float32"))}

    if op is OpType.RESHAPE:
        return "Reshape", "", {"shape": tuple(attrs["shape"])}
    if op is OpType.TRANSPOSE:
        perm = attrs.get("perm")
        return "Transpose", "", ({"perm": tuple(perm)} if perm is not None
                                 else {})
    if op is OpType.CONCAT:
        return "Concat", "", {"axis": int(attrs.get("axis", 0))}
    if op is OpType.SLICE:
        return "Slice", "", {"starts": (int(attrs["start"]),),
                             "ends": (int(attrs["end"]),),
                             "axes": (int(attrs.get("axis", 0)),)}
    if op in (OpType.SQUEEZE, OpType.UNSQUEEZE):
        return ("Squeeze" if op is OpType.SQUEEZE else "Unsqueeze", "",
                {"axes": (int(attrs.get("axis", 0)),)})
    if op is OpType.PAD:
        pads = tuple(int(p) for p in attrs.get("pads") or ())
        rank = len(pads) // 2
        onnx_pads = tuple(pads[2 * i] for i in range(rank)) + \
            tuple(pads[2 * i + 1] for i in range(rank))
        return "Pad", "", {"pads": onnx_pads}
    if op in (OpType.REDUCE_SUM, OpType.REDUCE_MEAN, OpType.REDUCE_MAX):
        name = {OpType.REDUCE_SUM: "ReduceSum",
                OpType.REDUCE_MEAN: "ReduceMean",
                OpType.REDUCE_MAX: "ReduceMax"}[op]
        return name, "", {"axes": (int(attrs.get("axis", -1)),),
                          "keepdims": int(bool(attrs.get("keepdims", False)))}
    if op is OpType.EMBEDDING:
        return "Gather", "", {}

    raise ValueError(f"no export mapping for {op.value}")


def to_spec(graph: Graph, producer: str = "repro") -> ModelSpec:
    """Export an IR graph to a neutral :class:`ModelSpec`.

    Inverse of :func:`import_model` for every operator in the IR:
    importing the result reproduces the original structural hash.
    """
    gspec = GraphSpec(name=graph.name or "graph")

    # Unique value name per (node, slot); extra slots get a #N suffix.
    used: set = set()
    value_of: Dict[Tuple[NodeId, int], str] = {}
    for nid in graph.topological_order():
        node = graph.nodes[nid]
        base = node.name or f"v{nid}"
        if base in used:
            base = f"{base}_v{nid}"
        used.add(base)
        for slot in range(len(node.outputs)):
            value_of[(nid, slot)] = base if slot == 0 else f"{base}#{slot}"

    for position, nid in enumerate(graph.topological_order()):
        node = graph.nodes[nid]
        op = node.op_type
        name = value_of[(nid, 0)]
        if op is OpType.INPUT:
            gspec.inputs.append(ValueInfo(name, tuple(node.outputs[0].shape.dims)))
            gspec.source_ranks[name] = position
            continue
        if op is OpType.WEIGHT:
            gspec.initializers.append(
                TensorInfo(name, tuple(node.outputs[0].shape.dims)))
            gspec.source_ranks[name] = position
            continue
        if op is OpType.CONSTANT:
            gspec.nodes.append(NodeSpec(
                "Constant", (), (name,),
                {"shape": tuple(node.outputs[0].shape.dims)}, name,
                REPRO_DOMAIN))
            gspec.source_ranks[name] = position
            continue
        in_names = tuple(value_of[(e.src, e.src_slot)]
                         for e in graph.in_edges(nid))
        if op is OpType.OUTPUT:
            for in_name, edge in zip(in_names, graph.in_edges(nid)):
                src = graph.nodes[edge.src].outputs[edge.src_slot]
                gspec.outputs.append(
                    ValueInfo(in_name, tuple(src.shape.dims),
                              src.dtype.value))
            continue
        onnx_op, domain, attrs = _export_attrs(node, graph)
        out_names = tuple(value_of[(nid, slot)]
                          for slot in range(len(node.outputs)))
        gspec.nodes.append(NodeSpec(onnx_op, in_names, out_names, attrs,
                                    name, domain))
        for slot, out_name in enumerate(out_names):
            spec = node.outputs[slot]
            gspec.value_infos.append(
                ValueInfo(out_name, tuple(spec.shape.dims), spec.dtype.value))

    opset = {"": DEFAULT_OPSET}
    if any(n.domain == REPRO_DOMAIN for n in gspec.nodes):
        opset[REPRO_DOMAIN] = 1
    return ModelSpec(gspec, opset, producer=producer)


def to_onnx(graph: Graph, path: Union[str, Path],
            producer: str = "repro") -> None:
    """Export ``graph`` to ``path`` as ONNX protobuf, whatever its suffix."""
    save_model_spec(to_spec(graph, producer), path)
