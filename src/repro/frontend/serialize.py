"""Model-file I/O for the frontend: a protobuf-free ``.onnx`` codec.

The importer consumes a *neutral* in-memory description of an ONNX model
(:class:`ModelSpec` / :class:`GraphSpec` / :class:`NodeSpec`), never the
protobuf python objects, so the ``onnx`` wheel is an optional convenience
rather than a dependency.  The one on-disk encoding is the protobuf wire
format, read and written by a minimal hand-rolled codec below.  Protobuf's
wire format is just ``(field_number << 3 | wire_type)`` tags followed by
varints, fixed-width values or length-delimited payloads; decoding the
handful of message types ONNX uses (ModelProto, GraphProto, NodeProto,
AttributeProto, TensorProto, ValueInfoProto) takes ~200 lines and zero new
wheels.  Unknown fields are skipped, so models produced by real exporters
parse fine — we only keep what the importer needs.  Bytes that are not a
well-formed model (truncated, junk, another format) raise ``ValueError``.

Weight payloads are deliberately second-class: the executor materialises
parameters deterministically from *name and shape*, so the importer only
needs tensor values when they feed shape-like inputs (Reshape targets,
Slice bounds, ...).  Large float payloads in ``raw_data`` are therefore
dropped on read instead of hauled through memory.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "TensorInfo", "ValueInfo", "NodeSpec", "GraphSpec", "ModelSpec",
    "load_model_spec", "loads_model_spec", "save_model_spec",
    "model_spec_to_bytes",
    "REPRO_DOMAIN", "DEFAULT_OPSET",
]

#: Custom operator-set domain used for repro-IR ops with no standard ONNX
#: equivalent (fused ops, EnlargeConv, opaque Custom nodes, ...).
REPRO_DOMAIN = "ai.repro"

#: Default-domain opset version stamped on exported models.
DEFAULT_OPSET = 17

# ONNX TensorProto.DataType -> repro dtype string (and back).  Anything
# not listed imports as float32; the bridge notes the coercion.
_ONNX_DTYPE_TO_STR = {1: "float32", 6: "int32", 7: "int64", 9: "bool",
                      10: "float16", 11: "float32"}
_STR_TO_ONNX_DTYPE = {"float32": 1, "int32": 6, "int64": 7, "bool": 9,
                      "float16": 10}


# ---------------------------------------------------------------------------
# Neutral model description
# ---------------------------------------------------------------------------

@dataclass
class TensorInfo:
    """An initializer: a named constant tensor, payload optional."""

    name: str
    dims: Tuple[int, ...]
    dtype: str = "float32"
    #: Flat row-major values; ``None`` when the payload was absent or
    #: dropped (float weights — the executor regenerates them by name).
    data: Optional[Tuple[float, ...]] = None


@dataclass
class ValueInfo:
    """A named graph input/output/intermediate with declared type."""

    name: str
    dims: Tuple[int, ...] = ()
    dtype: str = "float32"


@dataclass
class NodeSpec:
    """One operator application."""

    op_type: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    attrs: Dict[str, object] = field(default_factory=dict)
    name: str = ""
    domain: str = ""


@dataclass
class GraphSpec:
    name: str
    nodes: List[NodeSpec] = field(default_factory=list)
    inputs: List[ValueInfo] = field(default_factory=list)
    outputs: List[ValueInfo] = field(default_factory=list)
    initializers: List[TensorInfo] = field(default_factory=list)
    value_infos: List[ValueInfo] = field(default_factory=list)
    #: Optional exporter hint: source value name -> creation rank among all
    #: IR nodes.  Lets the importer replay the exact node-creation order of
    #: the exporting graph (the structural hash is sensitive to the
    #: interleaving of Input/Weight creation with operator nodes).  Rides
    #: in GraphProto.doc_string on the wire; absent in foreign models.
    source_ranks: Dict[str, int] = field(default_factory=dict)


@dataclass
class ModelSpec:
    graph: GraphSpec
    #: ``domain -> opset version``; "" is the default ONNX domain.
    opset: Dict[str, int] = field(default_factory=lambda: {"": DEFAULT_OPSET})
    ir_version: int = 8
    producer: str = "repro"


# ---------------------------------------------------------------------------
# Protobuf wire primitives
# ---------------------------------------------------------------------------

_WT_VARINT, _WT_I64, _WT_LEN, _WT_I32 = 0, 1, 2, 5
_FIXED_SIZE = {_WT_I64: 8, _WT_I32: 4}


def _read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ValueError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ValueError("malformed varint")


def _signed(value: int) -> int:
    # int64 fields store negatives as 2's-complement 64-bit varints.
    return value - (1 << 64) if value >= (1 << 63) else value


def _iter_fields(buf: bytes):
    """Yield ``(field_number, wire_type, value)`` triples from a message.

    ``value`` is an int for varint/fixed fields and a ``bytes`` slice for
    length-delimited ones; groups (unused by ONNX) and overruns raise.
    """
    pos = 0
    while pos < len(buf):
        tag, pos = _read_varint(buf, pos)
        number, wtype = tag >> 3, tag & 7
        if wtype == _WT_VARINT:
            value, pos = _read_varint(buf, pos)
        elif wtype in _FIXED_SIZE or wtype == _WT_LEN:
            size = _FIXED_SIZE.get(wtype)
            if size is None:
                size, pos = _read_varint(buf, pos)
            value = buf[pos:pos + size]
            if len(value) != size:
                raise ValueError(f"field {number} runs {size - len(value)} "
                                 "bytes past the end of its message")
            pos += size
            if wtype != _WT_LEN:
                value = int.from_bytes(value, "little")
        else:
            raise ValueError(f"unsupported wire type {wtype}")
        yield number, wtype, value


def _packed_varints(value, wtype) -> List[int]:
    """A repeated int field arrives packed (LEN) or one-per-tag (VARINT)."""
    if wtype == _WT_VARINT:
        return [_signed(value)]
    out = []
    pos = 0
    while pos < len(value):
        item, pos = _read_varint(value, pos)
        out.append(_signed(item))
    return out


def _unpack(code: str, size: int, payload: bytes) -> Tuple:
    """Little-endian fixed-width values; a partial trailing one raises."""
    count, rest = divmod(len(payload), size)
    if rest:
        raise ValueError(f"{len(payload)}-byte payload is not a whole "
                         f"number of {size}-byte values")
    return struct.unpack(f"<{count}{code}", payload)


def _packed_floats(value, wtype) -> List[float]:
    if wtype == _WT_I32:
        return [struct.unpack("<f", value.to_bytes(4, "little"))[0]]
    return list(_unpack("f", 4, value))


class _Writer:
    """Accumulates one protobuf message."""

    def __init__(self):
        self.parts: List[bytes] = []

    @staticmethod
    def _varint(value: int) -> bytes:
        if value < 0:
            value += 1 << 64
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                return bytes(out)

    def varint(self, number: int, value: int) -> None:
        self.parts.append(self._varint(number << 3 | _WT_VARINT))
        self.parts.append(self._varint(value))

    def bytes_(self, number: int, payload: bytes) -> None:
        self.parts.append(self._varint(number << 3 | _WT_LEN))
        self.parts.append(self._varint(len(payload)))
        self.parts.append(payload)

    def string(self, number: int, text: str) -> None:
        self.bytes_(number, text.encode("utf-8"))

    def message(self, number: int, writer: "_Writer") -> None:
        self.bytes_(number, writer.dumps())

    def packed_varints(self, number: int, values: Sequence[int]) -> None:
        body = b"".join(self._varint(int(v)) for v in values)
        self.bytes_(number, body)

    def packed_floats(self, number: int, values: Sequence[float]) -> None:
        self.bytes_(number, struct.pack(f"<{len(values)}f", *values))

    def dumps(self) -> bytes:
        return b"".join(self.parts)


# ---------------------------------------------------------------------------
# ONNX message decoding
# ---------------------------------------------------------------------------

# AttributeProto.AttributeType values we understand.
_ATTR_FLOAT, _ATTR_INT, _ATTR_STRING, _ATTR_TENSOR = 1, 2, 3, 4
_ATTR_FLOATS, _ATTR_INTS, _ATTR_STRINGS = 6, 7, 8

#: Values above this many elements are dropped on read unless they are
#: integer typed (candidates for shape-feeding inputs).
_MAX_FLOAT_PAYLOAD = 4096


def _decode_attribute(buf: bytes) -> Tuple[str, object]:
    name = ""
    atype = 0
    f_val = 0.0
    i_val = 0
    s_val = b""
    t_val: Optional["TensorInfo"] = None
    floats: List[float] = []
    ints: List[int] = []
    strings: List[bytes] = []
    for number, wtype, value in _iter_fields(buf):
        if number == 1:
            name = value.decode("utf-8")
        elif number == 20:
            atype = value
        elif number == 2:
            f_val = _packed_floats(value, wtype)[0]
        elif number == 3:
            i_val = _signed(value)
        elif number == 4:
            s_val = value
        elif number == 5:
            t_val = _decode_tensor(value)
        elif number == 7:
            floats.extend(_packed_floats(value, wtype))
        elif number == 8:
            ints.extend(_packed_varints(value, wtype))
        elif number == 9:
            strings.append(value)
    if atype == _ATTR_FLOAT:
        return name, f_val
    if atype == _ATTR_INT:
        return name, i_val
    if atype == _ATTR_STRING:
        return name, s_val.decode("utf-8")
    if atype == _ATTR_TENSOR:
        # Tensor attrs (real exporters stash Reshape targets in Constant
        # nodes) surface as TensorInfo; the Constant bridge unpacks them.
        return name, t_val if t_val is not None else TensorInfo("", ())
    if atype == _ATTR_FLOATS:
        return name, tuple(floats)
    if atype == _ATTR_INTS:
        return name, tuple(ints)
    if atype == _ATTR_STRINGS:
        return name, tuple(s.decode("utf-8") for s in strings)
    raise ValueError(f"unsupported attribute type {atype} for '{name}'")


def _decode_node(buf: bytes) -> NodeSpec:
    inputs: List[str] = []
    outputs: List[str] = []
    attrs: Dict[str, object] = {}
    op_type = ""
    name = ""
    domain = ""
    for number, wtype, value in _iter_fields(buf):
        if number == 1:
            inputs.append(value.decode("utf-8"))
        elif number == 2:
            outputs.append(value.decode("utf-8"))
        elif number == 3:
            name = value.decode("utf-8")
        elif number == 4:
            op_type = value.decode("utf-8")
        elif number == 5:
            key, attr = _decode_attribute(value)
            attrs[key] = attr
        elif number == 7:
            domain = value.decode("utf-8")
    return NodeSpec(op_type, tuple(inputs), tuple(outputs), attrs, name, domain)


def _decode_tensor(buf: bytes) -> TensorInfo:
    dims: List[int] = []
    data_type = 1
    name = ""
    raw = b""
    ints: List[int] = []
    floats: List[float] = []
    for number, wtype, value in _iter_fields(buf):
        if number == 1:
            dims.extend(_packed_varints(value, wtype))
        elif number == 2:
            data_type = value
        elif number == 4:
            floats.extend(_packed_floats(value, wtype))
        elif number in (5, 7):  # int32_data / int64_data
            ints.extend(_packed_varints(value, wtype))
        elif number == 8:
            name = value.decode("utf-8")
        elif number == 9:
            raw = value
    dtype = _ONNX_DTYPE_TO_STR.get(data_type, "float32")
    data: Optional[Tuple[float, ...]] = None
    if ints:
        data = tuple(ints)
    elif floats and len(floats) <= _MAX_FLOAT_PAYLOAD:
        data = tuple(floats)
    elif raw:
        data = _decode_raw(raw, data_type)
    return TensorInfo(name, tuple(dims), dtype, data)


def _decode_raw(raw: bytes, data_type: int) -> Optional[Tuple[float, ...]]:
    if data_type == 7:  # int64
        return _unpack("q", 8, raw)
    if data_type == 6:  # int32
        return _unpack("i", 4, raw)
    if data_type == 1 and len(raw) // 4 <= _MAX_FLOAT_PAYLOAD:  # float32
        return _unpack("f", 4, raw)
    return None  # large float payload: regenerated by name at execution


def _decode_value_info(buf: bytes) -> ValueInfo:
    name = ""
    dims: Tuple[int, ...] = ()
    dtype = "float32"
    for number, _wtype, value in _iter_fields(buf):
        if number == 1:
            name = value.decode("utf-8")
        elif number == 2:  # TypeProto
            for n2, _w2, v2 in _iter_fields(value):
                if n2 != 1:  # tensor_type
                    continue
                for n3, _w3, v3 in _iter_fields(v2):
                    if n3 == 1:  # elem_type
                        dtype = _ONNX_DTYPE_TO_STR.get(v3, "float32")
                    elif n3 == 2:  # TensorShapeProto
                        parsed: List[int] = []
                        for n4, _w4, v4 in _iter_fields(v3):
                            if n4 != 1:  # dim
                                continue
                            dim_value = 1  # symbolic dims import as 1
                            for n5, _w5, v5 in _iter_fields(v4):
                                if n5 == 1:
                                    dim_value = _signed(v5)
                            parsed.append(dim_value)
                        dims = tuple(parsed)
    return ValueInfo(name, dims, dtype)


def _decode_graph(buf: bytes) -> GraphSpec:
    spec = GraphSpec(name="graph")
    for number, _wtype, value in _iter_fields(buf):
        if number == 1:
            spec.nodes.append(_decode_node(value))
        elif number == 2:
            spec.name = value.decode("utf-8")
        elif number == 10:  # doc_string: may carry the source-rank hint
            try:
                doc = json.loads(value.decode("utf-8"))
                ranks = doc.get("repro.source_ranks", {})
                spec.source_ranks = {str(k): int(v) for k, v in ranks.items()}
            except (ValueError, AttributeError):
                pass
        elif number == 5:
            spec.initializers.append(_decode_tensor(value))
        elif number == 11:
            spec.inputs.append(_decode_value_info(value))
        elif number == 12:
            spec.outputs.append(_decode_value_info(value))
        elif number == 13:
            spec.value_infos.append(_decode_value_info(value))
    return spec


def _decode_model(buf: bytes) -> ModelSpec:
    graph: Optional[GraphSpec] = None
    opset: Dict[str, int] = {}
    ir_version = 8
    producer = ""
    for number, _wtype, value in _iter_fields(buf):
        if number == 1:
            ir_version = value
        elif number == 2:
            producer = value.decode("utf-8")
        elif number == 7:
            graph = _decode_graph(value)
        elif number == 8:
            domain = ""
            version = 1
            for n2, _w2, v2 in _iter_fields(value):
                if n2 == 1:
                    domain = v2.decode("utf-8")
                elif n2 == 2:
                    version = v2
            opset[domain] = version
    if graph is None:
        raise ValueError("model has no graph")
    if not opset:
        opset = {"": DEFAULT_OPSET}
    return ModelSpec(graph, opset, ir_version, producer or "unknown")


# ---------------------------------------------------------------------------
# ONNX message encoding
# ---------------------------------------------------------------------------

def _encode_attribute(name: str, value: object) -> _Writer:
    w = _Writer()
    w.string(1, name)
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float):
        w.varint(20, _ATTR_FLOAT)
        w.parts.append(w._varint(2 << 3 | _WT_I32))  # field 2: fixed32 float
        w.parts.append(struct.pack("<f", value))
    elif isinstance(value, int):
        w.varint(20, _ATTR_INT)
        w.varint(3, value)
    elif isinstance(value, str):
        w.varint(20, _ATTR_STRING)
        w.string(4, value)
    elif isinstance(value, TensorInfo):
        w.varint(20, _ATTR_TENSOR)
        w.message(5, _encode_tensor(value))
    elif isinstance(value, (tuple, list)):
        items = list(value)
        if items and all(isinstance(v, str) for v in items):
            w.varint(20, _ATTR_STRINGS)
            for item in items:
                w.string(9, item)
        elif any(isinstance(v, float) for v in items):
            w.varint(20, _ATTR_FLOATS)
            w.packed_floats(7, [float(v) for v in items])
        else:
            w.varint(20, _ATTR_INTS)
            w.packed_varints(8, [int(v) for v in items])
    else:
        raise TypeError(f"unsupported attribute value for '{name}': {value!r}")
    return w


def _encode_node(node: NodeSpec) -> _Writer:
    w = _Writer()
    for name in node.inputs:
        w.string(1, name)
    for name in node.outputs:
        w.string(2, name)
    if node.name:
        w.string(3, node.name)
    w.string(4, node.op_type)
    for key in sorted(node.attrs):
        w.message(5, _encode_attribute(key, node.attrs[key]))
    if node.domain:
        w.string(7, node.domain)
    return w


def _encode_tensor(tensor: TensorInfo) -> _Writer:
    w = _Writer()
    w.packed_varints(1, tensor.dims)
    w.varint(2, _STR_TO_ONNX_DTYPE.get(tensor.dtype, 1))
    if tensor.data is not None:
        if tensor.dtype in ("int64", "int32", "bool"):
            w.packed_varints(7, [int(v) for v in tensor.data])
        else:
            w.packed_floats(4, [float(v) for v in tensor.data])
    w.string(8, tensor.name)
    return w


def _encode_value_info(info: ValueInfo) -> _Writer:
    shape = _Writer()
    for dim in info.dims:
        d = _Writer()
        d.varint(1, int(dim))
        shape.message(1, d)
    tensor_type = _Writer()
    tensor_type.varint(1, _STR_TO_ONNX_DTYPE.get(info.dtype, 1))
    tensor_type.message(2, shape)
    type_proto = _Writer()
    type_proto.message(1, tensor_type)
    w = _Writer()
    w.string(1, info.name)
    w.message(2, type_proto)
    return w


def _encode_graph(graph: GraphSpec) -> _Writer:
    w = _Writer()
    for node in graph.nodes:
        w.message(1, _encode_node(node))
    w.string(2, graph.name)
    if graph.source_ranks:
        w.string(10, json.dumps({"repro.source_ranks": graph.source_ranks},
                                sort_keys=True))
    for tensor in graph.initializers:
        w.message(5, _encode_tensor(tensor))
    for info in graph.inputs:
        w.message(11, _encode_value_info(info))
    for info in graph.outputs:
        w.message(12, _encode_value_info(info))
    for info in graph.value_infos:
        w.message(13, _encode_value_info(info))
    return w


def model_spec_to_bytes(spec: ModelSpec) -> bytes:
    """Serialise ``spec`` to ONNX protobuf wire bytes."""
    w = _Writer()
    w.varint(1, spec.ir_version)
    w.string(2, spec.producer)
    w.message(7, _encode_graph(spec.graph))
    for domain in sorted(spec.opset):
        entry = _Writer()
        if domain:
            entry.string(1, domain)
        entry.varint(2, spec.opset[domain])
        w.message(8, entry)
    return w.dumps()


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def loads_model_spec(data: bytes) -> ModelSpec:
    """Parse ONNX protobuf model bytes; anything else raises ``ValueError``."""
    try:
        return _decode_model(data)
    except (ValueError, AttributeError, TypeError) as exc:
        # AttributeError / TypeError: a known field of the wrong wire type.
        raise ValueError(f"input must be ONNX protobuf: {exc}") from exc


def load_model_spec(path: Union[str, Path]) -> ModelSpec:
    """Load an ``.onnx`` model file (protobuf, whatever its suffix)."""
    return loads_model_spec(Path(path).read_bytes())


def save_model_spec(spec: ModelSpec, path: Union[str, Path]) -> None:
    """Write ``spec`` to ``path`` as ONNX protobuf, whatever its suffix."""
    Path(path).write_bytes(model_spec_to_bytes(spec))
