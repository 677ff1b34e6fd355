"""Compact binary wire format for graphs.

The JSON codec in :mod:`repro.ir.serialize` is the archival format; this
module is the *transport* format the remote worker protocol uses.  A payload
is a complete graph, including its private id counter (``Graph._next_id``).
Carrying the counter matters: rewrites allocate node ids from it, so a
replica decoded in another process hands out exactly the ids the originating
process would, and a search run on the replica is the search run on the
original.

Encoded graphs round-trip exactly: node ids, the id counter, attrs (including
tuples, preserved as tuples), output specs, edge slots and — consequently —
the structural hash and every cost estimate are identical on both sides.
Node iteration order is canonicalised to ascending id, which is the invariant
order every live graph already has (ids are handed out monotonically and
``Graph.copy`` preserves insertion order), so match enumeration on a decoded
replica is identical to the original too.

Layout: little-endian, varint-based.  Strings (op names, dtypes) are
interned in a per-payload string table.  No pickle anywhere — payloads are
safe to pass between heterogeneous processes and over sockets.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from .graph import Edge, Graph, Node, NodeId
from .ops import OpType
from .tensor import DataType, TensorShape, TensorSpec

__all__ = ["encode_graph", "decode_graph", "roundtrip_equal",
           "WireFormatError", "WIRE_VERSION"]

WIRE_VERSION = 1

_MAGIC = b"RG"
#: Payload kind byte of the envelope; whole graphs are the only kind.
_KIND_GRAPH = 1

# Attribute value tags.
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_TUPLE = 6
_T_LIST = 7
_T_DICT = 8
_T_BYTES = 9

_FLOAT = struct.Struct("<d")


class WireFormatError(ValueError):
    """Raised when a payload cannot be decoded."""


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def _w_uvarint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise WireFormatError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _r_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise WireFormatError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _w_svarint(buf: bytearray, value: int) -> None:
    # ZigZag: interleave signs so small magnitudes stay small.
    _w_uvarint(buf, value * 2 if value >= 0 else -value * 2 - 1)


def _r_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _r_uvarint(data, pos)
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


def _w_str(buf: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    _w_uvarint(buf, len(raw))
    buf.extend(raw)


def _r_str(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = _r_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise WireFormatError("truncated string")
    return data[pos:end].decode("utf-8"), end


def _w_value(buf: bytearray, value: object) -> None:
    """Tagged encoding of one attribute value (JSON-ish type universe)."""
    if value is None:
        buf.append(_T_NONE)
    elif value is True:
        buf.append(_T_TRUE)
    elif value is False:
        buf.append(_T_FALSE)
    elif isinstance(value, int):
        buf.append(_T_INT)
        _w_svarint(buf, value)
    elif isinstance(value, float):
        buf.append(_T_FLOAT)
        buf.extend(_FLOAT.pack(value))
    elif isinstance(value, str):
        buf.append(_T_STR)
        _w_str(buf, value)
    elif isinstance(value, tuple):
        buf.append(_T_TUPLE)
        _w_uvarint(buf, len(value))
        for item in value:
            _w_value(buf, item)
    elif isinstance(value, list):
        buf.append(_T_LIST)
        _w_uvarint(buf, len(value))
        for item in value:
            _w_value(buf, item)
    elif isinstance(value, dict):
        buf.append(_T_DICT)
        _w_uvarint(buf, len(value))
        for key, item in value.items():
            _w_str(buf, str(key))
            _w_value(buf, item)
    elif isinstance(value, (bytes, bytearray)):
        buf.append(_T_BYTES)
        _w_uvarint(buf, len(value))
        buf.extend(value)
    else:
        raise WireFormatError(
            f"unsupported attribute value type {type(value).__name__}")


def _r_value(data: bytes, pos: int) -> Tuple[object, int]:
    if pos >= len(data):
        raise WireFormatError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        return _r_svarint(data, pos)
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise WireFormatError("truncated float")
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    if tag == _T_STR:
        return _r_str(data, pos)
    if tag in (_T_TUPLE, _T_LIST):
        count, pos = _r_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _r_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        count, pos = _r_uvarint(data, pos)
        out: Dict[str, object] = {}
        for _ in range(count):
            key, pos = _r_str(data, pos)
            out[key], pos = _r_value(data, pos)
        return out, pos
    if tag == _T_BYTES:
        length, pos = _r_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise WireFormatError("truncated bytes")
        return bytes(data[pos:end]), end
    raise WireFormatError(f"unknown value tag {tag}")


class _StringTable:
    """Interns strings during encoding; emitted once per payload."""

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self.strings: List[str] = []

    def intern(self, value: str) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = self._index[value] = len(self.strings)
            self.strings.append(value)
        return idx

    def write(self, buf: bytearray) -> None:
        _w_uvarint(buf, len(self.strings))
        for value in self.strings:
            _w_str(buf, value)


def _r_strtab(data: bytes, pos: int) -> Tuple[List[str], int]:
    count, pos = _r_uvarint(data, pos)
    strings = []
    for _ in range(count):
        value, pos = _r_str(data, pos)
        strings.append(value)
    return strings, pos


# ---------------------------------------------------------------------------
# Node records
# ---------------------------------------------------------------------------

def _w_node(buf: bytearray, table: _StringTable, graph: Graph, nid: NodeId,
            node: Node) -> None:
    _w_uvarint(buf, nid)
    _w_uvarint(buf, table.intern(node.op_type.value))
    _w_str(buf, node.name)
    _w_uvarint(buf, len(node.attrs))
    for key, value in node.attrs.items():
        _w_str(buf, key)
        _w_value(buf, value)
    _w_uvarint(buf, len(node.outputs))
    for spec in node.outputs:
        _w_uvarint(buf, table.intern(spec.dtype.value))
        buf.append(1 if spec.is_constant else 0)
        _w_str(buf, spec.name)
        dims = spec.shape.dims
        _w_uvarint(buf, len(dims))
        for dim in dims:
            _w_uvarint(buf, dim)
    edges = graph.in_edges(nid)  # dst_slot order; slots are dense (validate)
    _w_uvarint(buf, len(edges))
    for edge in edges:
        _w_uvarint(buf, edge.src)
        _w_uvarint(buf, edge.src_slot)


def _r_node(data: bytes, pos: int, strings: List[str],
            ) -> Tuple[NodeId, Node, List[Tuple[int, int]], int]:
    """Returns (id, node, in-edge (src, src_slot) pairs in slot order, pos)."""
    nid, pos = _r_uvarint(data, pos)
    op_idx, pos = _r_uvarint(data, pos)
    name, pos = _r_str(data, pos)
    nattrs, pos = _r_uvarint(data, pos)
    attrs: Dict[str, object] = {}
    for _ in range(nattrs):
        key, pos = _r_str(data, pos)
        attrs[key], pos = _r_value(data, pos)
    nouts, pos = _r_uvarint(data, pos)
    outputs: List[TensorSpec] = []
    for _ in range(nouts):
        dtype_idx, pos = _r_uvarint(data, pos)
        if pos >= len(data):
            raise WireFormatError("truncated output spec")
        is_constant = bool(data[pos])
        pos += 1
        spec_name, pos = _r_str(data, pos)
        rank, pos = _r_uvarint(data, pos)
        dims = []
        for _ in range(rank):
            dim, pos = _r_uvarint(data, pos)
            dims.append(dim)
        outputs.append(TensorSpec(TensorShape(dims),
                                  dtype=DataType(strings[dtype_idx]),
                                  is_constant=is_constant, name=spec_name))
    nins, pos = _r_uvarint(data, pos)
    edges: List[Tuple[int, int]] = []
    for _ in range(nins):
        src, pos = _r_uvarint(data, pos)
        src_slot, pos = _r_uvarint(data, pos)
        edges.append((src, src_slot))
    node = Node(node_id=nid, op_type=OpType(strings[op_idx]), attrs=attrs,
                outputs=outputs, name=name)
    return nid, node, edges, pos


def _check_header(data: bytes) -> int:
    if len(data) < 4 or data[:2] != _MAGIC:
        raise WireFormatError("not a graph wire payload (bad magic)")
    if data[2] != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {data[2]}")
    if data[3] != _KIND_GRAPH:
        raise WireFormatError(f"unsupported payload kind {data[3]}")
    return 4


# ---------------------------------------------------------------------------
# Whole graphs
# ---------------------------------------------------------------------------

def encode_graph(graph: Graph) -> bytes:
    """Serialise ``graph`` (including its id counter) to bytes."""
    table = _StringTable()
    body = bytearray()
    nodes = graph.nodes
    ids = sorted(nodes)
    _w_uvarint(body, len(ids))
    for nid in ids:
        _w_node(body, table, graph, nid, nodes[nid])
    buf = bytearray(_MAGIC + bytes((WIRE_VERSION, _KIND_GRAPH)))
    _w_str(buf, graph.name)
    _w_uvarint(buf, graph.id_bound)
    table.write(buf)
    buf.extend(body)
    return bytes(buf)


def decode_graph(data: bytes, validate: bool = False) -> Graph:
    """Reconstruct a graph encoded by :func:`encode_graph`."""
    pos = _check_header(data)
    name, pos = _r_str(data, pos)
    next_id, pos = _r_uvarint(data, pos)
    strings, pos = _r_strtab(data, pos)
    count, pos = _r_uvarint(data, pos)
    records = []
    for _ in range(count):
        nid, node, edges, pos = _r_node(data, pos, strings)
        records.append((nid, node, edges))
    graph = _build(name, next_id, records)
    if validate:
        graph.validate()
    return graph


def _build(name: str, next_id: int,
           records: List[Tuple[NodeId, Node, List[Tuple[int, int]]]]) -> Graph:
    """Assemble a graph from decoded node records (ascending-id order)."""
    graph = Graph(name)
    nodes = graph.nodes
    in_map = graph._in_edges
    out_map = graph._out_edges
    for nid, node, _ in records:
        nodes[nid] = node
        out_map[nid] = []
    for nid, _, edges in records:
        in_list: List[Edge] = []
        for dst_slot, (src, src_slot) in enumerate(edges):
            if src not in nodes:
                raise WireFormatError(
                    f"edge references unknown node {src} -> {nid}")
            edge = Edge(src=src, dst=nid, src_slot=src_slot, dst_slot=dst_slot)
            in_list.append(edge)
            out_map.edit(src).append(edge)
        in_map[nid] = in_list
    graph._next_id = max(
        next_id, max((nid for nid, _, _ in records), default=-1) + 1)
    graph._rebuild_indices()
    return graph


def _node_unchanged(parent: Graph, child: Graph, nid: NodeId) -> bool:
    pnode = parent.nodes[nid]
    cnode = child.nodes[nid]
    if pnode is not cnode:
        if (pnode.op_type is not cnode.op_type or pnode.attrs != cnode.attrs
                or pnode.outputs != cnode.outputs or pnode.name != cnode.name):
            return False
    pedges = parent._in_edges[nid]
    cedges = child._in_edges[nid]
    return pedges is cedges or list(pedges) == list(cedges)


def roundtrip_equal(a: Graph, b: Graph) -> bool:
    """True when two graphs are indistinguishable to the engine: same ids,
    same id counter, same structure per node, same structural hash."""
    if a.id_bound != b.id_bound or set(a.nodes) != set(b.nodes):
        return False
    for nid in a.nodes:
        if not _node_unchanged(a, b, nid):
            return False
    return a.structural_hash() == b.structural_hash()
