"""ONNX-like JSON serialisation for computation graphs.

The paper imports models through ONNX into TASO's representation and exports
the optimised graph back out.  We provide the same round-trip through a plain
JSON document so optimised graphs can be persisted and compared.

The document (``format_version`` 2) is a template table.  A model repeats a
few dozen distinct nodes, so each distinct tensor spec and each distinct node
template is listed once and every node is a flat row of ints::

    {"format_version": 2, "name": "bert",
     "specs": [[dims, dtype, is_constant, name], ...],
     "templates": [[op, attrs, [output spec index, ...]], ...],
     "nodes": [[id, template index, name, src, src_slot, src, src_slot, ...],
               ...]}

A row's ``(src, src_slot)`` pairs are its in-edges in ``dst_slot`` order, and
rows are listed producers first (the writer's topological order), so a
document cannot describe a cycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from .graph import Edge, Graph, Node
from .ops import OpType
from .tensor import DataType, TensorShape, TensorSpec

__all__ = ["graph_to_dict", "graph_from_dict", "save_graph", "load_graph"]

_FORMAT_VERSION = 2


def graph_to_dict(graph: Graph) -> Dict:
    """Serialise a graph to a JSON-compatible dictionary."""
    specs: List[list] = []
    spec_index: Dict[TensorSpec, int] = {}
    # Nodes share their spec objects (one per template), so most lookups
    # hit by identity and skip the dataclass hash; every spec is alive for
    # the whole call, so no id is reused.
    spec_by_id: Dict[int, int] = {}
    templates: List[list] = []
    template_index: Dict[tuple, int] = {}
    rows: List[list] = []
    nodes = graph.nodes
    for nid in graph.topological_order():
        node = nodes[nid]
        outputs = []
        for spec in node.outputs:
            index = spec_by_id.get(id(spec))
            if index is None:
                index = spec_index.get(spec)
                if index is None:
                    index = spec_index[spec] = len(specs)
                    specs.append([spec.shape.as_list(), spec.dtype.value,
                                  spec.is_constant, spec.name])
                spec_by_id[id(spec)] = index
            outputs.append(index)
        # ``repr`` keeps attr types apart (1 / 1.0 / True), which value
        # equality would merge; the op by its value string, whose hash is
        # cached (an enum member's is a Python-level call).
        op = node.op_type.value
        attrs = node.attrs
        key = (op, repr(attrs), tuple(outputs))
        template = template_index.get(key)
        if template is None:
            template = template_index[key] = len(templates)
            templates.append([op, {name: _encode(value)
                                   for name, value in attrs.items()},
                              outputs])
        row = [nid, template, node.name]
        for edge in graph.in_edges(nid):
            row += (edge.src, edge.src_slot)
        rows.append(row)
    return {
        "format_version": _FORMAT_VERSION,
        "name": graph.name,
        "specs": specs,
        "templates": templates,
        "nodes": rows,
    }


def graph_from_dict(data: Dict, *, validate: bool = True) -> Graph:
    """Reconstruct a graph from :func:`graph_to_dict` output.

    Each spec and each template is built once per document, then every node
    straight from its row.  The stored output specs are installed as they
    are, then :meth:`Graph.validate` re-infers every node's shapes against
    them.  ``validate=False`` is for a reader that has just proved the
    document to be the bytes a validating writer produced (the service's
    disk tier, by digest); a file, an import, anything from outside keeps
    the default.

    A malformed document raises ``ValueError`` naming the node it stopped
    at, in either mode; any ``format_version`` but 2 is refused.
    """
    version = data.get("format_version") if isinstance(data, dict) else None
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported graph format version {version}")
    tables = [data.get(key) for key in ("specs", "templates", "nodes")]
    if not all(type(table) is list for table in tables):
        raise ValueError("a graph document's specs, templates and nodes "
                         "are lists")
    raw_specs, raw_templates, rows = tables
    templates = _decode_templates(raw_templates, _Specs(raw_specs), rows)
    nodes: Dict[int, Node] = {}
    in_edges: Dict[int, List[Edge]] = {}
    out_edges: Dict[int, List[Edge]] = {}
    new = object.__new__
    make_edge = tuple.__new__
    row = None
    try:
        for row in rows:
            nid = row[0]
            try:
                base, attrs, outputs = templates[row[1]]
            except KeyError:
                raise ValueError(f"no template {row[1]!r} (the document "
                                 f"lists {len(templates)})") from None
            node = new(Node)
            state = base.copy()
            state["node_id"] = nid
            state["name"] = row[2]
            state["attrs"] = attrs.copy()
            state["outputs"] = list(outputs)
            node.__dict__ = state
            edges = []
            end = len(row)
            if end > 3:
                if not end & 1:
                    raise ValueError(f"an odd-length edge tail {row[3:]}")
                for i in range(3, end, 2):
                    src = row[i]
                    edge = make_edge(Edge, (src, nid, row[i + 1],
                                            (i - 3) >> 1))
                    try:
                        out_edges[src].append(edge)
                    except (KeyError, TypeError):
                        raise ValueError(
                            f"an input from node {src!r}, which is missing "
                            f"or listed after it") from None
                    edges.append(edge)
            nodes[nid] = node
            in_edges[nid] = edges
            out_edges[nid] = []
    except (ValueError, LookupError, TypeError) as exc:
        who = row[0] if isinstance(row, list) and row else row
        reason = str(exc) if type(exc) is ValueError \
            else f"a malformed row {row!r} ({type(exc).__name__}: {exc})"
        raise ValueError(f"node {who!r}: {reason}") from None
    if len(nodes) != len(rows):
        seen = set()
        for row in rows:
            if row[0] in seen:
                raise ValueError(f"node {row[0]!r}: a duplicate node id")
            seen.add(row[0])
    if nodes and (set(map(type, nodes)) != {int} or min(nodes) < 0):
        bad = next(nid for nid in nodes if type(nid) is not int or nid < 0)
        raise ValueError(f"node {bad!r}: an id that is not a natural number")
    graph = Graph._assemble(data.get("name", "graph"), nodes, in_edges,
                            out_edges)
    if validate:
        graph.validate()
    return graph


def save_graph(graph: Graph, path: Union[str, Path]) -> None:
    """Write a graph to a JSON file."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_graph(path: Union[str, Path]) -> Graph:
    """Read a graph previously written by :func:`save_graph`."""
    return graph_from_dict(json.loads(Path(path).read_text()))


#: Op type and dtype by their JSON string: an enum call costs a Python-level
#: lookup per template.
_OP_TYPES = {op.value: op for op in OpType}
_DTYPES = {dtype.value: dtype for dtype in DataType}
#: The JSON scalar types: a tuple holding only these has no tags inside.
_SCALARS = frozenset({int, float, str, bool, type(None)})


#: Every spec a document has listed, process-wide: ``(dims, dtype,
#: is_constant, name)`` as the document spells them -> the spec.  Building a
#: spec is most of what decoding a template costs, and documents of one
#: model list the same few dozen.  Specs are immutable; bounded at 65 536
#: entries and a plain dict, like ``graph._TEMPLATES``.
_SPECS: Dict[tuple, TensorSpec] = {}
_SPECS_MAX = 65536


class _Specs(dict):
    """The document's spec table, each entry decoded on first use."""

    def __init__(self, raw: list):
        super().__init__()
        self.raw = raw

    def __missing__(self, index) -> TensorSpec:
        if type(index) is not int or not 0 <= index < len(self.raw):
            raise ValueError(f"no spec {index!r} (the document lists "
                             f"{len(self.raw)})")
        raw = self.raw[index]
        try:
            dims, dtype, is_constant, name = raw
            # Checked before the lookup, so that what decodes never depends
            # on the table, and equal keys build equal specs.
            if type(is_constant) is not bool or type(name) is not str:
                raise TypeError("is_constant must be a bool and name a str")
            key = (tuple(dims), dtype, is_constant, name)
            spec = _SPECS.get(key)
            if spec is None:
                spec = TensorSpec(TensorShape(dims), _DTYPES[dtype],
                                  is_constant, name)
                if len(_SPECS) < _SPECS_MAX:
                    _SPECS[key] = spec
        except (LookupError, ValueError, TypeError) as exc:
            raise ValueError(f"spec {index} {raw!r} is malformed "
                             f"({type(exc).__name__}: {exc})") from None
        self[index] = spec
        return spec


def _decode_templates(raw: list, specs: _Specs,
                      rows: list) -> Dict[int, tuple]:
    """The document's template table as ``{index: (the node fields every
    node of the template shares, attrs, output specs)}``; a template that
    does not decode is reported against the first row that names it."""
    templates = {}
    spec = specs.__getitem__
    for index, entry in enumerate(raw):
        try:
            op, attrs, outputs = entry
            op_type = _OP_TYPES.get(op)
            if op_type is None:
                raise ValueError(f"unknown op {op!r}")
            templates[index] = (
                {"op_type": op_type, "_hash_prefix": None, "_derived": None,
                 "_template_memo": None},
                {key: _decode(value) for key, value in attrs.items()},
                tuple(map(spec, outputs)))
        except (ValueError, TypeError, AttributeError) as exc:
            reason = str(exc) if type(exc) is ValueError else \
                f"{entry!r} is malformed ({type(exc).__name__}: {exc})"
            raise ValueError(f"{_first_user(rows, index)}template {index}: "
                             f"{reason}") from None
    return templates


def _first_user(rows: list, index: int) -> str:
    """``"node <id>: "`` for the first row naming template ``index``."""
    for row in rows:
        if isinstance(row, list) and len(row) > 1 and row[1] == index:
            return f"node {row[0]!r}: "
    return ""


def _encode(value):
    # JSON has one sequence type: a tuple is tagged, at any depth.
    if isinstance(value, tuple):
        if set(map(type, value)) <= _SCALARS:
            return {"__tuple__": list(value)}
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if type(value) is dict and "__tuple__" in value:
        items = value["__tuple__"]
        if set(map(type, items)) <= _SCALARS:
            return tuple(items)
        return tuple([_decode(v) for v in items])
    if type(value) is list:
        return [_decode(v) for v in value]
    return value
