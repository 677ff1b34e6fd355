"""ONNX-like JSON serialisation for computation graphs.

The paper imports models through ONNX into TASO's representation and exports
the optimised graph back out.  We provide the same round-trip through a plain
JSON document so optimised graphs can be persisted and compared.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from .graph import Edge, Graph, Node
from .ops import OpType
from .tensor import TensorSpec

__all__ = ["graph_to_dict", "graph_from_dict", "save_graph", "load_graph"]

_FORMAT_VERSION = 1


def graph_to_dict(graph: Graph) -> Dict:
    """Serialise a graph to a JSON-compatible dictionary."""
    nodes = []
    for nid in graph.topological_order():
        node = graph.nodes[nid]
        nodes.append({
            "id": nid,
            "op": node.op_type.value,
            "name": node.name,
            "attrs": _encode_attrs(node.attrs),
            "outputs": [spec.to_dict() for spec in node.outputs],
            "inputs": [
                {"src": e.src, "src_slot": e.src_slot, "dst_slot": e.dst_slot}
                for e in graph.in_edges(nid)
            ],
        })
    return {
        "format_version": _FORMAT_VERSION,
        "name": graph.name,
        "nodes": nodes,
    }


def graph_from_dict(data: Dict, *, validate: bool = True) -> Graph:
    """Reconstruct a graph from :func:`graph_to_dict` output.

    The stored output specs are installed as they are, then
    :meth:`Graph.validate` re-infers every node's shapes against them — a
    third of the call.  ``validate=False`` is for a reader that has just
    proved the document to be the bytes a validating writer produced (the
    service's disk tier, by digest); a file, an import, anything from
    outside keeps the default.
    """
    if data.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported graph format version {data.get('format_version')}")
    graph = Graph(data.get("name", "graph"))
    # Recreate nodes preserving the original ids so edge references resolve.
    # Install them in ascending-id order: the engine's invariant is that
    # ``graph.nodes`` iterates in id order (= creation order), which keeps
    # indexed anchor matching and full-scan matching enumeration-identical.
    max_id = -1
    # A model repeats a handful of tensor specs (reduced bert: 14 distinct
    # among 95) and they are immutable: build each once per document.
    specs: Dict[tuple, TensorSpec] = {}

    def spec_of(o: Dict) -> TensorSpec:
        key = (tuple(o["shape"]), o.get("dtype"), o.get("is_constant"),
               o.get("name"))
        spec = specs.get(key)
        if spec is None:
            spec = specs[key] = TensorSpec.from_dict(o)
        return spec

    for entry in sorted(data["nodes"], key=lambda e: int(e["id"])):
        nid = int(entry["id"])
        node = Node(
            node_id=nid,
            op_type=OpType(entry["op"]),
            attrs=_decode_attrs(entry.get("attrs", {})),
            outputs=[spec_of(o) for o in entry["outputs"]],
            name=entry.get("name", ""),
        )
        graph.nodes[nid] = node
        graph._in_edges[nid] = []
        graph._out_edges[nid] = []
        max_id = max(max_id, nid)
    for entry in data["nodes"]:
        nid = int(entry["id"])
        # Live graphs keep every in-edge list in dst_slot order (the
        # structural hash reads them as stored); a file need not.
        for edge in sorted(entry.get("inputs", []),
                           key=lambda edge: int(edge["dst_slot"])):
            e = Edge(src=int(edge["src"]), dst=nid,
                     src_slot=int(edge["src_slot"]), dst_slot=int(edge["dst_slot"]))
            graph._in_edges[nid].append(e)
            try:
                graph._out_edges[e.src].append(e)
            except KeyError:
                raise ValueError(f"node {nid} takes an input from missing "
                                 f"node {e.src}") from None
    graph._next_id = max_id + 1
    graph._rebuild_indices()  # nodes were installed without the mutation API
    if validate:
        graph.validate()
    return graph


def save_graph(graph: Graph, path: Union[str, Path]) -> None:
    """Write a graph to a JSON file."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_graph(path: Union[str, Path]) -> Graph:
    """Read a graph previously written by :func:`save_graph`."""
    return graph_from_dict(json.loads(Path(path).read_text()))


def _encode_attrs(attrs: Dict) -> Dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, tuple):
            out[key] = {"__tuple__": list(value)}
        else:
            out[key] = value
    return out


def _decode_attrs(attrs: Dict) -> Dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, dict) and "__tuple__" in value:
            out[key] = tuple(value["__tuple__"])
        else:
            out[key] = value
    return out
