"""From-scratch oracle for ``Graph.structural_hash``
(``src/repro/ir/graph.py``), compared by
``tests/ir/test_structural_hash.py`` and
``tests/rules/test_engine_equivalence.py::TestStructuralHash``.

A plain recursive restatement of the Merkle contract that shares nothing
with the implementation: no digest table, no per-node prefix memo, no
parent lineage, no whole-graph memo — only the public graph API.  The
incremental hash must agree with it on every graph the suites produce.
"""

import hashlib

from repro.ir import Graph, OpType

__all__ = ["oracle_structural_hash"]


def _node_digests(graph: Graph) -> dict:
    """``{node id: 16-byte Merkle digest}`` for every node of ``graph``."""
    input_rank = {nid: rank for rank, nid in enumerate(sorted(
        nid for nid, node in graph.nodes.items()
        if node.op_type is OpType.INPUT))}
    digests = {}

    def digest(nid):
        if nid not in digests:
            node = graph.nodes[nid]
            body = repr((node.op_type.value,
                         sorted((k, str(v)) for k, v in node.attrs.items()),
                         [o.shape.as_list() for o in node.outputs])).encode()
            payload = len(body).to_bytes(4, "little") + body
            for edge in graph.in_edges(nid):  # sorted by dst_slot
                payload += digest(edge.src)
                payload += edge.src_slot.to_bytes(4, "little")
            if nid in input_rank:
                payload += input_rank[nid].to_bytes(4, "little")
            digests[nid] = hashlib.blake2b(payload, digest_size=16).digest()
        return digests[nid]

    for nid in graph.nodes:
        digest(nid)
    return digests


def oracle_structural_hash(graph: Graph) -> str:
    digests = _node_digests(graph)
    total = sum(int.from_bytes(d, "little") for d in digests.values())
    for nid in graph.nodes:
        consumers = graph.out_edges(nid)
        if len(consumers) > 1:  # fan-out term
            records = sorted(
                digests[edge.dst] + edge.dst_slot.to_bytes(4, "little")
                for edge in consumers)
            total += int.from_bytes(hashlib.blake2b(
                digests[nid] + b"".join(records), digest_size=16,
                person=b"fanout").digest(), "little")
    return hashlib.sha256(
        total.to_bytes(24, "little")
        + len(graph.nodes).to_bytes(8, "little")).hexdigest()
