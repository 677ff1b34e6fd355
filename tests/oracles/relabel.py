"""A graph rebuilt under another node numbering: what must not change then
— ``Graph.structural_hash`` (``tests/ir/test_structural_hash.py``) and the
cost total (``tests/cost/test_exact_total.py``) — is compared across it.
"""

import numpy as np

from repro.ir import Graph

__all__ = ["rebuilt_in_random_order"]


def rebuilt_in_random_order(graph: Graph, seed: int) -> Graph:
    """``graph`` re-created node by node in a random topological order.

    Independent branches come out in permuted creation order (so every
    node id changes); ``INPUT`` nodes keep their relative order, because
    inputs are the caller's positional interface.
    """
    rng = np.random.default_rng(seed)
    waiting = {nid: {e.src for e in graph.in_edges(nid)}
               for nid in graph.nodes}
    inputs = graph.input_nodes()
    for before, after in zip(inputs, inputs[1:]):
        waiting[after].add(before)
    clone = Graph(graph.name)
    new_id = {}
    while waiting:
        ready = sorted(nid for nid, deps in waiting.items()
                       if deps <= new_id.keys())
        nid = ready[int(rng.integers(len(ready)))]
        del waiting[nid]
        node = graph.nodes[nid]
        new_id[nid] = clone.add_node(
            node.op_type,
            [(new_id[e.src], e.src_slot) for e in graph.in_edges(nid)],
            node.attrs, name=node.name)
    return clone
