"""Edge paths of the template memo (``Graph.template_memo``): a full
template table, pickling, and nodes ``Graph.add_node`` did not make.

A node shares its template's memo only when the template table holds the
template and the node's stored outputs are the ones it infers; any other
node prices from a private memo, to the same values.
"""

import pickle

import pytest

from repro.cost import CostModel, E2ESimulator
from repro.experiments import build_small_model
from repro.ir import OpType
from repro.ir import graph as graph_module
from repro.ir.serialize import graph_from_dict, graph_to_dict
from repro.ir.tensor import TensorShape, TensorSpec
from repro.search import TASOOptimizer


def table_memos(table):
    """The ids of the memos ``table`` holds."""
    return {id(memo) for _, _, memo in table.values()}


def prices(graph):
    return (CostModel().estimate_cached(graph),
            E2ESimulator().latency_ms(graph))


@pytest.mark.parametrize("model", ["squeezenet", "bert"])
def test_a_full_table_changes_no_search(model, monkeypatch, fresh_templates):
    """With no room in the table every node keeps a private memo: TASO's
    final cost and latency are bit for bit those of a shared table."""
    shared = TASOOptimizer(max_iterations=6).optimise(
        build_small_model(model))
    monkeypatch.setattr(graph_module, "_TEMPLATES", {})
    monkeypatch.setattr(graph_module, "_TEMPLATES_MAX", 0)
    private = TASOOptimizer(max_iterations=6).optimise(
        build_small_model(model))
    assert not graph_module._TEMPLATES
    assert private.final_cost_ms.hex() == shared.final_cost_ms.hex()
    assert private.final_latency_ms.hex() == shared.final_latency_ms.hex()
    assert private.applied_rules == shared.applied_rules
    assert private.final_graph.structural_hash() \
        == shared.final_graph.structural_hash()


def test_a_pickled_graph_carries_no_memo_and_prices_equal(fresh_templates):
    class LocalCostModel(CostModel):
        """Importable by no other process: its keys must not travel."""

    graph = build_small_model("squeezenet")
    expected = prices(graph)
    LocalCostModel().estimate_cached(graph)
    for nid in graph.nodes:
        graph.node_memo(nid)["edges"] = nid
    clone = pickle.loads(pickle.dumps(graph))
    for node in clone.nodes.values():
        assert node._template_memo is None and node._derived is None
    assert clone.memo_peek(CostModel()._total_key) is None
    cost_model, simulator = CostModel(), E2ESimulator()
    assert (cost_model.estimate_cached(clone),
            simulator.latency_ms(clone)) == expected
    # Unpickled, its nodes find the templates the original priced.
    assert cost_model.nodes_derived == simulator.nodes_priced == 0
    for nid in clone.nodes:
        assert clone.template_memo(nid) is graph.template_memo(nid)


def test_decoded_and_rewired_nodes_attach_to_the_table(fresh_templates):
    graph = build_small_model("bert")
    document = graph_to_dict(graph)
    expected = prices(graph)
    fresh_templates.clear()

    decoded = graph_from_dict(document)
    assert all(node._template_memo is None for node in decoded.nodes.values())
    assert prices(decoded) == expected
    memos = table_memos(fresh_templates)
    for nid in decoded.nodes:
        assert id(decoded.template_memo(nid)) in memos, nid

    child = decoded.copy()
    dst = next(nid for nid in child.nodes if not child.nodes[nid].is_source
               and child.nodes[nid].op_type is not OpType.OUTPUT)
    edge = child.in_edges(dst)[0]
    child.rewire_input(dst, edge.dst_slot, edge.src, edge.src_slot)
    assert child.nodes[dst]._template_memo is None
    assert child.template_memo(dst) is decoded.template_memo(dst)
    assert prices(child) == expected


def test_a_node_whose_outputs_differ_from_its_template_keeps_its_own(
        fresh_templates):
    prices(build_small_model("squeezenet"))
    graph = build_small_model("squeezenet")
    nid = next(nid for nid, node in graph.nodes.items()
               if node.op_type is OpType.RELU)
    template = graph.template_memo(nid)
    node = graph.nodes[nid].copy()
    spec = node.outputs[0]
    node.outputs = [TensorSpec(TensorShape(spec.shape.dims), spec.dtype,
                               spec.is_constant, name="renamed")]
    graph.nodes[nid] = node
    memo = graph.template_memo(nid)
    assert memo == {} and memo is not template
    assert id(memo) not in table_memos(fresh_templates)
    before = dict(template)
    cost_model = CostModel()
    cost_model.estimate_cached(graph)
    assert cost_model.nodes_derived == 1
    assert template == before
