"""Tests for the Graph data structure: construction, traversal, invariants."""

import pytest

from repro.ir import Graph, GraphBuilder, GraphValidationError, OpType
from repro.ir.ops import op_index
from repro.ir.serialize import graph_from_dict, graph_to_dict


def small_graph():
    b = GraphBuilder("g")
    x = b.input((2, 4), name="x")
    w = b.weight((4, 8), name="w")
    mm = b.matmul(x, w)
    r = b.relu(mm)
    return b.graph, (x, w, mm, r)


class TestConstruction:
    def test_add_node_infers_shapes(self):
        g, (x, w, mm, r) = small_graph()
        assert g.nodes[mm].output_spec.shape.dims == (2, 8)
        assert g.nodes[r].output_spec.shape.dims == (2, 8)
        assert g.num_nodes == 4
        assert g.num_edges == 3

    def test_add_node_unknown_input(self):
        g = Graph()
        with pytest.raises(GraphValidationError):
            g.add_node(OpType.RELU, (99,))

    def test_add_node_bad_arity(self):
        g, (x, w, mm, r) = small_graph()
        with pytest.raises(ValueError):
            g.add_node(OpType.MATMUL, (x,))

    def test_a_refused_node_leaves_the_op_table_id_indexed(self):
        """Shape inference refusing a node uses up its id; the op table
        must still map every later id to its own op."""
        g, (x, w, mm, r) = small_graph()
        with pytest.raises(ValueError):
            g.add_node(OpType.MATMUL, (x, x))  # (2, 4) @ (2, 4)
        after = g.add_node(OpType.TANH, (r,))
        table = g.op_index_table()
        assert [table[nid] for nid in sorted(g.nodes)] == [
            op_index(g.nodes[nid].op_type) for nid in sorted(g.nodes)]
        assert table[after] == op_index(OpType.TANH)

    def test_remove_node(self):
        g, (x, w, mm, r) = small_graph()
        g.remove_node(r)
        assert r not in g.nodes
        assert g.successors(mm) == []

    def test_remove_missing_node(self):
        g, _ = small_graph()
        with pytest.raises(GraphValidationError):
            g.remove_node(1234)

    def test_rewire_input(self):
        g, (x, w, mm, r) = small_graph()
        other = g.add_node(OpType.RELU, (mm,))
        g.rewire_input(r, 0, other)
        assert g.predecessors(r) == [other]
        assert r in g.successors(other)

    def test_rewire_missing_slot(self):
        g, (x, w, mm, r) = small_graph()
        with pytest.raises(GraphValidationError):
            g.rewire_input(r, 5, mm)


class TestQueries:
    def test_sources_and_sinks(self):
        g, (x, w, mm, r) = small_graph()
        assert set(g.source_nodes()) == {x, w}
        assert g.input_nodes() == [x]
        assert g.sink_nodes() == [r]
        assert g.operator_nodes() == [mm, r]

    def test_input_specs_in_slot_order(self):
        g, (x, w, mm, r) = small_graph()
        specs = g.input_specs(mm)
        assert specs[0].shape.dims == (2, 4)
        assert specs[1].shape.dims == (4, 8)

    def test_op_type_counts(self):
        g, _ = small_graph()
        counts = g.op_type_counts()
        assert counts["MatMul"] == 1 and counts["Relu"] == 1

    def test_total_flops_positive(self):
        g, _ = small_graph()
        assert g.total_flops() > 0


class TestTraversal:
    def test_topological_order_respects_edges(self):
        g, (x, w, mm, r) = small_graph()
        order = g.topological_order()
        assert order.index(x) < order.index(mm) < order.index(r)
        assert order.index(w) < order.index(mm)

    def test_iteration_yields_topological_nodes(self):
        g, _ = small_graph()
        ids = [node.node_id for node in g]
        assert ids == g.topological_order()

    def test_cycle_detection(self):
        g, (x, w, mm, r) = small_graph()
        # Manually create a cycle (bypassing add_node protections).
        from repro.ir.graph import Edge
        bad = Edge(src=r, dst=mm, src_slot=0, dst_slot=0)
        g._in_edges[mm].append(bad)
        g._out_edges[r].append(bad)
        with pytest.raises(GraphValidationError):
            g.topological_order()


class TestValidationAndCopy:
    def test_validate_ok(self, mlp_graph):
        mlp_graph.validate()

    def test_validate_detects_stale_shape(self):
        g, (x, w, mm, r) = small_graph()
        g.nodes[r].outputs[0] = g.nodes[r].outputs[0].with_shape((3, 3))
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_validate_rejects_in_edges_stored_out_of_slot_order(self):
        # The structural hash reads in-edges as stored, so a stored order
        # that is not the slot order is a broken graph, not a permutation.
        g, (x, w, mm, r) = small_graph()
        g._in_edges.edit(mm).reverse()
        with pytest.raises(GraphValidationError, match="slot order"):
            g.validate()

    def test_refresh_shapes_repairs(self):
        g, (x, w, mm, r) = small_graph()
        g.nodes[r].outputs[0] = g.nodes[r].outputs[0].with_shape((3, 3))
        g.refresh_shapes()
        g.validate()

    def test_copy_is_independent(self, mlp_graph):
        clone = mlp_graph.copy()
        clone.remove_node(clone.sink_nodes()[0])
        assert clone.num_nodes == mlp_graph.num_nodes - 1
        mlp_graph.validate()

    def test_structural_hash_ignores_ids(self, mlp_graph):
        direct = mlp_graph.structural_hash()
        round_trip = graph_from_dict(graph_to_dict(mlp_graph)).structural_hash()
        assert direct == round_trip

    def test_structural_hash_differs_for_different_graphs(self, mlp_graph, conv_graph):
        assert mlp_graph.structural_hash() != conv_graph.structural_hash()

    def test_repr(self, mlp_graph):
        assert "Graph" in repr(mlp_graph)
