"""Round-trip tests for the ONNX-like JSON serialisation."""

import json

import pytest
from documents import restate_output

from repro.ir import (GraphValidationError, graph_from_dict, graph_to_dict,
                      load_graph, save_graph, serialize)
from repro.models import build_model


class TestRoundTrip:
    def test_round_trip_preserves_structure(self, mlp_graph):
        restored = graph_from_dict(graph_to_dict(mlp_graph))
        assert restored.structural_hash() == mlp_graph.structural_hash()
        assert restored.num_nodes == mlp_graph.num_nodes
        assert restored.num_edges == mlp_graph.num_edges

    def test_round_trip_preserves_attrs(self, conv_graph):
        restored = graph_from_dict(graph_to_dict(conv_graph))
        restored.validate()
        for nid, node in conv_graph.nodes.items():
            assert restored.nodes[nid].attrs == node.attrs

    def test_file_round_trip(self, tmp_path, attention_graph):
        path = tmp_path / "graph.json"
        save_graph(attention_graph, path)
        loaded = load_graph(path)
        assert loaded.structural_hash() == attention_graph.structural_hash()
        # The file is plain JSON.
        json.loads(path.read_text())

    def test_model_zoo_round_trip(self):
        graph = build_model("squeezenet")
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.structural_hash() == graph.structural_hash()

    def test_bad_version_rejected(self, mlp_graph):
        data = graph_to_dict(mlp_graph)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            graph_from_dict(data)

    def test_a_version_1_document_is_refused(self, mlp_graph):
        """Version 1 (one dict per node, specs inline) is not read: there
        is one layout."""
        data = graph_to_dict(mlp_graph)
        data["format_version"] = 1
        with pytest.raises(ValueError, match="format version 1"):
            graph_from_dict(data)

    def test_edge_from_a_missing_node_is_named(self, mlp_graph):
        data = graph_to_dict(mlp_graph)
        consumer = next(row for row in data["nodes"] if len(row) > 3)
        consumer[3] = 999
        with pytest.raises(ValueError, match="999, which is missing"):
            graph_from_dict(data, validate=False)

    def test_an_unknown_op_is_named(self, mlp_graph):
        data = graph_to_dict(mlp_graph)
        data["templates"][data["nodes"][-1][1]][0] = "NoSuchOp"
        with pytest.raises(ValueError, match="NoSuchOp"):
            graph_from_dict(data)

    def test_stored_shapes_are_checked_unless_the_reader_vouches(
            self, mlp_graph):
        data = json.loads(json.dumps(graph_to_dict(mlp_graph)))
        restate_output(data, data["nodes"][-1][0], [3, 3])
        with pytest.raises(GraphValidationError):
            graph_from_dict(data)  # files and imports: the default
        trusted = graph_from_dict(data, validate=False)
        with pytest.raises(GraphValidationError):
            trusted.validate()  # what validate=False skipped, and only that
        assert list(trusted.nodes) == list(mlp_graph.nodes)

    def test_equal_specs_of_one_document_are_built_once(self, mlp_graph):
        restored = graph_from_dict(graph_to_dict(mlp_graph))
        specs = [spec for node in restored.nodes.values()
                 for spec in node.outputs]
        assert specs == [spec for node in mlp_graph.nodes.values()
                         for spec in node.outputs]
        assert len({id(spec) for spec in specs}) == len(set(specs))


def _consumer(data):
    """The first row with an in-edge, and its template."""
    row = next(row for row in data["nodes"] if len(row) > 3)
    return row, data["templates"][row[1]]


def _template_index_past_the_end(data):
    row, _ = _consumer(data)
    row[1] = len(data["templates"])
    return row[0]


def _negative_template_index(data):
    row, _ = _consumer(data)
    row[1] = -1
    return row[0]


def _spec_index_past_the_end(data):
    row, template = _consumer(data)
    template[2] = [len(data["specs"])]
    return row[0]


def _spec_flag_that_is_not_a_bool(data):
    _, template = _consumer(data)
    spec = template[2][0]
    data["specs"][spec][2] = 1  # equal to True as a table key
    return next(row[0] for row in data["nodes"]
                if spec in data["templates"][row[1]][2])


def _odd_length_edge_tail(data):
    row, _ = _consumer(data)
    row.append(0)
    return row[0]


def _edge_from_a_missing_node(data):
    row, _ = _consumer(data)
    row[3] = 999
    return row[0]


def _edge_from_a_node_listed_later(data):
    row, _ = _consumer(data)
    row[3] = data["nodes"][-1][0]
    return row[0]


def _unknown_op(data):
    row, template = _consumer(data)
    template[0] = "NoSuchOp"
    return row[0]


def _duplicate_node_id(data):
    data["nodes"].append(list(data["nodes"][-1]))
    return data["nodes"][-1][0]


def _row_that_is_not_a_list(data):
    row, _ = _consumer(data)
    data["nodes"][data["nodes"].index(row)] = {"id": row[0]}
    return "{'id': %d}" % row[0]


@pytest.mark.parametrize("validate", [True, False],
                         ids=["validate", "trusted"])
@pytest.mark.parametrize("damage", [
    _template_index_past_the_end, _negative_template_index,
    _spec_index_past_the_end, _spec_flag_that_is_not_a_bool,
    _odd_length_edge_tail,
    _edge_from_a_missing_node, _edge_from_a_node_listed_later, _unknown_op,
    _duplicate_node_id, _row_that_is_not_a_list,
])
def test_a_malformed_document_raises_value_error_naming_the_node(
        mlp_graph, damage, validate):
    """Never an ``IndexError``, ``KeyError`` or ``TypeError`` out of the
    decoder, and never a graph: a ``ValueError`` that says which node."""
    data = json.loads(json.dumps(graph_to_dict(mlp_graph)))
    who = damage(data)
    with pytest.raises(ValueError) as raised:
        graph_from_dict(data, validate=validate)
    assert type(raised.value) is ValueError
    assert str(raised.value).startswith(f"node {who}:")


@pytest.mark.parametrize("slot", [5, -1, "0"])
def test_an_output_slot_the_producer_lacks_fails_validation(mlp_graph, slot):
    """A slot is checked where shapes are: by ``validate()``, the default
    for files; a trusted reader vouches for it like for every shape."""
    data = json.loads(json.dumps(graph_to_dict(mlp_graph)))
    row, _ = _consumer(data)
    row[4] = slot
    with pytest.raises(GraphValidationError, match=f"node {row[0]} "):
        graph_from_dict(data)


def test_a_template_with_too_few_outputs_fails_validation(mlp_graph):
    data = json.loads(json.dumps(graph_to_dict(mlp_graph)))
    row, template = _consumer(data)
    template[2] = []
    with pytest.raises(GraphValidationError, match=f"node {row[0]} "):
        graph_from_dict(data)


def test_the_spec_table_never_changes_what_decodes(mlp_graph, monkeypatch):
    """``_SPECS`` is shared by every document in the process: cold, warm or
    full, a document decodes to the same specs."""
    data = json.loads(json.dumps(graph_to_dict(mlp_graph)))
    monkeypatch.setattr(serialize, "_SPECS", {})
    cold = graph_from_dict(data)
    warm = graph_from_dict(data)
    monkeypatch.setattr(serialize, "_SPECS", {})
    monkeypatch.setattr(serialize, "_SPECS_MAX", 0)
    full = graph_from_dict(data)
    assert not serialize._SPECS
    for graph in (cold, warm, full):
        assert [n.outputs for n in graph.nodes.values()] == \
            [n.outputs for n in mlp_graph.nodes.values()]
    assert all(a is b for node, twin in zip(cold.nodes.values(),
                                            warm.nodes.values())
               for a, b in zip(node.outputs, twin.outputs))
