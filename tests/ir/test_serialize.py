"""Round-trip tests for the ONNX-like JSON serialisation."""

import json

import pytest

from repro.ir import (GraphValidationError, graph_from_dict, graph_to_dict,
                      load_graph, save_graph)
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

    def test_edge_from_a_missing_node_is_named(self, mlp_graph):
        data = graph_to_dict(mlp_graph)
        consumer = next(n for n in data["nodes"] if n["inputs"])
        consumer["inputs"][0]["src"] = 999
        with pytest.raises(ValueError, match="missing node 999"):
            graph_from_dict(data, validate=False)

    def test_an_unknown_op_is_named(self, mlp_graph):
        data = graph_to_dict(mlp_graph)
        data["nodes"][-1]["op"] = "NoSuchOp"
        with pytest.raises(ValueError, match="NoSuchOp"):
            graph_from_dict(data)

    def test_stored_shapes_are_checked_unless_the_reader_vouches(
            self, mlp_graph):
        data = json.loads(json.dumps(graph_to_dict(mlp_graph)))
        data["nodes"][-1]["outputs"][0]["shape"] = [3, 3]
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
