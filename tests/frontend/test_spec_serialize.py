"""Wire-codec tests: the protobuf-free .onnx parser and writer."""

from __future__ import annotations

import pytest

from repro.frontend.serialize import (GraphSpec, ModelSpec, NodeSpec,
                                      TensorInfo, ValueInfo, load_model_spec,
                                      loads_model_spec, model_spec_to_bytes,
                                      save_model_spec)


def _spec() -> ModelSpec:
    g = GraphSpec(name="wire-test")
    g.inputs.append(ValueInfo("x", (2, 4)))
    g.inputs.append(ValueInfo("idx", (3,), "int64"))
    g.initializers.append(TensorInfo("w", (2, 4), "float32",
                                     (0.1, -2.5, 3.0, 0.0, 1.0, 2.0, 3.0, 4.0)))
    g.initializers.append(TensorInfo("bounds", (2,), "int64", (-1, 7)))
    g.nodes.append(NodeSpec("Add", ("x", "w"), ("sum",), {}, "add0"))
    g.nodes.append(NodeSpec(
        "Fancy", ("sum",), ("y",),
        {"axis": -1, "name": "payload", "ratio": 0.25,
         "ints": (1, -2, 3), "floats": (0.5, 1.5), "strs": ("a", "b"),
         "tensor": TensorInfo("t", (2,), "float32", (1.0, 2.0))},
        "fancy0", "custom.domain"))
    g.outputs.append(ValueInfo("y", (2, 4)))
    g.value_infos.append(ValueInfo("sum", (2, 4)))
    g.source_ranks = {"x": 0, "w": 1, "idx": 2}
    return ModelSpec(g, {"": 17, "custom.domain": 1}, producer="test")


def _assert_specs_equal(a: ModelSpec, b: ModelSpec) -> None:
    assert a.opset == b.opset
    ga, gb = a.graph, b.graph
    assert ga.name == gb.name
    assert [(v.name, tuple(v.dims), v.dtype) for v in ga.inputs] == \
        [(v.name, tuple(v.dims), v.dtype) for v in gb.inputs]
    assert [(v.name, tuple(v.dims)) for v in ga.outputs] == \
        [(v.name, tuple(v.dims)) for v in gb.outputs]
    assert ga.source_ranks == gb.source_ranks
    assert len(ga.nodes) == len(gb.nodes)
    for na, nb in zip(ga.nodes, gb.nodes):
        assert (na.op_type, na.domain) == (nb.op_type, nb.domain)
        assert tuple(na.inputs) == tuple(nb.inputs)
        assert tuple(na.outputs) == tuple(nb.outputs)
        assert set(na.attrs) == set(nb.attrs)


def test_protobuf_round_trip_preserves_structure():
    spec = _spec()
    again = loads_model_spec(model_spec_to_bytes(spec))
    _assert_specs_equal(spec, again)


def test_protobuf_round_trip_preserves_attr_values():
    spec = _spec()
    attrs = loads_model_spec(model_spec_to_bytes(spec)).graph.nodes[1].attrs
    assert attrs["axis"] == -1
    assert attrs["name"] == "payload"
    assert attrs["ratio"] == pytest.approx(0.25)
    assert tuple(attrs["ints"]) == (1, -2, 3)
    assert tuple(attrs["floats"]) == (0.5, 1.5)
    assert tuple(attrs["strs"]) == ("a", "b")
    tensor = attrs["tensor"]
    assert isinstance(tensor, TensorInfo)
    assert tuple(tensor.data) == (1.0, 2.0)


def test_protobuf_round_trip_preserves_int64_payloads():
    spec = _spec()
    again = loads_model_spec(model_spec_to_bytes(spec))
    bounds = [t for t in again.graph.initializers if t.name == "bounds"][0]
    assert tuple(bounds.data) == (-1, 7)
    assert bounds.dtype == "int64"


def test_save_load_by_extension(tmp_path):
    spec = _spec()
    path = tmp_path / "m.onnx"
    save_model_spec(spec, path)
    _assert_specs_equal(spec, load_model_spec(path))
    assert path.read_bytes() == model_spec_to_bytes(spec)


def test_large_float_payloads_are_dropped():
    g = GraphSpec(name="big")
    g.initializers.append(TensorInfo("w", (100, 100), "float32",
                                     tuple(float(i) for i in range(10000))))
    g.inputs.append(ValueInfo("x", (100, 100)))
    g.nodes.append(NodeSpec("Add", ("x", "w"), ("y",), {}, "add"))
    g.outputs.append(ValueInfo("y", (100, 100)))
    again = loads_model_spec(model_spec_to_bytes(ModelSpec(g)))
    w = again.graph.initializers[0]
    assert w.data is None  # payload discarded; shape/dtype kept
    assert tuple(w.dims) == (100, 100)
