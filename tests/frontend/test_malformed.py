"""Malformed input fails loudly: bytes that are not a well-formed ONNX
protobuf model raise ``ValueError``, a graph whose value names do not
resolve, whose node lacks an input or attribute its bridge needs or whose
Conv reads an input of another rank than its weight raises
``ImportError_``, and the service CLI turns either into one ``error:``
line."""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.common import build_small_model
from repro.frontend import ImportError_, import_model, to_spec
from repro.frontend.serialize import (_iter_fields, _packed_floats,
                                      _WT_LEN, NodeSpec, loads_model_spec,
                                      model_spec_to_bytes)

JUNK = bytes([0x00, 0x01, 0x02])


@pytest.fixture(scope="module")
def squeezenet_bytes():
    return model_spec_to_bytes(to_spec(build_small_model("squeezenet")))


def test_every_truncation_decodes_or_raises_value_error(squeezenet_bytes):
    # A cut at a top-level field boundary is still a valid message; every
    # other cut must say what is malformed instead of indexing past the end.
    decoded = 0
    for cut in range(len(squeezenet_bytes)):
        try:
            loads_model_spec(squeezenet_bytes[:cut])
            decoded += 1
        except ValueError:
            pass
    assert 0 < decoded < 10


@pytest.mark.parametrize("data", [JUNK, bytes([0x10, 0x01]),
                                  bytes([0x3a, 0x02, 0x08, 0x01])],
                         ids=["junk", "varint-producer", "varint-node"])
def test_junk_bytes_raise_value_error(data):
    # Beyond the 3-byte junk file: a known field arriving with the wrong
    # wire type (ModelProto.producer, then GraphProto.node, as varints).
    with pytest.raises(ValueError, match="must be ONNX protobuf"):
        loads_model_spec(data)
    with pytest.raises(ValueError, match="must be ONNX protobuf"):
        import_model(data)


@pytest.mark.parametrize("tag,width", [(0x15, 4), (0x11, 8)],
                         ids=["fixed32", "fixed64"])
def test_a_fixed_width_field_running_past_its_message_raises(tag, width):
    whole = bytes([tag]) + bytes(width)
    assert list(_iter_fields(whole)) == [(2, tag & 7, 0)]
    with pytest.raises(ValueError, match="field 2 runs 1 bytes past"):
        list(_iter_fields(whole[:-1]))


def test_a_partial_trailing_float_raises():
    assert _packed_floats(bytes(8), _WT_LEN) == [0.0, 0.0]
    with pytest.raises(ValueError, match="9-byte payload"):
        _packed_floats(bytes(9), _WT_LEN)


def test_a_json_document_is_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "repro-onnx-json", "version": 1}')
    with pytest.raises(ValueError, match="must be ONNX protobuf"):
        import_model(path)


def _squeezenet_spec():
    return to_spec(build_small_model("squeezenet"))


def _first(spec, op_type):
    return next(i for i, node in enumerate(spec.graph.nodes)
                if node.op_type == op_type)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
def test_an_undefined_input_is_refused(strict):
    spec = _squeezenet_spec()
    index = _first(spec, "Conv")
    node = spec.graph.nodes[index]
    spec.graph.nodes[index] = dataclasses.replace(
        node, inputs=("nope",) + tuple(node.inputs[1:]))
    with pytest.raises(ImportError_, match=(
            f"Conv node '{node.name}' reads undefined value 'nope'")):
        import_model(spec, strict=strict)


def test_a_nameless_node_without_outputs_is_refused_by_op():
    spec = _squeezenet_spec()
    spec.graph.nodes.insert(0, NodeSpec("Relu", ("nope",), ()))
    with pytest.raises(ImportError_,
                       match="Relu node '' reads undefined value 'nope'"):
        import_model(spec)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
def test_a_value_produced_twice_is_refused(strict):
    spec = _squeezenet_spec()
    first, second = [n for n in spec.graph.nodes if n.op_type == "Relu"][:2]
    index = spec.graph.nodes.index(second)
    spec.graph.nodes[index] = dataclasses.replace(
        second, outputs=first.outputs)
    with pytest.raises(ImportError_, match=(
            f"Relu node '{second.name}' redefines value "
            f"'{first.outputs[0]}'")):
        import_model(spec, strict=strict)


def test_a_node_may_not_redefine_a_graph_input():
    spec = _squeezenet_spec()
    index = _first(spec, "Relu")
    node = spec.graph.nodes[index]
    spec.graph.nodes[index] = dataclasses.replace(
        node, outputs=(spec.graph.inputs[0].name,))
    with pytest.raises(ImportError_, match="redefines value"):
        import_model(spec)


def test_an_unbridged_op_still_falls_back():
    spec = _squeezenet_spec()
    index = _first(spec, "Relu")
    spec.graph.nodes[index] = dataclasses.replace(
        spec.graph.nodes[index], op_type="Mish")
    _, report = import_model(spec)
    assert report.fallbacks == {"Mish": 1}


def _with_input_dims(spec, dims):
    """``spec`` with its first graph input (the first Conv's) of ``dims``."""
    spec.graph.inputs[0] = dataclasses.replace(spec.graph.inputs[0],
                                               dims=dims)
    return spec


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@pytest.mark.parametrize("dims", [(3,), (3, 224)], ids=["rank1", "rank2"])
def test_a_conv_input_of_another_rank_than_its_weight_is_refused(dims,
                                                                 strict):
    spec = _with_input_dims(_squeezenet_spec(), dims)
    node = spec.graph.nodes[_first(spec, "Conv")]
    with pytest.raises(ImportError_, match=(
            f"^Conv node '{re.escape(node.name)}': input of rank "
            f"{len(dims)} against a weight of rank 4")):
        import_model(spec, strict=strict)


def _bridged_ops(model):
    ops = []
    for node in to_spec(build_small_model(model)).graph.nodes:
        if node.op_type not in ops:
            ops.append(node.op_type)
    return ops


#: What the bridge reads that cutting a node's inputs to one, or dropping
#: its attributes, takes away.  Every other cut leaves a node its bridge
#: imports, lowers to a fallback or refuses as unsupported.
LACKS = {("squeezenet", "Conv", "inputs"): "input 1",
         ("squeezenet", "MaxPool", "attrs"): "attribute 'kernel_shape'",
         ("bert", "Gather", "inputs"): "input 1",
         ("bert", "Add", "inputs"): "input 1",
         ("bert", "MatMul", "inputs"): "input 1",
         ("bert", "Mul", "inputs"): "input 1"}

CUTS = [(model, op, cut) for model in ("squeezenet", "bert")
        for op in _bridged_ops(model) for cut in ("inputs", "attrs")]


def _cut(spec, op, cut):
    """``spec`` with its first ``op`` node's inputs cut to one or its
    attributes dropped; returns that node as it was."""
    index = _first(spec, op)
    node = spec.graph.nodes[index]
    if cut == "inputs":
        spec.graph.nodes[index] = dataclasses.replace(
            node, inputs=node.inputs[:1])
    else:
        spec.graph.nodes[index] = dataclasses.replace(node, attrs={})
    return node


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@pytest.mark.parametrize("model,op,cut", CUTS,
                         ids=["-".join(case) for case in CUTS])
def test_a_node_lacking_what_its_bridge_reads_is_refused(model, op, cut,
                                                         strict):
    spec = to_spec(build_small_model(model))
    node = _cut(spec, op, cut)
    lacks = LACKS.get((model, op, cut))
    if lacks is None:
        try:
            import_model(spec, strict=strict)
        except ImportError_ as exc:
            assert "lacks" not in str(exc)
        return
    with pytest.raises(ImportError_, match=(
            f"^{re.escape(op)} node '{re.escape(node.name)}' lacks "
            f"{re.escape(lacks)}$")):
        import_model(spec, strict=strict)


@pytest.mark.parametrize("payload", ["junk", "truncated", "lacks-input",
                                     "conv-rank1", "conv-rank2"])
def test_cli_prints_one_error_line(payload, tmp_path, squeezenet_bytes):
    path = tmp_path / "bad.onnx"
    if payload == "lacks-input":
        spec = _squeezenet_spec()
        _cut(spec, "Conv", "inputs")
        path.write_bytes(model_spec_to_bytes(spec))
    elif payload.startswith("conv-rank"):
        dims = (3,) if payload == "conv-rank1" else (3, 224)
        path.write_bytes(model_spec_to_bytes(
            _with_input_dims(_squeezenet_spec(), dims)))
    else:
        path.write_bytes(JUNK if payload == "junk"
                         else squeezenet_bytes[:len(squeezenet_bytes) // 2])
    env = {**os.environ,
           "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service", "--import", str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if payload == "lacks-input":
        assert lines[0].endswith("lacks input 1")
    elif payload.startswith("conv-rank"):
        assert "against a weight of rank 4" in lines[0]
