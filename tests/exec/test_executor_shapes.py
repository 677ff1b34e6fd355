"""Shape-agreement suite: executed shapes are the oracle for the registry.

Runs every model in the zoo (at reduced size) and every fuzzer graph
through the numpy executor and asserts, node by node and slot by slot,
that what numpy actually computed matches what ``infer_output_spec``
declared.  Any disagreement is an inference bug — the executed shape
wins (ISSUE 8 satellite: the rank-1-reduce and batch-matmul-broadcast
fixes in ``ir/ops.py`` were found exactly this way).
"""

from __future__ import annotations

import numpy as np
import pytest
from graphgen import random_graph

from repro.exec import (NumpyExecutor, deterministic_tensor, random_inputs,
                        uncovered_ops)
from repro.ir.graph import Graph
from repro.ir.ops import SOURCE_OPS, OpType
from repro.models import build_model

#: Reduced-size kwargs keeping every zoo model under ~1 s of numpy time.
SMALL_MODEL_KWARGS = {
    "inception_v3": dict(image_size=75),
    "squeezenet": dict(image_size=64),
    "resnext50": dict(image_size=64),
    "resnet18": dict(image_size=64),
    "bert": dict(num_layers=1, seq_len=16, hidden=32, num_heads=2),
    "vit": dict(image_size=32, patch_size=16, hidden=32, num_heads=2,
                num_layers=1),
    "dalle": dict(text_len=8, image_tokens=16, num_layers=1),
    "tt": dict(audio_frames=16),
}

FUZZ_SEEDS = range(8)


def _executed_values(graph: Graph, seed: int = 0):
    """Execute ``graph`` keeping every intermediate, yield (node, slot, array)."""
    executor = NumpyExecutor()
    values = {}
    inputs = random_inputs(graph, seed=seed)
    for nid in graph.topological_order():
        node = graph.nodes[nid]
        if node.op_type in SOURCE_OPS:
            if node.op_type is OpType.INPUT and node.name in inputs:
                values[(nid, 0)] = inputs[node.name]
            else:
                prefix = "input:" if node.op_type is OpType.INPUT else "param:"
                values[(nid, 0)] = deterministic_tensor(
                    prefix + node.name, tuple(node.outputs[0].shape.dims))
            continue
        in_vals = [values[(e.src, e.src_slot)]
                   for e in graph.in_edges(nid)]
        out_shapes = [tuple(s.shape.dims) for s in node.outputs]
        kernel = executor.kernels.get(node.op_type)
        assert kernel is not None, f"no kernel for {node.op_type.name}"
        out_vals = kernel(in_vals, node.attrs, out_shapes)
        for slot, val in enumerate(out_vals):
            values[(nid, slot)] = val
            yield node, slot, val


@pytest.mark.parametrize("name", sorted(SMALL_MODEL_KWARGS))
def test_registry_model_shapes_match_inference(name):
    graph = build_model(name, **SMALL_MODEL_KWARGS[name])
    checked = 0
    for node, slot, val in _executed_values(graph):
        declared = tuple(node.outputs[slot].shape.dims)
        assert tuple(val.shape) == declared, (
            f"{name}: {node.op_type.name} node {node.name!r} slot {slot} "
            f"executed {tuple(val.shape)} but infer_output_spec declared "
            f"{declared}")
        assert np.all(np.isfinite(val)), (
            f"{name}: {node.op_type.name} produced non-finite values")
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", sorted(SMALL_MODEL_KWARGS))
def test_registry_model_executes_without_fallbacks(name):
    graph = build_model(name, **SMALL_MODEL_KWARGS[name])
    executor = NumpyExecutor()
    report = executor.run_detailed(graph)
    assert report.num_fallbacks == 0, report.fallback_ops
    assert report.outputs, "model produced no sink outputs"
    assert report.wall_ms > 0.0


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzer_graph_shapes_match_inference(seed):
    graph = random_graph(seed)
    for node, slot, val in _executed_values(graph, seed=seed):
        declared = tuple(node.outputs[slot].shape.dims)
        assert tuple(val.shape) == declared, (
            f"seed {seed}: {node.op_type.name} executed {tuple(val.shape)} "
            f"!= declared {declared}")


def test_every_registry_op_has_a_kernel():
    """The dispatch table covers the whole OpType registry (no silent gaps)."""
    assert uncovered_ops() == []


def test_executor_is_deterministic(mlp_graph):
    """Weights are seeded from the node name, so two executors agree —
    variation comes from feeding different explicit inputs (e.g. via
    ``random_inputs``)."""
    out1, _ = NumpyExecutor().run(mlp_graph)
    out2, _ = NumpyExecutor().run(mlp_graph)
    assert sorted(out1) == sorted(out2)
    for key in out1:
        np.testing.assert_array_equal(out1[key], out2[key])
    feeds_a = random_inputs(mlp_graph, seed=0)
    feeds_b = random_inputs(mlp_graph, seed=1)
    assert any(not np.allclose(feeds_a[k], feeds_b[k]) for k in feeds_a)


def test_executor_takes_no_seed():
    with pytest.raises(TypeError, match="seed"):
        NumpyExecutor(seed=0)


def test_unknown_op_counted_not_silent(mlp_graph):
    """Removing a kernel degrades to counted pass-through, never a crash."""
    from repro.exec.kernels import KERNELS
    crippled = {op: k for op, k in KERNELS.items() if op is not OpType.RELU}
    executor = NumpyExecutor(kernels=crippled)
    report = executor.run_detailed(mlp_graph)
    assert report.fallback_ops.get("Relu", 0) >= 1
    assert report.num_fallbacks >= 1
    assert report.outputs  # still produced outputs end to end
    assert all(value.dtype == np.float32  # the fallback follows its input
               for value in report.outputs.values())


def test_explicit_inputs_override_materialisation(mlp_graph):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 16))
    out_a, _ = NumpyExecutor().run(mlp_graph, {"x": x})
    out_b, _ = NumpyExecutor().run(mlp_graph, {"x": x + 1.0})
    key = sorted(out_a)[0]
    assert not np.allclose(out_a[key], out_b[key])


def test_measure_returns_best_of(mlp_graph):
    executor = NumpyExecutor()
    ms = executor.measure(mlp_graph, repeats=3)
    assert ms > 0.0
    # measured latency is memoised on the graph via MeasuredLatency
    from repro.exec import MeasuredLatency
    source = MeasuredLatency(executor, repeats=2)
    first = source.latency_ms(mlp_graph)
    second = source.latency_ms(mlp_graph)
    assert first == second  # memo hit returns the identical float
