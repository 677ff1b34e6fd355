"""Per-op bridge conformance: every bridged ONNX op imports faithfully.

Each case in :data:`conformance.CONFORMANCE_CASES` (beside this suite) is a
minimal foreign model for one bridged op.  Importing it must produce zero
fallbacks, execute to exactly the declared output shapes, and survive an
export -> import round-trip hash-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend import ImportError_, import_model, to_spec
from repro.frontend.ops_bridge import bridged_ops
from repro.frontend.serialize import (GraphSpec, ModelSpec, NodeSpec,
                                      TensorInfo, ValueInfo,
                                      loads_model_spec, model_spec_to_bytes)
from repro.exec import NumpyExecutor
from repro.ir.ops import OpType
from conformance import CONFORMANCE_CASES


def test_every_bridged_op_has_a_conformance_case():
    assert set(CONFORMANCE_CASES) == set(bridged_ops(""))


def test_bridge_table_meets_the_coverage_floor():
    assert len(bridged_ops("")) >= 30


@pytest.mark.parametrize("op", sorted(CONFORMANCE_CASES))
def test_conformance_case_imports_without_fallbacks(op):
    graph, report = import_model(CONFORMANCE_CASES[op]())
    assert report.num_fallbacks == 0, report.summary()
    graph.validate()


@pytest.mark.parametrize("op", sorted(CONFORMANCE_CASES))
def test_conformance_case_executes_to_declared_shapes(op):
    spec = CONFORMANCE_CASES[op]()
    graph, _ = import_model(spec)
    declared = sorted(tuple(v.dims) for v in spec.graph.outputs)

    # Inferred shapes feeding the sink must match the declared outputs...
    sink = [n for n, node in graph.nodes.items()
            if node.op_type is OpType.OUTPUT][0]
    inferred = sorted(tuple(s.shape.dims) for s in graph.input_specs(sink))
    assert inferred == declared

    # ... and execution must realise the sink's spec (the IR Output node
    # exposes its first input, so multi-output graphs check slot 0 here).
    outputs, _ = NumpyExecutor().run(graph)
    executed = sorted(np.asarray(v).shape for v in outputs.values())
    expected = sorted(tuple(s.shape.dims)
                      for s in graph.nodes[sink].outputs)
    assert executed == expected


@pytest.mark.parametrize("op", sorted(CONFORMANCE_CASES))
def test_conformance_case_round_trips_hash_identically(op):
    graph, _ = import_model(CONFORMANCE_CASES[op]())
    again, report = import_model(
        loads_model_spec(model_spec_to_bytes(to_spec(graph))))
    assert report.num_fallbacks == 0, report.summary()
    assert graph.structural_hash() == again.structural_hash()


# ---------------------------------------------------------------------------
# Targeted bridge behaviours
# ---------------------------------------------------------------------------

def _ops_of(graph):
    return [graph.nodes[n].op_type for n in graph.topological_order()]


def test_gemm_transb_lowers_to_transpose_matmul_add():
    graph, _ = import_model(CONFORMANCE_CASES["Gemm"]())
    ops = _ops_of(graph)
    assert OpType.TRANSPOSE in ops and OpType.MATMUL in ops
    assert OpType.ADD in ops


def test_matmul_rank_rule_selects_batch_matmul():
    g = GraphSpec(name="bmm")
    g.inputs.append(ValueInfo("a", (2, 3, 4)))
    g.inputs.append(ValueInfo("b", (2, 4, 5)))
    g.nodes.append(NodeSpec("MatMul", ("a", "b"), ("y",), {}, "mm"))
    g.outputs.append(ValueInfo("y", (2, 3, 5)))
    graph, _ = import_model(ModelSpec(g))
    assert OpType.BATCH_MATMUL in _ops_of(graph)

    # rank-3 x rank-2 is the builder's Linear: plain MatMul
    g2 = GraphSpec(name="linear")
    g2.inputs.append(ValueInfo("a", (2, 3, 4)))
    g2.initializers.append(TensorInfo("w", (4, 5)))
    g2.nodes.append(NodeSpec("MatMul", ("a", "w"), ("y",), {}, "mm"))
    g2.outputs.append(ValueInfo("y", (2, 3, 5)))
    graph2, _ = import_model(ModelSpec(g2))
    ops = _ops_of(graph2)
    assert OpType.MATMUL in ops and OpType.BATCH_MATMUL not in ops


def test_pow_square_lowers_to_mul():
    graph, _ = import_model(CONFORMANCE_CASES["Pow"]())
    ops = _ops_of(graph)
    assert OpType.MUL in ops


def test_neg_lowers_to_mul_by_minus_one():
    graph, _ = import_model(CONFORMANCE_CASES["Neg"]())
    ops = _ops_of(graph)
    assert OpType.MUL in ops and OpType.CONSTANT in ops


def test_global_average_pool_lowers_to_pool_plus_reshape():
    graph, _ = import_model(CONFORMANCE_CASES["GlobalAveragePool"]())
    ops = _ops_of(graph)
    assert OpType.GLOBAL_AVGPOOL in ops and OpType.RESHAPE in ops


def test_gather_over_rank2_table_becomes_embedding():
    graph, _ = import_model(CONFORMANCE_CASES["Gather"]())
    assert OpType.EMBEDDING in _ops_of(graph)


def test_unsupported_attr_degrades_to_custom_fallback():
    g = GraphSpec(name="dilated")
    g.inputs.append(ValueInfo("x", (1, 3, 8, 8)))
    g.initializers.append(TensorInfo("w", (4, 3, 3, 3)))
    g.nodes.append(NodeSpec("Conv", ("x", "w"), ("y",),
                            {"kernel_shape": (3, 3), "dilations": (2, 2)},
                            "conv"))
    g.outputs.append(ValueInfo("y", (1, 4, 4, 4)))
    graph, report = import_model(ModelSpec(g))
    assert report.fallbacks == {"Conv": 1}
    assert "dilated" in report.fallback_reasons["conv"]
    assert any(graph.nodes[n].op_type is OpType.CUSTOM for n in graph.nodes)


def test_strict_mode_raises_on_unbridged_op():
    g = GraphSpec(name="strict")
    g.inputs.append(ValueInfo("x", (2, 4)))
    g.nodes.append(NodeSpec("Mish", ("x",), ("y",), {}, "mish"))
    g.outputs.append(ValueInfo("y", (2, 4)))
    with pytest.raises(ImportError_):
        import_model(ModelSpec(g), strict=True)


def test_import_report_summary_names_fallbacks():
    g = GraphSpec(name="report")
    g.inputs.append(ValueInfo("x", (2, 4)))
    g.nodes.append(NodeSpec("Mish", ("x",), ("y",), {}, "mish"))
    g.nodes.append(NodeSpec("Relu", ("y",), ("z",), {}, "relu"))
    g.outputs.append(ValueInfo("z", (2, 4)))
    g.value_infos.append(ValueInfo("y", (2, 4)))
    _, report = import_model(ModelSpec(g))
    assert report.total_nodes == 2
    assert report.num_fallbacks == 1
    assert report.coverage == pytest.approx(0.5)
    assert "FALLBACK Mish" in report.summary()
