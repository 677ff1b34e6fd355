"""Export -> import round-trip fidelity for real and fuzzed graphs.

The gate: every registry model and every fuzzer graph must survive
``to_spec`` / ``to_onnx`` and come back with an *identical structural
hash* — imported graphs are first-class citizens of the rewrite engine,
not approximations — and must execute to the same values.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "exec"))
from graphgen import random_graph  # noqa: E402

from repro.exec import NumpyExecutor, random_inputs
from repro.experiments.common import build_small_model
from repro.frontend import import_model, to_onnx, to_spec
from repro.frontend.serialize import loads_model_spec, model_spec_to_bytes
from repro.models.registry import MODEL_REGISTRY

ENCODINGS = {
    "spec": lambda s: s,
    "protobuf": lambda s: loads_model_spec(model_spec_to_bytes(s)),
}


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
def test_registry_model_round_trips_hash_identically(model, encoding):
    graph = build_small_model(model)
    spec = ENCODINGS[encoding](to_spec(graph))
    again, report = import_model(spec)
    assert report.num_fallbacks == 0, report.summary()
    assert graph.structural_hash() == again.structural_hash()


@pytest.mark.parametrize("filename", ["m.onnx", "m.ONNX", "m.json", "m"])
def test_to_onnx_writes_protobuf_whatever_the_suffix(tmp_path, filename):
    graph = build_small_model("squeezenet")
    path = tmp_path / filename
    to_onnx(graph, path)
    assert path.read_bytes() == model_spec_to_bytes(to_spec(graph))
    again, report = import_model(path)
    assert report.num_fallbacks == 0
    assert graph.structural_hash() == again.structural_hash()


def test_export_records_source_ranks():
    graph = build_small_model("bert")
    spec = to_spec(graph)
    ranked = set(spec.graph.source_ranks)
    sources = {v.name for v in spec.graph.inputs}
    sources |= {t.name for t in spec.graph.initializers}
    assert sources <= ranked  # every input/weight carries its creation rank


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_graph_round_trips_and_matches_executed_values(seed):
    graph = random_graph(seed=seed)
    spec = loads_model_spec(model_spec_to_bytes(to_spec(graph)))
    again, report = import_model(spec)
    assert report.num_fallbacks == 0, report.summary()
    assert graph.structural_hash() == again.structural_hash()

    # Differential execution across the serialisation boundary.  Input
    # nodes correspond positionally (source-rank replay preserves
    # creation order), so feeds transfer by position.
    executor = NumpyExecutor()
    feeds = random_inputs(graph, seed=seed + 100)
    before_names = [graph.nodes[n].name for n in graph.input_nodes()]
    after_names = [again.nodes[n].name for n in again.input_nodes()]
    out_before, _ = executor.run(graph, feeds)
    out_after, _ = executor.run(
        again, {b: feeds[a] for a, b in zip(before_names, after_names)})
    assert sorted(v.shape for v in out_before.values()) == \
        sorted(v.shape for v in out_after.values())
    for key_b, key_a in zip(sorted(out_before), sorted(out_after)):
        np.testing.assert_allclose(out_before[key_b], out_after[key_a],
                                   rtol=1e-5, atol=1e-6)


def test_double_round_trip_is_stable():
    graph = build_small_model("resnext50")
    once, _ = import_model(to_spec(graph))
    twice, _ = import_model(to_spec(once))
    assert once.structural_hash() == twice.structural_hash()
    assert graph.structural_hash() == twice.structural_hash()
