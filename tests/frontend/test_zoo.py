"""Zoo conformance: every generated spec imports cleanly and round-trips.

By default only the smoke subset runs (one variant per family — the
PR-sized gate).  Set ``IMPORT_CONFORMANCE=1`` to sweep the full zoo, as
the CI importer job does on the main branch.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exec import NumpyExecutor
from repro.frontend import import_model, to_spec
from repro.frontend.serialize import loads_model_spec, model_spec_to_bytes
from zoo import write_zoo, zoo_specs

FULL = os.environ.get("IMPORT_CONFORMANCE", "") == "1"
SPECS = zoo_specs(smoke=not FULL)


def test_zoo_has_all_three_families():
    families = {name.split("-")[1] for name in zoo_specs()}
    assert families == {"resnet", "bert", "vit"}
    assert len(zoo_specs()) >= 24  # depth/width/batch sweep


@pytest.mark.parametrize("name", sorted(SPECS))
def test_zoo_spec_imports_with_zero_fallbacks(name):
    graph, report = import_model(SPECS[name])
    assert report.num_fallbacks == 0, report.summary()
    graph.validate()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_zoo_spec_round_trips_hash_identically(name):
    graph, _ = import_model(SPECS[name])
    wire = loads_model_spec(model_spec_to_bytes(to_spec(graph)))
    again, report = import_model(wire)
    assert report.num_fallbacks == 0, report.summary()
    assert graph.structural_hash() == again.structural_hash()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_zoo_spec_executes_to_declared_output_shapes(name):
    spec = SPECS[name]
    graph, _ = import_model(spec)
    outputs, _ = NumpyExecutor().run(graph)
    declared = sorted(tuple(v.dims) for v in spec.graph.outputs)
    executed = sorted(np.asarray(v).shape for v in outputs.values())
    assert executed == declared


def test_write_zoo_files_import(tmp_path):
    paths = write_zoo(tmp_path, smoke=True)
    assert len(paths) == 3
    for path in paths:
        assert path.suffix == ".onnx"
        graph, report = import_model(path)
        assert report.num_fallbacks == 0, report.summary()
        assert len(graph.nodes) > 5
