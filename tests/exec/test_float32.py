"""The executor runs at one precision, float32, and nothing upcasts.

Every kernel is wrapped to record the dtype of each value it reads and
writes; all eight reduced zoo models, their TASO results and the
``graphgen`` seeds then run through that table, and every node value must
be float32.  A kernel that silently promotes to float64 (a float64 constant
array, a ``np.vectorize`` pinned to double, a default ``np.ones``) fails
here by name, instead of halving throughput unnoticed.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from graphgen import random_graph

from repro.exec import (KERNELS, NumpyExecutor, deterministic_tensor, erf,
                        random_inputs)
from repro.exec.executor import _seed_from
from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.ir.ops import OpType
from repro.models import list_models
from repro.search import TASOOptimizer

#: Generator seeds: 24 reach every op the zoo and TASO leave out, bar the
#: three in :data:`UNREACHED`.
FUZZ_SEEDS = range(24)
#: Kernels no recorded graph runs; each is called directly below.
UNREACHED = {"Cast", "EnlargeConv", "NoOp"}


def _run_recording(graph, inputs=None):
    """Execute ``graph``; return ``op name -> dtypes`` of every value a
    kernel read or returned."""
    seen = {}

    def recording(op, kernel):
        def record(in_vals, attrs, out_shapes):
            outs = kernel(in_vals, attrs, out_shapes)
            seen.setdefault(op.value, set()).update(
                value.dtype for value in [*in_vals, *outs])
            return outs
        return record

    executor = NumpyExecutor(kernels={
        op: recording(op, kernel) for op, kernel in KERNELS.items()})
    report = executor.run_detailed(graph, inputs)
    assert report.num_fallbacks == 0, report.fallback_ops
    for name, value in report.outputs.items():
        seen.setdefault(f"sink {name}", set()).add(value.dtype)
    return seen


def _assert_float32(seen, label):
    upcast = {op: sorted(map(str, dtypes)) for op, dtypes in seen.items()
              if dtypes != {np.dtype(np.float32)}}
    assert not upcast, f"{label}: values that are not float32: {upcast}"


@functools.lru_cache(maxsize=None)
def _zoo_recording(name):
    graph = build_small_model(name)
    result = TASOOptimizer(max_iterations=30).optimise(graph, name)
    return _run_recording(graph), _run_recording(result.final_graph)


@functools.lru_cache(maxsize=None)
def _fuzz_recording(seed):
    graph = random_graph(seed)
    return _run_recording(graph, random_inputs(graph, seed=seed))


@pytest.mark.parametrize("name", list_models())
def test_every_value_of_a_zoo_model_and_its_taso_result_is_float32(name):
    model, optimised = _zoo_recording(name)
    _assert_float32(model, name)
    _assert_float32(optimised, f"{name} (TASO)")


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_every_value_of_a_fuzzer_graph_is_float32(seed):
    _assert_float32(_fuzz_recording(seed), f"seed {seed}")


def test_the_recordings_reach_every_kernel_but_the_unreached():
    """The sweep above is only as good as the kernels it runs."""
    seen = set()
    for name in list_models():
        for recording in _zoo_recording(name):
            seen |= set(recording)
    for seed in FUZZ_SEEDS:
        seen |= set(_fuzz_recording(seed))
    missing = {op.value for op in KERNELS} - seen
    assert missing == UNREACHED, sorted(missing)


# ---------------------------------------------------------------------------
# The unreached kernels, and the float64s src/repro/exec/ used to pin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_follows_its_input(dtype):
    x = np.linspace(-3, 3, 7, dtype=dtype)
    out = erf(x)
    assert out.dtype == dtype
    np.testing.assert_allclose(out, erf(x.astype(np.float64)),
                               rtol=np.finfo(dtype).eps)


def test_noop_and_a_scale_less_batchnorm_stay_float32():
    assert KERNELS[OpType.NOOP]([], {}, [()])[0].dtype == np.float32
    x = np.ones((2, 3, 4, 4), dtype=np.float32)
    (out,) = KERNELS[OpType.BATCHNORM]([x], {}, [x.shape])
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, x)


@pytest.mark.parametrize("op", [OpType.CAST, OpType.ENLARGE_CONV])
def test_cast_and_enlarge_conv_follow_their_input(op):
    x = np.ones((1, 2, 5, 5), dtype=np.float32)
    in_vals = [x] if op is OpType.CAST else \
        [x, np.ones((2, 2, 3, 3), dtype=np.float32)]
    (out,) = KERNELS[op](in_vals, {"stride": 1, "padding": "same"},
                         [(1, 2, 5, 5)])
    assert out.dtype == np.float32


def test_sources_and_feeds_are_the_float64_draw_rounded_once():
    value = deterministic_tensor("param:w", (3, 4))
    draw = np.random.default_rng(_seed_from("param:w", (3, 4))) \
        .standard_normal((3, 4)) * 0.1
    assert value.dtype == np.float32
    np.testing.assert_array_equal(value, draw.astype(np.float32))
    b = GraphBuilder("feeds")
    graph = b.build([b.relu(b.input((2, 3), name="x"))])
    (feed,) = random_inputs(graph, seed=5).values()
    draw = np.random.default_rng(5).standard_normal((2, 3)) * 0.1
    assert feed.dtype == np.float32
    np.testing.assert_array_equal(feed, draw.astype(np.float32))
