"""Kernel purity: in-place arithmetic never leaves the kernel that does it.

The kernels of :mod:`repro.exec.kernels` run their epilogues in place, under
one rule — a kernel writes only into an array it allocated in this call.
This suite makes a violation raise instead of corrupting a later run:

* sources reach kernels read-only (cached parameters, and a read-only view
  of a caller's float32 feed or a read-only float32 cast of any other —
  the caller's own array keeps its flags and values);
* every kernel's outputs are frozen the moment it returns, and every reduced
  registry model, its TASO result and the fuzzer graphs still execute, to
  the same bits as the plain run;
* two runs of one executor are bit-identical;
* a fusion witness that is not a stopwatch: under ``tracemalloc`` the fused
  conv's epilogues allocate nothing, the unfused BatchNorm and Relu each
  allocate an output-sized array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from graphgen import random_graph

from repro.exec import KERNELS, NumpyExecutor, random_inputs
from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.ir.ops import OpType
from repro.models import list_models
from repro.search import TASOOptimizer

#: The fuzzer seeds ``test_differential.py`` draws its donors from.
FUZZ_SEEDS = range(4)


def _freezing(kernel):
    """``kernel`` with its outputs made read-only as soon as it returns
    (views taken of them later inherit the flag)."""
    def frozen(in_vals, attrs, out_shapes):
        outs = kernel(in_vals, attrs, out_shapes)
        for out in outs:
            if isinstance(out, np.ndarray):
                out.setflags(write=False)
        return outs
    return frozen


FROZEN_KERNELS = {op: _freezing(kernel) for op, kernel in KERNELS.items()}


def _assert_pure(graph, inputs=None):
    plain, _ = NumpyExecutor().run(graph, inputs)
    frozen, _ = NumpyExecutor(kernels=FROZEN_KERNELS).run(graph, inputs)
    assert set(plain) == set(frozen)
    for name in plain:
        np.testing.assert_array_equal(frozen[name], plain[name])


# ---------------------------------------------------------------------------
# Sources are read-only
# ---------------------------------------------------------------------------

def _bad_relu(in_vals, attrs, out_shapes):
    in_vals[0][0] += 1  # the slip the read-only flags exist to catch
    return [np.maximum(in_vals[0], 0.0)]


def _relu_of(source):
    b = GraphBuilder("relu")
    x = b.input((4, 3), name="x") if source == "input" else \
        b.weight((4, 3), name="w")
    return b.build([b.relu(x)])


def test_writing_into_a_cached_weight_raises():
    executor = NumpyExecutor(kernels={**KERNELS, OpType.RELU: _bad_relu})
    with pytest.raises(ValueError, match="read-only"):
        executor.run(_relu_of("weight"))


@pytest.mark.parametrize("fed", [np.float32, np.float64, None],
                         ids=["fed-float32", "fed-float64", "materialised"])
def test_writing_into_an_input_raises_and_spares_the_callers_array(fed):
    executor = NumpyExecutor(kernels={**KERNELS, OpType.RELU: _bad_relu})
    feed = np.arange(12, dtype=fed or np.float32).reshape(4, 3)
    before = feed.copy()
    with pytest.raises(ValueError, match="read-only"):
        executor.run(_relu_of("input"), {"x": feed} if fed else None)
    assert feed.flags.writeable
    np.testing.assert_array_equal(feed, before)


def _what_two_relus_see(feed):
    """The arrays two Relu kernels reading Input ``x`` receive."""
    seen = []
    executor = NumpyExecutor(kernels={
        **KERNELS, OpType.RELU: lambda v, a, s: seen.append(v[0]) or [v[0]]})
    b = GraphBuilder("two_relus")
    x = b.input((4, 3), name="x")
    executor.run(b.build([b.relu(x), b.relu(x)]), {"x": feed})
    return seen


def test_a_feed_is_passed_as_a_view_not_a_copy():
    """The executor's precision: a float32 feed is read where it lies."""
    feed = np.ones((4, 3), dtype=np.float32)
    for seen in _what_two_relus_see(feed):
        assert np.shares_memory(seen, feed) and not seen.flags.writeable
    assert feed.flags.writeable


def test_a_float64_feed_is_cast_once_and_left_untouched():
    feed = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    before = feed.copy()
    first, second = _what_two_relus_see(feed)
    assert first.dtype == np.float32 and not first.flags.writeable
    assert not np.shares_memory(first, feed)
    assert np.shares_memory(first, second)  # one cast, shared by consumers
    np.testing.assert_array_equal(first, feed.astype(np.float32))
    assert feed.dtype == np.float64 and feed.flags.writeable
    np.testing.assert_array_equal(feed, before)


# ---------------------------------------------------------------------------
# No kernel writes into its inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list_models())
def test_registry_model_and_its_taso_result_run_on_frozen_buffers(name):
    graph = build_small_model(name)
    _assert_pure(graph)
    result = TASOOptimizer(max_iterations=30).optimise(graph, name)
    _assert_pure(result.final_graph)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzer_graph_runs_on_frozen_buffers(seed):
    graph = random_graph(seed)
    _assert_pure(graph, random_inputs(graph, seed=seed))


def test_frozen_outputs_do_catch_an_in_place_write():
    """The wrapper is what catches a write into an *intermediate*: the bad
    kernel's input here is Add's fresh output, writable unless frozen."""
    b = GraphBuilder("relu_of_add")
    x = b.input((4, 3), name="x")
    graph = b.build([b.relu(b.add(x, x))])
    bad = {**KERNELS, OpType.RELU: _bad_relu}
    NumpyExecutor(kernels=bad).run(graph)
    frozen = {op: _freezing(kernel) for op, kernel in bad.items()}
    with pytest.raises(ValueError, match="read-only"):
        NumpyExecutor(kernels=frozen).run(graph)


@pytest.mark.parametrize("name", ["squeezenet", "resnet18", "bert"])
def test_consecutive_runs_of_one_executor_are_bit_identical(name):
    graph = build_small_model(name)
    executor = NumpyExecutor()
    first, _ = executor.run(graph)
    first = {key: value.copy() for key, value in first.items()}
    second, _ = executor.run(graph)
    for key in first:
        np.testing.assert_array_equal(second[key], first[key])


# ---------------------------------------------------------------------------
# Fused means fused
# ---------------------------------------------------------------------------

def _allocated(kernel, in_vals, attrs, out_shape):
    """Peak bytes ``kernel`` holds above what was live when it was called."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        outs = kernel(in_vals, attrs, [out_shape])
        return tracemalloc.get_traced_memory()[1] - entry, outs[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel_size", [3, 1])
def test_fused_epilogues_allocate_nothing(kernel_size):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 64, 32, 32))
    w = rng.standard_normal((64, 64, kernel_size, kernel_size))
    scale, bias = rng.standard_normal(64), rng.standard_normal(64)
    attrs = {"stride": 1, "padding": "same"}
    shape = (1, 64, 32, 32)
    output_bytes = 64 * 32 * 32 * 8
    # numpy's 8192-element ufunc buffer (the broadcast scale / bias operand)
    # plus views: a constant, whatever the output's size.
    slack = 80 * 1024

    conv, conv_out = _allocated(KERNELS[OpType.CONV2D], [x, w], attrs, shape)
    fused, fused_out = _allocated(KERNELS[OpType.FUSED_CONV_BN_RELU],
                                  [x, w, scale, bias], attrs, shape)
    assert conv >= output_bytes
    assert fused <= conv + slack, (fused, conv)

    # The unfused triple: BatchNorm and Relu each allocate their output.
    bn, bn_out = _allocated(KERNELS[OpType.BATCHNORM],
                            [conv_out, scale, bias], {}, shape)
    relu, relu_out = _allocated(KERNELS[OpType.RELU], [bn_out], {}, shape)
    assert output_bytes <= bn <= output_bytes + slack
    assert output_bytes <= relu <= output_bytes + slack
    np.testing.assert_allclose(fused_out, relu_out, rtol=1e-12, atol=0)
