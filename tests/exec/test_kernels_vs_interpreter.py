"""Single-op graphs, numpy kernel against the loop interpreter oracle.

The shapes a vectorised kernel can get wrong and a whole-model run would
average away: "same" padding on odd and even extents, the 1x1 fast path
under a stride, kernels larger than their input, grouped and depthwise
layouts, truncated pooling windows (an average divides by the elements
present), NaN in pooled data, Gelu's tails, a broadcast fused bias.  The
interpreter's float64 reference loops are the oracle, in two legs (see
``tests/oracles/interpreter_reference.py``): ``KERNELS[op]`` called directly
on float64 arrays at ``RTOL, ATOL``, and ``NumpyExecutor`` as shipped, at
float32, at ``F32_RTOL, F32_ATOL``.  Feeds are float32, so both legs and the
oracle read identical values.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from interpreter_reference import (ATOL, F32_ATOL, F32_RTOL, RTOL,
                                   GraphInterpreter, run_kernels_float64)

from repro.exec import NumpyExecutor
from repro.ir import GraphBuilder
from repro.ir.ops import OpType


def _agree(graph, feeds=None):
    """Run the one-output ``graph`` through the oracle and both legs,
    compare, return the executor's (float32) value."""
    if feeds is None:
        rng = np.random.default_rng(7)
        feeds = {graph.nodes[nid].name: rng.standard_normal(
            tuple(graph.nodes[nid].output_spec.shape.dims))
            for nid in graph.input_nodes()}
    feeds = {name: np.asarray(feed, dtype=np.float32)
             for name, feed in feeds.items()}
    (sink,) = graph.sink_nodes()
    reference = GraphInterpreter().run(graph, feeds)[sink]

    float64 = run_kernels_float64(graph, feeds)[sink]
    assert float64.shape == reference.shape
    np.testing.assert_allclose(float64, reference, rtol=RTOL, atol=ATOL)

    executed, _ = NumpyExecutor().run(graph, feeds)
    value = executed[graph.nodes[sink].name]
    assert value.dtype == np.float32 and value.shape == reference.shape
    np.testing.assert_allclose(value, reference, rtol=F32_RTOL, atol=F32_ATOL)
    return value


def _image(b, channels, height, width=None, n=1):
    return b.input((n, channels, height, width or height), name="x")


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stride,extent,kernel", itertools.product(
    (1, 2), (5, 8, 9, 16), (1, 3, 5, 7)))
def test_conv_same_padding(stride, extent, kernel):
    b = GraphBuilder("conv")
    _agree(b.build([b.conv2d(_image(b, 3, extent), 4, kernel=kernel,
                             stride=stride)]))


@pytest.mark.parametrize("stride,extent,kernel", [
    (1, 8, 3), (2, 8, 3), (2, 9, 3), (3, 16, 5), (1, 5, 5), (2, 9, 1)])
def test_conv_valid_padding(stride, extent, kernel):
    b = GraphBuilder("conv_valid")
    _agree(b.build([b.conv2d(_image(b, 3, extent), 4, kernel=kernel,
                             stride=stride, padding="valid")]))


def test_conv_1x1_stride_2_downsample():
    """resnet18's shortcut: the 1x1 path must subsample, not crop."""
    b = GraphBuilder("downsample")
    out = _agree(b.build([b.conv2d(_image(b, 64, 8), 128, kernel=1,
                                   stride=2)]))
    assert out.shape == (1, 128, 4, 4)


@pytest.mark.parametrize("kernel,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
def test_conv_batch_of_two_on_a_non_square_image(kernel, stride):
    b = GraphBuilder("conv_n2")
    _agree(b.build([b.conv2d(_image(b, 3, 7, 10, n=2), 5, kernel=kernel,
                             stride=stride)]))


@pytest.mark.parametrize("groups,kernel,stride", itertools.product(
    (2, 4, 32), (1, 3), (1, 2)))
def test_grouped_conv(groups, kernel, stride):
    b = GraphBuilder("group_conv")
    _agree(b.build([b.group_conv2d(_image(b, 64, 9, n=2), 96, groups=groups,
                                   kernel=kernel, stride=stride)]))


@pytest.mark.parametrize("kernel,stride", [(3, 1), (3, 2), (5, 1), (1, 2)])
def test_depthwise_conv(kernel, stride):
    b = GraphBuilder("depthwise")
    _agree(b.build([b.depthwise_conv2d(_image(b, 6, 9, n=2), kernel=kernel,
                                       stride=stride)]))


#: (op, how many of scale / bias it is given); FusedConvRelu takes neither.
FUSED_CASES = [(op, extras)
               for op in (OpType.FUSED_CONV_BN, OpType.FUSED_CONV_RELU,
                          OpType.FUSED_CONV_BN_RELU)
               for extras in (0, 1, 2)
               if not (extras and op is OpType.FUSED_CONV_RELU)]


@pytest.mark.parametrize("op,extras", FUSED_CASES, ids=[
    f"{op.value}-{('bare', 'scale', 'scale+bias')[extras]}"
    for op, extras in FUSED_CASES])
@pytest.mark.parametrize("kernel,stride", [(3, 1), (1, 2), (7, 2)])
def test_fused_conv(op, extras, kernel, stride):
    b = GraphBuilder("fused")
    x = _image(b, 3, 9, n=2)
    inputs = [x, b.weight((8, 3, kernel, kernel), name="w")]
    inputs += [b.weight((8,), name=name)
               for name in ("scale", "bias")[:extras]]
    node = b.graph.add_node(op, tuple(inputs),
                            {"stride": stride, "padding": "same"})
    out = _agree(b.build([node]))
    if op is not OpType.FUSED_CONV_BN:
        assert out.min() >= 0.0 and (out == 0.0).any()


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

POOLS = {"max": GraphBuilder.maxpool, "avg": GraphBuilder.avgpool}


@pytest.mark.parametrize("kind", sorted(POOLS))
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("kernel,stride,extent", itertools.product(
    (2, 3), (1, 2, 3), (6, 7, 8)))
def test_pool_windows_truncated_or_not(kind, padding, kernel, stride, extent):
    b = GraphBuilder("pool")
    x = _image(b, 3, extent, extent + 1, n=2)
    _agree(b.build([POOLS[kind](b, x, kernel=kernel, stride=stride,
                                padding=padding)]))


@pytest.mark.parametrize("kind", sorted(POOLS))
@pytest.mark.parametrize("kernel,stride,padding", [
    (3, 3, "valid"), (3, 1, "same"), (5, 1, "same"), (5, 2, "same")])
def test_pool_kernel_at_least_the_input(kind, kernel, stride, padding):
    b = GraphBuilder("pool_big_kernel")
    _agree(b.build([POOLS[kind](b, _image(b, 2, 3), kernel=kernel,
                                stride=stride, padding=padding)]))


def test_avgpool_divides_by_the_elements_present():
    b = GraphBuilder("avg_ones")
    graph = b.build([b.avgpool(_image(b, 1, 5), kernel=3, stride=2,
                               padding="same")])
    out = _agree(graph, {"x": np.ones((1, 1, 5, 5))})
    np.testing.assert_array_equal(out, np.ones((1, 1, 3, 3)))


@pytest.mark.parametrize("kind", sorted(POOLS))
@pytest.mark.parametrize("padding", ["same", "valid"])
def test_pool_propagates_nan_as_the_interpreter_does(kind, padding):
    """``window.max()`` / ``.mean()`` return NaN for a window holding one;
    the kernels once dropped it (``nanmax`` / ``nanmean``)."""
    b = GraphBuilder("pool_nan")
    graph = b.build([POOLS[kind](b, _image(b, 1, 7), kernel=3, stride=2,
                                 padding=padding)])
    data = np.random.default_rng(3).standard_normal((1, 1, 7, 7))
    data[0, 0, 2, 2] = np.nan  # rows/cols 2 sit in windows 0 and 1 only
    out = _agree(graph, {"x": data})
    nan_at = np.isnan(out[0, 0])
    assert nan_at[:2, :2].all() and nan_at.sum() == 4


# ---------------------------------------------------------------------------
# Element-wise and dense
# ---------------------------------------------------------------------------

def test_gelu_tails_and_zero():
    b = GraphBuilder("gelu")
    graph = b.build([b.gelu(b.input((2, 8), name="x"))])
    points = np.array([0.0, 1e-8, 1.0, 30.0], dtype=np.float32)
    data = np.stack([points, -points]).repeat(2, axis=1)
    out = _agree(graph, {"x": data})
    assert out[0, -1] == 30.0 and out[1, -1] == 0.0
    assert data[0, 2] == points[1]  # the feed is read, never written


@pytest.mark.parametrize("bias_shape", [(6,), (1, 6), (4, 1), (4, 6),
                                        (3, 4, 6), (2, 1, 1, 6)])
def test_fused_matmul_add_broadcasts_its_bias(bias_shape):
    b = GraphBuilder("fma")
    a = b.input((3, 4, 5), name="a")
    node = b.graph.add_node(
        OpType.FUSED_MATMUL_ADD,
        (a, b.weight((5, 6), name="w"), b.weight(bias_shape, name="bias")))
    out = _agree(b.build([node]))
    assert out.shape == np.broadcast_shapes((3, 4, 6), bias_shape)


def test_batchnorm_with_and_without_bias():
    for extras in (0, 1, 2):
        b = GraphBuilder("bn")
        x = _image(b, 5, 4, n=2)
        params = [b.weight((5,), name=name)
                  for name in ("scale", "bias")[:extras]]
        _agree(b.build([b.graph.add_node(OpType.BATCHNORM, (x, *params))]))
