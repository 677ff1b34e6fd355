"""Numeric gradient checks and behaviour tests for the autodiff engine.

The numeric checks difference at ``eps = 1e-6``, which float32 cannot
resolve: they run on float64 leaves (``tests/oracles/float64_leg.py``).
"""

import gc
import weakref

import numpy as np
import pytest
from float64_leg import leaf, upcast
from hypothesis import given, settings, strategies as st

from tape import (Tensor, concat, delta_segment_sum, segment_softmax,
                  segment_sum, stack)

from repro.nn import (BatchedGraphs, GATLayer, GlobalUpdateLayer,
                      NodeUpdateLayer, no_grad)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x.copy())
        flat[i] = orig - eps
        minus = fn(x.copy())
        flat[i] = orig
        out[i] = (plus - minus) / (2 * eps)
    return out.reshape(x.shape)


def check_gradient(op, x_data, atol=1e-5):
    x = leaf(x_data, requires_grad=True)
    out = op(x)
    loss = out.sum() if out.data.size > 1 else out
    loss.backward()

    def scalar_fn(data):
        value = op(leaf(data)).data
        return float(value.sum())

    expected = numeric_grad(scalar_fn, np.asarray(x_data, dtype=float))
    assert x.grad.dtype == np.float64
    np.testing.assert_allclose(x.grad, expected, atol=atol)


class TestGradients:
    def test_add_mul(self):
        check_gradient(lambda x: x * 3.0 + x * x, np.random.default_rng(0).normal(size=(3, 4)))

    def test_matmul(self):
        w = leaf(np.random.default_rng(1).normal(size=(4, 2)))
        check_gradient(lambda x: x @ w, np.random.default_rng(0).normal(size=(3, 4)))

    def test_relu_tanh_sigmoid_exp(self):
        data = np.random.default_rng(2).normal(size=(5,)) + 0.1
        check_gradient(lambda x: x.relu(), data)
        check_gradient(lambda x: x.tanh(), data)
        check_gradient(lambda x: x.sigmoid(), data)
        check_gradient(lambda x: x.exp(), data)

    def test_log_and_division(self):
        data = np.abs(np.random.default_rng(3).normal(size=(4,))) + 0.5
        check_gradient(lambda x: x.log(), data)
        check_gradient(lambda x: 1.0 / x, data)

    def test_softmax_log_softmax(self):
        data = np.random.default_rng(4).normal(size=(2, 5))
        check_gradient(lambda x: x.softmax(axis=-1), data, atol=1e-4)
        check_gradient(lambda x: x.log_softmax(axis=-1), data, atol=1e-4)

    def test_reshape_transpose_slice(self):
        data = np.random.default_rng(5).normal(size=(2, 6))
        check_gradient(lambda x: x.reshape(3, 4), data)
        check_gradient(lambda x: x.transpose(1, 0), data)
        check_gradient(lambda x: x[0:1], data)

    def test_mean_max(self):
        data = np.random.default_rng(6).normal(size=(3, 4))
        check_gradient(lambda x: x.mean(axis=0), data)
        check_gradient(lambda x: x.max(axis=1), data, atol=1e-4)

    def test_broadcasting_gradients(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_concat_and_stack(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        concat([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        a.zero_grad(); b.zero_grad()
        (stack([a, b], axis=0) * 2.0).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_gather_rows(self):
        x = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        idx = np.array([0, 2, 2])
        x.gather_rows(idx).sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1, 1], [0, 0, 0], [2, 2, 2], [0, 0, 0]])

    def test_clip(self):
        data = np.array([-2.0, 0.5, 3.0])
        check_gradient(lambda x: x.clip(-1.0, 1.0), data)


class TestSegmentOps:
    def test_segment_sum_forward_backward(self):
        values = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        ids = np.array([0, 0, 1, 1])
        out = segment_sum(values, ids, 2)
        np.testing.assert_allclose(out.data, [[2, 4], [10, 12]])
        out.sum().backward()
        np.testing.assert_allclose(values.grad, np.ones((4, 2)))

    # Graph 0 holds rows 0-2; graph 1 is graph 0 with row 1 replaced by row
    # 3; graph 2 is graph 0 with rows 0 and 2 replaced by rows 4 and 5;
    # graph 3 holds rows 5 and 4 with no parent.
    DELTA_ROWS = np.array([0, 1, 2, 3, 1, 4, 5, 0, 2, 5, 4])
    DELTA_SIGNS = np.array([1, 1, 1, 1, -1, 1, 1, -1, -1, 1, 1.0])
    DELTA_IDS = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3])
    DELTA_PARENTS = np.array([-1, 0, 0, -1])

    def delta_sum(self, values):
        return delta_segment_sum(values, self.DELTA_ROWS, self.DELTA_SIGNS,
                                 self.DELTA_IDS, self.DELTA_PARENTS, 4)

    def test_delta_segment_sum_pools_each_graphs_rows(self):
        data = np.random.default_rng(7).normal(size=(6, 3))
        held = [[0, 1, 2], [0, 3, 2], [4, 1, 5], [5, 4]]
        out = self.delta_sum(leaf(data))
        assert out.data.dtype == np.float64
        np.testing.assert_allclose(
            out.data, [data[rows].sum(axis=0) for rows in held], atol=1e-12)
        assert self.delta_sum(Tensor(data)).data.dtype == np.float32

    def test_delta_segment_sum_gradient(self):
        """A graph's gradient reaches its own entries and its parent's."""
        weights = leaf(np.random.default_rng(8).normal(size=(4, 3)))
        check_gradient(lambda x: self.delta_sum(x) * weights,
                       np.random.default_rng(9).normal(size=(6, 3)))

    def test_segment_softmax_normalises_per_segment(self):
        logits = Tensor(np.array([[1.0], [2.0], [3.0], [0.5]]), requires_grad=True)
        ids = np.array([0, 0, 1, 1])
        out = segment_softmax(logits, ids, 2)
        sums = segment_sum(out, ids, 2)
        assert sums.data.dtype == np.float32
        np.testing.assert_allclose(sums.data, np.ones((2, 1)), atol=1e-6)
        wide = segment_sum(segment_softmax(leaf(logits.data), ids, 2), ids, 2)
        np.testing.assert_allclose(wide.data, np.ones((2, 1)), atol=1e-9)

    def test_segment_softmax_gradients_flow(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(5, 1)), requires_grad=True)
        ids = np.array([0, 0, 1, 1, 1])
        (segment_softmax(logits, ids, 2) * np.arange(5).reshape(5, 1)).sum().backward()
        assert logits.grad is not None
        assert np.isfinite(logits.grad).all()


def readout_batch(num_graphs=4):
    """Six store rows, seven edges (not grouped by destination; rows 0 and
    5 have none in), and :class:`TestSegmentOps`' delta readout — or, with
    ``num_graphs=1``, one graph pooling every row."""
    rng = np.random.default_rng(10)
    readout = dict(
        graph_ids=TestSegmentOps.DELTA_IDS, num_graphs=4,
        pool_rows=TestSegmentOps.DELTA_ROWS,
        pool_signs=TestSegmentOps.DELTA_SIGNS,
        parents=TestSegmentOps.DELTA_PARENTS,
        graph_sizes=np.array([3, 3, 3, 2])) if num_graphs == 4 else dict(
        graph_ids=np.zeros(6, dtype=np.int64), num_graphs=1)
    return BatchedGraphs(
        node_features=rng.normal(size=(6, 3)).astype(np.float32),
        edge_features=rng.normal(size=(7, 2)).astype(np.float32),
        edge_src=np.array([0, 1, 2, 0, 3, 4, 5]),
        edge_dst=np.array([1, 2, 2, 3, 4, 4, 1]),
        global_features=rng.normal(size=(num_graphs, 1)).astype(np.float32),
        **readout)


def check_layer_gradients(layer, batch, inputs=None, atol=1e-6):
    """A fused layer's gradients — for its input rows (``inputs``; the
    node update's input is a constant) and every parameter — against
    central differences, on the float64 leg."""
    upcast(layer)
    x = Tensor(batch.node_features) if inputs is None \
        else leaf(inputs, requires_grad=True)
    out = layer(batch, x)
    weights = leaf(np.random.default_rng(11).normal(size=out.shape))
    (out * weights).sum().backward()
    for tensor in ([] if inputs is None else [x]) + layer.parameters():
        def loss(data, tensor=tensor):
            kept, tensor.data = tensor.data, data
            with no_grad():
                value = float((layer(batch, x) * weights).sum().data)
            tensor.data = kept
            return value

        assert tensor.grad.dtype == np.float64
        np.testing.assert_allclose(
            tensor.grad, numeric_grad(loss, tensor.data.copy()), atol=atol)


class TestFusedLayerGradients:
    """Each encoder layer is one op with a hand-written backward."""

    def test_node_update(self):
        check_layer_gradients(
            NodeUpdateLayer(3, 2, 4, rng=np.random.default_rng(0)),
            readout_batch())

    def test_gat_layer(self):
        check_layer_gradients(
            GATLayer(4, rng=np.random.default_rng(1)), readout_batch(),
            np.random.default_rng(2).normal(size=(6, 4)))

    @pytest.mark.parametrize("num_graphs", [4, 1])
    def test_global_update(self, num_graphs):
        check_layer_gradients(
            GlobalUpdateLayer(4, 1, 3, rng=np.random.default_rng(3)),
            readout_batch(num_graphs),
            np.random.default_rng(4).normal(size=(6, 4)))


class TestOnePrecision:
    def test_a_tensor_stores_float32_and_takes_no_dtype(self):
        assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == np.float32
        assert Tensor([1, 2]).data.dtype == np.float32
        with pytest.raises(TypeError, match="dtype"):
            Tensor(np.ones(3), dtype=np.float64)

    def test_an_op_result_keeps_the_dtype_numpy_computed(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        assert (x * 0.5 + x).exp().sum().data.dtype == np.float32
        wide = leaf(np.ones((2, 3)), requires_grad=True)
        out = (wide @ Tensor(np.ones((3, 2)))).relu().sum()
        assert out.data.dtype == np.float64
        assert wide.detach().data.dtype == np.float64
        out.backward()
        assert wide.grad.dtype == np.float64


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_grad_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2).sum()
        y.backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))

    def test_backward_frees_the_tape_on_return(self):
        """Without the cyclic collector: nothing ``backward`` built while
        walking the tape may keep it alive once the caller lets go."""
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = (x * 2).exp()
        array = weakref.ref(hidden.data)
        enabled = gc.isenabled()
        gc.disable()
        try:
            loss = hidden.sum()
            loss.backward()
            del hidden, loss
            assert array() is None
        finally:
            if enabled:
                gc.enable()
        assert x.grad is not None

    def test_detach_stops_gradients(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.detach() * 2).sum()
        assert x.grad is None

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shapes_property(self, n, m):
        a = Tensor(np.ones((n, m)), requires_grad=True)
        b = Tensor(np.ones((m, 3)), requires_grad=True)
        out = a @ b
        assert out.shape == (n, 3)
        out.sum().backward()
        assert a.grad.shape == (n, m) and b.grad.shape == (m, 3)
