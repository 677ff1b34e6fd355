"""The composable autograd ops of ``repro.nn``'s tape: the language the
learning stack's oracles and ``tests/nn`` are written in.

``src/repro/nn/tensor.py`` keeps the tape core (a ``Tensor`` holds its
array, parents and backward closure; ``backward`` walks the tape), and the
agent trains through hand-written ops only: the encoder's layers, the heads
and the PPO loss.  The ops those were composed from live here, each a
numpy forward and a backward closure on the core, unchanged:

* the functions (:func:`add` … :func:`index`, :func:`concat`,
  :func:`segment_sum` …) take any ``repro.nn.Tensor`` — a parameter, a
  fused layer's output — or raw data, and return this module's
  :class:`Tensor`;
* :class:`Tensor` spells them as operators and methods, the reflected
  operators included, so ``x @ layer.weight`` and ``param + x`` record
  what the composed expressions always recorded: the same parents in the
  same order, hence every gradient summed in the same order;
* :func:`linear` and :func:`mlp` are ``Linear`` and ``MLP`` applied as
  composed ops, on the layers' own parameters.

Every segment sum goes through ``repro.nn.tensor._scatter_add_rows``,
looked up at call time, so a test that swaps the kernel reaches these ops
too.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

import repro.nn as _nn
from repro.nn import tensor as _tensor

__all__ = ["Tensor", "add", "as_tensor", "clip", "concat",
           "delta_segment_sum", "exp", "gather_rows", "index", "leaky_relu",
           "linear", "log", "log_softmax", "matmul", "max", "mean", "mlp",
           "mul", "neg", "power", "relu", "reshape", "scatter_into",
           "segment_max", "segment_softmax", "segment_sum", "sigmoid",
           "softmax", "stack", "sub", "sum", "tanh", "transpose", "truediv"]


class Tensor(_nn.Tensor):
    """A ``repro.nn.Tensor`` with the composable ops as operators and
    methods; an op's result is one of these."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return truediv(self, other)

    def __rtruediv__(self, other):
        return truediv(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return index(self, key)

    def matmul(self, other):
        return matmul(self, other)

    def relu(self):
        return relu(self)

    def leaky_relu(self, slope: float = 0.2):
        return leaky_relu(self, slope)

    def tanh(self):
        return tanh(self)

    def sigmoid(self):
        return sigmoid(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def clip(self, low: float, high: float):
        return clip(self, low, high)

    def sum(self, axis: Optional[int] = None, keepdims: bool = False):
        return sum(self, axis, keepdims)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False):
        return mean(self, axis, keepdims)

    def max(self, axis: int, keepdims: bool = False):
        return max(self, axis, keepdims)

    def reshape(self, *shape: int):
        return reshape(self, *shape)

    def transpose(self, *axes: int):
        return transpose(self, *axes)

    def gather_rows(self, rows: np.ndarray):
        return gather_rows(self, rows)

    def scatter_into(self, shape: Tuple[int, ...], *index_arrays,
                     fill: float = 0.0):
        return scatter_into(self, shape, *index_arrays, fill=fill)

    def softmax(self, axis: int = -1):
        return softmax(self, axis)

    def log_softmax(self, axis: int = -1):
        return log_softmax(self, axis)

    def detach(self) -> "Tensor":
        """A copy of the value, off the tape."""
        return Tensor._make(self.data.copy(), (), None)


def as_tensor(value) -> _nn.Tensor:
    """Wrap raw data into a non-differentiable :class:`Tensor` if needed."""
    return value if isinstance(value, _nn.Tensor) else Tensor(value)


# -- arithmetic ---------------------------------------------------------------
def add(a, b) -> Tensor:
    """``a + b``, broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)
    return Tensor._make(a.data + b.data, (a, b), backward)


def neg(a) -> Tensor:
    """``-a``."""
    a = as_tensor(a)

    def backward(grad):
        a._accumulate(-grad)
    return Tensor._make(-a.data, (a,), backward)


def sub(a, b) -> Tensor:
    """``a + (-b)``: a negation and a sum on the tape."""
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    """``a * b``, broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    # Every op with several parents computes a parent's gradient only if
    # it will be kept: the constant side of ``x * 0.5`` or
    # ``pooled * (1 / counts)`` would otherwise cost a full-size product
    # that ``_accumulate`` discards.
    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * b.data)
        if b.requires_grad:
            b._accumulate(grad * a.data)
    return Tensor._make(a.data * b.data, (a, b), backward)


def truediv(a, b) -> Tensor:
    """``a / b``, broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad / b.data)
        if b.requires_grad:
            b._accumulate(-grad * a.data / (b.data ** 2))
    return Tensor._make(a.data / b.data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    """``a ** exponent`` for a constant exponent."""
    a = as_tensor(a)

    def backward(grad):
        a._accumulate(grad * exponent * a.data ** (exponent - 1))
    return Tensor._make(a.data ** exponent, (a,), backward)


def matmul(a, b) -> Tensor:
    """``a @ b`` (numpy's matmul, batch axes included)."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad):
        # The encoder's first layer multiplies a constant input: its
        # ``grad @ W.T`` ([rows, in_features]) is never needed.
        if a.requires_grad:
            a._accumulate(grad @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b._accumulate(a.data.swapaxes(-1, -2) @ grad)
    return Tensor._make(a.data @ b.data, (a, b), backward)


# -- elementwise nonlinearities -------------------------------------------------
def relu(a) -> Tensor:
    """``x * (x > 0)``: a negative input gives ``-0.0``."""
    a = as_tensor(a)
    mask = a.data > 0

    def backward(grad):
        a._accumulate(grad * mask)
    return Tensor._make(a.data * mask, (a,), backward)


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    """``x`` where positive, ``slope * x`` elsewhere."""
    a = as_tensor(a)
    mask = a.data > 0

    def backward(grad):
        a._accumulate(grad * np.where(mask, 1.0, slope))
    return Tensor._make(np.where(mask, a.data, slope * a.data), (a,),
                        backward)


def tanh(a) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        a._accumulate(grad * (1.0 - out_data ** 2))
    return Tensor._make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    """Elementwise logistic function."""
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        a._accumulate(grad * out_data * (1.0 - out_data))
    return Tensor._make(out_data, (a,), backward)


def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        a._accumulate(grad * out_data)
    return Tensor._make(out_data, (a,), backward)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)

    def backward(grad):
        a._accumulate(grad / a.data)
    return Tensor._make(np.log(a.data), (a,), backward)


def clip(a, low: float, high: float) -> Tensor:
    """Clamp into ``[low, high]``; the gradient passes where the value was
    inside (bounds included)."""
    a = as_tensor(a)
    mask = (a.data >= low) & (a.data <= high)

    def backward(grad):
        a._accumulate(grad * mask)
    return Tensor._make(np.clip(a.data, low, high), (a,), backward)


# -- reductions / shape -----------------------------------------------------------
def sum(a, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (every axis when ``None``)."""
    a = as_tensor(a)

    def backward(grad):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))
    return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                        backward)


def mean(a, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    """The sum times ``1 / count``, the factor stored as a float32
    constant."""
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum(a, axis, keepdims), 1.0 / count)


def max(a, axis: int, keepdims: bool = False) -> Tensor:
    """Maximum over ``axis``; tied maxima share the gradient equally."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    expanded = a.data.max(axis=axis, keepdims=True)
    mask = (a.data == expanded).astype(np.float64)
    mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)

    def backward(grad):
        g = np.asarray(grad)
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(mask * g)
    return Tensor._make(out_data, (a,), backward)


def reshape(a, *shape: int) -> Tensor:
    """The same values in ``shape`` (a tuple or separate ints)."""
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    original = a.data.shape

    def backward(grad):
        a._accumulate(np.asarray(grad).reshape(original))
    return Tensor._make(a.data.reshape(shape), (a,), backward)


def transpose(a, *axes: int) -> Tensor:
    """Permute the axes (reverse them when none are given)."""
    a = as_tensor(a)
    axes = axes or tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)

    def backward(grad):
        a._accumulate(np.transpose(np.asarray(grad), inverse))
    return Tensor._make(np.transpose(a.data, axes), (a,), backward)


def gather_rows(a, rows: np.ndarray) -> Tensor:
    """Select rows ``a[rows]`` (first-axis gather), differentiable."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    n_rows = a.data.shape[0]

    def backward(grad):
        a._accumulate(_tensor._scatter_add_rows(np.asarray(grad), rows,
                                                n_rows))
    return Tensor._make(a.data[rows], (a,), backward)


def scatter_into(a, shape: Tuple[int, ...], *index_arrays,
                 fill: float = 0.0) -> Tensor:
    """Scatter ``a``'s elements into a ``fill``-initialised array.

    ``data[index_arrays] = a`` — one index array per dimension of
    ``shape``, all positions distinct (each element lands in its own slot,
    so no accumulation happens and the gradient is a plain gather).  This
    is how the composed heads placed per-candidate logits into the padded
    action space in one O(n) op.
    """
    a = as_tensor(a)
    where = tuple(np.asarray(ix, dtype=np.int64) for ix in index_arrays)
    data = np.full(shape, fill, dtype=a.data.dtype)
    data[where] = a.data

    def backward(grad):
        a._accumulate(np.asarray(grad)[where])
    return Tensor._make(data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, shifted by the (constant) maximum."""
    a = as_tensor(a)
    shifted = sub(a, a.data.max(axis=axis, keepdims=True))
    e = exp(shifted)
    return truediv(e, sum(e, axis, keepdims=True))


def log_softmax(a, axis: int = -1) -> Tensor:
    """``shifted - log(sum(exp(shifted)))`` along ``axis``, ``shifted`` the
    input less its (constant) maximum."""
    a = as_tensor(a)
    shifted = sub(a, a.data.max(axis=axis, keepdims=True))
    return sub(shifted, log(sum(exp(shifted), axis, keepdims=True)))


def index(a, key) -> Tensor:
    """``a[key]``, differentiable."""
    a = as_tensor(a)

    def backward(grad):
        full = np.zeros_like(a.data)
        full[key] = np.asarray(grad)
        a._accumulate(full)
    return Tensor._make(a.data[key], (a,), backward)


# -- several tensors -----------------------------------------------------------
def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad):
        # Each input's slice of ``grad`` (what ``np.split`` returns, views).
        where = [slice(None)] * grad.ndim
        start = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                where[axis] = slice(start, start + size)
                t._accumulate(grad[tuple(where)])
            start += size
    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis),
                        tensors, backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = [as_tensor(t) for t in tensors]

    def backward(grad):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(np.asarray(grad), i, axis=axis))
    return Tensor._make(np.stack([t.data for t in tensors], axis=axis),
                        tensors, backward)


# -- segment ops ------------------------------------------------------------------
def segment_sum(values, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets given by
    ``segment_ids``: message passing's aggregation."""
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = _tensor._scatter_add_rows(values.data, segment_ids,
                                         num_segments)

    def backward(grad):
        values._accumulate(np.asarray(grad)[segment_ids])
    return Tensor._make(out_data, (values,), backward)


def delta_segment_sum(values, rows: np.ndarray, signs: np.ndarray,
                      segment_ids: np.ndarray, parents: np.ndarray,
                      num_segments: int) -> Tensor:
    """Per-segment sums of signed rows, each on top of its parent's sum.

    Entry ``i`` adds ``signs[i] * values[rows[i]]`` to segment
    ``segment_ids[i]``; a segment with ``parents[s] >= 0`` also inherits
    the whole sum of segment ``parents[s]``, which has no parent of its own.
    That is how a graph stored as a delta against another is pooled: the
    parent's sum, minus the parent rows it no longer holds as they are
    (signs ``-1``), plus its own rows.  With every sign ``+1`` and no parent
    this is :func:`segment_sum` of ``values[rows]``.

    Both passes accumulate in float64 and round once to ``values``' dtype.
    A float64 sum of float32 values is exact unless the values of one column
    span about 2**21 in magnitude, so "parent − old + new" rounds to the same
    float32 as summing the segment's full row list in any order.  The
    backward mirrors it: a segment's gradient reaches its own entries and
    those of its parent.
    """
    values = as_tensor(values)
    rows = np.asarray(rows, dtype=np.int64)
    signs = np.asarray(signs, dtype=np.float64).reshape(-1, 1)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    inherit = parents >= 0
    ancestors = parents[inherit]
    wide = _tensor._scatter_add_rows(values.data[rows] * signs, segment_ids,
                                     num_segments)
    wide[inherit] += wide[ancestors]
    num_rows = values.data.shape[0]

    def backward(grad):
        wide_grad = np.asarray(grad, dtype=np.float64)
        wide_grad = wide_grad + _tensor._scatter_add_rows(
            wide_grad[inherit], ancestors, num_segments)
        values._accumulate(_tensor._scatter_add_rows(
            wide_grad[segment_ids] * signs, rows, num_rows))
    return Tensor._make(wide.astype(values.data.dtype), (values,), backward)


def segment_max(values: np.ndarray, segment_ids: np.ndarray,
                num_segments: int) -> np.ndarray:
    """Non-differentiable per-segment maximum (stabilises a softmax); an
    empty segment reads 0."""
    out = np.full((num_segments,) + values.shape[1:], -np.inf,
                  dtype=values.dtype)
    np.maximum.at(out, segment_ids, values)
    out[~np.isfinite(out)] = 0.0
    return out


def segment_softmax(logits, segment_ids: np.ndarray,
                    num_segments: int) -> Tensor:
    """Softmax of ``logits`` normalised within each segment: a GAT layer's
    attention over each destination node's incoming edges."""
    logits = as_tensor(logits)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    maxes = segment_max(logits.data, segment_ids, num_segments)
    shifted = sub(logits, Tensor(maxes[segment_ids]))
    e = exp(shifted)
    denom = segment_sum(e, segment_ids, num_segments)
    return truediv(e, add(gather_rows(denom, segment_ids), 1e-12))


# -- layers ------------------------------------------------------------------------
def linear(layer: _nn.Linear, x) -> Tensor:
    """``x @ W + b`` as two taped ops (``x`` may carry leading batch
    axes)."""
    out = matmul(x, layer.weight)
    if layer.bias is not None:
        out = add(out, layer.bias)
    return out


def mlp(net: _nn.MLP, x) -> Tensor:
    """The layers in turn, a ReLU after each but the last (and after the
    last too with ``activate_final``)."""
    for i, layer in enumerate(net.layers):
        x = linear(layer, x)
        if i < len(net.layers) - 1 or net.activate_final:
            x = relu(x)
    return x
