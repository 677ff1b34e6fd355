"""Minimal reverse-mode automatic differentiation over numpy arrays.

The paper implements its agent in JAX; here a small tape-based autodiff
engine records what the agent trains through: the GNN encoder's layers
(:mod:`repro.nn.gnn`), the policy/value heads and the PPO loss
(:mod:`repro.rl.ppo`) are one op each, a numpy forward and a hand-written
backward closure, and the encoder layers call this module's segment-sum
kernel.  The composable ops here (dense algebra, elementwise
nonlinearities, gathers, reductions, segment ops) are what those fused
ops' test oracles are written in.  Everything is vectorised numpy — no
Python loops over elements.

The engine has one precision, float32: ``Tensor(data)`` stores its array
as float32, and an op's result keeps the dtype numpy computed it in.  A
float32 run therefore stays float32 by construction; a leaf whose ``.data``
was replaced by a float64 array carries a float64 leg through every op.

Two engine-level choices matter for performance:

* :func:`no_grad` — a context manager under which no autograd tape is
  recorded (rollout inference does not need gradients);
* segment reductions are implemented with a single flattened
  ``np.bincount`` pass instead of ``np.add.at`` (the buffered ``ufunc.at``
  path is notoriously slow).  Both add strictly in input order;
  ``np.bincount`` accumulates in double precision and rounds once at the
  end.  The flattened indices are built per call: the module holds no
  state beyond the :func:`no_grad` flag, so concurrent searches share
  nothing here.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "as_tensor", "concat", "stack", "segment_sum",
           "delta_segment_sum", "segment_softmax", "segment_max", "no_grad"]

ArrayLike = Union[np.ndarray, float, int, list, tuple]

#: Whether newly created ops record an autograd tape (see :func:`no_grad`).
_GRAD_ENABLED: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block.

    Ops executed under ``no_grad()`` compute their forward values as usual
    but never attach parents or backward closures, so inference (e.g. the
    agent's rollout ``act()``) pays no autograd overhead and holds no
    references to intermediate arrays.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _scatter_add_rows(values: np.ndarray, index: np.ndarray,
                      num_rows: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` accumulating strictly in input order.

    Implemented as one flattened ``np.bincount`` pass (a tight C loop) in
    place of ``np.add.at``, whose buffered fancy-indexing path dispatches
    per element.  Both iterate ``i = 0..len-1`` adding into the target
    bucket.  bincount accumulates in double precision and rounds once to
    ``values.dtype`` at the end, so ``np.add.at`` into a float64 buffer,
    rounded once, is bit-for-bit the same.
    """
    if values.ndim == 1:
        out = np.bincount(index, weights=values, minlength=num_rows)
        return out.astype(values.dtype, copy=False)
    cols = int(np.prod(values.shape[1:]))
    flat = values.reshape(values.shape[0], cols)
    if cols == 1:
        # Attention logits and the like: a plain bincount on the raw index.
        out = np.bincount(index, weights=flat[:, 0], minlength=num_rows)
        return out.reshape((num_rows,) + values.shape[1:]).astype(
            values.dtype, copy=False)
    flat_ids = (index[:, None] * cols
                + np.arange(cols, dtype=np.int64)[None, :]).ravel()
    out = np.bincount(flat_ids, weights=flat.ravel(),
                      minlength=num_rows * cols)
    return out.reshape((num_rows,) + values.shape[1:]).astype(
        values.dtype, copy=False)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # -- basic protocol -----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """The array's shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """The array's number of axes."""
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """The value of a one-element tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """A copy of the value, off the tape."""
        return Tensor._make(self.data.copy(), (), None)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ---------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Optional[Callable[[np.ndarray], None]]) -> "Tensor":
        """An op's result: ``data`` in the dtype numpy computed it in (no
        cast), on the tape if a parent requires grad."""
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data)
        out.grad = None
        out.name = ""
        out.requires_grad = (_GRAD_ENABLED.get()
                             and any([p.requires_grad for p in parents]))
        out._parents = tuple(parents) if out.requires_grad else ()
        out._backward = backward if out.requires_grad else None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                            self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (must be scalar unless grad given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        # Topological order of the autodiff graph.
        order: List[Tensor] = []
        visited = set()

        def visit(t: "Tensor") -> None:
            if id(t) in visited or not t.requires_grad:
                return
            visited.add(id(t))
            for p in t._parents:
                visit(p)
            order.append(t)

        visit(self)
        # ``visit`` refers to itself through its closure cell: clear the
        # cell, or the cycle keeps ``order`` — the whole tape and its
        # arrays — alive until the cyclic collector runs.
        del visit
        self._accumulate(grad)
        for t in reversed(order):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)
        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            self._accumulate(-grad)
        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        # Every op with several parents computes a parent's gradient only if
        # it will be kept: the constant side of ``x * 0.5`` or
        # ``pooled * (1 / counts)`` would otherwise cost a full-size product
        # that ``_accumulate`` discards.
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)
        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))
        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1))
        return Tensor._make(out_data, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        """``self @ other`` (numpy's matmul, batch axes included)."""
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad):
            # The encoder's first layer multiplies a constant input: its
            # ``grad @ W.T`` ([rows, in_features]) is never needed.
            if self.requires_grad:
                self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accumulate(self.data.swapaxes(-1, -2) @ grad)
        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # -- elementwise nonlinearities -----------------------------------------------
    def relu(self) -> "Tensor":
        """``x * (x > 0)``: a negative input gives ``-0.0``."""
        mask = self.data > 0

        def backward(grad):
            self._accumulate(grad * mask)
        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        """``x`` where positive, ``slope * x`` elsewhere."""
        mask = self.data > 0
        out_data = np.where(mask, self.data, slope * self.data)

        def backward(grad):
            self._accumulate(grad * np.where(mask, 1.0, slope))
        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - out_data ** 2))
        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic function."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))
        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * out_data)
        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        def backward(grad):
            self._accumulate(grad / self.data)
        return Tensor._make(np.log(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp into ``[low, high]``; the gradient passes where the value
        was inside (bounds included)."""
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            self._accumulate(grad * mask)
        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # -- reductions / shape ----------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (every axis when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))
        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """The sum times ``1 / count``, the factor stored as a float32
        constant."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; tied maxima share the gradient equally."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == expanded).astype(np.float64)
        mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)

        def backward(grad):
            g = np.asarray(grad)
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(mask * g)
        return Tensor._make(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        """The same values in ``shape`` (a tuple or separate ints)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            self._accumulate(np.asarray(grad).reshape(original))
        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute the axes (reverse them when none are given)."""
        axes = axes or tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        out_data = np.transpose(self.data, axes)

        def backward(grad):
            self._accumulate(np.transpose(np.asarray(grad), inverse))
        return Tensor._make(out_data, (self,), backward)

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Select rows ``self[index]`` (first-axis gather), differentiable."""
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[index]
        n_rows = self.data.shape[0]

        def backward(grad):
            grad = np.asarray(grad)
            self._accumulate(_scatter_add_rows(grad, index, n_rows))
        return Tensor._make(out_data, (self,), backward)

    def scatter_into(self, shape: Tuple[int, ...], *index_arrays,
                     fill: float = 0.0) -> "Tensor":
        """Scatter this tensor's elements into a ``fill``-initialised array.

        ``data[index_arrays] = self`` — one index array per dimension of
        ``shape``, all positions distinct (each element lands in its own
        slot, so no accumulation happens and the gradient is a plain
        gather).  This is how the agent places per-candidate logits into the
        fixed-size padded action space in one O(n) op.
        """
        index = tuple(np.asarray(ix, dtype=np.int64) for ix in index_arrays)
        data = np.full(shape, fill, dtype=self.data.dtype)
        data[index] = self.data

        def backward(grad):
            self._accumulate(np.asarray(grad)[index])
        return Tensor._make(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Softmax along ``axis``, shifted by the (constant) maximum."""
        shifted = self - as_tensor(self.data.max(axis=axis, keepdims=True))
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """``shifted - log(sum(exp(shifted)))`` along ``axis``, ``shifted``
        the input less its (constant) maximum."""
        shifted = self - as_tensor(self.data.max(axis=axis, keepdims=True))
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad):
            full = np.zeros_like(self.data)
            full[key] = np.asarray(grad)
            self._accumulate(full)
        return Tensor._make(out_data, (self,), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Wrap raw data into a non-differentiable :class:`Tensor` if needed."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad):
        # Each input's slice of ``grad`` (what ``np.split`` returns, views).
        index = [slice(None)] * grad.ndim
        start = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index[axis] = slice(start, start + size)
                t._accumulate(grad[tuple(index)])
            start += size
    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(np.asarray(grad), i, axis=axis))
    return Tensor._make(out_data, tensors, backward)


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets given by ``segment_ids``.

    This is the aggregation primitive behind message passing: per-edge
    messages are summed into their destination nodes.
    """
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = _scatter_add_rows(values.data, segment_ids, num_segments)

    def backward(grad):
        values._accumulate(np.asarray(grad)[segment_ids])
    return Tensor._make(out_data, (values,), backward)


def delta_segment_sum(values: Tensor, rows: np.ndarray, signs: np.ndarray,
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
    wide = _scatter_add_rows(values.data[rows] * signs, segment_ids,
                             num_segments)
    wide[inherit] += wide[ancestors]
    num_rows = values.data.shape[0]

    def backward(grad):
        wide_grad = np.asarray(grad, dtype=np.float64)
        wide_grad = wide_grad + _scatter_add_rows(
            wide_grad[inherit], ancestors, num_segments)
        values._accumulate(_scatter_add_rows(
            wide_grad[segment_ids] * signs, rows, num_rows))
    return Tensor._make(wide.astype(values.data.dtype), (values,), backward)


def segment_max(values: np.ndarray, segment_ids: np.ndarray,
                num_segments: int) -> np.ndarray:
    """Non-differentiable per-segment maximum (used to stabilise softmax)."""
    out = np.full((num_segments,) + values.shape[1:], -np.inf,
                  dtype=values.dtype)
    np.maximum.at(out, segment_ids, values)
    out[~np.isfinite(out)] = 0.0
    return out


def segment_softmax(logits: Tensor, segment_ids: np.ndarray,
                    num_segments: int) -> Tensor:
    """Softmax of ``logits`` normalised within each segment.

    Used by the GAT layer: attention coefficients are normalised over the
    incoming edges of each destination node.
    """
    logits = as_tensor(logits)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    maxes = segment_max(logits.data, segment_ids, num_segments)
    shifted = logits - Tensor(maxes[segment_ids])
    exp = shifted.exp()
    denom = segment_sum(exp, segment_ids, num_segments)
    denom_per_edge = denom.gather_rows(segment_ids)
    return exp / (denom_per_edge + 1e-12)
