"""Minimal reverse-mode automatic differentiation over numpy arrays: the
tape core.

The paper implements its agent in JAX; here a :class:`Tensor` holds an
array, its gradient, its parents and the closure mapping its gradient to
theirs, and :meth:`Tensor.backward` runs those closures in reverse
topological order.  The agent trains through hand-written ops on this core,
a numpy forward and one backward closure each: the GNN encoder's layers
(:mod:`repro.nn.gnn`), the policy/value heads and the PPO loss
(:mod:`repro.rl.ppo`).  The composable ops they were built from are the
test oracles' language, in ``tests/oracles/tape.py``.

The engine has one precision, float32: ``Tensor(data)`` stores its array
as float32, and an op's result keeps the dtype numpy computed it in.  A
float32 run therefore stays float32 by construction; a leaf whose ``.data``
was replaced by a float64 array carries a float64 leg through every op.

Two engine-level choices matter for performance:

* :func:`no_grad` — a context manager under which no autograd tape is
  recorded (rollout inference does not need gradients);
* every segment sum is :func:`_scatter_add_rows`, one flattened
  ``np.bincount`` pass instead of ``np.add.at`` (the buffered ``ufunc.at``
  path is notoriously slow).  Both add strictly in input order;
  ``np.bincount`` accumulates in double precision and rounds once at the
  end.  The module holds no state beyond the :func:`no_grad` flag, so
  concurrent searches share nothing here.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad"]

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ---------------------------------------------------
    @classmethod
    def _make(cls, data: np.ndarray, parents: Sequence["Tensor"],
              backward: Optional[Callable[[np.ndarray], None]]) -> "Tensor":
        """An op's result, a ``cls``: ``data`` in the dtype numpy computed
        it in (no cast), on the tape if a parent requires grad."""
        out = cls.__new__(cls)
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
