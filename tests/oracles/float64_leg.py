"""The float64 leg of the learning stack's tests, compared by
``tests/nn/test_autodiff.py`` (numeric gradient checks) and
``tests/rl/test_incremental_features.py`` (gradient, Adam and
greedy-sequence comparisons).

``repro.nn`` runs at one precision: ``Tensor(data)`` stores float32, and an
op's result keeps the dtype numpy computed it in.  A test that needs double
precision upcasts the *leaves* — an input's or a parameter's ``.data`` —
and every op downstream of them then computes in float64, as
``interpreter_reference`` does for the executor.  Constants the engine
builds inside an op (the ``0.5`` of a residual average, a softmax's max
shift, the pooling ``1 / counts``) stay float32: exact, shift-invariant or
shared by both sides of a comparison, so the leg differs from the float32
run by rounding only.
"""

import numpy as np
from tape import Tensor

from repro.nn import Module

__all__ = ["leaf", "upcast"]


def leaf(data, requires_grad: bool = False) -> Tensor:
    """A tensor holding ``data`` in float64."""
    tensor = Tensor(0.0, requires_grad=requires_grad)
    tensor.data = np.asarray(data, dtype=np.float64)
    return tensor


def upcast(module: Module) -> Module:
    """Widen every parameter of ``module`` to float64, in place.

    Build the optimiser afterwards: Adam's moments are ``zeros_like`` the
    parameters, so they follow them into float64.
    """
    for parameter in module.parameters():
        parameter.data = parameter.data.astype(np.float64)
    return module
