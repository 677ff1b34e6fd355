"""Per-operator numpy kernels for the reference executor.

One kernel per :class:`~repro.ir.ops.OpType`, collected in the
:data:`KERNELS` dispatch table (the same structure ngraph's
``NumPyTransformer`` uses: op type -> python callable).  Every kernel has
the signature ``fn(in_vals, attrs, out_shapes) -> [out_0, out_1, ...]``
where ``in_vals`` are the input arrays in slot order, ``attrs`` is the
node's attribute mapping, and ``out_shapes`` are the *declared* output
shapes from shape inference — kernels that need the output size to pick
their padding (convolutions, pools) read it from there.

The numerical semantics (guarded DIV, ``sqrt(|x|)``, tanh-GELU,
inference-mode BatchNorm, clipped embedding indices, ...) are those of the
loop interpreter the tests keep as the oracle
(``tests/oracles/interpreter_reference.py``); the kernels are vectorised
where it loops: a convolution is one im2col gather laid out so that its
GEMM writes NCHW directly (a 1x1 kernel skips the gather), a pool reduces
``kernel**2`` strided slices into one buffer, and fused epilogues run in
place on the GEMM's output.

In-place arithmetic obeys one rule: **a kernel writes only into an array it
allocated in this call**, never into ``in_vals`` — buffers are shared
between consumers, shape ops return views of their inputs, and parameters
outlive the run (the executor hands sources over read-only, so a violation
raises).

A kernel computes in its inputs' dtype and never upcasts — float32 under
the executor, float64 when the kernel-oracle suite calls it directly.  Its
constants are Python floats, which keep an array's dtype under NumPy's
promotion rules.

Everything is pure numpy + stdlib: :func:`erf` wraps :func:`math.erf`
instead of pulling in scipy, which the CI image does not install.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Tuple

import numpy as np

from ..ir.ops import OP_REGISTRY, OPAQUE_OPS, OpType, SOURCE_OPS

__all__ = ["KERNELS", "Kernel", "erf", "uncovered_ops"]

#: ``fn(in_vals, attrs, out_shapes) -> [out_0, ...]`` — one value per
#: declared output slot.
Kernel = Callable[
    [List[np.ndarray], Mapping[str, object], List[Tuple[int, ...]]],
    List[np.ndarray],
]

def erf(x: np.ndarray) -> np.ndarray:
    """Gauss error function on arrays, in ``x``'s dtype, no scipy: each
    element goes through :func:`math.erf` and is rounded once on store."""
    return np.fromiter(map(math.erf, x.flat), x.dtype, x.size).reshape(x.shape)


KERNELS: Dict[OpType, Kernel] = {}


def _register(op_type: OpType):
    def wrap(fn: Kernel) -> Kernel:
        KERNELS[op_type] = fn
        return fn
    return wrap


def uncovered_ops(kernels: Mapping[OpType, Kernel] = None) -> List[OpType]:
    """Registry operators with neither a kernel nor source materialisation.

    The executor materialises :data:`~repro.ir.ops.SOURCE_OPS` itself, and
    :data:`~repro.ir.ops.OPAQUE_OPS` are kernel-less *by contract* (the
    counted pass-through is their defined behaviour), so coverage means:
    every other registry op has a dispatch entry.  Ops returned here run
    through the counted pass-through fallback unintentionally.
    """
    table = KERNELS if kernels is None else kernels
    return [op for op in OP_REGISTRY
            if op not in SOURCE_OPS and op not in OPAQUE_OPS
            and op not in table]


# ---------------------------------------------------------------------------
# Identity-ish plumbing
# ---------------------------------------------------------------------------

@_register(OpType.OUTPUT)
def _output(in_vals, attrs, out_shapes):
    return [in_vals[0]]


@_register(OpType.NOOP)
def _noop(in_vals, attrs, out_shapes):
    # No input to follow: the IR declares NoOp's output float32.
    return [np.zeros((), dtype=np.float32)]


def _identity(in_vals, attrs, out_shapes):
    return [in_vals[0]]


for _op in (OpType.IDENTITY, OpType.CAST, OpType.DROPOUT):
    KERNELS[_op] = _identity


# ---------------------------------------------------------------------------
# Dense linear algebra
# ---------------------------------------------------------------------------

@_register(OpType.MATMUL)
def _matmul(in_vals, attrs, out_shapes):
    return [np.matmul(in_vals[0], in_vals[1])]


KERNELS[OpType.BATCH_MATMUL] = KERNELS[OpType.MATMUL]


@_register(OpType.FUSED_MATMUL_ADD)
def _fused_matmul_add(in_vals, attrs, out_shapes):
    out = np.matmul(in_vals[0], in_vals[1])
    if out.shape != tuple(out_shapes[0]):  # the bias broadcasts the product up
        return [out + in_vals[2]]
    out += in_vals[2]
    return [out]


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------

_BINARY = {
    OpType.ADD: lambda a, b: a + b,
    OpType.SUB: lambda a, b: a - b,
    OpType.MUL: lambda a, b: a * b,
    # Guarded so random denominators never divide by 0.
    OpType.DIV: lambda a, b: a / (b + 1e-12),
}


def _gelu(x):
    # 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), one temporary.
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= x
    t *= math.sqrt(2 / math.pi)
    np.tanh(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


_UNARY = {
    OpType.RELU: lambda x: np.maximum(x, 0.0),
    OpType.GELU: _gelu,
    OpType.SIGMOID: lambda x: 1.0 / (1.0 + np.exp(-x)),
    OpType.TANH: np.tanh,
    OpType.EXP: np.exp,
    OpType.SQRT: lambda x: np.sqrt(np.abs(x)),
    OpType.ERF: erf,
}

for _op, _fn in _BINARY.items():
    KERNELS[_op] = (lambda fn: lambda v, a, s: [fn(v[0], v[1])])(_fn)
for _op, _fn in _UNARY.items():
    KERNELS[_op] = (lambda fn: lambda v, a, s: [fn(v[0])])(_fn)


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------

@_register(OpType.SOFTMAX)
def _softmax(in_vals, attrs, out_shapes):
    axis = int(attrs.get("axis", -1))
    x = in_vals[0] - in_vals[0].max(axis=axis, keepdims=True)
    e = np.exp(x)
    return [e / e.sum(axis=axis, keepdims=True)]


@_register(OpType.BATCHNORM)
def _batchnorm(in_vals, attrs, out_shapes):
    # Inference-mode affine transform along the channel axis.
    x = in_vals[0]
    scale = in_vals[1] if len(in_vals) > 1 else np.ones(x.shape[1], x.dtype)
    view = (1, -1) + (1,) * (x.ndim - 2)
    out = x * scale.reshape(view)
    if len(in_vals) > 2:
        out += in_vals[2].reshape(view)
    return [out]


@_register(OpType.LAYERNORM)
def _layernorm(in_vals, attrs, out_shapes):
    x = in_vals[0]
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mean) / np.sqrt(var + 1e-5)
    if len(in_vals) > 1:
        normed = normed * in_vals[1]
    if len(in_vals) > 2:
        normed = normed + in_vals[2]
    return [normed]


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

@_register(OpType.RESHAPE)
def _reshape(in_vals, attrs, out_shapes):
    return [in_vals[0].reshape(tuple(attrs["shape"]))]


@_register(OpType.TRANSPOSE)
def _transpose(in_vals, attrs, out_shapes):
    return [np.transpose(in_vals[0], attrs.get("perm"))]


@_register(OpType.CONCAT)
def _concat(in_vals, attrs, out_shapes):
    return [np.concatenate(in_vals, axis=int(attrs.get("axis", 0)))]


@_register(OpType.SPLIT)
def _split(in_vals, attrs, out_shapes):
    parts = int(attrs.get("parts", 2))
    axis = int(attrs.get("axis", 0))
    return list(np.split(in_vals[0], parts, axis=axis))


@_register(OpType.SLICE)
def _slice(in_vals, attrs, out_shapes):
    axis = int(attrs.get("axis", 0))
    start, end = int(attrs.get("start", 0)), attrs.get("end")
    index = [slice(None)] * in_vals[0].ndim
    index[axis] = slice(start, None if end is None else int(end))
    return [in_vals[0][tuple(index)]]


@_register(OpType.SQUEEZE)
def _squeeze(in_vals, attrs, out_shapes):
    return [np.squeeze(in_vals[0], axis=int(attrs.get("axis", 0)))]


@_register(OpType.UNSQUEEZE)
def _unsqueeze(in_vals, attrs, out_shapes):
    return [np.expand_dims(in_vals[0], axis=int(attrs.get("axis", 0)))]


@_register(OpType.FLATTEN)
def _flatten(in_vals, attrs, out_shapes):
    x = in_vals[0]
    return [x.reshape(x.shape[0], -1)]


@_register(OpType.PAD)
def _pad(in_vals, attrs, out_shapes):
    pads = attrs.get("pads")
    if not pads:
        return [in_vals[0]]
    width = [(pads[2 * i], pads[2 * i + 1]) for i in range(in_vals[0].ndim)]
    return [np.pad(in_vals[0], width)]


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

_REDUCERS = {OpType.REDUCE_SUM: np.sum, OpType.REDUCE_MEAN: np.mean,
             OpType.REDUCE_MAX: np.max}


def _make_reduce(fn):
    def _reduce(in_vals, attrs, out_shapes):
        axis = int(attrs.get("axis", -1))
        keep = bool(attrs.get("keepdims", False))
        return [fn(in_vals[0], axis=axis, keepdims=keep)]
    return _reduce


for _op, _fn in _REDUCERS.items():
    KERNELS[_op] = _make_reduce(_fn)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def _pool(in_vals, attrs, out_shapes, is_max):
    x = in_vals[0]
    kernel = int(attrs.get("kernel", 2))
    stride = int(attrs.get("stride", kernel))
    n, c, oh, ow = out_shapes[0]
    h, w = x.shape[2], x.shape[3]
    # "same" pools keep edge windows partial (mean/max over the elements
    # actually present): pad with the reduction's identity.
    pad_h = max((oh - 1) * stride + kernel - h, 0)
    pad_w = max((ow - 1) * stride + kernel - w, 0)
    if pad_h or pad_w:
        x = np.pad(x, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)),
                   constant_values=-np.inf if is_max else 0.0)
    # One strided slice per window offset, folded into the first's copy.
    slices = [x[:, :, i:i + (oh - 1) * stride + 1:stride,
                j:j + (ow - 1) * stride + 1:stride]
              for i in range(kernel) for j in range(kernel)]
    out = slices[0].copy()
    fold = np.maximum if is_max else np.add
    for window in slices[1:]:
        fold(out, window, out=out)
    if not is_max:
        rows, cols = np.arange(oh) * stride, np.arange(ow) * stride
        # Counts in out's dtype: an integer divisor would run a float64 loop.
        out /= np.outer(np.minimum(rows + kernel, h) - rows,
                        np.minimum(cols + kernel, w) - cols).astype(out.dtype)
    return [out]


@_register(OpType.MAXPOOL2D)
def _maxpool(in_vals, attrs, out_shapes):
    return _pool(in_vals, attrs, out_shapes, is_max=True)


@_register(OpType.AVGPOOL2D)
def _avgpool(in_vals, attrs, out_shapes):
    return _pool(in_vals, attrs, out_shapes, is_max=False)


@_register(OpType.GLOBAL_AVGPOOL)
def _global_avgpool(in_vals, attrs, out_shapes):
    return [in_vals[0].mean(axis=(2, 3))]


# ---------------------------------------------------------------------------
# Convolutions (im2col, GEMM in output layout)
# ---------------------------------------------------------------------------

def _conv(in_vals, attrs, out_shapes, groups=None, epilogue_bn=False,
          epilogue_relu=False):
    x, w = in_vals[0], in_vals[1]
    n, c_out, oh, ow = out_shapes[0]
    stride = int(attrs.get("stride", 1))
    kh, kw = w.shape[2], w.shape[3]
    if groups is None:
        groups = int(attrs.get("groups", 1))
    cin_g = x.shape[1] // groups
    if kh == kw == 1:
        # A 1x1 kernel reads no neighbours and never pads: the columns are
        # the (strided) input itself.
        cols = x[:, :, ::stride, ::stride].reshape(n, groups, cin_g, oh * ow)
    else:
        if attrs.get("padding", "same") == "same":
            pad_h = max((oh - 1) * stride + kh - x.shape[2], 0)
            pad_w = max((ow - 1) * stride + kw - x.shape[3], 0)
            if pad_h or pad_w:
                x = np.pad(x, ((0, 0), (0, 0),
                               (pad_h // 2, pad_h - pad_h // 2),
                               (pad_w // 2, pad_w - pad_w // 2)))
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride][:, :, :oh, :ow]
        # (n, c_in, oh, ow, kh, kw) -> (n, groups, cin_g*kh*kw, oh*ow): the
        # one copy, in the layout the GEMM produces NCHW from.
        cols = windows.reshape(n, groups, cin_g, oh, ow, kh, kw).transpose(
            0, 1, 2, 5, 6, 3, 4).reshape(n, groups, cin_g * kh * kw, oh * ow)
    # One batched GEMM over (n, groups): weights are used as stored.
    out = np.matmul(w.reshape(groups, c_out // groups, cin_g * kh * kw),
                    cols).reshape(n, c_out, oh, ow)
    if epilogue_bn and len(in_vals) > 2:
        out *= in_vals[2].reshape(1, -1, 1, 1)
        if len(in_vals) > 3:
            out += in_vals[3].reshape(1, -1, 1, 1)
    if epilogue_relu:
        np.maximum(out, 0.0, out=out)
    return [out]


@_register(OpType.CONV2D)
def _conv2d(in_vals, attrs, out_shapes):
    return _conv(in_vals, attrs, out_shapes)


KERNELS[OpType.ENLARGE_CONV] = KERNELS[OpType.CONV2D]


@_register(OpType.GROUP_CONV2D)
def _group_conv2d(in_vals, attrs, out_shapes):
    return _conv(in_vals, attrs, out_shapes)


@_register(OpType.DEPTHWISE_CONV2D)
def _depthwise_conv2d(in_vals, attrs, out_shapes):
    return _conv(in_vals, attrs, out_shapes, groups=in_vals[0].shape[1])


@_register(OpType.FUSED_CONV_BN)
def _fused_conv_bn(in_vals, attrs, out_shapes):
    return _conv(in_vals, attrs, out_shapes, epilogue_bn=True)


@_register(OpType.FUSED_CONV_RELU)
def _fused_conv_relu(in_vals, attrs, out_shapes):
    return _conv(in_vals, attrs, out_shapes, epilogue_relu=True)


@_register(OpType.FUSED_CONV_BN_RELU)
def _fused_conv_bn_relu(in_vals, attrs, out_shapes):
    return _conv(in_vals, attrs, out_shapes, epilogue_bn=True,
                 epilogue_relu=True)


# ---------------------------------------------------------------------------
# Lookups
# ---------------------------------------------------------------------------

@_register(OpType.EMBEDDING)
def _embedding(in_vals, attrs, out_shapes):
    # Any float tensor works as indices: |x| rounded into the table.
    table, indices = in_vals[0], in_vals[1]
    idx = np.clip(np.abs(indices).astype(int), 0, table.shape[0] - 1)
    return [table[idx]]


@_register(OpType.GATHER)
def _gather(in_vals, attrs, out_shapes):
    # Shape inference declares [*table, axis -> indices.num_elements]:
    # gather along ``axis`` with the indices flattened.
    table, indices = in_vals[0], in_vals[1]
    axis = int(attrs.get("axis", 0)) % table.ndim
    idx = np.clip(np.abs(indices).astype(int).reshape(-1),
                  0, table.shape[axis] - 1)
    return [np.take(table, idx, axis=axis)]
