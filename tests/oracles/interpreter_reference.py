"""Loop oracle for the kernels of ``repro.exec`` (``kernels.py``, run by
``NumpyExecutor``), compared by ``tests/exec/test_kernels_vs_interpreter.py``
and ``tests/exec/test_executor_semantics.py::TestCrossBackendAgreement``.

The original graph interpreter: one ``if`` per operator, convolutions and
pools as Python loops over output positions, no buffer plan, float64
throughout.  Sources are ``repro.exec.deterministic_tensor`` upcast to
float64 (exact: the executor's float32 values, widened), and feeds are
widened the same way, so the oracle and the executor start from identical
values.

The kernels are held to it in two legs:

* **float64** — :func:`run_kernels_float64` calls ``KERNELS[op]`` directly
  on the oracle's float64 sources; the same function summed in another
  order, so it agrees to ``RTOL, ATOL``.
* **float32** — ``NumpyExecutor`` runs the graph as shipped; the only
  further difference is float32 rounding, held to ``F32_RTOL, F32_ATOL``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.exec import KERNELS, deterministic_tensor, erf
from repro.ir.graph import Graph, NodeId
from repro.ir.ops import SOURCE_OPS, OpType

__all__ = ["GraphInterpreter", "run_kernels_float64", "RTOL", "ATOL",
           "F32_RTOL", "F32_ATOL"]

#: The float64 leg: kernels and loops, both in double precision.
RTOL, ATOL = 1e-6, 1e-8
#: The float32 leg: the executor against the same float64 oracle, at the
#: tolerance ``differential_check`` states (on the single-op suite's
#: unit-scale feeds, 2e-6 / 1e-6 fails 1 of 173 cases, 1e-6 / 1e-8 fails 58).
F32_RTOL, F32_ATOL = 1e-5, 1e-6


def _source(node, user_inputs: Mapping[str, np.ndarray]) -> np.ndarray:
    """The oracle's float64 value of an Input / Weight / Constant node."""
    if node.op_type is OpType.INPUT and node.name in user_inputs:
        return np.asarray(user_inputs[node.name], dtype=np.float64)
    prefix = "input:" if node.op_type is OpType.INPUT else "param:"
    shape = tuple(node.outputs[0].shape.dims) if node.outputs else ()
    return deterministic_tensor(prefix + node.name, shape).astype(np.float64)


def run_kernels_float64(graph: Graph,
                        inputs: Optional[Mapping[str, np.ndarray]] = None
                        ) -> Dict[NodeId, np.ndarray]:
    """Call the executor's kernel table directly on float64 arrays.

    Same contract as :meth:`GraphInterpreter.run` (a value for every node's
    output slot 0), same float64 sources; asserts that no kernel leaves
    float64.
    """
    inputs = dict(inputs or {})
    values: Dict[NodeId, list[np.ndarray]] = {}
    for nid in graph.topological_order():
        node = graph.nodes[nid]
        if node.op_type in SOURCE_OPS:
            values[nid] = [_source(node, inputs)]
            continue
        in_vals = [values[e.src][e.src_slot] for e in graph.in_edges(nid)]
        out_shapes = [tuple(spec.shape.dims) for spec in node.outputs]
        values[nid] = KERNELS[node.op_type](in_vals, node.attrs, out_shapes)
        for out in values[nid]:
            assert out.dtype == np.float64, (node.op_type.value, out.dtype)
    return {nid: vals[0] for nid, vals in values.items()}


class GraphInterpreter:
    """Executes a :class:`~repro.ir.graph.Graph` on concrete numpy tensors."""

    def run(self, graph: Graph,
            inputs: Optional[Mapping[str, np.ndarray]] = None
            ) -> Dict[NodeId, np.ndarray]:
        """Execute the graph and return a value for every node's output slot 0.

        ``inputs`` maps Input-node names to arrays; missing inputs are filled
        with deterministic random values derived from the node name.
        """
        inputs = dict(inputs or {})
        values: Dict[NodeId, list[np.ndarray]] = {}
        for nid in graph.topological_order():
            node = graph.nodes[nid]
            in_vals = [
                values[e.src][e.src_slot] for e in graph.in_edges(nid)
            ]
            values[nid] = self._eval_node(node, in_vals, inputs)
        return {nid: vals[0] for nid, vals in values.items()}

    # ------------------------------------------------------------------
    def _eval_node(self, node, in_vals, user_inputs) -> list[np.ndarray]:
        op = node.op_type
        attrs = node.attrs
        shape = tuple(node.outputs[0].shape.dims) if node.outputs else ()

        if op in SOURCE_OPS:
            return [_source(node, user_inputs)]
        if op is OpType.OUTPUT:
            return [in_vals[0]]
        if op is OpType.NOOP:
            return [np.zeros(())]

        if op is OpType.MATMUL or op is OpType.BATCH_MATMUL:
            return [np.matmul(in_vals[0], in_vals[1])]
        if op is OpType.FUSED_MATMUL_ADD:
            return [np.matmul(in_vals[0], in_vals[1]) + in_vals[2]]

        if op is OpType.ADD:
            return [in_vals[0] + in_vals[1]]
        if op is OpType.SUB:
            return [in_vals[0] - in_vals[1]]
        if op is OpType.MUL:
            return [in_vals[0] * in_vals[1]]
        if op is OpType.DIV:
            return [in_vals[0] / (in_vals[1] + 1e-12)]

        if op is OpType.RELU:
            return [np.maximum(in_vals[0], 0.0)]
        if op is OpType.GELU:
            x = in_vals[0]
            return [0.5 * x * (1.0 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))]
        if op is OpType.SIGMOID:
            return [1.0 / (1.0 + np.exp(-in_vals[0]))]
        if op is OpType.TANH:
            return [np.tanh(in_vals[0])]
        if op is OpType.EXP:
            return [np.exp(in_vals[0])]
        if op is OpType.SQRT:
            return [np.sqrt(np.abs(in_vals[0]))]
        if op is OpType.ERF:
            return [erf(in_vals[0])]
        if op in (OpType.IDENTITY, OpType.CAST, OpType.DROPOUT):
            return [in_vals[0]]

        if op is OpType.SOFTMAX:
            axis = int(attrs.get("axis", -1))
            x = in_vals[0] - in_vals[0].max(axis=axis, keepdims=True)
            e = np.exp(x)
            return [e / e.sum(axis=axis, keepdims=True)]
        if op is OpType.BATCHNORM:
            x = in_vals[0]
            # Inference-mode affine transform along the channel axis with the
            # (deterministic) scale/bias parameters when they are provided.
            scale = in_vals[1] if len(in_vals) > 1 else np.ones(x.shape[1])
            bias = in_vals[2] if len(in_vals) > 2 else np.zeros(x.shape[1])
            view = (1, -1) + (1,) * (x.ndim - 2)
            return [x * scale.reshape(view) + bias.reshape(view)]
        if op is OpType.LAYERNORM:
            x = in_vals[0]
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            normed = (x - mean) / np.sqrt(var + 1e-5)
            if len(in_vals) > 1:
                normed = normed * in_vals[1]
            if len(in_vals) > 2:
                normed = normed + in_vals[2]
            return [normed]

        if op is OpType.RESHAPE:
            return [in_vals[0].reshape(tuple(attrs["shape"]))]
        if op is OpType.TRANSPOSE:
            perm = attrs.get("perm")
            return [np.transpose(in_vals[0], perm)]
        if op is OpType.CONCAT:
            return [np.concatenate(in_vals, axis=int(attrs.get("axis", 0)))]
        if op is OpType.SPLIT:
            parts = int(attrs.get("parts", 2))
            axis = int(attrs.get("axis", 0))
            return list(np.split(in_vals[0], parts, axis=axis))
        if op is OpType.SLICE:
            axis = int(attrs.get("axis", 0))
            start, end = int(attrs.get("start", 0)), attrs.get("end")
            sl = [slice(None)] * in_vals[0].ndim
            sl[axis] = slice(start, None if end is None else int(end))
            return [in_vals[0][tuple(sl)]]
        if op is OpType.SQUEEZE:
            return [np.squeeze(in_vals[0], axis=int(attrs.get("axis", 0)))]
        if op is OpType.UNSQUEEZE:
            return [np.expand_dims(in_vals[0], axis=int(attrs.get("axis", 0)))]
        if op is OpType.FLATTEN:
            x = in_vals[0]
            return [x.reshape(x.shape[0], -1)]
        if op is OpType.PAD:
            pads = attrs.get("pads")
            if not pads:
                return [in_vals[0]]
            pad_width = [(pads[2 * i], pads[2 * i + 1]) for i in range(in_vals[0].ndim)]
            return [np.pad(in_vals[0], pad_width)]

        if op in (OpType.REDUCE_SUM, OpType.REDUCE_MEAN, OpType.REDUCE_MAX):
            axis = int(attrs.get("axis", -1))
            keep = bool(attrs.get("keepdims", False))
            fn = {OpType.REDUCE_SUM: np.sum, OpType.REDUCE_MEAN: np.mean,
                  OpType.REDUCE_MAX: np.max}[op]
            return [fn(in_vals[0], axis=axis, keepdims=keep)]

        if op in (OpType.MAXPOOL2D, OpType.AVGPOOL2D, OpType.GLOBAL_AVGPOOL):
            return [self._eval_pool(op, in_vals[0], attrs, shape)]

        if op in (OpType.CONV2D, OpType.GROUP_CONV2D, OpType.DEPTHWISE_CONV2D,
                  OpType.ENLARGE_CONV, OpType.FUSED_CONV_BN,
                  OpType.FUSED_CONV_RELU, OpType.FUSED_CONV_BN_RELU):
            out = self._eval_conv(op, in_vals, attrs, shape)
            return [out]

        if op is OpType.EMBEDDING:
            table, indices = in_vals[0], in_vals[1]
            idx = np.clip(np.abs(indices).astype(int), 0, table.shape[0] - 1)
            return [table[idx]]
        if op is OpType.GATHER:
            # Matches shape inference: gather along ``axis`` with the
            # indices flattened ([*table, axis -> indices.num_elements]).
            table, indices = in_vals[0], in_vals[1]
            axis = int(attrs.get("axis", 0)) % table.ndim
            idx = np.clip(np.abs(indices).astype(int).reshape(-1),
                          0, table.shape[axis] - 1)
            return [np.take(table, idx, axis=axis)]

        if op is OpType.CUSTOM:
            # Opaque imported node: same pass-through semantics as the
            # executor (forward the first input when element counts line
            # up, zeros otherwise) so the two backends stay comparable.
            shape = tuple(node.outputs[0].shape.dims)
            if in_vals and in_vals[0].size == int(np.prod(shape, dtype=np.int64)):
                return [np.asarray(in_vals[0], dtype=np.float64).reshape(shape)]
            return [np.zeros(shape)]

        raise NotImplementedError(f"interpreter missing op {op.value}")

    # ------------------------------------------------------------------
    def _eval_pool(self, op, x, attrs, out_shape) -> np.ndarray:
        if op is OpType.GLOBAL_AVGPOOL:
            return x.mean(axis=(2, 3))
        kernel = int(attrs.get("kernel", 2))
        stride = int(attrs.get("stride", kernel))
        n, c, oh, ow = out_shape
        out = np.zeros((n, c, oh, ow))
        for i in range(oh):
            for j in range(ow):
                hs, ws = i * stride, j * stride
                window = x[:, :, hs:hs + kernel, ws:ws + kernel]
                if window.size == 0:
                    continue
                if op is OpType.MAXPOOL2D:
                    out[:, :, i, j] = window.max(axis=(2, 3))
                else:
                    out[:, :, i, j] = window.mean(axis=(2, 3))
        return out

    def _eval_conv(self, op, in_vals, attrs, out_shape) -> np.ndarray:
        x, w = in_vals[0], in_vals[1]
        n, c_out, oh, ow = out_shape
        stride = int(attrs.get("stride", 1))
        padding = attrs.get("padding", "same")
        kh, kw = w.shape[2], w.shape[3]
        groups = int(attrs.get("groups", 1))
        if op is OpType.DEPTHWISE_CONV2D:
            groups = x.shape[1]
        if padding == "same":
            pad_h = max((oh - 1) * stride + kh - x.shape[2], 0)
            pad_w = max((ow - 1) * stride + kw - x.shape[3], 0)
            x = np.pad(x, ((0, 0), (0, 0),
                           (pad_h // 2, pad_h - pad_h // 2),
                           (pad_w // 2, pad_w - pad_w // 2)))
        out = np.zeros((n, c_out, oh, ow))
        cin_per_group = x.shape[1] // groups
        cout_per_group = c_out // groups
        for g in range(groups):
            xg = x[:, g * cin_per_group:(g + 1) * cin_per_group]
            wg = w[g * cout_per_group:(g + 1) * cout_per_group]
            for i in range(oh):
                for j in range(ow):
                    hs, ws = i * stride, j * stride
                    patch = xg[:, :, hs:hs + kh, ws:ws + kw]
                    out[:, g * cout_per_group:(g + 1) * cout_per_group, i, j] = (
                        np.tensordot(patch, wg, axes=([1, 2, 3], [1, 2, 3]))
                    )
        if op in (OpType.FUSED_CONV_BN, OpType.FUSED_CONV_BN_RELU) and len(in_vals) > 2:
            scale = in_vals[2].reshape(1, -1, 1, 1)
            out = out * scale
            if len(in_vals) > 3:
                out = out + in_vals[3].reshape(1, -1, 1, 1)
        if op in (OpType.FUSED_CONV_RELU, OpType.FUSED_CONV_BN_RELU):
            out = np.maximum(out, 0.0)
        return out

