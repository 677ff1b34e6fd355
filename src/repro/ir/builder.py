"""Fluent builder API for constructing computation graphs.

This mirrors TASO's programming interface (``graph.conv2d(...)``,
``graph.matmul(...)`` etc.) so that the model zoo reads like the original
network definitions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graph import Graph, NodeId
from .ops import OpType

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Convenience wrapper producing a well-typed :class:`Graph`.

    Every method returns the id of the node it created so calls compose
    naturally::

        b = GraphBuilder("mlp")
        x = b.input((1, 128))
        w = b.weight((128, 256))
        h = b.relu(b.matmul(x, w))
    """

    def __init__(self, name: str = "graph"):
        self.graph = Graph(name)

    # -- sources -----------------------------------------------------------
    def input(self, shape: Sequence[int], name: str = "") -> NodeId:
        return self.graph.add_node(OpType.INPUT, (), {"shape": tuple(shape)}, name)

    def weight(self, shape: Sequence[int], name: str = "") -> NodeId:
        return self.graph.add_node(OpType.WEIGHT, (), {"shape": tuple(shape)}, name)

    def constant(self, shape: Sequence[int], name: str = "") -> NodeId:
        return self.graph.add_node(OpType.CONSTANT, (), {"shape": tuple(shape)}, name)

    # -- dense -------------------------------------------------------------
    def matmul(self, a: NodeId, b: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.MATMUL, (a, b), name=name)

    def batch_matmul(self, a: NodeId, b: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.BATCH_MATMUL, (a, b), name=name)

    def linear(self, x: NodeId, in_features: int, out_features: int,
               bias: bool = True, name: str = "") -> NodeId:
        """Dense layer: ``x @ W (+ b)`` with a freshly created weight."""
        w = self.weight((in_features, out_features), name=f"{name}_w" if name else "")
        out = self.matmul(x, w, name=name)
        if bias:
            b = self.weight((out_features,), name=f"{name}_b" if name else "")
            out = self.add(out, b)
        return out

    # -- convolutions --------------------------------------------------------
    def conv2d(self, x: NodeId, out_channels: int, kernel: int = 3,
               stride: int = 1, padding: str = "same",
               in_channels: Optional[int] = None, name: str = "") -> NodeId:
        if in_channels is None:
            in_channels = self.graph.nodes[x].output_spec.shape.dims[1]
        w = self.weight((out_channels, in_channels, kernel, kernel),
                        name=f"{name}_w" if name else "")
        return self.graph.add_node(
            OpType.CONV2D, (x, w),
            {"stride": stride, "padding": padding, "kernel": kernel}, name)

    def group_conv2d(self, x: NodeId, out_channels: int, groups: int,
                     kernel: int = 3, stride: int = 1, padding: str = "same",
                     name: str = "") -> NodeId:
        in_channels = self.graph.nodes[x].output_spec.shape.dims[1]
        w = self.weight((out_channels, max(in_channels // groups, 1), kernel, kernel))
        return self.graph.add_node(
            OpType.GROUP_CONV2D, (x, w),
            {"stride": stride, "padding": padding, "groups": groups, "kernel": kernel},
            name)

    def depthwise_conv2d(self, x: NodeId, kernel: int = 3, stride: int = 1,
                         padding: str = "same", name: str = "") -> NodeId:
        channels = self.graph.nodes[x].output_spec.shape.dims[1]
        w = self.weight((channels, 1, kernel, kernel))
        return self.graph.add_node(
            OpType.DEPTHWISE_CONV2D, (x, w),
            {"stride": stride, "padding": padding, "kernel": kernel}, name)

    # -- pooling -------------------------------------------------------------
    def maxpool(self, x: NodeId, kernel: int = 2, stride: Optional[int] = None,
                padding: str = "valid", name: str = "") -> NodeId:
        return self.graph.add_node(
            OpType.MAXPOOL2D, (x,),
            {"kernel": kernel, "stride": stride or kernel, "padding": padding}, name)

    def avgpool(self, x: NodeId, kernel: int = 2, stride: Optional[int] = None,
                padding: str = "valid", name: str = "") -> NodeId:
        return self.graph.add_node(
            OpType.AVGPOOL2D, (x,),
            {"kernel": kernel, "stride": stride or kernel, "padding": padding}, name)

    def global_avgpool(self, x: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.GLOBAL_AVGPOOL, (x,), name=name)

    # -- elementwise ----------------------------------------------------------
    def add(self, a: NodeId, b: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.ADD, (a, b), name=name)

    def sub(self, a: NodeId, b: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.SUB, (a, b), name=name)

    def mul(self, a: NodeId, b: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.MUL, (a, b), name=name)

    def div(self, a: NodeId, b: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.DIV, (a, b), name=name)

    def relu(self, x: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.RELU, (x,), name=name)

    def gelu(self, x: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.GELU, (x,), name=name)

    def sigmoid(self, x: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.SIGMOID, (x,), name=name)

    def tanh(self, x: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.TANH, (x,), name=name)

    def identity(self, x: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.IDENTITY, (x,), name=name)

    def dropout(self, x: NodeId, rate: float = 0.1, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.DROPOUT, (x,), {"rate": rate}, name)

    # -- normalisation ---------------------------------------------------------
    def batchnorm(self, x: NodeId, name: str = "") -> NodeId:
        channels = self.graph.nodes[x].output_spec.shape.dims[1]
        scale = self.weight((channels,))
        bias = self.weight((channels,))
        return self.graph.add_node(OpType.BATCHNORM, (x, scale, bias), name=name)

    def layernorm(self, x: NodeId, name: str = "") -> NodeId:
        hidden = self.graph.nodes[x].output_spec.shape.dims[-1]
        scale = self.weight((hidden,))
        bias = self.weight((hidden,))
        return self.graph.add_node(OpType.LAYERNORM, (x, scale, bias), name=name)

    def softmax(self, x: NodeId, axis: int = -1, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.SOFTMAX, (x,), {"axis": axis}, name)

    # -- shape ops ---------------------------------------------------------------
    def reshape(self, x: NodeId, shape: Sequence[int], name: str = "") -> NodeId:
        return self.graph.add_node(OpType.RESHAPE, (x,), {"shape": tuple(shape)}, name)

    def transpose(self, x: NodeId, perm: Optional[Sequence[int]] = None,
                  name: str = "") -> NodeId:
        attrs = {"perm": tuple(perm)} if perm is not None else {}
        return self.graph.add_node(OpType.TRANSPOSE, (x,), attrs, name)

    def concat(self, xs: Sequence[NodeId], axis: int = 1, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.CONCAT, tuple(xs), {"axis": axis}, name)

    def split(self, x: NodeId, parts: int = 2, axis: int = 1,
              name: str = "") -> NodeId:
        return self.graph.add_node(
            OpType.SPLIT, (x,), {"axis": axis, "parts": parts}, name)

    def slice(self, x: NodeId, axis: int, start: int, end: int,
              name: str = "") -> NodeId:
        return self.graph.add_node(
            OpType.SLICE, (x,), {"axis": axis, "start": start, "end": end}, name)

    def flatten(self, x: NodeId, name: str = "") -> NodeId:
        return self.graph.add_node(OpType.FLATTEN, (x,), name=name)

    def reduce_mean(self, x: NodeId, axis: int = -1, keepdims: bool = False,
                    name: str = "") -> NodeId:
        return self.graph.add_node(
            OpType.REDUCE_MEAN, (x,), {"axis": axis, "keepdims": keepdims}, name)

    # -- misc --------------------------------------------------------------------
    def custom(self, inputs: Sequence[NodeId], op: str, shape: Sequence[int],
               dtype: str = "float32", name: str = "") -> NodeId:
        """An opaque foreign operator with a *declared* output shape.

        Used by the frontend importer for ops outside the bridge table: the
        node is excluded from rewrite matching and executes as a counted
        pass-through, but carries enough metadata (foreign op name, output
        spec) to keep the graph well-typed end to end.
        """
        return self.graph.add_node(
            OpType.CUSTOM, tuple(inputs),
            {"op": op, "shape": tuple(shape), "dtype": dtype}, name)

    def embedding(self, indices: NodeId, vocab: int, dim: int,
                  name: str = "") -> NodeId:
        table = self.weight((vocab, dim))
        return self.graph.add_node(OpType.EMBEDDING, (table, indices), name=name)

    def output(self, xs: Sequence[NodeId] | NodeId, name: str = "output") -> NodeId:
        if isinstance(xs, int):
            xs = (xs,)
        return self.graph.add_node(OpType.OUTPUT, tuple(xs), name=name)

    # -- composite blocks ----------------------------------------------------------
    def conv_bn_relu(self, x: NodeId, out_channels: int, kernel: int = 3,
                     stride: int = 1, padding: str = "same", name: str = "") -> NodeId:
        """The ubiquitous Conv → BatchNorm → ReLU block."""
        c = self.conv2d(x, out_channels, kernel, stride, padding, name=name)
        b = self.batchnorm(c)
        return self.relu(b)

    def multi_head_attention(self, x: NodeId, hidden: int, num_heads: int,
                             seq_len: int, batch: int = 1, name: str = "") -> NodeId:
        """Standard multi-head self-attention block (pre-softmax scaling)."""
        head_dim = hidden // num_heads
        q = self.linear(x, hidden, hidden, name=f"{name}_q")
        k = self.linear(x, hidden, hidden, name=f"{name}_k")
        v = self.linear(x, hidden, hidden, name=f"{name}_v")
        # [B, S, H] -> [B*num_heads, S, head_dim]
        q = self.reshape(q, (batch * num_heads, seq_len, head_dim))
        k = self.reshape(k, (batch * num_heads, seq_len, head_dim))
        v = self.reshape(v, (batch * num_heads, seq_len, head_dim))
        kt = self.transpose(k, (0, 2, 1))
        scores = self.batch_matmul(q, kt)
        scale = self.constant((1,), name=f"{name}_scale")
        scores = self.mul(scores, scale)
        probs = self.softmax(scores, axis=-1)
        ctx = self.batch_matmul(probs, v)
        ctx = self.reshape(ctx, (batch, seq_len, hidden))
        return self.linear(ctx, hidden, hidden, name=f"{name}_o")

    def transformer_ffn(self, x: NodeId, hidden: int, ffn_dim: int,
                        activation: str = "gelu", name: str = "") -> NodeId:
        h = self.linear(x, hidden, ffn_dim, name=f"{name}_fc1")
        h = self.gelu(h) if activation == "gelu" else self.relu(h)
        return self.linear(h, ffn_dim, hidden, name=f"{name}_fc2")

    def transformer_block(self, x: NodeId, hidden: int, num_heads: int,
                          seq_len: int, ffn_dim: Optional[int] = None,
                          batch: int = 1, name: str = "") -> NodeId:
        """Pre-LN transformer encoder block."""
        ffn_dim = ffn_dim or hidden * 4
        normed = self.layernorm(x)
        attn = self.multi_head_attention(normed, hidden, num_heads, seq_len,
                                         batch, name=f"{name}_attn")
        x = self.add(x, attn)
        normed = self.layernorm(x)
        ffn = self.transformer_ffn(normed, hidden, ffn_dim, name=f"{name}_ffn")
        return self.add(x, ffn)

    # -- finalise -------------------------------------------------------------------
    def build(self, outputs: Optional[Sequence[NodeId]] = None) -> Graph:
        """Return the underlying graph.

        If ``outputs`` is given, an explicit Output node is appended that
        consumes them (so they are never dead-code-eliminated by rewrites).
        Nothing is re-checked: :meth:`Graph.add_node` inferred every node's
        output specs and checked its arity, and it only connects inputs that
        already exist, so a builder cannot make a cycle — the graph is
        already what :meth:`Graph.validate` would accept.
        """
        if outputs:
            self.output(tuple(outputs))
        return self.graph
