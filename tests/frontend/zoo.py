"""Importable ONNX-level model zoo for the frontend conformance suite.

Unlike :mod:`repro.models` (which builds IR graphs directly), everything
here is generated as a *foreign* :class:`~repro.frontend.serialize.ModelSpec`
— standard ONNX ops in the default domain, initializer-fed shape inputs,
``auto_pad`` strings, Gemm with ``transB``, five-input BatchNormalization —
so importing one exercises the real bridge table, not a privileged
serialisation of our own IR.

Three families with depth/width/batch sweeps (:func:`zoo_specs`, ~3 dozen
variants at CI-friendly tensor sizes):

* ``resnet`` — Conv+BN+Relu residual stacks, GlobalAveragePool+Flatten+
  Gemm+Softmax head.
* ``bert`` — Gather embeddings, LayerNorm, batched attention with Reshape/
  Transpose plumbing, Gelu FFN.
* ``vit`` — patch-embedding Conv (stride = kernel = patch, VALID padding)
  feeding the same transformer trunk, ReduceMean token pooling.

The sweep is intentionally *spec-level*: every variant round-trips through
``import -> export -> import`` in the conformance tests and must import
with zero fallbacks.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.frontend.serialize import (GraphSpec, ModelSpec, NodeSpec,
                                      TensorInfo, ValueInfo, save_model_spec)

__all__ = ["SpecBuilder", "zoo_specs", "write_zoo",
           "build_resnet_spec", "build_bert_spec", "build_vit_spec"]


class SpecBuilder:
    """Tiny fluent helper for assembling ONNX-level graph specs."""

    def __init__(self, name: str):
        self.graph = GraphSpec(name=name)
        self._counter = 0

    def _name(self, op: str) -> str:
        self._counter += 1
        return f"{op.lower()}_{self._counter}"

    def input(self, name: str, dims: Sequence[int],
              dtype: str = "float32") -> str:
        self.graph.inputs.append(ValueInfo(name, tuple(dims), dtype))
        return name

    def init(self, name: str, dims: Sequence[int], dtype: str = "float32",
             data: Optional[Sequence[float]] = None) -> str:
        self.graph.initializers.append(
            TensorInfo(name, tuple(dims), dtype,
                       tuple(data) if data is not None else None))
        return name

    def const_shape(self, values: Sequence[int]) -> str:
        """An int64 initializer carrying a shape (Reshape-style input)."""
        name = self._name("shape")
        return self.init(name, (len(values),), "int64",
                         [int(v) for v in values])

    def node(self, op: str, inputs: Sequence[str], attrs=None,
             name: str = "", num_outputs: int = 1,
             domain: str = "") -> Union[str, Tuple[str, ...]]:
        name = name or self._name(op)
        outputs = tuple(name if i == 0 else f"{name}_out{i}"
                        for i in range(num_outputs))
        self.graph.nodes.append(
            NodeSpec(op, tuple(inputs), outputs, dict(attrs or {}),
                     name, domain))
        return outputs[0] if num_outputs == 1 else outputs

    def output(self, value: str, dims: Sequence[int],
               dtype: str = "float32") -> None:
        self.graph.outputs.append(ValueInfo(value, tuple(dims), dtype))

    def declare(self, value: str, dims: Sequence[int],
                dtype: str = "float32") -> None:
        """Record a value_info (declared intermediate shape)."""
        self.graph.value_infos.append(ValueInfo(value, tuple(dims), dtype))

    def finish(self, opset: int = 17) -> ModelSpec:
        return ModelSpec(self.graph, {"": opset}, producer="repro-zoo")


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _conv_bn_relu(b: SpecBuilder, x: str, c_in: int, c_out: int,
                  kernel: int = 3, stride: int = 1, tag: str = "") -> str:
    w = b.init(f"{tag}_w", (c_out, c_in, kernel, kernel))
    conv = b.node("Conv", [x, w],
                  {"kernel_shape": (kernel, kernel),
                   "strides": (stride, stride), "auto_pad": "SAME_UPPER"},
                  name=f"{tag}_conv")
    bn = _batchnorm(b, conv, c_out, tag)
    return b.node("Relu", [bn], name=f"{tag}_relu")


def _batchnorm(b: SpecBuilder, x: str, channels: int, tag: str) -> str:
    # Full five-input ONNX form; the bridge folds the running statistics.
    scale = b.init(f"{tag}_bn_scale", (channels,))
    bias = b.init(f"{tag}_bn_bias", (channels,))
    mean = b.init(f"{tag}_bn_mean", (channels,))
    var = b.init(f"{tag}_bn_var", (channels,))
    return b.node("BatchNormalization", [x, scale, bias, mean, var],
                  {"epsilon": 1e-5}, name=f"{tag}_bn")


def _linear(b: SpecBuilder, x: str, d_in: int, d_out: int, tag: str) -> str:
    """Rank-3 activations times a rank-2 weight, plus broadcast bias."""
    w = b.init(f"{tag}_w", (d_in, d_out))
    bias = b.init(f"{tag}_b", (d_out,))
    mm = b.node("MatMul", [x, w], name=f"{tag}_mm")
    return b.node("Add", [mm, bias], name=f"{tag}_add")


def _attention(b: SpecBuilder, x: str, batch: int, seq: int, hidden: int,
               heads: int, tag: str) -> str:
    head_dim = hidden // heads
    q = _linear(b, x, hidden, hidden, f"{tag}_q")
    k = _linear(b, x, hidden, hidden, f"{tag}_k")
    v = _linear(b, x, hidden, hidden, f"{tag}_v")
    folded = (batch * heads, seq, head_dim)
    q = b.node("Reshape", [q, b.const_shape(folded)], name=f"{tag}_qr")
    k = b.node("Reshape", [k, b.const_shape(folded)], name=f"{tag}_kr")
    v = b.node("Reshape", [v, b.const_shape(folded)], name=f"{tag}_vr")
    kt = b.node("Transpose", [k], {"perm": (0, 2, 1)}, name=f"{tag}_kt")
    scores = b.node("MatMul", [q, kt], name=f"{tag}_scores")
    scale = b.init(f"{tag}_scale", (1,), data=[head_dim ** -0.5])
    scores = b.node("Mul", [scores, scale], name=f"{tag}_scaled")
    probs = b.node("Softmax", [scores], {"axis": -1}, name=f"{tag}_probs")
    ctx = b.node("MatMul", [probs, v], name=f"{tag}_ctx")
    ctx = b.node("Reshape", [ctx, b.const_shape((batch, seq, hidden))],
                 name=f"{tag}_merge")
    return _linear(b, ctx, hidden, hidden, f"{tag}_o")


def _layernorm(b: SpecBuilder, x: str, hidden: int, tag: str) -> str:
    scale = b.init(f"{tag}_ln_scale", (hidden,))
    bias = b.init(f"{tag}_ln_bias", (hidden,))
    return b.node("LayerNormalization", [x, scale, bias],
                  {"epsilon": 1e-5, "axis": -1}, name=f"{tag}_ln")


def _transformer_block(b: SpecBuilder, x: str, batch: int, seq: int,
                       hidden: int, heads: int, ffn_dim: int,
                       tag: str) -> str:
    normed = _layernorm(b, x, hidden, f"{tag}_pre")
    attn = _attention(b, normed, batch, seq, hidden, heads, f"{tag}_attn")
    x = b.node("Add", [x, attn], name=f"{tag}_res1")
    normed = _layernorm(b, x, hidden, f"{tag}_mid")
    h = _linear(b, normed, hidden, ffn_dim, f"{tag}_fc1")
    h = b.node("Gelu", [h], name=f"{tag}_gelu")
    h = _linear(b, h, ffn_dim, hidden, f"{tag}_fc2")
    return b.node("Add", [x, h], name=f"{tag}_res2")


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def build_resnet_spec(blocks: int = 2, width: int = 8, batch: int = 1,
                      image: int = 8, classes: int = 10) -> ModelSpec:
    """Residual conv stack with a GlobalAveragePool+Gemm+Softmax head."""
    b = SpecBuilder(f"zoo-resnet-b{blocks}w{width}n{batch}")
    x = b.input("image", (batch, 3, image, image))
    x = _conv_bn_relu(b, x, 3, width, tag="stem")
    for i in range(blocks):
        tag = f"block{i}"
        y = _conv_bn_relu(b, x, width, width, tag=f"{tag}_a")
        w = b.init(f"{tag}_b_w", (width, width, 3, 3))
        y = b.node("Conv", [y, w],
                   {"kernel_shape": (3, 3), "strides": (1, 1),
                    "auto_pad": "SAME_UPPER"}, name=f"{tag}_b_conv")
        y = _batchnorm(b, y, width, f"{tag}_b")
        x = b.node("Add", [x, y], name=f"{tag}_skip")
        x = b.node("Relu", [x], name=f"{tag}_out")
    pooled = b.node("GlobalAveragePool", [x], name="gap")
    flat = b.node("Flatten", [pooled], {"axis": 1}, name="flat")
    cls_w = b.init("cls_w", (classes, width))
    cls_b = b.init("cls_b", (classes,))
    logits = b.node("Gemm", [flat, cls_w, cls_b], {"transB": 1},
                    name="classifier")
    probs = b.node("Softmax", [logits], {"axis": -1}, name="probs")
    b.output(probs, (batch, classes))
    return b.finish()


def build_bert_spec(layers: int = 2, hidden: int = 32, heads: int = 2,
                    seq: int = 8, batch: int = 1,
                    vocab: int = 32) -> ModelSpec:
    """Token embeddings plus a stack of pre-LN transformer encoder blocks."""
    b = SpecBuilder(f"zoo-bert-l{layers}h{hidden}s{seq}n{batch}")
    tokens = b.input("tokens", (batch, seq), "int64")
    table = b.init("embed_table", (vocab, hidden))
    x = b.node("Gather", [table, tokens], {"axis": 0}, name="embed")
    for i in range(layers):
        x = _transformer_block(b, x, batch, seq, hidden, heads,
                               hidden * 2, f"layer{i}")
    x = _layernorm(b, x, hidden, "final")
    b.output(x, (batch, seq, hidden))
    return b.finish()


def build_vit_spec(layers: int = 2, hidden: int = 32, heads: int = 2,
                   patch: int = 4, image: int = 8,
                   batch: int = 1) -> ModelSpec:
    """Patch-embedding Conv feeding a transformer trunk, mean-pooled."""
    b = SpecBuilder(f"zoo-vit-l{layers}h{hidden}i{image}p{patch}n{batch}")
    grid = image // patch
    seq = grid * grid
    x = b.input("image", (batch, 3, image, image))
    patch_w = b.init("patch_w", (hidden, 3, patch, patch))
    x = b.node("Conv", [x, patch_w],
               {"kernel_shape": (patch, patch), "strides": (patch, patch),
                "auto_pad": "VALID"}, name="patchify")
    x = b.node("Reshape", [x, b.const_shape((batch, hidden, seq))],
               name="tokens")
    x = b.node("Transpose", [x], {"perm": (0, 2, 1)}, name="tokens_t")
    for i in range(layers):
        x = _transformer_block(b, x, batch, seq, hidden, heads,
                               hidden * 2, f"layer{i}")
    x = _layernorm(b, x, hidden, "final")
    pooled = b.node("ReduceMean", [x], {"axes": (1,), "keepdims": 0},
                    name="pool")
    b.output(pooled, (batch, hidden))
    return b.finish()


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def zoo_specs(smoke: bool = False) -> Dict[str, ModelSpec]:
    """Name -> spec for every zoo variant.

    ``smoke=True`` returns one small variant per family (the PR-sized
    conformance run); the full sweep is ~3 dozen models.
    """
    specs: Dict[str, ModelSpec] = {}

    def add(spec: ModelSpec) -> None:
        specs[spec.graph.name] = spec

    if smoke:
        add(build_resnet_spec(blocks=1, width=8, batch=1))
        add(build_bert_spec(layers=1, hidden=32, heads=2, seq=8))
        add(build_vit_spec(layers=1, hidden=32, heads=2))
        return specs

    for blocks in (1, 2, 3):
        for width in (8, 16):
            for batch in (1, 2):
                add(build_resnet_spec(blocks=blocks, width=width,
                                      batch=batch))
    for layers in (1, 2):
        for hidden, heads in ((32, 2), (64, 4)):
            for seq in (8, 16):
                add(build_bert_spec(layers=layers, hidden=hidden,
                                    heads=heads, seq=seq))
    for layers in (1, 2):
        for hidden, heads in ((32, 2), (64, 4)):
            for image, patch in ((8, 4), (16, 4)):
                add(build_vit_spec(layers=layers, hidden=hidden,
                                   heads=heads, patch=patch, image=image))
    return specs


def write_zoo(directory: Union[str, Path],
              smoke: bool = False) -> List[Path]:
    """Write every zoo spec under ``directory`` as ``.onnx`` files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, spec in zoo_specs(smoke=smoke).items():
        path = directory / f"{name}.onnx"
        save_model_spec(spec, path)
        paths.append(path)
    return paths
