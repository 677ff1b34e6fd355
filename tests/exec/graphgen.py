"""Op-type-aware random graph generator for the differential suite.

Produces *valid* graphs directly against the op registry: the fuzzer
keeps a pool of available tensor values ``(node, slot, shape)``, and each
step picks an operator family and tries to assemble legal inputs and
attributes for it from the pool.  Shape inference is the arbiter —
``Graph.add_node`` re-runs :func:`repro.ir.ops.infer_output_spec`, and a
``ValueError`` simply discards the attempt — so the generator stays
correct by construction as the registry evolves.

Seeded and deterministic: ``random_graph(seed=k)`` always returns the
same graph.  Used by ``tests/exec`` to drive the executor and the
rewrite engine beyond the hand-written zoo models, and the seed of the
standing property sweep over every curated rule (ROADMAP, "Every curated
rule value-checked").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ir.graph import Graph
from repro.ir.ops import OpType

__all__ = ["random_graph", "GraphFuzzer"]

#: (node, slot, dims) — one value available as an operator input.
PoolEntry = Tuple[int, int, Tuple[int, ...]]


class GraphFuzzer:
    """Randomly grows one valid graph from the operator registry."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.graph = Graph(f"fuzz_{seed}")
        self.pool: List[PoolEntry] = []
        self._ops = [
            self._unary, self._unary, self._binary, self._binary,
            self._matmul, self._conv, self._grouped_conv, self._pool2d,
            self._global_pool, self._softmax, self._layernorm,
            self._batchnorm, self._reshape, self._transpose, self._concat,
            self._split, self._slice, self._squeeze, self._unsqueeze,
            self._flatten, self._pad, self._reduce, self._embedding,
            self._gather, self._fused_matmul_add,
        ]

    # -- helpers -------------------------------------------------------
    def _push(self, nid: int) -> int:
        for slot, spec in enumerate(self.graph.nodes[nid].outputs):
            self.pool.append((nid, slot, tuple(spec.shape.dims)))
        return nid

    def _pick(self, want=None) -> Optional[PoolEntry]:
        entries = [e for e in self.pool if want is None or want(e[2])]
        if not entries:
            return None
        return entries[int(self.rng.integers(len(entries)))]

    def _add(self, op, inputs, attrs=None) -> Optional[int]:
        try:
            return self._push(self.graph.add_node(op, inputs, attrs or {}))
        except (ValueError, IndexError, ZeroDivisionError):
            return None

    def _weight(self, shape) -> int:
        return self.graph.add_node(
            OpType.WEIGHT, (), {"shape": tuple(shape)},
            name=f"w{self.graph.num_nodes}")

    # -- inputs --------------------------------------------------------
    def _seed_inputs(self) -> None:
        # One conv-friendly NCHW image plus 1-2 generic tensors.
        c = int(self.rng.integers(2, 5))
        hw = int(self.rng.choice([4, 6, 8]))
        image = self.graph.add_node(
            OpType.INPUT, (), {"shape": (1, c, hw, hw)}, name="image")
        self._push(image)
        for index in range(int(self.rng.integers(1, 3))):
            rank = int(self.rng.integers(1, 4))
            dims = tuple(int(self.rng.integers(2, 7)) for _ in range(rank))
            self._push(self.graph.add_node(
                OpType.INPUT, (), {"shape": dims}, name=f"x{index}"))

    # -- op builders (each returns a node id or None) ------------------
    def _unary(self):
        entry = self._pick()
        if entry is None:
            return None
        op = OpType(self.rng.choice([
            OpType.RELU, OpType.GELU, OpType.SIGMOID, OpType.TANH,
            OpType.EXP, OpType.SQRT, OpType.ERF, OpType.IDENTITY,
            OpType.DROPOUT,
        ]))
        return self._add(op, [entry[:2]])

    def _binary(self):
        a = self._pick()
        if a is None:
            return None
        # Bias towards same-shape pairs, occasionally try broadcasting.
        if self.rng.random() < 0.7:
            b = self._pick(lambda s: s == a[2])
        else:
            b = self._pick()
        if b is None:
            return None
        op = OpType(self.rng.choice([
            OpType.ADD, OpType.SUB, OpType.MUL, OpType.DIV]))
        return self._add(op, [a[:2], b[:2]])

    def _matmul(self):
        a = self._pick(lambda s: len(s) >= 2)
        if a is None:
            return None
        k = a[2][-1]
        n = int(self.rng.integers(2, 7))
        w = self._weight((k, n))
        op = OpType.BATCH_MATMUL if len(a[2]) > 2 else OpType.MATMUL
        return self._add(op, [a[:2], (w, 0)])

    def _fused_matmul_add(self):
        a = self._pick(lambda s: len(s) == 2)
        if a is None:
            return None
        k, n = a[2][-1], int(self.rng.integers(2, 7))
        w = self._weight((k, n))
        bias = self._weight((n,))
        return self._add(OpType.FUSED_MATMUL_ADD, [a[:2], (w, 0), (bias, 0)])

    def _conv(self):
        x = self._pick(lambda s: len(s) == 4 and s[2] >= 2 and s[3] >= 2)
        if x is None:
            return None
        c_in = x[2][1]
        c_out = int(self.rng.integers(2, 7))
        kernel = int(self.rng.choice([1, 3]))
        stride = int(self.rng.choice([1, 2]))
        w = self._weight((c_out, c_in, kernel, kernel))
        return self._add(OpType.CONV2D, [x[:2], (w, 0)],
                         {"stride": stride, "padding": "same"})

    def _grouped_conv(self):
        x = self._pick(lambda s: len(s) == 4 and s[1] % 2 == 0 and s[2] >= 2)
        if x is None:
            return None
        c_in = x[2][1]
        if self.rng.random() < 0.5:
            w = self._weight((c_in, 1, 3, 3))
            return self._add(OpType.DEPTHWISE_CONV2D, [x[:2], (w, 0)],
                             {"stride": 1, "padding": "same"})
        groups = 2
        c_out = groups * int(self.rng.integers(1, 4))
        w = self._weight((c_out, c_in // groups, 3, 3))
        return self._add(OpType.GROUP_CONV2D, [x[:2], (w, 0)],
                         {"stride": 1, "padding": "same", "groups": groups})

    def _pool2d(self):
        x = self._pick(lambda s: len(s) == 4 and s[2] >= 2 and s[3] >= 2)
        if x is None:
            return None
        op = OpType.MAXPOOL2D if self.rng.random() < 0.5 else OpType.AVGPOOL2D
        padding = "same" if self.rng.random() < 0.3 else "valid"
        return self._add(op, [x[:2]],
                         {"kernel": 2, "stride": 2, "padding": padding})

    def _global_pool(self):
        x = self._pick(lambda s: len(s) == 4)
        return None if x is None else self._add(OpType.GLOBAL_AVGPOOL, [x[:2]])

    def _softmax(self):
        x = self._pick()
        return None if x is None else self._add(OpType.SOFTMAX, [x[:2]],
                                                {"axis": -1})

    def _layernorm(self):
        x = self._pick()
        return None if x is None else self._add(OpType.LAYERNORM, [x[:2]])

    def _batchnorm(self):
        x = self._pick(lambda s: len(s) >= 2)
        if x is None:
            return None
        c = x[2][1]
        scale, bias = self._weight((c,)), self._weight((c,))
        return self._add(OpType.BATCHNORM, [x[:2], (scale, 0), (bias, 0)])

    def _reshape(self):
        x = self._pick()
        if x is None:
            return None
        total = int(np.prod(x[2], dtype=np.int64)) if x[2] else 1
        # Random factorisation of the element count into <= 3 dims.
        dims = []
        rest = total
        for _ in range(int(self.rng.integers(1, 3))):
            divisors = [d for d in range(1, rest + 1) if rest % d == 0]
            d = int(self.rng.choice(divisors))
            dims.append(d)
            rest //= d
        dims.append(rest)
        return self._add(OpType.RESHAPE, [x[:2]], {"shape": tuple(dims)})

    def _transpose(self):
        x = self._pick(lambda s: len(s) >= 2)
        if x is None:
            return None
        perm = list(range(len(x[2])))
        self.rng.shuffle(perm)
        return self._add(OpType.TRANSPOSE, [x[:2]], {"perm": tuple(perm)})

    def _concat(self):
        a = self._pick()
        if a is None or not a[2]:
            return None
        axis = int(self.rng.integers(len(a[2])))
        b = self._pick(lambda s: len(s) == len(a[2]) and
                       all(x == y for i, (x, y) in enumerate(zip(s, a[2]))
                           if i != axis))
        if b is None:
            return None
        return self._add(OpType.CONCAT, [a[:2], b[:2]], {"axis": axis})

    def _split(self):
        x = self._pick(lambda s: any(d % 2 == 0 and d >= 2 for d in s))
        if x is None:
            return None
        axes = [i for i, d in enumerate(x[2]) if d % 2 == 0 and d >= 2]
        axis = int(self.rng.choice(axes))
        return self._add(OpType.SPLIT, [x[:2]], {"axis": axis, "parts": 2})

    def _slice(self):
        x = self._pick(lambda s: any(d >= 2 for d in s))
        if x is None:
            return None
        axes = [i for i, d in enumerate(x[2]) if d >= 2]
        axis = int(self.rng.choice(axes))
        dim = x[2][axis]
        start = int(self.rng.integers(0, dim - 1))
        end = int(self.rng.integers(start + 1, dim + 1))
        return self._add(OpType.SLICE, [x[:2]],
                         {"axis": axis, "start": start, "end": end})

    def _squeeze(self):
        x = self._pick(lambda s: 1 in s and len(s) > 1)
        if x is None:
            return None
        axis = x[2].index(1)
        return self._add(OpType.SQUEEZE, [x[:2]], {"axis": axis})

    def _unsqueeze(self):
        x = self._pick(lambda s: 0 < len(s) < 4)
        if x is None:
            return None
        axis = int(self.rng.integers(len(x[2]) + 1))
        return self._add(OpType.UNSQUEEZE, [x[:2]], {"axis": axis})

    def _flatten(self):
        x = self._pick(lambda s: len(s) >= 1)
        return None if x is None else self._add(OpType.FLATTEN, [x[:2]])

    def _pad(self):
        x = self._pick(lambda s: len(s) >= 1)
        if x is None:
            return None
        pads = []
        for _ in x[2]:
            pads.extend([int(self.rng.integers(0, 2)),
                         int(self.rng.integers(0, 2))])
        return self._add(OpType.PAD, [x[:2]], {"pads": tuple(pads)})

    def _reduce(self):
        x = self._pick(lambda s: len(s) >= 1)
        if x is None:
            return None
        op = OpType(self.rng.choice([
            OpType.REDUCE_SUM, OpType.REDUCE_MEAN, OpType.REDUCE_MAX]))
        axis = int(self.rng.integers(len(x[2])))
        keep = bool(self.rng.random() < 0.5)
        return self._add(op, [x[:2]], {"axis": axis, "keepdims": keep})

    def _embedding(self):
        idx = self._pick(lambda s: 1 <= len(s) <= 3)
        if idx is None:
            return None
        table = self._weight((int(self.rng.integers(4, 10)),
                              int(self.rng.integers(2, 6))))
        return self._add(OpType.EMBEDDING, [(table, 0), idx[:2]])

    def _gather(self):
        idx = self._pick(lambda s: len(s) >= 1)
        if idx is None:
            return None
        table = self._weight((int(self.rng.integers(4, 10)),
                              int(self.rng.integers(2, 6))))
        axis = int(self.rng.integers(2))
        return self._add(OpType.GATHER, [(table, 0), idx[:2]], {"axis": axis})

    # -- driver --------------------------------------------------------
    def build(self, num_ops: int = 12) -> Graph:
        """Grow ``num_ops`` random operators, then close over the sinks."""
        self._seed_inputs()
        added, attempts = 0, 0
        while added < num_ops and attempts < num_ops * 10:
            attempts += 1
            builder = self._ops[int(self.rng.integers(len(self._ops)))]
            if builder() is not None:
                added += 1
        sinks = [nid for nid in self.graph.sink_nodes()
                 if self.graph.nodes[nid].op_type not in
                 (OpType.WEIGHT, OpType.CONSTANT)]
        self.graph.add_node(OpType.OUTPUT, [(nid, 0) for nid in sinks],
                            name="out")
        self.graph.validate()
        return self.graph


def random_graph(seed: int = 0, num_ops: int = 12) -> Graph:
    """A deterministic random valid graph with roughly ``num_ops`` operators."""
    return GraphFuzzer(seed).build(num_ops)
