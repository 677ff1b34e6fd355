"""Curated rewrite rules.

These mirror the published TASO substitutions the paper's evaluation leans
on: operator fusion (conv+BN+ReLU, matmul+bias), merging parallel operators
that share an input (the classic "merge two matmuls / convolutions" rules),
kernel enlargement (pad a 1x1 convolution to 3x3 so it becomes mergeable with
a sibling), and the algebraic re-associations that let scalar multiplications
migrate onto weight tensors where they can be constant-folded.

The full TASO generator emits ~150 rules; the curated set below covers the
rule families that actually fire on the evaluated models (the paper's Figure
5 heatmap shows fewer than ten distinct rules being applied).  The
enumerative generator in :mod:`repro.rules.generator` can extend the set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.graph import Graph, NodeId
from ..ir.ops import OpType
from .base import Match, RewriteRule, RuleSet, eliminate_dead_nodes, replace_all_uses

__all__ = ["default_ruleset", "exact_ruleset", "DEFAULT_RULE_CLASSES"]


def _single_consumer(graph: Graph, nid: NodeId) -> Optional[NodeId]:
    """The unique consumer of ``nid``'s output, or None if not unique."""
    succs = graph.successors(nid)
    if len(succs) == 1:
        return succs[0]
    return None


def _is_param(graph: Graph, nid: NodeId) -> bool:
    return graph.nodes[nid].op_type in (OpType.WEIGHT, OpType.CONSTANT)


def _finish(graph: Graph) -> Graph:
    eliminate_dead_nodes(graph)
    return graph


# ---------------------------------------------------------------------------
# Fusion rules
# ---------------------------------------------------------------------------

class FuseConvBatchNorm(RewriteRule):
    """Conv2D followed by BatchNorm ⇒ FusedConvBN (BN folded into the kernel)."""

    name = "fuse-conv-bn"
    category = "fusion"
    anchor_ops = (OpType.CONV2D,)
    anchor_role = "conv"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            consumer = _single_consumer(graph, nid)
            if consumer is None:
                continue
            if graph.nodes[consumer].op_type is OpType.BATCHNORM:
                matches.append(Match.create(self.name, {"conv": nid, "bn": consumer}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        conv, bn = match.node("conv"), match.node("bn")
        conv_inputs = [(e.src, e.src_slot) for e in g.in_edges(conv)]
        bn_inputs = [(e.src, e.src_slot) for e in g.in_edges(bn)]
        # FusedConvBN consumes (x, w, scale, bias).
        fused_inputs = conv_inputs + bn_inputs[1:]
        fused = g.add_node(OpType.FUSED_CONV_BN, fused_inputs,
                           dict(g.nodes[conv].attrs), name=f"fused_{conv}_{bn}")
        replace_all_uses(g, bn, fused)
        return _finish(g)


class FuseConvRelu(RewriteRule):
    """Conv2D followed by ReLU ⇒ FusedConvRelu."""

    name = "fuse-conv-relu"
    category = "fusion"
    anchor_ops = (OpType.CONV2D,)
    anchor_role = "conv"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            consumer = _single_consumer(graph, nid)
            if consumer is None:
                continue
            if graph.nodes[consumer].op_type is OpType.RELU:
                matches.append(Match.create(self.name, {"conv": nid, "relu": consumer}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        conv, relu = match.node("conv"), match.node("relu")
        conv_inputs = [(e.src, e.src_slot) for e in g.in_edges(conv)]
        fused = g.add_node(OpType.FUSED_CONV_RELU, conv_inputs,
                           dict(g.nodes[conv].attrs), name=f"fused_{conv}_{relu}")
        replace_all_uses(g, relu, fused)
        return _finish(g)


class FuseConvBNRelu(RewriteRule):
    """FusedConvBN followed by ReLU ⇒ FusedConvBNRelu (second fusion step)."""

    name = "fuse-conv-bn-relu"
    category = "fusion"
    anchor_ops = (OpType.FUSED_CONV_BN,)
    anchor_role = "fused"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            consumer = _single_consumer(graph, nid)
            if consumer is None:
                continue
            if graph.nodes[consumer].op_type is OpType.RELU:
                matches.append(Match.create(self.name, {"fused": nid, "relu": consumer}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        fused, relu = match.node("fused"), match.node("relu")
        inputs = [(e.src, e.src_slot) for e in g.in_edges(fused)]
        new = g.add_node(OpType.FUSED_CONV_BN_RELU, inputs,
                         dict(g.nodes[fused].attrs), name=f"fused_{fused}_{relu}")
        replace_all_uses(g, relu, new)
        return _finish(g)


class FuseMatMulBias(RewriteRule):
    """MatMul followed by Add of a bias parameter ⇒ FusedMatMulAdd."""

    name = "fuse-matmul-bias"
    category = "fusion"
    anchor_ops = (OpType.MATMUL,)
    anchor_role = "matmul"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            consumer = _single_consumer(graph, nid)
            if consumer is None:
                continue
            add = graph.nodes[consumer]
            if add.op_type is not OpType.ADD:
                continue
            other = [e.src for e in graph.in_edges(consumer) if e.src != nid]
            if len(other) == 1 and _is_param(graph, other[0]):
                matches.append(Match.create(
                    self.name, {"matmul": nid, "add": consumer, "bias": other[0]}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        mm, add, bias = match.node("matmul"), match.node("add"), match.node("bias")
        mm_inputs = [(e.src, e.src_slot) for e in g.in_edges(mm)]
        fused = g.add_node(OpType.FUSED_MATMUL_ADD, mm_inputs + [(bias, 0)],
                           name=f"fused_{mm}_{add}")
        replace_all_uses(g, add, fused)
        return _finish(g)


# ---------------------------------------------------------------------------
# Merge rules (parallel operators sharing an input)
# ---------------------------------------------------------------------------

class MergeParallelMatMuls(RewriteRule):
    """Two MatMuls sharing the same input ⇒ one MatMul on concatenated weights.

    The weight concatenation is itself a constant-only subgraph, so it is
    folded ahead of time by the end-to-end simulator; the two original
    results are recovered with Slice operators.
    """

    name = "merge-matmuls"
    category = "merge"
    anchor_ops = (OpType.MATMUL,)
    anchor_role = None
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        by_input: Dict[NodeId, List[NodeId]] = {}
        for nid, node in self.anchor_nodes(graph):
            edges = graph.in_edges(nid)
            if len(edges) != 2 or not _is_param(graph, edges[1].src):
                continue
            if graph.nodes[edges[1].src].output_spec.shape.rank != 2:
                continue
            by_input.setdefault(edges[0].src, []).append(nid)
        for shared, mms in by_input.items():
            mms = sorted(mms)
            for i in range(len(mms)):
                for j in range(i + 1, len(mms)):
                    wa = graph.in_edges(mms[i])[1].src
                    wb = graph.in_edges(mms[j])[1].src
                    sa = graph.nodes[wa].output_spec.shape
                    sb = graph.nodes[wb].output_spec.shape
                    if sa.dims[0] != sb.dims[0]:
                        continue
                    matches.append(Match.create(
                        self.name, {"lhs": mms[i], "rhs": mms[j], "x": shared}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        lhs, rhs, x = match.node("lhs"), match.node("rhs"), match.node("x")
        x_slot = g.in_edges(lhs)[0].src_slot
        wa = g.in_edges(lhs)[1].src
        wb = g.in_edges(rhs)[1].src
        na = g.nodes[wa].output_spec.shape.dims[1]
        nb = g.nodes[wb].output_spec.shape.dims[1]
        merged_w = g.add_node(OpType.CONCAT, [(wa, 0), (wb, 0)], {"axis": 1},
                              name=f"merged_w_{lhs}_{rhs}")
        merged = g.add_node(OpType.MATMUL, [(x, x_slot), (merged_w, 0)],
                            name=f"merged_mm_{lhs}_{rhs}")
        out_rank = g.nodes[merged].output_spec.shape.rank
        axis = out_rank - 1
        slice_a = g.add_node(OpType.SLICE, [(merged, 0)],
                             {"axis": axis, "start": 0, "end": na})
        slice_b = g.add_node(OpType.SLICE, [(merged, 0)],
                             {"axis": axis, "start": na, "end": na + nb})
        replace_all_uses(g, lhs, slice_a)
        replace_all_uses(g, rhs, slice_b)
        return _finish(g)


class MergeParallelConvs(RewriteRule):
    """Two Conv2Ds with the same input and kernel shape ⇒ one wider Conv2D."""

    name = "merge-convs"
    category = "merge"
    anchor_ops = (OpType.CONV2D,)
    anchor_role = None
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        by_input: Dict[Tuple, List[NodeId]] = {}
        for nid, node in self.anchor_nodes(graph):
            edges = graph.in_edges(nid)
            if len(edges) < 2 or not _is_param(graph, edges[1].src):
                continue
            w_shape = graph.nodes[edges[1].src].output_spec.shape.dims
            key = (edges[0].src, edges[0].src_slot, w_shape[2], w_shape[3],
                   node.attrs.get("stride", 1), node.attrs.get("padding", "same"))
            by_input.setdefault(key, []).append(nid)
        for key, convs in by_input.items():
            convs = sorted(convs)
            for i in range(len(convs)):
                for j in range(i + 1, len(convs)):
                    matches.append(Match.create(
                        self.name, {"lhs": convs[i], "rhs": convs[j]}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        lhs, rhs = match.node("lhs"), match.node("rhs")
        x_edge = g.in_edges(lhs)[0]
        wa = g.in_edges(lhs)[1].src
        wb = g.in_edges(rhs)[1].src
        ca = g.nodes[wa].output_spec.shape.dims[0]
        cb = g.nodes[wb].output_spec.shape.dims[0]
        merged_w = g.add_node(OpType.CONCAT, [(wa, 0), (wb, 0)], {"axis": 0},
                              name=f"merged_w_{lhs}_{rhs}")
        merged = g.add_node(OpType.CONV2D, [(x_edge.src, x_edge.src_slot), (merged_w, 0)],
                            dict(g.nodes[lhs].attrs), name=f"merged_conv_{lhs}_{rhs}")
        slice_a = g.add_node(OpType.SLICE, [(merged, 0)],
                             {"axis": 1, "start": 0, "end": ca})
        slice_b = g.add_node(OpType.SLICE, [(merged, 0)],
                             {"axis": 1, "start": ca, "end": ca + cb})
        replace_all_uses(g, lhs, slice_a)
        replace_all_uses(g, rhs, slice_b)
        return _finish(g)


class EnlargeConvKernel(RewriteRule):
    """Pad a 1x1 convolution to 3x3 so it can merge with a sibling 3x3 conv.

    This is TASO's "enlarge convolution kernel" substitution.  It is
    semantics-preserving on a real system (the padded weight entries are
    zero) but increases the arithmetic of the enlarged kernel nine-fold —
    a cost the idealised cost model barely notices while the end-to-end
    simulator does.  The rule only fires when a sibling 3x3 convolution
    shares the same input, i.e. when a follow-up merge is possible.
    """

    name = "enlarge-conv"
    category = "layout"
    anchor_ops = (OpType.CONV2D,)
    anchor_role = "conv"
    match_radius = 3
    # The executor cannot reproduce the zero-padded weight tensor, so the
    # rule is not replayable exactly (it fabricates a new weight node).
    exactly_equivalent = False

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            edges = graph.in_edges(nid)
            if len(edges) < 2 or not _is_param(graph, edges[1].src):
                continue
            w_shape = graph.nodes[edges[1].src].output_spec.shape.dims
            if w_shape[2] != 1 or w_shape[3] != 1:
                continue
            if node.attrs.get("padding", "same") != "same":
                continue
            # Look for a sibling 3x3 convolution on the same input tensor.
            x_src, x_slot = edges[0].src, edges[0].src_slot
            for other in graph.successors(x_src):
                if other == nid:
                    continue
                other_node = graph.nodes[other]
                if other_node.op_type is not OpType.CONV2D:
                    continue
                oedges = graph.in_edges(other)
                if oedges[0].src != x_src or oedges[0].src_slot != x_slot:
                    continue
                ow = graph.nodes[oedges[1].src].output_spec.shape.dims
                if (ow[2], ow[3]) == (3, 3) and \
                        other_node.attrs.get("stride", 1) == node.attrs.get("stride", 1):
                    matches.append(Match.create(self.name, {"conv": nid, "sibling": other}))
                    break
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        conv = match.node("conv")
        edges = g.in_edges(conv)
        x_src, x_slot = edges[0].src, edges[0].src_slot
        w = g.nodes[edges[1].src]
        c_out, c_in = w.output_spec.shape.dims[0], w.output_spec.shape.dims[1]
        enlarged_w = g.add_node(OpType.WEIGHT, (), {"shape": (c_out, c_in, 3, 3)},
                                name=f"{w.name}_enlarged")
        attrs = dict(g.nodes[conv].attrs)
        attrs["kernel"] = 3
        new_conv = g.add_node(OpType.CONV2D, [(x_src, x_slot), (enlarged_w, 0)],
                              attrs, name=f"enlarged_{conv}")
        replace_all_uses(g, conv, new_conv)
        return _finish(g)


# ---------------------------------------------------------------------------
# Algebraic rules exposing constant folding
# ---------------------------------------------------------------------------

def _is_scalar_param(graph: Graph, nid: NodeId) -> bool:
    node = graph.nodes[nid]
    return (node.op_type in (OpType.WEIGHT, OpType.CONSTANT)
            and node.output_spec.num_elements == 1)


class PushMulThroughBatchMatMul(RewriteRule):
    """Mul(BatchMatMul(a, b), c) with scalar constant c ⇒ BatchMatMul(Mul(a, c), b)."""

    name = "push-mul-bmm"
    category = "algebraic"
    anchor_ops = (OpType.MUL,)
    anchor_role = "mul"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            edges = graph.in_edges(nid)
            a, b = edges[0].src, edges[1].src
            for bmm, scalar in ((a, b), (b, a)):
                if graph.nodes[bmm].op_type is OpType.BATCH_MATMUL and \
                        _is_scalar_param(graph, scalar) and \
                        _single_consumer(graph, bmm) == nid:
                    matches.append(Match.create(
                        self.name, {"mul": nid, "bmm": bmm, "scalar": scalar}))
                    break
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        mul, bmm, scalar = match.node("mul"), match.node("bmm"), match.node("scalar")
        bmm_edges = g.in_edges(bmm)
        a_src, a_slot = bmm_edges[0].src, bmm_edges[0].src_slot
        b_src, b_slot = bmm_edges[1].src, bmm_edges[1].src_slot
        scaled_a = g.add_node(OpType.MUL, [(a_src, a_slot), (scalar, 0)],
                              name=f"scaled_{a_src}")
        new_bmm = g.add_node(OpType.BATCH_MATMUL, [(scaled_a, 0), (b_src, b_slot)],
                             name=f"bmm_{mul}")
        replace_all_uses(g, mul, new_bmm)
        return _finish(g)


class PushMulThroughReshape(RewriteRule):
    """Mul(Reshape(x), c) with scalar constant c ⇒ Reshape(Mul(x, c))."""

    name = "push-mul-reshape"
    category = "algebraic"
    anchor_ops = (OpType.MUL,)
    anchor_role = "mul"
    match_radius = 2
    exactly_equivalent = True

    _MOVABLE = (OpType.RESHAPE, OpType.TRANSPOSE)

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            edges = graph.in_edges(nid)
            a, b = edges[0].src, edges[1].src
            for reshaped, scalar in ((a, b), (b, a)):
                if graph.nodes[reshaped].op_type in self._MOVABLE and \
                        _is_scalar_param(graph, scalar) and \
                        _single_consumer(graph, reshaped) == nid:
                    matches.append(Match.create(
                        self.name, {"mul": nid, "reshape": reshaped, "scalar": scalar}))
                    break
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        mul, reshape, scalar = match.node("mul"), match.node("reshape"), match.node("scalar")
        r_edge = g.in_edges(reshape)[0]
        scaled = g.add_node(OpType.MUL, [(r_edge.src, r_edge.src_slot), (scalar, 0)],
                            name=f"scaled_{r_edge.src}")
        new_reshape = g.add_node(g.nodes[reshape].op_type, [(scaled, 0)],
                                 dict(g.nodes[reshape].attrs), name=f"reshape_{mul}")
        replace_all_uses(g, mul, new_reshape)
        return _finish(g)


class DistributeMulOverAdd(RewriteRule):
    """Mul(Add(a, b), c) with scalar constant c ⇒ Add(Mul(a, c), Mul(b, c))."""

    name = "distribute-mul-add"
    category = "algebraic"
    anchor_ops = (OpType.MUL,)
    anchor_role = "mul"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            edges = graph.in_edges(nid)
            a, b = edges[0].src, edges[1].src
            for added, scalar in ((a, b), (b, a)):
                if graph.nodes[added].op_type is OpType.ADD and \
                        _is_scalar_param(graph, scalar) and \
                        _single_consumer(graph, added) == nid:
                    matches.append(Match.create(
                        self.name, {"mul": nid, "add": added, "scalar": scalar}))
                    break
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        mul, add, scalar = match.node("mul"), match.node("add"), match.node("scalar")
        add_edges = g.in_edges(add)
        scaled = []
        for edge in add_edges:
            scaled.append(g.add_node(OpType.MUL, [(edge.src, edge.src_slot), (scalar, 0)],
                                     name=f"scaled_{edge.src}"))
        new_add = g.add_node(OpType.ADD, [(scaled[0], 0), (scaled[1], 0)],
                             name=f"add_{mul}")
        replace_all_uses(g, mul, new_add)
        return _finish(g)


class FoldMulIntoMatMul(RewriteRule):
    """Mul(MatMul(x, W), c) with constant c and parameter W ⇒ MatMul(x, Mul(W, c)).

    After the rewrite the scalar multiplication only touches constant data,
    so the end-to-end runtime folds it away entirely.
    """

    name = "fold-mul-matmul"
    category = "algebraic"
    anchor_ops = (OpType.MUL,)
    anchor_role = "mul"
    match_radius = 2
    exactly_equivalent = True

    _MM_OPS = (OpType.MATMUL, OpType.FUSED_MATMUL_ADD)

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            edges = graph.in_edges(nid)
            a, b = edges[0].src, edges[1].src
            for mm, scalar in ((a, b), (b, a)):
                if graph.nodes[mm].op_type in self._MM_OPS and \
                        _is_scalar_param(graph, scalar) and \
                        _single_consumer(graph, mm) == nid:
                    w = graph.in_edges(mm)[1].src
                    if _is_param(graph, w):
                        matches.append(Match.create(
                            self.name, {"mul": nid, "matmul": mm, "scalar": scalar}))
                        break
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        mul, mm, scalar = match.node("mul"), match.node("matmul"), match.node("scalar")
        mm_edges = g.in_edges(mm)
        w_src = mm_edges[1].src
        scaled_w = g.add_node(OpType.MUL, [(w_src, 0), (scalar, 0)],
                              name=f"scaled_w_{w_src}")
        new_inputs = [(mm_edges[0].src, mm_edges[0].src_slot), (scaled_w, 0)]
        if g.nodes[mm].op_type is OpType.FUSED_MATMUL_ADD:
            # The bias must be scaled as well to stay equivalent.
            bias = mm_edges[2].src
            scaled_b = g.add_node(OpType.MUL, [(bias, 0), (scalar, 0)],
                                  name=f"scaled_b_{bias}")
            new_inputs.append((scaled_b, 0))
        new_mm = g.add_node(g.nodes[mm].op_type, new_inputs, name=f"mm_{mul}")
        replace_all_uses(g, mul, new_mm)
        return _finish(g)


class ReassociateMatMul(RewriteRule):
    """MatMul(MatMul(x, A), B) with parameters A, B ⇒ MatMul(x, MatMul(A, B))."""

    name = "reassoc-matmul"
    category = "algebraic"
    anchor_ops = (OpType.MATMUL,)
    anchor_role = "outer"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            edges = graph.in_edges(nid)
            inner = edges[0].src
            outer_w = edges[1].src
            if graph.nodes[inner].op_type is not OpType.MATMUL:
                continue
            if not _is_param(graph, outer_w):
                continue
            inner_edges = graph.in_edges(inner)
            if not _is_param(graph, inner_edges[1].src):
                continue
            if _single_consumer(graph, inner) != nid:
                continue
            matches.append(Match.create(self.name, {"outer": nid, "inner": inner}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        outer, inner = match.node("outer"), match.node("inner")
        inner_edges = g.in_edges(inner)
        outer_edges = g.in_edges(outer)
        x_src, x_slot = inner_edges[0].src, inner_edges[0].src_slot
        a_src = inner_edges[1].src
        b_src = outer_edges[1].src
        ab = g.add_node(OpType.MATMUL, [(a_src, 0), (b_src, 0)], name=f"ab_{outer}")
        new_outer = g.add_node(OpType.MATMUL, [(x_src, x_slot), (ab, 0)],
                               name=f"mm_{outer}")
        replace_all_uses(g, outer, new_outer)
        return _finish(g)


# ---------------------------------------------------------------------------
# Cleanup rules
# ---------------------------------------------------------------------------

class EliminateDoubleTranspose(RewriteRule):
    """Transpose(Transpose(x)) with mutually inverse permutations ⇒ x."""

    name = "eliminate-double-transpose"
    category = "cleanup"
    anchor_ops = (OpType.TRANSPOSE,)
    anchor_role = "outer"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            inner = graph.in_edges(nid)[0].src
            if graph.nodes[inner].op_type is not OpType.TRANSPOSE:
                continue
            outer_perm = node.attrs.get("perm")
            inner_perm = graph.nodes[inner].attrs.get("perm")
            rank = node.output_spec.shape.rank
            outer_perm = tuple(outer_perm) if outer_perm else tuple(reversed(range(rank)))
            inner_perm = tuple(inner_perm) if inner_perm else tuple(reversed(range(rank)))
            composed = tuple(inner_perm[p] for p in outer_perm)
            if composed == tuple(range(rank)):
                matches.append(Match.create(self.name, {"outer": nid, "inner": inner}))
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        outer, inner = match.node("outer"), match.node("inner")
        src_edge = g.in_edges(inner)[0]
        replace_all_uses(g, outer, src_edge.src, new_slot=src_edge.src_slot)
        return _finish(g)


class EliminateSliceOfConcat(RewriteRule):
    """Slice(Concat(a, b)) that exactly recovers one operand ⇒ that operand."""

    name = "eliminate-slice-concat"
    category = "cleanup"
    anchor_ops = (OpType.SLICE,)
    anchor_role = "slice"
    match_radius = 2
    exactly_equivalent = True

    def find_matches(self, graph: Graph) -> List[Match]:
        matches = []
        for nid, node in self.anchor_nodes(graph):
            concat = graph.in_edges(nid)[0].src
            concat_node = graph.nodes[concat]
            if concat_node.op_type is not OpType.CONCAT:
                continue
            axis = int(node.attrs["axis"]) % concat_node.output_spec.shape.rank
            if axis != int(concat_node.attrs.get("axis", 0)) % concat_node.output_spec.shape.rank:
                continue
            start, end = int(node.attrs["start"]), int(node.attrs["end"])
            offset = 0
            for edge in graph.in_edges(concat):
                part = graph.nodes[edge.src].outputs[edge.src_slot]
                extent = part.shape.dims[axis]
                if (start, end) == (offset, offset + extent):
                    matches.append(Match.create(
                        self.name, {"slice": nid, "concat": concat},
                        {"operand": edge.src, "operand_slot": edge.src_slot}))
                    break
                offset += extent
        return matches

    def apply(self, graph: Graph, match: Match) -> Graph:
        g = graph.copy()
        params = match.param_map
        replace_all_uses(g, match.node("slice"), int(params["operand"]),
                         new_slot=int(params["operand_slot"]))
        return _finish(g)


#: The rule classes included in :func:`default_ruleset`, in priority order.
DEFAULT_RULE_CLASSES = [
    FuseConvBatchNorm,
    FuseConvRelu,
    FuseConvBNRelu,
    FuseMatMulBias,
    MergeParallelMatMuls,
    MergeParallelConvs,
    EnlargeConvKernel,
    PushMulThroughBatchMatMul,
    PushMulThroughReshape,
    DistributeMulOverAdd,
    FoldMulIntoMatMul,
    ReassociateMatMul,
    EliminateDoubleTranspose,
    EliminateSliceOfConcat,
]


def default_ruleset() -> RuleSet:
    """The curated rule set used by all optimisers in this repository."""
    return RuleSet([cls() for cls in DEFAULT_RULE_CLASSES])


def exact_ruleset() -> RuleSet:
    """The curated rules that are *exactly* equivalent.

    Drops rules flagged ``exactly_equivalent=False`` (EnlargeConv
    fabricates a fresh weight tensor, so its output values are not
    preserved under deterministic materialisation).  This is the rule set
    the executor-backed differential harness runs the optimisers under
    when asserting value equivalence, not just shape equivalence.
    """
    return RuleSet([rule for rule in (cls() for cls in DEFAULT_RULE_CLASSES)
                    if rule.exactly_equivalent])
