"""Tests for the rewrite-rule substrate: matching, application, equivalence."""

import pytest
from equivalence import assert_equivalent

from repro.ir import GraphBuilder, OpType
from repro.rules import (RuleSet, default_ruleset, eliminate_dead_nodes,
                         replace_all_uses)
from repro.rules.rulesets import (DistributeMulOverAdd, EliminateDoubleTranspose,
                                  EliminateSliceOfConcat, EnlargeConvKernel,
                                  FoldMulIntoMatMul, FuseConvBatchNorm,
                                  FuseConvBNRelu, FuseConvRelu, FuseMatMulBias,
                                  MergeParallelConvs, MergeParallelMatMuls,
                                  PushMulThroughBatchMatMul, ReassociateMatMul)


class TestFramework:
    def test_default_ruleset_unique_names(self):
        rs = default_ruleset()
        assert len(rs.names()) == len(set(rs.names()))
        assert len(rs) >= 10

    def test_ruleset_lookup(self):
        rs = default_ruleset()
        assert rs.rule("fuse-conv-bn").name == "fuse-conv-bn"
        with pytest.raises(KeyError):
            rs.rule("does-not-exist")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([FuseConvRelu(), FuseConvRelu()])

    def test_extended_ruleset(self):
        rs = RuleSet([FuseConvRelu()]).extended([FuseConvBatchNorm()])
        assert len(rs) == 2

    def test_eliminate_dead_nodes(self, mlp_graph):
        g = mlp_graph.copy()
        # Add a dangling weight and a dangling op.
        w = g.add_node(OpType.WEIGHT, (), {"shape": (4, 4)})
        g.add_node(OpType.RELU, (w,))
        removed = eliminate_dead_nodes(g)
        assert removed == 2
        g.validate()

    def test_replace_all_uses(self):
        b = GraphBuilder()
        x = b.input((2, 4))
        r1 = b.relu(x)
        r2 = b.relu(r1)
        g = b.graph
        replace_all_uses(g, r1, x)
        assert g.predecessors(r2) == [x]


class TestFusionRules:
    def test_fuse_conv_bn(self, conv_graph):
        rule = FuseConvBatchNorm()
        matches = rule.find_matches(conv_graph)
        assert len(matches) == 1
        new_graph = rule.apply(conv_graph, matches[0])
        new_graph.validate()
        assert "FusedConvBN" in new_graph.op_type_counts()
        assert new_graph.num_nodes < conv_graph.num_nodes
        assert_equivalent(conv_graph, new_graph)

    def test_fuse_conv_relu(self, conv_graph):
        rule = FuseConvRelu()
        matches = rule.find_matches(conv_graph)
        assert len(matches) == 1  # only the second conv feeds a ReLU directly
        new_graph = rule.apply(conv_graph, matches[0])
        new_graph.validate()
        assert_equivalent(conv_graph, new_graph)

    def test_fuse_conv_bn_relu_chains(self, conv_graph):
        first = FuseConvBatchNorm()
        step1 = first.apply(conv_graph, first.find_matches(conv_graph)[0])
        second = FuseConvBNRelu()
        matches = second.find_matches(step1)
        assert len(matches) == 1
        step2 = second.apply(step1, matches[0])
        step2.validate()
        assert "FusedConvBNRelu" in step2.op_type_counts()
        assert_equivalent(conv_graph, step2)

    def test_fuse_matmul_bias(self, mlp_graph):
        rule = FuseMatMulBias()
        matches = rule.find_matches(mlp_graph)
        assert len(matches) == 2
        new_graph = rule.apply(mlp_graph, matches[0])
        new_graph.validate()
        assert_equivalent(mlp_graph, new_graph)


class TestMergeRules:
    def test_merge_parallel_matmuls(self, shared_matmul_graph):
        rule = MergeParallelMatMuls()
        matches = rule.find_matches(shared_matmul_graph)
        assert len(matches) == 1
        merged = rule.apply(shared_matmul_graph, matches[0])
        merged.validate()
        counts = merged.op_type_counts()
        assert counts["MatMul"] == 1 and counts["Slice"] == 2
        assert_equivalent(shared_matmul_graph, merged)

    def test_merge_matmuls_in_attention(self, attention_graph):
        rule = MergeParallelMatMuls()
        # Q, K, V projections share the same input: three pairs match.
        assert len(rule.find_matches(attention_graph)) == 3

    def test_merge_parallel_convs_requires_same_kernel(self, fire_graph):
        rule = MergeParallelConvs()
        # The fire module's expand convs have different kernel sizes (1 vs 3),
        # so no merge is possible before kernel enlargement.
        assert rule.find_matches(fire_graph) == []

    def test_enlarge_then_merge(self, fire_graph):
        enlarge = EnlargeConvKernel()
        matches = enlarge.find_matches(fire_graph)
        assert len(matches) == 1
        enlarged = enlarge.apply(fire_graph, matches[0])
        enlarged.validate()
        merge = MergeParallelConvs()
        merged_matches = merge.find_matches(enlarged)
        assert len(merged_matches) == 1
        merged = merge.apply(enlarged, merged_matches[0])
        merged.validate()

    def test_merge_parallel_convs_equivalence(self):
        b = GraphBuilder()
        x = b.input((1, 4, 8, 8), name="x")
        c1 = b.conv2d(x, 6, kernel=3)
        c2 = b.conv2d(x, 10, kernel=3)
        out = b.concat([c1, c2], axis=1)
        g = b.build([out])
        rule = MergeParallelConvs()
        merged = rule.apply(g, rule.find_matches(g)[0])
        merged.validate()
        assert_equivalent(g, merged)


class TestAlgebraicRules:
    def _scaled_attention(self):
        b = GraphBuilder()
        x = b.input((2, 4, 8), name="x")
        w = b.weight((8, 8), name="w")
        q = b.matmul(x, w)
        kt = b.transpose(x, (0, 2, 1))
        scores = b.batch_matmul(q, kt)
        scale = b.constant((1,), name="scale")
        scaled = b.mul(scores, scale)
        return b.build([scaled])

    def test_push_mul_through_bmm(self):
        g = self._scaled_attention()
        rule = PushMulThroughBatchMatMul()
        matches = rule.find_matches(g)
        assert len(matches) == 1
        moved = rule.apply(g, matches[0])
        moved.validate()
        assert_equivalent(g, moved)

    def test_fold_chain_reaches_weights(self):
        g = self._scaled_attention()
        push = PushMulThroughBatchMatMul()
        g2 = push.apply(g, push.find_matches(g)[0])
        fold = FoldMulIntoMatMul()
        matches = fold.find_matches(g2)
        assert len(matches) == 1
        g3 = fold.apply(g2, matches[0])
        g3.validate()
        assert_equivalent(g, g3)
        # After folding, the scalar multiplication only touches constants.
        from repro.cost import E2ESimulator
        folded = E2ESimulator().constant_foldable_nodes(g3)
        mul_nodes = [nid for nid, n in g3.nodes.items() if n.op_type is OpType.MUL]
        assert any(nid in folded for nid in mul_nodes)

    def test_distribute_mul_over_add(self):
        b = GraphBuilder()
        x = b.input((2, 8), name="x")
        y = b.weight((2, 8), name="y")
        c = b.constant((1,), name="c")
        out = b.mul(b.add(x, y), c)
        g = b.build([out])
        rule = DistributeMulOverAdd()
        new = rule.apply(g, rule.find_matches(g)[0])
        new.validate()
        assert_equivalent(g, new)

    def test_reassociate_matmul(self):
        b = GraphBuilder()
        x = b.input((4, 8), name="x")
        a = b.weight((8, 16), name="a")
        c = b.weight((16, 4), name="c")
        out = b.matmul(b.matmul(x, a), c)
        g = b.build([out])
        rule = ReassociateMatMul()
        new = rule.apply(g, rule.find_matches(g)[0])
        new.validate()
        assert_equivalent(g, new)


class TestCleanupRules:
    def test_eliminate_double_transpose(self):
        b = GraphBuilder()
        x = b.input((2, 3, 4), name="x")
        t = b.transpose(b.transpose(x, (0, 2, 1)), (0, 2, 1))
        out = b.relu(t)
        g = b.build([out])
        rule = EliminateDoubleTranspose()
        new = rule.apply(g, rule.find_matches(g)[0])
        new.validate()
        assert_equivalent(g, new)
        assert "Transpose" not in new.op_type_counts()

    def test_eliminate_slice_of_concat(self, shared_matmul_graph):
        merge = MergeParallelMatMuls()
        merged = merge.apply(shared_matmul_graph,
                             merge.find_matches(shared_matmul_graph)[0])
        rule = EliminateSliceOfConcat()
        # Slices of the merged matmul do not consume the weight concat, so the
        # cleanup rule should not fire on that graph...
        b = GraphBuilder()
        x = b.input((2, 4), name="x")
        y = b.weight((2, 6), name="y")
        cat = b.concat([x, y], axis=1)
        sl = b.slice(cat, axis=1, start=0, end=4)
        g = b.build([b.relu(sl)])
        matches = rule.find_matches(g)
        assert len(matches) == 1
        new = rule.apply(g, matches[0])
        new.validate()
        assert_equivalent(g, new)


class TestRulesetOnModels:
    @pytest.mark.parametrize("fixture_name", ["conv_graph", "attention_graph",
                                              "fire_graph", "mlp_graph"])
    def test_all_candidates_are_valid_graphs(self, request, fixture_name):
        graph = request.getfixturevalue(fixture_name)
        for candidate in default_ruleset().all_candidates(graph):
            candidate.graph.validate()

    def test_exactly_equivalent_rules_preserve_semantics(self, attention_graph):
        for rule in default_ruleset():
            if not rule.exactly_equivalent:
                continue
            for match in rule.find_matches(attention_graph)[:2]:
                transformed = rule.apply(attention_graph, match)
                assert_equivalent(attention_graph, transformed)
