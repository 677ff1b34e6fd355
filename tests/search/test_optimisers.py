"""Tests for the baseline optimisers (TASO, Tensat, PET, random search)."""

import pytest
from equivalence import assert_equivalent

from repro.cost import CostModel
from repro.models import build_model
from repro.rules import default_ruleset
from repro.search import (GraphSpace, GreedyOptimizer, PETOptimizer,
                          RandomSearchOptimizer, TASOOptimizer, TensatOptimizer,
                          pet_ruleset)
from repro.search.pet import ConvToWinogradGemm


@pytest.fixture(scope="module")
def squeezenet():
    return build_model("squeezenet")


class TestTASO:
    def test_never_worse_than_input_on_cost_model(self, conv_graph):
        result = TASOOptimizer(max_iterations=10).optimise(conv_graph, "conv")
        assert result.final_cost_ms <= result.initial_cost_ms + 1e-12
        result.final_graph.validate()

    def test_finds_fusions_on_conv_graph(self, conv_graph):
        result = TASOOptimizer(max_iterations=10).optimise(conv_graph, "conv")
        assert result.speedup > 1.0
        assert any(name.startswith("fuse") for name in result.applied_rules)

    def test_result_metadata(self, conv_graph):
        result = TASOOptimizer(max_iterations=5).optimise(conv_graph, "conv")
        assert result.optimiser == "taso"
        assert result.model == "conv"
        assert result.stats["iterations"] <= 5
        assert "ms ->" in result.summary()
        assert sum(result.rule_counts().values()) == len(result.applied_rules)

    def test_transformation_preserves_semantics(self, attention_graph):
        # Restrict to exactly-equivalent rules so execution can verify
        # the whole transformation sequence end to end.
        from repro.rules import RuleSet
        exact = RuleSet([r for r in default_ruleset() if r.exactly_equivalent])
        result = TASOOptimizer(ruleset=exact, max_iterations=15).optimise(
            attention_graph, "attention")
        assert_equivalent(attention_graph, result.final_graph)

    def test_budget_zero_returns_input(self, conv_graph):
        result = TASOOptimizer(max_iterations=0).optimise(conv_graph, "conv")
        assert result.final_graph.structural_hash() == conv_graph.structural_hash()
        assert result.stats["graphs_hashed"] == 1.0  # the root's identity
        assert result.stats["stop_budget"] == 1.0

    def test_greedy_variant_is_taso_without_tolerance(self, conv_graph):
        greedy = GreedyOptimizer(max_iterations=10)
        assert greedy.alpha == 1.0
        result = greedy.optimise(conv_graph, "conv")
        assert result.optimiser == "greedy"
        assert result.final_cost_ms <= result.initial_cost_ms + 1e-12


class TestTensat:
    def test_explore_is_bounded(self, conv_graph):
        space = GraphSpace(default_ruleset(), node_limit=200, round_limit=3)
        population, stats = space.explore(conv_graph, CostModel())
        assert stats.graphs_explored == len(population)
        assert stats.total_nodes <= 200 + max(
            member.graph.num_nodes for member in population)

    def test_extraction_picks_cheapest(self, conv_graph):
        space = GraphSpace(default_ruleset(), node_limit=5000, round_limit=3)
        cm = CostModel()
        population, _ = space.explore(conv_graph, cm)
        best = space.extract(population)
        assert best.cost_ms == min(
            cm.estimate(member.graph) for member in population)

    def test_optimise_improves_or_matches(self, conv_graph):
        result = TensatOptimizer(round_limit=3).optimise(conv_graph, "conv")
        assert result.final_cost_ms <= result.initial_cost_ms + 1e-12
        result.final_graph.validate()

    def test_multi_pattern_limit_restricts_merges(self, attention_graph):
        liberal = GraphSpace(default_ruleset(), node_limit=50000, round_limit=3,
                             multi_pattern_rounds=3, per_round_cap=100)
        strict = GraphSpace(default_ruleset(), node_limit=50000, round_limit=3,
                            multi_pattern_rounds=0, per_round_cap=100)
        _, stats_liberal = liberal.explore(attention_graph, CostModel())
        _, stats_strict = strict.explore(attention_graph, CostModel())
        assert stats_strict.applied_rules.get("merge-matmuls", 0) == 0
        assert stats_liberal.applied_rules.get("merge-matmuls", 0) >= 1


class TestPET:
    def test_winograd_rule_matches_dense_3x3_only(self, fire_graph):
        rule = ConvToWinogradGemm()
        matches = rule.find_matches(fire_graph)
        # fire module has exactly one 3x3 stride-1 convolution
        assert len(matches) == 1
        transformed = rule.apply(fire_graph, matches[0])
        transformed.validate()
        conv_attrs = [n.attrs.get("algorithm") for n in transformed.nodes.values()
                      if n.op_type.value == "Conv2D"]
        assert "winograd" in conv_attrs

    def test_pet_ruleset_includes_partial_rule(self):
        assert "conv-to-winograd" in pet_ruleset().names()

    def test_pet_uses_elementwise_blind_cost_model(self):
        assert PETOptimizer().cost_model.ignore_elementwise

    def test_pet_beats_taso_on_resnet18_style_graph(self):
        # Needs enough search depth for PET to rewrite most 3x3 convolutions
        # to the Winograd algorithm (the paper's Table 2 crossover).
        graph = build_model("resnet18")
        taso = TASOOptimizer(max_iterations=60).optimise(graph, "resnet18")
        pet = PETOptimizer(max_iterations=60).optimise(graph, "resnet18")
        assert pet.final_latency_ms < taso.final_latency_ms


class TestRandomSearch:
    def test_random_search_never_worse(self, conv_graph):
        result = RandomSearchOptimizer(num_walks=2, horizon=5, seed=1).optimise(
            conv_graph, "conv")
        assert result.final_latency_ms <= result.initial_latency_ms + 1e-12
        result.final_graph.validate()

    def test_random_search_deterministic_given_seed(self, conv_graph):
        a = RandomSearchOptimizer(num_walks=2, horizon=5, seed=7).optimise(conv_graph)
        b = RandomSearchOptimizer(num_walks=2, horizon=5, seed=7).optimise(conv_graph)
        assert a.final_latency_ms == pytest.approx(b.final_latency_ms)
