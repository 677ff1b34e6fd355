"""Integration tests: the full pipeline from model zoo to optimised graph."""

import pytest
from equivalence import assert_equivalent

from repro import XRLflow, XRLflowConfig
from repro.cost import CostModel, E2ESimulator
from repro.ir import graph_from_dict, graph_to_dict
from repro.models import build_model
from repro.rules import RuleSet, default_ruleset
from repro.search import TASOOptimizer, TensatOptimizer


@pytest.fixture(scope="module")
def bert_small():
    return build_model("bert", num_layers=1, seq_len=32, hidden=64, num_heads=2,
                       vocab_size=128)


@pytest.fixture(scope="module")
def rl_config():
    return XRLflowConfig.fast(num_episodes=8, max_steps=20, max_candidates=24,
                              update_frequency=4, num_gat_layers=1,
                              hidden_dim=16, embedding_dim=16,
                              mlp_head_sizes=(32,), eval_episodes=2)


class TestFullPipeline:
    def test_xrlflow_beats_or_matches_unoptimised(self, bert_small, rl_config):
        result = XRLflow(rl_config).optimise(bert_small, "bert-small")
        assert result.speedup >= 1.0
        result.final_graph.validate()

    def test_xrlflow_at_least_matches_taso_on_transformer(self, bert_small, rl_config):
        e2e = E2ESimulator()
        taso = TASOOptimizer(max_iterations=25, e2e=e2e).optimise(bert_small, "bert")
        xrl = XRLflow(rl_config, e2e=e2e).optimise(bert_small, "bert")
        # The paper's headline claim, at reduced scale: X-RLflow is never
        # (meaningfully) worse than the greedy cost-model search.  The test
        # budget is a few seconds of training, so allow a 10% tolerance; the
        # benchmark harness trains longer and reports the full comparison.
        assert xrl.final_latency_ms <= taso.final_latency_ms * 1.10

    def test_exact_rules_preserve_model_semantics_through_search(self, bert_small):
        exact = RuleSet([r for r in default_ruleset() if r.exactly_equivalent])
        result = TASOOptimizer(ruleset=exact, max_iterations=15).optimise(bert_small)
        assert_equivalent(bert_small, result.final_graph)

    def test_optimised_graph_survives_serialisation(self, bert_small):
        result = TensatOptimizer(round_limit=2).optimise(bert_small, "bert")
        restored = graph_from_dict(graph_to_dict(result.final_graph))
        assert restored.structural_hash() == result.final_graph.structural_hash()
        assert E2ESimulator().latency_ms(restored) == pytest.approx(
            result.final_latency_ms)

    def test_cost_model_and_e2e_disagree_but_correlate(self):
        cm, e2e = CostModel(), E2ESimulator()
        costs, latencies = [], []
        for name in ("squeezenet", "bert"):
            graph = build_model(name)
            costs.append(cm.estimate(graph))
            latencies.append(e2e.latency_ms(graph))
        # Same ordering (correlated) but not equal (discrepancy).
        assert (costs[0] < costs[1]) == (latencies[0] < latencies[1])
        assert all(abs(c - lat) > 1e-6 for c, lat in zip(costs, latencies))
