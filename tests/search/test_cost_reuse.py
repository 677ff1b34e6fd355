"""Node costs are memoised on the nodes a graph shares with its copies, so
a candidate derives only the nodes its rewrite changed.

``CostModel.nodes_derived`` counts how often a node cost was derived; these
tests pin it for Tensat (which used to cost its population after copying it,
deriving every node of every member) and for TASO (which used to cost every
candidate it generated; now only those without a remembered price), and hold
every optimiser's reported ``initial_cost_ms`` / ``final_cost_ms`` to the
from-scratch ``CostModel.estimate`` oracle bit-for-bit.
"""

import pytest

from repro import XRLflow, XRLflowConfig
from repro.cost import CostModel
from repro.experiments import build_small_model
from repro.models import build_model
from repro.rules import default_ruleset
from repro.search import (GraphSpace, Member, RandomSearchOptimizer,
                          TASOOptimizer, TensatOptimizer)

#: Tensat's default ``node_limit`` is 20 000 and a search that costs after
#: copying derives about that many; costing at admission derives the root's
#: nodes once plus a handful per member.
MAX_DERIVED = 1000

TENSAT_GRAPHS = {
    "bert-reduced": lambda: build_small_model("bert"),
    "squeezenet-reduced": lambda: build_small_model("squeezenet"),
    "bert": lambda: build_model("bert"),
}


def _oracle(graph) -> float:
    return CostModel().estimate(graph)


def _assert_costs_match_oracle(result):
    assert result.initial_cost_ms == _oracle(result.initial_graph)
    assert result.final_cost_ms == _oracle(result.final_graph)


class TestTensatDerivations:
    @pytest.mark.parametrize("build", TENSAT_GRAPHS.values(),
                             ids=TENSAT_GRAPHS.keys())
    def test_bounded_and_independent_of_progress_callback(self, build):
        # A graph apiece: the first search leaves its root's nodes costed.
        quiet = TensatOptimizer()
        streamed = TensatOptimizer(progress_callback=lambda *event: None)
        quiet_result = quiet.optimise(build())
        streamed_result = streamed.optimise(build())
        assert quiet_result.stats["graphs_explored"] > 50
        assert 0 < quiet.cost_model.nodes_derived <= MAX_DERIVED
        assert streamed.cost_model.nodes_derived \
            == quiet.cost_model.nodes_derived
        assert streamed_result.final_cost_ms == quiet_result.final_cost_ms
        _assert_costs_match_oracle(quiet_result)

    def test_progress_reports_the_running_extraction(self):
        graph = build_small_model("squeezenet")
        events = []
        optimiser = TensatOptimizer(
            progress_callback=lambda *event: events.append(event))
        result = optimiser.optimise(graph)
        assert [event[0] for event in events] \
            == list(range(1, int(result.stats["rounds"]) + 1))
        costs = [event[1] for event in events]
        assert costs == sorted(costs, reverse=True)
        assert events[-1][1:] == (result.final_cost_ms,
                                  result.final_graph.structural_hash())


class TestTasoDerivations:
    #: Full size, 10 iterations: measured 797 / 428 / 347 (2 915 / 1 393 /
    #: 782 when every candidate was materialised and costed).
    @pytest.mark.parametrize("model,max_derived", [
        ("inception_v3", 1000), ("bert", 500), ("squeezenet", 400)])
    def test_only_unpriced_candidates_are_costed(self, model, max_derived):
        graph = build_model(model)
        optimiser = TASOOptimizer(max_iterations=10)
        result = optimiser.optimise(graph)
        assert graph.num_nodes < optimiser.cost_model.nodes_derived \
            <= max_derived
        _assert_costs_match_oracle(result)


class TestGraphSpace:
    def test_stored_costs_equal_from_scratch_estimates(self):
        graph = build_small_model("bert")
        space = GraphSpace(default_ruleset(), round_limit=3)
        population, _ = space.explore(graph, CostModel())
        assert population[0].graph is graph and population[0].rules == []
        assert len(population) > 20
        for member in population:
            assert member.cost_ms == _oracle(member.graph)

    def test_extract_costs_nothing_and_first_of_equals_wins(self, conv_graph,
                                                            mlp_graph):
        space = GraphSpace(default_ruleset())
        population = [Member(conv_graph, [], 3.0),
                      Member(mlp_graph, ["first"], 2.0),
                      Member(conv_graph, ["second"], 2.0),
                      Member(mlp_graph, ["dearer"], 2.5)]
        assert space.extract(population) is population[1]


class TestReportedCosts:
    def test_random_search(self):
        graph = build_small_model("squeezenet")
        optimiser = RandomSearchOptimizer(num_walks=3, horizon=8, seed=1)
        result = optimiser.optimise(graph)
        assert result.applied_rules
        _assert_costs_match_oracle(result)
        # The root in full, then only what the best walk's rewrites touched.
        assert optimiser.cost_model.nodes_derived < 2 * graph.num_nodes

    def test_xrlflow(self):
        graph = build_small_model("bert")
        config = XRLflowConfig.fast(num_episodes=2, max_steps=5,
                                    max_candidates=10, update_frequency=2)
        optimiser = XRLflow(config)
        result = optimiser.optimise(graph)
        _assert_costs_match_oracle(result)
        assert optimiser.cost_model.nodes_derived < 2 * graph.num_nodes
