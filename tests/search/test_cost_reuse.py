"""Node costs are memoised on node templates, process-wide, so a search
derives each template's cost once and a candidate at most the templates its
rewrite made that no graph had.

``CostModel.nodes_derived`` counts how often a node cost was derived; these
tests pin it, against an empty template table, for Tensat (which used to
cost its population after copying it, deriving every node of every member)
and for TASO (which used to cost every candidate it generated; now only
those without a remembered price): once per template the search priced, and
not at all for a second search of a fresh build.  They hold every
optimiser's reported ``initial_cost_ms`` / ``final_cost_ms`` to the
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


def _templates_priced(table, cost_model) -> int:
    """How many templates of ``table`` hold a cost of ``cost_model``'s."""
    return sum(cost_model._cache_key in memo for _, _, memo in table.values())


class TestTensatDerivations:
    @pytest.mark.parametrize("build", TENSAT_GRAPHS.values(),
                             ids=TENSAT_GRAPHS.keys())
    def test_bounded_and_independent_of_progress(
            self, build, fresh_templates):
        # A graph apiece: the second search meets only known templates.
        quiet = TensatOptimizer()
        streamed = TensatOptimizer()
        quiet_result = quiet.optimise(build())
        streamed_result = streamed.optimise(build(),
                                            progress=lambda *call: None)
        assert quiet_result.stats["graphs_explored"] > 50
        assert 0 < quiet.cost_model.nodes_derived <= MAX_DERIVED
        assert quiet.cost_model.nodes_derived \
            == _templates_priced(fresh_templates, quiet.cost_model)
        assert streamed.cost_model.nodes_derived == 0
        assert streamed_result.final_cost_ms == quiet_result.final_cost_ms
        _assert_costs_match_oracle(quiet_result)

    def test_progress_reports_the_running_extraction(self):
        graph = build_small_model("squeezenet")
        events = []
        optimiser = TensatOptimizer()
        result = optimiser.optimise(
            graph, progress=lambda *event: events.append(event))
        assert [event[0] for event in events] \
            == list(range(1, int(result.stats["rounds"]) + 1))
        costs = [event[1] for event in events]
        assert costs == sorted(costs, reverse=True)
        assert events[-1][1:] == (result.final_cost_ms,
                                  result.final_graph.structural_hash())


class TestTasoDerivations:
    #: Full size, 10 iterations, against an empty template table: measured
    #: 240 / 41 / 74 (797 / 428 / 347 when costs were kept per node, 2 915 /
    #: 1 393 / 782 when every candidate was materialised and costed).
    @pytest.mark.parametrize("model,max_derived", [
        ("inception_v3", 300), ("bert", 60), ("squeezenet", 100)])
    def test_only_unpriced_candidates_are_costed(self, model, max_derived,
                                                 fresh_templates):
        graph = build_model(model)
        optimiser = TASOOptimizer(max_iterations=10)
        result = optimiser.optimise(graph)
        derived = optimiser.cost_model.nodes_derived
        assert 0 < derived <= max_derived
        assert derived == _templates_priced(fresh_templates,
                                            optimiser.cost_model)
        _assert_costs_match_oracle(result)
        again = TASOOptimizer(max_iterations=10)
        assert again.optimise(build_model(model)).final_cost_ms \
            == result.final_cost_ms
        assert again.cost_model.nodes_derived == 0


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
