"""A graph's cost is the correctly rounded exact sum of its node costs.

``math.fsum`` is the oracle: whatever order the nodes come in and whichever
interpreter adds them up (builtin ``sum`` compensates since Python 3.12, a
``+=`` loop never did — they disagree on seven of the eight full-size
models), ``estimate``, ``estimate_cached`` and ``estimate_delta`` return the
one float ``fsum`` returns.
"""

import math
import random

import pytest
from relabel import rebuilt_in_random_order

from repro.cost import CostModel
from repro.experiments import build_small_model
from repro.ir import Graph, OpType
from repro.models import MODEL_REGISTRY, build_model
from repro.rules import default_ruleset

MODELS = sorted(MODEL_REGISTRY)


class TableCostModel(CostModel):
    """A node costs the ``cost`` attr :func:`chain` gave it: any float can
    be put into a total, and the cost is a function of the node's template,
    as :meth:`CostModel.node_cost_ms` must be."""

    def node_cost_ms(self, graph, nid):
        return graph.nodes[nid].attrs["cost"]


def chain(values) -> Graph:
    """An input followed by ReLUs, node ``i`` (ids ``0 .. len(values)-1``)
    costing ``values[i]`` under :class:`TableCostModel`.  Each node's
    position is in its attrs too, so every node is a template of its own."""
    graph = Graph("chain")
    tail = None
    for index, value in enumerate(values):
        attrs = {"cost": value, "index": index}
        tail = graph.add_node(OpType.INPUT, (), {"shape": (1, 4), **attrs}) \
            if tail is None else graph.add_node(OpType.RELU, [tail], attrs)
    return graph


class TestOneTotal:
    @pytest.mark.parametrize("model", MODELS)
    def test_every_estimate_is_fsum_of_the_node_costs(self, model):
        graph = build_model(model)
        costs = CostModel().breakdown(graph)
        expected = math.fsum(costs.per_node_ms.values())
        assert costs.total_ms == expected
        assert CostModel().estimate(graph) == expected
        model_ = CostModel()
        assert model_.estimate_cached(graph) == expected
        assert model_.estimate_cached(graph) == expected  # the memo
        assert model_.exact_to_ms(model_.exact_total(graph)) == expected

    @pytest.mark.parametrize("model", MODELS)
    def test_candidates_cost_fsum_through_the_delta(self, model,
                                                    fresh_templates):
        parent = build_small_model(model)
        cost_model = CostModel()
        cost_model.estimate_cached(parent)
        derived = cost_model.nodes_derived
        # One derivation per template, every template of the parent new.
        assert derived == len(fresh_templates) < parent.num_nodes
        children = [c.graph for c in default_ruleset().all_candidates(parent)]
        for child in children:
            expected = math.fsum(
                CostModel().breakdown(child).per_node_ms.values())
            assert cost_model.estimate_delta(parent, child) == expected
            assert cost_model.estimate_cached(child) == expected
        # O(rewrite): a handful of nodes per child, not the graph again.
        assert cost_model.nodes_derived - derived <= 8 * len(children)

    @pytest.mark.parametrize("model", MODELS)
    def test_node_order_does_not_matter(self, model):
        graph = build_small_model(model)
        expected = CostModel().estimate(graph)
        names = [node.name for node in graph.nodes.values()]
        relabelled = False
        for seed in range(3):
            clone = rebuilt_in_random_order(graph, seed)
            relabelled |= [n.name for n in clone.nodes.values()] != names
            assert CostModel().estimate(clone) == expected
            assert CostModel().estimate_cached(clone) == expected
        assert relabelled

    def test_an_uncosted_parent_is_costed_on_demand(self):
        parent = build_small_model("bert")
        child = default_ruleset().all_candidates(parent)[0].graph
        assert CostModel().estimate_delta(parent, child) \
            == CostModel().estimate(child)

    def test_a_mutation_drops_the_memoised_total(self):
        graph = build_small_model("squeezenet").copy()
        cost_model = CostModel()
        before = cost_model.estimate_cached(graph)
        graph.add_node(OpType.RELU, [graph.sink_nodes()[0]])
        assert cost_model.estimate_cached(graph) > before
        assert cost_model.estimate_cached(graph) == CostModel().estimate(graph)


class TestExactArithmetic:
    @pytest.mark.parametrize("seed", range(5))
    def test_integer_totals_round_trip_against_fsum(self, seed):
        rng = random.Random(seed)
        values = [rng.choice([1e-300, 1e300, 5e-324, 2.5e-310, 1.0, 1e-3])
                  * rng.uniform(-1.0, 1.0) for _ in range(500)]
        values += [rng.uniform(0.0, 10.0) for _ in range(500)]
        rng.shuffle(values)
        cost_model, graph = TableCostModel(), chain(values)
        assert cost_model.estimate(graph) == math.fsum(values)
        assert cost_model.estimate_cached(graph) == math.fsum(values)
        assert cost_model.estimate_cached(chain(values[::-1])) \
            == math.fsum(values)
        # Taking terms back out is exact too: fsum of what is left.
        child = graph.copy()
        for nid in range(len(values) - 1, len(values) - 101, -1):
            child.remove_node(nid)
        assert cost_model.estimate_delta(graph, child) \
            == math.fsum(values[:-100])
        assert TableCostModel().estimate(chain(values[:1])) == values[0]

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_a_non_finite_node_cost_raises_by_name(self, bad):
        values = [0.0, 1.5, bad, 2.5]
        for estimate in (TableCostModel().estimate,
                         TableCostModel().estimate_cached):
            with pytest.raises(ValueError,
                               match=r"node 2 \(Relu\).*non-finite"):
                estimate(chain(values))

    def test_a_subclass_reads_none_of_its_base_class_entries(self):
        """Memo keys name the concrete class: a subclass pricing one
        template otherwise never reads what ``CostModel`` left in it."""
        graph = chain([7.0, 9.0])
        assert CostModel().estimate_cached(graph) \
            == CostModel().estimate(graph) != 16.0
        assert TableCostModel().estimate_cached(graph) == 16.0
