"""The TASO queue holds only graphs that can still be popped.

Three things are pinned here: the bounded queue reproduces the
hash-everything loop (``tests/oracles/taso_reference.py``) wherever the
budget, not the capacity, limits the queue; the counters say how few
identities that takes; and the paths where the capacity binds are
deterministic and follow the stated tie rule.
"""

import pytest
from taso_reference import reference_search, trajectory_of

import repro.search.greedy
from repro.cost import CostModel
from repro.experiments import build_small_model
from repro.ir import Graph
from repro.models import MODEL_REGISTRY, build_model
from repro.rules.base import Candidate
from repro.search import GreedyOptimizer, TASOOptimizer
from repro.service import create_optimiser

#: The registry rows that run ``TASOOptimizer.optimise``.
OPTIMISERS = ["greedy", "pet", "taso"]


def assert_reproduces_oracle(optimiser, build, **config):
    """One search, one oracle run on a fresh graph and optimiser each."""
    result = create_optimiser(optimiser, **config).optimise(build())
    reference, reference_seen = reference_search(
        create_optimiser(optimiser, **config), build())
    assert trajectory_of(result) == reference
    stats = result.stats
    # Duplicates are only looked for among poppable candidates.
    assert reference_seen <= stats["graphs_seen"] \
        <= 1 + stats["candidates_evaluated"]
    assert stats["graphs_hashed"] <= 1 + stats["candidates_evaluated"]
    return result


class TestReproducesHashEverythingLoop:
    @pytest.mark.parametrize("max_iterations", [10, 30])
    @pytest.mark.parametrize("optimiser", OPTIMISERS)
    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_reduced_registry(self, model, optimiser, max_iterations):
        assert_reproduces_oracle(optimiser, lambda: build_small_model(model),
                                 max_iterations=max_iterations)

    @pytest.mark.parametrize("optimiser", OPTIMISERS)
    @pytest.mark.parametrize("model", ["squeezenet", "bert"])
    def test_full_size(self, model, optimiser):
        assert_reproduces_oracle(optimiser, lambda: build_model(model),
                                 max_iterations=10)

    def test_most_candidates_are_priced_without_being_built(self):
        """The oracle materialises every candidate it counts; the search
        counts the same candidates and builds a fraction of them."""
        stats = assert_reproduces_oracle(
            "taso", lambda: build_model("inception_v3"),
            max_iterations=10).stats
        assert stats["candidates_materialised"] \
            < 0.25 * stats["candidates_evaluated"]
        assert stats["prices_reused"] > 0.8 * stats["candidates_evaluated"]

    @pytest.mark.parametrize("optimiser", OPTIMISERS)
    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_a_kept_candidate_costs_what_its_remembered_price_said(
            self, model, optimiser, monkeypatch):
        """A candidate ranked on a remembered price is built once it is
        kept; ``estimate_delta`` of the built graph is the same float."""
        kept, checked = {}, []
        materialise, estimate_delta = (Candidate.materialise,
                                       CostModel.estimate_delta)

        def recording_materialise(candidate):
            graph = materialise(candidate)
            if candidate.outcome is not None:
                kept[id(graph)] = (graph, candidate.outcome)
            return graph

        def checking_estimate_delta(cost_model, parent, child, **kwargs):
            cost = estimate_delta(cost_model, parent, child, **kwargs)
            if id(child) in kept:
                assert cost == cost_model.exact_to_ms(
                    cost_model.exact_total(parent) + kept[id(child)][1])
                checked.append(child)
            return cost

        monkeypatch.setattr(Candidate, "materialise", recording_materialise)
        monkeypatch.setattr(CostModel, "estimate_delta",
                            checking_estimate_delta)
        stats = create_optimiser(optimiser, max_iterations=30).optimise(
            build_small_model(model)).stats
        assert len(checked) == len(kept) > 0
        assert len(kept) == stats["candidates_materialised"] \
            + stats["prices_reused"] - stats["candidates_evaluated"]

    @pytest.mark.parametrize("optimiser", OPTIMISERS)
    @pytest.mark.parametrize("model", ["squeezenet", "bert"])
    def test_eager_path(self, model, optimiser):
        """Engine + delta costing against every candidate regenerated and
        costed from scratch."""
        result = create_optimiser(optimiser, max_iterations=10).optimise(
            build_small_model(model))
        reference, _ = reference_search(
            create_optimiser(optimiser, max_iterations=10),
            build_small_model(model), eager=True)
        assert trajectory_of(result) == reference


    @pytest.mark.parametrize("optimiser", OPTIMISERS)
    def test_there_is_no_eager_switch(self, optimiser):
        with pytest.raises(TypeError, match="incremental"):
            create_optimiser(optimiser, incremental=False)


class TestCounters:
    @pytest.mark.parametrize("model", ["inception_v3", "squeezenet"])
    def test_few_candidates_need_an_identity(self, model):
        stats = TASOOptimizer(max_iterations=10).optimise(
            build_model(model)).stats
        assert stats["graphs_hashed"] <= 0.35 * stats["candidates_evaluated"]
        assert stats["stop_budget"] == 1.0

    def test_last_pop_hashes_only_new_bests(self):
        graph = build_small_model("vit")
        optimiser = TASOOptimizer(max_iterations=1)
        result = optimiser.optimise(graph)
        best, improvements, candidates = CostModel().estimate(graph), 0, 0
        for candidate in optimiser.ruleset.all_candidates(graph):
            cand_graph = candidate.materialise()
            if cand_graph is None:
                continue
            candidates += 1
            cost = CostModel().estimate(cand_graph)
            if cost < best:
                best, improvements = cost, improvements + 1
        assert improvements >= 2
        assert result.final_cost_ms == best
        assert result.stats["graphs_hashed"] - 1 == improvements
        assert result.stats["candidates_evaluated"] == candidates

    def test_queue_running_empty_is_reported(self, conv_graph):
        result = TASOOptimizer(max_iterations=10_000).optimise(conv_graph)
        assert result.stats["stop_budget"] == 0.0
        assert result.stats["iterations"] < 10_000


class ToyGraph(Graph):
    """A graph without nodes and with a chosen identity.

    What the search's :class:`~repro.search.identity.GraphSet` reads: every
    toy graph has the empty graph's signature, so every identity test ties
    and is settled by ``structural_hash``; a member is retained as
    ``structure()``, the toy itself."""

    def __init__(self, name, identity=None):
        super().__init__(name)
        self.identity = identity or name

    def structural_hash(self):
        return self.identity

    def structure(self):
        return self


class ToyCandidate:
    outcome = None  # never remembered: every toy candidate is materialised

    def __init__(self, graph):
        self.graph = graph
        self.rule_name = "to-" + graph.name

    def materialise(self):
        return self.graph


class ToySpace:
    """A search space written down as two tables, playing rule set, match
    engine, cost model and simulator of a search; ``expanded`` records the
    graphs whose candidates were asked for, in order."""

    def __init__(self, costs, children, identities=None):
        self.costs, self.children = costs, children
        self.identities = identities or {}
        self.expanded = []

    def lazy_candidates(self, graph):
        self.expanded.append(graph.name)
        return [ToyCandidate(ToyGraph(name, self.identities.get(name)))
                for name in self.children.get(graph.name, ())]

    def estimate_cached(self, graph):
        return self.costs[graph.name]

    latency_ms = exact_total = estimate_cached

    def estimate_delta(self, parent, child):
        return self.costs[child.name]

    def remember(self, candidate, child, outcome=None, reads=()):
        pass

    def search(self, cls=TASOOptimizer, **config):
        return cls(ruleset=self, cost_model=self, e2e=self,
                   **config).optimise(ToyGraph("root"))


@pytest.fixture
def toy_space(monkeypatch):
    """:class:`ToySpace`, searched without the match-set engine in front of
    it (a toy graph has no nodes to index)."""
    monkeypatch.setattr(repro.search.greedy, "IncrementalCandidateEngine",
                        lambda ruleset, capacity: ruleset)
    return ToySpace


class TestBoundPaths:
    def test_of_equally_expensive_worst_entries_the_newest_goes(
            self, toy_space):
        space = toy_space({"root": 10.0, "a": 9.9, "b": 9.9, "c": 9.8},
                          {"root": ["a", "b", "c"]})
        result = space.search(alpha=1.05, max_iterations=10, queue_capacity=2)
        assert space.expanded == ["root", "c", "a"]
        assert result.final_graph.name == "c"
        assert result.stats["graphs_hashed"] == 4.0
        assert result.stats["stop_budget"] == 0.0

    def test_an_equally_expensive_newcomer_does_not_displace(self, toy_space):
        space = toy_space({"root": 10.0, "a": 9.9, "b": 9.9, "c": 9.9},
                          {"root": ["a", "b", "c"]})
        result = space.search(alpha=1.05, max_iterations=10, queue_capacity=2)
        assert space.expanded == ["root", "a", "b"]
        assert result.stats["graphs_hashed"] == 3.0  # c got no identity

    def test_no_graph_is_queued_or_expanded_twice(self, toy_space):
        space = toy_space(
            {"root": 10.0, "a": 9.9, "b": 9.9, "x": 9.8, "x2": 9.8},
            {"root": ["a", "b"], "a": ["x"], "b": ["x2"]},
            identities={"x2": "x"})
        result = space.search(alpha=1.05, max_iterations=10)
        assert space.expanded == ["root", "a", "x", "b"]
        assert result.applied_rules == ["to-a", "to-x"]
        assert result.stats["candidates_evaluated"] == 4.0
        assert result.stats["graphs_seen"] == 4.0  # one duplicate found
        # Signatures never tell toys apart: every identity is a digest.
        assert result.stats["graphs_digested"] \
            == result.stats["graphs_hashed"] == 5.0

    def test_greedy_is_steepest_descent_first_of_equals(self, toy_space):
        space = toy_space(
            {"root": 10.0, "a": 9.0, "b": 8.0, "c": 8.0, "d": 10.0,
             "e": 8.0, "f": 7.0},
            {"root": ["a", "b", "c", "d"], "b": ["e", "f"], "c": ["f"]})
        result = space.search(GreedyOptimizer, max_iterations=10)
        assert space.expanded == ["root", "b", "f"]
        assert result.applied_rules == ["to-b", "to-f"]
        assert result.final_cost_ms == 7.0

    def test_capacity_bound_search_is_deterministic(self):
        config = dict(max_iterations=300, queue_capacity=50)
        first, second = (TASOOptimizer(**config).optimise(
            build_small_model("bert")) for _ in range(2))
        assert trajectory_of(first) == trajectory_of(second)
        assert first.stats == second.stats
        # Fewer slots than pops left: the final graph is the oracle's, the
        # way there is not pinned (a graph refused for lack of room has no
        # identity, so a later duplicate of it competes again).
        reference, _ = reference_search(TASOOptimizer(**config),
                                        build_small_model("bert"))
        assert trajectory_of(first)[:3] == reference[:3]
        assert first.stats["stop_budget"] == 0.0
