"""How a search tells graphs apart (``src/repro/search/identity.py``).

A :class:`GraphSet` gives every graph a signature, a necessary condition for
equal structural hashes that a candidate derives in O(rewrite), and takes a
structural hash only where signatures tie.  Pinned here:

* the incremental signature equals a from-scratch pass, on every curated
  rule over its donors and the ``graphgen`` seeds, two rewrites deep;
* it survives renumbering (``rebuilt_in_random_order``), and equal hashes
  give equal signatures over whole Tensat populations and their candidates;
* the set's membership answers are a plain set of Merkle digests', on random
  walks with duplicates forced by commuting rewrites and symmetric branches;
* Tensat's space reproduces the hash-everything loop it replaced
  (``tests/oracles/tensat_reference.py``).
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from relabel import rebuilt_in_random_order
from tensat_reference import reference_explore

from repro.cost import CostModel
from repro.experiments import build_small_model
from repro.ir import GraphBuilder
from repro.models import build_model
from repro.models.registry import TENSAT_MODELS
from repro.rules import default_ruleset
from repro.search import GraphSpace, TensatOptimizer
from repro.search.identity import GraphSet
from repro.search.pet import pet_ruleset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "exec"))
from graphgen import random_graph  # noqa: E402
from test_differential import (BUILT_DONORS, FIXTURE_DONORS,  # noqa: E402
                               _fused_conv_bn_then_relu)

#: Every curated rule plus PET's partial one.
RULESET = pet_ruleset()


@pytest.fixture
def donors(request):
    """The differential suite's donors (one per curated rule at least) and
    eight generator seeds."""
    graphs = [request.getfixturevalue(name) for name in FIXTURE_DONORS]
    graphs += [build() for build in BUILT_DONORS]
    graphs.append(_fused_conv_bn_then_relu(
        request.getfixturevalue("conv_graph")))
    return graphs + [random_graph(seed) for seed in range(8)]


def closure(graph, depth=2):
    """``(parent, child)`` for every candidate of every rule, ``depth``
    rewrites deep (the second level over every first-level candidate)."""
    pairs, level = [], [graph]
    for _ in range(depth):
        following = []
        for parent in level:
            for candidate in RULESET.all_candidates(parent):
                child = candidate.materialise()
                if child is not None:
                    pairs.append((parent, child))
                    following.append(child)
        level = following
    return pairs


def full_pass(graph):
    """The signature a set without ``graph``'s parent takes: one pass."""
    return GraphSet().signature(graph)


class TestSignature:
    def test_incremental_equals_a_full_pass(self, donors):
        rules_seen, derived = set(), 0
        for donor in donors:
            seen = GraphSet()
            seen.signature(donor)
            for parent, child in closure(donor):
                assert child.delta_parent() is parent
                assert seen.signature(child) == full_pass(child)
                derived += 1
            rules_seen.update(
                candidate.rule_name
                for candidate in RULESET.all_candidates(donor))
        assert rules_seen == {rule.name for rule in RULESET}
        assert derived > 100

    def test_unchanged_under_renumbering(self, donors):
        for donor in donors:
            for seed, (_, child) in enumerate(closure(donor)[::7]):
                clone = rebuilt_in_random_order(child, seed)
                assert clone.structural_hash() == child.structural_hash()
                assert full_pass(clone) == full_pass(child)

    def test_a_moved_path_count_is_recounted_downstream(self):
        """No curated rule changes how many paths reach a rewired node;
        this surgery does (``d = a + b`` → ``a + c`` with ``c = x + x``:
        2 paths → 3), and every node below ``d`` must be recounted."""
        b = GraphBuilder("paths")
        x = b.input((2, 4), name="x")
        d = b.add(b.relu(x), b.tanh(x))
        c = b.add(x, x)
        graph = b.build([b.relu(b.relu(d)), c])
        seen = GraphSet()
        seen.signature(graph)
        child = graph.copy()
        child.rewire_input(d, 1, c)
        assert seen.signature(child) == full_pass(child) \
            != full_pass(graph)

    def test_a_mutated_graph_is_signed_again(self, conv_graph):
        seen = GraphSet()
        graph = conv_graph.copy()
        before = seen.signature(graph)
        graph.add_node(graph.nodes[graph.sink_nodes()[0]].op_type,
                       [graph.sink_nodes()[0]])
        assert seen.signature(graph) == full_pass(graph) != before
        assert seen.signed == 2

    @pytest.mark.parametrize("model", ["inception_v3", "bert", "squeezenet"])
    def test_equal_hashes_give_equal_signatures_over_a_population(
            self, model):
        """Every member of a Tensat population and every candidate of every
        member, grouped by structural hash: one signature per group."""
        population, _ = GraphSpace(default_ruleset(), round_limit=2).explore(
            build_small_model(model), CostModel())
        seen = GraphSet()
        by_hash, graphs = {}, 0
        for member in population:
            seen.signature(member.graph)
            graphs += 1
            by_hash.setdefault(member.graph.structural_hash(), set()).add(
                seen.signature(member.graph))
            for candidate in default_ruleset().lazy_candidates(member.graph):
                child = candidate.materialise()
                if child is None:
                    continue
                graphs += 1
                by_hash.setdefault(child.structural_hash(), set()).add(
                    seen.signature(child))
        assert all(len(signatures) == 1 for signatures in by_hash.values())
        assert graphs > len(by_hash)  # candidates repeat members and each other

    def test_the_converse_is_never_assumed(self):
        """Two chains with one signature and two structural hashes: the set
        digests both and keeps both."""
        def chain(ops):
            b = GraphBuilder("chain")
            h = b.input((2, 4), name="x")
            for op in ops:
                h = b.relu(h) if op == "r" else b.tanh(h)
            return b.build([h])

        first, second = chain("rrtrrr"), chain("rrrtrr")
        assert full_pass(first) == full_pass(second)
        assert first.structural_hash() != second.structural_hash()
        seen = GraphSet()
        seen.add(first)
        assert second not in seen
        assert seen.digested == 2
        seen.add(second)
        assert first in seen and second in seen
        assert chain("rrtrrr") in seen


class TestMembership:
    @pytest.mark.parametrize("model", ["inception_v3", "bert", "resnext50"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_walks_answer_as_a_set_of_digests(self, model, seed):
        """Each step admits every candidate of the current graph and of one
        earlier member, so the rewrites that commute, and the identical
        branches of inception and of bert's layers, come back as
        duplicates."""
        rng = np.random.default_rng(seed)
        root = build_small_model(model)
        seen, hashes = GraphSet(), set()
        seen.add(root)
        hashes.add(root.structural_hash())
        members, duplicates = [root], 0
        for _ in range(4):
            for parent in (members[-1], members[rng.integers(len(members))]):
                for candidate in default_ruleset().all_candidates(parent):
                    graph = candidate.graph
                    digest = graph.structural_hash()
                    assert (graph in seen) == (digest in hashes)
                    if digest in hashes:
                        duplicates += 1
                        continue
                    seen.add(graph)
                    hashes.add(digest)
                    members.append(graph)
        assert duplicates > 0
        assert seen.digested < seen.signed
        # Every member is held either as a digest or as structure that still
        # hashes as the graph did.
        for graph in members:
            assert graph in seen

    def test_commuting_rewrites_meet(self):
        """Fusing the left branch, then the right one, is the graph that
        fusing them the other way round gives: the second is a duplicate,
        found by digest after the signatures tie."""
        b = GraphBuilder("twins")
        x = b.input((1, 4, 8, 8), name="x")
        left = b.relu(b.conv2d(x, 4, kernel=3))
        right = b.relu(b.conv2d(x, 4, kernel=3))
        graph = b.build([left, right])

        def fused(parent):
            return [c.graph for c in default_ruleset().all_candidates(parent)
                    if c.rule_name == "fuse-conv-relu"]

        seen = GraphSet()
        seen.add(graph)
        left_first, right_first = fused(graph)
        for once in (left_first, right_first):
            assert once not in seen
            seen.add(once)
        (both,), (again,) = fused(left_first), fused(right_first)
        assert both not in seen
        seen.add(both)
        assert again in seen
        assert seen.signature(both) == seen.signature(again)
        assert seen.digested == 2


class TestTensatReproducesHashEverythingSpace:
    """``GraphSpace.explore`` against ``reference_explore``: the same members
    in the same order at the same costs, the same statistics, the same
    extracted graph."""

    @staticmethod
    def _population(population):
        return [(tuple(m.rules), m.cost_ms.hex(), m.graph.structural_hash())
                for m in population]

    @pytest.mark.parametrize("full_size", [False, True],
                             ids=["reduced", "full"])
    @pytest.mark.parametrize("model", TENSAT_MODELS)
    def test_population(self, model, full_size):
        build = build_model if full_size else build_small_model
        space = TensatOptimizer().space
        population, stats = space.explore(build(model), CostModel())
        reference, expected = reference_explore(space, build(model),
                                                CostModel())
        assert self._population(population) == self._population(reference)
        assert stats.graphs_hashed == expected.graphs_hashed
        assert stats.graphs_digested < expected.graphs_digested
        for name in ("rounds", "graphs_explored", "total_nodes", "saturated",
                     "node_budget_hit", "applied_rules"):
            assert getattr(stats, name) == getattr(expected, name), name
        best, reference_best = (space.extract(population),
                                space.extract(reference))
        assert best.rules == reference_best.rules
        assert best.graph.structural_hash() \
            == reference_best.graph.structural_hash()

    def test_the_optimiser_reports_both_counts(self):
        stats = TensatOptimizer().optimise(build_small_model("bert")).stats
        assert stats["graphs_hashed"] > stats["graphs_explored"]
        assert 0 < stats["graphs_digested"] < stats["graphs_hashed"]


def test_a_structure_hashes_as_its_graph(attention_graph):
    """What a member is held as until a tie: the graph's nodes and
    adjacency, no caches, no lineage — a rewritten candidate's overlay
    (tombstones included) read as the candidate reads it."""
    from hash_oracle import oracle_structural_hash

    for _, child in closure(attention_graph, depth=1):
        child.structural_hash()  # a memo the structure must not carry
        shell = child.structure()
        assert shell.delta_parent() is None
        assert shell.memo_peek("hash") is None
        assert shell.num_edges == child.num_edges
        assert shell.structural_hash() == oracle_structural_hash(child)


def test_nothing_is_memoised_on_the_graph(conv_graph):
    """The tables die with the set; the graph carries no trace of them."""
    before = dict(conv_graph.__dict__)
    seen = GraphSet()
    seen.add(conv_graph)
    child = next(iter(closure(conv_graph, depth=1)))[1]
    assert child not in seen
    assert conv_graph.__dict__.keys() == before.keys()
    assert all(key not in ("hash", "digests")
               for key in itertools.chain(conv_graph._scalar_cache,
                                          child._scalar_cache))
