"""Values derived from one node and its input specs are memoised on the
``Node`` (``Graph.node_memo``), which a graph shares with its copies.

The invariant behind it: a child shares a ``Node`` object with its parent
exactly when the node is not in its delta's ``added | rewired`` — the
mutation API replaces a node whose inputs change instead of clearing it.
So a memo filled on a parent before *or after* a copy serves the copy, and
the order in which graphs are copied and priced does not matter.
"""

import pytest

from repro.cost import CostModel, E2ESimulator
from repro.experiments import build_small_model
from repro.rules import DEFAULT_RULE_CLASSES, default_ruleset

MODELS = ["squeezenet", "bert"]


def dirty(child):
    """The live nodes ``child``'s rewrite added or rewired."""
    delta = child.mutation_delta()
    return {nid for nid in delta.added | delta.rewired if nid in child.nodes}


def first_matches(parent):
    """``(rule name, child)`` for every curated rule's first match that
    applies."""
    out = []
    for rule in (cls() for cls in DEFAULT_RULE_CLASSES):
        matches = rule.find_matches(parent)
        if matches:
            child = rule.apply(parent, matches[0])
            if child is not None:
                out.append((rule.name, child))
    return out


@pytest.mark.parametrize("name", MODELS)
def test_candidates_copied_before_pricing_derive_only_their_rewrite(name):
    """Every candidate is copied from an *unpriced* parent, then the parent
    is priced, then each candidate: the simulator prices only each
    candidate's added and rewired kernel nodes, and the cost model derives
    only its added and rewired nodes (it counts zero-cost ones too)."""
    parent = build_small_model(name)
    children = [c.graph for c in default_ruleset().all_candidates(parent)]
    assert len(children) > 5
    simulator, cost_model = E2ESimulator(), CostModel()
    simulator.latency_ms(parent)
    cost_model.estimate_cached(parent)
    for child in children:
        priced, derived = simulator.nodes_priced, cost_model.nodes_derived
        profile = simulator.profile(child)
        assert cost_model.estimate_cached(child) \
            == CostModel().estimate(child)
        assert profile.total_ms == E2ESimulator().latency_ms(child)
        changed = dirty(child)
        kernels = {nid for nid in changed if profile.per_node_ms[nid] > 0}
        assert simulator.nodes_priced - priced == len(kernels)
        assert cost_model.nodes_derived - derived == len(changed)


@pytest.mark.parametrize("name", MODELS)
def test_a_child_shares_exactly_its_untouched_nodes(name):
    parent = build_small_model(name)
    applied = first_matches(parent)
    assert len(applied) >= 2
    rewired = 0
    for rule_name, child in applied:
        delta = child.mutation_delta()
        rewired += len(delta.rewired)
        for nid, node in child.nodes.items():
            shared = node is parent.nodes.get(nid)
            assert shared == (nid not in delta.added | delta.rewired), \
                (rule_name, nid)
    assert rewired, "no curated rule rewired a surviving node"


def test_a_parent_memo_survives_a_child_rewire():
    parent = build_small_model("squeezenet")
    simulator = E2ESimulator()
    profile = simulator.profile(parent)
    dst = next(nid for nid, ms in profile.per_node_ms.items() if ms > 0)
    edge = parent.in_edges(dst)[0]
    memo = dict(parent.node_memo(dst))
    assert memo
    priced = simulator.nodes_priced

    child = parent.copy()
    other = next(nid for nid in child.nodes if nid != dst)
    child.rewire_input(dst, edge.dst_slot, edge.src, edge.src_slot)
    assert child.mutation_delta().rewired == {dst}
    assert parent.node_memo(dst) == memo
    assert child.node_memo(dst) == {}
    assert child.node_memo(other) is parent.node_memo(other)
    simulator.profile(parent)
    assert simulator.nodes_priced == priced
    simulator.profile(child)
    assert simulator.nodes_priced == priced + 1


def test_refresh_shapes_leaves_no_memo_on_a_non_source_node():
    parent = build_small_model("bert")
    CostModel().estimate_cached(parent)
    E2ESimulator().latency_ms(parent)
    graph = parent.copy()
    graph.refresh_shapes()
    for nid, node in graph.nodes.items():
        if node.is_source:
            assert graph.node_memo(nid) is parent.node_memo(nid)
        else:
            assert graph.node_memo(nid) == {}, nid
            assert parent.node_memo(nid), nid
