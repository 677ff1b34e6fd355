"""Values derived from a node's template alone (flop and byte counts, cost
units, kernel times) are memoised on the template, process-wide
(``Graph.template_memo``); values that name source node ids (the RL edge
block) on the ``Node`` (``Graph.node_memo``), which a graph shares with its
copies.

Three rules, counted against an empty template table (``fresh_templates``):

* a template is derived once per process: pricing a graph derives one
  value per distinct template, not per node;
* a known template derives nothing: a fresh build, a rewired node and a
  shape-refreshed node attach to the template they share with a priced
  graph;
* a child derives at most its delta's new templates: the templates of its
  added and rewired nodes that no graph priced before.
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


def unpriced(graph, nids, key):
    """``{id of template memo: a node of it}`` for the nodes among ``nids``
    whose template holds no ``key`` entry: what pricing them derives."""
    out = {}
    for nid in nids:
        memo = graph.template_memo(nid)
        if key not in memo:
            out.setdefault(id(memo), nid)
    return out


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
def test_a_graph_derives_once_per_template(name, fresh_templates):
    """Pricing derives one cost per distinct template and one kernel time
    per distinct kernel template; a fresh build of the model, priced by new
    instances, derives nothing."""
    graph = build_small_model(name)
    simulator, cost_model = E2ESimulator(), CostModel()
    templates = unpriced(graph, graph.nodes, cost_model._cache_key)
    kernels = unpriced(graph, graph.nodes, simulator._node_key)
    profile = simulator.profile(graph)
    cost_model.estimate_cached(graph)
    kernels = {memo for memo, nid in kernels.items()
               if profile.per_node_ms[nid] > 0}
    assert cost_model.nodes_derived == len(templates) < graph.num_nodes
    assert simulator.nodes_priced == len(kernels) < profile.kernel_count

    again, simulator, cost_model = (build_small_model(name), E2ESimulator(),
                                    CostModel())
    assert cost_model.estimate_cached(again) == CostModel().estimate(graph)
    assert simulator.latency_ms(again) == profile.total_ms
    assert cost_model.nodes_derived == simulator.nodes_priced == 0


@pytest.mark.parametrize("name", MODELS)
def test_candidates_copied_before_pricing_derive_only_their_rewrite(
        name, fresh_templates):
    """Every candidate is copied from an *unpriced* parent, then the parent
    is priced, then each candidate: the simulator prices only the kernel
    templates among each candidate's added and rewired nodes that nothing
    priced before, and the cost model those templates of all of them (it
    counts zero-cost ones too)."""
    parent = build_small_model(name)
    children = [c.graph for c in default_ruleset().all_candidates(parent)]
    assert len(children) > 5
    simulator, cost_model = E2ESimulator(), CostModel()
    simulator.latency_ms(parent)
    cost_model.estimate_cached(parent)
    derived_any = False
    for child in children:
        priced, derived = simulator.nodes_priced, cost_model.nodes_derived
        changed = dirty(child)
        new = unpriced(child, changed, cost_model._cache_key)
        new_kernels = unpriced(child, changed, simulator._node_key)
        profile = simulator.profile(child)
        assert cost_model.estimate_cached(child) \
            == CostModel().estimate(child)
        assert profile.total_ms == E2ESimulator().latency_ms(child)
        kernels = {memo for memo, nid in new_kernels.items()
                   if profile.per_node_ms[nid] > 0}
        assert simulator.nodes_priced - priced == len(kernels)
        assert cost_model.nodes_derived - derived == len(new) <= len(changed)
        derived_any |= bool(new)
    assert derived_any, "no candidate made a template the parent lacks"


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


def test_a_parent_memo_survives_a_child_rewire(fresh_templates):
    """A rewire replaces the node (its edge memo starts empty, the
    parent's stays) and the new node looks its template up: rewired onto
    the same producer, it is the parent's template, so the child prices
    nothing."""
    parent = build_small_model("squeezenet")
    simulator = E2ESimulator()
    profile = simulator.profile(parent)
    dst = next(nid for nid, ms in profile.per_node_ms.items() if ms > 0)
    edge = parent.in_edges(dst)[0]
    parent.node_memo(dst)["edges"] = "parent's"
    template = parent.template_memo(dst)
    assert simulator._node_key in template
    priced = simulator.nodes_priced

    child = parent.copy()
    other = next(nid for nid in child.nodes if nid != dst)
    child.rewire_input(dst, edge.dst_slot, edge.src, edge.src_slot)
    assert child.mutation_delta().rewired == {dst}
    assert child.nodes[dst] is not parent.nodes[dst]
    assert child.nodes[dst]._template_memo is None
    assert child.node_memo(dst) == {}
    assert parent.node_memo(dst) == {"edges": "parent's"}
    assert child.node_memo(other) is parent.node_memo(other)
    simulator.profile(child)
    assert child.template_memo(dst) is template
    assert simulator.nodes_priced == priced


def test_refresh_shapes_keeps_no_edge_memo_and_reattaches_templates(
        fresh_templates):
    parent = build_small_model("bert")
    cost_model, simulator = CostModel(), E2ESimulator()
    cost, latency = cost_model.estimate_cached(parent), \
        simulator.latency_ms(parent)
    assert cost_model.nodes_derived == len(fresh_templates)
    for nid in parent.nodes:
        parent.node_memo(nid)["edges"] = nid
    graph = parent.copy()
    graph.refresh_shapes()
    for nid, node in graph.nodes.items():
        if node.is_source:
            assert graph.node_memo(nid) is parent.node_memo(nid)
        else:
            assert node is not parent.nodes[nid]
            assert graph.node_memo(nid) == {}, nid
        assert graph.template_memo(nid) is parent.template_memo(nid), nid
    priced = simulator.nodes_priced
    assert cost_model.estimate_cached(graph) == cost
    assert simulator.latency_ms(graph) == latency
    assert cost_model.nodes_derived == len(fresh_templates)
    assert simulator.nodes_priced == priced
