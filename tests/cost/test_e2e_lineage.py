"""The simulator works from the parent graph: a profile derived through a
graph's lineage must be the full pass's, bit for bit.

``E2ESimulator`` keeps kernel times in template memos every node of a
template shares and derives a child's constant-valued set from its
``delta_parent()``'s.  The oracle is a fresh simulator's profile of a
lineage-free rebuild of the same graph (``ir/serialize`` JSON, node ids
kept) whose nodes hold private, empty template memos: no parent, no memo,
every node decided and priced.
"""

import numpy as np
import pytest
from graphgen import random_graph

from repro.cost import E2ESimulator
from repro.ir import GraphBuilder
from repro.ir.ops import OpType
from repro.ir.serialize import graph_from_dict, graph_to_dict
from repro.rules import DEFAULT_RULE_CLASSES

RULES = [rule_cls() for rule_cls in DEFAULT_RULE_CLASSES]


def rule_motifs() -> GraphBuilder:
    """One motif per curated rule family: a graph every rule matches in,
    directly or after one rewrite, with weight-only subgraphs to fold."""
    b = GraphBuilder("motifs")
    image = b.input((1, 4, 8, 8), name="image")
    fused = b.conv_bn_relu(image, 4, kernel=3)                  # conv-bn(-relu)
    relu = b.relu(b.conv2d(fused, 4, kernel=3))                 # conv-relu
    wide = b.conv2d(relu, 4, kernel=3)                          # merge / enlarge
    narrow = b.conv2d(relu, 4, kernel=1)
    x = b.input((4, 8), name="x")
    left = b.linear(x, 8, 8)                                    # matmul-bias
    right = b.linear(x, 8, 8)                                   # merge-matmuls
    chain = b.matmul(b.matmul(x, b.weight((8, 16))), b.weight((16, 4)))
    dist = b.mul(b.add(chain, b.weight((4, 4))), b.constant((1,)))
    seq = b.input((2, 4, 8), name="seq")
    q = b.matmul(seq, b.weight((8, 8)))
    scores = b.mul(b.batch_matmul(q, b.transpose(seq, (0, 2, 1))),
                   b.constant((1,)))                            # mul-bmm
    double_t = b.relu(b.transpose(b.transpose(seq, (0, 2, 1)), (0, 2, 1)))
    pushed = b.mul(b.transpose(seq, (0, 2, 1)), b.constant((1,)))
    u = b.input((2, 4), name="u")
    cut = b.relu(b.slice(b.concat([u, b.weight((2, 6))], axis=1),
                         axis=1, start=0, end=4))
    folded = b.add(left, b.relu(b.transpose(b.weight((8, 4)), (1, 0))))
    b.output([wide, narrow, folded, right, dist, scores, double_t, pushed,
              cut])
    return b


def joined(seed: int):
    """``random_graph(seed)`` and :func:`rule_motifs` under one output: the
    rules fire in the motifs, the random part moves every id and
    interleaves the topological order."""
    graph = random_graph(seed)
    output = graph.nodes_by_op(OpType.OUTPUT)[0]
    sinks = graph.predecessors(output)
    graph.remove_node(output)
    motifs = rule_motifs().build()
    ids = {}
    for nid in motifs.topological_order():
        node = motifs.nodes[nid]
        inputs = [(ids[e.src], e.src_slot) for e in motifs.in_edges(nid)]
        if node.op_type is OpType.OUTPUT:
            sinks += [src for src, _ in inputs]
            continue
        ids[nid] = graph.add_node(node.op_type, inputs, node.attrs,
                                  name=node.name)
    graph.add_node(OpType.OUTPUT, sinks, name="out")
    graph.validate()
    return graph


def fresh_profile(graph):
    """The oracle: a new simulator over a lineage-free rebuild that shares
    no template memo."""
    rebuilt = graph_from_dict(graph_to_dict(graph))
    assert rebuilt.delta_parent() is None
    assert sorted(rebuilt.nodes) == sorted(graph.nodes)
    for node in rebuilt.nodes.values():
        node._template_memo = {}
    return E2ESimulator().profile(rebuilt)


def new_kernel_templates(graph, nids, simulator):
    """Called before a profile of ``graph``, a function of that profile:
    how many distinct templates among ``nids`` are kernels of it and held
    no kernel time of ``simulator``'s before it — what it priced."""
    memos = {}
    for nid in nids:
        memo = graph.template_memo(nid)
        if simulator._node_key not in memo:
            memos.setdefault(id(memo), []).append(nid)
    return lambda profile: sum(
        any(profile.per_node_ms[nid] > 0 for nid in group)
        for group in memos.values())


def assert_same_profile(profile, oracle):
    assert profile.total_ms.hex() == oracle.total_ms.hex()
    assert profile.folded_nodes == oracle.folded_nodes
    assert {nid: ms.hex() for nid, ms in profile.per_node_ms.items()} == \
        {nid: ms.hex() for nid, ms in oracle.per_node_ms.items()}
    assert profile.kernel_count == oracle.kernel_count


def rewrites(graph, per_rule=2):
    """``(rule name, child)`` for up to ``per_rule`` matches of every
    curated rule, each child a ``graph.copy()`` plus the rewrite."""
    out = []
    for rule in RULES:
        for match in rule.find_matches(graph)[:per_rule]:
            child = rule.apply(graph, match)
            if child is not None:
                out.append((rule.name, child))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_lineage_profiles_equal_the_full_pass_for_every_rule(seed):
    """graphgen seeds × every curated rule, one and two rewrites deep;
    the grandchild's parent is itself a derived profile."""
    graph = joined(seed)
    simulator = E2ESimulator()
    assert_same_profile(simulator.profile(graph), fresh_profile(graph))
    covered, folding = set(), 0
    for name, child in rewrites(graph):
        assert child.delta_parent() is graph
        profile = simulator.profile(child)
        assert_same_profile(profile, fresh_profile(child))
        covered.add(name)
        for name2, grandchild in rewrites(child, per_rule=1):
            assert grandchild.delta_parent() is child
            deep = simulator.profile(grandchild)
            assert_same_profile(deep, fresh_profile(grandchild))
            covered.add(name2)
            folding += len(deep.folded_nodes) != len(profile.folded_nodes)
    assert covered == {rule.name for rule in RULES}
    assert folding, "no rewrite changed what folds"
    assert simulator.latency_ms(graph) == fresh_profile(graph).total_ms


def test_a_child_whose_parent_mutated_takes_the_full_pass():
    """A parent mutated after the copy is no longer a faithful base: the
    child must not start from the parent's new constant-valued set."""
    b = GraphBuilder("stale")
    x = b.input((4, 4), name="x")
    w = b.weight((4, 4), name="w")
    relu = b.relu(w)                      # folds while its input is ``w``
    graph = b.build([b.add(x, relu)])
    simulator = E2ESimulator()
    assert relu in simulator.profile(graph).folded_nodes
    child = graph.copy()
    child.add_node(OpType.RELU, [x])
    graph.rewire_input(relu, 0, x)        # the parent's relu stops folding
    assert relu not in simulator.profile(graph).folded_nodes
    assert child.delta_parent() is None
    profile = simulator.profile(child)
    assert relu in profile.folded_nodes
    assert_same_profile(profile, fresh_profile(child))


@pytest.mark.parametrize("seed", range(2))
def test_a_one_rewrite_child_prices_only_its_added_and_rewired_nodes(
        seed, fresh_templates):
    graph = joined(seed)
    simulator = E2ESimulator()
    count = new_kernel_templates(graph, graph.nodes, simulator)
    profile = simulator.profile(graph)
    assert simulator.nodes_priced == count(profile) \
        < fresh_profile(graph).kernel_count
    for _, child in rewrites(graph):
        before = simulator.nodes_priced
        delta = child.mutation_delta()
        dirty = {nid for nid in delta.added | delta.rewired
                 if nid in child.nodes}
        count = new_kernel_templates(child, dirty, simulator)
        profile = simulator.profile(child)
        kernels = {nid for nid in dirty if profile.per_node_ms[nid] > 0}
        assert simulator.nodes_priced - before == count(profile) \
            <= len(kernels)
        assert len(dirty) < len(child.nodes) // 4
    # Profiled again, a graph prices nothing: its templates are priced.
    before = simulator.nodes_priced
    simulator.profile(graph)
    assert simulator.nodes_priced == before


def kind(spec):
    """What a rewired input must keep for the graph to stay well-typed."""
    return spec.shape.dims, spec.dtype


def test_random_mutation_walks_keep_the_full_pass():
    """Rewires the rules never make: a node's input moved onto a weight
    (it may start folding) or off one (it may stop), three steps deep."""
    rng = np.random.default_rng(0)
    simulator = E2ESimulator()
    for seed in range(6):
        graph = joined(seed)
        simulator.profile(graph)
        for _ in range(3):
            child = graph.copy()
            values = {}
            for nid, node in child.nodes.items():
                if node.op_type is not OpType.OUTPUT:
                    values.setdefault(kind(node.outputs[0]), []).append(nid)
            order = {nid: i for i, nid in enumerate(child.topological_order())}
            moved = 0
            for nid in rng.permutation(sorted(child.nodes)).tolist():
                if moved == 2 or child.nodes[nid].is_source:
                    continue
                for edge in child.in_edges(nid):
                    spec = child.nodes[edge.src].outputs[edge.src_slot]
                    donors = [d for d in values.get(kind(spec), ())
                              if order[d] < order[nid] and d != edge.src]
                    if donors:
                        child.rewire_input(
                            nid, edge.dst_slot,
                            donors[int(rng.integers(len(donors)))])
                        moved += 1
                        break
            assert child.delta_parent() is graph
            assert_same_profile(simulator.profile(child),
                                fresh_profile(child))
            graph = child
