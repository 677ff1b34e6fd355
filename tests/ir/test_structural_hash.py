"""Properties of ``Graph.structural_hash``: what must collide, what must not.

The contract: graphs that differ only by node-id relabelling hash equal —
the order in which independent branches were created does not matter,
inputs are positional, equal-shape weights are interchangeable.  Graphs
hash differently unless a node bijection preserves op, attrs, output
shapes, ordered input digests and every node's consumer digests: duplicate
subtrees are interchangeable, but not their *number*, and not which of them
feeds which consumers.
"""

import hashlib
import shutil
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "exec"))
from documents import restate_output  # noqa: E402
from graphgen import random_graph  # noqa: E402
from hash_oracle import oracle_structural_hash  # noqa: E402
from relabel import rebuilt_in_random_order  # noqa: E402

from repro.experiments import build_small_model
from repro.ir import Graph, GraphValidationError, OpType
from repro.ir import graph as graph_module
from repro.ir.ops import OP_REGISTRY, infer_output_spec
from repro.ir.serialize import graph_from_dict, graph_to_dict
from repro.search import TASOOptimizer
from repro.service import OptimisationService


def _input(graph, shape=(2, 4)):
    return graph.add_node(OpType.INPUT, (), {"shape": shape})


def _twins(first, second):
    """Q/K/V style: ``mm(x, W1)`` and ``mm(x, W2)`` — distinct weights, one
    node digest — feeding the unary ops named in ``first`` and ``second``."""
    g = Graph()
    x = _input(g)
    for consumers in (first, second):
        w = g.add_node(OpType.WEIGHT, (), {"shape": (4, 4)})
        mm = g.add_node(OpType.MATMUL, [x, w])
        for op in consumers:
            g.add_node(op, [mm])
    return g


class TestMustBeEqual:
    @pytest.mark.parametrize("seed", range(12))
    def test_branch_creation_order_does_not_matter(self, seed):
        graph = random_graph(seed=seed)
        expected = graph.structural_hash()
        assert expected == oracle_structural_hash(graph)
        relabelled = False
        for shuffle in range(3):
            clone = rebuilt_in_random_order(graph, 100 * seed + shuffle)
            relabelled |= [n.name for n in clone.nodes.values()] != \
                [n.name for n in graph.nodes.values()]
            assert clone.structural_hash() == expected
        assert relabelled  # the permutation was not the identity every time

    def test_two_branches_built_in_either_order(self):
        """The counterexample to the old sort-and-relabel hash."""
        def build(first, second):
            g = Graph()
            x = _input(g)
            branch = {op: g.add_node(op, [x]) for op in (first, second)}
            g.add_node(OpType.ADD, [branch[OpType.RELU], branch[OpType.TANH]])
            return g
        assert build(OpType.RELU, OpType.TANH).structural_hash() == \
            build(OpType.TANH, OpType.RELU).structural_hash()

    def test_equal_shape_weights_are_interchangeable(self):
        def build(swap):
            g = Graph()
            x = _input(g)
            w1 = g.add_node(OpType.WEIGHT, (), {"shape": (4, 4)}, name="w1")
            w2 = g.add_node(OpType.WEIGHT, (), {"shape": (4, 4)}, name="w2")
            if swap:
                w1, w2 = w2, w1
            g.add_node(OpType.MATMUL, [g.add_node(OpType.MATMUL, [x, w1]), w2])
            return g
        assert build(False).structural_hash() == build(True).structural_hash()

    def test_twin_subtrees_with_their_consumers_swapped(self):
        """``mm(x, W1)`` and ``mm(x, W2)`` carrying each other's consumers
        is a relabelling (W1 <-> W2)."""
        assert _twins([OpType.RELU, OpType.TANH], [OpType.RELU]).structural_hash() == \
            _twins([OpType.RELU], [OpType.TANH, OpType.RELU]).structural_hash()

    def test_file_listing_its_rows_in_another_topological_order(self):
        """Producers first is all a document promises: the reader installs
        its nodes in id order whatever order the rows come in."""
        graph = random_graph(seed=1)
        document = graph_to_dict(graph)
        rows = {row[0]: row for row in document["nodes"]}
        waiting = {nid: set(row[3::2]) for nid, row in rows.items()}
        order = []
        while waiting:  # largest ready id first
            nid = max(nid for nid, srcs in waiting.items()
                      if srcs <= set(order))
            order.append(nid)
            del waiting[nid]
        assert order != sorted(order)
        document["nodes"] = [rows[nid] for nid in order]
        loaded = graph_from_dict(document)
        assert list(loaded.nodes) == list(graph.nodes)
        assert loaded.structural_hash() == graph.structural_hash() \
            == oracle_structural_hash(loaded)


class TestMustDiffer:
    def test_shared_node_vs_two_copies(self):
        """A sink-only Merkle hash cannot tell these apart — and would drop
        every merge/CSE rewrite as already seen."""
        shared = Graph()
        r = shared.add_node(OpType.RELU, [_input(shared)])
        shared.add_node(OpType.ADD, [r, r])
        twice = Graph()
        x = _input(twice)
        twice.add_node(OpType.ADD, [twice.add_node(OpType.RELU, [x]),
                                    twice.add_node(OpType.RELU, [x])])
        assert shared.structural_hash() != twice.structural_hash()

    def test_twin_subtrees_with_different_fan_out(self):
        """Same multiset of node digests, different computations: which of
        two equal-digest producers feeds which consumers."""
        mixed = _twins([OpType.RELU, OpType.TANH], [OpType.RELU])
        sorted_ = _twins([OpType.RELU, OpType.RELU], [OpType.TANH])
        assert mixed.num_nodes == sorted_.num_nodes
        assert mixed.structural_hash() != sorted_.structural_hash()
        assert oracle_structural_hash(mixed) != oracle_structural_hash(sorted_)

    def test_operand_order(self):
        def build(flip):
            g = Graph()
            a = g.add_node(OpType.RELU, [_input(g)])
            b = g.add_node(OpType.TANH, [_input(g)])
            g.add_node(OpType.SUB, [b, a] if flip else [a, b])
            return g
        assert build(False).structural_hash() != build(True).structural_hash()

    def test_same_shape_inputs_swapped(self):
        def build(flip):
            g = Graph()
            a, b = _input(g), _input(g)
            g.add_node(OpType.SUB, [b, a] if flip else [a, b])
            return g
        assert build(False).structural_hash() != build(True).structural_hash()

    def test_one_attr_changed(self):
        def build(axis):
            g = Graph()
            g.add_node(OpType.SOFTMAX, [_input(g)], {"axis": axis})
            return g
        assert build(0).structural_hash() != build(1).structural_hash()

    def test_one_output_shape_changed(self):
        def build(shape):
            g = Graph()
            g.add_node(OpType.RELU, [_input(g, shape)])
            return g
        assert build((2, 4)).structural_hash() != \
            build((4, 2)).structural_hash()

    def test_src_slot_of_a_multi_output_op(self):
        def build(slot):
            g = Graph()
            split = g.add_node(OpType.SPLIT, [_input(g)],
                               {"axis": 0, "parts": 2})
            g.add_node(OpType.RELU, [(split, slot)])
            return g
        assert build(0).structural_hash() != build(1).structural_hash()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_cycle_is_reported_not_looped_on(warm, cold_tables):
    def build():
        g = Graph()
        a = g.add_node(OpType.RELU, [_input(g)])
        return g, a, g.add_node(OpType.RELU, [a])
    if warm:  # every payload but the cycle's own is in the digest table
        build()[0].structural_hash()
    g, a, b = build()
    g.rewire_input(a, 0, b)
    with pytest.raises(GraphValidationError):
        g.structural_hash()


# ---------------------------------------------------------------------------
#: The serving catalogue's models (``xbench.workloads.CATALOGUE_MODELS``).
CATALOGUE = ("bert", "squeezenet", "vit", "inception_v3", "dalle",
             "resnext50", "tt", "resnet18")

#: Fresh graphs every call: no hash memo.
BUILDERS = [lambda seed=seed: random_graph(seed=seed) for seed in range(8)] \
    + [lambda name=name: build_small_model(name) for name in CATALOGUE]


def _tagged(value):
    g = Graph()
    g.add_node(OpType.RELU, [_input(g)], {"tag": value})
    return g


def _clear_tables():
    graph_module._TEMPLATES.clear()
    graph_module._PREFIX_INTERN.clear()
    graph_module._DIGESTS.clear()


def _inferred(graph):
    """Every node's output specs as the pure ``infer_output_spec`` gives
    them, from the node's current input specs."""
    return {nid: [infer_output_spec(node.op_type, graph.input_specs(nid),
                                    node.attrs, slot)
                  for slot in range(OP_REGISTRY[node.op_type].num_outputs)]
            for nid, node in graph.nodes.items()}


def _outputs(graph):
    return {nid: list(node.outputs) for nid, node in graph.nodes.items()}


def _checked_hash(graph):
    """``graph``'s digest, after holding it, every node's output specs and
    the digest of the graph's ``graph_from_dict`` twin (whose nodes take the
    lazy payload path) to the oracles."""
    assert _outputs(graph) == _inferred(graph)
    twin = graph_from_dict(graph_to_dict(graph), validate=False)
    assert twin.structural_hash() == oracle_structural_hash(twin)
    digest = graph.structural_hash()
    assert digest == oracle_structural_hash(graph)
    return digest


class _CountingTable(dict):
    """A template table that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def _counted(monkeypatch, name):
    """Replace ``ir.graph.<name>`` with a wrapper; returns its call list."""
    calls = []
    real = getattr(graph_module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graph_module, name, wrapper)
    return calls


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty process-wide tables for one test (the test's own, restored
    after it)."""
    for name in ("_TEMPLATES", "_PREFIX_INTERN", "_DIGESTS"):
        monkeypatch.setattr(graph_module, name, {})


@pytest.mark.usefixtures("cold_tables")
class TestPrefixInterning:
    """The three process-wide tables behind a node digest — the node
    templates ``add_node`` reads (output specs and payload), the payloads
    of nodes made otherwise (``_hash_prefix``) and the digests of payloads
    a whole-graph pass hashed before (``_DIGESTS``) — may make a digest or
    an inference cheaper, never different: not by being cold or warm, not
    by what was built or hashed before, not by being full."""

    def test_cold_warm_and_reversed_order_all_match_the_oracle(self):
        expected = [oracle_structural_hash(build()) for build in BUILDERS]
        _clear_tables()
        cold = [_checked_hash(build()) for build in BUILDERS]
        # The pass above filled all three.
        assert graph_module._TEMPLATES and graph_module._PREFIX_INTERN \
            and graph_module._DIGESTS
        warm = [_checked_hash(build()) for build in BUILDERS]
        _clear_tables()
        backwards = [_checked_hash(build())
                     for build in reversed(BUILDERS)][::-1]
        assert cold == warm == backwards == expected

    @pytest.mark.parametrize("first, second", [
        (1, 1.0), (1, True), (1.0, True), (0.0, -0.0),
        ((1, (2, 3)), (1, (2.0, 3))), ([1, 2], (1, 2)), ((0.0,), (-0.0,)),
    ], ids=repr)
    def test_values_equal_in_python_but_not_as_text_stay_apart(
            self, first, second):
        assert first == second or list(first) == list(second)
        one_way = (_checked_hash(_tagged(first)),
                   _checked_hash(_tagged(second)))
        assert len(graph_module._TEMPLATES) == 3  # the input, two relus
        _clear_tables()
        other_way = (_checked_hash(_tagged(second)),
                     _checked_hash(_tagged(first)))[::-1]
        assert one_way == other_way == (
            oracle_structural_hash(_tagged(first)),
            oracle_structural_hash(_tagged(second)))
        assert one_way[0] != one_way[1]

    def test_two_threads_building_the_catalogue_agree_with_the_oracle(self):
        graphs = [build_small_model(name) for name in CATALOGUE]
        expected = [(oracle_structural_hash(g), _inferred(g)) for g in graphs]
        _clear_tables()
        got = {}

        def worker(tid):
            # Twice over: the second round reads digests either thread
            # may have stored.
            got[tid] = [(g.structural_hash(), _outputs(g)) for g in (
                build_small_model(name) for name in CATALOGUE * 2)]

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave lookups and stores
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {0: expected * 2, 1: expected * 2}
        assert graph_module._DIGESTS

    def test_tables_stop_growing_at_their_bound(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_TEMPLATES_MAX", 5)
        monkeypatch.setattr(graph_module, "_PREFIX_INTERN_MAX", 5)
        monkeypatch.setattr(graph_module, "_DIGESTS_MAX", 5)
        for name in ("bert", "squeezenet", "bert"):
            _checked_hash(build_small_model(name))
            assert len(graph_module._TEMPLATES) == 5
            assert len(graph_module._PREFIX_INTERN) == 5
            assert len(graph_module._DIGESTS) == 5

    @pytest.mark.parametrize("known", [True, False],
                             ids=["known-template", "unknown-template"])
    def test_refresh_shapes_drops_a_stale_prefix(self, known):
        def build():
            g = Graph()
            return g, g.add_node(OpType.RELU, [_input(g)])
        g, relu = build()
        data = graph_to_dict(g)
        restate_output(data, relu, [3, 3])
        g = graph_from_dict(data, validate=False)
        stale = g.structural_hash()  # memoises the (3, 3) text on the node
        if not known:
            _clear_tables()
        g.refresh_shapes()
        assert (g.nodes[relu]._hash_prefix is not None) == known
        assert _outputs(g) == _inferred(g)
        assert g.structural_hash() == build()[0].structural_hash() \
            == oracle_structural_hash(g) != stale

    def test_a_warm_build_renders_nothing_and_looks_each_node_up_once(
            self, monkeypatch):
        """The build pays for the payload only with the one lookup shape
        inference makes per node anyway: a warm build renders no payload,
        and neither does its hash."""
        model = build_small_model("bert")
        table = _CountingTable(graph_module._TEMPLATES)
        monkeypatch.setattr(graph_module, "_TEMPLATES", table)
        rendered = _counted(monkeypatch, "_render_prefix")
        lazy = _counted(monkeypatch, "_hash_prefix")
        clone = rebuilt_in_random_order(model, 0)  # add_node alone
        assert table.lookups == len(clone.nodes)
        table.lookups = 0
        graph = build_small_model("bert")
        assert table.lookups == len(graph.nodes)  # build() re-checks nothing
        table.lookups = 0
        assert graph.structural_hash() == clone.structural_hash() \
            == oracle_structural_hash(graph)
        assert table.lookups == 0
        assert not rendered and not lazy
        assert len(table) == len(graph_module._TEMPLATES)

    def test_a_cold_build_renders_each_distinct_template_once(
            self, monkeypatch):
        rendered = _counted(monkeypatch, "_render_prefix")
        graph = build_small_model("bert")
        distinct = {(node.op_type, tuple(graph.input_specs(nid)),
                     repr(node.attrs))
                    for nid, node in graph.nodes.items()}
        assert len(rendered) == len(graph_module._TEMPLATES) == len(distinct)
        assert len(distinct) < len(graph.nodes)
        assert not graph_module._PREFIX_INTERN

    def test_graph_from_dict_renders_nothing(self, monkeypatch):
        """Nodes not made by ``add_node`` leave the payload to the first
        hash, warm table or cold: ``validate()`` only reads the templates."""
        data = graph_to_dict(build_small_model("bert"))
        rendered = _counted(monkeypatch, "_render_prefix")
        templates = len(graph_module._TEMPLATES)
        for _ in ("warm", "cold"):
            restored = graph_from_dict(data)
            assert not rendered and not graph_module._PREFIX_INTERN
            assert len(graph_module._TEMPLATES) == templates
            assert all(node._hash_prefix is None
                       for node in restored.nodes.values())
            _clear_tables()
            templates = 0


# ---------------------------------------------------------------------------
def _rewired_backwards():
    """A graph whose ascending id order lists consumers before their
    producers: ``r0 -> r1 -> r2 -> sub`` rewired to read ``t0 -> t1 -> t2``,
    built after them, and ``sub`` reading ``t1`` and ``t2`` — a chain of
    nodes that wait for a newer producer, one of them twice."""
    g = Graph()
    x = _input(g)
    r0 = g.add_node(OpType.RELU, [x])
    r1 = g.add_node(OpType.RELU, [r0])
    g.add_node(OpType.RELU, [r1])
    sub = g.add_node(OpType.SUB, [x, x])
    t0 = g.add_node(OpType.TANH, [x])
    t1 = g.add_node(OpType.TANH, [t0])
    t2 = g.add_node(OpType.TANH, [t1])
    g.rewire_input(r0, 0, t2)
    g.rewire_input(sub, 0, t2)
    g.rewire_input(sub, 1, t1)
    return g


def _waits(graph):
    """Whether some node reads a producer with a larger id."""
    return any(src > dst for nid in graph.nodes
               for src, dst, _, _ in graph.in_edges(nid))


@pytest.fixture(scope="module")
def taso_document():
    """A TASO result as a disk entry stores it: its fused nodes are newer
    than the consumers rewired to them."""
    result = TASOOptimizer(max_iterations=5).optimise(
        build_small_model("squeezenet"))
    assert result.applied_rules
    return graph_to_dict(result.final_graph)


#: A disk entry written before node digests were memoised (``taso``,
#: ``{"max_iterations": 3}`` on reduced squeezenet), and its final graph's
#: digest then.
OLD_ENTRY = Path(__file__).resolve().parent / "data" / (
    "788e50876717c2b946a5722695ea30c45634829e7962028c74829cf9cafcb7bd.json")
OLD_FINAL_DIGEST = \
    "b1641434b86430920500b24f325865d7935516bf72026a226d61ef4489576b80"


@pytest.mark.usefixtures("cold_tables")
class TestDigestTable:
    """A whole-graph pass reads and fills ``_DIGESTS`` (payload bytes ->
    their blake2b): a repeat costs lookups, never a different digest —
    whether the table is empty, holds this graph's payloads or another
    graph's, and whichever order the walk meets the nodes in."""

    CASES = [*CATALOGUE, "taso-decoded", "structure", "rewired-backwards"]

    def _builder(self, case, taso_document):
        """A fresh, memo-free graph of ``case`` per call."""
        if case == "taso-decoded":
            return lambda: graph_from_dict(taso_document, validate=False)
        if case == "structure":
            model = build_small_model("vit")
            return model.structure
        if case == "rewired-backwards":
            return _rewired_backwards
        return lambda: build_small_model(case)

    @pytest.mark.parametrize("case", CASES)
    def test_empty_same_and_other_filled_tables_give_the_oracle(
            self, case, taso_document):
        build = self._builder(case, taso_document)
        if case in ("taso-decoded", "rewired-backwards"):
            assert _waits(build())
        expected = oracle_structural_hash(build())
        _clear_tables()
        assert not graph_module._DIGESTS
        assert build().structural_hash() == expected  # empty
        assert graph_module._DIGESTS
        assert build().structural_hash() == expected  # filled by itself
        _clear_tables()
        other = "resnet18" if case == "bert" else "bert"
        build_small_model(other).structural_hash()
        assert build().structural_hash() == expected  # filled by another

    def test_a_repeat_hashes_no_node_payload(self, monkeypatch):
        """Only the fan-out terms, which the table does not hold, call
        blake2b when a graph is hashed the second time."""
        build_small_model("bert").structural_hash()
        calls = []
        real = hashlib.blake2b

        def counting(data, **kwargs):
            calls.append(kwargs.get("person"))
            return real(data, **kwargs)

        graph = build_small_model("bert")
        expected = oracle_structural_hash(graph)
        monkeypatch.setattr(hashlib, "blake2b", counting)
        assert graph.structural_hash() == expected
        assert calls and set(calls) == {b"fanout"}

    def test_a_candidates_cone_leaves_the_table_alone(self):
        parent = build_small_model("bert")
        parent.structural_hash()
        stored = dict(graph_module._DIGESTS)
        child = parent.copy()
        gelu = next(nid for nid, node in child.nodes.items()
                    if node.op_type is OpType.GELU)
        (src, _, slot, _), = child.in_edges(gelu)
        child.rewire_input(gelu, 0, child.add_node(OpType.TANH, [(src, slot)]))
        assert child.delta_parent() is parent
        assert child.structural_hash() == oracle_structural_hash(child)
        assert graph_module._DIGESTS == stored

    def test_same_shape_inputs_stay_apart_when_the_table_is_warm(self):
        def build(flip):
            g = Graph()
            a, b = _input(g), _input(g)
            g.add_node(OpType.SUB, [b, a] if flip else [a, b])
            return g, a, b
        for flip in (False, True, False, True):  # the second round is warm
            g, a, b = build(flip)
            table = g._digests()[0]
            assert table[a] != table[b]
            assert g.structural_hash() == oracle_structural_hash(g)
        assert build(False)[0].structural_hash() != \
            build(True)[0].structural_hash()

    def test_an_entry_written_before_the_table_is_still_a_hit(self, tmp_path):
        shutil.copy(OLD_ENTRY, tmp_path)
        with OptimisationService(num_workers=1, cache_dir=tmp_path) as service:
            result = service.optimise(build_small_model("squeezenet"), "taso",
                                      {"max_iterations": 3},
                                      model_name="squeezenet")
            cache = service.stats()["cache"]
        assert result.cache_hit
        assert cache["persistent_hits"] == 1 and cache["misses"] == 0
        assert [path.name for path in tmp_path.glob("*.json")] \
            == [OLD_ENTRY.name]
        assert result.graph.structural_hash() == OLD_FINAL_DIGEST \
            == oracle_structural_hash(result.graph)
