"""The JSON codec is exact: a replica is the original.

Three readers depend on it.  The fingerprint cache keys on
``Graph.structural_hash()`` and its persistent tier stores graphs through
``graph_to_dict``/``graph_from_dict``: if a round-trip perturbed the hash, a
reloaded entry would never match the request that produced it.  And a
search run on a decoded replica (a saved graph, loaded) must be the search run
on the original, so a replica has to agree with it on node ids, iteration
order, attrs *with their types*, output specs and edges — and therefore on
the structural hash, on every cost estimate and on every candidate the
rules enumerate.  The sweeps cover the whole model zoo plus a band of
fuzzer-generated graphs, through real JSON text.
"""

import json
import sys
from pathlib import Path

import pytest
from hash_oracle import oracle_structural_hash

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "exec"))
from graphgen import random_graph  # noqa: E402

from repro.cost import CostModel
from repro.experiments import build_small_model
from repro.ir import GraphBuilder, graph_from_dict, graph_to_dict
from repro.models import MODEL_REGISTRY, build_model
from repro.rules import default_ruleset
from repro.search import TASOOptimizer
from repro.service import request_fingerprint

FUZZ_SEEDS = range(20)


def json_replica(graph):
    """The graph after a hop through JSON text (disk tier, saved file)."""
    return graph_from_dict(json.loads(json.dumps(graph_to_dict(graph))))


def assert_replica(original, replica):
    """The full exactness contract, not just hash equality."""
    assert replica.structural_hash() == original.structural_hash() \
        == oracle_structural_hash(replica)
    assert list(replica.nodes) == list(original.nodes)  # ids, in order
    assert replica.num_edges == original.num_edges
    for nid, node in original.nodes.items():
        twin = replica.nodes[nid]
        assert twin.op_type == node.op_type
        assert twin.name == node.name
        assert twin.attrs == node.attrs
        # 1 == 1.0 == True in Python, and the hash reads str(value): repr
        # tells them, and a tuple from a list, apart at any depth.
        assert repr(twin.attrs) == repr(node.attrs)
        # Every field: shape, dtype, is_constant and name.
        assert twin.outputs == node.outputs
        assert replica.in_edges(nid) == original.in_edges(nid)  # slot order
        assert sorted(replica.out_edges(nid)) == \
            sorted(original.out_edges(nid))
    cm = CostModel()
    assert cm.estimate(replica) == cm.estimate(original)


def assert_one_object_per_spec(replica):
    """Equal specs of one document are one object."""
    specs = [spec for node in replica.nodes.values() for spec in node.outputs]
    assert len({id(spec) for spec in specs}) == len(set(specs))


def assert_same_candidates(original, replica):
    """The rules see the replica as they see the original: same matches in
    the same order, each rewrite the same graph."""
    ruleset = default_ruleset()
    ours = ruleset.all_candidates(original)
    theirs = ruleset.all_candidates(replica)
    assert [c.rule_name for c in ours] == [c.rule_name for c in theirs]
    for a, b in zip(ours, theirs):
        assert a.graph.structural_hash() == b.graph.structural_hash()


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
class TestRegistryRoundTrip:
    def test_full_size_round_trip_preserves_hash(self, name):
        graph = build_model(name)
        assert_replica(graph, json_replica(graph))

    def test_reduced_size_round_trip_survives_json_text(self, name):
        graph = build_small_model(name)
        replica = json_replica(graph)
        assert_replica(graph, replica)
        assert_same_candidates(graph, replica)

    def test_taso_result_round_trip_is_exact(self, name):
        """What the disk tier stores: a search result, ids no longer dense."""
        graph = build_small_model(name)
        result = TASOOptimizer(max_iterations=10).optimise(graph)
        for original in (graph, result.final_graph):
            replica = json_replica(original)
            assert_replica(original, replica)
            assert_one_object_per_spec(replica)

    def test_round_trip_preserves_request_fingerprint(self, name):
        graph = build_small_model(name)
        restored = graph_from_dict(graph_to_dict(graph))
        assert request_fingerprint(restored, "taso", {"max_iterations": 10}) \
            == request_fingerprint(graph, "taso", {"max_iterations": 10})


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_graph_replica_is_exact(seed):
    graph = random_graph(seed=seed, num_ops=16)
    replica = json_replica(graph)
    assert_replica(graph, replica)
    assert_same_candidates(graph, replica)


def test_rewritten_graph_replica_is_exact():
    """A search result (ids no longer dense, dead nodes gone) crosses too —
    it is what a worker sends back."""
    graph = build_small_model("squeezenet")
    for _ in range(3):
        graph = default_ruleset().all_candidates(graph)[0].graph
    replica = json_replica(graph)
    assert_replica(graph, replica)
    assert_same_candidates(graph, replica)


def test_attr_values_keep_their_types():
    builder = GraphBuilder("attrs")
    x = builder.input([1, 8, 8, 8], "x")
    builder.output(builder.maxpool(x, kernel=3, stride=2, padding=1))
    graph = builder.graph
    pool_nid = next(nid for nid, n in graph.nodes.items()
                    if n.op_type.name == "MAXPOOL2D")
    graph.nodes[pool_nid].attrs.update({
        "i": 1, "f": 1.0, "flag": True, "s": "winograd", "t": (1, 2, 3),
        "mixed": (1.0, "x"), "none": None, "nested": (1, (2.0, 3)),
        "listed": [1, (2, 3)],
    })
    attrs = json_replica(graph).nodes[pool_nid].attrs
    assert attrs["i"] == 1 and type(attrs["i"]) is int
    assert attrs["f"] == 1.0 and type(attrs["f"]) is float
    assert attrs["flag"] is True
    assert attrs["s"] == "winograd"
    assert attrs["t"] == (1, 2, 3) and type(attrs["t"]) is tuple
    assert attrs["mixed"] == (1.0, "x") and type(attrs["mixed"]) is tuple
    assert attrs["none"] is None
    assert repr(attrs["nested"]) == "(1, (2.0, 3))"  # tagged at any depth
    assert repr(attrs["listed"]) == "[1, (2, 3)]"
