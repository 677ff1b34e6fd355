"""Round-trip property tests for the binary graph wire format.

A search run on a decoded replica (a remote worker's) must be the search run
on the original, so the codec has to be *exact*: a replica must agree with
the original on node ids, the private id counter, attrs, output specs, edges
— and therefore on the structural hash and on every cost estimate.  These
tests sweep the whole model zoo plus a band of fuzzer-generated graphs to
hold that line as the op registry grows.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "exec"))
from graphgen import random_graph  # noqa: E402

from repro.cost import CostModel
from repro.ir import (GraphBuilder, WireFormatError, decode_graph,
                      encode_graph, roundtrip_equal)
from repro.models import build_model, list_models
from repro.rules import default_ruleset

FUZZ_SEEDS = range(20)


def _assert_replica(original, replica):
    """The full exactness contract, not just hash equality."""
    assert roundtrip_equal(original, replica)
    assert replica.structural_hash() == original.structural_hash()
    assert sorted(replica.nodes) == sorted(original.nodes)
    assert list(replica.nodes) == list(original.nodes)  # iteration order
    assert replica._next_id == original._next_id
    for nid, node in original.nodes.items():
        twin = replica.nodes[nid]
        assert twin.op_type == node.op_type
        assert twin.attrs == node.attrs
        assert [tuple(o.shape.dims) for o in twin.outputs] == \
            [tuple(o.shape.dims) for o in node.outputs]
    cm = CostModel()
    assert cm.estimate(replica) == cm.estimate(original)


@pytest.mark.parametrize("name", sorted(list_models()))
def test_zoo_model_roundtrip(name):
    graph = build_model(name)
    replica = decode_graph(encode_graph(graph), validate=True)
    _assert_replica(graph, replica)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_graph_roundtrip(seed):
    graph = random_graph(seed=seed, num_ops=16)
    replica = decode_graph(encode_graph(graph), validate=True)
    _assert_replica(graph, replica)


def test_id_counter_roundtrips():
    """Replicas allocate the same node ids the original would."""
    graph = build_model("squeezenet")
    replica = decode_graph(encode_graph(graph))
    ruleset = default_ruleset()
    cand_a = ruleset.all_candidates(graph)
    cand_b = ruleset.all_candidates(replica)
    assert [c.rule_name for c in cand_a] == [c.rule_name for c in cand_b]
    for a, b in zip(cand_a, cand_b):
        assert a.graph.structural_hash() == b.graph.structural_hash()
        assert sorted(a.graph.nodes) == sorted(b.graph.nodes)  # same new ids


def test_attr_values_roundtrip():
    builder = GraphBuilder("attrs")
    x = builder.input([1, 8, 8, 8], "x")
    builder.output(builder.maxpool(x, kernel=3, stride=2, padding=1))
    graph = builder.graph
    pool_nid = next(nid for nid, n in graph.nodes.items()
                    if n.op_type.name == "MAXPOOL2D")
    graph.nodes[pool_nid].attrs.update({
        "f": 1.5, "s": "winograd", "flag": True, "t": (1, 2, 3),
        "nested": (1.0, "x"), "none": None,
    })
    replica = decode_graph(encode_graph(graph))
    attrs = replica.nodes[pool_nid].attrs
    assert attrs["f"] == 1.5 and attrs["s"] == "winograd"
    assert attrs["flag"] is True
    assert attrs["t"] == (1, 2, 3) and isinstance(attrs["t"], tuple)
    assert attrs["nested"] == (1.0, "x")
    assert attrs["none"] is None


def test_malformed_payloads_raise():
    graph = build_model("tt")
    payload = encode_graph(graph)
    with pytest.raises(WireFormatError):
        decode_graph(payload[:10])
    with pytest.raises(WireFormatError):
        decode_graph(b"XX" + payload[2:])
    with pytest.raises(WireFormatError):
        decode_graph(payload[:3] + b"\x02" + payload[4:])  # unknown kind


def test_wire_is_compact():
    """The binary codec beats the JSON dict transport it replaces."""
    import json

    from repro.ir import graph_to_dict
    for name in ("squeezenet", "bert"):
        graph = build_model(name)
        wire = len(encode_graph(graph))
        as_json = len(json.dumps(graph_to_dict(graph)))
        assert wire * 2 < as_json, \
            f"{name}: wire {wire}B not <2x JSON {as_json}B"
