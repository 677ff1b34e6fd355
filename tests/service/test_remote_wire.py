"""Protocol revision 2 of the remote worker wire format.

Graphs travel as binary wire bytes (base64) tagged with a ``graph_ref``;
a connection ships each graph once and thereafter sends the bare ref.
Revision-1 payloads (JSON ``graph`` dicts) are refused by name, and a ref
the server has never seen must be rejected loudly so the client re-ships.
"""

import json

import pytest

from repro.ir import graph_to_dict
from repro.models import build_model
from repro.search.result import SearchResult
from repro.service import RemoteWorkerClient, WorkerServer
from repro.service.remote import (PROTOCOL_VERSION, graph_ref_for,
                                  request_from_wire, request_to_wire,
                                  result_from_wire, result_to_wire)
from repro.service.worker import JobRequest, ServiceResult


@pytest.fixture(scope="module")
def squeezenet():
    return build_model("squeezenet")


@pytest.fixture
def request_(squeezenet):
    return JobRequest(graph=squeezenet, optimiser="taso",
                      config={"max_iterations": 3}, model_name="sq")


def test_request_roundtrip(request_):
    params = request_to_wire(request_, fingerprint="fp-1")
    assert params["protocol"] == PROTOCOL_VERSION
    decoded, fingerprint = request_from_wire(params)
    assert fingerprint == "fp-1"
    assert decoded.graph.structural_hash() == \
        request_.graph.structural_hash()
    assert decoded.optimiser == "taso"
    assert decoded.config == {"max_iterations": 3}
    assert decoded.model_name == "sq"


def test_graph_ref_prefers_fingerprint(request_):
    assert graph_ref_for(request_, "fp-9") == "fp-9"
    assert graph_ref_for(request_) == request_.graph.structural_hash()


def test_ref_reuse_on_one_connection(request_):
    """Second call with omit_graph resolves from the connection cache."""
    cache = {}
    first = request_to_wire(request_, fingerprint="fp-1")
    request_from_wire(first, graph_cache=cache)
    assert "fp-1" in cache

    second = request_to_wire(request_, fingerprint="fp-1", omit_graph=True)
    assert "graph_wire" not in second["request"]
    decoded, _ = request_from_wire(second, graph_cache=cache)
    assert decoded.graph.structural_hash() == \
        request_.graph.structural_hash()


def test_ref_only_payload_is_much_smaller(request_):
    full = len(json.dumps(request_to_wire(request_)))
    bare = len(json.dumps(request_to_wire(request_, omit_graph=True)))
    assert bare * 10 < full


def test_unknown_ref_is_rejected(request_):
    params = request_to_wire(request_, fingerprint="fp-x", omit_graph=True)
    with pytest.raises(ValueError, match="unknown graph_ref"):
        request_from_wire(params, graph_cache={})
    with pytest.raises(ValueError, match="unknown graph_ref"):
        request_from_wire(params)  # no cache at all


def test_newer_protocol_is_rejected(request_):
    params = request_to_wire(request_)
    params["protocol"] = PROTOCOL_VERSION + 1
    with pytest.raises(ValueError, match="unsupported protocol"):
        request_from_wire(params)


def test_v1_payload_is_refused_by_name(request_):
    """Revision 1 shipped the graph as a JSON dict with no protocol field:
    the worker answers with an error that says what is wrong."""
    params = {
        "request": {
            "graph": graph_to_dict(request_.graph),
            "optimiser": "taso",
            "config": {"max_iterations": 3},
            "model_name": "sq",
        },
        "fingerprint": "",
    }
    with pytest.raises(ValueError, match="unsupported protocol revision 1"):
        request_from_wire(params)
    with WorkerServer(num_workers=1) as server:
        response = server.handle_call(json.dumps(
            {"jsonrpc": "2.0", "id": 7, "method": "optimise",
             "params": params}).encode())
    assert response["id"] == 7 and "result" not in response
    assert "protocol" in response["error"]["message"]


def test_result_roundtrip(squeezenet):
    search = SearchResult(
        optimiser="taso", model="sq",
        initial_graph=squeezenet, final_graph=squeezenet,
        initial_latency_ms=2.0, final_latency_ms=1.0,
        initial_cost_ms=2.0, final_cost_ms=1.0,
        optimisation_time_s=0.1, applied_rules=["fuse_conv_bn"],
        stats={"iterations": 3})
    payload = result_to_wire(ServiceResult(search=search, cache_hit=False,
                                           fingerprint="fp-1"))
    result = result_from_wire(payload, squeezenet)
    assert result.search.final_graph.structural_hash() == \
        squeezenet.structural_hash()
    assert result.search.final_cost_ms == 1.0
    assert result.search.applied_rules == ["fuse_conv_bn"]
    assert result.fingerprint == "fp-1"


def test_client_ships_each_graph_once(request_):
    """End to end over a loopback server: repeat submissions of the same
    graph reuse the connection's graph_ref and return identical results."""
    with WorkerServer(num_workers=1) as server:
        with RemoteWorkerClient(server.endpoint) as client:
            first = client.optimise(request_)
            assert graph_ref_for(request_) in client._shipped_refs
            second = client.optimise(request_)
    assert first.search.final_graph.structural_hash() == \
        second.search.final_graph.structural_hash()
    assert first.search.final_cost_ms == second.search.final_cost_ms
