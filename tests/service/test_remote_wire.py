"""Protocol revision 3 of the remote worker protocol.

A graph travels inline as its ``ir/serialize`` JSON document and both ends
rebuild it validating.  The contract after the hop is what the system
relies on — applied rules, exact cost totals, structural hash equal to a
local run.  Older revisions are refused by name; a document that does not
decode, an unknown method and an over-long line are error objects at the
door, not crashes mid-search.
"""

import asyncio
import copy
import json
import socket

import pytest

from repro.experiments import build_small_model
from repro.ir import graph_to_dict
from repro.models import build_model, list_models
from repro.search.result import SearchResult
from repro.service import (OptimisationService, RemoteWorkerError,
                           WorkerServer, optimise_async, ping_async)
from repro.service import remote
from repro.service.remote import (PROTOCOL_VERSION, request_from_wire,
                                  request_to_wire, result_from_wire,
                                  result_to_wire)
from repro.service.worker import JobRequest, ServiceResult, execute_request

TASO_FAST = {"max_iterations": 6}


@pytest.fixture(scope="module")
def squeezenet():
    return build_model("squeezenet")


@pytest.fixture
def request_(squeezenet):
    return JobRequest(graph=squeezenet, optimiser="taso",
                      config={"max_iterations": 3}, model_name="sq")


@pytest.fixture(scope="module")
def worker_server():
    with WorkerServer(num_workers=2) as server:
        yield server


class _Connection:
    """A raw JSON-RPC connection: what any peer can put on the socket."""

    def __init__(self, endpoint):
        self.sock = socket.create_connection(remote.parse_endpoint(endpoint),
                                             timeout=30)
        self.file = self.sock.makefile("rwb")

    def send_line(self, line: bytes):
        self.file.write(line + b"\n")
        self.file.flush()
        return json.loads(self.file.readline())

    def call(self, method, params=None, call_id=1):
        return self.send_line(json.dumps(
            {"jsonrpc": "2.0", "id": call_id, "method": method,
             "params": params or {}}).encode())

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()
        self.sock.close()


# ---------------------------------------------------------------------------
def test_request_roundtrip(request_):
    params = json.loads(json.dumps(request_to_wire(request_, "fp-1")))
    assert params["protocol"] == PROTOCOL_VERSION == 3
    assert params["request"]["graph"] == graph_to_dict(request_.graph)
    decoded, fingerprint = request_from_wire(params)
    assert fingerprint == "fp-1"
    assert decoded.graph.structural_hash() == \
        request_.graph.structural_hash()
    assert decoded.optimiser == "taso"
    assert decoded.config == {"max_iterations": 3}
    assert decoded.model_name == "sq"
    assert not decoded.use_cache  # caching stays on the service side


def test_result_roundtrip(squeezenet):
    search = SearchResult(
        optimiser="taso", model="sq",
        initial_graph=squeezenet, final_graph=squeezenet,
        initial_latency_ms=2.0, final_latency_ms=1.0,
        initial_cost_ms=2.0, final_cost_ms=0.1 + 0.2,
        optimisation_time_s=0.1, applied_rules=["fuse_conv_bn"],
        stats={"iterations": 3})
    payload = json.loads(json.dumps(result_to_wire(
        ServiceResult(search=search, cache_hit=False, fingerprint="fp-1"))))
    result = result_from_wire(payload, squeezenet)
    assert result.search.initial_graph is squeezenet
    assert result.search.final_graph.structural_hash() == \
        squeezenet.structural_hash()
    assert result.search.final_cost_ms == 0.1 + 0.2  # exact through text
    assert result.search.applied_rules == ["fuse_conv_bn"]
    assert result.fingerprint == "fp-1"


def test_newer_protocol_is_rejected(request_):
    params = request_to_wire(request_)
    params["protocol"] = PROTOCOL_VERSION + 1
    with pytest.raises(ValueError, match="unsupported protocol"):
        request_from_wire(params)


def test_older_revisions_are_refused_by_name(request_):
    """Revision 1 had no protocol field; revision 2 shipped the graph in a
    second, binary format.  Each gets an error that says what is wrong."""
    v1 = {"request": {"graph": graph_to_dict(request_.graph),
                      "optimiser": "taso"},
          "fingerprint": ""}
    with pytest.raises(ValueError, match="unsupported protocol revision 1"):
        request_from_wire(v1)
    v2 = {"protocol": 2,
          "request": {"graph_ref": "fp", "graph_wire": "WEcBAA==",
                      "optimiser": "taso"},
          "fingerprint": "fp"}
    with pytest.raises(ValueError, match="unsupported protocol revision 2"):
        request_from_wire(v2)


# ---------------------------------------------------------------------------
def _shape_contradicted(doc):
    node = next(n for n in doc["nodes"] if n["inputs"])
    node["outputs"][0]["shape"][-1] += 1


def _edge_to_missing_node(doc):
    next(n for n in doc["nodes"] if n["inputs"])["inputs"][0]["src"] = 10 ** 6


def _unknown_op(doc):
    doc["nodes"][-1]["op"] = "NoSuchOp"


BAD_DOCUMENTS = {
    "shape inference contradicts": (_shape_contradicted,
                                    "disagrees with inference"),
    "edge to a missing node": (_edge_to_missing_node,
                               "input from missing node 1000000"),
    "unknown op": (_unknown_op, "NoSuchOp"),
}


class TestInputFromOutside:
    """A wrong request is an error object naming the reason; no search
    runs and the connection stays usable."""

    @pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
    def test_malformed_graph_document(self, worker_server, request_, case):
        corrupt, reason = BAD_DOCUMENTS[case]
        params = request_to_wire(request_)
        corrupt(params["request"]["graph"])
        served = worker_server.jobs_served
        with _Connection(worker_server.endpoint) as conn:
            response = conn.call("optimise", params, call_id=7)
            assert response["id"] == 7 and "result" not in response
            message = response["error"]["message"]
            assert "malformed graph document in request.graph" in message
            assert reason in message
            assert conn.call("ping")["result"]["jobs_served"] == served

    @pytest.mark.parametrize("params, reason", [
        ({"protocol": 2, "request": {"graph_ref": "fp",
                                     "graph_wire": "WEcBAA=="}},
         "unsupported protocol revision 2"),
        ({"protocol": 3, "request": {"optimiser": "taso"}},
         "malformed graph document in request.graph"),
    ])
    def test_undecodable_request(self, worker_server, params, reason):
        served = worker_server.jobs_served
        with _Connection(worker_server.endpoint) as conn:
            response = conn.call("optimise", params)
            assert reason in response["error"]["message"]
            assert conn.call("ping")["result"]["jobs_served"] == served

    def test_shutdown_is_not_a_method(self, worker_server):
        with _Connection(worker_server.endpoint) as conn:
            response = conn.call("shutdown")
            assert "unknown method 'shutdown'" in response["error"]["message"]
            assert conn.call("ping")["result"]["pong"] is True
        assert asyncio.run(ping_async(worker_server.endpoint))["pong"] is True

    def test_over_long_line_is_refused_and_the_connection_closed(
            self, worker_server, request_, monkeypatch):
        monkeypatch.setattr(remote, "_MAX_MESSAGE_BYTES", 4096)
        with _Connection(worker_server.endpoint) as conn:
            # A line within the bound is still served ...
            assert conn.call("ping")["result"]["pong"] is True
            # ... one beyond it is answered without being buffered whole.
            response = conn.send_line(b"x" * 5000)
            assert response["id"] is None
            assert "exceeds 4096 bytes" in response["error"]["message"]
            assert conn.file.readline() == b""  # closed by the server
        # The next call, on a fresh connection, succeeds.
        assert asyncio.run(ping_async(worker_server.endpoint))["pong"] is True
        monkeypatch.undo()
        result = asyncio.run(optimise_async(worker_server.endpoint, request_))
        assert result.search.model == "sq"


class _CorruptingServer(WorkerServer):
    """A worker whose results carry a graph document that does not decode."""

    def _optimise(self, params, notify=None):
        result = super()._optimise(params, notify)
        _unknown_op(result["search"]["final_graph"])
        return result


def test_malformed_response_graph_fails_the_job_not_the_transport(squeezenet):
    with _CorruptingServer(num_workers=1) as server:
        request = JobRequest(graph=squeezenet, optimiser="taso",
                             config=TASO_FAST)
        with pytest.raises(RemoteWorkerError, match="malformed result"):
            asyncio.run(optimise_async(server.endpoint, request))
        with OptimisationService(num_workers=1,
                                 remote_endpoints=[server.endpoint]) as service:
            with pytest.raises(RemoteWorkerError, match="NoSuchOp"):
                service.optimise(squeezenet, "taso", TASO_FAST, timeout=120)
            pool = service.stats()["pool"]
    assert pool["remote_fallbacks"] == 0
    assert pool["dispatched_local"] == 0


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("stream", [False, True], ids=["plain", "stream"])
@pytest.mark.parametrize("name", sorted(list_models()))
def test_remote_equals_local(worker_server, name, stream):
    """``taso`` through a worker returns what ``execute_request`` returns
    in-process: same rules, same exact cost, same graph."""
    graph = build_small_model(name)
    request = JobRequest(graph=graph, optimiser="taso", config=TASO_FAST,
                         model_name=name)
    local = execute_request(copy.deepcopy(request)).search

    def assert_same(search):
        assert search.applied_rules == local.applied_rules
        assert search.final_cost_ms == local.final_cost_ms  # exact
        assert search.final_graph.structural_hash() == \
            local.final_graph.structural_hash()

    events = []
    progress = (lambda *event: events.append(event)) if stream else None
    direct = asyncio.run(optimise_async(worker_server.endpoint, request,
                                        progress=progress))
    assert_same(direct.search)
    assert direct.search.initial_graph is graph
    assert bool(events) == stream

    with OptimisationService(
            num_workers=1,
            remote_endpoints=[worker_server.endpoint]) as service:
        job_id = service.submit(graph, "taso", TASO_FAST, model_name=name,
                                stream=stream)
        streamed = list(service.events(job_id, timeout=120))
        assert_same(service.result(job_id, timeout=120).search)
        pool = service.stats()["pool"]
    assert bool(streamed) == stream
    assert (pool["dispatched_remote"], pool["dispatched_local"],
            pool["remote_fallbacks"]) == (1, 0, 0)
