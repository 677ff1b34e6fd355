"""Minimal JSON-RPC worker protocol: run searches on another box.

The protocol is deliberately tiny — newline-delimited JSON-RPC 2.0 over a
plain TCP socket, one JSON document per line::

    → {"jsonrpc": "2.0", "id": 1, "method": "optimise",
       "params": {"protocol": 3, "request": {"graph": {...}, ...},
                  "fingerprint": "..."}}
    ← {"jsonrpc": "2.0", "id": 1, "result": {"search": {...}}}

Two methods:

* ``ping`` — liveness/identity probe; returns the worker's capacity,
  jobs served, and **jobs currently in flight** — the load signal the
  health-aware dispatcher routes on.
* ``optimise`` — run one search job; params carry the serialised
  :class:`~repro.service.worker.JobRequest` (the graph inline as its
  :func:`~repro.ir.serialize.graph_to_dict` document) and the
  admission-time fingerprint.  The response carries the search outcome
  *without* the initial graph — the caller already holds it and
  rehydrates locally, which keeps the payload proportional to the
  optimised graph only.  When the params carry
  ``"stream": true`` the server interleaves JSON-RPC *notification*
  frames (``"method": "event"``, no id) ahead of the final response —
  one per optimiser iteration — so callers can follow a long search's
  progress live.

Both ends rebuild a graph with :func:`~repro.ir.serialize.graph_from_dict`
at its validating default: a document that came off a socket is checked
(known ops, resolvable edges, stored shapes agreeing with inference) before
anything searches it.

Pieces:

* :class:`WorkerServer` — threaded TCP server hosting the optimiser
  registry; start one per worker box (``python -m repro.service
  --worker-server HOST:PORT``).
* :func:`optimise_async` / :func:`ping_async` — the client: the
  coroutines :class:`~repro.service.async_pool.AsyncWorkerPool` awaits,
  many at once on one event loop (a script calls them through
  ``asyncio.run``).

Failures inside the remote search — and requests that do not decode —
come back as JSON-RPC error objects and re-raise as
:class:`RemoteWorkerError` on the caller, as does a result that does not
decode; transport failures (connection refused, dropped mid-call) raise
:class:`RemoteUnavailableError` so callers can distinguish "the search is broken" from "the box is gone"
and fall back to local execution.
"""

from __future__ import annotations

import asyncio
import functools
import json
import socketserver
import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..ir.graph import Graph
from ..ir.serialize import graph_from_dict, graph_to_dict
from ..search.result import SearchResult
from .worker import JobRequest, ServiceResult, execute_request

__all__ = ["WorkerServer", "RemoteWorkerError", "RemoteUnavailableError",
           "optimise_async", "ping_async", "parse_endpoint",
           "request_to_wire", "request_from_wire", "result_to_wire",
           "result_from_wire"]

#: Version stamp of the protocol; servers reject requests of any other
#: revision by name rather than mis-decoding them.  Revision 3 carries a
#: graph inline as its :mod:`repro.ir.serialize` JSON document
#: (``request.graph``, ``search.final_graph``).  Revisions 1 (no
#: ``protocol`` field) and 2 (a second, binary graph format) are no longer
#: spoken.
PROTOCOL_VERSION = 3

#: Upper bound on one newline-delimited message (request or response),
#: enforced by both the server's and the client's reader.
#: Serialised graphs grow with the model; 64 MiB is ~700x the largest
#: zoo graph today (inception_v3, 94 KB).
_MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class RemoteWorkerError(RuntimeError):
    """The remote worker received the job but failed to execute it."""


class RemoteUnavailableError(ConnectionError):
    """The remote worker could not be reached (or vanished mid-call)."""


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (host optional, defaults to localhost).

    Args:
        endpoint: ``"host:port"`` or bare ``"port"``.

    Returns:
        ``(host, port)``.

    Raises:
        ValueError: If the port is missing or not an integer.
    """
    host, _, port = str(endpoint).rpartition(":")
    if not port or not port.isdigit():
        raise ValueError(f"endpoint must be HOST:PORT, got {endpoint!r}")
    return host or "127.0.0.1", int(port)


# -- wire encoding ------------------------------------------------------
#: What decoding a document of the wrong shape can raise.
_DECODE_ERRORS = (LookupError, TypeError, ValueError, AttributeError)


def _graph_from_wire(document: Any, where: str) -> Graph:
    """Rebuild and validate a graph document that came off a socket.

    Raises:
        ValueError: Naming ``where`` and the reason, whatever the document
            got wrong (unknown op, edge to a missing node, a stored shape
            that inference contradicts, not a document at all).
    """
    try:
        return graph_from_dict(document)
    except _DECODE_ERRORS as exc:
        raise ValueError(
            f"malformed graph document in {where}: {exc!r}") from exc


def request_to_wire(request: JobRequest,
                    fingerprint: str = "") -> Dict[str, Any]:
    """Serialise a :class:`JobRequest` for the ``optimise`` params."""
    return {
        "protocol": PROTOCOL_VERSION,
        "request": {
            "optimiser": request.optimiser,
            "config": dict(request.config),
            "model_name": request.model_name,
            "graph": graph_to_dict(request.graph),
        },
        "fingerprint": fingerprint,
    }


def request_from_wire(params: Mapping[str, Any]) -> Tuple[JobRequest, str]:
    """Decode ``optimise`` params back into a request + fingerprint.

    Raises:
        ValueError: If the params were produced by another protocol
            revision, or the graph document is missing or malformed.
    """
    revision = params.get("protocol", 1)
    if revision != PROTOCOL_VERSION:
        raise ValueError(
            f"unsupported protocol revision {revision} "
            f"(this worker speaks revision {PROTOCOL_VERSION})")
    data = params["request"]
    request = JobRequest(
        graph=_graph_from_wire(data.get("graph"), "request.graph"),
        optimiser=data.get("optimiser", "taso"),
        config=dict(data.get("config", {})),
        model_name=data.get("model_name", ""),
        use_cache=False,  # caching happens on the service side
    )
    return request, params.get("fingerprint", "")


def result_to_wire(result: ServiceResult) -> Dict[str, Any]:
    """Serialise a worker-side result, omitting the initial graph."""
    search = result.search
    return {
        "search": {
            "optimiser": search.optimiser,
            "model": search.model,
            "final_graph": graph_to_dict(search.final_graph),
            "initial_latency_ms": search.initial_latency_ms,
            "final_latency_ms": search.final_latency_ms,
            "initial_cost_ms": search.initial_cost_ms,
            "final_cost_ms": search.final_cost_ms,
            "optimisation_time_s": search.optimisation_time_s,
            "applied_rules": list(search.applied_rules),
            "stats": dict(search.stats),
        },
        "fingerprint": result.fingerprint,
    }


def result_from_wire(payload: Mapping[str, Any],
                     initial_graph: Graph) -> ServiceResult:
    """Rehydrate a wire result against the caller's own initial graph.

    Raises:
        ValueError: If the result's graph document is malformed.
    """
    data = payload["search"]
    search = SearchResult(
        optimiser=data["optimiser"],
        model=data["model"],
        initial_graph=initial_graph,
        final_graph=_graph_from_wire(data.get("final_graph"),
                                     "search.final_graph"),
        initial_latency_ms=float(data["initial_latency_ms"]),
        final_latency_ms=float(data["final_latency_ms"]),
        initial_cost_ms=float(data["initial_cost_ms"]),
        final_cost_ms=float(data["final_cost_ms"]),
        optimisation_time_s=float(data["optimisation_time_s"]),
        applied_rules=list(data.get("applied_rules", [])),
        stats=dict(data.get("stats", {})),
    )
    return ServiceResult(search=search, cache_hit=False,
                         fingerprint=payload.get("fingerprint", ""))


# -- server -------------------------------------------------------------
def _error_response(call_id: Any, exc: Exception) -> Dict[str, Any]:
    return {"jsonrpc": "2.0", "id": call_id,
            "error": {"code": -32000, "message": repr(exc)}}


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: many newline-delimited JSON-RPC calls."""

    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        server: "WorkerServer" = self.server.owner  # type: ignore[attr-defined]

        def send(frame: Dict[str, Any]) -> None:
            # Interleaved event frames are written from the same
            # connection thread that runs the search, so they can never
            # tear against the final response.
            self.wfile.write(json.dumps(frame).encode() + b"\n")
            self.wfile.flush()

        while not server.stopping:
            line = self.rfile.readline(_MAX_MESSAGE_BYTES + 1)
            if not line:
                break
            if len(line) > _MAX_MESSAGE_BYTES:
                # The rest of the line is unread, so the stream cannot be
                # resynchronised: answer and close this connection.
                send(_error_response(None, ValueError(
                    f"message exceeds {_MAX_MESSAGE_BYTES} bytes")))
                break
            line = line.strip()
            if line:
                send(server.handle_call(line, notify=send))


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class WorkerServer:
    """Serve the optimiser registry over the JSON-RPC worker protocol.

    One server turns a box into a search worker: every connection can issue
    any number of ``optimise`` calls, each executed in the connection's own
    thread, with total concurrency bounded by ``num_workers`` (excess calls
    queue on a semaphore).

    Args:
        host: Interface to bind (default loopback; bind ``"0.0.0.0"`` to
            serve off-box traffic).
        port: TCP port; ``0`` picks a free one (see :attr:`endpoint`).
        num_workers: Maximum concurrently executing searches.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 num_workers: int = 4):
        self.num_workers = max(1, int(num_workers))
        self._slots = threading.Semaphore(self.num_workers)
        self._server = _ThreadedTCPServer((host, port), _RequestHandler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self.stopping = False
        self.jobs_served = 0
        #: Searches admitted but not yet finished — queued on the
        #: semaphore *or* executing.  Reported by ``ping`` so dispatchers
        #: can see load this server's caller did not create.
        self.jobs_inflight = 0
        self._served_lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        """The bound ``"host:port"`` (with the real port when 0 was asked)."""
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    # -- dispatch ------------------------------------------------------
    def handle_call(self, raw: bytes,
                    notify: Optional[Callable[[Dict[str, Any]], None]] = None,
                    ) -> Dict[str, Any]:
        """Execute one JSON-RPC request line; always returns a response.

        ``notify`` — when given — lets streaming methods write JSON-RPC
        notification frames to the connection ahead of the response.
        """
        call_id: Any = None
        try:
            call = json.loads(raw)
            call_id = call.get("id")
            method = call.get("method")
            params = call.get("params") or {}
            if method == "ping":
                result: Dict[str, Any] = {"pong": True,
                                          "workers": self.num_workers,
                                          "capacity": self.num_workers,
                                          "jobs_served": self.jobs_served,
                                          "jobs_inflight": self.jobs_inflight}
            elif method == "optimise":
                result = self._optimise(params, notify)
            else:
                raise ValueError(f"unknown method {method!r}")
        except Exception as exc:
            return _error_response(call_id, exc)
        return {"jsonrpc": "2.0", "id": call_id, "result": result}

    def _optimise(self, params: Mapping[str, Any],
                  notify: Optional[Callable[[Dict[str, Any]], None]] = None,
                  ) -> Dict[str, Any]:
        request, fingerprint = request_from_wire(params)
        progress: Optional[Callable[[int, float, str], None]] = None
        if params.get("stream") and notify is not None:
            def progress(iteration: int, best_cost: float,
                         best_graph_fp: str) -> None:
                notify({"jsonrpc": "2.0", "method": "event",
                        "params": {"iteration": int(iteration),
                                   "best_cost": float(best_cost),
                                   "best_graph_fp": str(best_graph_fp),
                                   "timestamp": time.time()}})
        with self._served_lock:
            self.jobs_inflight += 1
        try:
            with self._slots:
                outcome = execute_request(request, fingerprint,
                                          progress=progress)
        finally:
            with self._served_lock:  # connection threads run concurrently
                self.jobs_inflight -= 1
        with self._served_lock:
            self.jobs_served += 1
        return result_to_wire(outcome)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerServer":
        """Serve in a background thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-worker-server",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        self._server.serve_forever()

    def stop(self) -> None:
        """Stop accepting connections and release the socket."""
        self.stopping = True
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# -- client -------------------------------------------------------------
def _relay_event(progress: Callable[[int, float, str], None],
                 params: Mapping[str, Any]) -> None:
    """Forward one wire ``event`` frame to a progress callback.

    A malformed or failing event must never poison the search result it
    rides alongside, so errors are swallowed here.
    """
    try:
        progress(int(params.get("iteration", 0)),
                 float(params.get("best_cost", 0.0)),
                 str(params.get("best_graph_fp", "")))
    except Exception:
        pass


async def _call_async(endpoint: str, method: str, params: Mapping[str, Any],
                      on_event: Optional[
                          Callable[[Mapping[str, Any]], None]] = None,
                      timeout_s: Optional[float] = None) -> Any:
    """One JSON-RPC round trip on a fresh connection; returns ``result``.

    A connection per call keeps the pool stateless: the event loop
    multiplexes many of these concurrently.  ``on_event`` receives the
    params of every ``event`` notification interleaved ahead of the
    response; ``timeout_s`` bounds the connect and each read.
    """
    host, port = parse_endpoint(endpoint)
    try:
        # asyncio's default StreamReader limit is 64 KiB, below a
        # serialised zoo graph: raise it so readline() can hold one
        # response document.
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=_MAX_MESSAGE_BYTES),
            timeout=timeout_s)
    except (OSError, asyncio.TimeoutError) as exc:
        raise RemoteUnavailableError(
            f"cannot reach worker at {endpoint}: {exc}") from exc
    try:
        call = {"jsonrpc": "2.0", "id": 1, "method": method,
                "params": params}
        writer.write(json.dumps(call).encode() + b"\n")
        await writer.drain()
        while True:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=timeout_s)
            if not line:
                raise RemoteUnavailableError(
                    f"worker at {endpoint} closed the connection")
            message = json.loads(line)
            if message.get("method") != "event":
                break
            if on_event is not None:
                on_event(message.get("params") or {})
    except (OSError, asyncio.TimeoutError) as exc:
        raise RemoteUnavailableError(
            f"worker at {endpoint} dropped: {exc}") from exc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:  # pragma: no cover - teardown race
            pass
    if "error" in message:
        raise RemoteWorkerError(message["error"].get("message", "error"))
    return message.get("result")


async def optimise_async(endpoint: str, request: JobRequest,
                         fingerprint: str = "",
                         progress: Optional[
                             Callable[[int, float, str], None]] = None,
                         ) -> ServiceResult:
    """Run one search on the worker at ``endpoint``; rehydrate the result.

    ``progress`` — when given — requests streaming and receives every
    interleaved ``event`` frame as ``progress(iteration, best_cost,
    best_graph_fp)``.

    Raises:
        RemoteWorkerError: If the worker returned an error object, or a
            result that does not decode into a valid graph.
        RemoteUnavailableError: On any transport failure.
    """
    params = request_to_wire(request, fingerprint)
    on_event = None
    if progress is not None:
        params["stream"] = True
        on_event = functools.partial(_relay_event, progress)
    payload = await _call_async(endpoint, "optimise", params, on_event)
    try:
        return result_from_wire(payload, request.graph)
    except _DECODE_ERRORS as exc:
        raise RemoteWorkerError(
            f"worker at {endpoint} returned a malformed result: "
            f"{exc!r}") from exc


async def ping_async(endpoint: str, timeout_s: float = 5.0) -> Dict[str, Any]:
    """The health-aware dispatcher's probe: the worker's ``ping`` payload
    (capacity, jobs served, jobs in flight).

    Raises:
        RemoteUnavailableError: On any transport failure or timeout.
        RemoteWorkerError: If the worker returned an error object.
    """
    return dict(await _call_async(endpoint, "ping", {},
                                  timeout_s=timeout_s) or {})
