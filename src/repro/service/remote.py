"""Minimal JSON-RPC worker protocol: run searches on another box.

The wire format is deliberately tiny — newline-delimited JSON-RPC 2.0 over a
plain TCP socket, one JSON document per line::

    → {"jsonrpc": "2.0", "id": 1, "method": "optimise",
       "params": {"request": {...}, "fingerprint": "..."}}
    ← {"jsonrpc": "2.0", "id": 1, "result": {"search": {...}}}

Three methods:

* ``ping`` — liveness/identity probe; returns the worker's capacity,
  jobs served, and **jobs currently in flight** — the load signal the
  health-aware dispatcher routes on.
* ``optimise`` — run one search job; params carry the serialised
  :class:`~repro.service.worker.JobRequest` (graph as base64-wrapped
  binary wire bytes, :mod:`repro.ir.wire`; repeat calls on the same
  connection send only a cached ``graph_ref``) and the admission-time
  fingerprint.  The
  response carries the search outcome *without* the initial graph — the
  caller already holds it and rehydrates locally, which keeps the payload
  proportional to the optimised graph only.  When the params carry
  ``"stream": true`` the server interleaves JSON-RPC *notification*
  frames (``"method": "event"``, no id) ahead of the final response —
  one per optimiser iteration — so callers can follow a long search's
  progress live.
* ``shutdown`` — ask the worker process to stop serving.

Pieces:

* :class:`WorkerServer` — threaded TCP server hosting the optimiser
  registry; start one per worker box (``python -m repro.service
  --worker-server HOST:PORT``).
* :class:`RemoteWorkerClient` — blocking client for tests / scripts.
* :func:`optimise_async` — coroutine used by
  :class:`~repro.service.async_pool.AsyncWorkerPool` to drive many remote
  workers from one event loop.

Failures inside the remote search come back as JSON-RPC error objects and
re-raise as :class:`RemoteWorkerError` on the caller; transport failures
(connection refused, dropped mid-call) raise :class:`RemoteUnavailableError`
so callers can distinguish "the search is broken" from "the box is gone"
and fall back to local execution.
"""

from __future__ import annotations

import asyncio
import base64
import json
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, Mapping, MutableMapping, Optional, Tuple

from ..ir.wire import decode_graph, encode_graph
from ..search.result import SearchResult
from .worker import JobRequest, ServiceResult, execute_request

__all__ = ["WorkerServer", "RemoteWorkerClient", "RemoteWorkerError",
           "RemoteUnavailableError", "optimise_async", "ping_async",
           "parse_endpoint", "graph_ref_for", "request_to_wire",
           "request_from_wire", "result_to_wire", "result_from_wire"]

#: Version stamp of the wire format; servers reject requests of any other
#: protocol revision rather than mis-decoding them.
#:
#: Revision 2 ships graphs as the binary :mod:`repro.ir.wire` codec
#: (base64 inside the JSON envelope, ~3-6x smaller than the JSON graph
#: dict) and adds per-connection graph caching: a request may carry a
#: ``graph_ref`` instead of the graph, referring to a graph shipped
#: earlier on the same connection — so persistent clients re-optimising
#: the same model stop re-shipping it per call.  Revision 1 (JSON ``graph``
#: dicts, no ``protocol`` field) is no longer spoken.
PROTOCOL_VERSION = 2

#: Upper bound on one newline-delimited message (request or response).
#: Serialised graphs grow with the model; 64 MiB is ~500x the largest
#: zoo graph today.
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
def graph_ref_for(request: JobRequest, fingerprint: str = "") -> str:
    """The cache key a request's graph travels under: the admission-time
    fingerprint when the caller has one, else the structural hash."""
    return fingerprint or request.graph.structural_hash()


def request_to_wire(request: JobRequest, fingerprint: str = "",
                    omit_graph: bool = False) -> Dict[str, Any]:
    """Serialise a :class:`JobRequest` for the ``optimise`` params.

    The graph ships as binary wire bytes (base64) under ``graph_wire``,
    tagged with a ``graph_ref`` the server caches it under for the rest of
    the connection.  With ``omit_graph=True`` only the ref is sent — valid
    when the same connection already shipped this graph (see
    :meth:`RemoteWorkerClient.optimise`).
    """
    payload: Dict[str, Any] = {
        "optimiser": request.optimiser,
        "config": dict(request.config),
        "model_name": request.model_name,
        "graph_ref": graph_ref_for(request, fingerprint),
    }
    if not omit_graph:
        payload["graph_wire"] = base64.b64encode(
            encode_graph(request.graph)).decode("ascii")
    return {
        "protocol": PROTOCOL_VERSION,
        "request": payload,
        "fingerprint": fingerprint,
    }


def request_from_wire(params: Mapping[str, Any],
                      graph_cache: Optional[
                          MutableMapping[str, Any]] = None,
                      ) -> Tuple[JobRequest, str]:
    """Decode ``optimise`` params back into a request + fingerprint.

    ``graph_cache`` — the connection's graph store — resolves bare
    ``graph_ref`` requests and absorbs every freshly shipped graph.

    Raises:
        ValueError: If the params were produced by another protocol
            revision, or a ``graph_ref`` is not in the cache (the client
            must re-ship).
    """
    revision = params.get("protocol", 1)
    if revision != PROTOCOL_VERSION:
        raise ValueError(
            f"unsupported protocol revision {revision} "
            f"(this worker speaks revision {PROTOCOL_VERSION})")
    data = params["request"]
    ref = data.get("graph_ref", "")
    if "graph_wire" in data:
        graph = decode_graph(base64.b64decode(data["graph_wire"]))
        if graph_cache is not None and ref:
            graph_cache[ref] = graph
    else:
        if graph_cache is None or ref not in graph_cache:
            raise ValueError(f"unknown graph_ref {ref!r} "
                             f"(not shipped on this connection)")
        graph = graph_cache[ref]
    request = JobRequest(
        graph=graph,
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
            "final_graph_wire": base64.b64encode(
                encode_graph(search.final_graph)).decode("ascii"),
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
                     initial_graph: Any) -> ServiceResult:
    """Rehydrate a wire result against the caller's own initial graph."""
    data = payload["search"]
    search = SearchResult(
        optimiser=data["optimiser"],
        model=data["model"],
        initial_graph=initial_graph,
        final_graph=decode_graph(base64.b64decode(data["final_graph_wire"])),
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
class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: many newline-delimited JSON-RPC calls."""

    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        server: "WorkerServer" = self.server.owner  # type: ignore[attr-defined]

        def notify(frame: Dict[str, Any]) -> None:
            # Interleaved event frames are written from the same
            # connection thread that runs the search, so they can never
            # tear against the final response.
            self.wfile.write(json.dumps(frame).encode() + b"\n")
            self.wfile.flush()

        # Per-connection state: graphs shipped earlier on this connection,
        # addressable by ``graph_ref`` in later calls (protocol rev 2).
        context: Dict[str, Any] = {}
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            response = server.handle_call(line, notify=notify,
                                          context=context)
            self.wfile.write(json.dumps(response).encode() + b"\n")
            self.wfile.flush()
            if server.stopping:
                break


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
                    context: Optional[Dict[str, Any]] = None,
                    ) -> Dict[str, Any]:
        """Execute one JSON-RPC request line; always returns a response.

        ``notify`` — when given — lets streaming methods write JSON-RPC
        notification frames to the connection ahead of the response.
        ``context`` — when given — is the connection's mutable state dict;
        ``optimise`` keeps its graph cache there (``graph_ref`` reuse).
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
                result = self._optimise(params, notify, context)
            elif method == "shutdown":
                self.stopping = True
                threading.Thread(target=self.stop, daemon=True).start()
                result = {"stopping": True}
            else:
                raise ValueError(f"unknown method {method!r}")
        except Exception as exc:
            return {"jsonrpc": "2.0", "id": call_id,
                    "error": {"code": -32000, "message": repr(exc)}}
        return {"jsonrpc": "2.0", "id": call_id, "result": result}

    def _optimise(self, params: Mapping[str, Any],
                  notify: Optional[Callable[[Dict[str, Any]], None]] = None,
                  context: Optional[Dict[str, Any]] = None,
                  ) -> Dict[str, Any]:
        graph_cache = (context.setdefault("graphs", {})
                       if context is not None else None)
        request, fingerprint = request_from_wire(params, graph_cache)
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


# -- clients ------------------------------------------------------------
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


class RemoteWorkerClient:
    """Blocking client for one worker endpoint (tests, scripts, CLI).

    Holds a single persistent connection; calls are serialised with a lock,
    so share one client per thread — or open one per call site.

    Args:
        endpoint: ``"host:port"`` of a running :class:`WorkerServer`.
        timeout_s: Socket timeout applied to connect and each call.

    Raises:
        RemoteUnavailableError: If the initial connection fails.
    """

    def __init__(self, endpoint: str, timeout_s: float = 300.0):
        self.endpoint = endpoint
        host, port = parse_endpoint(endpoint)
        self._lock = threading.Lock()
        self._ids = 0
        try:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout_s)
        except OSError as exc:
            raise RemoteUnavailableError(
                f"cannot reach worker at {endpoint}: {exc}") from exc
        self._file = self._sock.makefile("rwb")
        #: graph_refs this connection has shipped — later optimise calls
        #: for the same graph send only the ref (protocol rev 2).
        self._shipped_refs: set = set()

    def call(self, method: str, params: Optional[Mapping[str, Any]] = None,
             on_notification: Optional[
                 Callable[[Mapping[str, Any]], None]] = None) -> Any:
        """One JSON-RPC round trip.

        ``on_notification`` — when given — receives the params of every
        id-less notification frame (streamed ``event``\\ s) the server
        interleaves ahead of the response.

        Returns:
            The call's ``result`` member.

        Raises:
            RemoteWorkerError: If the worker returned an error object.
            RemoteUnavailableError: If the connection dropped mid-call.
        """
        with self._lock:
            self._ids += 1
            call = {"jsonrpc": "2.0", "id": self._ids, "method": method,
                    "params": dict(params or {})}
            try:
                self._file.write(json.dumps(call).encode() + b"\n")
                self._file.flush()
                while True:
                    line = self._file.readline()
                    if not line:
                        raise RemoteUnavailableError(
                            f"worker at {self.endpoint} closed the "
                            f"connection")
                    response = json.loads(line)
                    if "method" in response and "id" not in response:
                        if on_notification is not None:
                            on_notification(response.get("params") or {})
                        continue
                    break
            except OSError as exc:
                raise RemoteUnavailableError(
                    f"worker at {self.endpoint} dropped: {exc}") from exc
        if "error" in response:
            raise RemoteWorkerError(response["error"].get("message", "error"))
        return response.get("result")

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the worker's capacity info."""
        return self.call("ping")

    def optimise(self, request: JobRequest, fingerprint: str = "",
                 progress: Optional[Callable[[int, float, str], None]] = None,
                 ) -> ServiceResult:
        """Run one search remotely and rehydrate the result locally.

        ``progress`` — when given — requests streaming: the worker
        interleaves per-iteration ``event`` frames ahead of the result,
        each forwarded as ``progress(iteration, best_cost,
        best_graph_fp)``.

        The graph ships once per connection: repeat calls for the same
        graph (same fingerprint/structural hash) send only its
        ``graph_ref``, which the server resolves from its per-connection
        cache.
        """
        ref = graph_ref_for(request, fingerprint)
        params = request_to_wire(request, fingerprint,
                                 omit_graph=ref in self._shipped_refs)
        on_notification = None
        if progress is not None:
            params["stream"] = True

            def on_notification(event_params: Mapping[str, Any]) -> None:
                _relay_event(progress, event_params)

        payload = self.call("optimise", params,
                            on_notification=on_notification)
        self._shipped_refs.add(ref)
        return result_from_wire(payload, request.graph)

    def close(self) -> None:
        """Drop the connection (best effort; safe to call twice)."""
        try:
            self._file.close()
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    def __enter__(self) -> "RemoteWorkerClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


async def optimise_async(endpoint: str, request: JobRequest,
                         fingerprint: str = "",
                         progress: Optional[
                             Callable[[int, float, str], None]] = None,
                         ) -> ServiceResult:
    """Coroutine flavour of :meth:`RemoteWorkerClient.optimise`.

    Opens a fresh connection per call (the event loop multiplexes many of
    these concurrently, so per-call connections keep the pool stateless).
    ``progress`` — when given — requests streaming and receives every
    interleaved ``event`` frame as ``progress(iteration, best_cost,
    best_graph_fp)``.

    Raises:
        RemoteWorkerError: If the worker returned an error object.
        RemoteUnavailableError: On any transport failure.
    """
    host, port = parse_endpoint(endpoint)
    try:
        # Default StreamReader limit is 64 KiB — far below a serialised
        # zoo graph (inception_v3 is ~94 KB); raise it so readline() can
        # hold one full response document.
        reader, writer = await asyncio.open_connection(
            host, port, limit=_MAX_MESSAGE_BYTES)
    except OSError as exc:
        raise RemoteUnavailableError(
            f"cannot reach worker at {endpoint}: {exc}") from exc
    try:
        params = request_to_wire(request, fingerprint)
        if progress is not None:
            params["stream"] = True
        call = {"jsonrpc": "2.0", "id": 1, "method": "optimise",
                "params": params}
        writer.write(json.dumps(call).encode() + b"\n")
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                raise RemoteUnavailableError(
                    f"worker at {endpoint} closed the connection")
            message = json.loads(line)
            if message.get("method") == "event":
                if progress is not None:
                    _relay_event(progress, message.get("params") or {})
                continue
            break
    except OSError as exc:
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
    return result_from_wire(message["result"], request.graph)


async def ping_async(endpoint: str, timeout_s: float = 5.0) -> Dict[str, Any]:
    """Coroutine flavour of :meth:`RemoteWorkerClient.ping`.

    The health-aware dispatcher's probe: returns the worker's ``ping``
    payload (capacity, jobs served, jobs in flight).

    Raises:
        RemoteUnavailableError: On any transport failure or timeout.
        RemoteWorkerError: If the worker returned an error object.
    """
    host, port = parse_endpoint(endpoint)
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout_s)
    except (OSError, asyncio.TimeoutError) as exc:
        raise RemoteUnavailableError(
            f"cannot reach worker at {endpoint}: {exc}") from exc
    try:
        call = {"jsonrpc": "2.0", "id": 1, "method": "ping", "params": {}}
        writer.write(json.dumps(call).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=timeout_s)
        if not line:
            raise RemoteUnavailableError(
                f"worker at {endpoint} closed the connection")
    except (OSError, asyncio.TimeoutError) as exc:
        raise RemoteUnavailableError(
            f"worker at {endpoint} dropped: {exc}") from exc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:  # pragma: no cover - teardown race
            pass
    response = json.loads(line)
    if "error" in response:
        raise RemoteWorkerError(response["error"].get("message", "error"))
    return dict(response.get("result") or {})
