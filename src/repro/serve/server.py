"""The asyncio multi-tenant HTTP server.

Stdlib-only HTTP/1.1 over ``asyncio.start_server`` — no framework, no
dependency.  The endpoint surface:

* ``POST /v1/{tenant}/search``   — body: :class:`SearchRequest` JSON;
* ``POST /v1/{tenant}/pairwise`` — body: :class:`PairwiseRequest` JSON;
* ``POST /v1/{tenant}/cluster``  — body: :class:`ClusterRequest` JSON;
* ``POST /v1/{tenant}/index/build`` — rebuild + persist the tenant's
  preselection structures;
* ``GET  /v1/{tenant}/stats``    — per-tenant serving diagnostics;
* ``GET  /healthz``              — liveness + tenant inventory.

Request bodies and responses are exactly the JSON shapes the
:mod:`repro.api` request/result objects already round-trip — the server
adds no wire format of its own.  Search requests flow through the
:class:`~repro.serve.batcher.MicroBatcher`, whose per-tenant lane runs a
search at once when the tenant is idle and folds same-spec searches that
queue while it is busy (bit-identically); everything else runs directly
on the tenant's worker thread.  Admission control answers 429 with
``Retry-After`` once a tenant's in-flight cap is hit.  Error mapping:
invalid tenant names and malformed requests are 400, unknown tenants
and unknown workflow identifiers 404, unsalvageably corrupt tenant
stores 503, engine faults 500 — and a *salvageable* store fault never
surfaces as an error at all, because the service's own quarantine-and-
rebuild ladder answers exactly (the response's diagnostics carry
``degraded`` instead).

Malformed HTTP is answered, never dropped: a request or header line
over the stream limit (64 KiB), a malformed or negative
``Content-Length`` and a garbled request line each get a protocol-level
400 that carries an ``X-Request-Id`` and closes the connection.  A
client's ``X-Request-Id`` is echoed only when it is a short token
(1–64 letters, digits or ``._:-``); anything else gets a generated id,
so a client cannot inject header lines into the response.

Graceful shutdown (:meth:`SimilarityServer.stop`): stop accepting, wait
for admitted work — executing or queued on a search lane — to drain
(bounded by ``drain_timeout``), optionally persist each tenant's
accumulated scores, close every tenant service on its own thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import signal
import time
import uuid
from dataclasses import replace
from functools import partial
from typing import Any, Mapping

from ..api import (
    ClusterRequest,
    PairwiseRequest,
    ResultSet,
    SearchRequest,
)
from ..obs.logging import console
from ..obs.registry import get_registry
from ..obs.tracing import NULL_TRACER, Tracer, get_tracer, json_dir_sink, set_tracer
from ..store import StoreCorruptionError
from ..store.layout import validate_tenant_name
from .admission import AdmissionController
from .batcher import MicroBatcher, is_foldable
from .config import ServeConfig
from .metrics import ServingMetrics
from .tenants import TenantManager, TenantUnavailableError, UnknownTenantError

__all__ = ["SimilarityServer", "run_server", "check_server"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


#: Client request ids echoed back verbatim; anything else is replaced.
_REQUEST_ID = re.compile(r"[A-Za-z0-9._:-]{1,64}")


class _HttpError(Exception):
    """Carries an HTTP status for protocol-level failures."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _TextPayload:
    """A non-JSON response body (the Prometheus exposition page)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


async def _read_request(
    reader: asyncio.StreamReader, max_body: int
) -> "tuple[str, str, dict[str, str], bytes] | None":
    """One HTTP/1.1 request, or ``None`` when the peer closed cleanly."""
    try:
        line = await _read_line(reader, "request line")
    except ConnectionResetError:
        return None
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise _HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as error:
        raise _HttpError(400, "malformed Content-Length") from error
    if length < 0:
        raise _HttpError(400, "negative Content-Length")
    if length > max_body:
        raise _HttpError(413, f"request body exceeds {max_body} bytes")
    body = await reader.readexactly(length) if length > 0 else b""
    return method, target, headers, body


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    try:
        return await reader.readline()
    except ValueError as error:
        # StreamReader.readline reports a line over its limit as
        # ValueError (not LimitOverrunError) after discarding the line.
        raise _HttpError(400, f"{what} too long") from error


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: "Mapping[str, Any] | _TextPayload | None",
    *,
    keep_alive: bool,
    extra_headers: "Mapping[str, str] | None" = None,
) -> None:
    if isinstance(payload, _TextPayload):
        body = payload.text.encode("utf-8")
        content_type = payload.content_type
    else:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)


class SimilarityServer:
    """One serving root, many tenants, one asyncio event loop."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = ServingMetrics()
        self.admission = AdmissionController(config.max_inflight)
        self.tenants = TenantManager(config.root, max_tenants=config.max_tenants)
        # Never evict a tenant that still has admitted work: its worker
        # thread is busy and its caches are about to be read.
        self.tenants.is_idle = lambda name: self.admission.inflight(name) == 0
        self.batcher = MicroBatcher(metrics=self.metrics)
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._stopped = False
        self._connections: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        # Tracing: sample > 0 installs a recording tracer for the
        # server's lifetime (restored on stop); sample == 0 leaves the
        # zero-cost null tracer in place.
        self.tracer = (
            Tracer(
                sample=config.trace_sample,
                sink=json_dir_sink(config.trace_dir) if config.trace_dir else None,
            )
            if config.trace_sample > 0
            else NULL_TRACER
        )
        self._previous_tracer = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound port (meaningful with ``port=0`` configs)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self.config.port

    async def start(self) -> None:
        self._previous_tracer = set_tracer(self.tracer)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown; idempotent."""
        if self._stopped:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.config.drain_timeout
            while self.admission.total_inflight() > 0 and loop.time() < deadline:
                await asyncio.sleep(0.005)
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=1.0)
        for writer in list(self._writers):
            writer.close()
        for task in list(self._connections):
            task.cancel()
        await self.tenants.close_all(persist=self.config.persist_on_shutdown)
        if self._previous_tracer is not None:
            set_tracer(self._previous_tracer)
            self._previous_tracer = None
        self._stopped = True

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader, self.config.max_body_bytes)
                except _HttpError as error:
                    # Even protocol-level failures are correlatable.
                    request_id = uuid.uuid4().hex[:16]
                    _write_response(
                        writer,
                        error.status,
                        {"error": str(error), "request_id": request_id},
                        keep_alive=False,
                        extra_headers={"X-Request-Id": request_id},
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                request_id = headers.get("x-request-id", "")
                if not _REQUEST_ID.fullmatch(request_id):
                    request_id = uuid.uuid4().hex[:16]
                with self.tracer.span(
                    "serve.request",
                    parent=None,
                    attributes={
                        "method": method,
                        "target": target,
                        "request_id": request_id,
                    },
                ) as span:
                    status, payload, extra = await self._dispatch(method, target, body)
                    span.set_attribute("status", status)
                    if status >= 500:
                        span.set_status("error", f"HTTP {status}")
                response_headers = dict(extra or {})
                response_headers["X-Request-Id"] = request_id
                if span.recording:
                    response_headers["X-Trace-Id"] = span.trace_id
                if (
                    isinstance(payload, dict)
                    and "error" in payload
                    and "request_id" not in payload
                ):
                    payload = {**payload, "request_id": request_id}
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not self._closing
                )
                _write_response(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=response_headers,
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> "tuple[int, dict[str, Any] | None, dict[str, str] | None]":
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}, None
            return 200, self._healthz(), None
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}, None
            page = get_registry().render_prometheus()
            return 200, _TextPayload(page, "text/plain; version=0.0.4"), None
        segments = [segment for segment in path.split("/") if segment]
        if len(segments) >= 3 and segments[0] == "v1":
            tenant, operation = segments[1], "/".join(segments[2:])
            try:
                validate_tenant_name(tenant)
            except ValueError as error:
                return 400, {"error": str(error)}, None
            if operation == "stats":
                if method != "GET":
                    return 405, {"error": "stats is GET-only"}, None
                return self._tenant_stats(tenant)
            if operation in ("search", "pairwise", "cluster", "index/build"):
                if method != "POST":
                    return 405, {"error": f"{operation} is POST-only"}, None
                return await self._execute(tenant, operation, body)
        return 404, {"error": f"no route for {method} {path}"}, None

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._closing else "ok",
            "root": str(self.tenants.root),
            "tenants_open": self.tenants.open_tenants(),
            "tenants_on_disk": self.tenants.discover(),
            "inflight": self.admission.total_inflight(),
        }

    def _tenant_stats(
        self, tenant: str
    ) -> "tuple[int, dict[str, Any] | None, dict[str, str] | None]":
        runtime = self.tenants.runtime_if_open(tenant)
        known_on_disk = tenant in self.tenants.discover()
        if runtime is None and not known_on_disk and not self.metrics.known(tenant):
            return 404, {"error": f"unknown tenant {tenant!r}"}, None
        snapshot = self.metrics.tenant(tenant).snapshot()
        snapshot["open"] = runtime is not None
        snapshot["inflight"] = self.admission.inflight(tenant)
        if runtime is not None:
            service = runtime.service
            snapshot["workflows"] = len(service)
            snapshot["store_trusted"] = service.store_trusted
            snapshot["degradation_events"] = len(service.degradation_log)
        return 200, snapshot, None

    # -- request execution ---------------------------------------------------

    async def _execute(
        self, tenant: str, operation: str, body: bytes
    ) -> "tuple[int, dict[str, Any] | None, dict[str, str] | None]":
        metrics = self.metrics.tenant(tenant)
        operation_label = operation.replace("/", "_")
        span = get_tracer().current_span()
        if span is not None:
            span.set_attributes({"tenant": tenant, "operation": operation_label})
        started = time.perf_counter()
        if self._closing:
            status, payload, extra = 503, {"error": "server is draining"}, None
            metrics.record(operation_label, status, time.perf_counter() - started)
            return status, payload, extra
        if not self.admission.try_acquire(tenant):
            retry_after = max(1, round(self.config.retry_after))
            status, payload = 429, {
                "error": (
                    f"tenant {tenant!r} is at its in-flight cap "
                    f"({self.admission.max_inflight}); retry shortly"
                ),
                "retry_after_seconds": retry_after,
            }
            metrics.record(operation_label, status, time.perf_counter() - started)
            return status, payload, {"Retry-After": str(retry_after)}
        degraded = False
        try:
            runtime = await self.tenants.get(tenant)
            data = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(data, Mapping):
                raise _HttpError(400, "request body must be a JSON object")
            status, payload, extra = 200, None, None
            if operation == "search":
                result = await self._run_search(runtime, data)
                degraded = bool(result.diagnostics and result.diagnostics.degraded)
                payload = result.to_dict()
            elif operation == "pairwise":
                request = _strip_cache_dir(PairwiseRequest.from_dict(data))
                self._require_known(runtime, request.workflows)
                result = await runtime.run(partial(runtime.service.pairwise, request))
                degraded = bool(result.diagnostics and result.diagnostics.degraded)
                payload = result.to_dict()
            elif operation == "cluster":
                request = _strip_cache_dir(ClusterRequest.from_dict(data))
                self._require_known(runtime, request.workflows)
                result = await runtime.run(partial(runtime.service.cluster, request))
                degraded = bool(result.diagnostics and result.diagnostics.degraded)
                payload = result.to_dict()
            else:  # index/build
                payload = await runtime.run(partial(_build_and_persist, runtime.service))
        except _HttpError as error:
            status, payload, extra = error.status, {"error": str(error)}, None
        except UnknownTenantError as error:
            status, payload, extra = 404, {"error": str(error)}, None
        except (TenantUnavailableError, StoreCorruptionError) as error:
            status, payload, extra = 503, {"error": str(error)}, None
        except (json.JSONDecodeError, ValueError, TypeError, KeyError) as error:
            status, payload, extra = (
                400,
                {"error": f"bad request: {type(error).__name__}: {error}"},
                None,
            )
        except Exception as error:  # engine fault: answer, don't kill the loop
            status, payload, extra = (
                500,
                {"error": f"internal error: {type(error).__name__}: {error}"},
                None,
            )
        finally:
            self.admission.release(tenant)
        metrics.record(
            operation_label, status, time.perf_counter() - started, degraded=degraded
        )
        return status, payload, extra

    async def _run_search(self, runtime, data: Mapping[str, Any]) -> ResultSet:
        request = _strip_cache_dir(SearchRequest.from_dict(data))
        self._require_known(runtime, request.queries)
        self._require_known(runtime, request.candidates)
        if is_foldable(request):
            return await self.batcher.submit(runtime, request)
        return await runtime.run(partial(runtime.service.search, request))

    @staticmethod
    def _require_known(runtime, identifiers) -> None:
        if identifiers is None:
            return
        missing = [
            identifier for identifier in identifiers if identifier not in runtime.service
        ]
        if missing:
            raise _HttpError(
                404, f"unknown workflow identifiers for tenant {runtime.name!r}: {missing}"
            )


def _build_and_persist(service) -> dict[str, Any]:
    counters = service.build_index()
    summary = service.persist()
    return {"index": counters, "persisted": summary}


def _strip_cache_dir(request):
    """Server-side stores are owned by the tenant layout; a client must
    not be able to point a request at an arbitrary directory."""
    if request.policy.cache_dir is not None:
        return replace(request, policy=replace(request.policy, cache_dir=None))
    return request


# -- entry points ------------------------------------------------------------


async def _serve_until_signal(config: ServeConfig) -> int:
    server = SimilarityServer(config)
    await server.start()
    tenants = server.tenants.discover()
    console(
        f"serving {len(tenants)} tenant(s) {tenants} from {config.root} "
        f"on http://{config.host}:{server.port} "
        f"(max in-flight {config.max_inflight}/tenant"
        + (f", traces -> {config.trace_dir}" if config.trace_dir else "")
        + ")"
    )
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signal_number, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        await stop_event.wait()
    finally:
        console("draining in-flight work ...")
        await server.stop()
    return 0


def run_server(config: ServeConfig) -> int:
    """Run the server until SIGINT/SIGTERM; returns the exit code."""
    return asyncio.run(_serve_until_signal(config))


async def _check(config: ServeConfig) -> int:
    from .client import ServeClient

    server = SimilarityServer(config)
    try:
        await server.start()
    except OSError as error:
        console(f"serve check FAILED: cannot bind {config.host}:{config.port}: {error}")
        return 1
    port = server.port  # resolved now; stop() releases the socket
    client = ServeClient(config.host, port)
    try:
        status, _headers, payload = await client.get("/healthz")
    except Exception as error:
        console(f"serve check FAILED: /healthz probe raised {type(error).__name__}: {error}")
        await server.stop(drain=False)
        return 1
    finally:
        await client.close()
    await server.stop(drain=False)
    healthy = status == 200 and isinstance(payload, dict) and payload.get("status") == "ok"
    if healthy:
        console(
            f"serve check OK: bound {config.host}:{port}, /healthz answered, "
            f"{len(payload.get('tenants_on_disk', []))} tenant(s) on disk"
        )
        return 0
    console(f"serve check FAILED: /healthz answered {status}: {payload}")
    return 1


def check_server(config: ServeConfig) -> int:
    """Bind, probe ``/healthz``, shut down; 0 when healthy (CI smoke)."""
    return asyncio.run(_check(config))
