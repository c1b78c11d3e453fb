"""Minimal asyncio HTTP/1.1 layer over :class:`CampaignService`.

No framework: requests are parsed off an ``asyncio.start_server``
stream, routed by ``(method, path)``, and answered with JSON.  Every
endpoint is instrumented (null-checked, :mod:`repro.obs` style): a
``serve.requests{method,route,status}`` counter when a metrics registry
is active, and a wall-clock span per request when a tracer is.

Endpoints::

    GET  /healthz             server/queue/store/cache health document
    POST /jobs                submit {"spec": {...}, "priority"?, "client"?}
                              (a bare CampaignSpec object also works)
    GET  /jobs                all jobs' status summaries
    GET  /jobs/<id>           one job's status + progress + ETA
    GET  /jobs/<id>/results   the results document (409 until done) —
                              byte-identical to `repro campaign run
                              --output` of the same spec
    GET  /jobs/<id>/stream    NDJSON event stream: one line per settled
                              cell, a final {"event": "done"} line
    POST /drain               stop accepting jobs; server exits once the
                              queue and in-flight batches are empty

Submissions name their client via the ``X-Repro-Client`` header or a
``"client"`` body field (quotas are per client); error responses are
JSON ``{"error": ...}`` with conventional status codes (400 invalid
spec, 404 unknown job/route, 409 results-not-ready, 429 over quota,
503 draining).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Callable

from repro.serve.queue import QuotaExceeded
from repro.serve.service import (CampaignService, ServiceDraining,
                                 UnknownJob)

__all__ = ["serve", "BackgroundServer"]

_MAX_BODY = 8 * 1024 * 1024

#: Seconds :class:`BackgroundServer` waits for its thread after draining.
DRAIN_TIMEOUT = 30.0


class _BadRequest(Exception):
    """Malformed HTTP or JSON (mapped to 400)."""


async def _read_request(
        reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request: ``(method, path, headers, body)``."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise _BadRequest("malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("bad Content-Length") from None
    if length < 0 or length > _MAX_BODY:
        raise _BadRequest(f"body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


def _response(status: int, payload: bytes,
              content_type: str = "application/json") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + payload


def _json_body(status: int, document: object) -> tuple[int, bytes]:
    return status, (json.dumps(document, sort_keys=True) + "\n") \
        .encode("utf-8")


def _error(status: int, message: str) -> tuple[int, bytes]:
    return _json_body(status, {"error": message})


class _Server:
    """Routes requests to one :class:`CampaignService`."""

    def __init__(self, service: CampaignService):
        self.service = service
        self.requests = 0

    # ----- instrumentation (null-checked, repro.obs idiom) -----------------

    def _count(self, method: str, route: str, status: int) -> None:
        from repro.obs import metrics as _obs_metrics
        registry = _obs_metrics.active()
        if registry is not None:
            registry.incr("serve.requests", method=method, route=route,
                          status=str(status))

    def _span(self, route: str, start: float, end: float) -> None:
        from repro.obs import tracer as _obs_tracer
        tracer = _obs_tracer.active()
        if tracer is not None:
            tracer.request_span(route, start, end)

    # ----- routing ---------------------------------------------------------

    def route(self, method: str, path: str, headers: dict,
              body: bytes) -> tuple[int, bytes, str]:
        """Dispatch one non-streaming request; returns
        ``(status, payload, route-label)``."""
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return (*_json_body(200, self.service.health()), "healthz")
        if parts[:1] == ["jobs"]:
            if len(parts) == 1:
                if method == "POST":
                    return (*self._submit(headers, body), "submit")
                if method == "GET":
                    return (*self._list_jobs(), "jobs")
                return (*_error(405, f"{method} not allowed"), "jobs")
            try:
                job = self.service.job(parts[1])
            except UnknownJob:
                return (*_error(404, f"unknown job {parts[1]!r}"), "job")
            if len(parts) == 2 and method == "GET":
                return (*_json_body(200, job.status_dict(
                    time.time(), self.service.rate)), "job")
            if parts[2:] == ["results"] and method == "GET":
                if not job.done.is_set():
                    return (*_error(
                        409, f"job {job.job_id} has "
                        f"{len(job.pending)} pending cell(s)"), "results")
                return 200, job.results_bytes(), "results"
            return (*_error(404, f"no route {path!r}"), "job")
        if path == "/drain" and method == "POST":
            return (*_json_body(202, self.service.drain()), "drain")
        return (*_error(404, f"no route {path!r}"), "none")

    def _submit(self, headers: dict, body: bytes) -> tuple[int, bytes]:
        try:
            document = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError) as exc:
            return _error(400, f"request body is not valid JSON: {exc}")
        if not isinstance(document, dict):
            return _error(400, "request body must be a JSON object")
        # Either an envelope {"spec": ..., "client": ..., "priority": ...}
        # or a bare CampaignSpec document.
        spec = document.get("spec", document)
        client = document.get("client") if "spec" in document else None
        client = client or headers.get("x-repro-client") or "anonymous"
        priority = document.get("priority", 0) if "spec" in document else 0
        if not isinstance(priority, int):
            return _error(400, f"priority must be an integer, "
                               f"got {priority!r}")
        try:
            job = self.service.submit(spec, client=str(client),
                                      priority=priority)
        except QuotaExceeded as exc:
            return _error(429, str(exc))
        except ServiceDraining as exc:
            return _error(503, str(exc))
        except ValueError as exc:
            return _error(400, str(exc))
        return _json_body(202, job.status_dict(time.time(),
                                               self.service.rate))

    def _list_jobs(self) -> tuple[int, bytes]:
        now = time.time()
        rate = self.service.rate
        return _json_body(200, {
            "jobs": [job.status_dict(now, rate)
                     for job in self.service.jobs_list()]})

    # ----- connection handler ----------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        start = time.time()
        method, route = "?", "none"
        status = 500
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            parts = [p for p in path.split("/") if p]
            if method == "GET" and len(parts) == 3 \
                    and parts[0] == "jobs" and parts[2] == "stream":
                route = "stream"
                status = await self._stream(writer, parts[1])
                return
            status, payload, route = self.route(method, path, headers, body)
            writer.write(_response(status, payload))
            await writer.drain()
        except _BadRequest as exc:
            status = 400
            writer.write(_response(400, _error(400, str(exc))[1]))
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except Exception as exc:  # noqa: BLE001 — a handler bug must not
            # take the server down with it; the client gets a 500.
            status = 500
            try:
                writer.write(_response(
                    500, _error(500, f"{type(exc).__name__}: {exc}")[1]))
            except ConnectionError:
                pass
        finally:
            self.requests += 1
            self._count(method, route, status)
            self._span(route, start, time.time())
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _stream(self, writer: asyncio.StreamWriter,
                      job_id: str) -> int:
        """NDJSON per-cell progress stream for one job."""
        try:
            # repro: ignore[async-blocking] service.job is an in-memory
            # dict lookup; the Journal.job edge is unique-name fallback
            # imprecision in the call graph (documented in DESIGN.md).
            job = self.service.job(job_id)
        except UnknownJob:
            writer.write(_response(
                404, _error(404, f"unknown job {job_id!r}")[1]))
            await writer.drain()
            return 404
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n")

        def line(document: object) -> bytes:
            return (json.dumps(document, sort_keys=True) + "\n") \
                .encode("utf-8")

        queue = job.watch()
        try:
            writer.write(line(job.status_dict(time.time(),
                                              self.service.rate)))
            await writer.drain()
            while True:
                event = await queue.get()
                if event is None:
                    writer.write(line({"event": "done", "job": job.job_id,
                                       "failed": job.failed,
                                       "total": job.total}))
                    await writer.drain()
                    return 200
                writer.write(line(event))
                await writer.drain()
        except ConnectionError:
            return 200
        finally:
            job.unwatch(queue)


async def serve(service: CampaignService, host: str, port: int, *,
                ready: Callable[[str, int], None] | None = None) -> None:
    """Run the HTTP server until the service drains (or cancellation).

    *ready* (``callable(host, port)``) fires once the socket is bound —
    with ``port=0`` it receives the ephemeral port the OS picked.
    """
    handler = _Server(service)
    await service.start()
    try:
        server = await asyncio.start_server(handler.handle, host, port)
        bound = server.sockets[0].getsockname()
        if ready is not None:
            ready(bound[0], bound[1])
        async with server:
            await service.drained.wait()
    finally:
        await service.stop()


class BackgroundServer:
    """A live server on an ephemeral port, hosted in a daemon thread.

    The harness tests and benchmarks use to exercise the real socket
    path::

        with BackgroundServer(lambda: CampaignService(store)) as url:
            client.submit_job(url, spec_dict)

    The context manager waits for the socket to bind before yielding the
    base URL, and drains the service + joins the thread on exit; a
    thread still alive :data:`DRAIN_TIMEOUT` seconds later raises
    :class:`RuntimeError` naming it and its in-flight cell count.
    """

    def __init__(self, service_factory: Callable[[], CampaignService],
                 host: str = "127.0.0.1"):
        self._factory = service_factory
        self.host = host
        self.port: int | None = None
        self.service: CampaignService | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready: threading.Event | None = None
        self._error: BaseException | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> str:
        ready_evt = threading.Event()
        self._ready = ready_evt

        def main() -> None:
            try:
                asyncio.run(self._run())
            except BaseException as exc:  # noqa: BLE001 — surfaced on exit
                self._error = exc
                ready_evt.set()

        self._thread = threading.Thread(target=main, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not ready_evt.wait(timeout=30) or self._error is not None:
            raise RuntimeError(
                f"server failed to start: {self._error or 'timeout'}")
        return self.url

    async def _run(self) -> None:
        self._loop = asyncio.get_running_loop()
        service = self._factory()
        self.service = service
        ready_evt = self._ready
        assert ready_evt is not None     # set in __enter__

        def ready(host: str, port: int) -> None:
            self.port = port
            ready_evt.set()

        await serve(service, self.host, 0, ready=ready)

    def __exit__(self, *exc: object) -> None:
        loop, service = self._loop, self.service
        if loop is not None and service is not None:
            try:
                loop.call_soon_threadsafe(service.drain)
            except RuntimeError:
                pass    # loop already closed: the server drained itself
        thread = self._thread
        if thread is not None:
            thread.join(timeout=DRAIN_TIMEOUT)
            if thread.is_alive():
                raise RuntimeError(
                    f"server thread {thread.name!r} leaked: still alive "
                    f"{DRAIN_TIMEOUT:g}s after drain with "
                    f"{service.inflight if service else 0} cell(s) in flight")
        if self._error is not None:
            raise RuntimeError(f"server thread died: {self._error}")
