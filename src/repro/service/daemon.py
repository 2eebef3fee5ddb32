"""The resident analysis daemon: asyncio server over the frame protocol.

``python -m repro serve`` keeps an :class:`AnalysisDaemon` alive on a
unix socket (and/or a TCP port) so profiling jobs can stream shards in
(``profile --push``, ``client push``) and operators can query the
merged per-tenant Gcost state (``client query``) without any graph
ever being re-loaded per request — the step from batch tool to
traffic-serving system named in the roadmap.

Concurrency model: the event loop is single-threaded and every
message is handled synchronously between two awaits, so a fold is
atomic with respect to every other connection — no locks, and a
tenant can never be observed mid-merge.  A client that dies mid-frame
is detected by the framed read (`asyncio.IncompleteReadError`) before
anything touches the registry, so partial pushes cannot corrupt
tenant state.

Query results are served from the live merged graph through the same
code paths batch mode uses (:func:`bloat_report_data`, the batched
slicing engine) — the engine cache on a tenant's graph is invalidated
by the folds themselves (frequency/edge counts change), so a query
after new pushes transparently re-batches.  Compiled programs for
``report``/``rac``/``rab`` queries are cached daemon-wide by source
hash.
"""

from __future__ import annotations

import asyncio
import os
import time

from ..observability.metrics import METRICS_SCHEMA, snapshot
from ..observability.telemetry import current as _current_telemetry
from .protocol import (DEFAULT_MAX_FRAME, E_BAD_MESSAGE, E_NO_PROGRAM,
                       E_QUERY_FAILED, FrameError, MESSAGE_TYPES,
                       QUERY_KINDS, ServiceError, encode_frame,
                       error_response, ok_response, read_frame)
from .registry import TenantRegistry

#: Compiled programs kept in the daemon-wide query cache.
MAX_CACHED_PROGRAMS = 8


class AnalysisDaemon:
    """The serving loop around a :class:`TenantRegistry`.

    ``socket_path`` (unix) and ``tcp`` (a ``(host, port)`` pair) may
    be given together; at least one is required by :meth:`run`.

    Live metrics (the ``stats`` latencies and request counters) go to
    the process-wide telemetry hub; the request loop guards every
    clock read on ``hub.enabled``, so under the disabled hub the
    daemon does exactly zero extra per-request work.
    """

    def __init__(self, registry: TenantRegistry, socket_path=None,
                 tcp=None, max_frame: int = DEFAULT_MAX_FRAME):
        self.registry = registry
        self.socket_path = socket_path
        self.tcp = tcp
        self.max_frame = max_frame
        self.started = time.monotonic()
        self.connections = 0
        self.frame_errors = 0
        self._programs = {}
        #: Each open connection's handler task and its writer.
        self._open = {}
        self._loop = None
        self._shutdown = None

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> None:
        """Serve until a ``shutdown`` message (or
        :meth:`request_shutdown`); spills all tenants on the way out."""
        if not self.socket_path and not self.tcp:
            raise ValueError("AnalysisDaemon needs a unix socket path "
                             "and/or a TCP (host, port)")
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self.started = time.monotonic()
        servers = []
        if self.socket_path:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            servers.append(await asyncio.start_unix_server(
                self._serve_connection, path=self.socket_path))
        if self.tcp:
            host, port = self.tcp
            servers.append(await asyncio.start_server(
                self._serve_connection, host=host, port=port))
        try:
            await self._shutdown.wait()
        finally:
            for server in servers:
                server.close()
            await self._hang_up()
            for server in servers:
                await server.wait_closed()
            if self.socket_path and os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            self.registry.spill_all()
            # Flush telemetry *before* the event loop exits: the last
            # batch of service.ingest/service.query events and the
            # counter summaries must reach the JSONL sink here, not
            # depend on the interpreter's atexit pass.
            hub = _current_telemetry()
            if hub.enabled:
                hub.flush()

    def request_shutdown(self) -> None:
        """Ask the serving loop to exit (safe from any thread,
        idempotent, a no-op once the loop is already gone)."""
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass                    # loop already closed


    # -- connections ---------------------------------------------------------

    async def _hang_up(self) -> None:
        """Close every open connection and let its handler return.

        A handler still waiting for a frame when the event loop closes
        would be cancelled instead, and asyncio's stream callback logs a
        ``CancelledError`` traceback for each cancelled handler.  Closed
        by the daemon, the handler reads end-of-stream and returns.
        """
        if self._open:
            for writer in self._open.values():
                writer.close()
            await asyncio.wait(list(self._open), timeout=5.0)

    async def _serve_connection(self, reader, writer) -> None:
        self.connections += 1
        task = asyncio.current_task()
        self._open[task] = writer
        try:
            while not self._shutdown.is_set():
                try:
                    message = await read_frame(reader, self.max_frame)
                except FrameError as error:
                    # Best-effort error frame, then drop: the stream
                    # is not trustworthy past a framing violation.
                    self.frame_errors += 1
                    hub = _current_telemetry()
                    hub.inc("service.frame_errors")
                    hub.event("service.frame_error", error=str(error))
                    await self._send(writer,
                                     error_response(error.code,
                                                    error.message))
                    break
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    break           # client left; nothing was applied
                hub = _current_telemetry()
                if hub.enabled:
                    kind = message.get("type")
                    start = time.perf_counter()
                    response = self._handle(message)
                    hub.observe(
                        "service.request"
                        f"[{kind if isinstance(kind, str) else '?'}]",
                        time.perf_counter() - start)
                    hub.inc("service.requests")
                    if response.get("type") == "error":
                        hub.inc("service.errors")
                        hub.inc(f"service.errors[{response.get('name')}]")
                else:
                    response = self._handle(message)
                await self._send(writer, response)
                if message.get("type") == "shutdown" \
                        and response.get("type") == "ok":
                    self.request_shutdown()
                    break
        finally:
            del self._open[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer, response: dict) -> None:
        try:
            writer.write(encode_frame(response))
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # -- dispatch ------------------------------------------------------------

    def _handle(self, message: dict) -> dict:
        kind = message.get("type")
        try:
            if kind == "ping":
                return ok_response(uptime_s=self._uptime())
            if kind == "push":
                return self._handle_push(message)
            if kind == "query":
                return self._handle_query(message)
            if kind == "status":
                return self._handle_status(message)
            if kind == "stats":
                return ok_response(stats=self.stats())
            if kind == "health":
                return ok_response(health=self.health())
            if kind == "shutdown":
                return ok_response(
                    spilled=bool(self.registry.spill_dir))
            return error_response(
                E_BAD_MESSAGE,
                f"unknown message type {kind!r} "
                f"(known: {', '.join(MESSAGE_TYPES)})")
        except ServiceError as error:
            return error_response(error.code, error.message)
        except Exception as error:  # noqa: BLE001 — a query must not
            # take the daemon down; every other tenant keeps serving.
            return error_response(E_QUERY_FAILED,
                                  f"{type(error).__name__}: {error}")

    def _uptime(self) -> float:
        return round(time.monotonic() - self.started, 3)

    def _handle_push(self, message: dict) -> dict:
        name = message.get("tenant")
        shard = message.get("shard")
        hub = _current_telemetry()
        with hub.span("service.ingest", tenant=name):
            tenant = self.registry.ingest(name, shard)
        return ok_response(tenant=tenant.name, shards=tenant.shards,
                           nodes=tenant.graph.num_nodes,
                           edges=tenant.graph.num_edges)

    def _handle_status(self, message: dict) -> dict:
        name = message.get("tenant")
        if name is None:
            status = self.registry.status()
            status["uptime_s"] = self._uptime()
            status["connections"] = self.connections
            status["frame_errors"] = self.frame_errors
            return ok_response(status=status)
        tenant = self.registry.tenant(name)
        return ok_response(status=tenant.describe())

    # -- live metrics ---------------------------------------------------------

    def stats(self) -> dict:
        """The ``stats`` payload: daemon + registry counters, per-
        tenant resource gauges, and the telemetry hub's metrics
        :func:`~repro.observability.metrics.snapshot`.

        Stable schema (see ``docs/OBSERVABILITY.md``): every wall-
        clock-dependent field is suffixed ``_s``/``_unix``, so
        :func:`~repro.observability.metrics.normalize_snapshot` makes
        two identical-load responses byte-for-byte comparable.
        """
        hub = _current_telemetry()
        if hub.enabled:
            hub.gauge("service.tenants_resident",
                      self.registry.resident_count())
            hub.gauge("service.connections", self.connections)
        status = self.registry.status()
        return {
            "schema": METRICS_SCHEMA,
            "daemon": {
                "uptime_s": self._uptime(),
                "connections": self.connections,
                "frame_errors": self.frame_errors,
                "metrics_enabled": hub.enabled,
            },
            "registry": {
                "resident": status["resident"],
                "spilled": len(status["spilled_files"]),
                "max_resident": status["max_resident"],
                "pushes": status["pushes"],
                "queries": status["queries"],
                "evictions": status["evictions"],
                "reloads": status["reloads"],
            },
            "tenants": status["tenants"],
            "metrics": snapshot(hub),
        }

    def health(self) -> dict:
        """The ``health`` payload: one small liveness document.

        ``status`` is ``"degraded"`` once the daemon has seen frame
        errors (a client speaking garbage at it), ``"ok"`` otherwise;
        reachability itself is the primary signal — an unreachable
        daemon never answers at all.
        """
        registry = self.registry
        last_ingest = registry.last_ingest_unix
        return {
            "status": "degraded" if self.frame_errors else "ok",
            "uptime_s": self._uptime(),
            "tenants_resident": registry.resident_count(),
            "pushes": registry.pushes,
            "queries": registry.queries,
            "frame_errors": self.frame_errors,
            "metrics_enabled": _current_telemetry().enabled,
            "last_ingest_age_s": (round(time.time() - last_ingest, 3)
                                  if last_ingest is not None else None),
        }

    # -- queries -------------------------------------------------------------

    def _handle_query(self, message: dict) -> dict:
        name = message.get("tenant")
        kind = message.get("kind")
        if kind not in QUERY_KINDS:
            raise ServiceError(
                E_BAD_MESSAGE,
                f"unknown query kind {kind!r} "
                f"(known: {', '.join(QUERY_KINDS)})")
        top = message.get("top", 10)
        if not isinstance(top, int) or top < 1:
            raise ServiceError(E_BAD_MESSAGE,
                               f"top must be a positive integer, "
                               f"got {top!r}")
        hub = _current_telemetry()
        start = time.perf_counter() if hub.enabled else 0.0
        # The span field is named `query`, not `kind` — span metadata
        # keys must not collide with Telemetry.event's own parameters.
        with hub.span("service.query", tenant=name, query=kind):
            tenant = self.registry.tenant(name)
            self.registry.count_query(tenant)
            result = self._answer(tenant, kind, top,
                                  message.get("program"))
        if hub.enabled:
            hub.observe(f"service.query[{kind}]",
                        time.perf_counter() - start)
        return ok_response(tenant=tenant.name, kind=kind, result=result)

    def _answer(self, tenant, kind: str, top: int, program_spec):
        from ..observability.bloatreport import (_field_data, _site_names,
                                                 bloat_report_data)
        if kind == "report":
            program = self._program(kind, program_spec)
            return bloat_report_data(tenant.graph, tenant.report_meta(),
                                     tenant.state, program, top=top)
        if kind in ("rac", "rab"):
            from ..analyses.batch import engine_for
            program = self._program(kind, program_spec)
            engine = engine_for(tenant.graph)
            descriptions = _site_names(program)
            if kind == "rac":
                return _field_data(engine.field_racs(), descriptions,
                                   top)
            return _field_data(engine.field_rabs(), descriptions, top,
                               reverse=False)
        if kind == "bloat":
            from ..analyses import measure_bloat
            if not tenant.instructions:
                raise ServiceError(
                    E_QUERY_FAILED,
                    f"tenant {tenant.name!r} has no instruction "
                    f"counts; bloat metrics need them")
            metrics = measure_bloat(tenant.graph, tenant.instructions)
            return {"instructions": tenant.instructions,
                    "ipd": round(metrics.ipd, 6),
                    "ipp": round(metrics.ipp, 6),
                    "nld": round(metrics.nld, 6)}
        if kind == "summary":
            summary = tenant.describe()
            summary["conflict_ratio"] = round(
                tenant.state.conflict_ratio(tenant.graph), 6)
            return summary
        # kind == "trace"
        return {"tenant": tenant.name, "shards": tenant.shards,
                "records": list(tenant.traces)}

    def _program(self, kind: str, spec):
        """Compile (or fetch from cache) the program a query needs."""
        if not isinstance(spec, dict) or "source" not in spec:
            raise ServiceError(
                E_NO_PROGRAM,
                f"query kind {kind!r} needs a program: pass "
                f'{{"source": <MiniJ text>, "use_stdlib": <bool>}}')
        source = spec["source"]
        use_stdlib = bool(spec.get("use_stdlib", True))
        if not isinstance(source, str):
            raise ServiceError(E_NO_PROGRAM,
                               "program source must be a string")
        import hashlib
        key = (hashlib.sha256(source.encode("utf-8")).hexdigest(),
               use_stdlib)
        program = self._programs.get(key)
        if program is None:
            try:
                if use_stdlib:
                    from ..stdlib import compile_with_stdlib
                    program = compile_with_stdlib(source)
                else:
                    from ..lang import compile_source
                    program = compile_source(source)
            except Exception as error:
                raise ServiceError(
                    E_QUERY_FAILED,
                    f"program does not compile: {error}") from error
            if len(self._programs) >= MAX_CACHED_PROGRAMS:
                self._programs.pop(next(iter(self._programs)))
            self._programs[key] = program
        return program
