"""Sweep-as-a-service: the asyncio HTTP front door over the queue tier.

Everything below this module already exists — durable
:class:`~repro.runtime.queue.SweepQueue` submission, serve-mode warm
workers, the crash-safe JSONL event stream, byte-identical ``gather()``.
This module is the missing *service layer*: a multi-tenant HTTP API
(stdlib ``asyncio`` only, no new dependency) that turns the CLI tool
into a traffic-serving system.

Two classes split the work:

* :class:`SweepService` — the HTTP-free service logic, fully unit
  testable: tenant quotas and priorities, idempotent submission by
  content hash, a filesystem registry (one ``service.json`` per sweep
  directory) that makes **quota state survive restarts** — a fresh
  service scans its root and knows exactly which sweeps each tenant
  still has active.
* :class:`ApiServer` — the asyncio HTTP tier: request parsing, routing,
  JSON responses, and the SSE event stream.

Endpoints (see ``docs/api.md`` for wire schemas)::

    POST /v1/sweeps               submit a SweepSpec (idempotent, quota'd)
    GET  /v1/sweeps               list known sweeps
    GET  /v1/sweeps/{id}          status: manifest counters + shard report
    GET  /v1/sweeps/{id}/events   Server-Sent Events off tail_events
    GET  /v1/sweeps/{id}/records  the stored canonical records, or 409
    POST /v1/sweeps/{id}/retry    re-arm quarantined shards
    GET  /dashboard               HTML view rendered from events alone
    GET  /healthz                 liveness probe

Design decisions worth knowing:

* **The server never solves.**  Submission creates a queue directory
  under the service root; any ``repro queue work --serve <root>``
  worker — in another process, on another host sharing the filesystem
  — adopts and drains it.  The API tier stays I/O-bound and one
  asyncio task per connection is plenty.
* **Priority is encoded in the queue directory name**
  (``<priority:02d>-<tenant>-<hash12>``), because serve-mode workers
  adopt queues in sorted directory order — so a tenant with priority 0
  drains before a tenant with priority 5 without the workers knowing
  tenants exist.  (Ordering holds between sweeps discovered in one
  scan; a worker mid-drain finishes its current queue list first.)
* **Idempotency is content-hash identity.**  A submission hashes its
  normalized spec + sharding options + tenant; re-POSTing the same
  payload returns the existing sweep (``created: false``) instead of
  double-queueing — the same dedup contract the result cache gives
  individual scenarios.
* **The dashboard and SSE render from the event stream alone** — one
  read-only file per sweep, never the ticket directories — so
  monitoring load cannot perturb a drain (see
  :mod:`repro.runtime.dashboard` and
  :class:`~repro.analysis.livetable.SweepEventState`).

Filesystem reads inside handlers are synchronous (local-disk JSON of
kilobyte scale); the event loop tolerates them the same way the queue
tier does.  For the "millions of users" north star the next tier is a
fleet of these servers behind a load balancer sharing the filesystem —
the registry is already just files, so N servers agree for free.
"""

import asyncio
import dataclasses
import json
import pathlib
import re
import threading
import time
import urllib.parse

from repro.analysis.livetable import SweepEventState
from repro.runtime.config import SweepSpec, _canonical_json, _content_hash
from repro.runtime.events import EventTail, read_events
from repro.runtime.queue import PartialSweepError, SweepQueue
from repro.utils.errors import ReproError, ValidationError

__all__ = [
    "API_SCHEMA_VERSION",
    "ApiError",
    "ApiServer",
    "DEFAULT_TENANT",
    "ServerHandle",
    "SweepService",
    "TenantConfig",
    "load_tenants",
    "run_server",
    "serve_in_thread",
]

#: Version stamped into every API wire document.
API_SCHEMA_VERSION = 1

#: Tenant applied to submissions that name none.
DEFAULT_TENANT = "public"

#: Cap on request bodies (a SweepSpec is kilobytes; 8 MiB is generous).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: SSE poll interval while following a live event stream.
SSE_POLL_S = 0.1

_SAFE_RE = re.compile(r"[^A-Za-z0-9_.-]+")
_SWEEP_ID_RE = re.compile(r"^[0-9a-f]{64}$")

_HTTP_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
                 404: "Not Found", 405: "Method Not Allowed",
                 409: "Conflict", 413: "Payload Too Large",
                 429: "Too Many Requests", 500: "Internal Server Error"}


class ApiError(ReproError):
    """An HTTP-status-carrying service error (becomes a JSON response)."""

    def __init__(self, status, message, **extra):
        super().__init__(message)
        self.status = int(status)
        self.extra = dict(extra)

    def payload(self):
        body = {"error": str(self), "status": self.status}
        body.update(self.extra)
        return body


@dataclasses.dataclass(frozen=True)
class TenantConfig:
    """One tenant's service policy.

    ``max_active`` caps the tenant's *unsettled* sweeps — submitted but
    not yet complete — which is the quota that matters on a shared
    worker fleet (finished sweeps are just files; they cost nothing).
    ``priority`` orders drain across tenants: **lower drains first**
    (it prefixes the queue directory name, and serve workers adopt in
    sorted order).
    """

    name: str
    max_active: int = 8
    priority: int = 5

    def __post_init__(self):
        if not self.name:
            raise ValidationError("TenantConfig needs a name")
        if int(self.max_active) < 0:
            raise ValidationError("TenantConfig.max_active must be >= 0")
        if not 0 <= int(self.priority) <= 99:
            raise ValidationError(
                "TenantConfig.priority must be in [0, 99] "
                "(it becomes a 2-digit directory prefix)")


def load_tenants(source):
    """Tenant table from a dict or a JSON file path.

    Format: ``{"<name>": {"max_active": N, "priority": P}, ...}``.  A
    ``"default"`` entry configures tenants not named in the table;
    without one, unknown tenants get the :class:`TenantConfig`
    defaults.  Returns ``{name: TenantConfig}``.
    """
    if source is None:
        return {}
    if not isinstance(source, dict):
        try:
            source = json.loads(pathlib.Path(source).read_text())
        except (TypeError, OSError, ValueError) as error:
            raise ValidationError(
                f"cannot read tenant config {source!r}: {error}") from None
    if not isinstance(source, dict):
        raise ValidationError("tenant config must be a JSON object")
    tenants = {}
    for name, body in source.items():
        if not isinstance(body, dict):
            raise ValidationError(
                f"tenant {name!r} config must be an object")
        unknown = sorted(set(body) - {"max_active", "priority"})
        if unknown:
            raise ValidationError(
                f"tenant {name!r}: unknown fields {', '.join(unknown)}")
        tenants[str(name)] = TenantConfig(name=str(name), **body)
    return tenants


class SweepService:
    """The HTTP-free service core: tenants, quotas, sweeps, registry.

    ``root`` is the service directory: every accepted submission
    becomes one queue directory ``<priority:02d>-<tenant>-<hash12>/``
    under it (holding the usual :class:`SweepQueue` layout plus a
    ``service.json`` registry entry), so pointing
    ``repro queue work --serve <root>`` at the root drains the whole
    service in priority order.  Construction scans the root, which is
    how every piece of state — the sweep registry, and therefore each
    tenant's active-sweep quota count — survives a server restart.
    """

    def __init__(self, root, tenants=None):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.tenants = (load_tenants(tenants)
                        if not isinstance(tenants, dict)
                        or not all(isinstance(v, TenantConfig)
                                   for v in tenants.values())
                        else dict(tenants))
        #: sweep id -> registry meta (the parsed service.json).
        self._sweeps = {}
        #: Sweep ids seen complete: their records are on disk for good,
        #: so the quota never re-checks them.
        self._complete = set()
        self._scan()

    # -- registry ---------------------------------------------------------------

    def _scan(self):
        """(Re)load every ``service.json`` under the root."""
        self._sweeps = {}
        for meta_path in sorted(self.root.glob("*/service.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue        # torn or foreign file: not a sweep
            if isinstance(meta, dict) and meta.get("kind") == "api_sweep" \
                    and meta.get("sweep"):
                meta["dir"] = meta_path.parent.name
                self._sweeps[str(meta["sweep"])] = meta

    def tenant(self, name):
        """The effective :class:`TenantConfig` for ``name``.

        Resolution: an exact entry, else the table's ``"default"``
        entry (re-named), else library defaults.
        """
        name = str(name or DEFAULT_TENANT)
        config = self.tenants.get(name)
        if config is not None:
            return config
        default = self.tenants.get("default")
        if default is not None:
            return dataclasses.replace(default, name=name)
        return TenantConfig(name=name)

    def list_sweeps(self):
        """Registry metas, priority-then-submission (directory) order."""
        return sorted(self._sweeps.values(), key=lambda m: m["dir"])

    def _meta(self, sweep_id):
        meta = self._sweeps.get(str(sweep_id))
        if meta is None:
            raise ApiError(404, f"unknown sweep {sweep_id!r}")
        return meta

    def queue(self, sweep_id):
        """The :class:`SweepQueue` backing one registered sweep."""
        return SweepQueue(self.root / self._meta(sweep_id)["dir"])

    def events_path(self, sweep_id):
        return self.queue(sweep_id).events_path

    def active_count(self, tenant):
        """The tenant's unsettled sweeps (the quota denominator).

        Only sweeps not yet seen complete are checked, so a call scans
        at most the tenant's unsettled sweeps (which ``max_active``
        bounds) plus those that finished since the last call — not every
        sweep the tenant ever submitted.
        """
        count = 0
        for sweep_id, meta in self._sweeps.items():
            if meta.get("tenant") != tenant or sweep_id in self._complete:
                continue
            queue = SweepQueue(self.root / meta["dir"])
            try:
                if queue.status().complete:
                    self._complete.add(sweep_id)
                    continue
            except ReproError:
                pass            # unreadable = assume still active
            count += 1
        return count

    # -- submission -------------------------------------------------------------

    @staticmethod
    def _parse_submission(payload):
        """Validate and normalize one POST body; returns (spec, options)."""
        if not isinstance(payload, dict):
            raise ApiError(400, "submission body must be a JSON object")
        known = {"spec", "tenant", "label", "shard_size", "shard_mode",
                 "lease_ttl", "lease_grace"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ApiError(
                400, f"unknown submission fields: {', '.join(unknown)} "
                     f"(accepted: {', '.join(sorted(known))})")
        if "spec" not in payload:
            raise ApiError(400, "submission needs a 'spec' object "
                                "(see docs/api.md for the schema)")
        try:
            spec = SweepSpec.from_dict(payload["spec"])
        except ValidationError as error:
            raise ApiError(400, f"invalid sweep spec: {error}") from None
        options = {
            "shard_size": payload.get("shard_size"),
            "shard_mode": str(payload.get("shard_mode", "count")),
            "lease_ttl": payload.get("lease_ttl"),
            "lease_grace": payload.get("lease_grace"),
        }
        return spec, options

    def submit(self, payload):
        """One POST /v1/sweeps: returns ``(created, info dict)``.

        Raises :class:`ApiError` 400 on junk, 429 over quota.  The
        sweep id is the content hash of ``(tenant, normalized spec,
        sharding options)`` — the idempotency key: a byte-different
        spelling of the same sweep still collapses onto one queue.
        """
        spec, options = self._parse_submission(payload)
        tenant = self.tenant(payload.get("tenant"))
        label = str(payload.get("label", ""))
        sweep_id = _content_hash({
            "tenant": tenant.name,
            "spec": spec.canonical_dict(),
            "options": options,
        })
        existing = self._sweeps.get(sweep_id)
        if existing is not None:
            return False, self.info(sweep_id)
        active = self.active_count(tenant.name)
        if active >= tenant.max_active:
            raise ApiError(
                429, f"tenant {tenant.name!r} is over quota: {active} "
                     f"active sweeps (max {tenant.max_active})",
                tenant=tenant.name, active=active,
                max_active=tenant.max_active,
                retry_hint="wait for an active sweep to complete, or "
                           "raise the tenant's max_active")
        safe_tenant = _SAFE_RE.sub("-", tenant.name) or "tenant"
        dirname = f"{tenant.priority:02d}-{safe_tenant}-{sweep_id[:12]}"
        queue = SweepQueue(self.root / dirname)
        try:
            shards = queue.submit(
                spec, shard_size=options["shard_size"],
                label=f"{tenant.name}:{label}" if label else tenant.name,
                shard_mode=options["shard_mode"],
                lease_ttl=options["lease_ttl"],
                lease_grace=options["lease_grace"])
        except ValidationError as error:
            raise ApiError(400, f"invalid submission: {error}") from None
        meta = {
            "kind": "api_sweep",
            "schema": API_SCHEMA_VERSION,
            "sweep": sweep_id,
            "tenant": tenant.name,
            "priority": tenant.priority,
            "label": label,
            "scenarios": len(spec),
            "shards": len(shards),
            "created_ts": round(time.time(), 6),
            "spec": spec.canonical_dict(),
        }
        SweepQueue._write_atomic(queue.root / "service.json",
                                 _canonical_json(meta))
        meta["dir"] = dirname
        self._sweeps[sweep_id] = meta
        return True, self.info(sweep_id)

    # -- per-sweep views --------------------------------------------------------

    def info(self, sweep_id):
        """The registry meta (no queue scan): the POST response body."""
        meta = self._meta(sweep_id)
        return {
            "sweep": meta["sweep"],
            "tenant": meta["tenant"],
            "priority": meta["priority"],
            "label": meta.get("label", ""),
            "scenarios": meta["scenarios"],
            "shards": meta["shards"],
            "created_ts": meta.get("created_ts"),
            "links": {
                "status": f"/v1/sweeps/{sweep_id}",
                "events": f"/v1/sweeps/{sweep_id}/events",
                "records": f"/v1/sweeps/{sweep_id}/records",
                "retry": f"/v1/sweeps/{sweep_id}/retry",
            },
        }

    def status(self, sweep_id):
        """GET /v1/sweeps/{id}: registry meta + live queue counters."""
        queue = self.queue(sweep_id)
        body = self.info(sweep_id)
        body["status"] = queue.status().to_dict()
        body["depth"] = queue.depth()
        body["shard_report"] = queue.shard_report()
        return body

    def records(self, sweep_id, partial=False):
        """The gathered records, parsed (``/records`` serves
        :meth:`records_body`, the same records unparsed).

        Propagates :class:`PartialSweepError` (the HTTP tier renders it
        as a 409 with the canonical error document) unless ``partial``.
        """
        return self.queue(sweep_id).gather(partial=partial)

    def records_body(self, sweep_id, partial=False):
        """The records endpoint's response body, as bytes.

        Each record's canonical line goes in exactly as the worker
        stored it (:meth:`SweepQueue.gather_entries`), unparsed; the
        rest of the document is the same ``sort_keys`` + compact
        ``json.dumps`` as :meth:`RunRecord.canonical_json`.  So the body
        is byte-identical to dumping the document with the records as
        canonical dicts, and each embedded record to what a serial
        :class:`~repro.runtime.runner.BatchRunner` would serialize.
        Raises :class:`PartialSweepError` as :meth:`records` does.
        """
        lines = [line for _, line in
                 self.queue(sweep_id).gather_entries(partial=partial)]
        head, tail = json.dumps({
            "kind": "sweep_records",
            "schema": API_SCHEMA_VERSION,
            "sweep": str(sweep_id),
            "count": len(lines),
            "partial": bool(partial),
            "records": [],
        }, sort_keys=True, separators=(",", ":")).split('"records":[]')
        return b"".join((head.encode(), b'"records":[', b",".join(lines),
                         b"]", tail.encode(), b"\n"))

    def retry(self, sweep_id):
        """POST /v1/sweeps/{id}/retry: re-arm quarantined shards."""
        rearmed = self.queue(sweep_id).retry_failed(worker_id="api")
        return {"sweep": str(sweep_id), "rearmed": len(rearmed),
                "shards": [str(s) for s in rearmed]}

    def dashboard_entries(self):
        """Per-sweep dashboard state, **from the event streams alone**.

        One read-only ``events.jsonl`` read per sweep — no ticket
        directories, no results store — folded through
        :class:`SweepEventState`.  This is the render path's whole
        input; see :func:`repro.runtime.dashboard.render_dashboard`.
        """
        entries = []
        for meta in self.list_sweeps():
            stats = {}
            events = read_events(self.root / meta["dir"] / "events.jsonl",
                                 stats=stats)
            state = SweepEventState(total_scenarios=meta.get("scenarios"),
                                    total_shards=meta.get("shards"))
            state.apply_all(events)
            entries.append({
                "sweep": meta["sweep"],
                "tenant": meta["tenant"],
                "priority": meta["priority"],
                "label": meta.get("label", ""),
                "state": state,
                "corrupt_lines": stats.get("corrupt_lines", 0),
            })
        return entries


class ApiServer:
    """The asyncio HTTP tier over one :class:`SweepService`.

    One task per connection via :func:`asyncio.start_server`; requests
    are parsed by hand (stdlib-only contract).  ``port=0`` binds an
    ephemeral port — read :attr:`port` after :meth:`start`.
    """

    def __init__(self, service, host="127.0.0.1", port=0):
        self.service = service
        self.host = host
        self.port = int(port)
        self._server = None
        self._last_activity = None
        self._stopping = None

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    async def start(self):
        """Bind and start accepting; returns ``(host, port)``."""
        self._stopping = asyncio.Event()
        self._last_activity = asyncio.get_running_loop().time()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self):
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve(self, max_idle_s=None):
        """Serve until :meth:`stop` — or ``max_idle_s`` seconds pass
        without a request (the docs/CI exit valve)."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            if max_idle_s is not None and \
                    loop.time() - self._last_activity >= max_idle_s:
                break
            try:
                await asyncio.wait_for(
                    self._stopping.wait(),
                    timeout=None if max_idle_s is None else 0.1)
            except asyncio.TimeoutError:
                continue
        await self.stop()

    # -- request plumbing -------------------------------------------------------

    async def _handle(self, reader, writer):
        self._last_activity = asyncio.get_running_loop().time()
        try:
            try:
                method, path, query, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
            except ApiError as error:
                await self._respond(writer, error.status, error.payload())
                return
            except (ValueError, asyncio.IncompleteReadError, OSError):
                return      # torn request; nothing sane to answer
            try:
                await self._route(writer, method, path, query, body)
            except ApiError as error:
                await self._respond(writer, error.status, error.payload())
            except PartialSweepError as error:
                payload = error.to_dict()
                payload["status"] = 409
                await self._respond(writer, 409, payload)
            except ValidationError as error:
                await self._respond(writer, 400,
                                    {"error": str(error), "status": 400})
            except ReproError as error:
                await self._respond(writer, 500,
                                    {"error": str(error), "status": 500})
        except (ConnectionError, OSError):
            pass            # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader):
        line = (await reader.readline()).decode("latin-1").strip()
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"bad request line {line!r}")
        method, target = parts[0].upper(), parts[1]
        headers = {}
        while True:
            raw = (await reader.readline()).decode("latin-1")
            if raw in ("\r\n", "\n", ""):
                break
            name, _, value = raw.partition(":")
            headers[name.strip().lower()] = value.strip()
        split = urllib.parse.urlsplit(target)
        query = {k: v[-1] for k, v in
                 urllib.parse.parse_qs(split.query).items()}
        return method, split.path, query, headers

    @staticmethod
    async def _read_body(reader, headers):
        try:
            length = int(headers.get("content-length", 0))
        except ValueError:
            raise ApiError(400, "bad Content-Length header") from None
        if length <= 0:
            return b""
        if length > MAX_BODY_BYTES:
            raise ApiError(413, f"request body over {MAX_BODY_BYTES} bytes")
        return await reader.readexactly(length)

    @staticmethod
    def _parse_json(body):
        if not body:
            return {}
        try:
            return json.loads(body)
        except ValueError as error:
            raise ApiError(400, f"request body is not JSON: {error}") \
                from None

    async def _respond(self, writer, status, payload, content_type=None):
        if content_type is None:
            body = (json.dumps(payload, sort_keys=True,
                               separators=(",", ":")) + "\n").encode()
            content_type = "application/json"
        else:
            body = payload if isinstance(payload, bytes) \
                else payload.encode()
        reason = _HTTP_REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode() + body)
        await writer.drain()

    # -- routing ----------------------------------------------------------------

    async def _route(self, writer, method, path, query, body):
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True})
            return
        if path == "/dashboard" and method == "GET":
            from repro.runtime.dashboard import render_dashboard

            html = render_dashboard(self.service.dashboard_entries())
            await self._respond(writer, 200, html,
                                content_type="text/html; charset=utf-8")
            return
        if path == "/v1/sweeps":
            if method == "POST":
                created, info = self.service.submit(self._parse_json(body))
                info["created"] = created
                await self._respond(writer, 201 if created else 200, info)
                return
            if method == "GET":
                sweeps = [self.service.info(m["sweep"])
                          for m in self.service.list_sweeps()]
                await self._respond(writer, 200,
                                    {"count": len(sweeps), "sweeps": sweeps})
                return
            raise ApiError(405, f"{method} not allowed on {path}")
        match = re.match(r"^/v1/sweeps/([0-9a-f]{64})(/events|/records|"
                         r"/retry)?$", path)
        if match is None:
            raise ApiError(404, f"no such route: {method} {path}")
        sweep_id, tail = match.group(1), match.group(2)
        if tail is None and method == "GET":
            await self._respond(writer, 200, self.service.status(sweep_id))
        elif tail == "/records" and method == "GET":
            partial = query.get("partial", "") in ("1", "true", "yes")
            await self._respond(
                writer, 200,
                self.service.records_body(sweep_id, partial=partial),
                content_type="application/json")
        elif tail == "/retry" and method == "POST":
            await self._respond(writer, 200, self.service.retry(sweep_id))
        elif tail == "/events" and method == "GET":
            await self._stream_events(writer, sweep_id, query)
        else:
            raise ApiError(405, f"{method} not allowed on {path}")

    # -- SSE --------------------------------------------------------------------

    async def _stream_events(self, writer, sweep_id, query):
        """``GET /v1/sweeps/{id}/events`` — Server-Sent Events.

        Replays the whole stream first, then (with ``?follow=1``, the
        default) keeps polling as workers append, closing once the
        sweep's own events prove it settled (every scenario reported or
        every shard terminal) or after ``?timeout=S`` idle seconds.
        Each event goes out as one ``data:`` line holding its canonical
        JSON; every change of the reader's torn-line salvage count goes
        out as an ``event: corrupt_lines`` message, and the stream ends
        with ``event: end`` carrying the progress summary — so a client
        sees exactly what a local ``read_events(stats=...)`` would.
        """
        meta = self.service._meta(sweep_id)
        follow = query.get("follow", "1") not in ("0", "false", "no")
        try:
            timeout_s = (float(query["timeout"])
                         if "timeout" in query else None)
        except ValueError:
            raise ApiError(400, "bad timeout value") from None
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        state = SweepEventState(total_scenarios=meta.get("scenarios"),
                                total_shards=meta.get("shards"))
        tail = EventTail(self.service.events_path(sweep_id))
        reported_corrupt = 0
        waited = 0.0
        while True:
            events = tail.poll()
            for event in events:
                state.apply(event)
                data = json.dumps(event, sort_keys=True,
                                  separators=(",", ":"))
                writer.write(f"data: {data}\n\n".encode())
            if tail.corrupt_lines != reported_corrupt:
                reported_corrupt = tail.corrupt_lines
                writer.write(b"event: corrupt_lines\n"
                             + f"data: {reported_corrupt}\n\n".encode())
            if events:
                waited = 0.0
            await writer.drain()
            if not follow or state.complete():
                break
            if timeout_s is not None and waited >= timeout_s:
                break
            await asyncio.sleep(SSE_POLL_S)
            waited += SSE_POLL_S
        end = dict(state.progress(), corrupt_lines=reported_corrupt)
        writer.write(b"event: end\n"
                     + f"data: {json.dumps(end, sort_keys=True)}\n\n"
                     .encode())
        await writer.drain()


def run_server(root, host="127.0.0.1", port=8080, tenants=None,
               max_idle_s=None, out=None, ready=None):
    """Blocking entry point (the ``repro serve-api`` verb).

    Creates the service over ``root``, binds, prints the URLs, and
    serves until interrupted — or until ``max_idle_s`` seconds pass
    without a request, which is what lets a documented/CI invocation
    terminate on its own.  ``ready`` (a callable) receives the bound
    :class:`ApiServer` right after binding (tests use it to learn an
    ephemeral port).  Returns 0.
    """
    service = SweepService(root, tenants=tenants)
    server = ApiServer(service, host=host, port=port)

    async def _main():
        await server.start()
        if ready is not None:
            ready(server)
        if out is not None:
            out.write(f"serving sweep API on {server.url} "
                      f"(root {service.root}, "
                      f"{len(service.list_sweeps())} known sweeps)\n")
            out.write(f"dashboard: {server.url}/dashboard\n")
            out.write(f"drain with: repro queue work --serve "
                      f"{service.root} --jobs auto\n")
            if hasattr(out, "flush"):
                out.flush()
        await server.serve(max_idle_s=max_idle_s)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


class ServerHandle:
    """A live threaded server (see :func:`serve_in_thread`)."""

    def __init__(self, server, thread, loop):
        self.server = server
        self.thread = thread
        self._loop = loop

    @property
    def port(self):
        return self.server.port

    @property
    def url(self):
        return self.server.url

    def stop(self):
        """Stop the server and join its thread (idempotent)."""
        if self.thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop).result(timeout=10)
        self.thread.join(timeout=10)


def serve_in_thread(root_or_service, host="127.0.0.1", port=0):
    """Run an :class:`ApiServer` on a daemon thread; returns a
    :class:`ServerHandle` once the port is bound.

    The embedding/test entry point: the caller's thread stays free to
    drive workers or HTTP clients against ``handle.url``.
    """
    service = (root_or_service if isinstance(root_or_service, SweepService)
               else SweepService(root_or_service))
    server = ApiServer(service, host=host, port=port)
    started = threading.Event()
    box = {}

    def _run():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def _main():
            await server.start()
            started.set()
            await server.serve()

        try:
            loop.run_until_complete(_main())
        finally:
            started.set()   # unblock the caller even on bind failure
            loop.close()

    thread = threading.Thread(target=_run, name="repro-api", daemon=True)
    thread.start()
    if not started.wait(timeout=10) or server._server is None \
            and not thread.is_alive():
        raise ReproError("API server failed to start")
    return ServerHandle(server, thread, box["loop"])
