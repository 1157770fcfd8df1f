"""Service tier: tenants, quotas, idempotency, the HTTP API, SSE, dashboard."""

import http.client
import io
import json
import threading

import pytest

from repro.analysis.livetable import SweepEventState
from repro.runtime import (
    CircuitRef,
    FlowConfig,
    RunRecord,
    SweepQueue,
    SweepSpec,
    read_events,
)
from repro.runtime.api import (
    ApiError,
    SweepService,
    TenantConfig,
    load_tenants,
    run_server,
    serve_in_thread,
)
from repro.runtime.dashboard import render_dashboard
from repro.runtime.events import EventLog
from repro.runtime.faults import FaultyEventLog, make_injector
from repro.runtime.queue import PartialSweepError
from repro.runtime.worker import serve_queues, work_queue
from repro.utils.errors import ValidationError


def _spec():
    """The same tiny sweep as the session-scoped ``sweep_records``
    fixture, so HTTP results can be pinned against its serial records."""
    return SweepSpec(
        circuits=(CircuitRef.random(12, 4, 2, seed=0, target_depth=5),
                  CircuitRef.random(16, 5, 3, seed=1, target_depth=6)),
        orderings=("woss", "none"),
        base=FlowConfig(n_patterns=32, max_iterations=50),
    )


def _one_shard_spec(seed=0):
    """One scenario / one shard — the cheapest drainable sweep."""
    return SweepSpec(
        circuits=(CircuitRef.random(12, 4, 2, seed=seed, target_depth=5),),
        base=FlowConfig(n_patterns=32, max_iterations=50),
    )


def _payload(spec=None, **extra):
    body = {"spec": (spec or _spec()).canonical_dict()}
    body.update(extra)
    return body


# -- SweepService (no HTTP) -----------------------------------------------------


def test_tenant_config_validation():
    with pytest.raises(ValidationError):
        TenantConfig(name="")
    with pytest.raises(ValidationError):
        TenantConfig(name="t", max_active=-1)
    with pytest.raises(ValidationError):
        TenantConfig(name="t", priority=100)
    with pytest.raises(ValidationError):
        TenantConfig(name="t", priority=-1)


def test_load_tenants(tmp_path):
    assert load_tenants(None) == {}
    table = load_tenants({"acme": {"max_active": 2, "priority": 1}})
    assert table["acme"] == TenantConfig("acme", max_active=2, priority=1)
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps({"default": {"priority": 7}}))
    assert load_tenants(str(path))["default"].priority == 7
    with pytest.raises(ValidationError):
        load_tenants({"acme": {"burst": 9}})
    with pytest.raises(ValidationError):
        load_tenants(str(tmp_path / "missing.json"))
    with pytest.raises(ValidationError):
        load_tenants(["not", "a", "table"])


def test_tenant_resolution_falls_through_default(tmp_path):
    service = SweepService(tmp_path / "svc",
                           tenants={"acme": {"priority": 1},
                                    "default": {"priority": 7,
                                                "max_active": 3}})
    assert service.tenant("acme").priority == 1
    stranger = service.tenant("stranger")
    assert (stranger.name, stranger.priority, stranger.max_active) == \
        ("stranger", 7, 3)
    bare = SweepService(tmp_path / "svc2").tenant("anyone")
    assert (bare.priority, bare.max_active) == (5, 8)


def test_submit_creates_registered_priority_queue(tmp_path):
    service = SweepService(tmp_path / "svc")
    created, info = service.submit(_payload(label="first"))
    assert created
    assert info["tenant"] == "public" and info["label"] == "first"
    assert info["scenarios"] == 4 and info["shards"] == 2
    assert info["links"]["records"].endswith(f"/{info['sweep']}/records")
    [meta] = service.list_sweeps()
    assert meta["dir"] == f"05-public-{info['sweep'][:12]}"
    assert (tmp_path / "svc" / meta["dir"] / "service.json").exists()
    queue = service.queue(info["sweep"])
    assert queue.exists() and queue.depth() == 2
    assert service.status(info["sweep"])["status"]["pending"] == 2


def test_submit_is_idempotent_across_spellings(tmp_path):
    service = SweepService(tmp_path / "svc")
    created, info = service.submit(_payload())
    assert created
    # Same sweep, different spelling: partial base dict, default axes
    # omitted — from_dict normalizes before hashing.
    respelled = {"spec": {
        "circuits": [c.canonical_dict() for c in _spec().circuits],
        "orderings": ["woss", "none"],
        "base": {"n_patterns": 32, "max_iterations": 50},
    }}
    again, info2 = service.submit(respelled)
    assert not again and info2["sweep"] == info["sweep"]
    assert len(service.list_sweeps()) == 1
    # A different tenant is a different sweep even for identical specs.
    created3, info3 = service.submit(_payload(tenant="acme"))
    assert created3 and info3["sweep"] != info["sweep"]


def test_submit_rejections_are_400(tmp_path):
    service = SweepService(tmp_path / "svc")
    spec = _spec().canonical_dict()
    for bad in (
        ["not", "an", "object"],
        {},                                         # no spec
        {"spec": spec, "burst": 1},                 # unknown field
        {"spec": spec, "cost_budget": 1.0},         # removed field
        {"spec": {"circuits": [], "nonsense": 1}},  # unknown spec key
        {"spec": {"circuits": []}},                 # empty sweep
        {"spec": dict(spec, base={"partitions": 2})},   # removed config key
        {"spec": dict(spec, miller_modes=["junk"])},
        {"spec": dict(spec, delay_modes=["junk"])},
        {"spec": dict(spec, base={"miller_mode": "junk"})},
        {"spec": dict(spec, base={"delay_mode": "junk"})},
        {"spec": dict(spec, base={"n_patterns": "many"})},
        {"spec": spec, "shard_size": "abc"},
        {"spec": spec, "shard_size": [1]},
        {"spec": spec, "lease_ttl": "x"},
        {"spec": spec, "lease_grace": "soon"},
    ):
        with pytest.raises(ApiError) as err:
            service.submit(bad)
        assert err.value.status == 400
    assert service.list_sweeps() == []


def test_quota_429_and_restart_persistence(tmp_path):
    tenants = {"acme": {"max_active": 1, "priority": 2}}
    service = SweepService(tmp_path / "svc", tenants=tenants)
    created, info = service.submit(_payload(tenant="acme"))
    assert created and service.list_sweeps()[0]["dir"].startswith("02-acme-")
    with pytest.raises(ApiError) as err:
        service.submit(_payload(_one_shard_spec(), tenant="acme"))
    assert err.value.status == 429
    body = err.value.payload()
    assert body["active"] == 1 and body["max_active"] == 1
    assert "retry_hint" in body
    # A fresh service over the same root rebuilds the registry from
    # disk: the quota decision — and the registry — survive a restart.
    reborn = SweepService(tmp_path / "svc", tenants=tenants)
    assert [m["sweep"] for m in reborn.list_sweeps()] == [info["sweep"]]
    with pytest.raises(ApiError) as err:
        reborn.submit(_payload(_one_shard_spec(), tenant="acme"))
    assert err.value.status == 429
    # Re-POSTing the registered sweep stays idempotent, not quota'd.
    again, _ = reborn.submit(_payload(tenant="acme"))
    assert not again


def test_quota_checks_each_finished_sweep_once(tmp_path, monkeypatch):
    """Over 20 submit-and-drain cycles the quota scans each finished
    sweep once, not every sweep the tenant ever submitted."""
    calls = []
    status = SweepQueue.status
    monkeypatch.setattr(SweepQueue, "status",
                        lambda queue: calls.append(queue.root.name)
                        or status(queue))
    service = SweepService(tmp_path / "svc",
                           tenants={"acme": {"max_active": 1}})
    names = []
    for cycle in range(20):
        created, info = service.submit(
            _payload(_one_shard_spec(seed=cycle), tenant="acme"))
        assert created         # the previous sweep finished: under quota
        names.append(service._meta(info["sweep"])["dir"])
        assert work_queue(str(service.queue(info["sweep"]).root)) == 1
    assert len(calls) <= 20
    assert len(set(calls)) == len(calls)    # no sweep checked twice
    assert set(calls) == set(names[:-1])
    # The quota still counts an unfinished sweep.
    service.submit(_payload(_one_shard_spec(seed=20), tenant="acme"))
    with pytest.raises(ApiError) as err:
        service.submit(_payload(_one_shard_spec(seed=21), tenant="acme"))
    assert err.value.status == 429


def test_unknown_sweep_is_404(tmp_path):
    service = SweepService(tmp_path / "svc")
    with pytest.raises(ApiError) as err:
        service.status("0" * 64)
    assert err.value.status == 404


def test_priority_orders_serve_drain(tmp_path):
    """A priority-1 tenant's sweep drains before a priority-9 tenant's:
    the 2-digit directory prefix is the whole scheduler."""
    root = tmp_path / "svc"
    service = SweepService(root, tenants={"fast": {"priority": 1},
                                          "slow": {"priority": 9}})
    _, slow = service.submit(_payload(_one_shard_spec(), tenant="slow"))
    _, fast = service.submit(_payload(_one_shard_spec(seed=1),
                                      tenant="fast"))
    done = serve_queues([str(root)], worker_id="w0", max_shards=1,
                        idle_timeout_s=5.0)
    assert done == 1
    assert service.queue(fast["sweep"]).status().drained
    assert not service.queue(slow["sweep"]).status().drained


# -- wire-schema pins -----------------------------------------------------------


def test_partial_error_wire_round_trip(tmp_path):
    service = SweepService(tmp_path / "svc")
    _, info = service.submit(_payload())
    with pytest.raises(PartialSweepError) as err:
        service.records(info["sweep"])
    doc = err.value.to_dict()
    assert doc["kind"] == "partial_sweep_error" and doc["schema"] == 1
    assert doc["retry_hint"] == "wait" and doc["records"] == []
    assert len(doc["missing"]) == 4 and doc["failed_shards"] == []
    rebuilt = PartialSweepError.from_dict(
        json.loads(err.value.canonical_json()))
    assert rebuilt.to_dict() == doc
    assert service.records(info["sweep"], partial=True) == []


def test_run_record_json_round_trip(sweep_records):
    for record in sweep_records:
        clone = RunRecord.from_json(record.canonical_json())
        assert clone.canonical_json() == record.canonical_json()
        assert clone.diagnostics == record.diagnostics


# -- the HTTP tier --------------------------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One live threaded server over a fresh service root."""
    root = tmp_path_factory.mktemp("svc")
    handle = serve_in_thread(root)
    yield root, handle
    handle.stop()


def _request(handle, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"}
                     if payload else {})
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        conn.close()


def _json(handle, method, path, body=None):
    status, _, raw = _request(handle, method, path, body)
    return status, json.loads(raw)


@pytest.fixture(scope="module")
def drained(served, sweep_records):
    """Submit over HTTP, drain in-process; yields the sweep id and the
    serial records the HTTP views must match."""
    root, handle = served
    status, info = _json(handle, "POST", "/v1/sweeps",
                         _payload(label="pinned"))
    assert status == 201 and info["created"]
    sweep_id = info["sweep"]
    # Not drained yet: the records endpoint is a structured 409.
    status, conflict = _json(handle, "GET", f"/v1/sweeps/{sweep_id}/records")
    assert status == 409
    assert conflict["kind"] == "partial_sweep_error"
    assert conflict["retry_hint"] == "wait"
    queue = SweepService(root).queue(sweep_id)
    assert work_queue(str(queue.root), worker_id="w0") == 2
    serial = [r.canonical_json() for r in sweep_records]
    return sweep_id, serial


def test_http_healthz_and_unknown_route(served):
    _, handle = served
    assert _json(handle, "GET", "/healthz")[1] == {"ok": True}
    status, body = _json(handle, "GET", "/v1/nope")
    assert status == 404 and "no such route" in body["error"]
    assert _json(handle, "PUT", "/v1/sweeps")[0] == 405
    assert _json(handle, "GET", f"/v1/sweeps/{'f' * 64}")[0] == 404
    status, body = _json(handle, "POST", "/v1/sweeps", {"spec": {}})
    assert status == 400 and body["status"] == 400


def test_http_records_byte_identical_to_serial(served, drained):
    _, handle = served
    sweep_id, serial = drained
    status, headers, raw = _request(handle, "GET",
                                    f"/v1/sweeps/{sweep_id}/records")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    # The strongest form of the pin: each serial record's canonical
    # bytes appear verbatim inside the response body.
    text = raw.decode()
    for canonical in serial:
        assert canonical in text
    body = json.loads(raw)
    assert body["count"] == len(serial) and body["partial"] is False
    assert [json.dumps(r, sort_keys=True, separators=(",", ":"))
            for r in body["records"]] == serial


# -- /records bodies against the whole-document json.dumps spelling ------------


def _dumps_body(doc):
    """A JSON answer as the server spelled every one before ``/records``
    spliced stored lines: ``json.dumps`` of the whole document + ``\\n``."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _records_doc(sweep_id, records, partial):
    return {"kind": "sweep_records", "schema": 1, "sweep": sweep_id,
            "count": len(records), "partial": partial,
            "records": [r.canonical_dict() for r in records]}


def _flip_digit(path, key):
    """Overwrite the first digit after ``key`` in a results entry (the
    file stays valid JSON lines; only the checksum can tell)."""
    data = bytearray(path.read_bytes())
    offset = data.index(key) + len(key)
    data[offset] = ord("9") if data[offset] != ord("9") else ord("8")
    path.write_bytes(bytes(data))


@pytest.fixture
def spliced(tmp_path):
    """A fresh, drained 4-record sweep behind a live server."""
    service = SweepService(tmp_path / "svc")
    _, info = service.submit(_payload())
    queue = service.queue(info["sweep"])
    assert work_queue(str(queue.root), worker_id="w0") == 2
    handle = serve_in_thread(service)
    yield handle, info["sweep"], queue
    handle.stop()


def test_http_records_body_is_the_dumps_spelling(spliced):
    handle, sweep_id, queue = spliced
    records = queue.gather()
    path = f"/v1/sweeps/{sweep_id}/records"
    expected = _dumps_body(_records_doc(sweep_id, records, False))
    for _ in range(2):                      # a second GET answers the same
        status, _, raw = _request(handle, "GET", path)
        assert status == 200 and raw == expected
    status, _, raw = _request(handle, "GET", path + "?partial=1")
    assert status == 200
    assert raw == _dumps_body(_records_doc(sweep_id, records, True))


def test_http_incomplete_records_bodies_are_the_dumps_spelling(spliced):
    """One record gone: the 409 body is the PartialSweepError document
    and ``?partial=1`` lists the other three, both spelled as before."""
    handle, sweep_id, queue = spliced
    queue.cache().path_for(queue.scenarios()[2]).unlink()
    with pytest.raises(PartialSweepError) as excinfo:
        queue.gather()
    records = queue.gather(partial=True)
    assert len(records) == 3 == len(excinfo.value.records)
    path = f"/v1/sweeps/{sweep_id}/records"
    status, _, raw = _request(handle, "GET", path)
    assert status == 409
    assert raw == _dumps_body(dict(excinfo.value.to_dict(), status=409))
    status, _, raw = _request(handle, "GET", path + "?partial=1")
    assert status == 200
    assert raw == _dumps_body(_records_doc(sweep_id, records, True))


def test_http_flipped_record_byte_answers_409(spliced):
    handle, sweep_id, queue = spliced
    victim = queue.scenarios()[0]
    _flip_digit(queue.cache().path_for(victim), b'"iterations":')
    status, body = _json(handle, "GET", f"/v1/sweeps/{sweep_id}/records")
    assert status == 409 and body["kind"] == "partial_sweep_error"
    assert body["missing"] == [victim.label] and len(body["records"]) == 3


def test_http_status_and_listing(served, drained):
    _, handle = served
    sweep_id, serial = drained
    status, body = _json(handle, "GET", f"/v1/sweeps/{sweep_id}")
    assert status == 200
    assert body["depth"] == 0 and body["status"]["complete"]
    assert body["status"]["records_present"] == len(serial)
    assert {row["state"] for row in body["shard_report"]} == {"done"}
    status, listing = _json(handle, "GET", "/v1/sweeps")
    assert status == 200
    assert sweep_id in [entry["sweep"] for entry in listing["sweeps"]]
    status, retried = _json(handle, "POST",
                            f"/v1/sweeps/{sweep_id}/retry")
    assert status == 200 and retried["rearmed"] == 0


def _sse_blocks(raw):
    """Parse an SSE body into ``(event_name, data_text)`` tuples."""
    blocks = []
    for chunk in raw.decode().split("\n\n"):
        if not chunk.strip():
            continue
        name, data = "message", []
        for line in chunk.splitlines():
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                data.append(line[len("data: "):])
        blocks.append((name, "\n".join(data)))
    return blocks


def test_http_sse_replay_matches_event_log(served, drained):
    root, handle = served
    sweep_id, _ = drained
    queue = SweepService(root).queue(sweep_id)
    expected = read_events(queue.events_path)
    status, headers, raw = _request(
        handle, "GET", f"/v1/sweeps/{sweep_id}/events?follow=0")
    assert status == 200
    assert headers["Content-Type"] == "text/event-stream"
    blocks = _sse_blocks(raw)
    streamed = [json.loads(data) for name, data in blocks
                if name == "message"]
    assert streamed == expected      # order and payloads, exactly
    assert blocks[-1][0] == "end"
    end = json.loads(blocks[-1][1])
    assert end["records"] == 4 and end["corrupt_lines"] == 0


def test_http_sse_follow_ends_when_sweep_settles(served, drained):
    _, handle = served
    sweep_id, serial = drained
    # follow=1 (the default) on a settled sweep: the stream itself
    # proves completion, so the server closes without a timeout.
    status, _, raw = _request(handle, "GET",
                              f"/v1/sweeps/{sweep_id}/events")
    assert status == 200
    blocks = _sse_blocks(raw)
    assert blocks[-1][0] == "end"
    assert json.loads(blocks[-1][1])["complete"] is True
    assert len([b for b in blocks if b[0] == "message"]) >= len(serial)


def test_http_sse_surfaces_torn_tail_salvage(served):
    """A chaos-written stream: SSE reports exactly what a local
    ``read_events(stats=...)`` salvages, corrupt-line count included."""
    root, handle = served
    _, info = _json(handle, "POST", "/v1/sweeps",
                    _payload(_one_shard_spec(seed=7), tenant="chaos"))
    queue = SweepService(root).queue(info["sweep"])
    faulty = FaultyEventLog(queue.events_path, worker="chaos",
                            injector=make_injector("seed=3,torn=1.0"))
    for seq in range(3):
        faulty.append("heartbeat", shard=f"fake-{seq}")
    # One clean append terminates the torn run: the half-lines collapse
    # into a single corrupt line both readers must count identically.
    EventLog(queue.events_path, worker="good").append("worker_done")
    stats = {}
    expected = read_events(queue.events_path, stats=stats)
    assert stats["corrupt_lines"] == 1
    _, _, raw = _request(
        handle, "GET", f"/v1/sweeps/{info['sweep']}/events?follow=0")
    blocks = _sse_blocks(raw)
    streamed = [json.loads(d) for n, d in blocks if n == "message"]
    assert streamed == expected
    salvage = [int(d) for n, d in blocks if n == "corrupt_lines"]
    assert salvage == [1]
    assert json.loads(blocks[-1][1])["corrupt_lines"] == 1


def test_http_quota_rejection(tmp_path):
    service = SweepService(tmp_path / "svc",
                           tenants={"capped": {"max_active": 1}})
    handle = serve_in_thread(service)
    try:
        status, _ = _json(handle, "POST", "/v1/sweeps",
                          _payload(_one_shard_spec(), tenant="capped"))
        assert status == 201
        status, body = _json(handle, "POST", "/v1/sweeps",
                             _payload(_one_shard_spec(seed=5),
                                      tenant="capped"))
        assert status == 429
        assert body["active"] == 1 and body["retry_hint"]
    finally:
        handle.stop()


def test_http_malformed_submission_is_a_400_body(served):
    """Junk inside a valid-shaped spec answers 400 JSON; it used to
    escape the handler and drop the connection."""
    _, handle = served
    body = _payload()
    body["spec"]["delay_modes"] = ["junk"]
    status, error = _json(handle, "POST", "/v1/sweeps", body)
    assert status == 400 and error["status"] == 400
    assert "junk" in error["error"]


def test_dashboard_renders_from_events_only(served, drained):
    _, handle = served
    sweep_id, _ = drained
    status, headers, raw = _request(handle, "GET", "/dashboard")
    assert status == 200
    assert headers["Content-Type"].startswith("text/html")
    page = raw.decode()
    assert sweep_id[:12] in page
    assert "pinned" in page                  # the submission label
    assert "est cost" in page and "worker" in page
    assert "Sweep progress" in page          # the live Table-1 block


def test_render_dashboard_unit(tmp_path, served, drained):
    root, _ = served
    sweep_id, serial = drained
    meta = [m for m in SweepService(root).list_sweeps()
            if m["sweep"] == sweep_id][0]
    state = SweepEventState()
    state.apply_all(read_events(root / meta["dir"] / "events.jsonl"))
    page = render_dashboard([{"sweep": sweep_id, "tenant": "public",
                              "priority": 5, "label": "<b>unsafe</b>",
                              "state": state, "corrupt_lines": 2}])
    assert "&lt;b&gt;unsafe&lt;/b&gt;" in page     # escaped, not injected
    assert "2 corrupt event line(s)" in page
    assert f"records {len(serial)}/{len(serial)}" in page
    assert "no sweeps submitted yet" in render_dashboard([])


def test_run_server_max_idle_exit(tmp_path):
    """The docs/CI exit valve: no requests for max_idle seconds ends
    the blocking entry point on its own."""
    out = io.StringIO()
    box = {}
    thread = threading.Thread(
        target=lambda: box.setdefault(
            "code", run_server(tmp_path / "svc", port=0, max_idle_s=0.4,
                               out=out, ready=lambda s: box.setdefault(
                                   "server", s))),
        daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive() and box["code"] == 0
    text = out.getvalue()
    assert "serving sweep API on http://127.0.0.1:" in text
    assert "dashboard" in text


def test_worker_and_cli_imports_leave_the_http_tier_unloaded():
    """A serve worker and the CLI import the runtime package, but only
    ``repro serve-api`` loads the HTTP API, and asyncio under it."""
    import os
    import subprocess
    import sys

    import repro

    path = [os.path.dirname(os.path.dirname(repro.__file__)),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for module in ("repro.runtime.worker", "repro.cli"):
        code = (f"import sys, {module}; print(sorted("
                "{'repro.runtime.api', 'asyncio'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "[]", module
