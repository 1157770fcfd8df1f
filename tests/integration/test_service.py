"""End-to-end service loop: HTTP submit -> serve worker -> HTTP records.

The whole sweep-as-a-service stack in one process: a threaded
:class:`~repro.runtime.api.ApiServer` fronts a service root, a
serve-mode worker drains it, and every byte a client sees over HTTP is
pinned against the serial :class:`~repro.runtime.runner.BatchRunner`
ground truth — the same determinism contract the queue tier proves
locally, extended across the wire.
"""

import http.client
import json
import os
import sys
import threading
import time

import pytest

from repro.runtime import CircuitRef, FlowConfig, SweepSpec, read_events
from repro.runtime.api import SweepService, serve_in_thread
from repro.runtime.queue import WAKE_DIR
from repro.runtime.worker import STOP_FILE, Worker, serve_queues


def _payload(label=""):
    spec = SweepSpec(
        circuits=(CircuitRef.random(12, 4, 2, seed=0, target_depth=5),
                  CircuitRef.random(16, 5, 3, seed=1, target_depth=6)),
        orderings=("woss", "none"),
        base=FlowConfig(n_patterns=32, max_iterations=50),
    )
    return {"spec": spec.canonical_dict(), "label": label}


def _request(handle, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"}
                     if payload else {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _json(handle, method, path, body=None):
    status, _, raw = _request(handle, method, path, body)
    return status, json.loads(raw)


def _sse_blocks(raw):
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


def test_service_round_trip_pins_serial_bytes(tmp_path, sweep_records):
    root = tmp_path / "svc"
    handle = serve_in_thread(root)
    try:
        # Submit over the wire.
        status, info = _json(handle, "POST", "/v1/sweeps",
                             _payload(label="e2e"))
        assert status == 201 and info["created"]
        sweep_id = info["sweep"]
        # Re-POST is idempotent over the wire too: 200, same sweep.
        status, again = _json(handle, "POST", "/v1/sweeps",
                              _payload(label="e2e"))
        assert status == 200 and not again["created"]
        assert again["sweep"] == sweep_id

        # One serve-mode worker adopts the service root and drains it —
        # exactly what `repro queue work --serve <root>` runs.
        assert serve_queues([str(root)], worker_id="svc-w0",
                            max_shards=info["shards"],
                            idle_timeout_s=30.0) == info["shards"]

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, body = _json(handle, "GET", f"/v1/sweeps/{sweep_id}")
            if body["status"]["complete"]:
                break
            time.sleep(0.1)
        assert body["status"]["complete"] and body["depth"] == 0

        # The wire records are byte-identical to the serial run: every
        # canonical record string appears verbatim in the response.
        status, _, raw = _request(handle, "GET",
                                  f"/v1/sweeps/{sweep_id}/records")
        assert status == 200
        serial = [r.canonical_json() for r in sweep_records]
        text = raw.decode()
        for canonical in serial:
            assert canonical in text
        body = json.loads(raw)
        assert [json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in body["records"]] == serial

        # The SSE replay is the event log, byte-for-byte payloads.
        queue = SweepService(root).queue(sweep_id)
        _, _, sse_raw = _request(
            handle, "GET", f"/v1/sweeps/{sweep_id}/events?follow=0")
        streamed = [json.loads(d) for n, d in _sse_blocks(sse_raw)
                    if n == "message"]
        assert streamed == read_events(queue.events_path)

        # And the dashboard reflects the drained sweep.
        _, _, page = _request(handle, "GET", "/dashboard")
        assert sweep_id[:12] in page.decode()
    finally:
        handle.stop()


def test_stop_file_ends_serve_worker(tmp_path):
    """A STOP file under the service root ends a serve worker promptly
    even with nothing submitted — the operational off switch."""
    root = tmp_path / "svc"
    SweepService(root)          # creates the root
    (root / STOP_FILE).touch()
    started = time.monotonic()
    assert serve_queues([str(root)], worker_id="w0",
                        idle_timeout_s=30.0) == 0
    assert time.monotonic() - started < 10.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the doorbell needs abstract sockets")
def test_http_submit_rings_an_idle_serve_worker(tmp_path):
    """A POST wakes a serve worker idling on a 30 s poll: /records
    answers 200 within 2 s, and the doorbell's ``.wake/`` never shows up
    as a sweep."""
    root = tmp_path / "svc"
    handle = serve_in_thread(root)
    worker = Worker(serve_dirs=[root], poll_s=30.0, max_shards=1)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while not (root / WAKE_DIR).is_dir() or \
                not os.listdir(root / WAKE_DIR):
            assert time.monotonic() < deadline
            time.sleep(0.005)
        time.sleep(0.2)             # let the worker settle into its wait
        assert os.listdir(root / WAKE_DIR) == [worker._bell.token]
        spec = SweepSpec(
            circuits=(CircuitRef.random(12, 4, 2, seed=0, target_depth=5),),
            base=FlowConfig(n_patterns=32, max_iterations=50))
        status, info = _json(handle, "POST", "/v1/sweeps",
                             {"spec": spec.canonical_dict()})
        assert status == 201
        deadline = time.monotonic() + 2.0
        while True:
            status, _, _ = _request(
                handle, "GET", f"/v1/sweeps/{info['sweep']}/records")
            if status == 200 or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert status == 200
        service = handle.server.service
        assert [m["sweep"] for m in service.list_sweeps()] == [info["sweep"]]
        _, _, page = _request(handle, "GET", "/dashboard")
        assert WAKE_DIR not in page.decode()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert [q.root.name for q in worker.queues] == \
            [service.list_sweeps()[0]["dir"]]
    finally:
        (root / STOP_FILE).touch()
        thread.join(timeout=10.0)
        handle.stop()
    assert os.listdir(root / WAKE_DIR) == []
