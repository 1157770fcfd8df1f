"""Queue workers: drains, stealing, serial byte-identity."""

import io
import multiprocessing
import os
import socket
import sys
import threading
import time

import pytest

from repro.analysis.live import watch_queue
from repro.runtime import (
    BatchRunner,
    CircuitRef,
    FlowConfig,
    SweepQueue,
    SweepSpec,
    Worker,
    work_queue,
)
from repro.runtime.queue import WAKE_DIR, Doorbell
from repro.runtime.worker import serve_queues
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def sweep():
    """4 fast scenarios: 2 tiny circuits × 2 orderings."""
    return SweepSpec(
        circuits=(CircuitRef.random(12, 4, 2, seed=0, target_depth=5),
                  CircuitRef.random(16, 5, 3, seed=1, target_depth=6)),
        orderings=("woss", "random"),
        base=FlowConfig(n_patterns=32, max_iterations=50),
    )


@pytest.fixture(scope="module")
def serial_json(sweep):
    """Canonical serialization of a plain serial BatchRunner run."""
    return [r.canonical_json() for r in BatchRunner(jobs=1).run(sweep)]


def test_two_worker_processes_drain_and_gather_serial_identical(
        tmp_path, sweep, serial_json):
    """The acceptance contract: a 2-worker cooperative drain gathers
    records byte-identical to the serial run of the same spec."""
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep, shard_size=1)    # 4 shards — both workers get work
    processes = [
        multiprocessing.Process(target=work_queue, args=(str(queue.root),),
                                kwargs={"worker_id": f"w{i}", "lease_s": 30.0})
        for i in range(2)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    assert all(p.exitcode == 0 for p in processes)

    status = queue.status()
    assert status.drained and status.complete
    assert [r.canonical_json() for r in queue.gather()] == serial_json
    # Both workers actually participated (4 shards, claims are striped).
    claimants = {e["worker"] for e in queue.events()
                 if e["kind"] == "shard_claimed"}
    assert claimants == {"w0", "w1"}


def test_abandoned_shard_is_stolen_and_completed(tmp_path, sweep,
                                                 serial_json):
    """A killed worker's claimed shard is reclaimed via its expired
    lease and completed by a survivor."""
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep, shard_size=1)
    # Simulate a worker killed mid-shard: the claim (and its lease)
    # exists, but no heartbeat will ever refresh it.
    doomed = queue.claim("doomed")
    assert doomed is not None

    survivor = Worker(queue, worker_id="survivor", lease_s=0.05, poll_s=0.01)
    assert survivor.run() == 4          # all shards, the stolen one included
    status = queue.status()
    assert status.drained and status.complete
    assert [r.canonical_json() for r in queue.gather()] == serial_json

    kinds = [e["kind"] for e in queue.events()]
    assert "lease_reclaimed" in kinds
    done = {e["shard"] for e in queue.events() if e["kind"] == "shard_done"}
    assert doomed.shard_id in done
    # One counter shard for the whole worker, not one per processed
    # shard (the worker reuses a single ResultCache instance).
    assert len(list((queue.results_dir / "stats.d").glob("*.json"))) == 1


def test_worker_peels_cache_hits_without_solving(tmp_path, sweep,
                                                 serial_json):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    cache = queue.cache()
    for scenario, payload in zip(sweep.scenarios(),
                                 BatchRunner(jobs=1).run(sweep)):
        cache.put(scenario, payload)

    worker = Worker(queue, worker_id="warm", lease_s=30.0)
    worker.run()
    assert worker.computed == 0
    assert worker.cache_hits == len(sweep)
    assert all(e["cached"] for e in queue.events()
               if e["kind"] == "record_done")
    assert [r.canonical_json() for r in queue.gather()] == serial_json


def test_max_shards_stops_early(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep, shard_size=1)
    assert Worker(queue, lease_s=30.0, max_shards=1).run() == 1
    status = queue.status()
    assert status.done == 1 and status.pending == 3


def test_no_wait_worker_exits_while_peer_holds_a_shard(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep, shard_size=1)
    queue.claim("live-peer")            # fresh lease, never expires here
    worker = Worker(queue, worker_id="transient", lease_s=30.0, wait=False,
                    poll_s=0.01)
    assert worker.run() == 3            # everything except the peer's shard
    status = queue.status()
    assert (status.claimed, status.done) == (1, 3)


def test_worker_validation(tmp_path):
    with pytest.raises(ValidationError):
        Worker(tmp_path, lease_s=0)
    with pytest.raises(ValidationError):
        Worker(tmp_path, max_shards=0)


def test_watch_queue_streams_and_renders_from_events(tmp_path, sweep,
                                                     serial_json):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    Worker(queue, worker_id="w", lease_s=30.0).run()

    out = io.StringIO()
    watched = watch_queue(queue, out, follow=False)
    serial = BatchRunner(jobs=1).run(sweep)
    # Event payloads drop the size vectors, so compare the watcher's
    # view on everything the live table shows.
    assert [r.summary() for r in watched] == [r.summary() for r in serial]
    assert [r.scenario for r in watched] == [r.scenario for r in serial]
    text = out.getvalue()
    assert "Sweep progress (4/4)" in text
    assert "[4/4]" in text
    assert "shard_done" in text


class TestWarmWorkers:
    """Multi-queue drains, serve-mode adoption, warm session reuse."""

    def test_multi_queue_worker_drains_in_order(self, tmp_path, sweep,
                                                serial_json):
        scenarios = sweep.scenarios()
        q1 = SweepQueue(tmp_path / "q1")
        q1.submit(scenarios[:2])
        q2 = SweepQueue(tmp_path / "q2")
        q2.submit(scenarios[2:])
        worker = Worker(queues=[q1, q2], worker_id="multi", lease_s=30.0,
                        poll_s=0.01)
        assert worker.run() == 2            # one circuit-group shard each
        assert q1.status().complete and q2.status().complete
        assert [r.canonical_json() for r in q1.gather()] == serial_json[:2]
        assert [r.canonical_json() for r in q2.gather()] == serial_json[2:]
        # Lifecycle events land on both streams.
        for queue in (q1, q2):
            kinds = [e["kind"] for e in queue.events()]
            assert "worker_started" in kinds and "worker_done" in kinds

    def test_serve_worker_adopts_new_queue_and_stops_on_stop_file(
            self, tmp_path, sweep, serial_json):
        import threading

        base = tmp_path / "srv"
        base.mkdir()
        scenarios = sweep.scenarios()
        SweepQueue(base / "q1").submit(scenarios[:2])
        worker = Worker(serve_dirs=[base], worker_id="server", lease_s=30.0,
                        poll_s=0.01)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            deadline = time.time() + 30
            while not SweepQueue(base / "q1").status().complete:
                assert time.time() < deadline
                time.sleep(0.01)
            # Submit a *second* sweep while the worker is already serving.
            q2 = SweepQueue(base / "q2")
            q2.submit(scenarios[:2])
            while not q2.status().complete:
                assert time.time() < deadline
                time.sleep(0.01)
        finally:
            (base / "STOP").touch()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert worker.shards_done == 2
        assert [r.canonical_json() for r in SweepQueue(base / "q1").gather()] \
            == serial_json[:2]
        assert [r.canonical_json() for r in q2.gather()] == serial_json[:2]
        # The second queue's identical circuit reused the warm session.
        assert worker.sessions.hits >= 1

    def test_serve_discovery_skips_adopted_sweeps(self, tmp_path, sweep,
                                                  monkeypatch):
        """Re-discovery makes no filesystem check on an adopted sweep,
        and still adopts new ones in sorted (priority) order."""
        import pathlib

        base = tmp_path / "srv"
        base.mkdir()
        scenario = sweep.scenarios()[:1]
        for name in ("05-b", "00-a", "09-c"):
            SweepQueue(base / name).submit(scenario)
        worker = Worker(serve_dirs=[base], lease_s=30.0, poll_s=0.01)
        worker._discover()
        assert [q.root.name for q in worker.queues] == ["00-a", "05-b", "09-c"]
        for name in ("07-e", "01-d"):
            SweepQueue(base / name).submit(scenario)

        checked = []
        for method in ("is_dir", "exists"):
            original = getattr(pathlib.Path, method)

            def spy(path, *args, _original=original, **kwargs):
                checked.append(path)
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, method, spy)
        worker._discover()
        adopted = {base / name for name in ("00-a", "05-b", "09-c")}
        assert [p for p in checked
                if p in adopted or p.parent in adopted] == []
        assert checked      # the new sweeps were checked
        assert [q.root.name for q in worker.queues] == \
            ["00-a", "05-b", "09-c", "01-d", "07-e"]

    def test_serve_worker_idle_timeout_and_prestop(self, tmp_path):
        base = tmp_path / "srv"
        base.mkdir()
        worker = Worker(serve_dirs=[base], lease_s=30.0, poll_s=0.01,
                        idle_timeout_s=0.05)
        started = time.time()
        assert worker.run() == 0            # nothing ever submitted
        assert time.time() - started < 10
        (base / "STOP").touch()
        stopped = Worker(serve_dirs=[base], lease_s=30.0, poll_s=0.01)
        assert stopped.run() == 0           # exits immediately on STOP

    def test_cost_mode_queue_drains_steals_and_gathers_identical(
            self, tmp_path, sweep, serial_json):
        """Kill/steal still reclaims when shards were packed by cost."""
        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, shard_mode="cost", shard_size=1)   # 1 per shard
        doomed = queue.claim("doomed")      # killed worker, no heartbeat
        assert doomed is not None
        survivor = Worker(queue, worker_id="survivor", lease_s=0.05,
                          poll_s=0.01)
        assert survivor.run() == 4
        assert [r.canonical_json() for r in queue.gather()] == serial_json
        kinds = [e["kind"] for e in queue.events()]
        assert "lease_reclaimed" in kinds

    def test_shard_timing_events_report_estimated_vs_actual(self, tmp_path,
                                                            sweep):
        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, shard_mode="cost")
        Worker(queue, worker_id="w", lease_s=30.0).run()
        timings = queue.shard_timings()
        assert set(timings) == set(queue.shard_ids())
        for event in timings.values():
            assert event["elapsed_s"] > 0
            assert event["est_cost"] > 0
            assert event["computed"] + event["cached"] == event["scenarios"]
        report = queue.shard_report()
        assert all(row["state"] == "done" and row["actual_s"] > 0
                   for row in report)

    def test_worker_serve_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            Worker()                        # no queue, no serve dirs
        with pytest.raises(ValidationError):
            Worker(serve_dirs=[tmp_path], idle_timeout_s=-1)
        # A typo'd watch dir must fail fast, not hang silently forever.
        with pytest.raises(ValidationError, match="serve directory"):
            Worker(serve_dirs=[tmp_path / "nope"])
        from repro.runtime import run_workers

        with pytest.raises(ValidationError, match="serve directory"):
            run_workers([str(tmp_path / "nope")], 2, serve=True)

    def test_worker_done_tallies_are_per_queue(self, tmp_path, sweep):
        scenarios = sweep.scenarios()
        q1 = SweepQueue(tmp_path / "q1")
        q1.submit(scenarios[:1])
        q2 = SweepQueue(tmp_path / "q2")
        q2.submit(scenarios[1:])            # 3 scenarios, 2 circuit groups
        Worker(queues=[q1, q2], worker_id="t", lease_s=30.0,
               poll_s=0.01).run()
        done1 = [e for e in q1.events() if e["kind"] == "worker_done"]
        done2 = [e for e in q2.events() if e["kind"] == "worker_done"]
        assert [e["shards"] for e in done1] == [1]
        assert [e["computed"] for e in done1] == [1]
        assert [e["shards"] for e in done2] == [2]
        assert [e["computed"] for e in done2] == [3]


class TestFailureHandling:
    """PR 7: fencing, retry/quarantine, transient-fault absorption."""

    def test_fenced_worker_abandons_stolen_shard(self, tmp_path, sweep,
                                                 serial_json):
        import os

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, shard_size=1)
        shard = queue.claim("original")
        past = time.time() - 60
        os.utime(queue._lease_path(shard.shard_id), (past, past))
        assert queue.reclaim_expired(0.01, "stealer") == [shard.shard_id]
        stolen = queue.claim("stealer")

        # The original worker comes back from its pause and finishes the
        # attempt: it must observe the lost lease and abandon, writing
        # neither a completion nor record_done accounting.
        original = Worker(queue, worker_id="original", lease_s=30.0,
                          heartbeat_s=0.01)
        assert original.process(shard, queue) is False
        events = queue.events()
        assert "lease_lost" in [e["kind"] for e in events]
        assert not any(e["kind"] == "shard_done" for e in events)
        record_dones = [e for e in events if e["kind"] == "record_done"]
        assert not any(e["worker"] == "original" for e in record_dones)

        # The stealer's completion is the single one that lands.
        stealer = Worker(queue, worker_id="stealer", lease_s=30.0)
        assert stealer.process(stolen, queue) is True
        events = queue.events()
        done = [e for e in events if e["kind"] == "shard_done"]
        assert len(done) == 1 and done[0]["worker"] == "stealer"
        record_dones = [e for e in events if e["kind"] == "record_done"]
        assert {e["worker"] for e in record_dones} == {"stealer"}
        assert len(record_dones) == len(shard)

        # The rest drains normally, byte-identical.
        Worker(queue, worker_id="finisher", lease_s=30.0).run()
        assert [r.canonical_json() for r in queue.gather()] == serial_json

    def test_poisoned_shards_quarantine_after_exact_attempts(self, tmp_path,
                                                             sweep):
        from repro.runtime import PartialSweepError

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, shard_size=1)
        worker = Worker(queue, worker_id="w", lease_s=30.0, poll_s=0.01,
                        max_attempts=2, faults="seed=0,poison=1.0",
                        backoff_base_s=0.001, backoff_cap_s=0.002)
        assert worker.run() == 0
        status = queue.status()
        assert status.settled and status.failed == 4 and status.done == 0
        assert worker.failures == 8             # 2 attempts x 4 shards
        for shard_id in queue.shard_ids():
            assert queue.attempts(shard_id) == 2    # exactly max_attempts
        kinds = [e["kind"] for e in queue.events()]
        assert kinds.count("shard_released") == 4   # attempt 1 of each
        assert kinds.count("shard_failed") == 4     # attempt 2 of each
        with pytest.raises(PartialSweepError) as excinfo:
            queue.gather()
        assert sorted(excinfo.value.failed_shards) == queue.shard_ids()

        # retry-failed + a faultless worker drain the re-armed sweep.
        assert queue.retry_failed() == queue.shard_ids()
        assert Worker(queue, worker_id="clean", lease_s=30.0).run() == 4
        assert queue.status().drained

    def test_transient_io_faults_are_absorbed_and_counted(self, tmp_path,
                                                          sweep, serial_json):
        from repro.runtime.faults import make_injector

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, shard_size=1)
        injector = make_injector(
            "seed=1,io-claim=0.4,io-persist=0.4,io-append=0.4,torn=0.4")
        worker = Worker(queue, worker_id="wio", lease_s=30.0, poll_s=0.01,
                        faults=injector,
                        backoff_base_s=0.001, backoff_cap_s=0.002)
        assert worker.run() == 4
        assert queue.status().drained
        assert [r.canonical_json() for r in queue.gather()] == serial_json
        # Every injected transient was absorbed by a retry and counted.
        assert worker.io_errors > 0
        assert worker.io_errors == sum(injector.fired[site] for site in
                                       ("io-claim", "io-persist", "io-append"))
        # Torn appends happened and the reader salvaged around them.
        from repro.runtime import read_events

        stats = {}
        events = read_events(queue.events_path, stats=stats)
        assert injector.fired["torn"] > 0
        assert any(e["kind"] == "shard_done" for e in events)

    def test_faults_default_from_environment(self, tmp_path, sweep,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=9,io-claim=0.2")
        worker = Worker(tmp_path, lease_s=30.0)
        assert worker.faults is not None
        assert worker.faults.plan.rate("io-claim") == 0.2
        monkeypatch.delenv("REPRO_FAULTS")
        assert Worker(tmp_path, lease_s=30.0).faults is None

    def test_worker_lease_resolves_from_queue_manifest(self, tmp_path, sweep):
        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, lease_ttl=7.0, lease_grace=3.0)
        worker = Worker(queue, worker_id="w")       # no lease_s flag
        assert worker._ttl(queue) == 7.0
        assert worker._grace(queue) == 3.0
        flagged = Worker(queue, worker_id="w2", lease_s=9.0, lease_grace=1.0)
        assert flagged._ttl(queue) == 9.0           # flag wins
        assert flagged._grace(queue) == 1.0

    def test_failure_parameter_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            Worker(tmp_path, lease_s=30.0, max_attempts=0)
        with pytest.raises(ValidationError):
            Worker(tmp_path, lease_s=30.0, lease_grace=-1)
        with pytest.raises(ValidationError):
            Worker(tmp_path, lease_s=30.0, io_retries=-1)
        with pytest.raises(ValidationError):
            Worker(tmp_path, lease_s=30.0, faults="not-a-site=1")
        from repro.runtime import run_workers

        with pytest.raises(ValidationError):
            run_workers(str(tmp_path), 1, restart_budget=-1)


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the doorbell needs abstract sockets")


def _tiny():
    """One scenario, one shard: the cheapest drainable sweep."""
    return SweepSpec(
        circuits=(CircuitRef.random(12, 4, 2, seed=0, target_depth=5),),
        base=FlowConfig(n_patterns=32, max_iterations=50),
    )


def _wake_entries(directory):
    try:
        return sorted(os.listdir(directory / WAKE_DIR))
    except FileNotFoundError:
        return []


def _start(worker, directory):
    """Run ``worker`` on a daemon thread; return once its doorbell shows."""
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not _wake_entries(directory):
        assert thread.is_alive() and time.monotonic() < deadline, \
            "the serve worker never published its doorbell"
        time.sleep(0.005)
    return thread


class TestDoorbell:
    """Serve workers wake on a same-host ring; the poll stays the fallback."""

    @linux_only
    def test_serve_worker_wakes_on_submit(self, tmp_path):
        base = tmp_path / "srv"
        base.mkdir()
        worker = Worker(serve_dirs=[base], lease_s=30.0, poll_s=30.0,
                        max_shards=1)
        thread = _start(worker, base)
        try:
            time.sleep(0.2)         # let the worker settle into its wait
            SweepQueue(base / "q").submit(_tiny())
            thread.join(timeout=2.0)
            assert not thread.is_alive()
        finally:
            (base / "STOP").touch()
            SweepQueue(base / "q").ring()
            thread.join(timeout=10.0)
        assert worker.shards_done == 1
        assert SweepQueue(base / "q").status().drained

    @linux_only
    def test_serve_worker_wakes_on_retry_failed(self, tmp_path):
        base = tmp_path / "srv"
        base.mkdir()
        queue = SweepQueue(base / "q")
        queue.submit(_tiny())
        queue.fail(queue.claim("poisoned"), "poisoned", error="boom")
        worker = Worker(serve_dirs=[base], lease_s=30.0, poll_s=30.0,
                        max_shards=1)
        thread = _start(worker, base)
        try:
            # The worker adopts the queue, finds it settled and retires
            # it; the retry's ring must bring it back.
            deadline = time.monotonic() + 10.0
            while str(queue.root) not in worker._retired:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert queue.retry_failed() == queue.shard_ids()
            thread.join(timeout=2.0)
            assert not thread.is_alive()
        finally:
            (base / "STOP").touch()
            queue.ring()
            thread.join(timeout=10.0)
        assert worker.shards_done == 1 and queue.status().drained

    def test_refused_bind_falls_back_to_the_poll(self, tmp_path, monkeypatch):
        def refuse(sock, address):
            raise OSError("bind refused")

        monkeypatch.setattr(socket.socket, "bind", refuse)
        base = tmp_path / "srv"
        base.mkdir()
        worker = Worker(serve_dirs=[base], lease_s=30.0, poll_s=0.01,
                        max_shards=1)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            time.sleep(0.05)
            SweepQueue(base / "q").submit(_tiny())
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        finally:
            (base / "STOP").touch()
            thread.join(timeout=10.0)
        assert worker.shards_done == 1
        assert _wake_entries(base) == []    # nothing published unbound

    def test_dead_wake_entry_is_ignored_and_kept(self, tmp_path):
        base = tmp_path / "srv"
        (base / WAKE_DIR).mkdir(parents=True)
        for name in ("0123456789abcdef", "not-a-doorbell"):
            (base / WAKE_DIR / name).touch()
        queue = SweepQueue(base / "q")
        assert len(queue.submit(_tiny())) == 1     # rings both names
        assert _wake_entries(base) == ["0123456789abcdef", "not-a-doorbell"]

    @linux_only
    def test_ring_prunes_only_dead_entries_of_this_host(self, tmp_path):
        """A refused same-host name is a worker killed before its
        ``finally``: the ring deletes it.  Another host's name is refused
        here even while its worker lives, so it stays; so does a live
        worker's, which gets the ring."""
        base = tmp_path / "srv"
        base.mkdir()
        bell = Doorbell([base])
        try:
            host = socket.gethostname()
            dead = f"{host}.{'0' * 16}"
            foreign = f"other-{host}.{'0' * 16}"
            for name in (dead, foreign):
                (base / WAKE_DIR / name).touch()
            assert bell.token.rpartition(".")[0] == host
            SweepQueue(base / "q").ring()
            assert _wake_entries(base) == sorted([bell.token, foreign])
            assert bell.wait(5.0) == {"q"}
        finally:
            bell.close()
        assert _wake_entries(base) == [foreign]

    @linux_only
    def test_killed_serve_worker_entry_is_pruned_by_the_next_ring(
            self, tmp_path):
        base = tmp_path / "srv"
        base.mkdir()
        process = multiprocessing.Process(target=serve_queues,
                                          args=([str(base)],), daemon=True)
        process.start()
        try:
            deadline = time.monotonic() + 30.0
            while not _wake_entries(base):
                assert process.is_alive() and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            process.kill()          # SIGKILL: no finally unpublishes
            process.join()
        assert len(_wake_entries(base)) == 1
        SweepQueue(base / "q").submit(_tiny())
        assert _wake_entries(base) == []

    @linux_only
    @pytest.mark.parametrize("exit_path", ["stop", "idle", "max_shards",
                                           "raises"])
    def test_entries_removed_on_every_exit_path(self, tmp_path, monkeypatch,
                                                exit_path):
        base = tmp_path / "srv"
        base.mkdir()
        options = {"idle_timeout_s": 0.3} if exit_path == "idle" else {}
        if exit_path == "max_shards":
            options["max_shards"] = 1
        worker = Worker(serve_dirs=[base], lease_s=30.0, poll_s=0.05,
                        **options)
        if exit_path == "raises":
            seen = []

            def boom():
                seen.append(_wake_entries(base))
                raise RuntimeError("drain loop died")

            monkeypatch.setattr(worker, "_idle_continue", boom)
            with pytest.raises(RuntimeError):
                worker.run()
            assert seen == [[worker._bell.token]]
        else:
            thread = _start(worker, base)
            assert len(_wake_entries(base)) == 1
            if exit_path == "stop":
                (base / "STOP").touch()
            elif exit_path == "max_shards":
                SweepQueue(base / "q").submit(_tiny())
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert _wake_entries(base) == [] and worker._bell.entries == []

    @linux_only
    def test_wake_dir_is_never_adopted(self, tmp_path):
        base = tmp_path / "srv"
        base.mkdir()
        # Even a queue manifest under .wake/ does not make it a queue.
        SweepQueue(base / WAKE_DIR).submit(_tiny())
        worker = Worker(serve_dirs=[base], lease_s=30.0, poll_s=0.01,
                        idle_timeout_s=0.2)
        assert worker.run() == 0
        assert worker.queues == []

    @linux_only
    def test_idle_worker_does_not_spin(self, tmp_path, monkeypatch):
        base = tmp_path / "srv"
        base.mkdir()
        worker = Worker(serve_dirs=[base], lease_s=30.0, poll_s=0.05,
                        idle_timeout_s=1.0)
        scans = []
        discover = worker._discover
        monkeypatch.setattr(worker, "_discover",
                            lambda: scans.append(1) or discover())
        thread = _start(worker, base)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert 5 <= len(scans) <= 22

    @linux_only
    def test_burst_of_rings_costs_one_wake(self, tmp_path):
        base = tmp_path / "srv"
        base.mkdir()
        bell = Doorbell([base])
        try:
            assert _wake_entries(base) == [bell.token]
            queue = SweepQueue(base / "q")
            for _ in range(50):         # past the socket's queue
                queue.ring()
            started = time.monotonic()
            assert bell.wait(30.0) == {"q"}
            assert time.monotonic() - started < 5.0
            started = time.monotonic()
            assert bell.wait(0.05) == set()     # all drained: a timeout
            assert time.monotonic() - started >= 0.04
        finally:
            bell.close()
        assert _wake_entries(base) == []
