"""SweepQueue: sharding, atomic claims, leases, lifecycle, manifest."""

import json
import time

import pytest

from repro.runtime import (
    CircuitRef,
    FlowConfig,
    Scenario,
    Shard,
    SweepQueue,
    SweepSpec,
    make_shards,
)
from repro.utils.errors import ReproError, ValidationError


@pytest.fixture(scope="module")
def sweep():
    """4 fast scenarios: 2 tiny circuits × 2 orderings."""
    return SweepSpec(
        circuits=(CircuitRef.random(12, 4, 2, seed=0, target_depth=5),
                  CircuitRef.random(16, 5, 3, seed=1, target_depth=6)),
        orderings=("woss", "random"),
        base=FlowConfig(n_patterns=32, max_iterations=50),
    )


def test_make_shards_groups_by_circuit(sweep):
    scenarios = sweep.scenarios()
    shards = make_shards(scenarios)
    assert len(shards) == 2
    for shard in shards:
        assert len({s.circuit for s in shard.scenarios}) == 1
    covered = sorted(i for shard in shards for i in shard.indexes)
    assert covered == list(range(len(scenarios)))


def test_make_shards_chunking_and_validation(sweep):
    scenarios = sweep.scenarios()
    shards = make_shards(scenarios, shard_size=1)
    assert len(shards) == 4
    assert [shard.indexes for shard in shards] == [(0,), (1,), (2,), (3,)]
    with pytest.raises(ValidationError):
        make_shards(scenarios, shard_size=0)


def test_shard_ticket_round_trip(sweep):
    shard = make_shards(sweep.scenarios())[0]
    loaded = Shard.from_dict(json.loads(json.dumps(shard.to_dict())))
    assert loaded == shard
    with pytest.raises(ReproError):
        Shard.from_dict({"kind": "nope"})


def test_submit_persists_manifest_and_tickets(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    assert not queue.exists()
    shards = queue.submit(sweep, label="unit")
    assert queue.exists()
    assert queue.shard_ids() == [shard.shard_id for shard in shards]
    assert [s.canonical_json() for s in queue.scenarios()] == \
        [s.canonical_json() for s in sweep.scenarios()]
    assert sorted(p.stem for p in queue.pending_dir.glob("*.json")) == \
        queue.shard_ids()
    kinds = [e["kind"] for e in queue.events()]
    assert kinds == ["sweep_submitted"]
    with pytest.raises(ReproError):
        queue.submit(sweep)     # one sweep per queue, ever


def test_schema1_queue_refused_with_schema_error(tmp_path, sweep):
    """A queue written before FlowConfig lost ``partitions`` /
    ``partition_threshold`` is schema 1: its manifest and tickets are
    refused with the schema error, never a TypeError from the config."""
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    manifest = json.loads(queue.manifest_path.read_text())
    manifest["schema"] = 1
    for scenario in manifest["scenarios"]:
        scenario["config"].update(partitions=0, partition_threshold=20000)
    queue.manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ReproError, match="unsupported queue schema 1"):
        SweepQueue(queue.root).scenarios()
    ticket = json.loads(next(queue.pending_dir.glob("*.json")).read_text())
    ticket["schema"] = 1
    with pytest.raises(ReproError, match="unsupported shard schema 1"):
        Shard.from_dict(ticket)


def test_unsubmitted_queue_raises_everywhere(tmp_path):
    queue = SweepQueue(tmp_path / "empty")
    with pytest.raises(ReproError):
        queue.status()
    with pytest.raises(ReproError):
        queue.claim("w")
    with pytest.raises(ReproError):
        queue.gather()


def test_claim_is_exclusive_and_exhaustive(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    # Two independent handles (as two processes would hold) never claim
    # the same shard, and claims drain the pending set exactly.
    first = SweepQueue(queue.root).claim("w1")
    second = SweepQueue(queue.root).claim("w2")
    assert first.shard_id != second.shard_id
    assert queue.claim("w3") is None
    status = queue.status()
    assert (status.pending, status.claimed, status.done) == (0, 2, 0)
    assert queue._lease_path(first.shard_id).exists()


def test_complete_moves_claimed_to_done(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    shard = queue.claim("w1")
    assert queue.complete(shard, "w1", computed=len(shard))
    status = queue.status()
    assert (status.pending, status.claimed, status.done) == (1, 0, 1)
    assert not queue._lease_path(shard.shard_id).exists()
    assert "shard_done" in [e["kind"] for e in queue.events()]


def test_reclaim_expired_steals_and_completion_reports_loss(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    shard = queue.claim("doomed")
    assert queue.reclaim_expired(lease_s=60) == []   # lease still fresh
    time.sleep(0.05)
    assert queue.reclaim_expired(lease_s=0.01, worker_id="survivor") == \
        [shard.shard_id]
    # The shard is claimable again; the dead worker's late completion
    # observes the lost lease instead of corrupting the queue.
    assert not queue.complete(shard, "doomed")
    stolen = queue.claim("survivor")
    assert stolen.shard_id == shard.shard_id
    kinds = [e["kind"] for e in queue.events()]
    assert "lease_reclaimed" in kinds and "lease_lost" in kinds


def test_heartbeat_keeps_lease_fresh(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    shard = queue.claim("w1")
    time.sleep(0.05)
    queue.heartbeat(shard.shard_id, "w1")
    assert queue.lease_age(shard.shard_id) < 0.05
    assert queue.reclaim_expired(lease_s=0.04) == []


def test_negative_lease_rejected(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    with pytest.raises(ValidationError):
        queue.reclaim_expired(lease_s=-1)


@pytest.mark.parametrize("bad", [
    {"lease_ttl": float("inf")},
    {"lease_ttl": float("nan")},
    {"lease_ttl": "x"},
    {"lease_ttl": 0},
    {"lease_grace": float("inf")},
    {"lease_grace": float("nan")},
    {"lease_grace": "soon"},
    {"lease_grace": -1},
    {"shard_size": "abc"},
    {"shard_size": [1]},
    {"shard_size": 2.5},
    {"shard_size": 0},
])
def test_submit_rejects_bad_sharding_and_lease_values(tmp_path, sweep, bad):
    """An infinite TTL would never let a crashed worker's shard be
    reclaimed, and NaN is not valid JSON in ``sweep.json``; junk used to
    escape as a bare ValueError or TypeError."""
    queue = SweepQueue(tmp_path / "q")
    with pytest.raises(ValidationError):
        queue.submit(sweep, **bad)
    assert not queue.exists() and not queue.pending_dir.exists()


def test_gather_incomplete_raises_and_partial_returns(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    with pytest.raises(ReproError, match="incomplete"):
        queue.gather()
    assert queue.gather(partial=True) == []


def test_gather_reads_the_stored_canonical_lines(tmp_path, sweep):
    """gather_entries yields each record's stored canonical line, in
    scenario order; a flipped byte in one line makes that record missing
    (never served altered), so gather raises PartialSweepError."""
    from repro.runtime import PartialSweepError
    from repro.runtime.worker import work_queue

    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    work_queue(str(queue.root), worker_id="w0")
    records = queue.gather()
    lines = [line for _, line in queue.gather_entries()]
    assert lines == [r.canonical_json().encode() for r in records]
    assert [r.scenario for r in records] == queue.scenarios()

    victim = queue.scenarios()[1]
    path = queue.cache().path_for(victim)
    data = bytearray(path.read_bytes())
    offset = data.index(b'"iterations":') + len(b'"iterations":')
    data[offset] = ord("9") if data[offset] != ord("9") else ord("8")
    path.write_bytes(bytes(data))
    with pytest.raises(PartialSweepError) as excinfo:
        queue.gather()
    assert excinfo.value.missing == [victim.label]
    assert [r.canonical_json() for r in excinfo.value.records] == \
        [r.canonical_json() for i, r in enumerate(records) if i != 1]
    assert len(queue.gather(partial=True)) == len(records) - 1


class TestCostSharding:
    """Cost-mode shards: budget respected, order unchanged, no builds."""

    @staticmethod
    def mixed_scenarios():
        """One heavy circuit plus two cheap ones, several scenarios each."""
        from repro.runtime.config import CircuitRef as Ref

        spec = SweepSpec(
            circuits=(Ref.random(60, 8, 4, seed=0, target_depth=9),
                      Ref.random(10, 3, 2, seed=1, target_depth=4),
                      Ref.random(12, 4, 2, seed=2, target_depth=4)),
            noise_fractions=(0.1, 0.12, 0.14),
            base=FlowConfig(n_patterns=32, max_iterations=50),
        )
        return spec.scenarios()

    def test_no_shard_exceeds_budget(self):
        from repro.runtime.queue import _circuit_size_estimate

        scenarios = self.mixed_scenarios()
        budget = max(_circuit_size_estimate(s.circuit) for s in scenarios)
        shards = make_shards(scenarios, mode="cost")
        for shard in shards:
            assert shard.est_cost <= budget + 1e-9 or len(shard) == 1
        # Cheap circuits pack several scenarios per shard; the heavy one
        # shards alone (the anti-straggler property).
        sizes = {shard.scenarios[0].circuit: len(shard) for shard in shards}
        heavy = scenarios[0].circuit
        assert sizes[heavy] == 1
        assert any(circuit != heavy and size > 1
                   for circuit, size in sizes.items())

    def test_gather_order_and_coverage_unchanged(self):
        scenarios = self.mixed_scenarios()
        shards = make_shards(scenarios, mode="cost")
        covered = [i for shard in shards for i in shard.indexes]
        assert sorted(covered) == list(range(len(scenarios)))
        # Within a shard, indexes stay consecutive and increasing, so a
        # cost-mode queue gathers in the same scenario order as count mode.
        for shard in shards:
            assert list(shard.indexes) == \
                list(range(shard.indexes[0], shard.indexes[-1] + 1))
            assert len({s.circuit for s in shard.scenarios}) == 1

    def test_cost_mode_plan_pinned(self):
        """The heavy circuit's scenarios shard alone at 2 × 60 components
        each; each cheap circuit packs its three into one shard."""
        plan = [(shard.shard_id, shard.indexes, shard.est_cost)
                for shard in make_shards(self.mixed_scenarios(), mode="cost")]
        assert plan == [("0000-rand60", (0,), 120.0),
                        ("0001-rand60", (1,), 120.0),
                        ("0002-rand60", (2,), 120.0),
                        ("0003-rand10", (3, 4, 5), 60.0),
                        ("0004-rand12", (6, 7, 8), 72.0)]
        # A shard exactly at the budget is full, not over it.
        heavy, half = (CircuitRef.random(60, 8, 4, seed=0),
                       CircuitRef.random(30, 8, 4, seed=0))
        scenarios = [Scenario(ref, FlowConfig(noise_fraction=f))
                     for ref in (heavy, half) for f in (0.1, 0.12, 0.14)]
        assert [shard.indexes for shard in
                make_shards(scenarios, mode="cost")] == \
            [(0,), (1,), (2,), (3, 4), (5,)]

    def test_shard_size_caps_cost_mode(self):
        scenarios = self.mixed_scenarios()
        capped = make_shards(scenarios, mode="cost", shard_size=2)
        assert [len(shard) for shard in capped] == [1, 1, 1, 2, 1, 2, 1]
        single = make_shards(scenarios, mode="cost", shard_size=1)
        assert all(len(shard) == 1 for shard in single)

    def test_mode_validation(self):
        with pytest.raises(ValidationError, match="shard mode"):
            make_shards(self.mixed_scenarios(), mode="weight")

    def test_size_estimate_never_builds_a_circuit(self, monkeypatch):
        """Packing reads spec totals, generator params or netlist lines,
        once per circuit group — never a built circuit."""
        from repro.runtime import queue as queue_module

        monkeypatch.setattr(
            CircuitRef, "build",
            lambda self: pytest.fail("the size estimate built a circuit"))
        calls = []
        estimate = queue_module._circuit_size_estimate
        monkeypatch.setattr(queue_module, "_circuit_size_estimate",
                            lambda ref: calls.append(ref) or estimate(ref))
        big = CircuitRef.random(5000, 64, 64, seed=1)
        scenarios = [Scenario(big, FlowConfig(noise_fraction=f))
                     for f in (0.1, 0.12)] + self.mixed_scenarios()
        shards = make_shards(scenarios, mode="cost")
        assert shards[0].est_cost == 2.0 * 5000
        assert len(calls) == 4      # one per circuit group

    def test_count_mode_still_annotates_cost(self, sweep):
        shards = make_shards(sweep.scenarios(), shard_size=2)
        assert all(shard.est_cost > 0 for shard in shards)
        ticket = Shard.from_dict(json.loads(json.dumps(shards[0].to_dict())))
        assert ticket.est_cost == shards[0].est_cost
        # Old tickets without the field still load (est_cost defaults).
        legacy = shards[0].to_dict()
        del legacy["est_cost"]
        assert Shard.from_dict(legacy).est_cost == 0.0

    def test_cost_mode_submit_records_costs_in_manifest(self, tmp_path,
                                                        sweep):
        queue = SweepQueue(tmp_path / "q")
        shards = queue.submit(sweep, shard_mode="cost")
        manifest = queue.manifest()
        assert manifest["shard_mode"] == "cost"
        assert set(manifest["shard_costs"]) == {s.shard_id for s in shards}
        report = queue.shard_report()
        assert [row["shard"] for row in report] == queue.shard_ids()
        assert all(row["state"] == "pending" and row["est_cost"] > 0
                   and row["actual_s"] is None for row in report)


class TestRobustness:
    """Attempts, quarantine, lease policy/skew/grace, structured gather."""

    def test_claim_bumps_attempts_and_release_rearms(self, tmp_path, sweep):
        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, shard_size=1)
        shard = queue.claim("w1")
        assert queue.attempts(shard.shard_id) == 1
        assert queue.release(shard, "w1", error="transient")
        assert not queue._lease_path(shard.shard_id).exists()
        # Released work is claimable again and keeps its attempt history.
        again = queue.claim("w2")
        assert again.shard_id == shard.shard_id
        assert queue.attempts(shard.shard_id) == 2
        events = queue.events()
        released = [e for e in events if e["kind"] == "shard_released"]
        assert [e["error"] for e in released] == ["transient"]
        claims = [e for e in events if e["kind"] == "shard_claimed"]
        assert [e["attempt"] for e in claims] == [1, 2]

    def test_fail_quarantines_and_retry_failed_rearms(self, tmp_path, sweep):
        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, shard_size=1)
        shard = queue.claim("w1")
        assert queue.fail(shard, "w1", error="poison")
        status = queue.status()
        assert status.failed == 1 and status.claimed == 0
        assert not status.drained and status.settled is False  # 3 pending
        report = {row["shard"]: row for row in queue.shard_report()}
        assert report[shard.shard_id]["state"] == "failed"
        assert report[shard.shard_id]["attempts"] == 1
        failed = [e for e in queue.events() if e["kind"] == "shard_failed"]
        assert [e["error"] for e in failed] == ["poison"]

        assert queue.retry_failed() == [shard.shard_id]
        assert queue.status().failed == 0
        assert queue.attempts(shard.shard_id) == 0      # fresh budget
        assert queue.claim("w2").shard_id == shard.shard_id
        assert "shard_retry" in [e["kind"] for e in queue.events()]

    def test_settled_counts_failed_as_terminal(self, tmp_path, sweep):
        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep)             # 2 shards
        queue.fail(queue.claim("w"), "w")
        queue.fail(queue.claim("w"), "w")
        status = queue.status()
        assert status.settled and not status.drained and not status.complete
        assert "2 failed" in status.summary()

    def test_reclaim_quarantines_exhausted_shards(self, tmp_path, sweep):
        import os

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep)
        shard = queue.claim("doomed")
        past = time.time() - 60
        os.utime(queue._lease_path(shard.shard_id), (past, past))
        # Attempts (1) >= max_attempts (1): quarantine instead of re-arm.
        assert queue.reclaim_expired(lease_s=0.01, worker_id="survivor",
                                     max_attempts=1) == []
        assert queue.status().failed == 1
        report = {row["shard"]: row for row in queue.shard_report()}
        assert report[shard.shard_id]["state"] == "failed"

    def test_lease_age_is_mtime_based_for_clock_skew(self, tmp_path, sweep):
        import os

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep)
        shard = queue.claim("w1")
        lease = queue._lease_path(shard.shard_id)
        # A skewed host's embedded wall-clock timestamp (hours off) must
        # not matter: only the filesystem mtime drives expiry.
        payload = json.loads(lease.read_text())
        payload["ts"] = time.time() - 7200
        lease.write_text(json.dumps(payload))
        os.utime(lease, None)           # mtime: now
        assert queue.lease_age(shard.shard_id) < 5
        assert queue.reclaim_expired(lease_s=10) == []
        # Conversely an old *mtime* expires it, whatever ts claims.
        past = time.time() - 60
        os.utime(lease, (past, past))
        assert queue.lease_age(shard.shard_id) > 30
        assert queue.reclaim_expired(lease_s=10) == [shard.shard_id]

    def test_grace_delays_reclaim(self, tmp_path, sweep):
        import os

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep)
        shard = queue.claim("w1")
        past = time.time() - 1.0
        os.utime(queue._lease_path(shard.shard_id), (past, past))
        assert queue.reclaim_expired(lease_s=0.5, grace=60) == []
        assert queue.reclaim_expired(lease_s=0.5, grace=0.1) == \
            [shard.shard_id]

    def test_lease_policy_from_manifest(self, tmp_path, sweep):
        import os

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, lease_ttl=5.0, lease_grace=120.0)
        assert queue.lease_policy() == {"ttl": 5.0, "grace": 120.0}
        # grace=None resolves from the manifest: a 1s-stale lease with a
        # 120s grace is not stealable even at a tiny TTL.
        shard = queue.claim("w1")
        past = time.time() - 1.0
        os.utime(queue._lease_path(shard.shard_id), (past, past))
        assert queue.reclaim_expired(lease_s=0.01) == []

        plain = SweepQueue(tmp_path / "q2")
        plain.submit(sweep)
        assert plain.lease_policy() == {"ttl": 60.0, "grace": 0.0}
        with pytest.raises(ValidationError):
            SweepQueue(tmp_path / "q3").submit(sweep, lease_ttl=0)
        with pytest.raises(ValidationError):
            SweepQueue(tmp_path / "q4").submit(sweep, lease_grace=-1)

    def test_double_completion_is_idempotent_single_done(self, tmp_path,
                                                         sweep):
        import os

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep)
        shard = queue.claim("original")
        past = time.time() - 60
        os.utime(queue._lease_path(shard.shard_id), (past, past))
        assert queue.reclaim_expired(lease_s=0.01, worker_id="stealer") == \
            [shard.shard_id]
        stolen = queue.claim("stealer")
        assert stolen.shard_id == shard.shard_id
        # Stealer completes; the original's late completion is fenced.
        assert queue.complete(stolen, "stealer")
        assert not queue.complete(shard, "original")
        events = queue.events()
        done = [e for e in events if e["kind"] == "shard_done"]
        assert len(done) == 1 and done[0]["worker"] == "stealer"
        assert "lease_lost" in [e["kind"] for e in events]
        assert queue.status().done == 1

    def test_lease_owned_requires_claim_and_matching_worker(self, tmp_path,
                                                            sweep):
        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep)
        shard = queue.claim("w1")
        assert queue.lease_owned(shard.shard_id, "w1")
        assert not queue.lease_owned(shard.shard_id, "w2")
        queue.complete(shard, "w1")
        assert not queue.lease_owned(shard.shard_id, "w1")

    def test_gather_error_is_structured(self, tmp_path, sweep):
        from repro.runtime import PartialSweepError

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep, shard_size=1)
        queue.fail(queue.claim("w"), "w", error="boom")
        with pytest.raises(PartialSweepError) as excinfo:
            queue.gather()
        error = excinfo.value
        assert error.records == []
        assert len(error.missing) == len(sweep)
        assert len(error.failed_shards) == 1
        assert "retry-failed" in str(error)
        assert error.failed_shards[0] in str(error)
        assert queue.gather(partial=True) == []


def test_depth_tracks_every_shard_state(tmp_path, sweep):
    """depth() = pending + claimed across the whole lifecycle — the
    probe the API status endpoint and autoscalers poll."""
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep, shard_size=1)
    assert queue.depth() == 4                      # all pending
    first = queue.claim("w")
    assert queue.depth() == 4                      # claimed still counts
    assert queue.complete(first, "w")
    assert queue.depth() == 3                      # done drops out
    doomed = queue.claim("w")
    queue.fail(doomed, "w", error="poison")
    assert queue.depth() == 2                      # quarantined drops out
    queue.retry_failed()
    assert queue.depth() == 3                      # re-armed counts again
    released = queue.claim("w")
    queue.release(released, "w", error="transient")
    assert queue.depth() == 3                      # released stays pending
    status = queue.status()
    assert status.depth == queue.depth()


def test_status_wire_dict_and_counter_rows(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep, shard_size=1)
    queue.complete(queue.claim("w"), "w")
    queue.fail(queue.claim("w"), "w", error="boom")
    status = queue.status()
    doc = json.loads(json.dumps(status.to_dict()))
    assert doc["total_shards"] == 4 and doc["depth"] == 2
    assert doc["pending"] == 2 and doc["claimed"] == 0
    assert doc["done"] == 1 and doc["failed"] == 1
    assert doc["complete"] is False and doc["settled"] is False
    rows = status.counter_rows()
    assert rows[0] == ["shards", 4]
    assert ["failed (quarantined)", 1] in rows
    assert dict((name, value) for name, value in rows)["complete"] == "no"
