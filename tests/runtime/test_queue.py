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


def test_submit_shards_explicit_groups(tmp_path, sweep):
    scenarios = sweep.scenarios()
    queue = SweepQueue(tmp_path / "q")
    shards = queue.submit_shards([scenarios[:1], scenarios[1:2]])
    assert [shard.indexes for shard in shards] == [(0,), (1,)]
    assert len(queue.scenarios()) == 2
    with pytest.raises(ValidationError):
        SweepQueue(tmp_path / "q2").submit_shards([[]])


def test_gather_incomplete_raises_and_partial_returns(tmp_path, sweep):
    queue = SweepQueue(tmp_path / "q")
    queue.submit(sweep)
    with pytest.raises(ReproError, match="incomplete"):
        queue.gather()
    assert queue.gather(partial=True) == []


class TestCostSharding:
    """Cost-mode shards: budget respected, order unchanged, calibration."""

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
        from repro.runtime.queue import CostModel

        scenarios = self.mixed_scenarios()
        model = CostModel()
        budget = max(model.scenario_cost(s) for s in scenarios)
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

    def test_explicit_budget_and_shard_size_cap(self):
        scenarios = self.mixed_scenarios()
        loose = make_shards(scenarios, mode="cost", cost_budget=1e12)
        assert len(loose) == 3      # one shard per circuit group
        capped = make_shards(scenarios, mode="cost", cost_budget=1e12,
                             shard_size=1)
        assert all(len(shard) == 1 for shard in capped)

    def test_mode_and_budget_validation(self):
        scenarios = self.mixed_scenarios()
        with pytest.raises(ValidationError):
            make_shards(scenarios, mode="weight")
        with pytest.raises(ValidationError):
            make_shards(scenarios, mode="cost", cost_budget=0)

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


class TestCostModelCalibration:
    def test_from_bench_file(self, tmp_path, sweep):
        from repro.runtime.config import CircuitRef as Ref
        from repro.runtime.queue import CostModel

        bench = tmp_path / "BENCH_perf.json"
        bench.write_text(json.dumps({
            "kind": "perf_trajectory",
            "entries": [{"circuits": [
                {"name": "c432", "ogws_kernel_s": 0.010},
                {"name": "c880", "ogws_kernel_s": 0.025},
            ]}],
        }))
        model = CostModel.from_bench_file(bench)
        spec = SweepSpec(circuits=(Ref.iscas85("c432"), Ref.iscas85("c880")),
                         base=FlowConfig(n_patterns=32))
        costs = [model.scenario_cost(s) for s in spec.scenarios()]
        assert costs == [0.010, 0.025]      # measured seconds verbatim
        # Uncovered circuits scale their size estimate into seconds.
        other = sweep.scenarios()[0]
        assert 0 < model.scenario_cost(other) < 1.0
        with pytest.raises(ReproError):
            CostModel.from_bench_file(tmp_path / "missing.json")

    def test_from_events_uses_shard_timings(self):
        from repro.runtime.queue import CostModel

        events = [
            {"kind": "shard_timing", "circuit": "c432", "computed": 2,
             "elapsed_s": 0.2},
            {"kind": "shard_timing", "circuit": "c432", "computed": 1,
             "elapsed_s": 0.3},
            {"kind": "shard_timing", "circuit": "c880", "computed": 0,
             "elapsed_s": 0.5},      # all cache hits: no signal
            {"kind": "heartbeat"},
        ]
        model = CostModel.from_events(events)
        assert model.weights["c432"] == pytest.approx(0.2)   # mean(0.1, 0.3)
        assert "c880" not in model.weights

    def test_from_events_fits_scale_for_non_iscas_circuits(self, sweep):
        """size_est in the events fits seconds-per-component, so measured
        seconds and scaled size estimates stay in one unit even when no
        circuit is a Table 1 name (the straggler-regression guard)."""
        from repro.runtime.queue import CostModel, _circuit_size_estimate

        events = [
            {"kind": "shard_timing", "circuit": "rand60", "computed": 2,
             "elapsed_s": 0.4, "size_est": 100.0},     # 0.002 s/component
            {"kind": "shard_timing", "circuit": "rand60", "computed": 1,
             "elapsed_s": 0.2, "size_est": 100.0},
        ]
        model = CostModel.from_events(events)
        assert model.scale == pytest.approx(0.002)
        # An unmeasured circuit's estimate lands in *seconds* now:
        # comparable to the measured weight, not 1000× larger.
        scenario = sweep.scenarios()[0]
        expected = _circuit_size_estimate(scenario.circuit) * 0.002
        assert model.scenario_cost(scenario) == pytest.approx(expected)
        assert model.scenario_cost(scenario) < 1.0

    def test_cost_model_never_builds_random_refs(self, monkeypatch):
        from repro.runtime.queue import CostModel

        monkeypatch.setattr(
            CircuitRef, "build",
            lambda self: pytest.fail("CostModel built a circuit"))
        cost = CostModel().scenario_cost(
            Scenario(CircuitRef.random(5000, 64, 64, seed=1), FlowConfig()))
        assert cost == pytest.approx(2.0 * 5000)

    def test_worker_shard_timing_carries_size_est(self, tmp_path, sweep):
        from repro.runtime import Worker

        queue = SweepQueue(tmp_path / "q")
        queue.submit(sweep)
        Worker(queue, worker_id="w", lease_s=30.0).run()
        timings = queue.shard_timings().values()
        assert timings and all(t["size_est"] > 0 for t in timings)


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
