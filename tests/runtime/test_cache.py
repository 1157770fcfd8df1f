"""Content-hash result cache: round trips, invalidation, corruption."""

import json

import pytest

from repro.runtime import (
    BatchRunner,
    CircuitRef,
    FlowConfig,
    ResultCache,
    RunRecord,
    Scenario,
    run_scenario,
)
from repro.runtime.cache import scenario_key


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        CircuitRef.random(12, 4, 2, seed=0, target_depth=5),
        FlowConfig(n_patterns=32, max_iterations=50),
    )


@pytest.fixture(scope="module")
def record(scenario):
    return run_scenario(scenario)


def test_round_trip_preserves_canonical_payload(tmp_path, scenario, record):
    cache = ResultCache(tmp_path)
    assert cache.get(scenario) is None
    cache.put(scenario, record)
    loaded = cache.get(scenario)
    assert loaded is not None
    assert loaded.cached and not record.cached
    assert loaded.canonical_json() == record.canonical_json()
    assert loaded.runtime_s == record.runtime_s
    assert len(cache) == 1 and scenario in cache


def test_key_tracks_config_and_circuit(scenario):
    key = scenario_key(scenario)
    assert key == scenario_key(scenario)
    other_config = Scenario(scenario.circuit,
                            scenario.config.replace(noise_fraction=0.05))
    other_circuit = Scenario(CircuitRef.random(12, 4, 2, seed=1, target_depth=5),
                             scenario.config)
    assert scenario_key(other_config) != key
    assert scenario_key(other_circuit) != key


def test_corrupt_entry_is_a_miss(tmp_path, scenario, record):
    cache = ResultCache(tmp_path)
    path = cache.put(scenario, record)
    path.write_text("{not json")
    assert cache.get(scenario) is None
    path.write_text(json.dumps({"kind": "run_record", "schema": 99}))
    assert cache.get(scenario) is None
    # wrong-typed field inside a schema-valid document
    broken = record.to_dict()
    broken["sizes"] = 5
    path.write_text(json.dumps(broken))
    assert cache.get(scenario) is None


def test_clear_empties_the_store(tmp_path, scenario, record):
    cache = ResultCache(tmp_path)
    cache.put(scenario, record)
    cache.clear()
    assert len(cache) == 0
    assert cache.get(scenario) is None


def test_record_from_dict_rejects_junk():
    from repro.utils.errors import ReproError

    with pytest.raises(ReproError):
        RunRecord.from_dict({"kind": "circuit"})
    with pytest.raises(ReproError):
        RunRecord.from_dict({"kind": "run_record", "schema": 99})
    # Schema 2 records carry the removed partition fields in their config.
    with pytest.raises(ReproError):
        RunRecord.from_dict({"kind": "run_record", "schema": 2})


def test_runner_overwrites_corrupt_entry(tmp_path, scenario):
    cache = ResultCache(tmp_path)
    runner = BatchRunner(cache=cache)
    [first] = runner.run([scenario])
    cache.path_for(scenario).write_text("garbage")
    rerun = BatchRunner(cache=cache)
    [second] = rerun.run([scenario])
    assert rerun.stats.computed == 1
    assert second.canonical_json() == first.canonical_json()
    assert BatchRunner(cache=cache).run([scenario])[0].cached


class TestSpecHashKeys:
    """PR 2: get() is pure hashing — no circuit construction."""

    def test_key_is_the_scenario_content_hash(self, scenario):
        assert scenario_key(scenario) == scenario.content_hash()

    def test_get_never_builds_the_circuit(self, tmp_path, scenario, record,
                                          monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(scenario, record)

        def forbidden(self):
            raise AssertionError("get() must not build circuits")

        monkeypatch.setattr(CircuitRef, "build", forbidden)
        loaded = cache.get(scenario)
        assert loaded is not None
        assert loaded.canonical_json() == record.canonical_json()

    def test_record_carries_worker_fingerprint(self, scenario, record):
        assert record.fingerprint == scenario.circuit.fingerprint()

    def test_entry_stores_fingerprint(self, tmp_path, scenario, record):
        cache = ResultCache(tmp_path)
        path = cache.put(scenario, record)
        entry = json.loads(path.read_text())
        assert entry["kind"] == "cache_entry"
        assert entry["fingerprint"] == record.fingerprint

    def test_verify_fingerprints_detects_stale_entry(self, tmp_path, scenario,
                                                     record):
        cache = ResultCache(tmp_path, verify_fingerprints=True)
        path = cache.put(scenario, record)
        assert cache.get(scenario) is not None
        entry = json.loads(path.read_text())
        entry["fingerprint"] = "0" * 64  # circuit changed behind the spec
        path.write_text(json.dumps(entry))
        assert cache.get(scenario) is None
        # Without verification the stale entry is trusted (documented).
        assert ResultCache(tmp_path).get(scenario) is not None


class TestStatsAndPrune:
    def test_counters_persist_across_instances(self, tmp_path, scenario,
                                               record):
        cache = ResultCache(tmp_path)
        assert cache.get(scenario) is None          # miss (buffered)
        cache.put(scenario, record)                 # put (flushes)
        assert cache.get(scenario) is not None      # hit (buffered)
        cache.flush()
        stats = ResultCache(tmp_path).stats()       # fresh instance
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert stats.entries == 1 and stats.total_bytes > 0

    def test_hits_buffer_without_filesystem_writes(self, tmp_path, scenario,
                                                   record):
        cache = ResultCache(tmp_path)
        cache.put(scenario, record)
        before = cache.shard_path.stat().st_mtime_ns
        for _ in range(5):
            assert cache.get(scenario) is not None
        assert cache.shard_path.stat().st_mtime_ns == before  # no write per hit
        assert cache.stats().hits == 5                  # flushed on stats()

    def test_counter_shards_survive_contention(self, tmp_path, scenario,
                                               record):
        """Two instances flushing concurrently lose nothing (per-process
        shards replace the old last-writer-wins stats.json)."""
        a = ResultCache(tmp_path)
        b = ResultCache(tmp_path)
        assert a.shard_path != b.shard_path
        a.put(scenario, record)
        for _ in range(3):
            assert a.get(scenario) is not None
            assert b.get(scenario) is not None
        # Interleaved flushes: each instance rewrites only its own shard.
        a.flush()
        b.flush()
        merged = ResultCache(tmp_path).stats()
        assert merged.puts == 1
        assert merged.hits == 6

    def test_legacy_stats_json_counts_as_base(self, tmp_path, scenario,
                                              record):
        import json

        (tmp_path / "stats.json").write_text(
            json.dumps({"hits": 10, "misses": 2, "puts": 3, "evictions": 1}))
        cache = ResultCache(tmp_path)
        cache.put(scenario, record)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.puts, stats.evictions) == \
            (10, 2, 4, 1)

    def test_shards_are_not_cache_entries(self, tmp_path, scenario, record):
        cache = ResultCache(tmp_path)
        cache.put(scenario, record)
        cache.flush()
        assert len(cache) == 1                      # shard files excluded
        cache.clear()
        assert len(cache) == 0
        assert cache.shard_path.exists()            # counters survive clear
        assert ResultCache(tmp_path).stats().puts == 1

    def test_prune_evicts_lru_first(self, tmp_path, scenario, record):
        import dataclasses as dc
        import os
        import time

        cache = ResultCache(tmp_path)
        other = Scenario(scenario.circuit,
                         scenario.config.replace(noise_fraction=0.07))
        old_path = cache.put(other, dc.replace(record, scenario=other))
        new_path = cache.put(scenario, record)
        past = time.time() - 3600
        os.utime(old_path, (past, past))
        evicted, freed = cache.prune(new_path.stat().st_size)
        assert evicted == 1 and freed > 0
        assert not old_path.exists() and new_path.exists()
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self, tmp_path, scenario, record):
        import os
        import time

        cache = ResultCache(tmp_path)
        path = cache.put(scenario, record)
        past = time.time() - 3600
        os.utime(path, (past, past))
        cache.get(scenario)
        assert path.stat().st_mtime > past + 1800

    def test_prune_to_zero_clears_everything(self, tmp_path, scenario, record):
        cache = ResultCache(tmp_path)
        cache.put(scenario, record)
        evicted, _ = cache.prune(0)
        assert evicted == 1 and len(cache) == 0

    def test_prune_rejects_negative(self, tmp_path):
        from repro.utils.errors import ReproError

        with pytest.raises(ReproError):
            ResultCache(tmp_path).prune(-1)


class TestInProcessVerification:
    def test_verify_catches_bench_edited_mid_process(self, tmp_path):
        """verify_fingerprints must re-hash, not reuse a process memo."""
        import shutil

        from repro.circuit.parser import builtin_bench_path

        bench = tmp_path / "tiny.bench"
        shutil.copy(builtin_bench_path("c17"), bench)
        scenario = Scenario(CircuitRef.bench(bench),
                            FlowConfig(n_patterns=32, max_iterations=30))
        record = run_scenario(scenario)
        cache = ResultCache(tmp_path / "cache", verify_fingerprints=True)
        cache.put(scenario, record)
        assert cache.get(scenario) is not None
        # Same process, same CircuitRef: edit the netlist behind the path.
        bench.write_text(bench.read_text().replace(
            "22 = NAND(10, 16)", "22 = NOR(10, 16)"))
        assert cache.get(scenario) is None


class TestPeekAndMerge:
    """PR 4: side-effect-free reads and cross-host result union."""

    def test_peek_round_trips_without_side_effects(self, tmp_path, scenario,
                                                   record):
        cache = ResultCache(tmp_path)
        assert cache.peek(scenario) is None
        cache.put(scenario, record)
        cache.flush()
        peeked = cache.peek(scenario)
        assert not peeked.cached                      # verbatim, not a "hit"
        assert peeked.canonical_json() == record.canonical_json()
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)   # no counter traffic

    def test_merge_unions_and_skips_duplicates(self, tmp_path, scenario,
                                               record):
        source = ResultCache(tmp_path / "a")
        target = ResultCache(tmp_path / "b")
        source.put(scenario, record)
        other = Scenario(scenario.circuit,
                         scenario.config.replace(noise_fraction=0.07))
        target.put(other, record)

        assert target.merge(source) == (1, 0)
        assert target.merge(source) == (0, 1)         # now a duplicate
        assert target.merge(tmp_path / "a") == (0, 1)  # path form works too
        assert len(target) == 2
        merged = target.peek(scenario)
        assert merged.canonical_json() == record.canonical_json()

    def test_merge_from_missing_directory_raises(self, tmp_path):
        from repro.utils.errors import ReproError

        with pytest.raises(ReproError, match="no such cache"):
            ResultCache(tmp_path / "b").merge(tmp_path / "missing")


def _hammer_puts(root, scenario, record, count):
    """Worker-process body: one cache instance bumping real counters."""
    cache = ResultCache(root)
    for _ in range(count):
        cache.put(scenario, record)
    cache.flush()


class TestConcurrentWorkers:
    """PR 4 satellites: counter exactness and prune-vs-put under real
    process contention (the queue service hits both constantly)."""

    def test_two_processes_lose_no_counts(self, tmp_path, scenario, record):
        import multiprocessing

        processes = [
            multiprocessing.Process(
                target=_hammer_puts,
                args=(str(tmp_path), scenario, record, 15))
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        assert all(p.exitcode == 0 for p in processes)
        assert ResultCache(tmp_path).stats().puts == 30

    def test_prune_while_worker_is_mid_put(self, tmp_path, scenario, record):
        """LRU eviction racing a writer never corrupts the store: every
        surviving entry parses, and no temp files leak."""
        import multiprocessing

        writer = multiprocessing.Process(
            target=_hammer_puts, args=(str(tmp_path), scenario, record, 200))
        pruner = ResultCache(tmp_path)
        writer.start()
        while writer.is_alive():
            pruner.prune(0)
            entry = pruner.peek(scenario)
            if entry is not None:       # either absent or fully intact
                assert entry.canonical_json() == record.canonical_json()
        writer.join()
        assert writer.exitcode == 0
        final = ResultCache(tmp_path).stats()       # store still coherent
        assert final.puts == 200
        assert not list(pruner.root.glob("*/*.tmp*"))   # atomic writes only


def _put_many(root, scenarios, record):
    """Worker-process body: distinct entries through one instance."""
    cache = ResultCache(root)
    for scenario in scenarios:
        cache.put(scenario, record)
    cache.flush()


def _merge_repeatedly(target_root, source_root, rounds):
    """Worker-process body: keep unioning source into target."""
    target = ResultCache(target_root)
    for _ in range(rounds):
        target.merge(source_root)


class TestMergeUnderContention:
    """PR 7 satellites: merge racing put and prune — no lost records,
    no torn entries, counters exact."""

    @staticmethod
    def _distinct(scenario, base, count):
        return [Scenario(scenario.circuit,
                         scenario.config.replace(noise_fraction=base + i / 1e4))
                for i in range(count)]

    def test_merge_racing_puts_loses_no_records(self, tmp_path, scenario,
                                                record):
        import multiprocessing

        source = ResultCache(tmp_path / "src")
        merged_in = self._distinct(scenario, 0.2, 20)
        for s in merged_in:
            source.put(s, record)
        put_directly = self._distinct(scenario, 0.5, 20)

        target_root = tmp_path / "dst"
        writer = multiprocessing.Process(
            target=_put_many, args=(str(target_root), put_directly, record))
        target = ResultCache(target_root)
        writer.start()
        try:
            while writer.is_alive():
                target.merge(source)
        finally:
            writer.join()
        assert writer.exitcode == 0
        target.merge(source)                    # quiesced: complete union
        assert len(target) == 40
        for s in merged_in + put_directly:      # every record intact
            assert target.peek(s).canonical_json() == record.canonical_json()
        # Counters stay exact: merge deliberately counts nothing, so the
        # writer's 20 puts are the whole story.
        assert ResultCache(target_root).stats().puts == 20

    def test_merge_racing_prune_never_tears_and_heals(self, tmp_path,
                                                      scenario, record):
        import multiprocessing

        source = ResultCache(tmp_path / "src")
        entries = self._distinct(scenario, 0.2, 20)
        for s in entries:
            source.put(s, record)

        target_root = tmp_path / "dst"
        target = ResultCache(target_root)
        merger = multiprocessing.Process(
            target=_merge_repeatedly,
            args=(str(target_root), str(tmp_path / "src"), 40))
        merger.start()
        try:
            while merger.is_alive():
                target.prune(0)                 # evict everything, repeatedly
                for s in entries:               # absent or fully intact
                    peeked = target.peek(s)
                    if peeked is not None:
                        assert peeked.canonical_json() == \
                            record.canonical_json()
        finally:
            merger.join()
        assert merger.exitcode == 0
        # One quiesced merge heals whatever the pruner ate mid-race.
        assert target.merge(source)[0] + len(target) >= 20
        target.merge(source)
        assert len(target) == 20
        assert not list(target.root.glob("*/*.tmp*"))   # atomic writes only
