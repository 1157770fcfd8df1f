"""Batch execution: parallel determinism, cache short-circuit, streaming."""

import pytest

from repro.runtime import (
    BatchRunner,
    CircuitRef,
    FlowConfig,
    ResultCache,
    SweepSpec,
    run_scenario,
)
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
def serial_records(sweep):
    runner = BatchRunner(jobs=1)
    records = runner.run(sweep)
    assert runner.stats.computed == len(sweep)
    return records


def test_records_are_structured(sweep, serial_records):
    assert len(serial_records) == len(sweep) == 4
    for record, scenario in zip(serial_records, sweep.scenarios()):
        assert record.scenario == scenario
        assert record.iterations >= 1
        assert len(record.sizes) == record.scenario.circuit.build().num_nodes
        assert record.metrics.area_um2 < record.initial_metrics.area_um2


def test_parallel_matches_serial_byte_for_byte(sweep, serial_records):
    runner = BatchRunner(jobs=2)
    parallel = runner.run(sweep)
    assert runner.stats.computed == len(sweep)
    assert ([r.canonical_json() for r in parallel]
            == [r.canonical_json() for r in serial_records])


def test_rerun_is_deterministic(sweep, serial_records):
    again = BatchRunner(jobs=1).run(sweep)
    assert ([r.canonical_json() for r in again]
            == [r.canonical_json() for r in serial_records])


def test_streaming_yields_in_scenario_order(sweep, serial_records):
    seen = []
    for record in BatchRunner(jobs=2).iter_records(sweep):
        seen.append(record.scenario.content_hash())
    assert seen == [s.content_hash() for s in sweep.scenarios()]


def test_second_run_served_entirely_from_cache(tmp_path, sweep, serial_records):
    cache = ResultCache(tmp_path)
    cold = BatchRunner(jobs=1, cache=cache)
    cold_records = cold.run(sweep)
    assert cold.stats.computed == len(sweep)
    assert cold.stats.cache_hits == 0

    calls = []

    def counting_run(scenario):
        calls.append(scenario)
        return run_scenario(scenario)

    warm = BatchRunner(jobs=1, cache=cache, run=counting_run)
    warm_records = warm.run(sweep)
    assert calls == [], "warm cache must not invoke the solver at all"
    assert warm.stats.computed == 0
    assert warm.stats.cache_hits == len(sweep)
    assert all(r.cached for r in warm_records)
    assert ([r.canonical_json() for r in warm_records]
            == [r.canonical_json() for r in cold_records]
            == [r.canonical_json() for r in serial_records])


def test_partial_cache_computes_only_misses(tmp_path, sweep):
    scenarios = sweep.scenarios()
    cache = ResultCache(tmp_path)
    BatchRunner(jobs=1, cache=cache).run(scenarios[:2])

    calls = []

    def counting_run(scenario):
        calls.append(scenario)
        return run_scenario(scenario)

    runner = BatchRunner(jobs=1, cache=cache, run=counting_run)
    records = runner.run(scenarios)
    assert [s.content_hash() for s in calls] == \
        [s.content_hash() for s in scenarios[2:]]
    assert runner.stats.cache_hits == 2 and runner.stats.computed == 2
    assert [r.scenario.content_hash() for r in records] == \
        [s.content_hash() for s in scenarios]


def test_abandoned_parallel_stream_returns_promptly(sweep):
    """Breaking out of iter_records must terminate queued pool work, not
    join on the rest of the sweep."""
    runner = BatchRunner(jobs=2)
    for record in runner.iter_records(sweep):
        assert record.feasible
        break
    assert runner.stats.computed == 1


def test_progress_callback_streams_every_record(sweep):
    seen = []
    records = BatchRunner(jobs=1).run(sweep, progress=seen.append)
    assert seen == records


def test_invalid_construction_rejected():
    with pytest.raises(ValidationError):
        BatchRunner(jobs=0)
    with pytest.raises(ValidationError):
        BatchRunner(jobs=2, run=lambda s: None)


def test_resolve_jobs_accepts_auto_and_rejects_nonpositive():
    import os

    from repro.runtime import resolve_jobs

    assert resolve_jobs(3) == 3
    assert resolve_jobs("4") == 4
    auto = resolve_jobs("auto")
    assert auto == max(1, os.cpu_count() or 1)
    assert resolve_jobs(" AUTO ") == auto       # whitespace/case-insensitive
    for bad in (0, -1, "0", "-2", "many", ""):
        with pytest.raises(ValidationError):
            resolve_jobs(bad)


def test_batch_runner_resolves_auto_jobs():
    import os

    runner = BatchRunner(jobs="auto")
    assert runner.jobs == max(1, os.cpu_count() or 1)
    with pytest.raises(ValidationError):
        BatchRunner(jobs="-3")


def test_scenario_list_accepted_directly(sweep):
    scenarios = sweep.scenarios()[:2]
    records = BatchRunner(jobs=1).run(scenarios)
    assert [r.scenario for r in records] == scenarios


class TestGroupingPlanner:
    """The runner groups misses by CircuitRef and dispatches whole
    compile-once groups; stream order, seeds, and bytes are unchanged."""

    def test_grouped_matches_per_scenario_bytes(self, sweep):
        runner = BatchRunner(jobs=1)
        grouped = runner.run(sweep)
        assert runner.stats.groups == 2          # one per circuit
        assert runner.stats.computed == len(sweep)
        # run_scenario is a one-scenario group on a fresh session.
        solo = [run_scenario(s) for s in sweep.scenarios()]
        assert ([r.canonical_json() for r in grouped]
                == [r.canonical_json() for r in solo])

    def test_grouped_parallel_matches_serial(self, sweep, serial_records):
        runner = BatchRunner(jobs=2)
        parallel = runner.run(sweep)
        assert runner.stats.groups == 2
        assert ([r.canonical_json() for r in parallel]
                == [r.canonical_json() for r in serial_records])

    def test_single_circuit_parallel_sweep_splits_by_engine(self, sweep,
                                                            serial_records):
        """One circuit with --jobs N must not collapse onto one worker:
        groups subdivide by engine config to preserve parallelism."""
        scenarios = [s for s in sweep.scenarios()
                     if s.circuit == sweep.circuits[0]]
        assert len(scenarios) == 2              # woss + random orderings
        runner = BatchRunner(jobs=2)
        records = runner.run(scenarios)
        assert runner.stats.groups == 2         # split, both workers busy
        by_hash = {r.scenario.content_hash(): r.canonical_json()
                   for r in serial_records}
        assert [r.canonical_json() for r in records] == \
            [by_hash[s.content_hash()] for s in scenarios]

    def test_interleaved_circuit_order_preserved(self, sweep, serial_records):
        """Scenario order A B A B forms two groups yet streams in input
        order (group results buffer until their turn)."""
        scenarios = sweep.scenarios()
        shuffled = [scenarios[0], scenarios[2], scenarios[1], scenarios[3]]
        runner = BatchRunner(jobs=1)
        records = runner.run(shuffled)
        assert runner.stats.groups == 2
        assert [r.scenario.content_hash() for r in records] == \
            [s.content_hash() for s in shuffled]
        by_hash = {r.scenario.content_hash(): r.canonical_json()
                   for r in serial_records}
        assert [r.canonical_json() for r in records] == \
            [by_hash[s.content_hash()] for s in shuffled]

    def test_cache_hits_peeled_before_grouping(self, tmp_path, sweep):
        scenarios = sweep.scenarios()
        cache = ResultCache(tmp_path)
        BatchRunner(jobs=1, cache=cache).run(scenarios[:3])
        runner = BatchRunner(jobs=1, cache=cache)
        records = runner.run(scenarios)
        assert runner.stats.cache_hits == 3
        assert runner.stats.computed == 1
        assert runner.stats.groups == 1          # only the missing circuit
        assert [r.scenario.content_hash() for r in records] == \
            [s.content_hash() for s in scenarios]

    def test_warm_cache_skips_grouping_entirely(self, tmp_path, sweep):
        cache = ResultCache(tmp_path)
        BatchRunner(jobs=1, cache=cache).run(sweep)
        runner = BatchRunner(jobs=1, cache=cache)
        records = runner.run(sweep)
        assert runner.stats.cache_hits == len(sweep)
        assert runner.stats.groups == 0
        assert all(r.cached for r in records)

    def test_custom_run_disables_grouping(self, sweep):
        calls = []

        def counting_run(scenario):
            calls.append(scenario)
            return run_scenario(scenario)

        runner = BatchRunner(jobs=1, run=counting_run)
        runner.run(sweep.scenarios()[:2])
        assert runner.stats.groups == 0
        assert len(calls) == 2

    def test_abandoned_grouped_stream_terminates(self, sweep):
        runner = BatchRunner(jobs=2)
        for record in runner.iter_records(sweep):
            assert record.feasible
            break
        assert runner.stats.computed == 1
