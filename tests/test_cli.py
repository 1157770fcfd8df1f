"""Command-line interface."""

import io

import pytest

from repro.cli import main
from repro.circuit.parser import builtin_bench_path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSuiteCommand:
    def test_lists_all_circuits(self):
        code, text = run_cli("suite")
        assert code == 0
        for name in ("c432", "c7552", "c6288"):
            assert name in text


class TestInfoCommand:
    def test_table1_name(self):
        code, text = run_cli("info", "c432")
        assert code == 0
        assert "gates" in text and "214" in text
        assert "426" in text  # wires

    def test_bench_path(self):
        code, text = run_cli("info", str(builtin_bench_path("c17")))
        assert code == 0
        assert "c17" in text

    def test_random_spec(self):
        code, text = run_cli("info", "random:2000")
        assert code == 0
        assert "rand2000" in text and "2000" in text

    def test_unknown_circuit(self):
        code, text = run_cli("info", "c9999")
        assert code == 2
        assert "error" in text


class TestSizeCommand:
    def test_sizes_c17(self):
        code, text = run_cli("size", str(builtin_bench_path("c17")),
                             "--patterns", "64", "--max-iterations", "150")
        assert code == 0
        assert "converged" in text
        assert "stage 1" in text and "stage 2" in text

    def test_kkt_flag(self):
        code, text = run_cli("size", str(builtin_bench_path("c17")),
                             "--patterns", "64", "--max-iterations", "150",
                             "--kkt")
        assert code == 0
        assert "KKT" in text

    def test_sizes_flag_prints_components(self):
        code, text = run_cli("size", str(builtin_bench_path("c17")),
                             "--patterns", "64", "--max-iterations", "150",
                             "--sizes")
        assert code == 0
        assert "gate:22" in text

    def test_infeasible_bounds_exit_code(self):
        code, text = run_cli("size", str(builtin_bench_path("c17")),
                             "--patterns", "64", "--max-iterations", "20",
                             "--delay-slack", "1e-6")
        assert code == 1
        assert "INFEASIBLE" in text

    def test_ordering_choice_validated(self):
        with pytest.raises(SystemExit):
            run_cli("size", "c432", "--ordering", "bogus")


class TestSweepCommand:
    @staticmethod
    def sweep(*extra, cache_args=("--no-cache",)):
        return run_cli("sweep", str(builtin_bench_path("c17")),
                       "--orderings", "woss", "none",
                       "--delay-modes", "own", "none",
                       "--patterns", "32", "--max-iterations", "60",
                       *cache_args, *extra)

    def test_expands_cross_product(self):
        code, text = self.sweep()
        assert code == 0
        assert "sweep: 4 scenarios" in text
        assert "4 scenarios: 4 computed, 0 cached" in text
        assert "Scenario sweep" in text
        assert text.count("c17/") == 4  # one streamed line per scenario

    def test_parallel_jobs(self):
        code, text = self.sweep("--jobs", "2")
        assert code == 0
        assert "jobs=2" in text
        assert "4 computed" in text

    def test_warm_cache_skips_solver(self, tmp_path):
        cache_args = ("--cache-dir", str(tmp_path / "cache"))
        code, text = self.sweep(cache_args=cache_args)
        assert code == 0 and "4 computed, 0 cached" in text
        code, text = self.sweep(cache_args=cache_args)
        assert code == 0
        assert "0 computed, 4 cached" in text
        assert "[cached]" in text

    def test_quiet_suppresses_stream(self):
        code, text = self.sweep("--quiet")
        assert code == 0
        assert "[cached]" not in text
        assert text.count("c17/") == 0

    def test_unknown_circuit_rejected(self):
        code, text = run_cli("sweep", "c9999", "--no-cache")
        assert code == 2
        assert "error" in text

    def test_infeasible_scenario_exit_code(self):
        code, text = run_cli("sweep", str(builtin_bench_path("c17")),
                             "--patterns", "32", "--max-iterations", "20",
                             "--delay-slacks", "1e-6", "--no-cache")
        assert code == 1
        assert "INFEASIBLE" in text

    def test_jobs_auto_resolves_to_cpu_count(self):
        import os

        code, text = self.sweep("--jobs", "auto", "--quiet")
        assert code == 0
        assert f"jobs={max(1, os.cpu_count() or 1)}" in text

    def test_jobs_zero_and_negative_rejected(self):
        for bad in ("0", "-2", "several"):
            code, text = self.sweep("--jobs", bad)
            assert code == 2
            assert "error" in text and "jobs" in text


class TestQueueCommands:
    @staticmethod
    def submit(queue_dir, *extra):
        return run_cli("queue", "submit", str(builtin_bench_path("c17")),
                       "--noise-fractions", "0.1", "0.12",
                       "--patterns", "32", "--max-iterations", "60",
                       "--queue-dir", str(queue_dir), *extra)

    def test_submit_work_status_watch_gather_round_trip(self, tmp_path):
        queue_dir = tmp_path / "q"
        code, text = self.submit(queue_dir, "--shard-size", "1")
        assert code == 0
        assert "2 scenarios as 2 shards" in text

        code, text = run_cli("queue", "work", "--queue-dir", str(queue_dir),
                             "--jobs", "2")
        assert code == 0
        assert "records 2/2" in text

        code, text = run_cli("queue", "status", "--queue-dir", str(queue_dir))
        assert code == 0
        assert "complete" in text and "yes" in text

        code, text = run_cli("queue", "watch", "--queue-dir", str(queue_dir),
                             "--no-follow")
        assert code == 0
        assert "Sweep progress (2/2)" in text
        assert "[2/2]" in text

        code, text = run_cli("queue", "gather", "--queue-dir", str(queue_dir),
                             "--verify-serial")
        assert code == 0
        assert "byte-identical to a serial run" in text

    def test_merge_enables_gather_without_local_workers(self, tmp_path):
        drained, fresh = tmp_path / "a", tmp_path / "b"
        assert self.submit(drained)[0] == 0
        assert run_cli("queue", "work", "--queue-dir", str(drained))[0] == 0
        assert self.submit(fresh)[0] == 0

        code, text = run_cli("queue", "merge", str(drained),
                             "--queue-dir", str(fresh))
        assert code == 0
        assert "2 records copied" in text

        code, text = run_cli("queue", "gather", "--queue-dir", str(fresh),
                             "--quiet")
        assert code == 0

    def test_gather_before_work_is_an_error(self, tmp_path):
        queue_dir = tmp_path / "q"
        assert self.submit(queue_dir)[0] == 0
        code, text = run_cli("queue", "gather", "--queue-dir", str(queue_dir))
        assert code == 2
        assert "incomplete" in text

    def test_work_on_missing_queue_is_an_error(self, tmp_path):
        code, text = run_cli("queue", "work",
                             "--queue-dir", str(tmp_path / "nope"))
        assert code == 2
        assert "error" in text

    def test_cost_mode_submit_and_status_report(self, tmp_path):
        queue_dir = tmp_path / "q"
        code, text = self.submit(queue_dir, "--shard-mode", "cost")
        assert code == 0
        assert "cost mode" in text and "est cost" in text

        code, text = run_cli("queue", "status", "--queue-dir", str(queue_dir))
        assert code == 0
        assert "estimated vs actual cost" in text
        assert "pending" in text

        assert run_cli("queue", "work", "--queue-dir", str(queue_dir))[0] == 0
        code, text = run_cli("queue", "status", "--queue-dir", str(queue_dir))
        assert code == 0
        # After the drain the actual seconds column is populated.
        assert "estimated vs actual cost" in text and " - " not in text

        code, text = run_cli("queue", "gather", "--queue-dir", str(queue_dir),
                             "--verify-serial", "--quiet")
        assert code == 0
        assert "byte-identical" in text

    def test_work_requires_exactly_one_of_queue_dir_and_serve(self, tmp_path):
        code, text = run_cli("queue", "work")
        assert code == 2
        assert "exactly one" in text
        code, text = run_cli("queue", "work", "--queue-dir", str(tmp_path),
                             "--serve", str(tmp_path))
        assert code == 2
        assert "exactly one" in text
        code, text = run_cli("queue", "work", "--serve", str(tmp_path),
                             "--no-wait")
        assert code == 2
        assert "--max-idle" in text
        code, text = run_cli("queue", "work", "--serve",
                             str(tmp_path / "nope"))
        assert code == 2
        assert "serve directory" in text

    def test_serve_drains_submitted_queue_with_max_idle(self, tmp_path):
        base = tmp_path / "srv"
        base.mkdir()
        assert self.submit(base / "q1")[0] == 0
        code, text = run_cli("queue", "work", "--serve", str(base),
                             "--max-idle", "0.2")
        assert code == 0
        assert "serving worker" in text
        code, text = run_cli("queue", "gather", "--queue-dir",
                             str(base / "q1"), "--quiet")
        assert code == 0

    def test_resubmission_is_an_error(self, tmp_path):
        queue_dir = tmp_path / "q"
        assert self.submit(queue_dir)[0] == 0
        code, text = self.submit(queue_dir)
        assert code == 2
        assert "already holds" in text


class TestTable1Command:
    def test_single_circuit(self):
        code, text = run_cli("table1", "c432", "--patterns", "64",
                             "--max-iterations", "100")
        assert code == 0
        assert "Table 1 (reproduced)" in text
        assert "Table 1 (paper, as published)" in text

    def test_unknown_names_rejected(self):
        code, text = run_cli("table1", "c9999")
        assert code == 2
        assert "error" in text


def test_no_command_exits():
    with pytest.raises(SystemExit):
        run_cli()


class TestCacheCommand:
    def _populate(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _ = run_cli("sweep", str(builtin_bench_path("c17")),
                          "--patterns", "32", "--max-iterations", "30",
                          "--cache-dir", cache_dir, "--quiet")
        assert code in (0, 1)
        return cache_dir

    def test_stats_reports_counters(self, tmp_path):
        cache_dir = self._populate(tmp_path)
        code, text = run_cli("cache", "stats", "--cache-dir", cache_dir)
        assert code == 0
        assert "entries" in text and "hits" in text and "puts" in text

    def test_prune_evicts_down_to_cap(self, tmp_path):
        cache_dir = self._populate(tmp_path)
        code, text = run_cli("cache", "prune", "--max-bytes", "0",
                             "--cache-dir", cache_dir)
        assert code == 0
        assert "evicted 1 entries" in text
        code, text = run_cli("cache", "stats", "--cache-dir", cache_dir)
        assert code == 0 and "evictions" in text

    def test_clear_drops_entries(self, tmp_path):
        cache_dir = self._populate(tmp_path)
        code, text = run_cli("cache", "clear", "--cache-dir", cache_dir)
        assert code == 0
        assert "cleared 1 entries" in text

    def test_verify_cache_flag_accepted(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = ("sweep", str(builtin_bench_path("c17")), "--patterns", "32",
                "--max-iterations", "30", "--cache-dir", cache_dir,
                "--verify-cache", "--quiet")
        code, _ = run_cli(*args)
        assert code in (0, 1)
        code, text = run_cli(*args)
        assert code in (0, 1)
        assert "1 cached" in text

    def test_missing_cache_dir_is_an_error(self, tmp_path):
        code, text = run_cli("cache", "stats", "--cache-dir",
                             str(tmp_path / "nope"))
        assert code == 2 and "no such cache directory" in text
        assert not (tmp_path / "nope").exists()  # no mkdir side effect
