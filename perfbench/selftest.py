"""The benchmark's own test: run every workload untraced and traced.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seed 0] [--seconds 30]

Checks, and exits nonzero unless all hold:

* every wrapped target exists and fires on the workload meant to
  exercise it (a mis-patched import must not read as zero);
* traced records are byte-identical to untraced ones;
* each workload's lead layer holds the largest self-time share, the
  partitioned path runs on size-50k only, and service-mixed reports the
  runtime waits of both request kinds;
* an LRS call nested in another is counted once, and off the partitioned
  path LRS columns equal OGWS iterations;
* without the program's source the command fails without a result.

It also prints the tracing overhead (traced over untraced timed wall).
Not collected by pytest: later versions that delete a traced path will
see it reported absent here, by design.
"""

import argparse
import json
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import types

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from spans import TARGETS, Recorder  # noqa: E402

#: Span names each workload must fire (benchmark and worker processes).
EXPECTED = {
    "sweep-iscas": {
        "runtime.runner", "circuit.build", "circuit.compile",
        "circuit.sweep_plan", "noise.similarity", "noise.ordering",
        "geometry.layout", "noise.coupling_build", "noise.coupling_eval",
        "timing.arrival_sweep", "timing.project", "core.lrs",
        "core.step_eval", "core.a4", "core.lockstep", "core.session_solve",
        "runtime.pool"},
    "size-50k": {
        "runtime.runner", "runtime.pool",
        "circuit.build", "circuit.compile", "circuit.sweep_plan",
        "noise.similarity", "noise.ordering", "geometry.layout",
        "noise.coupling_build", "noise.coupling_eval",
        "timing.arrival_sweep", "timing.project", "core.lrs",
        "core.step_eval", "core.a4", "core.session_solve",
        "core.partition", "core.partitioned"},
    "service-mixed": {
        "runtime.gather", "runtime.cache_put", "runtime.cache_get",
        "runtime.pool", "core.session_solve", "core.lockstep", "core.lrs"},
}

#: Self-time groups for the lead-layer check (core.step_eval_s is
#: inclusive of its sweeps, so it stays out of the shares).
SETUP = ("circuit.build_s", "circuit.compile_s", "circuit.sweep_plan_s",
         "noise.similarity_s", "noise.ordering_s", "geometry.layout_s",
         "noise.coupling_build_s", "core.partition_s")
OGWS = ("core.lrs_s", "core.a4_s", "core.lockstep_s",
        "core.session_solve_s", "core.partitioned_s",
        "timing.arrival_sweep_s", "timing.project_s")
SERVICE_WAITS = ("runtime.http_submit_s", "runtime.queue_wait_s",
                 "runtime.shard_s", "runtime.settle_s",
                 "runtime.replay_submit_s", "runtime.replay_fetch_s")


def run(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=900)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    out = {"json": json.loads(lines[-1]), "fired": set(), "absent": []}
    for line in lines:
        if line.startswith("records: "):
            out["records"] = line
        elif line.startswith("timed phase: "):
            out["timed_s"] = float(line.split()[2])
        elif "wrapped targets fired: " in line:
            out["fired"].update(
                n for n in line.split(": ", 1)[1].split(", ") if n)
        elif line.startswith("absent targets: "):
            out["absent"] = line.split(": ", 1)[1].split(", ")
    return out


def nested_lrs_counts():
    """``(calls, cols, passes)`` counted for one ``solve_batch`` of one
    column that falls back to ``solve``, as the LRS does for K = 1.

    No workload nests LRS calls today, so a stand-in solver exercises
    the outermost-only counting rule.
    """
    class Result:
        passes = 3

    class Solver:
        def solve(self, multipliers):
            return Result()

        def solve_batch(self, multipliers):
            return [self.solve(m) for m in multipliers]

    module = types.ModuleType("perfbench_standin_lrs")
    module.LagrangianSubproblemSolver = Solver
    sys.modules[module.__name__] = module
    recorder = Recorder().install(
        [(name, module.__name__, path, options)
         for name, _, path, options in TARGETS if name == "core.lrs"])
    with recorder.recording():
        Solver().solve_batch([None])
    recorder.uninstall()
    return tuple(recorder.counters[k] for k in
                 ("core.lrs_calls", "core.lrs_cols", "core.lrs_passes"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    counts = nested_lrs_counts()
    check(counts == (1, 1, 3), "an LRS solve nested in solve_batch counts "
                               f"once (calls, cols, passes = {counts})")

    fired_anywhere = set()
    for workload, expected in EXPECTED.items():
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        for label, proc in (("untraced", plain), ("traced", traced)):
            check(proc.returncode == 0,
                  f"{workload} {label} run exits 0 (got {proc.returncode})")
        if plain.returncode or traced.returncode:
            print(plain.stdout[-2000:], plain.stderr[-2000:],
                  traced.stdout[-2000:], traced.stderr[-2000:])
            continue
        a, b = parse(plain), parse(traced)
        check(a["records"] == b["records"],
              f"{workload} traced records identical to untraced")
        check(not b["absent"], f"{workload} no absent targets "
                               f"({', '.join(b['absent']) or 'none'})")
        missing = expected - b["fired"]
        check(not missing, f"{workload} fires its targets "
                           f"(missing: {', '.join(sorted(missing)) or '-'})")
        fired_anywhere |= b["fired"]
        layers = {k: v["value"] for k, v in b["json"]["metrics"].items()}
        setup = sum(layers[k] for k in SETUP)
        ogws = sum(layers[k] for k in OGWS)
        partitioned = layers["core.partition_s"] + layers["core.partitioned_s"]
        if workload == "sweep-iscas":
            check(ogws > setup, f"sweep-iscas OGWS self time {ogws:.2f} s "
                                f"over set-up {setup:.2f} s")
        if workload == "size-50k":
            check(setup > ogws, f"size-50k set-up self time {setup:.2f} s "
                                f"over OGWS {ogws:.2f} s")
            check(layers["core.partition_s"] > 0
                  and layers["core.partitioned_s"] > 0,
                  "size-50k runs the partitioned path")
        else:
            check(partitioned == 0, f"{workload} never partitions")
            # Every OGWS iteration solves the LRS once per live column, so
            # on the monolithic path the two counts must agree exactly.
            check(layers["core.lrs_cols"] == layers["core.iterations"] > 0,
                  f"{workload} LRS columns {layers['core.lrs_cols']} equal "
                  f"OGWS iterations {layers['core.iterations']}")
        if workload == "service-mixed":
            zero = [k for k in SERVICE_WAITS if not layers[k] > 0]
            check(not zero, "service-mixed reports waits of both request "
                            f"kinds (zero: {', '.join(zero) or '-'})")
        print(f"     {workload} tracing overhead "
              f"{b['timed_s'] / a['timed_s']:.3f} (traced "
              f"{b['timed_s']:.2f} s / untraced {a['timed_s']:.2f} s)")
    names = {target[0] for target in TARGETS}
    check(names <= fired_anywhere, "every wrapped target fires somewhere "
          f"(never: {', '.join(sorted(names - fired_anywhere)) or '-'})")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in declared["paths"]:
            shutil.copytree(ROOT / path, pathlib.Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("sweep-iscas", args.seed, args.seconds, 0, cwd=bare)
        check(proc.returncode != 0 and not re.search(
                  r'"correct"', proc.stdout),
              "without the program source: nonzero exit, no result")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
