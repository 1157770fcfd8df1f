"""Run one benchmark workload; print its metrics, then one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload size-50k --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate invocation that wraps the program's layer entry points and
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Every record is checked before any metric prints;
the exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One BLAS/OpenMP thread: with nproc = 2, the solving process plus
#: helper threads must not exceed the cores.  Applied before NumPy loads.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

WORKLOADS = ("sweep-iscas", "size-50k", "service-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment(env):
    """The process settings every run uses, on every commit alike."""
    env.update(THREAD_PINS)
    for name in ("REPRO_NO_BATCH", "REPRO_FAULTS"):
        env.pop(name, None)
    return env


def _layer_metrics(summary):
    """Finish per-layer values that combine raw counts."""
    hits = summary.get("runtime.pool_hits", 0)
    misses = summary.get("runtime.pool_misses", 0)
    summary["runtime.pool_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    return summary


def _machine():
    """The facts a figure depends on, printed with every run."""
    import platform

    import numpy
    import scipy

    pins = ",".join(f"{k}={v}" for k, v in sorted(THREAD_PINS.items()))
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"threads={pins}")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pin_environment(os.environ)
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    import spans
    import workloads

    recorder = spans.Recorder().install() if args.trace else None
    run = getattr(workloads, args.workload.replace("-", "_"))
    outcome = run(args.seed, args.seconds, recorder)
    if recorder is not None:
        recorder.uninstall()

    for problem in outcome.problems:
        print(f"check failed: {problem}")
    correct = not outcome.problems and outcome.failed == 0
    digest = hashlib.sha256(
        "\n".join(outcome.digest_lines).encode()).hexdigest()
    iterations = sum(json.loads(line)["iterations"]
                     for line in outcome.digest_lines)
    print(f"records: {len(outcome.digest_lines)} sha256 {digest} "
          f"({iterations} solver iterations)")
    print(f"operations: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    print(f"timed phase: {outcome.timed_s:.6f} s")
    print("machine: " + _machine())

    if args.trace:
        recorder.dump(spans.trace_path(f"{args.workload}-seed{args.seed}"))
        summary = recorder.summary()
        for name, value in outcome.layers.items():
            summary[name] = summary.get(name, 0) + value
        summary["trace.wall_s"] = outcome.timed_s
        summary = _layer_metrics(summary)
        if recorder.absent:
            print("absent targets: " + ", ".join(recorder.absent))
        print("wrapped targets fired: " + ", ".join(sorted(recorder.fired)))
        chosen = declared["per_layer"]
        values = {m["name"]: (summary.get(m["name"], 0), None)
                  for m in chosen}
    else:
        chosen = declared["end_to_end"]
        values = outcome.metrics
    metrics = {}
    for metric in chosen:
        value, samples = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        count = "" if samples is None else f" (n={samples})"
        print(f"{metric['name']} = {value:.6g} {metric['unit']}{count}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
