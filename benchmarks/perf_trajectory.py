"""OGWS performance trajectory (writes BENCH_perf.json).

Measures, per circuit:

* end-to-end OGWS wall clock on the one solve path (``ogws_kernel_s``),
* one isolated S2+S3+S4 LRS pass (``lrs_pass_kernel_ms``),
* with ``--batch-scenarios K`` (default 8): a K-scenario sweep sharing
  the circuit, solved as K independent one-scenario sessions (the
  scalar baseline) vs one batched ``SolverSession`` (compile-once +
  lockstep kernels), with the records
  asserted byte-identical before the speedup is recorded,
* with ``--queue-workers N``: the same K-scenario sweep submitted to a
  throwaway :class:`~repro.runtime.queue.SweepQueue` and drained by N
  worker processes (the sharded sweep service end to end: submit →
  claim → solve → gather), gather asserted byte-identical to the scalar
  records before the sharded-throughput point is recorded,
* with ``--serve`` (modifying ``--queue-workers``): the N workers are
  *warm* — long-lived serving processes started once and reused across
  every repeat (process spawn excluded, per-circuit
  :class:`~repro.core.session.SessionPool` sessions kept hot), which is
  the deployment shape ``repro queue work --serve`` runs; the recorded
  time is still submit → drain → gather end to end,
* with ``--cold-breakdown``: per-stage cold similarity-setup times
  (analyzer construction through layout reordering) plus the end-to-end
  cold total, the PR 6 cold-path quantity (``--check-cold-ms`` gates
  on it).

Results append to a trajectory file (default ``BENCH_perf.json`` at the
repo root) so successive PRs accumulate a history.  CI runs this on the
small circuits as a non-gating smoke job; the committed entry covers the
full set including c7552, the largest circuit in ``bench_lrs_scaling``.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py \
        --circuits c432 c880 c7552 --label "PR 3 batched sessions"
"""

import argparse
import json
import pathlib
import platform
import sys
import time

import numpy as np

from repro import ElmoreEngine, iscas85_circuit
from repro.core import LagrangianSubproblemSolver, MultiplierState
from repro.core.flow import NoiseAwareSizingFlow
from repro.core.ogws import OGWSOptimizer


def time_ogws(engine, problem, repeats):
    best = np.inf
    result = None
    for _ in range(repeats):
        optimizer = OGWSOptimizer(engine, problem)
        start = time.perf_counter()
        result = optimizer.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def time_lrs_pass(engine, mult, x0, repeats):
    solver = LagrangianSubproblemSolver(engine, max_passes=1, tolerance=0.0)
    solver.solve(mult, x0)  # warm plan/workspace
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        solver.solve(mult, x0)
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_spec(name, k, patterns):
    """The K-scenario single-circuit sweep both sweep benchmarks share."""
    from repro.runtime import CircuitRef, FlowConfig, SweepSpec

    # Fractions start loose enough that every scenario converges: a
    # non-convergent straggler runs its full iteration budget alone in
    # both arms, which measures the straggler, not the batching.
    return SweepSpec(
        circuits=(CircuitRef.iscas85(name),),
        noise_fractions=tuple(0.10 + 0.01 * i for i in range(k)),
        base=FlowConfig(n_patterns=patterns),
    )


def bench_batch_vs_scalar(name, k, patterns, repeats):
    """Batched SolverSession solve vs the scalar per-scenario loop.

    K scenarios over one circuit, differing in their noise bounds (the
    natural per-circuit sweep axis): the scalar arm runs each one as an
    independent ``SolverSession.for_ref(ref).solve([s])`` (one circuit
    build + analysis + solve per scenario), the batched arm through one
    grouped session.  Records must match byte for byte; returns the
    timing fields for the trajectory row plus the scalar arm's time and
    records (the baseline the queue benchmark reuses).
    """
    from repro.core.session import SolverSession
    from repro.runtime import BatchRunner

    spec = _sweep_spec(name, k, patterns)
    scalar_s = np.inf
    batch_s = np.inf
    scalar_records = batch_records = None
    for _ in range(repeats):
        start = time.perf_counter()
        scalar_records = [SolverSession.for_ref(s.circuit).solve([s])[0]
                          for s in spec.scenarios()]
        scalar_s = min(scalar_s, time.perf_counter() - start)
        start = time.perf_counter()
        batch_records = BatchRunner(jobs=1).run(spec)
        batch_s = min(batch_s, time.perf_counter() - start)
    identical = ([r.canonical_json() for r in scalar_records]
                 == [r.canonical_json() for r in batch_records])
    row = {
        "batch_k": k,
        "sweep_scalar_s": round(scalar_s, 6),
        "sweep_batch_s": round(batch_s, 6),
        "batch_speedup": round(scalar_s / batch_s, 3),
        "batch_identical": identical,
    }
    return row, scalar_s, scalar_records


def bench_queue_drain(name, k, patterns, workers, repeats, scalar_s,
                      scalar_records, serve=False):
    """Sharded-queue throughput: N worker processes drain one sweep.

    The same K-scenario sweep as the batch benchmark, submitted to a
    throwaway on-disk queue sharded into one chunk per worker (each
    shard keeps the compile-once session amortization) and drained by
    ``workers`` processes — submit, claim-by-rename, solve, persist, and
    ``gather()`` all included, so the measured time is the service end
    to end, not just the solves.  Gathered records must match the
    scalar baseline byte for byte.

    ``serve=False`` (cold) spawns fresh worker processes per repeat, so
    the number includes process spawn — the PR 4 deployment shape.
    ``serve=True`` (warm) starts long-lived serving workers once,
    submits each repeat as a new queue under their watch directory, and
    only measures submit → drain → gather — the ``repro queue work
    --serve`` shape, where spawn and per-circuit sessions are amortized
    across sweeps.
    """
    import shutil
    import tempfile

    from repro.runtime import SweepQueue, run_workers

    spec = _sweep_spec(name, k, patterns)
    shard_size = max(1, -(-k // workers))       # ceil(k / workers)
    queue_s = np.inf
    identical = True
    if serve:
        queue_s, identical = _serve_drain(spec, workers, repeats, shard_size,
                                          scalar_records)
    else:
        for _ in range(repeats):
            root = tempfile.mkdtemp(prefix="repro-queue-bench-")
            try:
                queue = SweepQueue(root)
                start = time.perf_counter()
                queue.submit(spec, shard_size=shard_size)
                run_workers(root, workers, lease_s=300.0)
                records = queue.gather()
                queue_s = min(queue_s, time.perf_counter() - start)
                identical = identical and (
                    [r.canonical_json() for r in records]
                    == [r.canonical_json() for r in scalar_records])
            finally:
                shutil.rmtree(root, ignore_errors=True)
    return {
        "queue_workers": workers,
        "queue_mode": "serve" if serve else "cold",
        "sweep_queue_s": round(queue_s, 6),
        "queue_speedup": round(scalar_s / queue_s, 3),
        "queue_identical": identical,
    }


def _serve_drain(spec, workers, repeats, shard_size, scalar_records):
    """Warm arm: drain ``repeats`` sweeps through persistent serve workers."""
    import multiprocessing
    import pathlib
    import shutil
    import tempfile

    from repro.runtime import SweepQueue, serve_queues

    base = pathlib.Path(tempfile.mkdtemp(prefix="repro-queue-serve-"))
    processes = [
        multiprocessing.Process(
            target=serve_queues, args=([str(base)],),
            kwargs={"lease_s": 300.0, "poll_s": 0.002,
                    "worker_id": f"serve{index}"},
            name=f"repro-serve-bench-{index}")
        for index in range(workers)
    ]
    for process in processes:
        process.start()
    queue_s = np.inf
    identical = True
    try:
        # One extra warm-up repeat: the first sweep pays the session
        # builds, every later one runs fully warm (min() keeps the
        # steady-state number either way).
        for rep in range(repeats + 1):
            queue = SweepQueue(base / f"q{rep:02d}")
            start = time.perf_counter()
            queue.submit(spec, shard_size=shard_size)
            deadline = start + 600.0
            while not queue.status().complete:
                if not any(p.is_alive() for p in processes):
                    raise RuntimeError("serve workers died mid-drain")
                if time.perf_counter() > deadline:
                    raise RuntimeError("serve drain timed out")
                time.sleep(0.002)
            records = queue.gather()
            elapsed = time.perf_counter() - start
            if rep > 0:
                queue_s = min(queue_s, elapsed)
            identical = identical and (
                [r.canonical_json() for r in records]
                == [r.canonical_json() for r in scalar_records])
    finally:
        (base / "STOP").touch()
        for process in processes:
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()
                process.join()
        shutil.rmtree(base, ignore_errors=True)
    return queue_s, identical


def bench_cold_breakdown(name, patterns, repeats):
    """Per-stage cold setup times (the similarity → ordering cold path).

    Rebuilds the circuit every repeat so all memoized artifacts
    (``compile()``, ``sim_plan()``) start cold; netlist parsing and
    layout construction stay outside the clock.  Stages:

    * ``analyzer`` — SimPlan compilation + levelized simulation
      (analyzer construction end to end),
    * ``keys`` — each channel's classes of equal rows and the int16 sort
      keys between them, built one channel at a time (one f32 ±1 matmul
      per channel, reduced to integer keys),
    * ``ordering`` — WOSS over every channel's classes,
    * ``cost`` — before/after path-dissimilarity totals from the
      disagreement counts of adjacent rows,
    * ``apply`` — layout reordering,

    plus ``cold_total_ms``: one uninstrumented end-to-end
    ``order_channel_wires`` run (fresh circuit again), the number the
    PR 6 ≥3× acceptance gate checks.  ``keys`` and ``ordering`` are
    summed channel by channel, each channel's keys dropped once it is
    ordered, as the flow does.
    """
    from repro.core.flow import order_channel_wires, resolve_ordering
    from repro.geometry.layout import ChannelLayout
    from repro.noise.similarity import SimilarityAnalyzer

    best = {}
    for _ in range(repeats):
        circuit = iscas85_circuit(name)
        layout = ChannelLayout.from_levels(circuit)
        ordering = resolve_ordering("woss")
        t0 = time.perf_counter()
        analyzer = SimilarityAnalyzer(circuit, n_patterns=patterns, seed=0)
        t1 = time.perf_counter()
        channels = [ch for ch in layout.channels if len(ch) >= 2]
        orders = {}
        keys_s = ordering_s = 0.0
        for ch in channels:
            t_keys = time.perf_counter()
            classes, representatives = analyzer.classes(ch.wires)
            keys = analyzer.sort_keys(representatives)
            t_order = time.perf_counter()
            orders[ch.label] = ordering.class_ordering(classes, keys)
            keys_s += t_order - t_keys
            ordering_s += time.perf_counter() - t_order
            del keys
        t3 = time.perf_counter()
        for ch in channels:
            analyzer.path_dissimilarity(ch.wires)
            analyzer.path_dissimilarity(ch.wires, orders[ch.label])
        t4 = time.perf_counter()
        layout.apply_ordering(orders)
        t5 = time.perf_counter()
        for key, dt in (("analyzer", t1 - t0), ("keys", keys_s),
                        ("ordering", ordering_s), ("cost", t4 - t3),
                        ("apply", t5 - t4)):
            best[key] = min(best.get(key, np.inf), dt)
    total = np.inf
    for _ in range(repeats):
        circuit = iscas85_circuit(name)
        layout = ChannelLayout.from_levels(circuit)
        start = time.perf_counter()
        analyzer = SimilarityAnalyzer(circuit, n_patterns=patterns, seed=0)
        order_channel_wires(analyzer, layout, resolve_ordering("woss"))
        total = min(total, time.perf_counter() - start)
    return {
        "cold_patterns": patterns,
        "cold_stages_ms": {k: round(v * 1e3, 2) for k, v in best.items()},
        "cold_total_ms": round(total * 1e3, 2),
    }


def bench_circuit(name, patterns, repeats):
    flow = NoiseAwareSizingFlow(iscas85_circuit(name), n_patterns=patterns)
    outcome = flow.run()
    compiled = outcome.engine.compiled
    mult = MultiplierState.initial(compiled, beta=1e-3, gamma=1e-3)
    x0 = compiled.default_sizes(1.0)

    engine = ElmoreEngine(compiled, outcome.coupling, outcome.engine.mode)
    ogws_s, result = time_ogws(engine, outcome.problem, repeats)
    pass_s = time_lrs_pass(engine, mult, x0, repeats)
    # Field names keep the "kernel" tag of the older two-backend entries
    # so the trajectory reads as one series.
    return {"name": name, "nodes": compiled.num_nodes,
            "edges": compiled.num_edges, "levels": compiled.num_levels,
            "ogws_kernel_s": round(ogws_s, 6),
            "lrs_pass_kernel_ms": round(pass_s * 1e3, 4),
            "iterations_kernel": result.iterations}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuits", nargs="+", default=["c432", "c880"])
    parser.add_argument("--patterns", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--label", default="dev")
    parser.add_argument("--out", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"))
    parser.add_argument("--batch-scenarios", type=int, default=8,
                        help="scenarios per circuit in the batched-sweep "
                             "vs scalar-loop comparison (0 disables it)")
    parser.add_argument("--check-batch-speedup", type=float, default=None,
                        help="exit nonzero unless every circuit's batched "
                             "sweep speedup reaches this factor")
    parser.add_argument("--queue-workers", type=int, default=0,
                        help="drain the same sweep through a sharded "
                             "SweepQueue with this many worker processes "
                             "and record the throughput (0 disables; "
                             "requires --batch-scenarios)")
    parser.add_argument("--serve", action="store_true",
                        help="make the --queue-workers arm warm: start "
                             "long-lived serving workers once and reuse "
                             "them (and their session pools) across "
                             "repeats, instead of spawning per sweep")
    parser.add_argument("--check-queue-speedup", type=float, default=None,
                        help="exit nonzero unless every circuit's queue "
                             "drain speedup reaches this factor")
    parser.add_argument("--cold-breakdown", action="store_true",
                        help="also record per-stage cold similarity-setup "
                             "times (analyzer, keys, ordering, cost, apply) "
                             "plus the end-to-end cold total per circuit")
    parser.add_argument("--cold-patterns", type=int, default=256,
                        help="pattern count for the --cold-breakdown arm "
                             "(the acceptance gate uses 256)")
    parser.add_argument("--check-cold-ms", type=float, default=None,
                        help="exit nonzero if any circuit's cold_total_ms "
                             "exceeds this bound (requires --cold-breakdown)")
    args = parser.parse_args(argv)
    if args.serve and not args.queue_workers:
        parser.error("--serve modifies --queue-workers; set both")
    if args.queue_workers and not args.batch_scenarios:
        parser.error("--queue-workers needs --batch-scenarios for its "
                     "scalar baseline")

    if args.check_cold_ms is not None and not args.cold_breakdown:
        parser.error("--check-cold-ms needs --cold-breakdown")

    rows = []
    for name in args.circuits:
        row = bench_circuit(name, args.patterns, args.repeats)
        if args.cold_breakdown:
            row.update(bench_cold_breakdown(name, args.cold_patterns,
                                            args.repeats))
        if args.batch_scenarios:
            batch_row, scalar_s, scalar_records = bench_batch_vs_scalar(
                name, args.batch_scenarios, args.patterns, args.repeats)
            row.update(batch_row)
            if args.queue_workers:
                row.update(bench_queue_drain(
                    name, args.batch_scenarios, args.patterns,
                    args.queue_workers, args.repeats, scalar_s,
                    scalar_records, serve=args.serve))
        rows.append(row)
        print(f"{name}: OGWS {row['ogws_kernel_s']*1e3:.1f} ms "
              f"({row['iterations_kernel']} iterations), "
              f"LRS pass {row['lrs_pass_kernel_ms']:.3f} ms")
        if args.cold_breakdown:
            stages = " ".join(f"{k}={v:.1f}" for k, v in
                              row["cold_stages_ms"].items())
            print(f"{name}: cold setup {row['cold_total_ms']:.1f} ms "
                  f"@ {row['cold_patterns']} patterns ({stages})")
        if args.batch_scenarios:
            print(f"{name}: {row['batch_k']}-scenario sweep "
                  f"{row['sweep_scalar_s']*1e3:.0f} ms scalar -> "
                  f"{row['sweep_batch_s']*1e3:.0f} ms batched "
                  f"({row['batch_speedup']}x, records "
                  f"{'identical' if row['batch_identical'] else 'DIVERGED'})")
            if not row["batch_identical"]:
                print(f"FAIL: {name} batched records diverge from scalar")
                return 1
        if args.queue_workers:
            print(f"{name}: {row['queue_workers']}-worker "
                  f"{row['queue_mode']} queue drain "
                  f"{row['sweep_queue_s']*1e3:.0f} ms "
                  f"({row['queue_speedup']}x vs scalar, gather "
                  f"{'identical' if row['queue_identical'] else 'DIVERGED'})")
            if not row["queue_identical"]:
                print(f"FAIL: {name} gathered records diverge from scalar")
                return 1

    entry = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "circuits": rows,
    }
    out_path = pathlib.Path(args.out)
    try:
        payload = json.loads(out_path.read_text())
        assert payload.get("kind") == "perf_trajectory"
    except (OSError, ValueError, AssertionError):
        payload = {"kind": "perf_trajectory", "entries": []}
    payload["entries"].append(entry)
    out_path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"trajectory appended to {out_path}")

    if args.check_batch_speedup is not None and args.batch_scenarios:
        for row in rows:
            if row["batch_speedup"] < args.check_batch_speedup:
                print(f"FAIL: {row['name']} batch speedup "
                      f"{row['batch_speedup']}x "
                      f"< required {args.check_batch_speedup}x")
                return 1
    if args.check_queue_speedup is not None and args.queue_workers:
        for row in rows:
            if row["queue_speedup"] < args.check_queue_speedup:
                print(f"FAIL: {row['name']} queue speedup "
                      f"{row['queue_speedup']}x "
                      f"< required {args.check_queue_speedup}x")
                return 1
    if args.check_cold_ms is not None:
        for row in rows:
            if row["cold_total_ms"] > args.check_cold_ms:
                print(f"FAIL: {row['name']} cold setup "
                      f"{row['cold_total_ms']} ms "
                      f"> allowed {args.check_cold_ms} ms")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
