"""Command-line interface.

``python -m repro <command>``:

* ``info <circuit>``      — structure, depth, channels, initial metrics
* ``size <circuit>``      — run the two-stage flow, print the result
* ``sweep <circuits...>`` — run circuits × knob axes, parallel + cached
* ``queue <submit|work|status|watch|gather|merge|retry-failed>`` — the
  sharded sweep service: submit a sweep to a durable on-disk queue
  (sharded by count or by estimated solve cost), drain it with any
  number of worker processes (work-stealing via heartbeat leases,
  retry with backoff, poison-shard quarantine, optional deterministic
  fault injection via ``--faults``) or serve queues long-lived with
  warm per-circuit sessions (``work --serve DIR``), watch live
  progress from the event stream, gather records byte-identical to a
  serial run, and re-arm quarantined shards
* ``serve-api``           — the sweep service's HTTP front door: a
  multi-tenant asyncio API (submit/status/SSE events/records/retry)
  plus an HTML dashboard rendered from the event stream alone; pair
  with ``queue work --serve`` workers draining the same root
* ``cache <stats|prune|clear>`` — inspect / LRU-evict a result cache
* ``table1 [names...]``   — reproduce Table 1 rows next to the paper's
* ``suite``               — list the embedded ISCAS85-like suite

``<circuit>`` is either a Table 1 name (``c432``) or a path to an
ISCAS85-format ``.bench`` file.  All stochastic stages are seeded, so
repeated invocations print identical numbers (timing aside).
"""

import argparse
import pathlib
import sys
import time

import numpy as np

from repro.analysis.report import format_paper_table1, format_sweep, format_table1
from repro.circuit import ISCAS85_SPECS, iscas85_circuit, load_bench
from repro.core import NoiseAwareSizingFlow, check_kkt
from repro.core.flow import ORDERING_NAMES
from repro.geometry import ChannelLayout
from repro.noise import MillerMode
from repro.runtime import (
    BatchRunner,
    CircuitRef,
    FlowConfig,
    ResultCache,
    SweepSpec,
)
from repro.timing import CouplingDelayMode, ElmoreEngine, evaluate_metrics
from repro.utils.errors import ReproError
from repro.utils.tables import format_table


def _add_axis_args(parser):
    """The sweep-defining arguments shared by ``sweep`` and ``queue submit``."""
    parser.add_argument("circuits", nargs="+",
                        help="Table 1 names, .bench paths, and/or random:N")
    parser.add_argument("--orderings", nargs="+", default=["woss"],
                        choices=list(ORDERING_NAMES), metavar="ORD")
    parser.add_argument("--delay-modes", nargs="+", default=["own"],
                        choices=[m.value for m in CouplingDelayMode],
                        metavar="MODE")
    parser.add_argument("--miller-modes", nargs="+", default=["similarity"],
                        choices=[m.value for m in MillerMode], metavar="MODE")
    parser.add_argument("--noise-fractions", nargs="+", type=float,
                        default=[0.1], metavar="F")
    parser.add_argument("--delay-slacks", nargs="+", type=float,
                        default=[1.1], metavar="S")
    parser.add_argument("--patterns", type=int, default=256)
    parser.add_argument("--max-iterations", type=int, default=200)
    parser.add_argument("--tolerance", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; per-scenario seeds derive from it")


def _spec_from_args(args):
    """The :class:`SweepSpec` described by ``_add_axis_args`` values."""
    return SweepSpec(
        circuits=tuple(CircuitRef.from_spec(s, seed=args.seed)
                       for s in args.circuits),
        orderings=tuple(args.orderings),
        miller_modes=tuple(args.miller_modes),
        delay_modes=tuple(args.delay_modes),
        noise_fractions=tuple(args.noise_fractions),
        delay_slacks=tuple(args.delay_slacks),
        base=FlowConfig(n_patterns=args.patterns, seed=args.seed,
                        max_iterations=args.max_iterations,
                        tolerance=args.tolerance),
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Noise-constrained gate/wire sizing by Lagrangian "
                    "relaxation (DAC 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a circuit")
    info.add_argument("circuit", help="Table 1 name (c432) or .bench path")

    size = sub.add_parser("size", help="run the two-stage sizing flow")
    size.add_argument("circuit",
                      help="Table 1 name (c432), .bench path, or random:N")
    size.add_argument("--patterns", type=int, default=256,
                      help="logic-simulation patterns for similarity")
    size.add_argument("--delay-slack", type=float, default=1.1,
                      help="A0 as a multiple of the initial delay")
    size.add_argument("--noise-fraction", type=float, default=0.1,
                      help="X_B as a fraction of the initial noise")
    size.add_argument("--power-fraction", type=float, default=0.2,
                      help="P' as a fraction of the initial capacitance")
    size.add_argument("--max-iterations", type=int, default=200)
    size.add_argument("--tolerance", type=float, default=0.01,
                      help="duality-gap stop (paper: 1%%)")
    size.add_argument("--ordering", default="woss", choices=list(ORDERING_NAMES))
    size.add_argument("--update", default="multiplicative",
                      choices=["multiplicative", "subgradient"])
    size.add_argument("--seed", type=int, default=0,
                      help="seed for similarity patterns / random circuits")
    size.add_argument("--kkt", action="store_true",
                      help="print the Theorem 6 KKT certificate")
    size.add_argument("--sizes", action="store_true",
                      help="print the final size of every component")

    sweep = sub.add_parser(
        "sweep", help="run circuits x knob axes in parallel with caching")
    _add_axis_args(sweep)
    sweep.add_argument("--jobs", default="1",
                       help="worker processes (1 = serial, auto = CPU count)")
    sweep.add_argument("--cache-dir", default=".repro_cache",
                       help="result cache directory (default: .repro_cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="always recompute; do not read or write the cache")
    sweep.add_argument("--verify-cache", action="store_true",
                       help="re-fingerprint circuits before serving cache "
                            "hits (guards against .bench files edited in "
                            "place, at the cost of building each circuit)")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress the per-scenario stream, print the table only")

    queue = sub.add_parser(
        "queue", help="sharded sweep service: durable queue + workers")
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)
    q_submit = queue_sub.add_parser(
        "submit", help="expand a sweep into claimable circuit-grouped shards")
    _add_axis_args(q_submit)
    q_submit.add_argument("--shard-mode", choices=["count", "cost"],
                          default="count",
                          help="how each circuit's scenario group splits "
                               "into shards: 'count' caps scenarios per "
                               "shard (--shard-size); 'cost' packs shards "
                               "to an estimated-solve-cost budget "
                               "(--cost-budget), so one large-circuit "
                               "shard doesn't straggle behind many small "
                               "ones (default: count)")
    q_submit.add_argument("--shard-size", type=int, default=None, metavar="N",
                          help="max scenarios per shard — the count-mode "
                               "splitter (default: one shard per circuit "
                               "group; smaller shards let more workers "
                               "share one circuit's sweep).  In "
                               "--shard-mode cost it is an extra cap on "
                               "top of the cost budget")
    q_submit.add_argument("--cost-budget", type=float, default=None,
                          metavar="C",
                          help="cost mode: max estimated cost per shard "
                               "(default: the single most expensive "
                               "scenario's cost, so the largest circuit "
                               "shards alone while cheap circuits pack "
                               "many scenarios per shard)")
    q_submit.add_argument("--cost-bench", default=None, metavar="PATH",
                          help="calibrate the cost model from a "
                               "BENCH_perf.json trajectory (cost mode; "
                               "default: uncalibrated circuit-size "
                               "estimates)")
    q_submit.add_argument("--label", default="",
                          help="free-form tag recorded in the manifest")
    q_submit.add_argument("--lease-ttl", type=float, default=None,
                          metavar="S",
                          help="lease TTL recorded in the manifest: "
                               "workers steal a peer's shard after S "
                               "seconds without a heartbeat (default 60; "
                               "per-worker --lease-ttl overrides)")
    q_submit.add_argument("--lease-grace", type=float, default=None,
                          metavar="S",
                          help="extra seconds on top of the TTL before a "
                               "lease counts as expired — a cushion for "
                               "clock/mtime skew between hosts sharing "
                               "the queue (default 0)")
    q_work = queue_sub.add_parser(
        "work", help="claim and solve shards until the queue is drained")
    q_work.add_argument("--serve", nargs="+", default=None, metavar="DIR",
                        help="long-lived mode (instead of --queue-dir): "
                             "drain every submitted queue under these "
                             "directories, adopting sweeps submitted while "
                             "running; workers keep warm per-circuit "
                             "sessions across sweeps and exit on "
                             "<DIR>/STOP or --max-idle")
    q_work.add_argument("--jobs", default="1",
                        help="worker processes (auto = CPU count)")
    q_work.add_argument("--max-shards", type=int, default=None, metavar="N",
                        help="stop each worker after N shards")
    q_work.add_argument("--lease-ttl", "--lease", type=float, default=None,
                        metavar="S", dest="lease_ttl",
                        help="steal a peer's shard after S seconds without "
                             "a heartbeat (default: the queue manifest's "
                             "policy from submit --lease-ttl, else 60)")
    q_work.add_argument("--lease-grace", type=float, default=None,
                        metavar="S",
                        help="extra seconds past the TTL before stealing "
                             "(default: the queue manifest's policy)")
    q_work.add_argument("--max-attempts", type=int, default=3, metavar="N",
                        help="claims a shard may consume before a failure "
                             "quarantines it to failed/ instead of "
                             "releasing it for retry (default 3)")
    q_work.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault injection for chaos "
                             "testing, e.g. "
                             "'seed=7,crash=0.2,io-persist=0.3,torn=0.3' "
                             "(sites: crash, crash-post-persist, stall, "
                             "torn, io-claim, io-persist, io-append, "
                             "poison; also via REPRO_FAULTS)")
    q_work.add_argument("--restart-budget", type=int, default=0, metavar="N",
                        help="supervise worker processes: respawn up to N "
                             "abnormal deaths (crashes) across the drain "
                             "instead of failing it (default 0)")
    q_work.add_argument("--max-idle", type=float, default=None, metavar="S",
                        help="exit after S consecutive seconds without "
                             "claimable work (serve mode's exit valve; "
                             "default: serve until <DIR>/STOP)")
    q_work.add_argument("--sessions", type=int, default=4, metavar="N",
                        help="warm SolverSession LRU capacity per worker "
                             "(default 4)")
    q_work.add_argument("--no-wait", action="store_true",
                        help="exit when nothing is claimable instead of "
                             "waiting for peers' shards to finish")
    q_work.add_argument("--worker-id", default=None,
                        help="identity stamped into leases and events")
    q_status = queue_sub.add_parser(
        "status", help="shard and record progress, estimated vs actual cost")
    q_watch = queue_sub.add_parser(
        "watch", help="follow the event stream, live table at the end")
    q_watch.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="give up after S seconds without a new event "
                              "(default: wait until the sweep completes)")
    q_watch.add_argument("--no-follow", action="store_true",
                         help="render what has happened so far and exit")
    q_watch.add_argument("--quiet", action="store_true",
                         help="suppress the per-event stream, table only")
    q_gather = queue_sub.add_parser(
        "gather", help="reassemble records in scenario order (serial-identical)")
    q_gather.add_argument("--partial", action="store_true",
                          help="return what exists instead of failing on an "
                               "incomplete queue")
    q_gather.add_argument("--verify-serial", action="store_true",
                          help="re-run the sweep serially in-process and "
                               "fail unless the gathered records are "
                               "byte-identical")
    q_gather.add_argument("--quiet", action="store_true",
                          help="suppress the sweep table, verdict only")
    q_merge = queue_sub.add_parser(
        "merge", help="union other queues'/caches' results into this queue")
    q_merge.add_argument("sources", nargs="+",
                         help="queue directories or bare result-cache "
                              "directories to copy records from")
    q_retry = queue_sub.add_parser(
        "retry-failed",
        help="re-arm quarantined shards (failed/ -> pending/, fresh "
             "attempt budget)")
    for sub_parser in (q_submit, q_status, q_watch, q_gather, q_merge,
                       q_retry):
        sub_parser.add_argument("--queue-dir", required=True,
                                help="queue directory")
    # `work` alone may take --serve instead of a queue directory.
    q_work.add_argument("--queue-dir", default=None, help="queue directory")

    serve_api = sub.add_parser(
        "serve-api",
        help="serve the sweep HTTP API + dashboard over a service root")
    serve_api.add_argument("--root", required=True,
                           help="service root directory (one queue "
                                "directory per accepted sweep)")
    serve_api.add_argument("--host", default="127.0.0.1")
    serve_api.add_argument("--port", type=int, default=8080,
                           help="TCP port (0 picks an ephemeral one; "
                                "default: 8080)")
    serve_api.add_argument("--tenants", default=None, metavar="JSON",
                           help="tenant config file: {name: {max_active, "
                                "priority}}; a 'default' entry covers "
                                "unknown tenants")
    serve_api.add_argument("--max-idle", type=float, default=None,
                           metavar="S",
                           help="exit after S seconds with no request "
                                "(default: serve forever)")

    cache = sub.add_parser("cache", help="inspect and maintain a result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count, bytes, and hit/miss counters")
    cache_prune = cache_sub.add_parser(
        "prune", help="evict least-recently-used entries down to a size cap")
    cache_prune.add_argument("--max-bytes", type=int, required=True,
                             help="target total size of cache entries")
    cache_clear = cache_sub.add_parser("clear", help="drop every entry")
    for sub_parser in (cache_stats, cache_prune, cache_clear):
        sub_parser.add_argument("--cache-dir", default=".repro_cache",
                                help="cache directory (default: .repro_cache)")

    table1 = sub.add_parser("table1", help="reproduce Table 1 rows")
    table1.add_argument("names", nargs="*",
                        help="circuit names (default: the four smallest)")
    table1.add_argument("--patterns", type=int, default=256)
    table1.add_argument("--max-iterations", type=int, default=200)

    sub.add_parser("suite", help="list the embedded benchmark suite")
    return parser


def _load_circuit(spec):
    if spec in ISCAS85_SPECS:
        return iscas85_circuit(spec)
    path = pathlib.Path(spec)
    if path.exists():
        return load_bench(path)
    raise ReproError(
        f"unknown circuit {spec!r}: not a Table 1 name "
        f"({', '.join(sorted(ISCAS85_SPECS))}) and no such file")


def cmd_info(args, out):
    circuit = _load_circuit(args.circuit)
    compiled = circuit.compile()
    layout = ChannelLayout.from_levels(circuit)
    engine = ElmoreEngine(compiled)
    metrics = evaluate_metrics(engine, compiled.default_sizes(np.inf))
    lengths = [w.length for w in circuit.wires()]
    rows = [
        ["gates", circuit.num_gates],
        ["wires", circuit.num_wires],
        ["primary inputs", circuit.num_drivers],
        ["primary outputs", len(circuit.primary_output_wires())],
        ["edges", len(circuit.edges)],
        ["topological levels", compiled.num_levels],
        ["routing channels", len(layout.channels)],
        ["largest channel", max((len(c) for c in layout.channels), default=0)],
        ["wire length (um, mean)", float(np.mean(lengths)) if lengths else 0.0],
        ["delay at x=U (ps, no coupling)", metrics.delay_ps],
        ["area at x=U (um2)", metrics.area_um2],
    ]
    out.write(format_table(["property", "value"], rows,
                           title=f"circuit {circuit.name!r}") + "\n")
    return 0


def cmd_size(args, out):
    from repro.core.session import SolverSession

    session = SolverSession.for_ref(
        CircuitRef.from_spec(args.circuit, seed=args.seed))
    circuit = session.circuit
    flow = NoiseAwareSizingFlow(
        circuit,
        ordering=args.ordering,
        n_patterns=args.patterns,
        seed=args.seed,
        bound_factors=(args.delay_slack, args.noise_fraction,
                       args.power_fraction),
        optimizer_options={
            "max_iterations": args.max_iterations,
            "tolerance": args.tolerance,
            "update": args.update,
        },
    )
    outcome = flow.run(session=session)
    sizing = outcome.sizing
    out.write(f"problem: {outcome.problem}\n")
    out.write(f"stage 1: effective loading {outcome.ordering_cost_before:.3f} "
              f"-> {outcome.ordering_cost_after:.3f} "
              f"({outcome.ordering_improvement:.1%} lower)\n")
    out.write("stage 2: " + sizing.summary() + "\n")
    if args.kkt:
        report = check_kkt(outcome.engine, outcome.problem, sizing.x,
                           sizing.multipliers)
        out.write(
            f"KKT (Thm 6): flow={report.flow_conservation:.2e} "
            f"slack={report.complementary_slackness:.2e} "
            f"feas={report.primal_feasibility:.2e} "
            f"fixpoint={report.sizing_fixed_point:.2e}\n")
    if args.sizes:
        rows = [[n.name, n.kind.name.lower(), sizing.x[n.index]]
                for n in circuit.components()]
        out.write(format_table(["component", "kind", "size (um)"], rows,
                               floatfmt="{:.3f}") + "\n")
    return 0 if sizing.feasible else 1


def cmd_sweep(args, out):
    spec = _spec_from_args(args)
    cache = None if args.no_cache else ResultCache(
        args.cache_dir, verify_fingerprints=args.verify_cache)
    runner = BatchRunner(jobs=args.jobs, cache=cache)
    out.write(f"sweep: {len(spec)} scenarios "
              f"({len(args.circuits)} circuits), jobs={runner.jobs}, "
              f"cache={'off' if cache is None else args.cache_dir}\n")

    progress = None if args.quiet else (
        lambda record: out.write(record.summary() + "\n"))
    started = time.perf_counter()
    records = runner.run(spec, progress=progress)
    elapsed = time.perf_counter() - started

    out.write("\n" + format_sweep(records) + "\n")
    rate = len(records) / elapsed if elapsed > 0 else float("inf")
    out.write(f"{runner.stats.summary()}, {elapsed:.2f}s "
              f"({rate:.1f} scenarios/s)\n")
    return 0 if all(r.feasible for r in records) else 1


def cmd_queue(args, out):
    from repro.analysis.live import watch_queue
    from repro.runtime.queue import CostModel, SweepQueue
    from repro.runtime.worker import run_workers

    if args.queue_command == "work" and \
            bool(args.serve) == bool(args.queue_dir):
        raise ReproError(
            "queue work needs exactly one of --queue-dir (drain one queue) "
            "or --serve DIR... (serve every queue under the directories)")
    if args.queue_command == "work" and args.serve and args.no_wait:
        raise ReproError(
            "--no-wait does not apply to --serve (a serving worker always "
            "keeps waiting for new sweeps; bound it with --max-idle or a "
            "STOP file)")
    queue = SweepQueue(args.queue_dir) if args.queue_dir else None
    if args.queue_command == "submit":
        cost_model = (CostModel.from_bench_file(args.cost_bench)
                      if args.cost_bench else None)
        shards = queue.submit(_spec_from_args(args),
                              shard_size=args.shard_size, label=args.label,
                              shard_mode=args.shard_mode,
                              cost_model=cost_model,
                              cost_budget=args.cost_budget,
                              lease_ttl=args.lease_ttl,
                              lease_grace=args.lease_grace)
        scenarios = sum(len(s) for s in shards)
        out.write(f"submitted {scenarios} scenarios as {len(shards)} "
                  f"shards ({args.shard_mode} mode) to {queue.root}\n")
        for shard in shards:
            # General format: estimates are component counts uncalibrated
            # (~1e2..1e4) but measured *seconds* when --cost-bench is on.
            out.write(f"  {shard.shard_id}: {len(shard)} scenarios, "
                      f"est cost {shard.est_cost:.4g}\n")
        out.write("drain with: repro queue work --queue-dir "
                  f"{args.queue_dir} --jobs auto\n")
        return 0
    if args.queue_command == "work":
        started = time.perf_counter()
        if args.serve:
            workers = run_workers([str(d) for d in args.serve], args.jobs,
                                  serve=True,
                                  worker_id=args.worker_id,
                                  lease_s=args.lease_ttl,
                                  lease_grace=args.lease_grace,
                                  max_shards=args.max_shards,
                                  max_attempts=args.max_attempts,
                                  faults=args.faults,
                                  restart_budget=args.restart_budget,
                                  idle_timeout_s=args.max_idle,
                                  session_capacity=args.sessions)
            out.write(f"{workers} serving worker(s) finished in "
                      f"{time.perf_counter() - started:.2f}s\n")
            return 0
        queue.manifest()    # fail fast on a typo'd --queue-dir
        workers = run_workers(args.queue_dir, args.jobs,
                              worker_id=args.worker_id,
                              lease_s=args.lease_ttl,
                              lease_grace=args.lease_grace,
                              max_shards=args.max_shards,
                              max_attempts=args.max_attempts,
                              faults=args.faults,
                              restart_budget=args.restart_budget,
                              wait=not args.no_wait,
                              idle_timeout_s=args.max_idle,
                              session_capacity=args.sessions)
        status = queue.status()
        out.write(f"{workers} worker(s) finished in "
                  f"{time.perf_counter() - started:.2f}s: "
                  f"{status.summary()}\n")
        return 0 if status.drained or args.max_shards or args.no_wait else 1
    if args.queue_command == "status":
        status = queue.status()
        out.write(format_table(["counter", "value"], status.counter_rows(),
                               title=f"queue {args.queue_dir}") + "\n")
        report = queue.shard_report()
        if report:
            shard_rows = [
                [row["shard"], row["state"], row["scenarios"],
                 row["attempts"],
                 f"{row['est_cost']:.4g}",
                 "-" if row["actual_s"] is None else f"{row['actual_s']:.3f}"]
                for row in report
            ]
            out.write("\n" + format_table(
                ["shard", "state", "scen", "att", "est cost", "actual s"],
                shard_rows, title="shards (estimated vs actual cost)") + "\n")
        if status.failed:
            out.write("re-arm quarantined shards with: repro queue "
                      f"retry-failed --queue-dir {args.queue_dir}\n")
        return 0
    if args.queue_command == "watch":
        records = watch_queue(queue, out, follow=not args.no_follow,
                              timeout_s=args.timeout, quiet=args.quiet)
        return 0 if len(records) == len(queue.scenarios()) else 1
    if args.queue_command == "gather":
        records = queue.gather(partial=args.partial)
        if not args.quiet:
            out.write(format_sweep(
                records, title=f"queue {args.queue_dir} (gathered)") + "\n")
        if args.verify_serial:
            serial = BatchRunner(jobs=1).run(queue.scenarios())
            if ([r.canonical_json() for r in records]
                    != [r.canonical_json() for r in serial]):
                out.write("verify-serial: MISMATCH — gathered records "
                          "diverge from a serial run\n")
                return 1
            out.write(f"verify-serial: {len(records)} records "
                      "byte-identical to a serial run\n")
        return 0 if all(r.feasible for r in records) else 1
    if args.queue_command == "retry-failed":
        queue.manifest()    # fail fast on a typo'd --queue-dir
        rearmed = queue.retry_failed()
        if rearmed:
            out.write(f"re-armed {len(rearmed)} quarantined shard(s): "
                      + ", ".join(rearmed) + "\n")
            out.write("drain with: repro queue work --queue-dir "
                      f"{args.queue_dir} --jobs auto\n")
        else:
            out.write("no quarantined shards to retry\n")
        return 0
    # merge
    queue.manifest()
    target = queue.cache()
    copied = skipped = 0
    for source in args.sources:
        source_dir = pathlib.Path(source)
        if (source_dir / "sweep.json").exists():
            source_dir = source_dir / "results"
        got, seen = target.merge(source_dir)
        copied += got
        skipped += seen
        out.write(f"{source}: {got} records copied, {seen} already "
                  "present\n")
    status = queue.status()
    out.write(f"merged {copied} records ({skipped} duplicates); "
              f"{status.summary()}\n")
    return 0


def cmd_cache(args, out):
    # Inspection/maintenance must not create directories as a side
    # effect (a typo'd --cache-dir should fail, not report emptiness).
    if not pathlib.Path(args.cache_dir).is_dir():
        raise ReproError(f"no such cache directory: {args.cache_dir}")
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        rows = [
            ["entries", stats.entries],
            ["total bytes", stats.total_bytes],
            ["hits", stats.hits],
            ["misses", stats.misses],
            ["puts", stats.puts],
            ["evictions", stats.evictions],
        ]
        out.write(format_table(["counter", "value"], rows,
                               title=f"cache {args.cache_dir}") + "\n")
    elif args.cache_command == "prune":
        evicted, freed = cache.prune(args.max_bytes)
        stats = cache.stats()
        out.write(f"evicted {evicted} entries ({freed} bytes); "
                  f"{stats.entries} entries ({stats.total_bytes} bytes) "
                  f"remain\n")
    else:  # clear
        before = len(cache)
        cache.clear()
        out.write(f"cleared {before} entries from {args.cache_dir}\n")
    return 0


def cmd_table1(args, out):
    names = args.names or ["c432", "c880", "c499", "c1355"]
    unknown = [n for n in names if n not in ISCAS85_SPECS]
    if unknown:
        raise ReproError(f"unknown Table 1 circuits: {unknown}")
    results = {}
    for name in names:
        flow = NoiseAwareSizingFlow(
            iscas85_circuit(name), n_patterns=args.patterns,
            optimizer_options={"max_iterations": args.max_iterations})
        results[name] = flow.run().sizing
        out.write(f"{name}: {results[name].iterations} iterations, "
                  f"gap {results[name].duality_gap:.2%}\n")
    out.write(format_table1(results) + "\n\n")
    out.write(format_paper_table1() + "\n")
    return 0


def cmd_suite(args, out):
    rows = [[s.name, s.gates, s.wires, s.total, s.inputs, s.outputs, s.depth]
            for s in sorted(ISCAS85_SPECS.values(), key=lambda s: s.total)]
    out.write(format_table(
        ["name", "#G", "#W", "tot", "PI", "PO", "depth"], rows,
        title="embedded ISCAS85-like suite (Table 1 statistics)") + "\n")
    return 0


def cmd_serve_api(args, out):
    from repro.runtime.api import run_server

    return run_server(args.root, host=args.host, port=args.port,
                      tenants=args.tenants, max_idle_s=args.max_idle,
                      out=out)


_COMMANDS = {
    "info": cmd_info,
    "size": cmd_size,
    "sweep": cmd_sweep,
    "queue": cmd_queue,
    "serve-api": cmd_serve_api,
    "cache": cmd_cache,
    "table1": cmd_table1,
    "suite": cmd_suite,
}


def main(argv=None, out=None):
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
