"""The benchmark's workloads: each runs, times, checks, and reports.

Every workload returns an :class:`Outcome`.  Timing uses only the
program's public entry points; the traced run (see ``spans.py``) wraps
the same calls from outside, so both runs execute identical work.
"""

import contextlib
import dataclasses
import http.client
import json
import math
import os
import pathlib
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans
from verify import canonical, record_problems, sizable_mask

#: sweep-iscas bound grid: delay slack x noise fraction, crossed with the
#: two coupling-aware delay modes over all ten Table 1 circuits (80
#: scenarios in 20 lockstep groups of 4).
SWEEP_DELAY_MODES = ("own", "propagated")
SWEEP_SLACKS = (1.1, 1.2)
SWEEP_NOISE = (0.1, 0.15)

#: Nominal seconds one cold 80-scenario pass takes on the reference
#: machine (2 cores); the pass count is sized from ``--seconds`` with it,
#: so a run does a whole number of identical passes.
SWEEP_PASS_S = 16.0

#: Scenarios re-solved from scratch to pin batch == single-scenario bytes.
RESOLVE_SAMPLE = 2

SIZE_50K_SPEC = "random:50000"

#: The LRS solve (step A3) opens every OGWS iteration; the first call into
#: either entry point ends set-up on size-50k.
FIRST_ITERATE = tuple(
    ("first_iterate", "repro.core.lrs", path, {})
    for path in ("LagrangianSubproblemSolver.solve_batch",
                 "LagrangianSubproblemSolver.solve"))


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and what its checks found."""

    attempted: int
    failed: int
    problems: list
    #: End-to-end metric name -> ``(value, samples)``.
    metrics: dict
    #: Per-layer metrics the workload measures itself (service waits).
    layers: dict
    #: Wall time of the timed phase (the tracing-overhead base).
    timed_s: float
    #: Canonical bytes of every record the workload returned.
    digest_lines: list


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def quality(records):
    """``(area_ratio, feasible_frac)`` over the returned records."""
    if not records:
        return 0.0, 0.0
    ratios = [r.metrics.area_um2 / r.initial_metrics.area_um2
              for r in records]
    return (statistics.fmean(ratios),
            sum(bool(r.feasible) for r in records) / len(records))


def timed_phase(recorder):
    """The timed phase: spans are kept only inside it in a traced run."""
    return recorder.recording() if recorder is not None \
        else contextlib.nullcontext()


def prime():
    """Pay lazy imports and first-call costs on a circuit no run times."""
    from repro.circuit.parser import builtin_bench_path
    from repro.core.session import SolverSession
    from repro.runtime import CircuitRef, FlowConfig, Scenario

    ref = CircuitRef.bench(builtin_bench_path("c17"))
    config = FlowConfig(n_patterns=64, max_iterations=20)
    SolverSession.for_ref(ref).solve(
        [Scenario(ref, config), Scenario(ref, config.replace(
            noise_fraction=0.2))])


def _check(records, problems, label, masks):
    """Check every record; returns how many failed.

    A record fails when it is infeasible or fails :func:`record_problems`.
    ``masks`` maps each circuit ref to its sizable mask, built on demand.
    """
    failed = 0
    for record in records:
        ref = record.scenario.circuit
        if ref not in masks:
            masks[ref] = sizable_mask(ref)
        found = record_problems(record, masks[ref])
        if not record.feasible:
            found.append("infeasible record")
        if found:
            failed += 1
            problems.append(f"{label} {record.scenario.label}: "
                            + "; ".join(found))
    return failed


def warm_scenarios(scenarios):
    """One ``max_iterations=1`` scenario per engine group.

    Solving it warms the session (build, compile, sweep plan, stage 1,
    coupling, engine, initial point) through public calls; the timed
    solve then reuses exactly those artifacts.
    """
    seen = {}
    for scenario in scenarios:
        config = scenario.config
        key = (config.ordering, config.miller_mode, config.coupling_order,
               config.delay_mode, config.n_patterns, config.seed)
        if key not in seen:
            seen[key] = dataclasses.replace(
                scenario, config=config.replace(max_iterations=1))
    return list(seen.values())


# -- sweep-iscas -------------------------------------------------------------


def sweep_iscas(seed, seconds, recorder=None):
    from repro.circuit.iscas85 import ISCAS85_SPECS
    from repro.core.session import SolverSession
    from repro.runtime import BatchRunner, CircuitRef, FlowConfig, SweepSpec

    spec = SweepSpec(
        circuits=tuple(CircuitRef.iscas85(name) for name in ISCAS85_SPECS),
        delay_modes=SWEEP_DELAY_MODES, delay_slacks=SWEEP_SLACKS,
        noise_fractions=SWEEP_NOISE, base=FlowConfig(seed=seed))
    scenarios = spec.scenarios()
    by_circuit = {}
    for scenario in scenarios:
        by_circuit.setdefault(scenario.circuit, []).append(scenario)
    passes = max(2, round(seconds / SWEEP_PASS_S))
    prime()

    setups, walls, pass_waits, runs = [], [], [], []
    with timed_phase(recorder):
        for _ in range(passes):
            runner = BatchRunner(jobs=1)
            pool = runner.session_pool()
            records, setup, wall, waits = [], 0.0, 0.0, []
            for ref, members in by_circuit.items():
                t0 = time.perf_counter()
                for warm in warm_scenarios(members):
                    pool.session(ref).solve([warm])
                t1 = time.perf_counter()
                records.extend(runner.run(members))
                t2 = time.perf_counter()
                setup += t1 - t0
                wall += t2 - t0
                # A record's latency: from the sweep's start until it is
                # returned, as a caller streaming the sweep sees it.
                waits.extend([wall] * len(members))
            walls.append(wall)
            setups.append(setup)
            pass_waits.append(waits)
            runs.append(records)
    rss = peak_rss_mb()

    problems = []
    masks = {}
    failed = sum(_check(records, problems, "sweep", masks)
                 for records in runs)
    expected = [s.canonical_json() for s in scenarios]
    for records in runs:
        if [r.scenario.canonical_json() for r in records] != expected:
            problems.append("sweep returned scenarios out of order")
    digest = canonical(runs[-1])
    if any(canonical(records) != digest for records in runs):
        problems.append("cold passes disagree byte-for-byte")
    # Batch == single scenario: re-solve a seeded sample from scratch.
    for index in random.Random(seed).sample(range(len(scenarios)),
                                            RESOLVE_SAMPLE):
        scenario = scenarios[index]
        alone = SolverSession.for_ref(scenario.circuit).solve([scenario])[0]
        if alone.canonical_json() != digest[index]:
            failed += 1
            problems.append(f"re-solve of {scenario.label} differs from "
                            "the sweep's record")

    records = runs[-1]
    area_ratio, feasible_frac = quality(records)
    attempted = passes * len(scenarios)
    return Outcome(
        attempted=attempted, failed=failed, problems=problems,
        metrics={
            "setup_s": (statistics.median(setups), passes),
            "scenarios_per_s": (attempted / sum(walls), attempted),
            "wall_s": (statistics.median(walls), passes),
            "latency_p50_s": (statistics.median(
                percentile(waits, 50) for waits in pass_waits), attempted),
            "latency_p90_s": (statistics.median(
                percentile(waits, 90) for waits in pass_waits), attempted),
            "peak_rss_mb": (rss, 1),
            "area_ratio": (area_ratio, len(records)),
            "feasible_frac": (feasible_frac, len(records)),
            "verified_frac": (1.0 - failed / attempted, attempted),
        },
        layers={}, timed_s=sum(walls), digest_lines=digest)


# -- size-50k ----------------------------------------------------------------


def size_50k(seed, seconds, recorder=None):
    from repro.runtime import BatchRunner, CircuitRef, FlowConfig, Scenario

    ref = CircuitRef.from_spec(SIZE_50K_SPEC, seed=seed)
    scenario = Scenario(ref, FlowConfig())
    prime()

    # A fresh in-process runner: one new session, so BatchRunner.run is
    # on the timed path here too.
    runner = BatchRunner(jobs=1)
    marker = spans.Recorder().install(FIRST_ITERATE)
    with timed_phase(recorder), marker.recording():
        started = time.perf_counter()
        record = runner.run([scenario])[0]
        wall = time.perf_counter() - started
    marker.uninstall()
    rss = peak_rss_mb()
    problems = []
    failed = _check([record], problems, "size-50k", {
        ref: runner.session_pool().session(ref).compiled.is_sizable})
    if not marker.spans:
        print("note: no LRS entry point found; set-up covers the whole solve")
    set_up = min((span[1] for span in marker.spans), default=started + wall)

    area_ratio, feasible_frac = quality([record])
    return Outcome(
        attempted=1, failed=failed, problems=problems,
        metrics={
            "setup_s": (set_up - started, 1),
            "scenarios_per_s": (1.0 / wall, 1),
            "wall_s": (wall, 1),
            "latency_p50_s": (wall, 1),
            "latency_p90_s": (wall, 1),
            "peak_rss_mb": (rss, 1),
            "area_ratio": (area_ratio, 1),
            "feasible_frac": (feasible_frac, 1),
            "verified_frac": (1.0 - failed, 1),
        },
        layers={}, timed_s=wall, digest_lines=canonical([record]))


# -- service-mixed -----------------------------------------------------------

#: Circuits new sweeps draw from, most popular first: six circuits against
#: a 4-session worker pool, so the rare ones miss the pool.
SERVICE_CIRCUITS = ("src/repro/circuit/data/c17.bench", "c432", "c499",
                    "c880", "c1355", "c1908")

#: Synthetic Zipf popularity (weight 1 / rank).  No recorded request log
#: exists to take the mix from.
SERVICE_WEIGHTS = tuple(1.0 / rank
                        for rank in range(1, len(SERVICE_CIRCUITS) + 1))

#: The CI api-smoke sweep: noise fractions 0.10, 0.12, 0.14, 0.16 (first
#: value and step here) at 64 patterns and 100 iterations, other bounds
#: at their defaults.
SMOKE_NOISE = (0.10, 0.02)
SMOKE_LENGTH = 4
SERVICE_BASE = {"n_patterns": 64, "max_iterations": 100}

#: Replays per new sweep.  A replay costs ~0.01 s against ~0.3 s for a
#: new sweep, so with three of them replays are about 8% of ``wall_s``:
#: a read path slowed 4-fold moves ``wall_s`` past its bound.  The
#: replays' own median swings too much between runs on the reference
#: machine to carry a bound (see README).
SERVICE_REPLAYS = 3

#: Nominal new sweeps (each with its replays) per second on the reference
#: machine; the new-sweep count is sized from ``--seconds`` with it, and
#: never below 100 so their p90 has ten sweeps beyond it.
SERVICE_NEW_PER_S = 3.0
SERVICE_MIN_NEW = 100

SERVICE_POLL_S = 0.01
SERVICE_TIMEOUT_S = 120.0
TENANT = "bench"

HERE = pathlib.Path(__file__).resolve().parent
SCRATCH = HERE.parent / ".perfbench_tmp"


def _quotas(weights, total):
    """Split ``total`` by ``weights`` (largest remainder)."""
    raw = [w * total / sum(weights) for w in weights]
    quotas = [int(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: quotas[i] - raw[i])
    for i in by_remainder[:total - sum(quotas)]:
        quotas[i] += 1
    return quotas


def _payload(circuit, start, length):
    """The api-smoke spec on ``circuit``, with ``length`` noise fractions
    from step ``start`` of its grid on."""
    first, step = SMOKE_NOISE
    noise = [round(first + step * (start + j), 2) for j in range(length)]
    return {"tenant": TENANT,
            "spec": {"circuits": [circuit], "noise_fractions": noise,
                     "base": SERVICE_BASE}}


def service_plan(seed, new):
    """The seeded request sequence of ``(kind, payload)`` pairs.

    First the warm-up sweeps: the api-smoke spec itself on each circuit.
    Then ``new`` sweeps, split over the circuits by popularity; a
    circuit's ``k``-th has 1 to 4 scenarios, its noise fractions further
    along the api-smoke grid, so every spec is new.  Each sweep is POSTed
    again (a replay, as api-smoke does once) :data:`SERVICE_REPLAYS`
    times, at seeded later points.  The sweeps are fixed; the seed only
    orders them, so every seed asks the solver for the same work.
    """
    rng = random.Random(seed)
    plan = [("new", _payload(circuit, 0, SMOKE_LENGTH))
            for circuit in SERVICE_CIRCUITS]
    shapes = [_payload(circuit, 1 + k // SMOKE_LENGTH, 1 + k % SMOKE_LENGTH)
              for circuit, quota in zip(SERVICE_CIRCUITS,
                                        _quotas(SERVICE_WEIGHTS, new))
              for k in range(quota)]
    # One token per request, shuffled: the first of a sweep's tokens to
    # come up is the POST that creates it, the others its replays.
    tokens = [k for k in range(new) for _ in range(1 + SERVICE_REPLAYS)]
    rng.shuffle(tokens)
    posted = set()
    for k in tokens:
        plan.append(("replay" if k in posted else "new", shapes[k]))
        posted.add(k)
    return plan


class _Client:
    """One closed-loop HTTP client (a new connection per request)."""

    def __init__(self, port):
        self.port = port

    def call(self, method, path, payload=None):
        """``(status, body)``; status ``None`` when the exchange failed."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=SERVICE_TIMEOUT_S)
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            return None, repr(error).encode()
        finally:
            connection.close()

    def records(self, sweep):
        """Poll ``/records`` until complete: ``(status, body)``."""
        deadline = time.perf_counter() + SERVICE_TIMEOUT_S
        while True:
            status, body = self.call("GET", f"/v1/sweeps/{sweep}/records")
            if status != 409 or time.perf_counter() > deadline:
                return status, body
            time.sleep(SERVICE_POLL_S)


def _request(client, kind, payload):
    """One logical request; returns a dict of what the client saw."""
    started = time.perf_counter()
    status, body = client.call("POST", "/v1/sweeps", payload)
    posted = time.perf_counter()
    out = {"kind": kind, "payload": payload, "error": None,
           "submit_s": posted - started}
    expected = 201 if kind == "new" else 200
    if status != expected:
        out["error"] = f"POST answered {status}, expected {expected}"
        out["latency_s"] = posted - started
        return out
    sweep = json.loads(body)["sweep"]
    status, body = client.records(sweep)
    done = time.perf_counter()
    out.update(sweep=sweep, fetch_s=done - posted, latency_s=done - started,
               done_ts=time.time())
    if status != 200:
        out["error"] = f"/records answered {status}"
        return out
    out["records"] = [json.dumps(r, sort_keys=True, separators=(",", ":"))
                      for r in json.loads(body)["records"]]
    return out


def _sweep_waits(events, done_ts):
    """Queue wait, shard time and settle time of one sweep's events."""
    submitted = min(e["ts"] for e in events
                    if e["kind"] == "sweep_submitted")
    claimed = min(e["ts"] for e in events if e["kind"] == "shard_claimed")
    finished = max(e["ts"] for e in events if e["kind"] == "shard_done")
    shard = sum(e["elapsed_s"] for e in events
                if e["kind"] == "shard_timing")
    return claimed - submitted, shard, done_ts - finished


def _start_worker(root, scratch, spans_path):
    ready = scratch / "worker.ready"
    out = scratch / "worker.json"
    command = [sys.executable, str(HERE / "service_worker.py"), "--serve",
               str(root), "--ready", str(ready), "--out", str(out)]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    process = subprocess.Popen(command, cwd=str(HERE.parent))
    deadline = time.perf_counter() + SERVICE_TIMEOUT_S
    while not ready.exists():
        if process.poll() is not None or time.perf_counter() > deadline:
            process.kill()
            process.wait()
            raise RuntimeError("service worker failed to start")
        time.sleep(0.05)
    return process, out


def _stop_worker(process, root):
    (root / "STOP").touch()
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _drive(plan, warmups, recorder, scratch, spans_path):
    """Serve, spawn the worker, and run the closed loop over ``plan``.

    Returns ``(requests seen, worker report, events per sweep)``; the
    server and worker are stopped on every path.
    """
    from repro.runtime.api import serve_in_thread
    from repro.runtime.events import read_events

    root = scratch / "service"
    handle = serve_in_thread(str(root))
    try:
        process, worker_out = _start_worker(root, scratch, spans_path)
        client = _Client(handle.port)
        try:
            seen = [_request(client, kind, payload)
                    for kind, payload in plan[:warmups]]
            if recorder is not None:
                os.kill(process.pid, signal.SIGUSR1)
            with timed_phase(recorder):
                seen.extend(_request(client, kind, payload)
                            for kind, payload in plan[warmups:])
        finally:
            _stop_worker(process, root)
        worker = json.loads(worker_out.read_text()) \
            if process.returncode == 0 and worker_out.exists() \
            else {"peak_rss_mb": 0.0, "error": process.returncode}
        events = {r["sweep"]: read_events(
                      handle.server.service.events_path(r["sweep"]))
                  for r in seen if r.get("sweep")}
    finally:
        handle.stop()
    return seen, worker, events


def _check_service(seen, seed):
    """Check every answer; returns ``(failed, problems)``.

    Every answer 2xx, every record valid and feasible, replays
    byte-identical to the first answer, and a seeded sample of new sweeps
    byte-identical to an in-process ``BatchRunner`` run (serial == HTTP).
    """
    from repro.runtime import BatchRunner, SweepSpec
    from repro.runtime.records import RunRecord

    problems, masks, first = [], {}, {}
    failed = 0
    for index, request in enumerate(seen):
        bad = [request["error"]] if request["error"] else []
        if not bad:
            records = [RunRecord.from_json(line)
                       for line in request["records"]]
            _check(records, bad, "", masks)
            original = first.setdefault(request["sweep"], request["records"])
            if original != request["records"]:
                bad.append("replay bytes differ from the first answer")
        if bad:
            failed += 1
            problems.append(f"request {index} ({request['kind']}): "
                            + "; ".join(bad))
    new = [r for r in seen if r["kind"] == "new" and not r["error"]]
    for request in random.Random(seed).sample(new, min(2, len(new))):
        spec = SweepSpec.from_dict(request["payload"]["spec"])
        if canonical(BatchRunner().run(spec)) != request["records"]:
            failed += 1
            problems.append(f"sweep {request['sweep'][:12]}: HTTP records "
                            "differ from a serial BatchRunner run")
    return failed, problems


def _service_layers(timed, events, worker):
    """The runtime waits per request kind, plus the worker's own layers."""
    layers = dict.fromkeys(
        ("runtime.http_submit_s", "runtime.queue_wait_s", "runtime.shard_s",
         "runtime.settle_s", "runtime.replay_submit_s",
         "runtime.replay_fetch_s", "runtime.events", "runtime.shard_faults"),
        0.0)
    by_kind = {"new": [], "replay": []}
    for request in timed:
        by_kind[request["kind"]].append(request["latency_s"])
        if request["error"]:
            continue
        if request["kind"] == "new":
            wait, shard, settle = _sweep_waits(events[request["sweep"]],
                                               request["done_ts"])
            layers["runtime.http_submit_s"] += request["submit_s"]
            layers["runtime.queue_wait_s"] += wait
            layers["runtime.shard_s"] += shard
            layers["runtime.settle_s"] += settle
        else:
            layers["runtime.replay_submit_s"] += request["submit_s"]
            layers["runtime.replay_fetch_s"] += request["fetch_s"]
    for stream in events.values():
        layers["runtime.events"] += len(stream)
        layers["runtime.shard_faults"] += sum(
            e["kind"] in ("shard_failed", "shard_retry", "lease_lost")
            for e in stream)
    for kind, values in by_kind.items():
        layers[f"runtime.{kind}_latency_p50_s"] = \
            statistics.median(values) if values else 0.0
    for name, value in worker.get("layers", {}).items():
        layers[name] = layers.get(name, 0) + value
    return layers


def service_mixed(seed, seconds, recorder=None):
    from repro.runtime.records import RunRecord

    plan = service_plan(seed, max(SERVICE_MIN_NEW,
                                  round(seconds * SERVICE_NEW_PER_S)))
    warmups = len(SERVICE_CIRCUITS)
    prime()

    SCRATCH.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        seen, worker, events = _drive(
            plan, warmups, recorder, scratch,
            None if recorder is None
            else spans.trace_path(f"service-mixed-seed{seed}-worker"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed, problems = _check_service(seen, seed)
    if "error" in worker:
        problems.append(f"worker exited with code {worker['error']}")
    if recorder is not None and "fired" in worker:
        print("worker wrapped targets fired: " + ", ".join(worker["fired"]))
        if worker["absent"]:
            print("absent targets: " + ", ".join(worker["absent"]))

    timed = seen[warmups:]
    # The percentiles are the new sweeps' (the write path); the replays
    # (the read path) are bounded through their share of wall_s.
    latencies = [r["latency_s"] for r in timed if r["kind"] == "new"]
    # The closed loop's busy time: its requests back to back.
    loop_s = sum(r["latency_s"] for r in timed)
    replays = [r["latency_s"] for r in timed if r["kind"] == "replay"]
    print(f"replays: {len(replays)}, {sum(replays) / loop_s:.1%} of wall_s")
    computed = sum(len(r.get("records", ())) for r in timed
                   if r["kind"] == "new")
    area_ratio, _ = quality([RunRecord.from_json(line)
                             for r in seen[:warmups]
                             for line in r.get("records", ())])
    returned = [line for r in seen for line in r.get("records", ())]
    _, feasible_frac = quality([RunRecord.from_json(line)
                                for line in returned])
    return Outcome(
        attempted=len(seen), failed=failed, problems=problems,
        metrics={
            "setup_s": (sum(r["latency_s"] for r in seen[:warmups]),
                        warmups),
            "scenarios_per_s": (computed / loop_s, computed),
            "wall_s": (loop_s, 1),
            "latency_p50_s": (percentile(latencies, 50), len(latencies)),
            "latency_p90_s": (percentile(latencies, 90), len(latencies)),
            "peak_rss_mb": (worker["peak_rss_mb"], 1),
            "area_ratio": (area_ratio, warmups),
            "feasible_frac": (feasible_frac, len(returned)),
            "verified_frac": (1.0 - failed / len(seen), len(seen)),
        },
        layers=_service_layers(timed, events, worker), timed_s=loop_s,
        digest_lines=returned)
