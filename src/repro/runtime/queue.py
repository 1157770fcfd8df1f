"""Durable, filesystem-backed work queue for sharded sweeps.

A :class:`SweepQueue` turns one sweep into a directory that any number
of workers — processes today, hosts on a shared filesystem tomorrow —
can cooperatively drain:

* **submit** expands the :class:`~repro.runtime.config.SweepSpec` (or an
  explicit scenario list) into *circuit-grouped shards*: scenarios
  sharing a :class:`~repro.runtime.config.CircuitRef` land in the same
  shard (chunked by ``shard_size`` in count mode, or packed to an
  estimated-cost budget in cost mode — see :func:`make_shards` and
  :class:`CostModel`), so a worker claiming a shard runs it through one
  compile-once :class:`~repro.core.session.SolverSession`
  (:func:`~repro.runtime.runner.run_scenario_group`).  Each shard
  carries its cost estimate; workers report actual solve seconds back
  as ``shard_timing`` events, which calibrate future submissions
  (:meth:`CostModel.from_events`).
* **claim** is one atomic ``os.rename`` of the shard ticket from
  ``pending/`` to ``claimed/`` — exactly one contender wins, the losers
  see the source file gone and move on.  No locks, no daemon.
* **leases** make claims revocable: the claimant writes a heartbeat
  sidecar next to its claimed ticket and refreshes it while solving.
  :meth:`reclaim_expired` renames any claimed ticket whose lease went
  stale back to ``pending/`` — so a shard abandoned by a killed worker
  is re-run by a survivor, which is work stealing for free.  Because
  records are deterministic and content-addressed, the pathological
  race (a worker presumed dead that was merely slow) is harmless: both
  executions write byte-identical records, and the slow worker's final
  ticket rename simply fails (``lease_lost``).
* **results** land in a shared :class:`~repro.runtime.cache.ResultCache`
  under ``results/``, keyed by scenario content hash — the same keys a
  serial sweep uses, so caches merge across queues and hosts
  (:meth:`ResultCache.merge`).
* **gather** reassembles the records in scenario order straight from
  the results store.  Completion is *record-presence-based*, not
  shard-state-based: a queue whose results were merged in from another
  host gathers successfully without any local worker having run.  The
  gathered stream is byte-identical (canonical JSON) to a serial
  :class:`~repro.runtime.runner.BatchRunner` run of the same spec —
  pinned by test.

Directory layout::

    <root>/
      sweep.json     submission manifest: scenarios (canonical), shard ids
      pending/       unclaimed shard tickets  <shard>.json
      claimed/       claimed tickets + <shard>.lease heartbeat sidecars
      done/          completed tickets (terminal)
      failed/        quarantined tickets (``retry_failed`` re-arms them)
      attempts/      per-shard claim counters  <shard>.json
      results/       shared ResultCache (scenario-hash keyed)
      events.jsonl   append-only event stream (see runtime.events)

Every state transition is a rename of one ticket file, so a queue is
never torn: crash at any point leaves each shard in exactly one of
``pending``/``claimed``/``done``/``failed``.

Failure handling (see also :mod:`repro.runtime.faults`, which injects
the failures these paths exist for):

* **Attempts** count how many times a shard has been claimed
  (``attempts/`` sidecars, bumped atomically on every successful
  claim).  A shard that keeps failing — its worker crashes, or the
  shard raises deterministically — is **quarantined**: renamed to
  ``failed/`` with a ``shard_failed`` event once its attempts reach
  the worker's ``max_attempts``, either by the failing worker
  (:meth:`SweepQueue.fail`) or by a reclaimer finding an expired lease
  on an exhausted shard (:meth:`SweepQueue.reclaim_expired`).
  :meth:`SweepQueue.retry_failed` renames quarantined tickets back to
  ``pending/`` and resets their counters (``repro queue retry-failed``).
* **Lease expiry is mtime-based.**  ``lease_age`` reads the lease
  sidecar's *mtime* on the filesystem holding the queue rather than a
  wall-clock timestamp embedded by the writer, so hosts with skewed
  clocks sharing one queue agree on staleness; ``reclaim_expired``
  adds a configurable ``grace`` on top of the TTL before stealing.
* **Completion is fenced.**  :meth:`SweepQueue.complete` verifies the
  caller still owns the shard's lease before renaming to ``done/`` —
  a late worker whose shard was stolen observes ``False``
  (``lease_lost``) instead of double-completing the stealer's ticket.
* **gather() never hangs and never lies.**  An incomplete queue raises
  :class:`PartialSweepError` carrying the partial records, the missing
  scenario labels, and the quarantined shard ids — callers decide
  whether to retry, re-arm, or accept the partial result.
"""

import dataclasses
import json
import os
import pathlib
import re
import time

from repro.runtime.cache import ResultCache
from repro.runtime.config import Scenario, SweepSpec
from repro.runtime.events import EventLog, read_events
from repro.utils.errors import ReproError, ValidationError

#: Version of the on-disk manifest / ticket envelope.  Bumped to 2 when
#: ``FlowConfig`` lost its two partition-routing fields: a schema-1
#: queue's stored scenarios no longer load, so it is refused up front.
QUEUE_SCHEMA_VERSION = 2

#: Version of the :class:`PartialSweepError` wire document (the HTTP
#: API's 409 body and ``to_dict``/``from_dict`` round-trip format).
PARTIAL_ERROR_SCHEMA_VERSION = 1

#: Default lease TTL (seconds) recorded in a submission's manifest.
DEFAULT_LEASE_TTL_S = 60.0

#: Default reclaim grace (seconds) on top of the TTL.  Zero by default —
#: single-host drains want prompt stealing; cross-host deployments with
#: skewed clocks opt in via ``submit --lease-grace``.
DEFAULT_LEASE_GRACE_S = 0.0

_LABEL_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def _utcnow():
    return time.time()


class PartialSweepError(ReproError):
    """An incomplete queue's structured gather failure.

    Carries everything a caller needs to act instead of hanging or
    guessing: the records that *do* exist (``records``, in scenario
    order with gaps elided), the missing scenario labels (``missing``),
    and the quarantined shard ids (``failed_shards``) — the shards
    ``repro queue retry-failed`` would re-arm.
    """

    def __init__(self, message, records=(), missing=(), failed_shards=()):
        super().__init__(message)
        self.records = list(records)
        self.missing = list(missing)
        self.failed_shards = list(failed_shards)

    @property
    def retry_hint(self):
        """What a caller should do next, as a machine-readable token.

        ``"retry_failed"`` — shards are quarantined; re-arm them
        (``repro queue retry-failed`` or ``POST .../retry``) and drain
        again.  ``"wait"`` — nothing is quarantined, the remainder is
        simply still pending/claimed; retry the gather once workers
        catch up.
        """
        return "retry_failed" if self.failed_shards else "wait"

    # -- wire serialization -----------------------------------------------------

    def to_dict(self):
        """Canonical wire document (the API's 409 body; pinned by test).

        Partial records travel in their canonical form — the same bytes
        ``gather`` would have returned — so a caller accepting the
        partial result loses nothing to the error path.
        """
        from repro.runtime.records import RunRecord  # noqa: F401  (doc link)

        return {
            "kind": "partial_sweep_error",
            "schema": PARTIAL_ERROR_SCHEMA_VERSION,
            "message": str(self),
            "records": [r.canonical_dict() for r in self.records],
            "missing": [str(label) for label in self.missing],
            "failed_shards": [str(s) for s in self.failed_shards],
            "retry_hint": self.retry_hint,
        }

    def canonical_json(self):
        """Byte-stable serialization of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data):
        """Rebuild from a :meth:`to_dict` document (wire round-trip)."""
        from repro.runtime.records import RunRecord

        if not isinstance(data, dict) or \
                data.get("kind") != "partial_sweep_error":
            raise ReproError("not a partial_sweep_error document")
        if data.get("schema") != PARTIAL_ERROR_SCHEMA_VERSION:
            raise ReproError(
                f"unsupported partial_sweep_error schema "
                f"{data.get('schema')!r}")
        return cls(
            str(data.get("message", "")),
            records=[RunRecord.from_dict(d) for d in data.get("records", [])],
            missing=data.get("missing", []),
            failed_shards=data.get("failed_shards", []),
        )


@dataclasses.dataclass(frozen=True)
class Shard:
    """One claimable unit of work: scenarios sharing a circuit.

    ``indexes`` are positions into the sweep's scenario expansion order
    (the manifest's ``scenarios`` list), which is how ``gather`` and the
    event stream tie shard-local results back to the global sweep.
    ``est_cost`` is the submitter's cost estimate for the shard (see
    :class:`CostModel`) — informational: it drives cost-mode packing at
    submit time and the estimated-vs-actual report afterwards, never
    correctness.
    """

    shard_id: str
    indexes: tuple
    scenarios: tuple
    est_cost: float = 0.0

    def __len__(self):
        return len(self.scenarios)

    def to_dict(self):
        return {
            "kind": "shard",
            "schema": QUEUE_SCHEMA_VERSION,
            "shard": self.shard_id,
            "indexes": [int(i) for i in self.indexes],
            "scenarios": [s.canonical_dict() for s in self.scenarios],
            "est_cost": float(self.est_cost),
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or data.get("kind") != "shard":
            raise ReproError("not a shard ticket")
        if data.get("schema") != QUEUE_SCHEMA_VERSION:
            raise ReproError(
                f"unsupported shard schema {data.get('schema')!r}")
        return cls(
            shard_id=str(data["shard"]),
            indexes=tuple(int(i) for i in data["indexes"]),
            scenarios=tuple(Scenario.from_dict(d) for d in data["scenarios"]),
            est_cost=float(data.get("est_cost", 0.0)),
        )


@dataclasses.dataclass(frozen=True)
class QueueStatus:
    """Point-in-time view of a queue's drain progress."""

    total_shards: int
    pending: int
    claimed: int
    done: int
    total_scenarios: int
    records_present: int
    failed: int = 0

    @property
    def drained(self):
        """Every shard reached ``done/``."""
        return self.done == self.total_shards

    @property
    def settled(self):
        """Every shard reached a terminal state (``done/`` or ``failed/``).

        The "never wedged" criterion: a settled queue has nothing left
        for a worker to do — either it drained, or the remainder is
        quarantined and waiting on ``retry_failed``.
        """
        return self.done + self.failed >= self.total_shards

    @property
    def complete(self):
        """Every scenario has a record in the results store.

        The ``gather`` criterion — satisfiable without local workers
        when results were merged in from elsewhere.
        """
        return self.records_present == self.total_scenarios

    @property
    def depth(self):
        """Shards still awaiting work (pending + claimed) — the queue-depth
        signal dashboards and autoscalers watch."""
        return self.pending + self.claimed

    def summary(self):
        failed = f", {self.failed} failed" if self.failed else ""
        return (f"{self.total_shards} shards: {self.pending} pending, "
                f"{self.claimed} claimed, {self.done} done{failed}; "
                f"records {self.records_present}/{self.total_scenarios}")

    def to_dict(self):
        """JSON-ready counters + derived flags (the API status payload)."""
        return {
            "total_shards": int(self.total_shards),
            "pending": int(self.pending),
            "claimed": int(self.claimed),
            "done": int(self.done),
            "failed": int(self.failed),
            "depth": int(self.depth),
            "total_scenarios": int(self.total_scenarios),
            "records_present": int(self.records_present),
            "drained": bool(self.drained),
            "settled": bool(self.settled),
            "complete": bool(self.complete),
        }

    def counter_rows(self):
        """``[name, value]`` rows for table rendering — one source of
        truth shared by ``repro queue status`` and anything else that
        prints a queue's counters."""
        return [
            ["shards", self.total_shards],
            ["pending", self.pending],
            ["claimed", self.claimed],
            ["done", self.done],
            ["failed (quarantined)", self.failed],
            ["scenarios", self.total_scenarios],
            ["records present", self.records_present],
            ["complete", "yes" if self.complete else "no"],
        ]


def _group_scenarios(scenarios):
    """Partition ``enumerate(scenarios)`` by CircuitRef, first-appearance order."""
    groups = []
    by_ref = {}
    for index, scenario in enumerate(scenarios):
        members = by_ref.get(scenario.circuit)
        if members is None:
            members = by_ref[scenario.circuit] = []
            groups.append(members)
        members.append((index, scenario))
    return groups


def _circuit_size_estimate(ref):
    """A cheap component-count proxy for a circuit's per-scenario cost.

    Never builds the circuit: Table 1 entries read their spec totals,
    generator refs read their parameters, and ``.bench`` refs count the
    gate-definition lines of the netlist.  Units are "components"
    (gates + wires) — only the *relative* magnitudes matter to packing.
    """
    if ref.kind == "iscas85":
        from repro.circuit.iscas85 import ISCAS85_SPECS

        spec = ISCAS85_SPECS.get(ref.name)
        if spec is not None:
            return float(spec.total)
    if ref.kind == "random":
        params = dict(ref.params)
        # total components ~ gates + wires, and wires track gates.
        return 2.0 * float(params.get("n_gates", 50))
    if ref.kind == "bench":
        try:
            with open(ref.path) as handle:
                gates = sum(1 for line in handle if "=" in line)
            return 2.0 * max(1.0, float(gates))
        except OSError:
            pass
    return 100.0


class CostModel:
    """Per-scenario solve-cost estimates for cost-adaptive sharding.

    Uncalibrated (the default), a scenario's cost is its circuit's
    component-count estimate — the paper's solver is near-linear per
    pass, so gate count × scenario count is the right first-order
    straggler model.  Calibration replaces estimates with *measured*
    seconds where available:

    * :meth:`from_bench_file` reads a ``BENCH_perf.json`` trajectory
      (the repo's committed kernel benchmark) and uses each circuit's
      measured end-to-end solve time,
    * :meth:`from_events` reads ``shard_timing`` events from one or
      more drained queues' streams — every completed shard reports its
      actual seconds, so the next submission's estimates tighten.

    Circuits without a measurement fall back to the size estimate
    scaled by the fitted seconds-per-component ratio of the measured
    ones, keeping all costs in one comparable unit.
    """

    def __init__(self, weights=None, scale=1.0):
        self.weights = {str(k): float(v) for k, v in (weights or {}).items()}
        self.scale = float(scale)

    def scenario_cost(self, scenario):
        """Estimated cost of one scenario (arbitrary but consistent units)."""
        weight = self.weights.get(scenario.circuit.label)
        if weight is not None:
            return weight
        return _circuit_size_estimate(scenario.circuit) * self.scale

    @staticmethod
    def _fit_scale(weights):
        """Median measured-cost per size-estimate unit over known circuits."""
        from repro.runtime.config import CircuitRef

        ratios = []
        for name, seconds in weights.items():
            try:
                estimate = _circuit_size_estimate(CircuitRef.iscas85(name))
            except ValidationError:
                continue
            if estimate > 0 and seconds > 0:
                ratios.append(seconds / estimate)
        if not ratios:
            return 1.0
        ratios.sort()
        return ratios[len(ratios) // 2]

    @classmethod
    def from_bench_file(cls, path):
        """Calibrate from a ``BENCH_perf.json`` trajectory file.

        Uses each circuit's most recent ``ogws_kernel_s`` (one full
        solve ≈ one scenario).  Raises :class:`ReproError` when the file
        is missing or not a trajectory.
        """
        try:
            payload = json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError) as error:
            raise ReproError(f"cannot read cost trajectory {path}: "
                             f"{error}") from None
        if not isinstance(payload, dict) or \
                payload.get("kind") != "perf_trajectory":
            raise ReproError(f"{path} is not a perf trajectory file")
        weights = {}
        for entry in payload.get("entries", []):
            for row in entry.get("circuits", []):
                seconds = row.get("ogws_kernel_s")
                if row.get("name") and seconds:
                    weights[str(row["name"])] = float(seconds)
        return cls(weights, scale=cls._fit_scale(weights))

    @classmethod
    def from_events(cls, events):
        """Calibrate from ``shard_timing`` events (any queues' streams).

        A shard's marginal cost per scenario is ``elapsed_s`` over the
        scenarios it actually *computed* (cache hits are free); multiple
        shards of one circuit average.  The events' ``size_est`` field
        (the worker's component estimate for its circuit) fits the
        seconds-per-component scale for *unmeasured* circuits, so
        calibrated seconds and scaled size estimates stay in one
        comparable unit for circuits of any kind — without it the fit
        falls back to Table 1 names only.
        """
        totals = {}
        ratios = []
        for event in events:
            if event.get("kind") != "shard_timing":
                continue
            computed = int(event.get("computed", 0) or 0)
            elapsed = float(event.get("elapsed_s", 0.0) or 0.0)
            size_est = float(event.get("size_est", 0.0) or 0.0)
            label = event.get("circuit")
            if label and computed > 0 and elapsed > 0:
                seconds, count = totals.get(label, (0.0, 0))
                totals[label] = (seconds + elapsed / computed, count + 1)
                if size_est > 0:
                    ratios.append(elapsed / computed / size_est)
        weights = {label: seconds / count
                   for label, (seconds, count) in totals.items()}
        if ratios:
            ratios.sort()
            scale = ratios[len(ratios) // 2]
        else:
            scale = cls._fit_scale(weights)
        return cls(weights, scale=scale)


def make_shards(scenarios, shard_size=None, mode="count", cost_model=None,
                cost_budget=None):
    """Circuit-grouped shards over ``scenarios``, split by count or cost.

    Scenarios sharing a :class:`CircuitRef` always land in consecutive
    shards (so each shard solves through one compile-once session and
    gather order is untouched); ``mode`` picks how a circuit's group is
    chunked:

    * ``"count"`` (default) — ``shard_size`` caps *scenarios* per shard,
      splitting large groups into consecutive chunks so single-circuit
      sweeps still parallelize across workers.
    * ``"cost"`` — shards are packed so each one's **estimated solve
      cost** (``cost_model``, default an uncalibrated :class:`CostModel`)
      stays within ``cost_budget``.  The default budget is the cost of
      the single most expensive scenario in the sweep: the largest
      circuit's scenarios shard alone while cheap circuits pack many
      scenarios per shard — so one c7552 shard no longer straggles
      behind twenty c17 shards of equal *count* but trivial cost.
      ``shard_size`` still optionally caps the count per shard.

    Every shard carries its ``est_cost`` (in both modes), which the
    worker echoes into the ``shard_timing`` event for the
    estimated-vs-actual report (``repro queue status``).  Shard ids are
    ``<seq>-<circuit label>`` with the sequence number zero-padded, so
    lexicographic claim order follows submission order.
    """
    if shard_size is not None and int(shard_size) < 1:
        raise ValidationError("shard_size must be >= 1")
    if mode not in ("count", "cost"):
        raise ValidationError(
            f"unknown shard mode {mode!r}; choose from count, cost")
    if cost_budget is not None and float(cost_budget) <= 0:
        raise ValidationError("cost_budget must be positive")
    model = cost_model if cost_model is not None else CostModel()
    scenarios = list(scenarios)
    costs = [model.scenario_cost(s) for s in scenarios]

    chunks = []
    size = None if shard_size is None else int(shard_size)
    if mode == "count":
        for members in _group_scenarios(scenarios):
            if size is None:
                chunks.append(members)
            else:
                chunks.extend(members[i:i + size]
                              for i in range(0, len(members), size))
    else:
        budget = float(cost_budget) if cost_budget is not None else \
            max(costs, default=1.0)
        for members in _group_scenarios(scenarios):
            chunk, acc = [], 0.0
            for index, scenario in members:
                cost = costs[index]
                full = (acc + cost > budget
                        or (size is not None and len(chunk) >= size))
                if chunk and full:
                    chunks.append(chunk)
                    chunk, acc = [], 0.0
                chunk.append((index, scenario))
                acc += cost
            if chunk:
                chunks.append(chunk)

    shards = []
    for seq, members in enumerate(chunks):
        label = _LABEL_RE.sub("-", members[0][1].circuit.label) or "circuit"
        shards.append(Shard(
            shard_id=f"{seq:04d}-{label}",
            indexes=tuple(index for index, _ in members),
            scenarios=tuple(scenario for _, scenario in members),
            est_cost=float(sum(costs[index] for index, _ in members)),
        ))
    return shards


class SweepQueue:
    """Handle on one queue directory (existing or about to be created).

    Construction is cheap and side-effect free; :meth:`submit` creates
    the layout, every other method expects a submitted queue.  Multiple
    handles — across processes and hosts sharing the filesystem — may
    operate on one directory concurrently; all mutation goes through
    atomic renames and atomic appends.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.pending_dir = self.root / "pending"
        self.claimed_dir = self.root / "claimed"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        self.attempts_dir = self.root / "attempts"
        self.results_dir = self.root / "results"
        self.manifest_path = self.root / "sweep.json"
        self.events_path = self.root / "events.jsonl"
        self._manifest = None

    # -- submission -------------------------------------------------------------

    def exists(self):
        """True when this directory holds a submitted sweep."""
        return self.manifest_path.exists()

    def submit(self, spec_or_scenarios, shard_size=None, label="",
               shard_mode="count", cost_model=None, cost_budget=None,
               lease_ttl=None, lease_grace=None):
        """Expand, shard, and persist one sweep; returns the shard list.

        ``shard_mode`` / ``cost_model`` / ``cost_budget`` pass through to
        :func:`make_shards` (``"cost"`` packs shards by estimated solve
        cost instead of scenario count).  ``lease_ttl`` / ``lease_grace``
        record the sweep's lease policy in the manifest (seconds; see
        :meth:`lease_policy`) so every worker draining it — on any host
        — applies the same expiry math without per-worker flag plumbing.
        A queue holds exactly one sweep for its lifetime (re-submission
        raises) — the manifest *is* the gather contract, so it must
        never change under a draining worker.
        """
        if self.exists():
            raise ReproError(
                f"queue {self.root} already holds a submitted sweep")
        if isinstance(spec_or_scenarios, SweepSpec):
            scenarios = spec_or_scenarios.scenarios()
        else:
            scenarios = list(spec_or_scenarios)
        if not scenarios:
            raise ValidationError("cannot submit an empty sweep")
        shards = make_shards(scenarios, shard_size, mode=shard_mode,
                             cost_model=cost_model, cost_budget=cost_budget)
        return self._persist(scenarios, shards, label, shard_mode,
                             lease_ttl=lease_ttl, lease_grace=lease_grace)

    def submit_shards(self, groups, label=""):
        """Submit with an explicit shard per scenario group.

        The :class:`~repro.runtime.worker.QueueExecutor` path: the
        caller (the batch runner's grouping planner) already partitioned
        the work, and result streaming needs exactly one shard per work
        item.  Scenario order is the concatenation of the groups.
        """
        if self.exists():
            raise ReproError(
                f"queue {self.root} already holds a submitted sweep")
        groups = [list(group) for group in groups]
        if not groups or not all(groups):
            raise ValidationError("submit_shards needs non-empty groups")
        scenarios = [s for group in groups for s in group]
        model = CostModel()
        shards = []
        offset = 0
        for seq, group in enumerate(groups):
            name = _LABEL_RE.sub("-", group[0].circuit.label) or "circuit"
            shards.append(Shard(
                shard_id=f"{seq:04d}-{name}",
                indexes=tuple(range(offset, offset + len(group))),
                scenarios=tuple(group),
                est_cost=float(sum(model.scenario_cost(s) for s in group)),
            ))
            offset += len(group)
        return self._persist(scenarios, shards, label, "explicit")

    def _persist(self, scenarios, shards, label, shard_mode="count",
                 lease_ttl=None, lease_grace=None):
        ttl = DEFAULT_LEASE_TTL_S if lease_ttl is None else float(lease_ttl)
        grace = (DEFAULT_LEASE_GRACE_S if lease_grace is None
                 else float(lease_grace))
        if ttl <= 0:
            raise ValidationError("lease_ttl must be positive")
        if grace < 0:
            raise ValidationError("lease_grace must be non-negative")
        for directory in (self.pending_dir, self.claimed_dir, self.done_dir,
                          self.failed_dir, self.attempts_dir,
                          self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        for shard in shards:
            self._write_atomic(self.pending_dir / f"{shard.shard_id}.json",
                               json.dumps(shard.to_dict(), indent=1))
        manifest = {
            "kind": "sweep_queue",
            "schema": QUEUE_SCHEMA_VERSION,
            "label": str(label),
            "scenarios": [s.canonical_dict() for s in scenarios],
            "shards": [shard.shard_id for shard in shards],
            "shard_mode": str(shard_mode),
            "shard_sizes": {shard.shard_id: len(shard) for shard in shards},
            "shard_costs": {shard.shard_id: float(shard.est_cost)
                            for shard in shards},
            "lease": {"ttl": ttl, "grace": grace},
        }
        self._write_atomic(self.manifest_path, json.dumps(manifest, indent=1))
        self._manifest = manifest
        self.log().append("sweep_submitted", label=str(label),
                          shards=len(shards), scenarios=len(scenarios))
        return shards

    @staticmethod
    def _write_atomic(path, payload):
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(payload)
        os.replace(tmp, path)

    # -- shared views -----------------------------------------------------------

    def manifest(self):
        if self._manifest is None:
            try:
                data = json.loads(self.manifest_path.read_text())
            except (OSError, ValueError) as error:
                raise ReproError(
                    f"no submitted sweep at {self.root}: {error}") from None
            if not isinstance(data, dict) or data.get("kind") != "sweep_queue":
                raise ReproError(f"{self.manifest_path} is not a sweep queue")
            if data.get("schema") != QUEUE_SCHEMA_VERSION:
                raise ReproError(
                    f"unsupported queue schema {data.get('schema')!r}")
            self._manifest = data
        return self._manifest

    def scenarios(self):
        """The sweep's scenarios in expansion (gather) order."""
        return [Scenario.from_dict(d) for d in self.manifest()["scenarios"]]

    def shard_ids(self):
        return list(self.manifest()["shards"])

    def lease_policy(self):
        """The sweep's ``{"ttl": s, "grace": s}`` lease policy.

        Read from the manifest; queues submitted by older versions (no
        ``lease`` key) get the defaults — so every worker draining one
        sweep agrees on expiry math regardless of its own flags.
        """
        lease = self.manifest().get("lease") or {}
        try:
            ttl = float(lease.get("ttl", DEFAULT_LEASE_TTL_S))
            grace = float(lease.get("grace", DEFAULT_LEASE_GRACE_S))
        except (TypeError, ValueError):
            ttl, grace = DEFAULT_LEASE_TTL_S, DEFAULT_LEASE_GRACE_S
        return {"ttl": ttl if ttl > 0 else DEFAULT_LEASE_TTL_S,
                "grace": max(0.0, grace)}

    def cache(self):
        """A :class:`ResultCache` handle on this queue's results store."""
        return ResultCache(self.results_dir)

    def log(self, worker=""):
        """An :class:`EventLog` writer bound to this queue's stream."""
        return EventLog(self.events_path, worker=worker)

    def events(self):
        """Every event currently on disk (see :func:`read_events`)."""
        return read_events(self.events_path)

    def _ids_in(self, directory):
        return sorted(p.stem for p in directory.glob("*.json"))

    # -- claim / lease protocol -------------------------------------------------

    def _lease_path(self, shard_id):
        return self.claimed_dir / f"{shard_id}.lease"

    def _write_lease(self, shard_id, worker_id):
        self._write_atomic(self._lease_path(shard_id),
                           json.dumps({"worker": str(worker_id),
                                       "ts": _utcnow()}))

    def _attempts_path(self, shard_id):
        return self.attempts_dir / f"{shard_id}.json"

    def attempts(self, shard_id):
        """How many times this shard has been claimed (0 = never)."""
        try:
            data = json.loads(self._attempts_path(shard_id).read_text())
            return max(0, int(data["attempts"]))
        except (OSError, TypeError, ValueError, KeyError):
            return 0

    def _bump_attempts(self, shard_id):
        """Record one more claim of ``shard_id``; returns the new count.

        Best-effort on I/O error (an unbumped counter only delays
        quarantine by one attempt — it never loses work), and atomic via
        tmp+rename so a crash mid-bump leaves the old count, not junk.
        """
        count = self.attempts(shard_id) + 1
        try:
            self.attempts_dir.mkdir(parents=True, exist_ok=True)
            self._write_atomic(self._attempts_path(shard_id),
                               json.dumps({"attempts": count}))
        except OSError:
            pass
        return count

    def claim(self, worker_id):
        """Atomically claim the first pending shard; ``None`` when empty.

        The rename from ``pending/`` to ``claimed/`` is the entire
        mutual-exclusion protocol: concurrent claimants racing for one
        ticket see exactly one ``rename`` succeed, and every loser gets
        ``FileNotFoundError`` and tries the next ticket.  Each win also
        bumps the shard's attempt counter — the quarantine policy's
        input — and stamps the attempt number into ``shard_claimed``.
        """
        self.manifest()
        for shard_id in self._ids_in(self.pending_dir):
            source = self.pending_dir / f"{shard_id}.json"
            target = self.claimed_dir / f"{shard_id}.json"
            try:
                os.rename(source, target)
            except OSError:
                continue       # lost the race; next ticket
            try:
                # rename preserves mtime, so without this a reclaimer's
                # mtime fallback (lease_age) would see the *submit* time
                # and steal a just-claimed shard whose lease sidecar has
                # not landed yet.
                os.utime(target)
            except OSError:
                pass
            self._write_lease(shard_id, worker_id)
            attempt = self._bump_attempts(shard_id)
            try:
                shard = Shard.from_dict(json.loads(target.read_text()))
            except (OSError, ValueError, ReproError):
                # The ticket vanished (stolen by an overeager reclaimer)
                # or is unreadable: surrender this claim, try the next.
                self.log(worker_id).append("lease_lost", shard=shard_id)
                continue
            self.log(worker_id).append("shard_claimed", shard=shard_id,
                                       scenarios=len(shard), attempt=attempt)
            return shard
        return None

    def heartbeat(self, shard_id, worker_id, event=True):
        """Refresh the claimant's lease (and optionally log liveness)."""
        self._write_lease(shard_id, worker_id)
        if event:
            self.log(worker_id).append("heartbeat", shard=shard_id)

    def lease_owned(self, shard_id, worker_id):
        """True while ``worker_id`` still holds the live claim on the shard.

        The **fencing check**: the claimed ticket must exist and the
        lease sidecar must name this worker.  A worker whose shard was
        stolen (lease expired, a reclaimer renamed the ticket away, a
        new claimant wrote its own lease) observes ``False`` and must
        stop persisting results for the shard — the stealer owns it now.
        """
        if not (self.claimed_dir / f"{shard_id}.json").exists():
            return False
        try:
            data = json.loads(self._lease_path(shard_id).read_text())
            return str(data.get("worker", "")) == str(worker_id)
        except (OSError, TypeError, ValueError):
            return False

    def lease_age(self, shard_id):
        """Seconds since the shard's lease was last refreshed.

        Measured from the lease sidecar's **mtime** — a timestamp the
        filesystem holding the queue assigned — rather than the
        wall-clock ``ts`` the writer embedded in the file, so hosts
        with skewed clocks sharing one queue still agree on staleness
        (the embedded ``ts`` remains for observability).  Falls back to
        the claimed ticket's mtime when the sidecar is missing (a
        claimant that died between rename and lease write).
        """
        for path in (self._lease_path(shard_id),
                     self.claimed_dir / f"{shard_id}.json"):
            try:
                return max(0.0, _utcnow() - path.stat().st_mtime)
            except OSError:
                continue
        return 0.0

    def reclaim_expired(self, lease_s, worker_id="", grace=None,
                        max_attempts=None):
        """Steal claimed shards whose lease went stale; returns shard ids.

        A lease is stale once its age exceeds ``lease_s + grace``
        (``grace`` defaults to the sweep's manifest policy — the skew
        cushion for queues shared across hosts).  Each reclaim is a
        rename back to ``pending/`` — atomic, so two survivors policing
        the same corpse reclaim it exactly once.  With ``max_attempts``,
        an expired shard that has already been claimed that many times
        is **quarantined** to ``failed/`` instead of re-armed — the
        crash-looping analogue of a worker-side failure, without which
        a shard that kills every claimant would cycle forever.  Only
        re-armed (pending-bound) ids are returned.
        """
        if lease_s < 0:
            raise ValidationError("lease_s must be non-negative")
        if grace is None:
            grace = self.lease_policy()["grace"]
        if grace < 0:
            raise ValidationError("grace must be non-negative")
        reclaimed = []
        for shard_id in self._ids_in(self.claimed_dir):
            if self.lease_age(shard_id) <= lease_s + grace:
                continue
            source = self.claimed_dir / f"{shard_id}.json"
            if max_attempts is not None and \
                    self.attempts(shard_id) >= int(max_attempts):
                self._quarantine(source, shard_id, worker_id,
                                 "lease expired with attempts exhausted")
                continue       # quarantined (or completed under us)
            target = self.pending_dir / f"{shard_id}.json"
            try:
                os.rename(source, target)
            except OSError:
                continue       # completed or reclaimed by someone else
            try:
                self._lease_path(shard_id).unlink()
            except OSError:
                pass
            self.log(worker_id).append("lease_reclaimed", shard=shard_id)
            reclaimed.append(shard_id)
        return reclaimed

    def _quarantine(self, source, shard_id, worker_id, error):
        """Rename a claimed ticket to ``failed/``; True when this call won."""
        self.failed_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(source, self.failed_dir / f"{shard_id}.json")
        except OSError:
            return False
        try:
            self._lease_path(shard_id).unlink()
        except OSError:
            pass
        self.log(worker_id).append("shard_failed", shard=shard_id,
                                   attempts=self.attempts(shard_id),
                                   error=str(error)[:500])
        return True

    def release(self, shard, worker_id, error=""):
        """Put a claimed shard back up for grabs after a failed attempt.

        The retry path: renames ``claimed/ → pending/`` and logs
        ``shard_released`` with the attempt count and the error that
        caused it.  ``False`` when the lease was already lost (stolen
        or completed elsewhere) — nothing to release.
        """
        source = self.claimed_dir / f"{shard.shard_id}.json"
        target = self.pending_dir / f"{shard.shard_id}.json"
        try:
            os.rename(source, target)
        except OSError:
            return False
        try:
            self._lease_path(shard.shard_id).unlink()
        except OSError:
            pass
        self.log(worker_id).append("shard_released", shard=shard.shard_id,
                                   attempt=self.attempts(shard.shard_id),
                                   error=str(error)[:500])
        return True

    def fail(self, shard, worker_id, error=""):
        """Quarantine a claimed shard to ``failed/`` (attempts exhausted).

        Terminal until :meth:`retry_failed` re-arms it; ``False`` when
        the lease was already lost.
        """
        source = self.claimed_dir / f"{shard.shard_id}.json"
        return self._quarantine(source, shard.shard_id, worker_id, error)

    def retry_failed(self, worker_id=""):
        """Re-arm every quarantined shard; returns the re-armed ids.

        Renames ``failed/ → pending/`` and resets each shard's attempt
        counter, so the re-run gets a full ``max_attempts`` budget
        (``repro queue retry-failed``).
        """
        rearmed = []
        for shard_id in self._ids_in(self.failed_dir):
            source = self.failed_dir / f"{shard_id}.json"
            target = self.pending_dir / f"{shard_id}.json"
            try:
                os.rename(source, target)
            except OSError:
                continue       # re-armed by someone else
            try:
                self._attempts_path(shard_id).unlink()
            except OSError:
                pass
            self.log(worker_id).append("shard_retry", shard=shard_id)
            rearmed.append(shard_id)
        return rearmed

    def complete(self, shard, worker_id, computed=0, cached=0):
        """Move a claimed shard to ``done/``; False when the lease was lost.

        Fenced: the rename only proceeds while ``worker_id`` still owns
        the lease (:meth:`lease_owned`), so a late worker whose shard
        was stolen — and possibly already re-claimed by a stealer —
        cannot complete the *stealer's* ticket out from under it.  A
        ``False`` return is not an error: the records this worker
        already persisted are byte-identical to what the re-run will
        produce, so the caller just moves on.
        """
        if not self.lease_owned(shard.shard_id, worker_id):
            self.log(worker_id).append("lease_lost", shard=shard.shard_id)
            return False
        source = self.claimed_dir / f"{shard.shard_id}.json"
        target = self.done_dir / f"{shard.shard_id}.json"
        try:
            os.rename(source, target)
        except OSError:
            self.log(worker_id).append("lease_lost", shard=shard.shard_id)
            return False
        try:
            self._lease_path(shard.shard_id).unlink()
        except OSError:
            pass
        self.log(worker_id).append("shard_done", shard=shard.shard_id,
                                   computed=int(computed), cached=int(cached))
        return True

    # -- progress / assembly ----------------------------------------------------

    def depth(self):
        """Undrained shard count (pending + claimed), without touching the
        results store.

        The cheap progress probe: :meth:`status` scans the results
        directory to count records (one stat per scenario), which a
        high-frequency poller — the API status endpoint, an autoscaler —
        does not need just to know whether work remains.
        """
        self.manifest()
        return (len(self._ids_in(self.pending_dir))
                + len(self._ids_in(self.claimed_dir)))

    def status(self):
        """Current :class:`QueueStatus` (scans tickets and the results store)."""
        manifest = self.manifest()
        scenarios = self.scenarios()
        cache = self.cache()
        present = sum(1 for s in scenarios if s in cache)
        return QueueStatus(
            total_shards=len(manifest["shards"]),
            pending=len(self._ids_in(self.pending_dir)),
            claimed=len(self._ids_in(self.claimed_dir)),
            done=len(self._ids_in(self.done_dir)),
            total_scenarios=len(scenarios),
            records_present=present,
            failed=len(self._ids_in(self.failed_dir)),
        )

    def shard_timings(self):
        """Latest ``shard_timing`` event per shard id (actual solve cost)."""
        timings = {}
        for event in self.events():
            if event.get("kind") == "shard_timing" and event.get("shard"):
                timings[str(event["shard"])] = event
        return timings

    def shard_report(self):
        """Per-shard drain view: state, scenarios, estimated vs actual cost.

        One dict per shard in manifest order — ``shard``, ``state``
        (``pending``/``claimed``/``done``/``failed``), ``scenarios``,
        ``attempts`` (how many claims the shard has consumed — the
        quarantine policy's counter), ``est_cost`` (the submitter's
        estimate) and ``actual_s`` (measured solve seconds from the
        shard's latest ``shard_timing`` event; ``None`` until a worker
        reports).  ``repro queue status`` renders this;
        :meth:`CostModel.from_events` closes the loop by calibrating the
        next submission from the same events.
        """
        manifest = self.manifest()
        sizes = manifest.get("shard_sizes", {})
        costs = manifest.get("shard_costs", {})
        timings = self.shard_timings()
        states = {}
        for state, directory in (("pending", self.pending_dir),
                                 ("claimed", self.claimed_dir),
                                 ("done", self.done_dir),
                                 ("failed", self.failed_dir)):
            for shard_id in self._ids_in(directory):
                states[shard_id] = state
        report = []
        for shard_id in manifest["shards"]:
            timing = timings.get(shard_id)
            report.append({
                "shard": shard_id,
                "state": states.get(shard_id, "missing"),
                "scenarios": int(sizes.get(shard_id, 0)),
                "attempts": self.attempts(shard_id),
                "est_cost": float(costs.get(shard_id, 0.0)),
                "actual_s": (None if timing is None
                             else float(timing.get("elapsed_s", 0.0))),
            })
        return report

    def gather(self, partial=False):
        """Records in scenario order, straight from the results store.

        Deterministic reassembly: the manifest fixes the scenario order,
        the store is content-addressed, and records are deterministic —
        so the result is byte-identical (canonical JSON) to a serial
        :class:`~repro.runtime.runner.BatchRunner` run of the same spec,
        no matter how many workers drained the queue, in what order, or
        on which hosts.  Raises :class:`PartialSweepError` — carrying
        the partial records, the missing labels, and any quarantined
        shard ids — unless every record is present (``partial=True``
        returns what exists instead).
        """
        cache = self.cache()
        records = []
        missing = []
        for scenario in self.scenarios():
            record = cache.peek(scenario)
            if record is None:
                missing.append(scenario.label)
            else:
                records.append(record)
        if missing and not partial:
            failed = self._ids_in(self.failed_dir)
            detail = (f"; quarantined shards: {', '.join(failed)} "
                      f"(repro queue retry-failed re-arms them)"
                      if failed else f" (first: {missing[0]})")
            raise PartialSweepError(
                f"queue {self.root} is incomplete: {len(missing)} of "
                f"{len(records) + len(missing)} records missing" + detail,
                records=records, missing=missing, failed_shards=failed)
        return records
