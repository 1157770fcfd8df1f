"""Work-stealing queue workers: warm, multi-queue, optionally long-lived.

:class:`Worker` is the drain loop over one or more
:class:`~repro.runtime.queue.SweepQueue`\\ s: claim a shard, solve it
through the compile-once :func:`~repro.runtime.runner.run_scenario_group`
path (peeling per-scenario cache hits first), persist every record into
the owning queue's shared :class:`~repro.runtime.cache.ResultCache`,
append progress to that queue's event stream, and mark the shard done.
Three amortizations make workers *warm* instead of per-sweep throwaways:

* **One process, many queues.**  A worker drains every queue it knows
  about — an explicit list, or (in *serve* mode) whatever submitted
  queues appear under its watch directories, including sweeps submitted
  after the worker started.  Process spawn and interpreter start are
  paid once per worker lifetime, not once per sweep.
* **Warm sessions.**  The worker owns a
  :class:`~repro.core.session.SessionPool` (an LRU keyed by circuit
  content hash), so consecutive same-circuit shards — within one queue
  or across queues — skip the circuit build, compilation, similarity
  analysis, layout, and ordering entirely.  Records stay byte-identical
  to a cold rebuild (session artifacts are deterministic).
* **Per-shard timing.**  Every completed shard appends a
  ``shard_timing`` event (the submitter's cost estimate next to the
  measured solve seconds), which ``repro queue status`` reports.

Concurrency and atomicity contract
----------------------------------
All inter-worker coordination lives in the queue's rename-based claim
protocol (see :mod:`repro.runtime.queue`): a claim is one atomic
``os.rename``, so any number of worker processes — on any hosts sharing
the filesystem — need no locks and no daemon.  While solving, a daemon
heartbeat thread refreshes the claimed shard's lease, so lease expiry
measures *liveness*, not solve time; a worker that dies stops
heartbeating and a survivor's :meth:`SweepQueue.reclaim_expired` puts
its shard back up for grabs.  The heartbeat thread is the **only**
concurrent actor inside a worker, and it touches nothing but the lease
sidecar and the event log; the solver state — including the
:class:`SessionPool`, which is single-thread owned — belongs exclusively
to the drain loop's thread.  A worker never shares sessions, caches, or
pools with another worker: one pool per process, by construction.

Failure model
-------------
Workers are built to drain *or* quarantine, never to wedge:

* **Transient I/O errors** (claim, record persist, event append — the
  flaky-NFS class) retry with exponential backoff and full jitter
  (:func:`repro.runtime.faults.backoff_s`); event appends are
  ultimately best-effort, since observability must never kill a sweep.
* **Shard failures** — a solve raising, or record persistence failing
  past its retries — release the shard back to ``pending/``
  (``shard_released``) with a backoff, until the shard's claim counter
  reaches ``max_attempts``; then it is quarantined to ``failed/``
  (``shard_failed``), keeping a poison shard from starving the sweep.
* **Self-fencing.**  The heartbeat thread watches its own lease
  (:meth:`SweepQueue.lease_owned`); once the lease is lost — stolen
  after an injected stall, say — it flags the drain loop, which stops
  persisting results for that shard and abandons the completion.  The
  records already written are byte-identical to the stealer's, so
  nothing is corrupted either way; fencing just keeps the loser from
  racing the new owner.
* **Supervision.**  :func:`run_workers` can restart dead worker
  processes under a ``restart_budget``, so an injected (or real) crash
  costs one respawn instead of the whole drain.

Deterministic fault injection (``faults=`` / ``--faults`` /
``REPRO_FAULTS``) drives all of these paths on demand — see
:mod:`repro.runtime.faults`.

Serve-mode lifecycle: a serving worker scans its watch directories for
newly submitted queues between claims and exits when a ``STOP`` file
appears in any watch directory, when ``idle_timeout_s`` elapses without
claimable work, or (with ``max_shards``) after enough completions.
While idle it sleeps on a :class:`~repro.runtime.queue.Doorbell`, bound
for the whole :meth:`Worker.run` and published under each watch
directory's ``.wake/``: a submission or a re-armed retry on the same
host rings it awake at once, and ``poll_s`` bounds the sleep otherwise
(a lost ring, a submitter on another host, no abstract sockets).

:func:`work_queue` / :func:`serve_queues` / :func:`run_workers` are the
process entry points (``repro queue work --jobs N`` spawns one process
per worker; ``--serve DIR...`` starts them long-lived).
"""

import dataclasses
import multiprocessing
import os
import pathlib
import random
import secrets
import threading
import time

from repro.runtime.faults import FaultyEventLog, backoff_s, make_injector
from repro.runtime.queue import WAKE_DIR, Doorbell, SweepQueue
from repro.runtime.runner import resolve_jobs, run_scenario_group
from repro.utils.errors import ReproError, ValidationError
from repro.utils.rng import stable_seed

#: Default capacity of a worker's warm :class:`SessionPool`.
DEFAULT_SESSIONS = 4

#: Claims a shard may consume before it is quarantined to ``failed/``.
DEFAULT_MAX_ATTEMPTS = 3

#: Retries for one transient I/O operation (claim / persist / append).
DEFAULT_IO_RETRIES = 3

#: Backoff schedule defaults (seconds): ``uniform(0, min(cap, base*2^n))``.
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0

#: Sentinel file name that stops serving workers (``<serve_dir>/STOP``).
STOP_FILE = "STOP"


def _default_worker_id():
    return f"w{os.getpid()}-{secrets.token_hex(2)}"


def _event_record(record):
    """The trimmed record payload carried by ``record_done`` events.

    Everything the live watcher's table needs (metrics, convergence,
    diagnostics) minus the per-component size vector, which dominates
    the payload and is only wanted by ``gather`` — which reads the
    results store, not the event stream.  The vector is dropped before
    the payload is built, not formatted and then discarded.
    """
    return dataclasses.replace(record, sizes=()).to_dict()


class _LeaseHeartbeat(threading.Thread):
    """Daemon thread refreshing one shard's lease while its solve runs.

    Also the worker's **fence sensor**: before each beat it verifies the
    lease is still this worker's (:meth:`SweepQueue.lease_owned`); once
    it is not — the shard was stolen — it sets :attr:`lost` and exits,
    and the drain loop stops persisting results for the shard.  With an
    injector, the ``stall`` site can silence the beats for ``stall_s``
    seconds (once per shard attempt), simulating a GC pause or NFS hang
    long enough for a peer to steal the lease out from under a live
    worker — exactly the scenario fencing exists for.
    """

    def __init__(self, queue, shard_id, worker_id, interval_s,
                 injector=None, stall_s=0.0, attempt=0):
        super().__init__(daemon=True, name=f"heartbeat-{shard_id}")
        self.queue = queue
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.interval_s = interval_s
        self.injector = injector
        self.stall_s = float(stall_s)
        self.attempt = int(attempt)
        #: Set once the lease is observed lost; never cleared.
        self.lost = threading.Event()
        self._halt = threading.Event()
        self._stalled = False

    def run(self):
        while not self._halt.wait(self.interval_s):
            if self.injector is not None and not self._stalled and \
                    self.injector.decide("stall", self.shard_id,
                                         self.attempt):
                self._stalled = True    # one stall per (shard, attempt)
                if self._halt.wait(self.stall_s):
                    return
            try:
                if not self.queue.lease_owned(self.shard_id, self.worker_id):
                    self.lost.set()
                    return
                self.queue.heartbeat(self.shard_id, self.worker_id)
            except OSError:
                pass    # a missed beat is recoverable; a crash is not

    def stop(self):
        self._halt.set()
        self.join()


class Worker:
    """One queue-draining loop (single process, single shard at a time).

    Parameters
    ----------
    queue:
        A :class:`SweepQueue` (or a path to one); optional when
        ``queues`` or ``serve_dirs`` supplies the work.
    worker_id:
        Identity stamped into leases and events; defaults to a
        pid-unique token.
    lease_s:
        How stale a *peer's* lease must be before this worker steals
        the shard.  Must comfortably exceed ``heartbeat_s`` (not the
        solve time — heartbeats run in a thread).  Default ``None``:
        each queue's manifest lease policy applies (``submit
        --lease-ttl``), falling back to
        :data:`~repro.runtime.queue.DEFAULT_LEASE_TTL_S`.
    heartbeat_s:
        Lease refresh interval; defaults to a quarter of the effective
        lease TTL.
    max_shards:
        Stop after completing this many shards across all queues
        (``None`` = drain).
    wait:
        When true (default) an idle worker waits for shards still
        claimed by live peers to finish (reclaiming any that expire)
        before exiting, so its exit means every queue is settled.  When
        false it exits as soon as nothing is claimable.
    poll_s:
        The longest idle wait between claim attempts.  A serving worker
        wakes sooner when a same-host submission or retry rings its
        doorbell; the poll covers lost rings, submitters on other hosts
        and platforms without abstract ``AF_UNIX`` sockets.
    queues:
        Additional queues (or paths) to drain from the same process —
        claims round-robin from the first queue with pending work, so
        queues drain in list order.
    serve_dirs:
        Watch directories for *serve* mode: each may itself be a queue,
        or a parent directory whose submitted subdirectories are
        adopted as queues — including sweeps submitted after the worker
        started.  A serving worker outlives individual sweeps; it exits
        on ``<dir>/STOP``, ``idle_timeout_s``, or ``max_shards``.
    idle_timeout_s:
        Exit after this many consecutive seconds without claimable
        work (``None`` = wait indefinitely in serve mode).
    session_capacity:
        Size of the worker's warm :class:`SessionPool`.
    max_attempts:
        Claims a shard may consume (across all workers) before a
        failure quarantines it to ``failed/`` instead of releasing it
        for another retry.
    lease_grace:
        Extra seconds on top of the TTL before this worker steals a
        peer's shard (clock-skew cushion).  Default ``None``: the
        queue's manifest policy (``submit --lease-grace``).
    faults:
        Deterministic fault injection: a spec string
        (``"seed=7,crash=0.25,..."``), a
        :class:`~repro.runtime.faults.FaultPlan`, or a prebuilt
        :class:`~repro.runtime.faults.FaultInjector`.  Default
        ``None`` reads the ``REPRO_FAULTS`` environment variable (so
        externally spawned worker processes join a chaos run), and
        injects nothing when that is unset.
    io_retries / backoff_base_s / backoff_cap_s:
        Transient-I/O retry budget and its exponential-backoff
        schedule (full jitter; see
        :func:`repro.runtime.faults.backoff_s`).
    """

    def __init__(self, queue=None, worker_id=None, lease_s=None,
                 heartbeat_s=None, max_shards=None, wait=True, poll_s=0.2,
                 queues=None, serve_dirs=None, idle_timeout_s=None,
                 session_capacity=DEFAULT_SESSIONS,
                 max_attempts=DEFAULT_MAX_ATTEMPTS, lease_grace=None,
                 faults=None, io_retries=DEFAULT_IO_RETRIES,
                 backoff_base_s=DEFAULT_BACKOFF_BASE_S,
                 backoff_cap_s=DEFAULT_BACKOFF_CAP_S):
        from repro.core.session import SessionPool

        roots = []
        if queue is not None:
            roots.append(queue)
        roots.extend(queues or ())
        self.queues = [q if isinstance(q, SweepQueue) else SweepQueue(q)
                       for q in roots]
        self.serve_dirs = [pathlib.Path(d) for d in (serve_dirs or ())]
        if not self.queues and not self.serve_dirs:
            raise ValidationError(
                "Worker needs a queue, a queue list, or serve directories")
        for directory in self.serve_dirs:
            # Fail fast on a typo'd watch dir: with no STOP file possible
            # and nothing to adopt, the serve loop would hang silently.
            if not directory.is_dir():
                raise ValidationError(
                    f"serve directory does not exist: {directory}")
        if lease_s is not None and lease_s <= 0:
            raise ValidationError("Worker lease_s must be positive")
        if lease_grace is not None and float(lease_grace) < 0:
            raise ValidationError("Worker lease_grace must be non-negative")
        if int(max_attempts) < 1:
            raise ValidationError("Worker max_attempts must be >= 1")
        if max_shards is not None and int(max_shards) < 1:
            raise ValidationError("Worker max_shards must be >= 1")
        if idle_timeout_s is not None and float(idle_timeout_s) < 0:
            raise ValidationError("Worker idle_timeout_s must be >= 0")
        if int(io_retries) < 0:
            raise ValidationError("Worker io_retries must be >= 0")
        self.worker_id = worker_id or _default_worker_id()
        self.lease_s = None if lease_s is None else float(lease_s)
        self.heartbeat_s = (None if heartbeat_s is None
                            else float(heartbeat_s))
        self.max_shards = None if max_shards is None else int(max_shards)
        self.wait = bool(wait)
        self.poll_s = float(poll_s)
        self.idle_timeout_s = (None if idle_timeout_s is None
                               else float(idle_timeout_s))
        self.max_attempts = int(max_attempts)
        self.lease_grace = (None if lease_grace is None
                            else float(lease_grace))
        if faults is None:
            faults = os.environ.get("REPRO_FAULTS") or None
        self.faults = make_injector(faults)
        self.io_retries = int(io_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        # Deterministic per-worker jitter stream: replayable, and
        # decorrelated across workers by id.
        self._rng = random.Random(stable_seed("worker-backoff",
                                              self.worker_id))
        #: Warm per-circuit sessions, shared across shards and queues.
        self.sessions = SessionPool(session_capacity)
        # One cache handle per queue for the worker's lifetime: each
        # instance owns one stats.d/ counter shard, so per-shard
        # instances would litter the store with one shard file per
        # processed work unit.  Lazy — constructing a handle creates
        # results/, which an unsubmitted queue should not grow.
        self._caches = {}
        self._logs = {}          # queue root -> event log (fault-wrapped)
        self._lease_policies = {}
        self._known = {str(q.root) for q in self.queues}
        self._announced = set()
        self._retired = set()    # settled queues: skip their dir scans
        self._tallies = {}       # queue root -> this worker's share of it
        self._bell = Doorbell(())    # unbound (a plain sleep) outside run()
        self._idle_since = None
        self._claim_seq = 0
        #: Tallies of the last :meth:`run` (shards, computed, cache hits).
        self.shards_done = 0
        self.computed = 0
        self.cache_hits = 0
        #: Transient I/O errors absorbed (injected or real) and shard
        #: attempts that failed, across the worker's lifetime.
        self.io_errors = 0
        self.failures = 0

    @property
    def queue(self):
        """The worker's first queue (``None`` for a pure serve worker)."""
        return self.queues[0] if self.queues else None

    def _result_cache(self, queue):
        key = str(queue.root)
        cache = self._caches.get(key)
        if cache is None:
            cache = self._caches[key] = queue.cache()
        return cache

    def _event_log(self, queue):
        """This worker's event writer for ``queue`` (fault-wrapped)."""
        key = str(queue.root)
        log = self._logs.get(key)
        if log is None:
            if self.faults is not None:
                log = FaultyEventLog(queue.events_path,
                                     worker=self.worker_id,
                                     injector=self.faults)
            else:
                log = queue.log(self.worker_id)
            self._logs[key] = log
        return log

    # -- lease policy / retry plumbing ------------------------------------------

    def _ttl(self, queue):
        """Effective lease TTL for ``queue`` (flag > manifest > default)."""
        if self.lease_s is not None:
            return self.lease_s
        return self._lease_policy(queue)["ttl"]

    def _grace(self, queue):
        """Effective reclaim grace for ``queue`` (flag > manifest > 0)."""
        if self.lease_grace is not None:
            return self.lease_grace
        return self._lease_policy(queue)["grace"]

    def _lease_policy(self, queue):
        key = str(queue.root)
        policy = self._lease_policies.get(key)
        if policy is None:
            policy = self._lease_policies[key] = queue.lease_policy()
        return policy

    def _sleep_backoff(self, attempt):
        time.sleep(backoff_s(attempt, self.backoff_base_s,
                             self.backoff_cap_s, self._rng))

    def _safe_append(self, log, kind, **fields):
        """Append one event, retrying transient failures, never raising.

        Events are observability: after the retry budget the append is
        dropped (and counted) rather than failing the shard — monitoring
        must not take down a sweep, even when the log's filesystem is
        misbehaving.
        """
        for attempt in range(1, self.io_retries + 2):
            try:
                return log.append(kind, **fields)
            except OSError:
                self.io_errors += 1
                if attempt > self.io_retries:
                    return None
                self._sleep_backoff(attempt)

    def _claim(self, queue):
        """Claim with transient-error retries; ``None`` = nothing this round.

        A claim lost to persistent I/O error is indistinguishable from
        "nothing claimable" — the drain loop comes back next round, and
        the shard is still in ``pending/`` for anyone to take.
        """
        for attempt in range(1, self.io_retries + 2):
            try:
                if self.faults is not None:
                    self._claim_seq += 1
                    self.faults.check_io("io-claim", self.worker_id,
                                         self._claim_seq, attempt)
                return queue.claim(self.worker_id)
            except OSError:
                self.io_errors += 1
                if attempt > self.io_retries:
                    return None
                self._sleep_backoff(attempt)

    # -- serve-mode discovery ---------------------------------------------------

    def _discover(self):
        """Adopt submitted queues that appeared under the serve dirs.

        Adopted children and the doorbells' ``.wake/`` are skipped by
        name before any filesystem check, so each pass costs one listing
        per serve dir plus checks on new entries only, however many
        sweeps a long-lived server has adopted.  New queues are adopted
        in sorted (priority) order.
        """
        for directory in self.serve_dirs:
            if (directory / "sweep.json").exists():
                candidates = [directory]
            else:
                try:
                    candidates = sorted(c for c in directory.iterdir()
                                        if c.name != WAKE_DIR
                                        and str(c) not in self._known
                                        and c.is_dir()
                                        and (c / "sweep.json").exists())
                except OSError:
                    candidates = []
            for root in candidates:
                key = str(root)
                if key not in self._known:
                    self._known.add(key)
                    self.queues.append(SweepQueue(root))

    def _stop_requested(self):
        return any((directory / STOP_FILE).exists()
                   for directory in self.serve_dirs)

    def _announce(self, queue):
        key = str(queue.root)
        if key not in self._announced:
            self._announced.add(key)
            self._safe_append(self._event_log(queue), "worker_started",
                              lease_s=self._ttl(queue),
                              max_shards=self.max_shards)

    # -- the drain loop ---------------------------------------------------------

    def run(self):
        """Drain loop; returns the number of shards this worker completed.

        A serving worker binds its doorbell before the first discovery,
        so no submission can fall between a scan and the bind, and
        releases it (socket and ``.wake/`` files) on every exit path.
        """
        self.shards_done = self.computed = self.cache_hits = 0
        self._idle_since = None
        self._bell = Doorbell(self.serve_dirs)
        try:
            self._drain()
        finally:
            self._bell.close()
        return self.shards_done

    def _drain(self):
        while self.max_shards is None or self.shards_done < self.max_shards:
            self._discover()
            if self._stop_requested():
                break
            claimed = False
            for queue in self.queues:
                if str(queue.root) in self._retired:
                    continue
                self._announce(queue)
                shard = self._claim(queue)
                if shard is None:
                    continue
                claimed = True
                self._idle_since = None
                if self.process(shard, queue):
                    self.shards_done += 1
                # else: the lease was lost to a reclaiming peer mid-
                # solve, or the attempt failed (released or
                # quarantined) — the eventual completion belongs to a
                # later attempt, don't count it here.
                break
            if not claimed and not self._idle_continue():
                break
        for queue in self.queues:
            key = str(queue.root)
            if key in self._announced:
                # Per-queue tallies: a multi-queue worker's totals would
                # over-report every individual queue's stream.
                tally = self._tallies.get(
                    key, {"shards": 0, "computed": 0, "cached": 0})
                self._safe_append(self._event_log(queue),
                                  "worker_done", **tally)

    def _idle_continue(self):
        """Nothing claimable anywhere: steal, wait, serve, or give up.

        Per queue, "settled" is judged from the terminal ``done/`` +
        ``failed/`` counts alone — the monotonic, terminal states —
        because pending/claimed scans are two separate directory
        listings and a concurrent reclaim or claim landing between them
        could make both read zero while an unsolved shard is
        mid-rename.  Counting ``failed/`` is what keeps a worker from
        wedging on a quarantined sweep: a queue whose remainder is
        poison settles instead of being waited on forever.  Settled
        queues are retired from future scans (a queue holds one sweep
        forever, so settled is terminal too — until ``retry_failed``,
        an operator action whose ring names the queue and un-retires it
        here).

        The wait is the doorbell's: up to ``poll_s``, or until a ring.
        """
        unsettled = False
        for queue in self.queues:
            key = str(queue.root)
            if key in self._retired:
                continue
            terminal = (len(queue._ids_in(queue.done_dir))
                        + len(queue._ids_in(queue.failed_dir)))
            if terminal >= len(queue.shard_ids()):
                self._retired.add(key)
                continue
            unsettled = True
            if queue._ids_in(queue.claimed_dir) and \
                    queue.reclaim_expired(self._ttl(queue), self.worker_id,
                                          grace=self._grace(queue),
                                          max_attempts=self.max_attempts):
                return True     # stolen work is immediately claimable
        if not unsettled and not self.serve_dirs:
            return False    # every queue settled; nothing to wait for
        if unsettled and not self.wait and not any(
                queue._ids_in(queue.pending_dir) for queue in self.queues
                if str(queue.root) not in self._retired):
            return False    # live peers hold the rest; not our problem
        now = time.monotonic()
        if self._idle_since is None:
            self._idle_since = now
        if self.idle_timeout_s is not None and \
                now - self._idle_since >= self.idle_timeout_s:
            return False    # idle too long (serve mode's exit valve)
        rung = self._bell.wait(self.poll_s)
        if rung:
            self._retired.difference_update(
                str(queue.root) for queue in self.queues
                if queue.root.name in rung)
        return True

    def process(self, shard, queue=None):
        """Solve one claimed shard end to end (hits peeled, records persisted).

        Returns whether the completion stuck.  ``False`` covers three
        benign-to-the-sweep outcomes: the lease was lost to a
        reclaiming peer (records already written remain valid), the
        attempt failed and the shard was released for retry, or the
        attempt failed with the shard's claim budget exhausted and the
        shard was quarantined to ``failed/``.
        """
        queue = queue if queue is not None else self.queues[0]
        attempt = queue.attempts(shard.shard_id) or 1
        try:
            return self._process_attempt(shard, queue, attempt)
        except Exception as error:  # noqa: BLE001 — retry/quarantine path
            return self._handle_failure(shard, queue, attempt, error)

    def _process_attempt(self, shard, queue, attempt):
        cache = self._result_cache(queue)
        log = self._event_log(queue)
        ttl = self._ttl(queue)
        interval = (self.heartbeat_s if self.heartbeat_s is not None
                    else max(ttl / 4.0, 0.02))
        stall_s = 0.0
        if self.faults is not None:
            # A stall must outlive TTL + grace + a beat, or the lease
            # never actually expires and nothing is exercised.
            stall_s = self.faults.plan.stall_s or \
                (ttl + self._grace(queue)) * 1.5 + 4.0 * interval
        records = {}
        missing = []
        heartbeat = _LeaseHeartbeat(queue, shard.shard_id, self.worker_id,
                                    interval, injector=self.faults,
                                    stall_s=stall_s, attempt=attempt)
        heartbeat.start()
        started = time.perf_counter()
        try:
            if self.faults is not None:
                self.faults.maybe_crash("crash", shard.shard_id, attempt)
            for index, scenario in zip(shard.indexes, shard.scenarios):
                hit = cache.get(scenario)
                if hit is not None:
                    records[index] = hit
                else:
                    missing.append((index, scenario))
            if self.faults is not None:
                for _, scenario in missing:
                    self.faults.check_poison(scenario)
            if missing:
                fresh = run_scenario_group(
                    tuple(scenario for _, scenario in missing),
                    pool=self.sessions)
                for (index, scenario), record in zip(missing, fresh):
                    if heartbeat.lost.is_set():
                        break   # fenced: the stealer owns this shard now
                    self._persist_record(cache, scenario, record,
                                         shard, index, attempt)
                    records[index] = record
        finally:
            heartbeat.stop()
            cache.flush()
        if heartbeat.lost.is_set() or \
                not queue.lease_owned(shard.shard_id, self.worker_id):
            # Self-fencing: the lease is gone, so neither the record_done
            # accounting nor the completion is ours to write.  The direct
            # ownership probe matters when the theft happened before the
            # heartbeat thread's first beat could notice.  What was
            # persisted is byte-identical to the new owner's output.
            self._safe_append(log, "lease_lost", shard=shard.shard_id)
            return False
        elapsed = time.perf_counter() - started
        for index, scenario in zip(shard.indexes, shard.scenarios):
            record = records[index]
            self._safe_append(log, "record_done", shard=shard.shard_id,
                              index=index,
                              scenario=scenario.content_hash(),
                              label=scenario.label,
                              cached=bool(record.cached),
                              record=_event_record(record))
        self._safe_append(log, "shard_timing", shard=shard.shard_id,
                          circuit=shard.scenarios[0].circuit.label,
                          scenarios=len(shard), computed=len(missing),
                          cached=len(shard) - len(missing),
                          est_cost=float(shard.est_cost),
                          elapsed_s=round(elapsed, 6))
        self.computed += len(missing)
        self.cache_hits += len(shard) - len(missing)
        tally = self._tallies.setdefault(
            str(queue.root), {"shards": 0, "computed": 0, "cached": 0})
        tally["computed"] += len(missing)
        tally["cached"] += len(shard) - len(missing)
        if self.faults is not None:
            # The nastiest window: every record persisted, ticket not
            # yet done/.  A crash here must re-run as pure cache hits.
            self.faults.maybe_crash("crash-post-persist",
                                    shard.shard_id, attempt)
        stuck = queue.complete(shard, self.worker_id,
                               computed=len(missing),
                               cached=len(shard) - len(missing))
        if stuck:
            tally["shards"] += 1
        return stuck

    def _persist_record(self, cache, scenario, record, shard, index, attempt):
        """One record into the results store, with transient-error retries.

        Unlike event appends this is **not** best-effort: a record that
        never lands would silently hole the gather, so persistent
        failure raises and fails the attempt (release or quarantine).
        """
        for retry in range(1, self.io_retries + 2):
            try:
                if self.faults is not None:
                    self.faults.check_io("io-persist", shard.shard_id,
                                         index, attempt, retry)
                cache.put(scenario, record)
                return
            except OSError:
                self.io_errors += 1
                if retry > self.io_retries:
                    raise
                self._sleep_backoff(retry)

    def _handle_failure(self, shard, queue, attempt, error):
        """A shard attempt raised: release for retry, or quarantine.

        ``attempt`` is the shard's claim count (this worker's claim
        included), so quarantine lands after exactly ``max_attempts``
        claims — deterministic failures (poison) spend their whole
        budget and park in ``failed/`` instead of starving the sweep.
        """
        self.failures += 1
        if attempt >= self.max_attempts:
            queue.fail(shard, self.worker_id, error=repr(error))
        else:
            # Exponential backoff in the shard's attempt number (full
            # jitter) before anyone retries — transient causes get time
            # to clear, and peers don't stampede the same shard.
            self._sleep_backoff(attempt)
            queue.release(shard, self.worker_id, error=repr(error))
        return False


def work_queue(root, worker_id=None, lease_s=None,
               heartbeat_s=None, max_shards=None, wait=True, poll_s=0.2,
               idle_timeout_s=None, session_capacity=DEFAULT_SESSIONS,
               **worker_kwargs):
    """Run one :class:`Worker` to completion over the queue(s) at ``root``.

    ``root`` is one queue directory or a list of them (one process pool
    draining several sweeps back to back, sessions kept warm across
    them).  Extra keyword arguments (``faults``, ``max_attempts``,
    ``lease_grace``, ...) pass through to :class:`Worker`.  Module-level
    so ``multiprocessing`` can target it; returns the number of shards
    completed.
    """
    roots = list(root) if isinstance(root, (list, tuple)) else [root]
    worker = Worker(queues=[SweepQueue(r) for r in roots],
                    worker_id=worker_id, lease_s=lease_s,
                    heartbeat_s=heartbeat_s, max_shards=max_shards,
                    wait=wait, poll_s=poll_s, idle_timeout_s=idle_timeout_s,
                    session_capacity=session_capacity, **worker_kwargs)
    return worker.run()


def serve_queues(dirs, worker_id=None, lease_s=None,
                 heartbeat_s=None, max_shards=None, poll_s=0.2,
                 idle_timeout_s=None, session_capacity=DEFAULT_SESSIONS,
                 **worker_kwargs):
    """Run one long-lived :class:`Worker` serving the watch directories.

    The warm entry point: the worker adopts every submitted queue under
    ``dirs`` — including sweeps submitted while it runs — and keeps its
    process and :class:`~repro.core.session.SessionPool` alive across
    all of them.  Exits on ``<dir>/STOP``, ``idle_timeout_s``, or
    ``max_shards``; returns the number of shards completed.  Extra
    keyword arguments pass through to :class:`Worker`.  Module-level so
    ``multiprocessing`` can target it.
    """
    worker = Worker(serve_dirs=list(dirs), worker_id=worker_id,
                    lease_s=lease_s, heartbeat_s=heartbeat_s,
                    max_shards=max_shards, poll_s=poll_s,
                    idle_timeout_s=idle_timeout_s,
                    session_capacity=session_capacity, **worker_kwargs)
    return worker.run()


def run_workers(root, jobs, serve=False, restart_budget=0, **worker_kwargs):
    """Drain or serve the queue(s) at ``root`` with ``jobs`` processes.

    ``root`` is a queue directory or a list of them; with ``serve=True``
    it names *watch* directories instead and the workers stay alive for
    newly submitted sweeps (see :func:`serve_queues` — pass
    ``idle_timeout_s`` or drop a ``STOP`` file to end them).  ``jobs``
    accepts ``"auto"`` (see :func:`~repro.runtime.runner.resolve_jobs`);
    1 runs in-process (unless a restart budget demands a supervisable
    child process).

    ``restart_budget`` makes the call a **supervisor**: a worker process
    that dies abnormally (a crash — injected or real — rather than a
    clean exit) is respawned, up to ``restart_budget`` restarts total
    across all slots, so one killed worker costs a respawn instead of
    the whole drain.  With the budget exhausted (or at the default 0),
    abnormal deaths are collected and raised as :class:`ReproError`
    once every slot has finished.  Returns the number of worker slots.
    """
    jobs = resolve_jobs(jobs)
    if int(restart_budget) < 0:
        raise ValidationError("restart_budget must be non-negative")
    if isinstance(root, (list, tuple)):
        roots = [str(r) for r in root]
    else:
        roots = [str(root)]
    if serve:
        # Validate before spawning so a typo'd watch dir is one clear
        # error, not N dead worker processes.
        for directory in roots:
            if not pathlib.Path(directory).is_dir():
                raise ValidationError(
                    f"serve directory does not exist: {directory}")
    target = serve_queues if serve else work_queue
    payload = roots if serve else (roots if len(roots) > 1 else roots[0])
    if jobs == 1 and not restart_budget:
        target(payload, **worker_kwargs)
        return 1

    base_id = worker_kwargs.get("worker_id")

    def spawn(index, generation):
        worker_id = base_id and f"{base_id}-{index}"
        if worker_id and generation:
            worker_id = f"{worker_id}.r{generation}"
        suffix = f"-r{generation}" if generation else ""
        process = multiprocessing.Process(
            target=target, args=(payload,),
            kwargs=dict(worker_kwargs, worker_id=worker_id),
            name=f"repro-queue-worker-{index}{suffix}")
        process.start()
        return process

    alive = {index: spawn(index, 0) for index in range(jobs)}
    generations = dict.fromkeys(alive, 0)
    budget = int(restart_budget)
    failures = []
    while alive:
        for index, process in list(alive.items()):
            process.join(timeout=0.05)
            if process.exitcode is None:
                continue
            del alive[index]
            if process.exitcode == 0:
                continue
            if budget > 0:
                budget -= 1
                generations[index] += 1
                alive[index] = spawn(index, generations[index])
            else:
                failures.append(f"{process.name} (exit {process.exitcode})")
    if failures:
        raise ReproError(f"queue worker processes failed: {failures}")
    return jobs
