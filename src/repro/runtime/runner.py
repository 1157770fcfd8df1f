"""Scenario execution: serial and multiprocess, cache-aware, streaming.

:func:`run_scenario` is the pure unit of work (scenario in, record out);
:class:`BatchRunner` expands a :class:`~repro.runtime.config.SweepSpec`,
answers what it can from a :class:`~repro.runtime.cache.ResultCache`, and
executes the rest with the executor ``jobs`` picks — :class:`SerialExecutor`
or :class:`MultiprocessExecutor` (``multiprocessing.Pool``).  Records stream
back in scenario order regardless of executor, and the per-scenario seed
is derived from scenario content (see :attr:`Scenario.seed`), so parallel
and serial runs of the same spec produce byte-identical records.

**Grouping planner.**  The runner groups the cache-missing scenarios
by :class:`CircuitRef` and dispatches whole groups to the executor as
:func:`run_scenario_group` units: each group builds **one**
:class:`~repro.core.session.SolverSession` — circuit, compilation,
similarity analysis, layout, ordering, coupling amortized across the
group — and scenarios sharing an engine configuration advance in
lockstep through the batched kernels.  Cache hits are peeled off per
scenario *before* grouping; the record stream order and per-scenario
seeds do not depend on the grouping, and records are byte-identical to
independent one-scenario solves (pinned by the batch-equivalence
tests).  :func:`run_scenario` is the one-scenario group.

**Warm sessions.**  On the in-process path (``jobs=1``) the runner
keeps a :class:`~repro.core.session.SessionPool` for its lifetime and
passes it to :func:`run_scenario_group`, so
repeated ``run`` calls — and repeated circuits within one sweep — reuse
warm :class:`~repro.core.session.SolverSession` artifacts instead of
rebuilding them per group.  Queue workers hold their own pool (see
:mod:`repro.runtime.worker`); multiprocess executors do not share one
(sessions are single-thread owned and not picklable), so each worker
process builds sessions as groups reach it.  Warm-vs-cold records are
byte-identical (pinned by test).
"""

import dataclasses
import functools
import multiprocessing
import os

from repro.runtime.config import SweepSpec
from repro.utils.errors import ValidationError


def run_scenario(scenario):
    """Execute one scenario; returns its :class:`RunRecord`.

    A one-scenario :func:`run_scenario_group`.  The record carries the
    realized circuit's fingerprint (computed where the circuit is
    already built) so a parent process can persist cache entries
    without constructing any circuit itself.
    """
    return run_scenario_group([scenario])[0]


def run_scenario_group(scenarios, pool=None):
    """Execute scenarios sharing one :class:`CircuitRef` through a session.

    The unit of work the grouping planner dispatches to executors: one
    :class:`~repro.core.session.SolverSession` per group amortizes the
    circuit build, compilation, and analysis artifacts, and scenarios
    sharing an engine configuration are solved in lockstep.  Returns the
    group's records in the given scenario order, byte-identical to
    independent one-scenario solves.

    ``pool`` (an optional :class:`~repro.core.session.SessionPool`)
    serves the session warm: a pool hit skips the circuit build,
    compilation, similarity analysis, layout, and ordering entirely.
    The records are byte-identical either way — session artifacts are
    deterministic functions of their keys.
    """
    from repro.core.session import SolverSession

    scenarios = list(scenarios)
    if pool is not None:
        session = pool.session(scenarios[0].circuit)
    else:
        session = SolverSession.for_ref(scenarios[0].circuit)
    return session.solve(scenarios)


class SerialExecutor:
    """In-process execution, scenarios in order."""

    def map(self, fn, items):
        for item in items:
            yield fn(item)

    def close(self):
        pass

    def abort(self):
        pass


class MultiprocessExecutor:
    """``multiprocessing.Pool`` execution; results stream back in order.

    ``imap`` (not ``imap_unordered``) keeps the stream in submission
    order, so downstream consumers see the same sequence as serial runs.
    """

    def __init__(self, jobs):
        if jobs < 2:
            raise ValidationError("MultiprocessExecutor needs jobs >= 2")
        self.jobs = int(jobs)
        self._pool = None

    def map(self, fn, items):
        # A second map() while one is open would silently drop (and leak)
        # the previous pool together with its worker processes.
        if self._pool is not None:
            raise ValidationError(
                "MultiprocessExecutor.map called while a previous map is "
                "still open; call close() or abort() first")
        self._pool = multiprocessing.Pool(processes=self.jobs)
        return self._pool.imap(fn, items)

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def abort(self):
        """Tear the pool down without draining queued work.

        ``imap`` submits every item up front, so a plain ``close`` +
        ``join`` after early abandonment would block until the whole
        sweep finished computing.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def resolve_jobs(value):
    """Normalize a jobs request to a positive int (``"auto"`` → CPU count).

    Accepts an int or a string (the CLI's ``--jobs`` passes strings
    through so ``auto`` works anywhere a count does).  Zero, negative,
    and non-numeric values raise :class:`ValidationError`.
    """
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            value = int(text)
        except ValueError:
            raise ValidationError(
                f"jobs must be a positive integer or 'auto', got {value!r}"
            ) from None
    jobs = int(value)
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    return jobs


def make_executor(jobs):
    """Executor for ``jobs`` workers (1 → serial, ``"auto"`` → CPU count)."""
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return SerialExecutor()
    return MultiprocessExecutor(jobs)


@dataclasses.dataclass
class SweepStats:
    """Execution accounting for one :meth:`BatchRunner.run` call."""

    total: int = 0
    computed: int = 0
    cache_hits: int = 0
    #: Circuit groups dispatched by the grouping planner (0 ⇒ the cache
    #: was fully warm).
    groups: int = 0
    #: Cache writes that failed with OSError and were skipped — the
    #: record still streamed to the caller (the cache is an
    #: optimization, never a correctness dependency).
    put_errors: int = 0

    def summary(self):
        text = (f"{self.total} scenarios: {self.computed} computed, "
                f"{self.cache_hits} cached")
        if self.groups:
            text += f", {self.groups} circuit groups"
        if self.put_errors:
            text += f", {self.put_errors} cache writes failed"
        return text


class BatchRunner:
    """Expand a sweep and execute it, serving repeats from the cache.

    Parameters
    ----------
    jobs:
        Worker processes; 1 runs in-process.
    cache:
        Optional :class:`ResultCache`.  Hits skip the solver entirely;
        fresh results are persisted as they complete.

    Cache-missing scenarios are grouped by circuit and each group is
    solved through one compile-once
    :class:`~repro.core.session.SolverSession` (lockstep batching
    inside).
    """

    def __init__(self, jobs=1, cache=None):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.stats = SweepStats()
        self._sessions = None

    def _cache_put(self, scenario, record):
        """Persist one record, tolerating cache-store I/O failure.

        The record is already computed and already streaming to the
        caller; a full disk or flaky mount under the cache directory
        must cost a recomputation later, not this sweep.  Failures are
        counted in :attr:`SweepStats.put_errors` and surfaced by the
        stats summary.
        """
        try:
            self.cache.put(scenario, record)
        except OSError:
            self.stats.put_errors += 1

    def session_pool(self):
        """The runner's warm :class:`SessionPool` (in-process path only).

        Lazily built and kept for the runner's lifetime, so repeated
        ``run`` calls on one runner reuse circuit sessions.  Only the
        serial grouped path uses it — sessions are single-thread owned
        and not picklable, so it never crosses an executor boundary.
        """
        if self._sessions is None:
            from repro.core.session import SessionPool

            self._sessions = SessionPool()
        return self._sessions

    def iter_records(self, spec_or_scenarios):
        """Yield one :class:`RunRecord` per scenario, in scenario order.

        Cache hits yield immediately and are peeled off before the
        grouping planner runs.  The remaining scenarios partition by
        their ``CircuitRef`` in first-appearance order, each group
        running as one :func:`run_scenario_group` work unit.  When that
        yields fewer work units than workers (e.g. a single-circuit
        sweep with ``--jobs 4``), groups split further by engine
        configuration — each sub-group is still fully
        lockstep-compatible and amortizes its own circuit build, and the
        requested parallelism is preserved.  The merged stream preserves
        scenario order: group results are fetched from the executor
        lazily as the stream first needs them (groups of interleaved
        sweeps buffer until their turn).  A fully warm cache streams the
        whole sweep without starting an executor or touching the solver.
        """
        scenarios = self._expand(spec_or_scenarios)
        self.stats = SweepStats(total=len(scenarios))

        cached = {}
        missing = []
        for index, scenario in enumerate(scenarios):
            record = self.cache.get(scenario) if self.cache is not None else None
            if record is not None:
                cached[index] = record
            else:
                missing.append((index, scenario))

        def partition(key_fn):
            groups = []
            by_key = {}
            for index, scenario in missing:
                key = key_fn(scenario)
                members = by_key.get(key)
                if members is None:
                    members = by_key[key] = []
                    groups.append(members)
                members.append((index, scenario))
            return groups

        groups = partition(lambda s: s.circuit)
        if 0 < len(groups) < self.jobs:
            from repro.core.session import SolverSession

            groups = partition(
                lambda s: (s.circuit, SolverSession._engine_key(s.config)))
        self.stats.groups = len(groups)
        locate = {}
        for gpos, members in enumerate(groups):
            for offset, (index, _) in enumerate(members):
                locate[index] = (gpos, offset)

        work = run_scenario_group
        if self.jobs == 1 and groups:
            # In-process execution: hand the groups the runner's warm
            # session pool (never crosses a process boundary).
            work = functools.partial(run_scenario_group,
                                     pool=self.session_pool())
        executor = make_executor(self.jobs) if groups else SerialExecutor()
        completed = False
        try:
            fresh = iter(executor.map(
                work,
                [tuple(s for _, s in members) for members in groups]))
            arrived = {}
            remaining = [len(members) for members in groups]
            next_group = 0
            for index, scenario in enumerate(scenarios):
                if index in cached:
                    self.stats.cache_hits += 1
                    yield cached[index]
                    continue
                gpos, offset = locate[index]
                while next_group <= gpos:
                    arrived[next_group] = list(next(fresh))
                    next_group += 1
                record = arrived[gpos][offset]
                remaining[gpos] -= 1
                if not remaining[gpos]:
                    del arrived[gpos]   # keep streaming memory bounded
                self.stats.computed += 1
                if self.cache is not None:
                    self._cache_put(scenario, record)
                yield record
            completed = True
        finally:
            # On early abandonment (consumer break / exception) drop the
            # queued work instead of joining on the whole remaining sweep.
            if completed:
                executor.close()
            else:
                executor.abort()
            if self.cache is not None:
                self.cache.flush()  # persist buffered hit/miss counters

    def run(self, spec_or_scenarios, progress=None):
        """Execute everything; returns the record list in scenario order.

        ``progress`` is an optional callable invoked with each record as
        it completes (the CLI uses it to stream one line per scenario).
        """
        records = []
        for record in self.iter_records(spec_or_scenarios):
            if progress is not None:
                progress(record)
            records.append(record)
        return records

    @staticmethod
    def _expand(spec_or_scenarios):
        if isinstance(spec_or_scenarios, SweepSpec):
            return spec_or_scenarios.scenarios()
        return list(spec_or_scenarios)
