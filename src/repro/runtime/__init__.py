"""Scenario orchestration: declarative configs, batch execution, caching.

The imperative flow object (:class:`~repro.core.flow.NoiseAwareSizingFlow`)
optimizes *one* circuit under *one* configuration.  This package turns
runs into data so sweeps scale:

* :mod:`~repro.runtime.config` — :class:`CircuitRef`, :class:`FlowConfig`,
  :class:`Scenario`, :class:`SweepSpec`: frozen, validated, canonically
  serializable specs of what to run,
* :mod:`~repro.runtime.runner` — :class:`BatchRunner` executes a sweep
  serially or across worker processes, streaming :class:`RunRecord`\\ s in
  a deterministic order (parallel output is byte-identical to serial).
  Its grouping planner groups scenarios by circuit and runs each group
  through one compile-once :class:`~repro.core.session.SolverSession` —
  circuit build, similarity analysis, layout, ordering, and coupling
  amortized across the group, and scenarios sharing an engine
  configuration advanced in lockstep by the batched ``(n, K)`` kernels.
  That is the one solve path at every circuit size (``random:N``
  netlists of 50k+ gates included), and its records are byte-identical
  to independent one-scenario solves,
* :mod:`~repro.runtime.cache` — :class:`ResultCache` keys records by the
  scenario's content hash, so repeated sweeps hit disk instead of the
  solver; hit/miss counters persist as per-process shards (exact under
  concurrent sweeps),
* :mod:`~repro.runtime.records` — :class:`RunRecord`, the structured
  result consumed by :mod:`repro.analysis` and the report formatters,
* :mod:`~repro.runtime.queue` / :mod:`~repro.runtime.worker` /
  :mod:`~repro.runtime.events` — the sharded sweep service:
  :class:`SweepQueue` expands a sweep into circuit-grouped shards on
  disk (claimed by atomic rename, protected by heartbeat leases, so a
  killed worker's shard is re-run by a survivor), :class:`Worker`
  drains shards through the compile-once session path into a shared
  :class:`ResultCache`, every step lands on an append-only JSONL event
  stream (:func:`tail_events` follows it live), and
  :meth:`SweepQueue.gather` reassembles records in scenario order —
  byte-identical to a serial run, no matter how many workers or hosts
  took part.  :class:`QueueExecutor` adapts the service to the
  executor protocol so a :class:`BatchRunner` can run on the queue
  transparently.

Quickstart (library)::

    from repro.runtime import (BatchRunner, CircuitRef, FlowConfig,
                               ResultCache, SweepSpec)

    spec = SweepSpec(
        circuits=(CircuitRef.iscas85("c432"), CircuitRef.iscas85("c880")),
        orderings=("woss", "none"),
        delay_modes=("own", "none", "propagated"),
        base=FlowConfig(n_patterns=128),
    )
    runner = BatchRunner(jobs=4, cache=ResultCache(".repro_cache"))
    for record in runner.iter_records(spec):   # 12 scenarios, 2 sessions
        print(record.summary())
    print(runner.stats.summary())

Quickstart (CLI) — the same sweep::

    repro sweep c432 c880 --orderings woss none \\
        --delay-modes own none propagated --patterns 128 --jobs 4

Quickstart (session) — many scenarios over *one* circuit, solved in
lockstep without going through a runner::

    from repro.core import SolverSession

    session = SolverSession.for_ref(CircuitRef.iscas85("c432"))
    records = session.solve(SweepSpec(
        circuits=(session.ref,),
        noise_fractions=(0.08, 0.10, 0.12, 0.15),
    ).scenarios())

Rerunning the runner forms with the same cache directory completes
without any solver work: every record is served from the cache.

Quickstart (sharded queue service) — terminal 1 submits and watches::

    repro queue submit c432 c880 --orderings woss none \\
        --delay-modes own none propagated --patterns 128 \\
        --queue-dir /shared/q --shard-mode cost
    repro queue watch --queue-dir /shared/q      # live table as records land

(``--shard-mode cost`` packs shards by estimated solve cost — see
:class:`~repro.runtime.queue.CostModel` — so large circuits don't
straggle behind piles of small ones; the default packs by count.)

terminal 2 (and any number of others, on any host sharing the
filesystem) drains the queue — kill one mid-shard and a survivor
reclaims its lease and re-runs the shard::

    repro queue work --queue-dir /shared/q --jobs auto

or serves *warm*: long-lived workers that adopt every sweep submitted
under a directory, keeping their processes and per-circuit
:class:`~repro.core.session.SessionPool` alive across sweeps (end them
with ``touch /shared/STOP`` or ``--max-idle``)::

    repro queue work --serve /shared --jobs auto --max-idle 600

afterwards, anywhere::

    repro queue status --queue-dir /shared/q
    repro queue gather --queue-dir /shared/q     # records in scenario order,
                                                 # byte-identical to serial
    repro queue merge --queue-dir /shared/q /other/host/q   # cross-host union

The same service, as a library — a throwaway queue under an ordinary
:class:`BatchRunner`::

    from repro.runtime import BatchRunner, QueueExecutor

    runner = BatchRunner(executor_factory=lambda: QueueExecutor(workers=4))
    records = runner.run(spec)       # byte-identical to jobs=1

Quickstart (HTTP service) — the same queue substrate behind a
multi-tenant API (:mod:`~repro.runtime.api`): terminal 1 serves the
front door, terminal 2 serves workers over the same root, and clients
POST JSON sweep specs (idempotent by content hash, per-tenant quotas
and drain priorities), follow Server-Sent Events, and GET records
byte-identical to a serial run — see ``docs/api.md``::

    repro serve-api --root /shared/svc --port 8080
    repro queue work --serve /shared/svc --jobs auto --max-idle 600

The dashboard at ``/dashboard`` and the SSE feed render from each
sweep's event stream alone (:mod:`~repro.runtime.dashboard`), so
monitoring never perturbs a drain.
"""

from repro.runtime.api import (
    ApiError,
    ApiServer,
    SweepService,
    TenantConfig,
    load_tenants,
    serve_in_thread,
)
from repro.runtime.cache import ResultCache, scenario_key
from repro.runtime.config import CircuitRef, FlowConfig, Scenario, SweepSpec
from repro.runtime.events import EventLog, EventTail, read_events, tail_events
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    PoisonError,
)
from repro.runtime.queue import (
    CostModel,
    PartialSweepError,
    QueueStatus,
    Shard,
    SweepQueue,
    make_shards,
)
from repro.runtime.records import RunRecord
from repro.runtime.runner import (
    BatchRunner,
    MultiprocessExecutor,
    SerialExecutor,
    SweepStats,
    resolve_jobs,
    run_scenario,
    run_scenario_group,
)
from repro.runtime.worker import (
    QueueExecutor,
    Worker,
    run_workers,
    serve_queues,
    work_queue,
)

__all__ = [
    "CircuitRef",
    "FlowConfig",
    "Scenario",
    "SweepSpec",
    "RunRecord",
    "ResultCache",
    "scenario_key",
    "BatchRunner",
    "SweepStats",
    "SerialExecutor",
    "MultiprocessExecutor",
    "QueueExecutor",
    "resolve_jobs",
    "run_scenario",
    "run_scenario_group",
    "EventLog",
    "EventTail",
    "read_events",
    "tail_events",
    "ApiError",
    "ApiServer",
    "SweepService",
    "TenantConfig",
    "load_tenants",
    "serve_in_thread",
    "SweepQueue",
    "Shard",
    "QueueStatus",
    "make_shards",
    "CostModel",
    "PartialSweepError",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "PoisonError",
    "Worker",
    "work_queue",
    "serve_queues",
    "run_workers",
]
