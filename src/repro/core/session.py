"""Compile-once, solve-many: per-circuit solver sessions.

A sweep over scenarios sharing one circuit — same topology, same
coupling structure, different bounds / orderings / delay modes — used to
rebuild everything per scenario: the circuit graph, its compiled form
and precompiled :class:`~repro.timing.kernels.SweepPlan`, the logic
simulation behind similarity analysis, the channel layout, the stage-1
ordering, and the Miller-weighted coupling set.  :class:`SolverSession`
owns all of those artifacts for **one** :class:`CircuitRef` (or live
circuit) and memoizes each by the configuration knobs that actually
determine it, so K scenarios pay the per-circuit compilation once.

Stage 2 has one setup, :meth:`SolverSession.solve_configs`: for
:class:`~repro.runtime.config.FlowConfig`\\ s that share an *engine*
(ordering × Miller mode × coupling order × delay mode × simulation
workload) it builds one problem and one optimizer per config over the
memoized engine, stage-1 result and initial point, and advances them
through :func:`repro.core.ogws.run_lockstep` in chunks of at most
:data:`LOCKSTEP_WIDTH` columns — one batched LRS solve, delay/arrival
sweep, and Theorem 3 projection per outer iteration, with per-column
convergence masking.  Both entry points run through it:

* :meth:`SolverSession.solve` groups scenarios by engine key, solves
  each group with its :attr:`~repro.runtime.config.Scenario.seed` (a
  seed derived from ``FlowConfig.seed`` and the circuit), and is the
  only place a :class:`~repro.runtime.records.RunRecord` is built;
* :class:`~repro.core.flow.NoiseAwareSizingFlow` solves its one config
  with ``FlowConfig.seed`` itself as the simulation seed and wraps the
  sizing in a :class:`~repro.core.flow.FlowResult`.

The batched kernels replay one column's arithmetic bit-for-bit per
column (see :mod:`repro.timing.kernels`), so ``SolverSession.solve``
returns records **byte-identical** to K independent one-scenario solves
— the property the batch-equivalence tests pin (a group of one is a
lockstep batch of width one).  Every engine a session builds draws its
scratch from the session's one
:class:`~repro.timing.kernels.BatchWorkspace`, whose width-1 buffers
also serve the engines' single-point sweeps.

:class:`SessionPool` keeps sessions *warm across work units*: a small
LRU of sessions keyed by the :class:`~repro.runtime.config.CircuitRef`
content hash, shared by the serial :class:`~repro.runtime.runner.BatchRunner`
path and the queue :class:`~repro.runtime.worker.Worker` — consecutive
same-circuit shards skip the build/compile/similarity/ordering work
entirely instead of paying it once per shard.

Concurrency contract
--------------------
Sessions and pools are **single-thread, single-process owned**: the
kernel :class:`~repro.timing.kernels.Workspace` buffers a session holds
are mutated in place during every solve, so a session must only ever be
driven by the thread that created it.  A :class:`SessionPool` inherits
that ownership — it is a per-worker (per-process) object, never shared
between threads; parallel sweeps run one pool per worker process.
Reuse is *observationally pure*: every memoized artifact is a
deterministic function of its key, so records produced through a warm
session are byte-identical to a cold rebuild (pinned by test).

:class:`~repro.runtime.runner.BatchRunner` is the layer above, splitting
whole sweeps into per-circuit sessions.
"""

import collections
import hashlib
import json
import pathlib

import numpy as np

from repro.core.flow import order_channel_wires, resolve_ordering
from repro.core.ogws import OGWSOptimizer, run_lockstep
from repro.core.problem import SizingProblem
from repro.geometry.layout import ChannelLayout
from repro.noise.crosstalk import CouplingSet
from repro.noise.miller import MillerMode
from repro.noise.similarity import SimilarityAnalyzer
from repro.timing import kernels
from repro.timing.elmore import CouplingDelayMode, ElmoreEngine
from repro.timing.metrics import evaluate_metrics
from repro.utils.errors import ConvergenceError, ValidationError

#: Maximum columns advanced in one lockstep batch.  Workspace memory
#: scales with the widths a shrinking batch visits, so an uncapped
#: 100-config group on a large circuit would pool gigabytes of buffers;
#: chunks keep it bounded (the circuit artifacts are shared across
#: chunks regardless).
LOCKSTEP_WIDTH = 16


class SolverSession:
    """Solver context bound to one circuit: build once, solve many.

    Construct via :meth:`for_ref` (a declarative
    :class:`~repro.runtime.config.CircuitRef`) or :meth:`for_circuit`
    (a live circuit object, which a flow can solve but :meth:`solve`
    refuses: a record names its circuit by ref).  Artifacts — the built
    circuit, its compiled form, similarity analyzers, the layout,
    stage-1 orderings, coupling sets, delay engines and initial points —
    are created lazily and memoized by the knobs that determine them, so
    any number of scenarios (or repeated flow runs) share them.

    Sessions are single-threaded, like the kernel workspaces they own;
    parallel sweeps run one session per worker process
    (:func:`repro.runtime.runner.run_scenario_group`).
    """

    def __init__(self, circuit=None, ref=None):
        if circuit is None and ref is None:
            raise ValidationError("SolverSession needs a circuit or a ref")
        self.ref = ref
        self._circuit = circuit
        self._compiled = None
        self._fingerprint = None
        self._layout = None
        self._analyzers = {}
        self._orderings = {}     # stage-1 results
        self._couplings = {}
        self._engines = {}
        self._initials = {}      # engine key -> (x_init, CircuitMetrics)
        self._pool = None        # the engines' shared BatchWorkspace

    @classmethod
    def for_ref(cls, ref):
        """A session over a declarative ``CircuitRef`` (built lazily)."""
        return cls(ref=ref)

    @classmethod
    def for_circuit(cls, circuit):
        """A session over an already-built circuit object."""
        return cls(circuit=circuit)

    # -- shared artifacts --------------------------------------------------------

    @property
    def circuit(self):
        if self._circuit is None:
            self._circuit = self.ref.build()
        return self._circuit

    @property
    def compiled(self):
        if self._compiled is None:
            self._compiled = self.circuit.compile()
        return self._compiled

    def fingerprint(self):
        """SHA-256 of the realized circuit (cache bookkeeping)."""
        if self._fingerprint is None:
            from repro.runtime.config import circuit_fingerprint

            self._fingerprint = circuit_fingerprint(self.circuit)
        return self._fingerprint

    def analyzer(self, n_patterns, seed):
        """Memoized :class:`SimilarityAnalyzer` for one simulation workload."""
        key = (int(n_patterns), seed)
        value = self._analyzers.get(key)
        if value is None:
            value = self._analyzers[key] = SimilarityAnalyzer(
                self.circuit, n_patterns=n_patterns, seed=seed)
        return value

    def base_layout(self):
        """Memoized unordered :class:`ChannelLayout`."""
        if self._layout is None:
            self._layout = ChannelLayout.from_levels(self.circuit)
        return self._layout

    def stage1(self, ordering, n_patterns, seed):
        """Memoized stage-1 result ``(ordered_layout, cost_before, cost_after)``.

        ``ordering`` is a name from
        :data:`~repro.core.flow.ORDERING_NAMES`.  Only the result is
        kept: each ordering builds its channels' similarity afresh, one
        channel at a time.
        """
        key = (ordering, int(n_patterns), seed)
        value = self._orderings.get(key)
        if value is None:
            value = self._orderings[key] = order_channel_wires(
                self.analyzer(n_patterns, seed), self.base_layout(),
                resolve_ordering(ordering, seed=seed))
        return value

    def coupling(self, ordering, n_patterns, seed, miller_mode,
                 coupling_order):
        """Memoized Miller-weighted :class:`CouplingSet` for an ordered layout."""
        miller_mode = MillerMode(miller_mode)
        key = (ordering, int(n_patterns), seed, miller_mode.value,
               int(coupling_order))
        value = self._couplings.get(key)
        if value is None:
            ordered, _, _ = self.stage1(ordering, n_patterns, seed)
            value = self._couplings[key] = CouplingSet.from_layout(
                ordered, self.analyzer(n_patterns, seed), miller_mode,
                order=coupling_order)
        return value

    def engine(self, ordering, n_patterns, seed, miller_mode, coupling_order,
               delay_mode):
        """Memoized :class:`ElmoreEngine` for one config.

        Every engine draws its scratch from the session's one pool.
        """
        delay_mode = CouplingDelayMode(delay_mode)
        key = (ordering, int(n_patterns), seed, MillerMode(miller_mode).value,
               int(coupling_order), delay_mode.value)
        value = self._engines.get(key)
        if value is None:
            coupling = self.coupling(ordering, n_patterns, seed, miller_mode,
                                     coupling_order)
            if self._pool is None:
                self._pool = kernels.BatchWorkspace(
                    self.compiled.sweep_plan())
            value = self._engines[key] = ElmoreEngine(
                self.compiled, coupling, delay_mode, pool=self._pool)
        return value

    def initial_point(self, engine, key):
        """``(x_init, metrics)`` at the Table 1 "Init" sizing for ``engine``.

        Memoized by ``key``, the engine's :meth:`engine` arguments, so
        an engine group evaluates the initial metrics once instead of
        once per config (the values are identical either way — same
        engine, same point).
        """
        value = self._initials.get(key)
        if value is None:
            x_init = self.compiled.default_sizes(np.inf)
            value = self._initials[key] = (x_init,
                                           evaluate_metrics(engine, x_init))
        return value

    # -- stage 2 -----------------------------------------------------------------

    @staticmethod
    def _engine_key(config):
        """The knobs that determine a scenario's engine (its batch group)."""
        return (config.ordering, int(config.n_patterns), int(config.seed),
                config.miller_mode, int(config.coupling_order),
                config.delay_mode)

    def solve_configs(self, configs, seed):
        """Stage 2 for ``configs`` under simulation seed ``seed``.

        The configs must share one engine (``_engine_key`` up to the
        seed); they may differ in bounds (``delay_slack`` /
        ``noise_fraction`` / ``power_fraction``) and solver options
        (``max_iterations`` / ``tolerance`` / ``update``), which become
        per-column state in the lockstep run.  Returns ``(engine,
        stage1, sizings)``: the shared engine, the stage-1 result
        ``(ordered_layout, cost_before, cost_after)`` and one
        :class:`~repro.core.result.SizingResult` per config, in order.
        A column that reaches a non-finite value raises
        :class:`ConvergenceError` whose ``column`` indexes ``configs``.
        """
        config = configs[0]
        key = (config.ordering, int(config.n_patterns), int(seed),
               config.miller_mode, int(config.coupling_order),
               config.delay_mode)
        engine = self.engine(*key)
        stage1 = self.stage1(config.ordering, config.n_patterns, seed)
        x_init, initial_metrics = self.initial_point(engine, key)
        optimizers = [OGWSOptimizer(
            engine,
            SizingProblem.from_initial(
                engine, x_init, delay_slack=c.delay_slack,
                noise_fraction=c.noise_fraction,
                power_fraction=c.power_fraction, metrics=initial_metrics),
            x_init=x_init, initial_metrics=initial_metrics,
            max_iterations=c.max_iterations, tolerance=c.tolerance,
            update=c.update) for c in configs]
        sizings = []
        for lo in range(0, len(optimizers), LOCKSTEP_WIDTH):
            chunk = optimizers[lo:lo + LOCKSTEP_WIDTH]
            try:
                sizings.extend(run_lockstep(chunk))
            except ConvergenceError as error:
                if hasattr(error, "column"):
                    error.column += lo
                raise
        return engine, stage1, sizings

    def solve(self, scenarios):
        """Run scenarios over this session's ref; records in input order.

        Scenarios are grouped by engine key and each group runs through
        :meth:`solve_configs` with its scenarios' shared seed.  Records
        are byte-identical to independent one-scenario solves.  A solve
        that reaches a non-finite value raises :class:`ConvergenceError`
        naming its scenario.
        """
        from repro.runtime.records import RunRecord

        if self.ref is None:
            raise ValidationError(
                "SolverSession.solve needs a session over a CircuitRef "
                "(SolverSession.for_ref)")
        scenarios = list(scenarios)
        for scenario in scenarios:
            if scenario.circuit != self.ref:
                raise ValidationError(
                    f"scenario {scenario.label!r} references a different "
                    "circuit than this session")
        groups = {}
        for index, scenario in enumerate(scenarios):
            groups.setdefault(self._engine_key(scenario.config),
                              []).append(index)
        records = [None] * len(scenarios)
        for indices in groups.values():
            members = [scenarios[index] for index in indices]
            try:
                # Same circuit and config.seed, so one seed for the group.
                _, (_, cost_before, cost_after), sizings = \
                    self.solve_configs([s.config for s in members],
                                       members[0].seed)
            except ConvergenceError as error:
                if not hasattr(error, "column"):
                    raise
                scenario = members[error.column]
                raise ConvergenceError(
                    f"scenario {scenario.label!r} "
                    f"({scenario.content_hash()[:12]}): {error}") from error
            fingerprint = self.fingerprint()
            for index, scenario, sizing in zip(indices, members, sizings):
                records[index] = RunRecord(
                    scenario=scenario,
                    feasible=bool(sizing.feasible),
                    converged=bool(sizing.converged),
                    iterations=int(sizing.iterations),
                    duality_gap=float(sizing.duality_gap),
                    ordering_cost_before=float(cost_before),
                    ordering_cost_after=float(cost_after),
                    initial_metrics=sizing.initial_metrics,
                    metrics=sizing.metrics,
                    sizes=tuple(sizing.x.tolist()),
                    diagnostics={"repair_evals": int(sizing.repair_evals)},
                    # Telemetry (excluded from the canonical record; in a
                    # lockstep batch each column's clock spans the batch).
                    runtime_s=float(sizing.runtime_s),
                    memory_bytes=int(sizing.memory_bytes),
                    fingerprint=fingerprint,
                )
        return records


class SessionPool:
    """A bounded LRU of warm :class:`SolverSession`\\ s, keyed by circuit.

    The amortization unit above the session: a session amortizes
    per-circuit analysis across the scenarios of *one* work unit, the
    pool amortizes the session itself across *consecutive* work units —
    a queue worker draining twenty same-circuit shards (or a runner
    re-running a sweep in-process) builds the circuit once, not twenty
    times.  Keys are the SHA-256 of the
    :class:`~repro.runtime.config.CircuitRef`'s canonical dict, so two
    refs describing the same circuit source share one session no matter
    which process serialized them.

    Thread ownership: a pool (and every session it holds) belongs to
    exactly one thread — see the module docstring.  Capacity bounds the
    resident sessions (kernel workspaces scale with circuit size);
    eviction is least-recently-used and simply drops the session for
    garbage collection, losing nothing but warmth.
    """

    def __init__(self, capacity=4):
        if int(capacity) < 1:
            raise ValidationError("SessionPool capacity must be >= 1")
        self.capacity = int(capacity)
        self._sessions = collections.OrderedDict()
        #: Reuse accounting for the pool's lifetime.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(ref):
        canonical = json.dumps(ref.canonical_dict(), sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode())
        if ref.kind == "bench":
            # A .bench ref's canonical dict pins the *path*, not the
            # netlist bytes — and a long-lived pool can outlive an
            # in-place edit of the file.  Fold the current content into
            # the key so an edited netlist is a pool miss (fresh
            # session), never a stale hit on the old circuit.
            try:
                digest.update(pathlib.Path(ref.path).read_bytes())
            except OSError:
                pass
        return digest.hexdigest()

    def session(self, ref):
        """The warm session for ``ref``, building (and caching) on miss."""
        key = self._key(ref)
        session = self._sessions.get(key)
        if session is not None:
            self.hits += 1
            self._sessions.move_to_end(key)
            return session
        self.misses += 1
        session = SolverSession.for_ref(ref)
        self._sessions[key] = session
        while len(self._sessions) > self.capacity:
            self._sessions.popitem(last=False)
            self.evictions += 1
        return session

    def __len__(self):
        return len(self._sessions)

    def __contains__(self, ref):
        return self._key(ref) in self._sessions

    def clear(self):
        """Drop every resident session (counters keep accumulating)."""
        self._sessions.clear()
