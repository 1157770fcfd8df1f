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

On top of the shared artifacts, :class:`ScenarioBatch` vectorizes the
solve itself: scenarios that share an *engine* (ordering × Miller mode ×
coupling order × delay mode × simulation workload) but differ in bounds
or solver options advance through :func:`repro.core.ogws.run_lockstep`
in lockstep — one batched LRS solve, delay/arrival sweep, and Theorem 3
projection per outer iteration, with per-column convergence masking.
The batched kernels replay one column's arithmetic bit-for-bit per
column (see :mod:`repro.timing.kernels`), so ``SolverSession.solve``
returns :class:`~repro.runtime.records.RunRecord`\\ s **byte-identical**
to K independent one-scenario solves — the property the
batch-equivalence tests pin.  This is the only solve path: every
scenario, at every circuit size, runs ``SolverSession.solve →
ScenarioBatch → run_lockstep`` (a group of one is a lockstep batch of
width one), and :meth:`ScenarioBatch.run` is the only place a record is
built.  Every engine a session builds draws its scratch from the
session's one :class:`~repro.timing.kernels.BatchWorkspace`, whose
width-1 buffers also serve the engines' single-point sweeps.

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

:class:`~repro.core.flow.NoiseAwareSizingFlow` is the K = 1 wrapper over
this module; :class:`~repro.runtime.runner.BatchRunner` is the layer
above, splitting whole sweeps into per-circuit sessions.
"""

import collections
import hashlib
import json
import pathlib

import numpy as np

from repro.core.flow import FlowResult, order_channel_wires, resolve_ordering
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


class SolverSession:
    """Solver context bound to one circuit: build once, solve many.

    Construct via :meth:`for_ref` (a declarative
    :class:`~repro.runtime.config.CircuitRef`) or :meth:`for_circuit`
    (a live circuit object).  Artifacts — the built circuit, its
    compiled form, similarity analyzers, layouts, stage-1 orderings,
    coupling sets, and delay engines — are created lazily and memoized
    by the knobs that determine them, so any number of scenarios (or
    repeated :meth:`run_flow` calls) share them.

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
        self._analyzers = {}
        self._layouts = {}
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

    def base_layout(self, pitch=None):
        """Memoized unordered :class:`ChannelLayout`."""
        value = self._layouts.get(pitch)
        if value is None:
            value = self._layouts[pitch] = ChannelLayout.from_levels(
                self.circuit, pitch=pitch)
        return value

    def stage1(self, ordering, n_patterns, seed, pitch=None):
        """Memoized stage-1 result ``(ordered_layout, cost_before, cost_after)``.

        ``ordering`` is a name from
        :data:`~repro.core.flow.ORDERING_NAMES` (memoized) or a callable
        (computed fresh — callables have no stable identity to key on).
        Only the result is kept: each ordering builds its channels'
        similarity afresh, one channel at a time.
        """
        named = isinstance(ordering, str)
        key = (ordering, int(n_patterns), seed, pitch) if named else None
        if named and key in self._orderings:
            return self._orderings[key]
        fn = resolve_ordering(ordering, seed=seed) if named else ordering
        result = order_channel_wires(self.analyzer(n_patterns, seed),
                                     self.base_layout(pitch), fn)
        if named:
            self._orderings[key] = result
        return result

    def coupling(self, ordering, n_patterns, seed, miller_mode,
                 coupling_order, pitch=None):
        """Memoized Miller-weighted :class:`CouplingSet` for an ordered layout."""
        miller_mode = MillerMode(miller_mode)
        named = isinstance(ordering, str)
        key = (ordering, int(n_patterns), seed, miller_mode.value,
               int(coupling_order), pitch) if named else None
        if named and key in self._couplings:
            return self._couplings[key]
        ordered, _, _ = self.stage1(ordering, n_patterns, seed, pitch)
        value = CouplingSet.from_layout(ordered,
                                        self.analyzer(n_patterns, seed),
                                        miller_mode, order=coupling_order)
        if named:
            self._couplings[key] = value
        return value

    def engine(self, ordering, n_patterns, seed, miller_mode, coupling_order,
               delay_mode, pitch=None):
        """Memoized :class:`ElmoreEngine` for one config."""
        delay_mode = CouplingDelayMode(delay_mode)
        named = isinstance(ordering, str)
        key = (ordering, int(n_patterns), seed, MillerMode(miller_mode).value,
               int(coupling_order), delay_mode.value, pitch) if named else None
        if named and key in self._engines:
            return self._engines[key]
        value = self._new_engine(
            self.coupling(ordering, n_patterns, seed, miller_mode,
                          coupling_order, pitch),
            delay_mode)
        if named:
            self._engines[key] = value
        return value

    def initial_point(self, engine, key=None):
        """``(x_init, metrics)`` at the Table 1 "Init" sizing for ``engine``.

        Memoized per engine key so a scenario group evaluates the
        initial metrics once instead of once per scenario (the values
        are identical either way — same engine, same point).
        """
        if key is not None and key in self._initials:
            return self._initials[key]
        x_init = self.compiled.default_sizes(np.inf)
        value = (x_init, evaluate_metrics(engine, x_init))
        if key is not None:
            self._initials[key] = value
        return value

    def _new_engine(self, coupling, delay_mode):
        """An engine drawing scratch from the session's one pool."""
        if self._pool is None:
            self._pool = kernels.BatchWorkspace(self.compiled.sweep_plan())
        return ElmoreEngine(self.compiled, coupling, delay_mode,
                            pool=self._pool)

    # -- the K = 1 path (NoiseAwareSizingFlow) -----------------------------------

    def run_flow(self, flow):
        """Execute a :class:`~repro.core.flow.NoiseAwareSizingFlow` here.

        This *is* the two-stage flow's implementation — ``flow.run()``
        delegates to it — expressed against the session's memoized
        artifacts so repeated runs on one session skip re-analysis.
        """
        from repro.core.flow import NoiseAwareSizingFlow

        if flow.circuit is not self.circuit:
            raise ValidationError("flow and session bind different circuits")
        if type(flow).order_wires is not NoiseAwareSizingFlow.order_wires:
            # Subclass stage-1 hook: honor the override (unmemoized — an
            # override has no stable identity to key artifacts on).
            analyzer = self.analyzer(flow.n_patterns, flow.seed)
            ordered, cost_before, cost_after = flow.order_wires(
                analyzer, self.base_layout(flow.pitch))
            coupling = CouplingSet.from_layout(ordered, analyzer,
                                               flow.miller_mode,
                                               order=flow.coupling_order)
            engine = self._new_engine(coupling, flow.delay_mode)
        else:
            ordering = flow.ordering_name if flow.ordering_name is not None \
                else flow.ordering
            ordered, cost_before, cost_after = self.stage1(
                ordering, flow.n_patterns, flow.seed, flow.pitch)
            coupling = self.coupling(ordering, flow.n_patterns, flow.seed,
                                     flow.miller_mode, flow.coupling_order,
                                     flow.pitch)
            engine = self.engine(ordering, flow.n_patterns, flow.seed,
                                 flow.miller_mode, flow.coupling_order,
                                 flow.delay_mode, flow.pitch)
        compiled = self.compiled
        x_init = compiled.default_sizes(np.inf) if flow.x_init is None \
            else flow.x_init
        problem = flow.problem
        if problem is None:
            slack, noise_frac, power_frac = flow.bound_factors
            problem = SizingProblem.from_initial(
                engine, x_init, delay_slack=slack, noise_fraction=noise_frac,
                power_fraction=power_frac)
        optimizer = OGWSOptimizer(engine, problem, x_init=x_init,
                                  **flow.optimizer_options)
        sizing = optimizer.run()
        return FlowResult(
            circuit=self.circuit,
            layout=ordered,
            coupling=coupling,
            engine=engine,
            problem=problem,
            sizing=sizing,
            ordering_cost_before=cost_before,
            ordering_cost_after=cost_after,
        )

    # -- the scenario path (ScenarioBatch) ---------------------------------------

    @staticmethod
    def _engine_key(config):
        """The knobs that determine a scenario's engine (its batch group)."""
        return (config.ordering, int(config.n_patterns), int(config.seed),
                config.miller_mode, int(config.coupling_order),
                config.delay_mode)

    def solve(self, scenarios):
        """Run scenarios over this circuit; returns records in input order.

        Scenarios are grouped by engine key and each group runs as one
        :class:`ScenarioBatch` advancing in lockstep.  Records are
        byte-identical to independent one-scenario solves.
        """
        scenarios = list(scenarios)
        if scenarios and self.ref is None:
            # A for_circuit session has no ref to compare against; adopt
            # the scenarios' (single) ref after checking it realizes the
            # session's circuit — one extra build, once per session.
            refs = {scenario.circuit for scenario in scenarios}
            if len(refs) > 1:
                raise ValidationError(
                    "scenarios bind different circuits; one session per "
                    "circuit")
            candidate = next(iter(refs))
            if candidate.fingerprint() != self.fingerprint():
                raise ValidationError(
                    "scenario circuit does not match this session's circuit")
            self.ref = candidate
        if self.ref is not None:
            for scenario in scenarios:
                if scenario.circuit != self.ref:
                    raise ValidationError(
                        f"scenario {scenario.label!r} references a different "
                        "circuit than this session")
        records = [None] * len(scenarios)
        groups = {}
        for index, scenario in enumerate(scenarios):
            groups.setdefault(self._engine_key(scenario.config),
                              []).append((index, scenario))
        for members in groups.values():
            batch_records = ScenarioBatch(
                self, [s for _, s in members]).run()
            for (index, _), record in zip(members, batch_records):
                records[index] = record
        return records


class ScenarioBatch:
    """K scenarios sharing one session *and* one engine configuration.

    The scenarios must agree on every engine-determining knob (see
    ``SolverSession._engine_key``); they may differ in bounds
    (``delay_slack`` / ``noise_fraction`` / ``power_fraction``) and
    solver options (``max_iterations`` / ``tolerance`` / ``update``),
    which become per-column state in the lockstep run.

    Lockstep batches are chunked at :attr:`LOCKSTEP_WIDTH` columns:
    workspace memory scales with the widths the shrinking batch visits,
    so an uncapped 100-scenario group on a large circuit would pool
    gigabytes of buffers, while chunks keep it bounded (and the circuit
    artifacts are shared across chunks regardless).
    """

    #: Maximum columns advanced in one lockstep batch.
    LOCKSTEP_WIDTH = 16

    def __init__(self, session, scenarios):
        if not scenarios:
            raise ValidationError("ScenarioBatch needs at least one scenario")
        keys = {SolverSession._engine_key(s.config) for s in scenarios}
        if len(keys) > 1:
            raise ValidationError(
                "ScenarioBatch scenarios must share one engine configuration")
        self.session = session
        self.scenarios = scenarios

    def run(self):
        """Execute the batch; returns one ``RunRecord`` per scenario.

        Every chunk of up to :attr:`LOCKSTEP_WIDTH` scenarios advances in
        lockstep through :func:`~repro.core.ogws.run_lockstep` (a chunk
        of one is a batch of width one), so the records are
        byte-identical to independent one-scenario solves.  A solve that
        reaches a non-finite value raises :class:`ConvergenceError`
        naming its scenario.
        """
        from repro.runtime.records import RunRecord

        session = self.session
        config0 = self.scenarios[0].config
        seed = self.scenarios[0].seed   # same circuit + config.seed => shared
        key = SolverSession._engine_key(config0)
        engine = session.engine(config0.ordering, config0.n_patterns, seed,
                                config0.miller_mode, config0.coupling_order,
                                config0.delay_mode)
        _, cost_before, cost_after = session.stage1(
            config0.ordering, config0.n_patterns, seed)
        x_init, initial_metrics = session.initial_point(engine, key=key)

        optimizers = []
        for scenario in self.scenarios:
            config = scenario.config
            problem = SizingProblem.from_initial(
                engine, x_init, delay_slack=config.delay_slack,
                noise_fraction=config.noise_fraction,
                power_fraction=config.power_fraction,
                metrics=initial_metrics)
            optimizers.append(OGWSOptimizer(
                engine, problem, x_init=x_init,
                initial_metrics=initial_metrics,
                max_iterations=config.max_iterations,
                tolerance=config.tolerance, update=config.update))

        width = int(self.LOCKSTEP_WIDTH)
        sizings = []
        for lo in range(0, len(optimizers), width):
            try:
                sizings.extend(run_lockstep(optimizers[lo:lo + width]))
            except ConvergenceError as error:
                if not hasattr(error, "column"):
                    raise
                scenario = self.scenarios[lo + error.column]
                raise ConvergenceError(
                    f"scenario {scenario.label!r} "
                    f"({scenario.content_hash()[:12]}): {error}") from error

        fingerprint = session.fingerprint()
        records = []
        for scenario, sizing in zip(self.scenarios, sizings):
            records.append(RunRecord(
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
            ))
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
