"""The OGWS optimizer — Optimal Gate and Wire Sizing (paper Fig. 9).

Outer loop solving the Lagrangian dual ``LDP``:

    A1  initialize λ (flow-conserving), β, γ > 0
    A2  aggregate λ_i = Σ in-edge multipliers
    A3  solve the subproblem (LRS) and compute arrival times
    A4  step the multipliers along the constraint residuals
    A5  project λ back onto the Theorem 3 flow-conservation set
    A7  stop when the area–Lagrangian gap is inside the error bound

Because problem ``PP`` is convex (posynomial under log transform), the
dual optimum equals the primal optimum (Theorem 7: "OGWS converges to
the global optimal"); the duality gap measured each iteration is
therefore a true optimality certificate.  The paper runs to "precision
of within 1% error"; ``tolerance=0.01`` is the default here too.

Feasibility: intermediate LRS iterates generally violate constraints
(the dual approaches from below).  The optimizer tracks the best
*feasible* iterate (within ``feasibility_tolerance``) and reports it;
the final iterate is reported (flagged infeasible) if none was found.
An infeasible iterate is primal-repaired toward the best feasible point
(:func:`repair_lockstep`, for every repairing column at once).

There is one loop, :func:`run_lockstep`: it advances K optimizers
sharing one engine in lockstep — one *batched* LRS solve, delay/arrival
sweep, primal-repair bisection level, A4 step and Theorem 3 projection
per outer iteration, everything else per column — and
:meth:`OGWSOptimizer.run` is a lockstep batch of width one.  The
per-column body is decomposed into :meth:`~OGWSOptimizer.start` (A1),
:meth:`~OGWSOptimizer.step_eval` (between A3 and A4),
:meth:`~OGWSOptimizer.step_record` (after A5, the A7 stop rule) and
:meth:`~OGWSOptimizer.finish`, every solve's one exit, which refuses
to let a non-finite size, multiplier or metric leave the solver.  A
lockstep run is bit-identical per scenario to running each
optimizer alone (see :mod:`repro.core.session`, which builds scenario
batches on top).
"""

import dataclasses
import time

import numpy as np

from repro.core.lrs import LagrangianSubproblemSolver
from repro.core.multipliers import MultiplierState
from repro.core.problem import SizingProblem
from repro.core.result import IterationRecord, SizingResult
from repro.core.subgradient import MultiplicativeUpdate, SubgradientUpdate
from repro.timing.metrics import EvalContext, evaluate_metrics
from repro.utils.errors import ConvergenceError, ValidationError
from repro.utils.memory import MemoryLedger
from repro.utils.units import FF_PER_PF


class _RunState:
    """Mutable per-run state of one OGWS execution (the lockstep unit)."""

    __slots__ = ("mult", "initial_metrics", "history", "best_dual",
                 "best_feasible_x", "best_feasible_area",
                 "best_feasible_metrics", "x", "metrics", "iteration",
                 "converged", "done", "paper_gap", "started", "repair_evals",
                 "evaluated")

    def __init__(self):
        self.mult = None
        self.initial_metrics = None
        self.history = []
        self.best_dual = -np.inf
        #: The best feasible point on record and its metrics.
        self.best_feasible_x = None
        self.best_feasible_area = np.inf
        self.best_feasible_metrics = None
        #: The last iterate and its metrics.
        self.x = None
        self.metrics = None
        self.iteration = 0
        self.converged = False
        self.done = False
        self.paper_gap = np.inf
        self.started = 0.0
        self.repair_evals = 0
        #: ``(context, dual, feasible)`` handoff from step_eval to
        #: step_record within one iteration; None between iterations.
        self.evaluated = None


class OGWSOptimizer:
    """Lagrangian-dual gate/wire sizing (paper Fig. 9).

    Parameters
    ----------
    engine:
        :class:`~repro.timing.elmore.ElmoreEngine` over the target
        circuit (with its coupling set and delay mode).
    problem:
        :class:`~repro.core.problem.SizingProblem` bounds.
    update:
        ``"multiplicative"`` (default) or ``"subgradient"`` — see
        :mod:`repro.core.subgradient` — or a ready update object.
    tolerance:
        Relative stop threshold for step A7 (paper: 1%).
    feasibility_tolerance:
        Relative constraint slack accepted as "feasible" (default 1e-3).
    max_iterations:
        Outer iteration budget.
    x_init:
        Sizes whose metrics define the "Init" row.  Default: every
        component at its *upper* bound — the unsized starting point that
        reproduces Table 1's Init column (DESIGN.md §3).
    warm_start_lrs:
        Seed each LRS call with the previous iterate (same unique
        optimum as the paper's cold start, fewer passes).
    """

    def __init__(self, engine, problem, update="multiplicative", tolerance=0.01,
                 feasibility_tolerance=1e-3, max_iterations=200, x_init=None,
                 lrs=None, warm_start_lrs=True, record_history=True,
                 initial_metrics=None):
        self.engine = engine
        self.problem = problem
        self.update = self._make_update(update)
        if tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        self.tolerance = float(tolerance)
        self.feasibility_tolerance = float(feasibility_tolerance)
        self.max_iterations = int(max_iterations)
        self.lrs = lrs or LagrangianSubproblemSolver(engine)
        self.warm_start_lrs = bool(warm_start_lrs)
        self.record_history = bool(record_history)
        compiled = engine.compiled
        self.x_init = compiled.default_sizes(np.inf) if x_init is None else np.asarray(
            x_init, dtype=float)
        # Optional precomputed metrics at x_init (identical values to
        # evaluating here); a SolverSession shares one evaluation across
        # every scenario of an engine group.
        self._initial_metrics = initial_metrics

    @staticmethod
    def _make_update(update):
        if isinstance(update, str):
            if update == "multiplicative":
                return MultiplicativeUpdate()
            if update == "subgradient":
                return SubgradientUpdate()
            raise ValidationError(f"unknown update rule {update!r}")
        if not hasattr(update, "apply"):
            raise ValidationError("update must provide .apply(...)")
        return update

    # -- main loop ------------------------------------------------------------------

    def run(self, multipliers=None):
        """Execute Fig. 9 and return a :class:`SizingResult`.

        ``multipliers`` optionally replaces the A1 start.  One run is a
        lockstep batch of width one.
        """
        return run_lockstep([self], [multipliers])[0]

    def start(self, multipliers=None):
        """A1: initial metrics and a flow-conserving multiplier start."""
        state = _RunState()
        state.started = time.perf_counter()
        state.initial_metrics = self._initial_metrics \
            if self._initial_metrics is not None \
            else evaluate_metrics(self.engine, self.x_init)
        state.mult = multipliers.copy() if multipliers is not None else \
            MultiplierState.initial(self.engine.compiled)
        state.done = self.max_iterations < 1
        return state

    def step_eval(self, state, lrs_result, context):
        """Fig. 9 iteration body between A3 and A4: evaluate the iterate.

        ``context`` is the :class:`~repro.timing.metrics.EvalContext` at
        ``lrs_result.x``, seeded by the lockstep driver with its batched
        delay/arrival columns and metrics inputs: the Table 1 metrics,
        the dual value and A4 all share it, so no full-circuit quantity
        is computed twice at this point.  Advances the iteration
        counter, evaluates the point (dual bound, A7 gap quantity,
        feasibility), and leaves the ``(context, dual, feasible)``
        handoff on ``state.evaluated`` for :meth:`step_record`.

        Returns the ``(iterate, feasible anchor)`` pair when a primal
        repair is due (an infeasible iterate with a feasible point on
        record), else ``None``; the driver repairs every such column of
        the iteration at once (:func:`repair_lockstep`).
        """
        problem = self.problem
        state.iteration += 1
        x = lrs_result.x
        metrics = context.metrics
        state.x, state.metrics = x, metrics
        dual = self.lrs.lagrangian_value(x, state.mult, problem,
                                         context=context)
        state.best_dual = max(state.best_dual, dual)
        area = metrics.area_um2
        state.paper_gap = abs(area - dual) / max(area, 1e-30)  # A7 quantity

        feasible = self._is_feasible(metrics, x)
        state.evaluated = (context, dual, feasible)
        if feasible and area < state.best_feasible_area:
            self._record_feasible(state, x.copy(), metrics)
        elif not feasible and state.best_feasible_x is not None:
            return x, state.best_feasible_x
        return None

    def step_record(self, state, lrs_result, step):
        """Fig. 9 iteration tail after A4/A5: history and the A7 stop rule.

        ``step`` is the step size μ the multiplier update returned.
        Consumes the :meth:`step_eval` handoff; the duality gap is
        recomputed here from the best-feasible/best-dual pair, which
        A4/A5 do not touch.  Returns ``True`` once the run is finished.
        """
        context, dual, feasible = state.evaluated
        state.evaluated = None
        metrics = context.metrics
        gap = self._duality_gap(state.best_feasible_area, state.best_dual)
        if self.record_history:
            state.history.append(IterationRecord(
                iteration=state.iteration, area_um2=metrics.area_um2,
                delay_ps=metrics.delay_ps,
                noise_pf=metrics.noise_pf, power_mw=metrics.power_mw,
                dual_value=dual, paper_gap=state.paper_gap, duality_gap=gap,
                feasible=feasible, lrs_passes=lrs_result.passes, step=step,
                beta=state.mult.beta, gamma=state.mult.gamma,
            ))
        # A7: stop once the certified duality gap (best feasible area
        # vs best dual bound) is inside the error bound.
        if gap <= self.tolerance:
            state.converged = True
            state.done = True
        elif state.iteration >= self.max_iterations:
            state.done = True
        return state.done

    @staticmethod
    def _record_feasible(state, x, metrics):
        """Make ``x`` (with its ``metrics``) the best feasible point."""
        state.best_feasible_area = metrics.area_um2
        state.best_feasible_x = x
        state.best_feasible_metrics = metrics

    def finish(self, state):
        """Assemble the :class:`SizingResult` for a completed run.

        The reported point is the best feasible one, else the last
        iterate, with the metrics its evaluation already produced (equal
        bit for bit to evaluating it again).  Every solve leaves through
        here, so this is where the finite-or-fail contract holds:
        non-finite sizes, multipliers or final metrics raise
        :class:`ConvergenceError` instead of leaving the solver.
        """
        feasible_found = state.best_feasible_x is not None
        final_x, final_metrics = \
            (state.best_feasible_x, state.best_feasible_metrics) \
            if feasible_found else (state.x, state.metrics)
        mult = state.mult
        for what, values in (
                ("sizes", (final_x,)),
                ("multipliers", (mult.lam_edge, mult.beta, mult.gamma)),
                ("metrics", dataclasses.astuple(final_metrics))):
            if not all(np.isfinite(v).all() for v in values):
                raise ConvergenceError(
                    f"OGWS reached non-finite {what} after "
                    f"{state.iteration} iterations")
        runtime = time.perf_counter() - state.started
        # With no feasible iterate the dual bound certifies nothing about
        # the reported point; flag that with an infinite gap.
        final_gap = self._duality_gap(final_metrics.area_um2,
                                      state.best_dual) \
            if feasible_found else np.inf
        return SizingResult(
            x=final_x,
            metrics=final_metrics,
            initial_metrics=state.initial_metrics,
            problem=self.problem,
            converged=state.converged,
            iterations=state.iteration,
            dual_value=state.best_dual,
            duality_gap=final_gap,
            feasible=feasible_found,
            history=state.history,
            runtime_s=runtime,
            memory_bytes=self.memory_estimate(state.mult),
            multipliers=state.mult,
            repair_evals=state.repair_evals,
        )

    @staticmethod
    def _duality_gap(primal_area, dual):
        if not np.isfinite(primal_area) or primal_area <= 0:
            return np.inf
        return max(0.0, (primal_area - dual) / primal_area)

    def _is_feasible(self, metrics, x):
        """Feasibility under the problem's own notion.

        Distributed-bound problems expose ``is_feasible_at`` (they need
        per-net crosstalk, not just the total); the paper's scalar
        problem checks the three aggregate metrics.
        """
        check_at = getattr(self.problem, "is_feasible_at", None)
        if check_at is not None:
            return check_at(self.engine, x, metrics,
                            tolerance=self.feasibility_tolerance)
        return self.problem.is_feasible(metrics, self.feasibility_tolerance)

    def _feasible_lazy(self, context, x):
        """:meth:`_is_feasible` evaluated lazily through an ``EvalContext``.

        Checks the constraints in the same order as
        ``SizingProblem.violations`` (delay, noise, power) and
        short-circuits on the first violation, so an infeasible repair
        candidate rejected on delay never runs its coupling or
        capacitance sweeps.  Each comparison reproduces the eager
        spelling bit-for-bit (including the ``noise_pf`` unit
        round-trip), so the accepted set is unchanged.
        """
        check_at = getattr(self.problem, "is_feasible_at", None)
        if check_at is not None:
            return check_at(self.engine, x, context.metrics,
                            tolerance=self.feasibility_tolerance)
        if not self._inline_verdict():
            return self._is_feasible(context.metrics, x)
        if not self._within_delay_bound(context):
            return False
        problem, tol = self.problem, self.feasibility_tolerance
        noise_pf = context.coupling_total_ff / FF_PER_PF
        if noise_pf * FF_PER_PF / problem.noise_bound_ff - 1.0 > tol:
            return False
        return (context.total_cap_ff / problem.power_cap_bound_ff - 1.0
                <= tol)

    def _inline_verdict(self):
        """Whether :meth:`_feasible_lazy` replays ``SizingProblem.
        is_feasible`` inline: a problem type overriding it, or checking
        per-net bounds, keeps its own notion (at eager-evaluation cost)."""
        problem = self.problem
        return getattr(problem, "is_feasible_at", None) is None \
            and type(problem).is_feasible is SizingProblem.is_feasible

    def _within_delay_bound(self, context):
        """The inline verdict's first check: the circuit delay."""
        return not (context.circuit_delay_ps / self.problem.delay_bound_ps
                    - 1.0 > self.feasibility_tolerance)

    # -- memory accounting (Figure 10a) ----------------------------------------------

    def memory_estimate(self, multipliers=None):
        """Bytes of algorithm-owned storage (compiled circuit, coupling,
        multipliers, and the solver's per-node work arrays).

        This is the quantity plotted in the Figure 10(a) reproduction —
        deliberately an *accounting* of required arrays (like the paper's
        C implementation report), not the Python interpreter footprint.
        """
        engine = self.engine
        ledger = MemoryLedger()
        ledger.register("compiled", engine.compiled.nbytes)
        ledger.register("coupling", engine.coupling.nbytes)
        # The pooled sweep workspaces plus the precompiled sweep plan are
        # the solver's working set.
        ledger.register("workspace", engine.pool.nbytes)
        ledger.register("sweep_plan", engine.compiled.sweep_plan().nbytes)
        if multipliers is not None:
            ledger.register("multipliers", multipliers.nbytes)
        return ledger.total_bytes


# -- lockstep multi-scenario driver ---------------------------------------------


def run_lockstep(optimizers, multipliers=None):
    """Advance K OGWS runs sharing one engine in lockstep.

    This is the one OGWS loop; a single run is a batch of width one.
    Each outer iteration performs **one batched LRS solve** for every
    still-running optimizer (CSR matvec → matmat over scenario columns,
    per-column convergence freezing — see
    :meth:`LagrangianSubproblemSolver.solve_batch`), one batched
    delay/arrival sweep plus one batched metrics-input sweep (coupling
    totals, total capacitance, area) seeding per-column
    ``EvalContext``\\ s, the primal repair of every column that needs
    one as one batched delay sweep and circuit-delay probe per bisection
    level (:func:`repair_lockstep`), one **batched A4** per group of columns
    whose update rules share a :meth:`~repro.core.subgradient.
    MultiplicativeUpdate.batch_key` (single edge-terms pass and
    broadcast multiplier arithmetic; singletons and unknown rules take
    their own ``apply``), and one batched Theorem 3 projection.  No
    Python loop over nodes or edges remains in the iteration; what
    loops over columns is per-column bookkeeping and each repairing
    column's feasibility verdict.  Optimizers retire from the batch as
    their own stop criteria fire.  Results are bit-identical per column
    to a batch of one — the batched kernels replay one column's
    arithmetic exactly.  The work is paid per call, not per column:
    the A1 start is built once and copied into each column, and
    :meth:`~OGWSOptimizer.finish` reports the metrics the iterations
    already computed instead of evaluating each column's point again.

    ``multipliers`` optionally supplies per-optimizer A1 starts (a
    sequence aligned with ``optimizers``; ``None`` entries take the
    shared default start, or the optimizer's own when it overrides
    :meth:`~OGWSOptimizer.start`).  A
    :class:`ConvergenceError` from an optimizer's
    :meth:`~OGWSOptimizer.finish` carries that optimizer's position in
    ``optimizers`` as its ``column`` attribute.
    """
    optimizers = list(optimizers)
    if not optimizers:
        return []
    multipliers = [None] * len(optimizers) if multipliers is None \
        else list(multipliers)
    if len(multipliers) != len(optimizers):
        raise ValidationError("multipliers must align with optimizers")
    engine = optimizers[0].engine
    solver = optimizers[0].lrs
    compatible = all(
        opt.engine is engine
        and opt.lrs.tolerance == solver.tolerance
        and opt.lrs.max_passes == solver.max_passes
        and opt.lrs.strict == solver.strict
        for opt in optimizers)
    if not compatible:
        raise ValidationError(
            "lockstep optimizers must share one engine and LRS settings")
    from repro.timing import kernels

    plan = engine.compiled.sweep_plan()
    states = _start_columns(optimizers, multipliers)
    live = [k for k in range(len(optimizers)) if not states[k].done]
    while live:
        mults = [states[k].mult for k in live]
        x0s = [states[k].x
               if (optimizers[k].warm_start_lrs and states[k].x is not None)
               else None for k in live]
        results = solver.solve_batch(mults, x0s)
        x_cols = np.column_stack([r.x for r in results])
        delays = engine.delays(x_cols)
        arrival = engine.arrival_times(delays)
        # Metrics tail, batched: every column's coupling total in one
        # pair sweep; area and power-capacitance stay per-column dot
        # products over the contiguous scenario vector — the exact
        # spelling (and bits) of the lazy EvalContext properties.
        totals = engine.coupling.totals_batch(x_cols)
        contexts = []
        repairs = []
        for j, k in enumerate(live):
            x = results[j].x
            context = EvalContext(engine, x).seed(
                delays=delays[:, j], arrival=arrival[:, j],
                coupling_total_ff=float(totals[j]),
                total_cap_ff=float(np.dot(plan.c_hat_sizable, x)
                                   + plan.fringe_total),
                area_um2=float(np.dot(plan.alpha_sizable, x)))
            contexts.append(context)
            due = optimizers[k].step_eval(states[k], results[j],
                                          context=context)
            if due is not None:
                repairs.append((optimizers[k], states[k]) + due)
        # Primal repair of every column that needs one, in lockstep; a
        # repaired point replaces the anchor only if it is cheaper.
        if repairs:
            for (opt, state, _, _), (sizes, metrics) in zip(
                    repairs, repair_lockstep(engine, repairs)):
                if sizes is not None and \
                        metrics.area_um2 < state.best_feasible_area:
                    opt._record_feasible(state, sizes, metrics)
        # A4: one batched update per group of columns running literally
        # the same multiplier arithmetic; singletons and unknown rules
        # take their own apply.
        steps = [None] * len(live)
        groups = {}
        for j, k in enumerate(live):
            key = getattr(optimizers[k].update, "batch_key", lambda: None)()
            groups.setdefault(key if key is not None else ("", j), []).append(j)
        for key, js in groups.items():
            if len(js) == 1:
                j = js[0]
                k = live[j]
                opt = optimizers[k]
                metrics = contexts[j].metrics
                steps[j] = opt.update.apply(
                    states[k].mult, states[k].iteration, contexts[j].arrival,
                    contexts[j].delays, opt.problem,
                    power_cap=metrics.total_cap_ff,
                    noise=metrics.noise_pf * FF_PER_PF,
                    engine=engine, x=results[j].x)
                continue
            mus = optimizers[live[js[0]]].update.apply_batch(
                [states[live[j]].mult for j in js],
                [states[live[j]].iteration for j in js],
                arrival[:, js], delays[:, js],
                [optimizers[live[j]].problem for j in js],
                [contexts[j].metrics.total_cap_ff for j in js],
                [contexts[j].metrics.noise_pf * FF_PER_PF for j in js])
            for j, mu in zip(js, mus):
                steps[j] = mu
        # A5 for every column stepped this iteration, one batched sweep.
        mults = [states[k].mult for k in live]
        lam_cols = MultiplierState.stack_lam(mults)
        kernels.project_sweep(plan, lam_cols)
        MultiplierState.unstack_lam(mults, lam_cols)
        for j, k in enumerate(live):
            optimizers[k].step_record(states[k], results[j], steps[j])
        live = [k for k in live if not states[k].done]
    sizings = []
    for column, (opt, state) in enumerate(zip(optimizers, states)):
        try:
            sizings.append(opt.finish(state))
        except ConvergenceError as error:
            error.column = column
            raise
    return sizings


def _start_columns(optimizers, multipliers):
    """A1 for every column.  The default start depends on the circuit
    alone, so it is built once and each column's :meth:`~OGWSOptimizer.
    start` takes its own copy; an optimizer overriding ``start`` builds
    its own."""
    shared = None
    states = []
    for opt, mult in zip(optimizers, multipliers):
        if mult is None and type(opt).start is OGWSOptimizer.start:
            if shared is None:
                shared = MultiplierState.initial(opt.engine.compiled)
            mult = shared
        states.append(opt.start(mult))
    return states


#: Log-space bisection steps of one primal repair (candidates evaluated).
REPAIR_BISECTIONS = 7


def repair_lockstep(engine, columns):
    """Primal repair for every lockstep column that needs one, at once.

    The dual iterate usually rides the tight constraint from the
    violating side.  PP's feasible set is convex in log-sizes
    (posynomial constraints), so a log-space blend from a column's
    feasible anchor toward its infeasible iterate crosses the boundary
    exactly once; :data:`REPAIR_BISECTIONS` bisection steps find the
    closest feasible blend.

    ``columns`` holds one ``(optimizer, state, x, anchor)`` per column:
    the optimizer (on ``engine``) whose feasibility notion applies, its
    :class:`_RunState`, the infeasible iterate and the feasible anchor.
    The columns' bisections are independent, so bisection level ℓ of
    all K′ columns is one ``(K′, n)`` candidate matrix built in log
    space, one batched delay sweep and one circuit-delay probe
    (``kernels.arrival_sweep`` without an output: the condensed level
    loop, read at the sink).  Each candidate's ``EvalContext`` is seeded
    with its circuit delay alone; the columns whose problem takes the
    inline verdict and whose candidate is within the delay bound then
    get their coupling totals from one ``totals_batch`` pass, and each
    column takes its own verdict through
    :meth:`OGWSOptimizer._feasible_lazy`: power is computed only for
    candidates within the delay and noise bounds, full metrics only for
    feasible ones.  The batched sweeps equal the 1-D sweeps bit for bit
    per column, so each column's verdicts, accepted point, metrics and
    ``repair_evals`` equal a repair of that column alone.

    Returns one ``(sizes, metrics)`` pair per column: the feasible blend
    closest to the iterate, or ``(None, None)`` if even the smallest
    step leaves the feasible set (the anchor sits on the boundary).
    """
    from repro.timing import kernels

    cc = engine.compiled
    plan = cc.sweep_plan()
    mask = cc.is_sizable
    width = len(columns)
    ws = engine.pool.buffers(width)
    inline = [opt._inline_verdict() for opt, _, _, _ in columns]
    # Log sizes, zero off the sizable nodes (clip_sizes zeroes those).
    log_anchor = np.zeros((width, cc.num_nodes))
    log_x = np.zeros((width, cc.num_nodes))
    for j, (_, _, x, anchor) in enumerate(columns):
        log_anchor[j, mask] = np.log(anchor[mask])
        log_x[j, mask] = np.log(np.maximum(x[mask], 1e-300))
    lo = np.zeros(width)
    hi = np.ones(width)
    best = [(None, None)] * width
    for _ in range(REPAIR_BISECTIONS):
        mid = 0.5 * (lo + hi)
        candidates = cc.clip_sizes(np.exp((1.0 - mid)[:, None] * log_anchor
                                          + mid[:, None] * log_x))
        stacked = np.ascontiguousarray(candidates.T)
        sink = kernels.arrival_sweep(plan, engine.delays(stacked), None, ws)
        contexts = [EvalContext(engine, candidates[j]).seed(
            circuit_delay_ps=sink[j]) for j in range(width)]
        noisy = [j for j, (opt, _, _, _) in enumerate(columns)
                 if inline[j] and opt._within_delay_bound(contexts[j])]
        if noisy:
            totals = engine.coupling.totals_batch(
                stacked if len(noisy) == width
                else stacked.take(noisy, axis=1))
            for j, total in zip(noisy, totals):
                contexts[j].seed(coupling_total_ff=total)
        for j, (opt, state, _, _) in enumerate(columns):
            state.repair_evals += 1
            if opt._feasible_lazy(contexts[j], candidates[j]):
                best[j] = (candidates[j].copy(), contexts[j].metrics)
                lo[j] = mid[j]
            else:
                hi[j] = mid[j]
    return best
