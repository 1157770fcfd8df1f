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

The loop body is decomposed into :meth:`OGWSOptimizer.start` /
:meth:`~OGWSOptimizer.step` / :meth:`~OGWSOptimizer.finish` so that
:func:`run_lockstep` can advance K optimizers sharing one engine in
lockstep — one *batched* LRS solve, delay/arrival sweep, and Theorem 3
projection per outer iteration, everything else per column.  A lockstep
run is bit-identical per scenario to running each optimizer alone
(see :mod:`repro.core.session`, which builds scenario batches on top).
"""

import time

import numpy as np

from repro.core.lrs import LagrangianSubproblemSolver
from repro.core.multipliers import MultiplierState
from repro.core.problem import SizingProblem
from repro.core.result import IterationRecord, SizingResult
from repro.core.subgradient import MultiplicativeUpdate, SubgradientUpdate
from repro.timing.elmore import CouplingDelayMode
from repro.timing.metrics import EvalContext, evaluate_metrics
from repro.utils.errors import ValidationError
from repro.utils.memory import MemoryLedger
from repro.utils.units import FF_PER_PF


class _RunState:
    """Mutable per-run state of one OGWS execution (the lockstep unit)."""

    __slots__ = ("mult", "initial_metrics", "history", "best_dual",
                 "best_feasible_x", "best_feasible_area", "x", "iteration",
                 "converged", "done", "paper_gap", "started", "repair_evals",
                 "evaluated")

    def __init__(self):
        self.mult = None
        self.initial_metrics = None
        self.history = []
        self.best_dual = -np.inf
        self.best_feasible_x = None
        self.best_feasible_area = np.inf
        self.x = None
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
        """Execute Fig. 9 and return a :class:`SizingResult`."""
        state = self.start(multipliers)
        while not state.done:
            x0 = state.x if (self.warm_start_lrs and state.x is not None) \
                else None
            lrs_result = self.lrs.solve(state.mult, x0=x0)     # A2 + A3
            self.step(state, lrs_result)
        return self.finish(state)

    def start(self, multipliers=None):
        """A1: initial metrics and a flow-conserving multiplier start."""
        state = _RunState()
        state.started = time.perf_counter()
        state.initial_metrics = self._initial_metrics \
            if self._initial_metrics is not None \
            else evaluate_metrics(self.engine, self.x_init)
        state.mult = multipliers.copy() if multipliers is not None else \
            MultiplierState.initial(self.engine.compiled,
                                    backend=self.engine.backend)
        state.done = self.max_iterations < 1
        return state

    def step(self, state, lrs_result, context=None, project=True):
        """One Fig. 9 iteration body after the LRS solve (A3 done).

        ``context`` optionally supplies a pre-seeded
        :class:`~repro.timing.metrics.EvalContext` at ``lrs_result.x``
        (the lockstep driver injects batched delay/arrival columns);
        ``project=False`` defers the A5 projection to the caller.
        Decomposed into :meth:`step_eval` (everything before A4), the
        A4/A5 multiplier step here, and :meth:`step_record` — the
        lockstep driver calls the two halves directly, with one batched
        A4 and one batched projection for all columns in between.
        Returns ``True`` once the run is finished.
        """
        context = self.step_eval(state, lrs_result, context=context)
        metrics = context.metrics
        step = self.update.apply(                              # A4
            state.mult, state.iteration, context.arrival, context.delays,
            self.problem, power_cap=metrics.total_cap_ff,
            noise=metrics.noise_pf * FF_PER_PF,
            engine=self.engine, x=lrs_result.x,
        )
        if project:
            state.mult.project(backend=self.engine.backend)    # A5
        return self.step_record(state, lrs_result, step)

    def step_eval(self, state, lrs_result, context=None):
        """Fig. 9 iteration body between A3 and A4: evaluate the iterate.

        Advances the iteration counter, evaluates the point (dual bound,
        A7 gap quantity, feasibility with primal repair), and leaves the
        ``(context, dual, feasible)`` handoff on ``state.evaluated`` for
        :meth:`step_record`.  Returns the point's ``EvalContext`` so the
        caller can run A4 from its arrival/delay columns.
        """
        engine = self.engine
        problem = self.problem
        state.iteration += 1
        x = lrs_result.x
        state.x = x
        # One evaluation context per iterate: the arrival sweep, the
        # Table 1 metrics, and the dual value below all share it, so
        # no full-circuit quantity is computed twice at this point.
        if context is None:
            context = EvalContext(engine, x)
        metrics = context.metrics
        dual = self.lrs.lagrangian_value(x, state.mult, problem,
                                         context=context)
        state.best_dual = max(state.best_dual, dual)
        area = metrics.area_um2
        state.paper_gap = abs(area - dual) / max(area, 1e-30)  # A7 quantity

        feasible = self._is_feasible(metrics, x)
        if feasible and area < state.best_feasible_area:
            state.best_feasible_area = area
            state.best_feasible_x = x.copy()
        elif not feasible and state.best_feasible_x is not None:
            # Primal repair: the dual iterate usually rides the tight
            # constraint from the violating side.  PP's feasible set
            # is convex in log-sizes (posynomial constraints), so a
            # log-space blend toward the feasible anchor crosses the
            # boundary exactly once — bisect to the closest feasible
            # blend and keep it if it improves the primal.
            repaired, repaired_metrics = self._repair(
                x, state.best_feasible_x, state=state)
            if repaired is not None and \
                    repaired_metrics.area_um2 < state.best_feasible_area:
                state.best_feasible_area = repaired_metrics.area_um2
                state.best_feasible_x = repaired
        state.evaluated = (context, dual, feasible)
        return context

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

    def finish(self, state):
        """Assemble the :class:`SizingResult` for a completed run."""
        feasible_found = state.best_feasible_x is not None
        final_x = state.best_feasible_x if feasible_found else state.x
        final_metrics = evaluate_metrics(self.engine, final_x)
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
        problem = self.problem
        # The inline short-circuit replays SizingProblem.is_feasible
        # specifically; a problem type overriding it keeps its own
        # notion of feasibility (at eager-evaluation cost).
        if type(problem).is_feasible is not SizingProblem.is_feasible:
            return self._is_feasible(context.metrics, x)
        tol = self.feasibility_tolerance
        if context.circuit_delay_ps / problem.delay_bound_ps - 1.0 > tol:
            return False
        noise_pf = context.coupling_total_ff / FF_PER_PF
        if noise_pf * FF_PER_PF / problem.noise_bound_ff - 1.0 > tol:
            return False
        return (context.total_cap_ff / problem.power_cap_bound_ff - 1.0
                <= tol)

    def _repair(self, x, x_feasible, bisections=7, state=None):
        """Largest-t feasible log-blend between ``x_feasible`` and ``x``.

        Returns ``(sizes, metrics)`` of the closest feasible point toward
        the (infeasible) dual iterate, or ``(None, None)`` if even tiny
        steps leave feasibility (anchor sits on the boundary).  Each
        bisection step evaluates its candidate through a lazy
        :class:`~repro.timing.metrics.EvalContext` — quantities a
        violated earlier constraint makes irrelevant are never computed,
        and full metrics materialize only for feasible candidates.
        ``state`` (a :class:`_RunState`) accumulates the
        ``repair_evals`` diagnostic counter.
        """
        engine = self.engine
        cc = engine.compiled
        mask = cc.is_sizable
        log_feas = np.log(x_feasible[mask])
        log_x = np.log(np.maximum(x[mask], 1e-300))

        def candidate(t):
            out = np.zeros(cc.num_nodes)
            out[mask] = np.exp((1.0 - t) * log_feas + t * log_x)
            return cc.clip_sizes(out)

        best = None
        best_metrics = None
        lo, hi = 0.0, 1.0
        for _ in range(bisections):
            mid = 0.5 * (lo + hi)
            cand = candidate(mid)
            context = EvalContext(engine, cand)
            if state is not None:
                state.repair_evals += 1
            if self._feasible_lazy(context, cand):
                best, best_metrics = cand, context.metrics
                lo = mid
            else:
                hi = mid
        return best, best_metrics

    # -- memory accounting (Figure 10a) ----------------------------------------------

    def memory_estimate(self, multipliers=None):
        """Bytes of algorithm-owned storage (compiled circuit, coupling,
        multipliers, and the solver's per-node work arrays).

        This is the quantity plotted in the Figure 10(a) reproduction —
        deliberately an *accounting* of required arrays (like the paper's
        C implementation report), not the Python interpreter footprint.
        """
        ledger = MemoryLedger()
        ledger.register("compiled", self.engine.compiled.nbytes)
        ledger.register("coupling", self.engine.coupling.nbytes)
        workspace = getattr(self.engine, "_workspace", None)
        if workspace is not None:
            # Kernel backend: the preallocated sweep workspace plus the
            # precompiled level segments are the solver's working set.
            ledger.register("workspace", workspace.nbytes)
            ledger.register("sweep_plan", workspace.plan.nbytes)
        else:
            n = self.engine.compiled.num_nodes
            # Reference sweeps keep ~12 double arrays of node length alive.
            ledger.register("work_arrays", 12 * n * 8)
        if multipliers is not None:
            ledger.register("multipliers", multipliers.nbytes)
        return ledger.total_bytes


# -- lockstep multi-scenario driver ---------------------------------------------


def _batched_delays_arrival(engine, x_cols, bws):
    """Elmore delays and arrival times for ``(n, K)`` column-stacked sizes.

    Mirrors ``ElmoreEngine._delays_kernel`` + ``arrival_times`` exactly
    per column (same kernel calls on matrix buffers), so the columns are
    bit-identical to the scalar sweeps at the same sizes.
    """
    from repro.timing import kernels

    cc = engine.compiled
    plan = cc.sweep_plan()
    ws = bws.buffers(x_cols.shape[1])
    c = plan.cols()
    propagated = engine.mode is CouplingDelayMode.PROPAGATED
    cpl = None if engine.mode is CouplingDelayMode.NONE else \
        engine.coupling.node_coupling_caps(x_cols)
    kernels.s2_source_terms(plan, cc, x_cols, cpl, propagated, ws.cself,
                            ws.source_terms, ws.t1)
    kernels.child_sum_sweep(plan, ws.source_terms, ws.child_sum, ws)
    np.multiply(ws.cself, 0.5, out=ws.t1)
    if cpl is not None:
        np.add(ws.t1, cpl, out=ws.t1)
    np.multiply(ws.t1, c.wire_mask_f, out=ws.t1)
    np.add(ws.t1, ws.child_sum, out=ws.t1)
    np.divide(c.r_hat_eff, x_cols, out=ws.r_eff, where=c.is_sizable)
    delays = ws.r_eff * ws.t1
    arrival = np.empty_like(delays)
    kernels.arrival_sweep(plan, delays, arrival, ws)
    return delays, arrival


def run_lockstep(optimizers, batch=None):
    """Advance K OGWS runs sharing one engine in lockstep.

    Each outer iteration performs **one batched LRS solve** for every
    still-running optimizer (CSR matvec → matmat over scenario columns,
    per-column convergence freezing — see
    :meth:`LagrangianSubproblemSolver.solve_batch`), one batched
    delay/arrival sweep plus one batched metrics-input sweep (coupling
    totals, total capacitance, area) seeding per-column
    ``EvalContext``\\ s, one **batched A4** per group of columns whose
    update rules share a :meth:`~repro.core.subgradient.
    MultiplicativeUpdate.batch_key` (single edge-terms pass and
    broadcast multiplier arithmetic; unknown rules fall back to scalar
    ``apply``), and one batched Theorem 3 projection.  No Python loop
    over nodes, edges, or (on the batched paths) scenarios remains in
    the iteration.  Optimizers retire from the batch as their own stop
    criteria fire.  Results are bit-identical to ``[opt.run() for opt
    in optimizers]`` — the batched kernels replay the scalar arithmetic
    per column exactly.

    ``batch`` optionally supplies a reusable
    :class:`~repro.timing.kernels.BatchWorkspace`.  Falls back to
    sequential runs for a single optimizer or a non-kernel backend.
    """
    optimizers = list(optimizers)
    if not optimizers:
        return []
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
    if len(optimizers) == 1 or engine.backend != "kernel":
        return [opt.run() for opt in optimizers]
    from repro.timing import kernels

    plan = engine.compiled.sweep_plan()
    bws = batch if batch is not None else kernels.BatchWorkspace(plan)
    states = [opt.start() for opt in optimizers]
    live = [k for k in range(len(optimizers)) if not states[k].done]
    while live:
        mults = [states[k].mult for k in live]
        x0s = [states[k].x
               if (optimizers[k].warm_start_lrs and states[k].x is not None)
               else None for k in live]
        results = solver.solve_batch(mults, x0s, batch=bws)
        x_cols = np.column_stack([r.x for r in results])
        delays, arrival = _batched_delays_arrival(engine, x_cols, bws)
        # Metrics tail, batched: every column's coupling total in one
        # pair sweep; area and power-capacitance stay per-column dot
        # products over the contiguous scenario vector — the exact
        # spelling (and bits) of the lazy EvalContext properties.
        totals = engine.coupling.totals_batch(x_cols)
        contexts = []
        for j, k in enumerate(live):
            x = results[j].x
            context = EvalContext(engine, x).seed(
                delays=delays[:, j], arrival=arrival[:, j],
                coupling_total_ff=float(totals[j]),
                total_cap_ff=float(np.dot(plan.c_hat_sizable, x)
                                   + plan.fringe_total),
                area_um2=float(np.dot(plan.alpha_sizable, x)))
            contexts.append(context)
            optimizers[k].step_eval(states[k], results[j], context=context)
        # A4: one batched update per group of columns running literally
        # the same multiplier arithmetic; singletons and unknown rules
        # take the scalar path.
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
    return [opt.finish(state) for opt, state in zip(optimizers, states)]
