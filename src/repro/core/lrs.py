"""The Lagrangian relaxation subproblem solver (paper Fig. 8, Theorem 5).

With multipliers fixed (and satisfying Theorem 3), minimizing the
Lagrangian over the box ``L ≤ x ≤ U`` decouples into the closed-form
per-component update

    opt_i = sqrt( λ_i·r̂_i·(C'_i + Σ_{j∈N(i)} ĉ_ij·x_j)
                  ───────────────────────────────────────────
                  α_i + (β + R_i)·ĉ_i + γ·Σ_{j∈N(i)} ĉ_ij )

    x*_i  = min(U_i, max(L_i, opt_i))

where ``C'_i`` is node i's downstream capacitance with its own
x_i-proportional terms removed and ``R_i`` the λ-weighted upstream
resistance.  :class:`LagrangianSubproblemSolver` iterates this update
to its fixed point (paper step S5 "repeat until no improvement"),
evaluating each pass with three vectorized sweeps (S2: capacitances,
S3: upstream resistances, S4: the update) — linear work per pass.

At odd coupling orders k > 2 the tangent intercepts inside the
numerator turn negative once the mean width of two adjacent wires
exceeds their spacing.  With a non-positive numerator both of node i's
Lagrangian terms increase in x_i, so its box minimum is ``L_i``: every
pass body clamps the numerator at zero before the divide, which clips
``x*_i`` to exactly ``L_i`` and keeps the sizes finite.

Two pass implementations sit behind the engine's ``backend`` flag:

* ``"kernel"`` (default): the S2/S3/S4 sweeps are *fused* into one
  workspace-backed pass (:meth:`_solve_kernel`) over the circuit's
  precompiled :class:`~repro.timing.kernels.SweepPlan`.  All coupling
  terms come from one :meth:`CouplingSet.node_terms` traversal, every
  intermediate lives in the engine's preallocated
  :class:`~repro.timing.kernels.Workspace`, and a steady-state pass
  performs **no array allocation** (guarded by tracemalloc in
  ``tests/timing/test_kernels.py``).  Measured on c7552 this makes one
  pass ~4× faster than the reference spelling (see ``BENCH_perf.json``).
* ``"reference"``: the original engine-method-per-sweep loop, kept as
  the golden implementation; the property tests pin kernel ≡ reference
  to 1e-12 relative across delay modes, coupling orders, and scalar /
  per-net γ.

Generalizations beyond the paper, both documented in DESIGN.md §2:

* coupling Taylor order k > 2: the coupling sums are evaluated at the
  current iterate via :meth:`CouplingSet.node_terms` (exactly the
  paper's constants when k = 2);
* ``CouplingDelayMode.PROPAGATED``: the denominator gains the
  ``R_i·Σ ∂c_ij/∂x_i`` term that full propagation induces.
"""

import dataclasses

import numpy as np

from repro.timing import kernels
from repro.timing.elmore import CouplingDelayMode
from repro.timing.metrics import total_area, total_capacitance
from repro.utils.errors import ConvergenceError, ValidationError
from repro.utils.units import OHM_FF_TO_PS


@dataclasses.dataclass(frozen=True)
class LRSResult:
    """Fixed point of the LRS iteration."""

    x: np.ndarray
    passes: int
    max_rel_change: float
    converged: bool


class LagrangianSubproblemSolver:
    """Greedy optimal solver for ``LRS₂`` (Fig. 8).

    Parameters
    ----------
    engine:
        :class:`~repro.timing.elmore.ElmoreEngine` (supplies circuit,
        coupling set, delay mode, and sweep backend).
    tolerance:
        Fixed-point stop: max relative size change per pass.
    max_passes:
        Pass budget; exceeding it returns ``converged=False`` (or raises
        when ``strict``).
    """

    def __init__(self, engine, tolerance=1e-7, max_passes=200, strict=False):
        self.engine = engine
        self.tolerance = float(tolerance)
        self.max_passes = int(max_passes)
        self.strict = bool(strict)

    def solve(self, multipliers, x0=None):
        """Minimize ``L_{λ,β,γ}(x)`` over the size box.

        ``x0`` seeds the fixed point (paper S1 starts from ``L``; any
        start converges to the same unique optimum — warm starts from the
        previous outer iteration just get there in fewer passes).
        """
        if self.engine.backend == "kernel":
            return self._solve_kernel(multipliers, x0)
        return self._solve_reference(multipliers, x0)

    def solve_batch(self, multipliers, x0s=None, batch=None):
        """Solve K subproblems over one circuit in lockstep.

        ``multipliers`` is a sequence of K :class:`MultiplierState`\\ s
        (typically one per scenario sharing this engine's circuit and
        coupling set) and ``x0s`` optional per-column warm starts.
        Returns one :class:`LRSResult` per input, each **bit-identical**
        to ``solve(multipliers[k], x0s[k])``: the batched fused pass
        (:meth:`_solve_kernel_batch`) performs per column exactly the
        scalar pass's operations — CSR matvec becomes matmat, every
        elementwise update runs on ``(n, K)`` matrices — and a column is
        frozen (copied out, removed from the working set) the moment its
        own fixed-point criterion fires, so later passes never touch it.

        ``batch`` is an optional
        :class:`~repro.timing.kernels.BatchWorkspace` reused across
        calls (the lockstep optimizer threads one through all outer
        iterations).  Falls back to per-column :meth:`solve` for K = 1,
        the reference backend, or multipliers mixing scalar and per-net
        ``gamma`` forms.
        """
        multipliers = list(multipliers)
        if x0s is None:
            x0s = [None] * len(multipliers)
        x0s = list(x0s)
        if len(x0s) != len(multipliers):
            raise ValidationError("x0s must align with multipliers")
        per_net = [np.ndim(m.gamma) > 0 for m in multipliers]
        if (len(multipliers) <= 1 or self.engine.backend != "kernel"
                or (any(per_net) and not all(per_net))):
            return [self.solve(m, x0) for m, x0 in zip(multipliers, x0s)]
        return self._solve_kernel_batch(multipliers, x0s, batch,
                                        per_net=all(per_net))

    # -- fused kernel path --------------------------------------------------------

    def _solve_kernel(self, multipliers, x0):
        """S2+S3+S4 fused into one workspace-backed pass per iteration.

        Per pass: one :meth:`CouplingSet.node_terms` traversal (cap/slope
        sums and, under PROPAGATED, per-node coupling caps), one reverse
        capacitance sweep, one forward λ-weighted resistance sweep, and
        the elementwise ``opt_i`` update — all into preallocated buffers.
        The iterate ping-pongs between the workspace's two size vectors,
        so the returned ``x`` is copied out once at the end.
        """
        engine = self.engine
        cc = engine.compiled
        plan = cc.sweep_plan()
        ws = engine.workspace()
        coupling = engine.coupling
        lam_node = multipliers.node_multipliers()
        beta, gamma = multipliers.beta, multipliers.gamma
        propagated = engine.mode is CouplingDelayMode.PROPAGATED
        coupled_delay = engine.mode is not CouplingDelayMode.NONE
        sizable = cc.is_sizable
        numer_lam_r = lam_node * plan.r_hat_eff
        alpha_beta = cc.alpha + beta * cc.c_hat

        x, x_new = ws.x_a, ws.x_b
        if x0 is None:
            np.copyto(x, cc.lower)
        else:
            np.copyto(x, np.asarray(x0, dtype=float))
        np.maximum(x, cc.lower, out=x)
        np.clip(x, cc.lower, cc.upper, out=x)
        x[plan.nonsizable_idx] = 0.0

        max_rel = np.inf
        passes = 0
        with np.errstate(invalid="ignore", divide="ignore"):
            while passes < self.max_passes and max_rel > self.tolerance:
                passes += 1
                terms = coupling.node_terms(x, gamma, node_caps=propagated)
                # S2: self caps + stage-closure capacitance accumulation.
                kernels.s2_source_terms(plan, cc, x, terms.node_caps,
                                        propagated, ws.cself,
                                        ws.source_terms, ws.t1)
                kernels.child_sum_sweep(plan, ws.source_terms, ws.child_sum, ws)
                # S3: r = r̂/x on sizables (drivers are preset in the
                # workspace); λ-weighted stage-closure accumulation.
                np.divide(plan.r_hat_eff, x, out=ws.r_eff, where=sizable)
                np.multiply(lam_node, ws.r_eff, out=ws.t2)
                kernels.upstream_sweep(plan, ws.t2, ws.upstream, ws)
                # S4: closed-form opt_i, clipped into the box.
                np.add(ws.child_sum, plan.half_fringe_wire, out=ws.k_cap)
                if coupled_delay:
                    np.multiply(terms.cap_sum, plan.wire_mask_f, out=ws.t1)
                    np.add(ws.k_cap, ws.t1, out=ws.k_cap)
                np.multiply(ws.upstream, cc.c_hat, out=ws.denom)
                np.add(ws.denom, alpha_beta, out=ws.denom)
                np.add(ws.denom, terms.gamma_slopes, out=ws.denom)
                if propagated:
                    np.multiply(ws.upstream, terms.dx_sum, out=ws.t1)
                    np.add(ws.denom, ws.t1, out=ws.denom)
                # Non-sizable entries of ``opt`` keep stale (finite,
                # non-negative) values; the clip + explicit zeroing of
                # x_new below makes them irrelevant.  A non-positive
                # numerator clamps to 0 and so clips to L_i.
                np.multiply(numer_lam_r, ws.k_cap, out=ws.t1)
                np.maximum(ws.t1, 0.0, out=ws.t1)
                np.divide(ws.t1, ws.denom, out=ws.opt, where=sizable)
                np.sqrt(ws.opt, out=ws.opt)
                np.clip(ws.opt, cc.lower, cc.upper, out=x_new)
                x_new[plan.nonsizable_idx] = 0.0
                # Fixed-point progress: max relative size change.
                np.subtract(x_new, x, out=ws.t1)
                np.abs(ws.t1, out=ws.t1)
                np.divide(ws.t1, x, out=ws.t1, where=sizable)
                if len(plan.sizable_idx):
                    np.take(ws.t1, plan.sizable_idx, out=ws.szbuf)
                    max_rel = float(ws.szbuf.max())
                else:
                    max_rel = 0.0
                x, x_new = x_new, x
        return self._finish(x.copy(), passes, max_rel)

    # -- batched kernel path ------------------------------------------------------

    def _solve_kernel_batch(self, multipliers, x0s, batch, per_net=False):
        """The fused pass over ``(n, K)`` column-stacked iterates.

        Column k replays :meth:`_solve_kernel`'s arithmetic exactly;
        when a column converges it is copied out and the survivors are
        compacted into the pooled buffers of the smaller width (fresh
        contiguous matrices, so the raw multi-vector CSR kernel keeps
        its layout).  Steady-state passes at a constant width allocate
        nothing beyond a few per-column scalars.
        """
        engine = self.engine
        cc = engine.compiled
        plan = cc.sweep_plan()
        bws = batch if batch is not None else kernels.BatchWorkspace(plan)
        coupling = engine.coupling
        propagated = engine.mode is CouplingDelayMode.PROPAGATED
        coupled_delay = engine.mode is not CouplingDelayMode.NONE
        c = plan.cols()

        total = len(multipliers)
        order = np.arange(total)            # working column -> input index
        out_x = [None] * total
        out_passes = [0] * total
        out_maxrel = [np.inf] * total

        ws = bws.buffers(total)
        x, x_new = ws.x_a, ws.x_b
        lam, numer, ab = ws.lam, ws.numer, ws.alpha_beta
        for k, mult in enumerate(multipliers):
            lam[:, k] = mult.node_multipliers()
        beta = np.array([float(m.beta) for m in multipliers])
        if per_net:
            gamma = np.column_stack(
                [np.asarray(m.gamma, dtype=float) for m in multipliers])
        else:
            gamma = np.array([float(m.gamma) for m in multipliers])
        np.multiply(lam, c.r_hat_eff, out=numer)
        np.multiply(c.c_hat, beta, out=ab)
        np.add(ab, c.alpha, out=ab)

        for k, x0 in enumerate(x0s):
            x[:, k] = cc.lower if x0 is None else np.asarray(x0, dtype=float)
        np.maximum(x, c.lower, out=x)
        np.clip(x, c.lower, c.upper, out=x)
        x[plan.nonsizable_idx] = 0.0

        passes = 0
        with np.errstate(invalid="ignore", divide="ignore"):
            while order.size and passes < self.max_passes:
                passes += 1
                terms = coupling.node_terms_batch(x, gamma,
                                                  node_caps=propagated)
                kernels.s2_source_terms(plan, cc, x, terms.node_caps,
                                        propagated, ws.cself,
                                        ws.source_terms, ws.t1)
                kernels.child_sum_sweep(plan, ws.source_terms, ws.child_sum,
                                        ws)
                np.divide(c.r_hat_eff, x, out=ws.r_eff, where=c.is_sizable)
                np.multiply(lam, ws.r_eff, out=ws.t2)
                kernels.upstream_sweep(plan, ws.t2, ws.upstream, ws)
                np.add(ws.child_sum, c.half_fringe_wire, out=ws.k_cap)
                if coupled_delay:
                    np.multiply(terms.cap_sum, c.wire_mask_f, out=ws.t1)
                    np.add(ws.k_cap, ws.t1, out=ws.k_cap)
                np.multiply(ws.upstream, c.c_hat, out=ws.denom)
                np.add(ws.denom, ab, out=ws.denom)
                np.add(ws.denom, terms.gamma_slopes, out=ws.denom)
                if propagated:
                    np.multiply(ws.upstream, terms.dx_sum, out=ws.t1)
                    np.add(ws.denom, ws.t1, out=ws.denom)
                np.multiply(numer, ws.k_cap, out=ws.t1)
                np.maximum(ws.t1, 0.0, out=ws.t1)
                np.divide(ws.t1, ws.denom, out=ws.opt, where=c.is_sizable)
                np.sqrt(ws.opt, out=ws.opt)
                np.clip(ws.opt, c.lower, c.upper, out=x_new)
                x_new[plan.nonsizable_idx] = 0.0
                np.subtract(x_new, x, out=ws.t1)
                np.abs(ws.t1, out=ws.t1)
                np.divide(ws.t1, x, out=ws.t1, where=c.is_sizable)
                if len(plan.sizable_idx):
                    np.take(ws.t1, plan.sizable_idx, axis=0, out=ws.szbuf)
                    np.maximum.reduce(ws.szbuf, axis=0, out=ws.colmax)
                else:
                    ws.colmax.fill(0.0)
                x, x_new = x_new, x
                np.less_equal(ws.colmax, self.tolerance, out=ws.colmask)
                if not ws.colmask.any():
                    continue
                # Freeze converged columns at this pass's iterate...
                for wk in np.flatnonzero(ws.colmask):
                    k = order[wk]
                    out_x[k] = np.ascontiguousarray(x[:, wk])
                    out_passes[k] = passes
                    out_maxrel[k] = float(ws.colmax[wk])
                keep = np.flatnonzero(~ws.colmask)
                order = order[keep]
                if not order.size:
                    break
                # ...and compact the survivors into the smaller width's
                # pooled buffers (contiguity for the raw CSR kernel).
                new_ws = bws.buffers(order.size)
                new_ws.x_a[:] = x[:, keep]
                new_ws.lam[:] = lam[:, keep]
                new_ws.numer[:] = numer[:, keep]
                new_ws.alpha_beta[:] = ab[:, keep]
                # Carry the survivors' last-pass change too: if this was
                # the final allowed pass, the tail below must see their
                # true max_rel, not the fresh buffer's zeros.
                new_ws.colmax[:] = ws.colmax[keep]
                gamma = np.ascontiguousarray(
                    gamma[:, keep] if per_net else gamma[keep])
                ws = new_ws
                x, x_new = ws.x_a, ws.x_b
                lam, numer, ab = ws.lam, ws.numer, ws.alpha_beta
        # Columns that never converged stop at the pass budget, exactly
        # like the scalar loop.
        for wk, k in enumerate(order):
            out_x[k] = np.ascontiguousarray(x[:, wk])
            out_passes[k] = passes
            out_maxrel[k] = float(ws.colmax[wk]) if passes else np.inf
        return [self._finish(out_x[k], out_passes[k], out_maxrel[k])
                for k in range(total)]

    # -- reference path -----------------------------------------------------------

    def _solve_reference(self, multipliers, x0):
        """The original spelling: one engine sweep call per step."""
        engine = self.engine
        cc = engine.compiled
        coupling = engine.coupling
        lam_node = multipliers.node_multipliers()
        beta, gamma = multipliers.beta, multipliers.gamma

        x = cc.lower.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
        x = cc.clip_sizes(np.where(cc.is_sizable, np.maximum(x, cc.lower), 0.0))

        sizable = cc.is_sizable
        wires = cc.is_wire
        r_hat_eff = cc.r_hat * OHM_FF_TO_PS
        numer_lam_r = lam_node * r_hat_eff

        max_rel = np.inf
        passes = 0
        while passes < self.max_passes and max_rel > self.tolerance:
            passes += 1
            caps = engine.capacitances(x)                       # S2
            upstream = engine.weighted_upstream_resistance(x, lam_node)  # S3
            cap_sum, dx_sum = coupling.node_sums(x)
            # γ may be the paper's scalar or, in the distributed-bound
            # extension, a per-net array (read at each pair's owner).
            gamma_slopes = coupling.slope_sums(x, gamma)
            if engine.mode is CouplingDelayMode.NONE:
                k_cap = caps["child_sum"] + np.where(wires, 0.5 * cc.fringe, 0.0)
                cpl_np = np.zeros_like(dx_sum)
            else:
                k_cap = caps["child_sum"] + np.where(
                    wires, 0.5 * cc.fringe + cap_sum, 0.0)
                cpl_np = dx_sum
            denom = cc.alpha + (beta + upstream) * cc.c_hat + gamma_slopes
            if engine.mode is CouplingDelayMode.PROPAGATED:
                denom = denom + upstream * cpl_np
            opt = np.zeros_like(x)
            np.divide(np.maximum(numer_lam_r * k_cap, 0.0), denom, out=opt,
                      where=sizable)
            np.sqrt(opt, out=opt)                               # S4
            x_new = cc.clip_sizes(np.where(sizable, opt, 0.0))
            with np.errstate(invalid="ignore"):
                rel = np.abs(x_new - x) / np.where(sizable, x, 1.0)
            max_rel = float(np.max(rel[sizable], initial=0.0))
            x = x_new
        return self._finish(x, passes, max_rel)

    def _finish(self, x, passes, max_rel):
        converged = max_rel <= self.tolerance
        if not converged and self.strict:
            raise ConvergenceError(
                f"LRS did not reach tolerance {self.tolerance} in "
                f"{self.max_passes} passes (last change {max_rel:.2e})"
            )
        return LRSResult(x=x, passes=passes, max_rel_change=max_rel,
                         converged=converged)

    # -- Lagrangian evaluation ----------------------------------------------------

    def lagrangian_value(self, x, multipliers, problem, context=None):
        """``L_{λ,β,γ}(x)`` of Theorem 4, including the eliminated-arrival
        constant ``−A0·Σ λ_sink`` (so that ``min_x L`` is the dual value).

        ``context`` is an optional
        :class:`~repro.timing.metrics.EvalContext` at the same point;
        when given, the delays, area, capacitance, and coupling totals
        already computed for the outer iteration are reused instead of
        re-running the full-circuit sweeps here.
        """
        engine = self.engine
        cc = engine.compiled
        lam_node = multipliers.node_multipliers()
        if context is not None:
            delays = context.delays
            area = context.area_um2
        else:
            delays = engine.delays(x)
            area = total_area(cc, x)
        value = area
        value += float(np.dot(lam_node, delays))
        if np.isfinite(problem.power_cap_bound_ff):
            total_cap = context.total_cap_ff if context is not None \
                else total_capacitance(cc, x)
            value += multipliers.beta * (total_cap
                                         - problem.power_cap_bound_ff)
        gamma = np.asarray(multipliers.gamma, dtype=float)
        if gamma.ndim:  # distributed per-net bounds (extension)
            net_caps = context.net_caps_ff if context is not None \
                else engine.coupling.net_caps(x)
            slack = net_caps - problem.noise_bounds_ff
            active = np.isfinite(problem.noise_bounds_ff)
            value += float(np.dot(gamma[active], slack[active]))
        elif np.isfinite(problem.noise_bound_ff):
            coupling_total = context.coupling_total_ff if context is not None \
                else engine.coupling.total(x)
            value += multipliers.gamma * (coupling_total
                                          - problem.noise_bound_ff)
        value -= problem.delay_bound_ps * multipliers.sink_flow()
        return value
