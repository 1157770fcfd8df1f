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

Every solve runs one pass body, :meth:`_solve_kernel_batch`: the
S2/S3/S4 sweeps fused into one pass over the circuit's precompiled
:class:`~repro.timing.kernels.SweepPlan`, on ``(n, K)`` column-stacked
iterates — one column per multiplier set, so one scenario is a batch of
width one.  All coupling terms come from one
:meth:`CouplingSet.node_terms_batch` traversal, every intermediate
lives in the engine's pooled :class:`~repro.timing.kernels.Workspace`,
and a steady-state pass performs **no array allocation** (guarded by
tracemalloc in ``tests/timing/test_kernels.py``).  The original
engine-method-per-sweep spelling is a test oracle
(``tests/oracles/lrs.py``); the property tests pin the pass to it to
1e-12 relative across delay modes, coupling orders, and scalar /
per-net γ.

Generalizations beyond the paper, both documented in DESIGN.md §2:

* coupling Taylor order k > 2: the coupling sums are evaluated at the
  current iterate via :meth:`CouplingSet.node_terms_batch` (exactly the
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
        coupling set, delay mode, and the scratch pool).
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
        previous outer iteration just get there in fewer passes).  A
        batch of width one: ``solve_batch([multipliers], [x0])[0]``.
        """
        return self.solve_batch([multipliers], [x0])[0]

    def solve_batch(self, multipliers, x0s=None):
        """Solve K subproblems over one circuit in lockstep.

        ``multipliers`` is a sequence of K :class:`MultiplierState`\\ s
        (typically one per scenario sharing this engine's circuit and
        coupling set) and ``x0s`` optional per-column warm starts.
        Returns one :class:`LRSResult` per input, each equal to solving
        that column alone: the fused pass (:meth:`_solve_kernel_batch`)
        performs per column exactly one column's operations — CSR
        matvec becomes matmat, every elementwise update runs on
        ``(n, K)`` matrices — and a column is frozen (copied out,
        removed from the working set) the moment its own fixed-point
        criterion fires, so later passes never touch it.  The
        multipliers must agree on the form of ``gamma``: all scalar (the
        paper) or all per-net arrays (the distributed extension).
        """
        multipliers = list(multipliers)
        if x0s is None:
            x0s = [None] * len(multipliers)
        x0s = list(x0s)
        if len(x0s) != len(multipliers):
            raise ValidationError("x0s must align with multipliers")
        if not multipliers:
            return []
        per_net = {np.ndim(m.gamma) > 0 for m in multipliers}
        if len(per_net) > 1:
            raise ValidationError(
                "solve_batch multipliers mix scalar and per-net gamma")
        return self._solve_kernel_batch(multipliers, x0s,
                                        per_net=per_net.pop())

    # -- the fused pass -----------------------------------------------------------

    def _solve_kernel_batch(self, multipliers, x0s, per_net=False):
        """S2+S3+S4 fused into one pass over ``(n, K)`` column-stacked
        iterates.

        Per pass: one :meth:`CouplingSet.node_terms_batch` traversal
        (cap/slope sums and, under PROPAGATED, per-node coupling caps),
        one reverse capacitance sweep, one forward λ-weighted resistance
        sweep, and the elementwise ``opt_i`` update — all into the
        engine pool's buffers.  The iterate ping-pongs between the
        workspace's two size matrices.  When a column converges it is
        copied out and the survivors are compacted into the pooled
        buffers of the smaller width (fresh contiguous matrices, so the
        raw multi-vector CSR kernel keeps its layout).  Steady-state
        passes at a constant width allocate nothing beyond a few
        per-column scalars.
        """
        engine = self.engine
        cc = engine.compiled
        plan = cc.sweep_plan()
        bws = engine.pool
        coupling = engine.coupling
        propagated = engine.mode is CouplingDelayMode.PROPAGATED
        coupled_delay = engine.mode is not CouplingDelayMode.NONE

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
        np.multiply(lam, ws.r_hat_eff, out=numer)
        np.multiply(ws.c_hat, beta, out=ab)
        np.add(ab, ws.alpha, out=ab)

        for k, x0 in enumerate(x0s):
            x[:, k] = cc.lower if x0 is None else np.asarray(x0, dtype=float)
        np.maximum(x, ws.lower, out=x)
        np.clip(x, ws.lower, ws.upper, out=x)
        x[plan.nonsizable_idx] = 0.0

        passes = 0
        with np.errstate(invalid="ignore", divide="ignore"):
            while order.size and passes < self.max_passes:
                passes += 1
                terms = coupling.node_terms_batch(x, gamma,
                                                  node_caps=propagated)
                kernels.s2_source_terms(ws, x, terms.node_caps, propagated,
                                        ws.cself, ws.source_terms)
                kernels.child_sum_sweep(ws, ws.source_terms, ws.child_sum)
                np.divide(ws.r_hat_eff, x, out=ws.r_eff, where=ws.is_sizable)
                np.multiply(lam, ws.r_eff, out=ws.t2)
                kernels.upstream_sweep(plan, ws.t2, ws.upstream)
                np.add(ws.child_sum, ws.half_fringe_wire, out=ws.k_cap)
                if coupled_delay:
                    np.multiply(terms.cap_sum, ws.wire_mask_f, out=ws.t1)
                    np.add(ws.k_cap, ws.t1, out=ws.k_cap)
                np.multiply(ws.upstream, ws.c_hat, out=ws.denom)
                np.add(ws.denom, ab, out=ws.denom)
                np.add(ws.denom, terms.gamma_slopes, out=ws.denom)
                if propagated:
                    np.multiply(ws.upstream, terms.dx_sum, out=ws.t1)
                    np.add(ws.denom, ws.t1, out=ws.denom)
                np.multiply(numer, ws.k_cap, out=ws.t1)
                np.maximum(ws.t1, 0.0, out=ws.t1)
                np.divide(ws.t1, ws.denom, out=ws.opt, where=ws.is_sizable)
                np.sqrt(ws.opt, out=ws.opt)
                np.clip(ws.opt, ws.lower, ws.upper, out=x_new)
                x_new[plan.nonsizable_idx] = 0.0
                np.subtract(x_new, x, out=ws.t1)
                np.abs(ws.t1, out=ws.t1)
                np.divide(ws.t1, x, out=ws.t1, where=ws.is_sizable)
                if len(plan.sizable_idx):
                    ws.t1.take(plan.sizable_idx, 0, ws.szbuf, "clip")
                    np.maximum.reduce(ws.szbuf, axis=0, out=ws.colmax)
                else:
                    ws.colmax.fill(0.0)
                x, x_new = x_new, x
                np.less_equal(ws.colmax, self.tolerance, out=ws.colmask)
                if not ws.colmask.any():
                    continue
                # Freeze converged columns at this pass's iterate (a
                # real copy: at width one the column is a view into the
                # pool, which the next solve overwrites)...
                for wk in np.flatnonzero(ws.colmask):
                    k = order[wk]
                    out_x[k] = x[:, wk].copy()
                    out_passes[k] = passes
                    out_maxrel[k] = float(ws.colmax[wk])
                keep = np.flatnonzero(~ws.colmask)
                order = order[keep]
                if not order.size:
                    break
                # ...and compact the survivors into the smaller width's
                # pooled buffers (contiguity for the raw CSR kernel); the
                # pass body reads that width's constants from them.
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
        # Columns that never converged stop at the pass budget.
        for wk, k in enumerate(order):
            out_x[k] = x[:, wk].copy()
            out_passes[k] = passes
            out_maxrel[k] = float(ws.colmax[wk]) if passes else np.inf
        return [self._finish(out_x[k], out_passes[k], out_maxrel[k])
                for k in range(total)]

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
