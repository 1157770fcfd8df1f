"""KKT optimality certificate (paper Theorem 6).

Theorem 6 characterizes the optimum of problem ``PP`` by five condition
groups; :func:`check_kkt` evaluates all of them at a candidate solution
and returns normalized residuals, giving an *a posteriori* optimality
certificate independent of the optimizer's own bookkeeping:

1. flow conservation of the edge multipliers (Theorem 3),
2. complementary slackness of every constraint,
3. primal feasibility,
4. multiplier non-negativity (guaranteed structurally, still reported),
5. the fixed-point condition ``x_i = min(U_i, max(L_i, opt_i))``.
"""

import dataclasses

import numpy as np

from repro.core.subgradient import edge_timing_terms
from repro.timing.metrics import evaluate_metrics
from repro.utils.units import FF_PER_PF


@dataclasses.dataclass(frozen=True)
class KKTReport:
    """Normalized residuals of the Theorem 6 conditions (0 = exact)."""

    flow_conservation: float
    complementary_slackness: float
    primal_feasibility: float
    multiplier_nonnegativity: float
    sizing_fixed_point: float

    def max_residual(self):
        return max(
            self.flow_conservation,
            self.complementary_slackness,
            self.primal_feasibility,
            self.multiplier_nonnegativity,
            self.sizing_fixed_point,
        )

    def satisfied(self, tolerance=1e-2):
        """Whether every condition holds within relative ``tolerance``."""
        return self.max_residual() <= tolerance


def check_kkt(engine, problem, x, multipliers):
    """Evaluate Theorem 6 at ``(x, multipliers)``."""
    from repro.core.lrs import LagrangianSubproblemSolver

    cc = engine.compiled

    # (1) flow conservation, normalized by the mean positive multiplier.
    lam_scale = float(np.mean(multipliers.lam_edge)) or 1.0
    flow = multipliers.conservation_residual() / max(lam_scale, 1e-30)

    # (2) complementary slackness: λ_e · residual_e and β/γ · slack.
    delays = engine.delays(x)
    arrival = engine.arrival_times(delays)
    residual, reference = edge_timing_terms(cc, arrival, delays,
                                            problem.delay_bound_ps)
    edge_cs = np.abs(multipliers.lam_edge * residual / reference)
    metrics = evaluate_metrics(engine, x)
    noise_ff = metrics.noise_pf * FF_PER_PF
    scalar_cs = [
        abs(multipliers.beta * (metrics.total_cap_ff / problem.power_cap_bound_ff - 1.0)),
        abs(multipliers.gamma * (noise_ff / problem.noise_bound_ff - 1.0)),
    ]
    slackness = float(max(np.max(edge_cs, initial=0.0) / max(lam_scale, 1e-30),
                          max(scalar_cs)))

    # (3) primal feasibility (positive part of relative violations).
    feasibility = max(0.0, *problem.violations(metrics).values())

    # (4) non-negativity (structurally enforced; report any drift).
    nonneg = float(max(0.0, -min(np.min(multipliers.lam_edge, initial=0.0),
                                 multipliers.beta, multipliers.gamma)))

    # (5) x is the Theorem 5 fixed point: one LRS pass must not move it.
    one_pass = LagrangianSubproblemSolver(engine, max_passes=1, tolerance=0.0)
    moved = one_pass.solve(multipliers, x0=x).x
    mask = cc.is_sizable
    fixed_point = float(np.max(np.abs(moved - x)[mask] / np.maximum(x[mask], 1e-12),
                               initial=0.0))

    return KKTReport(
        flow_conservation=flow,
        complementary_slackness=slackness,
        primal_feasibility=feasibility,
        multiplier_nonnegativity=nonneg,
        sizing_fixed_point=fixed_point,
    )
