"""Shadow prices: what each constraint costs, straight from the multipliers.

A dividend of the Lagrangian approach the paper doesn't spell out: at the
optimum, the multipliers *are* the sensitivities of the minimal area to
the bounds (standard convex duality):

    ∂A*/∂A0  = −Σ_{j∈input(m)} λ*_jm   (the sink flow Λ*)
    ∂A*/∂X_B = −γ*
    ∂A*/∂P'  = −β*

So a designer reads "one more picosecond of delay budget buys Λ* µm² of
area" directly off a converged :class:`SizingResult` — no re-solve.
:func:`validate_shadow_prices` certifies the identity numerically by
re-solving with perturbed bounds (used by tests and the sensitivity
bench), and :func:`bound_sweep` traces a full area-vs-bound frontier.
"""

import dataclasses

from repro.core.ogws import OGWSOptimizer
from repro.core.problem import SizingProblem


@dataclasses.dataclass(frozen=True)
class ShadowPrices:
    """Marginal area cost of tightening each bound (from multipliers).

    Units: ``delay`` in µm²/ps, ``noise`` in µm²/fF, ``power`` in µm²/fF.
    All are non-negative; zero means the constraint is slack
    (complementary slackness).
    """

    delay: float
    noise: float
    power: float

    def as_rows(self):
        return [["delay (um2/ps)", self.delay],
                ["noise (um2/fF)", self.noise],
                ["power (um2/fF)", self.power]]


def shadow_prices(result):
    """Read the shadow prices off a converged :class:`SizingResult`."""
    mult = result.multipliers
    return ShadowPrices(
        delay=float(mult.sink_flow()),
        noise=float(mult.gamma),
        power=float(mult.beta),
    )


@dataclasses.dataclass(frozen=True)
class ShadowPriceCheck:
    """One finite-difference validation of a shadow price."""

    bound: str
    predicted: float       # multiplier at the base optimum
    measured: float        # −ΔA*/Δbound from two re-solves
    base_area: float
    scale: float           # natural price unit: base area / bound value
    relative_error: float  # |predicted − measured| / max(|measured|, eps)

    def passed(self, rel_tol=0.25, slack_tol=1e-3):
        """Whether the duality identity holds for this bound.

        Active constraints must agree within ``rel_tol`` relatively;
        slack constraints (both prices ≈ 0 on the natural scale) pass
        when both sides are below ``slack_tol·scale``.
        """
        cutoff = slack_tol * self.scale
        if abs(self.predicted) < cutoff and abs(self.measured) < cutoff:
            return True
        return self.relative_error <= rel_tol


def validate_shadow_prices(engine, problem, base_result, rel_step=0.05,
                           optimizer_options=None):
    """Certify the duality identity by re-solving with perturbed bounds.

    For each bound b in (delay, noise, power): re-solve with ``b`` scaled
    by ``1 ± rel_step`` and compare the centered difference
    ``−(A*(+) − A*(−)) / (b(+) − b(−))`` against the base multiplier.

    Returns a list of :class:`ShadowPriceCheck`.  Slack constraints
    (multiplier ≈ 0) are validated against a ≈ 0 measured slope.
    """
    options = {"max_iterations": 400, "tolerance": 0.002}
    options.update(optimizer_options or {})
    prices = shadow_prices(base_result)
    x_init = base_result.x  # warm-ish start point for metric definition
    checks = []
    for bound, predicted in (("delay", prices.delay), ("noise", prices.noise),
                             ("power", prices.power)):
        areas = []
        bounds = []
        for direction in (1.0 - rel_step, 1.0 + rel_step):
            scaled = _scaled_problem(problem, bound, direction)
            result = OGWSOptimizer(engine, scaled, x_init=x_init,
                                   **options).run()
            areas.append(result.metrics.area_um2)
            bounds.append(_bound_value(scaled, bound))
        measured = -(areas[1] - areas[0]) / (bounds[1] - bounds[0])
        rel = abs(predicted - measured) / max(abs(measured), 1e-9)
        base_bound = _bound_value(problem, bound)
        checks.append(ShadowPriceCheck(
            bound=bound, predicted=predicted, measured=measured,
            base_area=base_result.metrics.area_um2,
            scale=base_result.metrics.area_um2 / base_bound,
            relative_error=rel))
    return checks


def bound_sweep(engine, problem, bound, factors, x_init=None,
                optimizer_options=None):
    """Area-vs-bound frontier: re-solve at ``bound × factor`` per factor.

    Returns rows ``[factor, bound_value, area, multiplier, feasible]``;
    the multiplier column shows the shadow price *along* the frontier
    (it grows as the bound tightens).
    """
    options = {"max_iterations": 300}
    options.update(optimizer_options or {})
    rows = []
    for factor in factors:
        scaled = _scaled_problem(problem, bound, factor)
        result = OGWSOptimizer(engine, scaled, x_init=x_init, **options).run()
        price = getattr(shadow_prices(result), bound)
        rows.append([float(factor), _bound_value(scaled, bound),
                     result.metrics.area_um2, price, result.feasible])
    return rows


def _scaled_problem(problem, bound, factor):
    values = {
        "delay_bound_ps": problem.delay_bound_ps,
        "noise_bound_ff": problem.noise_bound_ff,
        "power_cap_bound_ff": problem.power_cap_bound_ff,
    }
    key = {"delay": "delay_bound_ps", "noise": "noise_bound_ff",
           "power": "power_cap_bound_ff"}[bound]
    values[key] = values[key] * factor
    return SizingProblem(**values)


def _bound_value(problem, bound):
    return {"delay": problem.delay_bound_ps, "noise": problem.noise_bound_ff,
            "power": problem.power_cap_bound_ff}[bound]
