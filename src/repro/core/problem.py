"""Problem formulation (paper Sec. 4.1).

The optimization problem ``PP``:

    minimize    Σ α_i·x_i                                   (area)
    subject to  arrival(po) ≤ A0        for every primary output
                Σ c_i(x) ≤ P' = P_B/(V²·f)                  (power, in fF)
                X(x) = Σ w_ij·c_ij(x) ≤ X_B                 (crosstalk, fF)
                L_i ≤ x_i ≤ U_i

:class:`SizingProblem` stores the three bounds in the engine's native
units (ps / fF / fF) plus reporting conversions, and evaluates
feasibility.  :meth:`SizingProblem.from_initial` reverse-engineers the
paper's Table 1 setup: bounds proportional to the metrics of the initial
sizing (``docs/architecture.md``, "Model choices: substitutions").
"""

import dataclasses

from repro.timing.metrics import evaluate_metrics
from repro.utils.errors import ValidationError
from repro.utils.units import FF_PER_PF, MW_PER_W


@dataclasses.dataclass(frozen=True)
class SizingProblem:
    """Bounds of problem ``PP`` in engine units.

    Attributes
    ----------
    delay_bound_ps:
        ``A0`` — the arrival-time bound at every primary output (ps).
    noise_bound_ff:
        ``X_B`` — bound on total Miller-weighted coupling (fF).
    power_cap_bound_ff:
        ``P'`` — the power bound already divided by ``V²·f`` (fF).
    """

    delay_bound_ps: float
    noise_bound_ff: float
    power_cap_bound_ff: float

    def __post_init__(self):
        for name in ("delay_bound_ps", "noise_bound_ff", "power_cap_bound_ff"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"SizingProblem.{name} must be positive")

    @classmethod
    def from_initial(cls, engine, x_init, delay_slack=1.1, noise_fraction=0.1,
                     power_fraction=0.2, metrics=None):
        """Bounds proportional to the initial solution's metrics.

        Reverse-engineered from Table 1 (final noise is exactly 10% of
        initial on every row; delay occasionally ends slightly above
        initial, so the bound sits above it; power binds loosely):

        * ``A0   = delay_slack    · delay(x_init)``
        * ``X_B  = noise_fraction · X(x_init)``
        * ``P'   = power_fraction · Σc(x_init)``

        ``metrics`` optionally supplies precomputed metrics at
        ``x_init`` (a :class:`SolverSession` evaluates them once per
        engine group instead of once per scenario).
        """
        if delay_slack <= 0 or noise_fraction <= 0 or power_fraction <= 0:
            raise ValidationError("bound factors must be positive")
        if metrics is None:
            metrics = evaluate_metrics(engine, x_init)
        noise_init_ff = metrics.noise_pf * FF_PER_PF
        return cls(
            delay_bound_ps=delay_slack * metrics.delay_ps,
            # Circuits with no coupling pairs have zero initial noise;
            # the crosstalk constraint is then vacuous (bound = inf).
            noise_bound_ff=noise_fraction * noise_init_ff
            if noise_init_ff > 0 else float("inf"),
            power_cap_bound_ff=power_fraction * metrics.total_cap_ff,
        )

    @classmethod
    def from_physical(cls, tech, delay_bound_ps, noise_bound_pf, power_bound_mw):
        """Bounds in the paper's reporting units (ps / pF / mW)."""
        v2f = tech.supply_voltage ** 2 * tech.clock_frequency
        return cls(
            delay_bound_ps=delay_bound_ps,
            noise_bound_ff=noise_bound_pf * FF_PER_PF,
            power_cap_bound_ff=(power_bound_mw / MW_PER_W) / v2f / 1e-15,
        )

    # -- feasibility --------------------------------------------------------------

    def violations(self, metrics):
        """Relative constraint violations at ``metrics`` (≤ 0 ⇒ satisfied).

        Returned dict maps constraint name → ``value/bound − 1``.
        """
        return {
            "delay": metrics.delay_ps / self.delay_bound_ps - 1.0,
            "noise": metrics.noise_pf * FF_PER_PF / self.noise_bound_ff - 1.0,
            "power": metrics.total_cap_ff / self.power_cap_bound_ff - 1.0,
        }

    def is_feasible(self, metrics, tolerance=1e-6):
        """Whether every constraint holds within relative ``tolerance``."""
        return all(v <= tolerance for v in self.violations(metrics).values())

    def __repr__(self):
        return (
            f"SizingProblem(A0={self.delay_bound_ps:.1f} ps, "
            f"X_B={self.noise_bound_ff / FF_PER_PF:.3f} pF, "
            f"P'={self.power_cap_bound_ff:.1f} fF)"
        )
