"""Result records for the sizing optimizers."""

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class IterationRecord:
    """Diagnostics of one OGWS outer iteration (paper Fig. 9 loop body)."""

    iteration: int
    area_um2: float
    delay_ps: float
    noise_pf: float
    power_mw: float
    dual_value: float
    paper_gap: float        # |Σα·x − L(x)| / Σα·x  (stop test A7)
    duality_gap: float      # (best feasible area − best dual) / area
    feasible: bool
    lrs_passes: int
    step: float
    beta: float
    gamma: float


@dataclasses.dataclass
class SizingResult:
    """Outcome of an OGWS run.

    ``x`` is the reported sizing (the best feasible iterate when one
    exists, else the final iterate), with ``metrics`` evaluated there.
    ``history`` holds one :class:`IterationRecord` per outer iteration
    when recording was enabled.
    """

    x: np.ndarray
    metrics: object
    initial_metrics: object
    problem: object
    converged: bool
    iterations: int
    dual_value: float
    duality_gap: float
    feasible: bool
    history: list
    runtime_s: float
    memory_bytes: int
    multipliers: object = None
    #: Full-circuit candidate evaluations spent inside the primal-repair
    #: bisection (each one is lazily short-circuited on the first
    #: violated constraint; see :func:`repro.core.ogws.repair_lockstep`).
    repair_evals: int = 0

    @property
    def improvements(self):
        """Table 1's Impr(%) entries for this run."""
        return self.metrics.improvements_over(self.initial_metrics)

    def summary(self):
        """One-paragraph human-readable outcome (examples print this)."""
        imp = self.improvements
        status = "converged" if self.converged else "iteration budget reached"
        feas = "feasible" if self.feasible else "INFEASIBLE"
        return (
            f"{status} after {self.iterations} iterations ({feas}); "
            f"duality gap {self.duality_gap * 100.0:.2f}%; "
            f"area {self.initial_metrics.area_um2:.0f} -> {self.metrics.area_um2:.0f} um^2 "
            f"({imp['area']:.1f}%), noise {self.initial_metrics.noise_pf:.2f} -> "
            f"{self.metrics.noise_pf:.2f} pF ({imp['noise']:.1f}%), "
            f"delay {self.initial_metrics.delay_ps:.0f} -> {self.metrics.delay_ps:.0f} ps "
            f"({imp['delay']:.1f}%), power {self.initial_metrics.power_mw:.2f} -> "
            f"{self.metrics.power_mw:.2f} mW ({imp['power']:.1f}%), "
            f"runtime {self.runtime_s:.1f} s, memory {self.memory_bytes / 1048576.0:.2f} MB"
        )
