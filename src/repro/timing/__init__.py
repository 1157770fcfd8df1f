"""Timing, power, and area models.

* :class:`~repro.timing.elmore.ElmoreEngine` — vectorized stage-limited
  Elmore delay sweeps over a :class:`CompiledCircuit` (the workhorse of
  the sizing engine),
* :mod:`~repro.timing.metrics` — the Table 1 quantities (noise, delay,
  power, area) bundled per sizing solution,
* :mod:`~repro.timing.activity` — activity-weighted power, an extension
  the activity-power bench measures against the paper's uniform model.
"""

from repro.timing.activity import ActivityPowerReport, activity_power, toggle_rates
from repro.timing.elmore import CouplingDelayMode, ElmoreEngine
from repro.timing.kernels import SweepPlan, Workspace
from repro.timing.metrics import CircuitMetrics, EvalContext, evaluate_metrics

__all__ = [
    "CouplingDelayMode",
    "ElmoreEngine",
    "SweepPlan",
    "Workspace",
    "EvalContext",
    "CircuitMetrics",
    "evaluate_metrics",
    "toggle_rates",
    "activity_power",
    "ActivityPowerReport",
]
