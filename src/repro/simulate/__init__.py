"""Gate-level logic simulation substrate.

Switching similarity (paper Sec. 3.2) needs per-wire waveforms "available
from the logic simulation stage".  This package provides that stage as
one steady value per node per cycle (the waveforms are cycle-accurate;
glitches are not modelled):

* :mod:`~repro.simulate.logic` — the boolean gate-function registry,
* :mod:`~repro.simulate.patterns` — seeded/exhaustive test patterns,
* :func:`~repro.simulate.levelized.simulate_levelized` — vectorized
  zero-delay simulation (one steady value per node per pattern), the
  input to similarity analysis, run through the precompiled
  :class:`~repro.simulate.plan.SimPlan`.
"""

from repro.simulate.levelized import simulate_levelized
from repro.simulate.logic import SUPPORTED_FUNCTIONS, evaluate_function
from repro.simulate.patterns import exhaustive_patterns, random_patterns, toggle_patterns
from repro.simulate.plan import SimPlan

__all__ = [
    "SUPPORTED_FUNCTIONS",
    "SimPlan",
    "evaluate_function",
    "random_patterns",
    "exhaustive_patterns",
    "toggle_patterns",
    "simulate_levelized",
]
