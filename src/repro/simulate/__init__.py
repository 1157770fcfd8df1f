"""Gate-level logic simulation substrate.

Switching similarity (paper Sec. 3.2) needs per-wire waveforms "available
from the logic simulation stage".  This package provides that stage:

* :mod:`~repro.simulate.logic` — the boolean gate-function registry,
* :mod:`~repro.simulate.patterns` — seeded/exhaustive test patterns,
* :func:`~repro.simulate.levelized.simulate_levelized` — vectorized
  zero-delay simulation (one steady value per node per pattern), the
  default input to similarity analysis, run through the precompiled
  :class:`~repro.simulate.plan.SimPlan`,
* :class:`~repro.simulate.events.EventDrivenSimulator` — unit-delay
  event-driven simulation producing real time-domain waveforms (captures
  glitches; used for the timed similarity variant and demos),
* :class:`~repro.simulate.waveforms.Waveform` — piecewise-constant ±1
  signals with exact product integrals.
"""

from repro.simulate.events import EventDrivenSimulator
from repro.simulate.levelized import simulate_levelized
from repro.simulate.logic import SUPPORTED_FUNCTIONS, evaluate_function
from repro.simulate.patterns import exhaustive_patterns, random_patterns, toggle_patterns
from repro.simulate.plan import SimPlan
from repro.simulate.waveforms import Waveform

__all__ = [
    "SUPPORTED_FUNCTIONS",
    "SimPlan",
    "evaluate_function",
    "random_patterns",
    "exhaustive_patterns",
    "toggle_patterns",
    "simulate_levelized",
    "EventDrivenSimulator",
    "Waveform",
]
