"""Comparison baselines for the sizing experiments.

The paper's claims are comparative ("optimal", "efficient"); these
baselines make the comparisons concrete in the optimality bench:

* :func:`~repro.baselines.uniform.uniform_scaling_baseline` — one global
  size for every component (what you get with no per-component sizing),
* :class:`~repro.baselines.tilos.TilosLikeSizer` — the classic greedy
  sensitivity-based sizer (TILOS-style), the standard pre-LR heuristic.
"""

from repro.baselines.tilos import TilosLikeSizer, TilosResult
from repro.baselines.uniform import UniformResult, uniform_scaling_baseline

__all__ = [
    "uniform_scaling_baseline",
    "UniformResult",
    "TilosLikeSizer",
    "TilosResult",
]
