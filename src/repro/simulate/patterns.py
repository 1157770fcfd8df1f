"""Test-pattern generation.

Patterns are boolean arrays of shape ``(n_patterns, n_inputs)``; row ``p``
is the primary-input vector applied during cycle ``p``.  The paper takes
patterns "from the logic simulation stage"; with no testbench available we
use seeded random vectors by default (see "Model choices: seeded
patterns" in ``docs/architecture.md``).
"""

import numpy as np

from repro.utils.errors import SimulationError
from repro.utils.rng import make_rng


def random_patterns(n_inputs, n_patterns, seed=0, p_high=0.5):
    """Independent Bernoulli(``p_high``) vectors; the default workload."""
    if n_inputs < 1 or n_patterns < 1:
        raise SimulationError("n_inputs and n_patterns must be >= 1")
    if not 0.0 <= p_high <= 1.0:
        raise SimulationError("p_high must lie in [0, 1]")
    rng = make_rng(seed)
    return rng.random((n_patterns, n_inputs)) < p_high


def exhaustive_patterns(n_inputs):
    """All ``2**n_inputs`` vectors in counting order (small circuits only)."""
    if n_inputs < 1:
        raise SimulationError("n_inputs must be >= 1")
    if n_inputs > 20:
        raise SimulationError("exhaustive_patterns is limited to 20 inputs")
    count = 1 << n_inputs
    bits = (np.arange(count)[:, None] >> np.arange(n_inputs)[None, :]) & 1
    return bits.astype(bool)


def toggle_patterns(n_inputs, n_patterns):
    """Deterministic checkerboard: input ``i`` toggles every ``i+1`` cycles.

    Useful in tests because every input has a known, distinct switching
    rate (input 0 toggles fastest).
    """
    if n_inputs < 1 or n_patterns < 1:
        raise SimulationError("n_inputs and n_patterns must be >= 1")
    cycles = np.arange(n_patterns)[:, None]
    periods = np.arange(1, n_inputs + 1)[None, :]
    return (cycles // periods) % 2 == 1
