"""Cold set-up memory stays a small multiple of the simulated values.

Simulation, stage 1 (similarity + ordering) and coupling extraction may
keep one integer distance matrix per channel and short-lived per-channel
or per-pair work arrays, but no whole-circuit float copy of the values
(a float64 ``±1`` matrix alone is 8× the boolean values) and no float
matrix per channel.
"""

import tracemalloc

import pytest

from repro.core import SolverSession
from repro.noise import MillerMode
from repro.runtime import CircuitRef

#: Peak traced bytes of ``SolverSession.coupling`` over the boolean
#: value matrix's bytes.
PEAK_OVER_VALUES = 10


@pytest.mark.parametrize("spec, ordering", [
    ("random:3000", "woss"), ("random:3000", "none"), ("c7552", "woss")])
def test_coupling_setup_peak_is_bounded(spec, ordering):
    session = SolverSession.for_ref(CircuitRef.from_spec(spec))
    session.circuit  # the netlist build itself is not under test
    tracemalloc.start()
    try:
        session.coupling(ordering, 256, 0, MillerMode.SIMILARITY, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = session.analyzer(256, 0).values
    assert peak < PEAK_OVER_VALUES * values.nbytes, \
        f"peak {peak / values.nbytes:.1f}x the values"
