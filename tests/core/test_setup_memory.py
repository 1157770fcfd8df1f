"""Cold set-up memory stays a small multiple of the simulated values.

Simulation, stage 1 (similarity + ordering) and coupling extraction may
use short-lived per-channel or per-pair work arrays, one channel at a
time, but no whole-circuit float copy of the values (a float64 ``±1``
matrix alone is 8× the boolean values).  What stage 1 leaves behind is
O(n): the ordered layout and its costs, never per-channel similarity or
distance keys (their Σ width² bytes outgrow the values at scale).
"""

import tracemalloc

import pytest

from repro.core import SolverSession
from repro.noise import MillerMode
from repro.runtime import CircuitRef

#: Peak traced bytes of ``SolverSession.coupling`` over the boolean
#: value matrix's bytes.
PEAK_OVER_VALUES = 10

#: Traced bytes ``SolverSession.stage1`` leaves allocated, over the
#: boolean value matrix's bytes.
RETAINED_OVER_VALUES = 0.25


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


@pytest.mark.parametrize("spec", ["random:3000", "c7552"])
def test_stage1_retains_linear_state(spec):
    session = SolverSession.for_ref(CircuitRef.from_spec(spec))
    values = session.analyzer(256, 0).values  # simulation is not under test
    session.base_layout()
    tracemalloc.start()
    try:
        session.stage1("woss", 256, 0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < RETAINED_OVER_VALUES * values.nbytes, \
        f"retained {retained / values.nbytes:.2f}x the values"
