"""Cold set-up memory stays a small multiple of the simulated values.

The yardstick is the boolean node-by-pattern value matrix,
``num_nodes × P`` bytes, which the analyzer never keeps: it stores each
distinct simulated row once plus an ``int32`` row per node.
Simulation, stage 1 (similarity + ordering) and coupling extraction may
use short-lived per-channel or per-pair work arrays, one channel at a
time, but no whole-circuit float copy of the values (a float64 ``±1``
matrix alone is 8× the boolean values).  What stage 1 leaves behind is
O(n): the ordered layout and its costs, never per-channel similarity or
distance keys (their Σ width² bytes outgrow the values at scale).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import SolverSession
from repro.noise import MillerMode
from repro.runtime import CircuitRef
from repro.simulate import random_patterns, simulate_levelized

#: Peak traced bytes of ``SolverSession.coupling`` over the boolean
#: value matrix's bytes.
PEAK_OVER_VALUES = 10

#: Traced bytes ``SolverSession.stage1`` leaves allocated, over the
#: boolean value matrix's bytes.
RETAINED_OVER_VALUES = 0.25


def _values_nbytes(session, n_patterns=256):
    """Bytes of the boolean ``num_nodes × P`` value matrix."""
    return session.circuit.num_nodes * n_patterns


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
    values_nbytes = _values_nbytes(session)
    assert peak < PEAK_OVER_VALUES * values_nbytes, \
        f"peak {peak / values_nbytes:.1f}x the values"


@pytest.mark.parametrize("spec", ["random:3000", "c7552"])
def test_stage1_retains_linear_state(spec):
    session = SolverSession.for_ref(CircuitRef.from_spec(spec))
    session.analyzer(256, 0)  # simulation is not under test
    session.base_layout()
    tracemalloc.start()
    try:
        session.stage1("woss", 256, 0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    values_nbytes = _values_nbytes(session)
    assert retained < RETAINED_OVER_VALUES * values_nbytes, \
        f"retained {retained / values_nbytes:.2f}x the values"


@pytest.mark.parametrize("spec", ["random:3000", "c7552"])
def test_analyzer_stores_each_distinct_row_once(spec):
    """The analyzer's arrays are its distinct rows and an ``int32`` row
    index per node, not the ``num_nodes × P`` value matrix; every node
    still reads its own simulated row through the index."""
    session = SolverSession.for_ref(CircuitRef.from_spec(spec))
    analyzer = session.analyzer(256, 0)
    arrays = [v for v in vars(analyzer).values() if isinstance(v, np.ndarray)]
    distinct = len(analyzer.rows)
    nodes = session.circuit.num_nodes
    assert sum(a.nbytes for a in arrays) <= distinct * 256 + 4 * nodes
    assert distinct < nodes
    assert len(np.unique(np.packbits(analyzer.rows, axis=1), axis=0)) == \
        distinct
    patterns = random_patterns(session.circuit.num_drivers, 256, seed=0)
    np.testing.assert_array_equal(analyzer.patterns, patterns)
    np.testing.assert_array_equal(analyzer.rows[analyzer.row_index],
                                  simulate_levelized(session.circuit, patterns))
