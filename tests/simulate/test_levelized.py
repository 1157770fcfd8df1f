"""Zero-delay levelized simulation."""

import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.noise import SimilarityAnalyzer
from repro.simulate import exhaustive_patterns, random_patterns, simulate_levelized
from repro.utils.errors import SimulationError


def test_c17_full_truth_table(c17):
    """Exhaustive check of both outputs against the NAND equations."""
    pats = exhaustive_patterns(5)
    vals = simulate_levelized(c17, pats)
    i = {s: vals[c17.node_by_name(f"in:{s}").index] for s in ("1", "2", "3", "6", "7")}
    n10 = ~(i["1"] & i["3"])
    n11 = ~(i["3"] & i["6"])
    n16 = ~(i["2"] & n11)
    n19 = ~(n11 & i["7"])
    np.testing.assert_array_equal(vals[c17.node_by_name("gate:22").index],
                                  ~(n10 & n16))
    np.testing.assert_array_equal(vals[c17.node_by_name("gate:23").index],
                                  ~(n16 & n19))


def test_wires_copy_their_driver(small_circuit):
    pats = random_patterns(small_circuit.num_drivers, 32, seed=0)
    vals = simulate_levelized(small_circuit, pats)
    for wire in small_circuit.wires():
        parent = small_circuit.inputs(wire.index)[0]
        np.testing.assert_array_equal(vals[wire.index], vals[parent])


def test_drivers_reflect_patterns(small_circuit):
    pats = random_patterns(small_circuit.num_drivers, 16, seed=1)
    vals = simulate_levelized(small_circuit, pats)
    for d in range(small_circuit.num_drivers):
        np.testing.assert_array_equal(vals[d + 1], pats[:, d])


def test_source_and_sink_rows_false(small_circuit):
    pats = random_patterns(small_circuit.num_drivers, 8, seed=2)
    vals = simulate_levelized(small_circuit, pats)
    assert not vals[0].any()
    assert not vals[small_circuit.sink_index].any()


def test_gate_rows_match_function(small_circuit):
    from repro.simulate.logic import evaluate_function

    pats = random_patterns(small_circuit.num_drivers, 24, seed=3)
    vals = simulate_levelized(small_circuit, pats)
    for gate in small_circuit.gates():
        stack = vals[list(small_circuit.inputs(gate.index))]
        np.testing.assert_array_equal(vals[gate.index],
                                      evaluate_function(gate.function, stack))


def test_wrong_pattern_width_rejected(small_circuit):
    with pytest.raises(SimulationError):
        simulate_levelized(small_circuit,
                           np.zeros((4, small_circuit.num_drivers + 1), dtype=bool))


def test_one_pattern_works(small_circuit):
    vals = simulate_levelized(
        small_circuit, np.ones((1, small_circuit.num_drivers), dtype=bool))
    assert vals.shape == (small_circuit.num_nodes, 1)


@pytest.mark.parametrize("level", [False, True])
def test_constant_inputs_produce_no_transitions(small_circuit, level):
    """Held inputs hold every node: no row changes from cycle to cycle,
    so every toggle rate is zero."""
    pats = np.full((12, small_circuit.num_drivers), level)
    vals = simulate_levelized(small_circuit, pats)
    assert not np.any(vals[:, 1:] != vals[:, :-1])
    analyzer = SimilarityAnalyzer(small_circuit, patterns=pats)
    assert all(analyzer.toggle_rate(node) == 0.0
               for node in range(small_circuit.num_nodes))


def test_reconvergent_hazard_reads_its_static_value():
    """``a AND NOT a`` glitches on a rising ``a`` in a timed simulation;
    the zero-delay view, which similarity is computed from, holds the
    static value 0 on every cycle (glitches are not modelled)."""
    builder = CircuitBuilder()
    a = builder.add_input("a")
    inv = builder.add_gate("not", [a], name="inv")
    g = builder.add_gate("and", [a, inv], name="g")
    builder.set_output(g)
    circuit = builder.build()
    pats = np.array([[0], [1], [0], [1]], dtype=bool)
    vals = simulate_levelized(circuit, pats)
    assert not vals[circuit.node_by_name("g").index].any()
    np.testing.assert_array_equal(vals[circuit.node_by_name("inv").index],
                                  ~pats[:, 0])
