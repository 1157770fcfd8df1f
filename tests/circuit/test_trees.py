"""Multi-segment routing-tree circuits."""

import numpy as np
import pytest

from repro.circuit import random_circuit
from repro.utils.errors import CircuitError

from oracles.trees import random_tree_circuit


def test_segments_increase_wire_count():
    flat = random_circuit(20, 4, 3, seed=1)
    tree = random_tree_circuit(20, 4, 3, seed=1, max_segments=3,
                               segment_probability=1.0)
    assert tree.num_wires > flat.num_wires
    assert tree.num_gates == flat.num_gates


def test_route_lengths_preserved():
    """Total wire length equals the single-segment equivalent's."""
    flat = random_circuit(20, 4, 3, seed=2)
    tree = random_tree_circuit(20, 4, 3, seed=2, max_segments=4,
                               segment_probability=0.8)
    flat_total = sum(w.length for w in flat.wires())
    tree_total = sum(w.length for w in tree.wires())
    assert tree_total == pytest.approx(flat_total, rel=1e-9)


def test_wire_to_wire_edges_exist():
    tree = random_tree_circuit(20, 4, 3, seed=3, segment_probability=1.0)
    chained = 0
    for wire in tree.wires():
        parent = tree.node(tree.inputs(wire.index)[0])
        if parent.is_wire:
            chained += 1
    assert chained > 0


def test_probability_zero_is_flat():
    flat = random_circuit(15, 4, 2, seed=4)
    tree = random_tree_circuit(15, 4, 2, seed=4, segment_probability=0.0)
    assert tree.num_wires == flat.num_wires


def test_logic_unchanged_by_segmentation():
    """Segments only relay values: simulation matches the flat circuit."""
    from repro.simulate import random_patterns, simulate_levelized

    flat = random_circuit(15, 4, 2, seed=5)
    tree = random_tree_circuit(15, 4, 2, seed=5, segment_probability=1.0)
    pats = random_patterns(4, 32, seed=0)
    flat_vals = simulate_levelized(flat, pats)
    tree_vals = simulate_levelized(tree, pats)
    for gate in flat.gates():
        twin = tree.node_by_name(gate.name)
        np.testing.assert_array_equal(flat_vals[gate.index],
                                      tree_vals[twin.index])


def test_validation():
    with pytest.raises(CircuitError):
        random_tree_circuit(10, 3, 2, max_segments=0)
    with pytest.raises(CircuitError):
        random_tree_circuit(10, 3, 2, segment_probability=1.5)


def test_deterministic():
    a = random_tree_circuit(12, 3, 2, seed=6)
    b = random_tree_circuit(12, 3, 2, seed=6)
    assert a.edges == b.edges
    assert [w.length for w in a.wires()] == [w.length for w in b.wires()]
