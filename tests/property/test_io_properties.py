"""Property-based serialization round-trips over random circuits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import random_circuit
from repro.io import circuit_from_dict, circuit_to_dict
from repro.simulate import random_patterns, simulate_levelized
from repro.timing import ElmoreEngine


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 200), n_gates=st.integers(5, 30))
def test_roundtrip_preserves_everything(seed, n_gates):
    circuit = random_circuit(n_gates, 4, 2, seed=seed)
    clone = circuit_from_dict(circuit_to_dict(circuit))
    assert clone.edges == circuit.edges
    for a, b in zip(circuit.nodes, clone.nodes):
        assert a == b
    assert clone.tech == circuit.tech


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 200))
def test_roundtrip_preserves_behavior(seed):
    """Logic and timing are functions of the serialized fields only."""
    circuit = random_circuit(15, 4, 2, seed=seed)
    clone = circuit_from_dict(circuit_to_dict(circuit))
    pats = random_patterns(4, 16, seed=seed)
    np.testing.assert_array_equal(simulate_levelized(circuit, pats),
                                  simulate_levelized(clone, pats))
    x = circuit.compile().default_sizes(1.0)
    np.testing.assert_allclose(
        ElmoreEngine(circuit.compile()).delays(x),
        ElmoreEngine(clone.compile()).delays(x), equal_nan=False)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 200))
def test_dict_is_json_clean(seed):
    import json

    circuit = random_circuit(10, 3, 2, seed=seed)
    text = json.dumps(circuit_to_dict(circuit))
    clone = circuit_from_dict(json.loads(text))
    assert clone.edges == circuit.edges
