"""Property-based equivalence of the vectorized engine vs the reference.

Randomized circuit topologies and size vectors; the vectorized level-sweep
engine must agree with the direct per-node traversal implementation to
machine precision for delays, arrivals, and weighted upstream resistance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import random_circuit
from repro.geometry import ChannelLayout
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.timing import CouplingDelayMode, ElmoreEngine

from oracles.elmore import ElmoreReference


@st.composite
def circuit_and_sizes(draw):
    seed = draw(st.integers(0, 50))
    n_gates = draw(st.integers(5, 22))
    n_inputs = draw(st.integers(2, 5))
    n_outputs = draw(st.integers(1, min(3, n_gates)))
    circuit = random_circuit(n_gates, n_inputs, n_outputs, seed=seed)
    cc = circuit.compile()
    scale = draw(st.floats(0.15, 5.0))
    jitter_seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(jitter_seed)
    x = cc.default_sizes(1.0)
    mask = cc.is_sizable
    x[mask] = np.clip(scale * rng.uniform(0.5, 2.0, int(mask.sum())),
                      cc.lower[mask], cc.upper[mask])
    return circuit, cc, x, jitter_seed


@settings(max_examples=25, deadline=None)
@given(data=circuit_and_sizes(),
       mode=st.sampled_from(list(CouplingDelayMode)))
def test_delays_match_reference(data, mode):
    circuit, cc, x, seed = data
    ana = SimilarityAnalyzer(circuit, n_patterns=16, seed=seed)
    cs = CouplingSet.from_layout(ChannelLayout.from_levels(circuit), ana,
                                 MillerMode.SIMILARITY)
    engine = ElmoreEngine(cc, cs, mode)
    reference = ElmoreReference(circuit, cs, mode)
    np.testing.assert_allclose(engine.delays(x), reference.delays(x),
                               rtol=1e-11, atol=1e-11, equal_nan=False)


@settings(max_examples=25, deadline=None)
@given(data=circuit_and_sizes())
def test_arrivals_match_reference(data):
    circuit, cc, x, _ = data
    engine = ElmoreEngine(cc)
    reference = ElmoreReference(circuit)
    np.testing.assert_allclose(engine.arrival_times(engine.delays(x)),
                               reference.arrival_times(x), rtol=1e-11,
                               equal_nan=False)


@settings(max_examples=20, deadline=None)
@given(data=circuit_and_sizes())
def test_upstream_resistance_matches_reference(data):
    circuit, cc, x, seed = data
    rng = np.random.default_rng(seed + 1)
    lam = rng.uniform(0.0, 2.0, cc.num_nodes)
    engine = ElmoreEngine(cc)
    reference = ElmoreReference(circuit)
    upstream = engine.weighted_upstream_resistance(x, lam)
    for node in circuit.components():
        expected = reference.weighted_upstream_resistance(node.index, x, lam)
        assert abs(upstream[node.index] - expected) <= 1e-9 * max(1.0, abs(expected))


@settings(max_examples=20, deadline=None)
@given(data=circuit_and_sizes())
def test_delay_positive_and_arrival_monotone(data):
    circuit, cc, x, _ = data
    engine = ElmoreEngine(cc)
    delays = engine.delays(x)
    assert np.all(delays[cc.is_sizable] > 0)
    arrival = engine.arrival_times(delays)
    for u, v in circuit.edges:
        assert arrival[v] >= arrival[u] - 1e-12
