"""Engine-vs-reference equivalence on multi-segment routing trees.

The basic property tests use single-segment nets; these exercise
wire→wire chains and branch points — the configurations where the
stage-limited traversal and the π-model halving actually matter.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import ChannelLayout
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.timing import CouplingDelayMode, ElmoreEngine

from oracles.elmore import ElmoreReference
from oracles.trees import random_tree_circuit


@st.composite
def tree_case(draw):
    seed = draw(st.integers(0, 40))
    n_gates = draw(st.integers(5, 16))
    circuit = random_tree_circuit(n_gates, 3, 2, seed=seed,
                                  max_segments=draw(st.integers(2, 4)),
                                  segment_probability=0.9)
    cc = circuit.compile()
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    x = cc.default_sizes(1.0)
    mask = cc.is_sizable
    x[mask] = np.clip(rng.uniform(0.15, 4.0, int(mask.sum())),
                      cc.lower[mask], cc.upper[mask])
    return circuit, cc, x, seed


@settings(max_examples=20, deadline=None)
@given(case=tree_case(), mode=st.sampled_from(list(CouplingDelayMode)))
def test_tree_delays_match_reference(case, mode):
    circuit, cc, x, seed = case
    analyzer = SimilarityAnalyzer(circuit, n_patterns=16, seed=seed)
    coupling = CouplingSet.from_layout(ChannelLayout.from_levels(circuit),
                                       analyzer, MillerMode.SIMILARITY)
    engine = ElmoreEngine(cc, coupling, mode)
    reference = ElmoreReference(circuit, coupling, mode)
    np.testing.assert_allclose(engine.delays(x), reference.delays(x),
                               rtol=1e-11, atol=1e-11, equal_nan=False)


@settings(max_examples=15, deadline=None)
@given(case=tree_case())
def test_tree_arrivals_match_reference(case):
    circuit, cc, x, _ = case
    engine = ElmoreEngine(cc)
    reference = ElmoreReference(circuit)
    np.testing.assert_allclose(engine.arrival_times(engine.delays(x)),
                               reference.arrival_times(x), rtol=1e-11,
                               equal_nan=False)


@settings(max_examples=15, deadline=None)
@given(case=tree_case())
def test_tree_upstream_matches_reference(case):
    circuit, cc, x, seed = case
    rng = np.random.default_rng(seed + 7)
    lam = rng.uniform(0.0, 2.0, cc.num_nodes)
    engine = ElmoreEngine(cc)
    reference = ElmoreReference(circuit)
    upstream = engine.weighted_upstream_resistance(x, lam)
    for node in circuit.components():
        expected = reference.weighted_upstream_resistance(node.index, x, lam)
        assert abs(upstream[node.index] - expected) <= 1e-9 * max(1.0, expected)


@settings(max_examples=10, deadline=None)
@given(case=tree_case())
def test_tree_circuits_size_feasibly(case):
    from repro.core import OGWSOptimizer, SizingProblem

    circuit, cc, _, _ = case
    engine = ElmoreEngine(cc)
    problem = SizingProblem.from_initial(
        engine, cc.default_sizes(np.inf), noise_fraction=1e9)
    result = OGWSOptimizer(engine, problem, max_iterations=150).run()
    assert result.feasible
