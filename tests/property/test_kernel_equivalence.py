"""Property-based kernel-vs-oracle equivalence.

Randomized circuit topologies, size vectors, delay modes, coupling
Taylor orders, and scalar / per-net γ: the precompiled kernel sweeps and
the fused LRS pass must agree with the level-sweep oracles in
``tests/oracles/`` to 1e-12 relative everywhere.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import random_circuit
from repro.core import LagrangianSubproblemSolver, MultiplierState
from repro.geometry import ChannelLayout
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.timing import CouplingDelayMode, ElmoreEngine

from oracles.elmore import LevelSweepEngine
from oracles.lrs import solve_reference
from oracles.multipliers import project_reference


@st.composite
def solver_case(draw):
    seed = draw(st.integers(0, 40))
    n_gates = draw(st.integers(5, 20))
    n_inputs = draw(st.integers(2, 5))
    n_outputs = draw(st.integers(1, min(3, n_gates)))
    circuit = random_circuit(n_gates, n_inputs, n_outputs, seed=seed)
    cc = circuit.compile()
    order = draw(st.sampled_from([2, 3, 5]))
    analyzer = SimilarityAnalyzer(circuit, n_patterns=16, seed=seed)
    coupling = CouplingSet.from_layout(ChannelLayout.from_levels(circuit),
                                       analyzer, MillerMode.SIMILARITY,
                                       order=order)
    mode = draw(st.sampled_from(list(CouplingDelayMode)))
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    x = cc.default_sizes(1.0)
    mask = cc.is_sizable
    x[mask] = np.clip(rng.uniform(0.3, 4.0, int(mask.sum())),
                      cc.lower[mask], cc.upper[mask])
    beta = draw(st.floats(1e-5, 1e-1))
    per_net = draw(st.booleans())
    if per_net:
        gamma = rng.uniform(1e-5, 1e-1, cc.num_nodes)
    else:
        gamma = draw(st.floats(1e-5, 1e-1))
    return cc, coupling, mode, x, beta, gamma


@settings(max_examples=30, deadline=None)
@given(case=solver_case())
def test_sweeps_and_lrs_match(case):
    cc, coupling, mode, x, beta, gamma = case
    kernel = ElmoreEngine(cc, coupling, mode)
    reference = LevelSweepEngine(cc, coupling, mode)

    ck, cr = kernel.capacitances(x), reference.capacitances(x)
    for key in cr:
        np.testing.assert_allclose(ck[key], cr[key], rtol=1e-12, atol=1e-14,
                                   equal_nan=False)
    delays = reference.delays(x)
    np.testing.assert_allclose(kernel.delays(x), delays,
                               rtol=1e-12, atol=1e-14, equal_nan=False)
    np.testing.assert_allclose(kernel.arrival_times(delays),
                               reference.arrival_times(delays),
                               rtol=1e-12, atol=1e-12, equal_nan=False)

    mult = MultiplierState.initial(cc, beta=beta, gamma=gamma)
    lam = mult.node_multipliers()
    np.testing.assert_allclose(
        kernel.weighted_upstream_resistance(x, lam),
        reference.weighted_upstream_resistance(x, lam),
        rtol=1e-12, atol=1e-14, equal_nan=False)

    solver = LagrangianSubproblemSolver(kernel, max_passes=60)
    rk = solver.solve(mult, x0=x)
    rr = solve_reference(reference, mult, x0=x, max_passes=60)
    # S4 must never emit a non-finite size (odd coupling orders can make
    # its numerator negative), and NaN must never count as agreement.
    assert np.isfinite(rk.x).all() and np.isfinite(rr.x).all()
    assert rk.passes == rr.passes
    np.testing.assert_allclose(rk.x, rr.x, rtol=1e-12, atol=1e-14,
                               equal_nan=False)
    np.testing.assert_allclose(rk.max_rel_change, rr.max_rel_change,
                               rtol=1e-6, atol=1e-12, equal_nan=False)
    # The batched pass body: every column bit-identical to the scalar.
    for rb in solver.solve_batch([mult, mult.copy()], [x, x]):
        assert rb.passes == rk.passes
        assert np.array_equal(rb.x, rk.x)


@settings(max_examples=20, deadline=None)
@given(case=solver_case())
def test_projection_matches_reference(case):
    cc, _, _, _, _, _ = case
    rng = np.random.default_rng(11)
    lam = rng.uniform(0.0, 2.0, cc.num_edges)
    lam[rng.random(cc.num_edges) < 0.25] = 0.0
    a = MultiplierState(cc, lam.copy()).project()
    b = project_reference(MultiplierState(cc, lam.copy()))
    np.testing.assert_allclose(a.lam_edge, b.lam_edge, rtol=1e-10, atol=1e-12,
                               equal_nan=False)
    assert abs(a.conservation_residual() - b.conservation_residual()) < 1e-9
