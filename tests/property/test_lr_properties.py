"""Property-based tests on the LR machinery's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import random_circuit
from repro.core import LagrangianSubproblemSolver, MultiplierState
from repro.timing import ElmoreEngine


@st.composite
def compiled_circuit(draw):
    seed = draw(st.integers(0, 30))
    n_gates = draw(st.integers(6, 20))
    circuit = random_circuit(n_gates, 3, 2, seed=seed)
    return circuit.compile()


@settings(max_examples=25, deadline=None)
@given(cc=compiled_circuit(), seed=st.integers(0, 100))
def test_projection_always_restores_conservation(cc, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 5.0, cc.num_edges)
    state = MultiplierState(cc, lam)
    state.project()
    assert state.conservation_residual() < 1e-9
    assert np.all(state.lam_edge >= 0)


@settings(max_examples=25, deadline=None)
@given(cc=compiled_circuit(), seed=st.integers(0, 100))
def test_projection_preserves_sink_flow(cc, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 5.0, cc.num_edges)
    state = MultiplierState(cc, lam)
    before = state.sink_flow()
    state.project()
    assert abs(state.sink_flow() - before) < 1e-9 * max(1.0, before)


@settings(max_examples=15, deadline=None)
@given(cc=compiled_circuit(), beta=st.floats(0.0, 0.01),
       gamma=st.floats(0.0, 0.01), sink=st.floats(0.1, 3.0))
def test_lrs_fixed_point_in_box(cc, beta, gamma, sink):
    engine = ElmoreEngine(cc)
    mult = MultiplierState.initial(cc, beta=beta, gamma=gamma, sink_weight=sink)
    result = LagrangianSubproblemSolver(engine, max_passes=300).solve(mult)
    mask = cc.is_sizable
    assert np.all(result.x[mask] >= cc.lower[mask] - 1e-12)
    assert np.all(result.x[mask] <= cc.upper[mask] + 1e-12)
    assert result.converged


@settings(max_examples=10, deadline=None)
@given(cc=compiled_circuit(), sink=st.floats(0.2, 2.0))
def test_lrs_unique_optimum_from_any_start(cc, sink):
    """LRS₂ is convex after log transform: cold/hot starts coincide."""
    engine = ElmoreEngine(cc)
    mult = MultiplierState.initial(cc, beta=1e-3, gamma=1e-3, sink_weight=sink)
    solver = LagrangianSubproblemSolver(engine, max_passes=400)
    from_low = solver.solve(mult).x
    from_high = solver.solve(mult, x0=cc.default_sizes(np.inf)).x
    mask = cc.is_sizable
    np.testing.assert_allclose(from_low[mask], from_high[mask], rtol=1e-4,
                               equal_nan=False)


@settings(max_examples=15, deadline=None)
@given(cc=compiled_circuit(), scale=st.floats(0.5, 4.0))
def test_lambda_scaling_grows_sizes(cc, scale):
    """Scaling all delay multipliers up never shrinks the optimal sizes
    (more delay pressure ⇒ larger drivers)."""
    engine = ElmoreEngine(cc)
    base = MultiplierState.initial(cc, beta=1e-4, gamma=0.0, sink_weight=1.0)
    scaled = MultiplierState.initial(cc, beta=1e-4, gamma=0.0,
                                     sink_weight=1.0 + scale)
    solver = LagrangianSubproblemSolver(engine, max_passes=300)
    x_base = solver.solve(base).x
    x_scaled = solver.solve(scaled).x
    mask = cc.is_sizable
    assert np.all(x_scaled[mask] >= x_base[mask] - 1e-8)
