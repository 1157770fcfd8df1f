"""Property-based kernel-vs-oracle equivalence.

Randomized circuit topologies, size vectors, delay modes, coupling
Taylor orders and multipliers: the precompiled kernel sweeps and
the fused LRS pass must agree with the level-sweep oracles in
``tests/oracles/`` to 1e-12 relative everywhere, and the batched A4
rules with the one-column rules in ``tests/oracles/a4.py`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import random_circuit
from repro.core import (
    LagrangianSubproblemSolver,
    MultiplicativeUpdate,
    MultiplierState,
    SizingProblem,
    SubgradientUpdate,
)
from repro.core.subgradient import edge_timing_terms
from repro.geometry import ChannelLayout
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.timing import CouplingDelayMode, ElmoreEngine

from oracles import a4
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


@pytest.mark.parametrize("rule", [MultiplicativeUpdate, SubgradientUpdate])
@settings(max_examples=15, deadline=None)
@given(case=solver_case(), width=st.integers(1, 4),
       bound_scale=st.floats(0.5, 1.5))
def test_a4_rules_match_oracle(rule, case, width, bound_scale):
    """Edge terms and both A4 rules over K columns, each column bit for
    bit the one-column oracle on that column alone."""
    cc, coupling, mode, x, beta, gamma = case
    engine = ElmoreEngine(cc, coupling, mode)
    rng = np.random.default_rng(width)
    xs = [x] + [cc.clip_sizes(x * rng.uniform(0.5, 2.0, cc.num_nodes))
                for _ in range(width - 1)]
    delays = [engine.delays(xj) for xj in xs]
    arrival = [engine.arrival_times(d) for d in delays]
    problems = [SizingProblem(
        delay_bound_ps=float(a[cc.sink]) * bound_scale,
        noise_bound_ff=float(rng.uniform(0.5, 2.0)) * coupling.total(xj)
        + 1.0, power_cap_bound_ff=float(rng.uniform(10.0, 1000.0)))
        for a, xj in zip(arrival, xs)]
    bounds = np.array([p.delay_bound_ps for p in problems])

    res_b, ref_b = edge_timing_terms(cc, np.column_stack(arrival),
                                     np.column_stack(delays), bounds)
    for j, (a, d, bound) in enumerate(zip(arrival, delays, bounds)):
        want = a4.edge_terms(cc, a, d, bound)
        for got in (edge_timing_terms(cc, a, d, bound),
                    (res_b[:, j], ref_b[:, j])):
            for g, w in zip(got, want):
                assert np.ascontiguousarray(g).tobytes() == w.tobytes()

    mults = []
    for _ in range(width):
        lam = rng.uniform(0.0, 2.0, cc.num_edges)
        lam[rng.random(cc.num_edges) < 0.2] = 0.0
        mults.append(MultiplierState(cc, lam, beta=beta, gamma=gamma))
    ks = [int(k) for k in rng.integers(1, 60, width)]
    power_caps = [float(rng.uniform(10.0, 2000.0)) for _ in range(width)]
    noises = [coupling.total(xj) for xj in xs]
    oracle = {MultiplicativeUpdate: a4.multiplicative,
              SubgradientUpdate: a4.subgradient}[rule]
    expected = [m.copy() for m in mults]
    expected_mus = [oracle(m, k, a, d, p, power_cap=pc, noise=nz)
                    for m, k, a, d, p, pc, nz in zip(
                        expected, ks, arrival, delays, problems, power_caps,
                        noises)]
    got = [m.copy() for m in mults]
    mus = rule().apply_batch(got, ks, np.column_stack(arrival),
                             np.column_stack(delays), problems, power_caps,
                             noises)
    assert mus == expected_mus
    for e, g in zip(expected, got):
        assert g.lam_edge.tobytes() == e.lam_edge.tobytes()
        assert g.beta == e.beta and g.gamma == e.gamma
