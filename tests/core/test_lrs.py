"""LRS subproblem solver (Fig. 8 / Theorem 5)."""

import numpy as np
import pytest
from scipy import optimize

from repro.core import LagrangianSubproblemSolver, MultiplierState, SizingProblem
from repro.timing import CouplingDelayMode, ElmoreEngine


@pytest.fixture(scope="module")
def setup(small_circuit, small_coupling):
    cc = small_circuit.compile()
    engine = ElmoreEngine(cc, small_coupling)
    mult = MultiplierState.initial(cc, beta=1e-3, gamma=1e-3)
    return cc, engine, mult


def lagrangian_without_constants(engine, mult, x):
    """Σαx + Σλ_i D_i + β·Σc + γ·X — the x-dependent part of L."""
    cc = engine.compiled
    lam_node = mult.node_multipliers()
    return (
        float(np.sum(cc.alpha[cc.is_sizable] * x[cc.is_sizable]))
        + float(np.dot(lam_node, engine.delays(x)))
        + mult.beta * float(np.sum(cc.self_capacitance(x)))
        + mult.gamma * engine.coupling.total(x)
    )


class TestFixedPoint:
    def test_converges(self, setup):
        _, engine, mult = setup
        result = LagrangianSubproblemSolver(engine).solve(mult)
        assert result.converged
        assert result.max_rel_change <= 1e-7

    def test_solution_within_bounds(self, setup):
        cc, engine, mult = setup
        x = LagrangianSubproblemSolver(engine).solve(mult).x
        mask = cc.is_sizable
        assert np.all(x[mask] >= cc.lower[mask] - 1e-12)
        assert np.all(x[mask] <= cc.upper[mask] + 1e-12)
        assert np.all(x[~mask] == 0.0)

    def test_start_point_independent(self, setup):
        """LRS₂ has a unique optimum: cold and warm starts agree."""
        cc, engine, mult = setup
        solver = LagrangianSubproblemSolver(engine)
        cold = solver.solve(mult).x
        warm = solver.solve(mult, x0=cc.default_sizes(np.inf)).x
        np.testing.assert_allclose(cold[cc.is_sizable], warm[cc.is_sizable],
                                   rtol=1e-5)

    def test_zero_multipliers_give_minimum_sizes(self, setup):
        """With λ = β = γ = 0, L = area: the optimum is x = L."""
        cc, engine, _ = setup
        mult0 = MultiplierState(cc)  # all zeros
        x = LagrangianSubproblemSolver(engine).solve(mult0).x
        np.testing.assert_allclose(x[cc.is_sizable], cc.lower[cc.is_sizable])

    def test_each_pass_does_not_increase_lagrangian(self, setup):
        cc, engine, mult = setup
        solver = LagrangianSubproblemSolver(engine, max_passes=1, tolerance=0.0)
        x = cc.lower.copy() * cc.is_sizable
        prev = lagrangian_without_constants(engine, mult, cc.clip_sizes(x))
        for _ in range(8):
            x = solver.solve(mult, x0=x).x
            cur = lagrangian_without_constants(engine, mult, x)
            assert cur <= prev + abs(prev) * 1e-9
            prev = cur


class TestAgainstScipy:
    def test_matches_box_constrained_minimum(self, small_circuit,
                                             small_coupling):
        """The LRS fixed point minimizes L over the box (certified by
        L-BFGS-B on the same function)."""
        cc = small_circuit.compile()
        engine = ElmoreEngine(cc, small_coupling)
        mult = MultiplierState.initial(cc, beta=2e-3, gamma=5e-3)
        ours = LagrangianSubproblemSolver(engine).solve(mult).x
        ours_val = lagrangian_without_constants(engine, mult, ours)

        sizable = np.flatnonzero(cc.is_sizable)

        def fun(z):
            x = np.zeros(cc.num_nodes)
            x[sizable] = z
            return lagrangian_without_constants(engine, mult, x)

        res = optimize.minimize(
            fun, ours[sizable] * 1.5,
            bounds=list(zip(cc.lower[sizable], cc.upper[sizable])),
            method="L-BFGS-B", options={"maxiter": 500})
        # Ours should be at least as good (up to numerical slack).
        assert ours_val <= res.fun * (1 + 1e-6)


class TestTheorem5Formula:
    def test_interior_fixed_point_is_stationary(self, setup):
        """At interior coordinates, ∂L/∂x_i = 0 numerically."""
        cc, engine, mult = setup
        x = LagrangianSubproblemSolver(engine).solve(mult).x
        interior = [
            i for i in np.flatnonzero(cc.is_sizable)
            if cc.lower[i] + 1e-6 < x[i] < cc.upper[i] - 1e-6
        ]
        if not interior:
            pytest.skip("no interior coordinates at this multiplier point")
        h = 1e-6
        for i in interior[:10]:
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            grad = (lagrangian_without_constants(engine, mult, xp)
                    - lagrangian_without_constants(engine, mult, xm)) / (2 * h)
            scale = max(1.0, abs(lagrangian_without_constants(engine, mult, x)))
            assert abs(grad) / scale < 1e-4

    def test_boundary_coordinates_push_outward(self, setup):
        """At x_i = L_i the one-sided derivative must be ≥ 0 (KKT)."""
        cc, engine, mult = setup
        x = LagrangianSubproblemSolver(engine).solve(mult).x
        at_lower = [i for i in np.flatnonzero(cc.is_sizable)
                    if x[i] <= cc.lower[i] + 1e-9]
        h = 1e-6
        base = lagrangian_without_constants(engine, mult, x)
        for i in at_lower[:10]:
            xp = x.copy()
            xp[i] += h
            assert lagrangian_without_constants(engine, mult, xp) >= base - abs(base) * 1e-9


class TestModesAndErrors:
    def test_pass_budget_returns_unconverged(self, setup):
        """An exhausted pass budget is reported, not raised: the result
        carries the last pass's iterate."""
        cc, engine, mult = setup
        result = LagrangianSubproblemSolver(engine, tolerance=0.0,
                                            max_passes=2).solve(mult)
        assert result.passes == 2
        assert not result.converged
        assert result.max_rel_change > 0.0
        mask = cc.is_sizable
        assert np.all(result.x[mask] >= cc.lower[mask])
        assert np.all(result.x[mask] <= cc.upper[mask])
        more = LagrangianSubproblemSolver(engine, tolerance=0.0,
                                          max_passes=3).solve(mult)
        assert more.passes == 3
        assert not np.array_equal(more.x, result.x)

    def test_propagated_mode_solves(self, small_circuit, small_coupling):
        cc = small_circuit.compile()
        engine = ElmoreEngine(cc, small_coupling, CouplingDelayMode.PROPAGATED)
        mult = MultiplierState.initial(cc)
        result = LagrangianSubproblemSolver(engine).solve(mult)
        assert result.converged

    def test_lagrangian_value_includes_constants(self, setup):
        cc, engine, mult = setup
        solver = LagrangianSubproblemSolver(engine)
        x = solver.solve(mult).x
        problem = SizingProblem(delay_bound_ps=1000.0, noise_bound_ff=50.0,
                                power_cap_bound_ff=500.0)
        value = solver.lagrangian_value(x, mult, problem)
        raw = lagrangian_without_constants(engine, mult, x)
        expected = (raw - mult.beta * problem.power_cap_bound_ff
                    - mult.gamma * problem.noise_bound_ff
                    - problem.delay_bound_ps * mult.sink_flow())
        assert value == pytest.approx(expected, rel=1e-12)
