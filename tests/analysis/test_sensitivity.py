"""Shadow prices — the duality identity, validated numerically."""

import pytest

from repro.analysis.sensitivity import (
    bound_sweep,
    shadow_prices,
    validate_shadow_prices,
)
from repro.core import NoiseAwareSizingFlow


@pytest.fixture(scope="module")
def converged():
    from repro.circuit import random_circuit

    circuit = random_circuit(30, 6, 4, seed=2, target_depth=8)
    flow = NoiseAwareSizingFlow(
        circuit, n_patterns=64,
        optimizer_options={"max_iterations": 400, "tolerance": 0.002})
    return flow.run()


def test_prices_nonnegative(converged):
    prices = shadow_prices(converged.sizing)
    assert prices.delay >= 0
    assert prices.noise >= 0
    assert prices.power >= 0


def test_prices_read_the_final_multipliers(converged):
    """Delay is priced by the sink flow, power by β and the one global
    crosstalk bound by the scalar γ."""
    prices = shadow_prices(converged.sizing)
    mult = converged.sizing.multipliers
    assert prices.delay == mult.sink_flow()
    assert prices.noise == mult.gamma
    assert prices.power == mult.beta
    assert all(type(p) is float for p in (prices.delay, prices.noise,
                                          prices.power))


def test_delay_price_positive_when_binding(converged):
    """The delay bound binds (final delay ≈ A0), so its price is > 0."""
    sizing = converged.sizing
    assert sizing.metrics.delay_ps > 0.9 * converged.problem.delay_bound_ps
    assert shadow_prices(sizing).delay > 0


def test_slack_constraints_have_tiny_prices(converged):
    """Power ends far below its bound -> β* ≈ 0 (complementary slackness)."""
    prices = shadow_prices(converged.sizing)
    v = converged.problem.violations(converged.sizing.metrics)
    if v["power"] < -0.3:
        scale = converged.sizing.metrics.area_um2 / \
            converged.problem.power_cap_bound_ff
        assert prices.power < 1e-3 * scale


def test_finite_difference_validation(converged):
    """−ΔA*/Δbound matches the multipliers (the core duality identity)."""
    checks = validate_shadow_prices(converged.engine, converged.problem,
                                    converged.sizing, rel_step=0.05)
    for check in checks:
        assert check.passed(rel_tol=0.3), (
            f"{check.bound}: predicted {check.predicted:.4g} vs "
            f"measured {check.measured:.4g}")


def test_bound_sweep_monotone(converged):
    """Tightening the delay bound never shrinks the optimal area, and the
    shadow price grows along the frontier."""
    rows = bound_sweep(converged.engine, converged.problem, "delay",
                       factors=[1.2, 1.0, 0.9],
                       optimizer_options={"max_iterations": 300})
    feasible = [r for r in rows if r[4]]
    assert len(feasible) >= 2
    # Rows are ordered loose -> tight; areas must be non-decreasing.
    areas = [r[2] for r in feasible]
    assert all(a <= b * (1 + 1e-3) for a, b in zip(areas, areas[1:]))
    prices = [r[3] for r in feasible]
    assert prices[-1] >= prices[0] - 1e-9

