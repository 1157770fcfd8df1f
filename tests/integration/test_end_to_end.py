"""End-to-end integration: parser → simulation → ordering → sizing."""

import numpy as np
import pytest

from repro import NoiseAwareSizingFlow, check_kkt, evaluate_metrics
from repro.core.ogws import FEASIBILITY_TOLERANCE


@pytest.fixture(scope="module")
def c17_flow(c17):
    flow = NoiseAwareSizingFlow(c17, n_patterns=128,
                                optimizer_options={"max_iterations": 300})
    return flow.run()


def test_c17_flow_converges_feasible(c17_flow):
    s = c17_flow.sizing
    assert s.converged and s.feasible
    assert s.duality_gap <= 0.02


def test_c17_noise_respects_bound(c17_flow):
    noise_ff = c17_flow.sizing.metrics.noise_pf * 1e3
    assert noise_ff <= c17_flow.problem.noise_bound_ff * (1 + 2e-3)


def test_c17_delay_respects_bound(c17_flow):
    bound = c17_flow.problem.delay_bound_ps
    assert c17_flow.sizing.metrics.delay_ps <= bound * (1 + FEASIBILITY_TOLERANCE)


def test_c17_kkt_certificate(c17_flow):
    kkt = check_kkt(c17_flow.engine, c17_flow.problem, c17_flow.sizing.x,
                    c17_flow.sizing.multipliers)
    assert kkt.flow_conservation < 1e-8
    assert kkt.primal_feasibility < 2e-3


def test_flow_deterministic(c17):
    a = NoiseAwareSizingFlow(c17, n_patterns=64, seed=3,
                             optimizer_options={"max_iterations": 60}).run()
    b = NoiseAwareSizingFlow(c17, n_patterns=64, seed=3,
                             optimizer_options={"max_iterations": 60}).run()
    np.testing.assert_array_equal(a.sizing.x, b.sizing.x)
    assert a.sizing.iterations == b.sizing.iterations


def test_figure1_full_pipeline(figure1_circuit):
    flow = NoiseAwareSizingFlow(figure1_circuit, n_patterns=128,
                                bound_factors=(1.1, 0.25, 0.3),
                                optimizer_options={"max_iterations": 400})
    result = flow.run()
    assert result.sizing.feasible
    # The PO driver gate carries the load: it must end above minimum size.
    g3 = figure1_circuit.node_by_name("g3")
    assert result.sizing.x[g3.index] > g3.lower * 1.5


def test_metrics_at_solution_consistent_with_summary(c17_flow):
    m = evaluate_metrics(c17_flow.engine, c17_flow.sizing.x)
    assert m.area_um2 == pytest.approx(c17_flow.sizing.metrics.area_um2)
    text = c17_flow.sizing.summary()
    assert f"{m.area_um2:.0f}" in text
