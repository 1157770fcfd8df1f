"""Noise-blind sizing: the same OGWS with the crosstalk bound relaxed.

The baseline the paper argues against sizes for area under the delay and
power bounds alone.  ``examples/noise_delay_tradeoff.py`` runs it as an
:class:`OGWSOptimizer` on a :class:`SizingProblem` whose noise bound is
multiplied by 1e6, then reads the noise its sizing produces under the
full similarity-weighted model.
"""

import pytest

from repro.core import OGWSOptimizer, SizingProblem
from repro.core.ogws import FEASIBILITY_TOLERANCE
from repro.timing.metrics import evaluate_metrics
from repro.utils.units import FF_PER_PF


@pytest.fixture(scope="module")
def blind(small_flow_result):
    problem = small_flow_result.problem
    relaxed = SizingProblem(
        delay_bound_ps=problem.delay_bound_ps,
        noise_bound_ff=problem.noise_bound_ff * 1e6,
        power_cap_bound_ff=problem.power_cap_bound_ff,
    )
    return OGWSOptimizer(small_flow_result.engine, relaxed,
                         max_iterations=150).run()


def test_measured_noise_reported_against_tight_bound(blind, small_flow_result):
    """The reported metrics are the full model's at the reported sizing,
    so the noise read against the tight bound is the true crosstalk."""
    engine = small_flow_result.engine
    assert blind.metrics == evaluate_metrics(engine, blind.x)
    assert blind.metrics.noise_pf * FF_PER_PF == pytest.approx(
        engine.coupling.total(blind.x), rel=1e-12)


def test_blind_area_never_worse_than_constrained(blind, small_flow_result):
    """Dropping a constraint can only help the objective."""
    assert blind.feasible
    assert blind.metrics.area_um2 <= \
        small_flow_result.sizing.metrics.area_um2 * (1 + 1e-6)


def test_blind_solution_meets_delay(blind, small_flow_result):
    assert blind.metrics.delay_ps <= \
        small_flow_result.problem.delay_bound_ps * (1 + FEASIBILITY_TOLERANCE)
