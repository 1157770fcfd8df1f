"""OGWS outer loop (Fig. 9)."""

import numpy as np
import pytest

from repro.core import OGWSOptimizer, SizingProblem
from repro.core.subgradient import (
    UPDATE_RULES,
    MultiplicativeUpdate,
    SubgradientUpdate,
)
from repro.timing import ElmoreEngine, evaluate_metrics
from repro.utils.errors import ConvergenceError, ValidationError
from repro.utils.units import FF_PER_PF


@pytest.fixture(scope="module")
def engine(small_circuit, small_coupling):
    return ElmoreEngine(small_circuit.compile(), small_coupling)


@pytest.fixture(scope="module")
def problem(engine):
    x_init = engine.compiled.default_sizes(np.inf)
    return SizingProblem.from_initial(engine, x_init)


@pytest.fixture(scope="module")
def result(engine, problem):
    return OGWSOptimizer(engine, problem, max_iterations=300).run()


class TestConvergence:
    def test_converges_feasible_within_paper_precision(self, result):
        assert result.converged
        assert result.feasible
        assert result.duality_gap <= 0.02  # 1% target + feasibility slack

    def test_final_solution_meets_all_bounds(self, result, problem):
        v = problem.violations(result.metrics)
        for name, value in v.items():
            assert value <= 2e-3, f"{name} violated: {value}"

    def test_sizes_within_box(self, result, engine):
        cc = engine.compiled
        mask = cc.is_sizable
        assert np.all(result.x[mask] >= cc.lower[mask] - 1e-12)
        assert np.all(result.x[mask] <= cc.upper[mask] + 1e-12)

    def test_area_between_dual_and_initial(self, result):
        assert result.dual_value <= result.metrics.area_um2 * (1 + 1e-9)
        assert result.metrics.area_um2 < result.initial_metrics.area_um2

    def test_history_recorded(self, result):
        assert len(result.history) == result.iterations
        last = result.history[-1]
        assert last.paper_gap <= 0.01
        assert last.feasible

    def test_dual_values_bounded_by_feasible_area(self, result):
        """Weak duality: every dual value ≤ every feasible area."""
        feasible_areas = [r.area_um2 for r in result.history if r.feasible]
        max_dual = max(r.dual_value for r in result.history)
        assert max_dual <= min(feasible_areas) * (1 + 1e-6)


class TestRules:
    def test_subgradient_rule_also_converges(self, engine, problem):
        res = OGWSOptimizer(engine, problem, update="subgradient",
                            max_iterations=800).run()
        assert res.feasible
        assert res.duality_gap < 0.2  # slower; just needs to be sane

    def test_multiplicative_faster_than_subgradient(self, engine, problem):
        fast = OGWSOptimizer(engine, problem, update="multiplicative",
                             max_iterations=800).run()
        slow = OGWSOptimizer(engine, problem, update="subgradient",
                             max_iterations=800).run()
        assert fast.iterations <= slow.iterations

    def test_unknown_update_rejected(self, engine, problem):
        with pytest.raises(ValidationError):
            OGWSOptimizer(engine, problem, update="nonsense")
        with pytest.raises(ValidationError):
            OGWSOptimizer(engine, problem, update=object())

    @pytest.mark.parametrize("name", ["multiplicative", "subgradient"])
    def test_update_rule_by_name(self, engine, problem, name):
        update = OGWSOptimizer(engine, problem, update=name).update
        assert type(update) is UPDATE_RULES[name]
        assert update.name == name

    def test_multiplicative_is_the_default(self, engine, problem):
        update = OGWSOptimizer(engine, problem).update
        assert type(update) is MultiplicativeUpdate

    @pytest.mark.parametrize("rule", [MultiplicativeUpdate, SubgradientUpdate])
    def test_rule_objects_rejected(self, engine, problem, rule):
        """A4 is named, never injected: only the two names select it."""
        with pytest.raises(ValidationError, match="multiplicative"):
            OGWSOptimizer(engine, problem, update=rule())


class TestReporting:
    def test_initial_metrics_at_upper_bound_default(self, engine, problem):
        res = OGWSOptimizer(engine, problem, max_iterations=5).run()
        x_up = engine.compiled.default_sizes(np.inf)
        expected = evaluate_metrics(engine, x_up)
        assert res.initial_metrics.area_um2 == pytest.approx(expected.area_um2)

    def test_infeasible_problem_flagged(self, engine):
        impossible = SizingProblem(delay_bound_ps=1e-3, noise_bound_ff=1e-3,
                                   power_cap_bound_ff=1e-3)
        res = OGWSOptimizer(engine, impossible, max_iterations=30).run()
        assert not res.feasible
        assert not res.converged
        assert res.duality_gap == np.inf

    def test_noise_pinned_near_bound_or_below(self, result, problem):
        noise_ff = result.metrics.noise_pf * FF_PER_PF
        assert noise_ff <= problem.noise_bound_ff * (1 + 2e-3)

    def test_memory_estimate_positive_and_linearish(self, engine, problem):
        opt = OGWSOptimizer(engine, problem)
        assert opt.memory_estimate() > engine.compiled.nbytes

    def test_summary_mentions_key_numbers(self, result):
        text = result.summary()
        assert "duality gap" in text
        assert "area" in text and "noise" in text

    def test_improvements_shape(self, result):
        imp = result.improvements
        # Noise improvement ~90% (bound at 10% of initial), area large,
        # delay small — the Table 1 shape.
        assert imp["noise"] > 80.0
        assert imp["area"] > 80.0
        assert abs(imp["delay"]) < 30.0

    def test_tolerance_validated(self, engine, problem):
        with pytest.raises(ValidationError):
            OGWSOptimizer(engine, problem, tolerance=0.0)


class TestFiniteOrFail:
    def test_non_finite_multipliers_never_leave_the_solver(
            self, engine, problem, monkeypatch):
        apply_batch = MultiplicativeUpdate.apply_batch

        def poison_beta(self, multipliers, *args):
            steps = apply_batch(self, multipliers, *args)
            for m in multipliers:
                m.beta = float("inf")
            return steps

        monkeypatch.setattr(MultiplicativeUpdate, "apply_batch", poison_beta)
        optimizer = OGWSOptimizer(engine, problem, max_iterations=1)
        with pytest.raises(ConvergenceError, match="multipliers"):
            optimizer.run()
