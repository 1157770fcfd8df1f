"""OGWS edge cases and configuration paths."""

import numpy as np
import pytest

from repro.core import (
    LagrangianSubproblemSolver,
    MultiplierState,
    OGWSOptimizer,
    SizingProblem,
)
from repro.core.ogws import FEASIBILITY_TOLERANCE, repair_lockstep
from repro.timing import ElmoreEngine
from repro.timing.metrics import EvalContext, evaluate_metrics
from repro.utils.units import FF_PER_PF


@pytest.fixture(scope="module")
def engine(small_circuit, small_coupling):
    return ElmoreEngine(small_circuit.compile(), small_coupling)


@pytest.fixture(scope="module")
def problem(engine):
    return SizingProblem.from_initial(
        engine, engine.compiled.default_sizes(np.inf))


def test_single_iteration_budget(engine, problem):
    result = OGWSOptimizer(engine, problem, max_iterations=1).run()
    assert result.iterations == 1
    assert not result.converged


def test_every_lrs_call_after_the_first_is_warm_started(engine, problem,
                                                        monkeypatch):
    """A3 starts from the box's lower corner once, then from the
    previous iterate."""
    calls = []
    solve_batch = LagrangianSubproblemSolver.solve_batch

    def tracing(self, multipliers, x0s=None):
        results = solve_batch(self, multipliers, x0s)
        calls.append((list(x0s), [r.x for r in results]))
        return results

    monkeypatch.setattr(LagrangianSubproblemSolver, "solve_batch", tracing)
    result = OGWSOptimizer(engine, problem, max_iterations=5).run()
    assert len(calls) == result.iterations >= 2
    assert calls[0][0] == [None]
    for (_, [previous]), ([x0], _) in zip(calls, calls[1:]):
        assert x0 is previous


@pytest.mark.parametrize("constraint", ["delay", "noise", "power"])
def test_feasibility_tolerance_is_the_verdict_threshold(engine, constraint):
    """A point over one bound by half of FEASIBILITY_TOLERANCE is
    feasible and over it by twice that is not, in both the eager verdict
    of every iterate and the lazy one of every repair candidate."""
    x = engine.compiled.default_sizes(1.0)
    metrics = evaluate_metrics(engine, x)
    values = {"delay": metrics.delay_ps,
              "noise": metrics.noise_pf * FF_PER_PF,
              "power": metrics.total_cap_ff}
    for over, feasible in ((0.5, True), (2.0, False)):
        bounds = {name: 2.0 * value for name, value in values.items()}
        bounds[constraint] = values[constraint] / (
            1.0 + over * FEASIBILITY_TOLERANCE)
        problem = SizingProblem(delay_bound_ps=bounds["delay"],
                                noise_bound_ff=bounds["noise"],
                                power_cap_bound_ff=bounds["power"])
        optimizer = OGWSOptimizer(engine, problem)
        assert problem.is_feasible(metrics, FEASIBILITY_TOLERANCE) is feasible
        assert optimizer._feasible_lazy(EvalContext(engine, x)) is feasible


def test_repair_produces_feasible_blend(engine):
    """repair_lockstep returns a feasible point between anchor and iterate."""
    cc = engine.compiled
    # A problem where a fat uniform anchor is certainly feasible: bounds
    # taken at x = 2 with generous slack.
    mid_metrics = evaluate_metrics(engine, cc.default_sizes(2.0))
    problem = SizingProblem(
        delay_bound_ps=mid_metrics.delay_ps * 1.2,
        noise_bound_ff=mid_metrics.noise_pf * 1e3 * 1.2,
        power_cap_bound_ff=mid_metrics.total_cap_ff * 1.2,
    )
    opt = OGWSOptimizer(engine, problem)
    anchor = cc.default_sizes(2.0)
    assert problem.is_feasible(mid_metrics, FEASIBILITY_TOLERANCE)
    x_bad = cc.default_sizes(0.0)  # min sizes: delay blows the bound
    assert not problem.is_feasible(evaluate_metrics(engine, x_bad),
                                   FEASIBILITY_TOLERANCE)
    state = opt.start(MultiplierState.initial(cc))
    [(repaired, metrics)] = repair_lockstep(
        engine, [(opt, state, x_bad, anchor)])
    assert repaired is not None
    assert problem.is_feasible(metrics, FEASIBILITY_TOLERANCE)
    # The repair moves off the anchor toward the (cheaper) iterate.
    anchor_area = float(np.sum(cc.alpha[cc.is_sizable] * anchor[cc.is_sizable]))
    assert metrics.area_um2 < anchor_area


def test_extreme_bounds_do_not_crash(engine):
    """Absurd bounds terminate cleanly in both directions."""
    loose = SizingProblem(1e12, 1e12, 1e12)
    res = OGWSOptimizer(engine, loose, max_iterations=40).run()
    assert res.feasible
    cc = engine.compiled
    np.testing.assert_allclose(res.x[cc.is_sizable], cc.lower[cc.is_sizable])

    hopeless = SizingProblem(1e-9, 1e-9, 1e-9)
    res = OGWSOptimizer(engine, hopeless, max_iterations=40).run()
    assert not res.feasible
    assert res.duality_gap == np.inf


def test_tiny_single_gate_circuit():
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder()
    a = b.add_input("a")
    g = b.add_gate("not", [a], name="g")
    b.set_output(g)
    circuit = b.build()
    cc = circuit.compile()
    engine = ElmoreEngine(cc)
    problem = SizingProblem.from_initial(
        engine, cc.default_sizes(np.inf), noise_fraction=1e9)
    result = OGWSOptimizer(engine, problem, max_iterations=200).run()
    assert result.feasible
    assert result.metrics.delay_ps <= problem.delay_bound_ps * 1.001


def test_wide_fanin_gate_circuit():
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder()
    ins = [b.add_input(f"i{k}") for k in range(4)]
    g = b.add_gate("nand", ins, name="wide")
    b.set_output(g)
    circuit = b.build()
    engine = ElmoreEngine(circuit.compile())
    x = circuit.compile().default_sizes(1.0)
    delays = engine.delays(x)
    arrival = engine.arrival_times(delays)
    assert arrival[circuit.sink_index] > 0


def test_long_chain_circuit():
    """A 60-stage inverter chain: deep level schedule, single path."""
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder()
    node = b.add_input("a")
    for k in range(60):
        node = b.add_gate("not", [node], name=f"inv{k}")
    b.set_output(node)
    circuit = b.build()
    cc = circuit.compile()
    engine = ElmoreEngine(cc)
    problem = SizingProblem.from_initial(
        engine, cc.default_sizes(np.inf), noise_fraction=1e9)
    result = OGWSOptimizer(engine, problem, max_iterations=300).run()
    assert result.feasible
    assert result.converged
