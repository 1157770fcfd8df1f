"""A lockstep solve reuses what it already computed.

* ``finish`` reports the metrics its point's evaluation produced (the
  iterate's ``EvalContext`` or the repair's accepted candidate) and
  makes no sweep; they equal ``evaluate_metrics`` at the reported point
  exactly.
* ``run_lockstep`` builds the A1 start once per call and hands every
  column its own copy.
"""

import functools
from unittest import mock

import numpy as np
import pytest

from repro.core import MultiplierState, ogws
from repro.core.ogws import OGWSOptimizer, run_lockstep
from repro.core.problem import SizingProblem
from repro.core.session import SolverSession
from repro.runtime import CircuitRef
from repro.timing import ElmoreEngine, kernels
from repro.timing.metrics import evaluate_metrics

MODES = ("own", "none", "propagated")
GRID = ((1.1, 0.1), (1.05, 0.12), (1.2, 0.08), (1.02, 0.15))


@functools.lru_cache(maxsize=None)
def _engine(seed, mode):
    """``(engine, x_init, initial metrics)`` over a small random circuit."""
    session = SolverSession.for_ref(CircuitRef.random(40, 6, 4, seed=seed))
    engine = session.engine("woss", 64, 0, "similarity", 2, mode)
    x_init = engine.compiled.default_sizes(np.inf)
    return engine, x_init, evaluate_metrics(engine, x_init)


def _optimizers(mode, update, width, seed=1, max_iterations=40):
    engine, x_init, initial = _engine(seed, mode)
    return engine, [
        OGWSOptimizer(engine, SizingProblem.from_initial(
            engine, x_init, delay_slack=slack, noise_fraction=noise,
            metrics=initial), x_init=x_init, initial_metrics=initial,
            update=update, max_iterations=max_iterations)
        for slack, noise in GRID[:width]]


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("update", ["multiplicative", "subgradient"])
@pytest.mark.parametrize("mode", MODES)
def test_finish_reports_the_metrics_of_its_point(mode, update, width):
    engine, optimizers = _optimizers(mode, update, width)
    for result in run_lockstep(optimizers):
        assert result.metrics == evaluate_metrics(engine, result.x)


def test_finish_reports_a_repaired_point_with_its_metrics():
    """A best point found by the primal repair keeps the repair's
    metrics, equal to evaluating it again."""
    engine, optimizers = _optimizers("own", "multiplicative", 4)
    accepted = []
    repair = ogws.repair_lockstep

    def recording(engine_, columns):
        best = repair(engine_, columns)
        accepted.extend(sizes for sizes, _ in best if sizes is not None)
        return best

    with mock.patch.object(ogws, "repair_lockstep", recording):
        results = run_lockstep(optimizers)
    repaired = [r for r in results
                if any(r.x is sizes for sizes in accepted)]
    assert repaired
    for result in repaired:
        assert result.feasible
        assert result.metrics == evaluate_metrics(engine, result.x)


def _events(optimizers):
    """Run in lockstep, logging projections, arrival sweeps and delays."""
    events = []
    arrival, project = kernels.arrival_sweep, kernels.project_sweep
    delays = ElmoreEngine.delays

    def counted_arrival(*args):
        events.append("arrival")
        return arrival(*args)

    def counted_project(*args):
        events.append("project")
        return project(*args)

    def counted_delays(engine, *args, **kwargs):
        events.append("delays")
        return delays(engine, *args, **kwargs)

    with mock.patch.object(kernels, "arrival_sweep", counted_arrival), \
            mock.patch.object(kernels, "project_sweep", counted_project), \
            mock.patch.object(ElmoreEngine, "delays", counted_delays):
        results = run_lockstep(optimizers)
    return events, results


@pytest.mark.parametrize("width", [1, 3])
def test_finish_makes_no_sweep(width):
    """Nothing after the last Theorem 3 projection sweeps the circuit:
    the evaluations ``finish`` once made are gone."""
    _, optimizers = _optimizers("own", "multiplicative", width)
    events, results = _events(optimizers)
    last = len(events) - 1 - events[::-1].index("project")
    assert events[last + 1:] == []
    # One projection for the shared A1 start, then one per iteration.
    assert events.count("project") == 1 + max(r.iterations for r in results)


def test_each_column_starts_from_its_own_copy_of_one_a1_start():
    engine, optimizers = _optimizers("own", "multiplicative", 3)
    compiled = engine.compiled
    expected = MultiplierState.initial(compiled).lam_edge
    starts, built = [], []
    start = OGWSOptimizer.start
    initial = MultiplierState.initial.__func__

    def recording_start(opt, multipliers):
        state = start(opt, multipliers)
        mult = state.mult
        starts.append((mult.lam_edge, mult.lam_edge.copy()))
        return state

    def counted_initial(cls, *args, **kwargs):
        built.append(1)
        return initial(cls, *args, **kwargs)

    with mock.patch.object(OGWSOptimizer, "start", recording_start), \
            mock.patch.object(MultiplierState, "initial",
                              classmethod(counted_initial)):
        run_lockstep(optimizers)
        assert len(built) == 1
        assert len(starts) == 3
        for k, (array, values) in enumerate(starts):
            np.testing.assert_array_equal(values, expected)
            for other, _ in starts[k + 1:]:
                assert not np.shares_memory(array, other)
