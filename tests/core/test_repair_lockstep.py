"""The merged primal repair against the one-column oracle.

:func:`repro.core.ogws.repair_lockstep` runs bisection level ℓ of every
repairing lockstep column in one batched delay sweep and one batched
arrival sweep.  Each column must come out exactly as the sequential
repair in ``tests/oracles/repair.py`` leaves it when run alone: the same
sizes, metrics and ``repair_evals``, and ``(None, None)`` when the
anchor sits on the boundary.
"""

import functools
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.repair import repair as oracle_repair
from repro.core import (
    LagrangianSubproblemSolver,
    MultiplierState,
    OGWSOptimizer,
    SizingProblem,
    ogws,
)
from repro.core.ogws import REPAIR_BISECTIONS, repair_lockstep, run_lockstep
from repro.core.session import SolverSession
from repro.runtime import CircuitRef
from repro.timing import kernels
from repro.timing.metrics import evaluate_metrics

MODES = ("own", "none", "propagated")


@functools.lru_cache(maxsize=None)
def _engine(seed, mode):
    """``(engine, x_init, initial metrics)`` over a small random circuit."""
    session = SolverSession.for_ref(CircuitRef.random(40, 6, 4, seed=seed))
    engine = session.engine("woss", 64, 0, "similarity", 2, mode)
    x_init = engine.compiled.default_sizes(np.inf)
    return engine, x_init, evaluate_metrics(engine, x_init)


def _optimizer(engine, x_init, initial, slack, noise, max_iterations=40):
    problem = SizingProblem.from_initial(engine, x_init, delay_slack=slack,
                                         noise_fraction=noise,
                                         metrics=initial)
    return OGWSOptimizer(engine, problem, x_init=x_init,
                         initial_metrics=initial,
                         max_iterations=max_iterations)


def _start(opt):
    """A fresh run state for ``opt`` (its repair-evaluation counter)."""
    return opt.start(MultiplierState.initial(opt.engine.compiled))


def _boundary_column(engine, x_init):
    """A column whose anchor sits on the delay boundary.

    The anchor is the all-upper-bound sizing and the iterate the
    all-lower-bound one; shrinking every size toward its lower bound
    raises the delay, so with the delay bound at the anchor's delay and
    no tolerance (``ogws.FEASIBILITY_TOLERANCE`` patched to 0 around its
    repair) every blend strictly between them is infeasible.
    """
    cc = engine.compiled
    anchor = x_init.copy()
    metrics = evaluate_metrics(engine, anchor)
    problem = SizingProblem(delay_bound_ps=metrics.delay_ps,
                            noise_bound_ff=1e30, power_cap_bound_ff=1e30)
    opt = OGWSOptimizer(engine, problem, x_init=x_init,
                        initial_metrics=metrics)
    return opt, _start(opt), cc.default_sizes(0.0), anchor


def _no_tolerance():
    return mock.patch.object(ogws, "FEASIBILITY_TOLERANCE", 0.0)


def _repair_checked(engine, columns, merged=repair_lockstep):
    """``merged(engine, columns)``, each column asserted equal to the oracle."""
    expected = []
    for opt, state, x, anchor in columns:
        probe = types.SimpleNamespace(repair_evals=state.repair_evals)
        sizes, metrics = oracle_repair(opt, x, anchor, state=probe)
        expected.append((sizes, metrics, probe.repair_evals))
    got = merged(engine, columns)
    assert len(got) == len(columns)
    for (_, state, _, _), (sizes, metrics), (ref_sizes, ref_metrics, evals) \
            in zip(columns, got, expected):
        assert state.repair_evals == evals
        if ref_sizes is None:
            assert sizes is None and metrics is None
            continue
        assert sizes.dtype == ref_sizes.dtype
        assert sizes.tobytes() == ref_sizes.tobytes()
        assert metrics == ref_metrics
    return got


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3), mode=st.sampled_from(MODES),
       columns=st.lists(st.tuples(
           st.sampled_from((1.02, 1.1, 1.2)),
           st.sampled_from((0.08, 0.1, 0.15, 0.3))), min_size=2, max_size=5),
       boundary=st.integers(0, 5))
def test_merged_repair_equals_sequential_oracle(seed, mode, columns,
                                                boundary):
    engine, x_init, initial = _engine(seed, mode)
    optimizers = [_optimizer(engine, x_init, initial, slack, noise)
                  for slack, noise in columns]
    # Every merged repair of a lockstep run, checked as it happens.
    calls = []

    def checked(engine_, batch):
        calls.append(len(batch))
        return _repair_checked(engine_, batch)

    with mock.patch.object(ogws, "repair_lockstep", checked):
        results = run_lockstep(optimizers)
    assert sum(r.repair_evals for r in results) == \
        REPAIR_BISECTIONS * sum(calls)

    # One direct call over all K columns, each from its own best point
    # toward the all-lower-bound iterate, with a boundary column
    # spliced in.
    batch = [(opt, _start(opt), engine.compiled.default_sizes(0.0), r.x)
             for opt, r in zip(optimizers, results) if r.feasible]
    edge = _boundary_column(engine, x_init)
    batch.insert(boundary % (len(batch) + 1), edge)
    with _no_tolerance():
        got = _repair_checked(engine, batch)
    assert got[batch.index(edge)] == (None, None)
    assert edge[1].repair_evals == REPAIR_BISECTIONS


@pytest.mark.parametrize("mode", MODES)
def test_boundary_anchor_gives_no_repair(mode):
    engine, x_init, _ = _engine(0, mode)
    column = _boundary_column(engine, x_init)
    with _no_tolerance():
        assert _repair_checked(engine, [column]) == [(None, None)]


def _sweep_log(optimizers):
    """Run in lockstep; per iteration, the widths of its arrival sweeps.

    An iteration runs from its batched LRS solve (A3) to its Theorem 3
    projection (A5); the evaluations before the first and after the
    last are not part of any.
    """
    iterations, current = [], None
    arrival = kernels.arrival_sweep
    project = kernels.project_sweep
    solve_batch = LagrangianSubproblemSolver.solve_batch

    def counted_solve(solver, *args, **kwargs):
        nonlocal current
        current = []
        return solve_batch(solver, *args, **kwargs)

    def counted_arrival(plan, delays, out, ws):
        if current is not None:
            current.append(delays.shape[1] if delays.ndim == 2 else 1)
        return arrival(plan, delays, out, ws)

    def counted_project(plan, lam):
        nonlocal current
        if current is not None:
            iterations.append(current)
            current = None
        return project(plan, lam)

    with mock.patch.object(LagrangianSubproblemSolver, "solve_batch",
                           counted_solve), \
            mock.patch.object(kernels, "arrival_sweep", counted_arrival), \
            mock.patch.object(kernels, "project_sweep", counted_project):
        results = run_lockstep(optimizers)
    return iterations, results


@pytest.mark.parametrize("width", [1, 2, 4, 7])
def test_lockstep_iteration_makes_at_most_eight_arrival_sweeps(width):
    """One sweep for the iterates plus one per bisection level, whatever K.

    Per-column repair probes would make 1 + 7·K′ sweeps in an iteration
    that repairs K′ columns.
    """
    engine, x_init, initial = _engine(1, "own")
    grid = [(1.1, 0.1), (1.1, 0.15), (1.2, 0.1), (1.05, 0.12)]
    optimizers = [_optimizer(engine, x_init, initial,
                             *grid[k % len(grid)], max_iterations=60)
                  for k in range(width)]
    iterations, results = _sweep_log(optimizers)
    assert len(iterations) == max(r.iterations for r in results)
    for widths in iterations:
        assert len(widths) <= 1 + REPAIR_BISECTIONS
    repairs = sum(r.repair_evals for r in results) // REPAIR_BISECTIONS
    assert repairs > 0
    if width > 1:
        # Some iteration repaired several columns in one sweep per level.
        assert max(max(widths[1:], default=0) for widths in iterations) > 1
