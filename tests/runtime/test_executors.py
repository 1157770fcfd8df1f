"""Executor-protocol conformance, shared by every backend.

The batch runner only asks three things of an executor — ``map`` streams
results in submission order, ``close`` is safe to call repeatedly, and
``abort`` tears down promptly after a partial drain — so those three
contracts are pinned here for both backends: in-process
:class:`SerialExecutor` and pool-based :class:`MultiprocessExecutor`.
"""

import pytest

from repro.runtime import (
    CircuitRef,
    FlowConfig,
    MultiprocessExecutor,
    Scenario,
    SerialExecutor,
    run_scenario,
)
from repro.utils.errors import ValidationError

EXECUTOR_KINDS = ("serial", "multiprocess")


def _make_executor(kind):
    if kind == "serial":
        return SerialExecutor()
    return MultiprocessExecutor(2)


@pytest.fixture(scope="module")
def scenarios():
    """3 fast scenarios over one tiny circuit, distinct noise bounds."""
    ref = CircuitRef.random(12, 4, 2, seed=0, target_depth=5)
    return [
        Scenario(ref, FlowConfig(n_patterns=32, max_iterations=50,
                                 noise_fraction=fraction))
        for fraction in (0.10, 0.12, 0.15)
    ]


@pytest.fixture(scope="module")
def expected_json(scenarios):
    return [run_scenario(s).canonical_json() for s in scenarios]


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_map_streams_results_in_submission_order(kind, scenarios,
                                                 expected_json):
    executor = _make_executor(kind)
    try:
        results = list(executor.map(run_scenario, scenarios))
    finally:
        executor.close()
    assert [r.canonical_json() for r in results] == expected_json


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_close_is_idempotent(kind, scenarios):
    executor = _make_executor(kind)
    list(executor.map(run_scenario, scenarios[:1]))
    executor.close()
    executor.close()        # second close must be a no-op, not an error


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_abort_after_partial_drain_returns_promptly(kind, scenarios,
                                                    expected_json):
    executor = _make_executor(kind)
    stream = iter(executor.map(run_scenario, scenarios))
    first = next(stream)
    executor.abort()
    executor.abort()        # and abort is idempotent too
    assert first.canonical_json() == expected_json[0]


def test_multiprocess_map_reentry_raises_instead_of_leaking(scenarios):
    """A second map() while one is open used to silently drop (and leak)
    the previous pool with its worker processes."""
    executor = MultiprocessExecutor(2)
    stream = executor.map(run_scenario, scenarios[:2])
    with pytest.raises(ValidationError, match="previous map"):
        executor.map(run_scenario, scenarios[:1])
    next(iter(stream))      # the original stream is still live
    executor.abort()
    # After close/abort the executor is reusable.
    results = list(executor.map(run_scenario, scenarios[:1]))
    executor.close()
    assert len(results) == 1


def test_multiprocess_rejects_single_job():
    with pytest.raises(ValidationError):
        MultiprocessExecutor(1)
