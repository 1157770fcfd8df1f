"""Arrival times as static timing: the latest-input recurrence, the
critical path it traces and the slack each node has at the circuit's
own delay.

Slack is measured through the engine's own sweep, one column per node:
adding a delay ``δ`` far above the circuit delay ``D`` to node ``i``
makes the longest path run through ``i``, so the new circuit delay is
``D − slack_i + δ``.
"""

import numpy as np
import pytest

from repro.circuit.components import NodeKind
from repro.timing import ElmoreEngine

CIRCUITS = ["figure1_circuit", "c17", "small_circuit", "medium_circuit"]


@pytest.fixture(params=CIRCUITS)
def timed(request):
    circuit = request.getfixturevalue(request.param)
    cc = circuit.compile()
    engine = ElmoreEngine(cc)
    delays = engine.delays(cc.default_sizes(1.0))
    return circuit, cc, engine, delays, engine.arrival_times(delays)


def _critical_path(circuit, arrival, sink):
    """Nodes from the first driver to the last primary-output wire, each
    reached from its latest-arriving input."""
    path = []
    node = sink
    while True:
        inputs = circuit.inputs(node)
        node = inputs[int(np.argmax(arrival[list(inputs)]))]
        if circuit.kind[node] == NodeKind.SOURCE:
            return path[::-1]
        path.append(node)


def test_arrival_is_latest_input_plus_delay(timed):
    circuit, cc, _, delays, arrival = timed
    assert arrival[cc.source] == 0.0
    for node in range(1, circuit.num_nodes):
        latest = max(arrival[j] for j in circuit.inputs(node))
        assert arrival[node] == pytest.approx(latest + delays[node],
                                              rel=1e-12, abs=1e-9)


def test_critical_path_runs_from_a_driver_to_a_primary_output(timed):
    circuit, cc, engine, delays, arrival = timed
    path = _critical_path(circuit, arrival, cc.sink)
    first, last = circuit.node(path[0]), circuit.node(path[-1])
    assert first.is_driver
    assert last.is_wire and last.load_cap > 0
    assert path[-1] in {w.index for w in circuit.primary_output_wires()}
    for prev, node in zip(path, path[1:]):
        assert arrival[node] == pytest.approx(arrival[prev] + delays[node],
                                              rel=1e-9)
    circuit_delay = engine.circuit_delay(cc.default_sizes(1.0))
    assert arrival[path[-1]] == circuit_delay
    assert float(np.sum(delays[path])) == pytest.approx(circuit_delay,
                                                        rel=1e-9)


def test_slack_at_own_bound_is_nonnegative_and_zero_on_the_critical_path(
        timed):
    circuit, cc, engine, delays, arrival = timed
    components = np.flatnonzero(np.isin(
        circuit.kind, (NodeKind.DRIVER, NodeKind.GATE, NodeKind.WIRE)))
    circuit_delay = float(arrival[cc.sink])
    bump = 10.0 * circuit_delay
    bumped = np.repeat(delays[:, None], components.size, axis=1)
    bumped[components, np.arange(components.size)] += bump
    slack = circuit_delay + bump - engine.arrival_times(bumped)[cc.sink]
    tolerance = 1e-9 * bump
    assert np.all(slack >= -tolerance)
    on_path = np.isin(components, _critical_path(circuit, arrival, cc.sink))
    np.testing.assert_allclose(slack[on_path], 0.0, atol=tolerance)
    # Every node lies on some source-to-sink path, so none has more slack
    # than the whole circuit delay.
    assert np.all(slack <= circuit_delay + tolerance)


def test_arrival_is_monotone_and_scales_with_delays(timed, rng):
    _, cc, engine, delays, arrival = timed
    longer = delays + rng.random(delays.shape) * delays.max()
    later = engine.arrival_times(longer)
    assert np.all(later >= arrival)
    assert later[cc.sink] - arrival[cc.sink] <= \
        float(np.sum(longer - delays)) * (1 + 1e-12)
    np.testing.assert_allclose(engine.arrival_times(3.0 * delays),
                               3.0 * arrival, rtol=1e-12)
