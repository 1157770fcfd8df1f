"""The two-stage flow driver."""

import numpy as np
import pytest

from repro.core import NoiseAwareSizingFlow
from repro.noise import MillerMode
from repro.utils.errors import ValidationError


def test_flow_result_bundle(small_flow_result, small_circuit):
    r = small_flow_result
    assert r.circuit is small_circuit
    assert r.sizing.feasible
    assert r.coupling.num_pairs > 0
    assert r.problem.delay_bound_ps > 0


def test_stage1_reduces_effective_loading(small_flow_result):
    r = small_flow_result
    assert r.ordering_cost_after <= r.ordering_cost_before + 1e-9
    assert r.ordering_improvement >= 0.0


def test_random_ordering_never_beats_woss(small_circuit):
    woss = NoiseAwareSizingFlow(small_circuit, ordering="woss", n_patterns=64,
                                optimizer_options={"max_iterations": 5})
    rand = NoiseAwareSizingFlow(small_circuit, ordering="random", n_patterns=64,
                                optimizer_options={"max_iterations": 5})
    r_woss = woss.run()
    r_rand = rand.run()
    assert r_woss.ordering_cost_after <= r_rand.ordering_cost_after + 1e-9


def test_none_ordering_keeps_cost(small_circuit):
    flow = NoiseAwareSizingFlow(small_circuit, ordering="none", n_patterns=64,
                                optimizer_options={"max_iterations": 5})
    r = flow.run()
    assert r.ordering_cost_after == pytest.approx(r.ordering_cost_before)


def test_unknown_ordering_rejected(small_circuit):
    """Every knob is validated at construction, a callable ordering and
    junk modes included."""
    def reverse(weights, label):
        return list(range(len(weights)))[::-1]

    for knobs in ({"ordering": "definitely-not-real"},
                  {"ordering": reverse},
                  {"miller_mode": "definitely-not-real"},
                  {"delay_mode": "definitely-not-real"}):
        with pytest.raises(ValidationError):
            NoiseAwareSizingFlow(small_circuit, **knobs)


def test_miller_worst_mode_increases_noise_metric(small_circuit):
    sim = NoiseAwareSizingFlow(small_circuit, miller_mode=MillerMode.SIMILARITY,
                               n_patterns=64,
                               optimizer_options={"max_iterations": 5}).run()
    worst = NoiseAwareSizingFlow(small_circuit, miller_mode=MillerMode.WORST,
                                 n_patterns=64,
                                 optimizer_options={"max_iterations": 5}).run()
    x = sim.engine.compiled.default_sizes(1.0)
    assert worst.coupling.total(x) >= sim.coupling.total(x)


def test_coupling_order_parameter(small_circuit):
    flow = NoiseAwareSizingFlow(small_circuit, coupling_order=3, n_patterns=64,
                                optimizer_options={"max_iterations": 100})
    r = flow.run()
    assert r.coupling.order == 3
    assert r.sizing.feasible


def test_bound_factors_respected(small_circuit):
    from repro.timing.metrics import evaluate_metrics

    flow = NoiseAwareSizingFlow(small_circuit, bound_factors=(1.5, 0.2, 0.5),
                                n_patterns=64,
                                optimizer_options={"max_iterations": 5})
    r = flow.run()
    x_init = r.engine.compiled.default_sizes(np.inf)
    init = evaluate_metrics(r.engine, x_init)
    assert r.problem.delay_bound_ps == pytest.approx(1.5 * init.delay_ps)
