"""Vectorized Elmore engine: hand calculations and reference equivalence."""

import numpy as np
import pytest

from repro.circuit import CircuitBuilder, random_circuit
from repro.geometry import ChannelLayout
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.timing import CouplingDelayMode, ElmoreEngine
from repro.utils.units import OHM_FF_TO_PS

from oracles.elmore import ElmoreReference


@pytest.fixture(scope="module")
def chain():
    """driver -> wire(200µm) -> gate -> wire(100µm) -> load: hand-checkable."""
    b = CircuitBuilder(name="chain")
    a = b.add_input("a", resistance=200.0)
    g = b.add_gate("not", [a], name="g", wire_lengths=[200.0])
    b.set_output(g, load=50.0, wire_length=100.0)
    return b.build()


class TestHandComputedChain:
    def test_capacitances(self, chain):
        cc = chain.compile()
        engine = ElmoreEngine(cc)
        x = cc.default_sizes(1.0)
        caps = engine.capacitances(x)
        tech = chain.tech
        w_in = chain.node_by_name("g.in0").index
        w_out = chain.node_by_name("g.out").index
        g = chain.node_by_name("g").index
        c_win = tech.wire_capacitance(200.0, 1.0)
        c_wout = tech.wire_capacitance(100.0, 1.0)
        c_g = tech.gate_capacitance(1.0)
        # Wire loads: full self cap + downstream; gate load: own input cap.
        assert caps["load"][g] == pytest.approx(c_g)
        assert caps["load"][w_in] == pytest.approx(c_win + c_g)
        assert caps["load"][w_out] == pytest.approx(c_wout + 50.0)
        # Downstream caps: far half + subtree.
        assert caps["downstream"][w_in] == pytest.approx(0.5 * c_win + c_g)
        assert caps["downstream"][w_out] == pytest.approx(0.5 * c_wout + 50.0)
        assert caps["downstream"][g] == pytest.approx(c_wout + 50.0)

    def test_delays_and_arrival(self, chain):
        cc = chain.compile()
        engine = ElmoreEngine(cc)
        x = cc.default_sizes(1.0)
        delays = engine.delays(x)
        tech = chain.tech
        driver = chain.node_by_name("a").index
        c_win = tech.wire_capacitance(200.0, 1.0)
        c_g = tech.gate_capacitance(1.0)
        expected_driver = 200.0 * (c_win + c_g) * OHM_FF_TO_PS
        assert delays[driver] == pytest.approx(expected_driver)
        arrival = engine.arrival_times(delays)
        comp_order = [driver, chain.node_by_name("g.in0").index,
                      chain.node_by_name("g").index,
                      chain.node_by_name("g.out").index]
        assert arrival[cc.sink] == pytest.approx(sum(delays[i] for i in comp_order))

    def test_gate_upsizing_speeds_gate_slows_driver(self, chain):
        cc = chain.compile()
        engine = ElmoreEngine(cc)
        g = chain.node_by_name("g").index
        d = chain.node_by_name("a").index
        x1 = cc.default_sizes(1.0)
        x2 = x1.copy()
        x2[g] = 4.0
        d1, d2 = engine.delays(x1), engine.delays(x2)
        assert d2[g] < d1[g]          # stronger drive
        assert d2[d] > d1[d]          # heavier input load upstream


class TestReferenceEquivalence:
    """The vectorized engine must match the per-node reference exactly."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", list(CouplingDelayMode))
    def test_delays_match(self, seed, mode, rng):
        circuit = random_circuit(20, 4, 3, seed=seed)
        cc = circuit.compile()
        ana = SimilarityAnalyzer(circuit, n_patterns=32, seed=seed)
        cs = CouplingSet.from_layout(ChannelLayout.from_levels(circuit), ana,
                                     MillerMode.SIMILARITY)
        engine = ElmoreEngine(cc, cs, mode)
        reference = ElmoreReference(circuit, cs, mode)
        x = cc.default_sizes(1.0)
        x[cc.is_sizable] = rng.uniform(0.2, 4.0, int(cc.is_sizable.sum()))
        np.testing.assert_allclose(engine.delays(x), reference.delays(x),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_arrival_times_match(self, seed, rng):
        circuit = random_circuit(25, 5, 4, seed=seed + 50)
        cc = circuit.compile()
        engine = ElmoreEngine(cc)
        reference = ElmoreReference(circuit)
        x = cc.default_sizes(1.0)
        x[cc.is_sizable] = rng.uniform(0.3, 3.0, int(cc.is_sizable.sum()))
        np.testing.assert_allclose(engine.arrival_times(engine.delays(x)),
                                   reference.arrival_times(x), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_upstream_resistance_matches(self, seed, rng):
        circuit = random_circuit(18, 4, 3, seed=seed + 80)
        cc = circuit.compile()
        engine = ElmoreEngine(cc)
        reference = ElmoreReference(circuit)
        x = cc.default_sizes(1.0)
        x[cc.is_sizable] = rng.uniform(0.2, 2.0, int(cc.is_sizable.sum()))
        lam = rng.uniform(0.0, 3.0, cc.num_nodes)
        upstream = engine.weighted_upstream_resistance(x, lam)
        for node in circuit.components():
            expected = reference.weighted_upstream_resistance(node.index, x, lam)
            assert upstream[node.index] == pytest.approx(expected, rel=1e-10)


class TestCouplingModes:
    def test_none_mode_removes_coupling_from_delay(self, small_circuit,
                                                   small_coupling):
        cc = small_circuit.compile()
        x = cc.default_sizes(1.0)
        with_cpl = ElmoreEngine(cc, small_coupling, CouplingDelayMode.OWN)
        without = ElmoreEngine(cc, small_coupling, CouplingDelayMode.NONE)
        assert with_cpl.circuit_delay(x) > without.circuit_delay(x)

    def test_propagated_at_least_own(self, small_circuit, small_coupling):
        cc = small_circuit.compile()
        x = cc.default_sizes(1.0)
        own = ElmoreEngine(cc, small_coupling, CouplingDelayMode.OWN)
        prop = ElmoreEngine(cc, small_coupling, CouplingDelayMode.PROPAGATED)
        assert prop.circuit_delay(x) >= own.circuit_delay(x) - 1e-9

    def test_mismatched_coupling_rejected(self, small_circuit):
        cc = small_circuit.compile()
        from repro.utils.errors import ValidationError

        with pytest.raises(ValidationError):
            ElmoreEngine(cc, CouplingSet.empty(cc.num_nodes + 5))


def test_circuit_delay_is_max_po_arrival(small_circuit):
    cc = small_circuit.compile()
    engine = ElmoreEngine(cc)
    x = cc.default_sizes(1.0)
    delays = engine.delays(x)
    arrival = engine.arrival_times(delays)
    po = [w.index for w in small_circuit.primary_output_wires()]
    assert engine.circuit_delay(x) == pytest.approx(max(arrival[j] for j in po))
