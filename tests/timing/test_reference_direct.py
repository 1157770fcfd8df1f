"""Hand-checked cases for the pure-Python Elmore reference itself.

The vectorized engine is certified against :class:`ElmoreReference`
elsewhere; these tests pin the *reference* to hand arithmetic so the two
twins cannot share a correlated bug.
"""

import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.geometry import CouplingPair
from repro.noise import CouplingSet
from repro.timing import CouplingDelayMode
from repro.utils.units import OHM_FF_TO_PS

from oracles.elmore import ElmoreReference


@pytest.fixture(scope="module")
def two_branch():
    """driver --w0--> gate g --w1--> load
                         \\--w2--> gate g2 --w3--> load
    Exercises fanout at a gate output."""
    b = CircuitBuilder(name="twobranch")
    a = b.add_input("a", resistance=100.0)
    g = b.add_gate("not", [a], name="g", wire_lengths=[100.0])
    g2 = b.add_gate("buf", [g], name="g2", wire_lengths=[150.0])
    b.set_output(g, load=20.0, wire_length=50.0, name="po0")
    b.set_output(g2, load=30.0, wire_length=60.0)
    return b.build()


def caps_of(circuit, name, x=1.0):
    node = circuit.node_by_name(name)
    return node.capacitance(x)


def test_driver_stage_cap_by_hand(two_branch):
    """C(driver) = full first-wire cap + gate g input cap."""
    ref = ElmoreReference(two_branch)
    x = two_branch.compile().default_sizes(1.0)
    d = two_branch.node_by_name("a").index
    expected = caps_of(two_branch, "g.in0") + caps_of(two_branch, "g")
    assert ref.downstream_cap(d, x) == pytest.approx(expected)


def test_fanout_gate_stage_cap_by_hand(two_branch):
    """C(g) spans both branches: both wires fully + g2 input + load."""
    ref = ElmoreReference(two_branch)
    x = two_branch.compile().default_sizes(1.0)
    g = two_branch.node_by_name("g").index
    expected = (caps_of(two_branch, "g2.in0") + caps_of(two_branch, "g2")
                + caps_of(two_branch, "po0") + 20.0)
    assert ref.downstream_cap(g, x) == pytest.approx(expected)


def test_wire_far_half_by_hand(two_branch):
    """C(wire) = own half cap + its loads."""
    ref = ElmoreReference(two_branch)
    x = two_branch.compile().default_sizes(1.0)
    w = two_branch.node_by_name("po0").index
    expected = 0.5 * caps_of(two_branch, "po0") + 20.0
    assert ref.downstream_cap(w, x) == pytest.approx(expected)


def test_delay_is_r_times_c_in_ps(two_branch):
    ref = ElmoreReference(two_branch)
    x = two_branch.compile().default_sizes(2.0)
    g = two_branch.node_by_name("g").index
    node = two_branch.node(g)
    expected = (node.r_hat / 2.0) * ref.downstream_cap(g, x) * OHM_FF_TO_PS
    assert ref.delay(g, x) == pytest.approx(expected)


def test_coupling_modes_by_hand():
    """One coupled pair, every delay mode, against explicit arithmetic."""
    b = CircuitBuilder(name="pair")
    a1 = b.add_input("a1", resistance=100.0)
    a2 = b.add_input("a2", resistance=100.0)
    g1 = b.add_gate("not", [a1], name="g1", wire_lengths=[100.0])
    g2 = b.add_gate("not", [a2], name="g2", wire_lengths=[100.0])
    b.set_output(g1, load=10.0, wire_length=80.0)
    b.set_output(g2, load=10.0, wire_length=80.0)
    circuit = b.build()
    w1 = circuit.node_by_name("g1.in0").index
    w2 = circuit.node_by_name("g2.in0").index
    i, j = min(w1, w2), max(w1, w2)
    pair = CouplingPair(i=i, j=j, overlap=100.0, distance=2.0, unit_fringe=0.5)
    coupling = CouplingSet(circuit.num_nodes, [pair], weights=np.array([1.0]))
    x = circuit.compile().default_sizes(1.0)

    u = (x[i] + x[j]) / (2 * 2.0)
    cpl = pair.ctilde * (1 + u)

    ref_none = ElmoreReference(circuit, coupling, CouplingDelayMode.NONE)
    ref_own = ElmoreReference(circuit, coupling, CouplingDelayMode.OWN)
    base = ref_none.downstream_cap(i, x)
    assert ref_own.downstream_cap(i, x) == pytest.approx(base + cpl)

    # OWN: the driver upstream of wire i does NOT see the coupling.
    driver = circuit.inputs(i)[0]
    assert ref_own.downstream_cap(driver, x) == pytest.approx(
        ref_none.downstream_cap(driver, x))

    # PROPAGATED: it does.
    ref_prop = ElmoreReference(circuit, coupling, CouplingDelayMode.PROPAGATED)
    assert ref_prop.downstream_cap(driver, x) == pytest.approx(
        ref_none.downstream_cap(driver, x) + cpl)


def test_upstream_resistance_by_hand(two_branch):
    """R(g2) = λ_g·r_g + λ_w·r_w for its single input stage."""
    ref = ElmoreReference(two_branch)
    x = two_branch.compile().default_sizes(1.0)
    lam = np.ones(two_branch.num_nodes) * 2.0
    g2 = two_branch.node_by_name("g2").index
    g = two_branch.node_by_name("g")
    w = two_branch.node_by_name("g2.in0")
    expected = 2.0 * (g.resistance(1.0) + w.resistance(1.0)) * OHM_FF_TO_PS
    assert ref.weighted_upstream_resistance(g2, x, lam) == pytest.approx(expected)
