"""Structural library circuits — verified against integer arithmetic."""

import numpy as np
import pytest

from repro.circuit.library import (
    equality_comparator,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.simulate import exhaustive_patterns, random_patterns, simulate_levelized
from repro.utils.errors import CircuitError


def output_bits(circuit, values, prefix):
    """Values of outputs named ``prefix<i>`` (or the single ``prefix``)."""
    out = {}
    for wire in circuit.primary_output_wires():
        if wire.name == prefix:
            return values[wire.index]
        if wire.name.startswith(prefix):
            out[int(wire.name[len(prefix):])] = values[wire.index]
    return [out[k] for k in sorted(out)]


class TestRippleCarryAdder:
    @pytest.mark.parametrize("n_bits", [1, 2, 4])
    def test_adds_exhaustively(self, n_bits):
        circuit = ripple_carry_adder(n_bits)
        # Inputs in creation order: a0..a(n-1), b0..b(n-1), cin.
        pats = exhaustive_patterns(2 * n_bits + 1)
        values = simulate_levelized(circuit, pats)
        sums = output_bits(circuit, values, "sum")
        cout = output_bits(circuit, values, "cout")
        a = sum(pats[:, i].astype(int) << i for i in range(n_bits))
        b = sum(pats[:, n_bits + i].astype(int) << i for i in range(n_bits))
        cin = pats[:, 2 * n_bits].astype(int)
        expected = a + b + cin
        got = sum(np.asarray(sums[i], dtype=int) << i for i in range(n_bits))
        got = got + (np.asarray(cout, dtype=int) << n_bits)
        np.testing.assert_array_equal(got, expected)

    def test_structure(self):
        circuit = ripple_carry_adder(8)
        assert circuit.num_gates == 8 * 5
        assert circuit.num_drivers == 17
        assert len(circuit.primary_output_wires()) == 9

    def test_carry_chain_is_critical(self):
        """The carry ripples (textbook RCA): each sum bit arrives after
        the one below it, and the carry out arrives last."""
        from repro.timing import ElmoreEngine

        circuit = ripple_carry_adder(8)
        cc = circuit.compile()
        engine = ElmoreEngine(cc)
        arrival = engine.arrival_times(engine.delays(cc.default_sizes(1.0)))
        outputs = {w.name: arrival[w.index]
                   for w in circuit.primary_output_wires()}
        assert sorted(outputs, key=outputs.get) == \
            [f"sum{k}" for k in range(8)] + ["cout"]
        assert arrival[cc.sink] == outputs["cout"]

    def test_validation(self):
        with pytest.raises(CircuitError):
            ripple_carry_adder(0)


class TestParityTree:
    @pytest.mark.parametrize("n", [2, 3, 7, 8])
    def test_computes_parity(self, n):
        circuit = parity_tree(n)
        pats = exhaustive_patterns(n) if n <= 8 else random_patterns(n, 64)
        values = simulate_levelized(circuit, pats)
        got = output_bits(circuit, values, "parity")
        expected = pats.sum(axis=1) % 2 == 1
        np.testing.assert_array_equal(np.asarray(got), expected)

    def test_logarithmic_depth(self):
        deep = parity_tree(32).compile().num_levels
        shallow = parity_tree(8).compile().num_levels
        assert deep <= shallow + 6  # ~2 levels (gate+wire) per doubling

    def test_validation(self):
        with pytest.raises(CircuitError):
            parity_tree(1)


class TestMuxTree:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_selects_correct_input(self, k):
        circuit = mux_tree(k)
        n_data = 1 << k
        pats = random_patterns(n_data + k, 128, seed=1)
        values = simulate_levelized(circuit, pats)
        got = np.asarray(output_bits(circuit, values, "out"))
        sel = sum(pats[:, n_data + j].astype(int) << j for j in range(k))
        expected = pats[np.arange(len(pats)), sel]
        np.testing.assert_array_equal(got, expected)

    def test_validation(self):
        with pytest.raises(CircuitError):
            mux_tree(0)
        with pytest.raises(CircuitError):
            mux_tree(7)


class TestEqualityComparator:
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_detects_equality(self, n):
        circuit = equality_comparator(n)
        pats = exhaustive_patterns(2 * n)
        values = simulate_levelized(circuit, pats)
        got = np.asarray(output_bits(circuit, values, "equal"))
        a = sum(pats[:, i].astype(int) << i for i in range(n))
        b = sum(pats[:, n + i].astype(int) << i for i in range(n))
        np.testing.assert_array_equal(got, a == b)

    def test_flows_through_sizing(self):
        from repro.core import NoiseAwareSizingFlow

        circuit = equality_comparator(4)
        outcome = NoiseAwareSizingFlow(
            circuit, n_patterns=64,
            optimizer_options={"max_iterations": 150}).run()
        assert outcome.sizing.feasible


def test_library_circuits_deterministic():
    a = ripple_carry_adder(4, seed=3)
    b = ripple_carry_adder(4, seed=3)
    assert [w.length for w in a.wires()] == [w.length for w in b.wires()]
    c = ripple_carry_adder(4, seed=4)
    assert [w.length for w in a.wires()] != [w.length for w in c.wires()]
