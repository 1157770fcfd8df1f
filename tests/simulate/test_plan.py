"""Precompiled simulation plan: exact equality with the reference loop.

The contract under test (``repro/simulate/plan.py``): ``SimPlan``'s
grouped vectorized evaluation returns **exactly** the boolean matrix the
per-node reference loop produces — same wires-copy-their-root semantics,
same gate functions, same source/sink rows — over exhaustive small
circuits, random generator circuits, and ISCAS85 netlists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import iscas85_circuit
from repro.circuit import random_circuit
from repro.circuit.components import NodeKind
from repro.simulate import (
    exhaustive_patterns,
    random_patterns,
    simulate_levelized,
)
from repro.simulate.plan import SimPlan
from repro.utils.errors import SimulationError

from oracles.simulate import simulate_reference


def _assert_backends_equal(circuit, patterns):
    plan = simulate_levelized(circuit, patterns)
    ref = simulate_reference(circuit, patterns)
    assert plan.dtype == ref.dtype == np.bool_
    assert np.array_equal(plan, ref)


class TestEquality:
    def test_c17_exhaustive(self, c17):
        _assert_backends_equal(c17, exhaustive_patterns(5))

    def test_small_circuit(self, small_circuit):
        _assert_backends_equal(
            small_circuit,
            random_patterns(small_circuit.num_drivers, 64, seed=0))

    @pytest.mark.parametrize("name", ["c432", "c1355"])
    def test_iscas85(self, name):
        circuit = iscas85_circuit(name)
        _assert_backends_equal(
            circuit, random_patterns(circuit.num_drivers, 32, seed=1))

    @settings(max_examples=25, deadline=None)
    @given(
        n_gates=st.integers(5, 60),
        n_inputs=st.integers(2, 8),
        seed=st.integers(0, 10_000),
        depth=st.integers(2, 12),
    )
    def test_property_random_circuits(self, n_gates, n_inputs, seed, depth):
        circuit = random_circuit(n_gates, n_inputs, 2, seed=seed,
                                 target_depth=depth)
        _assert_backends_equal(
            circuit,
            random_patterns(circuit.num_drivers, 16, seed=seed + 1))

    def test_single_pattern(self, small_circuit):
        _assert_backends_equal(
            small_circuit,
            random_patterns(small_circuit.num_drivers, 1, seed=4))


class TestPlanStructure:
    def test_memoized_on_circuit(self, small_circuit):
        assert small_circuit.sim_plan() is small_circuit.sim_plan()

    def test_wire_roots_are_non_wires(self, small_circuit):
        plan = small_circuit.sim_plan()
        # The simulated rows are exactly the non-wire nodes.
        non_wires = [n.index for n in small_circuit.nodes
                     if n.kind is not NodeKind.WIRE]
        assert plan.roots.tolist() == non_wires
        # Every node reads a non-wire root; a non-wire reads itself.
        root_nodes = plan.roots[plan.node_root]
        kinds = [small_circuit.nodes[int(r)].kind for r in root_nodes]
        assert all(k is not NodeKind.WIRE for k in kinds)
        np.testing.assert_array_equal(root_nodes[plan.roots], plan.roots)

    def test_groups_cover_gates_once(self, small_circuit):
        plan = small_circuit.sim_plan()
        out = plan.roots[np.concatenate([g[2] for g in plan.groups])]
        gates = {g.index for g in small_circuit.gates()}
        assert sorted(out.tolist()) == sorted(gates)

    def test_group_count_scales_with_shapes_not_gates(self):
        circuit = iscas85_circuit("c432")
        plan = circuit.sim_plan()
        assert plan.num_groups < len(list(circuit.gates()))
        assert plan.nbytes > 0
        assert "SimPlan" in repr(plan)

    def test_plan_reused_across_backend_calls(self, small_circuit):
        plan = small_circuit.sim_plan()
        simulate_levelized(
            small_circuit,
            random_patterns(small_circuit.num_drivers, 8, seed=5))
        assert small_circuit.sim_plan() is plan


class TestBackendDispatch:
    """The entry point, the plan and the per-node oracle agree on input
    handling."""

    def test_pattern_validation_shared(self, small_circuit):
        bad = np.zeros((4, small_circuit.num_drivers + 1), dtype=bool)
        for simulate in (simulate_levelized, simulate_reference):
            with pytest.raises(SimulationError):
                simulate(small_circuit, bad)

    def test_direct_plan_use_matches_entry_point(self, small_circuit):
        pats = random_patterns(small_circuit.num_drivers, 16, seed=7)
        assert np.array_equal(SimPlan(small_circuit).simulate(pats),
                              simulate_levelized(small_circuit, pats))
