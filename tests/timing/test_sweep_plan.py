"""The array-built SweepPlan equals the list-based reference builder.

Every plan attribute — closures, condensed levels, projection levels,
static constants — must agree with ``tests/oracles/sweep_plan.py`` in
dtype, shape and value: the kernels add each CSR row in index order, so
any reordering would change results in the last bit.
"""

import numpy as np
import pytest

from repro.circuit import CircuitBuilder, iscas85_circuit, load_bench, random_circuit
from repro.circuit.parser import builtin_bench_path
from repro.runtime import CircuitRef
from repro.timing.kernels import CSROp, ProjectLevel, SweepPlan

from oracles.sweep_plan import csr_from_lists, reference_sweep_plan
from oracles.trees import random_tree_circuit


def _branching_wires():
    """A routed net that forks, re-forks and feeds one gate twice."""
    b = CircuitBuilder(name="branchy")
    a, c = b.add_input("a"), b.add_input("c")
    stem = b.add_branch(a, 150.0, name="stem")
    left = b.add_branch(stem, 80.0)
    right = b.add_branch(stem, 60.0)
    tail = b.add_branch(right, 30.0)
    g1 = b.add_gate("nand", [left, tail, c])
    g2 = b.add_gate("nor", [right, g1])
    b.set_output(g2)
    b.set_output(g1)
    return b.build()


CIRCUITS = {
    "c17": lambda: load_bench(builtin_bench_path("c17")),
    "branchy": _branching_wires,
    **{name: (lambda name=name: iscas85_circuit(name))
       for name in ("c432", "c499", "c1908", "c7552")},
    **{f"random-{seed}": (lambda seed=seed: random_circuit(
        200, 12, 8, seed=seed)) for seed in range(6)},
    **{f"tree-{seed}": (lambda seed=seed: random_tree_circuit(
        150, 10, 6, seed=seed, max_segments=4)) for seed in range(6)},
    "random:50000": lambda: CircuitRef.from_spec("random:50000").build(),
}


def _assert_same(new, ref, name):
    if isinstance(ref, np.ndarray):
        assert isinstance(new, np.ndarray), name
        assert new.dtype == ref.dtype, name
        assert new.shape == ref.shape, name
        np.testing.assert_array_equal(new, ref, err_msg=name)
    elif isinstance(ref, (CSROp, ProjectLevel)):
        assert type(new) is type(ref), name
        for slot in type(ref).__slots__:
            _assert_same(getattr(new, slot), getattr(ref, slot),
                         f"{name}.{slot}")
    elif isinstance(ref, (list, tuple)):
        assert type(new) is type(ref) and len(new) == len(ref), name
        for k, (a, b) in enumerate(zip(new, ref)):
            _assert_same(a, b, f"{name}[{k}]")
    else:
        assert type(new) is type(ref) and new == ref, name


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_plan_equals_list_built_reference(name):
    compiled = CIRCUITS[name]().compile()
    plan = SweepPlan(compiled)
    ref = reference_sweep_plan(compiled)
    assert set(vars(plan)) == set(vars(ref))
    for attr, value in vars(ref).items():
        if attr != "compiled":
            _assert_same(getattr(plan, attr), value, attr)
    assert plan.compiled is compiled


def test_from_arrays_keeps_entry_order_within_rows():
    rows = np.array([2, 0, 2, 1, 0, 2])
    cols = np.array([5, 1, 3, 7, 0, 4])
    op = CSROp.from_arrays(rows, cols, 4)
    ref = csr_from_lists([[1, 0], [7], [5, 3, 4], []], 4)
    for slot in CSROp.__slots__:
        _assert_same(getattr(op, slot), getattr(ref, slot), slot)
