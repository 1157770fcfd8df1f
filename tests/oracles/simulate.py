"""The per-node levelized simulation loop.

:func:`simulate_reference` walks ``circuit.nodes`` in index order — the
executable specification of zero-delay simulation.
:func:`repro.simulate.simulate_levelized` runs the precompiled
:class:`~repro.simulate.plan.SimPlan` instead; ``tests/simulate/
test_plan.py`` pins the two to exact boolean equality.
"""

import numpy as np

from repro.circuit.components import NodeKind
from repro.simulate.logic import evaluate_function
from repro.simulate.plan import validate_patterns


def simulate_reference(circuit, patterns):
    """Boolean ``(num_nodes, n_patterns)`` node values, node by node."""
    patterns = validate_patterns(circuit, patterns)
    n_patterns = patterns.shape[0]
    values = np.zeros((circuit.num_nodes, n_patterns), dtype=bool)
    for node in circuit.nodes:
        if node.kind is NodeKind.DRIVER:
            values[node.index] = patterns[:, node.index - 1]
        elif node.kind is NodeKind.WIRE:
            parent = circuit.inputs(node.index)[0]
            values[node.index] = values[parent]
        elif node.kind is NodeKind.GATE:
            stack = values[list(circuit.inputs(node.index))]
            values[node.index] = evaluate_function(node.function, stack)
    return values
