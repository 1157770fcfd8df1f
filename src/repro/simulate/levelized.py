"""Zero-delay levelized logic simulation.

Computes the steady-state value of every node for every pattern in one
topological pass, through the circuit's precompiled
:class:`~repro.simulate.plan.SimPlan`: gates grouped by level × function
× fan-in, one vectorized gather + ``evaluate_function`` call per group,
wires filled by a single fancy-indexed copy.  Python-level work scales
with the number of *groups*, not nodes.  The direct per-node loop is the
executable specification and lives on as a test oracle
(``tests/oracles/simulate.py``); the plan's output is pinned to it by
exact boolean equality (``tests/simulate/test_plan.py``).

The result feeds :func:`repro.noise.similarity.similarity_from_values`,
the default (cycle-accurate) form of the paper's switching similarity.
"""

from repro.simulate.plan import validate_patterns


def simulate_levelized(circuit, patterns):
    """Simulate ``circuit`` under ``patterns``.

    Parameters
    ----------
    circuit:
        A :class:`~repro.circuit.circuit.Circuit`.
    patterns:
        Boolean array ``(n_patterns, n_drivers)``; column ``d`` drives the
        primary input with node index ``d + 1``.

    Returns
    -------
    numpy.ndarray
        Boolean array ``(num_nodes, n_patterns)``.  Source and sink rows
        are ``False``; a wire's row equals its parent's row.
    """
    patterns = validate_patterns(circuit, patterns)
    return circuit.sim_plan().simulate(patterns)
