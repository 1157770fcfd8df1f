"""Random circuits with multi-segment routing trees.

:func:`repro.circuit.generators.random_circuit` models every connection
as a single wire.  Real routes are *trees*: a driver's net runs through
chained segments and branch points before reaching its sinks.  This
module post-processes a generated circuit, splitting connection wires
into 1..``max_segments`` chained segments (total length preserved), so
that wire→wire edges and deeper RC stages are exercised — the
configurations where the stage-limited Elmore traversal earns its keep.

The result is built with :class:`CircuitBuilder` from scratch (segments
are new components), so all invariants are re-validated.
"""

import numpy as np

from repro.circuit.builder import CircuitBuilder
from repro.circuit.generators import random_circuit
from repro.utils.errors import CircuitError
from repro.utils.rng import derive_rng


def random_tree_circuit(n_gates, n_inputs, n_outputs, seed=0, tech=None,
                        max_segments=3, segment_probability=0.6,
                        target_depth=None, wire_length_range=(50.0, 300.0),
                        name=None):
    """Random circuit whose connections are multi-segment wire chains.

    Starts from :func:`random_circuit` with the same shape parameters,
    then replaces each connection wire by a chain of 1..``max_segments``
    segments (chain length ≥ 2 with probability ``segment_probability``),
    preserving the total route length.  Wire counts therefore *exceed*
    the single-segment equivalent; use :func:`random_circuit` when exact
    Table 1 wire counts matter.
    """
    if max_segments < 1:
        raise CircuitError("max_segments must be >= 1")
    if not 0.0 <= segment_probability <= 1.0:
        raise CircuitError("segment_probability must lie in [0, 1]")
    base = random_circuit(n_gates, n_inputs, n_outputs, seed=seed, tech=tech,
                          target_depth=target_depth,
                          wire_length_range=wire_length_range,
                          name=name or f"tree{n_gates}g")
    rng = derive_rng(seed, "segments")
    builder = CircuitBuilder(tech=base.tech, name=base.name)

    refs = {}
    for node in base.nodes:
        if node.is_driver:
            refs[node.index] = builder.add_input(name=node.name,
                                                 resistance=node.r_hat)
    for node in base.nodes:
        if node.is_gate:
            input_wires = []
            for wire_idx in base.inputs(node.index):
                wire = base.node(wire_idx)
                parent = base.inputs(wire_idx)[0]
                input_wires.append(_emit_chain(
                    builder, refs[parent], wire, rng,
                    max_segments, segment_probability))
            refs[node.index] = builder.add_gate(
                node.function, input_wires, name=node.name,
                unit_resistance=node.r_hat, unit_capacitance=node.c_hat,
                alpha=node.alpha, bounds=(node.lower, node.upper))
    for wire in base.primary_output_wires():
        parent = base.inputs(wire.index)[0]
        tail = _emit_chain(builder, refs[parent], wire, rng,
                           max_segments, segment_probability)
        builder.set_output(tail, load=wire.load_cap)
    return builder.build()


def _emit_chain(builder, parent_ref, wire, rng, max_segments, probability):
    """Replace ``wire`` by a chain of segments summing to its length."""
    if max_segments == 1 or rng.random() >= probability:
        n_segments = 1
    else:
        n_segments = int(rng.integers(2, max_segments + 1))
    cuts = np.sort(rng.uniform(0.15, 0.85, n_segments - 1))
    fractions = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    tail = parent_ref
    for s, fraction in enumerate(fractions):
        segment_name = wire.name if n_segments == 1 else f"{wire.name}~{s}"
        tail = builder.add_branch(tail, length=float(fraction * wire.length),
                                  name=segment_name,
                                  bounds=(wire.lower, wire.upper))
    return tail
