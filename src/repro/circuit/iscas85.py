"""The Table 1 benchmark suite.

The paper evaluates on ten ISCAS85 circuits.  :data:`ISCAS85_SPECS` embeds
the per-circuit gate and wire counts exactly as printed in Table 1,
together with the real ISCAS85 primary-input/output counts; the circuits
themselves are generated by :func:`repro.circuit.generators.random_circuit`
with those statistics (see ``docs/architecture.md``, "Model choices: substitutions"
for the substitution rationale).

Every entry is deterministic: the seed is derived from the circuit name,
so ``iscas85_circuit("c432")`` returns the identical graph in every
process.
"""

import dataclasses
import zlib

from repro.circuit.generators import random_circuit

__all__ = ["ISCAS85_SPECS", "CircuitSpec", "iscas85_circuit", "iscas85_suite"]


@dataclasses.dataclass(frozen=True)
class CircuitSpec:
    """Statistics of one Table 1 benchmark circuit."""

    name: str
    gates: int      # Table 1 "#G"
    wires: int      # Table 1 "#W"
    inputs: int     # real ISCAS85 PI count
    outputs: int    # real ISCAS85 PO count
    depth: int      # real ISCAS85 logic depth (gate levels)

    @property
    def total(self):
        """Table 1 "tot" — sized components (#G + #W)."""
        return self.gates + self.wires


#: Table 1 circuit statistics, keyed by circuit name, in Table 1's row order.
ISCAS85_SPECS = {
    spec.name: spec
    for spec in (
        CircuitSpec("c1355", gates=546, wires=1064, inputs=41, outputs=32, depth=24),
        CircuitSpec("c1908", gates=880, wires=1498, inputs=33, outputs=25, depth=40),
        CircuitSpec("c2670", gates=1193, wires=2076, inputs=233, outputs=140, depth=32),
        CircuitSpec("c3540", gates=1669, wires=2939, inputs=50, outputs=22, depth=47),
        CircuitSpec("c432", gates=214, wires=426, inputs=36, outputs=7, depth=17),
        CircuitSpec("c499", gates=514, wires=928, inputs=41, outputs=32, depth=11),
        CircuitSpec("c5315", gates=2307, wires=4386, inputs=178, outputs=123, depth=49),
        CircuitSpec("c6288", gates=2416, wires=4800, inputs=32, outputs=32, depth=124),
        CircuitSpec("c7552", gates=3512, wires=6144, inputs=207, outputs=108, depth=43),
        CircuitSpec("c880", gates=383, wires=729, inputs=60, outputs=26, depth=24),
    )
}


def iscas85_circuit(name, tech=None, seed=None):
    """Build the ISCAS85-like circuit for Table 1 row ``name`` (e.g. ``"c432"``).

    The wire count matches Table 1 exactly (``Σ fan-ins + #PO = #W``).
    ``seed`` overrides the default name-derived seed for sensitivity
    studies.
    """
    spec = ISCAS85_SPECS[name]
    if seed is None:
        seed = zlib.crc32(spec.name.encode()) & 0xFFFF
    return random_circuit(
        n_gates=spec.gates,
        n_inputs=spec.inputs,
        n_outputs=spec.outputs,
        n_wires=spec.wires,
        seed=seed,
        tech=tech,
        target_depth=spec.depth,
        name=spec.name,
    )


def iscas85_suite(names=None, tech=None):
    """Yield ``(spec, circuit)`` for the requested circuits (default: all ten).

    Circuits are yielded smallest-first so partial sweeps cover the cheap
    ones before the expensive ones.
    """
    specs = [ISCAS85_SPECS[n] for n in (names or ISCAS85_SPECS)]
    for spec in sorted(specs, key=lambda s: s.total):
        yield spec, iscas85_circuit(spec.name, tech=tech)
