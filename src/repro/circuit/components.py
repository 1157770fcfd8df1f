"""Node records for the circuit graph.

Each vertex of the circuit graph is a :class:`Node`.  A node sits at the
*output* of a component (Sec. 2.1 of the paper): drivers, gates, and wires
are components; the source and sink are artificial bookkeeping vertices.
A :class:`~repro.circuit.circuit.Circuit` stores its nodes as NumPy
columns; a ``Node`` is the one-record view of a row (and what
:class:`~repro.circuit.builder.CircuitBuilder` hands it).

The RC model parameters stored per node follow Fig. 3 of the paper:

========  =====================  =======================  ==================
kind      resistance             capacitance              area
========  =====================  =======================  ==================
DRIVER    ``r_hat`` (fixed)      0                        0 (not sized)
GATE      ``r_hat / x``          ``c_hat · x``            ``alpha · x``
WIRE      ``r_hat / x``          ``c_hat · x + fringe``   ``alpha · x``
========  =====================  =======================  ==================

For wires, ``r_hat``/``c_hat``/``fringe``/``alpha`` already include the
wire length (``r̂·ℓ``, ``ĉ·ℓ``, ``f·ℓ``, ``ℓ``), so every sized component
exposes the same one-variable model in its size ``x``.
"""

import dataclasses
import enum

from repro.utils.errors import CircuitError


class NodeKind(enum.IntEnum):
    """Vertex classes of the circuit graph (paper's G, W, R, S, T sets)."""

    SOURCE = 0
    DRIVER = 1
    GATE = 2
    WIRE = 3
    SINK = 4

    @property
    def is_component(self):
        """Whether this node models a physical component (has an index 1..n+s)."""
        return self in (NodeKind.DRIVER, NodeKind.GATE, NodeKind.WIRE)

    @property
    def is_sizable(self):
        """Whether the component's size ``x`` is an optimization variable."""
        return self in (NodeKind.GATE, NodeKind.WIRE)


@dataclasses.dataclass(frozen=True)
class Node:
    """One vertex of the circuit graph.  Immutable after construction.

    Attributes
    ----------
    index:
        Topological index in the finished circuit (0 = source).
    kind:
        The node class; determines which model fields are meaningful.
    name:
        Stable, human-readable identifier (unique within a circuit).
    r_hat:
        Unit-size resistance (gates/wires, Ω·µm or Ω pre-multiplied by
        length) or the fixed driver resistance (drivers, Ω).
    c_hat:
        Unit-size capacitance (fF/µm, pre-multiplied by length for wires).
    fringe:
        Size-independent capacitance (fF); nonzero only for wires.
    alpha:
        Area per µm of size (µm²/µm); the paper's ``α_i``.
    lower, upper:
        Size bounds ``L_i ≤ x_i ≤ U_i`` (µm); 0 for non-sizable nodes.
    function:
        Logic function name (gates only), e.g. ``"nand"``.
    length:
        Physical length in µm (wires only); used by geometry extraction.
    load_cap:
        Output load ``C_L`` in fF for primary-output wires (else 0).
    """

    index: int
    kind: NodeKind
    name: str
    r_hat: float = 0.0
    c_hat: float = 0.0
    fringe: float = 0.0
    alpha: float = 0.0
    lower: float = 0.0
    upper: float = 0.0
    function: str = ""
    length: float = 0.0
    load_cap: float = 0.0

    def __post_init__(self):
        if self.index < 0:
            raise CircuitError(f"node index must be non-negative, got {self.index}")
        if self.kind.is_sizable:
            if self.r_hat <= 0 or self.c_hat <= 0:
                raise CircuitError(
                    f"{self.kind.name.lower()} {self.name!r} needs positive r_hat/c_hat"
                )
            if not (0 < self.lower <= self.upper):
                raise CircuitError(
                    f"{self.kind.name.lower()} {self.name!r} needs 0 < lower <= upper, "
                    f"got [{self.lower}, {self.upper}]"
                )
            if self.alpha <= 0:
                raise CircuitError(f"{self.kind.name.lower()} {self.name!r} needs alpha > 0")
        if self.kind is NodeKind.DRIVER and self.r_hat <= 0:
            raise CircuitError(f"driver {self.name!r} needs a positive resistance")
        if self.kind is NodeKind.GATE and not self.function:
            raise CircuitError(f"gate {self.name!r} needs a logic function")
        if self.kind is NodeKind.WIRE and self.length <= 0:
            raise CircuitError(f"wire {self.name!r} needs a positive length")
        if self.fringe < 0 or self.load_cap < 0:
            raise CircuitError(f"node {self.name!r}: fringe/load_cap must be non-negative")

    @property
    def is_gate(self):
        return self.kind is NodeKind.GATE

    @property
    def is_wire(self):
        return self.kind is NodeKind.WIRE

    @property
    def is_driver(self):
        return self.kind is NodeKind.DRIVER

    def resistance(self, size):
        """Component resistance at size ``x`` (Ω); drivers ignore ``size``."""
        if self.kind is NodeKind.DRIVER:
            return self.r_hat
        if not self.kind.is_sizable:
            return 0.0
        return self.r_hat / size

    def capacitance(self, size):
        """Component self-capacitance at size ``x`` (fF)."""
        if not self.kind.is_sizable:
            return 0.0
        return self.c_hat * size + self.fringe

    def area(self, size):
        """Component area at size ``x`` (µm²)."""
        if not self.kind.is_sizable:
            return 0.0
        return self.alpha * size
