"""Technology parameters.

A :class:`Technology` bundles every process- and environment-dependent
constant the flow needs: unit resistances/capacitances for gates and wires,
size bounds, supply voltage and clock frequency, and the channel geometry
used for coupling extraction.

:func:`Technology.dac99` returns the values quoted in Section 5 of the
paper:

* gate:  ``r̂ = 10 kΩ·µm``  (10 kΩ at unit 1 µm size), ``ĉ = 0.16 fF/µm``
* wire:  ``r̂ = 0.07 Ω/µm`` of length (at 1 µm width), ``ĉ = 0.024 fF/µm``
* size bounds 0.1 µm … 10 µm, V_dd = 3.3 V, f = 200 MHz

The paper prints the gate unit resistance with a garbled unit glyph
("10 ?Ω?µm"); 10 kΩ·µm is the standard value for the era's processes and
gives delays in the paper's reported range (≈0.8–4.9 ns for ISCAS85-sized
circuits), so that reading is used here and called out in
``docs/architecture.md``, "Model choices: substitutions".
"""

import dataclasses

from repro.utils.errors import ValidationError


@dataclasses.dataclass(frozen=True)
class Technology:
    """Process constants shared by modeling, extraction, and optimization.

    All attributes use the library's unit conventions (Ω, fF, µm, V, Hz);
    see :mod:`repro.utils.units`.
    """

    #: Gate output resistance for a unit-size (1 µm) gate, in Ω.
    gate_unit_resistance: float = 10_000.0
    #: Gate input capacitance per µm of gate size, in fF/µm.
    gate_unit_capacitance: float = 0.16
    #: Wire sheet resistance per µm of length at 1 µm width, in Ω/µm.
    wire_unit_resistance: float = 0.07
    #: Wire area capacitance per µm length per µm width, in fF/µm².
    wire_unit_capacitance: float = 0.024
    #: Wire fringing capacitance per µm of length, in fF/µm (width-independent).
    wire_fringe_capacitance: float = 0.02
    #: Unit-length inter-wire fringing capacitance at 1 µm separation, fF.
    #: Chosen so ISCAS85-scale totals land in Table 1's few-pF range.
    coupling_unit_capacitance: float = 0.008
    #: Minimum allowed gate/wire size (width), µm.
    min_size: float = 0.1
    #: Maximum allowed gate/wire size (width), µm.
    max_size: float = 10.0
    #: Supply voltage, V.
    supply_voltage: float = 3.3
    #: Clock frequency, Hz.
    clock_frequency: float = 200e6
    #: Middle-to-middle distance between adjacent routing tracks, µm.
    #: Tight (≈ min_size scale) so that, as in Table 1, most of the
    #: initial coupling is size-dependent and sizing can cut noise ~10×
    #: (the x=L noise floor must sit below 10% of the x=U value);
    #: see docs/architecture.md, "Model choices: substitutions" (the
    #: Taylor form is used consistently as both the metric and the
    #: constraint, so u = (x_i+x_j)/2d > 1 at the fat initial sizing is
    #: well-defined even though the hyperbolic form would not be).
    track_pitch: float = 0.8
    #: Area per µm of gate size, µm²/µm (layout cell height proxy).
    gate_area_per_size: float = 10.0
    #: Default driver resistance for primary inputs, Ω.
    driver_resistance: float = 200.0
    #: Default load capacitance for primary outputs, fF.
    load_capacitance: float = 50.0

    def __post_init__(self):
        positive = {
            "gate_unit_resistance": self.gate_unit_resistance,
            "gate_unit_capacitance": self.gate_unit_capacitance,
            "wire_unit_resistance": self.wire_unit_resistance,
            "wire_unit_capacitance": self.wire_unit_capacitance,
            "coupling_unit_capacitance": self.coupling_unit_capacitance,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "supply_voltage": self.supply_voltage,
            "clock_frequency": self.clock_frequency,
            "track_pitch": self.track_pitch,
            "gate_area_per_size": self.gate_area_per_size,
            "driver_resistance": self.driver_resistance,
            "load_capacitance": self.load_capacitance,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValidationError(f"Technology.{name} must be positive, got {value!r}")
        if self.wire_fringe_capacitance < 0:
            raise ValidationError("Technology.wire_fringe_capacitance must be non-negative")
        if self.min_size >= self.max_size:
            raise ValidationError(
                f"min_size ({self.min_size}) must be below max_size ({self.max_size})"
            )

    @classmethod
    def dac99(cls):
        """The paper's Section 5 experimental setup (see module docstring)."""
        return cls()

    def replace(self, **changes):
        """Return a copy with ``changes`` applied (frozen-dataclass helper)."""
        return dataclasses.replace(self, **changes)

    # -- derived model quantities -------------------------------------------------

    def gate_resistance(self, size_um):
        """Drive resistance of a gate of ``size_um`` (Ω): ``r̂ / x``."""
        return self.gate_unit_resistance / size_um

    def gate_capacitance(self, size_um):
        """Input capacitance of a gate of ``size_um`` (fF): ``ĉ · x``."""
        return self.gate_unit_capacitance * size_um

    def wire_resistance(self, length_um, width_um):
        """Resistance of a wire segment (Ω): ``r̂ · ℓ / x``."""
        return self.wire_unit_resistance * length_um / width_um

    def wire_capacitance(self, length_um, width_um):
        """Ground capacitance of a wire segment (fF): ``ĉ · ℓ · x + f · ℓ``."""
        return (
            self.wire_unit_capacitance * length_um * width_um
            + self.wire_fringe_capacitance * length_um
        )
