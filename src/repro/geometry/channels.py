"""Grouping wires into routing channels.

The paper orders "the wires" of a circuit on parallel tracks; for a
many-thousand-wire netlist the physically meaningful unit is a routing
channel.  We use the standard-cell row picture: all wires at the same
topological level run through the same channel, so they are candidates
for mutual adjacency (and therefore coupling).  Any other partition can
be supplied to :class:`~repro.geometry.layout.ChannelLayout` directly.
"""

import dataclasses

import numpy as np

from repro.utils.errors import GeometryError


@dataclasses.dataclass(frozen=True)
class Channel:
    """A set of wires routed through the same region.

    ``wires`` is the tuple of wire node indices, in track order once an
    ordering stage has run (construction order before that).
    """

    label: str
    wires: tuple

    def __post_init__(self):
        if len(set(self.wires)) != len(self.wires):
            raise GeometryError(f"channel {self.label!r} lists a wire twice")

    def __len__(self):
        return len(self.wires)

    def reordered(self, order):
        """Return a copy with tracks permuted by ``order`` (a permutation
        of positions into ``wires``)."""
        order = np.asarray(order)
        count = len(self.wires)
        if order.shape != (count,) or count and not (
                order.dtype.kind in "iu" and order.min() >= 0
                and order.max() < count
                and np.bincount(order.astype(np.int64)).max() == 1):
            raise GeometryError(f"invalid track permutation for channel {self.label!r}")
        # An object array gathers the channel's own int objects: an int64
        # gather would allocate a fresh int per wire (3 MB at 50k gates).
        wires = np.asarray(self.wires, dtype=object)
        # Permuted distinct wires stay distinct: skip __post_init__.
        copy = object.__new__(Channel)
        object.__setattr__(copy, "label", self.label)
        object.__setattr__(copy, "wires",
                           tuple(wires[order.astype(np.int64)].tolist()))
        return copy


def wires_by_level(circuit):
    """Partition all wires of ``circuit`` into per-level channels.

    Returns a list of :class:`Channel` (ascending level, each channel's
    wires in ascending index order) from one stable sort of the wire
    indices by level.  Levels with a single wire still form a channel
    (it simply has no neighbors).
    """
    compiled = circuit.compile()
    wires = compiled.wire_indices
    levels = compiled.level[wires]
    order = np.argsort(levels, kind="stable")
    wires, levels = wires[order], levels[order]
    starts = np.flatnonzero(np.diff(levels, prepend=-1))
    bounds = np.append(starts, wires.size).tolist()
    members = wires.tolist()
    return [
        Channel(label=f"level{levels[a]}", wires=tuple(members[a:b]))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
