"""Track assignment and coupling-pair extraction.

After the ordering stage decides which wires sit on adjacent tracks,
:class:`ChannelLayout` produces the adjacent track pairs as arrays
(:meth:`ChannelLayout.pair_arrays`, what the coupling set is built from;
:meth:`ChannelLayout.coupling_pairs` views them as one
:class:`CouplingPair` each), carrying the geometry of the paper's Eq. 2:

    c_ij = (f̂_ij · l_ij / d_ij) · 1 / (1 − (x_i + x_j) / (2·d_ij))

with ``l_ij`` the overlap length (the shorter of the two wire lengths in
this channel model), ``d_ij`` the middle-to-middle track distance, and
``f̂_ij`` the unit-length fringing capacitance between the wires.
"""

import dataclasses
import itertools

import numpy as np

from repro.geometry.channels import Channel
from repro.utils.errors import GeometryError


@dataclasses.dataclass(frozen=True)
class CouplingPair:
    """Geometry of one adjacent wire pair (``i < j`` as node indices)."""

    i: int
    j: int
    overlap: float       # l_ij, µm
    distance: float      # d_ij, µm (middle-to-middle)
    unit_fringe: float   # f̂_ij, fF/µm

    def __post_init__(self):
        if self.i == self.j:
            raise GeometryError("a wire cannot couple to itself")
        if self.i > self.j:
            raise GeometryError("CouplingPair requires i < j (dominating-index order)")
        if self.overlap <= 0 or self.distance <= 0 or self.unit_fringe <= 0:
            raise GeometryError("overlap, distance, unit_fringe must be positive")

    @property
    def ctilde(self):
        """The constant ``~c_ij = f̂_ij · l_ij / d_ij`` (fF) of Eq. 3."""
        return self.unit_fringe * self.overlap / self.distance

    @property
    def chat(self):
        """The paper's ``ĉ_ij = ~c_ij / (2·d_ij)`` (fF/µm)."""
        return self.ctilde / (2.0 * self.distance)


class ChannelLayout:
    """Track order of every channel plus pair extraction.

    Parameters
    ----------
    circuit:
        The circuit the wires belong to (supplies lengths and the tech).
    channels:
        Iterable of :class:`Channel`; the tuple order of each channel's
        ``wires`` is the track order.
    pitch:
        Middle-to-middle distance of adjacent tracks (µm); defaults to
        ``tech.track_pitch``.
    """

    def __init__(self, circuit, channels, pitch=None):
        self.circuit = circuit
        self.channels = tuple(channels)
        self.pitch = circuit.tech.track_pitch if pitch is None else float(pitch)
        if self.pitch <= 0:
            raise GeometryError("track pitch must be positive")
        # Vectorized validation (layouts are rebuilt by apply_ordering on
        # the cold path); the Python loop only reruns on failure to name
        # the offending wire.
        sizes = np.fromiter((len(c) for c in self.channels), dtype=np.int64,
                            count=len(self.channels))
        members = np.fromiter(
            itertools.chain.from_iterable(c.wires for c in self.channels),
            dtype=np.int64, count=int(sizes.sum()))
        wire_mask = circuit.wire_mask()
        ok = (members.size == 0
              or (members.min() >= 0 and members.max() < wire_mask.size
                  and bool(wire_mask[members].all())
                  and np.count_nonzero(np.bincount(members)) == members.size))
        if not ok:
            seen = set()
            for channel in self.channels:
                for idx in channel.wires:
                    if idx in seen:
                        raise GeometryError(f"wire {idx} appears in two channels")
                    seen.add(idx)
                    if not (0 <= idx < wire_mask.size and wire_mask[idx]):
                        raise GeometryError(f"channel member {idx} is not a wire")
        self._members = members
        self._channel_of = np.repeat(np.arange(len(self.channels)), sizes)

    @classmethod
    def from_levels(cls, circuit, pitch=None):
        """Layout with one channel per topological level (default model)."""
        from repro.geometry.channels import wires_by_level

        return cls(circuit, wires_by_level(circuit), pitch=pitch)

    def apply_ordering(self, orders):
        """Return a new layout with channels permuted by ``orders``.

        ``orders`` maps channel label → position permutation (as returned
        by the ordering algorithms in :mod:`repro.noise.ordering`).
        Channels not mentioned keep their current track order.
        """
        new_channels = []
        for channel in self.channels:
            order = orders.get(channel.label)
            new_channels.append(channel if order is None else channel.reordered(order))
        return ChannelLayout(self.circuit, new_channels, pitch=self.pitch)

    def pair_arrays(self):
        """Adjacent track pairs of every channel as ``(i, j, overlap)`` arrays.

        Pairs run channel by channel in track order; ``i < j`` are node
        indices and ``overlap`` the shorter wire's length (parallel-run
        model), read from the circuit's ``length`` column.
        """
        members, channel_of = self._members, self._channel_of
        adjacent = channel_of[1:] == channel_of[:-1]
        a, b = members[:-1][adjacent], members[1:][adjacent]
        i, j = np.minimum(a, b), np.maximum(a, b)
        length = self.circuit.length
        return i, j, np.minimum(length[i], length[j])

    def coupling_pairs(self):
        """One :class:`CouplingPair` per adjacent track pair, all channels.

        A record view of :meth:`pair_arrays`; the unit fringing
        capacitance comes from the technology.
        """
        fringe = self.circuit.tech.coupling_unit_capacitance
        return [CouplingPair(i=i, j=j, overlap=overlap, distance=self.pitch,
                             unit_fringe=fringe)
                for i, j, overlap in zip(*(a.tolist()
                                           for a in self.pair_arrays()))]

    def max_size_utilization(self, x):
        """Largest ``(x_i + x_j) / (2·d_ij)`` over all adjacent pairs.

        The Taylor form of Eq. 3 (and the exact hyperbolic form) require
        this ratio to stay below 1; values near 1 mean the two wires
        physically touch.  Callers use this to sanity-check bounds.
        """
        i, j, _ = self.pair_arrays()
        if not i.size:
            return 0.0
        x = np.asarray(x)
        return max(0.0, float(np.max((x[i] + x[j]) / (2.0 * self.pitch))))

    def __repr__(self):
        total = sum(len(c) for c in self.channels)
        return f"ChannelLayout(channels={len(self.channels)}, wires={total}, pitch={self.pitch})"
