"""Layout geometry substrate.

The paper abstracts layout to (a) an adjacency relation between wires
sharing a channel and (b) per-adjacent-pair geometry ``(l_ij, d_ij,
f̂_ij)`` feeding the coupling model of Eq. 2.  This package generates that
abstraction for arbitrary circuits:

* :func:`~repro.geometry.channels.wires_by_level` groups wires into
  routing channels (one per topological level — the standard-cell row
  model; see ``docs/architecture.md``, "Model choices: substitutions"),
* :class:`~repro.geometry.layout.ChannelLayout` holds the track order of
  every channel and extracts :class:`~repro.geometry.layout.CouplingPair`
  records for adjacent tracks.
"""

from repro.geometry.channels import Channel, wires_by_level
from repro.geometry.layout import ChannelLayout, CouplingPair

__all__ = ["Channel", "wires_by_level", "ChannelLayout", "CouplingPair"]
