"""Track layout and coupling-pair extraction."""

import numpy as np
import pytest

from repro.geometry import Channel, ChannelLayout, CouplingPair
from repro.utils.errors import GeometryError


class TestCouplingPair:
    def test_derived_constants(self):
        p = CouplingPair(i=3, j=7, overlap=100.0, distance=2.0, unit_fringe=0.5)
        assert p.ctilde == pytest.approx(0.5 * 100 / 2.0)     # f̂·l/d
        assert p.chat == pytest.approx(p.ctilde / 4.0)        # ~c/(2d)

    def test_ordering_and_positivity_enforced(self):
        with pytest.raises(GeometryError):
            CouplingPair(i=7, j=3, overlap=1.0, distance=1.0, unit_fringe=1.0)
        with pytest.raises(GeometryError):
            CouplingPair(i=3, j=3, overlap=1.0, distance=1.0, unit_fringe=1.0)
        with pytest.raises(GeometryError):
            CouplingPair(i=1, j=2, overlap=0.0, distance=1.0, unit_fringe=1.0)


class TestLayout:
    def test_from_levels_covers_all_wires(self, small_circuit):
        layout = ChannelLayout.from_levels(small_circuit)
        total = sum(len(ch) for ch in layout.channels)
        assert total == small_circuit.num_wires

    def test_adjacent_pairs_only(self, small_circuit):
        layout = ChannelLayout.from_levels(small_circuit)
        pairs = layout.coupling_pairs()
        n_expected = sum(max(0, len(ch) - 1) for ch in layout.channels)
        assert len(pairs) == n_expected

    def test_overlap_is_shorter_length(self, small_circuit):
        layout = ChannelLayout.from_levels(small_circuit)
        for p in layout.coupling_pairs():
            li = small_circuit.node(p.i).length
            lj = small_circuit.node(p.j).length
            assert p.overlap == pytest.approx(min(li, lj))

    def test_pitch_from_tech_default(self, small_circuit):
        layout = ChannelLayout.from_levels(small_circuit)
        assert layout.pitch == small_circuit.tech.track_pitch
        custom = ChannelLayout.from_levels(small_circuit, pitch=3.5)
        assert all(p.distance == 3.5 for p in custom.coupling_pairs())

    def test_apply_ordering_changes_adjacency(self, small_circuit):
        layout = ChannelLayout.from_levels(small_circuit)
        big = max(layout.channels, key=len)
        if len(big) < 3:
            pytest.skip("circuit has no channel with 3+ wires")
        order = list(range(len(big)))[::-1]
        new_layout = layout.apply_ordering({big.label: order})
        old_pairs = {(p.i, p.j) for p in layout.coupling_pairs()}
        new_pairs = {(p.i, p.j) for p in new_layout.coupling_pairs()}
        # Reversal preserves adjacency within the channel.
        assert old_pairs == new_pairs
        shuffled = list(range(len(big)))
        shuffled = shuffled[1:] + shuffled[:1]
        rotated = layout.apply_ordering({big.label: shuffled})
        assert {(p.i, p.j) for p in rotated.coupling_pairs()} != old_pairs

    def test_wire_in_two_channels_rejected(self, small_circuit):
        w = small_circuit.wires()[0].index
        with pytest.raises(GeometryError):
            ChannelLayout(small_circuit,
                          [Channel("a", (w,)), Channel("b", (w,))])

    def test_non_wire_member_rejected(self, small_circuit):
        g = small_circuit.gates()[0].index
        with pytest.raises(GeometryError):
            ChannelLayout(small_circuit, [Channel("a", (g,))])

    def test_bad_pitch_rejected(self, small_circuit):
        with pytest.raises(GeometryError):
            ChannelLayout.from_levels(small_circuit, pitch=0.0)

    def test_max_size_utilization(self, small_circuit):
        layout = ChannelLayout.from_levels(small_circuit)
        x_min = small_circuit.compile().default_sizes(0.0)
        x_max = small_circuit.compile().default_sizes(np.inf)
        assert layout.max_size_utilization(x_min) < layout.max_size_utilization(x_max)


def test_layout_members_equal_the_per_wire_loop(small_circuit):
    layout = ChannelLayout.from_levels(small_circuit)
    rng = np.random.default_rng(1)
    ordered = layout.apply_ordering({c.label: rng.permutation(len(c)).tolist()
                                     for c in layout.channels})
    for each in (layout, ordered):
        members = np.fromiter((idx for channel in each.channels
                               for idx in channel.wires), dtype=np.int64)
        channel_of = np.concatenate(
            [np.full(len(c), k) for k, c in enumerate(each.channels)])
        assert np.array_equal(each._members, members)
        assert np.array_equal(each._channel_of, channel_of)
