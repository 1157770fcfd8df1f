"""Channel grouping."""

import numpy as np
import pytest

from repro.geometry import Channel, wires_by_level
from repro.utils.errors import GeometryError


def test_channels_partition_all_wires(small_circuit):
    channels = wires_by_level(small_circuit)
    seen = [w for ch in channels for w in ch.wires]
    expected = sorted(w.index for w in small_circuit.wires())
    assert sorted(seen) == expected


def test_channel_members_share_level(small_circuit):
    cc = small_circuit.compile()
    for ch in wires_by_level(small_circuit):
        levels = {int(cc.level[w]) for w in ch.wires}
        assert len(levels) == 1


def test_channel_reordered():
    ch = Channel("c", (10, 11, 12))
    out = ch.reordered([2, 0, 1])
    assert out.wires == (12, 10, 11)
    assert out.label == "c"


def test_channel_reorder_validates_permutation():
    ch = Channel("c", (10, 11, 12))
    with pytest.raises(GeometryError):
        ch.reordered([0, 0, 1])
    with pytest.raises(GeometryError):
        ch.reordered([0, 1])
    for bad in ([0, 1, 3], [-1, 0, 1], [0.0, 1.0, 2.0], [[0, 1, 2]],
                ["a", "b", "c"], [0, 1, 2, 0]):
        with pytest.raises(GeometryError):
            ch.reordered(bad)


def test_channel_reordered_accepts_arrays_and_keeps_int_tuples():
    ch = Channel("c", (10, 11, 12))
    out = ch.reordered(np.array([1, 2, 0], dtype=np.int32))
    assert out.wires == (11, 12, 10)
    assert all(type(w) is int for w in out.wires)
    assert Channel("e", ()).reordered([]).wires == ()


def test_duplicate_wire_rejected():
    with pytest.raises(GeometryError, match="lists a wire twice"):
        Channel("c", (5, 5))
    with pytest.raises(GeometryError, match="lists a wire twice"):
        Channel("c", (1, 2, 3, 2))


def test_reordered_copy_is_an_equal_channel():
    """The copy skips the duplicate check (its wires are a permutation of
    distinct ones) but is an ordinary, frozen, hashable Channel; bad
    permutations still raise (test above)."""
    ch = Channel("c", (10, 11, 12))
    out = ch.reordered([1, 2, 0])
    assert type(out) is Channel
    assert out == Channel("c", (11, 12, 10))
    assert hash(out) == hash(Channel("c", (11, 12, 10)))
    with pytest.raises(AttributeError):
        out.wires = (1,)


def test_len():
    assert len(Channel("c", (1, 2, 3))) == 3


def _reordered_reference(channel, order):
    """The per-wire loop the vectorized ``Channel.reordered`` replaced."""
    if sorted(order) != list(range(len(channel.wires))):
        raise GeometryError("invalid track permutation")
    return tuple(channel.wires[k] for k in order)


def test_reordered_equals_the_loop_reference():
    rng = np.random.default_rng(0)
    for width in (1, 2, 3, 17, 200):
        channel = Channel("c", tuple(rng.permutation(10 * width)[:width]
                                     .tolist()))
        for _ in range(5):
            order = rng.permutation(width).tolist()
            assert channel.reordered(order).wires == \
                _reordered_reference(channel, order)
            bad = list(order)
            bad[0] = bad[-1] if width > 1 else width
            for invalid in (bad, order[:-1], order + [0]):
                with pytest.raises(GeometryError):
                    _reordered_reference(channel, invalid)
                with pytest.raises(GeometryError):
                    channel.reordered(invalid)
