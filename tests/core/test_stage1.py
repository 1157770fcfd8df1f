"""Stage 1 equals its float64 oracle bit for bit.

``order_channel_wires`` never builds float weights for WOSS (it sorts
integer keys) and sums every ordering's costs from disagreement counts;
the oracle in ``tests/oracles/stage1.py`` does both in float64.  The
orders must be the same and the costs bit-equal.
"""

import pytest

from repro import iscas85_circuit
from repro.circuit import random_circuit
from repro.core import SolverSession
from repro.core.flow import ORDERING_NAMES, order_channel_wires, resolve_ordering
from repro.geometry import ChannelLayout
from repro.noise import SimilarityAnalyzer, woss_ordering
from repro.runtime import CircuitRef
from repro.simulate import random_patterns, simulate_levelized

from oracles.stage1 import order_wires_reference


def _circuit(name, c17):
    if name == "c17":
        return c17
    if name.startswith("random"):
        return random_circuit(60, 8, 5, seed=int(name[len("random"):]),
                              target_depth=9)
    return iscas85_circuit(name)


def _check(analyzer, name, seed=0):
    layout = ChannelLayout.from_levels(analyzer.circuit)
    ordered, before, after = order_channel_wires(
        analyzer, layout, resolve_ordering(name, seed=seed))
    orders, ref_before, ref_after = order_wires_reference(
        simulate_levelized(analyzer.circuit, analyzer.patterns), layout,
        name, seed=seed)
    expect = layout.apply_ordering(orders)
    assert [ch.wires for ch in ordered.channels] == \
        [ch.wires for ch in expect.channels]
    assert before == ref_before
    assert after == ref_after


@pytest.mark.parametrize("n_patterns", [17, 64, 100, 256])
@pytest.mark.parametrize("name", ORDERING_NAMES)
@pytest.mark.parametrize("circuit",
                         ["c17", "c432", "c880", "random0", "random1",
                          "random2"])
def test_stage1_equals_float64_oracle(circuit, name, n_patterns, c17):
    """256 is the default; 100 patterns make ``1/P`` inexact, so any
    reordering of the float arithmetic would show in the last bits.
    Fewer patterns make more rows equal: 64 is the service's count, and
    17 merges the most wires into classes for WOSS's class walk."""
    analyzer = SimilarityAnalyzer(_circuit(circuit, c17),
                                  n_patterns=n_patterns, seed=3)
    _check(analyzer, name, seed=5)


@pytest.mark.parametrize("name", ORDERING_NAMES)
def test_stage1_equals_oracle_without_keys(name, c17):
    """Above 16383 patterns WOSS has no integer keys and orders float
    weights, like every other ordering."""
    patterns = random_patterns(c17.num_drivers, 16384, seed=0)
    analyzer = SimilarityAnalyzer(c17, patterns=patterns)
    assert analyzer.sort_keys([w.index for w in c17.wires()[:2]]) is None
    _check(analyzer, name)


def test_class_walk_equals_per_wire_walk_at_scale():
    """On ``random:20000`` every channel's class walk equals keyed WOSS
    over the channel's per-wire keys."""
    session = SolverSession.for_ref(CircuitRef.from_spec("random:20000"))
    analyzer = session.analyzer(256, 0)
    ordered, _, _ = session.stage1("woss", 256, 0)
    merged = 0
    for channel, result in zip(session.base_layout().channels,
                               ordered.channels):
        if len(channel) < 2:
            continue
        keys = analyzer.sort_keys(channel.wires)
        order = woss_ordering(None, sort_keys=keys)
        assert result.wires == channel.reordered(order).wires
        merged += len(channel) - len(analyzer.classes(channel.wires)[1])
    assert merged > 0
