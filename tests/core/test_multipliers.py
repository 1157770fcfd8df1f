"""Multiplier state and the Theorem 3 projection."""

import numpy as np
import pytest

from repro.core import MultiplierState
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def cc(small_circuit):
    return small_circuit.compile()


def test_initial_state_conserves_flow(cc):
    state = MultiplierState.initial(cc)
    assert state.conservation_residual() < 1e-12
    assert state.sink_flow() == pytest.approx(len(cc.sink_in_edges))


def test_node_multipliers_sum_in_edges(cc, rng):
    lam = rng.uniform(0.0, 2.0, cc.num_edges)
    state = MultiplierState(cc, lam)
    node = state.node_multipliers()
    for i in range(cc.num_nodes):
        eids = cc.in_edges[cc.in_ptr[i]:cc.in_ptr[i + 1]]
        assert node[i] == pytest.approx(lam[eids].sum())


def test_projection_restores_conservation_exactly(cc, rng):
    for seed in range(5):
        lam = np.random.default_rng(seed).uniform(0.0, 3.0, cc.num_edges)
        state = MultiplierState(cc, lam)
        state.project()
        assert state.conservation_residual() < 1e-10


def test_projection_preserves_sink_flow(cc, rng):
    lam = rng.uniform(0.1, 2.0, cc.num_edges)
    state = MultiplierState(cc, lam)
    before = state.sink_flow()
    state.project()
    assert state.sink_flow() == pytest.approx(before)


def test_projection_preserves_relative_in_edge_weights(cc):
    """Scaling keeps the ratio between a node's in-edges fixed."""
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.5, 2.0, cc.num_edges)
    state = MultiplierState(cc, lam.copy())
    state.project()
    # Pick a gate with 2+ inputs.
    for i in range(cc.num_nodes):
        eids = cc.in_edges[cc.in_ptr[i]:cc.in_ptr[i + 1]]
        if len(eids) >= 2 and cc.is_gate[i]:
            before_ratio = lam[eids[0]] / lam[eids[1]]
            after_ratio = state.lam_edge[eids[0]] / state.lam_edge[eids[1]]
            assert after_ratio == pytest.approx(before_ratio, rel=1e-9)
            return
    pytest.skip("no multi-input gate found")


def test_projection_zero_in_edges_split_equally(cc):
    """Dead in-edges under live out-flow get the equal split."""
    state = MultiplierState.initial(cc)
    lam = state.lam_edge
    # Zero all in-edges of one internal wire with positive out-flow.
    for i in range(cc.num_nodes):
        if cc.is_wire[i]:
            eids_in = cc.in_edges[cc.in_ptr[i]:cc.in_ptr[i + 1]]
            eids_out = cc.out_edges[cc.out_ptr[i]:cc.out_ptr[i + 1]]
            if lam[eids_out].sum() > 0:
                lam[eids_in] = 0.0
                break
    state.project()
    assert state.conservation_residual() < 1e-10


def test_idempotent(cc, rng):
    lam = rng.uniform(0.0, 1.0, cc.num_edges)
    state = MultiplierState(cc, lam)
    state.project()
    first = state.lam_edge.copy()
    state.project()
    np.testing.assert_allclose(state.lam_edge, first, rtol=1e-12)


def test_negative_multipliers_rejected(cc):
    lam = np.zeros(cc.num_edges)
    lam[0] = -1.0
    with pytest.raises(ValidationError):
        MultiplierState(cc, lam)
    with pytest.raises(ValidationError):
        MultiplierState(cc, beta=-0.1)


def test_wrong_shape_rejected(cc):
    with pytest.raises(ValidationError):
        MultiplierState(cc, np.zeros(cc.num_edges + 1))


def test_copy_is_independent(cc):
    state = MultiplierState.initial(cc, beta=0.5, gamma=0.25)
    clone = state.copy()
    clone.lam_edge[:] = 0.0
    clone.beta = 9.0
    assert state.lam_edge.sum() > 0
    assert state.beta == 0.5
    assert clone.gamma == 0.25


def test_stack_unstack_lam_round_trip(cc, rng):
    states = [MultiplierState.initial(cc) for _ in range(3)]
    for s in states:
        s.lam_edge = rng.uniform(0.0, 2.0, cc.num_edges)
    originals = [s.lam_edge.copy() for s in states]
    cols = MultiplierState.stack_lam(states)
    assert cols.shape == (cc.num_edges, 3)
    out = MultiplierState.unstack_lam(states, cols)
    assert out is states
    for s, orig in zip(states, originals):
        assert s.lam_edge.tobytes() == orig.tobytes()
        assert s.lam_edge.flags["C_CONTIGUOUS"]
        assert s.lam_edge is not orig  # fresh copies, no column views


def test_one_state_stacks_as_a_view(cc, rng):
    """A width-one stack copies nothing; the write-back hands the state
    its column, contiguous."""
    state = MultiplierState.initial(cc)
    state.lam_edge = rng.uniform(0.0, 2.0, cc.num_edges)
    cols = MultiplierState.stack_lam([state])
    assert cols.shape == (cc.num_edges, 1)
    assert np.shares_memory(cols, state.lam_edge)
    cols *= 2.0
    expected = state.lam_edge.copy()
    MultiplierState.unstack_lam([state], cols)
    assert state.lam_edge.tobytes() == expected.tobytes()
    assert state.lam_edge.flags["C_CONTIGUOUS"]


def test_gamma_is_one_scalar(cc):
    """Problem PP has one crosstalk bound, priced by one float γ."""
    state = MultiplierState(cc, gamma=np.float64(0.25))
    assert type(state.gamma) is float and state.gamma == 0.25
    assert type(MultiplierState.initial(cc, gamma=1).gamma) is float
    assert type(state.copy().gamma) is float
